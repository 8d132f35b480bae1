//! The audit pipeline: bounded queue, background drainer, recovery.
//!
//! Producers (the reference monitor's check path) call
//! [`AuditSink::offer`], which is one `try_send` on a bounded channel —
//! it never blocks, never does I/O, and sheds (with a counter) when the
//! drainer falls behind. The drainer thread reassembles the
//! multi-producer stream into sequence order, turns *known* losses into
//! tamper-evident [`Entry::Gap`] markers, and appends chained frames
//! into segments via a [`Store`].
//!
//! # Ordering and gaps
//!
//! Sequence numbers are assigned by the ring's atomic counter *before*
//! the enqueue, so events can reach the drainer slightly out of order.
//! The drainer holds them in a reorder buffer and only persists the
//! contiguous prefix. A sequence number that never arrives was either
//! shed at the queue (the common case, counted by the sink) or belongs
//! to a producer stalled between counter and enqueue; the drainer
//! declares it lost — as a chained gap entry — only when forced: when
//! the reorder buffer outgrows the queue bound (the event can no longer
//! be in flight), after a sustained stall with buffered successors, or
//! at an explicit [`AuditPipeline::flush`] barrier. A flush only
//! declares gaps once it has fully drained the queue, so an event whose
//! `offer` returned before the flush call can never be mistaken for a
//! loss. A straggler arriving after its gap was declared is dropped and
//! counted (`late_dropped`) — the chain's story stays consistent.

use crate::query::{AuditQuery, GapRange, QueryResult, SegmentReport, SegmentStatus, VerifyReport};
use crate::record::{hash_from_hex, hash_hex, AuditRecord, ChainHash, Entry, GENESIS};
use crate::segment::{
    parse_segment_name, push_frame, scan_segment, segment_header, segment_name, Manifest,
    SealedSegment, MANIFEST_NAME, SEGMENT_HEADER_LEN,
};
use crate::store::{DiskStore, MemStore, Store};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError, TrySendError};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for one pipeline.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Capacity of the bounded producer queue; a full queue sheds.
    pub queue_capacity: usize,
    /// Segments are sealed once they reach this many bytes.
    pub segment_max_bytes: u64,
    /// How long the drainer idles before persisting stragglers and
    /// re-checking for stalled holes.
    pub idle_flush: Duration,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            queue_capacity: 8192,
            segment_max_bytes: 1 << 20,
            idle_flush: Duration::from_millis(20),
        }
    }
}

/// Pipeline observability counters (all monotone except `queue_depth`,
/// `active_bytes`, `next_seq`, and `running`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Events accepted onto the queue.
    pub enqueued: u64,
    /// Events shed because the queue was full or the drainer gone (each
    /// eventually becomes part of a declared gap).
    pub shed: u64,
    /// Events that arrived after their sequence number was already
    /// declared lost, and were dropped to keep the chain consistent.
    pub late_dropped: u64,
    /// Event entries persisted into segments.
    pub persisted_events: u64,
    /// Gap entries persisted.
    pub gap_records: u64,
    /// Total sequence numbers covered by persisted gaps.
    pub gap_missing: u64,
    /// Segments sealed into the manifest.
    pub segments_sealed: u64,
    /// Explicit flush barriers completed.
    pub flushes: u64,
    /// Store I/O failures observed by the drainer.
    pub io_errors: u64,
    /// Bytes truncated off a torn tail during startup recovery.
    pub recovered_truncated_bytes: u64,
    /// Chain verifications performed.
    pub verify_calls: u64,
    /// Total nanoseconds spent verifying.
    pub verify_ns: u64,
    /// The next sequence number the drainer expects (everything below
    /// is persisted or declared lost).
    pub next_seq: u64,
    /// Events currently queued or held in the reorder buffer.
    pub queue_depth: u64,
    /// Bytes in the unsealed active segment.
    pub active_bytes: u64,
    /// Whether the drainer thread is running.
    pub running: bool,
}

#[derive(Default)]
struct Counters {
    enqueued: AtomicU64,
    shed: AtomicU64,
    dequeued: AtomicU64,
    late_dropped: AtomicU64,
    persisted_events: AtomicU64,
    gap_records: AtomicU64,
    gap_missing: AtomicU64,
    segments_sealed: AtomicU64,
    flushes: AtomicU64,
    io_errors: AtomicU64,
    recovered_truncated_bytes: AtomicU64,
    verify_calls: AtomicU64,
    verify_ns: AtomicU64,
    next_seq: AtomicU64,
}

enum Msg {
    Event(AuditRecord),
    Flush(Sender<io::Result<()>>),
    /// Test hook: exit immediately without flushing or sealing,
    /// simulating a crash mid-segment.
    Crash,
    Shutdown,
}

/// A cheap clonable producer handle. One `offer` is one `try_send`.
#[derive(Clone)]
pub struct AuditSink {
    tx: Sender<Msg>,
    counters: Arc<Counters>,
}

impl AuditSink {
    /// Offers one record to the drainer; never blocks and never does
    /// I/O. Returns whether the record was accepted (a refusal is
    /// counted as shed and will be declared as a gap).
    pub fn offer(&self, record: AuditRecord) -> bool {
        match self.tx.try_send(Msg::Event(record)) {
            Ok(()) => {
                self.counters.enqueued.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }
}

impl std::fmt::Debug for AuditSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditSink").finish_non_exhaustive()
    }
}

/// Chain/segment state shared between the drainer and the admin
/// (query/verify) paths. The check path never touches this lock.
struct Inner {
    store: Box<dyn Store>,
    manifest: Manifest,
    chain_head: ChainHash,
    active_name: String,
    active_len: u64,
    active_entries: u64,
    /// First sequence number covered by the active segment (meaningful
    /// only when `active_entries > 0`).
    active_first: u64,
    /// The sequence number just past the active segment's coverage
    /// (equals the segment's nominal start when empty).
    active_next: u64,
    segment_max: u64,
}

impl Inner {
    /// Appends `entries` (already in sequence order) to the active
    /// segment, sealing and rolling it as it fills. State is committed
    /// only after each append succeeds, so an I/O failure leaves the
    /// in-memory chain consistent with the bytes that actually landed.
    fn persist(&mut self, entries: &[Entry], counters: &Counters, durable: bool) -> io::Result<()> {
        let mut scratch = Vec::new();
        let mut buf = Vec::new();
        let mut iter = entries.iter().peekable();
        while iter.peek().is_some() {
            buf.clear();
            let mut chain = self.chain_head;
            let mut first = None;
            let mut next = self.active_next;
            let mut count = 0u64;
            let mut events = 0u64;
            let mut gap_records = 0u64;
            let mut gap_missing = 0u64;
            while let Some(entry) = iter.peek() {
                if self.active_entries + count > 0
                    && self.active_len + buf.len() as u64 >= self.segment_max
                {
                    break;
                }
                chain = push_frame(&mut buf, &mut scratch, &chain, entry);
                first.get_or_insert(entry.first_seq());
                next = entry.last_seq() + 1;
                count += 1;
                match entry {
                    Entry::Event(_) => events += 1,
                    Entry::Gap { first, last } => {
                        gap_records += 1;
                        gap_missing += last - first + 1;
                    }
                }
                iter.next();
            }
            if count > 0 {
                self.store.append(&self.active_name, &buf)?;
                self.active_len += buf.len() as u64;
                if self.active_entries == 0 {
                    self.active_first = first.expect("count > 0 implies a first entry");
                }
                self.active_entries += count;
                self.active_next = next;
                self.chain_head = chain;
                counters
                    .persisted_events
                    .fetch_add(events, Ordering::Relaxed);
                counters
                    .gap_records
                    .fetch_add(gap_records, Ordering::Relaxed);
                counters
                    .gap_missing
                    .fetch_add(gap_missing, Ordering::Relaxed);
            }
            if iter.peek().is_some() {
                self.roll(counters)?;
            }
        }
        if durable {
            self.store.sync(&self.active_name)?;
        }
        Ok(())
    }

    /// Seals the (non-empty) active segment into the manifest and starts
    /// a fresh one anchored on the chain head.
    fn roll(&mut self, counters: &Counters) -> io::Result<()> {
        debug_assert!(self.active_entries > 0, "never seal an empty segment");
        self.store.sync(&self.active_name)?;
        let start_hash = self
            .manifest
            .segments
            .last()
            .map(|s| s.end_hash.clone())
            .unwrap_or_else(|| hash_hex(&GENESIS));
        self.manifest.segments.push(SealedSegment {
            name: self.active_name.clone(),
            first_seq: self.active_first,
            last_seq: self.active_next - 1,
            entries: self.active_entries,
            start_hash,
            end_hash: hash_hex(&self.chain_head),
        });
        self.manifest.head = hash_hex(&self.chain_head);
        self.write_manifest()?;
        counters.segments_sealed.fetch_add(1, Ordering::Relaxed);
        self.start_segment(self.active_next)
    }

    fn start_segment(&mut self, first_seq: u64) -> io::Result<()> {
        self.active_name = segment_name(first_seq);
        self.store
            .append(&self.active_name, &segment_header(&self.chain_head))?;
        self.active_len = SEGMENT_HEADER_LEN as u64;
        self.active_entries = 0;
        self.active_first = first_seq;
        self.active_next = first_seq;
        Ok(())
    }

    fn write_manifest(&mut self) -> io::Result<()> {
        let json = serde_json::to_string(&self.manifest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.store.write_atomic(MANIFEST_NAME, json.as_bytes())
    }
}

/// The tamper-evident persistent audit pipeline.
///
/// See the [module docs](self) for the data flow. Dropping the pipeline
/// shuts the drainer down gracefully (final flush, no seal).
pub struct AuditPipeline {
    sink: AuditSink,
    inner: Arc<Mutex<Inner>>,
    counters: Arc<Counters>,
    drainer: Mutex<Option<JoinHandle<()>>>,
    queue_capacity: usize,
}

impl AuditPipeline {
    /// Opens (or recovers) a pipeline over a directory on disk.
    pub fn open_dir(dir: impl AsRef<Path>, config: PipelineConfig) -> io::Result<AuditPipeline> {
        AuditPipeline::open(Box::new(DiskStore::open(dir)?), config)
    }

    /// Opens a pipeline over a fresh in-memory store (used by tests and
    /// the campaign explorer's invariant probes).
    pub fn in_memory(config: PipelineConfig) -> AuditPipeline {
        AuditPipeline::open(Box::new(MemStore::new()), config).expect("in-memory store cannot fail")
    }

    /// Opens a pipeline over any [`Store`], running startup recovery:
    /// sealed segments are trusted from the manifest (verified lazily by
    /// [`verify`](AuditPipeline::verify)), the unsealed tail is
    /// re-chained from its anchor, and a torn tail is truncated back to
    /// the last chain-valid entry.
    pub fn open(store: Box<dyn Store>, config: PipelineConfig) -> io::Result<AuditPipeline> {
        let counters = Arc::new(Counters::default());
        let mut inner = Inner {
            store,
            manifest: Manifest::default(),
            chain_head: GENESIS,
            active_name: String::new(),
            active_len: 0,
            active_entries: 0,
            active_first: 0,
            active_next: 0,
            segment_max: config.segment_max_bytes.max(SEGMENT_HEADER_LEN as u64 + 64),
        };
        let names = inner.store.list()?;
        if names.iter().any(|n| n == MANIFEST_NAME) {
            let bytes = inner.store.read(MANIFEST_NAME)?;
            let text = std::str::from_utf8(&bytes)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "manifest not utf-8"))?;
            inner.manifest = serde_json::from_str(text).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad manifest: {e}"))
            })?;
        }
        inner.chain_head = hash_from_hex(&inner.manifest.head)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad manifest head"))?;
        let mut next_seq = inner
            .manifest
            .segments
            .last()
            .map(|s| s.last_seq + 1)
            .unwrap_or(0);

        // Unsealed segments: everything named like a segment but absent
        // from the manifest. By construction at most one exists; recover
        // defensively anyway, oldest first.
        let mut unsealed: Vec<(u64, String)> = names
            .iter()
            .filter(|n| !inner.manifest.segments.iter().any(|s| &s.name == *n))
            .filter_map(|n| parse_segment_name(n).map(|seq| (seq, n.clone())))
            .collect();
        unsealed.sort_unstable();

        let mut have_active = false;
        let count = unsealed.len();
        for (i, (_, name)) in unsealed.into_iter().enumerate() {
            let is_last = i + 1 == count;
            let bytes = inner.store.read(&name)?;
            let scan = scan_segment(&bytes, Some(&inner.chain_head));
            if scan.valid_len < bytes.len() as u64 {
                counters
                    .recovered_truncated_bytes
                    .fetch_add(bytes.len() as u64 - scan.valid_len, Ordering::Relaxed);
            }
            if scan.valid_len < SEGMENT_HEADER_LEN as u64 {
                // The header never fully landed (or cannot splice onto
                // the chain): nothing recoverable here.
                inner.store.remove(&name)?;
                continue;
            }
            if scan.valid_len < bytes.len() as u64 {
                inner.store.truncate(&name, scan.valid_len)?;
            }
            let entries = scan.entries.len() as u64;
            let first = scan
                .entries
                .first()
                .map(|e| e.first_seq())
                .unwrap_or(next_seq);
            if let Some(last_entry) = scan.entries.last() {
                next_seq = last_entry.last_seq() + 1;
            }
            inner.chain_head = scan.end_hash;
            if is_last {
                inner.active_name = name;
                inner.active_len = scan.valid_len;
                inner.active_entries = entries;
                inner.active_first = first;
                inner.active_next = next_seq;
                have_active = true;
            } else if entries > 0 {
                // An older unsealed segment with content: seal it now so
                // exactly one unsealed segment remains.
                let start_hash = inner
                    .manifest
                    .segments
                    .last()
                    .map(|s| s.end_hash.clone())
                    .unwrap_or_else(|| hash_hex(&GENESIS));
                inner.manifest.segments.push(SealedSegment {
                    name,
                    first_seq: first,
                    last_seq: next_seq - 1,
                    entries,
                    start_hash,
                    end_hash: hash_hex(&inner.chain_head),
                });
                inner.manifest.head = hash_hex(&inner.chain_head);
                counters.segments_sealed.fetch_add(1, Ordering::Relaxed);
            } else {
                inner.store.remove(&name)?;
            }
        }
        if !have_active {
            inner.start_segment(next_seq)?;
        }
        inner.write_manifest()?;
        counters.next_seq.store(next_seq, Ordering::Relaxed);

        let queue_capacity = config.queue_capacity.max(1);
        let (tx, rx) = channel::bounded(queue_capacity);
        let sink = AuditSink {
            tx,
            counters: counters.clone(),
        };
        let inner = Arc::new(Mutex::new(inner));
        let drainer = Drainer {
            rx,
            inner: inner.clone(),
            counters: counters.clone(),
            next: next_seq,
            buffered: BTreeMap::new(),
            pending: Vec::new(),
            pending_acks: Vec::new(),
            overdue_bound: queue_capacity,
            stalled_rounds: 0,
        };
        let idle = config.idle_flush;
        let handle = std::thread::Builder::new()
            .name("audit-drainer".to_owned())
            .spawn(move || drainer.run(idle))
            .map_err(|e| io::Error::other(format!("spawning drainer: {e}")))?;
        Ok(AuditPipeline {
            sink,
            inner,
            counters,
            drainer: Mutex::new(Some(handle)),
            queue_capacity,
        })
    }

    /// A clonable producer handle, for producers that outlive a borrow
    /// of the pipeline.
    pub fn sink(&self) -> AuditSink {
        self.sink.clone()
    }

    /// Offers one record to the drainer through the pipeline's own
    /// handle (see [`AuditSink::offer`]). The reference monitor records
    /// into this.
    pub fn offer(&self, record: AuditRecord) -> bool {
        self.sink.offer(record)
    }

    /// The configured queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The next sequence number the pipeline expects. A monitor
    /// attaching to a recovered pipeline advances its ring counter here
    /// so sequence numbers stay globally monotone across restarts.
    pub fn next_seq(&self) -> u64 {
        self.counters.next_seq.load(Ordering::Relaxed)
    }

    /// Blocks until everything offered *before this call* is persisted,
    /// declaring still-missing sequence numbers as gaps, and fsyncs the
    /// active tail. Errors if the drainer has stopped or the store
    /// failed.
    pub fn flush(&self) -> io::Result<()> {
        let (ack_tx, ack_rx) = channel::bounded(1);
        self.sink
            .tx
            .send(Msg::Flush(ack_tx))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "audit drainer stopped"))?;
        ack_rx
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "audit drainer stopped"))?
    }

    /// Runs a bounded, filtered query over the persisted log (sealed
    /// segments and the active tail). Call [`flush`](AuditPipeline::flush)
    /// first to include everything recorded so far.
    pub fn query(&self, query: &AuditQuery) -> io::Result<QueryResult> {
        let inner = self.inner.lock();
        let limit = query.effective_limit();
        let mut result = QueryResult::default();
        let mut segments: Vec<(String, u64, u64)> = inner
            .manifest
            .segments
            .iter()
            .map(|s| (s.name.clone(), s.first_seq, s.last_seq))
            .collect();
        if inner.active_entries > 0 {
            segments.push((
                inner.active_name.clone(),
                inner.active_first,
                inner.active_next - 1,
            ));
        }
        'segments: for (name, first, last) in segments {
            if last < query.seq_min {
                continue;
            }
            if query.seq_max.is_some_and(|max| first > max) {
                break;
            }
            let bytes = inner.store.read(&name)?;
            // Damage is surfaced by `verify`; a query returns whatever
            // prefix still chains.
            let scan = scan_segment(&bytes, None);
            for entry in scan.entries {
                match entry {
                    Entry::Event(record) => {
                        if query.matches(&record) {
                            if result.records.len() == limit {
                                result.truncated = true;
                                result.next_seq = record.seq;
                                break 'segments;
                            }
                            result.records.push(record);
                        }
                    }
                    Entry::Gap { first, last } => {
                        let lo = first.max(query.seq_min);
                        let hi = query.seq_max.map_or(last, |max| last.min(max));
                        if lo <= hi {
                            result.gaps.push(GapRange { first, last });
                        }
                    }
                }
            }
        }
        if !result.truncated {
            result.next_seq = inner.active_next.max(query.seq_min);
        }
        Ok(result)
    }

    /// Re-derives the whole chain and reports per-segment integrity.
    /// Never panics on damage — a flipped byte, torn tail, missing blob,
    /// or resealed file each map to a typed [`SegmentStatus`].
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let started = Instant::now();
        let inner = self.inner.lock();
        let mut report = VerifyReport {
            ok: true,
            segments: Vec::new(),
            chain_head: hash_hex(&GENESIS),
            next_seq: 0,
        };
        let mut chain = GENESIS;
        let mut expect_seq: Option<u64> = None;
        for seg in &inner.manifest.segments {
            let (seg_report, end) = Self::verify_segment(
                &*inner.store,
                &seg.name,
                true,
                &chain,
                Some(&seg.end_hash),
                &mut expect_seq,
            );
            match end {
                Some(end) => chain = end,
                // Re-anchor on the manifest's sealed end hash so damage
                // in one segment does not cascade into its successors'
                // verdicts.
                None => chain = hash_from_hex(&seg.end_hash).unwrap_or(chain),
            }
            report.ok &= seg_report.status.is_ok();
            report.segments.push(seg_report);
        }
        if inner.active_entries > 0 || inner.manifest.segments.is_empty() {
            let (seg_report, end) = Self::verify_segment(
                &*inner.store,
                &inner.active_name,
                false,
                &chain,
                None,
                &mut expect_seq,
            );
            if let Some(end) = end {
                chain = end;
            }
            report.ok &= seg_report.status.is_ok();
            report.segments.push(seg_report);
        }
        report.chain_head = hash_hex(&chain);
        report.next_seq = expect_seq.unwrap_or(inner.active_next);
        drop(inner);
        self.counters.verify_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .verify_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(report)
    }

    fn verify_segment(
        store: &dyn Store,
        name: &str,
        sealed: bool,
        anchor: &ChainHash,
        sealed_end: Option<&str>,
        expect_seq: &mut Option<u64>,
    ) -> (SegmentReport, Option<ChainHash>) {
        let mut report = SegmentReport {
            name: name.to_owned(),
            sealed,
            first_seq: 0,
            last_seq: 0,
            entries: 0,
            status: SegmentStatus::Ok,
        };
        let bytes = match store.read(name) {
            Ok(bytes) => bytes,
            Err(_) => {
                report.status = SegmentStatus::Missing;
                return (report, None);
            }
        };
        let scan = scan_segment(&bytes, Some(anchor));
        report.entries = scan.entries.len() as u64;
        if let Some(first) = scan.entries.first() {
            report.first_seq = first.first_seq();
            report.last_seq = scan
                .entries
                .last()
                .expect("non-empty entries have a last")
                .last_seq();
        }
        if let Some(damage) = scan.damage {
            report.status = SegmentStatus::Damaged(damage);
            return (report, None);
        }
        if let Some(end_hex) = sealed_end {
            if hash_hex(&scan.end_hash) != end_hex {
                report.status = SegmentStatus::EndHashMismatch;
                return (report, None);
            }
        }
        for entry in &scan.entries {
            if let Some(expected) = *expect_seq {
                if entry.first_seq() != expected {
                    report.status = SegmentStatus::SeqBreak(expected);
                    return (report, Some(scan.end_hash));
                }
            }
            *expect_seq = Some(entry.last_seq() + 1);
        }
        (report, Some(scan.end_hash))
    }

    /// Snapshots the pipeline counters.
    pub fn stats(&self) -> PipelineStats {
        let c = &self.counters;
        let active_bytes = self.inner.lock().active_len;
        let enqueued = c.enqueued.load(Ordering::Relaxed);
        let dequeued = c.dequeued.load(Ordering::Relaxed);
        PipelineStats {
            enqueued,
            shed: c.shed.load(Ordering::Relaxed),
            late_dropped: c.late_dropped.load(Ordering::Relaxed),
            persisted_events: c.persisted_events.load(Ordering::Relaxed),
            gap_records: c.gap_records.load(Ordering::Relaxed),
            gap_missing: c.gap_missing.load(Ordering::Relaxed),
            segments_sealed: c.segments_sealed.load(Ordering::Relaxed),
            flushes: c.flushes.load(Ordering::Relaxed),
            io_errors: c.io_errors.load(Ordering::Relaxed),
            recovered_truncated_bytes: c.recovered_truncated_bytes.load(Ordering::Relaxed),
            verify_calls: c.verify_calls.load(Ordering::Relaxed),
            verify_ns: c.verify_ns.load(Ordering::Relaxed),
            next_seq: c.next_seq.load(Ordering::Relaxed),
            queue_depth: enqueued.saturating_sub(dequeued),
            active_bytes,
            running: self.is_running(),
        }
    }

    /// Whether the drainer thread is still alive.
    pub fn is_running(&self) -> bool {
        self.drainer
            .lock()
            .as_ref()
            .is_some_and(|h| !h.is_finished())
    }

    /// Gracefully stops the drainer: drains the queue, declares
    /// remaining holes, persists and fsyncs. Idempotent.
    pub fn shutdown(&self) {
        let handle = self.drainer.lock().take();
        if let Some(handle) = handle {
            let _ = self.sink.tx.send(Msg::Shutdown);
            let _ = handle.join();
        }
    }

    /// Test hook: stops the drainer *without* flushing, sealing, or
    /// syncing — whatever the store already absorbed is what a restart
    /// finds. Simulates the process dying mid-segment.
    pub fn crash_for_test(&self) {
        let handle = self.drainer.lock().take();
        if let Some(handle) = handle {
            let _ = self.sink.tx.send(Msg::Crash);
            let _ = handle.join();
        }
    }
}

impl Drop for AuditPipeline {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for AuditPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditPipeline")
            .field("next_seq", &self.next_seq())
            .field("running", &self.is_running())
            .finish()
    }
}

/// Per-round cap on queued events drained before persisting a batch
/// (unlimited once a flush barrier or shutdown is pending).
const DRAIN_CAP: usize = 2048;

struct Drainer {
    rx: Receiver<Msg>,
    inner: Arc<Mutex<Inner>>,
    counters: Arc<Counters>,
    /// The next sequence number to persist; everything below is
    /// persisted or declared lost.
    next: u64,
    /// Out-of-order arrivals waiting for their predecessors.
    buffered: BTreeMap<u64, AuditRecord>,
    /// In-order entries staged for the next persist batch.
    pending: Vec<Entry>,
    /// Flush barriers waiting for a fully-drained queue.
    pending_acks: Vec<Sender<io::Result<()>>>,
    /// Reorder-buffer size beyond which the oldest hole can no longer
    /// be in flight and is declared lost.
    overdue_bound: usize,
    /// Consecutive idle rounds with a stalled hole.
    stalled_rounds: u32,
}

impl Drainer {
    fn run(mut self, idle: Duration) {
        loop {
            let mut stop = false;
            let mut crash = false;
            match self.rx.recv_timeout(idle) {
                Ok(msg) => self.sort(msg, &mut stop, &mut crash),
                Err(RecvTimeoutError::Disconnected) => stop = true,
                Err(RecvTimeoutError::Timeout) => {
                    if self.buffered.is_empty() {
                        self.stalled_rounds = 0;
                    } else {
                        // A hole with buffered successors survived two
                        // full idle periods: the producer is not merely
                        // preempted mid-offer. Declare the loss.
                        self.stalled_rounds += 1;
                        if self.stalled_rounds >= 2 {
                            self.declare_all_gaps();
                            self.stalled_rounds = 0;
                        }
                    }
                    // Errors are counted (`io_errors`) inside persist;
                    // the next flush barrier surfaces them to a caller.
                    let _ = self.persist(false);
                    continue;
                }
            }
            // Drain whatever else is queued. A pending barrier (flush or
            // shutdown) drains to empty — its gap declarations must not
            // cover events still sitting in the queue.
            let mut drained_fully = false;
            let mut taken = 0usize;
            loop {
                let barrier = stop || !self.pending_acks.is_empty();
                if !barrier && taken >= DRAIN_CAP {
                    break;
                }
                match self.rx.try_recv() {
                    Ok(msg) => {
                        taken += 1;
                        self.sort(msg, &mut stop, &mut crash);
                        if crash {
                            break;
                        }
                    }
                    Err(TryRecvError::Empty) => {
                        drained_fully = true;
                        break;
                    }
                    Err(TryRecvError::Disconnected) => {
                        drained_fully = true;
                        stop = true;
                        break;
                    }
                }
            }
            if crash {
                let failure = || {
                    io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "audit drainer crashed (test hook)",
                    )
                };
                for ack in self.pending_acks.drain(..) {
                    let _ = ack.send(Err(failure()));
                }
                return;
            }
            let barrier = (stop || !self.pending_acks.is_empty()) && drained_fully;
            if barrier {
                self.declare_all_gaps();
            }
            let outcome = self.persist(barrier);
            if barrier && !self.pending_acks.is_empty() {
                self.counters
                    .flushes
                    .fetch_add(self.pending_acks.len() as u64, Ordering::Relaxed);
                for ack in self.pending_acks.drain(..) {
                    let _ = ack.send(clone_outcome(&outcome));
                }
            }
            if stop && drained_fully {
                return;
            }
        }
    }

    fn sort(&mut self, msg: Msg, stop: &mut bool, crash: &mut bool) {
        match msg {
            Msg::Event(record) => {
                self.counters.dequeued.fetch_add(1, Ordering::Relaxed);
                self.stalled_rounds = 0;
                self.ingest(record);
            }
            Msg::Flush(ack) => self.pending_acks.push(ack),
            Msg::Shutdown => *stop = true,
            Msg::Crash => *crash = true,
        }
    }

    fn ingest(&mut self, record: AuditRecord) {
        if record.seq < self.next {
            self.counters.late_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.buffered.insert(record.seq, record);
        self.pop_ready();
        while self.buffered.len() > self.overdue_bound {
            // More events above the hole than the queue can hold: the
            // missing ones cannot still be in flight.
            self.declare_next_gap();
        }
    }

    fn pop_ready(&mut self) {
        while let Some(record) = self.buffered.remove(&self.next) {
            self.next = record.seq + 1;
            self.pending.push(Entry::Event(record));
        }
    }

    fn declare_next_gap(&mut self) {
        if let Some(&min) = self.buffered.keys().next() {
            debug_assert!(min > self.next);
            self.pending.push(Entry::Gap {
                first: self.next,
                last: min - 1,
            });
            self.next = min;
            self.pop_ready();
        }
    }

    fn declare_all_gaps(&mut self) {
        while !self.buffered.is_empty() {
            self.declare_next_gap();
        }
    }

    fn persist(&mut self, durable: bool) -> io::Result<()> {
        if self.pending.is_empty() && !durable {
            return Ok(());
        }
        let entries = std::mem::take(&mut self.pending);
        let outcome = self.inner.lock().persist(&entries, &self.counters, durable);
        if outcome.is_err() {
            self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.counters.next_seq.store(self.next, Ordering::Relaxed);
        outcome
    }
}

fn clone_outcome(outcome: &io::Result<()>) -> io::Result<()> {
    match outcome {
        Ok(()) => Ok(()),
        Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Outcome;

    fn record(seq: u64) -> AuditRecord {
        AuditRecord {
            seq,
            principal: (seq % 7) as u32,
            generation: 1,
            mode: 0,
            outcome: if seq.is_multiple_of(3) {
                Outcome::MacFlow
            } else {
                Outcome::Allow
            },
            path: format!("/svc/fs/file{}", seq % 11),
        }
    }

    #[test]
    fn records_persist_in_order_and_verify() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig::default());
        let sink = pipeline.sink();
        for seq in 0..500 {
            assert!(sink.offer(record(seq)));
        }
        pipeline.flush().unwrap();
        let report = pipeline.verify().unwrap();
        assert!(report.ok, "{report:?}");
        assert_eq!(report.next_seq, 500);
        let result = pipeline.query(&AuditQuery::default()).unwrap();
        assert_eq!(result.records.len(), 500);
        assert!(result.records.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert!(result.gaps.is_empty());
        assert!(!result.truncated);
        assert_eq!(result.next_seq, 500);
    }

    #[test]
    fn out_of_order_arrivals_reassemble() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig::default());
        let sink = pipeline.sink();
        for seq in [1u64, 0, 4, 2, 3, 5] {
            sink.offer(record(seq));
        }
        pipeline.flush().unwrap();
        let result = pipeline.query(&AuditQuery::default()).unwrap();
        let seqs: Vec<u64> = result.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4, 5]);
        assert!(result.gaps.is_empty());
    }

    #[test]
    fn flush_declares_missing_seqs_as_gaps() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig::default());
        let sink = pipeline.sink();
        // 0, 1 present; 2, 3 never offered (simulating shed); 4, 5 present.
        for seq in [0u64, 1, 4, 5] {
            sink.offer(record(seq));
        }
        pipeline.flush().unwrap();
        let report = pipeline.verify().unwrap();
        assert!(report.ok, "{report:?}");
        assert_eq!(report.next_seq, 6);
        let result = pipeline.query(&AuditQuery::default()).unwrap();
        assert_eq!(
            result.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            [0, 1, 4, 5]
        );
        assert_eq!(result.gaps, [GapRange { first: 2, last: 3 }]);
        let stats = pipeline.stats();
        assert_eq!(stats.gap_records, 1);
        assert_eq!(stats.gap_missing, 2);
    }

    #[test]
    fn late_event_after_declared_gap_is_dropped() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig::default());
        let sink = pipeline.sink();
        sink.offer(record(0));
        sink.offer(record(2));
        pipeline.flush().unwrap(); // declares seq 1 lost
        sink.offer(record(1)); // straggler
        pipeline.flush().unwrap();
        let stats = pipeline.stats();
        assert_eq!(stats.late_dropped, 1);
        assert_eq!(stats.persisted_events, 2);
        assert!(pipeline.verify().unwrap().ok);
    }

    #[test]
    fn dead_drainer_sheds_and_counts() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig {
            queue_capacity: 4,
            ..PipelineConfig::default()
        });
        // Kill the drainer: its receiver drops, so every offer is
        // refused (Disconnected) and counted as shed, never blocking.
        pipeline.crash_for_test();
        let sink = pipeline.sink();
        let accepted = (0..10).filter(|&seq| sink.offer(record(seq))).count();
        assert_eq!(accepted, 0);
        assert_eq!(pipeline.stats().shed, 10);
        assert!(pipeline.flush().is_err(), "flush must fail after crash");
    }

    #[test]
    fn segments_roll_and_seal() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig {
            segment_max_bytes: 1024,
            ..PipelineConfig::default()
        });
        let sink = pipeline.sink();
        for seq in 0..200 {
            sink.offer(record(seq));
        }
        pipeline.flush().unwrap();
        let stats = pipeline.stats();
        assert!(stats.segments_sealed > 1, "{stats:?}");
        let report = pipeline.verify().unwrap();
        assert!(report.ok, "{report:?}");
        assert_eq!(report.segments.len() as u64, stats.segments_sealed + 1);
        // Pagination across segments.
        let mut seen = Vec::new();
        let mut seq_min = 0;
        loop {
            let page = pipeline
                .query(&AuditQuery {
                    seq_min,
                    limit: 64,
                    ..AuditQuery::default()
                })
                .unwrap();
            seen.extend(page.records.iter().map(|r| r.seq));
            if !page.truncated {
                break;
            }
            seq_min = page.next_seq;
        }
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn filtered_queries() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig::default());
        let sink = pipeline.sink();
        for seq in 0..100 {
            sink.offer(record(seq));
        }
        pipeline.flush().unwrap();
        let denials = pipeline
            .query(&AuditQuery {
                outcome: Some(Outcome::MacFlow),
                ..AuditQuery::default()
            })
            .unwrap();
        assert!(!denials.records.is_empty());
        assert!(denials
            .records
            .iter()
            .all(|r| r.outcome == Outcome::MacFlow && r.seq % 3 == 0));
        let principal = pipeline
            .query(&AuditQuery {
                principal: Some(3),
                ..AuditQuery::default()
            })
            .unwrap();
        assert!(!principal.records.is_empty());
        assert!(principal.records.iter().all(|r| r.principal == 3));
        let subtree = pipeline
            .query(&AuditQuery {
                path_prefix: Some("/svc/fs/file1".to_owned()),
                ..AuditQuery::default()
            })
            .unwrap();
        assert!(!subtree.records.is_empty());
        assert!(subtree.records.iter().all(|r| r.path == "/svc/fs/file1"));
        let windowed = pipeline
            .query(&AuditQuery {
                seq_min: 10,
                seq_max: Some(19),
                ..AuditQuery::default()
            })
            .unwrap();
        assert_eq!(windowed.records.len(), 10);
    }

    #[test]
    fn concurrent_producers_and_flushes() {
        let pipeline = Arc::new(AuditPipeline::in_memory(PipelineConfig::default()));
        let seq = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let sink = pipeline.sink();
                let seq = seq.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let s = seq.fetch_add(1, Ordering::Relaxed);
                        sink.offer(record(s));
                    }
                })
            })
            .collect();
        // Flush concurrently with production — must not hang or error.
        for _ in 0..5 {
            pipeline.flush().unwrap();
        }
        for t in threads {
            t.join().unwrap();
        }
        pipeline.flush().unwrap();
        let report = pipeline.verify().unwrap();
        assert!(report.ok, "{report:?}");
        assert_eq!(report.next_seq, 2000);
        let stats = pipeline.stats();
        assert_eq!(stats.persisted_events + stats.gap_missing, 2000);
    }

    #[test]
    fn stats_and_shutdown_idempotent() {
        let pipeline = AuditPipeline::in_memory(PipelineConfig::default());
        let sink = pipeline.sink();
        sink.offer(record(0));
        pipeline.flush().unwrap();
        let stats = pipeline.stats();
        assert_eq!(stats.enqueued, 1);
        assert_eq!(stats.persisted_events, 1);
        assert_eq!(stats.next_seq, 1);
        assert!(stats.running);
        pipeline.shutdown();
        pipeline.shutdown();
        assert!(!pipeline.stats().running);
    }
}
