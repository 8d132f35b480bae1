//! Auditing of security-relevant events.
//!
//! The paper lists "the auditing of security relevant system events" among
//! the aspects a complete security model must eventually cover. Every
//! audited decision goes through one call, [`AuditLog::record`], which
//! writes it to two stores with different jobs:
//!
//! * the **ring** — a bounded in-memory log of full [`AuditEvent`]s
//!   (deny reasons included), always on, readable right after a check
//!   through [`AuditLog::events`] / [`AuditLog::denials`];
//! * the **chain** — the tamper-evident persistent pipeline
//!   ([`AuditPipeline`], `extsec-auditlog`), when one is attached with
//!   [`AuditLog::attach_pipeline`]. Each record is one non-blocking
//!   offer of a compact [`AuditRecord`]; overflow is shed (and counted,
//!   and later declared as a chained gap) when the drainer falls behind.
//!
//! Both stores share one sequence counter, so a ring event and its
//! persisted record carry the same sequence number.
//!
//! The ring is *sharded*: events land in one of a fixed set of per-shard
//! rings (each behind its own small mutex), picked per recording thread,
//! so concurrent checks on different cores do not serialize on one audit
//! lock. Every event is stamped with a globally monotone sequence number
//! at record time, and [`AuditLog::events`] merges the shards back into
//! sequence order, so observers see the same ordered log a single ring
//! would have produced. The total retained count is bounded by the
//! configured capacity with a shared counter: a record that pushes the
//! log over capacity evicts one older event — the front of its own shard
//! while that shard holds anything besides the new event, otherwise the
//! oldest front among the other shards, visited one lock at a time. A
//! record never evicts itself.

use crate::decision::{Decision, DenyReason};
use crate::subject::{Subject, ThreadId};
use extsec_acl::{AccessMode, PrincipalId};
use extsec_auditlog::{AuditPipeline, AuditRecord, Outcome};
use extsec_namespace::NsPath;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One audited access decision.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AuditEvent {
    /// Monotonic sequence number (per log).
    pub seq: u64,
    /// The requesting principal.
    pub principal: PrincipalId,
    /// The requesting thread.
    pub thread: ThreadId,
    /// The object path the access named.
    pub path: NsPath,
    /// The requested mode.
    pub mode: AccessMode,
    /// The decision taken.
    pub decision: Decision,
    /// The policy generation the decision was evaluated under.
    pub generation: u64,
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} g{} {}@{} {} {} -> {}",
            self.seq,
            self.generation,
            self.principal,
            self.thread,
            self.mode,
            self.path,
            self.decision
        )
    }
}

/// Saturation counters for one audit shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditShardStats {
    /// Events currently retained in this shard.
    pub retained: usize,
    /// Events this shard has evicted to stay under the log's capacity.
    pub dropped: u64,
}

/// Observability counters for the whole audit log, reported next to the
/// decision-cache stats so saturation is visible rather than silent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// The configured total capacity.
    pub capacity: usize,
    /// Events currently retained across all shards.
    pub retained: usize,
    /// Events evicted from the ring to stay under capacity.
    pub ring_dropped: u64,
    /// Per-shard retained/dropped breakdown.
    pub shards: Vec<AuditShardStats>,
}

/// One shard: its own ring behind its own lock, plus its eviction count.
/// Cache-line aligned so two shards' locks never share a line.
#[derive(Debug)]
#[repr(align(64))]
struct Shard {
    ring: Mutex<VecDeque<AuditEvent>>,
    dropped: AtomicU64,
}

/// Hands every recording thread a stable shard preference, spreading
/// threads round-robin over the shard array.
fn shard_hint() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HINT: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    HINT.with(|h| *h)
}

/// A bounded, thread-safe audit log.
///
/// # Examples
///
/// ```
/// use extsec_refmon::AuditLog;
///
/// let log = AuditLog::with_capacity(128);
/// assert_eq!(log.len(), 0);
/// ```
#[derive(Debug)]
pub struct AuditLog {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; the shard count is a power of two.
    shard_mask: usize,
    capacity: usize,
    seq: AtomicU64,
    /// Events retained across all shards; the capacity bound.
    retained: AtomicUsize,
    /// Fast-path flag so `record` never touches the pipeline mutex while
    /// no pipeline is attached.
    pipeline_attached: AtomicBool,
    /// The attached persistent pipeline — the one slot the check path,
    /// the admin calls and the telemetry source all read.
    pipeline: Mutex<Option<Arc<AuditPipeline>>>,
}

impl AuditLog {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Aim for at least this many events per shard, so small logs stay
    /// single-sharded (and exactly ring-ordered) while the default-sized
    /// log spreads over [`MAX_SHARDS`](Self::MAX_SHARDS) shards.
    const MIN_EVENTS_PER_SHARD: usize = 256;

    /// Upper bound on the shard count (one per core is plenty).
    pub const MAX_SHARDS: usize = 16;

    /// Cap on the total preallocated ring slots, so a huge configured
    /// capacity reserves lazily instead of eagerly committing memory.
    const MAX_PREALLOC: usize = 65_536;

    /// Creates a log with the default capacity.
    pub fn new() -> Self {
        AuditLog::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a log holding at most `capacity` events in total (older
    /// events are dropped first).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shard_count = (capacity / Self::MIN_EVENTS_PER_SHARD)
            .clamp(1, Self::MAX_SHARDS)
            .next_power_of_two()
            .min(Self::MAX_SHARDS);
        // Reserve the real capacity (bounded), split across the shards —
        // not a silent 1024-entry floor that under-reserves large rings.
        let prealloc_per_shard = capacity.min(Self::MAX_PREALLOC).div_ceil(shard_count);
        let shards = (0..shard_count)
            .map(|_| Shard {
                ring: Mutex::new(VecDeque::with_capacity(prealloc_per_shard)),
                dropped: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        AuditLog {
            shard_mask: shards.len() - 1,
            shards,
            capacity,
            seq: AtomicU64::new(0),
            retained: AtomicUsize::new(0),
            pipeline_attached: AtomicBool::new(false),
            pipeline: Mutex::new(None),
        }
    }

    /// Attaches the persistent pipeline, replacing any attached before:
    /// every subsequent event is also offered there (one non-blocking
    /// `try_send`; overflow sheds, is counted by the pipeline, and later
    /// becomes a tamper-evident gap entry in the chained log). The
    /// sequence counter first advances to the pipeline's `next_seq`, so
    /// sequence numbers stay globally monotone across restarts instead
    /// of replaying persisted ones.
    pub fn attach_pipeline(&self, pipeline: Arc<AuditPipeline>) {
        let mut slot = self.pipeline.lock();
        self.seq.fetch_max(pipeline.next_seq(), Ordering::Relaxed);
        *slot = Some(pipeline);
        self.pipeline_attached.store(true, Ordering::Release);
    }

    /// The attached persistent pipeline, if any.
    pub fn pipeline(&self) -> Option<Arc<AuditPipeline>> {
        self.pipeline.lock().clone()
    }

    /// Records a decision in the ring and, when one is attached, offers
    /// it to the pipeline; returns the event's sequence number.
    pub fn record(
        &self,
        subject: &Subject,
        path: &NsPath,
        mode: AccessMode,
        decision: &Decision,
        generation: u64,
    ) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if self.pipeline_attached.load(Ordering::Acquire) {
            if let Some(pipeline) = self.pipeline.lock().as_ref() {
                pipeline.offer(AuditRecord {
                    seq,
                    principal: subject.principal.raw(),
                    generation,
                    mode: mode as u8,
                    outcome: outcome_of(decision),
                    path: path.to_string(),
                });
            }
        }
        let event = AuditEvent {
            seq,
            principal: subject.principal,
            thread: subject.thread,
            path: path.clone(),
            mode,
            decision: decision.clone(),
            generation,
        };
        let own = shard_hint() & self.shard_mask;
        let shard = &self.shards[own];
        let mut ring = shard.ring.lock();
        ring.push_back(event);
        self.retained.fetch_add(1, Ordering::Relaxed);
        if !self.claim_eviction() {
            return seq;
        }
        // Over capacity: evict one older event. The front of this shard
        // (the lock already held) when it holds more than the new event…
        if ring.len() > 1 {
            ring.pop_front();
            shard.dropped.fetch_add(1, Ordering::Relaxed);
            return seq;
        }
        // …otherwise the oldest front elsewhere, one lock at a time.
        drop(ring);
        self.evict_oldest_except(own);
        seq
    }

    /// Takes one unit off the retained count if the log is over capacity;
    /// the caller then owes exactly one eviction. Every record claims at
    /// most one after its own push, so the total settles at or below the
    /// capacity.
    fn claim_eviction(&self) -> bool {
        self.retained
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n > self.capacity).then(|| n - 1)
            })
            .is_ok()
    }

    /// Pays a claimed eviction from the shard (other than `own`) whose
    /// front event is oldest. Holds at most one shard lock at a time; if
    /// every candidate emptied meanwhile (a racing `clear`), the claim is
    /// returned.
    fn evict_oldest_except(&self, own: usize) {
        loop {
            let oldest = (0..self.shards.len())
                .filter(|&i| i != own)
                .filter_map(|i| self.shards[i].ring.lock().front().map(|e| (e.seq, i)))
                .min();
            let Some((_, victim)) = oldest else {
                self.retained.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let shard = &self.shards[victim];
            if shard.ring.lock().pop_front().is_some() {
                shard.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Returns the number of retained events.
    pub fn len(&self) -> usize {
        self.retained.load(Ordering::Relaxed)
    }

    /// Returns whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the number of events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Returns the retained events merged across shards into sequence
    /// order (oldest first) — the same ordered log one unsharded ring
    /// would have produced.
    pub fn events(&self) -> Vec<AuditEvent> {
        let mut events: Vec<AuditEvent> = self
            .shards
            .iter()
            .flat_map(|s| s.ring.lock().iter().cloned().collect::<Vec<_>>())
            .collect();
        events.sort_unstable_by_key(|e| e.seq);
        events
    }

    /// Returns the retained events that were denials.
    pub fn denials(&self) -> Vec<AuditEvent> {
        let mut events = self.events();
        events.retain(|e| !e.decision.allowed());
        events
    }

    /// Clears the ring (sequence numbers keep increasing).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut ring = shard.ring.lock();
            self.retained.fetch_sub(ring.len(), Ordering::Relaxed);
            ring.clear();
        }
    }

    /// Snapshots the per-shard saturation counters.
    pub fn stats(&self) -> AuditStats {
        let shards: Vec<AuditShardStats> = self
            .shards
            .iter()
            .map(|s| AuditShardStats {
                retained: s.ring.lock().len(),
                dropped: s.dropped.load(Ordering::Relaxed),
            })
            .collect();
        AuditStats {
            capacity: self.capacity,
            retained: shards.iter().map(|s| s.retained).sum(),
            ring_dropped: shards.iter().map(|s| s.dropped).sum(),
            shards,
        }
    }
}

/// Maps a monitor [`Decision`] onto the compact persisted [`Outcome`].
pub fn outcome_of(decision: &Decision) -> Outcome {
    match decision {
        Decision::Allow => Outcome::Allow,
        Decision::Deny(reason) => match reason {
            DenyReason::DacNoEntry => Outcome::DacNoEntry,
            DenyReason::DacNegativeEntry(_) => Outcome::DacNegative,
            DenyReason::MacFlow => Outcome::MacFlow,
            DenyReason::NotVisibleDac(_) => Outcome::NotVisibleDac,
            DenyReason::NotVisibleMac(_) => Outcome::NotVisibleMac,
            DenyReason::NotFound(_) => Outcome::NotFound,
            DenyReason::Structure(_) => Outcome::Structure,
        },
    }
}

impl Default for AuditLog {
    fn default() -> Self {
        AuditLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DenyReason;
    use extsec_mac::SecurityClass;

    fn subject() -> Subject {
        Subject::new(PrincipalId::from_raw(1), SecurityClass::bottom())
    }

    fn path() -> NsPath {
        "/svc/fs/read".parse().unwrap()
    }

    #[test]
    fn records_in_order() {
        let log = AuditLog::new();
        let s = subject();
        let a = log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        let b = log.record(
            &s,
            &path(),
            AccessMode::Write,
            &Decision::Deny(DenyReason::DacNoEntry),
            0,
        );
        assert!(b > a);
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].mode, AccessMode::Read);
        assert_eq!(events[1].mode, AccessMode::Write);
    }

    #[test]
    fn ring_is_bounded() {
        let log = AuditLog::with_capacity(2);
        let s = subject();
        for _ in 0..5 {
            log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let events = log.events();
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
    }

    /// The wraparound regression for the preallocation fix: at a capacity
    /// beyond the old silent 1024-slot floor, the ring still retains
    /// exactly `capacity` events and evicts exactly the overflow.
    #[test]
    fn wraparound_at_configured_capacity() {
        const CAPACITY: usize = 4096;
        const OVERFLOW: usize = 37;
        let log = AuditLog::with_capacity(CAPACITY);
        let s = subject();
        for _ in 0..CAPACITY + OVERFLOW {
            log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        }
        assert_eq!(log.len(), CAPACITY);
        assert_eq!(log.dropped(), OVERFLOW as u64);
        let events = log.events();
        assert_eq!(events.len(), CAPACITY);
        // The survivors are exactly the newest `CAPACITY` events, in order.
        assert_eq!(events[0].seq, OVERFLOW as u64);
        assert_eq!(events[CAPACITY - 1].seq, (CAPACITY + OVERFLOW - 1) as u64);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn stats_expose_shard_saturation() {
        let log = AuditLog::with_capacity(2);
        let s = subject();
        for _ in 0..5 {
            log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        }
        let stats = log.stats();
        assert_eq!(stats.capacity, 2);
        assert_eq!(stats.retained, 2);
        assert_eq!(stats.ring_dropped, 3);
        assert_eq!(stats.shards.len(), 1, "tiny logs stay single-sharded");
        // Per-shard counters add up to the totals.
        assert_eq!(
            stats.shards.iter().map(|s| s.dropped).sum::<u64>(),
            stats.ring_dropped
        );
    }

    #[test]
    fn merged_events_from_many_threads_stay_sequenced() {
        let log = std::sync::Arc::new(AuditLog::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    let s = subject();
                    for _ in 0..100 {
                        log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let events = log.events();
        assert_eq!(events.len(), 400);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn denials_filter() {
        let log = AuditLog::new();
        let s = subject();
        log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        log.record(
            &s,
            &path(),
            AccessMode::Write,
            &Decision::Deny(DenyReason::MacFlow),
            0,
        );
        let denials = log.denials();
        assert_eq!(denials.len(), 1);
        assert_eq!(denials[0].mode, AccessMode::Write);
    }

    /// A record from a thread whose shard is empty evicts an older event
    /// from another shard, never the event it just recorded.
    #[test]
    fn record_never_evicts_itself() {
        let log = std::sync::Arc::new(AuditLog::new());
        let s = subject();
        for _ in 0..AuditLog::DEFAULT_CAPACITY {
            log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        }
        let newest = {
            let log = std::sync::Arc::clone(&log);
            std::thread::spawn(move || {
                log.record(&subject(), &path(), AccessMode::Write, &Decision::Allow, 0)
            })
            .join()
            .unwrap()
        };
        assert_eq!(newest, AuditLog::DEFAULT_CAPACITY as u64);
        assert_eq!(log.len(), AuditLog::DEFAULT_CAPACITY);
        assert_eq!(log.dropped(), 1);
        let events = log.events();
        assert_eq!(events.len(), AuditLog::DEFAULT_CAPACITY);
        assert_eq!(events[0].seq, 1, "the oldest event is the one evicted");
        assert_eq!(events.last().unwrap().seq, newest);
        assert_eq!(events.last().unwrap().mode, AccessMode::Write);
    }

    /// Threads overfilling the log together settle at exactly the
    /// capacity, every eviction counted, each thread's last event kept.
    #[test]
    fn concurrent_overflow_settles_at_capacity() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2000;
        let log = std::sync::Arc::new(AuditLog::new());
        let lasts: Vec<u64> = (0..THREADS)
            .map(|_| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    let s = subject();
                    let mut last = 0;
                    for _ in 0..PER_THREAD {
                        last = log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
                    }
                    last
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        let total = THREADS * PER_THREAD;
        assert_eq!(log.len(), AuditLog::DEFAULT_CAPACITY);
        assert_eq!(log.dropped(), (total - AuditLog::DEFAULT_CAPACITY) as u64);
        let events = log.events();
        assert_eq!(events.len(), AuditLog::DEFAULT_CAPACITY);
        for last in lasts {
            assert!(events.iter().any(|e| e.seq == last), "#{last} was evicted");
        }
    }

    #[test]
    fn clear_keeps_sequence_monotone() {
        let log = AuditLog::new();
        let s = subject();
        log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        log.clear();
        assert!(log.is_empty());
        let seq = log.record(&s, &path(), AccessMode::Read, &Decision::Allow, 0);
        assert_eq!(seq, 1);
    }
}
