//! `audited_churn`: audited checks beside an open-loop policy writer.
//!
//! One closed-loop reader checks a Zipf pool of a 10^4-principal campus
//! world with audit on and an in-memory audit pipeline attached. One
//! open-loop writer fires at a fixed rate, alternating a bundle cycle
//! (stage, activate, rollback) with a guarded `set_acl`. Every write
//! targets a scratch subtree no read touches, so expected decisions never
//! change, but every write bumps the generation and invalidates the whole
//! decision cache. The run ends with an audit flush and a chain verify.

use crate::checks::{campus_spec, replay_check_path, CheckInput, CheckPool};
use crate::trace::{Sp, Tracer};
use crate::util::{median, peak_rss_mib, per_item_ns, ratio, Digest, Rng, Samples, Timeline};
use crate::{more_setups, Args, Report};
use extsec_auditlog::{chain_next, AuditQuery, Entry, GENESIS};
use extsec_campaign::World;
use extsec_core::{
    AccessMode, Acl, AclEntry, AuditPipeline, ModeSet, MonitorConfig, NodeKind, NsPath,
    PipelineConfig, PipelineStats, Protection, SecurityClass, Subject,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RING_OPS: usize = 1 << 16;
const SCRATCH: usize = 16;
/// The open-loop writer's rate.
const WRITES_PER_S: f64 = 100.0;
/// Every audited check adds a record to the in-memory audit store, so
/// the process grows with the number of checks made. `peak_rss_mib` is
/// read when the reader has made this many checks, so that a faster
/// reader does not read as a bigger process.
const RSS_AT_READS: u64 = 2_000_000;

/// One scheduled write on a scratch node.
enum WriteOp {
    SetAcl { node: usize, grantee: usize },
    Bundle { source: String },
}

fn scratch(node: usize) -> NsPath {
    format!("/scratch/w{node}").parse().expect("scratch path")
}

fn schedule(seed: u64, writes: usize) -> Vec<WriteOp> {
    let mut rng = Rng::new(seed ^ 0xad417);
    let principals = campus_spec(seed).principals;
    (0..writes)
        .map(|k| {
            let node = rng.below(SCRATCH);
            let grantee = rng.below(principals);
            if k % 2 == 0 {
                WriteOp::Bundle {
                    source: format!(
                        "bundle \"churn-{k}\" version {} base current;\nset-acl {} \"+admin:rwaxeAdl +p{grantee}:r\";\n",
                        k + 1,
                        scratch(node)
                    ),
                }
            } else {
                WriteOp::SetAcl { node, grantee }
            }
        })
        .collect()
}

struct Sut {
    world: World,
    pipeline: Arc<AuditPipeline>,
    admin: Subject,
}

fn setup(seed: u64, pool: &CheckPool, report: &mut Report) -> (Sut, f64, f64) {
    let start = Instant::now();
    let (world, stats) = World::build_timed(&campus_spec(seed));
    let monitor = &world.monitor;
    monitor.set_config(MonitorConfig {
        audit: true,
        decision_cache: true,
        ..monitor.config()
    });
    let bottom = SecurityClass::bottom();
    let admin_acl =
        Acl::from_entries([AclEntry::allow_principal_modes(world.admin, ModeSet::all())]);
    monitor
        .bootstrap(|ns| {
            let visible =
                Protection::new(Acl::public(ModeSet::only(AccessMode::List)), bottom.clone());
            let root = ns.ensure_path(
                &"/scratch".parse().expect("constant path"),
                NodeKind::Directory,
                &visible,
            )?;
            for node in 0..SCRATCH {
                ns.insert_at(
                    root,
                    &format!("w{node}"),
                    NodeKind::Object,
                    Protection::new(admin_acl.clone(), bottom.clone()),
                )?;
            }
            Ok(())
        })
        .expect("scratch subtree");
    let pipeline = Arc::new(AuditPipeline::in_memory(PipelineConfig::default()));
    monitor.attach_audit_pipeline(Arc::clone(&pipeline));
    // Warm-up: every pool key once, then drain the audit queue.
    for (s, items) in pool.items.iter().enumerate() {
        for (path, mode, want) in items {
            report.tally(1, monitor.check(&pool.subjects[s], path, *mode) == *want);
        }
    }
    let flushed = monitor.audit_flush().is_ok();
    report.check("warm-up audit flush", flushed);
    let admin = world.admin_subject(&bottom);
    (
        Sut {
            world,
            pipeline,
            admin,
        },
        start.elapsed().as_secs_f64(),
        stats.build.as_secs_f64() * 1e3,
    )
}

/// What the reader did in one phase.
struct ReaderResult {
    ops: u64,
    failed: u64,
    denied: u64,
    timeline: Timeline,
    tracer: Tracer,
    next: usize,
    /// Peak RSS in MiB when the phase's check count reached
    /// `RSS_AT_READS`.
    rss_mib: Option<f64>,
}

/// What the writer did in one phase.
struct WriterResult {
    writes: u64,
    failed: u64,
    latency: Samples,
    late: Samples,
    tracer: Tracer,
    next: usize,
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let oracle_world = World::build(&campus_spec(args.seed));
    let pool = CheckPool::build(&oracle_world, args.seed);
    let nodes = oracle_world.monitor.inspect(|ns| ns.len());
    drop(oracle_world);
    let mut rng = Rng::new(args.seed ^ 0xc4);
    let reads: Vec<(u32, u32)> = (0..RING_OPS).map(|_| pool.draw(&mut rng)).collect();
    let writes = schedule(args.seed, (args.seconds * WRITES_PER_S) as usize + 16);
    let mut digest = Digest::new();
    let mut denied = 0usize;
    for (s, i) in &reads {
        digest.u64(((*s as u64) << 32) | *i as u64);
        denied += usize::from(!pool.item(*s, *i).2.allowed());
    }
    let mut bundles = 0;
    for w in &writes {
        match w {
            WriteOp::SetAcl { node, grantee } => {
                digest.u64(*node as u64);
                digest.u64(*grantee as u64);
            }
            WriteOp::Bundle { source } => {
                bundles += 1;
                digest.str(source);
            }
        }
    }
    report.note(format!(
        "digest: workload=audited_churn world=[{}] pool_keys={} pool_hash={} reads={} expected_deny_share={:.4} writes={} bundle_cycles={} set_acls={} writer_rate={}/s inputs_hash={}",
        campus_spec(0).to_string().replace(" seed=0", ""),
        pool.keys(),
        pool.digest.hex(),
        reads.len(),
        ratio(denied as f64, reads.len() as f64),
        writes.len(),
        bundles,
        writes.len() - bundles,
        WRITES_PER_S,
        digest.hex()
    ));

    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut sut = None;
    while more_setups(&setups) {
        drop(sut.take());
        let (s, secs, build_ms) = setup(args.seed, &pool, &mut report);
        setups.push(secs);
        builds.push(build_ms);
        sut = Some(s);
    }
    let sut = sut.expect("at least one set-up");
    let monitor = &sut.world.monitor;
    report.check(
        "system world matches the oracle world (plus scratch nodes)",
        monitor.inspect(|ns| ns.len()) == nodes + SCRATCH + 1,
    );
    report.setup_times(&setups);
    report.set("campaign.world_build_ms", median(&builds));

    let base = Instant::now();
    let mut throughput = [0.0f64; 2];
    let (mut next_read, mut next_write) = (0usize, 0usize);
    let mut rss_at_reads = None;
    for (traced, window) in args.phases() {
        let cache0 = monitor.cache_stats();
        let audit0 = sut.pipeline.stats();
        let start = Instant::now();
        let deadline = start + window;
        let (reader, writer) = std::thread::scope(|scope| {
            let writer = scope
                .spawn(|| writer_loop(&sut, &writes, next_write, start, deadline, traced, base));
            let reader = scope
                .spawn(|| reader_loop(&sut, &pool, &reads, next_read, start, window, traced, base));
            (
                reader.join().expect("reader thread"),
                writer.join().expect("writer thread"),
            )
        });
        let secs = start.elapsed().as_secs_f64();
        next_read = reader.next;
        next_write = writer.next;
        let flushed = monitor.audit_flush().is_ok();
        report.check("phase-end audit flush", flushed);
        let audit1 = sut.pipeline.stats();
        let cache1 = monitor.cache_stats();
        report.attempted += reader.ops + writer.writes;
        report.failed += reader.failed + writer.failed;
        throughput[traced as usize] = ratio(reader.ops as f64, secs);
        let ReaderResult {
            mut timeline,
            mut tracer,
            ..
        } = reader;
        let WriterResult {
            mut latency,
            mut late,
            tracer: wtracer,
            ..
        } = writer;
        if !traced {
            rss_at_reads = reader.rss_mib;
            report.latency("audited_churn untraced reader", &mut timeline);
            let (p50, tail, q) = latency.summary_us();
            report.set("admin_p50_us", p50);
            report.set("admin_p99_us", tail);
            let (_, late_tail, late_q) = late.summary_us();
            report.set("bench.writer_late_p99_us", late_tail);
            let persisted = audit1.persisted_events - audit0.persisted_events;
            report.set("audited_per_s", ratio(persisted as f64, secs));
            report.note(format!(
                "audited_churn untraced writer: {} writes ({} failed), admin p50 {p50:.1} us, p{:.2} {tail:.1} us; writer late p{:.2} {late_tail:.1} us; {persisted} records persisted",
                writer.writes,
                writer.failed,
                q * 100.0,
                late_q * 100.0
            ));
            continue;
        }
        tracer.absorb(wtracer);
        audit_counts(&mut report, &audit0, &audit1);
        let hits = (cache1.hits - cache0.hits) as f64;
        let misses = (cache1.misses - cache0.misses) as f64;
        report.set("refmon.cache_hit_ratio", ratio(hits, hits + misses));
        report.set(
            "refmon.cache_invalidations",
            (cache1.invalidations - cache0.invalidations) as f64,
        );
        report.set(
            "refmon.deny_share",
            ratio(reader.denied as f64, reader.ops as f64),
        );
        report.set("refmon.set_acl_us", tracer.p50_us(Sp::SetAcl));
        report.set("refmon.bundle_stage_us", tracer.p50_us(Sp::Stage));
        report.set("refmon.bundle_activate_us", tracer.p50_us(Sp::Activate));
        report.set("refmon.bundle_rollback_us", tracer.p50_us(Sp::Rollback));
        report.set("ledger.unattributed_share", tracer.unattributed_share());
        let path = std::path::PathBuf::from(format!(
            ".bench_out/trace-audited_churn-seed{}.tsv",
            args.seed
        ));
        if let Err(e) = tracer.write_tsv(&path) {
            report.note(format!("could not write spans: {e}"));
        }
    }
    match rss_at_reads {
        Some(mib) => {
            report.set("peak_rss_mib", mib);
            report.note(format!(
                "peak RSS read after {RSS_AT_READS} audited checks: {mib:.1} MiB"
            ));
        }
        None => {
            report.peak_rss();
            report.note(format!(
                "peak RSS read when timing ended: the reader made fewer than {RSS_AT_READS} checks"
            ));
        }
    }
    if args.trace {
        report.set(
            "bench.tracing_overhead",
            ratio(throughput[0], throughput[1]) - 1.0,
        );
        replay(&sut, &pool, &reads, &writes, &mut report);
    }
    end_checks(&sut, &mut report);
    report
}

#[allow(clippy::too_many_arguments)]
fn reader_loop(
    sut: &Sut,
    pool: &CheckPool,
    reads: &[(u32, u32)],
    from: usize,
    start: Instant,
    window: Duration,
    traced: bool,
    base: Instant,
) -> ReaderResult {
    let monitor = &sut.world.monitor;
    let deadline = start + window;
    let mut r = ReaderResult {
        ops: 0,
        failed: 0,
        denied: 0,
        timeline: Timeline::new(start, window),
        tracer: Tracer::new(traced, base, 0),
        next: from,
        rss_mib: None,
    };
    loop {
        let (s, i) = reads[r.next % RING_OPS];
        let (path, mode, want) = pool.item(s, i);
        let t_root = r.tracer.stamp();
        let mut root = r.tracer.root(r.next as u64, t_root);
        let t0 = Instant::now();
        let got = monitor.check(&pool.subjects[s as usize], path, *mode);
        let t1 = Instant::now();
        let t_op = r.tracer.stamp();
        r.tracer.child(&mut root, Sp::Check, t_root, t_op);
        let ok = got == *want;
        let t_ver = r.tracer.stamp();
        r.tracer.child(&mut root, Sp::Verify, t_op, t_ver);
        r.tracer.close(root, t_ver);
        r.timeline
            .record(t1, t1.duration_since(t0).as_nanos() as u64, 1);
        r.ops += 1;
        if r.ops == RSS_AT_READS {
            r.rss_mib = Some(peak_rss_mib());
        }
        r.failed += u64::from(!ok);
        r.denied += u64::from(!want.allowed());
        r.next += 1;
        if t1 >= deadline {
            return r;
        }
    }
}

/// Fires write `k` of the schedule at `start + k / rate` (counted across
/// phases), sleeping until it is due; latency runs from the due time.
fn writer_loop(
    sut: &Sut,
    writes: &[WriteOp],
    from: usize,
    start: Instant,
    deadline: Instant,
    traced: bool,
    base: Instant,
) -> WriterResult {
    let monitor = &sut.world.monitor;
    let period = Duration::from_secs_f64(1.0 / WRITES_PER_S);
    let mut r = WriterResult {
        writes: 0,
        failed: 0,
        latency: Samples::new(),
        late: Samples::new(),
        tracer: Tracer::new(traced, base, 1),
        next: from,
    };
    for k in 0.. {
        let due = start + period * k;
        if due >= deadline || r.next >= writes.len() {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let fired = Instant::now();
        r.late.since(due, fired);
        let req = r.next as u64;
        let ok = match &writes[r.next] {
            WriteOp::SetAcl { node, grantee } => {
                let acl = Acl::from_entries([
                    AclEntry::allow_principal_modes(sut.world.admin, ModeSet::all()),
                    AclEntry::allow_principal_modes(
                        sut.world.principals[*grantee],
                        ModeSet::only(AccessMode::Read),
                    ),
                ]);
                let t0 = r.tracer.stamp();
                let ok = monitor.set_acl(&sut.admin, &scratch(*node), acl).is_ok();
                r.tracer.lone(Sp::SetAcl, req, t0, r.tracer.stamp());
                ok
            }
            WriteOp::Bundle { source } => {
                let t0 = r.tracer.stamp();
                let staged = monitor.stage_bundle(source);
                let t1 = r.tracer.stamp();
                r.tracer.lone(Sp::Stage, req, t0, t1);
                match staged {
                    Ok(staged) => {
                        let activated = monitor.activate_bundle(staged.id);
                        let t2 = r.tracer.stamp();
                        r.tracer.lone(Sp::Activate, req, t1, t2);
                        let rolled = monitor.rollback();
                        r.tracer.lone(Sp::Rollback, req, t2, r.tracer.stamp());
                        activated.is_ok() && rolled.is_ok()
                    }
                    Err(_) => false,
                }
            }
        };
        r.latency.since(due, Instant::now());
        r.writes += 1;
        r.failed += u64::from(!ok);
        r.next += 1;
    }
    r
}

fn audit_counts(report: &mut Report, a0: &PipelineStats, a1: &PipelineStats) {
    let offered = (a1.enqueued + a1.shed) - (a0.enqueued + a0.shed);
    let shed = a1.shed - a0.shed;
    report.set("auditlog.offered", offered as f64);
    report.set(
        "auditlog.persisted",
        (a1.persisted_events - a0.persisted_events) as f64,
    );
    report.set("auditlog.shed_ratio", ratio(shed as f64, offered as f64));
    report.set(
        "auditlog.gap_records",
        (a1.gap_records - a0.gap_records) as f64,
    );
}

/// The replay phase: the check path, the audit record, the chain step and
/// the bundle parser, each on inputs the run used.
fn replay(
    sut: &Sut,
    pool: &CheckPool,
    reads: &[(u32, u32)],
    writes: &[WriteOp],
    report: &mut Report,
) {
    let monitor = &sut.world.monitor;
    let inputs: Vec<CheckInput> = reads
        .iter()
        .take(2048)
        .map(|(s, i)| {
            let (p, m, _) = pool.item(*s, *i);
            (pool.subjects[*s as usize].clone(), p.clone(), *m)
        })
        .collect();
    replay_check_path(monitor, &inputs, report);

    let decisions: Vec<_> = reads
        .iter()
        .take(2048)
        .map(|(s, i)| pool.item(*s, *i).2.clone())
        .collect();
    let generation = monitor.policy_generation();
    report.set(
        "refmon.audit_record_ns",
        per_item_ns(inputs.len(), 5, || {
            for ((subject, path, mode), decision) in inputs.iter().zip(&decisions) {
                black_box(
                    monitor
                        .audit()
                        .record(subject, path, *mode, decision, generation),
                );
            }
        }),
    );

    let page = sut
        .pipeline
        .query(&AuditQuery {
            limit: 2048,
            ..AuditQuery::default()
        })
        .expect("audit query");
    let entries: Vec<Vec<u8>> = page
        .records
        .into_iter()
        .map(|record| {
            let mut buf = Vec::new();
            Entry::Event(record).encode(&mut buf);
            buf
        })
        .collect();
    report.set(
        "auditlog.chain_append_ns",
        per_item_ns(entries.len(), 20, || {
            let mut hash = GENESIS;
            for e in &entries {
                hash = chain_next(&hash, e);
            }
            black_box(hash);
        }),
    );

    let sources: Vec<&str> = writes
        .iter()
        .filter_map(|w| match w {
            WriteOp::Bundle { source } => Some(source.as_str()),
            WriteOp::SetAcl { .. } => None,
        })
        .take(256)
        .collect();
    report.set(
        "lang.bundle_parse_us",
        per_item_ns(sources.len(), 20, || {
            for s in &sources {
                black_box(extsec_core::lang::bundle::parse_bundle(s).expect("bundle parses"));
            }
        }) / 1e3,
    );
}

/// End of run: flush, verify the chain, and check that persisted events
/// plus declared gaps cover every sequence number below `next_seq`
/// exactly once.
fn end_checks(sut: &Sut, report: &mut Report) {
    let monitor = &sut.world.monitor;
    let t = Instant::now();
    let flushed = monitor.audit_flush().is_ok();
    report.set("auditlog.flush_ms", t.elapsed().as_secs_f64() * 1e3);
    report.check("final audit flush", flushed);
    let t = Instant::now();
    let verify = monitor.audit_verify();
    report.set("auditlog.verify_ms", t.elapsed().as_secs_f64() * 1e3);
    let next_seq = match &verify {
        Ok(v) => {
            report.check(
                format!("audit chain verifies ({} segments)", v.segments.len()),
                v.ok,
            );
            v.next_seq
        }
        Err(e) => {
            report.check(format!("audit verify: {e:?}"), false);
            return;
        }
    };
    // Walk the log page by page: each sequence number must be the next
    // event or open the next gap, never both and never neither. A page
    // returns the gaps overlapping its window, so a gap can come back on
    // later pages; those behind the walk are skipped.
    let walk = Instant::now();
    let (mut expected, mut events, mut gaps) = (0u64, 0u64, 0u64);
    let mut tiled = true;
    let mut cursor = 0;
    loop {
        let page = match sut.pipeline.query(&AuditQuery {
            seq_min: cursor,
            limit: AuditQuery::MAX_LIMIT,
            ..AuditQuery::default()
        }) {
            Ok(page) => page,
            Err(e) => {
                report.check(format!("audit query: {e}"), false);
                return;
            }
        };
        let mut spans: Vec<(u64, u64)> = page
            .gaps
            .iter()
            .filter(|g| g.first >= expected)
            .map(|g| (g.first, g.last))
            .collect();
        gaps += spans.len() as u64;
        events += page.records.len() as u64;
        spans.extend(page.records.iter().map(|r| (r.seq, r.seq)));
        spans.sort_unstable();
        for (first, last) in spans {
            tiled &= first == expected && last >= first;
            expected = last + 1;
        }
        if !page.truncated || !tiled {
            break;
        }
        cursor = page.next_seq;
    }
    tiled &= expected == next_seq;
    report.note(format!(
        "end-of-run tiling walk: {:.2} s",
        walk.elapsed().as_secs_f64()
    ));
    report.check(
        format!(
            "events ({}) and gaps ({}) tile 0..{next_seq} exactly once",
            events, gaps
        ),
        tiled,
    );
}
