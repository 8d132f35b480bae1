//! `ext_gate`: closed-loop extension calls and runs through the syscall
//! gate.
//!
//! Two caller threads, each with its own subject, drive a `SystemBuilder`
//! system with all seven services mounted, machine limits armed and the
//! epoch ticker live, audit off. About a thousand extensions are
//! installed, every 7th registered as a specialization of one interface.
//! The op mix is 60 % `call` on that interface, 30 % `run` of an I/O
//! extension making 8 syscalls and 10 % `run` of a compute extension
//! (~2,000 instructions, then one syscall). With calls (and the denials
//! drawn from them) making up 60 % of the ops, the median lies well
//! inside the call mode and p99 inside the run modes. A median in the
//! lower tail of the I/O-run mode would jump from run to run between the
//! two humps the host's fast and slow phases split that mode into.
//! About 10 % of ops come from a subject without the grant and must be
//! denied; they are denied at a gate (the interface, or a file's ACL
//! inside the fs service) rather than inside an extension, so no
//! extension is blamed for them.

use crate::checks::{replay_check_path, CheckInput};
use crate::trace::{Sp, Tracer};
use crate::util::{median, per_item_ns, ratio, Digest, Rng, Samples, Timeline};
use crate::{more_setups, Args, Report};
use extsec_core::ext::ExtError;
use extsec_core::vm::{asm, EpochTicker, ImportDecl, Machine, MachineLimits, SyscallHost};
use extsec_core::{
    AccessMode, Acl, AclEntry, ExtensibleSystem, ExtensionId, ExtensionManifest, Lattice, ModeSet,
    MonitorConfig, MonitorError, NodeKind, NsPath, Origin, Protection, SecurityClass, ServiceError,
    Subject, SystemBuilder, Value,
};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const POPULATION: usize = 1000;
const RING_OPS: usize = 1 << 16;
const COMPUTE_ITERS: i64 = 160;
const IFACE: &str = "/svc/bench/handler";
/// Weights of call, I/O run and compute run.
const MIX: [u32; 3] = [60, 30, 10];
/// Percent of ops issued by the subject without the grant.
const DENIED_PCT: usize = 10;

/// A specialization body: class-based dispatch selects one of these.
const SPEC_SRC: &str = "module spec
func good() -> int
  push_int 7
  ret
end
export good = good
";

/// Eight syscalls through linked imports: fs read, write and read of the
/// caller's file, two mbuf alloc/free pairs and a clock read. Returns
/// twice the file's length.
const IO_SRC: &str = r#"module io
import read = "/svc/fs/read" (str) -> str
import write = "/svc/fs/write" (str, str)
import alloc = "/svc/mbuf/alloc" (int) -> int
import free = "/svc/mbuf/free" (int)
import now = "/svc/clock/now" () -> int
func main(path: str) -> int
  locals s: str, h: int, n: int
  load_local path
  syscall read
  store_local s
  load_local path
  load_local s
  syscall write
  push_int 256
  syscall alloc
  store_local h
  load_local h
  syscall free
  syscall now
  pop
  load_local path
  syscall read
  str_len
  store_local n
  push_int 128
  syscall alloc
  store_local h
  load_local h
  syscall free
  load_local s
  str_len
  load_local n
  add
  ret
end
export main = main
"#;

/// A loop of ~2,000 instructions, then one syscall. Returns the sum of
/// `0..COMPUTE_ITERS`.
const COMPUTE_SRC: &str = r#"module compute
import now = "/svc/clock/now" () -> int
func main() -> int
  locals i: int, acc: int
  push_int 0
  store_local i
  label loop
  load_local acc
  load_local i
  add
  store_local acc
  load_local i
  push_int 1
  add
  store_local i
  load_local i
  push_int 160
  lt
  jump_if loop
  syscall now
  pop
  load_local acc
  ret
end
export main = main
"#;

const IO_SYSCALLS: u64 = 8;
const COMPUTE_SYSCALLS: u64 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Call,
    RunIo,
    RunCompute,
    /// The outsider calls the interface: denied at its `execute` gate.
    DeniedCall,
    /// The outsider reads a caller's file through the fs service: denied
    /// by the file's ACL.
    DeniedFs,
}

const OP_NAMES: [&str; 5] = ["call", "run_io", "run_compute", "denied_call", "denied_fs"];

struct Sut {
    system: ExtensibleSystem,
    _ticker: EpochTicker,
    callers: [Subject; 2],
    outsider: Subject,
    spec: ExtensionId,
    io: ExtensionId,
    compute: ExtensionId,
    load_us: f64,
}

fn iface() -> NsPath {
    IFACE.parse().expect("constant path")
}

fn file(t: usize) -> String {
    format!("bench/caller{t}")
}

/// Each caller's file content; its length (and so the I/O extension's
/// result) depends on the seed.
fn contents(seed: u64) -> [String; 2] {
    let mut rng = Rng::new(seed ^ 0xf11e);
    [0, 1].map(|_| {
        let len = 48 + rng.below(64);
        (0..len).map(|i| (b'a' + (i % 26) as u8) as char).collect()
    })
}

fn manifest(name: String, principal: extsec_core::PrincipalId) -> ExtensionManifest {
    ExtensionManifest {
        name,
        principal,
        origin: Origin::Local,
        static_class: None,
    }
}

fn setup(seed: u64) -> (Sut, f64) {
    let start = Instant::now();
    let lattice = Lattice::build(["low", "high"], ["c0"]).expect("lattice");
    let mut builder = SystemBuilder::new(lattice);
    let caller_ids = [0, 1].map(|t| builder.principal(format!("caller{t}")).expect("principal"));
    let outsider = builder.principal("outsider").expect("principal");
    let owner = builder.principal("owner").expect("principal");
    builder.config(MonitorConfig {
        audit: false,
        decision_cache: true,
        ..MonitorConfig::default()
    });
    let system = builder.build().expect("system");
    let bottom = SecurityClass::bottom();
    let visible = Protection::new(Acl::public(ModeSet::only(AccessMode::List)), bottom.clone());
    system
        .monitor
        .bootstrap(|ns| {
            let parent: NsPath = "/svc/bench".parse().expect("constant path");
            ns.ensure_path(&parent, NodeKind::Interface, &visible)?;
            let handler = ns.insert(
                &parent,
                "handler",
                NodeKind::Procedure,
                Protection::default(),
            )?;
            ns.set_extensible(handler, true)?;
            ns.update_protection(handler, |prot| {
                for id in caller_ids {
                    prot.acl.push(AclEntry::allow_principal_modes(
                        id,
                        ModeSet::only(AccessMode::Execute),
                    ));
                }
                prot.acl.push(AclEntry::allow_principal_modes(
                    owner,
                    ModeSet::only(AccessMode::Extend),
                ));
            })?;
            Ok(())
        })
        .expect("interface node");
    for (t, text) in contents(seed).iter().enumerate() {
        system
            .fs
            .bootstrap_file(
                &system.monitor,
                &file(t),
                text,
                Protection::new(
                    Acl::from_entries([AclEntry::allow_principal_modes(
                        caller_ids[t],
                        ModeSet::parse("rw").expect("mode letters"),
                    )]),
                    bottom.clone(),
                ),
                &visible,
            )
            .expect("caller file");
    }
    let runtime = &system.runtime;
    runtime.set_machine_limits(MachineLimits {
        memory_bytes: 64 * 1024,
        ..MachineLimits::default()
    });
    runtime.set_epoch_slice(1_000_000);
    let ticker = EpochTicker::spawn(runtime.epoch().clone(), Duration::from_millis(1));

    let spec = asm::assemble(SPEC_SRC).expect("spec module");
    let iface = iface();
    let mut load_ns = 0u128;
    let mut load = |module, name: String| {
        let t = Instant::now();
        let id = runtime
            .load(module, manifest(name, owner))
            .expect("load extension");
        load_ns += t.elapsed().as_nanos();
        id
    };
    let ids: Vec<ExtensionId> = (0..POPULATION)
        .map(|i| load(spec.clone(), format!("spec{i}")))
        .collect();
    let io = load(asm::assemble(IO_SRC).expect("io module"), "io".into());
    let compute = load(
        asm::assemble(COMPUTE_SRC).expect("compute module"),
        "compute".into(),
    );
    for id in ids.iter().step_by(7) {
        runtime
            .extend(*id, &iface, "good")
            .expect("extend interface");
    }
    let sut = Sut {
        callers: caller_ids.map(|id| Subject::new(id, bottom.clone())),
        outsider: Subject::new(outsider, bottom),
        spec: ids[0],
        io,
        compute,
        load_us: load_ns as f64 / 1e3 / (POPULATION + 2) as f64,
        _ticker: ticker,
        system,
    };
    // Warm-up: every op kind once per caller.
    for t in 0..2 {
        for op in [
            Op::Call,
            Op::RunIo,
            Op::RunCompute,
            Op::DeniedCall,
            Op::DeniedFs,
        ] {
            let _ = perform(&sut, t, op);
        }
    }
    (sut, start.elapsed().as_secs_f64())
}

fn perform(sut: &Sut, t: usize, op: Op) -> Result<Option<Value>, ExtError> {
    let runtime = &sut.system.runtime;
    let caller = &sut.callers[t];
    match op {
        Op::Call => runtime.call(caller, &iface(), &[]),
        Op::RunIo => runtime.run(sut.io, "main", &[Value::Str(file(t))], caller),
        Op::RunCompute => runtime.run(sut.compute, "main", &[], caller),
        Op::DeniedCall => runtime.call(&sut.outsider, &iface(), &[]),
        Op::DeniedFs => runtime.call(
            &sut.outsider,
            &"/svc/fs/read".parse().expect("constant path"),
            &[Value::Str(file(t))],
        ),
    }
}

/// The expected outcome of each op kind, per caller.
struct Oracle {
    values: [[Option<Value>; 3]; 2],
}

impl Oracle {
    fn matches(&self, t: usize, op: Op, got: &Result<Option<Value>, ExtError>) -> bool {
        match op {
            Op::Call | Op::RunIo | Op::RunCompute => {
                matches!(got, Ok(v) if *v == self.values[t][op as usize])
            }
            Op::DeniedCall => matches!(got, Err(ExtError::Monitor(MonitorError::Denied(_)))),
            Op::DeniedFs => matches!(got, Err(ExtError::Service(ServiceError::Denied(_)))),
        }
    }
}

/// A syscall host that answers every import with a canned value: the
/// extension's own code, with no gate, monitor or service behind it.
struct StubHost<'a> {
    content: &'a str,
}

impl SyscallHost for StubHost<'_> {
    fn syscall(&mut self, import: &ImportDecl, _args: &[Value]) -> Result<Option<Value>, String> {
        match import.path.as_str() {
            "/svc/fs/read" => Ok(Some(Value::Str(self.content.to_string()))),
            "/svc/fs/write" | "/svc/mbuf/free" => Ok(None),
            "/svc/mbuf/alloc" | "/svc/clock/now" => Ok(Some(Value::Int(1))),
            other => Err(format!("no stub for {other}")),
        }
    }
}

fn ring(seed: u64, t: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ (0xe47 + t as u64));
    (0..RING_OPS)
        .map(|_| {
            let op = [Op::Call, Op::RunIo, Op::RunCompute][rng.weighted(&MIX)];
            if rng.below(100) < DENIED_PCT {
                if op == Op::Call {
                    Op::DeniedCall
                } else {
                    Op::DeniedFs
                }
            } else {
                op
            }
        })
        .collect()
}

/// What one caller thread did in one phase.
struct ThreadResult {
    ops: u64,
    failed: u64,
    kinds: [u64; 5],
    per_kind: [Samples; 5],
    timeline: Timeline,
    tracer: Tracer,
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let rings = [ring(args.seed, 0), ring(args.seed, 1)];
    let texts = contents(args.seed);
    let mut digest = Digest::new();
    let mut kinds = [0usize; 5];
    for r in &rings {
        for op in r {
            kinds[*op as usize] += 1;
            digest.u64(*op as u64);
        }
    }
    for text in &texts {
        digest.str(text);
    }
    let total: usize = kinds.iter().sum();
    report.note(format!(
        "digest: workload=ext_gate population={POPULATION} specializations={} ring_ops={} {} deny_share={:.4} file_lens={},{} inputs_hash={}",
        POPULATION.div_ceil(7),
        total,
        OP_NAMES
            .iter()
            .zip(kinds)
            .map(|(n, k)| format!("{n}={k}"))
            .collect::<Vec<_>>()
            .join(" "),
        ratio((kinds[3] + kinds[4]) as f64, total as f64),
        texts[0].len(),
        texts[1].len(),
        digest.hex()
    ));

    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut sut = None;
    while more_setups(&setups) {
        drop(sut.take());
        let (s, secs) = setup(args.seed);
        setups.push(secs);
        loads.push(s.load_us);
        sut = Some(s);
    }
    let sut = sut.expect("at least one set-up");
    report.setup_times(&setups);
    report.set("ext.load_us", median(&loads));

    // The oracle: expected values from the extensions' own code under a
    // stub host, cross-checked against their closed forms, and the
    // expected denials from the unmemoized monitor.
    let oracle = Oracle {
        values: [0, 1].map(|t| {
            [
                interp(&sut, t, Op::Call, &texts).0,
                interp(&sut, t, Op::RunIo, &texts).0,
                interp(&sut, t, Op::RunCompute, &texts).0,
            ]
        }),
    };
    for (t, text) in texts.iter().enumerate() {
        let want = [
            Some(Value::Int(7)),
            Some(Value::Int(2 * text.len() as i64)),
            Some(Value::Int(COMPUTE_ITERS * (COMPUTE_ITERS - 1) / 2)),
        ];
        report.check(
            format!("caller{t}: stub-host results match the closed forms"),
            oracle.values[t] == want,
        );
    }
    let monitor = &sut.system.monitor;
    let file_path = |t: usize| extsec_core::FsService::node_path(&file(t)).expect("file node path");
    let grants_hold = (0..2).all(|t| {
        monitor
            .check_unmemoized(&sut.callers[t], &iface(), AccessMode::Execute)
            .allowed()
            && monitor
                .check_unmemoized(&sut.callers[t], &file_path(t), AccessMode::Write)
                .allowed()
            && !monitor
                .check_unmemoized(&sut.outsider, &file_path(t), AccessMode::Read)
                .allowed()
    }) && !monitor
        .check_unmemoized(&sut.outsider, &iface(), AccessMode::Execute)
        .allowed();
    report.check("oracle: callers granted, outsider denied", grants_hold);

    let base = Instant::now();
    let mut throughput = [0.0f64; 2];
    let mut cursor = [0usize; 2];
    for (traced, window) in args.phases() {
        let cache0 = monitor.cache_stats();
        let ticks0 = sut.system.clock.ticks();
        let barrier = Barrier::new(2);
        let start = Instant::now();
        let results: Vec<ThreadResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let (sut, oracle, barrier, ring) = (&sut, &oracle, &barrier, &rings[t]);
                    let from = cursor[t];
                    scope.spawn(move || {
                        caller_loop(
                            sut, oracle, barrier, ring, from, t, traced, base, start, window,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });
        let secs = start.elapsed().as_secs_f64();
        let mut timeline = Timeline::new(start, window);
        let mut tracer = Tracer::new(traced, base, 9);
        let mut ops = 0;
        let mut kinds = [0u64; 5];
        let mut per_kind: [Samples; 5] = std::array::from_fn(|_| Samples::new());
        for (t, r) in results.into_iter().enumerate() {
            cursor[t] += r.ops as usize;
            ops += r.ops;
            report.attempted += r.ops;
            report.failed += r.failed;
            for (k, n) in kinds.iter_mut().zip(r.kinds) {
                *k += n;
            }
            for (mine, theirs) in per_kind.iter_mut().zip(r.per_kind) {
                mine.merge(theirs);
            }
            timeline.merge(r.timeline);
            tracer.absorb(r.tracer);
        }
        throughput[traced as usize] = ratio(ops as f64, secs);
        // Every I/O and compute run reads the clock exactly once.
        let ticks = (sut.system.clock.ticks() - ticks0) as u64;
        report.check(
            format!(
                "clock reads == runs ({ticks} == {})",
                kinds[Op::RunIo as usize] + kinds[Op::RunCompute as usize]
            ),
            ticks == kinds[Op::RunIo as usize] + kinds[Op::RunCompute as usize],
        );
        if !traced {
            report.latency("ext_gate untraced", &mut timeline);
            let medians: Vec<String> = OP_NAMES
                .iter()
                .zip(per_kind.iter_mut())
                .map(|(name, s)| format!("{name} {:.2}", s.quantile(0.5) / 1e3))
                .collect();
            report.note(format!(
                "ext_gate untraced p50 by op kind (us): {}",
                medians.join(", ")
            ));
            continue;
        }
        let cache1 = monitor.cache_stats();
        let hits = (cache1.hits - cache0.hits) as f64;
        let misses = (cache1.misses - cache0.misses) as f64;
        report.set("refmon.cache_hit_ratio", ratio(hits, hits + misses));
        report.set(
            "refmon.cache_invalidations",
            (cache1.invalidations - cache0.invalidations) as f64,
        );
        let denied = kinds[Op::DeniedCall as usize] + kinds[Op::DeniedFs as usize];
        report.set("refmon.deny_share", ratio(denied as f64, ops as f64));
        let syscalls = kinds[Op::RunIo as usize] * IO_SYSCALLS
            + kinds[Op::RunCompute as usize] * COMPUTE_SYSCALLS;
        report.set("ext.syscalls_per_op", ratio(syscalls as f64, ops as f64));
        report.set("ext.run_us", tracer.p50_us(Sp::ExtRun));
        report.set("ext.call_us", tracer.p50_us(Sp::ExtCall));
        report.set("ledger.unattributed_share", tracer.unattributed_share());
        let path =
            std::path::PathBuf::from(format!(".bench_out/trace-ext_gate-seed{}.tsv", args.seed));
        if let Err(e) = tracer.write_tsv(&path) {
            report.note(format!("could not write spans: {e}"));
        }
    }
    report.peak_rss();
    if args.trace {
        report.set(
            "bench.tracing_overhead",
            ratio(throughput[0], throughput[1]) - 1.0,
        );
        replay(&sut, &rings[0], &texts, &mut report);
    }
    let quarantined = sut.system.runtime.health().quarantined_count();
    report.set("ext.quarantined", quarantined as f64);
    report.check(
        format!("no extension quarantined ({quarantined})"),
        quarantined == 0,
    );
    report
}

#[allow(clippy::too_many_arguments)]
fn caller_loop(
    sut: &Sut,
    oracle: &Oracle,
    barrier: &Barrier,
    ring: &[Op],
    from: usize,
    t: usize,
    traced: bool,
    base: Instant,
    start: Instant,
    window: Duration,
) -> ThreadResult {
    let deadline = start + window;
    let mut r = ThreadResult {
        ops: 0,
        failed: 0,
        kinds: [0; 5],
        per_kind: std::array::from_fn(|_| Samples::new()),
        timeline: Timeline::new(start, window),
        tracer: Tracer::new(traced, base, t as u32),
    };
    barrier.wait();
    let mut k = from;
    loop {
        let op = ring[k % RING_OPS];
        let t_root = r.tracer.stamp();
        let mut root = r.tracer.root(k as u64, t_root);
        let t0 = Instant::now();
        let got = perform(sut, t, op);
        let t1 = Instant::now();
        let t_op = r.tracer.stamp();
        let layer = match op {
            Op::Call | Op::DeniedCall | Op::DeniedFs => Sp::ExtCall,
            Op::RunIo | Op::RunCompute => Sp::ExtRun,
        };
        r.tracer.child(&mut root, layer, t_root, t_op);
        let ok = oracle.matches(t, op, &got);
        let t_ver = r.tracer.stamp();
        r.tracer.child(&mut root, Sp::Verify, t_op, t_ver);
        r.tracer.close(root, t_ver);
        let ns = t1.duration_since(t0).as_nanos() as u64;
        r.timeline.record(t1, ns, 1);
        r.per_kind[op as usize].push_ns(ns);
        r.ops += 1;
        r.kinds[op as usize] += 1;
        r.failed += u64::from(!ok);
        k += 1;
        if t1 >= deadline {
            return r;
        }
    }
}

/// Runs the op's extension code on a fresh machine with the runtime's
/// limits and a stub host. Returns its result and the fuel it used.
fn interp(sut: &Sut, t: usize, op: Op, texts: &[String; 2]) -> (Option<Value>, u64) {
    let runtime = &sut.system.runtime;
    let (id, export, args) = match op {
        Op::RunIo => (sut.io, "main", vec![Value::Str(file(t))]),
        Op::RunCompute => (sut.compute, "main", Vec::new()),
        // Every specialization runs the same body.
        _ => (sut.spec, "good", Vec::new()),
    };
    let ext = runtime.extension(id).expect("loaded extension");
    let mut machine = Machine::with_limits(&ext.module, runtime.machine_limits());
    let value = machine
        .run(export, &args, &mut StubHost { content: &texts[t] })
        .expect("stub run");
    (value, machine.fuel_used())
}

/// The replay phase: the VM alone, the services alone and the gate's
/// monitor checks alone, on the ops thread 0 ran.
fn replay(sut: &Sut, ring: &[Op], texts: &[String; 2], report: &mut Report) {
    let sample: Vec<Op> = ring
        .iter()
        .copied()
        .filter(|op| matches!(op, Op::Call | Op::RunIo | Op::RunCompute))
        .take(1024)
        .collect();
    let mut fuel = 0u64;
    let interp_ns = per_item_ns(sample.len(), 5, || {
        for op in &sample {
            fuel += black_box(interp(sut, 0, *op, texts)).1;
        }
    });
    report.set("vm.interp_us", interp_ns / 1e3);
    report.set("vm.fuel_per_op", fuel as f64 / (5 * sample.len()) as f64);

    // The I/O extension's eight service operations, invoked directly.
    let system = &sut.system;
    let caller = &sut.callers[0];
    let user_path = file(0);
    report.set(
        "services.op_ns",
        per_item_ns(8, 2000, || {
            let s = system
                .fs
                .read_file(&system.monitor, caller, &user_path)
                .expect("fs read");
            system
                .fs
                .write_file(&system.monitor, caller, &user_path, &s)
                .expect("fs write");
            let h = system
                .mbuf
                .alloc(caller.principal, 256)
                .expect("mbuf alloc");
            system.mbuf.free(caller.principal, h).expect("mbuf free");
            black_box(system.clock.now());
            black_box(
                system
                    .fs
                    .read_file(&system.monitor, caller, &user_path)
                    .expect("fs read"),
            );
            let h = system
                .mbuf
                .alloc(caller.principal, 128)
                .expect("mbuf alloc");
            system.mbuf.free(caller.principal, h).expect("mbuf free");
        }),
    );

    // Every monitor check the sampled ops made at a gate: `execute` on
    // the interface or on each import, and the fs service's own checks
    // on the file.
    let file_node = extsec_core::FsService::node_path(&user_path).expect("file node path");
    let gate = |p: &str| -> NsPath { p.parse().expect("constant path") };
    let mut inputs: Vec<CheckInput> = Vec::new();
    for op in ring.iter().take(256) {
        let x = AccessMode::Execute;
        match op {
            Op::Call => inputs.push((caller.clone(), iface(), x)),
            Op::DeniedCall => inputs.push((sut.outsider.clone(), iface(), x)),
            Op::DeniedFs => {
                inputs.push((sut.outsider.clone(), gate("/svc/fs/read"), x));
                inputs.push((sut.outsider.clone(), file_node.clone(), AccessMode::Read));
            }
            Op::RunCompute => inputs.push((caller.clone(), gate("/svc/clock/now"), x)),
            Op::RunIo => {
                for p in [
                    "/svc/fs/read",
                    "/svc/fs/write",
                    "/svc/mbuf/alloc",
                    "/svc/mbuf/free",
                    "/svc/clock/now",
                    "/svc/fs/read",
                    "/svc/mbuf/alloc",
                    "/svc/mbuf/free",
                ] {
                    inputs.push((caller.clone(), gate(p), x));
                }
                inputs.push((caller.clone(), file_node.clone(), AccessMode::Read));
                inputs.push((caller.clone(), file_node.clone(), AccessMode::Write));
                inputs.push((caller.clone(), file_node.clone(), AccessMode::Read));
            }
        }
    }
    replay_check_path(&sut.system.monitor, &inputs, report);
}
