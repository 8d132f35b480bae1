//! Fault containment: every injected fault fails closed.
//!
//! The robustness claim these tests pin down: no trap, error, or panic
//! injected at any internal fault point may convert a Deny into a Grant
//! (the monitor answers every internal fault with a structural denial),
//! and no fault may leak a server connection slot (the accounting drop
//! guard runs on every exit path, including unwinds).
//!
//! The fault points are armed by the `fault-injection` feature, which
//! this package's dev-dependencies turn on for test builds; release
//! builds compile the points to nothing. Should the tests ever run with
//! the machinery compiled out, [`armed`] detects it and they pass
//! vacuously rather than asserting on faults that cannot fire.

use extsec::campaign::{fail_closed, is_injected_denial};
use extsec::faults::{self, FaultAction, FaultPlan};
use extsec::server::{Client, ClientConfig, Server, ServerConfig};
use extsec::{
    AccessMode, Acl, AclEntry, CallCtx, Decision, ExtError, ExtRuntime, ExtensionManifest,
    HealthConfig, Lattice, ModeSet, MonitorBuilder, MonitorConfig, NodeKind, NsPath, Origin,
    Protection, ReferenceMonitor, SecurityClass, Service, ServiceError, Subject, Trap, Value,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

/// The installed fault plan is process-global; every test that installs
/// one holds this lock so plans never bleed across tests.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether the fault machinery is compiled in (the `fault-injection`
/// feature). Callers hold [`exclusive`] already.
fn armed() -> bool {
    faults::install(FaultPlan::seeded(0).at("containment.probe", 0, FaultAction::Error));
    let armed = faults::fire("containment.probe").is_some();
    faults::clear();
    armed
}

/// A small world with both grants and denials on record: alice holds
/// `rx` on `/svc/fs/read`, bob holds nothing. The decision cache is off
/// so every check walks the name space and meets the fault points.
fn world() -> (Arc<ReferenceMonitor>, Subject, Subject) {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let alice = builder.add_principal("alice").unwrap();
    let bob = builder.add_principal("bob").unwrap();
    builder.config(MonitorConfig {
        decision_cache: false,
        ..MonitorConfig::default()
    });
    let monitor = builder.build();
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/fs"), NodeKind::Domain, &visible)?;
            let read = ns.insert(
                &p("/svc/fs"),
                "read",
                NodeKind::Procedure,
                Protection::default(),
            )?;
            ns.update_protection(read, |prot| {
                prot.acl.push(AclEntry::allow_principal_modes(
                    alice,
                    ModeSet::parse("rx").unwrap(),
                ));
            })?;
            Ok(())
        })
        .unwrap();
    let class = monitor.lattice(|l| l.parse_class("low").unwrap());
    (
        monitor,
        Subject::new(alice, class.clone()),
        Subject::new(bob, class),
    )
}

/// The probe battery: a mix of grants, ACL denials, and a missing path.
fn probes(alice: &Subject, bob: &Subject) -> Vec<(Subject, NsPath, AccessMode)> {
    let mut out = Vec::new();
    for subject in [alice, bob] {
        for path in ["/svc/fs/read", "/svc/fs", "/svc/ghost"] {
            for mode in [AccessMode::Read, AccessMode::Execute, AccessMode::List] {
                out.push((subject.clone(), p(path), mode));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fail-closed invariant, under randomized fault storms: for
    /// every probe, the decision under an arbitrary seeded fault plan is
    /// either identical to the fault-free oracle or a denial. A fault
    /// may *lose* a grant; it may never *mint* one.
    #[test]
    fn injected_faults_never_flip_deny_into_grant(seed in any::<u64>(), rate in 0u32..=1024) {
        let _x = exclusive();
        faults::clear();
        let (monitor, alice, bob) = world();
        let battery = probes(&alice, &bob);
        let oracle: Vec<Decision> = battery
            .iter()
            .map(|(s, path, mode)| monitor.check(s, path, *mode))
            .collect();
        prop_assert!(oracle.iter().any(|d| d.allowed()), "oracle must grant something");
        prop_assert!(oracle.iter().any(|d| !d.allowed()), "oracle must deny something");

        faults::install(
            FaultPlan::seeded(seed)
                .rate(rate)
                .actions(&[FaultAction::Error, FaultAction::Trap, FaultAction::Panic]),
        );
        // The campaign explorer's fail-closed checker, probe by probe:
        // a grant under faults is only legal if the oracle grants too.
        for ((subject, path, mode), expect) in battery.iter().zip(oracle.iter()) {
            let got = monitor.check(subject, path, *mode);
            if let Err(v) = fail_closed(expect, &got) {
                prop_assert!(
                    false,
                    "fault plan (seed {}, rate {}) on {} {:?}: {}",
                    seed, rate, path, mode, v
                );
            }
        }
        faults::clear();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Resource traps are containment, not corruption: under arbitrary
    /// byte budgets and epoch configurations, an execution of a
    /// memory-growing loop either completes inside the budget or traps
    /// with a typed resource trap — and the same machine then runs a
    /// clean export correctly, with its accounted memory fully reset.
    #[test]
    fn resource_traps_never_corrupt_the_machine(
        budget in 300u64..8192,
        interval in 1u32..96,
        expired in any::<bool>(),
    ) {
        use extsec::vm::{asm, EpochClock, Machine, MachineLimits, NullHost, Trap, Value};
        let src = r#"
module t
func grow() -> int
  locals s: str
  label loop
  load_local s
  push_str "0123456789abcdef"
  concat
  store_local s
  jump loop
end
func calm() -> int
  push_int 7
  ret
end
export grow = grow
export calm = calm
"#;
        let verified = extsec::vm::verify(asm::assemble(src).unwrap()).unwrap();
        let mut machine = Machine::with_limits(
            &verified,
            MachineLimits {
                fuel: 1_000_000,
                memory_bytes: budget,
                epoch_check_interval: interval,
                ..MachineLimits::default()
            },
        );
        // An already-expired deadline preempts at the first epoch check;
        // an unexpired one (the clock never advances mid-run without a
        // ticker) leaves the byte budget as the binding bound.
        let clock = EpochClock::new();
        clock.tick();
        machine.set_epoch(clock.clone(), if expired { 0 } else { u64::MAX });
        let trap = machine.run("grow", &[], &mut NullHost).unwrap_err();
        prop_assert!(
            matches!(trap, Trap::OutOfMemory | Trap::Preempted),
            "expected a resource trap, got {trap:?}"
        );

        // The trapped machine is immediately reusable: a clean export
        // runs to the right answer and accounts every byte back.
        let again = machine.run("calm", &[], &mut NullHost);
        prop_assert_eq!(again, Ok(Some(Value::Int(7))));
        prop_assert_eq!(machine.mem_used(), 0, "accounted bytes leaked across runs");
    }
}

/// The new `ext.limits.*` fault points obey the same fail-closed law as
/// every other point: forcing a resource trap may *lose* a grant (the
/// caller sees a typed trap) but can never *mint* one — a subject the
/// monitor denies stays denied with the storm raging.
#[test]
fn resource_limit_faults_never_mint_grants() {
    let _x = exclusive();
    if !armed() {
        return;
    }
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let alice = builder.add_principal("alice").unwrap();
    let bob = builder.add_principal("bob").unwrap();
    let monitor = builder.build();
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/iface"), NodeKind::Interface, &visible)?;
            let handler = ns.insert(
                &p("/svc/iface"),
                "handler",
                NodeKind::Procedure,
                Protection::default(),
            )?;
            ns.set_extensible(handler, true)?;
            ns.update_protection(handler, |prot| {
                prot.acl.push(AclEntry::allow_principal_modes(
                    alice,
                    ModeSet::of(&[AccessMode::Execute, AccessMode::Extend]),
                ));
            })?;
            Ok(())
        })
        .unwrap();
    let class = monitor.lattice(|l| l.parse_class("low").unwrap());
    let alice = Subject::new(alice, class.clone());
    let bob = Subject::new(bob, class);
    let runtime = ExtRuntime::new(Arc::clone(&monitor));
    let src = r#"
module calm
func main() -> int
  push_int 1
  ret
end
export main = main
"#;
    let id = runtime
        .load(
            extsec::vm::asm::assemble(src).unwrap(),
            ExtensionManifest {
                name: "calm".into(),
                principal: alice.principal,
                origin: Origin::Local,
                static_class: None,
            },
        )
        .unwrap();
    let path = p("/svc/iface/handler");
    runtime.extend(id, &path, "main").unwrap();

    // Fault-free oracle: alice's call routes, bob's is denied.
    assert!(runtime.call(&alice, &path, &[]).is_ok());
    assert!(matches!(
        runtime.call(&bob, &path, &[]).unwrap_err(),
        ExtError::Monitor(_)
    ));

    for tag in ["ext.limits.oom", "ext.limits.preempt"] {
        faults::install(FaultPlan::seeded(5).always(tag, FaultAction::Error));
        // Alice's grant is lost to a typed resource trap — not kept.
        let e = runtime.call(&alice, &path, &[]).unwrap_err();
        assert!(
            matches!(
                e,
                ExtError::Trap(extsec::vm::Trap::OutOfMemory)
                    | ExtError::Trap(extsec::vm::Trap::Preempted)
            ),
            "{tag}: got {e:?}"
        );
        // Bob stays denied: the fault point fires after the access
        // check, so it can only ever shorten an authorized execution.
        assert!(matches!(
            runtime.call(&bob, &path, &[]).unwrap_err(),
            ExtError::Monitor(_)
        ));
        let stats = faults::clear();
        assert!(stats.errors >= 1, "{tag}: the fault point never fired");
    }
}

#[test]
fn scripted_resolve_fault_denies_structurally() {
    let _x = exclusive();
    if !armed() {
        return;
    }
    let (monitor, alice, _) = world();
    let path = p("/svc/fs/read");
    assert!(monitor.check(&alice, &path, AccessMode::Read).allowed());

    // The very next resolution faults: the same request is now denied,
    // with the injected fault named in the reason.
    faults::install(FaultPlan::seeded(1).at("ns.resolve", 0, FaultAction::Error));
    let denial = monitor.check(&alice, &path, AccessMode::Read);
    assert!(
        is_injected_denial(&denial),
        "an injected resolve fault must deny, naming the fault: {denial:?}"
    );
    let stats = faults::clear();
    assert_eq!(stats.errors, 1);

    // With the plan gone the grant is back — the fault left no residue.
    assert!(monitor.check(&alice, &path, AccessMode::Read).allowed());
}

/// A service answering 1 without touching the name space, so every
/// `ns.resolve` hit of a crossing into it belongs to the gate.
struct One;

impl Service for One {
    fn name(&self) -> &str {
        "one"
    }

    fn invoke(
        &self,
        _ctx: &CallCtx<'_>,
        _op: &str,
        _args: &[Value],
    ) -> Result<Option<Value>, ServiceError> {
        Ok(Some(Value::Int(1)))
    }
}

/// How often a crossing meets the `ns.resolve` fault point: every hit
/// serves a zero delay, which the plan counts.
fn resolve_hits(crossing: impl FnOnce()) -> u64 {
    faults::install(FaultPlan::seeded(0).always("ns.resolve", FaultAction::Delay(Duration::ZERO)));
    crossing();
    faults::clear().delays
}

/// A syscall through a linked import meets `ns.resolve` exactly as often
/// as the unlinked `call` of its target, cached or not, warm or cold,
/// granted or denied. An error scripted at any of those hits fails the
/// syscall closed, as a trap naming the fault, unless the name-walk
/// fallback absorbs it; it never turns a denial into a grant.
#[test]
fn linked_syscalls_meet_resolve_faults_like_unlinked_calls() {
    let _x = exclusive();
    if !armed() {
        return;
    }
    let src = r#"
module probe
import read = "/svc/fs/read" () -> int
func main() -> int
  syscall read
  ret
end
export main = main
"#;
    let path = p("/svc/fs/read");
    for cache in [false, true] {
        let (monitor, alice, bob) = world();
        monitor.set_config(MonitorConfig {
            decision_cache: cache,
            ..monitor.config()
        });
        let runtime = ExtRuntime::new(Arc::clone(&monitor));
        // Bob's denied syscalls trap his runs; keep the breaker out of it.
        runtime.set_health_config(HealthConfig {
            fault_budget: 1_000,
            window: Duration::from_secs(60),
            cooldown: Duration::from_secs(5),
        });
        runtime.mount_service(p("/svc/fs"), Arc::new(One));
        let id = runtime
            .load(
                extsec::vm::asm::assemble(src).unwrap(),
                ExtensionManifest {
                    name: "probe".into(),
                    principal: alice.principal,
                    origin: Origin::Local,
                    static_class: None,
                },
            )
            .unwrap();
        let linked = |subject: &Subject| runtime.run(id, "main", &[], subject);
        let unlinked = |subject: &Subject| runtime.call(subject, &path, &[]);
        // A configuration swap is a mutation: the next check is a miss.
        let cool = || monitor.set_config(monitor.config());
        for subject in [&alice, &bob] {
            for cold in [true, false] {
                if cold {
                    cool();
                }
                let call_hits = resolve_hits(|| drop(unlinked(subject)));
                if cold {
                    cool();
                }
                let syscall_hits = resolve_hits(|| drop(linked(subject)));
                assert!(call_hits > 0);
                assert_eq!(
                    syscall_hits, call_hits,
                    "cache {cache}, cold {cold}, {:?}",
                    subject.principal
                );
            }

            let oracle = linked(subject);
            assert_eq!(oracle.is_ok(), subject == &alice);
            let hits = resolve_hits(|| drop(linked(subject)));
            let mut injected = 0;
            for nth in 0..hits {
                faults::install(FaultPlan::seeded(1).at("ns.resolve", nth, FaultAction::Error));
                let got = linked(subject);
                assert_eq!(faults::clear().errors, 1);
                match &got {
                    Err(ExtError::Trap(Trap::Host(msg)))
                        if msg.contains("injected error at ns.resolve") =>
                    {
                        injected += 1
                    }
                    // The fallback walk absorbed the fault.
                    _ => assert_eq!(got, oracle, "cache {cache}, hit {nth}"),
                }
            }
            if subject == &alice {
                assert!(injected > 0, "cache {cache}: no fault reached the gate");
            }
        }
    }
}

#[test]
fn dispatch_panic_is_contained_and_recorded() {
    let _x = exclusive();
    if !armed() {
        return;
    }
    let (monitor, alice, _) = world();
    let runtime = ExtRuntime::new(Arc::clone(&monitor));
    runtime.set_health_config(HealthConfig {
        fault_budget: 100,
        window: Duration::from_secs(60),
        cooldown: Duration::from_secs(5),
    });
    let src = r#"
module calm
func main() -> int
  push_int 1
  ret
end
export main = main
"#;
    let id = runtime
        .load(
            extsec::vm::asm::assemble(src).unwrap(),
            ExtensionManifest {
                name: "calm".into(),
                principal: alice.principal,
                origin: Origin::Local,
                static_class: None,
            },
        )
        .unwrap();

    // A panic injected inside the dispatch boundary surfaces as a typed
    // error — the calling thread does not unwind — and the health
    // ledger records it.
    faults::install(FaultPlan::seeded(2).at("ext.dispatch", 0, FaultAction::Panic));
    let e = runtime.run(id, "main", &[], &alice).unwrap_err();
    assert!(matches!(e, ExtError::HostPanic(_)), "got {e:?}");
    let stats = faults::clear();
    assert_eq!(stats.panics, 1);
    assert_eq!(runtime.explain_health(id).total_faults, 1);

    // The extension itself is fine and runs normally afterwards.
    assert_eq!(
        runtime.run(id, "main", &[], &alice).unwrap(),
        Some(extsec::vm::Value::Int(1))
    );
}

#[test]
fn service_faults_surface_as_errors_not_grants() {
    let _x = exclusive();
    if !armed() {
        return;
    }
    use extsec::vm::Value;
    let sc = extsec::scenarios::applet_scenario().unwrap();
    let read = |subject| {
        sc.system.call(
            subject,
            "/svc/fs/read",
            &[Value::Str("dept-1/report".into())],
        )
    };
    assert!(read(&sc.user).is_ok());

    // An injected service fault turns the gated read into a typed
    // failure...
    faults::install(FaultPlan::seeded(3).at("svc.fs", 0, FaultAction::Error));
    let e = read(&sc.user).unwrap_err();
    assert!(e.to_string().contains("injected"), "got {e}");
    faults::clear();

    // ...and a read the oracle denies stays denied under faults too.
    faults::install(
        FaultPlan::seeded(4)
            .rate(256)
            .actions(&[FaultAction::Error]),
    );
    assert!(read(&sc.applet_d2).is_err());
    faults::clear();
}

#[test]
fn budget_shed_answers_busy_and_client_retries_through() {
    let _x = exclusive();
    faults::clear();
    let (monitor, _, _) = world();
    let server = Server::spawn(
        monitor,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            conn_request_budget: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), ClientConfig::default()).unwrap();
    // Every ping succeeds even though the server sheds the connection
    // after two requests: the client sees the typed Busy, backs off,
    // reconnects, and retries.
    for _ in 0..5 {
        client.ping().unwrap();
    }
    drop(client);
    let snap = server.shutdown();
    assert!(snap.shed_budget >= 1, "budget shed never fired: {snap}");
    assert_eq!(snap.accepted, snap.closed, "slot leak: {snap}");
}

#[test]
fn server_fault_storm_leaks_no_slots() {
    let _x = exclusive();
    if !armed() {
        return;
    }
    let (monitor, alice, _) = world();
    let server = Server::spawn(
        Arc::clone(&monitor),
        "127.0.0.1:0",
        ServerConfig {
            workers: 3,
            accept_queue: 4,
            conn_request_budget: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let path = p("/svc/fs/read");
    // The fault-free oracle, fixed before the storm starts.
    let oracle = monitor.check(&alice, &path, AccessMode::Read);
    assert!(oracle.allowed());

    // A storm across every fault point, panics included: the connection
    // loop's injected panics unwind through the slot guard into the
    // worker's containment.
    faults::install(FaultPlan::seeded(0xdead_beef).rate(300).actions(&[
        FaultAction::Error,
        FaultAction::Trap,
        FaultAction::Panic,
    ]));
    for round in 0..24 {
        let mut client = match Client::connect(
            server.local_addr(),
            ClientConfig {
                retries: 1,
                ..ClientConfig::default()
            },
        ) {
            Ok(client) => client,
            Err(_) => continue,
        };
        // Outcomes are irrelevant — only the accounting is under test —
        // but any decision that does come back is held to the campaign
        // fail-closed invariant against the pre-storm oracle.
        let _ = client.ping();
        if let Ok(decision) = client.check(&alice, &path, AccessMode::Read) {
            if let Err(v) = fail_closed(&oracle, &decision) {
                panic!("round {round}: storm minted a grant: {v}");
            }
        }
        let _ = client.ping();
    }
    let stats = faults::clear();
    let snap = server.shutdown();
    assert_eq!(snap.accepted, snap.closed, "slot leak under storm: {snap}");
    assert_eq!(snap.active, 0, "active connections after shutdown: {snap}");
    assert!(
        stats.total() > 0,
        "the storm never fired; the test proved nothing"
    );
}
