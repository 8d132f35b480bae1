//! End-to-end tests of the extension runtime: linking, gate crossings,
//! extend registration, and class-aware dispatch.

use extsec_acl::{AccessMode, Acl, AclEntry, ModeSet, PrincipalId};
use extsec_ext::{
    CallCtx, ExtError, ExtRuntime, ExtensionId, ExtensionManifest, Origin, Service, ServiceError,
};
use extsec_mac::{Lattice, SecurityClass};
use extsec_namespace::{NodeId, NodeKind, NodeLink, NsPath, Protection};
use extsec_refmon::{DenyReason, MonitorBuilder, MonitorError, ReferenceMonitor, Subject};
use extsec_vm::{asm, Trap, Value};
use std::sync::Arc;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

/// A trivial service: `echo` returns its argument, `add` adds two ints,
/// `fail` always errors, `class` names the caller's effective class.
struct EchoService;

impl Service for EchoService {
    fn name(&self) -> &str {
        "echo"
    }

    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        op: &str,
        args: &[Value],
    ) -> Result<Option<Value>, ServiceError> {
        match op {
            "echo" => Ok(args.first().cloned()),
            "add" => {
                let a = args[0]
                    .as_int()
                    .ok_or_else(|| ServiceError::BadArgs("int".into()))?;
                let b = args[1]
                    .as_int()
                    .ok_or_else(|| ServiceError::BadArgs("int".into()))?;
                Ok(Some(Value::Int(a + b)))
            }
            "fail" => Err(ServiceError::Failed("deliberate".into())),
            "class" => Ok(Some(Value::Str(ctx.subject.class.to_string()))),
            other => Err(ServiceError::NoSuchOperation(other.to_string())),
        }
    }
}

struct Fixture {
    monitor: Arc<ReferenceMonitor>,
    runtime: Arc<ExtRuntime>,
    alice: PrincipalId,
    bob: PrincipalId,
}

/// Lattice low < high; /svc/echo/{echo,add,fail,class} mounted,
/// executable by alice only; /svc/iface/handler is an extensible procedure alice may
/// extend.
fn fixture() -> Fixture {
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
            ns.ensure_path(&p("/svc/echo"), NodeKind::Domain, &visible)?;
            for op in ["echo", "add", "fail", "class"] {
                let id = ns.insert(
                    &p("/svc/echo"),
                    op,
                    NodeKind::Procedure,
                    Protection::default(),
                )?;
                ns.update_protection(id, |prot| {
                    prot.acl
                        .push(AclEntry::allow_principal(alice, AccessMode::Execute));
                })?;
            }
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
                prot.acl
                    .push(AclEntry::allow_principal(bob, AccessMode::Execute));
            })?;
            Ok(())
        })
        .unwrap();

    let runtime = ExtRuntime::new(Arc::clone(&monitor));
    runtime.mount_service(p("/svc/echo"), Arc::new(EchoService));
    Fixture {
        monitor,
        runtime,
        alice,
        bob,
    }
}

fn low(f: &Fixture, principal: PrincipalId) -> Subject {
    Subject::new(
        principal,
        f.monitor.lattice(|l| l.parse_class("low").unwrap()),
    )
}

fn manifest(_f: &Fixture, principal: PrincipalId) -> ExtensionManifest {
    ExtensionManifest {
        name: "test-ext".into(),
        principal,
        origin: Origin::Local,
        static_class: None,
    }
}

const CALLER_SRC: &str = r#"
module caller
import add = "/svc/echo/add" (int, int) -> int
func main(x: int) -> int
  load_local x
  push_int 2
  syscall add
  ret
end
export main = main
"#;

#[test]
fn direct_service_call_through_monitor() {
    let f = fixture();
    let alice = low(&f, f.alice);
    let r = f
        .runtime
        .call(
            &alice,
            &p("/svc/echo/add"),
            &[Value::Int(40), Value::Int(2)],
        )
        .unwrap();
    assert_eq!(r, Some(Value::Int(42)));
    // Bob holds no execute right on the echo service.
    let bob = low(&f, f.bob);
    let e = f
        .runtime
        .call(&bob, &p("/svc/echo/add"), &[Value::Int(1), Value::Int(2)])
        .unwrap_err();
    assert_eq!(
        e,
        ExtError::Monitor(MonitorError::Denied(DenyReason::DacNoEntry))
    );
}

#[test]
fn extension_syscall_gates_work() {
    let f = fixture();
    let id = f
        .runtime
        .load(asm::assemble(CALLER_SRC).unwrap(), manifest(&f, f.alice))
        .unwrap();
    let alice = low(&f, f.alice);
    let r = f
        .runtime
        .run(id, "main", &[Value::Int(40)], &alice)
        .unwrap();
    assert_eq!(r, Some(Value::Int(42)));
}

#[test]
fn link_time_check_rejects_unauthorized_imports() {
    let f = fixture();
    // Bob has no execute right on /svc/echo/add.
    let e = f
        .runtime
        .load(asm::assemble(CALLER_SRC).unwrap(), manifest(&f, f.bob))
        .unwrap_err();
    assert_eq!(
        e,
        ExtError::LinkDenied {
            alias: "add".into(),
            path: "/svc/echo/add".into(),
        }
    );
}

#[test]
fn link_time_check_rejects_missing_imports() {
    let f = fixture();
    let src = r#"
module ghost
import nope = "/svc/ghost/run" ()
func main()
  syscall nope
  ret
end
export main = main
"#;
    let e = f
        .runtime
        .load(asm::assemble(src).unwrap(), manifest(&f, f.alice))
        .unwrap_err();
    assert!(matches!(e, ExtError::LinkDenied { .. }));
}

#[test]
fn call_time_check_rechecks_acl_changes() {
    let f = fixture();
    let id = f
        .runtime
        .load(asm::assemble(CALLER_SRC).unwrap(), manifest(&f, f.alice))
        .unwrap();
    let alice = low(&f, f.alice);
    assert!(f.runtime.run(id, "main", &[Value::Int(1)], &alice).is_ok());
    // Revoke alice's execute right after linking: calls must now fail.
    f.monitor
        .bootstrap(|ns| {
            let nid = ns.resolve(&p("/svc/echo/add"))?;
            ns.update_protection(nid, |prot| prot.acl = Acl::new())?;
            Ok(())
        })
        .unwrap();
    let e = f
        .runtime
        .run(id, "main", &[Value::Int(1)], &alice)
        .unwrap_err();
    assert!(matches!(e, ExtError::Trap(_)), "got {e:?}");
}

#[test]
fn extend_requires_extensible_node_and_extend_mode() {
    let f = fixture();
    let handler_src = r#"
module handler
func handle(x: int) -> int
  load_local x
  neg
  ret
end
export handle = handle
"#;
    let id = f
        .runtime
        .load(asm::assemble(handler_src).unwrap(), manifest(&f, f.alice))
        .unwrap();
    // /svc/echo/add is not extensible.
    let e = f
        .runtime
        .extend(id, &p("/svc/echo/add"), "handle")
        .unwrap_err();
    assert_eq!(e, ExtError::NotExtensible(p("/svc/echo/add")));
    // /svc/iface/handler is, and alice holds extend.
    f.runtime
        .extend(id, &p("/svc/iface/handler"), "handle")
        .unwrap();
    assert_eq!(f.runtime.registrations_on(&p("/svc/iface/handler")), 1);
    // Bob-owned extension may not extend it.
    let id_bob = f
        .runtime
        .load(asm::assemble(handler_src).unwrap(), manifest(&f, f.bob))
        .unwrap();
    let e = f
        .runtime
        .extend(id_bob, &p("/svc/iface/handler"), "handle")
        .unwrap_err();
    assert_eq!(
        e,
        ExtError::Monitor(MonitorError::Denied(DenyReason::DacNoEntry))
    );
    // Unknown export.
    let e = f
        .runtime
        .extend(id, &p("/svc/iface/handler"), "ghost")
        .unwrap_err();
    assert_eq!(e, ExtError::NoSuchExport("ghost".into()));
}

#[test]
fn dispatch_routes_calls_to_registered_specialization() {
    let f = fixture();
    let handler_src = r#"
module handler
func handle(x: int) -> int
  load_local x
  push_int 100
  add
  ret
end
export handle = handle
"#;
    let id = f
        .runtime
        .load(asm::assemble(handler_src).unwrap(), manifest(&f, f.alice))
        .unwrap();
    f.runtime
        .extend(id, &p("/svc/iface/handler"), "handle")
        .unwrap();
    let alice = low(&f, f.alice);
    let r = f
        .runtime
        .call(&alice, &p("/svc/iface/handler"), &[Value::Int(1)])
        .unwrap();
    assert_eq!(r, Some(Value::Int(101)));
    // Bob can execute the interface too — dispatch picks the same
    // bottom-classed handler.
    let bob = low(&f, f.bob);
    let r = f
        .runtime
        .call(&bob, &p("/svc/iface/handler"), &[Value::Int(2)])
        .unwrap();
    assert_eq!(r, Some(Value::Int(102)));
}

#[test]
fn class_based_dispatch_selects_by_caller() {
    let f = fixture();
    let low_class = f.monitor.lattice(|l| l.parse_class("low").unwrap());
    let high_class = f.monitor.lattice(|l| l.parse_class("high").unwrap());
    let make = |tag: i64| {
        format!(
            r#"
module handler{tag}
func handle(x: int) -> int
  push_int {tag}
  ret
end
export handle = handle
"#
        )
    };
    let mut m_low = manifest(&f, f.alice);
    m_low.static_class = Some(low_class.clone());
    let id_low = f
        .runtime
        .load(asm::assemble(&make(1)).unwrap(), m_low)
        .unwrap();
    let mut m_high = manifest(&f, f.alice);
    m_high.static_class = Some(high_class.clone());
    let id_high = f
        .runtime
        .load(asm::assemble(&make(2)).unwrap(), m_high)
        .unwrap();
    f.runtime
        .extend(id_low, &p("/svc/iface/handler"), "handle")
        .unwrap();
    f.runtime
        .extend(id_high, &p("/svc/iface/handler"), "handle")
        .unwrap();

    // A low caller sees the low handler; a high caller the high one.
    let alice_low = Subject::new(f.alice, low_class);
    let alice_high = Subject::new(f.alice, high_class);
    let r = f
        .runtime
        .call(&alice_low, &p("/svc/iface/handler"), &[Value::Int(0)])
        .unwrap();
    assert_eq!(r, Some(Value::Int(1)));
    let r = f
        .runtime
        .call(&alice_high, &p("/svc/iface/handler"), &[Value::Int(0)])
        .unwrap();
    assert_eq!(r, Some(Value::Int(2)));
}

#[test]
fn static_class_caps_effective_subject() {
    let f = fixture();
    // An extension statically classed low importing a high-labelled
    // service node: even a high caller cannot observe it through the
    // extension.
    let high_class = f.monitor.lattice(|l| l.parse_class("high").unwrap());
    let src = r#"
module snoop
import probe = "/svc/echo/echo" (str) -> str
func main() -> str
  push_str "secret?"
  syscall probe
  ret
end
export main = main
"#;
    // Statically low extension; load (and link-check) while the node is
    // still low-labelled, then raise the label.
    let low_class = f.monitor.lattice(|l| l.parse_class("low").unwrap());
    let mut m = manifest(&f, f.alice);
    m.static_class = Some(low_class);
    let id = f.runtime.load(asm::assemble(src).unwrap(), m).unwrap();
    f.monitor
        .bootstrap(|ns| {
            let nid = ns.resolve(&p("/svc/echo/echo"))?;
            ns.update_protection(nid, |prot| prot.label = high_class.clone())?;
            Ok(())
        })
        .unwrap();
    let alice_high = Subject::new(f.alice, high_class);
    // Directly, alice@high could read the node; through the low-capped
    // extension the MAC observe check fails.
    let e = f.runtime.run(id, "main", &[], &alice_high).unwrap_err();
    assert!(matches!(e, ExtError::Trap(_)), "got {e:?}");
}

#[test]
fn unload_removes_registrations() {
    let f = fixture();
    let handler_src = r#"
module handler
func handle(x: int) -> int
  push_int 5
  ret
end
export handle = handle
"#;
    let id = f
        .runtime
        .load(asm::assemble(handler_src).unwrap(), manifest(&f, f.alice))
        .unwrap();
    f.runtime
        .extend(id, &p("/svc/iface/handler"), "handle")
        .unwrap();
    f.runtime.unload(id).unwrap();
    assert_eq!(f.runtime.registrations_on(&p("/svc/iface/handler")), 0);
    assert!(matches!(
        f.runtime.extension(id),
        Err(ExtError::NoSuchExtension(_))
    ));
    assert!(matches!(
        f.runtime.unload(id),
        Err(ExtError::NoSuchExtension(_))
    ));
    // Calls to the interface now fall through... and find no base
    // service mounted at /svc/iface.
    let alice = low(&f, f.alice);
    let e = f
        .runtime
        .call(&alice, &p("/svc/iface/handler"), &[Value::Int(1)])
        .unwrap_err();
    assert_eq!(e, ExtError::NoService(p("/svc/iface/handler")));
}

#[test]
fn no_service_mounted() {
    let f = fixture();
    let alice = low(&f, f.alice);
    // Create an executable node outside any mount.
    f.monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::of(&[AccessMode::List, AccessMode::Execute])),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/lonely/op"), NodeKind::Domain, &visible)?;
            Ok(())
        })
        .unwrap();
    let e = f
        .runtime
        .call(&alice, &p("/svc/lonely/op"), &[])
        .unwrap_err();
    assert_eq!(e, ExtError::NoService(p("/svc/lonely/op")));
}

#[test]
fn verification_failures_surface_at_load() {
    let f = fixture();
    let mut module = asm::assemble(CALLER_SRC).unwrap();
    // Corrupt the code: jump out of bounds.
    module.functions[0].code[0] = extsec_vm::Instr::Jump(999);
    let e = f.runtime.load(module, manifest(&f, f.alice)).unwrap_err();
    assert!(matches!(e, ExtError::Verify(_)));
}

#[test]
fn service_errors_propagate() {
    let f = fixture();
    let alice = low(&f, f.alice);
    let e = f
        .runtime
        .call(&alice, &p("/svc/echo/fail"), &[])
        .unwrap_err();
    assert_eq!(
        e,
        ExtError::Service(ServiceError::Failed("deliberate".into()))
    );
}

#[test]
fn audit_sees_gate_crossings() {
    let f = fixture();
    f.monitor.audit().clear();
    let id = f
        .runtime
        .load(asm::assemble(CALLER_SRC).unwrap(), manifest(&f, f.alice))
        .unwrap();
    let alice = low(&f, f.alice);
    f.runtime.run(id, "main", &[Value::Int(1)], &alice).unwrap();
    // The syscall gate produced an execute check on /svc/echo/add.
    let events = f.monitor.audit().events();
    assert!(events
        .iter()
        .any(|e| e.path == p("/svc/echo/add") && e.mode == AccessMode::Execute));
}

// ----------------------------------------------------------------------
// Linked imports: a syscall's link never outlives its node or its policy.
// Every case runs twice: with the link as loaded, and with it forced
// stale (the target re-created unchanged right after load), so the name
// walk fallback decides the same way.
// ----------------------------------------------------------------------

const CLASS_SRC: &str = r#"
module whoami
import class = "/svc/echo/class" () -> str
func main() -> str
  syscall class
  ret
end
export main = main
"#;

/// Removes the node at `path` and inserts it again under the same name and
/// kind with `edit` applied to its protection. The slot is recycled at a
/// new epoch; returns the new node's id.
fn recreate(f: &Fixture, path: &str, edit: impl FnOnce(&mut Protection)) -> NodeId {
    let path = p(path);
    f.monitor
        .bootstrap(|ns| {
            let id = ns.resolve(&path)?;
            let node = ns.node(id)?;
            let (kind, mut protection) = (node.kind(), node.protection().clone());
            ns.remove_id(id)?;
            edit(&mut protection);
            ns.insert(
                &path.parent().unwrap(),
                path.leaf().unwrap(),
                kind,
                protection,
            )
        })
        .unwrap()
}

/// Inserts an alice-executable procedure at `path`; returns its id.
fn insert_executable(f: &Fixture, path: &str) -> NodeId {
    let path = p(path);
    let mut protection = Protection::default();
    protection
        .acl
        .push(AclEntry::allow_principal(f.alice, AccessMode::Execute));
    f.monitor
        .bootstrap(|ns| {
            ns.insert(
                &path.parent().unwrap(),
                path.leaf().unwrap(),
                NodeKind::Procedure,
                protection,
            )
        })
        .unwrap()
}

/// The link of the extension's only import.
fn link_of(f: &Fixture, id: ExtensionId) -> NodeLink {
    f.runtime.extension(id).unwrap().imports[0].link()
}

fn is_current(f: &Fixture, link: NodeLink) -> bool {
    f.monitor.inspect(|ns| ns.is_current(link))
}

/// Loads `src` as alice; with `stale`, then re-creates its import's
/// target unchanged so the link no longer names a live node.
fn load_linked(f: &Fixture, src: &str, stale: bool) -> ExtensionId {
    let id = f
        .runtime
        .load(asm::assemble(src).unwrap(), manifest(f, f.alice))
        .unwrap();
    let target = f.runtime.extension(id).unwrap().imports[0]
        .path()
        .to_string();
    if stale {
        recreate(f, &target, |_| {});
    }
    assert_eq!(is_current(f, link_of(f, id)), !stale);
    id
}

/// The trap a syscall failing with the unlinked call's error raises.
fn gate_trap(unlinked: ExtError) -> ExtError {
    ExtError::Trap(Trap::Host(unlinked.to_string()))
}

#[test]
fn linked_syscall_traps_on_revocation_after_link() {
    for stale in [false, true] {
        let f = fixture();
        let id = load_linked(&f, CALLER_SRC, stale);
        let alice = low(&f, f.alice);
        let args = [Value::Int(40), Value::Int(2)];
        // Warm the decision cache with the grant.
        assert_eq!(
            f.runtime.run(id, "main", &[Value::Int(40)], &alice),
            Ok(Some(Value::Int(42)))
        );
        f.monitor
            .bootstrap(|ns| {
                let nid = ns.resolve(&p("/svc/echo/add"))?;
                ns.update_protection(nid, |prot| {
                    prot.acl =
                        Acl::from_entries([AclEntry::deny_principal(f.alice, AccessMode::Execute)]);
                })
            })
            .unwrap();
        // A revocation leaves the slot alone: a fresh link still names
        // the node, and the next syscall is denied anyway.
        assert_eq!(is_current(&f, link_of(&f, id)), !stale);
        let linked = f
            .runtime
            .run(id, "main", &[Value::Int(40)], &alice)
            .unwrap_err();
        let unlinked = f
            .runtime
            .call(&alice, &p("/svc/echo/add"), &args)
            .unwrap_err();
        assert_eq!(
            unlinked,
            ExtError::Monitor(MonitorError::Denied(DenyReason::DacNegativeEntry(0)))
        );
        assert_eq!(linked, gate_trap(unlinked), "stale link: {stale}");
    }
}

#[test]
fn linked_syscall_decides_by_the_node_in_a_recycled_slot() {
    for stale in [false, true] {
        let f = fixture();
        let id = load_linked(&f, CALLER_SRC, stale);
        let (alice, bob) = (low(&f, f.alice), low(&f, f.bob));
        assert!(f.runtime.run(id, "main", &[Value::Int(1)], &alice).is_ok());
        assert!(f.runtime.run(id, "main", &[Value::Int(1)], &bob).is_err());
        let link = link_of(&f, id);
        // Same path, new node with a new ACL: alice refused, bob allowed.
        let new = recreate(&f, "/svc/echo/add", |prot| {
            prot.acl = Acl::from_entries([
                AclEntry::deny_principal(f.alice, AccessMode::Execute),
                AclEntry::allow_principal(f.bob, AccessMode::Execute),
            ]);
        });
        assert_eq!(new, link.id(), "the slot is recycled");
        assert!(!is_current(&f, link), "at a new epoch");
        let linked = f
            .runtime
            .run(id, "main", &[Value::Int(40)], &alice)
            .unwrap_err();
        let unlinked = f
            .runtime
            .call(
                &alice,
                &p("/svc/echo/add"),
                &[Value::Int(40), Value::Int(2)],
            )
            .unwrap_err();
        assert_eq!(
            unlinked,
            ExtError::Monitor(MonitorError::Denied(DenyReason::DacNegativeEntry(0)))
        );
        assert_eq!(linked, gate_trap(unlinked), "stale link: {stale}");
        assert_eq!(
            f.runtime.run(id, "main", &[Value::Int(40)], &bob),
            Ok(Some(Value::Int(42)))
        );
    }
}

#[test]
fn linked_syscall_to_a_removed_target_fails_like_the_unlinked_call() {
    for stale in [false, true] {
        let f = fixture();
        let id = load_linked(&f, CALLER_SRC, stale);
        let alice = low(&f, f.alice);
        assert!(f.runtime.run(id, "main", &[Value::Int(1)], &alice).is_ok());
        f.monitor
            .bootstrap(|ns| ns.remove(&p("/svc/echo/add")))
            .unwrap();
        // An executable node elsewhere takes the vacated slot; the link
        // must not lead to it.
        let other = insert_executable(&f, "/svc/echo/other");
        assert_eq!(other, link_of(&f, id).id(), "the slot is reused");
        let linked = f
            .runtime
            .run(id, "main", &[Value::Int(40)], &alice)
            .unwrap_err();
        let unlinked = f
            .runtime
            .call(
                &alice,
                &p("/svc/echo/add"),
                &[Value::Int(40), Value::Int(2)],
            )
            .unwrap_err();
        assert_eq!(
            unlinked,
            ExtError::Monitor(MonitorError::Denied(DenyReason::NotFound(p(
                "/svc/echo/add"
            ))))
        );
        assert_eq!(linked, gate_trap(unlinked), "stale link: {stale}");
    }
}

#[test]
fn linked_syscall_enters_at_the_targets_current_static_class() {
    for stale in [false, true] {
        let f = fixture();
        let low_class = f.monitor.lattice(|l| l.parse_class("low").unwrap());
        let high_class = f.monitor.lattice(|l| l.parse_class("high").unwrap());
        let set_static = |class: &SecurityClass| {
            f.monitor
                .bootstrap(|ns| {
                    let nid = ns.resolve(&p("/svc/echo/class"))?;
                    ns.update_protection(nid, |prot| prot.static_class = Some(class.clone()))
                })
                .unwrap();
        };
        set_static(&high_class);
        let id = load_linked(&f, CLASS_SRC, stale);
        let alice_high = Subject::new(f.alice, high_class.clone());
        let through_gate = || f.runtime.run(id, "main", &[], &alice_high);
        let unlinked = || f.runtime.call(&alice_high, &p("/svc/echo/class"), &[]);
        let named = |class: &SecurityClass| Ok(Some(Value::Str(class.to_string())));
        assert_eq!(through_gate(), named(&high_class));
        // Relabelled to low: the very next crossing is capped at low.
        set_static(&low_class);
        assert_eq!(is_current(&f, link_of(&f, id)), !stale);
        assert_eq!(through_gate(), named(&low_class), "stale link: {stale}");
        assert_eq!(unlinked(), named(&low_class));
    }
}

#[test]
fn rollback_never_revives_a_link_in_a_reused_slot() {
    let f = fixture();
    // Vacate /svc/echo/add's slot, then bank that state in the rollback
    // ring by activating an unrelated bundle.
    f.monitor
        .bootstrap(|ns| ns.remove(&p("/svc/echo/add")))
        .unwrap();
    let staged = f
        .monitor
        .stage_bundle("bundle \"b\" version 1 base current;\nacl-add /svc/echo/echo \"+bob:x\";")
        .unwrap();
    f.monitor.activate_bundle(staged.id).unwrap();
    // Re-create the target in the vacated slot and link to it.
    insert_executable(&f, "/svc/echo/add");
    let id = load_linked(&f, CALLER_SRC, false);
    let alice = low(&f, f.alice);
    assert!(f.runtime.run(id, "main", &[Value::Int(1)], &alice).is_ok());
    let link = link_of(&f, id);
    // Roll back to the state without the target, where the slot is
    // vacant again, and put another executable node in it.
    f.monitor.rollback().unwrap();
    let other = insert_executable(&f, "/svc/echo/other");
    assert_eq!(other, link.id(), "the slot is reused");
    let linked = f.runtime.run(id, "main", &[Value::Int(40)], &alice);
    let unlinked = f
        .runtime
        .call(
            &alice,
            &p("/svc/echo/add"),
            &[Value::Int(40), Value::Int(2)],
        )
        .unwrap_err();
    assert_eq!(
        unlinked,
        ExtError::Monitor(MonitorError::Denied(DenyReason::NotFound(p(
            "/svc/echo/add"
        ))))
    );
    assert_eq!(linked, Err(gate_trap(unlinked)));
    assert!(!is_current(&f, link));
}
