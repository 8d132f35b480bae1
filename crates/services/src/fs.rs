//! The in-memory file system service.
//!
//! File and directory **metadata lives in the universal name space** under
//! `/obj/fs`: every file is an `Object` leaf with its own ACL and label,
//! every directory a `Directory` container. The service only stores the
//! contents; all protection decisions go through the reference monitor
//! against those nodes — precisely the paper's §2.3 point that one name
//! space and one protection facility can cover files and extensions
//! alike.
//!
//! Service operations (mounted at `/svc/fs`):
//!
//! | op | args | check on the file node |
//! |---|---|---|
//! | `create` | path, contents | `write-append` on the parent directory |
//! | `mkdir` | path | `write-append` on the parent directory |
//! | `read` | path | `read` |
//! | `write` | path, contents | `write` |
//! | `append` | path, contents | `write-append` |
//! | `delete` | path | `delete` |
//! | `list` | path | `list` |
//! | `stat` | path | `read` |
//!
//! Newly created files are labelled with the creating subject's class and
//! ACL'd to the creator ([`install::creator_protection`]); administrators
//! can re-ACL them afterwards through the monitor.

use crate::install::{self, visible_container};
use extsec_acl::AccessMode;
use extsec_ext::{CallCtx, Service, ServiceError};
use extsec_namespace::{NodeKind, NsPath, Protection};
use extsec_refmon::{MonitorError, ReferenceMonitor, ServiceKind, Subject};
use extsec_vm::Value;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// The name-space root of all file objects.
pub const FS_ROOT: &str = "/obj/fs";
/// [`FS_ROOT`]'s components, which every file's node path starts with.
const FS_ROOT_COMPONENTS: [&str; 2] = ["obj", "fs"];
/// The service mount prefix.
pub const FS_SERVICE: &str = "/svc/fs";

/// The in-memory file system service.
pub struct FsService {
    contents: RwLock<BTreeMap<NsPath, String>>,
}

impl FsService {
    /// Creates an empty file system.
    pub fn new() -> Self {
        FsService {
            contents: RwLock::new(BTreeMap::new()),
        }
    }

    /// Installs the service's procedure nodes (with the given per-op
    /// protections) and the `/obj/fs` root.
    pub fn install(
        monitor: &ReferenceMonitor,
        op_protection: impl Fn(&str) -> Protection,
    ) -> Result<(), MonitorError> {
        let prefix: NsPath = FS_SERVICE.parse().expect("constant path");
        let ops = [
            "create", "mkdir", "read", "write", "append", "delete", "list", "stat",
        ];
        let procs: Vec<(&str, Protection)> =
            ops.iter().map(|op| (*op, op_protection(op))).collect();
        install::install_procedures(monitor, &prefix, &procs)?;
        monitor.bootstrap(|ns| {
            ns.ensure_path(
                &FS_ROOT.parse().expect("constant path"),
                NodeKind::Directory,
                &visible_container(),
            )?;
            Ok(())
        })
    }

    /// Installs with every operation publicly executable (per-file ACLs
    /// still apply; this only opens the service interface itself).
    pub fn install_public(monitor: &ReferenceMonitor) -> Result<(), MonitorError> {
        Self::install(monitor, |_| install::public_procedure())
    }

    /// Maps a user path string (e.g. `"home/alice/notes"`) to its node
    /// path under [`FS_ROOT`], building the components in one pass.
    pub fn node_path(user_path: &str) -> Result<NsPath, ServiceError> {
        let trimmed = user_path.trim_matches('/');
        let user = (!trimmed.is_empty()).then(|| trimmed.split('/'));
        NsPath::from_components(
            FS_ROOT_COMPONENTS
                .into_iter()
                .chain(user.into_iter().flatten()),
        )
        .map_err(|e| ServiceError::BadArgs(format!("bad path: {e}")))
    }

    /// Creates a file with explicit protection, bypassing access checks
    /// (TCB operation for scenario setup): interior directories are
    /// created as needed with clones of `dir_protection`.
    pub fn bootstrap_file(
        &self,
        monitor: &ReferenceMonitor,
        user_path: &str,
        contents: &str,
        protection: Protection,
        dir_protection: &Protection,
    ) -> Result<(), ServiceError> {
        let (parent, name, path) = Self::split_for_create(user_path)?;
        monitor
            .bootstrap(|ns| {
                let parent_id = ns.ensure_path(&parent, NodeKind::Directory, dir_protection)?;
                ns.insert_at(parent_id, &name, NodeKind::Object, protection)?;
                Ok(())
            })
            .map_err(ServiceError::from)?;
        self.contents.write().insert(path, contents.to_string());
        Ok(())
    }

    /// Splits a user path into (parent node path, leaf name, full node
    /// path) for creation, rejecting the fs root itself.
    fn split_for_create(user_path: &str) -> Result<(NsPath, String, NsPath), ServiceError> {
        let path = Self::node_path(user_path)?;
        if path.depth() == FS_ROOT_COMPONENTS.len() {
            return Err(ServiceError::BadArgs("cannot create the fs root".into()));
        }
        let parent = path.parent().expect("deeper than the fs root");
        let name = path.leaf().expect("non-root path has a leaf").to_string();
        Ok((parent, name, path))
    }

    fn arg_str(args: &[Value], i: usize) -> Result<&str, ServiceError> {
        args.get(i)
            .and_then(Value::as_str)
            .ok_or_else(|| ServiceError::BadArgs(format!("argument {i} must be a string")))
    }

    /// Creates a file as `subject` (used by both the service op and
    /// direct host-level calls in tests/examples).
    pub fn create_file(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        user_path: &str,
        contents: &str,
    ) -> Result<(), ServiceError> {
        let (parent, name, path) = Self::split_for_create(user_path)?;
        monitor.create(
            subject,
            &parent,
            &name,
            NodeKind::Object,
            install::creator_protection(subject),
        )?;
        self.contents.write().insert(path, contents.to_string());
        Ok(())
    }

    /// Creates a directory as `subject`.
    pub fn mkdir(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        user_path: &str,
    ) -> Result<(), ServiceError> {
        let (parent, name, _path) = Self::split_for_create(user_path)?;
        monitor.create(
            subject,
            &parent,
            &name,
            NodeKind::Directory,
            install::creator_protection(subject),
        )?;
        Ok(())
    }

    /// Reads a file as `subject`.
    pub fn read_file(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        user_path: &str,
    ) -> Result<String, ServiceError> {
        let path = Self::node_path(user_path)?;
        monitor.require(subject, &path, AccessMode::Read)?;
        self.contents
            .read()
            .get(&path)
            .cloned()
            .ok_or_else(|| ServiceError::NotFound(user_path.to_string()))
    }

    /// Overwrites a file as `subject`.
    pub fn write_file(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        user_path: &str,
        contents: &str,
    ) -> Result<(), ServiceError> {
        let path = Self::node_path(user_path)?;
        monitor.require(subject, &path, AccessMode::Write)?;
        match self.contents.write().get_mut(&path) {
            Some(slot) => {
                *slot = contents.to_string();
                Ok(())
            }
            None => Err(ServiceError::NotFound(user_path.to_string())),
        }
    }

    /// Appends to a file as `subject` — the blind write-up mode.
    pub fn append_file(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        user_path: &str,
        contents: &str,
    ) -> Result<(), ServiceError> {
        let path = Self::node_path(user_path)?;
        monitor.require(subject, &path, AccessMode::WriteAppend)?;
        match self.contents.write().get_mut(&path) {
            Some(slot) => {
                slot.push_str(contents);
                Ok(())
            }
            None => Err(ServiceError::NotFound(user_path.to_string())),
        }
    }

    /// Deletes a file as `subject`.
    pub fn delete_file(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        user_path: &str,
    ) -> Result<(), ServiceError> {
        let path = Self::node_path(user_path)?;
        monitor.remove(subject, &path)?;
        self.contents.write().remove(&path);
        Ok(())
    }

    /// Lists a directory as `subject`.
    pub fn list_dir(
        &self,
        monitor: &ReferenceMonitor,
        subject: &Subject,
        user_path: &str,
    ) -> Result<Vec<String>, ServiceError> {
        let path = Self::node_path(user_path)?;
        Ok(monitor.list(subject, &path)?)
    }
}

impl Default for FsService {
    fn default() -> Self {
        FsService::new()
    }
}

impl Service for FsService {
    fn name(&self) -> &str {
        "fs"
    }

    fn invoke(
        &self,
        ctx: &CallCtx<'_>,
        op: &str,
        args: &[Value],
    ) -> Result<Option<Value>, ServiceError> {
        ctx.monitor.telemetry().count_service(ServiceKind::Fs);
        if let Some(fault) = extsec_faults::fire("svc.fs") {
            return Err(ServiceError::Failed(fault.to_string()));
        }
        let monitor = ctx.monitor.as_ref();
        match op {
            "create" => {
                let path = Self::arg_str(args, 0)?;
                let contents = Self::arg_str(args, 1)?;
                self.create_file(monitor, ctx.subject, path, contents)?;
                Ok(None)
            }
            "mkdir" => {
                self.mkdir(monitor, ctx.subject, Self::arg_str(args, 0)?)?;
                Ok(None)
            }
            "read" => {
                let s = self.read_file(monitor, ctx.subject, Self::arg_str(args, 0)?)?;
                Ok(Some(Value::Str(s)))
            }
            "write" => {
                let path = Self::arg_str(args, 0)?;
                let contents = Self::arg_str(args, 1)?;
                self.write_file(monitor, ctx.subject, path, contents)?;
                Ok(None)
            }
            "append" => {
                let path = Self::arg_str(args, 0)?;
                let contents = Self::arg_str(args, 1)?;
                self.append_file(monitor, ctx.subject, path, contents)?;
                Ok(None)
            }
            "delete" => {
                self.delete_file(monitor, ctx.subject, Self::arg_str(args, 0)?)?;
                Ok(None)
            }
            "list" => {
                let names = self.list_dir(monitor, ctx.subject, Self::arg_str(args, 0)?)?;
                Ok(Some(Value::Str(names.join("\n"))))
            }
            "stat" => {
                let path = Self::arg_str(args, 0)?;
                let contents = self.read_file(monitor, ctx.subject, path)?;
                Ok(Some(Value::Int(contents.len() as i64)))
            }
            other => Err(ServiceError::NoSuchOperation(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extsec_acl::{AclEntry, PrincipalId};
    use extsec_mac::{Lattice, SecurityClass};
    use extsec_refmon::{DenyReason, MonitorBuilder};
    use std::sync::Arc;

    struct Fx {
        monitor: Arc<ReferenceMonitor>,
        fs: FsService,
        alice: PrincipalId,
        bob: PrincipalId,
    }

    fn fixture() -> Fx {
        let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
        let mut builder = MonitorBuilder::new(lattice);
        let alice = builder.add_principal("alice").unwrap();
        let bob = builder.add_principal("bob").unwrap();
        let monitor = builder.build();
        FsService::install_public(&monitor).unwrap();
        // Make the fs root world-writable so tests can create files.
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&FS_ROOT.parse().unwrap())?;
                ns.update_protection(id, |prot| {
                    prot.acl
                        .push(AclEntry::allow_everyone(extsec_acl::ModeSet::of(&[
                            AccessMode::WriteAppend,
                            AccessMode::List,
                        ])));
                })?;
                Ok(())
            })
            .unwrap();
        Fx {
            monitor,
            fs: FsService::new(),
            alice,
            bob,
        }
    }

    fn bottom(p: PrincipalId) -> Subject {
        Subject::new(p, SecurityClass::bottom())
    }

    #[test]
    fn create_read_write_cycle() {
        let fx = fixture();
        let alice = bottom(fx.alice);
        fx.fs
            .create_file(&fx.monitor, &alice, "notes", "hello")
            .unwrap();
        assert_eq!(
            fx.fs.read_file(&fx.monitor, &alice, "notes").unwrap(),
            "hello"
        );
        fx.fs
            .write_file(&fx.monitor, &alice, "notes", "bye")
            .unwrap();
        assert_eq!(
            fx.fs.read_file(&fx.monitor, &alice, "notes").unwrap(),
            "bye"
        );
        fx.fs
            .append_file(&fx.monitor, &alice, "notes", "!")
            .unwrap();
        assert_eq!(
            fx.fs.read_file(&fx.monitor, &alice, "notes").unwrap(),
            "bye!"
        );
    }

    #[test]
    fn other_principals_are_denied_by_creator_acl() {
        let fx = fixture();
        let alice = bottom(fx.alice);
        let bob = bottom(fx.bob);
        fx.fs
            .create_file(&fx.monitor, &alice, "private", "secret")
            .unwrap();
        let e = fx.fs.read_file(&fx.monitor, &bob, "private").unwrap_err();
        assert_eq!(e, ServiceError::Denied(DenyReason::DacNoEntry));
        let e = fx
            .fs
            .write_file(&fx.monitor, &bob, "private", "x")
            .unwrap_err();
        assert_eq!(e, ServiceError::Denied(DenyReason::DacNoEntry));
        let e = fx.fs.delete_file(&fx.monitor, &bob, "private").unwrap_err();
        assert_eq!(e, ServiceError::Denied(DenyReason::DacNoEntry));
    }

    #[test]
    fn mac_label_follows_creator() {
        let fx = fixture();
        let high = fx.monitor.lattice(|l| l.parse_class("high").unwrap());
        let alice_high = Subject::new(fx.alice, high.clone());
        // Creating into the bottom-labelled root from high would be a
        // write-down (correctly denied); give alice a high directory.
        let e = fx
            .fs
            .create_file(&fx.monitor, &alice_high, "updoc", "classified")
            .unwrap_err();
        assert_eq!(e, ServiceError::Denied(DenyReason::MacFlow));
        fx.monitor
            .bootstrap(|ns| {
                let root = ns.resolve(&FS_ROOT.parse().unwrap())?;
                let mut prot = crate::install::creator_protection(&alice_high);
                prot.label = high.clone();
                ns.insert_at(root, "vault", extsec_namespace::NodeKind::Directory, prot)?;
                Ok(())
            })
            .unwrap();
        fx.fs
            .create_file(&fx.monitor, &alice_high, "vault/updoc", "classified")
            .unwrap();
        // Even alice herself, at low, cannot reach the high file: the
        // high directory is not even visible to her.
        let alice_low = bottom(fx.alice);
        let e = fx
            .fs
            .read_file(&fx.monitor, &alice_low, "vault/updoc")
            .unwrap_err();
        assert!(
            matches!(e, ServiceError::Denied(DenyReason::NotVisibleMac(_))),
            "got {e:?}"
        );
        // At high, she can.
        assert_eq!(
            fx.fs
                .read_file(&fx.monitor, &alice_high, "vault/updoc")
                .unwrap(),
            "classified"
        );
    }

    #[test]
    fn directories_nest() {
        let fx = fixture();
        let alice = bottom(fx.alice);
        fx.fs.mkdir(&fx.monitor, &alice, "home").unwrap();
        fx.fs
            .create_file(&fx.monitor, &alice, "home/one", "1")
            .unwrap();
        fx.fs
            .create_file(&fx.monitor, &alice, "home/two", "2")
            .unwrap();
        assert_eq!(
            fx.fs.list_dir(&fx.monitor, &alice, "home").unwrap(),
            vec!["one", "two"]
        );
    }

    #[test]
    fn delete_removes_node_and_contents() {
        let fx = fixture();
        let alice = bottom(fx.alice);
        fx.fs.create_file(&fx.monitor, &alice, "tmp", "x").unwrap();
        fx.fs.delete_file(&fx.monitor, &alice, "tmp").unwrap();
        let e = fx.fs.read_file(&fx.monitor, &alice, "tmp").unwrap_err();
        // The node is gone, so the monitor reports not-found.
        assert!(matches!(e, ServiceError::Denied(DenyReason::NotFound(_))));
    }

    #[test]
    fn bad_paths_rejected() {
        let fx = fixture();
        let alice = bottom(fx.alice);
        let e = fx.fs.create_file(&fx.monitor, &alice, "", "x").unwrap_err();
        assert!(matches!(e, ServiceError::BadArgs(_)));
        let e = fx
            .fs
            .create_file(&fx.monitor, &alice, "a/../b", "x")
            .unwrap_err();
        assert!(matches!(e, ServiceError::BadArgs(_)));
    }

    #[test]
    fn node_path_mapping() {
        assert_eq!(
            FsService::node_path("a/b").unwrap().to_string(),
            "/obj/fs/a/b"
        );
        assert_eq!(
            FsService::node_path("/a/").unwrap().to_string(),
            "/obj/fs/a"
        );
        assert_eq!(FsService::node_path("").unwrap().to_string(), "/obj/fs");
    }

    #[test]
    fn node_path_matches_joining_component_by_component() {
        // The mapping as a parse of the root plus one `join` per user
        // component, which the one-pass build must reproduce exactly.
        fn by_joins(user_path: &str) -> Result<NsPath, ServiceError> {
            let mut path: NsPath = FS_ROOT.parse().unwrap();
            let trimmed = user_path.trim_matches('/');
            if trimmed.is_empty() {
                return Ok(path);
            }
            for component in trimmed.split('/') {
                path = path
                    .join(component)
                    .map_err(|e| ServiceError::BadArgs(format!("bad path: {e}")))?;
            }
            Ok(path)
        }
        for user in ["", "/", "a", "a/b/", "a//b", ".", "a/../b", "x/y/z"] {
            assert_eq!(FsService::node_path(user), by_joins(user), "{user:?}");
        }
        assert_eq!(
            FsService::node_path("a//b"),
            Err(ServiceError::BadArgs(
                "bad path: bad path component \"\"".into()
            ))
        );
    }
}
