//! Name-space nodes and their protection records.

use extsec_acl::Acl;
use extsec_mac::SecurityClass;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a node within one [`crate::NameSpace`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The root node's id.
    pub const ROOT: NodeId = NodeId(0);

    /// Creates a node id from a raw index. The id is only meaningful
    /// against the name space it came from; this exists for callers that
    /// persist or key on raw ids (snapshots, caches, tests).
    pub const fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Returns the raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node occupancy, named once and re-validated on every use: a node
/// id plus the reuse epoch its slot had when the link was taken
/// ([`crate::NameSpace::link`]). Ids are recycled, so the id alone may
/// later name another node; [`crate::NameSpace::resolve_linked`] honours
/// the link only while the slot still holds the occupancy it names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeLink {
    pub(crate) id: NodeId,
    pub(crate) epoch: u32,
}

impl NodeLink {
    /// The linked node's id.
    pub fn id(self) -> NodeId {
        self.id
    }
}

/// The semantic kind of a node.
///
/// Interior kinds mirror the paper's examples of non-leaf structure: Java
/// packages and objects, SPIN domains and Modula-3 interfaces, and file
/// directories. Leaf kinds are the individual procedures/methods of system
/// services plus terminal objects such as files.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// An interior grouping of services (SPIN domain / Java package).
    Domain,
    /// An interior collection of procedures (Modula-3 interface / Java
    /// object).
    Interface,
    /// An interior file-system directory.
    Directory,
    /// A leaf procedure or method of a service.
    Procedure,
    /// A leaf data object (e.g. a file's metadata entry).
    Object,
}

impl NodeKind {
    /// Returns whether nodes of this kind may have children.
    pub fn is_container(self) -> bool {
        matches!(
            self,
            NodeKind::Domain | NodeKind::Interface | NodeKind::Directory
        )
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Domain => "domain",
            NodeKind::Interface => "interface",
            NodeKind::Directory => "directory",
            NodeKind::Procedure => "procedure",
            NodeKind::Object => "object",
        };
        f.write_str(s)
    }
}

/// The protection record attached to every node.
///
/// Holds both halves of the model: the discretionary ACL and the mandatory
/// security-class label, plus the optional *static* class for code objects
/// (paper §2.2: "it may be necessary to statically associate extensions
/// with a certain security class").
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Protection {
    /// The discretionary access control list.
    pub acl: Acl,
    /// The mandatory security-class label.
    pub label: SecurityClass,
    /// A statically assigned class for code bound at this node, if any.
    pub static_class: Option<SecurityClass>,
}

impl Protection {
    /// Creates a protection record with the given ACL and label.
    pub fn new(acl: Acl, label: SecurityClass) -> Self {
        Protection {
            acl,
            label,
            static_class: None,
        }
    }

    /// Returns a copy with a static class attached.
    pub fn with_static_class(mut self, class: SecurityClass) -> Self {
        self.static_class = Some(class);
        self
    }
}

/// One node of the name space: a named, protected vertex with children
/// (when its kind is a container).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Node {
    pub(crate) name: String,
    pub(crate) kind: NodeKind,
    pub(crate) protection: Protection,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: BTreeMap<String, NodeId>,
    /// Whether extensions may register specializations at this node; only
    /// meaningful for `Procedure` leaves (the extensible interfaces of the
    /// base system).
    pub(crate) extensible: bool,
}

impl Node {
    /// Returns the node's name (final path component).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the node's kind.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Returns the node's protection record.
    pub fn protection(&self) -> &Protection {
        &self.protection
    }

    /// Returns the parent, or `None` for the root.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Returns the node's children, name-sorted.
    pub fn children(&self) -> &BTreeMap<String, NodeId> {
        &self.children
    }

    /// Returns whether extensions may specialize this node.
    pub fn extensible(&self) -> bool {
        self.extensible
    }
}
