//! Hierarchical path names.
//!
//! Paths are absolute, `/`-separated, and rooted at `/`. Components may
//! contain any character except `/`, and the reserved names `.` and `..`
//! are rejected — the name space has no notion of relative traversal, which
//! keeps resolution (and therefore protection) strictly top-down.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::str::FromStr;

/// Errors from parsing or manipulating paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathError {
    /// The path did not start with `/`.
    NotAbsolute(String),
    /// A component was empty (`//`) or reserved (`.`/`..`).
    BadComponent(String),
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::NotAbsolute(p) => write!(f, "path {p:?} is not absolute"),
            PathError::BadComponent(c) => write!(f, "bad path component {c:?}"),
        }
    }
}

impl std::error::Error for PathError {}

/// An absolute path in the universal name space.
///
/// # Examples
///
/// ```
/// use extsec_namespace::NsPath;
///
/// let p: NsPath = "/svc/fs/read".parse().unwrap();
/// assert_eq!(p.depth(), 3);
/// assert_eq!(p.leaf(), Some("read"));
/// assert_eq!(p.parent().unwrap().to_string(), "/svc/fs");
/// assert!(p.starts_with(&"/svc".parse().unwrap()));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NsPath {
    components: Vec<String>,
}

impl NsPath {
    /// The root path `/`.
    pub fn root() -> Self {
        NsPath {
            components: Vec::new(),
        }
    }

    /// Validates a single component name.
    pub fn valid_component(name: &str) -> bool {
        !name.is_empty() && name != "." && name != ".." && !name.contains('/')
    }

    /// Creates a path from components, validating each.
    pub fn from_components<I, S>(components: I) -> Result<Self, PathError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = Vec::new();
        for c in components {
            let c = c.into();
            if !Self::valid_component(&c) {
                return Err(PathError::BadComponent(c));
            }
            out.push(c);
        }
        Ok(NsPath { components: out })
    }

    /// Returns the components, root first.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// Returns the number of components (0 for the root).
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// Returns whether this is the root path.
    pub fn is_root(&self) -> bool {
        self.components.is_empty()
    }

    /// Returns the final component, if any.
    pub fn leaf(&self) -> Option<&str> {
        self.components.last().map(String::as_str)
    }

    /// Returns the parent path, or `None` for the root.
    pub fn parent(&self) -> Option<NsPath> {
        if self.components.is_empty() {
            None
        } else {
            Some(NsPath {
                components: self.components[..self.components.len() - 1].to_vec(),
            })
        }
    }

    /// Returns this path extended by one component.
    pub fn join(&self, name: &str) -> Result<NsPath, PathError> {
        if !Self::valid_component(name) {
            return Err(PathError::BadComponent(name.to_string()));
        }
        let mut components = self.components.clone();
        components.push(name.to_string());
        Ok(NsPath { components })
    }

    /// Returns this path extended by all components of `suffix`.
    pub fn join_path(&self, suffix: &NsPath) -> NsPath {
        let mut components = self.components.clone();
        components.extend(suffix.components.iter().cloned());
        NsPath { components }
    }

    /// Returns whether `prefix` is an ancestor-or-self of this path.
    pub fn starts_with(&self, prefix: &NsPath) -> bool {
        prefix.components.len() <= self.components.len()
            && self.components[..prefix.components.len()] == prefix.components[..]
    }

    /// The prefix made of the first `depth` components (0 = the root),
    /// e.g. depth 1 of `/a/b` is `/a`.
    ///
    /// # Panics
    ///
    /// If `depth` exceeds [`NsPath::depth`].
    pub fn prefix(&self, depth: usize) -> NsPath {
        NsPath {
            components: self.components[..depth].to_vec(),
        }
    }
}

/// A path borrows as its component slice, so maps keyed by [`NsPath`] can
/// be probed with a prefix `&path.components()[..k]` without building a
/// path. `Eq`, `Ord` and `Hash` are derived from the one `Vec<String>`
/// field, so they agree with the slice's.
impl Borrow<[String]> for NsPath {
    fn borrow(&self) -> &[String] {
        &self.components
    }
}

impl FromStr for NsPath {
    type Err = PathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "/" {
            return Ok(NsPath::root());
        }
        let Some(rest) = s.strip_prefix('/') else {
            return Err(PathError::NotAbsolute(s.to_string()));
        };
        let rest = rest.strip_suffix('/').unwrap_or(rest);
        NsPath::from_components(rest.split('/'))
    }
}

impl fmt::Display for NsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            return f.write_str("/");
        }
        for c in &self.components {
            write!(f, "/{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["/", "/a", "/a/b/c", "/svc/fs.read/x-1"] {
            let p: NsPath = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn trailing_slash_tolerated() {
        let p: NsPath = "/a/b/".parse().unwrap();
        assert_eq!(p.to_string(), "/a/b");
    }

    #[test]
    fn rejects_relative_and_bad_components() {
        assert!(matches!(
            "a/b".parse::<NsPath>(),
            Err(PathError::NotAbsolute(_))
        ));
        assert!(matches!(
            "".parse::<NsPath>(),
            Err(PathError::NotAbsolute(_))
        ));
        for bad in ["/a//b", "/a/./b", "/a/../b"] {
            assert!(
                matches!(bad.parse::<NsPath>(), Err(PathError::BadComponent(_))),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn parent_and_leaf() {
        let p: NsPath = "/a/b".parse().unwrap();
        assert_eq!(p.leaf(), Some("b"));
        assert_eq!(p.parent().unwrap().to_string(), "/a");
        assert_eq!(p.parent().unwrap().parent().unwrap(), NsPath::root());
        assert_eq!(NsPath::root().parent(), None);
        assert_eq!(NsPath::root().leaf(), None);
    }

    #[test]
    fn join_validates() {
        let p = NsPath::root().join("a").unwrap();
        assert_eq!(p.to_string(), "/a");
        assert!(p.join("b/c").is_err());
        assert!(p.join("..").is_err());
        assert!(p.join("").is_err());
    }

    #[test]
    fn join_path_concatenates() {
        let a: NsPath = "/x/y".parse().unwrap();
        let b: NsPath = "/z".parse().unwrap();
        assert_eq!(a.join_path(&b).to_string(), "/x/y/z");
    }

    #[test]
    fn starts_with() {
        let p: NsPath = "/a/b/c".parse().unwrap();
        assert!(p.starts_with(&NsPath::root()));
        assert!(p.starts_with(&"/a/b".parse().unwrap()));
        assert!(p.starts_with(&p.clone()));
        assert!(!p.starts_with(&"/a/x".parse().unwrap()));
        assert!(!p.starts_with(&"/a/b/c/d".parse().unwrap()));
    }

    #[test]
    fn maps_keyed_by_paths_answer_component_slices() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("/svc/fs".parse::<NsPath>().unwrap(), 1);
        map.insert(NsPath::root(), 0);
        let p: NsPath = "/svc/fs/read".parse().unwrap();
        let comps = p.components();
        assert_eq!(map.get(&comps[..2]), Some(&1));
        assert_eq!(map.get(&comps[..0]), Some(&0));
        assert_eq!(map.get(comps), None);
    }

    #[test]
    fn prefixes_run_from_the_root() {
        let p: NsPath = "/a/b".parse().unwrap();
        let all: Vec<String> = (0..=p.depth()).map(|d| p.prefix(d).to_string()).collect();
        assert_eq!(all, vec!["/", "/a", "/a/b"]);
    }
}
