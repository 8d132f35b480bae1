//! Decision explanations.
//!
//! The paper closes on *psychological acceptability*: users accept
//! protection they can understand. [`ReferenceMonitor::explain`] produces
//! the full reasoning trace behind a decision — every traversal step with
//! its visibility outcome, the ACL evaluation with the winning entry, and
//! the mandatory flow comparison — so administrators can answer "why was
//! this denied?" without reverse-engineering the model.
//!
//! `explain` is diagnostics, not enforcement: it runs the one decision
//! evaluator every check runs, with an observer that records each step,
//! so `explain().decision == check()` holds by construction. It is never
//! on the hot path, bypasses the decision cache and is not audited.

use crate::decision::Decision;
use crate::monitor::{MonitorView, Observer, ReferenceMonitor};
use crate::subject::Subject;
use extsec_acl::{AccessMode, Acl, AclDecision};
use extsec_mac::{FlowCheck, Lattice, SecurityClass};
use extsec_namespace::{NsError, NsPath};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One step of the reasoning trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ExplainStep {
    /// An interior node was traversed.
    Traverse {
        /// The node's path.
        path: NsPath,
        /// Whether the discretionary `list` visibility held.
        dac_visible: bool,
        /// Whether the mandatory observation held.
        mac_visible: bool,
        /// Whether visibility checking was enabled at all.
        checked: bool,
    },
    /// The path failed to resolve.
    NotFound {
        /// The missing prefix.
        path: NsPath,
    },
    /// The discretionary evaluation on the final node.
    Dac {
        /// The raw ACL decision.
        decision: AclDecision,
        /// The text of the winning entry, if one matched.
        entry: Option<String>,
    },
    /// The mandatory evaluation on the final node.
    Mac {
        /// The flow kind the mode maps to under the configuration.
        check: FlowCheck,
        /// The subject's class, formatted against the lattice.
        subject_class: String,
        /// The object's label, formatted against the lattice.
        object_label: String,
        /// Whether the flow was permitted.
        permitted: bool,
    },
}

impl fmt::Display for ExplainStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainStep::Traverse {
                path,
                dac_visible,
                mac_visible,
                checked,
            } => {
                if *checked {
                    write!(
                        f,
                        "traverse {path}: dac={} mac={}",
                        ok(*dac_visible),
                        ok(*mac_visible)
                    )
                } else {
                    write!(f, "traverse {path}: visibility checks disabled")
                }
            }
            ExplainStep::NotFound { path } => write!(f, "resolve {path}: not found"),
            ExplainStep::Dac { decision, entry } => match entry {
                Some(entry) => write!(f, "dac: {decision} (entry {entry})"),
                None => write!(f, "dac: {decision}"),
            },
            ExplainStep::Mac {
                check,
                subject_class,
                object_label,
                permitted,
            } => write!(
                f,
                "mac: {check} subject={subject_class} object={object_label} -> {}",
                ok(*permitted)
            ),
        }
    }
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "DENIED"
    }
}

/// A complete explanation: the trace plus the decision it justifies.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// The requested mode.
    pub mode: AccessMode,
    /// The object path.
    pub path: NsPath,
    /// The reasoning steps, in evaluation order.
    pub steps: Vec<ExplainStep>,
    /// The resulting decision.
    pub decision: Decision,
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {} -> {}", self.mode, self.path, self.decision)?;
        for step in &self.steps {
            writeln!(f, "  {step}")?;
        }
        Ok(())
    }
}

impl ReferenceMonitor {
    /// Explains the decision for `(subject, path, mode)` step by step,
    /// against a freshly pinned snapshot. The single-call form of
    /// [`MonitorView::explain`].
    pub fn explain(&self, subject: &Subject, path: &NsPath, mode: AccessMode) -> Explanation {
        self.view().explain(subject, path, mode)
    }
}

impl MonitorView<'_> {
    /// Explains the decision for `(subject, path, mode)` step by step.
    ///
    /// The explanation is the check evaluator itself run with a narrating
    /// observer, against this view's one pinned snapshot: the steps are
    /// the ones the decision was made by, so `explain().decision` equals
    /// `check()` by construction.
    pub fn explain(&self, subject: &Subject, path: &NsPath, mode: AccessMode) -> Explanation {
        self.lattice(|lattice| {
            let mut narrator = Narrator {
                path,
                subject,
                lattice,
                steps: Vec::new(),
            };
            let decision = self.decide_observed(subject, path, mode, &mut narrator);
            Explanation {
                mode,
                path: path.clone(),
                steps: narrator.steps,
                decision,
            }
        })
    }
}

/// The observer behind `explain`: turns each evaluator step into an
/// [`ExplainStep`].
struct Narrator<'a> {
    path: &'a NsPath,
    subject: &'a Subject,
    lattice: &'a Lattice,
    steps: Vec<ExplainStep>,
}

impl Observer for Narrator<'_> {
    const NARRATES: bool = true;

    fn traverse(&mut self, depth: usize, dac_visible: bool, mac_visible: bool, checked: bool) {
        self.steps.push(ExplainStep::Traverse {
            path: self.path.prefix(depth),
            dac_visible,
            mac_visible,
            checked,
        });
    }

    fn unresolved(&mut self, error: &NsError) {
        let path = match error {
            NsError::NotFound(missing) => missing.clone(),
            _ => self.path.clone(),
        };
        self.steps.push(ExplainStep::NotFound { path });
    }

    fn dac(&mut self, acl: &Acl, decision: AclDecision) {
        let entry = match decision {
            AclDecision::DeniedByEntry(i) => acl.entries().get(i).map(|e| e.to_string()),
            _ => None,
        };
        self.steps.push(ExplainStep::Dac { decision, entry });
    }

    fn mac(&mut self, check: FlowCheck, label: &SecurityClass, permitted: bool) {
        self.steps.push(ExplainStep::Mac {
            check,
            subject_class: self.lattice.format_class(&self.subject.class),
            object_label: self.lattice.format_class(label),
            permitted,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DenyReason;
    use crate::monitor::MonitorBuilder;
    use extsec_acl::{Acl, AclEntry, ModeSet};
    use extsec_mac::{Lattice, SecurityClass};
    use extsec_namespace::{NodeKind, Protection};
    use std::sync::Arc;

    fn world() -> (Arc<ReferenceMonitor>, Subject) {
        let lattice = Lattice::build(["low", "high"], ["k"]).unwrap();
        let mut builder = MonitorBuilder::new(lattice.clone());
        let alice = builder.add_principal("alice").unwrap();
        let monitor = builder.build();
        let high = lattice.parse_class("high").unwrap();
        monitor
            .bootstrap(|ns| {
                let visible = Protection::new(
                    Acl::public(ModeSet::only(AccessMode::List)),
                    SecurityClass::bottom(),
                );
                ns.ensure_path(&"/svc/fs".parse().unwrap(), NodeKind::Domain, &visible)?;
                ns.insert(
                    &"/svc/fs".parse().unwrap(),
                    "read",
                    NodeKind::Procedure,
                    Protection::new(
                        Acl::from_entries([
                            AclEntry::allow_principal(alice, AccessMode::Execute),
                            AclEntry::deny_principal(alice, AccessMode::Extend),
                        ]),
                        high,
                    ),
                )?;
                Ok(())
            })
            .unwrap();
        (monitor, Subject::new(alice, SecurityClass::bottom()))
    }

    #[test]
    fn explanation_matches_check() {
        let (monitor, low_subject) = world();
        let high = monitor.lattice(|l| l.parse_class("high").unwrap());
        let subjects = [low_subject.clone(), low_subject.with_class(high)];
        let paths: [NsPath; 4] = [
            "/svc/fs/read".parse().unwrap(),
            "/svc/fs/missing".parse().unwrap(),
            "/nope/deeper".parse().unwrap(),
            "/svc/fs/read/through-a-leaf".parse().unwrap(),
        ];
        for subject in &subjects {
            for path in &paths {
                for mode in AccessMode::ALL {
                    let explained = monitor.explain(subject, path, mode).decision;
                    let checked = monitor.check(subject, path, mode);
                    assert_eq!(explained, checked, "{mode} {path}");
                }
            }
        }
    }

    #[test]
    fn denied_mac_is_narrated() {
        let (monitor, subject) = world();
        let path: NsPath = "/svc/fs/read".parse().unwrap();
        let explanation = monitor.explain(&subject, &path, AccessMode::Execute);
        assert_eq!(explanation.decision, Decision::Deny(DenyReason::MacFlow));
        let text = explanation.to_string();
        assert!(text.contains("dac: granted"), "{text}");
        assert!(text.contains("mac: observe"), "{text}");
        assert!(text.contains("DENIED"), "{text}");
    }

    #[test]
    fn negative_entry_is_cited() {
        let (monitor, subject) = world();
        let high = monitor.lattice(|l| l.parse_class("high").unwrap());
        let subject = subject.with_class(high);
        let path: NsPath = "/svc/fs/read".parse().unwrap();
        let explanation = monitor.explain(&subject, &path, AccessMode::Extend);
        assert!(matches!(
            explanation.decision,
            Decision::Deny(DenyReason::DacNegativeEntry(1))
        ));
        let text = explanation.to_string();
        assert!(text.contains("denied by entry 1"), "{text}");
        assert!(text.contains("-p0:e"), "{text}");
    }

    #[test]
    fn traversal_steps_are_listed() {
        let (monitor, subject) = world();
        let path: NsPath = "/svc/fs/read".parse().unwrap();
        let explanation = monitor.explain(&subject, &path, AccessMode::Execute);
        let traverses = explanation
            .steps
            .iter()
            .filter(|s| matches!(s, ExplainStep::Traverse { .. }))
            .count();
        assert_eq!(traverses, 3); // "/", "/svc", "/svc/fs"
    }

    /// A path that runs through a visible leaf with two components left
    /// is a structural denial naming the leaf — explained exactly as
    /// checked, not as a missing interior prefix.
    #[test]
    fn through_leaf_paths_explain_as_checked() {
        let (monitor, subject) = world();
        monitor
            .bootstrap(|ns| {
                ns.insert(
                    &"/svc/fs".parse().unwrap(),
                    "pub",
                    NodeKind::Procedure,
                    Protection::new(
                        Acl::public(ModeSet::only(AccessMode::List)),
                        SecurityClass::bottom(),
                    ),
                )?;
                Ok(())
            })
            .unwrap();
        let path: NsPath = "/svc/fs/pub/a/b".parse().unwrap();
        let expected = Decision::Deny(DenyReason::Structure(
            "/svc/fs/pub: not a container".to_string(),
        ));
        assert_eq!(monitor.check(&subject, &path, AccessMode::Read), expected);
        let explanation = monitor.explain(&subject, &path, AccessMode::Read);
        assert_eq!(explanation.decision, expected);
        // The leaf itself was traversed (and visible) before the walk
        // stopped.
        assert!(explanation.steps.contains(&ExplainStep::Traverse {
            path: "/svc/fs/pub".parse().unwrap(),
            dac_visible: true,
            mac_visible: true,
            checked: true,
        }));
    }

    #[test]
    fn missing_prefix_is_reported() {
        let (monitor, subject) = world();
        let path: NsPath = "/ghost/leaf".parse().unwrap();
        let explanation = monitor.explain(&subject, &path, AccessMode::Read);
        assert!(explanation
            .steps
            .iter()
            .any(|s| matches!(s, ExplainStep::NotFound { .. })));
    }
}
