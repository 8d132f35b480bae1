//! The check pool shared by `wire_batch` and `audited_churn`, its
//! oracle, and the check-path replays every workload reports.

use crate::util::{per_item_ns, Digest, Rng, Zipf};
use crate::Report;
use extsec_campaign::{Profile, World, WorldSpec};
use extsec_core::{AccessMode, Decision, NsPath, ReferenceMonitor, Subject};
use std::hint::black_box;

/// Principals in the campus world `wire_batch` and `audited_churn` use.
const PRINCIPALS: usize = 10_000;
/// Pool shape: 128 subjects × 32 items = 4,096 keys.
const POOL_SUBJECTS: usize = 128;
const POOL_ITEMS: usize = 32;

/// The `WorldSpec::scaled(Campus, 10_000, seed)` world.
pub fn campus_spec(seed: u64) -> WorldSpec {
    WorldSpec::scaled(Profile::Campus, PRINCIPALS, seed)
}

/// `(subject, leaf, mode)` keys drawn from a campaign world. Each subject
/// owns a list of distinct items; about a quarter are denied. Sized so
/// every key fits the decision cache (16 shards of 4096 entries).
pub struct CheckPool {
    pub subjects: Vec<Subject>,
    /// Per subject: `(path, mode, expected decision)`.
    pub items: Vec<Vec<(NsPath, AccessMode, Decision)>>,
    pub subject_zipf: Zipf,
    pub item_zipf: Zipf,
    pub digest: Digest,
}

const MODES: [AccessMode; 4] = [
    AccessMode::Read,
    AccessMode::Execute,
    AccessMode::Write,
    AccessMode::List,
];

impl CheckPool {
    /// Draws the pool's subjects and their items, and computes every
    /// expected decision with the unmemoized oracle.
    pub fn build(world: &World, seed: u64) -> CheckPool {
        let (subjects, per_subject) = (POOL_SUBJECTS, POOL_ITEMS);
        let mut rng = Rng::new(seed ^ 0x9001);
        let mut digest = Digest::new();
        let want_denied = per_subject / 4;
        let want_allowed = per_subject - want_denied;
        let np = world.principals.len();
        let depts = world.spec.departments.max(1);
        let mut chosen = std::collections::BTreeSet::new();
        let mut pool_subjects = Vec::with_capacity(subjects);
        let mut pool_items = Vec::with_capacity(subjects);
        while pool_subjects.len() < subjects {
            let pi = rng.below(np);
            if !chosen.insert(pi) {
                continue;
            }
            let subject = world.subject(pi);
            // Candidates: leaves of the subject's own department (where
            // the group grant lives) and a spread of arbitrary leaves.
            let mut candidates: Vec<(usize, AccessMode)> = Vec::new();
            for leaf in (pi % depts..world.leaves.len()).step_by(depts) {
                for mode in MODES {
                    candidates.push((leaf, mode));
                }
            }
            for _ in 0..per_subject * 2 {
                candidates.push((rng.below(world.leaves.len()), MODES[rng.below(4)]));
            }
            rng.shuffle(&mut candidates);
            let mut seen = std::collections::BTreeSet::new();
            let (mut allowed, mut denied) = (Vec::new(), Vec::new());
            for (leaf, mode) in candidates {
                if !seen.insert((leaf, mode as u8)) {
                    continue;
                }
                let path = world.leaves[leaf].clone();
                let decision = world.monitor.check_unmemoized(&subject, &path, mode);
                if decision.allowed() && allowed.len() < want_allowed {
                    allowed.push((path, mode, decision));
                } else if !decision.allowed() && denied.len() < want_denied {
                    denied.push((path, mode, decision));
                }
            }
            if allowed.len() + denied.len() < per_subject || denied.len() < want_denied {
                // Too few distinct grants for this principal: draw another.
                continue;
            }
            let mut items: Vec<_> = allowed.into_iter().chain(denied).collect();
            rng.shuffle(&mut items);
            digest.u64(subject.principal.raw() as u64);
            for (path, mode, decision) in &items {
                digest.str(&path.to_string());
                digest.u64(*mode as u64);
                digest.u64(decision.allowed() as u64);
            }
            pool_subjects.push(subject);
            pool_items.push(items);
        }
        CheckPool {
            subjects: pool_subjects,
            items: pool_items,
            subject_zipf: Zipf::new(subjects),
            item_zipf: Zipf::new(per_subject),
            digest,
        }
    }

    pub fn keys(&self) -> usize {
        self.items.iter().map(Vec::len).sum()
    }

    /// One Zipf draw: `(subject index, item index)`.
    pub fn draw(&self, rng: &mut Rng) -> (u32, u32) {
        (
            self.subject_zipf.sample(rng) as u32,
            self.item_zipf.sample(rng) as u32,
        )
    }

    pub fn item(&self, s: u32, i: u32) -> &(NsPath, AccessMode, Decision) {
        &self.items[s as usize][i as usize]
    }
}

/// One replayed check input: subject, path and mode as the workload
/// sent them.
pub type CheckInput = (Subject, NsPath, AccessMode);

/// Re-times the check path's layers on `inputs` (a sample of what the
/// workload actually checked) against `monitor`, and sets the namespace,
/// acl, mac and refmon replay metrics.
pub fn replay_check_path(monitor: &ReferenceMonitor, inputs: &[CheckInput], report: &mut Report) {
    if inputs.is_empty() {
        return;
    }
    let n = inputs.len();
    let reps = (200_000 / n).max(1);
    let texts: Vec<String> = inputs.iter().map(|(_, p, _)| p.to_string()).collect();
    report.set(
        "namespace.path_parse_ns",
        per_item_ns(n, reps, || {
            for t in &texts {
                black_box(t.parse::<NsPath>().expect("recorded path parses"));
            }
        }),
    );
    report.set(
        "namespace.resolve_ns",
        monitor.inspect(|ns| {
            per_item_ns(n, reps, || {
                for (_, path, _) in inputs {
                    let _ = black_box(ns.resolve(path));
                }
            })
        }),
    );
    report.set(
        "namespace.depth_mean",
        inputs.iter().map(|(_, p, _)| p.depth() as f64).sum::<f64>() / n as f64,
    );
    let prots: Vec<_> = inputs
        .iter()
        .map(|(_, p, _)| monitor.protection_of(p).expect("recorded path resolves"))
        .collect();
    report.set(
        "acl.entries_mean",
        prots.iter().map(|p| p.acl.len() as f64).sum::<f64>() / n as f64,
    );
    report.set(
        "acl.check_ns",
        monitor.directory(|dir| {
            per_item_ns(n, reps, || {
                for ((subject, _, mode), prot) in inputs.iter().zip(&prots) {
                    black_box(prot.acl.check(dir, subject.principal, *mode));
                }
            })
        }),
    );
    report.set(
        "mac.dominates_ns",
        per_item_ns(n, reps, || {
            for ((subject, _, _), prot) in inputs.iter().zip(&prots) {
                black_box(subject.class.dominates(&prot.label));
            }
        }),
    );
    // Warm the cache once, then time warm checks.
    for (subject, path, mode) in inputs {
        black_box(monitor.check(subject, path, *mode));
    }
    let reps = reps.min(20);
    report.set(
        "refmon.check_warm_ns",
        per_item_ns(n, reps, || {
            for (subject, path, mode) in inputs {
                black_box(monitor.check(subject, path, *mode));
            }
        }),
    );
    report.set(
        "refmon.check_cold_ns",
        per_item_ns(n, reps, || {
            for (subject, path, mode) in inputs {
                black_box(monitor.check_unmemoized(subject, path, *mode));
            }
        }),
    );
    report.set(
        "refmon.require_ns",
        per_item_ns(n, reps, || {
            for (subject, path, mode) in inputs {
                let _ = black_box(monitor.view().require(subject, path, *mode));
            }
        }),
    );
}
