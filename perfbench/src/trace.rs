//! The span recorder behind the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around its calls
//! into the crates' public functions; nothing inside the program is
//! instrumented. A request is one root span (`op`) whose children are the
//! layer calls it made, so a layer's self time is its span's duration and
//! the root's self time is what no layer span covers. Per-name totals are
//! aggregated as spans close; the most recent spans of every tracer are
//! kept in a ring and written out when the run ends.

use crate::util::Samples;
use std::fmt::Write as _;
use std::time::Instant;

/// Span names. `Verify` is the benchmark's own oracle comparison: it is
/// not a layer, so the ledger counts it as unattributed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sp {
    Op,
    Rtt,
    Decode,
    Verify,
    ExtCall,
    ExtRun,
    Check,
    SetAcl,
    Stage,
    Activate,
    Rollback,
}

pub const NAMES: [&str; 11] = [
    "op",
    "server.rtt",
    "server.response_decode",
    "bench.verify",
    "ext.call",
    "ext.run",
    "refmon.check",
    "refmon.set_acl",
    "refmon.bundle_stage",
    "refmon.bundle_activate",
    "refmon.bundle_rollback",
];

#[derive(Clone, Copy)]
struct Rec {
    name: Sp,
    id: u32,
    parent: u32,
    req: u64,
    start: u64,
    end: u64,
}

/// Per-name aggregate: count, total and self time, and a sample of
/// durations for percentiles.
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    durations: Samples,
}

/// An open root span. Children must be recorded before it closes.
pub struct Root {
    id: u32,
    req: u64,
    start: u64,
    covered: u64,
}

const RING: usize = 1 << 16;

pub struct Tracer {
    on: bool,
    base: Instant,
    next_id: u32,
    aggs: Vec<Agg>,
    ring: Vec<Rec>,
    ring_next: usize,
}

impl Tracer {
    /// `tid` keeps span ids of different threads' tracers apart.
    pub fn new(on: bool, base: Instant, tid: u32) -> Tracer {
        Tracer {
            on,
            base,
            next_id: (tid << 24) + 1,
            aggs: NAMES
                .iter()
                .map(|_| Agg {
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                    durations: Samples::new(),
                })
                .collect(),
            ring: Vec::new(),
            ring_next: 0,
        }
    }

    /// Nanoseconds since the tracer's base; 0 when tracing is off, so an
    /// untraced run reads no extra clock.
    pub fn stamp(&self) -> u64 {
        if self.on {
            self.base.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    pub fn root(&mut self, req: u64, start: u64) -> Root {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        Root {
            id,
            req,
            start,
            covered: 0,
        }
    }

    /// Records a leaf child of `root` over `[start, end]`.
    pub fn child(&mut self, root: &mut Root, name: Sp, start: u64, end: u64) {
        if !self.on {
            return;
        }
        let dur = end.saturating_sub(start);
        root.covered += dur;
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.push(Rec {
            name,
            id,
            parent: root.id,
            req: root.req,
            start,
            end,
        });
        self.add(name, dur, dur);
    }

    pub fn close(&mut self, root: Root, end: u64) {
        if !self.on {
            return;
        }
        let dur = end.saturating_sub(root.start);
        self.push(Rec {
            name: Sp::Op,
            id: root.id,
            parent: 0,
            req: root.req,
            start: root.start,
            end,
        });
        self.add(Sp::Op, dur, dur.saturating_sub(root.covered));
    }

    /// A span with no parent (the churn writer's admin calls).
    pub fn lone(&mut self, name: Sp, req: u64, start: u64, end: u64) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let dur = end.saturating_sub(start);
        self.push(Rec {
            name,
            id,
            parent: 0,
            req,
            start,
            end,
        });
        self.add(name, dur, dur);
    }

    fn add(&mut self, name: Sp, dur: u64, self_ns: u64) {
        let agg = &mut self.aggs[name as usize];
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += self_ns;
        agg.durations.push_ns(dur);
    }

    fn push(&mut self, rec: Rec) {
        if self.ring.len() < RING {
            self.ring.push(rec);
        } else {
            self.ring[self.ring_next] = rec;
            self.ring_next = (self.ring_next + 1) % RING;
        }
    }

    /// Folds another thread's tracer into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (mine, theirs) in self.aggs.iter_mut().zip(other.aggs) {
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
            mine.durations.merge(theirs.durations);
        }
        let start = other.ring_next;
        let n = other.ring.len();
        for i in 0..n {
            self.push(other.ring[(start + i) % n]);
        }
    }

    /// Median duration of `name` spans, in microseconds.
    pub fn p50_us(&mut self, name: Sp) -> f64 {
        self.aggs[name as usize].durations.quantile(0.5) / 1e3
    }

    /// The share of root-span time that no layer span covers: the roots'
    /// self time plus the benchmark's own `Verify` spans, over the roots'
    /// total time.
    pub fn unattributed_share(&self) -> f64 {
        let op = &self.aggs[Sp::Op as usize];
        let verify = &self.aggs[Sp::Verify as usize];
        crate::util::ratio((op.self_ns + verify.total_ns) as f64, op.total_ns as f64)
    }

    /// Writes the retained spans as tab-separated lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("name\tid\tparent\treq\tstart_ns\tend_ns\n");
        let n = self.ring.len();
        for i in 0..n {
            let r = &self.ring[(self.ring_next + i) % n];
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                NAMES[r.name as usize], r.id, r.parent, r.req, r.start, r.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
