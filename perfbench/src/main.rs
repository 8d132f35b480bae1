//! `perfbench` — the extsec benchmark: three seeded workloads driven
//! through the public APIs of the server, the extension runtime and the
//! audited monitor, each checked against an oracle.
//!
//! ```text
//! perfbench --workload <wire_batch|ext_gate|audited_churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures untraced and prints the end-to-end metrics;
//! `--trace 1` splits the time into an untraced and a traced half, then
//! replays recorded inputs layer by layer, and prints the per-layer
//! metrics. The last line of standard output is one JSON object. See
//! README.md for the workloads, metrics and caveats.

mod checks;
mod churn;
mod extgate;
mod trace;
mod util;
mod wire;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics: printed by `--trace 0`, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: printed by `--trace 1`, on every workload. A layer
/// a workload bypasses reads 0 there (README.md lists where each one is
/// measured).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.rtt_us", "us"),
    ("server.batch_eval_p50_us", "us"),
    ("server.wire_overhead_us", "us"),
    ("server.ready_per_poll", "ratio"),
    ("server.flushes_per_response", "ratio"),
    ("server.request_encode_ns", "ns"),
    ("server.frame_decode_ns", "ns"),
    ("server.response_decode_ns", "ns"),
    ("server.protocol_errors", "count"),
    ("namespace.resolve_ns", "ns"),
    ("namespace.path_parse_ns", "ns"),
    ("namespace.depth_mean", "count"),
    ("acl.check_ns", "ns"),
    ("acl.entries_mean", "count"),
    ("mac.dominates_ns", "ns"),
    ("refmon.check_warm_ns", "ns"),
    ("refmon.check_cold_ns", "ns"),
    ("refmon.batch_item_ns", "ns"),
    ("refmon.require_ns", "ns"),
    ("refmon.cache_hit_ratio", "ratio"),
    ("refmon.cache_invalidations", "count"),
    ("refmon.deny_share", "ratio"),
    ("refmon.audit_record_ns", "ns"),
    ("refmon.set_acl_us", "us"),
    ("refmon.bundle_stage_us", "us"),
    ("refmon.bundle_activate_us", "us"),
    ("refmon.bundle_rollback_us", "us"),
    ("lang.bundle_parse_us", "us"),
    ("auditlog.offered", "count"),
    ("auditlog.persisted", "count"),
    ("auditlog.shed_ratio", "ratio"),
    ("auditlog.gap_records", "count"),
    ("auditlog.chain_append_ns", "ns"),
    ("auditlog.flush_ms", "ms"),
    ("auditlog.verify_ms", "ms"),
    ("ext.run_us", "us"),
    ("ext.call_us", "us"),
    ("ext.syscalls_per_op", "count"),
    ("ext.quarantined", "count"),
    ("ext.load_us", "us"),
    ("vm.interp_us", "us"),
    ("vm.fuel_per_op", "count"),
    ("services.op_ns", "ns"),
    ("campaign.world_build_ms", "ms"),
    ("admin_p50_us", "us"),
    ("admin_p99_us", "us"),
    ("audited_per_s", "records/s"),
    ("ledger.unattributed_share", "ratio"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.writer_late_p99_us", "us"),
];

/// Each run sets its workload up at least `SETUPS` times, and again
/// until the set-ups add up to `SETUP_SECONDS`; `setup_s` is their median.
/// The host's speed swings between a fast and a slow phase lasting up
/// to seconds; spreading set-up over three seconds keeps one phase from
/// deciding the figure.
pub const SETUPS: usize = 7;
pub const SETUP_SECONDS: f64 = 3.0;

/// Whether a run should set its workload up once more, given the set-up
/// times so far.
pub fn more_setups(secs: &[f64]) -> bool {
    secs.len() < SETUPS || secs.iter().sum::<f64>() < SETUP_SECONDS
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The timed window(s): the whole run untraced, or an untraced and a
    /// traced half.
    pub fn phases(&self) -> Vec<(bool, Duration)> {
        let total = Duration::from_secs_f64(self.seconds);
        if self.trace {
            vec![(false, total / 2), (true, total / 2)]
        } else {
            vec![(false, total)]
        }
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-of-run assertions: what was checked and whether it held.
    pub checks: Vec<(String, bool)>,
    metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the metric tables"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Records an end-of-run assertion. Repeats of the same assertion
    /// (one per set-up) are folded into one line that holds only if every
    /// repeat held.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        match self.checks.iter_mut().find(|(w, _)| *w == what) {
            Some(slot) => slot.1 &= ok,
            None => self.checks.push((what, ok)),
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts `n` ops against the oracle, all passed or all failed.
    pub fn tally(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    /// Records the process's peak RSS. Called when the timed phases end,
    /// before the replay phase and the end-of-run verification, whose own
    /// allocations belong to the benchmark rather than the system.
    pub fn peak_rss(&mut self) {
        self.set("peak_rss_mib", util::peak_rss_mib());
    }

    /// Sets `setup_s` to the median of the set-up times and notes them.
    pub fn setup_times(&mut self, secs: &[f64]) {
        let median = util::median(secs);
        self.set("setup_s", median);
        let (min, max) = secs.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), s| {
            (lo.min(*s), hi.max(*s))
        });
        self.note(format!(
            "set-up times (ms): {} set-ups, median {:.3}, min {:.3}, max {:.3}",
            secs.len(),
            median * 1e3,
            min * 1e3,
            max * 1e3
        ));
    }

    /// Sets the throughput and latency metrics of one timed phase and
    /// notes their sample counts.
    pub fn latency(&mut self, what: &str, timeline: &mut util::Timeline) {
        let s = timeline.summary();
        self.set("ops_per_s", s.ops_per_s);
        self.set("op_p50_us", s.p50_us);
        self.set("op_p99_us", s.tail_us);
        self.note(format!(
            "{what}: {} ops, {} latency samples over {} slices; interquartile means over slices: {:.0} ops/s, p50 {:.3} us, p{:.2} {:.3} us",
            s.ops,
            s.samples,
            s.slices,
            s.ops_per_s,
            s.p50_us,
            s.tail_q * 100.0,
            s.tail_us
        ));
        let rates: Vec<String> = s.rates.iter().map(|r| format!("{r:.0}")).collect();
        self.note(format!("{what}: slice rates (ops/s): {}", rates.join(" ")));
        let p50s: Vec<String> = s.p50s.iter().map(|p| format!("{p:.2}")).collect();
        self.note(format!("{what}: slice p50s (us): {}", p50s.join(" ")));
        let tails: Vec<String> = s.tails.iter().map(|p| format!("{p:.2}")).collect();
        self.note(format!("{what}: slice tails (us): {}", tails.join(" ")));
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "wire_batch" => wire::run(&args),
        "ext_gate" => extgate::run(&args),
        "audited_churn" => churn::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };

    for line in &report.notes {
        println!("{line}");
    }
    for (what, ok) in &report.checks {
        println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    println!(
        "oracle: attempted {} failed {} error_rate {}",
        report.attempted,
        report.failed,
        util::ratio(report.failed as f64, report.attempted as f64)
    );
    let correct = report.failed == 0 && report.checks.iter().all(|(_, ok)| *ok);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            report.get(name)
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
