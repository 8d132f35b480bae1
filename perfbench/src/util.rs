//! Seeded randomness, latency samples, input digests and process stats.

use std::time::Instant;

/// SplitMix64: small, fast and fully determined by its seed, so the same
/// `--seed` always generates the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be4c_4da7)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Picks an index by integer weights.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u32 = weights.iter().sum();
        let mut x = self.below(total as usize) as u32;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 0.99) over ranks `0..n`: rank 0 is the hottest key.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(0.99);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// Latency samples in nanoseconds. Keeps every sample up to a cap, then a
/// uniform reservoir, so memory stays bounded on fast workloads.
pub struct Samples {
    v: Vec<u32>,
    seen: u64,
    rng: Rng,
}

/// Samples kept per [`Samples`]; reserved up front so the buffer never
/// reallocates (a doubling copy would show in the peak RSS metric).
const SAMPLE_CAP: usize = 1 << 14;

impl Samples {
    pub fn new() -> Samples {
        Samples {
            v: Vec::with_capacity(SAMPLE_CAP),
            seen: 0,
            rng: Rng::new(0x5a_4d_91),
        }
    }

    pub fn push_ns(&mut self, ns: u64) {
        let ns = ns.min(u32::MAX as u64) as u32;
        self.seen += 1;
        if self.v.len() < SAMPLE_CAP {
            self.v.push(ns);
        } else {
            let slot = (self.rng.next_u64() % self.seen) as usize;
            if slot < SAMPLE_CAP {
                self.v[slot] = ns;
            }
        }
    }

    pub fn since(&mut self, start: Instant, end: Instant) {
        self.push_ns(end.duration_since(start).as_nanos() as u64);
    }

    pub fn merge(&mut self, other: Samples) {
        let seen = self.seen + other.seen;
        for ns in other.v {
            self.push_ns(ns as u64);
        }
        self.seen = seen;
    }

    pub fn count(&self) -> u64 {
        self.seen
    }

    /// The median and the tail percentile in microseconds. The tail is
    /// p99 when at least ten samples lie beyond it; otherwise the highest
    /// percentile that has ten beyond it. Returns `(p50, tail, tail_q)`.
    pub fn summary_us(&mut self) -> (f64, f64, f64) {
        let n = self.v.len();
        if n == 0 {
            return (0.0, 0.0, 0.0);
        }
        let q = if n >= 1000 {
            0.99
        } else {
            (1.0 - 10.0 / n as f64).max(0.5)
        };
        let p50 = self.quantile(0.5);
        let tail = self.quantile(q);
        (p50 / 1e3, tail / 1e3, q)
    }

    /// Nearest-rank quantile in nanoseconds.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        let rank = ((q * self.v.len() as f64).ceil() as usize).clamp(1, self.v.len()) - 1;
        let (_, x, _) = self.v.select_nth_unstable(rank);
        *x as f64
    }
}

/// Op counts and latencies of one timed phase, bucketed into slices of
/// about half a second by completion time. The reported figures are
/// interquartile means over the full slices: a burst of interference from
/// outside the process moves a slice or two, which the trim drops.
pub struct Timeline {
    start: Instant,
    slice: f64,
    full: usize,
    slices: Vec<(u64, Samples)>,
}

/// What a [`Timeline`] reports.
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub tail_us: f64,
    pub tail_q: f64,
    pub ops: u64,
    pub samples: u64,
    pub slices: usize,
    /// Every full slice's rate, in completion order.
    pub rates: Vec<f64>,
    /// Every full slice's median and tail latency in microseconds, in
    /// completion order.
    pub p50s: Vec<f64>,
    pub tails: Vec<f64>,
}

impl Timeline {
    pub fn new(start: Instant, window: std::time::Duration) -> Timeline {
        let full = ((window.as_secs_f64() / 0.5).round() as usize).max(1);
        Timeline {
            start,
            slice: window.as_secs_f64() / full as f64,
            full,
            slices: Vec::new(),
        }
    }

    /// Records `ops` operations completing at `end`, with one latency.
    pub fn record(&mut self, end: Instant, latency_ns: u64, ops: u64) {
        let i = (end.duration_since(self.start).as_secs_f64() / self.slice) as usize;
        while self.slices.len() <= i {
            self.slices.push((0, Samples::new()));
        }
        let (n, lat) = &mut self.slices[i];
        *n += ops;
        lat.push_ns(latency_ns);
    }

    pub fn merge(&mut self, other: Timeline) {
        for (i, (n, lat)) in other.slices.into_iter().enumerate() {
            while self.slices.len() <= i {
                self.slices.push((0, Samples::new()));
            }
            self.slices[i].0 += n;
            self.slices[i].1.merge(lat);
        }
    }

    pub fn summary(&mut self) -> Summary {
        let ops = self.slices.iter().map(|(n, _)| *n).sum();
        let samples = self.slices.iter().map(|(_, l)| l.count()).sum();
        let full = self.full.min(self.slices.len());
        let mut rates = Vec::new();
        let (mut p50s, mut tails, mut qs) = (Vec::new(), Vec::new(), Vec::new());
        for (n, lat) in &mut self.slices[..full] {
            rates.push(*n as f64 / self.slice);
            let (p50, tail, q) = lat.summary_us();
            p50s.push(p50);
            tails.push(tail);
            qs.push(q);
        }
        Summary {
            rates: rates.clone(),
            p50s: p50s.clone(),
            tails: tails.clone(),
            ops_per_s: interquartile_mean(&rates),
            p50_us: interquartile_mean(&p50s),
            tail_us: interquartile_mean(&tails),
            tail_q: qs.into_iter().fold(1.0, f64::min),
            ops,
            samples,
            slices: full,
        }
    }
}

/// FNV-1a over everything fed to it: a cheap fingerprint of the
/// generated inputs, printed so two runs can be shown to match.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for byte in b {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median of a small list (set-up times, build times).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The mean of the middle half of `values` (a quarter trimmed off each
/// end; the plain mean below four values).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let trim = v.len() / 4;
    let mid = &v[trim..v.len() - trim];
    ratio(mid.iter().sum(), mid.len() as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Times `f` over `reps` rounds of `n` items and returns nanoseconds per
/// item. Used by the replay phase.
pub fn per_item_ns(n: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    ratio(start.elapsed().as_nanos() as f64, (n * reps) as f64)
}
