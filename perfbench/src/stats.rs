//! Sample statistics: exact nearest-rank percentiles over recorded
//! latencies, and a seeded generator so a run's inputs follow from
//! `--seed` alone.

use rmdb_obs::{HistogramSnapshot, MetricsSnapshot};
use std::time::Duration;

/// Latency samples in microseconds.
#[derive(Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile (0 when empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        quantile(&mut self.0, q)
    }
}

/// A latency's p50, p95 and p99 per round, reported as their medians
/// across rounds, so one round disturbed by the host cannot move the
/// result.
#[derive(Default)]
pub struct PerRound {
    p50: Vec<f64>,
    p95: Vec<f64>,
    p99: Vec<f64>,
    samples: usize,
    fewest: Option<usize>,
}

impl PerRound {
    pub fn add(&mut self, mut s: Samples) {
        self.samples += s.len();
        self.fewest = Some(self.fewest.map_or(s.len(), |f| f.min(s.len())));
        self.p50.push(s.quantile(0.5));
        self.p95.push(s.quantile(0.95));
        self.p99.push(s.quantile(0.99));
    }

    pub fn p50(&self) -> f64 {
        median(&self.p50)
    }

    pub fn p95(&self) -> f64 {
        median(&self.p95)
    }

    pub fn p99(&self) -> f64 {
        median(&self.p99)
    }

    /// Sample counts for the notes: total, and the fewest in one round
    /// (a round's p99 has 1% of those beyond it).
    pub fn describe(&self) -> String {
        format!(
            "{} samples in {} rounds, fewest {} in a round",
            self.samples,
            self.p50.len(),
            self.fewest.unwrap_or(0)
        )
    }
}

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5)
}

/// Merge a per-stream histogram family (`prefix` followed by the stream
/// index) into one snapshot, so its quantile spans every stream.
pub fn merged_histogram(snap: &MetricsSnapshot, prefix: &str) -> HistogramSnapshot {
    let mut out = HistogramSnapshot {
        counts: vec![0; rmdb_obs::BUCKET_BOUNDS.len()],
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
    };
    for (_, h) in snap
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
    {
        for (o, c) in out.counts.iter_mut().zip(&h.counts) {
            *o += c;
        }
        out.count += h.count;
        out.sum += h.sum;
        out.min = out.min.min(h.min);
        out.max = out.max.max(h.max);
    }
    out
}

/// Quantile of a registry histogram, 0 when it was never registered.
pub fn hist_q(snap: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.quantile(q) as f64)
}

/// Mean of a registry histogram, 0 when it was never registered.
pub fn hist_mean(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, HistogramSnapshot::mean)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `pct` percent.
    pub fn pct(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
