//! The metrics half of the observability crate: named counters, gauges
//! and fixed-bucket histograms behind cheap cloneable handles, plus the
//! snapshot/export machinery.
//!
//! Handles are `Arc`s onto plain atomics: updating a metric is one or two
//! relaxed atomic RMWs, no locking, so the hot paths (per-fragment
//! append, per-force latency) can record unconditionally. The registry
//! mutex is touched only at registration and snapshot time.

use crate::event::{Event, EventKind, EventRing};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Histogram bucket upper bounds (inclusive), in the recorded unit
/// (microseconds for every latency histogram in this workspace):
/// powers of two from 1 µs to ~8.4 s, plus a catch-all overflow bucket.
pub const BUCKET_BOUNDS: [u64; 25] = [
    1,
    2,
    4,
    8,
    16,
    32,
    64,
    128,
    256,
    512,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
    u64::MAX,
];

const N_BUCKETS: usize = BUCKET_BOUNDS.len();

/// A monotonic counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Shared histogram state: per-bucket counts plus count/sum/min/max.
#[derive(Debug)]
struct HistCore {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCore {
    fn default() -> Self {
        HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket histogram handle (record in µs for latencies).
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    core: Arc<HistCore>,
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        let idx = BUCKET_BOUNDS.partition_point(|&b| b < v);
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
        self.core.min.fetch_min(v, Ordering::Relaxed);
        self.core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Freeze the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            counts,
            count: self.core.count.load(Ordering::Relaxed),
            sum: self.core.sum.load(Ordering::Relaxed),
            min: self.core.min.load(Ordering::Relaxed),
            max: self.core.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen histogram: bucket counts plus derived percentile estimates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples per bucket, aligned with [`BUCKET_BOUNDS`].
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample seen (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample seen (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 < q <= 1.0`): the upper bound of
    /// the bucket holding the rank-`ceil(q·count)` sample, clamped to the
    /// observed `max`. The estimate is always within the bounds of the
    /// bucket that contains the true quantile sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return BUCKET_BOUNDS[i].min(self.max);
            }
        }
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Every metric handle ever issued, keyed by name.
#[derive(Default)]
struct Metrics {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

struct Inner {
    metrics: Mutex<Metrics>,
    events: EventRing,
}

/// The metrics registry: hands out named metric handles and snapshots
/// them all at once. Cloning is cheap (`Arc`); all clones share state.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("events_capacity", &self.inner.events.capacity())
            .finish()
    }
}

/// Default bounded event-ring capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

impl Registry {
    /// A registry with the default event-ring capacity.
    pub fn new() -> Self {
        Registry::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A registry whose event ring holds the last `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Registry {
            inner: Arc::new(Inner {
                metrics: Mutex::new(Metrics::default()),
                events: EventRing::new(capacity),
            }),
        }
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.inner.metrics.lock().expect("obs registry");
        m.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.inner.metrics.lock().expect("obs registry");
        m.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.inner.metrics.lock().expect("obs registry");
        m.histograms.entry(name.to_string()).or_default().clone()
    }

    /// Emit a structured event into the ring; returns its sequence number.
    pub fn emit(&self, kind: EventKind, txn: u64, stream: u64, page: u64, payload: u64) -> u64 {
        self.inner.events.emit(kind, txn, stream, page, payload)
    }

    /// The event ring.
    pub fn events(&self) -> &EventRing {
        &self.inner.events
    }

    /// Freeze every metric (events are snapshotted separately via
    /// [`Registry::events`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.inner.metrics.lock().expect("obs registry");
        MetricsSnapshot {
            counters: m
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: m.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: m
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Recent events, oldest first (convenience for tests/exporters).
    pub fn recent_events(&self) -> Vec<Event> {
        self.inner.events.snapshot()
    }
}

/// A point-in-time dump of every registered metric.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

impl MetricsSnapshot {
    /// Value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Snapshot of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Sum of every counter whose name starts with `prefix` (per-stream
    /// and per-shard families roll up this way).
    pub fn counter_family(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Serialise as a single JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
    /// min,max,mean,p50,p95,p99}}}`. Hand-rolled so the crate stays
    /// dependency-free.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", json_escape(k), v));
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", json_escape(k), v));
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let min = if h.count == 0 { 0 } else { h.min };
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                 \"mean\":{:.1},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                json_escape(k),
                h.count,
                h.sum,
                min,
                h.max,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            ));
        }
        out.push_str("}}");
        out
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "metrics snapshot")?;
        for (k, v) in &self.counters {
            writeln!(f, "  counter   {k:<40} {v}")?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "  gauge     {k:<40} {v}")?;
        }
        for (k, h) in &self.histograms {
            writeln!(
                f,
                "  histogram {k:<40} n={} mean={:.1} p50={} p95={} p99={} max={}",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_state_across_handles() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(r.counter("x").get(), 5);
        assert_eq!(r.snapshot().counter("x"), Some(5));
    }

    #[test]
    fn gauges_overwrite() {
        let r = Registry::new();
        let g = r.gauge("g");
        g.set(10);
        g.set(3);
        assert_eq!(r.snapshot().gauge("g"), Some(3));
    }

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let r = Registry::new();
        let h = r.histogram("h");
        for v in [3u64, 5, 9, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1117);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 1000);
        // p50 sample is 9 (bucket (8,16]); estimate within that bucket
        let p50 = s.quantile(0.5);
        assert!((9..=16).contains(&p50), "p50={p50}");
        assert!(s.quantile(0.95) <= s.quantile(0.99).max(s.max));
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let r = Registry::new();
        let s = r.histogram("h").snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn snapshot_serialises_to_parseable_json_shape() {
        let r = Registry::new();
        r.counter("a.b").inc();
        r.gauge("g").set(7);
        r.histogram("h\"x").record(12);
        let json = r.snapshot().to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"a.b\":1"));
        assert!(json.contains("\"g\":7"));
        assert!(json.contains("h\\\"x"));
        assert!(json.ends_with("}}"));
        // balanced braces (cheap structural sanity without a parser)
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn counter_family_rolls_up_prefixes() {
        let r = Registry::new();
        r.counter("wal.appends.s0").add(2);
        r.counter("wal.appends.s1").add(3);
        r.counter("wal.forces.s0").add(9);
        let snap = r.snapshot();
        assert_eq!(snap.counter_family("wal.appends."), 5);
    }

    #[test]
    fn display_lists_every_metric() {
        let r = Registry::new();
        r.counter("c").inc();
        r.histogram("h").record(1);
        let text = format!("{}", r.snapshot());
        assert!(text.contains("counter"));
        assert!(text.contains("histogram"));
    }
}
