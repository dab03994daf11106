//! In-memory spans for the traced run.
//!
//! Each client thread owns a [`Tracer`]. A span has a name, the request
//! it belongs to, the span that caused it, a start and a duration. Spans
//! stay in memory while the workload runs and are written out as a TSV
//! file when it ends. A span's self time is its duration minus the time
//! covered by its children; children never overlap because one client
//! thread runs one request at a time.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Index of "no span": the parent of a root, or what a disabled tracer
/// hands out.
pub const NONE: usize = usize::MAX;

struct Span {
    req: u64,
    name: &'static str,
    parent: usize,
    start: Duration,
    dur: Duration,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    client: u64,
    next_req: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, client: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            client,
            next_req: 0,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh request id, unique across clients.
    pub fn request(&mut self) -> u64 {
        self.next_req += 1;
        (self.client << 48) | self.next_req
    }

    /// Open a span now; returns its index ([`NONE`] when tracing is off).
    pub fn open(&mut self, req: u64, name: &'static str, parent: usize) -> usize {
        if !self.on {
            return NONE;
        }
        self.spans.push(Span {
            req,
            name,
            parent,
            start: self.epoch.elapsed(),
            dur: Duration::ZERO,
        });
        self.spans.len() - 1
    }

    /// Close span `idx` now and return the closing instant.
    pub fn close(&mut self, idx: usize) -> Option<Instant> {
        let span = self.spans.get_mut(idx)?;
        let now = Instant::now();
        span.dur = now.duration_since(self.epoch).saturating_sub(span.start);
        Some(now)
    }

    /// Record a span that already ended, such as a wait between two
    /// recorded points.
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: usize,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                req,
                name,
                parent,
                start: start.duration_since(self.epoch),
                dur: end.duration_since(start),
            });
        }
    }

    /// Self time of every span, index-aligned with `self.spans`.
    fn self_times(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child[s.parent] += s.dur;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur.saturating_sub(c))
            .collect()
    }
}

/// Every span of a run, from all clients and rounds.
#[derive(Default)]
pub struct SpanLog {
    tracers: Vec<Tracer>,
}

impl SpanLog {
    pub fn add(&mut self, t: Tracer) {
        if t.on {
            self.tracers.push(t);
        }
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.tracers.iter().flat_map(|t| &t.spans) {
            if s.name == name {
                out.push(s.dur);
            }
        }
        out
    }

    /// Mean self time per span, in µs, by span name.
    pub fn self_means(&self) -> BTreeMap<&'static str, f64> {
        let mut acc: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for t in &self.tracers {
            for (s, own) in t.spans.iter().zip(t.self_times()) {
                let e = acc.entry(s.name).or_default();
                e.0 += own.as_secs_f64() * 1e6;
                e.1 += 1;
            }
        }
        acc.into_iter()
            .map(|(k, (sum, n))| (k, sum / n as f64))
            .collect()
    }

    /// Write every span as one TSV line: client, span index, request id,
    /// name, parent index (-1 for a root), start, duration and self time
    /// in µs.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "client\tspan\treq\tname\tparent\tstart_us\tdur_us\tself_us"
        )?;
        for t in &self.tracers {
            for (i, (s, own)) in t.spans.iter().zip(t.self_times()).enumerate() {
                let parent = if s.parent == NONE {
                    -1
                } else {
                    s.parent as i64
                };
                writeln!(
                    w,
                    "{}\t{i}\t{:x}\t{}\t{parent}\t{:.3}\t{:.3}\t{:.3}",
                    t.client,
                    s.req,
                    s.name,
                    s.start.as_secs_f64() * 1e6,
                    s.dur.as_secs_f64() * 1e6,
                    own.as_secs_f64() * 1e6,
                )?;
            }
        }
        w.flush()
    }
}
