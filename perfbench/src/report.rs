//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json`. Every run prints
//! every metric of its mode: a per-layer metric of a layer the workload
//! does not exercise reads 0 (that layer did no work). Each per-layer
//! metric names the end-to-end metric it should move.

use crate::stats::{median, ratio};
use crate::trace::SpanLog;
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics: (name, unit). Every workload measures each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("commit_tps", "1/s"),
    ("commit_p50_us", "us"),
    ("read_p50_us", "us"),
    ("read_p95_us", "us"),
    ("recover_ms", "ms"),
    ("log_bytes_per_commit", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit, end-to-end metric it should move).
/// "e2e" marks a user-visible figure of one workload only, kept here
/// because every workload must print every end-to-end metric.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // the commit tail, user-visible but too host-sensitive to bound
    ("txn.commit_p99_us", "us", "e2e"),
    // exec: run_txn retry loop, appender fleet, group-commit daemon
    ("exec.body_us.p50", "us", "commit_p50_us"),
    ("exec.body_us.p99", "us", "txn.commit_p99_us"),
    ("exec.retry_gap_us.p99", "us", "txn.commit_p99_us"),
    ("exec.commit_wait_us.p50", "us", "commit_p50_us"),
    ("exec.commit_wait_us.p99", "us", "txn.commit_p99_us"),
    ("exec.attempts_per_commit", "ratio", "commit_tps"),
    ("exec.conflict_retries", "count", "txn.commit_p99_us"),
    // wal lock scheduler
    ("lock.read_us.p99", "us", "txn.commit_p99_us"),
    ("lock.write_us.p99", "us", "txn.commit_p99_us"),
    ("lock.waits_enqueued", "count", "txn.commit_p99_us"),
    ("lock.deadlocks_detected", "count", "txn.commit_p99_us"),
    ("lock.max_wait_depth", "count", "txn.commit_p99_us"),
    // group commit and log appenders
    ("group.batch_size.p50", "count", "commit_p50_us"),
    ("group.dwell_us.p50", "us", "commit_p50_us"),
    ("group.dwell_us.p99", "us", "txn.commit_p99_us"),
    ("group.commits_per_force", "ratio", "log_bytes_per_commit"),
    ("wal.forces", "count", "commit_p50_us"),
    ("wal.force_us.p99", "us", "txn.commit_p99_us"),
    ("wal.fragments_appended", "count", "log_bytes_per_commit"),
    ("wal.log_frames_per_commit", "ratio", "log_bytes_per_commit"),
    ("wal.log_fill", "ratio", "log_bytes_per_commit"),
    ("failover.quarantined", "count", "commit_tps"),
    // storage: sharded buffer pool
    ("pool.evictions_per_commit", "ratio", "txn.commit_p99_us"),
    // mvcc: version pool, snapshots
    ("mvcc.read_us.p99", "us", "read_p95_us"),
    ("mvcc.chain_len.p99", "count", "read_p95_us"),
    ("mvcc.versions_live", "count", "peak_rss_mb"),
    ("mvcc.snapshot_age.p99", "count", "read_p95_us"),
    // wal serial recovery (per recovery)
    ("recovery.analysis_us", "us", "recover_ms"),
    ("recovery.redo_us", "us", "recover_ms"),
    ("recovery.undo_us", "us", "recover_ms"),
    ("recovery.flush_us", "us", "recover_ms"),
    ("recovery.records_scanned", "count", "recover_ms"),
    ("recovery.redone_updates", "count", "recover_ms"),
    // restart/replay: parallel restart (per restart)
    ("restart.total_ms", "ms", "e2e"),
    ("restart.analysis_us", "us", "restart.total_ms"),
    ("restart.redo_us", "us", "restart.total_ms"),
    ("restart.undo_us", "us", "restart.total_ms"),
    ("restart.flush_us", "us", "restart.total_ms"),
    ("restart.records_scanned", "count", "restart.total_ms"),
    ("restart.pages_replayed", "count", "restart.total_ms"),
    ("restart.worker_imbalance", "ratio", "restart.total_ms"),
    // difffile: leveled LSM store
    ("lsm.commit_us.p99", "us", "txn.commit_p99_us"),
    ("lsm.get_us.p99", "us", "read_p95_us"),
    ("lsm.range_us.p99", "us", "lsm.scan_p99_us"),
    ("lsm.scan_p50_us", "us", "e2e"),
    ("lsm.scan_p99_us", "us", "e2e"),
    ("lsm.write_amp", "ratio", "e2e"),
    ("lsm.flush_stall_us.p99", "us", "txn.commit_p99_us"),
    ("lsm.flush_us.p99", "us", "txn.commit_p99_us"),
    ("lsm.compaction_us.p99", "us", "read_p95_us"),
    ("lsm.flushes", "count", "lsm.write_amp"),
    ("lsm.compactions", "count", "lsm.write_amp"),
    ("lsm.bytes_rewritten", "B", "lsm.write_amp"),
    (
        "lsm.journal_frames_per_commit",
        "ratio",
        "log_bytes_per_commit",
    ),
    ("lsm.run_frames_per_commit", "ratio", "lsm.write_amp"),
    ("lsm.l0_runs", "count", "read_p95_us"),
    ("lsm.conflict_aborts", "count", "commit_tps"),
    // self time per span (µs per span occurrence) and tracing cost
    ("self_us.exec.txn", "us", "commit_p50_us"),
    ("self_us.exec.body", "us", "commit_p50_us"),
    ("self_us.lock.read", "us", "commit_p50_us"),
    ("self_us.lock.write", "us", "commit_p50_us"),
    ("self_us.exec.retry_gap", "us", "txn.commit_p99_us"),
    ("self_us.exec.commit_wait", "us", "commit_p50_us"),
    ("self_us.mvcc.ro_txn", "us", "read_p50_us"),
    ("self_us.mvcc.read", "us", "read_p50_us"),
    ("self_us.lsm.txn", "us", "commit_p50_us"),
    ("self_us.lsm.stage", "us", "commit_p50_us"),
    ("self_us.lsm.commit", "us", "commit_p50_us"),
    ("self_us.lsm.get", "us", "read_p50_us"),
    ("self_us.lsm.range", "us", "lsm.scan_p50_us"),
    ("trace.overhead_pct", "%", "commit_tps"),
];

/// The catalogue name of a span's self-time metric.
fn self_metric(span: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.0)
        .find(|m| m.strip_prefix("self_us.") == Some(span))
        .unwrap_or_else(|| panic!("span {span} has no self-time metric"))
}

/// What one run measured and whether its outputs were correct.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    violations: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Set metric `name`, which must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Record a failed operation or oracle violation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    /// The span-derived metrics every traced run reports: each span's mean
    /// self time and the tracing overhead (traced vs untraced rounds'
    /// median commit rate); then write the spans to `path`.
    pub fn spans(&mut self, log: &SpanLog, tps_traced: &[f64], tps_plain: &[f64], path: &Path) {
        for (name, v) in log.self_means() {
            self.set(self_metric(name), v);
        }
        let overhead = 100.0 * (1.0 - ratio(median(tps_traced), median(tps_plain)));
        self.set("trace.overhead_pct", overhead);
        if let Err(e) = log.write_tsv(path) {
            self.fail(format!("writing spans: {e}"));
        }
    }

    /// A line printed before the result (sample counts, evidence).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Print the notes, a metric table and the result line; returns the
    /// exit code (1 when any operation failed or an oracle was violated).
    pub fn emit(mut self, trace: bool) -> i32 {
        let rows: Vec<(&str, &str, Option<&str>)> = if trace {
            PER_LAYER.iter().map(|m| (m.0, m.1, Some(m.2))).collect()
        } else {
            END_TO_END.iter().map(|m| (m.0, m.1, None)).collect()
        };
        let mut missing = Vec::new();
        let mut metrics = Vec::new();
        for &(name, unit, target) in &rows {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    missing.push(name);
                    0.0
                }
                None if trace => 0.0,
                None => {
                    missing.push(name);
                    0.0
                }
            };
            match target {
                Some("e2e") => println!("{name:<32} {value:>14.3} {unit:<6} end-to-end, unbounded"),
                Some(t) => println!("{name:<32} {value:>14.3} {unit:<6} moves {t}"),
                None => println!("{name:<32} {value:>14.3} {unit}"),
            }
            metrics.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        for name in missing {
            self.fail(format!("metric {name} was not measured"));
        }
        if self.attempted == 0 {
            self.fail("no operation was attempted".to_string());
        }
        for n in &self.notes {
            println!("# {n}");
        }
        for v in &self.violations {
            println!("# FAILED: {v}");
        }
        let correct = self.failed == 0;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        i32::from(!correct)
    }
}
