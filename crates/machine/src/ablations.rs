//! Ablation experiments beyond the paper's numbered tables.
//!
//! The paper reports several findings in prose without a table; these
//! drivers quantify them with the same simulator, plus a few sensitivity
//! sweeps of the calibrated machine:
//!
//! * [`link_bandwidth`] — §4.1.3's first experiment: the query-processor ↔
//!   log-processor link at 1.0 / 0.1 / 0.01 MB/s;
//! * [`route_through_cache`] — §4.1.3's second experiment: fragments
//!   routed through the disk cache instead of a dedicated link;
//! * [`version_selection`] — §4.2.5's analysis: reading both twin blocks
//!   per access on an I/O-bound machine;
//! * [`mpl_sweep`] and [`qp_sweep`] — sensitivity of the calibrated
//!   machine to multiprogramming level and processor count (the companion
//!   study \[22\], "Whither Hundreds of Processors in a Database Machine").

use crate::config::{
    LoggingConfig, MachineConfig, OverwriteVariant, OverwritingConfig, RecoveryOverlay,
    ShadowPtConfig,
};
use crate::experiments::{ExpRow, ExpTable};
use crate::machine::Machine;

fn base_configs(txns: usize) -> Vec<(&'static str, MachineConfig)> {
    MachineConfig::paper_configurations()
        .into_iter()
        .map(|(name, mut cfg)| {
            cfg.num_txns = txns;
            (name, cfg)
        })
        .collect()
}

/// §4.1.3: effective link bandwidth between query and log processors.
pub fn link_bandwidth(txns: usize) -> ExpTable {
    let mut rows = Vec::new();
    for (name, cfg) in base_configs(txns) {
        let mut row = ExpRow::new(name);
        for bw in [1.0, 0.1, 0.01] {
            let mut c = cfg.clone();
            c.overlay = RecoveryOverlay::Logging(LoggingConfig {
                link_bandwidth_mb_s: bw,
                ..LoggingConfig::default()
            });
            let r = Machine::new(c).run();
            row.push(format!("{bw} MB/s exec"), r.exec_time_per_page_ms);
            row.push(format!("{bw} MB/s blocked"), r.mean_blocked_pages);
        }
        rows.push(row);
    }
    ExpTable {
        id: "ablation_bandwidth",
        title: "Link Bandwidth between Query and Log Processors (§4.1.3)",
        rows,
    }
}

/// §4.1.3: dedicated interconnection vs routing fragments through the
/// disk cache.
pub fn route_through_cache(txns: usize) -> ExpTable {
    let mut rows = Vec::new();
    for (name, cfg) in base_configs(txns) {
        let mut row = ExpRow::new(name);
        for (label, via_cache) in [("dedicated link", false), ("through cache", true)] {
            let mut c = cfg.clone();
            c.overlay = RecoveryOverlay::Logging(LoggingConfig {
                route_through_cache: via_cache,
                ..LoggingConfig::default()
            });
            let r = Machine::new(c).run();
            row.push(format!("{label} exec"), r.exec_time_per_page_ms);
            row.push(format!("{label} frames"), r.mean_frames_used);
        }
        rows.push(row);
    }
    ExpTable {
        id: "ablation_route_cache",
        title: "Routing Log Fragments through the Disk Cache (§4.1.3)",
        rows,
    }
}

/// §4.2.5: version selection vs the thru-page-table shadow.
pub fn version_selection(txns: usize) -> ExpTable {
    let mut rows = Vec::new();
    for (name, cfg) in base_configs(txns) {
        let bare = Machine::new(cfg.clone()).run();
        let vs = {
            let mut c = cfg.clone();
            c.overlay = RecoveryOverlay::VersionSelect;
            Machine::new(c).run()
        };
        let thru = {
            let mut c = cfg.clone();
            c.overlay = RecoveryOverlay::ShadowPt(ShadowPtConfig {
                pt_buffer: 50,
                ..ShadowPtConfig::default()
            });
            Machine::new(c).run()
        };
        let mut row = ExpRow::new(name);
        row.push("bare", bare.exec_time_per_page_ms);
        row.push("version select", vs.exec_time_per_page_ms);
        row.push("thru PT buf=50", thru.exec_time_per_page_ms);
        rows.push(row);
    }
    ExpTable {
        id: "ablation_version_select",
        title: "Version Selection vs Thru-Page-Table (§4.2.5)",
        rows,
    }
}

/// Multiprogramming-level sensitivity of the bare machine.
pub fn mpl_sweep(txns: usize) -> ExpTable {
    let mut rows = Vec::new();
    for (name, cfg) in base_configs(txns) {
        let mut row = ExpRow::new(name);
        for mpl in [1usize, 2, 3, 5, 8] {
            let mut c = cfg.clone();
            c.mpl = mpl;
            let r = Machine::new(c).run();
            row.push(format!("mpl {mpl} exec"), r.exec_time_per_page_ms);
            row.push(format!("mpl {mpl} compl"), r.mean_completion_ms);
        }
        rows.push(row);
    }
    ExpTable {
        id: "ablation_mpl",
        title: "Multiprogramming-Level Sensitivity (bare machine)",
        rows,
    }
}

/// Query-processor-count sensitivity (cf. \[22\]): on an I/O-bound machine
/// most processors idle; only the parallel-sequential configuration can
/// use more of them.
pub fn qp_sweep(txns: usize) -> ExpTable {
    let mut rows = Vec::new();
    for (name, cfg) in base_configs(txns) {
        let mut row = ExpRow::new(name);
        for qps in [5usize, 25, 75] {
            let mut c = cfg.clone();
            c.query_processors = qps;
            let r = Machine::new(c).run();
            row.push(format!("{qps} QPs exec"), r.exec_time_per_page_ms);
            row.push(format!("{qps} QPs util"), r.qp_util);
        }
        rows.push(row);
    }
    ExpTable {
        id: "ablation_qps",
        title: "Query-Processor Count Sensitivity (cf. [22])",
        rows,
    }
}

/// No-undo vs no-redo overwriting: the paper simulates only the no-undo
/// variant; this ablation quantifies the trade (no-redo writes every
/// update home immediately, no-undo defers everything to commit).
pub fn overwrite_variants(txns: usize) -> ExpTable {
    let mut rows = Vec::new();
    for (name, cfg) in base_configs(txns) {
        let mut row = ExpRow::new(name);
        row.push(
            "bare",
            Machine::new(cfg.clone()).run().exec_time_per_page_ms,
        );
        for (label, variant) in [
            ("no-undo", OverwriteVariant::NoUndo),
            ("no-redo", OverwriteVariant::NoRedo),
        ] {
            let mut c = cfg.clone();
            c.overlay = RecoveryOverlay::Overwriting(OverwritingConfig {
                variant,
                ..OverwritingConfig::default()
            });
            let r = Machine::new(c).run();
            row.push(format!("{label} exec"), r.exec_time_per_page_ms);
            row.push(format!("{label} compl"), r.mean_completion_ms);
        }
        rows.push(row);
    }
    ExpTable {
        id: "ablation_overwrite_variants",
        title: "Overwriting Variants: No-Undo vs No-Redo",
        rows,
    }
}

/// Recovery time vs checkpoint interval × redo worker count, measured on
/// the functional WAL engine with the checkpoint-bounded parallel restart
/// engine ([`rmdb_restart`]).
///
/// The workload commits `txns` single-page transactions while one
/// long-lived transaction stays open, so every auto-checkpoint is fuzzy
/// and the logs are retained rather than truncated — the restart then has
/// real analysis/redo work to bound and to parallelise. Rows sweep the
/// checkpoint interval (none / coarse / fine); columns report unbounded
/// full-log replay (`WalDb::recover_from_archive`) against the bounded
/// restart engine at K ∈ {1, 2, 4} redo workers, plus the scan accounting
/// that explains the trend: finer checkpoints exempt more records from
/// redo, and more workers shrink the redo phase of what remains.
pub fn restart_time(txns: usize) -> ExpTable {
    use rmdb_restart::{restart, RestartConfig};
    use rmdb_wal::{CrashImage, WalConfig, WalDb};
    use std::time::Instant;

    let mk_cfg = |ckpt_every: u64| WalConfig {
        data_pages: 2048,
        pool_frames: 64,
        log_streams: 4,
        log_frames: 1 << 16,
        ckpt_every_commits: ckpt_every,
        ..WalConfig::default()
    };
    // 256-byte fragments over 1600 pages: redo pushes real bytes, so the
    // worker axis measures something. The `+ 1` on the intervals keeps
    // them from dividing `txns` exactly — the last auto-checkpoint then
    // lands before the log tail, leaving the restart a redo remainder.
    let build = |ckpt_every: u64| -> CrashImage {
        let mut db = WalDb::new(mk_cfg(ckpt_every));
        let drone = db.begin();
        db.write(drone, 2047, 0, b"drone").expect("drone write");
        for i in 0..txns as u64 {
            let t = db.begin();
            let payload = [(i % 251) as u8; 256];
            db.write(t, i % 1600, (i % 14) as usize * 256, &payload)
                .expect("workload write");
            db.commit(t).expect("workload commit");
        }
        db.crash_image()
    };

    let coarse = (txns as u64 / 4 + 1).max(2);
    let fine = (txns as u64 / 16 + 1).max(2);
    let mut rows = Vec::new();
    for (label, interval) in [
        ("no checkpoints".to_string(), 0u64),
        (format!("ckpt every {coarse} commits"), coarse),
        (format!("ckpt every {fine} commits"), fine),
    ] {
        let mut row = ExpRow::new(label);
        let image = build(interval);
        let t0 = Instant::now();
        let (_, full) = WalDb::recover_from_archive(image.data, image.logs, mk_cfg(interval))
            .expect("full replay");
        row.push("full replay ms", t0.elapsed().as_secs_f64() * 1e3);
        for k in [1usize, 2, 4] {
            let rcfg = RestartConfig { workers: k };
            let (_, rep) = restart(build(interval), mk_cfg(interval), &rcfg).expect("restart");
            row.push(format!("K={k} ms"), rep.timings.total.as_secs_f64() * 1e3);
            if k == 4 {
                row.push("records scanned", rep.base.records_scanned as f64);
                row.push("records skipped", rep.records_skipped as f64);
            }
        }
        row.push("full records scanned", full.records_scanned as f64);
        rows.push(row);
    }
    ExpTable {
        id: "ablation_restart_time",
        title: "Recovery Time vs Checkpoint Interval and Redo Workers (restart engine)",
        rows,
    }
}

/// All ablations, in presentation order.
pub fn all_ablations(txns: usize) -> Vec<ExpTable> {
    vec![
        link_bandwidth(txns),
        route_through_cache(txns),
        version_selection(txns),
        overwrite_variants(txns),
        mpl_sweep(txns),
        qp_sweep(txns),
        restart_time(txns),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: usize = 10;

    #[test]
    fn bandwidth_is_immaterial() {
        let t = link_bandwidth(T);
        for row in &t.rows {
            let fast = row.get("1 MB/s exec").unwrap();
            let slow = row.get("0.01 MB/s exec").unwrap();
            assert!(
                (slow - fast).abs() / fast < 0.1,
                "{}: {fast} vs {slow}",
                row.label
            );
            // but the slow link does make fragments (and their pages) wait
            assert!(
                row.get("0.01 MB/s blocked").unwrap() >= row.get("1 MB/s blocked").unwrap() * 0.8
            );
        }
    }

    #[test]
    fn cache_routing_is_harmless() {
        let t = route_through_cache(T);
        for row in &t.rows {
            let a = row.get("dedicated link exec").unwrap();
            let b = row.get("through cache exec").unwrap();
            assert!((b - a).abs() / a < 0.1, "{}: {a} vs {b}", row.label);
        }
    }

    #[test]
    fn version_selection_loses_on_io_bound_configs() {
        let t = version_selection(T);
        for row in &t.rows {
            if row.label.contains("Random") {
                let vs = row.get("version select").unwrap();
                let thru = row.get("thru PT buf=50").unwrap();
                assert!(
                    vs > thru,
                    "{}: version selection must lose on I/O-bound machines ({vs} vs {thru})",
                    row.label
                );
            }
        }
    }

    #[test]
    fn both_overwrite_variants_cost_more_than_bare() {
        let t = overwrite_variants(T);
        for row in &t.rows {
            let bare = row.get("bare").unwrap();
            assert!(
                row.get("no-undo exec").unwrap() > bare * 1.02,
                "{}",
                row.label
            );
            assert!(
                row.get("no-redo exec").unwrap() > bare * 1.02,
                "{}",
                row.label
            );
        }
    }

    #[test]
    fn completion_grows_with_mpl() {
        let t = mpl_sweep(T);
        for row in &t.rows {
            let c1 = row.get("mpl 1 compl").unwrap();
            let c8 = row.get("mpl 8 compl").unwrap();
            assert!(c8 > c1, "{}: completion must grow with MPL", row.label);
        }
    }

    #[test]
    fn restart_time_checkpoints_bound_the_scan() {
        let t = restart_time(240);
        assert_eq!(t.rows.len(), 3);
        let none = &t.rows[0];
        let fine = &t.rows[2];
        // without checkpoints nothing can be skipped; with fine-grained
        // checkpoints the bound must exempt a chunk of the log from redo
        assert_eq!(none.get("records skipped"), Some(0.0));
        assert!(
            fine.get("records skipped").unwrap() > 0.0,
            "checkpoint bound must skip records: {fine:?}"
        );
        assert!(fine.get("records scanned").unwrap() > 0.0);
        // the coarse interval checkpoints too, so it must also skip
        assert!(t.rows[1].get("records skipped").unwrap() > 0.0);
        for row in &t.rows {
            for k in [1, 2, 4] {
                assert!(row.get(&format!("K={k} ms")).unwrap() >= 0.0);
            }
            assert!(row.get("full replay ms").unwrap() >= 0.0);
        }
    }

    #[test]
    fn extra_qps_only_help_parallel_sequential() {
        let t = qp_sweep(T);
        let ps = t
            .rows
            .iter()
            .find(|r| r.label == "Parallel-Sequential")
            .unwrap();
        let cr = t
            .rows
            .iter()
            .find(|r| r.label == "Conventional-Random")
            .unwrap();
        // PS gains from 25 → 75 QPs; CR does not care
        assert!(ps.get("75 QPs exec").unwrap() < ps.get("25 QPs exec").unwrap() * 0.95);
        let cr25 = cr.get("25 QPs exec").unwrap();
        let cr75 = cr.get("75 QPs exec").unwrap();
        assert!((cr75 - cr25).abs() / cr25 < 0.05);
        // and CR's processors are mostly idle, as [22] found
        assert!(cr.get("75 QPs util").unwrap() < 0.1);
    }
}
