//! Checkpoint-bounded parallel restart for the parallel-logging engine.
//!
//! The restart engine is `rmdb_wal::recovery`'s one recovery engine, which
//! [`WalDb::recover`] also runs at one worker. This crate maps a
//! [`RestartConfig`] onto it:
//!
//! 1. **Checkpoint-bounded analysis** — each stream's scan is bounded by
//!    its last complete `CheckpointBegin`/`CheckpointEnd` pair: a durable
//!    `CheckpointEnd` proves the fuzzy checkpoint's flush finished, so
//!    updates logged before its `CheckpointBegin` need no redo. Commits,
//!    compensation provenance, and the LSN/txn high-water marks are still
//!    gathered from the full scan.
//! 2. **Parallel redo** on K workers, pages hashed into K shards. Per-page
//!    LSN ordering is the only order redo needs — for command records as
//!    for fragments — so workers never coordinate on bytes.
//! 3. **Backward undo of losers** — serial, in the coordinator, reading
//!    any page redo did not keep (behind the bound, or left unchanged)
//!    straight from the data disk (with doublewrite repair), and logging
//!    compensations so the restart itself is crash-safe and idempotent.
//!
//! Afterwards the coordinator writes home the pages recovery changed, and
//! only those, then truncates each stream behind its checkpoint bound, so
//! the next restart scans even less.
//!
//! The recovered state is **byte-identical for every worker count K**,
//! including on images produced under fault injection. A [`RestartReport`]
//! extends the WAL crate's [`RecoveryReport`](rmdb_wal::RecoveryReport)
//! with bound accounting, per-phase wall-clock, and a per-worker histogram.
//!
//! # Example
//!
//! ```
//! use rmdb_restart::{restart, RestartConfig};
//! use rmdb_wal::{WalConfig, WalDb};
//!
//! let mut db = WalDb::new(WalConfig::default());
//! let t = db.begin();
//! db.write(t, 3, 0, b"hello").unwrap();
//! db.commit(t).unwrap();
//!
//! let (mut db2, report) =
//!     restart(db.crash_image(), WalConfig::default(), &RestartConfig::default()).unwrap();
//! let t2 = db2.begin();
//! assert_eq!(db2.read(t2, 3, 0, 5).unwrap(), b"hello");
//! assert_eq!(report.workers, 4);
//! ```

/// Restart observability, re-exported from the recovery engine.
pub mod report {
    pub use rmdb_wal::recovery::{PhaseTimings, RestartReport, WorkerStats};
}

pub use report::{PhaseTimings, RestartReport, WorkerStats};

use rmdb_obs::Registry;
use rmdb_wal::recovery::{run_engine, EngineRun};
use rmdb_wal::{CrashImage, WalConfig, WalDb, WalError};

/// Knobs for the restart engine.
#[derive(Debug, Clone)]
pub struct RestartConfig {
    /// Redo worker threads (K ≥ 1; 1 degenerates to serial redo).
    pub workers: usize,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig { workers: 4 }
    }
}

/// Run a checkpoint-bounded parallel restart of `image`; returns the
/// reopened engine and a [`RestartReport`].
///
/// Accepts the same crash images as [`WalDb::recover`] and recovers the
/// same state; the two differ only in redo parallelism.
pub fn restart(
    image: CrashImage,
    cfg: WalConfig,
    rcfg: &RestartConfig,
) -> Result<(WalDb, RestartReport), WalError> {
    restart_observed(image, cfg, rcfg, &Registry::new())
}

/// [`restart`] with an observability registry: the engine's `restart.*`
/// counters (each equal to its [`RestartReport`] field), per-phase
/// wall-clock histograms (`restart.{analysis,redo,undo,flush,total}_us`)
/// and one [`EventKind::RecoveryPhase`](rmdb_obs::EventKind) event per
/// phase (stream field 0–3 in phase order, payload = µs elapsed).
pub fn restart_observed(
    image: CrashImage,
    cfg: WalConfig,
    rcfg: &RestartConfig,
    obs: &Registry,
) -> Result<(WalDb, RestartReport), WalError> {
    let run = EngineRun {
        workers: rcfg.workers,
        bounded: true,
        metrics: "restart",
    };
    run_engine(image, cfg, run, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmdb_storage::Disk;
    use rmdb_wal::SelectionPolicy;

    fn cfg(streams: usize) -> WalConfig {
        WalConfig {
            data_pages: 32,
            pool_frames: 8,
            log_streams: streams,
            ..WalConfig::default()
        }
    }

    fn rcfg(k: usize) -> RestartConfig {
        RestartConfig { workers: k }
    }

    fn read_committed(db: &mut WalDb, page: u64, offset: usize, len: usize) -> Vec<u8> {
        let t = db.begin();
        let v = db.read(t, page, offset, len).unwrap();
        db.commit(t).unwrap();
        v
    }

    fn assert_disks_identical(a: &Disk, b: &Disk, what: &str) {
        assert_eq!(a.capacity(), b.capacity(), "{what}: capacity");
        for addr in 0..a.capacity() {
            assert_eq!(
                a.is_allocated(addr),
                b.is_allocated(addr),
                "{what}: allocation of frame {addr}"
            );
            if a.is_allocated(addr) {
                let fa = a.read_frame(addr).expect("frame a");
                let fb = b.read_frame(addr).expect("frame b");
                assert!(fa == fb, "{what}: frame {addr} differs");
            }
        }
    }

    #[test]
    fn restart_recovers_committed_state() {
        let mut db = WalDb::new(cfg(3));
        let t = db.begin();
        db.write(t, 5, 0, b"durable").unwrap();
        db.commit(t).unwrap();
        let (mut db2, report) = restart(db.crash_image(), cfg(3), &rcfg(4)).unwrap();
        assert_eq!(read_committed(&mut db2, 5, 0, 7), b"durable");
        assert_eq!(report.base.committed_txns.len(), 1);
        assert!(report.base.loser_txns.is_empty());
        assert_eq!(report.workers, 4);
        assert_eq!(report.per_worker.len(), 4);
    }

    #[test]
    fn checkpoint_bound_skips_prefix_records() {
        let mut db = WalDb::new(cfg(2));
        // Keep a drone transaction open so checkpoints stay fuzzy and the
        // streams are retained rather than truncated.
        let drone = db.begin();
        db.write(drone, 31, 0, b"drone").unwrap();
        for i in 0..8 {
            let t = db.begin();
            db.write(t, i, 0, b"bulk").unwrap();
            db.commit(t).unwrap();
        }
        db.checkpoint().unwrap();
        let t = db.begin();
        db.write(t, 9, 0, b"tail").unwrap();
        db.commit(t).unwrap();
        let (mut db2, report) = restart(db.crash_image(), cfg(2), &rcfg(2)).unwrap();
        assert!(
            report.records_skipped > 0,
            "pre-checkpoint updates must be exempt from redo"
        );
        assert_eq!(report.bounded_streams, 2);
        assert!(report.checkpoints_found >= 2);
        for i in 0..8 {
            assert_eq!(read_committed(&mut db2, i, 0, 4), b"bulk");
        }
        assert_eq!(read_committed(&mut db2, 9, 0, 4), b"tail");
        // the drone never committed: its write must be gone
        assert_eq!(read_committed(&mut db2, 31, 0, 5), vec![0u8; 5]);
        assert!(report.base.loser_txns.contains(&drone));
    }

    #[test]
    fn active_loser_behind_bound_is_undone() {
        // A loser whose stolen update predates the checkpoint: its redo is
        // skipped, but the active list keeps it as an undo candidate, and
        // undo must read the page image from disk (it is absent from the
        // bounded redo map).
        let mut db = WalDb::new(WalConfig {
            data_pages: 32,
            pool_frames: 2, // tiny pool forces steals
            log_streams: 2,
            ..WalConfig::default()
        });
        let setup = db.begin();
        db.write(setup, 0, 0, b"base0").unwrap();
        db.commit(setup).unwrap();
        let loser = db.begin();
        db.write(loser, 0, 0, b"evil0").unwrap();
        db.checkpoint().unwrap(); // flushes the dirty page, loser active
        let t = db.begin();
        db.write(t, 9, 0, b"after").unwrap();
        db.commit(t).unwrap();

        let image = db.crash_image();
        assert_eq!(image.data.read_page(0).unwrap().read_at(0, 5), b"evil0");
        let (mut db2, report) = restart(image, cfg(2), &rcfg(4)).unwrap();
        assert_eq!(read_committed(&mut db2, 0, 0, 5), b"base0");
        assert_eq!(read_committed(&mut db2, 9, 0, 5), b"after");
        assert!(report.base.loser_txns.contains(&loser));
        assert!(report.base.undone_updates >= 1);
    }

    #[test]
    fn truncation_shrinks_next_scan() {
        let mut db = WalDb::new(cfg(2));
        let drone = db.begin();
        db.write(drone, 31, 0, b"drone").unwrap();
        // enough bulk to fill log pages on every stream: truncation drops
        // whole pages, and forced commits pack into the same page
        for i in 0..400 {
            let t = db.begin();
            db.write(t, i % 8, 0, b"bulk").unwrap();
            db.commit(t).unwrap();
        }
        db.checkpoint().unwrap();
        let (db2, first) = restart(db.crash_image(), cfg(2), &rcfg(2)).unwrap();
        assert!(first.truncated_streams > 0);
        let (_, second) = restart(db2.crash_image(), cfg(2), &rcfg(2)).unwrap();
        assert!(
            second.base.records_scanned < first.base.records_scanned,
            "truncation must shrink the next restart's scan: {} -> {}",
            first.base.records_scanned,
            second.base.records_scanned
        );
    }

    #[test]
    fn restart_is_idempotent() {
        let mut db = WalDb::new(cfg(2));
        let t0 = db.begin();
        db.write(t0, 1, 0, b"base").unwrap();
        db.commit(t0).unwrap();
        let l = db.begin();
        db.write(l, 1, 0, b"lost").unwrap();
        let (db2, _) = restart(db.crash_image(), cfg(2), &rcfg(4)).unwrap();
        let (mut db3, report) = restart(db2.crash_image(), cfg(2), &rcfg(4)).unwrap();
        assert_eq!(read_committed(&mut db3, 1, 0, 4), b"base");
        assert_eq!(report.base.undone_updates, 0, "idempotent undo");
    }

    #[test]
    fn matches_serial_recovery_data_state() {
        let mut db = WalDb::new(WalConfig {
            data_pages: 32,
            pool_frames: 4,
            log_streams: 3,
            policy: SelectionPolicy::Cyclic,
            ..WalConfig::default()
        });
        let drone = db.begin();
        db.write(drone, 30, 0, b"open").unwrap();
        for i in 0..12u64 {
            let t = db.begin();
            db.write(
                t,
                i % 8,
                (i % 4) as usize * 8,
                format!("v{i:05}").as_bytes(),
            )
            .unwrap();
            db.commit(t).unwrap();
            if i == 6 {
                db.checkpoint().unwrap();
            }
        }
        let mk = || WalConfig {
            data_pages: 32,
            pool_frames: 4,
            log_streams: 3,
            policy: SelectionPolicy::Cyclic,
            ..WalConfig::default()
        };
        // unbounded full replay: the bound may skip only work already home
        let image = db.crash_image();
        let (full_db, _) = WalDb::recover_from_archive(image.data, image.logs, mk()).unwrap();
        let (restart_db, report) = restart(db.crash_image(), mk(), &rcfg(4)).unwrap();
        assert!(report.records_skipped > 0);
        let a = full_db.crash_image().data;
        let b = restart_db.crash_image().data;
        assert_disks_identical(&a, &b, "full replay vs bounded restart data");
    }

    #[test]
    fn worker_counts_agree_bytewise() {
        let mut db = WalDb::new(cfg(4));
        let drone = db.begin();
        db.write(drone, 31, 0, b"drone").unwrap();
        for i in 0..20u64 {
            let t = db.begin();
            db.write(t, i % 10, 0, format!("row{i:04}").as_bytes())
                .unwrap();
            db.commit(t).unwrap();
            if i % 7 == 3 {
                db.checkpoint().unwrap();
            }
        }
        let mut summaries = Vec::new();
        let mut images = Vec::new();
        for k in [1usize, 2, 4, 8] {
            let (dbk, rep) = restart(db.crash_image(), cfg(4), &rcfg(k)).unwrap();
            summaries.push(rep.logical_summary());
            images.push(dbk.crash_image());
        }
        for w in summaries.windows(2) {
            assert_eq!(w[0], w[1], "logical reports diverge across K");
        }
        for w in images.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert_disks_identical(&a.data, &b.data, "data across K");
            for (i, (la, lb)) in a.logs.iter().zip(&b.logs).enumerate() {
                assert_disks_identical(la, lb, &format!("log stream {i} across K"));
            }
        }
    }

    /// A mixed workload: command-logged counter bumps (hot pages, read
    /// sets), physical writes, an in-flight loser, and a checkpoint.
    fn mixed_adaptive_image() -> rmdb_wal::CrashImage {
        let mut db = WalDb::new(WalConfig {
            data_pages: 32,
            pool_frames: 16,
            log_streams: 3,
            logging: rmdb_wal::LoggingPolicy::Adaptive,
            ..WalConfig::default()
        });
        let drone = db.begin();
        db.write(drone, 30, 0, b"open").unwrap();
        for i in 0..24u64 {
            let t = db.begin();
            if i % 3 == 0 || i >= 20 {
                // hot-key counter bumps: command-logged (the last ones
                // after every wide writer, which evicts the counter pages)
                db.add_u64(t, i % 4, 0, 1 + i).unwrap();
                db.add_u64(t, (i + 1) % 4, 8, 7).unwrap();
            } else {
                // one-byte writers over 16 pages: past the pin budget of
                // pool_frames - 1 = 15 pages, so these spill to fragments
                for p in 0..16 {
                    db.write(t, 8 + (i + p) % 16, 0, &[i as u8]).unwrap();
                }
            }
            db.commit(t).unwrap();
            if i == 11 {
                db.checkpoint().unwrap();
            }
        }
        db.crash_image()
    }

    #[test]
    fn txn_dag_matches_page_sharded_bytewise() {
        // a mixed log replays through page-sharded redo byte-identically
        // for every K: command records re-execute, fragments install, and
        // the published counters match the report
        let image = mixed_adaptive_image();
        let cfg = || WalConfig {
            data_pages: 32,
            pool_frames: 16,
            log_streams: 3,
            logging: rmdb_wal::LoggingPolicy::Adaptive,
            ..WalConfig::default()
        };
        let mut images = Vec::new();
        let mut summaries = Vec::new();
        for k in [1usize, 2, 4, 8] {
            let obs = Registry::new();
            let (dbk, rep) = restart_observed(clone_image(&image), cfg(), &rcfg(k), &obs).unwrap();
            let snap = obs.snapshot();
            let c = |name: &str| snap.counter(name).unwrap_or(0);
            assert_eq!(c("restart.reexecuted_ops"), rep.base.reexecuted_ops);
            assert_eq!(c("restart.redone_updates"), rep.base.redone_updates);
            assert!(rep.base.logical_commits > 0);
            assert!(
                rep.base.reexecuted_ops > 0,
                "command records must re-execute"
            );
            assert!(
                rep.base.redone_updates > rep.base.reexecuted_ops,
                "physical records must install"
            );
            summaries.push(rep.logical_summary());
            images.push(dbk.crash_image());
        }
        for w in summaries.windows(2) {
            assert_eq!(w[0], w[1], "logical reports diverge across K");
        }
        for w in images.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            assert_disks_identical(&a.data, &b.data, "data across K");
            for (i, (la, lb)) in a.logs.iter().zip(&b.logs).enumerate() {
                assert_disks_identical(la, lb, &format!("log stream {i}"));
            }
        }
    }

    fn clone_image(image: &rmdb_wal::CrashImage) -> rmdb_wal::CrashImage {
        rmdb_wal::CrashImage {
            data: image.data.snapshot(),
            logs: image.logs.iter().map(Disk::snapshot).collect(),
        }
    }

    #[test]
    fn empty_image_restarts_clean() {
        let db = WalDb::new(cfg(2));
        let (mut db2, report) = restart(db.crash_image(), cfg(2), &rcfg(4)).unwrap();
        assert_eq!(report.base.records_scanned, 0);
        assert_eq!(report.records_skipped, 0);
        assert_eq!(report.bounded_streams, 0);
        assert_eq!(read_committed(&mut db2, 0, 0, 4), vec![0u8; 4]);
    }

    #[test]
    fn report_displays() {
        let mut db = WalDb::new(cfg(2));
        let t = db.begin();
        db.write(t, 1, 0, b"x").unwrap();
        db.commit(t).unwrap();
        let (_, report) = restart(db.crash_image(), cfg(2), &rcfg(2)).unwrap();
        let text = format!("{report}");
        assert!(text.contains("restart report (2 workers)"));
        assert!(text.contains("worker  0:"));
    }
}
