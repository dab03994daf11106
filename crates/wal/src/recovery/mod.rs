//! The recovery engine for the distributed logs — without merging them.
//!
//! The paper's companion work (\[13\]) shows transaction and system failures
//! can be recovered without merging the per-log-processor logs into one
//! physical log. The key idea reconstructed here: updates to a single page
//! are totally ordered by the page-level locking scheduler, and every
//! fragment carries the page LSN it produces, so redo can process each
//! page's fragments in LSN order no matter which stream they came from —
//! there is never a need for a global inter-stream order.
//!
//! One engine ([`run_engine`]) serves every entry point. The algorithm is
//! undo/redo ("repeat history"):
//!
//! 1. **Analysis** — over each stream's records, decoded by the one chain
//!    read that reopens it (no second pass); a transaction is a
//!    *winner* iff a commit record for it is durable on any stream (the
//!    commit protocol forced all its fragment streams first, so a durable
//!    commit implies durable fragments). Each stream's redo work is bounded
//!    by its last complete checkpoint pair (see the `analysis` module).
//! 2. **Redo** — apply every durable update, compensation and command op
//!    ahead of the bound, per page in `new_lsn` order, skipping units
//!    already reflected (`page.lsn >= new_lsn`). Pages are hashed into K
//!    shards, one worker thread each (the `redo` module); a page read
//!    clean whose every unit was skipped is dropped there. A command
//!    record's ops each write the one page they read and carry their own
//!    page LSN, so per-page LSN order replays command records as
//!    completely as fragments: no cross-page order is needed.
//! 3. **Undo** — for each loser, apply before-images of its
//!    not-yet-compensated updates in reverse LSN order, appending new
//!    compensation records (so recovery itself is crash-safe and
//!    idempotent), then an abort record.
//! 4. **Durable finish** — force the logs, write home the pages recovery
//!    changed (redo applied a unit, repaired a torn frame or started a
//!    fresh one, or undo reverted it), then truncate each stream behind its
//!    checkpoint bound so the next restart scans less. Every other page
//!    redo examined already holds its recovered bytes at home.
//!
//! [`WalDb::recover`] runs the engine at K=1; rmdb-restart's `restart`
//! runs it at `RestartConfig::workers`; and [`WalDb::recover_from_archive`]
//! runs it with the bound turned off. The recovered state is
//! byte-identical for every K: everything order-sensitive (undo, the
//! doublewrite harvest, log appends, truncation) stays in the serial
//! coordinator.

mod analysis;
mod redo;
mod report;

pub use report::{PhaseTimings, RecoveryReport, RestartReport, WorkerStats};

use crate::capture::Doublewrite;
use crate::db::{CrashImage, WalConfig, WalDb, WalError};
use crate::manager::ParallelLogManager;
use crate::record::LogRecord;
use analysis::analyze;
use redo::{load_redo_page, shard_redo, Origin, PageLoad};
use rmdb_obs::{EventKind, Registry};
use rmdb_storage::{Disk, Lsn, StorageError};
use std::collections::btree_map::Entry;
use std::time::{Duration, Instant};

/// How one run of the engine is set up.
#[derive(Debug, Clone, Copy)]
pub struct EngineRun<'a> {
    /// Redo worker threads (K ≥ 1).
    pub workers: usize,
    /// Bound each stream's redo by its last complete checkpoint, and
    /// durably truncate the stream behind that bound once the recovered
    /// state is home. Media recovery turns this off: a `CheckpointEnd`
    /// logged after the archive proves pages reached the destroyed disk,
    /// not the archive.
    pub bounded: bool,
    /// Prefix of the published metric names (`recovery`, `restart`).
    pub metrics: &'a str,
}

impl EngineRun<'static> {
    /// What [`WalDb::recover`] runs: one worker, bounded, and publishing
    /// `recovery.*`.
    pub const RECOVER: EngineRun<'static> = EngineRun {
        workers: 1,
        bounded: true,
        metrics: "recovery",
    };
}

/// Run crash recovery; returns the reopened engine and a report.
pub fn recover(image: CrashImage, cfg: WalConfig) -> Result<(WalDb, RecoveryReport), WalError> {
    recover_observed(image, cfg, &Registry::new())
}

/// [`recover`], publishing its accounting into `obs`: the `recovery.*`
/// counters carry the same totals as the corresponding [`RecoveryReport`]
/// fields (so the two can be cross-checked), per-phase wall-clock lands in
/// `recovery.*_us` histograms, and each finished phase emits a
/// [`EventKind::RecoveryPhase`] event (stream = phase ordinal,
/// payload = µs).
pub fn recover_observed(
    image: CrashImage,
    cfg: WalConfig,
    obs: &Registry,
) -> Result<(WalDb, RecoveryReport), WalError> {
    let (db, report) = run_engine(image, cfg, EngineRun::RECOVER, obs)?;
    Ok((db, report.base))
}

/// Run the recovery engine over `image` with page-sharded redo on
/// `run.workers` threads; returns the reopened engine and a
/// [`RestartReport`].
///
/// Metrics land under `run.metrics`: counters `records_scanned`,
/// `records_skipped`, `duplicate_fragments`, `logical_commits`,
/// `quarantined_log_pages`, `salvaged_records`, `redone_updates`,
/// `reexecuted_ops`, `pages_replayed`, `undone_updates`,
/// `torn_pages_repaired`, `quarantined_data_pages`, `pages_written` and
/// `retried_ios`, each equal to its report field (`pages_replayed`, which
/// has none, counts the pages redo examined and did not quarantine,
/// whether or not they changed and were written home); histograms
/// `{analysis,redo,undo,flush,total}_us`; one
/// [`EventKind::RecoveryPhase`] event per phase.
pub fn run_engine(
    image: CrashImage,
    cfg: WalConfig,
    run: EngineRun<'_>,
    obs: &Registry,
) -> Result<(WalDb, RestartReport), WalError> {
    let t_start = Instant::now();
    let count = |name: &str, v: u64| obs.counter(&format!("{}.{name}", run.metrics)).add(v);
    let phase = |ordinal: u64, name: &str, took: Duration| {
        let us = took.as_micros() as u64;
        obs.histogram(&format!("{}.{name}_us", run.metrics))
            .record(us);
        obs.emit(EventKind::RecoveryPhase, 0, ordinal, 0, us);
    };
    let workers = run.workers.max(1);
    let CrashImage { data, logs } = image;
    let mut data: Disk = data;
    // every retry the run's own I/O makes on the data and log devices
    let retries = |d: &Disk| d.read_retries() + d.write_retries();
    let retries_before = retries(&data) + logs.iter().map(retries).sum::<u64>();
    // ---- Analysis: the reopen's one chain read per stream is the scan ----
    let (mut log, scans) = ParallelLogManager::open_scanned(logs, cfg.policy, cfg.seed)?;
    let mut report = RestartReport {
        workers,
        ..RestartReport::default()
    };
    let doublewrite = Doublewrite::harvest(&data, &cfg);
    let a = analyze(scans, run.bounded, &mut report);
    report.timings.analysis = t_start.elapsed();
    let base = &report.base;
    count("records_scanned", base.records_scanned as u64);
    count("records_skipped", report.records_skipped);
    count("duplicate_fragments", base.duplicate_fragments);
    count("logical_commits", base.logical_commits);
    count("quarantined_log_pages", base.quarantined_log_pages);
    count("salvaged_records", base.salvaged_records);
    phase(0, "analysis", report.timings.analysis);

    // ---- Redo (repeat history) ----
    let t_redo = Instant::now();
    let out = shard_redo(&data, &doublewrite, a.redo, workers)?;
    let (mut pages, mut quarantined) = (out.pages, out.quarantined);
    let replayed = out.per_worker.iter().map(|w| w.pages).sum::<u64>() - quarantined.len() as u64;
    let base = &mut report.base;
    base.redone_updates = out.redone;
    base.reexecuted_ops = out.reexecuted_ops;
    base.torn_pages_repaired = out.torn_repaired;
    base.quarantined_data_pages = quarantined.len() as u64;
    report.per_worker = out.per_worker;
    report.timings.redo = t_redo.elapsed();
    count("redone_updates", out.redone);
    count("reexecuted_ops", out.reexecuted_ops);
    count("pages_replayed", replayed);
    phase(1, "redo", report.timings.redo);

    // ---- Undo losers (serial) ----
    let t_undo = Instant::now();
    // analysis kept undo candidates for losers only
    let mut losers: Vec<_> = a.updates_by_txn.into_iter().collect();
    losers.sort_unstable_by_key(|&(t, _)| t);
    report.base.loser_txns = losers.iter().map(|&(t, _)| t).collect();

    let mut next_lsn = a.max_lsn + 1;
    for (loser, mut cands) in losers {
        cands.retain(|(_, c)| !a.compensated.contains(&c.new_lsn.0));
        cands.sort_by_key(|(_, c)| std::cmp::Reverse(c.new_lsn));
        let mut last_stream = None;
        for (stream, cand) in &cands {
            if quarantined.contains(&cand.page) {
                // the page is unreadable either way; undoing onto a fresh
                // frame would invent contents for the untouched bytes
                continue;
            }
            if cand.offset as usize + cand.before.len() > rmdb_storage::PAYLOAD_SIZE {
                return Err(WalError::Storage(StorageError::Protocol(
                    "log fragment exceeds page payload",
                )));
            }
            // A page is missing from the map when redo left it unchanged
            // (dropped it after skipping every unit) or when the candidate
            // lies behind the checkpoint bound, where the bounded redo list
            // never loaded it: either way start from its home image.
            let page = match pages.entry(cand.page) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(slot) => {
                    let base = &mut report.base;
                    match load_redo_page(&data, &doublewrite, cand.page, false, None)? {
                        PageLoad::Ready(p, origin) => {
                            base.torn_pages_repaired += u64::from(origin == Origin::Repaired);
                            slot.insert(p)
                        }
                        PageLoad::Current => unreachable!("undo loads with no cover"),
                        PageLoad::Quarantined => {
                            base.quarantined_data_pages += 1;
                            quarantined.insert(cand.page);
                            continue;
                        }
                    }
                }
            };
            let new_lsn = Lsn(next_lsn);
            next_lsn += 1;
            cand.revert(page);
            page.lsn = new_lsn;
            report.base.undone_updates += 1;
            log.append_to(*stream, &cand.compensation(loser, new_lsn))?;
            last_stream = Some(*stream);
        }
        log.append_to(last_stream.unwrap_or(0), &LogRecord::Abort { txn: loser })?;
    }
    report.timings.undo = t_undo.elapsed();
    count("undone_updates", report.base.undone_updates);
    count("torn_pages_repaired", report.base.torn_pages_repaired);
    count("quarantined_data_pages", report.base.quarantined_data_pages);
    phase(2, "undo", report.timings.undo);

    // ---- Durable finish: log first, then data, then truncation ----
    let t_flush = Instant::now();
    log.force_all()?;
    for (id, page) in &pages {
        data.write_page_verified(id.0, page)?;
        report.base.pages_written += 1;
    }
    for (stream, bound) in a.bounds.iter().enumerate() {
        if let Some(frame) = bound {
            log.truncate_stream_to(stream, *frame)?;
            report.truncated_streams += 1;
        }
    }
    report.timings.flush = t_flush.elapsed();
    report.timings.total = t_start.elapsed();
    let log_retries: u64 = (0..log.n_streams())
        .map(|i| retries(log.stream(i).disk()))
        .sum();
    report.base.retried_ios = retries(&data) + log_retries - retries_before;
    count("pages_written", report.base.pages_written);
    count("retried_ios", report.base.retried_ios);
    phase(3, "flush", report.timings.flush);
    obs.histogram(&format!("{}.total_us", run.metrics))
        .record(report.timings.total.as_micros() as u64);

    let db = WalDb::from_parts(cfg, data, log, a.max_txn + 1, next_lsn);
    Ok((db, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{LogMode, WalDb};
    use crate::select::SelectionPolicy;

    fn cfg(streams: usize) -> WalConfig {
        WalConfig {
            data_pages: 32,
            pool_frames: 8,
            log_streams: streams,
            ..WalConfig::default()
        }
    }

    fn read_committed(db: &mut WalDb, page: u64, offset: usize, len: usize) -> Vec<u8> {
        let t = db.begin();
        let v = db.read(t, page, offset, len).unwrap();
        db.commit(t).unwrap();
        v
    }

    #[test]
    fn committed_txn_survives_crash() {
        let mut db = WalDb::new(cfg(3));
        let t = db.begin();
        db.write(t, 5, 0, b"durable").unwrap();
        db.commit(t).unwrap();
        let (mut db2, report) = WalDb::recover(db.crash_image(), cfg(3)).unwrap();
        assert_eq!(read_committed(&mut db2, 5, 0, 7), b"durable");
        assert_eq!(report.committed_txns.len(), 1);
        assert!(report.loser_txns.is_empty());
    }

    #[test]
    fn uncommitted_txn_disappears() {
        let mut db = WalDb::new(cfg(2));
        let t0 = db.begin();
        db.write(t0, 1, 0, b"base").unwrap();
        db.commit(t0).unwrap();
        let t = db.begin();
        db.write(t, 1, 0, b"junk").unwrap();
        // force the log so the loser's fragments are durable — recovery
        // must still roll them back
        let _ = t;
        let (mut db2, report) = WalDb::recover(db.crash_image(), cfg(2)).unwrap();
        assert_eq!(read_committed(&mut db2, 1, 0, 4), b"base");
        assert!(report.committed_txns.contains(&t0));
    }

    #[test]
    fn stolen_dirty_page_of_loser_is_undone() {
        // Tiny pool forces the loser's dirty page onto the data disk
        // (STEAL) before the crash; recovery must restore the base value.
        let mut db = WalDb::new(WalConfig {
            data_pages: 32,
            pool_frames: 2,
            log_streams: 2,
            ..WalConfig::default()
        });
        let setup = db.begin();
        db.write(setup, 0, 0, b"base0").unwrap();
        db.commit(setup).unwrap();
        db.checkpoint().unwrap();

        let loser = db.begin();
        db.write(loser, 0, 0, b"evil0").unwrap();
        db.write(loser, 1, 0, b"evil1").unwrap();
        db.write(loser, 2, 0, b"evil2").unwrap(); // evictions happen here
        let image = db.crash_image();
        // prove the steal actually happened: some "evil" page is on disk
        let stolen = (0..3).any(|p| {
            image
                .data
                .read_page(p)
                .map(|pg| pg.read_at(0, 4) == b"evil")
                .unwrap_or(false)
        });
        assert!(stolen, "test setup: a dirty loser page must reach disk");

        let (mut db2, report) = WalDb::recover(image, cfg(2)).unwrap();
        assert_eq!(read_committed(&mut db2, 0, 0, 5), b"base0");
        assert_eq!(read_committed(&mut db2, 1, 0, 5), vec![0u8; 5]);
        assert_eq!(report.loser_txns, vec![loser]);
        assert!(report.undone_updates >= 1);
    }

    #[test]
    fn fragments_scattered_across_streams_recover_without_merging() {
        let mut db = WalDb::new(WalConfig {
            data_pages: 32,
            pool_frames: 16,
            log_streams: 4,
            policy: SelectionPolicy::Cyclic,
            ..WalConfig::default()
        });
        let t = db.begin();
        for page in 0..8 {
            db.write_via(page as usize, t, page, 0, format!("pg{page:02}").as_bytes())
                .unwrap();
        }
        db.commit(t).unwrap();
        let (mut db2, report) = WalDb::recover(db.crash_image(), cfg(4)).unwrap();
        for page in 0..8 {
            assert_eq!(
                read_committed(&mut db2, page, 0, 4),
                format!("pg{page:02}").into_bytes()
            );
        }
        assert_eq!(report.streams_scanned, 4);
        assert_eq!(report.redone_updates, 8);
    }

    #[test]
    fn multiple_updates_same_page_redo_in_lsn_order() {
        let mut db = WalDb::new(cfg(3));
        let t = db.begin();
        db.write(t, 7, 0, b"v1").unwrap();
        db.write(t, 7, 0, b"v2").unwrap();
        db.write(t, 7, 1, b"X").unwrap(); // final: "vX"
        db.commit(t).unwrap();
        let (mut db2, _) = WalDb::recover(db.crash_image(), cfg(3)).unwrap();
        assert_eq!(read_committed(&mut db2, 7, 0, 2), b"vX");
    }

    #[test]
    fn aborted_txn_stays_aborted_after_crash() {
        let mut db = WalDb::new(cfg(2));
        let t0 = db.begin();
        db.write(t0, 3, 0, b"keep").unwrap();
        db.commit(t0).unwrap();
        let t = db.begin();
        db.write(t, 3, 0, b"drop").unwrap();
        db.abort(t).unwrap();
        let (mut db2, _) = WalDb::recover(db.crash_image(), cfg(2)).unwrap();
        assert_eq!(read_committed(&mut db2, 3, 0, 4), b"keep");
    }

    #[test]
    fn winner_and_loser_interleaved_on_different_pages() {
        let mut db = WalDb::new(cfg(3));
        let w = db.begin();
        let l = db.begin();
        db.write(w, 1, 0, b"winner").unwrap();
        db.write(l, 2, 0, b"loser!").unwrap();
        db.write(w, 3, 0, b"also-w").unwrap();
        db.commit(w).unwrap();
        // l never commits
        let (mut db2, report) = WalDb::recover(db.crash_image(), cfg(3)).unwrap();
        assert_eq!(read_committed(&mut db2, 1, 0, 6), b"winner");
        assert_eq!(read_committed(&mut db2, 2, 0, 6), vec![0u8; 6]);
        assert_eq!(read_committed(&mut db2, 3, 0, 6), b"also-w");
        assert_eq!(report.loser_txns, vec![l]);
    }

    #[test]
    fn sequential_winners_on_same_page() {
        let mut db = WalDb::new(cfg(2));
        for i in 0..5u8 {
            let t = db.begin();
            db.write(t, 4, i as usize, &[b'a' + i]).unwrap();
            db.commit(t).unwrap();
        }
        let (mut db2, _) = WalDb::recover(db.crash_image(), cfg(2)).unwrap();
        assert_eq!(read_committed(&mut db2, 4, 0, 5), b"abcde");
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut db = WalDb::new(cfg(2));
        let t0 = db.begin();
        db.write(t0, 1, 0, b"base").unwrap();
        db.commit(t0).unwrap();
        let l = db.begin();
        db.write(l, 1, 0, b"lost").unwrap();
        // crash, recover, crash during/after recovery, recover again
        let (db2, _) = WalDb::recover(db.crash_image(), cfg(2)).unwrap();
        let (mut db3, report) = WalDb::recover(db2.crash_image(), cfg(2)).unwrap();
        assert_eq!(read_committed(&mut db3, 1, 0, 4), b"base");
        // second recovery must not undo again (compensations durable)
        assert_eq!(report.undone_updates, 0, "idempotent undo");
    }

    #[test]
    fn checkpoint_bounds_recovery_work() {
        let mut db = WalDb::new(cfg(2));
        for i in 0..10 {
            let t = db.begin();
            db.write(t, i, 0, b"bulk").unwrap();
            db.commit(t).unwrap();
        }
        db.checkpoint().unwrap();
        let t = db.begin();
        db.write(t, 11, 0, b"tail").unwrap();
        db.commit(t).unwrap();
        let (mut db2, report) = WalDb::recover(db.crash_image(), cfg(2)).unwrap();
        assert!(
            report.records_scanned <= 4,
            "checkpoint must truncate the scan, saw {}",
            report.records_scanned
        );
        assert_eq!(read_committed(&mut db2, 0, 0, 4), b"bulk");
        assert_eq!(read_committed(&mut db2, 11, 0, 4), b"tail");
    }

    #[test]
    fn physical_logging_recovers_identically() {
        let mk = || WalConfig {
            log_mode: LogMode::Physical,
            ..cfg(2)
        };
        let mut db = WalDb::new(mk());
        let t = db.begin();
        db.write(t, 1, 50, b"phys").unwrap();
        db.commit(t).unwrap();
        let l = db.begin();
        db.write(l, 1, 50, b"gone").unwrap();
        let (mut db2, _) = WalDb::recover(db.crash_image(), mk()).unwrap();
        assert_eq!(read_committed(&mut db2, 1, 50, 4), b"phys");
    }

    #[test]
    fn unforced_commit_tail_means_loser() {
        // A transaction whose commit record was appended but the home
        // stream never forced is a loser — verify via a hand-built image.
        let mut db = WalDb::new(cfg(1));
        let t0 = db.begin();
        db.write(t0, 1, 0, b"base").unwrap();
        db.commit(t0).unwrap();
        let t = db.begin();
        db.write(t, 1, 0, b"half").unwrap();
        // Simulate "commit in progress": a checkpoint makes the fragment
        // (and even the dirty page) durable, but no commit record exists
        // ⇒ the crash image has a durable update without a commit.
        db.checkpoint().unwrap();
        let image = db.crash_image();
        assert_eq!(image.data.read_page(1).unwrap().read_at(0, 4), b"half");
        let (mut db2, report) = WalDb::recover(image, cfg(1)).unwrap();
        assert_eq!(read_committed(&mut db2, 1, 0, 4), b"base");
        assert!(report.loser_txns.contains(&t));
    }

    #[test]
    fn torn_data_page_repaired_under_physical_logging() {
        let mk = || WalConfig {
            log_mode: LogMode::Physical,
            log_frames: 1 << 14,
            ..cfg(2)
        };
        let mut db = WalDb::new(mk());
        let t = db.begin();
        db.write(t, 4, 0, b"first").unwrap();
        db.write(t, 4, 100, b"second").unwrap();
        db.commit(t).unwrap();
        // force the page to disk so there is something to tear
        db.flush_all().unwrap();
        let mut image = db.crash_image();
        assert!(image.data.is_allocated(4));
        // tear the data page: half the frame is stale
        let mut fresh = image.data.read_page(4).unwrap();
        fresh.write_at(0, b"newer");
        fresh.write_at(3000, b"tail-change"); // beyond the cut point
        fresh.lsn = rmdb_storage::Lsn(999);
        image
            .data
            .write_partial(4, &fresh.to_frame(), 2000)
            .unwrap();
        assert!(image.data.read_page(4).is_err(), "page must be torn");

        let (mut db2, report) = WalDb::recover(image, mk()).unwrap();
        assert_eq!(report.torn_pages_repaired, 1);
        assert_eq!(read_committed(&mut db2, 4, 0, 5), b"first");
        assert_eq!(read_committed(&mut db2, 4, 100, 6), b"second");
    }

    #[test]
    fn torn_data_page_repaired_from_doublewrite_under_logical_logging() {
        // logical fragments cannot rebuild a page from nothing, but every
        // home write parks a verified image in the doublewrite buffer first
        let mut db = WalDb::new(cfg(2));
        let t = db.begin();
        db.write(t, 4, 0, b"data").unwrap();
        db.commit(t).unwrap();
        db.flush_all().unwrap();
        let mut image = db.crash_image();
        let page = image.data.read_page(4).unwrap();
        // make the frame actually differ across the cut so the checksum fails
        let mut other = page.clone();
        other.write_at(0, b"XXXX");
        other.write_at(3000, b"YYYY");
        image
            .data
            .write_partial(4, &other.to_frame(), 2000)
            .unwrap();
        assert!(image.data.read_page(4).is_err());
        let (mut db2, report) = WalDb::recover(image, cfg(2)).unwrap();
        assert_eq!(report.torn_pages_repaired, 1);
        assert_eq!(report.quarantined_data_pages, 0);
        assert_eq!(read_committed(&mut db2, 4, 0, 4), b"data");
    }

    #[test]
    fn torn_data_page_without_doublewrite_is_quarantined() {
        // with the doublewrite buffer disabled and only logical fragments,
        // a torn page cannot be rebuilt: recovery quarantines it (typed
        // error on read) instead of panicking or inventing contents
        let mk = || WalConfig {
            dw_slots: 0,
            ..cfg(2)
        };
        let mut db = WalDb::new(mk());
        let t = db.begin();
        db.write(t, 4, 0, b"gone").unwrap();
        db.write(t, 5, 0, b"fine").unwrap();
        db.commit(t).unwrap();
        db.flush_all().unwrap();
        let mut image = db.crash_image();
        let page = image.data.read_page(4).unwrap();
        let mut other = page.clone();
        other.write_at(0, b"XXXX");
        other.write_at(3000, b"YYYY");
        image
            .data
            .write_partial(4, &other.to_frame(), 2000)
            .unwrap();
        assert!(image.data.read_page(4).is_err());

        let (mut db2, report) = WalDb::recover(image, mk()).unwrap();
        assert_eq!(report.quarantined_data_pages, 1);
        assert_eq!(report.torn_pages_repaired, 0);
        // the quarantined page reads as a typed storage error, not a panic
        let q = db2.begin();
        assert!(matches!(
            db2.read(q, 4, 0, 4),
            Err(WalError::Storage(
                rmdb_storage::StorageError::Corrupt { .. }
            ))
        ));
        // untouched pages are unaffected
        assert_eq!(db2.read(q, 5, 0, 4).unwrap(), b"fine");
    }

    #[test]
    fn durable_finish_counts_its_write_retries() {
        use rmdb_storage::{FaultInjector, FaultPlan};
        for workers in [1, 4] {
            let mut db = WalDb::new(cfg(2));
            let t = db.begin();
            db.write(t, 5, 0, b"redo me").unwrap();
            db.commit(t).unwrap();
            let mut image = db.crash_image();
            // data write 0 is the durable finish's first home write
            let plan = FaultPlan::new().transient_write(0, 1);
            image.data.attach_faults(FaultInjector::handle(plan));
            let obs = Registry::new();
            let run = EngineRun {
                workers,
                bounded: true,
                metrics: "restart",
            };
            let (mut db2, report) = run_engine(image, cfg(2), run, &obs).unwrap();
            let retried = report.base.retried_ios;
            assert!(retried >= 1, "K={workers}: the write retry went uncounted");
            let counted = obs.snapshot().counter("restart.retried_ios");
            assert_eq!(counted, Some(retried), "K={workers}");
            assert_eq!(read_committed(&mut db2, 5, 0, 7), b"redo me");
        }
    }

    /// Recover `image` at K=1, returning the engine, the report and the
    /// `recovery.pages_replayed` counter.
    fn recover_counted(image: CrashImage, cfg: WalConfig) -> (WalDb, RecoveryReport, u64) {
        let obs = Registry::new();
        let (db, report) = recover_observed(image, cfg, &obs).unwrap();
        let replayed = obs.snapshot().counter("recovery.pages_replayed");
        (db, report, replayed.unwrap_or(0))
    }

    #[test]
    fn page_home_after_its_last_commit_is_examined_not_written() {
        let mut db = WalDb::new(cfg(2));
        let t = db.begin();
        db.write(t, 4, 0, b"home").unwrap();
        db.write(t, 5, 0, b"old!").unwrap();
        db.commit(t).unwrap();
        // page 4 reaches home after its last commit; page 5 before its last
        db.flush_all().unwrap();
        let t = db.begin();
        db.write(t, 5, 0, b"pool").unwrap();
        db.commit(t).unwrap();
        let image = db.crash_image();
        let home = image.data.read_frame(4).unwrap();
        let (mut db2, report, replayed) = recover_counted(image, cfg(2));
        assert_eq!(replayed, 2, "redo examines both pages");
        assert_eq!(report.redone_updates, 1);
        assert_eq!(report.pages_written, 1, "only page 5 changed");
        assert_eq!(db2.data_disk().writes(), report.pages_written);
        assert!(db2.data_disk().read_frame(4).unwrap() == home);
        assert_eq!(read_committed(&mut db2, 4, 0, 4), b"home");
        assert_eq!(read_committed(&mut db2, 5, 0, 4), b"pool");
    }

    #[test]
    fn torn_page_repaired_with_nothing_to_redo_is_still_written() {
        let mut db = WalDb::new(cfg(2));
        let t = db.begin();
        db.write(t, 4, 0, b"data").unwrap();
        db.commit(t).unwrap();
        db.flush_all().unwrap();
        let mut image = db.crash_image();
        let mut other = image.data.read_page(4).unwrap();
        other.write_at(0, b"XXXX");
        other.write_at(3000, b"YYYY");
        image
            .data
            .write_partial(4, &other.to_frame(), 2000)
            .unwrap();
        let tear_writes = image.data.writes();
        let (db2, report, replayed) = recover_counted(image, cfg(2));
        assert_eq!(replayed, 1);
        assert_eq!(report.torn_pages_repaired, 1);
        assert_eq!(report.redone_updates, 0, "the doublewrite copy is current");
        assert_eq!(report.pages_written, 1, "the repair must reach home");
        assert_eq!(db2.data_disk().writes() - tear_writes, 1);
        let home = db2.data_disk().read_page(4).expect("home frame repaired");
        assert_eq!(home.read_at(0, 4), b"data");
    }

    #[test]
    fn loser_page_redo_left_unchanged_is_reverted_by_undo_and_written_once() {
        let mut db = WalDb::new(cfg(1));
        let t0 = db.begin();
        db.write(t0, 1, 0, b"base").unwrap();
        db.commit(t0).unwrap();
        let loser = db.begin();
        db.write(loser, 1, 0, b"evil").unwrap();
        // the loser's update reaches home, and no checkpoint bounds redo
        db.flush_all().unwrap();
        let image = db.crash_image();
        assert_eq!(image.data.read_page(1).unwrap().read_at(0, 4), b"evil");
        let (mut db2, report, replayed) = recover_counted(image, cfg(1));
        assert_eq!(replayed, 1, "redo examines the page");
        assert_eq!(report.redone_updates, 0, "and has nothing to apply");
        assert_eq!(report.loser_txns, vec![loser]);
        assert_eq!(report.undone_updates, 1);
        assert_eq!(report.pages_written, 1);
        assert_eq!(db2.data_disk().writes(), 1, "written once");
        assert_eq!(
            db2.data_disk().read_page(1).unwrap().read_at(0, 4),
            b"base",
            "the reverted image is home"
        );
        assert_eq!(read_committed(&mut db2, 1, 0, 4), b"base");
    }

    #[test]
    fn overrunning_install_is_refused_even_when_home_covers_it() {
        use crate::stream::LogStream;
        use rmdb_storage::{PageId, PAYLOAD_SIZE};
        for workers in [1, 4] {
            let mut db = WalDb::new(cfg(1));
            let t = db.begin();
            db.write(t, 3, 0, b"base").unwrap();
            db.commit(t).unwrap();
            db.flush_all().unwrap();
            let mut image = db.crash_image();
            // the home frame's LSN covers every unit the log holds for it
            let mut home = image.data.read_page(3).unwrap();
            home.lsn = Lsn(100);
            image.data.write_page(3, &home).unwrap();
            let mut log = LogStream::open(image.logs.remove(0)).unwrap();
            let overrun = LogRecord::Update {
                txn: 99,
                page: PageId(3),
                prev_lsn: Lsn(1),
                new_lsn: Lsn(50),
                offset: PAYLOAD_SIZE as u32 - 2,
                before: vec![0; 4],
                after: vec![1; 4],
            };
            log.append(&overrun).unwrap();
            log.append(&LogRecord::Commit { txn: 99 }).unwrap();
            log.force().unwrap();
            image.logs.push(log.into_disk());
            let run = EngineRun {
                workers,
                bounded: true,
                metrics: "restart",
            };
            let got = run_engine(image, cfg(1), run, &Registry::new()).map(|_| ());
            assert!(
                matches!(got, Err(WalError::Storage(StorageError::Protocol(_)))),
                "K={workers}: an overrunning install must fail, got {got:?}"
            );
        }
    }

    #[test]
    fn recovery_reads_each_redo_page_once() {
        // data reads = doublewrite-slot reads + pages redo examined + pages
        // undo reloaded + the durable finish's read-backs (one per verified
        // write), on a clean image where every page redo examines is
        // allocated at home
        for workers in [1, 4] {
            let mut db = WalDb::new(cfg(2));
            for page in 0..12 {
                let t = db.begin();
                db.write(t, page, 0, b"base").unwrap();
                db.commit(t).unwrap();
            }
            db.flush_all().unwrap();
            // newer commits: some reach home through eviction, some stay
            // in the pool
            for page in 0..6 {
                let t = db.begin();
                db.write(t, page, 8, b"newer").unwrap();
                db.commit(t).unwrap();
            }
            // a loser whose two pages reach home: redo leaves them as they
            // lie, so undo reloads each
            let loser = db.begin();
            db.write(loser, 8, 0, b"evil").unwrap();
            db.write(loser, 9, 0, b"evil").unwrap();
            db.flush_all().unwrap();
            let image = db.crash_image();
            let cfg = cfg(2);
            let dw_reads = (cfg.data_pages..image.data.capacity())
                .filter(|&slot| image.data.is_allocated(slot))
                .count() as u64;
            assert!(dw_reads > 0, "test setup: the doublewrite buffer is used");
            let obs = Registry::new();
            let run = EngineRun {
                workers,
                bounded: true,
                metrics: "restart",
            };
            let (db2, report) = run_engine(image, cfg, run, &obs).unwrap();
            let examined = obs.snapshot().counter("restart.pages_replayed").unwrap();
            assert_eq!(report.base.quarantined_data_pages, 0);
            assert_eq!(report.base.loser_txns, vec![loser]);
            assert_eq!(examined, 12, "K={workers}: redo examines every page");
            let undo_reloads = 2;
            assert_eq!(
                report.base.pages_written, 2,
                "K={workers}: the reverted pages"
            );
            assert_eq!(
                db2.data_disk().reads(),
                dw_reads + examined + undo_reloads + report.base.pages_written,
                "K={workers}: a page read more than once"
            );
        }
    }

    #[test]
    fn empty_image_recovers_to_empty_db() {
        let db = WalDb::new(cfg(2));
        let (mut db2, report) = WalDb::recover(db.crash_image(), cfg(2)).unwrap();
        assert_eq!(report.records_scanned, 0);
        assert_eq!(read_committed(&mut db2, 0, 0, 4), vec![0u8; 4]);
    }
}
