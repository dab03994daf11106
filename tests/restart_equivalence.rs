//! Restart-engine equivalence: the checkpoint-bounded parallel restart
//! must produce **byte-identical** recovered state for every redo worker
//! count K — data disk *and* log disks — and the same data-disk state as
//! unbounded full-log replay ([`WalDb::recover_from_archive`]).
//!
//! The workloads here exercise the interesting structure: fuzzy
//! auto-checkpoints held open by a long-lived drone transaction (so the
//! checkpoint bound is real but never quiescent-truncates the log),
//! aborted transactions, and in-flight losers cut by the crash.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recovery_machines::restart::{restart, RestartConfig};
use recovery_machines::storage::Disk;
use recovery_machines::wal::{LoggingPolicy, SelectionPolicy, WalConfig, WalDb};

const PAGES: u64 = 64;

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

fn cfg(streams: usize, ckpt_every: u64) -> WalConfig {
    WalConfig {
        data_pages: PAGES,
        pool_frames: 8,
        log_streams: streams,
        policy: SelectionPolicy::Cyclic,
        ckpt_every_commits: ckpt_every,
        ..WalConfig::default()
    }
}

/// Build a database mid-flight: a drone transaction pins every fuzzy
/// checkpoint open, `txns` transactions commit or abort, and a loser is
/// left in flight when the crash image is taken.
fn build_crashed(streams: usize, ckpt_every: u64, txns: u64) -> WalDb {
    let mut db = WalDb::new(cfg(streams, ckpt_every));
    let drone = db.begin();
    db.write(drone, PAGES - 1, 0, b"drone")
        .expect("drone write");
    for i in 0..txns {
        let t = db.begin();
        let payload = [(i % 251) as u8; 24];
        db.write(t, i % (PAGES - 2), (i % 8) as usize * 24, &payload)
            .expect("write");
        if i % 7 == 3 {
            db.abort(t).expect("abort");
        } else {
            db.commit(t).expect("commit");
        }
    }
    let loser = db.begin();
    db.write(loser, 1, 0, b"loser in flight")
        .expect("loser write");
    db
}

/// Restart the same image at each K and demand byte-identical outcomes:
/// identical data disks, identical log disks (undo compensations and
/// truncation included), and identical logical reports.
fn assert_k_equivalence(db: &WalDb, streams: usize, ckpt_every: u64, ks: &[usize]) {
    let mut baseline: Option<(recovery_machines::wal::CrashImage, String, usize)> = None;
    for &k in ks {
        let rcfg = RestartConfig { workers: k };
        let (db_k, report) =
            restart(db.crash_image(), cfg(streams, ckpt_every), &rcfg).expect("restart");
        let image = db_k.crash_image();
        let summary = report.logical_summary();
        match &baseline {
            None => baseline = Some((image, summary, k)),
            Some((base, base_summary, base_k)) => {
                assert_eq!(
                    &summary, base_summary,
                    "logical report differs between K={base_k} and K={k}"
                );
                assert_disks_identical(&base.data, &image.data, &format!("data K={base_k}/K={k}"));
                assert_eq!(base.logs.len(), image.logs.len(), "stream count");
                for (i, (la, lb)) in base.logs.iter().zip(&image.logs).enumerate() {
                    assert_disks_identical(la, lb, &format!("log {i} K={base_k}/K={k}"));
                }
            }
        }
    }
}

/// Fast, deterministic K=1 vs K=4 check — the CI smoke target
/// (`scripts/verify.sh` runs exactly this test by name).
#[test]
fn smoke_k1_vs_k4() {
    let db = build_crashed(3, 11, 150);
    assert_k_equivalence(&db, 3, 11, &[1, 4]);
}

/// The bounded engine at K=4 must leave exactly the data-disk state of
/// unbounded full-log replay, checkpoints and all: bounding the scan may
/// skip redo work only when the skipped updates are already home.
#[test]
fn restart_matches_serial_recovery() {
    for (streams, ckpt_every, txns) in [(1, 0, 60), (2, 9, 120), (4, 17, 200)] {
        let db = build_crashed(streams, ckpt_every, txns);
        let image = db.crash_image();
        let (full_db, _) =
            WalDb::recover_from_archive(image.data, image.logs, cfg(streams, ckpt_every))
                .expect("full replay");
        let rcfg = RestartConfig { workers: 4 };
        let (restart_db, report) =
            restart(db.crash_image(), cfg(streams, ckpt_every), &rcfg).expect("restart");
        let what = format!("streams={streams} ckpt_every={ckpt_every}");
        assert_disks_identical(
            &full_db.crash_image().data,
            &restart_db.crash_image().data,
            &what,
        );
        if ckpt_every > 0 {
            assert!(
                report.records_skipped > 0,
                "{what}: checkpointed history produced no bound"
            );
        }
    }
}

/// The durable finish writes exactly the pages recovery changed. At each
/// K: every data frame the restart did not write is byte-identical to the
/// crash image's, every write changed a frame (so the frames that differ
/// number `pages_written`), the recovered payloads are the committed
/// state, and recovering the recovered image again writes no data page.
#[test]
fn restart_writes_home_only_the_pages_it_changed() {
    let mut left_unchanged = 0u64;
    for (streams, ckpt_every, txns) in [(1, 0, 60), (3, 11, 150), (4, 17, 200)] {
        let what = format!("streams={streams} ckpt_every={ckpt_every}");
        let mut twin = build_crashed(streams, ckpt_every, txns);
        for t in twin.active_txns() {
            twin.abort(t).expect("abort in-flight txn");
        }
        let committed = payloads(&mut twin);
        let db = build_crashed(streams, ckpt_every, txns);
        let crashed = db.crash_image().data;
        let mut written_at_k1 = None;
        for k in [1usize, 2, 4] {
            let rcfg = RestartConfig { workers: k };
            let (mut db_k, report) =
                restart(db.crash_image(), cfg(streams, ckpt_every), &rcfg).expect("restart");
            let written = report.base.pages_written;
            let examined: u64 = report.per_worker.iter().map(|w| w.pages).sum();
            left_unchanged += examined.saturating_sub(written);
            assert_eq!(
                db_k.data_disk().writes(),
                written,
                "{what} K={k}: data-disk writes"
            );
            let recovered = db_k.crash_image().data;
            let changed = (0..crashed.capacity())
                .filter(|&a| {
                    crashed.is_allocated(a) != recovered.is_allocated(a)
                        || (crashed.is_allocated(a)
                            && crashed.read_frame(a).ok() != recovered.read_frame(a).ok())
                })
                .count() as u64;
            assert_eq!(changed, written, "{what} K={k}: frames changed vs written");
            assert_eq!(
                *written_at_k1.get_or_insert(written),
                written,
                "{what} K={k}: pages_written differs from K=1"
            );
            assert!(
                payloads(&mut db_k) == committed,
                "{what} K={k}: recovered payloads are not the committed state"
            );
            let (_, again) =
                restart(db_k.crash_image(), cfg(streams, ckpt_every), &rcfg).expect("re-restart");
            assert_eq!(
                again.base.pages_written, 0,
                "{what} K={k}: recovering the recovered image wrote pages"
            );
        }
    }
    assert!(left_unchanged > 0, "no examined page was already home");
}

/// Recovery reads each log frame once: the chain read that reopens a
/// stream is also analysis's scan of it. Per stream, the log disk may
/// serve its home frames plus `SLACK` more reads: the header, the two tail
/// slots, the frame the chain stops at, and the verify reads of the
/// reopen's tail rewrite, the reopen's header write and the durable
/// finish's forced tail (each loser's compensations fit in the tail page).
/// Reading the log a second time would double the home-frame term. The
/// images have no checkpoint, so no truncation runs (a debug build
/// re-scans a stream to check a truncation frame).
#[test]
fn recovery_reads_each_log_frame_once() {
    const SLACK: u64 = 7;
    for streams in [1, 2, 4] {
        let db = build_crashed(streams, 0, 2_000);
        let image = db.crash_image();
        // frames 0..2 are the two header slots and 2..4 the tail slots, so
        // `3..` also counts tail slot 3: one frame of slack per stream
        let home_frames: u64 = image
            .logs
            .iter()
            .map(|d| (3..d.capacity()).filter(|&a| d.is_allocated(a)).count() as u64)
            .sum();
        let budget = home_frames + SLACK * streams as u64;
        assert!(
            2 * home_frames > budget,
            "streams={streams}: log too short for a second read to show"
        );
        let (recovered, report) = WalDb::recover(image, cfg(streams, 0)).expect("recover");
        assert!(
            !report.loser_txns.is_empty(),
            "streams={streams}: no loser to undo"
        );
        let reads: u64 = (0..streams)
            .map(|i| recovered.log().stream(i).disk().reads())
            .sum();
        assert!(
            reads <= budget,
            "streams={streams}: {reads} log reads for {home_frames} home frames"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary stream counts, checkpoint intervals, and workload
    /// sizes, every K ∈ {1, 2, 4, 8} recovers byte-identical state.
    #[test]
    fn workers_are_equivalent_bytewise(
        streams in 1usize..=4,
        ckpt_every in 0u64..24,
        txns in 20u64..160,
    ) {
        let db = build_crashed(streams, ckpt_every, txns);
        assert_k_equivalence(&db, streams, ckpt_every, &[1, 2, 4, 8]);
    }
}

// ---------------------------------------------------------------------------
// Adaptive logging × parallel replay equivalence. Two databases run the
// *same* random workload — one under adaptive command/logical logging
// (recovered by the K-worker restart), one under pure physical fragment
// logging (recovered serially). Re-executing command records in per-page
// LSN order must land exactly the payload bytes that physical after-image
// installation lands; and the restart itself must be byte-identical
// (disks, logs, logical report) for every K ∈ {1,2,4,8}.
//
// The comparison is page *payloads*, not raw disks: deferred capture pins
// pages and allocates commit LSNs differently from fragment logging, so the
// two runs' frame headers legitimately differ — the recovered contents may
// not.
// ---------------------------------------------------------------------------

/// Counter pages (0..16) take `add_u64` bumps; pages 16..PAGES-1 take plain
/// writes; PAGES-1 hosts the in-flight loser.
const EQ_COUNTERS: u64 = 16;

fn mixed_cfg(ckpt_every: u64, logging: LoggingPolicy) -> WalConfig {
    WalConfig {
        logging,
        ..cfg(3, ckpt_every)
    }
}

/// Deterministic mixed workload: the same (seed, txns) pair drives the
/// identical op sequence whatever the logging policy, so two builds are
/// comparable transaction for transaction. Wide (8-page) transactions blow
/// the deferred pin budget and spill to fragments even under command
/// logging; every ninth transaction aborts; a loser is left in flight.
fn build_mixed_crashed(seed: u64, txns: u64, ckpt_every: u64, logging: LoggingPolicy) -> WalDb {
    let mut db = WalDb::new(mixed_cfg(ckpt_every, logging));
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..txns {
        let t = db.begin();
        let wide = rng.gen_bool(0.3);
        let ops = if wide { 8 } else { rng.gen_range(1..4) };
        let mut touched: Vec<u64> = Vec::new();
        for _ in 0..ops {
            let page = if wide || rng.gen_bool(0.5) {
                EQ_COUNTERS + rng.gen_range(0..PAGES - EQ_COUNTERS - 1)
            } else {
                rng.gen_range(0..EQ_COUNTERS)
            };
            if touched.contains(&page) {
                continue;
            }
            touched.push(page);
            if page < EQ_COUNTERS {
                db.add_u64(t, page, 0, rng.gen_range(1..1_000))
                    .expect("add_u64");
            } else {
                let payload = [(i % 251) as u8; 24];
                db.write(t, page, rng.gen_range(0..8usize) * 24, &payload)
                    .expect("write");
            }
        }
        if i % 9 == 4 {
            db.abort(t).expect("abort");
        } else {
            db.commit(t).expect("commit");
        }
    }
    let loser = db.begin();
    db.write(loser, PAGES - 1, 0, b"loser in flight")
        .expect("loser write");
    db
}

/// Every page's full recovered payload.
fn payloads(db: &mut WalDb) -> Vec<Vec<u8>> {
    let t = db.begin();
    let out = (0..PAGES)
        .map(|p| {
            db.read(t, p, 0, recovery_machines::storage::PAYLOAD_SIZE)
                .expect("read recovered page")
        })
        .collect();
    db.abort(t).expect("read-only abort");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn adaptive_dag_replay_matches_serial_physical_replay(
        seed in any::<u64>(),
        ckpt_every in 0u64..16,
        txns in 30u64..140,
    ) {
        let adaptive = LoggingPolicy::Adaptive;
        let db = build_mixed_crashed(seed, txns, ckpt_every, adaptive);

        // page-sharded redo of the mixed log is byte-identical for every
        // worker count
        let mut k1: Option<WalDb> = None;
        let mut baseline: Option<(recovery_machines::wal::CrashImage, String)> = None;
        for k in [1usize, 2, 4, 8] {
            let rcfg = RestartConfig { workers: k };
            let (db_k, report) =
                restart(db.crash_image(), mixed_cfg(ckpt_every, adaptive), &rcfg)
                    .expect("restart");
            let image = db_k.crash_image();
            let summary = report.logical_summary();
            match &baseline {
                None => {
                    baseline = Some((image, summary));
                    k1 = Some(db_k);
                }
                Some((base, base_summary)) => {
                    prop_assert_eq!(&summary, base_summary, "logical report differs at K={}", k);
                    assert_disks_identical(&base.data, &image.data, &format!("data K=1/K={k}"));
                    for (i, (la, lb)) in base.logs.iter().zip(&image.logs).enumerate() {
                        assert_disks_identical(la, lb, &format!("log {i} K=1/K={k}"));
                    }
                }
            }
        }

        // the same workload under pure physical logging, serially recovered:
        // command re-execution and after-image installation agree on every
        // payload byte of every page
        let physical = build_mixed_crashed(seed, txns, ckpt_every, LoggingPolicy::Fragments);
        let (mut serial, _) = WalDb::recover(
            physical.crash_image(),
            mixed_cfg(ckpt_every, LoggingPolicy::Fragments),
        )
        .expect("serial physical recover");
        let mut adaptive_db = k1.expect("K=1 restart ran");
        let (cmd, phys) = (payloads(&mut adaptive_db), payloads(&mut serial));
        for (page, (c, p)) in cmd.iter().zip(&phys).enumerate() {
            prop_assert!(
                c == p,
                "page {} payload diverged between adaptive replay and serial physical replay",
                page
            );
        }
    }
}
