//! Crashpoint sweep: every architecture survives a *device-level* fault
//! storm — torn writes, lost writes, transient I/O errors, read bit flips —
//! composed with a crash after the k-th frame write, for many seeds and
//! many crashpoints, with zero divergence from a committed-state oracle.
//!
//! This goes beyond `crash_consistency.rs` (which crashes only between
//! transaction bursts, on a clean device): here the crash lands in the
//! middle of whatever multi-frame protocol the engine happens to be
//! running — half-written shadow tables, torn commit-record writes,
//! partially installed no-undo directories — and the device lies on the
//! way down.
//!
//! Oracle semantics under faults: the engines absorb every *transient*
//! fault internally (verified writes and retried reads, with more retries
//! than any seeded fault's attempt budget), so the only error a
//! transaction can observe is the crash itself. A transaction whose
//! `commit` returns the crash error is *ambiguous* — the commit point may
//! or may not have hit the platter — so each page it wrote may legally
//! read as either the old or the new value after recovery. Every other
//! outcome is strict.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recovery_machines::core::PageStore;
use recovery_machines::difffile::{
    CrashSite, DiffConfig, DiffDb, LsmConfig, LsmError, LsmRecoveryReport, LsmStore, ScanStrategy,
};
use recovery_machines::shadow::{
    NoRedoStore, NoUndoStore, OverwriteConfig, ShadowConfig, ShadowPager, VersionConfig,
    VersionStore,
};
use recovery_machines::storage::{
    BackendKind, Disk, FaultInjector, FaultPlan, StorageError, FRAME_SIZE,
};
use recovery_machines::wal::{LogMode, SelectionPolicy, WalConfig, WalDb};
use std::collections::{BTreeMap, HashMap};

const PAGES: u64 = 16;
const SLOT: usize = 24;
const SEEDS: [u64; 8] = [1, 2, 7, 11, 42, 1985, 4242, 31337];
const CRASHPOINTS: [u64; 5] = [3, 17, 41, 97, 211];
/// Reduced grid for the real-file backend: every write is a pwrite and
/// every force an fdatasync, so the full grid would dominate CI time
/// without exercising anything the three-by-three doesn't.
const FILE_SEEDS: [u64; 3] = [7, 1985, 31337];
const FILE_CRASHPOINTS: [u64; 3] = [17, 41, 97];

/// Acceptable values per page. One candidate = strict; two = the page was
/// written by the single ambiguous (crash-interrupted) commit.
type Oracle = HashMap<u64, Vec<Vec<u8>>>;

fn zeros() -> Vec<Vec<u8>> {
    vec![vec![0u8; SLOT]]
}

/// Run transactions until the crash surfaces (or `max_ops` run out).
/// Returns true once an operation observed the crash.
fn faulty_storm<S: PageStore>(
    store: &mut S,
    oracle: &mut Oracle,
    rng: &mut StdRng,
    max_ops: usize,
) -> bool {
    for _ in 0..max_ops {
        let txn = store.begin();
        let mut staged: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut doomed = false;
        for _ in 0..rng.gen_range(1..4) {
            let page = rng.gen_range(0..PAGES);
            if staged.iter().any(|(p, _)| *p == page) {
                continue;
            }
            let mut data = vec![0u8; SLOT];
            rng.fill(&mut data[..]);
            if let Err(e) = store.write(txn, page, 0, &data) {
                // loser: nothing it wrote may survive recovery
                eprintln!("[storm] write error: {e}");
                doomed = true;
                break;
            }
            staged.push((page, data));
        }
        if doomed {
            return true;
        }
        if rng.gen_bool(0.7) {
            match store.commit(txn) {
                Ok(()) => {
                    for (page, data) in staged {
                        oracle.insert(page, vec![data]);
                    }
                }
                Err(e) => {
                    // ambiguous: the commit point may or may not be durable
                    eprintln!("[storm] commit error: {e}");
                    for (page, data) in staged {
                        oracle.entry(page).or_insert_with(zeros).push(data);
                    }
                    return true;
                }
            }
        } else if let Err(e) = store.abort(txn) {
            eprintln!("[storm] abort error: {e}");
            return true;
        }
    }
    false
}

/// Check every page reads as one of its acceptable values, then pin the
/// oracle to what the recovered store actually holds (recovery resolved
/// any ambiguity one way or the other — durably).
fn verify_and_pin<S: PageStore>(store: &mut S, oracle: &mut Oracle, context: &str) {
    let txn = store.begin();
    for page in 0..PAGES {
        let got = store.read(txn, page, 0, SLOT).expect("read after recovery");
        let acceptable = oracle.get(&page).cloned().unwrap_or_else(zeros);
        assert!(
            acceptable.contains(&got),
            "{} [{context}]: page {page} diverged: got {got:?}, acceptable {acceptable:?}",
            store.architecture()
        );
        oracle.insert(page, vec![got]);
    }
    store.abort(txn).expect("read-only abort");
}

/// Sweep one architecture: seeded device faults + crash after write k,
/// for every (seed, crashpoint) pair.
macro_rules! sweep_test {
    ($name:ident, $ty:ty, $cfg:expr, $new:expr, $recover:expr) => {
        sweep_test!($name, $ty, $cfg, $new, $recover, SEEDS, CRASHPOINTS);
    };
    ($name:ident, $ty:ty, $cfg:expr, $new:expr, $recover:expr,
     $seeds:expr, $crashpoints:expr) => {
        #[test]
        fn $name() {
            let mut crash_hits = 0usize;
            for seed in $seeds {
                for crashpoint in $crashpoints {
                    let cfg = $cfg;
                    let mut rng = StdRng::seed_from_u64(seed ^ (crashpoint << 32));
                    #[allow(clippy::redundant_closure_call)]
                    let mut store: $ty = ($new)(cfg.clone());
                    let plan = FaultPlan::seeded(seed, 1 << 20).crash_after_write(crashpoint);
                    let handle = FaultInjector::handle(plan);
                    store.attach_faults(&handle);

                    let mut oracle = Oracle::new();
                    let errored = faulty_storm(&mut store, &mut oracle, &mut rng, 600);
                    let (injector_crashed, writes_seen) = {
                        let inj = handle.lock();
                        (inj.crashed(), inj.writes())
                    };
                    // The storm must stop on an error: usually the
                    // scheduled crash, occasionally an exhausted retry on a
                    // clustered run of seeded transients. Either way the
                    // platter is frozen mid-protocol — exactly what
                    // recovery must survive.
                    assert!(
                        errored,
                        "seed {seed} crashpoint {crashpoint}: storm ran dry without an \
                         error (writes seen: {writes_seen})"
                    );
                    crash_hits += usize::from(injector_crashed);

                    // recovery must succeed on whatever the device holds
                    #[allow(clippy::redundant_closure_call)]
                    let mut store: $ty = ($recover)(&store, cfg.clone());
                    let ctx = format!("seed {seed} crashpoint {crashpoint}");
                    verify_and_pin(&mut store, &mut oracle, &ctx);

                    // and the engine still works on the clean device
                    let crashed = faulty_storm(&mut store, &mut oracle, &mut rng, 10);
                    assert!(!crashed, "{ctx}: error after recovery on a clean device");
                    verify_and_pin(&mut store, &mut oracle, &format!("{ctx} post"));
                }
            }
            // the sweep must actually sweep: the scheduled crash has to
            // fire in the large majority of runs
            let grid = $seeds.len() * $crashpoints.len();
            assert!(
                crash_hits * 2 >= grid,
                "scheduled crash fired in only {crash_hits}/{grid} runs"
            );
        }
    };
}

// The same storm on a real file: every platter (data disk, doublewrite
// slots, log streams, crash-image copies) is an actual temp file with
// pwrite/fdatasync durability. Torn writes land real prefixes in the file;
// recovery runs against a file copy. Cleanup needs no scaffolding: a
// `FileDisk` deletes its backing file on drop, including during a panic
// unwind, so a failing sweep leaves no litter in the temp dir.
sweep_test!(
    wal_logical_survives_fault_sweep_on_filedisk,
    WalDb,
    WalConfig {
        data_pages: PAGES,
        pool_frames: 3,
        log_streams: 2,
        policy: SelectionPolicy::Cyclic,
        backend: BackendKind::file(),
        ..WalConfig::default()
    },
    WalDb::new,
    |db: &WalDb, cfg| WalDb::recover(db.crash_image(), cfg).expect("recover").0,
    FILE_SEEDS,
    FILE_CRASHPOINTS
);

sweep_test!(
    shadow_pager_survives_fault_sweep_on_filedisk,
    ShadowPager,
    ShadowConfig {
        logical_pages: PAGES,
        data_frames: PAGES * 4,
        backend: BackendKind::file(),
        ..ShadowConfig::default()
    },
    |cfg| ShadowPager::new(cfg).expect("new"),
    |db: &ShadowPager, cfg| ShadowPager::recover(db.crash_image(), cfg)
        .expect("recover")
        .0,
    FILE_SEEDS,
    FILE_CRASHPOINTS
);

sweep_test!(
    wal_logical_survives_fault_sweep,
    WalDb,
    WalConfig {
        data_pages: PAGES,
        pool_frames: 3,
        log_streams: 3,
        policy: SelectionPolicy::Cyclic,
        ..WalConfig::default()
    },
    WalDb::new,
    |db: &WalDb, cfg| WalDb::recover(db.crash_image(), cfg).expect("recover").0
);

sweep_test!(
    wal_physical_survives_fault_sweep,
    WalDb,
    WalConfig {
        data_pages: PAGES,
        pool_frames: 3,
        log_streams: 2,
        log_mode: LogMode::Physical,
        log_frames: 1 << 14,
        ..WalConfig::default()
    },
    WalDb::new,
    |db: &WalDb, cfg| WalDb::recover(db.crash_image(), cfg).expect("recover").0
);

sweep_test!(
    shadow_pager_survives_fault_sweep,
    ShadowPager,
    ShadowConfig {
        logical_pages: PAGES,
        data_frames: PAGES * 4,
        ..ShadowConfig::default()
    },
    |cfg| ShadowPager::new(cfg).expect("new"),
    |db: &ShadowPager, cfg| ShadowPager::recover(db.crash_image(), cfg)
        .expect("recover")
        .0
);

sweep_test!(
    version_store_survives_fault_sweep,
    VersionStore,
    VersionConfig {
        logical_pages: PAGES,
    },
    VersionStore::new,
    |db: &VersionStore, cfg| VersionStore::recover(db.crash_image(), cfg)
        .expect("recover")
        .0
);

sweep_test!(
    no_undo_survives_fault_sweep,
    NoUndoStore,
    OverwriteConfig {
        logical_pages: PAGES,
        scratch_slots: 16,
    },
    NoUndoStore::new,
    |db: &NoUndoStore, cfg| NoUndoStore::recover(db.crash_image(), cfg)
        .expect("recover")
        .0
);

sweep_test!(
    no_redo_survives_fault_sweep,
    NoRedoStore,
    OverwriteConfig {
        logical_pages: PAGES,
        scratch_slots: 16,
    },
    NoRedoStore::new,
    |db: &NoRedoStore, cfg| NoRedoStore::recover(db.crash_image(), cfg)
        .expect("recover")
        .0
);

/// Cuts for a sweep that tears the crash write itself: inside the frame
/// header, inside the first entries, and mid-payload.
const CRASH_CUTS: [usize; 3] = [20, 100, 2000];

/// Differential files are tuple-granular, not a [`PageStore`], so they get
/// their own sweep: same seeded device faults, same crashpoints, with a
/// key → value oracle over `R = (B ∪ A) − D` instead of a page oracle.
/// Parameterized over the block-device backend so the identical storm
/// runs on `MemDisk` and on a real pwrite/fdatasync file. `tear_crash`
/// also tears the write the crash follows — the one write a seeded plan
/// tears only by chance.
fn difffile_sweep(backend: BackendKind, seeds: &[u64], crashpoints: &[u64], tear_crash: bool) {
    let mut crash_hits = 0usize;
    for &seed in seeds {
        for &crashpoint in crashpoints {
            let cfg = DiffConfig {
                backend: backend.clone(),
                ..DiffConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(seed ^ (crashpoint << 32));
            let mut db = DiffDb::new(cfg.clone());
            let mut plan = FaultPlan::seeded(seed, 1 << 20).crash_after_write(crashpoint);
            if tear_crash {
                let cut = CRASH_CUTS[((seed + crashpoint) % 3) as usize];
                plan = plan.tear_write(crashpoint, cut);
            }
            let handle = FaultInjector::handle(plan);
            db.attach_faults(&handle);

            // committed tuple state, plus the one ambiguous
            // (crash-interrupted) commit's net effect
            let mut committed: HashMap<u64, Option<Vec<u8>>> = HashMap::new();
            let mut ambiguous: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
            let mut errored = false;
            'storm: for _ in 0..600 {
                let t = db.begin();
                let mut staged: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
                for _ in 0..rng.gen_range(1..4) {
                    let key = rng.gen_range(0..48u64);
                    if staged.iter().any(|(k, _)| *k == key) {
                        continue;
                    }
                    if rng.gen_bool(0.7) {
                        let mut v = vec![0u8; 8];
                        rng.fill(&mut v[..]);
                        if db.insert(t, key, &v).is_err() {
                            errored = true;
                            break 'storm;
                        }
                        staged.push((key, Some(v)));
                    } else {
                        if db.delete(t, key).is_err() {
                            errored = true;
                            break 'storm;
                        }
                        staged.push((key, None));
                    }
                }
                match db.commit(t) {
                    Ok(()) => {
                        for (k, v) in staged {
                            committed.insert(k, v);
                        }
                    }
                    Err(_) => {
                        ambiguous = staged;
                        errored = true;
                        break 'storm;
                    }
                }
            }
            let ctx = format!("difffile seed {seed} crashpoint {crashpoint}");
            assert!(errored, "{ctx}: storm ran dry without an error");
            crash_hits += usize::from(handle.lock().crashed());

            let mut db = DiffDb::recover(db.crash_image(), cfg).expect("recover");
            let t = db.begin();
            let got: HashMap<u64, Vec<u8>> = db
                .query(t, |_| true, ScanStrategy::Optimal, 1)
                .expect("query after recovery")
                .into_iter()
                .map(|tp| (tp.key, tp.value))
                .collect();
            db.abort(t).expect("read-only abort");

            let live = |m: &HashMap<u64, Option<Vec<u8>>>| -> HashMap<u64, Vec<u8>> {
                m.iter()
                    .filter_map(|(k, v)| v.clone().map(|v| (*k, v)))
                    .collect()
            };
            let without = live(&committed);
            for (k, v) in &ambiguous {
                committed.insert(*k, v.clone());
            }
            let with = live(&committed);
            assert!(
                got == without || got == with,
                "{ctx}: recovered relation matches neither side of the \
                 interrupted commit\n got: {got:?}\n old: {without:?}\n new: {with:?}"
            );

            // the engine still works on the clean device
            let t = db.begin();
            db.insert(t, 1_000, b"post-recovery").expect("insert");
            db.commit(t).expect("commit");
        }
    }
    let grid = seeds.len() * crashpoints.len();
    assert!(
        crash_hits * 2 >= grid,
        "scheduled crash fired in only {crash_hits}/{grid} runs"
    );
}

#[test]
fn difffile_survives_fault_sweep() {
    difffile_sweep(BackendKind::Mem, &SEEDS, &CRASHPOINTS, false);
}

#[test]
fn difffile_survives_torn_crash_write() {
    difffile_sweep(BackendKind::Mem, &SEEDS, &CRASHPOINTS, true);
}

#[test]
fn difffile_survives_fault_sweep_on_filedisk() {
    difffile_sweep(BackendKind::file(), &FILE_SEEDS, &FILE_CRASHPOINTS, false);
}

// ---------------------------------------------------------------------------
// The log tail under every crashpoint: one small transaction per commit,
// each forced, packs many commits into one log page that is rewritten
// through the two tail slots and goes home once full. Crashing after the
// k-th log write — every k, through several page fills — with that write
// torn at a seeded cut must never lose an acked commit, and must never
// surface a transaction that did not commit, bar the one in flight.
// ---------------------------------------------------------------------------

/// Commits in the log-tail sweep: enough single-page transactions to fill
/// at least three log pages.
const TAIL_TXNS: u64 = 150;

fn tail_cfg(backend: BackendKind) -> WalConfig {
    WalConfig {
        data_pages: PAGES,
        pool_frames: PAGES as usize, // no evictions: every write is a log write
        log_streams: 1,
        backend,
        ..WalConfig::default()
    }
}

/// Run the single-page transactions until one errors. Returns the
/// oracle and whether the run stopped on an error.
fn tail_run(db: &mut WalDb) -> (Oracle, bool) {
    let mut oracle = Oracle::new();
    for i in 0..TAIL_TXNS {
        let page = i % PAGES;
        let data = vec![(i % 251) as u8 + 1; SLOT];
        let t = db.begin();
        if db.write(t, page, 0, &data).is_err() {
            // never committed: its update must not survive
            return (oracle, true);
        }
        if db.commit(t).is_err() {
            // in flight: old and new are both legal
            oracle.entry(page).or_insert_with(zeros).push(data);
            return (oracle, true);
        }
        oracle.insert(page, vec![data]);
    }
    (oracle, false)
}

fn log_tail_sweep(backend: BackendKind) {
    // a clean run counts the log writes to sweep over
    let mut db = WalDb::new(tail_cfg(backend.clone()));
    let counter = FaultInjector::handle(FaultPlan::new());
    db.attach_faults(&counter);
    let (_, errored) = tail_run(&mut db);
    assert!(!errored, "clean run errored");
    let writes = counter.lock().writes();
    let image = db.crash_image();
    let log = &image.logs[0];
    let frames = (0..log.capacity()).filter(|&a| log.is_allocated(a)).count();
    // header + both slots + at least three filled pages
    assert!(
        frames >= 6,
        "only {frames} log frames used: the sweep must fill pages"
    );
    assert!(
        writes > TAIL_TXNS,
        "{writes} writes: one forced slot rewrite per commit plus home writes"
    );

    for k in 0..writes {
        let cut = StdRng::seed_from_u64(k).gen_range(1..FRAME_SIZE);
        let mut db = WalDb::new(tail_cfg(backend.clone()));
        let plan = FaultPlan::new().tear_write(k, cut).crash_after_write(k);
        let handle = FaultInjector::handle(plan);
        db.attach_faults(&handle);
        let (mut oracle, errored) = tail_run(&mut db);
        assert!(errored, "crash after write {k} never surfaced");
        assert!(handle.lock().crashed());
        let (mut recovered, _) = WalDb::recover(db.crash_image(), tail_cfg(backend.clone()))
            .unwrap_or_else(|e| panic!("write {k} torn at {cut}: recover: {e}"));
        verify_and_pin(
            &mut recovered,
            &mut oracle,
            &format!("log write {k} torn at {cut}"),
        );
    }
}

#[test]
fn log_tail_rewrite_never_loses_acked_records() {
    log_tail_sweep(BackendKind::Mem);
}

#[test]
fn log_tail_rewrite_never_loses_acked_records_on_filedisk() {
    log_tail_sweep(BackendKind::file());
}

// ---------------------------------------------------------------------------
// Restart engine under the same storm, with fuzzy checkpoints running every
// few commits so the scheduled crash regularly lands *inside* an in-flight
// checkpoint — after its Begin records but before its End, or mid-flush.
// The checkpoint-bounded parallel restart must (a) recover the oracle state
// like serial recovery does, and (b) produce byte-identical disks for K=1
// and K=4 redo workers even on these faulted, half-checkpointed images.
// ---------------------------------------------------------------------------

#[test]
fn restart_survives_mid_checkpoint_fault_sweep() {
    use recovery_machines::restart::{restart, RestartConfig};

    let mut crash_hits = 0usize;
    for seed in SEEDS {
        for crashpoint in CRASHPOINTS {
            let cfg = WalConfig {
                data_pages: PAGES,
                pool_frames: 3,
                log_streams: 3,
                policy: SelectionPolicy::Cyclic,
                // a checkpoint every few commits: most crashpoints fall
                // within a Begin → flush → End window on some stream
                ckpt_every_commits: 5,
                ..WalConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(seed ^ (crashpoint << 32));
            let mut db = WalDb::new(cfg.clone());
            let plan = FaultPlan::seeded(seed, 1 << 20).crash_after_write(crashpoint);
            let handle = FaultInjector::handle(plan);
            db.attach_faults(&handle);

            let mut oracle = Oracle::new();
            let ctx = format!("restart seed {seed} crashpoint {crashpoint}");
            let errored = faulty_storm(&mut db, &mut oracle, &mut rng, 600);
            assert!(errored, "{ctx}: storm ran dry without an error");
            crash_hits += usize::from(handle.lock().crashed());

            // K=1 and K=4 must agree byte-for-byte on the faulted image,
            // data disk and log disks alike
            let rcfg = |k| RestartConfig { workers: k };
            let (db1, rep1) =
                restart(db.crash_image(), cfg.clone(), &rcfg(1)).expect("restart K=1");
            let (db4, rep4) =
                restart(db.crash_image(), cfg.clone(), &rcfg(4)).expect("restart K=4");
            assert_eq!(
                rep1.logical_summary(),
                rep4.logical_summary(),
                "{ctx}: logical report diverged between K=1 and K=4"
            );
            let (i1, i4) = (db1.crash_image(), db4.crash_image());
            assert_disks_identical(&i1.data, &i4.data, &format!("{ctx}: data K1/K4"));
            for (i, (la, lb)) in i1.logs.iter().zip(&i4.logs).enumerate() {
                assert_disks_identical(la, lb, &format!("{ctx}: log {i} K1/K4"));
            }

            // and the recovered store holds exactly the committed state
            let mut store = db4;
            verify_and_pin(&mut store, &mut oracle, &ctx);
            let crashed = faulty_storm(&mut store, &mut oracle, &mut rng, 10);
            assert!(!crashed, "{ctx}: error after recovery on a clean device");
            verify_and_pin(&mut store, &mut oracle, &format!("{ctx} post"));
        }
    }
    let grid = SEEDS.len() * CRASHPOINTS.len();
    assert!(
        crash_hits * 2 >= grid,
        "scheduled crash fired in only {crash_hits}/{grid} runs"
    );
}

// ---------------------------------------------------------------------------
// Mixed logical+physical logs under the same storm: adaptive logging makes
// some transactions commit as one command record (re-executed at recovery)
// while wide transactions spill to physical after-image fragments — so every
// crash image in this sweep holds both record kinds, torn however the device
// faults landed. The contract:
//
//   1. recovery succeeds at every (seed, crashpoint) and the recovered
//      state matches the committed-state oracle (ambiguous tail included);
//   2. page-sharded redo is byte-identical across K=1 and K=4, logical
//      report included — on faulted images, not just clean ones;
//   3. double recovery of the same image is deterministic;
//   4. the sweep actually exercises the mix: summed over the grid, command
//      re-execution AND physical installs both happened.
// ---------------------------------------------------------------------------

/// Counter pages (0..MIXED_COUNTERS) take `add_u64` bumps — the canonical
/// command-loggable op; pages MIXED_COUNTERS..PAGES take plain writes.
const MIXED_COUNTERS: u64 = 8;

/// Like [`faulty_storm`], but mixes command-loggable counter bumps, small
/// writes, and wide spilling transactions, so adaptive logging produces a
/// genuinely mixed log. Returns true once an operation observed the crash.
fn mixed_storm(db: &mut WalDb, oracle: &mut Oracle, rng: &mut StdRng, max_ops: usize) -> bool {
    for _ in 0..max_ops {
        let txn = db.begin();
        let mut staged: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut doomed = false;
        // a third of the transactions go wide: six distinct write pages
        // blows the deferred pin budget and spills to physical fragments
        let wide = rng.gen_bool(0.33);
        let ops = if wide { 6 } else { rng.gen_range(1..4) };
        for _ in 0..ops {
            let page = if wide || rng.gen_bool(0.4) {
                MIXED_COUNTERS + rng.gen_range(0..PAGES - MIXED_COUNTERS)
            } else {
                rng.gen_range(0..MIXED_COUNTERS)
            };
            if staged.iter().any(|(p, _)| *p == page) {
                continue;
            }
            if page < MIXED_COUNTERS {
                match db.add_u64(txn, page, 0, rng.gen_range(1..1_000)) {
                    Ok(new) => {
                        let mut v = vec![0u8; SLOT];
                        v[..8].copy_from_slice(&new.to_le_bytes());
                        staged.push((page, v));
                    }
                    Err(e) => {
                        eprintln!("[mixed] add_u64 error: {e}");
                        doomed = true;
                        break;
                    }
                }
            } else {
                let mut data = vec![0u8; SLOT];
                rng.fill(&mut data[..]);
                if let Err(e) = db.write(txn, page, 0, &data) {
                    eprintln!("[mixed] write error: {e}");
                    doomed = true;
                    break;
                }
                staged.push((page, data));
            }
        }
        if doomed {
            return true;
        }
        if rng.gen_bool(0.75) {
            match db.commit(txn) {
                Ok(()) => {
                    for (page, data) in staged {
                        oracle.insert(page, vec![data]);
                    }
                }
                Err(e) => {
                    eprintln!("[mixed] commit error: {e}");
                    for (page, data) in staged {
                        oracle.entry(page).or_insert_with(zeros).push(data);
                    }
                    return true;
                }
            }
        } else if let Err(e) = db.abort(txn) {
            eprintln!("[mixed] abort error: {e}");
            return true;
        }
    }
    false
}

#[test]
fn mixed_logical_physical_log_recovers_at_every_crashpoint() {
    use recovery_machines::restart::{restart, RestartConfig};
    use recovery_machines::wal::LoggingPolicy;

    let mut crash_hits = 0usize;
    let mut reexecuted = 0u64;
    let mut installed = 0u64;
    for seed in SEEDS {
        for crashpoint in CRASHPOINTS {
            let cfg = WalConfig {
                data_pages: PAGES,
                // pin budget pool_frames - 1 = 5: the wide (6-page)
                // transactions spill, the narrow ones command-log
                pool_frames: 6,
                log_streams: 3,
                policy: SelectionPolicy::Cyclic,
                logging: LoggingPolicy::Adaptive,
                ..WalConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(seed ^ (crashpoint << 32));
            let mut db = WalDb::new(cfg.clone());
            let plan = FaultPlan::seeded(seed, 1 << 20).crash_after_write(crashpoint);
            let handle = FaultInjector::handle(plan);
            db.attach_faults(&handle);

            let mut oracle = Oracle::new();
            let ctx = format!("mixed seed {seed} crashpoint {crashpoint}");
            let errored = mixed_storm(&mut db, &mut oracle, &mut rng, 600);
            assert!(errored, "{ctx}: storm ran dry without an error");
            crash_hits += usize::from(handle.lock().crashed());

            let image = db.crash_image();
            let rcfg = |k| RestartConfig { workers: k };
            // K=1 and K=4 must agree on every byte and on the logical
            // report, faults and all
            let (db1, rep1) = restart(clone_image(&image), cfg.clone(), &rcfg(1))
                .unwrap_or_else(|e| panic!("{ctx}: K=1 restart failed: {e}"));
            let (db4, rep4) = restart(clone_image(&image), cfg.clone(), &rcfg(4))
                .unwrap_or_else(|e| panic!("{ctx}: K=4 restart failed: {e}"));
            assert_eq!(
                rep1.logical_summary(),
                rep4.logical_summary(),
                "{ctx}: logical report diverged between K=1 and K=4"
            );
            let (i1, i4) = (db1.crash_image(), db4.crash_image());
            assert_disks_identical(&i1.data, &i4.data, &format!("{ctx}: data K1/K4"));
            for (i, (la, lb)) in i1.logs.iter().zip(&i4.logs).enumerate() {
                assert_disks_identical(la, lb, &format!("{ctx}: log {i} K1/K4"));
            }
            // redone units are installs plus re-executed command ops
            reexecuted += rep4.base.reexecuted_ops;
            installed += rep4.base.redone_updates - rep4.base.reexecuted_ops;

            // double recovery of the same image is deterministic
            let (db4b, _) = restart(clone_image(&image), cfg.clone(), &rcfg(4))
                .unwrap_or_else(|e| panic!("{ctx}: second restart failed: {e}"));
            assert_disks_identical(
                &i4.data,
                &db4b.crash_image().data,
                &format!("{ctx}: double recovery"),
            );

            // the recovered store holds exactly the committed state and
            // still works on the clean device
            let mut store = db4;
            verify_and_pin(&mut store, &mut oracle, &ctx);
            let crashed = faulty_storm(&mut store, &mut oracle, &mut rng, 10);
            assert!(!crashed, "{ctx}: error after recovery on a clean device");
            verify_and_pin(&mut store, &mut oracle, &format!("{ctx} post"));
        }
    }
    let grid = SEEDS.len() * CRASHPOINTS.len();
    assert!(
        crash_hits * 2 >= grid,
        "scheduled crash fired in only {crash_hits}/{grid} runs"
    );
    assert!(
        reexecuted > 0 && installed > 0,
        "sweep never produced a mixed log: {reexecuted} command re-executions, \
         {installed} physical installs"
    );
}

// ---------------------------------------------------------------------------
// Torn logical frame: a command-logged stream's page is corrupted mid-stream.
// The scan must salvage the decodable prefix (quarantining the torn page),
// re-execute whatever command records survive, and stay deterministic and
// K-equivalent on the maimed image — never error, never panic.
// ---------------------------------------------------------------------------

#[test]
fn torn_logical_frame_is_salvaged_and_quarantined() {
    use recovery_machines::restart::{restart, RestartConfig};
    use recovery_machines::wal::LoggingPolicy;

    for seed in [7u64, 42, 1985] {
        let cfg = WalConfig {
            data_pages: PAGES,
            pool_frames: 6,
            log_streams: 3,
            policy: SelectionPolicy::Cyclic,
            logging: LoggingPolicy::Command,
            seed,
            ..WalConfig::default()
        };
        // clean command-logged history: every commit is one logical record
        let mut db = WalDb::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle = Oracle::new();
        let crashed = mixed_storm(&mut db, &mut oracle, &mut rng, 120);
        assert!(!crashed, "seed {seed}: clean storm errored");

        // tear a frame in the middle of a log stream's allocated run
        let mut image = db.crash_image();
        let victim = &mut image.logs[seed as usize % 3];
        let allocated: Vec<u64> = (1..victim.capacity())
            .filter(|&a| victim.is_allocated(a))
            .collect();
        assert!(
            allocated.len() >= 2,
            "seed {seed}: stream too short to tear mid-stream"
        );
        let torn = allocated[allocated.len() / 2];
        let mut junk = [0u8; FRAME_SIZE];
        rng.fill(&mut junk[..]);
        victim
            .write_partial(torn, &junk, FRAME_SIZE / 2)
            .expect("tear log frame");

        let ctx = format!("torn-logical seed {seed}");
        let rcfg = |k| RestartConfig { workers: k };
        let (db1, rep1) = restart(clone_image(&image), cfg.clone(), &rcfg(1))
            .unwrap_or_else(|e| panic!("{ctx}: K=1 restart failed: {e}"));
        let (db4, rep4) = restart(clone_image(&image), cfg.clone(), &rcfg(4))
            .unwrap_or_else(|e| panic!("{ctx}: K=4 restart failed: {e}"));
        assert!(
            rep4.base.quarantined_log_pages > 0,
            "{ctx}: torn frame never quarantined"
        );
        assert!(
            rep4.base.salvaged_records > 0,
            "{ctx}: no records salvaged from the decodable prefix"
        );
        assert!(
            rep4.base.logical_commits > 0,
            "{ctx}: salvage re-executed no command records"
        );
        assert_eq!(
            rep1.logical_summary(),
            rep4.logical_summary(),
            "{ctx}: logical report diverged between K=1 and K=4"
        );
        let (i1, i4) = (db1.crash_image(), db4.crash_image());
        assert_disks_identical(&i1.data, &i4.data, &format!("{ctx}: data K1/K4"));

        // determinism on the maimed image
        let (db4b, _) = restart(clone_image(&image), cfg, &rcfg(4))
            .unwrap_or_else(|e| panic!("{ctx}: second restart failed: {e}"));
        assert_disks_identical(
            &i4.data,
            &db4b.crash_image().data,
            &format!("{ctx}: double recovery"),
        );
    }
}

// ---------------------------------------------------------------------------
// Recovery accounting: the observability counters the recovery engine
// publishes carry the same totals as the report fields. On every faulted
// crash image in the sweep, and through both entry points (`recovery.*`
// from WalDb::recover against its RecoveryReport, `restart.*` from the
// parallel restart against RestartReport.base), the two books must agree
// exactly — a divergence means either the report or the metrics lies about
// what recovery replayed.
// ---------------------------------------------------------------------------

#[test]
fn recovery_obs_counters_match_report_at_every_crashpoint() {
    use recovery_machines::obs::{EventKind, Registry};
    use recovery_machines::restart::{restart_observed, RestartConfig};
    use recovery_machines::wal::{recover_observed, RecoveryReport};

    let mut crash_hits = 0usize;
    for seed in SEEDS {
        for crashpoint in CRASHPOINTS {
            let cfg = WalConfig {
                data_pages: PAGES,
                pool_frames: 3,
                log_streams: 3,
                policy: SelectionPolicy::Cyclic,
                ..WalConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(seed ^ (crashpoint << 32));
            let mut db = WalDb::new(cfg.clone());
            let plan = FaultPlan::seeded(seed, 1 << 20).crash_after_write(crashpoint);
            let handle = FaultInjector::handle(plan);
            db.attach_faults(&handle);

            let mut oracle = Oracle::new();
            let ctx = format!("obs-accounting seed {seed} crashpoint {crashpoint}");
            let errored = faulty_storm(&mut db, &mut oracle, &mut rng, 600);
            assert!(errored, "{ctx}: storm ran dry without an error");
            crash_hits += usize::from(handle.lock().crashed());

            let rcfg = RestartConfig { workers: 2 };
            for prefix in ["recovery", "restart"] {
                let obs = Registry::new();
                let image = db.crash_image();
                let report: RecoveryReport = if prefix == "recovery" {
                    recover_observed(image, cfg.clone(), &obs)
                        .expect("recover")
                        .1
                } else {
                    restart_observed(image, cfg.clone(), &rcfg, &obs)
                        .expect("restart")
                        .1
                        .base
                };
                let ctx = format!("{ctx} {prefix}");
                let snap = obs.snapshot();
                let c = |name: &str| snap.counter(&format!("{prefix}.{name}")).unwrap_or(0);
                for (name, want) in [
                    ("records_scanned", report.records_scanned as u64),
                    ("redone_updates", report.redone_updates),
                    ("undone_updates", report.undone_updates),
                    ("quarantined_log_pages", report.quarantined_log_pages),
                    ("quarantined_data_pages", report.quarantined_data_pages),
                    ("torn_pages_repaired", report.torn_pages_repaired),
                    ("salvaged_records", report.salvaged_records),
                    ("pages_written", report.pages_written),
                    ("retried_ios", report.retried_ios),
                    ("duplicate_fragments", report.duplicate_fragments),
                    ("logical_commits", report.logical_commits),
                    ("reexecuted_ops", report.reexecuted_ops),
                ] {
                    assert_eq!(c(name), want, "{ctx}: {name}");
                }
                // the finish writes only changed pages: each is a page redo
                // replayed or one undo reverted
                assert!(
                    report.pages_written <= c("pages_replayed") + report.undone_updates,
                    "{ctx}: {} pages written > {} replayed + {} undone",
                    report.pages_written,
                    c("pages_replayed"),
                    report.undone_updates
                );
                // phase structure: exactly one RecoveryPhase event per phase,
                // in phase order, and every phase histogram saw one sample
                let phases: Vec<_> = obs
                    .recent_events()
                    .into_iter()
                    .filter(|e| e.kind == EventKind::RecoveryPhase)
                    .collect();
                assert_eq!(phases.len(), 4, "{ctx}: phase event count");
                for (i, ev) in phases.iter().enumerate() {
                    assert_eq!(ev.stream, i as u64, "{ctx}: phase order");
                }
                for phase in ["analysis", "redo", "undo", "flush"] {
                    let h = format!("{prefix}.{phase}_us");
                    assert_eq!(
                        snap.histogram(&h).map(|h| h.count),
                        Some(1),
                        "{ctx}: histogram {h}"
                    );
                }
            }
        }
    }
    let grid = SEEDS.len() * CRASHPOINTS.len();
    assert!(
        crash_hits * 2 >= grid,
        "scheduled crash fired in only {crash_hits}/{grid} runs"
    );
}

// ---------------------------------------------------------------------------
// Determinism: a fault schedule is pure data. Same seed, same plan, same
// workload ⇒ byte-identical post-crash platters.
// ---------------------------------------------------------------------------

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
            assert!(fa == fb, "{what}: frame {addr} differs between runs");
        }
    }
}

#[test]
fn fault_plan_replays_to_identical_crash_images() {
    fn run_wal(seed: u64) -> recovery_machines::wal::CrashImage {
        let cfg = WalConfig {
            data_pages: PAGES,
            pool_frames: 3,
            log_streams: 3,
            policy: SelectionPolicy::Cyclic,
            ..WalConfig::default()
        };
        let mut db = WalDb::new(cfg);
        let plan = FaultPlan::seeded(seed, 1 << 20).crash_after_write(37);
        db.attach_faults(&FaultInjector::handle(plan));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle = Oracle::new();
        faulty_storm(&mut db, &mut oracle, &mut rng, 600);
        db.crash_image()
    }

    fn run_shadow(seed: u64) -> recovery_machines::shadow::ShadowImage {
        let cfg = ShadowConfig {
            logical_pages: PAGES,
            data_frames: PAGES * 4,
            ..ShadowConfig::default()
        };
        let mut db = ShadowPager::new(cfg).expect("new");
        let plan = FaultPlan::seeded(seed, 1 << 20).crash_after_write(37);
        db.attach_faults(&FaultInjector::handle(plan));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle = Oracle::new();
        faulty_storm(&mut db, &mut oracle, &mut rng, 600);
        db.crash_image()
    }

    for seed in [3u64, 1985] {
        let (x, y) = (run_wal(seed), run_wal(seed));
        assert_disks_identical(&x.data, &y.data, "wal data");
        assert_eq!(x.logs.len(), y.logs.len(), "log stream count");
        for (i, (lx, ly)) in x.logs.iter().zip(&y.logs).enumerate() {
            assert_disks_identical(lx, ly, &format!("wal log {i}"));
        }

        let (x, y) = (run_shadow(seed), run_shadow(seed));
        assert_disks_identical(&x.data, &y.data, "shadow data");
        assert_disks_identical(&x.pt, &y.pt, "shadow page-table");
    }
}

// ---------------------------------------------------------------------------
// Never-panic: recovery on an *arbitrarily* scribbled crash image must
// return Ok (possibly with quarantined state) or a typed error — it may
// never panic, whatever garbage the platter holds.
// ---------------------------------------------------------------------------

/// Overwrite `hits` random frame prefixes of `disk` with random bytes.
fn scribble(disk: &mut Disk, rng: &mut StdRng, hits: usize) {
    for _ in 0..hits {
        let addr = rng.gen_range(0..disk.capacity());
        let mut junk = [0u8; FRAME_SIZE];
        rng.fill(&mut junk[..]);
        let cut = rng.gen_range(1..=FRAME_SIZE);
        disk.write_partial(addr, &junk, cut).expect("scribble");
    }
}

/// Build a store, commit real work, scribble the crash image, recover.
/// `$corrupt` scribbles the image's disks in place; `$recover` consumes
/// the image — Ok or a typed Err are both fine, a panic fails the test.
macro_rules! never_panic_case {
    ($rng:expr, $store:expr, $corrupt:expr, $recover:expr) => {{
        let mut store = $store;
        let mut oracle = Oracle::new();
        let mut rng_w = StdRng::seed_from_u64(7);
        faulty_storm(&mut store, &mut oracle, &mut rng_w, 30);
        let mut image = store.crash_image();
        #[allow(clippy::redundant_closure_call)]
        ($corrupt)(&mut image, $rng);
        #[allow(clippy::redundant_closure_call)]
        ($recover)(image);
    }};
}

#[test]
fn recovery_never_panics_on_scribbled_images() {
    for seed in SEEDS {
        let rng = &mut StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));

        never_panic_case!(
            rng,
            WalDb::new(WalConfig {
                data_pages: PAGES,
                pool_frames: 3,
                log_streams: 3,
                ..WalConfig::default()
            }),
            |i: &mut recovery_machines::wal::CrashImage, rng: &mut StdRng| {
                scribble(&mut i.data, rng, 4);
                for log in i.logs.iter_mut() {
                    scribble(log, rng, 2);
                }
            },
            |image| {
                if let Ok((mut db, _)) = WalDb::recover(
                    image,
                    WalConfig {
                        data_pages: PAGES,
                        pool_frames: 3,
                        log_streams: 3,
                        ..WalConfig::default()
                    },
                ) {
                    read_all(&mut db);
                }
            }
        );

        never_panic_case!(
            rng,
            ShadowPager::new(ShadowConfig {
                logical_pages: PAGES,
                data_frames: PAGES * 4,
                ..ShadowConfig::default()
            })
            .expect("new"),
            |i: &mut recovery_machines::shadow::ShadowImage, rng: &mut StdRng| {
                scribble(&mut i.data, rng, 4);
                scribble(&mut i.pt, rng, 2);
            },
            |image| {
                if let Ok((mut db, _)) = ShadowPager::recover(
                    image,
                    ShadowConfig {
                        logical_pages: PAGES,
                        data_frames: PAGES * 4,
                        ..ShadowConfig::default()
                    },
                ) {
                    read_all(&mut db);
                }
            }
        );

        never_panic_case!(
            rng,
            VersionStore::new(VersionConfig {
                logical_pages: PAGES,
            }),
            |i: &mut recovery_machines::shadow::VersionImage, rng: &mut StdRng| {
                scribble(&mut i.disk, rng, 4);
            },
            |image| {
                if let Ok((mut db, _)) = VersionStore::recover(
                    image,
                    VersionConfig {
                        logical_pages: PAGES,
                    },
                ) {
                    read_all(&mut db);
                }
            }
        );

        never_panic_case!(
            rng,
            NoUndoStore::new(OverwriteConfig {
                logical_pages: PAGES,
                scratch_slots: 16,
            }),
            |i: &mut recovery_machines::shadow::OverwriteImage, rng: &mut StdRng| {
                scribble(&mut i.disk, rng, 4);
            },
            |image| {
                if let Ok((mut db, _)) = NoUndoStore::recover(
                    image,
                    OverwriteConfig {
                        logical_pages: PAGES,
                        scratch_slots: 16,
                    },
                ) {
                    read_all(&mut db);
                }
            }
        );

        never_panic_case!(
            rng,
            NoRedoStore::new(OverwriteConfig {
                logical_pages: PAGES,
                scratch_slots: 16,
            }),
            |i: &mut recovery_machines::shadow::OverwriteImage, rng: &mut StdRng| {
                scribble(&mut i.disk, rng, 4);
            },
            |image| {
                if let Ok((mut db, _)) = NoRedoStore::recover(
                    image,
                    OverwriteConfig {
                        logical_pages: PAGES,
                        scratch_slots: 16,
                    },
                ) {
                    read_all(&mut db);
                }
            }
        );

        // differential files are tuple-granular, not a PageStore — drive
        // them directly
        let mut db = DiffDb::new(DiffConfig::default());
        for k in 0..40u64 {
            let t = db.begin();
            db.insert(t, k, &k.to_le_bytes()).expect("insert");
            if k % 3 == 0 {
                db.delete(t, k / 2).expect("delete");
            }
            db.commit(t).expect("commit");
        }
        let mut image = db.crash_image();
        scribble(&mut image.disk, rng, 6);
        if let Ok(mut db) = DiffDb::recover(image, DiffConfig::default()) {
            let t = db.begin();
            let _ = db.query(t, |_| true, ScanStrategy::Optimal, 1);
        }
    }
}

/// Post-recovery read sweep: every page must read or fail typed, no panic.
fn read_all<S: PageStore>(store: &mut S) {
    let txn = store.begin();
    for page in 0..PAGES {
        let _ = store.read(txn, page, 0, SLOT);
    }
    let _ = store.abort(txn);
}

// ---------------------------------------------------------------------------
// Concurrent pipeline under the crash sweep: crash images snapped while
// real worker threads are mid-commit through the group-commit daemon. Every
// transaction whose commit was *acknowledged* before the snapshot must be
// durable in the recovered image — the exec pipeline's ack is a durability
// promise, and the snapshot protocol (commit gate + data-first ordering)
// must keep it even when the snapshot lands between a fragment force and
// the commit-record force.
// ---------------------------------------------------------------------------

#[test]
fn exec_pipeline_acked_commits_survive_mid_run_crash() {
    use recovery_machines::exec::{ExecConfig, ExecDb};
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};

    const TXNS_PER_WORKER: u64 = 16;
    for seed in SEEDS {
        for workers in [2u64, 4] {
            let cfg = ExecConfig {
                wal: WalConfig {
                    data_pages: workers * TXNS_PER_WORKER,
                    pool_frames: 24,
                    log_streams: 3,
                    log_frames: 1 << 14,
                    seed,
                    ..WalConfig::default()
                },
                pool_shards: 4,
                ..ExecConfig::default()
            };
            let db = Arc::new(ExecDb::new(cfg.clone()));
            let acked: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
            // (acked-before-snapshot, image) pairs, snapped mid-storm
            let mut snaps: Vec<(HashSet<u64>, recovery_machines::wal::CrashImage)> = Vec::new();

            let value = |page: u64| (seed << 32 | 0xAC4E_0000 | page).to_le_bytes();
            crossbeam::thread::scope(|s| {
                for w in 0..workers {
                    let db = Arc::clone(&db);
                    let acked = Arc::clone(&acked);
                    s.spawn(move |_| {
                        for i in 0..TXNS_PER_WORKER {
                            let page = w * TXNS_PER_WORKER + i;
                            db.run_txn(w as usize, |ctx| ctx.write(page, 0, &value(page)))
                                .expect("pipeline txn");
                            // run_txn returns only after the group-commit
                            // daemon acks: from here the write is durable
                            acked.lock().unwrap().insert(page);
                        }
                    });
                }
                for _ in 0..4 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    // copy the ack set BEFORE snapping: everything in the
                    // copy was acked strictly before the crash
                    let before = acked.lock().unwrap().clone();
                    let image = db.crash_image().expect("mid-run crash image");
                    snaps.push((before, image));
                }
            })
            .unwrap();
            // one more with every commit acked: all pages must be strict
            let before = acked.lock().unwrap().clone();
            assert_eq!(before.len() as u64, workers * TXNS_PER_WORKER);
            snaps.push((before, db.crash_image().expect("final crash image")));

            for (snap, (acked_before, image)) in snaps.into_iter().enumerate() {
                let ctx = format!("exec seed {seed} workers {workers} snap {snap}");
                let (mut rec, _) =
                    WalDb::recover(image, cfg.wal.clone()).expect("recover concurrent image");
                let t = rec.begin();
                for page in 0..workers * TXNS_PER_WORKER {
                    let got = rec.read(t, page, 0, 8).expect("read after recovery");
                    if acked_before.contains(&page) {
                        assert_eq!(
                            got,
                            value(page),
                            "{ctx}: acked page {page} lost after recovery"
                        );
                    } else {
                        // unacked: the commit may or may not have hit the
                        // log before the snapshot — old or new, never torn
                        assert!(
                            got == [0u8; 8] || got == value(page),
                            "{ctx}: unacked page {page} torn: {got:?}"
                        );
                    }
                }
                rec.abort(t).expect("read-only abort");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Appender-death sweep: one log processor dies *mid-run* — its device starts
// failing every write while worker threads are streaming commits through it —
// across seeds × kill points × fleet sizes. The failover contract under test:
//
//   1. no acked commit is ever lost (the ack is a durability promise and a
//      quarantined stream's durable prefix still counts);
//   2. the survivors keep committing after the kill (rerouting works and the
//      fleet does not degrade at min_live = 1);
//   3. recovery is deterministic — recovering the same crash image twice
//      yields byte-identical data disks, for every crashpoint in the sweep.
// ---------------------------------------------------------------------------

/// Deep-copy a crash image so it can be recovered more than once. Snapshots
/// shed any attached fault handle — recovery always reads honest bytes, which
/// is exactly what a real restart off the platter would see.
fn clone_image(image: &recovery_machines::wal::CrashImage) -> recovery_machines::wal::CrashImage {
    recovery_machines::wal::CrashImage {
        data: image.data.snapshot(),
        logs: image.logs.iter().map(Disk::snapshot).collect(),
    }
}

#[test]
fn exec_pipeline_survives_mid_run_appender_death() {
    use recovery_machines::exec::{ExecConfig, ExecDb};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    const WORKERS: u64 = 4;
    const TXNS_PER_WORKER: u64 = 12;
    const STORM_PAGES: u64 = WORKERS * TXNS_PER_WORKER;
    // extra guaranteed-post-kill commits, after the storm joins
    const TAIL_TXNS: u64 = 8;

    for seed in [7u64, 42, 31337] {
        for streams in [3usize, 4] {
            // kill point = acked-commit count that triggers the device kill
            for (kp, kill_after) in [3u64, 14].into_iter().enumerate() {
                let kill_stream = (seed as usize + kp) % streams;
                let cfg = ExecConfig {
                    wal: WalConfig {
                        data_pages: STORM_PAGES + TAIL_TXNS,
                        pool_frames: 24,
                        log_streams: streams,
                        log_frames: 1 << 14,
                        seed,
                        ..WalConfig::default()
                    },
                    pool_shards: 4,
                    ..ExecConfig::default()
                };
                let ctx = format!("kill seed {seed} streams {streams} kill_after {kill_after}");
                let db = Arc::new(ExecDb::new(cfg.clone()));
                let acked: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
                let acked_count = Arc::new(AtomicU64::new(0));
                let mut snaps: Vec<(HashSet<u64>, recovery_machines::wal::CrashImage)> = Vec::new();

                let value = |page: u64| (seed << 32 | 0xFA_1107_u64 << 8 | page).to_le_bytes();
                crossbeam::thread::scope(|s| {
                    // the killer: waits for the kill point, then makes every
                    // subsequent write to the victim's device fail forever —
                    // mid-run, while workers are racing commits through it
                    {
                        let db = Arc::clone(&db);
                        let acked_count = Arc::clone(&acked_count);
                        s.spawn(move |_| {
                            while acked_count.load(Ordering::Acquire) < kill_after {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            db.inject_stream_fault(
                                kill_stream,
                                FaultPlan::new().fail_from_write(0),
                            )
                            .expect("inject kill fault");
                        });
                    }
                    for w in 0..WORKERS {
                        let db = Arc::clone(&db);
                        let acked = Arc::clone(&acked);
                        let acked_count = Arc::clone(&acked_count);
                        s.spawn(move |_| {
                            for i in 0..TXNS_PER_WORKER {
                                let page = w * TXNS_PER_WORKER + i;
                                db.run_txn(w as usize, |ctx| ctx.write(page, 0, &value(page)))
                                    .expect("storm txn");
                                acked.lock().unwrap().insert(page);
                                acked_count.fetch_add(1, Ordering::Release);
                            }
                        });
                    }
                    // crash images snapped during the storm — these land
                    // before, across, and after the kill point
                    for _ in 0..3 {
                        std::thread::sleep(Duration::from_millis(2));
                        let before = acked.lock().unwrap().clone();
                        let image = db.crash_image().expect("mid-storm crash image");
                        snaps.push((before, image));
                    }
                })
                .unwrap();
                assert_eq!(
                    acked.lock().unwrap().len() as u64,
                    STORM_PAGES,
                    "{ctx}: storm txn lost"
                );

                // deterministic post-kill tail: the fault has fired (the
                // storm committed well past the kill point), so these
                // commits prove the survivors still make progress
                for page in STORM_PAGES..STORM_PAGES + TAIL_TXNS {
                    db.run_txn(page as usize % WORKERS as usize, |ctx| {
                        ctx.write(page, 0, &value(page))
                    })
                    .unwrap_or_else(|e| panic!("{ctx}: post-kill txn failed: {e}"));
                    acked.lock().unwrap().insert(page);
                }

                // the victim must be quarantined, the survivors alive
                assert!(
                    db.is_stream_dead(kill_stream),
                    "{ctx}: killed stream never quarantined"
                );
                assert_eq!(db.live_streams(), streams - 1, "{ctx}: wrong live count");
                assert!(!db.is_degraded(), "{ctx}: degraded at min_live=1");
                let metrics = db.obs().snapshot();
                assert!(
                    metrics.counter("failover.quarantined") >= Some(1),
                    "{ctx}: quarantine counter missing"
                );

                // final crashpoint: everything acked
                let before = acked.lock().unwrap().clone();
                snaps.push((before, db.crash_image().expect("final crash image")));

                for (snap, (acked_before, image)) in snaps.into_iter().enumerate() {
                    let sctx = format!("{ctx} snap {snap}");
                    let copy = clone_image(&image);
                    let (mut rec, _) = WalDb::recover(image, cfg.wal.clone())
                        .unwrap_or_else(|e| panic!("{sctx}: recovery failed: {e}"));
                    let t = rec.begin();
                    for page in 0..STORM_PAGES + TAIL_TXNS {
                        let got = rec.read(t, page, 0, 8).expect("read after recovery");
                        if acked_before.contains(&page) {
                            assert_eq!(
                                got,
                                value(page),
                                "{sctx}: acked page {page} lost after recovery"
                            );
                        } else {
                            assert!(
                                got == [0u8; 8] || got == value(page),
                                "{sctx}: unacked page {page} torn: {got:?}"
                            );
                        }
                    }
                    rec.abort(t).expect("read-only abort");
                    // recovery determinism: same image, same bytes
                    let (rec2, _) = WalDb::recover(copy, cfg.wal.clone())
                        .unwrap_or_else(|e| panic!("{sctx}: second recovery failed: {e}"));
                    assert_disks_identical(
                        &rec.crash_image().data,
                        &rec2.crash_image().data,
                        &sctx,
                    );
                }
                Arc::try_unwrap(db)
                    .ok()
                    .expect("storm threads joined")
                    .shutdown()
                    .ok();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Membership-churn sweep: kill → rejoin → kill cycles on a 4-stream fleet.
// The elastic-fleet contract under test:
//
//   1. zero acked-commit loss across arbitrary churn (kills, rejoins, a
//      repeat kill of an already-rejoined stream);
//   2. a rejoin restores routing — the readmitted stream serves again and
//      degraded mode stays clear;
//   3. recovery stays deterministic across churn: every crash image, snapped
//      between cycles, recovers to byte-identical data disks twice.
// ---------------------------------------------------------------------------

#[test]
fn exec_pipeline_survives_kill_rejoin_kill_churn() {
    use recovery_machines::exec::{ExecConfig, ExecDb};
    use recovery_machines::storage::FaultHandle;
    use std::time::{Duration, Instant};

    const STREAMS: usize = 4;
    const PAGES: u64 = 96;

    // One committed burst: `n` sequential transactions over a rolling page
    // window; the acked map tracks the exact durable value per page.
    fn burst(
        db: &ExecDb,
        acked: &mut HashMap<u64, [u8; 8]>,
        next: &mut u64,
        n: u64,
        seed: u64,
        round: u64,
    ) {
        for _ in 0..n {
            let page = *next % PAGES;
            *next += 1;
            let v = (seed << 48 | round << 32 | 0xC0DE_0000 | page).to_le_bytes();
            db.run_txn(page as usize, move |ctx| ctx.write(page, 0, &v))
                .expect("churn txn");
            acked.insert(page, v);
        }
    }

    // Kill `stream`'s device through a retained handle and drive commits
    // until failover quarantines it.
    fn kill(
        db: &ExecDb,
        stream: usize,
        acked: &mut HashMap<u64, [u8; 8]>,
        next: &mut u64,
        seed: u64,
        round: u64,
        ctx: &str,
    ) -> FaultHandle {
        let handle = FaultInjector::handle(FaultPlan::new().fail_from_write(0));
        db.inject_stream_fault_handle(stream, handle.clone())
            .expect("inject kill fault");
        let t0 = Instant::now();
        while !db.is_stream_dead(stream) {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "{ctx}: stream {stream} never quarantined"
            );
            burst(db, acked, next, 1, seed, round);
        }
        handle
    }

    for seed in SEEDS {
        let cfg = ExecConfig {
            wal: WalConfig {
                data_pages: PAGES,
                pool_frames: 24,
                log_streams: STREAMS,
                log_frames: 1 << 14,
                seed,
                ..WalConfig::default()
            },
            pool_shards: 4,
            ..ExecConfig::default()
        };
        let ctx = format!("churn seed {seed}");
        let db = ExecDb::new(cfg.clone());
        let mut acked: HashMap<u64, [u8; 8]> = HashMap::new();
        let mut next = 0u64;
        let mut snaps: Vec<(HashMap<u64, [u8; 8]>, recovery_machines::wal::CrashImage)> =
            Vec::new();

        // healthy baseline
        burst(&db, &mut acked, &mut next, 24, seed, 0);
        snaps.push((acked.clone(), db.crash_image().expect("baseline image")));

        // cycle 1: kill a stream, revive its device, rejoin it
        let k1 = seed as usize % STREAMS;
        let handle = kill(&db, k1, &mut acked, &mut next, seed, 1, &ctx);
        burst(&db, &mut acked, &mut next, 16, seed, 1);
        handle.lock().revive();
        let report = db
            .rejoin_stream(k1)
            .unwrap_or_else(|e| panic!("{ctx}: rejoin of {k1} failed: {e}"));
        assert_eq!(report.live_streams, STREAMS, "{ctx}: fleet not restored");
        assert!(!db.is_stream_dead(k1), "{ctx}: rejoined stream still dead");
        assert!(!db.is_degraded(), "{ctx}: degraded after rejoin");
        burst(&db, &mut acked, &mut next, 32, seed, 2);
        snaps.push((acked.clone(), db.crash_image().expect("post-rejoin image")));

        // cycle 2: a different stream dies and rejoins
        let k2 = (k1 + 1) % STREAMS;
        let handle = kill(&db, k2, &mut acked, &mut next, seed, 3, &ctx);
        burst(&db, &mut acked, &mut next, 16, seed, 3);
        handle.lock().revive();
        db.rejoin_stream(k2)
            .unwrap_or_else(|e| panic!("{ctx}: rejoin of {k2} failed: {e}"));
        assert_eq!(
            db.live_streams(),
            STREAMS,
            "{ctx}: fleet not restored twice"
        );
        burst(&db, &mut acked, &mut next, 32, seed, 4);

        // cycle 3: the first victim dies AGAIN (orphan ranges accumulate
        // across incarnations) and this time stays out
        let _handle = kill(&db, k1, &mut acked, &mut next, seed, 5, &ctx);
        burst(&db, &mut acked, &mut next, 24, seed, 5);
        assert_eq!(
            db.live_streams(),
            STREAMS - 1,
            "{ctx}: second kill miscounted"
        );
        assert!(!db.is_degraded(), "{ctx}: degraded at min_live=1");
        assert!(
            db.obs().snapshot().counter("failover.rejoins") >= Some(2),
            "{ctx}: rejoin counter missing"
        );
        snaps.push((acked.clone(), db.crash_image().expect("final churn image")));

        for (snap, (acked_at, image)) in snaps.into_iter().enumerate() {
            let sctx = format!("{ctx} snap {snap}");
            let copy = clone_image(&image);
            let (mut rec, _) = WalDb::recover(image, cfg.wal.clone())
                .unwrap_or_else(|e| panic!("{sctx}: recovery failed: {e}"));
            let t = rec.begin();
            for page in 0..PAGES {
                let got = rec.read(t, page, 0, 8).expect("read after recovery");
                match acked_at.get(&page) {
                    Some(v) => assert_eq!(
                        got, *v,
                        "{sctx}: acked page {page} lost or stale after churn"
                    ),
                    None => assert_eq!(got, [0u8; 8], "{sctx}: page {page} dirty"),
                }
            }
            rec.abort(t).expect("read-only abort");
            // recovery determinism survives membership churn
            let (rec2, _) = WalDb::recover(copy, cfg.wal.clone())
                .unwrap_or_else(|e| panic!("{sctx}: second recovery failed: {e}"));
            assert_disks_identical(&rec.crash_image().data, &rec2.crash_image().data, &sctx);
        }
        db.shutdown().ok();
    }
}

// ---------------------------------------------------------------------------
// Readers-during-failover: the MVCC snapshot read path must be completely
// indifferent to log-processor failure. While a kill → rejoin cycle runs,
// concurrent lock-free readers open snapshots nonstop; the contract:
//
//   1. snapshot reads NEVER error — not during the outage, not during the
//      rejoin (they depend only on already-published memory, never on the
//      appender fleet);
//   2. every snapshot sees a conserved bank total (transfer atomicity
//      inside every snapshot, across every failover phase);
//   3. recovery with MVCC enabled stays byte-identical across a double
//      recovery of the same crash image — version publication is strictly
//      a side channel and leaves no trace in the durable state.
// ---------------------------------------------------------------------------

#[test]
fn snapshot_readers_stay_consistent_through_kill_and_rejoin() {
    use recovery_machines::exec::{ExecConfig, ExecDb};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const ACCOUNTS: u64 = 12;
    const INITIAL: u64 = 64;
    const STREAMS: usize = 3;

    // two seeds keep the tier-1 wall-clock modest; the elastic-fleet churn
    // sweep above already covers the full seed battery for the write path
    for seed in [7u64, 31337] {
        let cfg = ExecConfig {
            wal: WalConfig {
                data_pages: 32,
                pool_frames: 24,
                log_streams: STREAMS,
                log_frames: 1 << 14,
                seed,
                ..WalConfig::default()
            },
            pool_shards: 4,
            ..ExecConfig::default()
        };
        let ctx = format!("ro-failover seed {seed}");
        let db = Arc::new(ExecDb::new(cfg.clone()));
        db.run_txn(0, |c| {
            for acct in 0..ACCOUNTS {
                c.write(acct, 0, &INITIAL.to_le_bytes())?;
            }
            Ok(())
        })
        .expect("seed accounts");

        let stop = Arc::new(AtomicBool::new(false));
        let checked = Arc::new(AtomicU64::new(0));
        crossbeam::thread::scope(|s| {
            // lock-free readers, running across every failover phase
            for r in 0..2usize {
                let db = Arc::clone(&db);
                let stop = Arc::clone(&stop);
                let checked = Arc::clone(&checked);
                let rctx = format!("{ctx} reader {r}");
                s.spawn(move |_| {
                    while !stop.load(Ordering::Acquire) {
                        let total = db
                            .run_ro_txn(r, |snap| {
                                let mut sum = 0u64;
                                for acct in 0..ACCOUNTS {
                                    let b = snap.read(acct, 0, 8)?;
                                    sum += u64::from_le_bytes(b.try_into().unwrap());
                                }
                                Ok(sum)
                            })
                            .unwrap_or_else(|e| {
                                panic!("{rctx}: snapshot read errored during failover: {e}")
                            });
                        assert_eq!(
                            total,
                            ACCOUNTS * INITIAL,
                            "{rctx}: snapshot saw a torn transfer"
                        );
                        checked.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }

            // the writer drives transfers through a kill → rejoin cycle
            let transfer = |round: u64, n: u64| {
                for i in 0..n {
                    let from = (seed ^ round.wrapping_mul(31) ^ i) % ACCOUNTS;
                    let to = (from + 1 + (i % (ACCOUNTS - 1))) % ACCOUNTS;
                    db.run_txn((i % 3) as usize, |c| {
                        let a = u64::from_le_bytes(c.read(from, 0, 8)?.try_into().unwrap());
                        let b = u64::from_le_bytes(c.read(to, 0, 8)?.try_into().unwrap());
                        let moved = 3u64.min(a);
                        c.write(from, 0, &(a - moved).to_le_bytes())?;
                        c.write(to, 0, &(b + moved).to_le_bytes())
                    })
                    .expect("transfer during failover");
                }
            };
            transfer(0, 16);

            // kill: readers keep running while the fleet loses a stream
            let victim = seed as usize % STREAMS;
            let handle = FaultInjector::handle(FaultPlan::new().fail_from_write(0));
            db.inject_stream_fault_handle(victim, handle.clone())
                .expect("inject kill fault");
            let t0 = Instant::now();
            while !db.is_stream_dead(victim) {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "{ctx}: stream {victim} never quarantined"
                );
                transfer(1, 1);
            }
            transfer(2, 12);

            // rejoin: readers keep running while the stream readmits
            handle.lock().revive();
            db.rejoin_stream(victim)
                .unwrap_or_else(|e| panic!("{ctx}: rejoin failed: {e}"));
            assert!(!db.is_degraded(), "{ctx}: degraded after rejoin");
            transfer(3, 16);

            stop.store(true, Ordering::Release);
        })
        .unwrap();
        assert!(
            checked.load(Ordering::Relaxed) > 0,
            "{ctx}: readers never completed a snapshot"
        );

        // recovered image must be byte-identical across a double recovery
        // with MVCC enabled, and still conserve the bank total
        let image = db.crash_image().expect("final crash image");
        let copy = clone_image(&image);
        let (mut rec, _) = WalDb::recover(image, cfg.wal.clone())
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
        let t = rec.begin();
        let total: u64 = (0..ACCOUNTS)
            .map(|p| u64::from_le_bytes(rec.read(t, p, 0, 8).unwrap().try_into().unwrap()))
            .sum();
        assert_eq!(
            total,
            ACCOUNTS * INITIAL,
            "{ctx}: recovered state lost money"
        );
        rec.abort(t).expect("read-only abort");
        let (rec2, _) = WalDb::recover(copy, cfg.wal.clone())
            .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
        assert_disks_identical(&rec.crash_image().data, &rec2.crash_image().data, &ctx);
        Arc::try_unwrap(db)
            .ok()
            .expect("reader threads joined")
            .shutdown()
            .ok();
    }
}

// ---------------------------------------------------------------------------
// Leveled differential store (LSM): the flush/compaction protocol names its
// interesting crash sites — output written but install manifest unpublished,
// mid-run write after the intent publish, install published but inputs not
// yet reclaimed — and each one is tripped deterministically, per seed, per
// backend, per job kind. The manifest commit protocol's contract:
//
//   1. recovery never panics and never loses a committed key, whichever
//      protocol step the crash interrupted;
//   2. torn outputs are orphans (GC'd by free-map derivation, never read)
//      and installed transitions are never rolled back;
//   3. recovery writes nothing, so double recovery of any crash image is
//      byte-identical, report included;
//   4. the recovered store still commits, flushes, and compacts.
// ---------------------------------------------------------------------------

const LSM_SITES: [CrashSite; 3] = [
    CrashSite::PreManifestPublish,
    CrashSite::MidLevelWrite,
    CrashSite::PostPublishPreGc,
];

fn lsm_cfg(backend: BackendKind) -> LsmConfig {
    LsmConfig {
        journal_frames: 16,
        arena_frames: 128,
        memtable_limit: 8,
        l0_limit: 2,
        level_base_frames: 2,
        fanout: 2,
        max_levels: 3,
        backend,
        background: false,
    }
}

/// Committed key state: `Some(value)` for a live put, `None` for a
/// committed tombstone (the key must NOT be visible).
type LsmOracle = BTreeMap<u64, Option<Vec<u8>>>;

fn lsm_live(m: &LsmOracle) -> BTreeMap<u64, Vec<u8>> {
    m.iter()
        .filter_map(|(k, v)| v.clone().map(|v| (*k, v)))
        .collect()
}

/// Commit `n` transactions of 1–3 ops each — mostly puts, enough deletes
/// that tombstones flow down the hierarchy — updating the oracle in step.
fn lsm_commit_burst(store: &LsmStore, oracle: &mut LsmOracle, rng: &mut StdRng, n: usize) {
    for _ in 0..n {
        let t = store.begin();
        let mut staged: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
        for _ in 0..rng.gen_range(1..4) {
            let key = rng.gen_range(0..32u64);
            if staged.iter().any(|(k, _)| *k == key) {
                continue;
            }
            if rng.gen_bool(0.85) {
                let mut v = vec![0u8; 8];
                rng.fill(&mut v[..]);
                store.put(t, key, &v).expect("stage put");
                staged.push((key, Some(v)));
            } else {
                store.delete(t, key).expect("stage delete");
                staged.push((key, None));
            }
        }
        store.commit(t).expect("clean commit");
        for (k, v) in staged {
            oracle.insert(k, v);
        }
    }
}

/// Post-crash checks shared by every sweep cell: recovery succeeds, the
/// committed relation is exactly intact under BOTH query strategies,
/// double recovery is byte-identical (report included), and the recovered
/// store still takes commits, flushes, and compactions.
fn lsm_check_recovery(
    store: &LsmStore,
    cfg: &LsmConfig,
    oracle: &LsmOracle,
    ctx: &str,
) -> LsmRecoveryReport {
    let (rec, report) = LsmStore::recover(store.crash_image(), cfg.clone())
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    let want = lsm_live(oracle);
    for strategy in [ScanStrategy::Optimal, ScanStrategy::Basic] {
        let got: BTreeMap<u64, Vec<u8>> = rec
            .scan(strategy)
            .unwrap_or_else(|e| panic!("{ctx}: {strategy:?} scan failed: {e}"))
            .into_iter()
            .collect();
        assert!(
            got == want,
            "{ctx}: {strategy:?} scan diverged from the committed oracle\n \
             got: {got:?}\nwant: {want:?}"
        );
    }
    // recovery performs zero writes: recovering the recovered store's own
    // image must agree byte for byte and file the identical report
    let d1 = rec.crash_image().dump();
    let (rec2, report2) = LsmStore::recover(rec.crash_image(), cfg.clone())
        .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
    assert_eq!(report, report2, "{ctx}: recovery report not deterministic");
    assert!(
        d1 == rec2.crash_image().dump(),
        "{ctx}: double recovery is not byte-identical"
    );
    // liveness: the recovered store still runs the full pipeline
    let t = rec.begin();
    rec.put(t, 10_000, b"post-crash").expect("post-crash put");
    rec.commit(t)
        .unwrap_or_else(|e| panic!("{ctx}: post-crash commit failed: {e}"));
    rec.flush_now()
        .unwrap_or_else(|e| panic!("{ctx}: post-crash flush failed: {e}"));
    rec.maintain()
        .unwrap_or_else(|e| panic!("{ctx}: post-crash maintain failed: {e}"));
    assert_eq!(
        rec.get(10_000).expect("post-crash get").as_deref(),
        Some(&b"post-crash"[..]),
        "{ctx}: post-crash key lost"
    );
    report
}

/// Per-site accounting the recovery report must show, given which job
/// (flush vs compaction) tripped the site.
fn lsm_check_site_accounting(
    site: CrashSite,
    compaction: bool,
    report: &LsmRecoveryReport,
    ctx: &str,
) {
    match site {
        CrashSite::PreManifestPublish | CrashSite::MidLevelWrite => {
            assert!(
                report.orphan_runs >= 1,
                "{ctx}: torn output not counted as an orphan: {report:?}"
            );
            assert_eq!(
                report.reclaimed_runs, 0,
                "{ctx}: nothing was retired before the install: {report:?}"
            );
        }
        CrashSite::PostPublishPreGc => {
            assert_eq!(
                report.orphan_runs, 0,
                "{ctx}: installed output miscounted as an orphan: {report:?}"
            );
            if compaction {
                assert!(
                    report.reclaimed_runs >= 1,
                    "{ctx}: retired inputs not reclaimed: {report:?}"
                );
            } else {
                // an installed flush bumps the journal generation: its
                // batches must not replay on top of the installed run
                assert_eq!(
                    report.replayed_batches, 0,
                    "{ctx}: stale journal replayed after an installed flush: {report:?}"
                );
            }
        }
    }
}

/// The named-crash-site sweep proper: seeds × sites × {flush, compaction},
/// on one backend. Committed state is built clean; the armed site then
/// crashes the device at the exact protocol step under the maintenance
/// job of choice.
fn lsm_named_site_sweep(backend: BackendKind, seeds: &[u64]) {
    for &seed in seeds {
        for (si, &site) in LSM_SITES.iter().enumerate() {
            for compaction in [false, true] {
                let cfg = lsm_cfg(backend.clone());
                let store = LsmStore::new(cfg.clone()).expect("new lsm store");
                let handle = FaultInjector::handle(FaultPlan::new());
                store.attach_faults(&handle);
                let mut rng = StdRng::seed_from_u64(
                    seed ^ ((si as u64 + 1) << 32) ^ ((compaction as u64) << 40),
                );
                let ctx = format!("lsm seed {seed} site {site:?} compaction {compaction}");

                // multi-level base state, committed clean: flush rounds,
                // then a full drain so deeper levels exist
                let mut oracle = LsmOracle::new();
                for _ in 0..3 {
                    lsm_commit_burst(&store, &mut oracle, &mut rng, 6);
                    store.flush_now().expect("clean flush");
                }
                store.maintain().expect("clean maintain");

                let err = if compaction {
                    // fill L0 past its limit without compacting; maintain()
                    // then picks CompactL0 and trips mid-merge
                    while store.manifest().l0.len() <= cfg.l0_limit {
                        lsm_commit_burst(&store, &mut oracle, &mut rng, 4);
                        store.flush_now().expect("clean flush");
                    }
                    store.set_crash_site(site);
                    store
                        .maintain()
                        .expect_err(&format!("{ctx}: armed compaction did not crash"))
                } else {
                    lsm_commit_burst(&store, &mut oracle, &mut rng, 3);
                    assert!(store.memtable_len() > 0, "{ctx}: nothing to flush");
                    store.set_crash_site(site);
                    store
                        .flush_now()
                        .expect_err(&format!("{ctx}: armed flush did not crash"))
                };
                assert!(
                    matches!(err, LsmError::Storage(StorageError::Offline)),
                    "{ctx}: unexpected crash error: {err}"
                );
                assert!(
                    handle.lock().crashed(),
                    "{ctx}: crash site never tripped the injector"
                );

                let report = lsm_check_recovery(&store, &cfg, &oracle, &ctx);
                lsm_check_site_accounting(site, compaction, &report, &ctx);
            }
        }
    }
}

#[test]
fn lsm_survives_named_crash_site_sweep() {
    lsm_named_site_sweep(BackendKind::Mem, &SEEDS);
}

#[test]
fn lsm_survives_named_crash_site_sweep_on_filedisk() {
    lsm_named_site_sweep(BackendKind::file(), &FILE_SEEDS);
}

/// The same three sites tripped on the BACKGROUND maintenance thread: the
/// worker observes the armed site through the very same fault handle the
/// foreground path uses, fails its job, and surfaces the error through
/// `wait_idle` — then recovery behaves exactly as in the foreground sweep.
#[test]
fn lsm_background_worker_trips_crash_sites_and_recovers() {
    for seed in [7u64, 1985, 31337] {
        for (si, &site) in LSM_SITES.iter().enumerate() {
            let cfg = LsmConfig {
                background: true,
                ..lsm_cfg(BackendKind::Mem)
            };
            let store = LsmStore::new(cfg.clone()).expect("new lsm store");
            let handle = FaultInjector::handle(FaultPlan::new());
            store.attach_faults(&handle);
            let mut rng = StdRng::seed_from_u64(seed ^ ((si as u64 + 1) << 32));
            let ctx = format!("lsm-bg seed {seed} site {site:?}");

            let mut oracle = LsmOracle::new();
            lsm_commit_burst(&store, &mut oracle, &mut rng, 10);
            store.wait_idle().expect("clean drain");

            // arm FIRST, then push the memtable over its limit: the worker
            // picks the flush up on its own thread and trips the site there.
            // A commit racing past the trip fails all-or-nothing (its
            // journal batch is either complete on the platter or dropped),
            // so at most one commit is ambiguous.
            store.set_crash_site(site);
            let mut ambiguous: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
            loop {
                let t = store.begin();
                let key = rng.gen_range(32..64u64);
                let mut v = vec![0u8; 8];
                rng.fill(&mut v[..]);
                store.put(t, key, &v).expect("stage put");
                match store.commit(t) {
                    Ok(()) => {
                        oracle.insert(key, Some(v));
                    }
                    Err(_) => {
                        ambiguous.push((key, Some(v)));
                        break;
                    }
                }
                if store.memtable_len() >= cfg.memtable_limit {
                    break;
                }
            }
            let err = store
                .wait_idle()
                .expect_err(&format!("{ctx}: armed background flush did not crash"));
            assert!(
                matches!(err, LsmError::Storage(StorageError::Offline)),
                "{ctx}: unexpected crash error: {err}"
            );
            assert!(
                handle.lock().crashed(),
                "{ctx}: worker never tripped the injector"
            );

            // recover into foreground mode: the byte-identity and report
            // oracles need a quiescent store, and a background worker would
            // immediately flush the replayed memtable underneath them
            let rcfg = LsmConfig {
                background: false,
                ..cfg.clone()
            };
            let (rec, report) = LsmStore::recover(store.crash_image(), rcfg.clone())
                .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
            let got: BTreeMap<u64, Vec<u8>> = rec
                .scan(ScanStrategy::Optimal)
                .unwrap_or_else(|e| panic!("{ctx}: scan failed: {e}"))
                .into_iter()
                .collect();
            let without = lsm_live(&oracle);
            let mut with_m = oracle.clone();
            for (k, v) in &ambiguous {
                with_m.insert(*k, v.clone());
            }
            let with = lsm_live(&with_m);
            assert!(
                got == without || got == with,
                "{ctx}: recovered relation matches neither side of the \
                 interrupted commit\n got: {got:?}\n old: {without:?}\n new: {with:?}"
            );
            lsm_check_site_accounting(site, false, &report, &ctx);

            // double recovery and liveness, as in the foreground sweep
            let d1 = rec.crash_image().dump();
            let (rec2, report2) = LsmStore::recover(rec.crash_image(), rcfg)
                .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
            assert_eq!(report, report2, "{ctx}: recovery report not deterministic");
            assert!(
                d1 == rec2.crash_image().dump(),
                "{ctx}: double recovery is not byte-identical"
            );
            let t = rec2.begin();
            rec2.put(t, 10_000, b"post-crash").expect("post-crash put");
            rec2.commit(t)
                .unwrap_or_else(|e| panic!("{ctx}: post-crash commit failed: {e}"));
            rec2.maintain()
                .unwrap_or_else(|e| panic!("{ctx}: post-crash maintain failed: {e}"));
        }
    }
}

/// Seeded-storm sweep: the same global-write-index crashpoint grid the
/// page engines run, against the LSM store — device faults land wherever
/// the protocol happens to be, foreground flushes and compactions
/// included. One commit (the crash-adjacent one) may be ambiguous; its
/// journal batch is all-or-nothing, so the recovered relation must equal
/// the oracle with or without it — nothing in between.
fn lsm_storm_sweep(backend: BackendKind, seeds: &[u64], crashpoints: &[u64]) {
    let mut crash_hits = 0usize;
    for &seed in seeds {
        for &crashpoint in crashpoints {
            let cfg = lsm_cfg(backend.clone());
            let store = LsmStore::new(cfg.clone()).expect("new lsm store");
            let plan = FaultPlan::seeded(seed, 1 << 20).crash_after_write(crashpoint);
            let handle = FaultInjector::handle(plan);
            store.attach_faults(&handle);
            let mut rng = StdRng::seed_from_u64(seed ^ (crashpoint << 32));
            let ctx = format!("lsm-storm seed {seed} crashpoint {crashpoint}");

            let mut committed = LsmOracle::new();
            let mut ambiguous: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
            let mut errored = false;
            'storm: for i in 0..400usize {
                let t = store.begin();
                let mut staged: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
                for _ in 0..rng.gen_range(1..4) {
                    let key = rng.gen_range(0..32u64);
                    if staged.iter().any(|(k, _)| *k == key) {
                        continue;
                    }
                    if rng.gen_bool(0.8) {
                        let mut v = vec![0u8; 8];
                        rng.fill(&mut v[..]);
                        store.put(t, key, &v).expect("stage put");
                        staged.push((key, Some(v)));
                    } else {
                        store.delete(t, key).expect("stage delete");
                        staged.push((key, None));
                    }
                }
                match store.commit(t) {
                    Ok(()) => {
                        for (k, v) in staged {
                            committed.insert(k, v);
                        }
                    }
                    Err(e) => {
                        // the batch may or may not have sealed before the
                        // crash — all-or-nothing either way
                        eprintln!("[lsm-storm] commit error: {e}");
                        ambiguous = staged;
                        errored = true;
                        break 'storm;
                    }
                }
                // periodic maintenance: flushes + compactions run through
                // the same faulted device the commits use
                if i % 4 == 3 {
                    if let Err(e) = store.maintain() {
                        // maintenance holds no staged data: committed
                        // state stays strict
                        eprintln!("[lsm-storm] maintain error: {e}");
                        errored = true;
                        break 'storm;
                    }
                }
            }
            assert!(errored, "{ctx}: storm ran dry without an error");
            crash_hits += usize::from(handle.lock().crashed());

            let (rec, _) = LsmStore::recover(store.crash_image(), cfg.clone())
                .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
            let got: BTreeMap<u64, Vec<u8>> = rec
                .scan(ScanStrategy::Optimal)
                .unwrap_or_else(|e| panic!("{ctx}: scan failed: {e}"))
                .into_iter()
                .collect();
            let got_basic: BTreeMap<u64, Vec<u8>> = rec
                .scan(ScanStrategy::Basic)
                .unwrap_or_else(|e| panic!("{ctx}: basic scan failed: {e}"))
                .into_iter()
                .collect();
            assert!(
                got == got_basic,
                "{ctx}: basic and optimal disagree after recovery"
            );
            let without = lsm_live(&committed);
            for (k, v) in &ambiguous {
                committed.insert(*k, v.clone());
            }
            let with = lsm_live(&committed);
            assert!(
                got == without || got == with,
                "{ctx}: recovered relation matches neither side of the \
                 interrupted commit\n got: {got:?}\n old: {without:?}\n new: {with:?}"
            );

            // double recovery is byte-identical even on storm-faulted images
            let d1 = rec.crash_image().dump();
            let (rec2, _) = LsmStore::recover(rec.crash_image(), cfg.clone())
                .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
            assert!(
                d1 == rec2.crash_image().dump(),
                "{ctx}: double recovery is not byte-identical"
            );

            // the engine still works on the clean device
            let t = rec.begin();
            rec.put(t, 10_000, b"post-recovery").expect("put");
            rec.commit(t).expect("commit");
            rec.flush_now().expect("flush");
            rec.maintain().expect("maintain");
        }
    }
    let grid = seeds.len() * crashpoints.len();
    assert!(
        crash_hits * 2 >= grid,
        "scheduled crash fired in only {crash_hits}/{grid} runs"
    );
}

#[test]
fn lsm_survives_seeded_crashpoint_storm() {
    lsm_storm_sweep(BackendKind::Mem, &SEEDS, &CRASHPOINTS);
}

#[test]
fn lsm_survives_seeded_crashpoint_storm_on_filedisk() {
    lsm_storm_sweep(BackendKind::file(), &FILE_SEEDS, &FILE_CRASHPOINTS);
}

/// The satellite regression: the SAME fault plan, observed once by the
/// background compaction thread and once by the foreground `maintain`
/// path, must produce the SAME retry accounting and the SAME bytes. Both
/// paths share one counted-I/O layer and one injector handle, so any
/// divergence means background I/O stopped going through them.
#[test]
fn lsm_background_fault_accounting_matches_foreground() {
    for seed in [7u64, 42, 1985, 31337] {
        let run = |background: bool| {
            let cfg = LsmConfig {
                l0_limit: 0, // compact after every flush
                background,
                ..lsm_cfg(BackendKind::Mem)
            };
            let store = LsmStore::new(cfg.clone()).expect("new lsm store");
            // deterministic clean prefix: stop one key short of the flush
            // threshold so no maintenance runs before the plan attaches
            for k in 0..cfg.memtable_limit as u64 - 1 {
                let t = store.begin();
                store.put(t, k, &(seed ^ k).to_le_bytes()).expect("stage");
                store.commit(t).expect("clean commit");
            }
            // identical transient plan from here on: the final commit, the
            // flush, and the L0 compaction all run through it. Sparse on
            // purpose — a faulted write burns extra attempt indices on its
            // retries, and stacking a second per-index fault inside that
            // window would exhaust the store's bounded retry budget.
            let plan = (0..24u64).fold(FaultPlan::new(), |p, i| {
                let p = if i % 5 == 0 {
                    p.transient_write(i, 1)
                } else {
                    p
                };
                if i % 7 == 3 {
                    p.transient_read(i, 1)
                } else {
                    p
                }
            });
            store.attach_faults(&FaultInjector::handle(plan));
            let t = store.begin();
            store.put(t, 99, b"trip-the-threshold").expect("stage");
            store.commit(t).expect("final commit");
            if background {
                store.wait_idle().expect("background maintenance");
            } else {
                store.maintain().expect("foreground maintenance");
            }
            let stats = store.stats();
            assert!(
                stats.flushes >= 1 && stats.compactions >= 1,
                "seed {seed} background={background}: maintenance never ran: {stats:?}"
            );
            (stats, store.crash_image().dump())
        };
        let (fg, fg_dump) = run(false);
        let (bg, bg_dump) = run(true);
        assert_eq!(
            fg, bg,
            "seed {seed}: background maintenance accounted faults differently"
        );
        assert!(
            fg.write_retries > 0,
            "seed {seed}: the plan never forced a write retry: {fg:?}"
        );
        assert!(
            fg_dump == bg_dump,
            "seed {seed}: background and foreground maintenance diverged on disk"
        );
    }
}
