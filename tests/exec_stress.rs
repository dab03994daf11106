//! Stress tests for the concurrent transaction pipeline (`rmdb-exec`):
//! invariant conservation under contention, and byte-identical crash
//! recovery of concurrent runs against a committed-state oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recovery_machines::exec::{ExecConfig, ExecDb, Executor};
use recovery_machines::storage::PAYLOAD_SIZE;
use recovery_machines::wal::{
    CrashImage, LogMode, LogRecord, LoggingPolicy, ParallelLogManager, SelectionPolicy, WalConfig,
    WalDb,
};
use std::sync::Arc;

const ACCOUNTS: u64 = 16;
const INITIAL: u64 = 100;

fn bank_cfg(seed: u64) -> ExecConfig {
    ExecConfig {
        wal: WalConfig {
            data_pages: 64,
            pool_frames: 24,
            log_streams: 3,
            log_frames: 4096,
            seed,
            ..WalConfig::default()
        },
        pool_shards: 4,
        ..ExecConfig::default()
    }
}

fn read_balance(db: &ExecDb, ctx_page: u64) -> u64 {
    let mut t = db.begin(0);
    let bytes = db.read(&mut t, ctx_page, 0, 8).expect("read balance");
    db.commit(t).expect("commit").wait().expect("ack");
    u64::from_le_bytes(bytes.try_into().unwrap())
}

fn seed_accounts(db: &ExecDb) {
    let mut t = db.begin(0);
    for acct in 0..ACCOUNTS {
        db.write(&mut t, acct, 0, &INITIAL.to_le_bytes()).unwrap();
    }
    db.commit(t).unwrap().wait().unwrap();
}

/// Transfer a random amount between two distinct random accounts; the
/// total must be conserved no matter how transfers interleave.
fn transfer_storm(db: &Arc<ExecDb>, workers: usize, txns_per_worker: usize, seed: u64) {
    crossbeam::thread::scope(|s| {
        for w in 0..workers {
            let db = Arc::clone(db);
            s.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(seed ^ (w as u64) << 17);
                for _ in 0..txns_per_worker {
                    let from = rng.gen_range(0..ACCOUNTS);
                    let mut to = rng.gen_range(0..ACCOUNTS);
                    while to == from {
                        to = rng.gen_range(0..ACCOUNTS);
                    }
                    let amount = rng.gen_range(1..10u64);
                    db.run_txn(w, |ctx| {
                        let a = u64::from_le_bytes(ctx.read(from, 0, 8)?.try_into().unwrap());
                        let b = u64::from_le_bytes(ctx.read(to, 0, 8)?.try_into().unwrap());
                        let moved = amount.min(a); // never overdraw
                        ctx.write(from, 0, &(a - moved).to_le_bytes())?;
                        ctx.write(to, 0, &(b + moved).to_le_bytes())
                    })
                    .expect("transfer txn");
                }
            });
        }
    })
    .unwrap();
}

#[test]
fn bank_transfers_conserve_total_balance() {
    for workers in [1usize, 2, 4] {
        let db = Arc::new(ExecDb::new(bank_cfg(0xBA2C + workers as u64)));
        seed_accounts(&db);
        transfer_storm(&db, workers, 50, 7 * workers as u64 + 1);
        let total: u64 = (0..ACCOUNTS).map(|a| read_balance(&db, a)).sum();
        assert_eq!(
            total,
            ACCOUNTS * INITIAL,
            "{workers} workers: money created or destroyed"
        );
        let stats = db.stats();
        assert_eq!(stats.starved, 0, "{workers} workers: starvation");
        assert_eq!(
            stats.committed,
            // seeding txn + transfers + one read-only txn per account
            1 + 50 * workers as u64 + ACCOUNTS,
            "{workers} workers: commit count"
        );
    }
}

/// After a quiesced concurrent run (every commit acked), a crash image
/// must recover byte-identical to the live committed state — for every
/// worker count.
#[test]
fn quiesced_concurrent_run_recovers_byte_identical() {
    for workers in [1usize, 2, 4] {
        let cfg = bank_cfg(0x1DE0 + workers as u64);
        let db = Arc::new(ExecDb::new(cfg.clone()));
        seed_accounts(&db);
        transfer_storm(&db, workers, 40, 31 * workers as u64 + 5);

        // committed-state oracle: the live engine's own reads, quiesced
        let oracle: Vec<Vec<u8>> = {
            let mut t = db.begin(0);
            let pages = (0..cfg.wal.data_pages)
                .map(|p| db.read(&mut t, p, 0, 64).expect("oracle read"))
                .collect();
            db.commit(t).unwrap().wait().unwrap();
            pages
        };

        let image = db.crash_image().expect("crash image");
        let (mut recovered, _report) = WalDb::recover(image, cfg.wal.clone()).expect("recover");
        let t = recovered.begin();
        for (page, expect) in oracle.iter().enumerate() {
            let got = recovered.read(t, page as u64, 0, 64).expect("read");
            assert_eq!(
                &got, expect,
                "{workers} workers: page {page} not byte-identical after recovery"
            );
        }
    }
}

/// A small log holds a long serial run: 2 streams × 64 log frames take
/// 2,500 single-page commits with no failure and no quarantine, because a
/// forced commit rewrites the stream's partial log page instead of burning
/// a frame. The run then recovers byte-identical.
#[test]
fn small_log_holds_packed_commits() {
    let cfg = ExecConfig {
        wal: WalConfig {
            data_pages: 64,
            pool_frames: 24,
            log_streams: 2,
            log_frames: 64,
            seed: 0x10C,
            ..WalConfig::default()
        },
        pool_shards: 4,
        ..ExecConfig::default()
    };
    let db = ExecDb::new(cfg.clone());
    for i in 0..2_500u64 {
        let mut t = db.begin(0);
        db.write(&mut t, i % 64, 0, &i.to_le_bytes())
            .unwrap_or_else(|e| panic!("txn {i}: write: {e}"));
        db.commit(t)
            .and_then(|h| h.wait())
            .unwrap_or_else(|e| panic!("txn {i}: commit: {e}"));
    }
    let snap = db.metrics();
    assert_eq!(snap.counter("failover.quarantined").unwrap_or(0), 0);

    let image = db.crash_image().expect("crash image");
    let (mut recovered, _) = WalDb::recover(image, cfg.wal).expect("recover");
    let t = recovered.begin();
    for page in 0..64u64 {
        let last = (0..2_500u64).rev().find(|i| i % 64 == page).unwrap();
        assert_eq!(recovered.read(t, page, 0, 8).unwrap(), last.to_le_bytes());
    }
}

/// A crash image taken *mid-run* (workers still transferring) recovers to
/// a state that still conserves the total balance: group commit never
/// exposes a half-applied transfer.
#[test]
fn mid_run_crash_image_conserves_balance() {
    let cfg = bank_cfg(0xC4A5);
    let db = Arc::new(ExecDb::new(cfg.clone()));
    seed_accounts(&db);
    let mut images = Vec::new();
    crossbeam::thread::scope(|s| {
        for w in 0..3usize {
            let db = Arc::clone(&db);
            s.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(0x5EED ^ (w as u64) << 9);
                for _ in 0..60 {
                    let from = rng.gen_range(0..ACCOUNTS);
                    let mut to = rng.gen_range(0..ACCOUNTS);
                    while to == from {
                        to = rng.gen_range(0..ACCOUNTS);
                    }
                    db.run_txn(w, |ctx| {
                        let a = u64::from_le_bytes(ctx.read(from, 0, 8)?.try_into().unwrap());
                        let b = u64::from_le_bytes(ctx.read(to, 0, 8)?.try_into().unwrap());
                        let moved = 5u64.min(a);
                        ctx.write(from, 0, &(a - moved).to_le_bytes())?;
                        ctx.write(to, 0, &(b + moved).to_le_bytes())
                    })
                    .expect("transfer txn");
                }
            });
        }
        // snapshot while the storm is in full swing, several times
        for _ in 0..3 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            images.push(db.crash_image().expect("mid-run crash image"));
        }
    })
    .unwrap();
    for (i, image) in images.into_iter().enumerate() {
        let (mut recovered, _) = WalDb::recover(image, cfg.wal.clone()).expect("recover");
        let t = recovered.begin();
        let total: u64 = (0..ACCOUNTS)
            .map(|p| u64::from_le_bytes(recovered.read(t, p, 0, 8).unwrap().try_into().unwrap()))
            .sum();
        assert_eq!(
            total,
            ACCOUNTS * INITIAL,
            "image {i}: balance not conserved"
        );
    }
}

/// Double-entry accounting over the observability registry: after a
/// quiesced bank run the pipeline's independently-maintained counter
/// pairs must balance exactly. Each side of every law is incremented by
/// a different thread at a different layer, so agreement is evidence
/// the pipeline lost nothing — not a restatement of one counter.
#[test]
fn metrics_obey_conservation_laws() {
    for workers in [1usize, 2, 4] {
        let cfg = bank_cfg(0x0B5 + workers as u64);
        let streams = cfg.wal.log_streams;
        let db = Arc::new(ExecDb::new(cfg));
        seed_accounts(&db);
        transfer_storm(&db, workers, 50, 13 * workers as u64 + 3);
        // settle the appender queues so producer/consumer counters meet
        db.drain_appenders().expect("drain appenders");
        let snap = db.metrics();
        let c = |name: &str| snap.counter(name).unwrap_or(0);

        // Law 1: every commit ack a worker observed corresponds to one
        // group-commit completion the daemon recorded (read-only commits
        // bypass the daemon and are excluded from both sides).
        assert_eq!(
            c("txn.commits_acked"),
            c("group.completions"),
            "{workers} workers: acks vs completions"
        );
        assert!(c("txn.commits_acked") > 0, "no commits went through");

        // Law 2: per stream, every fragment the producers enqueued was
        // appended by the log-processor thread (nothing stuck, nothing
        // invented). Also check the rollup across the bank.
        for s in 0..streams {
            assert_eq!(
                c(&format!("wal.fragments_enqueued.s{s}")),
                c(&format!("wal.fragments_appended.s{s}")),
                "{workers} workers: stream {s} enqueue/append imbalance"
            );
        }
        let enq = snap.counter_family("wal.fragments_enqueued.");
        let app = snap.counter_family("wal.fragments_appended.");
        assert_eq!(enq, app, "{workers} workers: total enqueue/append");
        assert!(enq > 0, "no fragments flowed");

        // Law 3: the pool counts lookups independently of the hit/miss
        // split; the split must tile the lookups exactly, per shard.
        let g = |name: &str| snap.gauge(name).unwrap_or(0);
        assert_eq!(
            g("pool.hits") + g("pool.misses"),
            g("pool.lookups"),
            "{workers} workers: pool split does not tile lookups"
        );
        assert!(g("pool.lookups") > 0, "pool never consulted");
        let (hits, misses) = db.pool_hit_miss();
        assert_eq!(g("pool.hits"), hits);
        assert_eq!(g("pool.misses"), misses);

        // Latency evidence: the commit histogram saw every daemon commit
        let h = snap.histogram("txn.commit_us").expect("commit histogram");
        assert!(h.count > 0 && h.quantile(0.99) >= h.quantile(0.5));

        // Law 4: the daemon records one commit-queue wait and one batch
        // size for every batch it flushes.
        let stats = db.stats();
        let n = |name: &str| snap.histogram(name).map_or(0, |h| h.count);
        assert_eq!(
            n("group.dwell_us"),
            n("group.batch_size"),
            "{workers} workers: queue waits vs batch sizes"
        );
        assert_eq!(
            n("group.batch_size"),
            stats.group_commits,
            "{workers} workers: batch sizes vs group commits"
        );

        // Law 5: in a run_txn-only workload every conflict retry is
        // tagged with exactly one cause.
        assert_eq!(
            snap.counter_family("lock.conflicts."),
            stats.conflict_retries,
            "{workers} workers: conflict causes vs conflict retries"
        );

        // Law 6: a fault-free run never takes a stream out of routing,
        // so nothing is quarantined, nothing reroutes, and the whole
        // fleet is live at the end.
        for name in [
            "failover.quarantined",
            "failover.reroutes",
            "failover.rerouted_fragments",
        ] {
            assert_eq!(c(name), 0, "{workers} workers: {name} in a fault-free run");
        }
        assert_eq!(
            g("failover.live_streams"),
            streams as u64,
            "{workers} workers: live streams after a fault-free run"
        );
    }
}

/// Snapshot-consistency oracle: while a transfer storm runs, concurrent
/// lock-free readers open MVCC snapshots and assert the bank-transfer
/// conservation invariant *inside every snapshot*. A transfer moves
/// value between two pages in one transaction, so any snapshot that
/// caught a half-applied transfer — or mixed two different commit
/// points — reads a wrong total. Afterwards, a quiesced check that the
/// GC watermark reclaims every version but the newest per page.
#[test]
fn snapshot_readers_see_conserved_balance_during_storm() {
    let db = Arc::new(ExecDb::new(bank_cfg(0x53AB)));
    seed_accounts(&db);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    crossbeam::thread::scope(|s| {
        // lock-free readers: sum all accounts inside one snapshot, over
        // and over, while the writers run
        let mut readers = Vec::new();
        for r in 0..3usize {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            readers.push(s.spawn(move |_| {
                let mut checked = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let total = db
                        .run_ro_txn(r, |snap| {
                            let mut sum = 0u64;
                            for acct in 0..ACCOUNTS {
                                let b = snap.read(acct, 0, 8)?;
                                sum += u64::from_le_bytes(b.try_into().unwrap());
                            }
                            Ok(sum)
                        })
                        .expect("snapshot read must never error");
                    assert_eq!(
                        total,
                        ACCOUNTS * INITIAL,
                        "reader {r}: snapshot saw a torn transfer"
                    );
                    checked += 1;
                }
                checked
            }));
        }
        transfer_storm(&db, 3, 60, 0x53AB);
        stop.store(true, std::sync::atomic::Ordering::Release);
        let checked: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(checked > 0, "readers never completed a snapshot");
    })
    .unwrap();

    // quiesced GC check: with no snapshots open, the watermark sits at
    // the published LSN and a sweep reclaims all but the newest version
    // of every versioned page
    let mvcc = db.mvcc();
    assert_eq!(mvcc.open_snapshots(), 0, "a snapshot guard leaked");
    db.mvcc_gc();
    let snap = db.metrics();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let pages_versioned = snap.gauge("mvcc.pages_versioned").unwrap_or(0);
    assert_eq!(
        mvcc.live_versions(),
        pages_versioned,
        "GC left more than one live version on some page"
    );
    assert!(
        pages_versioned >= ACCOUNTS,
        "fewer versioned pages than accounts"
    );
    // conservation law: every installed version was either pruned or is
    // still live — the registry never lost track of one
    assert_eq!(
        c("mvcc.versions_installed"),
        c("mvcc.versions_pruned") + mvcc.live_versions(),
        "mvcc version conservation violated"
    );
    assert!(c("mvcc.versions_installed") > 0, "no versions ever flowed");
    assert!(c("mvcc.ro_txns") > 0, "ro-txn counter never moved");
    assert_eq!(snap.gauge("mvcc.snapshots_open"), Some(0));
}

/// The bounded executor keeps every submission and survives far more
/// jobs than its queue depth (backpressure, not loss).
#[test]
fn executor_backpressure_loses_nothing() {
    let db = Arc::new(ExecDb::new(bank_cfg(0xEC5)));
    let pool = Executor::new(4, 2);
    let mut handles = Vec::new();
    for i in 0..200u64 {
        let db = Arc::clone(&db);
        handles.push(pool.submit(move || {
            db.run_txn((i % 4) as usize, |ctx| {
                ctx.write(i % 64, 0, &i.to_le_bytes())
            })
        }));
    }
    for h in handles {
        h.wait().expect("txn via executor");
    }
    pool.join();
    assert_eq!(db.stats().committed, 200);
}

/// One step of a serial script: a write, a counter bump, or a read.
enum Step {
    Write(u64, usize, Vec<u8>),
    Add(u64, usize, u64),
    Read(u64, usize),
}

/// A seeded serial script: transactions of 1–4 steps over 12 pages, about
/// a fifth of them aborted, then one loser left open with two writes.
fn serial_script(seed: u64) -> (Vec<(Vec<Step>, bool)>, Vec<Step>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let step = |rng: &mut StdRng| match rng.gen_range(0..3) {
        0 => {
            let len = rng.gen_range(1..24);
            let data = (0..len).map(|_| rng.gen()).collect();
            Step::Write(rng.gen_range(0..12), rng.gen_range(0..200), data)
        }
        1 => Step::Add(
            rng.gen_range(0..12),
            8 * rng.gen_range(0..4usize),
            rng.gen(),
        ),
        _ => Step::Read(rng.gen_range(0..12), rng.gen_range(0..200)),
    };
    let txns = (0..40)
        .map(|_| {
            let steps = (0..rng.gen_range(1..5)).map(|_| step(&mut rng)).collect();
            (steps, rng.gen_range(0..5) != 0)
        })
        .collect();
    let loser = vec![
        Step::Write(3, 40, b"in-flight".to_vec()),
        Step::Add(5, 0, 99),
    ];
    (txns, loser)
}

/// `(Update, Logical, Compensation)` records durable in `image`'s logs.
fn record_counts(image: &CrashImage) -> (usize, usize, usize) {
    let logs = image.logs.iter().map(|d| d.snapshot()).collect();
    let logs = ParallelLogManager::open(logs, SelectionPolicy::Cyclic, 0).expect("reopen logs");
    let mut counts = (0, 0, 0);
    for rec in logs.scan_all().iter().flatten() {
        match rec {
            LogRecord::Update { .. } => counts.0 += 1,
            LogRecord::Logical { .. } => counts.1 += 1,
            LogRecord::Compensation { .. } => counts.2 += 1,
            _ => {}
        }
    }
    counts
}

/// Every page's payload after recovering `image` with `WalDb::recover`.
fn recovered_payloads(image: CrashImage, cfg: &WalConfig) -> Vec<Vec<u8>> {
    let (mut db, _) = WalDb::recover(image, cfg.clone()).expect("recover");
    let q = db.begin();
    (0..cfg.data_pages)
        .map(|p| db.read(q, p, 0, PAYLOAD_SIZE).expect("read page"))
        .collect()
}

#[test]
fn serial_script_matches_waldb_under_every_policy() {
    let (txns, loser) = serial_script(0x5E71A1);
    let policies = [
        LoggingPolicy::Fragments,
        LoggingPolicy::Command,
        LoggingPolicy::Adaptive,
    ];
    for logging in policies {
        for log_mode in [LogMode::Logical, LogMode::Physical] {
            // one log stream, so both engines force the same record
            // sequence; a pool that holds every page, so neither spills
            let cfg = WalConfig {
                data_pages: 16,
                pool_frames: 32,
                log_streams: 1,
                log_frames: 4096,
                log_mode,
                logging,
                ..WalConfig::default()
            };
            let mut wal = WalDb::new(cfg.clone());
            let exec = ExecDb::new(ExecConfig {
                wal: cfg.clone(),
                pool_shards: 1,
                ..ExecConfig::default()
            });
            let wal_run = |db: &mut WalDb, t, steps: &[Step]| {
                for s in steps {
                    match s {
                        Step::Write(p, o, d) => db.write(t, *p, *o, d).map(drop),
                        Step::Add(p, o, v) => db.add_u64(t, *p, *o, *v).map(drop),
                        Step::Read(p, o) => db.read(t, *p, *o, 8).map(drop),
                    }
                    .expect("WalDb step");
                }
            };
            let exec_run = |t: &mut _, steps: &[Step]| {
                for s in steps {
                    match s {
                        Step::Write(p, o, d) => exec.write(t, *p, *o, d),
                        Step::Add(p, o, v) => exec.add_u64(t, *p, *o, *v),
                        Step::Read(p, o) => exec.read(t, *p, *o, 8).map(drop),
                    }
                    .expect("ExecDb step");
                }
            };
            for (steps, commit) in &txns {
                let t = wal.begin();
                wal_run(&mut wal, t, steps);
                let mut x = exec.begin(0);
                exec_run(&mut x, steps);
                if *commit {
                    wal.commit(t).expect("WalDb commit");
                    exec.commit(x)
                        .and_then(|h| h.wait())
                        .expect("ExecDb commit");
                } else {
                    wal.abort(t).expect("WalDb abort");
                    exec.abort(x).expect("ExecDb abort");
                }
            }
            let t = wal.begin();
            wal_run(&mut wal, t, &loser);
            let mut x = exec.begin(0);
            exec_run(&mut x, &loser);

            let case = format!("{logging:?} x {log_mode:?}");
            let (wal_image, exec_image) = (wal.crash_image(), exec.crash_image().unwrap());
            let counts = record_counts(&wal_image);
            assert_eq!(
                counts,
                record_counts(&exec_image),
                "{case}: (Update, Logical, Compensation) record counts differ"
            );
            // the script exercises the policy: fragments with compensated
            // aborts, or command records with deferred aborts logging nothing
            match logging {
                LoggingPolicy::Fragments => {
                    assert!(counts.0 > 0 && counts.1 == 0 && counts.2 > 0, "{case}")
                }
                // no update fragment at all: neither engine spilled
                LoggingPolicy::Command => {
                    assert!(counts.0 == 0 && counts.1 > 0 && counts.2 == 0, "{case}")
                }
                LoggingPolicy::Adaptive => assert!(counts.1 > 0, "{case}"),
            }
            assert!(
                recovered_payloads(wal_image, &cfg) == recovered_payloads(exec_image, &cfg),
                "{case}: recovered page payloads differ"
            );
            exec.abort(x).expect("ExecDb loser abort");
        }
    }
}
