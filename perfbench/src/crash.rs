//! `crash-restart`: one client commits a fixed list of transfers through
//! `ExecDb`, leaving a few transactions open with writes, and takes a
//! crash image. The image is built several times (the set-up); every
//! build of one seed must produce the same log. Then, for the measured
//! seconds, fresh copies of the image are recovered alternately by
//! `WalDb::recover` and by `rmdb_restart::restart` with one redo worker
//! per core, and each recovered database serves its first requests: a
//! read of every page, then a list of transfers.

use crate::bank::{self, balance_of, ClientOut, ExecTotals, Gen, Op, ACCOUNTS, INITIAL};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, ratio, PerRound, Samples};
use crate::trace::{SpanLog, Tracer};
use crate::Args;
use rmdb_exec::{ExecDb, ExecError};
use rmdb_obs::Registry;
use rmdb_restart::{restart_observed, RestartConfig, RestartReport};
use rmdb_storage::{Disk, FRAME_SIZE};
use rmdb_wal::{recover_observed, CrashImage, RecoveryReport, WalDb, WalError};
use std::cell::RefCell;
use std::time::Instant;

/// Committed transfers per build.
const TRANSFERS: u64 = 10_000;
/// Transactions left open with one write each (recovery undoes them),
/// on pages past the accounts.
const LOSERS: u64 = 4;
/// Builds of the crash image per run (set-up samples).
const BUILDS: u64 = 7;
/// Log frames per stream, far more than a build uses.
const LOG_FRAMES: u64 = 1 << 16;
/// Transfers each recovered database serves.
const SERVED: usize = 2_000;

/// A built crash image and what building it measured.
struct Built {
    image: CrashImage,
    /// Balances every page must recover to (accounts, then loser pages).
    expect: Vec<u64>,
    committed: u64,
    tps: f64,
}

pub fn run(args: &Args, rep: &mut Report) {
    let obs = Registry::new();
    let epoch = Instant::now();
    let mut log = SpanLog::default();
    let mut totals = ExecTotals::default();
    let (mut setup, mut tps_plain, mut tps_traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Built> = None;
    for b in 0..BUILDS {
        let traced = args.trace && b % 2 == 1;
        let tr = RefCell::new(Tracer::new(traced, epoch, 0));
        let mut out = ClientOut::default();
        let t0 = Instant::now();
        let built = match build(args.seed, &obs, &tr, &mut out, &mut totals) {
            Ok(built) => built,
            Err(e) => {
                rep.fail(format!("build {b}: {e}"));
                return;
            }
        };
        setup.push(t0.elapsed().as_secs_f64());
        log.add(tr.into_inner());
        rep.attempted += out.attempted;
        for e in out.errors {
            rep.fail(e);
        }
        if traced {
            tps_traced.push(built.tps);
        } else {
            tps_plain.push(built.tps);
        }
        totals.absorb_log(&built.image, LOG_FRAMES);
        match &first {
            None => first = Some(built),
            Some(f) => {
                let same = f.image.logs.len() == built.image.logs.len()
                    && f.image
                        .logs
                        .iter()
                        .zip(&built.image.logs)
                        .all(|(a, b)| bank::disks_identical(a, b));
                if !same || f.expect != built.expect {
                    rep.fail(format!("build {b}: the log differs from build 0's"));
                }
            }
        }
    }
    let Some(built) = first else { return };
    let frames = bank::log_frames_used(&built.image);

    // measured: alternate serial recovery and parallel restart
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rcfg = RestartConfig {
        workers,
        ..RestartConfig::default()
    };
    let (rec_obs, rst_obs) = (Registry::new(), Registry::new());
    let (mut recover_ms, mut restart_ms, mut imbalance) = (Vec::new(), Vec::new(), Vec::new());
    let mut rst_phases = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut oracle = Oracle::default();
    let (mut reads, mut commits, mut served_tps) =
        (PerRound::default(), PerRound::default(), Vec::new());
    let start = Instant::now();
    let mut i = 0u64;
    while i < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let image = bank::copy_image(&built.image);
        let cfg = bank::wal_config(LOSERS, LOG_FRAMES);
        rep.attempted += 1;
        let t = Instant::now();
        let (mut db, base) = if i.is_multiple_of(2) {
            match recover_observed(image, cfg, &rec_obs) {
                Ok((db, r)) => {
                    recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    (db, r)
                }
                Err(e) => {
                    rep.fail(format!("recover: {e}"));
                    return;
                }
            }
        } else {
            match restart_observed(image, cfg, &rcfg, &rst_obs) {
                Ok((db, r)) => {
                    restart_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    note_restart(&r, &mut rst_phases, &mut imbalance);
                    (db, r.base)
                }
                Err(e) => {
                    rep.fail(format!("restart: {e}"));
                    return;
                }
            }
        };
        reads.add(oracle.check(rep, &mut db, &base, &built, i));
        rep.attempted += SERVED as u64;
        match serve(&mut db, &built.expect, args.seed) {
            Ok((lat, tps)) => {
                commits.add(lat);
                served_tps.push(tps);
            }
            Err(e) => rep.fail(format!("recovery {i}: serving: {e}")),
        }
        i += 1;
    }
    let rss = peak_rss_mb();
    bank::check_fleet(rep, &obs.snapshot());
    rep.note(format!(
        "{} builds of {TRANSFERS} transfers ({} commits, {frames} log frames); {} recoveries, \
         {} restarts with {workers} workers",
        setup.len(),
        built.committed,
        recover_ms.len(),
        restart_ms.len(),
    ));
    rep.note(format!("transfers after recovery: {}", commits.describe()));
    rep.note(format!("reads after recovery: {}", reads.describe()));

    if args.trace {
        bank::exec_layer_metrics(rep, &log, &obs.snapshot(), &totals);
        bank::recovery_layer_metrics(rep, &rec_obs.snapshot());
        let snap = rst_obs.snapshot();
        let n = restart_ms.len() as f64;
        rep.set("restart.total_ms", median(&restart_ms));
        for (name, v) in [
            "restart.analysis_us",
            "restart.redo_us",
            "restart.undo_us",
            "restart.flush_us",
        ]
        .into_iter()
        .zip(&rst_phases)
        {
            rep.set(name, median(v));
        }
        let per = |c: &str| ratio(snap.counter(c).unwrap_or(0) as f64, n);
        rep.set("restart.records_scanned", per("restart.records_scanned"));
        rep.set("restart.pages_replayed", per("restart.pages_replayed"));
        rep.set("restart.worker_imbalance", median(&imbalance));
        rep.set("txn.commit_p99_us", commits.p99());
        rep.spans(&log, &tps_traced, &tps_plain, &crate::trace_path(args));
        return;
    }
    rep.set("setup_s", median(&setup));
    rep.set("commit_tps", median(&served_tps));
    rep.set("commit_p50_us", commits.p50());
    rep.set("read_p50_us", reads.p50());
    rep.set("read_p95_us", reads.p95());
    rep.set("recover_ms", median(&recover_ms));
    rep.set(
        "log_bytes_per_commit",
        ratio((frames * FRAME_SIZE as u64) as f64, built.committed as f64),
    );
    rep.set("peak_rss_mb", rss);
}

/// Build the crash image: preload, run the transfer list with 20% balance
/// reads in between, open the losers at 90% of the list, crash.
fn build(
    seed: u64,
    obs: &Registry,
    tr: &RefCell<Tracer>,
    out: &mut ClientOut,
    totals: &mut ExecTotals,
) -> Result<Built, ExecError> {
    let db = ExecDb::new(bank::config(obs, LOSERS, LOG_FRAMES));
    bank::preload(&db)?;
    let mut expect = vec![INITIAL; ACCOUNTS as usize];
    expect.extend((0..LOSERS).map(|_| 0));
    let mut gen = Gen::new(seed, 0);
    let mut losers = Vec::new();
    let (mut done, start) = (0u64, Instant::now());
    while done < TRANSFERS {
        if done == TRANSFERS * 9 / 10 && losers.is_empty() {
            for l in 0..LOSERS {
                let mut txn = db.begin(0);
                db.write(&mut txn, ACCOUNTS + l, 0, &(l + 1).to_le_bytes())?;
                losers.push(txn);
            }
        }
        out.attempted += 1;
        match gen.next() {
            Op::Transfer { from, to, amount } => {
                let moved = bank::transfer(&db, 0, from, to, amount, tr)?;
                let m = amount.min(expect[from as usize]);
                if moved != m {
                    out.errors
                        .push(format!("transfer {done} moved {moved}, expected {m}"));
                }
                expect[from as usize] -= m;
                expect[to as usize] += m;
                done += 1;
            }
            Op::Balance(accounts) => {
                let sum = bank::balance(&db, 0, &accounts, tr)?;
                let want: u64 = accounts.iter().map(|&a| expect[a as usize]).sum();
                if sum != want {
                    out.errors
                        .push(format!("balance read {sum}, expected {want}"));
                }
            }
        }
    }
    let tps = TRANSFERS as f64 / start.elapsed().as_secs_f64();
    totals.absorb(&db);
    let committed = db.stats().committed;
    let image = db.crash_image()?;
    drop(db);
    drop(losers);
    Ok(Built {
        image,
        expect,
        committed,
        tps,
    })
}

/// The first transfers a recovered database serves (cold pool): each
/// must find the balances the generator predicts. Returns each one's
/// latency and their rate.
fn serve(db: &mut WalDb, expect: &[u64], seed: u64) -> Result<(Samples, f64), String> {
    let mut expect = expect.to_vec();
    let mut gen = Gen::new(seed, 1);
    let mut lat = Samples::default();
    let start = Instant::now();
    while lat.len() < SERVED {
        let Op::Transfer { from, to, amount } = gen.next() else {
            continue;
        };
        let (from, to) = (from as usize, to as usize);
        let t = Instant::now();
        let got = (|| -> Result<(u64, u64), WalError> {
            let txn = db.begin();
            let f = balance_of(&db.read(txn, from as u64, 0, 8)?);
            let b = balance_of(&db.read(txn, to as u64, 0, 8)?);
            let m = amount.min(f);
            db.write(txn, from as u64, 0, &(f - m).to_le_bytes())?;
            db.write(txn, to as u64, 0, &(b + m).to_le_bytes())?;
            db.commit(txn)?;
            Ok((f, b))
        })()
        .map_err(|e| e.to_string())?;
        lat.push(t.elapsed());
        if got != (expect[from], expect[to]) {
            return Err(format!(
                "transfer read {got:?}, expected {:?}",
                (expect[from], expect[to])
            ));
        }
        let m = amount.min(expect[from]);
        expect[from] -= m;
        expect[to] += m;
    }
    Ok((lat, SERVED as f64 / start.elapsed().as_secs_f64()))
}

/// Phase clock and worker balance of one restart.
fn note_restart(r: &RestartReport, phases: &mut [Vec<f64>; 4], imbalance: &mut Vec<f64>) {
    let t = &r.timings;
    for (v, d) in phases.iter_mut().zip([t.analysis, t.redo, t.undo, t.flush]) {
        v.push(d.as_secs_f64() * 1e6);
    }
    let busy: Vec<f64> = r.per_worker.iter().map(|w| w.busy.as_secs_f64()).collect();
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    imbalance.push(ratio(busy.iter().cloned().fold(0.0, f64::max), mean));
}

/// Oracles on each recovered database: the expected balances, every
/// loser undone, the same scan counts every time, and recover and
/// restart leaving frame-identical data disks.
#[derive(Default)]
struct Oracle {
    /// Records scanned and losers found by the first recovery.
    first: Option<(usize, usize)>,
    /// The first recovery's data disk.
    data: Option<Disk>,
}

impl Oracle {
    /// Check recovery `i`; returns the latency of each page read back.
    fn check(
        &mut self,
        rep: &mut Report,
        db: &mut WalDb,
        base: &RecoveryReport,
        built: &Built,
        i: u64,
    ) -> Samples {
        let counts = (base.records_scanned, base.loser_txns.len());
        match self.first {
            None => self.first = Some(counts),
            Some(c) if c != counts => rep.fail(format!(
                "recovery {i}: scanned {} records with {} losers, first scanned {} with {}",
                counts.0, counts.1, c.0, c.1
            )),
            Some(_) => {}
        }
        if counts.1 != LOSERS as usize {
            rep.fail(format!(
                "recovery {i}: {} losers, expected {LOSERS}",
                counts.1
            ));
        }
        let mut lat = Samples::default();
        match bank::recovered_balances(db, ACCOUNTS + LOSERS, &mut lat) {
            Ok(got) if got == built.expect => {}
            Ok(_) => rep.fail(format!(
                "recovery {i}: balances differ from the generator's"
            )),
            Err(e) => rep.fail(format!("recovery {i}: read: {e}")),
        }
        // the disks are compared for the first recover and restart
        if i < 2 {
            let disk = db.crash_image().data;
            match &self.data {
                None => self.data = Some(disk),
                Some(d) if !bank::disks_identical(d, &disk) => {
                    rep.fail("recover and restart data disks differ".to_string())
                }
                Some(_) => {}
            }
        }
        lat
    }
}
