//! `oltp-bank`: two closed-loop clients drive transfers and balance reads
//! through `ExecDb` on MemDisk.
//!
//! The run is a sequence of rounds of fixed work, until the clients have
//! run for `--seconds`. Each round builds and preloads a fresh database
//! (timed as set-up), runs the clients until each has committed its
//! transfers, takes a crash image, checks conservation under locks and
//! recovers the image with `WalDb::recover`, checking that every balance
//! survived. Fixed-work rounds keep the log, the memory and the recovery
//! of a round the same size however fast the pipeline is, and give set-up
//! and recovery many samples per run.

use crate::bank::{self, ClientOut, ExecTotals, Gen, Op, ACCOUNTS, INITIAL};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, ratio, PerRound, Samples};
use crate::trace::{SpanLog, Tracer};
use crate::Args;
use rmdb_exec::ExecDb;
use rmdb_obs::Registry;
use rmdb_storage::FRAME_SIZE;
use rmdb_wal::recover_observed;
use std::cell::RefCell;
use std::time::Instant;

/// Client threads (closed loop: each sends its next request only after
/// the previous one returned).
const CLIENTS: u64 = 2;
/// Transfers each client commits per round (about a second's work).
const TRANSFERS: usize = 6_000;
/// Log frames per stream: several times what a round uses (the
/// log-capacity guard; `wal.log_fill` reports the share used).
const LOG_FRAMES: u64 = 1 << 16;
/// Client 0 checks conservation over a snapshot of every account once
/// every this many requests.
const AUDIT_EVERY: u64 = 1024;

pub fn run(args: &Args, rep: &mut Report) {
    let obs = Registry::new();
    let rec_obs = Registry::new();
    let epoch = Instant::now();
    let mut log = SpanLog::default();
    let mut totals = ExecTotals::default();
    let (mut commits, mut reads) = (PerRound::default(), PerRound::default());
    let (mut setup, mut recover_ms, mut log_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut tps_plain, mut tps_traced) = (Vec::new(), Vec::new());
    let mut traffic = 0.0;
    let mut round = 0;
    while traffic < args.seconds {
        let traced = args.trace && round % 2 == 1;
        let t_setup = Instant::now();
        let db = ExecDb::new(bank::config(&obs, 0, LOG_FRAMES));
        if let Err(e) = bank::preload(&db) {
            rep.fail(format!("preload: {e}"));
            return;
        }
        setup.push(t_setup.elapsed().as_secs_f64());

        let start = Instant::now();
        let outs: Vec<(ClientOut, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let db = &db;
                    let tracer = Tracer::new(traced, epoch, c);
                    s.spawn(move || client(db, args.seed, round * CLIENTS + c, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        traffic += elapsed;
        let (mut round_commits, mut round_reads) = (Samples::default(), Samples::default());
        for (out, tracer) in outs {
            rep.attempted += out.attempted;
            for e in out.errors {
                rep.fail(e);
            }
            round_commits.extend(out.commits);
            round_reads.extend(out.reads);
            log.add(tracer);
        }
        let transfers = round_commits.len();
        commits.add(round_commits);
        reads.add(round_reads);
        let tps = transfers as f64 / elapsed;
        if traced {
            tps_traced.push(tps);
        } else {
            tps_plain.push(tps);
        }

        // quiesced: crash, then conservation under locks (the locked read
        // sweeps every page through the pool, so it must come after the
        // image to leave recovery its redo work)
        let image = match db.crash_image() {
            Ok(i) => i,
            Err(e) => {
                rep.fail(format!("crash image: {e}"));
                return;
            }
        };
        let committed = db.stats().committed;
        let expect = match bank::locked_balances(&db) {
            Ok(b) => b,
            Err(e) => {
                rep.fail(format!("final locked read: {e}"));
                return;
            }
        };
        let total: u64 = expect.iter().sum();
        if total != ACCOUNTS * INITIAL {
            rep.fail(format!(
                "round {round}: locked sum {total} != {}",
                ACCOUNTS * INITIAL
            ));
        }
        totals.absorb(&db);
        drop(db);
        totals.absorb_log(&image, LOG_FRAMES);
        let frames = bank::log_frames_used(&image);
        log_bytes.push(ratio((frames * FRAME_SIZE as u64) as f64, committed as f64));
        let t_rec = Instant::now();
        rep.attempted += 1;
        match recover_observed(image, bank::wal_config(0, LOG_FRAMES), &rec_obs) {
            Ok((mut rec, _)) => {
                recover_ms.push(t_rec.elapsed().as_secs_f64() * 1e3);
                match bank::recovered_balances(&mut rec, ACCOUNTS, &mut Samples::default()) {
                    Ok(got) if got == expect => {}
                    Ok(_) => rep.fail(format!("round {round}: recovered balances differ")),
                    Err(e) => rep.fail(format!("round {round}: read after recovery: {e}")),
                }
            }
            Err(e) => rep.fail(format!("round {round}: recover: {e}")),
        }
        round += 1;
    }
    let rss = peak_rss_mb();
    let snap = obs.snapshot();
    bank::check_fleet(rep, &snap);
    rep.note(format!("transfers: {}", commits.describe()));
    rep.note(format!("balance reads: {}", reads.describe()));
    rep.note(format!(
        "{} log frames in {} rounds",
        totals.log_frames,
        setup.len()
    ));

    if args.trace {
        bank::exec_layer_metrics(rep, &log, &snap, &totals);
        bank::recovery_layer_metrics(rep, &rec_obs.snapshot());
        rep.set("txn.commit_p99_us", commits.p99());
        rep.spans(&log, &tps_traced, &tps_plain, &crate::trace_path(args));
        return;
    }
    rep.set("setup_s", median(&setup));
    rep.set("commit_tps", median(&tps_plain));
    rep.set("commit_p50_us", commits.p50());
    rep.set("read_p50_us", reads.p50());
    rep.set("read_p95_us", reads.p95());
    rep.set("recover_ms", median(&recover_ms));
    rep.set("log_bytes_per_commit", median(&log_bytes));
    rep.set("peak_rss_mb", rss);
}

/// One client's closed loop until it has committed `TRANSFERS`.
fn client(db: &ExecDb, seed: u64, stream: u64, tracer: Tracer) -> (ClientOut, Tracer) {
    let qp = (stream % CLIENTS) as usize;
    let tr = RefCell::new(tracer);
    let quiet = RefCell::new(Tracer::new(false, Instant::now(), 0));
    let all: Vec<u64> = (0..ACCOUNTS).collect();
    let mut gen = Gen::new(seed, stream);
    let mut out = ClientOut::default();
    let mut n = 0u64;
    while out.commits.len() < TRANSFERS {
        n += 1;
        out.attempted += 1;
        if stream.is_multiple_of(CLIENTS) && n.is_multiple_of(AUDIT_EVERY) {
            match bank::balance(db, qp, &all, &quiet) {
                Ok(sum) if sum == ACCOUNTS * INITIAL => {}
                Ok(sum) => out
                    .errors
                    .push(format!("snapshot sum {sum} != {}", ACCOUNTS * INITIAL)),
                Err(e) => out.errors.push(format!("snapshot audit: {e}")),
            }
            continue;
        }
        let t = Instant::now();
        match gen.next() {
            Op::Transfer { from, to, amount } => {
                match bank::transfer(db, qp, from, to, amount, &tr) {
                    Ok(_) => out.commits.push(t.elapsed()),
                    Err(e) => out.errors.push(format!("transfer: {e}")),
                }
            }
            Op::Balance(accounts) => match bank::balance(db, qp, &accounts, &tr) {
                Ok(_) => out.reads.push(t.elapsed()),
                Err(e) => out.errors.push(format!("balance read: {e}")),
            },
        }
    }
    (out, tr.into_inner())
}
