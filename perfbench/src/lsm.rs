//! `lsm-mixed`: two closed-loop clients on one `LsmStore` with background
//! maintenance: 50% write transactions of 1-3 puts or deletes, 35% point
//! gets and 15% range scans of 64 keys, over 4096 preloaded keys with
//! 64-byte values.
//!
//! Client `c` writes only keys with `key % 2 == c`, so each client knows
//! the exact value of its own keys and checks every read of them; reads
//! range over all keys, beside the other client's writes and compaction.
//! Like `oltp-bank`, the run is a sequence of one-second rounds on fresh
//! stores; each round ends by checking the store against the clients'
//! models, comparing Basic and Optimal scans, and recovering a crash
//! image with `LsmStore::recover`.

use crate::report::Report;
use crate::stats::{median, peak_rss_mb, ratio, PerRound, Rng, Samples};
use crate::trace::{SpanLog, Tracer, NONE};
use crate::Args;
use rmdb_difffile::{LsmConfig, LsmError, LsmStore, ScanStrategy};
use rmdb_obs::Registry;
use rmdb_storage::FRAME_SIZE;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
const KEYS: u64 = 4096;
const VALUE_LEN: usize = 64;
const ROUND: Duration = Duration::from_secs(2);
/// Keys per preload transaction (one journal frame).
const PRELOAD_BATCH: u64 = 32;
/// Keys per range scan.
const RANGE: u64 = 64;
/// Ranges compared between the two scan strategies after each round.
const SAMPLED_RANGES: u64 = 16;
/// Journal batches between the last flush and the crash image, and puts
/// per batch: below both flush triggers (half the journal, the memtable
/// limit).
const TAIL_TXNS: u64 = 24;
const TAIL_PUTS: u64 = 2;
/// Recoveries of each round's crash image.
const RECOVERIES: usize = 9;
/// Write transactions per client per round at most.
const MAX_COMMITS: usize = 50_000;

/// A client's view of its own keys: `None` once deleted.
type Model = BTreeMap<u64, Option<Vec<u8>>>;
type Rows = Vec<(u64, Vec<u8>)>;

fn config() -> LsmConfig {
    LsmConfig {
        arena_frames: 4096,
        background: true,
        ..LsmConfig::default()
    }
}

/// A 64-byte value drawn from `rng`.
fn value(rng: &mut Rng) -> Vec<u8> {
    let word = rng.next().to_le_bytes();
    word.iter().cycle().take(VALUE_LEN).copied().collect()
}

#[derive(Default)]
struct ClientOut {
    commits: Samples,
    gets: Samples,
    scans: Samples,
    attempted: u64,
    conflicts: u64,
    errors: Vec<String>,
}

pub fn run(args: &Args, rep: &mut Report) {
    let obs = Registry::new();
    let epoch = Instant::now();
    let mut log = SpanLog::default();
    let (mut commit_lat, mut get_lat, mut scan_lat) = (
        PerRound::default(),
        PerRound::default(),
        PerRound::default(),
    );
    let (mut attempted, mut conflicts, mut errors) = (0u64, 0u64, Vec::new());
    let (mut setup, mut recover_ms, mut log_bytes, mut wamp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut tps_plain, mut tps_traced, mut l0) = (Vec::new(), Vec::new(), Vec::new());
    let (mut commits, mut journal, mut run_frames) = (0u64, 0u64, 0u64);
    let rounds = (args.seconds / ROUND.as_secs_f64()).ceil().max(1.0) as u64;
    for round in 0..rounds {
        let traced = args.trace && round % 2 == 1;
        let t_setup = Instant::now();
        let (store, mut models) = match preload(args.seed, round, &obs) {
            Ok(s) => s,
            Err(e) => {
                rep.fail(format!("preload: {e}"));
                return;
            }
        };
        setup.push(t_setup.elapsed().as_secs_f64());

        let before = store.stats();
        let start = Instant::now();
        let deadline = start + ROUND;
        let outs: Vec<(ClientOut, Model, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = models
                .drain(..)
                .enumerate()
                .map(|(c, model)| {
                    let store = &store;
                    let tracer = Tracer::new(traced, epoch, c as u64);
                    let rng = Rng::new(args.seed, round * CLIENTS + c as u64);
                    s.spawn(move || client(store, c as u64, rng, model, deadline, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let after = store.stats();
        let n = after.commits - before.commits;
        let tps = n as f64 / elapsed;
        if traced {
            tps_traced.push(tps);
        } else {
            tps_plain.push(tps);
        }
        let jf = after.journal_frames_written - before.journal_frames_written;
        log_bytes.push(ratio((jf * FRAME_SIZE as u64) as f64, n as f64));
        commits += n;
        journal += jf;
        run_frames += after.run_frames_written - before.run_frames_written;
        l0.push(store.manifest().l0.len() as f64);
        let mut all = ClientOut::default();
        for (out, model, tracer) in outs {
            all.commits.extend(out.commits);
            all.gets.extend(out.gets);
            all.scans.extend(out.scans);
            attempted += out.attempted;
            conflicts += out.conflicts;
            errors.extend(out.errors);
            models.push(model);
            log.add(tracer);
        }
        commit_lat.add(all.commits);
        get_lat.add(all.gets);
        scan_lat.add(all.scans);
        match end_of_round(&store, &mut models, args.seed, round) {
            Ok(ms) => recover_ms.push(ms),
            Err(e) => errors.push(format!("round {round}: {e}")),
        }
        attempted += 1 + SAMPLED_RANGES + TAIL_TXNS + RECOVERIES as u64;
        let st = store.stats();
        wamp.push(ratio(
            (store.disk_writes() * FRAME_SIZE as u64) as f64,
            st.user_bytes as f64,
        ));
    }
    let rss = peak_rss_mb();
    rep.attempted += attempted;
    for e in errors {
        rep.fail(e);
    }
    rep.note(format!("commits: {}", commit_lat.describe()));
    rep.note(format!("gets: {}", get_lat.describe()));
    rep.note(format!(
        "scans: {}; {conflicts} conflict aborts",
        scan_lat.describe()
    ));

    if args.trace {
        let snap = obs.snapshot();
        let q = |name: &str| crate::stats::hist_q(&snap, name, 0.99);
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        rep.set(
            "lsm.commit_us.p99",
            log.durations("lsm.commit").quantile(0.99),
        );
        rep.set("lsm.get_us.p99", log.durations("lsm.get").quantile(0.99));
        rep.set(
            "lsm.range_us.p99",
            log.durations("lsm.range").quantile(0.99),
        );
        rep.set("lsm.scan_p50_us", scan_lat.p50());
        rep.set("lsm.scan_p99_us", scan_lat.p99());
        rep.set("lsm.write_amp", median(&wamp));
        rep.set("lsm.flush_stall_us.p99", q("lsm.flush_stall_us"));
        rep.set("lsm.flush_us.p99", q("lsm.flush_us"));
        rep.set("lsm.compaction_us.p99", q("lsm.compaction_us"));
        rep.set("lsm.flushes", counter("lsm.flushes"));
        rep.set("lsm.compactions", counter("lsm.compactions"));
        rep.set("lsm.bytes_rewritten", counter("lsm.bytes_rewritten"));
        rep.set(
            "lsm.journal_frames_per_commit",
            ratio(journal as f64, commits as f64),
        );
        rep.set(
            "lsm.run_frames_per_commit",
            ratio(run_frames as f64, commits as f64),
        );
        rep.set("lsm.l0_runs", median(&l0));
        rep.set("lsm.conflict_aborts", conflicts as f64);
        rep.set("txn.commit_p99_us", commit_lat.p99());
        rep.spans(&log, &tps_traced, &tps_plain, &crate::trace_path(args));
        return;
    }
    rep.set("setup_s", median(&setup));
    rep.set("commit_tps", median(&tps_plain));
    rep.set("commit_p50_us", commit_lat.p50());
    rep.set("read_p50_us", get_lat.p50());
    rep.set("read_p95_us", get_lat.p95());
    rep.set("recover_ms", median(&recover_ms));
    rep.set("log_bytes_per_commit", median(&log_bytes));
    rep.set("peak_rss_mb", rss);
}

/// A fresh store holding every key, and each client's model of its keys.
fn preload(seed: u64, round: u64, obs: &Registry) -> Result<(LsmStore, Vec<Model>), LsmError> {
    let store = LsmStore::with_registry(config(), obs)?;
    let mut rng = Rng::new(seed, u64::MAX - round);
    let mut models = vec![Model::new(); CLIENTS as usize];
    for base in (0..KEYS).step_by(PRELOAD_BATCH as usize) {
        let t = store.begin();
        for key in base..base + PRELOAD_BATCH {
            let v = value(&mut rng);
            store.put(t, key, &v)?;
            models[(key % CLIENTS) as usize].insert(key, Some(v));
        }
        store.commit(t)?;
    }
    store.wait_idle()?;
    Ok((store, models))
}

/// One client's closed loop until `deadline`.
fn client(
    store: &LsmStore,
    c: u64,
    mut rng: Rng,
    mut model: Model,
    deadline: Instant,
    mut tr: Tracer,
) -> (ClientOut, Model, Tracer) {
    let mut out = ClientOut::default();
    while Instant::now() < deadline && out.commits.len() < MAX_COMMITS {
        out.attempted += 1;
        let kind = rng.below(100);
        let req = tr.request();
        let t = Instant::now();
        if kind < 50 {
            let ops: Vec<(u64, Option<Vec<u8>>)> = (0..1 + rng.below(3))
                .map(|_| {
                    let key = rng.below(KEYS / CLIENTS) * CLIENTS + c;
                    (key, rng.pct(85).then(|| value(&mut rng)))
                })
                .collect();
            let root = tr.open(req, "lsm.txn", NONE);
            let res = write_txn(store, &ops, &mut tr, req, root);
            tr.close(root);
            match res {
                Ok(()) => {
                    out.commits.push(t.elapsed());
                    model.extend(ops);
                }
                Err(LsmError::Conflict { .. }) => out.conflicts += 1,
                Err(e) => out.errors.push(format!("write txn: {e}")),
            }
        } else if kind < 85 {
            let key = rng.below(KEYS);
            let s = tr.open(req, "lsm.get", NONE);
            let got = store.get(key);
            tr.close(s);
            out.gets.push(t.elapsed());
            match got {
                Ok(v) if key % CLIENTS == c && Some(&v) != model.get(&key) => {
                    out.errors.push(format!("get {key} returned a stale value"))
                }
                Ok(_) => {}
                Err(e) => out.errors.push(format!("get: {e}")),
            }
        } else {
            let lo = rng.below(KEYS - RANGE + 1);
            let hi = lo + RANGE - 1;
            let s = tr.open(req, "lsm.range", NONE);
            let got = store.range(lo, hi, ScanStrategy::Optimal);
            tr.close(s);
            out.scans.push(t.elapsed());
            match got {
                Ok(rows) => {
                    let mine: Rows = rows.into_iter().filter(|r| r.0 % CLIENTS == c).collect();
                    if mine != live_rows(&model, lo, hi) {
                        out.errors
                            .push(format!("range {lo}..={hi} disagrees with the model"));
                    }
                }
                Err(e) => out.errors.push(format!("range: {e}")),
            }
        }
    }
    (out, model, tr)
}

/// Begin, stage `ops`, commit; aborts on a staging error.
fn write_txn(
    store: &LsmStore,
    ops: &[(u64, Option<Vec<u8>>)],
    tr: &mut Tracer,
    req: u64,
    root: usize,
) -> Result<(), LsmError> {
    let s = tr.open(req, "lsm.stage", root);
    let txn = store.begin();
    for (key, v) in ops {
        let staged = match v {
            Some(v) => store.put(txn, *key, v),
            None => store.delete(txn, *key),
        };
        if let Err(e) = staged {
            tr.close(s);
            store.abort(txn)?;
            return Err(e);
        }
    }
    tr.close(s);
    let s = tr.open(req, "lsm.commit", root);
    let out = store.commit(txn);
    tr.close(s);
    out
}

/// The live keys of `model` in `lo..=hi`, key-sorted.
fn live_rows(model: &Model, lo: u64, hi: u64) -> Rows {
    model
        .range(lo..=hi)
        .filter_map(|(k, v)| v.clone().map(|v| (*k, v)))
        .collect()
}

/// Quiesce, check the store against the models and across strategies,
/// then crash a fixed distance past a flush (`TAIL_TXNS` journal batches)
/// and recover copies of that image, checking each against the live
/// store. Returns the median recovery time in ms.
fn end_of_round(
    store: &LsmStore,
    models: &mut [Model],
    seed: u64,
    round: u64,
) -> Result<f64, String> {
    store.wait_idle().map_err(|e| format!("maintenance: {e}"))?;
    let live = store
        .scan(ScanStrategy::Optimal)
        .map_err(|e| format!("scan: {e}"))?;
    let mut want: Rows = models.iter().flat_map(|m| live_rows(m, 0, KEYS)).collect();
    want.sort();
    if live != want {
        return Err("full scan disagrees with the clients' models".into());
    }
    let mut rng = Rng::new(seed, u64::MAX / 2 + round);
    for _ in 0..SAMPLED_RANGES {
        let lo = rng.below(KEYS);
        let hi = lo + rng.below(KEYS / 4);
        let basic = store.range(lo, hi, ScanStrategy::Basic);
        if basic.is_err() || basic != store.range(lo, hi, ScanStrategy::Optimal) {
            return Err(format!("Basic and Optimal scans of {lo}..={hi} differ"));
        }
    }
    // a journal tail of the same length every round: recovery replays it
    let lsm_err = |e: LsmError| format!("tail: {e}");
    store.flush_now().map_err(lsm_err)?;
    store.wait_idle().map_err(lsm_err)?;
    for _ in 0..TAIL_TXNS {
        let t = store.begin();
        for _ in 0..TAIL_PUTS {
            let key = rng.below(KEYS / CLIENTS) * CLIENTS;
            let v = value(&mut rng);
            store.put(t, key, &v).map_err(lsm_err)?;
            models[0].insert(key, Some(v));
        }
        store.commit(t).map_err(lsm_err)?;
    }
    let live = store
        .scan(ScanStrategy::Optimal)
        .map_err(|e| format!("scan: {e}"))?;
    let mut times = Vec::new();
    for _ in 0..RECOVERIES {
        let image = store.crash_image();
        let t = Instant::now();
        let (recovered, report) =
            LsmStore::recover(image, config()).map_err(|e| format!("recover: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if report.replayed_batches != TAIL_TXNS {
            return Err(format!(
                "recovery replayed {} batches",
                report.replayed_batches
            ));
        }
        match recovered.scan(ScanStrategy::Optimal) {
            Ok(rows) if rows == live => {}
            Ok(_) => return Err("recovered store disagrees with the live store".into()),
            Err(e) => return Err(format!("scan after recovery: {e}")),
        }
    }
    Ok(median(&times))
}
