//! Measured throughput of the concurrent transaction pipeline.
//!
//! Sweeps worker count × log-stream count × contention level over the
//! real-thread engine (`rmdb-exec`), driving transactions through the
//! bounded worker-pool executor and reporting measured txns/sec — the
//! wall-clock companion to the simulated tables.
//!
//! ```text
//! throughput [--secs F] [--smoke] [--json] [--obs]
//!            [--kill-stream N@MS] [--streams K] [--rejoin-at MS]
//! ```
//!
//! * `--secs F`  — seconds per sweep cell (default 1.0)
//! * `--smoke`   — CI-sized run: workers {1, 4} × streams {2} × low
//!   contention at 0.8 s/cell (~2 s total)
//! * `--json`    — machine-readable output only (one JSON object)
//! * `--obs`     — share one observability registry across every cell
//!   and dump the cumulative [`rmdb_obs::MetricsSnapshot`]: as a
//!   `"metrics"` key with `--json`, as a readable table otherwise
//! * `--kill-stream N@MS` — run the failover benchmark instead of the
//!   sweep: 4 workers × `--streams` log streams, with log stream `N`'s
//!   device failed hard `MS` milliseconds into the run. Measures commit
//!   latency p50/p99 before, during, and after the failover window,
//!   verifies zero acked-commit loss against a recovered crash image,
//!   and writes `results/BENCH_failover.json`.
//! * `--streams K` — failover-bench fleet size (default 4, min 2); the
//!   emitted JSON carries it so gates derive expectations from the
//!   document instead of hardcoding the fleet size
//! * `--rejoin-at MS` — membership churn: heal the killed device `MS`
//!   milliseconds into the run (after the kill) and readmit the stream
//!   via [`rmdb_exec::ExecDb::rejoin_stream`]. Adds a `post_rejoin`
//!   latency phase and a `churn` row (throughput before the kill,
//!   during the outage, and after the rejoin) to the JSON.
//! * `--read-pct P[,P2,…]` — run the read-mix benchmark instead of the
//!   sweep: for each percentage, a `P`% read / `(100−P)`% bank-transfer
//!   mix runs twice — reads routed through the lock-free MVCC snapshot
//!   path (`run_ro_txn`) and through the lock table — with the
//!   conservation-sum invariant checked inside every read. Emits read
//!   tps, write tps, read p99, and snapshot-age p99 per row plus the
//!   mvcc/locked read-throughput speedup into
//!   `results/BENCH_readmix.json`; exits non-zero on any
//!   snapshot-consistency violation.

use rmdb_exec::{ExecConfig, ExecDb, Executor};
use rmdb_obs::Registry;
use rmdb_storage::{FaultInjector, FaultPlan};
use rmdb_wal::{WalConfig, WalDb};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
enum Contention {
    /// Workers write disjoint page ranges: conflicts only by accident.
    Low,
    /// All workers hammer the same four pages.
    High,
}

impl Contention {
    fn name(self) -> &'static str {
        match self {
            Contention::Low => "low",
            Contention::High => "high",
        }
    }
}

struct Cell {
    workers: usize,
    streams: usize,
    contention: Contention,
    txns: u64,
    secs: f64,
    txns_per_sec: f64,
    group_commits: u64,
    max_group: u64,
}

const DATA_PAGES: u64 = 256;

fn run_cell(
    workers: usize,
    streams: usize,
    contention: Contention,
    secs: f64,
    obs: &Registry,
) -> Cell {
    let cfg = ExecConfig {
        wal: WalConfig {
            data_pages: DATA_PAGES,
            pool_frames: 320,
            log_streams: streams,
            log_frames: 1 << 18,
            seed: 1985,
            ..WalConfig::default()
        },
        pool_shards: 8,
        // the paper's log devices are rotational: model half a
        // millisecond of service time per force so sharing forces
        // (group commit) has something to share
        force_delay_us: 500,
        obs: obs.clone(),
        ..ExecConfig::default()
    };
    let db = Arc::new(ExecDb::new(cfg));
    let pool = Executor::new(workers, workers * 2);
    let committed = Arc::new(AtomicU64::new(0));
    let pages_per_worker = DATA_PAGES / (workers as u64).max(1);

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut i: u64 = 0;
    while Instant::now() < deadline {
        let qp = (i % workers as u64) as usize;
        let page = match contention {
            Contention::Low => {
                (qp as u64) * pages_per_worker + (i / workers as u64) % pages_per_worker
            }
            Contention::High => i % 4,
        };
        let db = Arc::clone(&db);
        let committed = Arc::clone(&committed);
        let val = i.to_le_bytes();
        // bounded queue: this blocks when all workers are busy
        pool.submit(move || {
            if db.run_txn(qp, |ctx| ctx.write(page, 0, &val)).is_ok() {
                committed.fetch_add(1, Ordering::Relaxed);
            }
        });
        i += 1;
    }
    pool.join();
    let elapsed = start.elapsed().as_secs_f64();
    let stats = db.stats();
    // quiesce the appender queues (enqueued == appended afterwards) and
    // fold this cell's pool counters into the shared registry before the
    // database drops; gauges reflect the last cell, counters accumulate
    let _ = db.drain_appenders();
    let _ = db.metrics();
    let txns = committed.load(Ordering::Relaxed);
    Cell {
        workers,
        streams,
        contention,
        txns,
        secs: elapsed,
        txns_per_sec: txns as f64 / elapsed,
        group_commits: stats.group_commits,
        max_group: stats.max_group_size,
    }
}

// ---------------------------------------------------------------------------
// Failover benchmark (--kill-stream): latency through a mid-run stream death
// ---------------------------------------------------------------------------

/// `--kill-stream N@MS`: fail stream `N`'s device `MS` ms into the run.
struct KillSpec {
    stream: usize,
    at_ms: u64,
}

fn parse_kill_spec(s: &str) -> Option<KillSpec> {
    let (stream, at_ms) = match s.split_once('@') {
        Some((n, t)) => (n.parse().ok()?, t.parse().ok()?),
        None => (s.parse().ok()?, 500),
    };
    Some(KillSpec { stream, at_ms })
}

/// Inclusive-rank percentile of an unsorted latency sample, in place.
fn percentile_us(lat: &mut [u64], q: f64) -> u64 {
    if lat.is_empty() {
        return 0;
    }
    lat.sort_unstable();
    let idx = ((lat.len() as f64 - 1.0) * q).round() as usize;
    lat[idx]
}

/// One commit observation: completion time relative to run start, latency.
struct Sample {
    done_ms: u64,
    lat_us: u64,
}

fn phase_json(name: &str, samples: &[Sample]) -> String {
    let mut lat: Vec<u64> = samples.iter().map(|s| s.lat_us).collect();
    format!(
        "{{\"phase\":\"{name}\",\"commits\":{},\"p50_us\":{},\"p99_us\":{}}}",
        lat.len(),
        percentile_us(&mut lat, 0.50),
        percentile_us(&mut lat, 0.99),
    )
}

const KILL_WORKERS: u64 = 4;

/// The failover cell: 4 dedicated worker threads over disjoint page ranges
/// (one in-flight transaction per page, so acked values are per-page
/// monotone and zero-loss is machine-checkable), stream `spec.stream`
/// killed hard at `spec.at_ms`, optionally healed and readmitted at
/// `rejoin_at_ms`. Runs for `spec.at_ms + secs·1000` ms total.
fn run_failover(
    spec: &KillSpec,
    streams: usize,
    rejoin_at_ms: Option<u64>,
    secs: f64,
    json: bool,
) -> i32 {
    assert!(
        spec.stream < streams,
        "--kill-stream index {} out of range (fleet of {streams})",
        spec.stream
    );
    if let Some(r) = rejoin_at_ms {
        assert!(
            r > spec.at_ms,
            "--rejoin-at {r} must come after the kill at {} ms",
            spec.at_ms
        );
    }
    let obs = Registry::new();
    let cfg = ExecConfig {
        wal: WalConfig {
            // +2: pages reserved for the long-transaction probe
            data_pages: DATA_PAGES + 2,
            pool_frames: 320,
            log_streams: streams,
            log_frames: 1 << 18,
            seed: 1985,
            ..WalConfig::default()
        },
        pool_shards: 8,
        force_delay_us: 500,
        obs: obs.clone(),
        ..ExecConfig::default()
    };
    let wal_cfg = cfg.wal.clone();
    let db = Arc::new(ExecDb::new(cfg));
    let pages_per_worker = DATA_PAGES / KILL_WORKERS;
    // pages reserved for the long-transaction probe (see below)
    let probe_pages = [DATA_PAGES, DATA_PAGES + 1];
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_millis(spec.at_ms) + Duration::from_secs_f64(secs);

    // killer: arm the device fault at the kill point, time detection, and
    // — under --rejoin-at — heal the device and readmit the stream. The
    // bench keeps the fault handle so the "repair" is the real protocol:
    // revive the injector, then rejoin_stream revalidates the durable
    // prefix and swaps in a successor appender.
    let fault = FaultInjector::handle(FaultPlan::new().fail_from_write(0));
    let kill_outcome = {
        let db = Arc::clone(&db);
        let fault = Arc::clone(&fault);
        let stream = spec.stream;
        let at = t0 + Duration::from_millis(spec.at_ms);
        let rejoin_at = rejoin_at_ms.map(|ms| t0 + Duration::from_millis(ms));
        std::thread::spawn(move || {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            let t_kill = Instant::now();
            db.inject_stream_fault_handle(stream, Arc::clone(&fault))
                .expect("inject kill fault");
            while !db.is_stream_dead(stream) {
                if t_kill.elapsed() > Duration::from_secs(30) {
                    return (u64::MAX, None); // never detected — reported, gates fail
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            let detect_ms = t_kill.elapsed().as_millis() as u64;
            let Some(rejoin_at) = rejoin_at else {
                return (detect_ms, None);
            };
            std::thread::sleep(rejoin_at.saturating_duration_since(Instant::now()));
            fault.lock().revive();
            let t_rejoin = Instant::now();
            while db.rejoin_stream(stream).is_err() {
                if t_rejoin.elapsed() > Duration::from_secs(30) {
                    return (detect_ms, Some(u64::MAX)); // never rejoined — gates fail
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            (detect_ms, Some(t0.elapsed().as_millis() as u64))
        })
    };

    // worker w owns pages [w·ppw, (w+1)·ppw): vals per page are strictly
    // increasing and at most one txn per page is in flight, so per-page
    // "highest acked val" is exact
    struct WorkerOut {
        samples: Vec<Sample>,
        acked_high: Vec<(u64, u64)>,  // (page, highest acked val)
        issued_high: Vec<(u64, u64)>, // (page, highest issued val)
        errors: u64,
    }
    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        // the long-transaction probe: a transaction homed on the victim,
        // holding volatile fragments when the stream dies, committing only
        // after quarantine — the paper's "transaction in flight across a
        // log-processor failure". Its commit MUST reroute its fragments to
        // a survivor, making the reroute path a deterministic part of every
        // bench run rather than a timing accident.
        {
            let db = Arc::clone(&db);
            let stream = spec.stream;
            s.spawn(move || {
                let mut txn = {
                    let mut attempts = 0;
                    loop {
                        let t = db.begin(0);
                        if t.home() == stream {
                            break t;
                        }
                        db.abort(t).expect("abort empty probe txn");
                        attempts += 1;
                        assert!(
                            attempts < 64,
                            "selector never homed a txn on stream {stream}"
                        );
                    }
                };
                for (k, &page) in probe_pages.iter().enumerate() {
                    db.write(&mut txn, page, 0, &(k as u64 + 1).to_le_bytes())
                        .expect("probe write");
                }
                let t_wait = Instant::now();
                while !db.is_stream_dead(stream) && t_wait.elapsed() < Duration::from_secs(60) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                db.commit(txn)
                    .and_then(|h| h.wait())
                    .expect("probe commit after failover");
            });
        }
        let handles: Vec<_> = (0..KILL_WORKERS)
            .map(|w| {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    let base = w * pages_per_worker;
                    let mut out = WorkerOut {
                        samples: Vec::new(),
                        acked_high: vec![(0, 0); pages_per_worker as usize],
                        issued_high: vec![(0, 0); pages_per_worker as usize],
                        errors: 0,
                    };
                    let mut i: u64 = 0;
                    while Instant::now() < deadline {
                        let slot = (i % pages_per_worker) as usize;
                        let page = base + slot as u64;
                        // vals start at 1 so 0 always means "never written"
                        let val = i + 1;
                        out.issued_high[slot] = (page, val);
                        let t_txn = Instant::now();
                        match db.run_txn(w as usize, |ctx| ctx.write(page, 0, &val.to_le_bytes())) {
                            Ok(()) => {
                                out.samples.push(Sample {
                                    done_ms: t0.elapsed().as_millis() as u64,
                                    lat_us: t_txn.elapsed().as_micros() as u64,
                                });
                                out.acked_high[slot] = (page, val);
                            }
                            Err(_) => out.errors += 1,
                        }
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (detect_ms, rejoined_at_ms) = kill_outcome.join().unwrap();
    let rejoin_boundary = rejoined_at_ms.filter(|&ms| ms != u64::MAX);

    // bucket commit latencies around the failover window; with a rejoin,
    // everything past the readmission lands in a fourth phase
    let quarantined_at_ms = spec.at_ms.saturating_add(detect_ms);
    let mut before = Vec::new();
    let mut during = Vec::new();
    let mut after = Vec::new();
    let mut post_rejoin = Vec::new();
    for out in &outs {
        for s in &out.samples {
            if s.done_ms < spec.at_ms {
                before.push(Sample { ..*s });
            } else if s.done_ms <= quarantined_at_ms {
                during.push(Sample { ..*s });
            } else if rejoin_boundary.is_none_or(|r| s.done_ms < r) {
                after.push(Sample { ..*s });
            } else {
                post_rejoin.push(Sample { ..*s });
            }
        }
    }
    let errors: u64 = outs.iter().map(|o| o.errors).sum();
    let live_after = db.live_streams();
    let degraded = db.is_degraded();

    // zero-acked-loss audit: recover the final crash image and require
    // every page to read back at least its highest acked value (per-page
    // vals are monotone; the only other legal reading is the one unacked
    // in-flight val)
    let image = db.crash_image().expect("final crash image");
    let (mut rec, _) = WalDb::recover(image, wal_cfg).expect("recovery after failover");
    let t = rec.begin();
    let mut lost_acked: u64 = 0;
    for out in &outs {
        for (slot, &(page, acked_val)) in out.acked_high.iter().enumerate() {
            if acked_val == 0 {
                continue;
            }
            let got = rec.read(t, page, 0, 8).expect("read after recovery");
            let got_val = u64::from_le_bytes(got.try_into().expect("8-byte slot"));
            let (_, issued_val) = out.issued_high[slot];
            if got_val < acked_val || got_val > issued_val {
                lost_acked += 1;
                eprintln!(
                    "LOST: page {page} recovered val {got_val}, acked {acked_val}, issued {issued_val}"
                );
            }
        }
    }
    // the probe committed after the failover, so its rerouted fragments
    // must have survived recovery exactly
    for (k, &page) in probe_pages.iter().enumerate() {
        let got = rec.read(t, page, 0, 8).expect("read probe page");
        let got_val = u64::from_le_bytes(got.try_into().expect("8-byte slot"));
        if got_val != k as u64 + 1 {
            lost_acked += 1;
            eprintln!(
                "LOST: probe page {page} recovered val {got_val}, expected {}",
                k + 1
            );
        }
    }
    rec.abort(t).expect("read-only abort");

    let snap = obs.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);

    // the membership-churn row: throughput before the kill, during the
    // outage (kill → rejoin), and after the rejoin — the acceptance gate
    // compares the last against the first
    let end_ms = spec.at_ms + (secs * 1000.0) as u64;
    let tps = |commits: usize, window_ms: u64| {
        if window_ms == 0 {
            0.0
        } else {
            commits as f64 * 1000.0 / window_ms as f64
        }
    };
    let churn = rejoin_at_ms.map_or("null".to_string(), |requested| {
        let rejoined = rejoin_boundary.unwrap_or(end_ms);
        format!(
            "{{\"rejoin_at_ms\":{requested},\"rejoined_at_ms\":{},\
\"tps_before\":{:.1},\"tps_outage\":{:.1},\"tps_after_rejoin\":{:.1}}}",
            rejoin_boundary.map_or("null".to_string(), |r| r.to_string()),
            tps(before.len(), spec.at_ms),
            tps(
                during.len() + after.len(),
                rejoined.saturating_sub(spec.at_ms)
            ),
            tps(post_rejoin.len(), end_ms.saturating_sub(rejoined)),
        )
    });
    let mut phases = vec![
        phase_json("before", &before),
        phase_json("during", &during),
        phase_json("after", &after),
    ];
    if rejoin_at_ms.is_some() {
        phases.push(phase_json("post_rejoin", &post_rejoin));
    }
    let commits_after = after.len() + post_rejoin.len();
    let report = format!(
        "{{\"bench\":\"failover\",\"kill_stream\":{},\"kill_at_ms\":{},\"streams\":{},\
\"detect_ms\":{},\
\"phases\":[{}],\
\"commits_after_failover\":{},\"errors\":{},\"lost_acked_commits\":{},\
\"live_streams_after\":{},\"degraded\":{},\"rejoins\":{},\"churn\":{},\
\"failover\":{{\"quarantined\":{},\"reroutes\":{},\"rerouted_fragments\":{},\
\"txn_retries\":{},\"degraded_rejects\":{}}}}}",
        spec.stream,
        spec.at_ms,
        streams,
        detect_ms,
        phases.join(","),
        commits_after,
        errors,
        lost_acked,
        live_after,
        degraded,
        counter("failover.rejoins"),
        churn,
        counter("failover.quarantined"),
        counter("failover.reroutes"),
        counter("failover.rerouted_fragments"),
        counter("failover.txn_retries"),
        counter("failover.degraded_rejects"),
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_failover.json", &report).expect("write BENCH_failover.json");
    if json {
        println!("{report}");
    } else {
        println!(
            "failover bench: killed stream {} of {} at {} ms (detected in {} ms)",
            spec.stream, streams, spec.at_ms, detect_ms
        );
        if let Some(r) = rejoin_boundary {
            println!("rejoined stream {} at {} ms", spec.stream, r);
        }
        println!("{report}");
        println!("wrote results/BENCH_failover.json");
    }
    let rejoin_failed = rejoin_at_ms.is_some()
        && (rejoin_boundary.is_none()
            || live_after != streams
            || degraded
            || post_rejoin.is_empty()
            || counter("failover.rejoins") == 0);
    if lost_acked > 0 || commits_after == 0 || detect_ms == u64::MAX || rejoin_failed {
        1
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Read-mix benchmark (--read-pct): MVCC snapshot reads vs the locked path
// ---------------------------------------------------------------------------

/// How a read-mix cell routes its reads.
#[derive(Clone, Copy, PartialEq)]
enum ReadPath {
    /// `run_ro_txn`: lock-free MVCC snapshot reads.
    Mvcc,
    /// `run_txn` with shared locks: readers queue behind writers' X
    /// locks, which are held across the group-commit force.
    Locked,
}

impl ReadPath {
    fn name(self) -> &'static str {
        match self {
            ReadPath::Mvcc => "mvcc",
            ReadPath::Locked => "locked",
        }
    }
}

/// Bank pages for the read-mix cell: every reader sums all of them and
/// checks conservation, every writer moves value between a random pair.
const MIX_ACCOUNTS: u64 = 16;
const MIX_INITIAL: u64 = 1_000;
const MIX_WORKERS: usize = 4;

struct MixRow {
    read_pct: u32,
    path: ReadPath,
    reads: u64,
    writes: u64,
    violations: u64,
    errors: u64,
    secs: f64,
    read_p99_us: u64,
    snapshot_age_p99: u64,
}

impl MixRow {
    fn read_tps(&self) -> f64 {
        self.reads as f64 / self.secs
    }
    fn write_tps(&self) -> f64 {
        self.writes as f64 / self.secs
    }
    fn json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"read_pct\":{},\"reads\":{},\"writes\":{},\
\"read_tps\":{:.1},\"write_tps\":{:.1},\"violations\":{},\"errors\":{},\
\"read_p99_us\":{},\"snapshot_age_p99\":{}}}",
            self.path.name(),
            self.read_pct,
            self.reads,
            self.writes,
            self.read_tps(),
            self.write_tps(),
            self.violations,
            self.errors,
            self.read_p99_us,
            self.snapshot_age_p99,
        )
    }
}

/// One read-mix cell: `MIX_WORKERS` threads each issuing `read_pct`%
/// conservation-sum reads (routed per `path`) and the rest bank
/// transfers, against hot pages and a rotational-model log device. The
/// sum invariant is checked inside every read — in MVCC mode that is
/// the snapshot-consistency oracle, in locked mode 2PL guarantees it.
fn run_mix_cell(read_pct: u32, path: ReadPath, secs: f64) -> MixRow {
    let obs = Registry::new();
    let cfg = ExecConfig {
        wal: WalConfig {
            data_pages: DATA_PAGES,
            pool_frames: 320,
            log_streams: 2,
            log_frames: 1 << 18,
            seed: 1985,
            ..WalConfig::default()
        },
        pool_shards: 8,
        force_delay_us: 500,
        obs: obs.clone(),
        ..ExecConfig::default()
    };
    let db = Arc::new(ExecDb::new(cfg));
    // seed the accounts (one txn so a snapshot can never see a partial
    // seeding)
    db.run_txn(0, |ctx| {
        for p in 0..MIX_ACCOUNTS {
            ctx.write(p, 0, &MIX_INITIAL.to_le_bytes())?;
        }
        Ok(())
    })
    .expect("seed accounts");
    let expected_total = MIX_ACCOUNTS * MIX_INITIAL;

    struct Out {
        reads: u64,
        writes: u64,
        violations: u64,
        errors: u64,
        read_lat_us: Vec<u64>,
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let outs: Vec<Out> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..MIX_WORKERS)
            .map(|w| {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    let mut out = Out {
                        reads: 0,
                        writes: 0,
                        violations: 0,
                        errors: 0,
                        read_lat_us: Vec::new(),
                    };
                    // xorshift: deterministic per worker, no rand dep
                    let mut rng: u64 = 0x9E37_79B9_7F4A_7C15 ^ (w as u64 + 1);
                    let mut next = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    while Instant::now() < deadline {
                        if next() % 100 < read_pct as u64 {
                            // conservation-sum read over every account
                            let t_read = Instant::now();
                            let sum: Result<u64, _> = match path {
                                ReadPath::Mvcc => db.run_ro_txn(w, |snap| {
                                    let mut sum = 0u64;
                                    for p in 0..MIX_ACCOUNTS {
                                        let b = snap.read(p, 0, 8)?;
                                        sum += u64::from_le_bytes(b.try_into().expect("8 bytes"));
                                    }
                                    Ok(sum)
                                }),
                                ReadPath::Locked => {
                                    let total = std::sync::atomic::AtomicU64::new(0);
                                    db.run_txn(w, |ctx| {
                                        let mut sum = 0u64;
                                        for p in 0..MIX_ACCOUNTS {
                                            let b = ctx.read(p, 0, 8)?;
                                            sum +=
                                                u64::from_le_bytes(b.try_into().expect("8 bytes"));
                                        }
                                        total.store(sum, Ordering::Relaxed);
                                        Ok(())
                                    })
                                    .map(|()| total.load(Ordering::Relaxed))
                                }
                            };
                            match sum {
                                Ok(sum) => {
                                    out.reads += 1;
                                    out.read_lat_us.push(t_read.elapsed().as_micros() as u64);
                                    if sum != expected_total {
                                        out.violations += 1;
                                        eprintln!(
                                            "VIOLATION ({}): sum {sum} != {expected_total}",
                                            path.name()
                                        );
                                    }
                                }
                                Err(_) => out.errors += 1,
                            }
                        } else {
                            // bank transfer between a random pair
                            let from = next() % MIX_ACCOUNTS;
                            let to = (from + 1 + next() % (MIX_ACCOUNTS - 1)) % MIX_ACCOUNTS;
                            let amount = next() % 5;
                            match db.run_txn(w, |ctx| {
                                let f =
                                    u64::from_le_bytes(ctx.read(from, 0, 8)?.try_into().unwrap());
                                let t = u64::from_le_bytes(ctx.read(to, 0, 8)?.try_into().unwrap());
                                let moved = amount.min(f);
                                ctx.write(from, 0, &(f - moved).to_le_bytes())?;
                                ctx.write(to, 0, &(t + moved).to_le_bytes())?;
                                Ok(())
                            }) {
                                Ok(()) => out.writes += 1,
                                Err(_) => out.errors += 1,
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let snap = obs.snapshot();
    let mut read_lat: Vec<u64> = outs.iter().flat_map(|o| o.read_lat_us.clone()).collect();
    MixRow {
        read_pct,
        path,
        reads: outs.iter().map(|o| o.reads).sum(),
        writes: outs.iter().map(|o| o.writes).sum(),
        violations: outs.iter().map(|o| o.violations).sum(),
        errors: outs.iter().map(|o| o.errors).sum(),
        secs: elapsed,
        read_p99_us: percentile_us(&mut read_lat, 0.99),
        snapshot_age_p99: snap
            .histogram("mvcc.snapshot_age")
            .map_or(0, |h| h.quantile(0.99)),
    }
}

/// `--read-pct`: for each requested mix, run the same workload once with
/// MVCC snapshot reads and once through the lock table, write
/// `results/BENCH_readmix.json`, and fail (exit 1) on any
/// snapshot-consistency violation.
fn run_readmix(pcts: &[u32], secs: f64, json: bool) -> i32 {
    let mut rows = Vec::new();
    for &pct in pcts {
        rows.push(run_mix_cell(pct, ReadPath::Mvcc, secs));
        rows.push(run_mix_cell(pct, ReadPath::Locked, secs));
    }
    let speedup = |pct: u32| -> Option<f64> {
        let tps = |path: ReadPath| {
            rows.iter()
                .find(|r| r.read_pct == pct && r.path == path)
                .map(MixRow::read_tps)
        };
        match (tps(ReadPath::Mvcc), tps(ReadPath::Locked)) {
            (Some(m), Some(l)) if l > 0.0 => Some(m / l),
            _ => None,
        }
    };
    let speedups: Vec<String> = pcts
        .iter()
        .filter_map(|&p| speedup(p).map(|s| format!("\"{p}\":{s:.2}")))
        .collect();
    let violations: u64 = rows.iter().map(|r| r.violations).sum();
    let body: Vec<String> = rows.iter().map(MixRow::json).collect();
    let report = format!(
        "{{\"bench\":\"readmix\",\"workers\":{MIX_WORKERS},\"accounts\":{MIX_ACCOUNTS},\
\"rows\":[{}],\"read_speedup\":{{{}}},\"violations\":{violations}}}",
        body.join(","),
        speedups.join(","),
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_readmix.json", &report).expect("write BENCH_readmix.json");
    if json {
        println!("{report}");
    } else {
        println!(
            "{:>5} {:>8} {:>10} {:>10} {:>12} {:>12} {:>12} {:>10}",
            "mix", "mode", "reads", "writes", "read_tps", "write_tps", "read_p99_us", "violations"
        );
        for r in &rows {
            println!(
                "{:>4}% {:>8} {:>10} {:>10} {:>12.0} {:>12.0} {:>12} {:>10}",
                r.read_pct,
                r.path.name(),
                r.reads,
                r.writes,
                r.read_tps(),
                r.write_tps(),
                r.read_p99_us,
                r.violations
            );
        }
        for &p in pcts {
            if let Some(s) = speedup(p) {
                println!("read speedup (mvcc/locked) @ {p}% reads: {s:.2}x");
            }
        }
        println!("{report}");
        println!("wrote results/BENCH_readmix.json");
    }
    if violations > 0 {
        1
    } else {
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut secs = 1.0f64;
    let mut smoke = false;
    let mut json = false;
    let mut obs_dump = false;
    let mut kill: Option<KillSpec> = None;
    let mut kill_streams: usize = 4;
    let mut rejoin_at: Option<u64> = None;
    let mut read_pcts: Option<Vec<u32>> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--secs" => {
                secs = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(secs);
                i += 1;
            }
            "--smoke" => smoke = true,
            "--json" => json = true,
            "--obs" => obs_dump = true,
            "--kill-stream" => {
                kill = args.get(i + 1).map(|s| {
                    parse_kill_spec(s).unwrap_or_else(|| {
                        eprintln!("bad --kill-stream spec {s:?} (want N or N@MS)");
                        std::process::exit(2);
                    })
                });
                if kill.is_none() {
                    eprintln!("--kill-stream needs an argument (N or N@MS)");
                    std::process::exit(2);
                }
                i += 1;
            }
            "--streams" => {
                kill_streams = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 2)
                    .unwrap_or_else(|| {
                        eprintln!("--streams needs an integer argument >= 2");
                        std::process::exit(2);
                    });
                i += 1;
            }
            "--rejoin-at" => {
                rejoin_at = Some(args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or_else(
                    || {
                        eprintln!("--rejoin-at needs a millisecond argument");
                        std::process::exit(2);
                    },
                ));
                i += 1;
            }
            "--read-pct" => {
                let parsed: Option<Vec<u32>> = args.get(i + 1).map(|s| {
                    s.split(',')
                        .map(|p| {
                            p.trim()
                                .parse()
                                .ok()
                                .filter(|&v| v < 100)
                                .unwrap_or_else(|| {
                                    eprintln!(
                                        "bad --read-pct {p:?} (want 0..=99, comma-separated)"
                                    );
                                    std::process::exit(2);
                                })
                        })
                        .collect()
                });
                read_pcts = match parsed {
                    Some(v) if !v.is_empty() => Some(v),
                    _ => {
                        eprintln!("--read-pct needs an argument (e.g. 95 or 95,99)");
                        std::process::exit(2);
                    }
                };
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }

    if let Some(pcts) = read_pcts {
        std::process::exit(run_readmix(&pcts, secs, json));
    }
    if let Some(spec) = kill {
        std::process::exit(run_failover(&spec, kill_streams, rejoin_at, secs, json));
    }

    let sweep: Vec<(usize, usize, Contention)> = if smoke {
        secs = 0.8;
        vec![(1, 2, Contention::Low), (4, 2, Contention::Low)]
    } else {
        let mut v = Vec::new();
        for &contention in &[Contention::Low, Contention::High] {
            for &streams in &[1usize, 2, 4] {
                for &workers in &[1usize, 2, 4, 8] {
                    v.push((workers, streams, contention));
                }
            }
        }
        v
    };

    let obs = Registry::new();
    let cells: Vec<Cell> = sweep
        .into_iter()
        .map(|(w, s, c)| run_cell(w, s, c, secs, &obs))
        .collect();
    let snapshot = obs.snapshot();

    if json {
        let body: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"workers\":{},\"streams\":{},\"contention\":\"{}\",\"txns\":{},\"secs\":{:.3},\"txns_per_sec\":{:.1},\"group_commits\":{},\"max_group\":{}}}",
                    c.workers,
                    c.streams,
                    c.contention.name(),
                    c.txns,
                    c.secs,
                    c.txns_per_sec,
                    c.group_commits,
                    c.max_group
                )
            })
            .collect();
        let metrics = if obs_dump {
            format!(",\"metrics\":{}", snapshot.to_json())
        } else {
            String::new()
        };
        println!(
            "{{\"bench\":\"throughput\",\"cells\":[{}]{}}}",
            body.join(","),
            metrics
        );
    } else {
        println!(
            "{:>8} {:>8} {:>11} {:>10} {:>12} {:>8} {:>10}",
            "workers", "streams", "contention", "txns", "txns/sec", "groups", "max_group"
        );
        for c in &cells {
            println!(
                "{:>8} {:>8} {:>11} {:>10} {:>12.0} {:>8} {:>10}",
                c.workers,
                c.streams,
                c.contention.name(),
                c.txns,
                c.txns_per_sec,
                c.group_commits,
                c.max_group
            );
        }
        // scaling summary: low-contention 4-worker vs 1-worker speed-up
        // per stream count (the acceptance gate for the pipeline)
        for &streams in &[1usize, 2, 4] {
            let rate = |w: usize| {
                cells
                    .iter()
                    .find(|c| {
                        c.workers == w && c.streams == streams && c.contention == Contention::Low
                    })
                    .map(|c| c.txns_per_sec)
            };
            if let (Some(r1), Some(r4)) = (rate(1), rate(4)) {
                println!(
                    "speedup 4w/1w @ {streams} stream(s), low contention: {:.2}x",
                    r4 / r1
                );
            }
        }
        if obs_dump {
            println!("\ncumulative pipeline metrics (all cells):");
            print!("{snapshot}");
        }
    }
}
