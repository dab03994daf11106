//! High-concurrency scaling sweep across block-device backends.
//!
//! Sweeps worker count × log-stream count × storage backend over the
//! real-thread exec pipeline, with a bank-transfer workload whose
//! conservation invariant is machine-checked concurrently through the MVCC
//! snapshot path. The question the sweep answers is the one the paper's
//! device assumptions beg today: does the architecture's scaling story
//! survive the move from modeled rotational platters to a real file with
//! fdatasync, or to an NVMe-class device whose service time grows with
//! queue depth?
//!
//! ```text
//! scaling [--secs F] [--smoke] [--json]
//! ```
//!
//! * `--secs F` — seconds per sweep cell (default 1.0)
//! * `--smoke`  — CI-sized run: backends {mem, nvme} × workers
//!   {32, 64, 128} × streams {8} at 0.4 s/cell
//! * `--json`   — machine-readable output only
//!
//! Per-backend device modeling:
//!
//! * `mem`  — instant writes; the group-commit force pays the bench's
//!   rotational model (500 µs) so sharing forces has something to share;
//! * `file` — every frame write is a pwrite into a temp file and every
//!   log force an fdatasync: the device itself charges, no model;
//! * `nvme` — one shared controller in realtime mode: every I/O sleeps
//!   its queue-depth-dependent modeled service time (10–100 µs band), so
//!   a deeper fleet genuinely convoys.
//!
//! The run also performs a FileDisk recovery byte-identity audit: a
//! crash image taken on the file backend is recovered twice and the two
//! recovered data disks are compared frame-for-frame. The emitted
//! `results/BENCH_scaling.json` carries the sweep cells plus the audit
//! verdict; `scripts/verify.sh` gates on zero conservation violations
//! and `filedisk_recovery.identical == true`.

use rmdb_exec::{ExecConfig, ExecDb, Executor};
use rmdb_obs::Registry;
use rmdb_storage::{BackendKind, Disk, NvmeConfig};
use rmdb_wal::{CrashImage, WalConfig, WalDb};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DATA_PAGES: u64 = 256;
/// Bank accounts (pages) the transfer workload moves value between.
const ACCOUNTS: u64 = 64;
const INITIAL: u64 = 1_000;
/// Issue one MVCC conservation-sum read per this many submissions.
const READ_EVERY: u64 = 64;

/// Which backend a sweep cell provisions, with its per-cell knobs.
#[derive(Clone, Copy, PartialEq)]
enum Backend {
    Mem,
    File,
    Nvme,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::Mem => "mem",
            Backend::File => "file",
            Backend::Nvme => "nvme",
        }
    }

    /// The provisioner for one cell. NVMe shares one realtime controller
    /// across the whole fleet — data disk and every log platter queue on
    /// one another, which is the point of the model.
    fn kind(self) -> BackendKind {
        match self {
            Backend::Mem => BackendKind::Mem,
            Backend::File => BackendKind::file(),
            Backend::Nvme => BackendKind::nvme_shared(NvmeConfig {
                realtime: true,
                ..NvmeConfig::default()
            }),
        }
    }

    /// Rotational force model only where the device charges nothing.
    fn force_delay_us(self) -> u64 {
        match self {
            Backend::Mem => 500,
            Backend::File | Backend::Nvme => 0,
        }
    }
}

struct Cell {
    backend: &'static str,
    workers: usize,
    streams: usize,
    txns: u64,
    secs: f64,
    txns_per_sec: f64,
    commit_p50_us: u64,
    commit_p99_us: u64,
    group_commits: u64,
    max_group: u64,
    conflict_retries: u64,
    /// Log forces the WAL rule triggered by evicting a dirty page.
    eviction_forces: u64,
    /// Every log force the cell's streams performed.
    log_forces: u64,
    conservation_reads: u64,
    conservation_violations: u64,
}

impl Cell {
    fn json(&self) -> String {
        format!(
            "{{\"backend\":\"{}\",\"workers\":{},\"streams\":{},\"txns\":{},\
\"secs\":{:.3},\"txns_per_sec\":{:.1},\"commit_p50_us\":{},\"commit_p99_us\":{},\
\"group_commits\":{},\"max_group\":{},\"conflict_retries\":{},\"eviction_forces\":{},\
\"log_forces\":{},\"conservation_reads\":{},\"conservation_violations\":{}}}",
            self.backend,
            self.workers,
            self.streams,
            self.txns,
            self.secs,
            self.txns_per_sec,
            self.commit_p50_us,
            self.commit_p99_us,
            self.group_commits,
            self.max_group,
            self.conflict_retries,
            self.eviction_forces,
            self.log_forces,
            self.conservation_reads,
            self.conservation_violations,
        )
    }
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

fn run_cell(backend: Backend, workers: usize, streams: usize, secs: f64) -> Cell {
    let obs = Registry::new();
    let cfg = ExecConfig {
        wal: WalConfig {
            data_pages: DATA_PAGES,
            pool_frames: 320,
            log_streams: streams,
            log_frames: 1 << 17,
            seed: 1985,
            backend: backend.kind(),
            ..WalConfig::default()
        },
        pool_shards: 8,
        force_delay_us: backend.force_delay_us(),
        obs: obs.clone(),
        ..ExecConfig::default()
    };
    let db = Arc::new(ExecDb::new(cfg));
    // seed the accounts in one transaction so no snapshot can ever see a
    // partial seeding
    db.run_txn(0, |ctx| {
        for p in 0..ACCOUNTS {
            ctx.write(p, 0, &INITIAL.to_le_bytes())?;
        }
        Ok(())
    })
    .expect("seed accounts");
    let expected_total = ACCOUNTS * INITIAL;

    let pool = Executor::new(workers, workers * 2);
    let committed = Arc::new(AtomicU64::new(0));
    let cons_reads = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    let latencies = Arc::new(Mutex::new(Vec::<u64>::new()));

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut i: u64 = 0;
    // xorshift: deterministic submission schedule, no rand dep
    let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    while Instant::now() < deadline {
        let qp = (i % workers as u64) as usize;
        let db = Arc::clone(&db);
        if i % READ_EVERY == READ_EVERY - 1 {
            // lock-free conservation probe through the MVCC snapshot path
            let cons_reads = Arc::clone(&cons_reads);
            let violations = Arc::clone(&violations);
            pool.submit(move || {
                let sum = db.run_ro_txn(qp, |snap| {
                    let mut sum = 0u64;
                    for p in 0..ACCOUNTS {
                        let b = snap.read(p, 0, 8)?;
                        sum += u64::from_le_bytes(b.try_into().expect("8 bytes"));
                    }
                    Ok(sum)
                });
                if let Ok(sum) = sum {
                    cons_reads.fetch_add(1, Ordering::Relaxed);
                    if sum != expected_total {
                        violations.fetch_add(1, Ordering::Relaxed);
                        eprintln!("VIOLATION: snapshot sum {sum} != {expected_total}");
                    }
                }
            });
        } else {
            let from = next() % ACCOUNTS;
            let to = (from + 1 + next() % (ACCOUNTS - 1)) % ACCOUNTS;
            let amount = next() % 5;
            let committed = Arc::clone(&committed);
            let latencies = Arc::clone(&latencies);
            pool.submit(move || {
                let t0 = Instant::now();
                let ok = db
                    .run_txn(qp, |ctx| {
                        let f = u64::from_le_bytes(ctx.read(from, 0, 8)?.try_into().unwrap());
                        let t = u64::from_le_bytes(ctx.read(to, 0, 8)?.try_into().unwrap());
                        let moved = amount.min(f);
                        ctx.write(from, 0, &(f - moved).to_le_bytes())?;
                        ctx.write(to, 0, &(t + moved).to_le_bytes())?;
                        Ok(())
                    })
                    .is_ok();
                if ok {
                    committed.fetch_add(1, Ordering::Relaxed);
                    let us = t0.elapsed().as_micros() as u64;
                    latencies.lock().expect("latency lock").push(us);
                }
            });
        }
        i += 1;
    }
    pool.join();
    let elapsed = start.elapsed().as_secs_f64();

    // final strict conservation check under locks (not just snapshots)
    let total = Arc::new(AtomicU64::new(0));
    {
        let total = Arc::clone(&total);
        db.run_txn(0, move |ctx| {
            let mut sum = 0u64;
            for p in 0..ACCOUNTS {
                let b = ctx.read(p, 0, 8)?;
                sum += u64::from_le_bytes(b.try_into().expect("8 bytes"));
            }
            total.store(sum, Ordering::Relaxed);
            Ok(())
        })
        .expect("final conservation read");
    }
    if total.load(Ordering::Relaxed) != expected_total {
        violations.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "VIOLATION: final sum {} != {expected_total}",
            total.load(Ordering::Relaxed)
        );
    }

    let stats = db.stats();
    let _ = db.drain_appenders();
    let txns = committed.load(Ordering::Relaxed);
    let mut lat = std::mem::take(&mut *latencies.lock().expect("latency lock"));
    Cell {
        backend: backend.name(),
        workers,
        streams,
        txns,
        secs: elapsed,
        txns_per_sec: txns as f64 / elapsed,
        commit_p50_us: percentile_us(&mut lat, 0.50),
        commit_p99_us: percentile_us(&mut lat, 0.99),
        group_commits: stats.group_commits,
        max_group: stats.max_group_size,
        conflict_retries: stats.conflict_retries,
        eviction_forces: stats.wal_forces,
        // the cell's registry is its own, so the family is this cell's
        log_forces: obs.snapshot().counter_family("wal.forces.s"),
        conservation_reads: cons_reads.load(Ordering::Relaxed),
        conservation_violations: violations.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// FileDisk recovery byte-identity audit
// ---------------------------------------------------------------------------

fn disks_identical(a: &Disk, b: &Disk) -> bool {
    if a.capacity() != b.capacity() {
        return false;
    }
    for addr in 0..a.capacity() {
        if a.is_allocated(addr) != b.is_allocated(addr) {
            return false;
        }
        if a.is_allocated(addr) {
            match (a.read_frame(addr), b.read_frame(addr)) {
                (Ok(fa), Ok(fb)) if fa == fb => {}
                _ => return false,
            }
        }
    }
    true
}

/// Take a crash image on the file backend mid-workload, recover it twice
/// (each recovery running against its own file copies), and compare the
/// recovered data disks frame-for-frame. Deterministic recovery on real
/// files is what lets the fault sweep's oracle trust a single run.
fn filedisk_recovery_audit(seeds: &[u64]) -> (bool, String) {
    let mut rows = Vec::new();
    let mut all_identical = true;
    for &seed in seeds {
        let wal_cfg = WalConfig {
            data_pages: 64,
            pool_frames: 16,
            log_streams: 2,
            log_frames: 4096,
            seed,
            backend: BackendKind::file(),
            ..WalConfig::default()
        };
        let cfg = ExecConfig {
            wal: wal_cfg.clone(),
            pool_shards: 2,
            force_delay_us: 0,
            ..ExecConfig::default()
        };
        let db = ExecDb::new(cfg);
        let mut x = seed | 1;
        for i in 0..200u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = x % 64;
            let qp = (i % 4) as usize;
            let val = x.to_le_bytes();
            let _ = db.run_txn(qp, |ctx| ctx.write(page, 0, &val));
        }
        let image = db.crash_image().expect("crash image");
        // duplicate the image: each recovery gets its own file copies
        let copy = CrashImage {
            data: image.data.snapshot(),
            logs: image.logs.iter().map(Disk::snapshot).collect(),
        };
        let (a, _) = WalDb::recover(image, wal_cfg.clone()).expect("recover a");
        let (b, _) = WalDb::recover(copy, wal_cfg).expect("recover b");
        let da = a.crash_image().data;
        let db_ = b.crash_image().data;
        let identical = disks_identical(&da, &db_);
        all_identical &= identical;
        assert_eq!(da.kind(), "file", "audit must run on the file backend");
        rows.push(format!("{{\"seed\":{seed},\"identical\":{identical}}}"));
    }
    (
        all_identical,
        format!(
            "{{\"identical\":{all_identical},\"runs\":[{}]}}",
            rows.join(",")
        ),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut secs = 1.0f64;
    let mut smoke = false;
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--secs" => {
                secs = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(secs);
                i += 1;
            }
            "--smoke" => smoke = true,
            "--json" => json = true,
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (backends, workers, streams, cell_secs): (&[Backend], &[usize], &[usize], f64) = if smoke {
        (
            &[Backend::Mem, Backend::Nvme],
            &[32, 64, 128],
            &[8],
            secs.min(0.4),
        )
    } else {
        (
            &[Backend::Mem, Backend::File, Backend::Nvme],
            &[32, 64, 96, 128],
            &[8, 16],
            secs,
        )
    };

    let mut cells = Vec::new();
    for &backend in backends {
        for &w in workers {
            for &s in streams {
                if !json {
                    eprintln!("[scaling] {} workers={w} streams={s}", backend.name());
                }
                cells.push(run_cell(backend, w, s, cell_secs));
            }
        }
    }

    let (_identical, audit) = filedisk_recovery_audit(&[7, 1985, 31337]);
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let report = format!(
        "{{\"bench\":\"scaling\",\"smoke\":{smoke},\"host_cores\":{host_cores},\
\"cells\":[{}],\"filedisk_recovery\":{audit}}}\n",
        cells.iter().map(Cell::json).collect::<Vec<_>>().join(",")
    );

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_scaling.json", &report).expect("write BENCH_scaling.json");

    if json {
        println!("{report}");
    } else {
        println!(
            "{:<6} {:>7} {:>7} {:>9} {:>12} {:>9} {:>9} {:>6}",
            "dev", "workers", "streams", "txns", "txns/sec", "p50 µs", "p99 µs", "viol"
        );
        for c in &cells {
            println!(
                "{:<6} {:>7} {:>7} {:>9} {:>12.0} {:>9} {:>9} {:>6}",
                c.backend,
                c.workers,
                c.streams,
                c.txns,
                c.txns_per_sec,
                c.commit_p50_us,
                c.commit_p99_us,
                c.conservation_violations
            );
        }
        println!("wrote results/BENCH_scaling.json");
    }

    let violations: u64 = cells.iter().map(|c| c.conservation_violations).sum();
    if violations > 0 || !_identical {
        eprintln!("FAIL: violations={violations} filedisk_identical={_identical}");
        std::process::exit(1);
    }
}
