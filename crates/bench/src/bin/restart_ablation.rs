//! Recovery-time ablation for the checkpoint-bounded parallel restart
//! engine: `restart_ablation [--txns N] [--out DIR] [--replay-json PATH]`.
//!
//! Runs the restart-time table (recovery time vs checkpoint interval ×
//! redo worker count) at a workload size where the trends are visible —
//! the default is deliberately larger than the paper-table driver's,
//! because the measured quantity is wall-clock of the restart itself, not
//! simulator output. Also prints the full [`rmdb_restart::RestartReport`]
//! of one representative K=4 restart, and a full-replay-vs-K=4 speedup
//! line (the acceptance check for bounded parallel redo).
//!
//! `--replay-json PATH` runs the adaptive-logging × parallel-replay sweep
//! instead and writes its JSON there: per-policy log bytes under 90/10
//! hot-key traffic (physical / command / adaptive), and the page-sharded
//! redo phase of one mixed command/physical log at K ∈ {1, 2, 4, 8} with
//! a byte-identity check across every K and, per K, the pages redo
//! replayed and the pages the durable finish wrote. This is what `scripts/verify.sh`
//! gates on (`results/BENCH_replay.json`).

use rmdb_core::export::{tables_to_json, tables_to_text};
use rmdb_machine::ablations::restart_time;
use rmdb_restart::{restart, RestartConfig};
use rmdb_storage::Disk;
use rmdb_wal::{CrashImage, LoggingPolicy, WalConfig, WalDb};
use std::fmt::Write as _;
use std::time::Instant;

const DEFAULT_TXNS: usize = 20_000;

/// xorshift64*: deterministic workload mixing without a rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut txns = DEFAULT_TXNS;
    let mut out: Option<String> = None;
    let mut replay_json: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--txns" => {
                txns = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(DEFAULT_TXNS);
                i += 1;
            }
            "--out" => {
                out = args.get(i + 1).cloned();
                i += 1;
            }
            "--replay-json" => {
                replay_json = args.get(i + 1).cloned();
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }

    if let Some(path) = replay_json {
        let doc = replay_sweep();
        std::fs::write(&path, &doc).expect("write replay sweep json");
        eprintln!("wrote {path}");
        return;
    }

    let tables = vec![restart_time(txns)];
    let text = tables_to_text(&tables);
    print!("{text}");
    if let Some(dir) = out {
        std::fs::create_dir_all(&dir).expect("create output dir");
        std::fs::write(format!("{dir}/restart_ablation.txt"), &text)
            .expect("write restart_ablation.txt");
        std::fs::write(
            format!("{dir}/restart_ablation.json"),
            tables_to_json(&tables),
        )
        .expect("write restart_ablation.json");
        eprintln!("wrote {dir}/restart_ablation.txt and {dir}/restart_ablation.json");
    }

    // One representative run, end to end: fine checkpoints, K=4, with the
    // full report and the full-replay comparison. Mirrors the
    // `restart_time` workload: 256-byte fragments over 1600 pages, an
    // interval that leaves a redo remainder after the last checkpoint.
    let ckpt_every = (txns as u64 / 16 + 1).max(2);
    let cfg = || WalConfig {
        data_pages: 2048,
        pool_frames: 64,
        log_streams: 4,
        log_frames: 1 << 16,
        ckpt_every_commits: ckpt_every,
        ..WalConfig::default()
    };
    let mut db = WalDb::new(cfg());
    let drone = db.begin();
    db.write(drone, 2047, 0, b"drone").expect("drone write");
    for i in 0..txns as u64 {
        let t = db.begin();
        let payload = [(i % 251) as u8; 256];
        db.write(t, i % 1600, (i % 14) as usize * 256, &payload)
            .expect("write");
        db.commit(t).expect("commit");
    }

    let image = db.crash_image();
    let t0 = Instant::now();
    let (_, full) =
        WalDb::recover_from_archive(image.data, image.logs, cfg()).expect("full replay");
    let full_elapsed = t0.elapsed();

    let rcfg = RestartConfig::default();
    let (_, report) = restart(db.crash_image(), cfg(), &rcfg).expect("restart");

    println!();
    println!("{report}");
    println!(
        "full replay: {:?} ({} records); K={} bounded restart: {:?} ({:.2}x)",
        full_elapsed,
        full.records_scanned,
        report.workers,
        report.timings.total,
        full_elapsed.as_secs_f64() / report.timings.total.as_secs_f64().max(1e-9),
    );
}

/// The adaptive-logging × parallel-replay sweep behind `--replay-json`.
///
/// Part 1 — log bytes under hot-key traffic: the same 90/10 counter-bump
/// workload through each [`LoggingPolicy`]; the figure of merit is total
/// log bytes (Σ stream positions), where command records (one 8-byte
/// delta each) should beat before/after-image fragments outright and the
/// adaptive policy should track the command arm.
///
/// Part 2 — replay of a mixed log: one adaptive log holding command
/// records and physical fragments, restarted through page-sharded redo at
/// K ∈ {1, 2, 4, 8} (best of three redo phases per K), with every
/// recovered data disk compared byte-for-byte against the K=1 result.
fn replay_sweep() -> String {
    // ---- Part 1: logging policy vs log bytes, 90/10 hot keys ----
    const HOT_TXNS: u64 = 3_000;
    let hot_cfg = |logging: LoggingPolicy| WalConfig {
        data_pages: 512,
        pool_frames: 256,
        log_streams: 4,
        log_frames: 1 << 14,
        logging,
        ..WalConfig::default()
    };
    let run_hotkey = |logging: LoggingPolicy| -> (u64, u64) {
        let mut db = WalDb::new(hot_cfg(logging));
        let mut rng = Rng(0x5EED_CAFE);
        for i in 0..HOT_TXNS {
            let t = db.begin();
            for _ in 0..3 {
                // 90% of bumps land on 16 hot counter pages
                let page = if rng.below(10) < 9 {
                    rng.below(16)
                } else {
                    16 + rng.below(480)
                };
                db.add_u64(t, page, (rng.below(8) * 8) as usize, 1 + rng.below(100))
                    .expect("bump");
            }
            if i % 5 == 0 {
                db.write(t, 16 + rng.below(480), 0, &[i as u8; 16])
                    .expect("write");
            }
            db.commit(t).expect("commit");
        }
        let bytes = (0..db.log().n_streams())
            .map(|s| db.log().stream(s).position())
            .sum();
        (bytes, db.committed())
    };
    let (phys_bytes, _) = run_hotkey(LoggingPolicy::Fragments);
    let (cmd_bytes, _) = run_hotkey(LoggingPolicy::Command);
    let (adaptive_bytes, committed) = run_hotkey(LoggingPolicy::Adaptive { threshold_pct: 100 });
    let byte_ratio = adaptive_bytes as f64 / phys_bytes as f64;
    println!(
        "hot-key 90/10 ({committed} txns): physical={phys_bytes}B command={cmd_bytes}B \
         adaptive={adaptive_bytes}B ({byte_ratio:.2}x physical)"
    );

    // ---- Part 2: page-sharded replay of a mixed log at each K ----
    const SCALE_TXNS: u64 = 400;
    const SCALE_PAGES: u64 = 1_600;
    let scale_cfg = || WalConfig {
        data_pages: 2_048,
        pool_frames: 512,
        log_streams: 4,
        log_frames: 1 << 16,
        logging: LoggingPolicy::Adaptive { threshold_pct: 100 },
        ..WalConfig::default()
    };
    let mut db = WalDb::new(scale_cfg());
    let mut rng = Rng(0xD1CE_F00D);
    for i in 0..SCALE_TXNS {
        let t = db.begin();
        let cluster = (i % (SCALE_PAGES / 8)) * 8;
        if i % 4 == 3 {
            // one-byte writer: the command record's fixed header (48 bytes
            // in all) is dearer than the 47-byte fragment, so the policy
            // logs it physically
            db.write(t, cluster + rng.below(8), 3_300, &[i as u8])
                .expect("write");
        } else {
            // wide writer over its own cluster: one command record
            for w in 0..90u64 {
                let page = cluster + rng.below(8);
                let payload = [(i ^ w) as u8; 1024];
                db.write(t, page, (rng.below(3) * 1024) as usize, &payload)
                    .expect("write");
            }
            db.add_u64(t, cluster, 3_200, 1).expect("bump");
        }
        db.commit(t).expect("commit");
    }
    let image = db.crash_image();
    let clone = |img: &CrashImage| CrashImage {
        data: img.data.snapshot(),
        logs: img.logs.iter().map(Disk::snapshot).collect(),
    };

    let mut cells = String::new();
    let mut baseline: Option<Disk> = None;
    let mut violations = 0u64;
    for k in [1usize, 2, 4, 8] {
        let rcfg = RestartConfig { workers: k };
        let mut best_wall = u64::MAX;
        let mut last = None;
        for _ in 0..3 {
            let (dbk, report) = restart(clone(&image), scale_cfg(), &rcfg).expect("restart");
            best_wall = best_wall.min(report.timings.redo.as_micros() as u64);
            last = Some((dbk, report));
        }
        let (dbk, report) = last.expect("three runs");
        let recovered = dbk.crash_image();
        match &baseline {
            None => baseline = Some(recovered.data),
            Some(base) => {
                for addr in 0..base.capacity().min(recovered.data.capacity()) {
                    if base.is_allocated(addr) != recovered.data.is_allocated(addr) {
                        violations += 1;
                        continue;
                    }
                    if base.is_allocated(addr)
                        && base.read_frame(addr).ok() != recovered.data.read_frame(addr).ok()
                    {
                        violations += 1;
                    }
                }
            }
        }
        let (reexecuted, redone) = (report.base.reexecuted_ops, report.base.redone_updates);
        let replayed: u64 = report.per_worker.iter().map(|w| w.pages).sum();
        let written = report.base.pages_written;
        if !cells.is_empty() {
            cells.push(',');
        }
        write!(
            cells,
            "\n    {{\"workers\": {k}, \"wall_redo_us\": {best_wall}, \
             \"reexecuted_ops\": {reexecuted}, \"redone_updates\": {redone}, \
             \"pages_replayed\": {replayed}, \"pages_written\": {written}}}"
        )
        .expect("fmt");
        println!(
            "replay K={k}: wall={best_wall}us reexecuted={reexecuted} redone={redone} \
             pages replayed={replayed} written={written}"
        );
    }
    println!("replay: equivalence violations={violations}");

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\n  \"hotkey\": {{\n    \"txns\": {HOT_TXNS},\n    \"hot_pct\": 90,\n    \
         \"physical_bytes\": {phys_bytes},\n    \"command_bytes\": {cmd_bytes},\n    \
         \"adaptive_bytes\": {adaptive_bytes},\n    \
         \"adaptive_vs_physical\": {byte_ratio:.4}\n  }},\n  \
         \"scaling\": {{\n    \"txns\": {SCALE_TXNS},\n    \"pages\": {SCALE_PAGES},\n    \
         \"host_cores\": {cores},\n    \
         \"cells\": [{cells}\n    ],\n    \
         \"equivalence_violations\": {violations}\n  }}\n}}\n"
    )
}
