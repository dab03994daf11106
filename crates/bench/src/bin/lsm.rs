//! Leveled differential-store bench: write amplification and range-scan
//! throughput across the two paper-§3 query strategies.
//!
//! The leveled store buys bounded read fan-in by rewriting runs during
//! compaction; the cost is write amplification — device frames written
//! per user byte committed. This bench drives a put/delete workload
//! through the full hierarchy (memtable → journal → L0 → compacted
//! levels), then measures:
//!
//! * **write amplification** — `frames_written × FRAME_SIZE / user_bytes`,
//!   split into journal and run-rewrite components;
//! * **range-scan throughput** — scans/second for the *basic* strategy
//!   (full set-union ∪ set-difference) vs the *optimal* strategy
//!   (newest-first priority walk), over narrow and wide key ranges;
//! * **equivalence** — every measured scan is cross-checked basic vs
//!   optimal; any divergence is counted and fails the process, because a
//!   store that answers faster by answering differently is not faster;
//! * **read fan-in** — device frames read per optimal point get over
//!   every key (`frames_per_get`) and per optimal range scan over
//!   eighth-of-the-keyspace windows (`frames_per_range`), from
//!   `LsmStore::disk_reads` deltas. The fence index bounds a get to one
//!   frame per live run.
//!
//! ```text
//! lsm [--smoke] [--json]
//! ```
//!
//! * `--smoke` — CI-sized cells: the narrow hot cell and a wide one whose
//!   runs span several frames
//! * `--json`  — machine-readable output only
//!
//! Emits `results/BENCH_lsm.json`; `scripts/verify.sh` gates on zero
//! equivalence violations, a compaction count above zero (a run that
//! never compacted measured nothing), and `frames_per_get` within
//! `l0_limit + max_levels` (one frame per run the hierarchy can hold).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmdb_difffile::{LsmConfig, LsmStore, ScanStrategy};
use rmdb_storage::FRAME_SIZE;
use std::time::Instant;

/// One workload cell: commit `txns` transactions over `keys` keys with
/// `value_len`-byte values, maintenance interleaved.
#[derive(Clone, Copy)]
struct Cell {
    name: &'static str,
    keys: u64,
    txns: u64,
    value_len: usize,
}

struct CellResult {
    name: &'static str,
    committed_txns: u64,
    user_bytes: u64,
    frames_written: u64,
    journal_frames: u64,
    run_frames: u64,
    flushes: u64,
    compactions: u64,
    write_amplification: f64,
    levels_live: u64,
    l0_runs: usize,
    basic_scans_per_sec: f64,
    optimal_scans_per_sec: f64,
    equivalence_violations: u64,
    live_run_frames: u64,
    frames_per_get: f64,
    frames_per_range: f64,
}

impl CellResult {
    fn json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"committed_txns\":{},\"user_bytes\":{},\
             \"frames_written\":{},\"journal_frames\":{},\"run_frames\":{},\
             \"flushes\":{},\"compactions\":{},\"write_amplification\":{:.3},\
             \"levels_live\":{},\"l0_runs\":{},\"basic_scans_per_sec\":{:.1},\
             \"optimal_scans_per_sec\":{:.1},\"equivalence_violations\":{},\
             \"live_run_frames\":{},\"frames_per_get\":{:.3},\"frames_per_range\":{:.3}}}",
            self.name,
            self.committed_txns,
            self.user_bytes,
            self.frames_written,
            self.journal_frames,
            self.run_frames,
            self.flushes,
            self.compactions,
            self.write_amplification,
            self.levels_live,
            self.l0_runs,
            self.basic_scans_per_sec,
            self.optimal_scans_per_sec,
            self.equivalence_violations,
            self.live_run_frames,
            self.frames_per_get,
            self.frames_per_range,
        )
    }
}

fn cfg() -> LsmConfig {
    // small levels so the workload exercises several compaction tiers
    LsmConfig {
        journal_frames: 32,
        arena_frames: 512,
        memtable_limit: 32,
        l0_limit: 3,
        level_base_frames: 4,
        fanout: 3,
        max_levels: 4,
        ..LsmConfig::default()
    }
}

/// Timed scan loop under one strategy; returns (scans/sec, results of the
/// last round for equivalence checking).
#[allow(clippy::type_complexity)]
fn scan_round(
    store: &LsmStore,
    ranges: &[(u64, u64)],
    strategy: ScanStrategy,
    rounds: u32,
) -> (f64, Vec<Vec<(u64, Vec<u8>)>>) {
    let t0 = Instant::now();
    let mut last = Vec::new();
    for _ in 0..rounds {
        last = ranges
            .iter()
            .map(|&(lo, hi)| store.range(lo, hi, strategy).expect("range scan"))
            .collect();
    }
    let scans = u64::from(rounds) * ranges.len() as u64;
    (scans as f64 / t0.elapsed().as_secs_f64().max(1e-9), last)
}

fn run_cell(cell: Cell, scan_rounds: u32) -> CellResult {
    let store = LsmStore::new(cfg()).expect("lsm store");
    let mut rng = StdRng::seed_from_u64(0x1985 ^ cell.txns);
    for i in 0..cell.txns {
        let t = store.begin();
        for _ in 0..rng.gen_range(1..4) {
            let key = rng.gen_range(0..cell.keys);
            if rng.gen_bool(0.85) {
                let mut v = vec![0u8; cell.value_len];
                rng.fill(&mut v[..]);
                store.put(t, key, &v).expect("put");
            } else {
                store.delete(t, key).expect("delete");
            }
        }
        store.commit(t).expect("commit");
        if i % 8 == 7 {
            store.maintain().expect("maintain");
        }
    }
    store.flush_now().expect("final flush");
    store.maintain().expect("final maintain");

    let stats = store.stats();
    let frames_written = store.disk_writes();
    let manifest = store.manifest();
    let wa = if stats.user_bytes == 0 {
        0.0
    } else {
        (frames_written * FRAME_SIZE as u64) as f64 / stats.user_bytes as f64
    };

    // narrow, medium, and full ranges
    let ranges = [
        (0, cell.keys / 8),
        (cell.keys / 4, cell.keys / 2),
        (0, cell.keys - 1),
    ];
    let (basic_rate, basic_rows) = scan_round(&store, &ranges, ScanStrategy::Basic, scan_rounds);
    let (optimal_rate, optimal_rows) =
        scan_round(&store, &ranges, ScanStrategy::Optimal, scan_rounds);
    let equivalence_violations = basic_rows
        .iter()
        .zip(&optimal_rows)
        .filter(|(b, o)| b != o)
        .count() as u64;

    // read fan-in: device frames per optimal get / narrow range scan
    let before = store.disk_reads();
    for key in 0..cell.keys {
        store.get(key).expect("get");
    }
    let frames_per_get = (store.disk_reads() - before) as f64 / cell.keys as f64;
    let width = (cell.keys / 8).max(1);
    let windows: Vec<u64> = (0..cell.keys).step_by(width as usize).collect();
    let before = store.disk_reads();
    for &lo in &windows {
        store
            .range(lo, lo + width - 1, ScanStrategy::Optimal)
            .expect("range");
    }
    let frames_per_range = (store.disk_reads() - before) as f64 / windows.len() as f64;

    CellResult {
        name: cell.name,
        committed_txns: stats.commits,
        user_bytes: stats.user_bytes,
        frames_written,
        journal_frames: stats.journal_frames_written,
        run_frames: stats.run_frames_written,
        flushes: stats.flushes,
        compactions: stats.compactions,
        write_amplification: wa,
        levels_live: manifest.levels_live(),
        l0_runs: manifest.l0.len(),
        basic_scans_per_sec: basic_rate,
        optimal_scans_per_sec: optimal_rate,
        equivalence_violations,
        live_run_frames: manifest
            .l0
            .iter()
            .chain(manifest.levels.iter().flatten())
            .map(|d| d.frames)
            .sum(),
        frames_per_get,
        frames_per_range,
    }
}

fn main() {
    let mut smoke = false;
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--json" => json = true,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let cells: &[Cell] = if smoke {
        &[
            Cell {
                name: "smoke",
                keys: 64,
                txns: 400,
                value_len: 24,
            },
            // runs of several frames, so the read fan-in gate bites
            Cell {
                name: "smoke-wide",
                keys: 512,
                txns: 400,
                value_len: 160,
            },
        ]
    } else {
        &[
            Cell {
                name: "narrow-hot",
                keys: 64,
                txns: 2_000,
                value_len: 24,
            },
            Cell {
                name: "wide-uniform",
                keys: 512,
                txns: 4_000,
                value_len: 48,
            },
            Cell {
                name: "large-values",
                keys: 128,
                txns: 2_000,
                value_len: 160,
            },
        ]
    };
    let scan_rounds = if smoke { 20 } else { 100 };

    let results: Vec<CellResult> = cells.iter().map(|&c| run_cell(c, scan_rounds)).collect();
    let violations: u64 = results.iter().map(|r| r.equivalence_violations).sum();

    let cfg = cfg();
    let report = format!(
        "{{\"bench\":\"lsm\",\"smoke\":{smoke},\"frame_size\":{FRAME_SIZE},\
         \"l0_limit\":{},\"max_levels\":{},\
         \"equivalence_violations\":{violations},\"cells\":[{}]}}",
        cfg.l0_limit,
        cfg.max_levels,
        results
            .iter()
            .map(CellResult::json)
            .collect::<Vec<_>>()
            .join(",")
    );
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_lsm.json", &report).expect("write BENCH_lsm.json");

    if json {
        println!("{report}");
    } else {
        for r in &results {
            println!(
                "{:>14}: WA {:.2} ({} frames / {} user bytes), {} flushes, \
                 {} compactions, L0 {} + {} levels, basic {:.0}/s vs optimal {:.0}/s, \
                 {:.2} frames/get, {:.2} frames/range of {} live",
                r.name,
                r.write_amplification,
                r.frames_written,
                r.user_bytes,
                r.flushes,
                r.compactions,
                r.l0_runs,
                r.levels_live,
                r.basic_scans_per_sec,
                r.optimal_scans_per_sec,
                r.frames_per_get,
                r.frames_per_range,
                r.live_run_frames,
            );
        }
        println!("wrote results/BENCH_lsm.json");
    }
    if violations > 0 {
        eprintln!("FAIL: {violations} basic/optimal equivalence violations");
        std::process::exit(1);
    }
}
