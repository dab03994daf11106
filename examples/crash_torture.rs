//! Crash-torture all five page-granular recovery architectures with one
//! randomized workload and verify they agree with a committed-state
//! oracle after every crash.
//!
//! ```sh
//! cargo run --release --example crash_torture -- [rounds] [seed]
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recovery_machines::core::PageStore;
use recovery_machines::shadow::{
    NoRedoStore, NoUndoStore, OverwriteConfig, ShadowConfig, ShadowPager, VersionConfig,
    VersionStore,
};
use recovery_machines::wal::{WalConfig, WalDb};
use std::collections::HashMap;

const PAGES: u64 = 24;
const SLOT: usize = 32;

/// Committed-state oracle: page → the 32 bytes at offset 0.
type Oracle = HashMap<u64, Vec<u8>>;

/// Run `ops` random transactions; returns how many committed.
fn storm<S: PageStore>(store: &mut S, oracle: &mut Oracle, rng: &mut StdRng, ops: usize) -> usize {
    let mut committed = 0;
    for _ in 0..ops {
        let txn = store.begin();
        let n_writes = rng.gen_range(1..4);
        let mut staged: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut ok = true;
        for _ in 0..n_writes {
            let page = rng.gen_range(0..PAGES);
            if staged.iter().any(|(p, _)| *p == page) {
                continue;
            }
            let mut data = vec![0u8; SLOT];
            rng.fill(&mut data[..]);
            if store.write(txn, page, 0, &data).is_err() {
                ok = false; // lock conflict in a single-threaded storm = bug elsewhere
                break;
            }
            staged.push((page, data));
        }
        if ok && rng.gen_bool(0.7) {
            store.commit(txn).expect("commit");
            for (page, data) in staged {
                oracle.insert(page, data);
            }
            committed += 1;
        } else {
            store.abort(txn).expect("abort");
        }
    }
    committed
}

fn verify<S: PageStore>(store: &mut S, oracle: &Oracle, context: &str) {
    let txn = store.begin();
    for page in 0..PAGES {
        let got = store.read(txn, page, 0, SLOT).expect("read");
        let want = oracle.get(&page).cloned().unwrap_or_else(|| vec![0; SLOT]);
        assert_eq!(
            got,
            want,
            "{} [{}]: page {page} diverged from the oracle",
            store.architecture(),
            context
        );
    }
    store.abort(txn).expect("read-only abort");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rounds: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(6);
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1985);

    // -- parallel logging --
    {
        let cfg = WalConfig {
            data_pages: PAGES,
            pool_frames: 4,
            log_streams: 3,
            ..WalConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = WalDb::new(cfg.clone());
        let mut oracle = Oracle::new();
        let mut total = 0;
        for round in 0..rounds {
            total += storm(&mut db, &mut oracle, &mut rng, 30);
            let (recovered, _) = WalDb::recover(db.crash_image(), cfg.clone()).unwrap();
            db = recovered;
            verify(&mut db, &oracle, &format!("crash {round}"));
        }
        println!("parallel logging (WAL)      : {total} commits, {rounds} crashes ✓");
    }

    // -- shadow, thru page-table --
    {
        let cfg = ShadowConfig {
            logical_pages: PAGES,
            data_frames: PAGES * 4,
            ..ShadowConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = ShadowPager::new(cfg.clone()).unwrap();
        let mut oracle = Oracle::new();
        let mut total = 0;
        for round in 0..rounds {
            total += storm(&mut db, &mut oracle, &mut rng, 30);
            let (recovered, _) = ShadowPager::recover(db.crash_image(), cfg.clone()).unwrap();
            db = recovered;
            verify(&mut db, &oracle, &format!("crash {round}"));
        }
        println!("shadow (thru page-table)    : {total} commits, {rounds} crashes ✓");
    }

    // -- shadow, version selection --
    {
        let cfg = VersionConfig {
            logical_pages: PAGES,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = VersionStore::new(cfg.clone());
        let mut oracle = Oracle::new();
        let mut total = 0;
        for round in 0..rounds {
            total += storm(&mut db, &mut oracle, &mut rng, 30);
            let (recovered, _) = VersionStore::recover(db.crash_image(), cfg.clone()).unwrap();
            db = recovered;
            verify(&mut db, &oracle, &format!("crash {round}"));
        }
        println!("shadow (version selection)  : {total} commits, {rounds} crashes ✓");
    }

    // -- overwriting, no-undo --
    {
        let cfg = OverwriteConfig {
            logical_pages: PAGES,
            scratch_slots: 16,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = NoUndoStore::new(cfg.clone());
        let mut oracle = Oracle::new();
        let mut total = 0;
        for round in 0..rounds {
            total += storm(&mut db, &mut oracle, &mut rng, 30);
            let (recovered, _) = NoUndoStore::recover(db.crash_image(), cfg.clone()).unwrap();
            db = recovered;
            verify(&mut db, &oracle, &format!("crash {round}"));
        }
        println!("overwriting (no-undo)       : {total} commits, {rounds} crashes ✓");
    }

    // -- overwriting, no-redo --
    {
        let cfg = OverwriteConfig {
            logical_pages: PAGES,
            scratch_slots: 16,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = NoRedoStore::new(cfg.clone());
        let mut oracle = Oracle::new();
        let mut total = 0;
        for round in 0..rounds {
            total += storm(&mut db, &mut oracle, &mut rng, 30);
            let (recovered, _) = NoRedoStore::recover(db.crash_image(), cfg.clone()).unwrap();
            db = recovered;
            verify(&mut db, &oracle, &format!("crash {round}"));
        }
        println!("overwriting (no-redo)       : {total} commits, {rounds} crashes ✓");
    }

    println!("\nall five architectures agree with the committed-state oracle");
}
