//! Cross-architecture crash-consistency: every page-granular recovery
//! engine must agree with a committed-state oracle after arbitrary crash
//! points, for many seeds.
//!
//! This is the repository's flagship correctness suite: the same random
//! transaction storm runs against all five architectures through the
//! [`recovery_machines::core::PageStore`] trait, with a crash + recovery
//! after every burst.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recovery_machines::core::PageStore;
use recovery_machines::shadow::{
    NoRedoStore, NoUndoStore, OverwriteConfig, ShadowConfig, ShadowPager, VersionConfig,
    VersionStore,
};
use recovery_machines::wal::{LogMode, SelectionPolicy, WalConfig, WalDb};
use std::collections::HashMap;

const PAGES: u64 = 16;
const SLOT: usize = 24;

type Oracle = HashMap<u64, Vec<u8>>;

fn storm<S: PageStore>(store: &mut S, oracle: &mut Oracle, rng: &mut StdRng, ops: usize) {
    for _ in 0..ops {
        let txn = store.begin();
        let mut staged: Vec<(u64, Vec<u8>)> = Vec::new();
        for _ in 0..rng.gen_range(1..4) {
            let page = rng.gen_range(0..PAGES);
            if staged.iter().any(|(p, _)| *p == page) {
                continue;
            }
            let mut data = vec![0u8; SLOT];
            rng.fill(&mut data[..]);
            store.write(txn, page, 0, &data).expect("write");
            staged.push((page, data));
        }
        if rng.gen_bool(0.7) {
            store.commit(txn).expect("commit");
            for (page, data) in staged {
                oracle.insert(page, data);
            }
        } else {
            store.abort(txn).expect("abort");
        }
    }
}

fn verify<S: PageStore>(store: &mut S, oracle: &Oracle, context: &str) {
    let txn = store.begin();
    for page in 0..PAGES {
        let got = store.read(txn, page, 0, SLOT).expect("read");
        let want = oracle.get(&page).cloned().unwrap_or_else(|| vec![0; SLOT]);
        assert_eq!(
            got,
            want,
            "{} [{context}]: page {page} diverged",
            store.architecture()
        );
    }
    store.abort(txn).expect("read-only abort");
}

/// Drive one architecture through `rounds` storm+crash cycles.
macro_rules! crash_cycle_test {
    ($name:ident, $ty:ty, $cfg:expr, $new:expr, $recover:expr) => {
        #[test]
        fn $name() {
            for seed in [1u64, 7, 1985, 4242] {
                let cfg = $cfg;
                let mut rng = StdRng::seed_from_u64(seed);
                #[allow(clippy::redundant_closure_call)]
                let mut store: $ty = ($new)(cfg.clone());
                let mut oracle = Oracle::new();
                for round in 0..4 {
                    storm(&mut store, &mut oracle, &mut rng, 25);
                    // leave a transaction hanging over the crash sometimes
                    if rng.gen_bool(0.5) {
                        let t = store.begin();
                        let _ = store.write(t, rng.gen_range(0..PAGES), 0, b"doomed");
                    }
                    #[allow(clippy::redundant_closure_call)]
                    let recovered: $ty = ($recover)(&store, cfg.clone());
                    store = recovered;
                    verify(&mut store, &oracle, &format!("seed {seed} crash {round}"));
                    // and the engine still works after recovery
                    storm(&mut store, &mut oracle, &mut rng, 5);
                    verify(&mut store, &oracle, &format!("seed {seed} post {round}"));
                }
            }
        }
    };
}

crash_cycle_test!(
    wal_logical_survives_crashes,
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

crash_cycle_test!(
    wal_physical_survives_crashes,
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

crash_cycle_test!(
    wal_random_selection_survives_crashes,
    WalDb,
    WalConfig {
        data_pages: PAGES,
        pool_frames: 3,
        log_streams: 4,
        policy: SelectionPolicy::Random,
        ..WalConfig::default()
    },
    WalDb::new,
    |db: &WalDb, cfg| WalDb::recover(db.crash_image(), cfg).expect("recover").0
);

crash_cycle_test!(
    shadow_pager_survives_crashes,
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

crash_cycle_test!(
    version_store_survives_crashes,
    VersionStore,
    VersionConfig {
        logical_pages: PAGES,
    },
    VersionStore::new,
    |db: &VersionStore, cfg| VersionStore::recover(db.crash_image(), cfg)
        .expect("recover")
        .0
);

crash_cycle_test!(
    no_undo_survives_crashes,
    NoUndoStore,
    OverwriteConfig {
        logical_pages: PAGES,
        scratch_slots: 12,
    },
    NoUndoStore::new,
    |db: &NoUndoStore, cfg| NoUndoStore::recover(db.crash_image(), cfg)
        .expect("recover")
        .0
);

crash_cycle_test!(
    no_redo_survives_crashes,
    NoRedoStore,
    OverwriteConfig {
        logical_pages: PAGES,
        scratch_slots: 12,
    },
    NoRedoStore::new,
    |db: &NoRedoStore, cfg| NoRedoStore::recover(db.crash_image(), cfg)
        .expect("recover")
        .0
);

/// All architectures fed the *identical* operation stream end up with the
/// identical committed state.
#[test]
fn architectures_agree_with_each_other() {
    let seed = 99;

    fn final_state<S: PageStore>(store: &mut S, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle = Oracle::new();
        storm(store, &mut oracle, &mut rng, 60);
        let txn = store.begin();
        let state = (0..PAGES)
            .map(|p| store.read(txn, p, 0, SLOT).expect("read"))
            .collect();
        store.abort(txn).expect("abort");
        state
    }

    let wal = final_state(
        &mut WalDb::new(WalConfig {
            data_pages: PAGES,
            ..WalConfig::default()
        }),
        seed,
    );
    let shadow = final_state(
        &mut ShadowPager::new(ShadowConfig {
            logical_pages: PAGES,
            data_frames: PAGES * 4,
            ..ShadowConfig::default()
        })
        .expect("new"),
        seed,
    );
    let version = final_state(
        &mut VersionStore::new(VersionConfig {
            logical_pages: PAGES,
        }),
        seed,
    );
    let no_undo = final_state(
        &mut NoUndoStore::new(OverwriteConfig {
            logical_pages: PAGES,
            scratch_slots: 16,
        }),
        seed,
    );
    let no_redo = final_state(
        &mut NoRedoStore::new(OverwriteConfig {
            logical_pages: PAGES,
            scratch_slots: 16,
        }),
        seed,
    );

    assert_eq!(wal, shadow, "WAL vs shadow pager");
    assert_eq!(wal, version, "WAL vs version selection");
    assert_eq!(wal, no_undo, "WAL vs no-undo");
    assert_eq!(wal, no_redo, "WAL vs no-redo");
}
