//! Property-based tests of the shadow architectures: arbitrary scripted
//! transactions with crashes must preserve exactly the committed state in
//! the page-table pager, the version-selection store, and both
//! overwriting stores.

use proptest::prelude::*;
use recovery_machines::shadow::{
    AllocPolicy, NoRedoStore, NoUndoStore, OverwriteConfig, ShadowConfig, ShadowPager,
    VersionConfig, VersionStore,
};
use std::collections::HashMap;

const PAGES: u64 = 8;
const SLOT: usize = 16;

#[derive(Debug, Clone)]
enum Op {
    Txn {
        writes: Vec<(u64, u8)>,
        commit: bool,
    },
    Crash,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (
            proptest::collection::vec((0..PAGES, any::<u8>()), 1..4),
            any::<bool>()
        )
            .prop_map(|(writes, commit)| Op::Txn { writes, commit }),
        2 => Just(Op::Crash),
    ]
}

/// Execute a script against a store given closures for the architecture's
/// specific pieces; validates against the oracle after every operation.
macro_rules! script_runner {
    ($fn_name:ident, $ty:ty, $mk_cfg:expr, $new:expr, $recover:expr) => {
        fn $fn_name(ops: Vec<Op>) {
            let cfg = $mk_cfg;
            #[allow(clippy::redundant_closure_call)]
            let mut db: $ty = ($new)(cfg.clone());
            let mut oracle: HashMap<u64, u8> = HashMap::new();
            for op in ops {
                match op {
                    Op::Txn { writes, commit } => {
                        let t = db.begin();
                        let mut deduped: Vec<(u64, u8)> = Vec::new();
                        for (page, byte) in writes {
                            if deduped.iter().any(|&(p, _)| p == page) {
                                continue;
                            }
                            db.write(t, page, 0, &[byte; SLOT]).unwrap();
                            deduped.push((page, byte));
                        }
                        if commit {
                            db.commit(t).unwrap();
                            for (page, byte) in deduped {
                                oracle.insert(page, byte);
                            }
                        } else {
                            db.abort(t).unwrap();
                        }
                    }
                    Op::Crash => {
                        #[allow(clippy::redundant_closure_call)]
                        let recovered: $ty = ($recover)(&db, cfg.clone());
                        db = recovered;
                    }
                }
                let t = db.begin();
                for page in 0..PAGES {
                    let want = vec![oracle.get(&page).copied().unwrap_or(0); SLOT];
                    assert_eq!(db.read(t, page, 0, SLOT).unwrap(), want, "page {page}");
                }
                db.abort(t).unwrap();
            }
        }
    };
}

script_runner!(
    run_pager,
    ShadowPager,
    ShadowConfig {
        logical_pages: PAGES,
        data_frames: PAGES * 3,
        alloc: AllocPolicy::Clustered,
        ..ShadowConfig::default()
    },
    |cfg| ShadowPager::new(cfg).unwrap(),
    |db: &ShadowPager, cfg| ShadowPager::recover(db.crash_image(), cfg).unwrap().0
);

script_runner!(
    run_pager_scrambled,
    ShadowPager,
    ShadowConfig {
        logical_pages: PAGES,
        data_frames: PAGES * 3,
        alloc: AllocPolicy::Scrambled,
        ..ShadowConfig::default()
    },
    |cfg| ShadowPager::new(cfg).unwrap(),
    |db: &ShadowPager, cfg| ShadowPager::recover(db.crash_image(), cfg).unwrap().0
);

script_runner!(
    run_version,
    VersionStore,
    VersionConfig {
        logical_pages: PAGES,
    },
    VersionStore::new,
    |db: &VersionStore, cfg| VersionStore::recover(db.crash_image(), cfg).unwrap().0
);

script_runner!(
    run_no_undo,
    NoUndoStore,
    OverwriteConfig {
        logical_pages: PAGES,
        scratch_slots: 10,
    },
    NoUndoStore::new,
    |db: &NoUndoStore, cfg| NoUndoStore::recover(db.crash_image(), cfg).unwrap().0
);

script_runner!(
    run_no_redo,
    NoRedoStore,
    OverwriteConfig {
        logical_pages: PAGES,
        scratch_slots: 10,
    },
    NoRedoStore::new,
    |db: &NoRedoStore, cfg| NoRedoStore::recover(db.crash_image(), cfg).unwrap().0
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pager_any_script(ops in proptest::collection::vec(op_strategy(), 1..16)) {
        run_pager(ops);
    }

    #[test]
    fn pager_scrambled_any_script(ops in proptest::collection::vec(op_strategy(), 1..16)) {
        run_pager_scrambled(ops);
    }

    #[test]
    fn version_store_any_script(ops in proptest::collection::vec(op_strategy(), 1..16)) {
        run_version(ops);
    }

    #[test]
    fn no_undo_any_script(ops in proptest::collection::vec(op_strategy(), 1..16)) {
        run_no_undo(ops);
    }

    #[test]
    fn no_redo_any_script(ops in proptest::collection::vec(op_strategy(), 1..16)) {
        run_no_redo(ops);
    }
}

/// The no-undo store's commit has a window between the intent write and
/// the install; a crash inside it must still commit (redo), never undo.
#[test]
fn no_undo_mid_commit_crash_always_commits() {
    for pages in 1..6u64 {
        let cfg = OverwriteConfig {
            logical_pages: PAGES,
            scratch_slots: 16,
        };
        let mut db = NoUndoStore::new(cfg.clone());
        let t = db.begin();
        for p in 0..pages {
            db.write(t, p, 0, &[0x5A; SLOT]).unwrap();
        }
        let (dir, entries) = db.commit_stage(t).unwrap();
        let _ = (dir, entries); // crash before install
        let (mut db2, report) = NoUndoStore::recover(db.crash_image(), cfg).unwrap();
        assert_eq!(report.txns_processed, 1);
        let t2 = db2.begin();
        for p in 0..pages {
            assert_eq!(db2.read(t2, p, 0, SLOT).unwrap(), vec![0x5A; SLOT]);
        }
        db2.abort(t2).unwrap();
    }
}
