//! Soak: each engine, on its default configuration, runs at least ten
//! times through its smallest capacity region with a seeded mix of
//! one-page writes and aborts. It is checked against an oracle of the
//! committed state, crashed with a loser's write on disk, recovered,
//! checked, run some more and checked again.
//!
//! The regions: `ShadowPager`'s data frames, the overwrite stores'
//! scratch ring, and for `VersionStore` and `DiffDb` the commit list they
//! once kept (8 and 4 frames of 508 ids), which failed at commit 4,064
//! and 2,032. `DiffDb` merges whenever a commit finds its differential
//! files full.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recovery_machines::core::PageStore;
use recovery_machines::difffile::{DiffConfig, DiffDb, DiffError, ScanStrategy};
use recovery_machines::shadow::{
    NoRedoStore, NoUndoStore, OverwriteConfig, ShadowConfig, ShadowPager, VersionConfig,
    VersionStore,
};
use std::collections::{BTreeMap, HashMap};

/// Bytes each write puts at the start of its page.
const SLOT: usize = 8;
/// One transaction in this many aborts.
const ABORT_ONE_IN: u32 = 5;
/// Commits after recovery.
const AFTER: u64 = 200;

/// Committed bytes of each written page.
type Oracle = HashMap<u64, Vec<u8>>;

/// One-page transactions until `commits` of them committed; the rest
/// abort.
fn run<S: PageStore>(store: &mut S, pages: u64, oracle: &mut Oracle, rng: &mut StdRng, commits: u64)
where
    S::Error: std::fmt::Debug,
{
    let mut done = 0;
    while done < commits {
        let t = store.begin();
        let page = rng.gen_range(0..pages);
        let data: Vec<u8> = (0..SLOT).map(|_| rng.gen()).collect();
        store.write(t, page, 0, &data).expect("write");
        if rng.gen_range(0..ABORT_ONE_IN) == 0 {
            store.abort(t).expect("abort");
        } else {
            store.commit(t).expect("commit");
            oracle.insert(page, data);
            done += 1;
        }
    }
}

fn check<S: PageStore>(store: &mut S, pages: u64, oracle: &Oracle, when: &str)
where
    S::Error: std::fmt::Debug,
{
    let t = store.begin();
    for page in 0..pages {
        let want = oracle.get(&page).cloned().unwrap_or(vec![0; SLOT]);
        let got = store.read(t, page, 0, SLOT).expect("read");
        assert_eq!(got, want, "{} {when}: page {page}", store.architecture());
    }
    store.abort(t).expect("abort");
}

/// Soak one page store past `commits`, crash it with a loser's write on
/// disk (begun before the last commit, so that commit passes its id),
/// recover it with `recover`, and keep going.
fn soak<S: PageStore>(mut store: S, pages: u64, commits: u64, recover: impl Fn(&S) -> S)
where
    S::Error: std::fmt::Debug,
{
    let mut rng = StdRng::seed_from_u64(commits);
    let mut oracle = Oracle::new();
    run(&mut store, pages, &mut oracle, &mut rng, commits);
    check(&mut store, pages, &oracle, "live");
    let loser = store.begin();
    store
        .write(loser, 0, 0, &[0xEE; SLOT])
        .expect("loser write");
    let t = store.begin();
    store.write(t, 1, 0, &[0x11; SLOT]).expect("write");
    store.commit(t).expect("commit");
    oracle.insert(1, vec![0x11; SLOT]);
    let mut store = recover(&store);
    check(&mut store, pages, &oracle, "recovered");
    run(&mut store, pages, &mut oracle, &mut rng, AFTER);
    check(&mut store, pages, &oracle, "after recovery");
}

#[test]
fn shadow_pager_runs_ten_times_its_data_frames() {
    let cfg = ShadowConfig::default();
    let store = ShadowPager::new(cfg.clone()).expect("new");
    soak(store, cfg.logical_pages, 10 * cfg.data_frames, |s| {
        ShadowPager::recover(s.crash_image(), cfg.clone())
            .expect("recover")
            .0
    });
}

#[test]
fn no_undo_store_runs_ten_times_its_scratch_ring() {
    let cfg = OverwriteConfig::default();
    let store = NoUndoStore::new(cfg.clone());
    soak(store, cfg.logical_pages, 10 * cfg.scratch_slots, |s| {
        NoUndoStore::recover(s.crash_image(), cfg.clone())
            .expect("recover")
            .0
    });
}

#[test]
fn no_redo_store_runs_ten_times_its_scratch_ring() {
    let cfg = OverwriteConfig::default();
    let store = NoRedoStore::new(cfg.clone());
    soak(store, cfg.logical_pages, 10 * cfg.scratch_slots, |s| {
        NoRedoStore::recover(s.crash_image(), cfg.clone())
            .expect("recover")
            .0
    });
}

#[test]
fn version_store_runs_ten_times_its_old_commit_list() {
    let cfg = VersionConfig::default();
    let store = VersionStore::new(cfg.clone());
    soak(store, cfg.logical_pages, 10 * 8 * 508, |s| {
        let (store, report) = VersionStore::recover(s.crash_image(), cfg.clone()).expect("recover");
        // the scan finds the loser and the aborts whose blocks survive:
        // at most one stale twin per page
        assert!((1..=cfg.logical_pages).contains(&report.undecided));
        store
    });
}

/// Committed tuples of each key.
type Relation = BTreeMap<u64, Vec<u8>>;

fn diff_check(db: &mut DiffDb, oracle: &Relation, when: &str) {
    let t = db.begin();
    let got = db
        .query(t, |_| true, ScanStrategy::Optimal, 1)
        .expect("query");
    db.abort(t).expect("abort");
    let got: Relation = got.into_iter().map(|t| (t.key, t.value)).collect();
    assert_eq!(&got, oracle, "DiffDb {when}");
}

/// One-key transactions (an update, or now and then a delete) until
/// `commits` committed; a commit that finds the files full is aborted,
/// the files are merged, and the transaction runs again.
fn diff_run(db: &mut DiffDb, keys: u64, oracle: &mut Relation, rng: &mut StdRng, commits: u64) {
    let mut done = 0;
    while done < commits {
        let key = rng.gen_range(0..keys);
        let value = (rng.gen_range(0..10) != 0).then(|| vec![rng.gen::<u8>(); 512]);
        let abort = rng.gen_range(0..ABORT_ONE_IN) == 0;
        loop {
            let t = db.begin();
            match &value {
                Some(v) => db.update(t, key, v).expect("update"),
                None => db.delete(t, key).expect("delete"),
            }
            if abort {
                db.abort(t).expect("abort");
                break;
            }
            match db.commit(t) {
                Ok(()) => {
                    match &value {
                        Some(v) => oracle.insert(key, v.clone()),
                        None => oracle.remove(&key),
                    };
                    done += 1;
                    break;
                }
                Err(DiffError::SpaceExhausted) => {
                    db.abort(t).expect("abort");
                    db.merge().expect("merge");
                }
                Err(e) => panic!("commit: {e}"),
            }
        }
    }
}

#[test]
fn difffile_runs_ten_times_its_old_commit_list() {
    const KEYS: u64 = 128;
    let cfg = DiffConfig::default();
    let mut rng = StdRng::seed_from_u64(2032);
    let mut oracle = Relation::new();
    let mut db = DiffDb::new(cfg.clone());
    diff_run(&mut db, KEYS, &mut oracle, &mut rng, 10 * 4 * 508);
    assert!(db.stats().merges >= 10, "{} merges", db.stats().merges);
    diff_check(&mut db, &oracle, "live");
    // the last commit flushes the loser's entries and passes its id
    let loser = db.begin();
    db.update(loser, 0, b"loser").expect("loser update");
    let t = db.begin();
    db.update(t, 1, b"winner").expect("update");
    db.commit(t).expect("commit");
    oracle.insert(1, b"winner".to_vec());
    let mut db = DiffDb::recover(db.crash_image(), cfg).expect("recover");
    diff_check(&mut db, &oracle, "recovered");
    diff_run(&mut db, KEYS, &mut oracle, &mut rng, AFTER);
    diff_check(&mut db, &oracle, "after recovery");
}
