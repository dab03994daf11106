//! Property-based tests of the differential-file engine: arbitrary tuple
//! operations with crashes and merges must always present exactly the
//! committed view `R = (B ∪ A) − D`, matched against a straightforward
//! in-memory oracle.

use proptest::prelude::*;
use recovery_machines::difffile::{DiffConfig, DiffDb, DiffError, DiffStats, ScanStrategy, Tuple};
use recovery_machines::storage::{FaultInjector, FaultPlan};
use std::collections::BTreeMap;

const KEYS: u64 = 12;

#[derive(Debug, Clone)]
enum Op {
    Txn {
        ops: Vec<(u64, Option<u8>)>, // key → Some(insert value) | None(delete)
        commit: bool,
    },
    Crash,
    Merge,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (
            proptest::collection::vec((0..KEYS, proptest::option::of(any::<u8>())), 1..4),
            any::<bool>()
        )
            .prop_map(|(ops, commit)| Op::Txn { ops, commit }),
        2 => Just(Op::Crash),
        1 => Just(Op::Merge),
    ]
}

fn cfg() -> DiffConfig {
    DiffConfig {
        base_capacity: 32,
        a_capacity: 64,
        d_capacity: 64,
        commit_frames: 8,
        ..Default::default()
    }
}

fn verify(db: &mut DiffDb, oracle: &BTreeMap<u64, Vec<u8>>) {
    let t = db.begin();
    let got = db.query(t, |_| true, ScanStrategy::Optimal).unwrap();
    let got_map: BTreeMap<u64, Vec<u8>> = got.into_iter().map(|t| (t.key, t.value)).collect();
    assert_eq!(&got_map, oracle);
    // spot-check point lookups agree with the scan
    for key in 0..KEYS {
        assert_eq!(
            db.get(t, key).unwrap(),
            oracle.get(&key).cloned(),
            "get({key})"
        );
    }
    db.abort(t).unwrap();
}

fn run_script(ops_list: Vec<Op>) {
    let base: Vec<Tuple> = (0..KEYS / 2)
        .map(|k| Tuple {
            key: k,
            value: vec![0xBB; 8],
        })
        .collect();
    let mut oracle: BTreeMap<u64, Vec<u8>> =
        base.iter().map(|t| (t.key, t.value.clone())).collect();
    let mut db = DiffDb::with_base(cfg(), base).unwrap();

    for op in ops_list {
        match op {
            Op::Txn { ops, commit } => {
                let t = db.begin();
                let mut staged: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
                let mut ok = true;
                for (key, action) in ops {
                    if staged.iter().any(|(k, _)| *k == key) {
                        continue;
                    }
                    let result = match action {
                        Some(v) => db
                            .update(t, key, &[v; 4])
                            .map(|()| staged.push((key, Some(vec![v; 4])))),
                        None => db.delete(t, key).map(|()| staged.push((key, None))),
                    };
                    if result.is_err() {
                        ok = false;
                        break;
                    }
                }
                if ok && commit {
                    match db.commit(t) {
                        Ok(()) => {
                            for (key, val) in staged {
                                match val {
                                    Some(v) => {
                                        oracle.insert(key, v);
                                    }
                                    None => {
                                        oracle.remove(&key);
                                    }
                                }
                            }
                        }
                        Err(_) => {
                            // out of differential space: merge and move on
                            let _ = db.merge();
                        }
                    }
                } else {
                    db.abort(t).unwrap();
                }
            }
            Op::Crash => {
                db = DiffDb::recover(db.crash_image(), cfg()).unwrap();
            }
            Op::Merge => {
                db.merge().unwrap();
            }
        }
        verify(&mut db, &oracle);
    }
}

/// A store holding five acked one-insert commits (keys 1..=5).
fn five_acked() -> DiffDb {
    let mut db = DiffDb::new(cfg());
    for key in 1..=5u64 {
        let t = db.begin();
        db.insert(t, key, &[key as u8; 8]).unwrap();
        db.commit(t).unwrap();
    }
    db
}

/// Commit one transaction inserting keys 6 and 7.
fn commit_two_keys(db: &mut DiffDb) -> Result<(), DiffError> {
    let t = db.begin();
    db.insert(t, 6, b"six").unwrap();
    db.insert(t, 7, b"seven").unwrap();
    db.commit(t)
}

/// Tear each write of a commit (its A-file tail rewrite, its commit-list
/// append) at several cuts and crash with it: no acked key may be lost,
/// and the torn commit lands all or nothing.
#[test]
fn torn_commit_writes_lose_no_acked_key() {
    // a clean run counts the commit's writes
    let counter = FaultInjector::handle(FaultPlan::new());
    let mut db = five_acked();
    db.attach_faults(&counter);
    commit_two_keys(&mut db).unwrap();
    let writes = counter.lock().writes();
    assert!(writes >= 2, "the commit must rewrite a tail and append");

    for w in 0..writes {
        for cut in [20, 100, 2000] {
            let mut db = five_acked();
            let plan = FaultPlan::new().tear_write(w, cut).crash_after_write(w);
            db.attach_faults(&FaultInjector::handle(plan));
            assert!(commit_two_keys(&mut db).is_err(), "write {w}: no crash");
            let mut db = DiffDb::recover(db.crash_image(), cfg()).unwrap();
            let q = db.begin();
            for key in 1..=5u64 {
                assert_eq!(
                    db.get(q, key).unwrap(),
                    Some(vec![key as u8; 8]),
                    "write {w} cut {cut}: acked key {key} lost"
                );
            }
            let (six, seven) = (db.get(q, 6).unwrap(), db.get(q, 7).unwrap());
            assert_eq!(
                six.is_some(),
                seven.is_some(),
                "write {w} cut {cut}: the torn commit landed in part"
            );
        }
    }
}

/// What one scan charged: `after − before`, field by field.
fn stats_delta(before: DiffStats, after: DiffStats) -> DiffStats {
    DiffStats {
        base_pages_read: after.base_pages_read - before.base_pages_read,
        a_pages_read: after.a_pages_read - before.a_pages_read,
        d_pages_read: after.d_pages_read - before.d_pages_read,
        set_difference_ops: after.set_difference_ops - before.set_difference_ops,
        tuples_examined: after.tuples_examined - before.tuples_examined,
        diff_writes: after.diff_writes - before.diff_writes,
        merges: after.merges - before.merges,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_script_presents_committed_view(
        ops in proptest::collection::vec(op_strategy(), 1..16)
    ) {
        run_script(ops);
    }

    #[test]
    fn serial_and_parallel_queries_always_agree(
        updates in proptest::collection::vec((0..KEYS, any::<u8>()), 1..10),
        workers in 1usize..5,
    ) {
        let base: Vec<Tuple> = (0..KEYS).map(|k| Tuple { key: k, value: vec![1; 4] }).collect();
        let mut db = DiffDb::with_base(cfg(), base).unwrap();
        let t = db.begin();
        for (key, v) in updates {
            let _ = db.update(t, key, &[v; 4]);
        }
        db.commit(t).unwrap();
        let q = db.begin();
        let serial = db.query(q, |t| t.key % 2 == 0, ScanStrategy::Optimal).unwrap();
        let parallel = db
            .query_parallel(q, |t| t.key % 2 == 0, ScanStrategy::Optimal, workers)
            .unwrap();
        db.abort(q).unwrap();
        prop_assert_eq!(serial, parallel);
    }

    /// `query_parallel` charges exactly what the serial `query` charges,
    /// whatever the worker count: the `DiffStats` deltas of the two scans
    /// are equal, A-page set-differences and uneven base chunks included.
    #[test]
    fn parallel_query_statistics_match_serial(
        base_tuples in 1u64..300,
        changes in proptest::collection::vec((0u64..320, any::<bool>()), 0..24),
        modulus in 1u64..9,
        basic in any::<bool>(),
    ) {
        let base: Vec<Tuple> = (0..base_tuples)
            .map(|k| Tuple { key: k, value: vec![3; 200] })
            .collect();
        let mut db = DiffDb::with_base(cfg(), base).unwrap();
        let t = db.begin();
        for (key, insert) in changes {
            let _ = if insert {
                db.insert(t, key, &[4; 200])
            } else {
                db.delete(t, key)
            };
        }
        db.commit(t).unwrap();
        let strategy = if basic { ScanStrategy::Basic } else { ScanStrategy::Optimal };
        let pred = |t: &Tuple| t.key.is_multiple_of(modulus);
        let q = db.begin();
        for workers in [1usize, 2, 3, 7] {
            let before = db.stats();
            let serial = db.query(q, pred, strategy).unwrap();
            let mid = db.stats();
            let parallel = db.query_parallel(q, pred, strategy, workers).unwrap();
            let after = db.stats();
            prop_assert_eq!(serial, parallel, "results at {} workers", workers);
            prop_assert_eq!(
                stats_delta(before, mid),
                stats_delta(mid, after),
                "statistics at {} workers",
                workers
            );
        }
        db.abort(q).unwrap();
    }

    #[test]
    fn basic_and_optimal_return_identical_results(
        dels in proptest::collection::vec(0..KEYS, 0..6),
    ) {
        let base: Vec<Tuple> = (0..KEYS).map(|k| Tuple { key: k, value: vec![2; 4] }).collect();
        let mut db = DiffDb::with_base(cfg(), base).unwrap();
        let t = db.begin();
        for key in dels {
            let _ = db.delete(t, key);
        }
        db.commit(t).unwrap();
        let q = db.begin();
        let basic = db.query(q, |_| true, ScanStrategy::Basic).unwrap();
        let optimal = db.query(q, |_| true, ScanStrategy::Optimal).unwrap();
        db.abort(q).unwrap();
        prop_assert_eq!(basic, optimal, "strategy must never change results");
    }
}
