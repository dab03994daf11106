//! Property-based tests of the differential-file engine: arbitrary tuple
//! operations with crashes and merges must always present exactly the
//! committed view `R = (B ∪ A) − D`, matched against a straightforward
//! in-memory oracle. A second oracle, a per-transaction model of the
//! script's own operations, checks what each open transaction sees at
//! every worker count and under both strategies.

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
        ..Default::default()
    }
}

fn verify(db: &mut DiffDb, oracle: &BTreeMap<u64, Vec<u8>>) {
    let t = db.begin();
    let got = db.query(t, |_| true, ScanStrategy::Optimal, 1).unwrap();
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

/// Tear each write of a commit (its A-file tail rewrite, its master
/// write) at several cuts and crash with it: no acked key may be lost,
/// and the torn commit lands all or nothing.
#[test]
fn torn_commit_writes_lose_no_acked_key() {
    // a clean run counts the commit's writes
    let counter = FaultInjector::handle(FaultPlan::new());
    let mut db = five_acked();
    db.attach_faults(&counter);
    commit_two_keys(&mut db).unwrap();
    let writes = counter.lock().writes();
    assert!(writes >= 2, "the commit must rewrite a tail and the master");

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

/// Keys the model scripts touch; the base holds the first `MODEL_BASE`.
const MODEL_KEYS: u64 = 16;
const MODEL_BASE: u64 = 12;

/// Values are long enough that the base spans several pages (one scan
/// chunk still: `db.rs`'s `scans_split_only_past_the_chunk_floor` covers
/// bases that split).
fn model_value(v: u8) -> Vec<u8> {
    vec![v; 600]
}

/// One write of a model script.
#[derive(Debug, Clone, Copy)]
enum Write {
    Insert(u8),
    Delete,
    Update(u8),
    /// Delete the key, then insert it again, in one transaction.
    Reinsert(u8),
}

/// One step of a model script over two transaction slots.
#[derive(Debug, Clone)]
enum Step {
    /// The slot's transaction (begun if the slot is idle) writes `key`.
    Write {
        slot: usize,
        key: u64,
        write: Write,
    },
    Commit(usize),
    Abort(usize),
    Crash,
    Merge,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let write = prop_oneof![
        any::<u8>().prop_map(Write::Insert),
        Just(Write::Delete),
        any::<u8>().prop_map(Write::Update),
        any::<u8>().prop_map(Write::Reinsert),
    ];
    prop_oneof![
        8 => (0..2usize, 0..MODEL_KEYS, write)
            .prop_map(|(slot, key, write)| Step::Write { slot, key, write }),
        2 => (0..2usize).prop_map(Step::Commit),
        1 => (0..2usize).prop_map(Step::Abort),
        1 => Just(Step::Crash),
        1 => Just(Step::Merge),
    ]
}

/// An open transaction in the model: its id and its own writes, the last
/// write of a key winning (`None`: deleted).
struct Open {
    txn: u64,
    staged: BTreeMap<u64, Option<Vec<u8>>>,
}

/// The reference evaluator: the relation a transaction sees is the
/// committed map with its own writes laid over it. It knows nothing of
/// the `A`/`D` files, sequence numbers or pages.
fn model_view(
    committed: &BTreeMap<u64, Vec<u8>>,
    staged: &BTreeMap<u64, Option<Vec<u8>>>,
) -> BTreeMap<u64, Vec<u8>> {
    let mut view = committed.clone();
    for (key, write) in staged {
        match write {
            Some(value) => view.insert(*key, value.clone()),
            None => view.remove(key),
        };
    }
    view
}

/// Every query shape (two predicates, both strategies, workers 1, 2, 3
/// and 7) and a point get of every key must show `viewer` exactly `want`.
fn check_view(db: &mut DiffDb, viewer: u64, want: &BTreeMap<u64, Vec<u8>>, ctx: &str) {
    for modulus in [1u64, 3] {
        let expect: Vec<Tuple> = want
            .iter()
            .filter(|(key, _)| *key % modulus == 0)
            .map(|(key, value)| Tuple {
                key: *key,
                value: value.clone(),
            })
            .collect();
        for strategy in [ScanStrategy::Basic, ScanStrategy::Optimal] {
            for workers in [1usize, 2, 3, 7] {
                let got = db
                    .query(viewer, |t| t.key % modulus == 0, strategy, workers)
                    .unwrap();
                assert_eq!(
                    got, expect,
                    "{ctx}: txn {viewer}, key % {modulus}, {strategy:?}, {workers} workers"
                );
            }
        }
    }
    for key in 0..MODEL_KEYS {
        assert_eq!(
            db.get(viewer, key).unwrap(),
            want.get(&key).cloned(),
            "{ctx}: txn {viewer}, get({key})"
        );
    }
}

/// Drive two transaction slots through `steps`, checking after each step
/// that every open transaction sees the committed view plus its own
/// writes (never the other's) and that a fresh reader sees the committed
/// view alone.
fn run_model_script(steps: Vec<Step>) {
    let base: Vec<Tuple> = (0..MODEL_BASE)
        .map(|key| Tuple {
            key,
            value: model_value(0xBB),
        })
        .collect();
    let mut committed: BTreeMap<u64, Vec<u8>> =
        base.iter().map(|t| (t.key, t.value.clone())).collect();
    let mut db = DiffDb::with_base(cfg(), base).unwrap();
    let mut open: [Option<Open>; 2] = [None, None];
    for (i, step) in steps.into_iter().enumerate() {
        let ctx = format!("step {i} {step:?}");
        match step {
            Step::Write { slot, key, write } => {
                let txn = open[slot]
                    .get_or_insert_with(|| Open {
                        txn: db.begin(),
                        staged: BTreeMap::new(),
                    })
                    .txn;
                let holder = open[1 - slot]
                    .as_ref()
                    .filter(|o| o.staged.contains_key(&key))
                    .map(|o| o.txn);
                let result = match write {
                    Write::Insert(v) => db.insert(txn, key, &model_value(v)),
                    Write::Delete => db.delete(txn, key),
                    Write::Update(v) => db.update(txn, key, &model_value(v)),
                    Write::Reinsert(v) => db
                        .delete(txn, key)
                        .and_then(|()| db.insert(txn, key, &model_value(v))),
                };
                match holder {
                    Some(holder) => {
                        assert_eq!(result, Err(DiffError::KeyLocked { key, holder }), "{ctx}")
                    }
                    None => {
                        result.unwrap();
                        let value = match write {
                            Write::Delete => None,
                            Write::Insert(v) | Write::Update(v) | Write::Reinsert(v) => {
                                Some(model_value(v))
                            }
                        };
                        open[slot].as_mut().unwrap().staged.insert(key, value);
                    }
                }
            }
            Step::Commit(slot) => {
                if let Some(o) = open[slot].take() {
                    db.commit(o.txn).unwrap();
                    committed = model_view(&committed, &o.staged);
                }
            }
            Step::Abort(slot) => {
                if let Some(o) = open[slot].take() {
                    db.abort(o.txn).unwrap();
                }
            }
            Step::Crash => {
                db = DiffDb::recover(db.crash_image(), cfg()).unwrap();
                open = [None, None];
            }
            Step::Merge => {
                if open.iter().any(Option::is_some) {
                    assert_eq!(db.merge(), Err(DiffError::NotQuiescent), "{ctx}");
                } else {
                    db.merge().unwrap();
                }
            }
        }
        for o in open.iter().flatten() {
            check_view(&mut db, o.txn, &model_view(&committed, &o.staged), &ctx);
        }
        let reader = db.begin();
        check_view(&mut db, reader, &committed, &ctx);
        db.abort(reader).unwrap();
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

    /// Own uncommitted writes visible, another transaction's invisible,
    /// delete-then-reinsert, merges and crash recoveries between steps:
    /// every query and get matches the per-transaction model.
    #[test]
    fn queries_match_the_per_transaction_model(
        steps in proptest::collection::vec(step_strategy(), 1..24)
    ) {
        run_model_script(steps);
    }

    /// The one-worker and the parallel scan both return the model's view.
    #[test]
    fn serial_and_parallel_queries_always_agree(
        updates in proptest::collection::vec((0..KEYS, any::<u8>()), 1..10),
        workers in 1usize..5,
    ) {
        let base: Vec<Tuple> = (0..KEYS).map(|k| Tuple { key: k, value: vec![1; 4] }).collect();
        let mut db = DiffDb::with_base(cfg(), base).unwrap();
        let mut staged = BTreeMap::new();
        let t = db.begin();
        for (key, v) in updates {
            if db.update(t, key, &[v; 4]).is_ok() {
                staged.insert(key, Some(vec![v; 4]));
            }
        }
        db.commit(t).unwrap();
        let committed = (0..KEYS).map(|k| (k, vec![1; 4])).collect();
        let want: Vec<Tuple> = model_view(&committed, &staged)
            .into_iter()
            .filter(|(key, _)| key % 2 == 0)
            .map(|(key, value)| Tuple { key, value })
            .collect();
        let q = db.begin();
        for w in [1, workers] {
            let got = db.query(q, |t| t.key % 2 == 0, ScanStrategy::Optimal, w).unwrap();
            prop_assert_eq!(&got, &want, "{} workers", w);
        }
        db.abort(q).unwrap();
    }

    /// A parallel `query` charges exactly what the one-worker `query`
    /// charges, whatever the worker count: the `DiffStats` deltas of the
    /// two scans are equal, A-page set-differences included.
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
            let serial = db.query(q, pred, strategy, 1).unwrap();
            let mid = db.stats();
            let parallel = db.query(q, pred, strategy, workers).unwrap();
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
        let basic = db.query(q, |_| true, ScanStrategy::Basic, 1).unwrap();
        let optimal = db.query(q, |_| true, ScanStrategy::Optimal, 1).unwrap();
        db.abort(q).unwrap();
        prop_assert_eq!(basic, optimal, "strategy must never change results");
    }
}
