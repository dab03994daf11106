//! Property-based equivalence of the paper-§3 query strategies over the
//! leveled differential store: for ANY committed history — puts, deletes,
//! aborts, flushes, compactions, crashes — the *basic* strategy (full
//! set-union of A entries, set-difference against D entries) and the
//! *optimal* strategy (newest-first priority walk relying on the level
//! recency invariant) must present the identical relation, and both must
//! match a straightforward in-memory oracle. The two strategies are
//! genuinely different evaluation mechanisms, so this property is a real
//! check on the compaction invariants: any level that lets a stale entry
//! shadow a newer one, or a dropped tombstone resurrect a key, splits
//! basic from optimal.

use proptest::prelude::*;
use recovery_machines::difffile::{LsmConfig, LsmStore, ScanStrategy};
use std::collections::BTreeMap;

const KEYS: u64 = 24;

#[derive(Debug, Clone)]
enum Op {
    /// One transaction: key → Some(put value) | None (delete), then
    /// commit or abort.
    Txn {
        ops: Vec<(u64, Option<u8>)>,
        commit: bool,
    },
    /// Force a memtable flush into a fresh L0 run.
    Flush,
    /// Drain all due maintenance (L0 and level compactions).
    Maintain,
    /// Crash (snapshot the device) and recover from the image.
    Crash,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (
            proptest::collection::vec((0..KEYS, proptest::option::of(any::<u8>())), 1..4),
            // aborted work is invisible by construction; weight commits 3:1
            0..4u8
        )
            .prop_map(|(ops, commit)| Op::Txn { ops, commit: commit > 0 }),
        2 => Just(Op::Flush),
        1 => Just(Op::Maintain),
        1 => Just(Op::Crash),
    ]
}

fn cfg() -> LsmConfig {
    // small enough that a few dozen transactions populate L0 AND the
    // compacted levels, so the equivalence is tested across a real
    // multi-level hierarchy, not just the memtable
    LsmConfig {
        journal_frames: 16,
        arena_frames: 128,
        memtable_limit: 6,
        l0_limit: 2,
        level_base_frames: 2,
        fanout: 2,
        max_levels: 3,
        ..LsmConfig::default()
    }
}

/// Every read path must agree with the model: full scans, point lookups
/// for every key, and a couple of interior range scans — each under both
/// strategies.
fn check_equivalence(store: &LsmStore, model: &BTreeMap<u64, Vec<u8>>, ctx: &str) {
    let want: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
    for strategy in [ScanStrategy::Basic, ScanStrategy::Optimal] {
        let got = store.scan(strategy).expect("scan");
        assert_eq!(got, want, "{ctx}: {strategy:?} full scan diverged");
    }
    for key in 0..KEYS {
        let want = model.get(&key).cloned();
        for strategy in [ScanStrategy::Basic, ScanStrategy::Optimal] {
            let got = store.get_with(key, strategy).expect("get");
            assert_eq!(got, want, "{ctx}: {strategy:?} get({key}) diverged");
        }
    }
    for (lo, hi) in [(0, KEYS / 2), (KEYS / 3, KEYS - 1), (KEYS / 2, KEYS / 2)] {
        let want: Vec<(u64, Vec<u8>)> =
            model.range(lo..=hi).map(|(k, v)| (*k, v.clone())).collect();
        for strategy in [ScanStrategy::Basic, ScanStrategy::Optimal] {
            let got = store.range(lo, hi, strategy).expect("range");
            assert_eq!(got, want, "{ctx}: {strategy:?} range({lo}..={hi}) diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn basic_and_optimal_agree_over_multi_level_stores(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let mut store = LsmStore::new(cfg()).expect("new lsm store");
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Txn { ops, commit } => {
                    let t = store.begin();
                    for &(key, val) in &ops {
                        match val {
                            Some(b) => store.put(t, key, &[b; 6]).expect("put"),
                            None => store.delete(t, key).expect("delete"),
                        }
                    }
                    if commit {
                        store.commit(t).expect("commit");
                        // last staged op per key wins, exactly like the
                        // transaction buffer
                        for (key, val) in ops {
                            match val {
                                Some(b) => { model.insert(key, vec![b; 6]); }
                                None => { model.remove(&key); }
                            }
                        }
                    } else {
                        store.abort(t).expect("abort");
                    }
                }
                Op::Flush => store.flush_now().expect("flush"),
                Op::Maintain => store.maintain().expect("maintain"),
                Op::Crash => {
                    let (rec, _) = LsmStore::recover(store.crash_image(), cfg())
                        .expect("recover");
                    store = rec;
                }
            }
            check_equivalence(&store, &model, &format!("after op {i}"));
        }
        // push everything through the full hierarchy and re-check: the
        // final state exercises compacted levels even if the random walk
        // never drew Maintain late
        store.flush_now().expect("final flush");
        store.maintain().expect("final maintain");
        check_equivalence(&store, &model, "after final compaction");
    }
}

/// Keys the frame-boundary property writes. With `WIDE_VALUE`-byte values
/// a frame holds about a dozen entries, so every run spans many frames
/// and reads cross frame boundaries.
const WIDE_LO: u64 = 16;
const WIDE_HI: u64 = 160;
const WIDE_VALUE: usize = 300;

#[derive(Debug, Clone)]
enum Probe {
    Get(u64),
    Range(u64, u64),
}

fn wide_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (
            proptest::collection::vec(
                (WIDE_LO..=WIDE_HI, proptest::option::of(any::<u8>())),
                1..10
            ),
            0..4u8
        )
            .prop_map(|(ops, commit)| Op::Txn { ops, commit: commit > 0 }),
        2 => Just(Op::Flush),
        2 => Just(Op::Maintain),
        1 => Just(Op::Crash),
    ]
}

fn probe_strategy() -> impl Strategy<Value = Probe> {
    prop_oneof![
        // below every run's first fence
        1 => (0..WIDE_LO).prop_map(Probe::Get),
        // on and between fences
        3 => (WIDE_LO..=WIDE_HI).prop_map(Probe::Get),
        // past every run's last frame
        1 => prop_oneof![WIDE_HI + 1..WIDE_HI + 64, Just(u64::MAX)].prop_map(Probe::Get),
        3 => (0..WIDE_HI + 32, 0..48u64).prop_map(|(lo, len)| Probe::Range(lo, lo + len)),
    ]
}

fn wide_cfg() -> LsmConfig {
    LsmConfig {
        journal_frames: 64,
        arena_frames: 512,
        memtable_limit: 24,
        l0_limit: 2,
        level_base_frames: 4,
        fanout: 3,
        max_levels: 3,
        ..LsmConfig::default()
    }
}

/// One probe under both strategies against the model.
fn check_probe(store: &LsmStore, model: &BTreeMap<u64, Vec<u8>>, probe: &Probe, ctx: &str) {
    for strategy in [ScanStrategy::Basic, ScanStrategy::Optimal] {
        match *probe {
            Probe::Get(key) => {
                let got = store.get_with(key, strategy).expect("get");
                assert_eq!(
                    got,
                    model.get(&key).cloned(),
                    "{ctx}: {strategy:?} get({key}) diverged"
                );
            }
            Probe::Range(lo, hi) => {
                let want: Vec<(u64, Vec<u8>)> =
                    model.range(lo..=hi).map(|(k, v)| (*k, v.clone())).collect();
                let got = store.range(lo, hi, strategy).expect("range");
                assert_eq!(got, want, "{ctx}: {strategy:?} range({lo}..={hi}) diverged");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fence-indexed reads across frame boundaries: multi-frame runs,
    /// random ranges, gets below the first fence, on fences and past the
    /// last frame, and crashes, after which the first read of each
    /// adopted run loads its fences.
    #[test]
    fn fence_reads_agree_across_frame_boundaries(
        steps in proptest::collection::vec(
            (wide_op_strategy(), proptest::collection::vec(probe_strategy(), 1..5)),
            1..40
        )
    ) {
        let mut store = LsmStore::new(wide_cfg()).expect("new lsm store");
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for (i, (op, probes)) in steps.into_iter().enumerate() {
            match op {
                Op::Txn { ops, commit } => {
                    let t = store.begin();
                    for &(key, val) in &ops {
                        match val {
                            Some(b) => store.put(t, key, &[b; WIDE_VALUE]).expect("put"),
                            None => store.delete(t, key).expect("delete"),
                        }
                    }
                    if commit {
                        store.commit(t).expect("commit");
                        for (key, val) in ops {
                            match val {
                                Some(b) => { model.insert(key, vec![b; WIDE_VALUE]); }
                                None => { model.remove(&key); }
                            }
                        }
                    } else {
                        store.abort(t).expect("abort");
                    }
                }
                Op::Flush => store.flush_now().expect("flush"),
                Op::Maintain => store.maintain().expect("maintain"),
                Op::Crash => {
                    let (rec, _) = LsmStore::recover(store.crash_image(), wide_cfg())
                        .expect("recover");
                    store = rec;
                }
            }
            for probe in &probes {
                check_probe(&store, &model, probe, &format!("after op {i}"));
            }
        }
        // recover once more, then get every key: the first get loads the
        // adopted runs' fences, every later one reads through them
        store.flush_now().expect("final flush");
        let (store, _) = LsmStore::recover(store.crash_image(), wide_cfg()).expect("recover");
        for key in 0..=WIDE_HI + 1 {
            check_probe(&store, &model, &Probe::Get(key), "final sweep");
        }
        check_probe(&store, &model, &Probe::Range(0, u64::MAX), "final sweep");
    }
}
