//! Model-based property test of the buffer pool: an arbitrary operation
//! script is run against both the pool and a trivially-correct reference
//! model; their observable behaviour must agree.

use proptest::prelude::*;
use rmdb_storage::{BufferPool, Page, PageId};
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Get(u64),
    GetMut(u64),
    Insert(u64),
    Pin(u64),
    Unpin(u64),
    Remove(u64),
    MarkClean(u64),
}

fn op_strategy(keys: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..keys).prop_map(Op::Get),
        2 => (0..keys).prop_map(Op::GetMut),
        3 => (0..keys).prop_map(Op::Insert),
        1 => (0..keys).prop_map(Op::Pin),
        1 => (0..keys).prop_map(Op::Unpin),
        1 => (0..keys).prop_map(Op::Remove),
        1 => (0..keys).prop_map(Op::MarkClean),
    ]
}

/// Reference model: resident set with pins and dirtiness; no recency
/// (eviction choice is the pool's business — the model only checks
/// invariants about *what* may be evicted, not *which* page).
#[derive(Default)]
struct Model {
    resident: HashMap<u64, (bool /*dirty*/, u32 /*pins*/)>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pool_agrees_with_model(
        ops in proptest::collection::vec(op_strategy(12), 1..120),
        capacity in 2usize..6,
    ) {
        let mut pool = BufferPool::new(capacity);
        let mut model = Model::default();

        for op in ops {
            match op {
                Op::Get(k) => {
                    let got = pool.get(PageId(k)).is_some();
                    prop_assert_eq!(got, model.resident.contains_key(&k));
                }
                Op::GetMut(k) => {
                    let got = pool.get_mut(PageId(k)).is_some();
                    prop_assert_eq!(got, model.resident.contains_key(&k));
                    if let Some(entry) = model.resident.get_mut(&k) {
                        entry.0 = true; // get_mut dirties
                    }
                }
                Op::Insert(k) => {
                    if model.resident.contains_key(&k) {
                        continue; // double insert is a caller bug (panics)
                    }
                    match pool.insert(PageId(k), Page::new(PageId(k)), false) {
                        Ok(evicted) => {
                            if let Some(ev) = evicted {
                                let id = ev.page.id.0;
                                let (dirty, pins) = model
                                    .resident
                                    .remove(&id)
                                    .expect("evicted page was resident in model");
                                prop_assert_eq!(pins, 0, "pinned page evicted!");
                                prop_assert_eq!(ev.dirty, dirty, "dirtiness lost on eviction");
                            }
                            model.resident.insert(k, (false, 0));
                            prop_assert!(model.resident.len() <= capacity);
                        }
                        Err(_) => {
                            // pool exhausted: every resident page pinned
                            prop_assert!(
                                model.resident.len() >= capacity
                                    && model.resident.values().all(|&(_, p)| p > 0),
                                "PoolExhausted but an unpinned victim existed"
                            );
                        }
                    }
                }
                Op::Pin(k) => {
                    if let Some(entry) = model.resident.get_mut(&k) {
                        pool.pin(PageId(k));
                        entry.1 += 1;
                    }
                }
                Op::Unpin(k) => {
                    if let Some(entry) = model.resident.get_mut(&k) {
                        if entry.1 > 0 {
                            pool.unpin(PageId(k));
                            entry.1 -= 1;
                        }
                    }
                }
                Op::Remove(k) => {
                    let got = pool.remove(PageId(k));
                    match model.resident.remove(&k) {
                        Some((dirty, _)) => {
                            let ev = got.expect("model says resident");
                            prop_assert_eq!(ev.dirty, dirty);
                        }
                        None => prop_assert!(got.is_none()),
                    }
                }
                Op::MarkClean(k) => {
                    pool.mark_clean(PageId(k));
                    if let Some(entry) = model.resident.get_mut(&k) {
                        entry.0 = false;
                    }
                }
            }
            // global invariants after every step
            prop_assert_eq!(pool.len(), model.resident.len());
            let mut dirty_model: Vec<u64> = model
                .resident
                .iter()
                .filter(|(_, &(d, _))| d)
                .map(|(&k, _)| k)
                .collect();
            dirty_model.sort_unstable();
            let dirty_pool: Vec<u64> = pool.dirty_ids().into_iter().map(|p| p.0).collect();
            prop_assert_eq!(dirty_pool, dirty_model);
        }
    }
}
