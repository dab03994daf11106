//! The relation layer across every recovery architecture: the identical
//! relational workload (heap file + B+tree index kept in sync) must
//! behave identically on all five `PageStore` engines, and survive
//! crashes on the recoverable ones.

use recovery_machines::core::PageStore;
use recovery_machines::relation::{BTree, HeapFile};
use recovery_machines::shadow::{
    NoRedoStore, NoUndoStore, OverwriteConfig, ShadowConfig, ShadowPager, VersionConfig,
    VersionStore,
};
use recovery_machines::wal::{WalConfig, WalDb};

/// Maintain a heap file and a B+tree index over it in one transaction
/// stream; return the final (sorted) table contents read back through
/// *both* access paths.
type Rows = Vec<(u64, Vec<u8>)>;

fn workload<S: PageStore>(store: &mut S) -> (Rows, Rows) {
    let t = store.begin();
    let heap = HeapFile::create(store, t, 0, 32).unwrap();
    let index = BTree::create(store, t, 40, 64).unwrap();
    store.commit(t).unwrap();

    // committed batch
    let t = store.begin();
    for k in 0..60u64 {
        let v = format!("row-{k:03}");
        heap.insert(store, t, k, v.as_bytes()).unwrap();
        index.insert(store, t, k, v.as_bytes()).unwrap();
    }
    store.commit(t).unwrap();

    // aborted batch — must leave no trace in either structure
    let t = store.begin();
    for k in 60..90u64 {
        heap.insert(store, t, k, b"ghost").unwrap();
        index.insert(store, t, k, b"ghost").unwrap();
    }
    store.abort(t).unwrap();

    // committed updates + deletes
    let t = store.begin();
    for k in (0..60u64).step_by(4) {
        let v = format!("upd-{k:03}");
        heap.update(store, t, k, v.as_bytes()).unwrap();
        index.insert(store, t, k, v.as_bytes()).unwrap();
    }
    heap.delete(store, t, 13).unwrap();
    index.delete(store, t, 13).unwrap();
    store.commit(t).unwrap();

    let t = store.begin();
    let mut via_heap = heap.scan(store, t, |_, _| true).unwrap();
    via_heap.sort_by_key(|(k, _)| *k);
    let via_index = index.range(store, t, 0, u64::MAX).unwrap();
    store.abort(t).unwrap();
    (via_heap, via_index)
}

fn assert_consistent(label: &str, heap: &[(u64, Vec<u8>)], index: &[(u64, Vec<u8>)]) {
    assert_eq!(heap.len(), 59, "{label}: 60 rows - 1 delete");
    assert_eq!(heap, index, "{label}: heap and index views must agree");
    assert_eq!(heap[0].1, b"upd-000", "{label}: update applied");
    assert!(
        !heap.iter().any(|(k, _)| *k == 13),
        "{label}: delete applied"
    );
    assert!(
        !heap.iter().any(|(_, v)| v == b"ghost"),
        "{label}: abort clean"
    );
}

#[test]
fn identical_behaviour_on_all_architectures() {
    let (h, i) = workload(&mut WalDb::new(WalConfig {
        data_pages: 128,
        pool_frames: 16,
        log_frames: 1 << 15,
        ..WalConfig::default()
    }));
    assert_consistent("wal", &h, &i);
    let reference = h;

    let (h, i) = workload(
        &mut ShadowPager::new(ShadowConfig {
            logical_pages: 128,
            data_frames: 512,
            ..ShadowConfig::default()
        })
        .unwrap(),
    );
    assert_consistent("shadow", &h, &i);
    assert_eq!(h, reference, "shadow vs wal");

    let (h, i) = workload(&mut VersionStore::new(VersionConfig { logical_pages: 128 }));
    assert_consistent("version", &h, &i);
    assert_eq!(h, reference, "version vs wal");

    let (h, i) = workload(&mut NoUndoStore::new(OverwriteConfig {
        logical_pages: 128,
        scratch_slots: 80,
    }));
    assert_consistent("no-undo", &h, &i);
    assert_eq!(h, reference, "no-undo vs wal");

    let (h, i) = workload(&mut NoRedoStore::new(OverwriteConfig {
        logical_pages: 128,
        scratch_slots: 80,
    }));
    assert_consistent("no-redo", &h, &i);
    assert_eq!(h, reference, "no-redo vs wal");
}

#[test]
fn relational_state_survives_crash_on_wal() {
    let cfg = WalConfig {
        data_pages: 128,
        pool_frames: 8,
        log_frames: 1 << 15,
        ..WalConfig::default()
    };
    let mut db = WalDb::new(cfg.clone());
    let (heap_view, index_view) = workload(&mut db);
    assert_consistent("pre-crash", &heap_view, &index_view);

    let (mut db2, _) = WalDb::recover(db.crash_image(), cfg).unwrap();
    let t = db2.begin();
    let heap = HeapFile::open(&mut db2, t, 0).unwrap();
    let index = BTree::open(&mut db2, t, 40, 64).unwrap();
    let mut h = heap.scan(&mut db2, t, |_, _| true).unwrap();
    h.sort_by_key(|(k, _)| *k);
    let i = index.range(&mut db2, t, 0, u64::MAX).unwrap();
    assert_consistent("post-crash", &h, &i);
    assert_eq!(h, heap_view);
}

#[test]
fn relational_state_survives_crash_on_shadow() {
    let cfg = ShadowConfig {
        logical_pages: 128,
        data_frames: 512,
        ..ShadowConfig::default()
    };
    let mut db = ShadowPager::new(cfg.clone()).unwrap();
    let (heap_view, _) = workload(&mut db);

    let (mut db2, _) = ShadowPager::recover(db.crash_image(), cfg).unwrap();
    let t = db2.begin();
    let heap = HeapFile::open(&mut db2, t, 0).unwrap();
    let mut h = heap.scan(&mut db2, t, |_, _| true).unwrap();
    h.sort_by_key(|(k, _)| *k);
    db2.abort(t).unwrap();
    assert_eq!(h, heap_view);
}
