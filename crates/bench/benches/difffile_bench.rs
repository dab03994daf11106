//! Microbenchmarks of the differential-file engine: the basic-vs-optimal
//! scan strategies, parallel scans (the machine's query processors), the
//! merge operation — §3.3's costs in isolation — and fence-indexed point
//! gets and narrow range scans on a multi-level leveled store.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rmdb_difffile::{DiffConfig, DiffDb, LsmConfig, LsmStore, ScanStrategy, Tuple};
use std::hint::black_box;

fn populated(base_tuples: u64, diff_ops: u64) -> DiffDb {
    let base = (0..base_tuples)
        .map(|k| Tuple {
            key: k,
            value: vec![(k % 251) as u8; 64],
        })
        .collect();
    let mut db = DiffDb::with_base(
        DiffConfig {
            base_capacity: 256,
            a_capacity: 128,
            d_capacity: 128,
            commit_frames: 8,
            ..Default::default()
        },
        base,
    )
    .unwrap();
    let t = db.begin();
    for i in 0..diff_ops {
        db.update(t, i * 7 % base_tuples, b"updated").unwrap();
    }
    db.commit(t).unwrap();
    db
}

fn bench_scan_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("difffile/scan");
    for (label, strategy) in [
        ("basic", ScanStrategy::Basic),
        ("optimal", ScanStrategy::Optimal),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &strategy, |b, &s| {
            let mut db = populated(2000, 200);
            b.iter(|| {
                let t = db.begin();
                let r = db.query(t, |tp| tp.key % 97 == 0, s, 1).unwrap();
                db.abort(t).unwrap();
                black_box(r.len())
            })
        });
    }
    group.finish();
}

fn bench_parallel_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("difffile/parallel_scan_workers");
    for workers in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            let mut db = populated(4000, 100);
            b.iter(|| {
                let t = db.begin();
                let r = db
                    .query(t, |tp| tp.key % 31 == 0, ScanStrategy::Optimal, w)
                    .unwrap();
                db.abort(t).unwrap();
                black_box(r.len())
            })
        });
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    c.bench_function("difffile/merge_200_ops", |b| {
        b.iter(|| {
            let mut db = populated(1000, 200);
            db.merge().unwrap();
            black_box(db.base_pages())
        })
    });
}

/// A leveled store holding `keys` 64-byte values, maintained after every
/// commit so the keys spread over L0 and several compacted levels.
fn leveled(keys: u64) -> LsmStore {
    let store = LsmStore::new(LsmConfig {
        arena_frames: 2048,
        ..LsmConfig::default()
    })
    .unwrap();
    for base in (0..keys).step_by(16) {
        let t = store.begin();
        for k in base..(base + 16).min(keys) {
            store.put(t, k, &[(k % 251) as u8; 64]).unwrap();
        }
        store.commit(t).unwrap();
        store.maintain().unwrap();
    }
    store
}

fn bench_lsm_get(c: &mut Criterion) {
    let store = leveled(4096);
    let mut key = 0u64;
    c.bench_function("difffile/lsm_get", |b| {
        b.iter(|| {
            key = (key + 997) % 4096;
            black_box(store.get(key).unwrap())
        })
    });
}

fn bench_lsm_range(c: &mut Criterion) {
    let store = leveled(4096);
    let mut lo = 0u64;
    c.bench_function("difffile/lsm_range", |b| {
        b.iter(|| {
            lo = (lo + 997) % (4096 - 64);
            black_box(
                store
                    .range(lo, lo + 63, ScanStrategy::Optimal)
                    .unwrap()
                    .len(),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_scan_strategies,
    bench_parallel_scan,
    bench_merge,
    bench_lsm_get,
    bench_lsm_range
);
criterion_main!(benches);
