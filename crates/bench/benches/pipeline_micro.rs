//! Criterion micro-benches for the exec pipeline's hot paths: log append,
//! sharded-pool claim (uncontended and contended), and the group-commit
//! gate. These catch per-PR regressions on the paths every transaction
//! crosses, without running the full scaling sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rmdb_exec::{ExecConfig, ExecDb};
use rmdb_storage::{Page, PageId, ShardedPool};
use rmdb_wal::{LogRecord, ParallelLogManager, SelectionPolicy, WalConfig};
use std::hint::black_box;

fn update_record(txn: u64, page: u64) -> LogRecord {
    LogRecord::Update {
        txn,
        page: rmdb_storage::PageId(page),
        prev_lsn: rmdb_storage::Lsn(0),
        new_lsn: rmdb_storage::Lsn(page + 1),
        offset: 0,
        before: vec![0xAA; 64],
        after: vec![0xBB; 64],
    }
}

/// Single-append hot path: one routed fragment through the manager,
/// amortized over a reusable manager per stream count.
fn bench_append_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/append_one_fragment");
    for streams in [1usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(streams), &streams, |b, &n| {
            let mut m = ParallelLogManager::new(n, 1 << 16, SelectionPolicy::Cyclic, 7);
            let rec = update_record(1, 1);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                black_box(m.append_routed((i % 25) as usize, i % 8, &rec).unwrap())
            })
        });
    }
    group.finish();
}

/// Uncontended pool claim: lock the owning shard, fault the page in,
/// touch it, unpin — the per-read cost every executor pays.
fn bench_pool_claim(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/pool_claim");
    for shards in [1usize, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &n| {
            let pool: ShardedPool = ShardedPool::new(n, 64);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let id = PageId(i % 256);
                let mut shard = pool.lock(id);
                if !shard.pool.contains(id) {
                    shard.pool.insert(id, Page::new(id), false).unwrap();
                }
                shard.pool.pin(id);
                let got = shard.pool.get(id).is_some();
                shard.pool.unpin(id);
                black_box(got)
            })
        });
    }
    group.finish();
}

/// Contended pool checkout: 4 threads hammer a shared key range; one
/// iteration is a full round of 256 claims per thread. Shard count is the
/// independent variable — the single-shard cell is the mutex convoy the
/// sharding exists to break up.
fn bench_pool_claim_contended(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/pool_claim_contended_4x256");
    group.sample_size(10);
    for shards in [1usize, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &n| {
            let pool: ShardedPool = ShardedPool::new(n, 64);
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..4u64 {
                        let pool = &pool;
                        s.spawn(move || {
                            for i in 0..256u64 {
                                let id = PageId((t * 977 + i) % 128);
                                let mut shard = pool.lock(id);
                                if !shard.pool.contains(id) {
                                    shard.pool.insert(id, Page::new(id), false).unwrap();
                                }
                                shard.pool.pin(id);
                                black_box(shard.pool.get(id).is_some());
                                shard.pool.unpin(id);
                            }
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

/// The commit gate end to end: one single-page transaction through
/// `run_txn`, including the group-commit daemon's durability ack.
fn bench_commit_gate(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/commit_gate");
    group.sample_size(10);
    let db = ExecDb::new(ExecConfig {
        wal: WalConfig {
            data_pages: 64,
            pool_frames: 24,
            log_streams: 2,
            log_frames: 1 << 16,
            ..WalConfig::default()
        },
        pool_shards: 4,
        ..ExecConfig::default()
    });
    let mut i = 0u64;
    group.bench_function("run_txn_1_write", |b| {
        b.iter(|| {
            i += 1;
            let page = i % 64;
            db.run_txn(0, |ctx| ctx.write(page, 0, &i.to_le_bytes()))
                .expect("bench txn")
        })
    });
    group.finish();
    db.shutdown().ok();
}

criterion_group!(
    benches,
    bench_append_hot_path,
    bench_pool_claim,
    bench_pool_claim_contended,
    bench_commit_gate
);
criterion_main!(benches);
