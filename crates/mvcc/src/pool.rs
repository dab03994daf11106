//! The versioned buffer pool: per-page chains of committed page images.
//!
//! Each data page id owns a **version chain** — a vector of
//! `(commit_lsn, Arc<Page>)` entries kept in ascending commit-LSN order.
//! The single publisher (the group-commit daemon, via
//! [`crate::Mvcc::commit`]) appends one entry per page a commit wrote;
//! readers resolve "the newest version at or below my snapshot LSN"
//! with a binary search and clone the [`Arc`], so a page image is never
//! copied on the read path and never freed while any snapshot can still
//! reach it.
//!
//! Chains are bounded by the **GC watermark** (minimum active snapshot
//! LSN, see [`crate::SnapshotRegistry`]): every entry older than the
//! newest entry at or below the watermark is unreachable — any open or
//! future snapshot resolves past it — and is pruned, either inline when
//! a new version of the same page is installed (bounds hot pages under
//! sustained writes) or by a full [`VersionPool::gc`] sweep (reclaims
//! cold pages the write load no longer touches).
//!
//! A page with **no chain** is one no committed transaction has written
//! in this engine's lifetime; readers must treat it as all-zero rather
//! than consult the data disk, because the steal-policy pool may have
//! flushed *uncommitted* images there.

use rmdb_obs::{Counter, Gauge, Histogram, Registry};
use rmdb_storage::{Page, PageId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

type Chain = Vec<(u64, Arc<Page>)>;

/// Versioned page store for a fixed-size data file.
#[derive(Debug)]
pub struct VersionPool {
    /// One chain per data page id. The per-page latch is held only for
    /// the in-memory push/search/drain — never across I/O — and is
    /// disjoint from the transaction lock table and the commit gate.
    chains: Vec<RwLock<Chain>>,
    installed: Counter,
    pruned: Counter,
    /// Live version entries across all chains; mirrored into the
    /// `mvcc.versions_live` gauge. Conservation: installed == pruned +
    /// live, always.
    live: AtomicU64,
    live_gauge: Gauge,
    pages_versioned: Gauge,
    chain_len: Histogram,
}

impl VersionPool {
    /// A pool covering page ids `0..data_pages`.
    pub fn new(data_pages: usize, obs: &Registry) -> VersionPool {
        VersionPool {
            chains: (0..data_pages).map(|_| RwLock::new(Vec::new())).collect(),
            installed: obs.counter("mvcc.versions_installed"),
            pruned: obs.counter("mvcc.versions_pruned"),
            live: AtomicU64::new(0),
            live_gauge: obs.gauge("mvcc.versions_live"),
            pages_versioned: obs.gauge("mvcc.pages_versioned"),
            chain_len: obs.histogram("mvcc.chain_len"),
        }
    }

    /// Number of page ids this pool covers.
    pub fn pages(&self) -> usize {
        self.chains.len()
    }

    /// Install `pages` as the versions committed at `commit_lsn`, then
    /// inline-prune each touched chain against `watermark`. The single
    /// publisher must call this with strictly ascending `commit_lsn`s
    /// *before* publishing the LSN; page ids out of range are the
    /// caller's bug and panic.
    pub fn install(&self, commit_lsn: u64, pages: &[Arc<Page>], watermark: u64) {
        for page in pages {
            let idx = page.id.0 as usize;
            let mut chain = write_ok(&self.chains[idx]);
            debug_assert!(
                chain.last().is_none_or(|&(lsn, _)| lsn < commit_lsn),
                "version install out of LSN order on page {:?}",
                page.id
            );
            chain.push((commit_lsn, Arc::clone(page)));
            self.installed.inc();
            self.live.fetch_add(1, Ordering::Relaxed);
            let cut = prune_cut(&chain, watermark);
            if cut > 0 {
                chain.drain(..cut);
                self.note_pruned(cut as u64);
            }
            self.chain_len.record(chain.len() as u64);
        }
        self.live_gauge.set(self.live.load(Ordering::Relaxed));
    }

    /// The newest version of `page` at or below snapshot LSN `snap`, or
    /// `None` when no committed version that old exists (the page reads
    /// as all-zero in that snapshot). Out-of-range ids are `None` too so
    /// callers can bounds-check once.
    pub fn read_at(&self, page: PageId, snap: u64) -> Option<Arc<Page>> {
        let chain = read_ok(self.chains.get(page.0 as usize)?);
        let idx = chain.partition_point(|&(lsn, _)| lsn <= snap);
        idx.checked_sub(1).map(|i| Arc::clone(&chain[i].1))
    }

    /// Full sweep: prune every chain against `watermark`, refresh the
    /// `mvcc.pages_versioned` gauge, and return how many versions were
    /// reclaimed. Cheap when there is nothing to do — each chain is
    /// inspected under its read latch first and only write-locked when
    /// it actually has dead versions.
    ///
    /// Each chain's reclaimed versions are counted inside its write
    /// latch, so a concurrent sweep that finds a chain already drained
    /// also finds the live count lowered: when any sweep returns, the
    /// live count already reflects every chain it passed.
    pub fn gc(&self, watermark: u64) -> u64 {
        let mut reclaimed: u64 = 0;
        let mut versioned: u64 = 0;
        for slot in &self.chains {
            if prune_cut(&read_ok(slot), watermark) > 0 {
                let mut chain = write_ok(slot);
                // recompute under the write latch: an install may have
                // raced in between the two lock acquisitions
                let cut = prune_cut(&chain, watermark);
                chain.drain(..cut);
                self.note_pruned(cut as u64);
                reclaimed += cut as u64;
                if !chain.is_empty() {
                    versioned += 1;
                }
            } else if !read_ok(slot).is_empty() {
                versioned += 1;
            }
        }
        if reclaimed > 0 {
            self.live_gauge.set(self.live.load(Ordering::Relaxed));
        }
        self.pages_versioned.set(versioned);
        reclaimed
    }

    /// Live version entries across all chains.
    pub fn live_versions(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Current chain length for one page (test/diagnostic aid).
    pub fn chain_len(&self, page: PageId) -> usize {
        self.chains
            .get(page.0 as usize)
            .map_or(0, |slot| read_ok(slot).len())
    }

    fn note_pruned(&self, n: u64) {
        self.pruned.add(n);
        self.live.fetch_sub(n, Ordering::Relaxed);
    }
}

/// How many leading entries of `chain` are dead under `watermark`: all
/// but the newest entry at or below the watermark (which every open and
/// future snapshot still resolves to) and everything newer.
fn prune_cut(chain: &Chain, watermark: u64) -> usize {
    chain
        .partition_point(|&(lsn, _)| lsn <= watermark)
        .saturating_sub(1)
}

/// Poison-tolerant latches: every store leaves the chain consistent, so
/// a panicking holder cannot corrupt it.
fn read_ok<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_ok<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(id: u64, tag: u8) -> Arc<Page> {
        let mut p = Page::new(PageId(id));
        p.write_at(0, &[tag]);
        Arc::new(p)
    }

    #[test]
    fn read_resolves_newest_version_at_or_below_snapshot() {
        let obs = Registry::new();
        let pool = VersionPool::new(4, &obs);
        pool.install(3, &[page(1, 3)], 0);
        pool.install(7, &[page(1, 7)], 0);
        assert!(pool.read_at(PageId(1), 2).is_none(), "before first commit");
        assert_eq!(pool.read_at(PageId(1), 3).unwrap().payload()[0], 3);
        assert_eq!(pool.read_at(PageId(1), 5).unwrap().payload()[0], 3);
        assert_eq!(pool.read_at(PageId(1), 7).unwrap().payload()[0], 7);
        assert_eq!(pool.read_at(PageId(1), 99).unwrap().payload()[0], 7);
        assert!(pool.read_at(PageId(2), 99).is_none(), "never-written page");
        assert!(pool.read_at(PageId(9), 99).is_none(), "out of range");
    }

    #[test]
    fn gc_keeps_newest_at_or_below_watermark() {
        let obs = Registry::new();
        let pool = VersionPool::new(2, &obs);
        for lsn in [2u64, 4, 6, 8] {
            pool.install(lsn, &[page(0, lsn as u8)], 0);
        }
        assert_eq!(pool.chain_len(PageId(0)), 4);
        // a snapshot pinned at 5 must still read the lsn-4 version
        assert_eq!(pool.gc(5), 1, "only the lsn-2 version is dead");
        assert_eq!(pool.read_at(PageId(0), 5).unwrap().payload()[0], 4);
        assert_eq!(pool.read_at(PageId(0), 9).unwrap().payload()[0], 8);
        // watermark past everything: all but the newest version dies
        assert_eq!(pool.gc(20), 2);
        assert_eq!(pool.chain_len(PageId(0)), 1);
        assert_eq!(pool.read_at(PageId(0), 20).unwrap().payload()[0], 8);
        assert_eq!(pool.gc(20), 0, "idempotent once drained");
    }

    #[test]
    fn inline_prune_bounds_hot_chains() {
        let obs = Registry::new();
        let pool = VersionPool::new(1, &obs);
        for lsn in 1..=100u64 {
            // watermark trails by 1, as when a single snapshot is always
            // open just behind the publisher
            pool.install(lsn, &[page(0, 0)], lsn.saturating_sub(1));
            assert!(pool.chain_len(PageId(0)) <= 2, "chain unbounded at {lsn}");
        }
    }

    #[test]
    fn concurrent_sweeps_each_return_with_live_count_settled() {
        const PAGES: u64 = 2048;
        let obs = Registry::new();
        let pool = VersionPool::new(PAGES as usize, &obs);
        let barrier = std::sync::Barrier::new(2);
        let mut lsn = 0;
        for round in 0..20 {
            // two more versions of every page, none pruned inline
            for _ in 0..2 {
                lsn += 1;
                let pages: Vec<_> = (0..PAGES).map(|p| page(p, lsn as u8)).collect();
                pool.install(lsn, &pages, 0);
            }
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        barrier.wait();
                        pool.gc(lsn);
                        // whichever sweep reclaimed a chain, the live count
                        // is already one version per page when either returns
                        let live = pool.live_versions();
                        let snap = obs.snapshot();
                        let c = |name: &str| snap.counter(name).unwrap_or(0);
                        assert_eq!(live, PAGES, "round {round}: live count lags the chains");
                        assert_eq!(
                            c("mvcc.versions_installed"),
                            c("mvcc.versions_pruned") + live,
                            "round {round}: installed != pruned + live"
                        );
                    });
                }
            });
        }
    }

    #[test]
    fn conservation_installed_equals_pruned_plus_live() {
        let obs = Registry::new();
        let pool = VersionPool::new(8, &obs);
        for lsn in 1..=50u64 {
            pool.install(lsn, &[page(lsn % 8, 0), page((lsn + 3) % 8, 0)], 0);
            if lsn % 10 == 0 {
                pool.gc(lsn);
            }
        }
        pool.gc(50);
        let snap = obs.snapshot();
        let installed = snap.counter("mvcc.versions_installed").unwrap_or(0);
        let pruned = snap.counter("mvcc.versions_pruned").unwrap_or(0);
        assert_eq!(installed, 100);
        assert_eq!(installed, pruned + pool.live_versions());
        assert_eq!(snap.gauge("mvcc.versions_live"), Some(pool.live_versions()));
        // quiesced with watermark at the tip: exactly one live version
        // per versioned page remains
        assert_eq!(pool.live_versions(), 8);
        assert_eq!(snap.gauge("mvcc.pages_versioned"), Some(8));
    }
}
