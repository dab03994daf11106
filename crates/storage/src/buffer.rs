//! A pin-counted buffer pool with LRU eviction.
//!
//! The pool holds decoded [`Page`]s keyed by [`PageId`]. It deliberately
//! performs **no disk I/O itself**: on a miss the caller fetches the page
//! (through whatever indirection its recovery architecture uses — the
//! shadow pager's page table, the WAL manager's direct mapping) and inserts
//! it; on insertion into a full pool the evicted entry is handed back so
//! the caller can apply its write-ahead rule before writing a dirty page
//! out. This inversion keeps the pool reusable by every recovery scheme.

use crate::error::StorageError;
use crate::page::{Page, PageId};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};

/// A page pushed out of the pool.
#[derive(Debug)]
pub struct Evicted {
    /// The evicted page.
    pub page: Page,
    /// Whether it had unflushed modifications. The caller must write it
    /// (after honouring its write-ahead rule) or lose the updates.
    pub dirty: bool,
}

struct Slot {
    page: Page,
    dirty: bool,
    pins: u32,
    last_use: u64,
}

/// A fixed-capacity cache of pages with exact least-recently-used
/// eviction (via access ticks).
///
/// ```
/// use rmdb_storage::{BufferPool, Page, PageId};
///
/// let mut pool = BufferPool::new(2);
/// pool.insert(PageId(1), Page::new(PageId(1)), false).unwrap();
/// pool.insert(PageId(2), Page::new(PageId(2)), false).unwrap();
/// pool.get(PageId(1));                            // 1 is now most recent
/// let evicted = pool.insert(PageId(3), Page::new(PageId(3)), false)
///     .unwrap()
///     .expect("pool was full");
/// assert_eq!(evicted.page.id, PageId(2));         // LRU victim
/// ```
pub struct BufferPool {
    capacity: usize,
    slots: HashMap<PageId, Slot>,
    /// `(tick, id)` for every use, oldest first. An entry is live while
    /// `id` is resident with that `last_use`; stale entries are dropped
    /// lazily, so a victim is found without scanning the pool.
    lru: VecDeque<(u64, PageId)>,
    tick: u64,
    hits: u64,
    misses: u64,
    lookups: u64,
    evictions: u64,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            slots: HashMap::with_capacity(capacity),
            lru: VecDeque::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            lookups: 0,
            evictions: 0,
        }
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident pages.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Cache hits recorded by [`BufferPool::get`]/[`BufferPool::get_mut`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses recorded by [`BufferPool::get`]/[`BufferPool::get_mut`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total lookups ([`BufferPool::get`] + [`BufferPool::get_mut`] calls).
    /// Counted independently of the hit/miss split, so
    /// `hits() + misses() == lookups()` is a checkable conservation law
    /// rather than a definition.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Pages evicted to make room (does not count explicit
    /// [`BufferPool::remove`] calls).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether `id` is resident (does not touch recency state).
    pub fn contains(&self, id: PageId) -> bool {
        self.slots.contains_key(&id)
    }

    /// Look up a resident page, updating recency. Records a hit or miss.
    pub fn get(&mut self, id: PageId) -> Option<&Page> {
        self.trim_lru();
        self.lookups += 1;
        self.tick += 1;
        let tick = self.tick;
        match self.slots.get_mut(&id) {
            Some(slot) => {
                slot.last_use = tick;
                self.lru.push_back((tick, id));
                self.hits += 1;
                Some(&slot.page)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Mutable lookup; marks the page dirty.
    pub fn get_mut(&mut self, id: PageId) -> Option<&mut Page> {
        self.trim_lru();
        self.lookups += 1;
        self.tick += 1;
        let tick = self.tick;
        match self.slots.get_mut(&id) {
            Some(slot) => {
                slot.last_use = tick;
                self.lru.push_back((tick, id));
                slot.dirty = true;
                self.hits += 1;
                Some(&mut slot.page)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a page fetched from disk (or freshly allocated).
    ///
    /// If the pool is full, an unpinned victim is evicted and returned.
    /// Fails with [`StorageError::PoolExhausted`] when every resident page
    /// is pinned.
    ///
    /// # Panics
    /// If `id` is already resident (callers must check [`BufferPool::get`]
    /// first; double-insertion indicates a protocol bug).
    pub fn insert(
        &mut self,
        id: PageId,
        page: Page,
        dirty: bool,
    ) -> Result<Option<Evicted>, StorageError> {
        assert!(
            !self.slots.contains_key(&id),
            "page {id} inserted while already resident"
        );
        self.trim_lru();
        let evicted = if self.slots.len() >= self.capacity {
            Some(self.evict()?)
        } else {
            None
        };
        self.tick += 1;
        self.slots.insert(
            id,
            Slot {
                page,
                dirty,
                pins: 0,
                last_use: self.tick,
            },
        );
        self.lru.push_back((self.tick, id));
        Ok(evicted)
    }

    /// Pin a resident page so it cannot be evicted.
    ///
    /// # Panics
    /// If the page is not resident.
    pub fn pin(&mut self, id: PageId) {
        self.slots
            .get_mut(&id)
            .unwrap_or_else(|| panic!("pin of non-resident page {id}"))
            .pins += 1;
    }

    /// Drop one pin.
    ///
    /// # Panics
    /// If the page is not resident or not pinned.
    pub fn unpin(&mut self, id: PageId) {
        let slot = self
            .slots
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unpin of non-resident page {id}"));
        assert!(slot.pins > 0, "unpin of unpinned page {id}");
        slot.pins -= 1;
    }

    /// Pins held on `id` (0 when it is not resident).
    pub fn pin_count(&self, id: PageId) -> u32 {
        self.slots.get(&id).map_or(0, |slot| slot.pins)
    }

    /// Mark a resident page clean (caller just wrote it to disk).
    pub fn mark_clean(&mut self, id: PageId) {
        if let Some(slot) = self.slots.get_mut(&id) {
            slot.dirty = false;
        }
    }

    /// Remove a specific page (e.g. transaction abort discarding its dirty
    /// pages). Returns it if it was resident.
    pub fn remove(&mut self, id: PageId) -> Option<Evicted> {
        self.slots.remove(&id).map(|slot| Evicted {
            page: slot.page,
            dirty: slot.dirty,
        })
    }

    /// Iterate over resident dirty page ids (for flush-all/checkpoint).
    pub fn dirty_ids(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self
            .slots
            .iter()
            .filter(|(_, s)| s.dirty)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Read-only access without recency update (used when flushing).
    pub fn peek(&self, id: PageId) -> Option<&Page> {
        self.slots.get(&id).map(|s| &s.page)
    }

    fn evict(&mut self) -> Result<Evicted, StorageError> {
        let victim = self.pick_lru().ok_or(StorageError::PoolExhausted)?;
        self.evictions += 1;
        let slot = self.slots.remove(&victim).expect("victim resident");
        Ok(Evicted {
            page: slot.page,
            dirty: slot.dirty,
        })
    }

    /// Whether LRU entry `(tick, id)` is the page's latest use.
    fn live(slots: &HashMap<PageId, Slot>, &(tick, id): &(u64, PageId)) -> bool {
        slots.get(&id).is_some_and(|s| s.last_use == tick)
    }

    /// Drop stale LRU entries once they outnumber the frames several times
    /// over, so the queue stays proportional to the pool.
    fn trim_lru(&mut self) {
        if self.lru.len() > 4 * self.capacity {
            let slots = &self.slots;
            self.lru.retain(|e| Self::live(slots, e));
        }
    }

    /// The least recently used unpinned page: the first live entry in use
    /// order whose page is unpinned.
    fn pick_lru(&mut self) -> Option<PageId> {
        while let Some(e) = self.lru.front() {
            if Self::live(&self.slots, e) {
                break;
            }
            self.lru.pop_front();
        }
        self.lru
            .iter()
            .find(|e| Self::live(&self.slots, e) && self.slots[&e.1].pins == 0)
            .map(|e| e.1)
    }
}

/// A locked [`PoolShard`], as [`ShardedPool::lock`] returns it.
pub type ShardGuard<'a, M> = MutexGuard<'a, PoolShard<M>>;

/// One independently lockable slice of a [`ShardedPool`]: a
/// [`BufferPool`] over the shard's pages plus caller-defined metadata
/// that must stay consistent with the pool's contents (e.g. a WAL
/// engine's page → last-log-position map).
pub struct PoolShard<M> {
    /// The shard's page cache.
    pub pool: BufferPool,
    /// Caller metadata updated under the same lock as `pool`.
    pub meta: M,
}

/// A buffer pool split into independently locked shards so concurrent
/// transactions touching different pages never contend on one mutex.
///
/// Pages are assigned to shards by a Fibonacci hash of the page id —
/// deterministic, so a page always lives in exactly one shard and
/// per-shard eviction preserves every [`BufferPool`] invariant. The total
/// frame budget is divided evenly; each shard gets at least one frame.
///
/// ```
/// use rmdb_storage::{Page, PageId, ShardedPool};
///
/// let pool: ShardedPool = ShardedPool::new(4, 32);
/// let id = PageId(7);
/// {
///     let mut shard = pool.lock(id);
///     shard.pool.insert(id, Page::new(id), false).unwrap();
/// } // drop the guard: shard locks are not reentrant
/// assert!(pool.lock(id).pool.contains(id));
/// ```
pub struct ShardedPool<M = ()> {
    shards: Vec<Mutex<PoolShard<M>>>,
}

impl ShardedPool<()> {
    /// `n_shards` shards sharing `total_frames` frames.
    pub fn new(n_shards: usize, total_frames: usize) -> Self {
        ShardedPool::with_meta(n_shards, total_frames, || ())
    }
}

impl<M> ShardedPool<M> {
    /// Like [`ShardedPool::new`], initialising each shard's metadata with
    /// `mk_meta`.
    pub fn with_meta(n_shards: usize, total_frames: usize, mk_meta: impl Fn() -> M) -> Self {
        assert!(n_shards > 0, "sharded pool needs at least one shard");
        let per_shard = (total_frames / n_shards).max(1);
        ShardedPool {
            shards: (0..n_shards)
                .map(|_| {
                    Mutex::new(PoolShard {
                        pool: BufferPool::new(per_shard),
                        meta: mk_meta(),
                    })
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `id` (deterministic Fibonacci hash).
    pub fn shard_of(&self, id: PageId) -> usize {
        (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.shards.len()
    }

    /// Lock the shard owning `id`.
    pub fn lock(&self, id: PageId) -> ShardGuard<'_, M> {
        self.shards[self.shard_of(id)].lock()
    }

    /// Lock shard `i` directly (flush-all style sweeps).
    pub fn lock_shard(&self, i: usize) -> ShardGuard<'_, M> {
        self.shards[i].lock()
    }

    /// Total resident pages across shards (locks each in turn).
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().pool.len()).sum()
    }

    /// Aggregate (hits, misses) across shards.
    pub fn hit_miss(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), s| {
            let g = s.lock();
            (h + g.pool.hits(), m + g.pool.misses())
        })
    }

    /// Per-shard cache counters, indexed by shard number (locks each
    /// shard in turn — counters from different shards are not mutually
    /// atomic, but each shard's own quadruple is consistent).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| {
                let g = s.lock();
                ShardStats {
                    shard,
                    hits: g.pool.hits(),
                    misses: g.pool.misses(),
                    lookups: g.pool.lookups(),
                    evictions: g.pool.evictions(),
                }
            })
            .collect()
    }
}

/// One shard's cache counters, as returned by [`ShardedPool::shard_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Lookups that found the page resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Total lookups (independently counted; `hits + misses == lookups`).
    pub lookups: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> Page {
        Page::new(PageId(n))
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut pool = BufferPool::new(2);
        assert!(pool.get(PageId(1)).is_none());
        pool.insert(PageId(1), page(1), false).unwrap();
        assert!(pool.get(PageId(1)).is_some());
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut pool = BufferPool::new(2);
        pool.insert(PageId(1), page(1), false).unwrap();
        pool.insert(PageId(2), page(2), false).unwrap();
        pool.get(PageId(1)); // 2 is now LRU
        let ev = pool.insert(PageId(3), page(3), false).unwrap().unwrap();
        assert_eq!(ev.page.id, PageId(2));
        assert!(pool.contains(PageId(1)));
        assert!(pool.contains(PageId(3)));
    }

    #[test]
    fn lru_victim_is_oldest_unpinned_use() {
        // many hits push the use queue past its trim threshold; the victim
        // must still be the unpinned page with the oldest last use
        let mut pool = BufferPool::new(4);
        for n in 1..=4 {
            pool.insert(PageId(n), page(n), false).unwrap();
        }
        for round in 0..50u64 {
            for n in [4, 2, 1, 3] {
                if round % 7 != 1 || n != 1 {
                    pool.get(PageId(n));
                }
            }
        }
        // last uses, oldest first: 4, 2, 1, 3; pin 4
        pool.pin(PageId(4));
        let ev = pool.insert(PageId(5), page(5), false).unwrap().unwrap();
        assert_eq!(ev.page.id, PageId(2));
        let ev = pool.insert(PageId(6), page(6), false).unwrap().unwrap();
        assert_eq!(ev.page.id, PageId(1));
        pool.unpin(PageId(4));
        let ev = pool.insert(PageId(7), page(7), false).unwrap().unwrap();
        assert_eq!(ev.page.id, PageId(4));
        // a removed page's queued uses are stale, not victims
        pool.remove(PageId(3));
        pool.get_mut(PageId(5));
        pool.insert(PageId(8), page(8), false).unwrap();
        let ev = pool.insert(PageId(9), page(9), false).unwrap().unwrap();
        assert_eq!(ev.page.id, PageId(6));
    }

    #[test]
    fn eviction_reports_dirtiness() {
        let mut pool = BufferPool::new(1);
        pool.insert(PageId(1), page(1), false).unwrap();
        pool.get_mut(PageId(1)).unwrap().write_at(0, b"x");
        let ev = pool.insert(PageId(2), page(2), false).unwrap().unwrap();
        assert!(ev.dirty, "modified page must evict dirty");
    }

    #[test]
    fn pinned_pages_survive_eviction() {
        let mut pool = BufferPool::new(2);
        pool.insert(PageId(1), page(1), false).unwrap();
        pool.insert(PageId(2), page(2), false).unwrap();
        pool.pin(PageId(1));
        pool.pin(PageId(2));
        assert!(matches!(
            pool.insert(PageId(3), page(3), false),
            Err(StorageError::PoolExhausted)
        ));
        pool.unpin(PageId(2));
        let ev = pool.insert(PageId(3), page(3), false).unwrap().unwrap();
        assert_eq!(ev.page.id, PageId(2));
    }

    #[test]
    fn remove_returns_dirty_state() {
        let mut pool = BufferPool::new(2);
        pool.insert(PageId(1), page(1), true).unwrap();
        let ev = pool.remove(PageId(1)).unwrap();
        assert!(ev.dirty);
        assert!(pool.remove(PageId(1)).is_none());
        assert!(pool.is_empty());
    }

    #[test]
    fn dirty_ids_sorted() {
        let mut pool = BufferPool::new(4);
        for n in [3, 1, 2] {
            pool.insert(PageId(n), page(n), n != 2).unwrap();
        }
        assert_eq!(pool.dirty_ids(), vec![PageId(1), PageId(3)]);
    }

    #[test]
    fn mark_clean_clears_dirty() {
        let mut pool = BufferPool::new(1);
        pool.insert(PageId(1), page(1), true).unwrap();
        pool.mark_clean(PageId(1));
        assert!(pool.dirty_ids().is_empty());
        let ev = pool.insert(PageId(2), page(2), false).unwrap().unwrap();
        assert!(!ev.dirty);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut pool = BufferPool::new(2);
        pool.insert(PageId(1), page(1), false).unwrap();
        pool.insert(PageId(1), page(1), false).unwrap();
    }

    #[test]
    #[should_panic(expected = "unpin of unpinned")]
    fn unbalanced_unpin_panics() {
        let mut pool = BufferPool::new(2);
        pool.insert(PageId(1), page(1), false).unwrap();
        pool.unpin(PageId(1));
    }

    #[test]
    fn peek_does_not_affect_lru() {
        let mut pool = BufferPool::new(2);
        pool.insert(PageId(1), page(1), false).unwrap();
        pool.insert(PageId(2), page(2), false).unwrap();
        pool.peek(PageId(1)); // must NOT refresh 1
        let ev = pool.insert(PageId(3), page(3), false).unwrap().unwrap();
        assert_eq!(ev.page.id, PageId(1));
    }

    #[test]
    fn sharded_pool_routes_pages_deterministically() {
        let pool: ShardedPool = ShardedPool::new(4, 64);
        for n in 0..256u64 {
            let a = pool.shard_of(PageId(n));
            let b = pool.shard_of(PageId(n));
            assert_eq!(a, b);
            assert!(a < 4);
        }
        // the hash actually spreads pages over shards
        let mut seen = [false; 4];
        for n in 0..256u64 {
            seen[pool.shard_of(PageId(n))] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards populated: {seen:?}");
    }

    #[test]
    fn sharded_pool_isolates_evictions_per_shard() {
        // 2 shards × 1 frame each: inserting two pages of the same shard
        // evicts within that shard only
        let pool: ShardedPool = ShardedPool::new(2, 2);
        let (mut a, mut b) = (None, None);
        for n in 0..64u64 {
            match pool.shard_of(PageId(n)) {
                0 if a.is_none() => a = Some(n),
                1 if b.is_none() => b = Some(n),
                _ => {}
            }
        }
        let (a, b) = (a.unwrap(), b.unwrap());
        pool.lock(PageId(a))
            .pool
            .insert(PageId(a), page(a), false)
            .unwrap();
        pool.lock(PageId(b))
            .pool
            .insert(PageId(b), page(b), false)
            .unwrap();
        assert_eq!(pool.resident(), 2);
        // a second page in a's shard evicts a, not b
        let a2 = (a + 1..1024)
            .find(|&n| pool.shard_of(PageId(n)) == pool.shard_of(PageId(a)) && n != b)
            .unwrap();
        let ev = pool
            .lock(PageId(a2))
            .pool
            .insert(PageId(a2), page(a2), false)
            .unwrap()
            .expect("shard was full");
        assert_eq!(ev.page.id, PageId(a));
        assert!(pool.lock(PageId(b)).pool.contains(PageId(b)));
    }

    #[test]
    fn sharded_pool_meta_travels_with_shard() {
        let pool: ShardedPool<Vec<u64>> = ShardedPool::with_meta(2, 8, Vec::new);
        let id = PageId(9);
        pool.lock(id).meta.push(42);
        assert_eq!(pool.lock(id).meta, vec![42]);
        // aggregate helpers see every shard
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.hit_miss(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _: ShardedPool = ShardedPool::new(0, 8);
    }
}
