//! Version selection (paper §3.2.2.1): avoiding page-table indirection with
//! twin blocks.
//!
//! Each logical page owns two physically adjacent disk blocks. A read
//! fetches **both** blocks (the paper's bet: an extra block on the same
//! track is nearly free) and a *version-selection algorithm* picks the
//! current one: the candidate stamped by the most recently **committed**
//! transaction. Updates write the non-current block, stamped with the
//! writing transaction's id; the single-frame append to the durable commit
//! list is the atomic commit point that turns every block the transaction
//! wrote current, all at once.
//!
//! The scheme doubles disk space — the cost the paper holds against it —
//! and as a bonus tolerates a torn write to one block: the checksum rejects
//! the torn copy and selection falls back to the surviving shadow, which is
//! exactly the recovery argument of Reuter's TWIST scheme the paper cites.

use crate::pagetable::{ExclusiveLocks, ShadowError, TxnId};
use rmdb_storage::fault::FaultHandle;
use rmdb_storage::{CommitList, Disk, Lsn, MemDisk, Page, PageId, PAYLOAD_SIZE};
use std::collections::{BTreeMap, HashMap};

/// Configuration for a [`VersionStore`].
#[derive(Debug, Clone)]
pub struct VersionConfig {
    /// Logical pages.
    pub logical_pages: u64,
    /// Frames reserved for the durable commit list (508 commits each).
    pub commit_frames: u64,
}

impl Default for VersionConfig {
    fn default() -> Self {
        VersionConfig {
            logical_pages: 128,
            commit_frames: 8,
        }
    }
}

/// Crash image of a [`VersionStore`]: one disk holds everything.
#[derive(Debug)]
pub struct VersionImage {
    /// Twin slots followed by the [`CommitList`] frames (two physical
    /// slots per logical commit frame, so the atomic commit point survives
    /// a crash-torn append).
    pub disk: Disk,
}

/// Recovery findings.
#[derive(Debug, Clone, Default)]
pub struct VersionRecoveryReport {
    /// Committed transactions found in the durable list.
    pub committed: u64,
    /// Highest transaction stamp seen on any slot (fixes the id counter).
    pub max_stamp: u64,
    /// Slots whose frames failed their checksum (torn writes survived by
    /// selecting the twin).
    pub torn_slots: u64,
}

/// Access statistics: the doubled read cost is the headline number.
#[derive(Debug, Clone, Copy, Default)]
pub struct VersionStats {
    /// Slot frames read (two per logical read).
    pub slot_reads: u64,
    /// Slot frames written.
    pub slot_writes: u64,
    /// Commit-list frame writes.
    pub commit_writes: u64,
}

struct VsTxn {
    /// page → (slot frame being written, working copy)
    delta: BTreeMap<u64, (u64, Page)>,
}

/// Twin-block version-selection store.
///
/// ```
/// use rmdb_shadow::{VersionConfig, VersionStore};
///
/// let mut store = VersionStore::new(VersionConfig::default());
/// let t = store.begin();
/// store.write(t, 2, 0, b"twin").unwrap();   // written to the non-current block
/// store.commit(t).unwrap();                 // one commit-list append flips it
/// let t = store.begin();
/// assert_eq!(store.read(t, 2, 0, 4).unwrap(), b"twin");
/// // reads fetched BOTH blocks — the cost the paper holds against it
/// assert!(store.stats().slot_reads >= 2);
/// ```
pub struct VersionStore {
    cfg: VersionConfig,
    disk: Disk,
    /// The durable commit list: commit order of each txn.
    commits: CommitList,
    active: HashMap<TxnId, VsTxn>,
    locks: ExclusiveLocks,
    next_txn: TxnId,
    stats: VersionStats,
}

impl VersionStore {
    fn slot_frames(cfg: &VersionConfig) -> u64 {
        2 * cfg.logical_pages
    }

    /// A fresh store.
    pub fn new(cfg: VersionConfig) -> Self {
        let disk = Disk::from(MemDisk::new(
            Self::slot_frames(&cfg) + CommitList::footprint(cfg.commit_frames),
        ));
        VersionStore {
            commits: CommitList::new(Self::slot_frames(&cfg), cfg.commit_frames),
            active: HashMap::new(),
            locks: ExclusiveLocks::default(),
            next_txn: 1,
            stats: VersionStats::default(),
            disk,
            cfg,
        }
    }

    /// Attach one shared fault injector to the disk.
    pub fn attach_faults(&mut self, handle: &FaultHandle) {
        self.disk.attach_faults(handle.clone());
    }

    /// Capture durable state.
    pub fn crash_image(&self) -> VersionImage {
        VersionImage {
            disk: self.disk.snapshot(),
        }
    }

    /// Rebuild from a crash image: reload the commit list, then scan the
    /// twin slots once to restore the transaction-id high-water mark (a
    /// pre-crash *uncommitted* stamp must never alias a future commit).
    pub fn recover(
        image: VersionImage,
        cfg: VersionConfig,
    ) -> Result<(Self, VersionRecoveryReport), ShadowError> {
        let disk = image.disk;
        let mut report = VersionRecoveryReport::default();
        let commits = CommitList::recover(&disk, Self::slot_frames(&cfg), cfg.commit_frames);
        report.committed = commits.ids().len() as u64;

        let mut max_stamp = 0u64;
        for frame in 0..Self::slot_frames(&cfg) {
            if !disk.is_allocated(frame) {
                continue;
            }
            match disk.read_page_retry_with(frame, |p| p.lsn.0) {
                Ok(stamp) => max_stamp = max_stamp.max(stamp),
                Err(_) => report.torn_slots += 1,
            }
        }
        report.max_stamp = max_stamp;
        let next_txn = max_stamp.max(commits.ids().iter().copied().max().unwrap_or(0)) + 1;
        Ok((
            VersionStore {
                commits,
                active: HashMap::new(),
                locks: ExclusiveLocks::default(),
                next_txn,
                stats: VersionStats::default(),
                disk,
                cfg,
            },
            report,
        ))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> VersionStats {
        self.stats
    }

    /// Begin a transaction.
    pub fn begin(&mut self) -> TxnId {
        let t = self.next_txn;
        self.next_txn += 1;
        self.active.insert(
            t,
            VsTxn {
                delta: BTreeMap::new(),
            },
        );
        t
    }

    fn check(&self, txn: TxnId, page: u64) -> Result<(), ShadowError> {
        if page >= self.cfg.logical_pages {
            return Err(ShadowError::OutOfBounds { page });
        }
        if !self.active.contains_key(&txn) {
            return Err(ShadowError::UnknownTxn(txn));
        }
        Ok(())
    }

    /// The version-selection algorithm: read both twin blocks and pick the
    /// newest committed one. Returns `(slot_index, page)`; `None` if the
    /// page was never committed.
    fn select_current(&mut self, page: u64) -> Option<(u64, Page)> {
        let mut best: Option<(u64, u64, Page)> = None; // (seq, slot, page)
        for slot in [2 * page, 2 * page + 1] {
            self.stats.slot_reads += 1;
            if !self.disk.is_allocated(slot) {
                continue;
            }
            let candidate = match self.disk.read_page_retry(slot) {
                Ok(p) if p.id == PageId(page) => p,
                _ => continue, // torn or foreign frame: the twin survives
            };
            let Some(seq) = self.commits.position(candidate.lsn.0) else {
                continue; // stamped by an uncommitted transaction
            };
            if best.as_ref().is_none_or(|(s, _, _)| seq > *s) {
                best = Some((seq, slot, candidate));
            }
        }
        best.map(|(_, slot, page)| (slot, page))
    }

    /// Read bytes: own uncommitted version if present, else version-select
    /// from the twin blocks (two physical reads per logical read).
    pub fn read(
        &mut self,
        txn: TxnId,
        page: u64,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, ShadowError> {
        self.check(txn, page)?;
        if let Some((_, p)) = self.active[&txn].delta.get(&page) {
            return Ok(p.read_at(offset, len).to_vec());
        }
        Ok(match self.select_current(page) {
            Some((_, p)) => p.read_at(offset, len).to_vec(),
            None => vec![0; len],
        })
    }

    /// Write bytes under an exclusive page lock; the non-current twin block
    /// is written through immediately, stamped with this transaction's id.
    pub fn write(
        &mut self,
        txn: TxnId,
        page: u64,
        offset: usize,
        data: &[u8],
    ) -> Result<(), ShadowError> {
        self.check(txn, page)?;
        if offset + data.len() > PAYLOAD_SIZE {
            return Err(ShadowError::OutOfBounds { page });
        }
        self.locks.acquire(txn, page)?;
        if !self.active[&txn].delta.contains_key(&page) {
            let (target_slot, base) = match self.select_current(page) {
                Some((current_slot, p)) => {
                    // write the twin of the current block
                    let twin = if current_slot == 2 * page {
                        2 * page + 1
                    } else {
                        2 * page
                    };
                    (twin, p)
                }
                None => (2 * page, Page::new(PageId(page))),
            };
            self.active
                .get_mut(&txn)
                .expect("txn checked")
                .delta
                .insert(page, (target_slot, base));
        }
        let state = self.active.get_mut(&txn).expect("txn checked");
        let (slot, work) = state.delta.get_mut(&page).expect("just materialized");
        work.write_at(offset, data);
        work.id = PageId(page);
        work.lsn = Lsn(txn); // the stamp: valid only once txn commits
        let (slot, copy) = (*slot, work.clone());
        self.disk.write_page_verified(slot, &copy)?;
        self.stats.slot_writes += 1;
        Ok(())
    }

    /// Commit: one atomic append to the durable commit list makes every
    /// block the transaction stamped current simultaneously.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), ShadowError> {
        if self.active.remove(&txn).is_none() {
            return Err(ShadowError::UnknownTxn(txn));
        }
        self.commits.append(&mut self.disk, txn)?;
        self.stats.commit_writes += 1;
        self.locks.release_all(txn);
        Ok(())
    }

    /// Abort: discard the working set and release locks. The stamped twin
    /// blocks are invalid forever (the stamp never commits) and will be
    /// recycled by the next writer.
    pub fn abort(&mut self, txn: TxnId) -> Result<(), ShadowError> {
        if self.active.remove(&txn).is_none() {
            return Err(ShadowError::UnknownTxn(txn));
        }
        self.locks.release_all(txn);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmdb_storage::FRAME_SIZE;

    fn cfg() -> VersionConfig {
        VersionConfig {
            logical_pages: 16,
            commit_frames: 4,
        }
    }

    fn committed_read(s: &mut VersionStore, page: u64, off: usize, len: usize) -> Vec<u8> {
        let t = s.begin();
        let v = s.read(t, page, off, len).unwrap();
        s.abort(t).unwrap();
        v
    }

    #[test]
    fn commit_makes_version_current() {
        let mut s = VersionStore::new(cfg());
        let t = s.begin();
        s.write(t, 1, 0, b"one").unwrap();
        // before commit, the committed view is still empty
        assert_eq!(committed_read(&mut s, 1, 0, 3), vec![0; 3]);
        s.commit(t).unwrap();
        assert_eq!(committed_read(&mut s, 1, 0, 3), b"one");
    }

    #[test]
    fn twin_blocks_alternate() {
        let mut s = VersionStore::new(cfg());
        for gen in 0..4u32 {
            let t = s.begin();
            s.write(t, 2, 0, &gen.to_le_bytes()).unwrap();
            s.commit(t).unwrap();
        }
        assert_eq!(committed_read(&mut s, 2, 0, 4), 3u32.to_le_bytes());
        // both slots are allocated — the twins really alternate
        let img = s.crash_image();
        assert!(img.disk.is_allocated(4));
        assert!(img.disk.is_allocated(5));
    }

    #[test]
    fn abort_leaves_old_version_current() {
        let mut s = VersionStore::new(cfg());
        let t0 = s.begin();
        s.write(t0, 3, 0, b"keep").unwrap();
        s.commit(t0).unwrap();
        let t = s.begin();
        s.write(t, 3, 0, b"drop").unwrap();
        s.abort(t).unwrap();
        assert_eq!(committed_read(&mut s, 3, 0, 4), b"keep");
    }

    #[test]
    fn crash_with_uncommitted_version_recovers_old() {
        let mut s = VersionStore::new(cfg());
        let t0 = s.begin();
        s.write(t0, 3, 0, b"base").unwrap();
        s.commit(t0).unwrap();
        let t = s.begin();
        s.write(t, 3, 0, b"half").unwrap(); // written through to the twin!
        let (mut s2, report) = VersionStore::recover(s.crash_image(), cfg()).unwrap();
        assert_eq!(committed_read(&mut s2, 3, 0, 4), b"base");
        assert_eq!(report.committed, 1);
        assert!(
            report.max_stamp >= t,
            "uncommitted stamp must raise the txn counter"
        );
    }

    #[test]
    fn crash_after_commit_keeps_new_version() {
        let mut s = VersionStore::new(cfg());
        let t = s.begin();
        s.write(t, 5, 0, b"newv").unwrap();
        s.write(t, 6, 0, b"also").unwrap();
        s.commit(t).unwrap();
        let (mut s2, _) = VersionStore::recover(s.crash_image(), cfg()).unwrap();
        assert_eq!(committed_read(&mut s2, 5, 0, 4), b"newv");
        assert_eq!(committed_read(&mut s2, 6, 0, 4), b"also");
    }

    #[test]
    fn multi_page_commit_is_atomic() {
        // Crash between slot writes and the commit-list append: no page
        // shows the new value. (Slot writes happen during write(); the
        // crash image before commit() captures exactly that state.)
        let mut s = VersionStore::new(cfg());
        let t0 = s.begin();
        s.write(t0, 0, 0, b"A").unwrap();
        s.write(t0, 1, 0, b"A").unwrap();
        s.commit(t0).unwrap();
        let t = s.begin();
        s.write(t, 0, 0, b"B").unwrap();
        s.write(t, 1, 0, b"B").unwrap();
        let img = s.crash_image(); // pre-commit crash
        let (mut s2, _) = VersionStore::recover(img, cfg()).unwrap();
        assert_eq!(committed_read(&mut s2, 0, 0, 1), b"A");
        assert_eq!(committed_read(&mut s2, 1, 0, 1), b"A");
        // and post-commit both flip
        s.commit(t).unwrap();
        let (mut s3, _) = VersionStore::recover(s.crash_image(), cfg()).unwrap();
        assert_eq!(committed_read(&mut s3, 0, 0, 1), b"B");
        assert_eq!(committed_read(&mut s3, 1, 0, 1), b"B");
    }

    #[test]
    fn torn_slot_write_falls_back_to_twin() {
        let mut s = VersionStore::new(cfg());
        let t0 = s.begin();
        s.write(t0, 7, 0, b"good").unwrap();
        s.commit(t0).unwrap();
        // a later committed update whose slot write tore
        let t1 = s.begin();
        s.write(t1, 7, 0, b"newr").unwrap();
        s.commit(t1).unwrap();
        // tear the slot t1 wrote (slot 15 = twin of 14)
        let current_slot = (0..2)
            .map(|i| 14 + i)
            .find(|&slot| {
                s.crash_image()
                    .disk
                    .read_page(slot)
                    .map(|p| p.lsn.0 == t1)
                    .unwrap_or(false)
            })
            .expect("t1's slot exists");
        let mut img = s.crash_image();
        let garbage = [0xFFu8; FRAME_SIZE];
        img.disk.write_partial(current_slot, &garbage, 100).unwrap();
        let (mut s2, report) = VersionStore::recover(img, cfg()).unwrap();
        // selection survives by falling back to the older committed twin
        assert_eq!(committed_read(&mut s2, 7, 0, 4), b"good");
        assert_eq!(report.torn_slots, 1);
    }

    #[test]
    fn reads_cost_two_slot_accesses() {
        let mut s = VersionStore::new(cfg());
        let t0 = s.begin();
        s.write(t0, 1, 0, b"x").unwrap();
        s.commit(t0).unwrap();
        let before = s.stats().slot_reads;
        committed_read(&mut s, 1, 0, 1);
        assert_eq!(s.stats().slot_reads, before + 2, "both twins are fetched");
    }

    #[test]
    fn lock_conflicts_between_writers() {
        let mut s = VersionStore::new(cfg());
        let a = s.begin();
        let b = s.begin();
        s.write(a, 4, 0, b"a").unwrap();
        assert!(matches!(
            s.write(b, 4, 0, b"b"),
            Err(ShadowError::LockConflict { .. })
        ));
        s.commit(a).unwrap();
        s.write(b, 4, 0, b"b").unwrap();
        s.commit(b).unwrap();
        assert_eq!(committed_read(&mut s, 4, 0, 1), b"b");
    }

    #[test]
    fn many_commits_roll_over_commit_frames() {
        let mut s = VersionStore::new(VersionConfig {
            logical_pages: 4,
            commit_frames: 3,
        });
        // 508 commits per frame; we do a few hundred to cross a boundary
        for i in 0..600u32 {
            let t = s.begin();
            s.write(t, (i % 4) as u64, 0, &i.to_le_bytes()).unwrap();
            s.commit(t).unwrap();
        }
        assert_eq!(committed_read(&mut s, 3, 0, 4), 599u32.to_le_bytes());
        let (mut s2, report) = VersionStore::recover(
            s.crash_image(),
            VersionConfig {
                logical_pages: 4,
                commit_frames: 3,
            },
        )
        .unwrap();
        assert_eq!(report.committed, 600);
        assert_eq!(committed_read(&mut s2, 3, 0, 4), 599u32.to_le_bytes());
    }

    #[test]
    fn never_written_page_reads_zero() {
        let mut s = VersionStore::new(cfg());
        assert_eq!(committed_read(&mut s, 9, 0, 8), vec![0; 8]);
    }
}
