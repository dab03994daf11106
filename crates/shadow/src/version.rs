//! Version selection (paper §3.2.2.1): avoiding page-table indirection with
//! twin blocks.
//!
//! Each logical page owns two physically adjacent disk blocks. A read
//! fetches **both** blocks (the paper's bet: an extra block on the same
//! track is nearly free) and a *version-selection algorithm* picks the
//! current one: of the blocks whose writer committed, the newer. Updates
//! write the non-current block, stamped with the writing transaction's id
//! and the page's next version (the paper's timestamp); the single write
//! of the durable [`CommitRecord`] is the atomic commit point that turns
//! every block the transaction wrote current, all at once.
//!
//! Ids do not give commit order (T5 may commit a page while T4 is open,
//! and T4 then commits the same page), so the stamp carries a page
//! version: under the page's lock a writer writes the current version + 1,
//! so two committed twins differ by exactly one, and two bits order them.
//! The record lists the uncommitted ids below its high mark that may have
//! a stamp on disk; a page has one non-current twin, so an abort's id
//! leaves the list once the writers after it have overwritten its blocks.
//!
//! The scheme doubles disk space — the cost the paper holds against it —
//! and as a bonus tolerates a torn write to one block: the checksum rejects
//! the torn copy and selection falls back to the surviving shadow, which is
//! exactly the recovery argument of Reuter's TWIST scheme the paper cites.

use crate::pagetable::{check_bounds, ShadowError, TxnId};
use rmdb_storage::fault::FaultHandle;
use rmdb_storage::{CommitRecord, Disk, LockMode, Lsn, MemDisk, Page, PageId, SlotPair, TxnTable};
use std::collections::{BTreeMap, HashMap};

/// Configuration for a [`VersionStore`].
#[derive(Debug, Clone)]
pub struct VersionConfig {
    /// Logical pages.
    pub logical_pages: u64,
}

impl Default for VersionConfig {
    fn default() -> Self {
        VersionConfig { logical_pages: 128 }
    }
}

/// Crash image of a [`VersionStore`]: one disk holds everything.
#[derive(Debug)]
pub struct VersionImage {
    /// Twin slots followed by the [`CommitRecord`]'s [`SlotPair`], so the
    /// atomic commit point survives a crash-torn record write.
    pub disk: Disk,
}

/// Recovery findings.
#[derive(Debug, Clone, Default)]
pub struct VersionRecoveryReport {
    /// The durable record's high mark: the largest committed id.
    pub high: u64,
    /// Ids that stamped a surviving block and did not commit (aborts and
    /// crash losers), found by the slot scan.
    pub undecided: u64,
    /// Highest transaction id stamped on any slot (fixes the id counter).
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
    /// Commit-record frame writes.
    pub commit_writes: u64,
}

/// Page id the commit record's frames carry, clear of any logical page.
const RECORD_ID: PageId = PageId(u64::MAX);

/// A block's stamp (its LSN) holds the writer's id over the page
/// version's low two bits.
fn writer(lsn: Lsn) -> TxnId {
    lsn.0 >> 2
}

fn version(lsn: Lsn) -> u64 {
    lsn.0 & 3
}

/// Twin-block version-selection store.
///
/// ```
/// use rmdb_shadow::{VersionConfig, VersionStore};
///
/// let mut store = VersionStore::new(VersionConfig::default());
/// let t = store.begin();
/// store.write(t, 2, 0, b"twin").unwrap();   // written to the non-current block
/// store.commit(t).unwrap();                 // one commit-record write flips it
/// let t = store.begin();
/// assert_eq!(store.read(t, 2, 0, 4).unwrap(), b"twin");
/// // reads fetched BOTH blocks — the cost the paper holds against it
/// assert!(store.stats().slot_reads >= 2);
/// ```
pub struct VersionStore {
    cfg: VersionConfig,
    disk: Disk,
    /// The durable commit record, as last written.
    record: CommitRecord,
    /// Version of the record's newest copy (0: never written).
    record_version: u64,
    /// Open transactions: page → (twin slot written, stamped working copy).
    txns: TxnTable<BTreeMap<u64, (u64, Page)>>,
    /// Blocks still stamped by each id that did not commit (aborts and
    /// crash losers); ids at 0 leave at the next commit.
    aborted: HashMap<TxnId, u64>,
    stats: VersionStats,
}

impl VersionStore {
    fn slot_frames(cfg: &VersionConfig) -> u64 {
        2 * cfg.logical_pages
    }

    fn record_pair(cfg: &VersionConfig) -> SlotPair {
        SlotPair::at(Self::slot_frames(cfg))
    }

    /// A fresh store: the recovery of an empty disk.
    pub fn new(cfg: VersionConfig) -> Self {
        let disk = Disk::from(MemDisk::new(Self::slot_frames(&cfg) + 2));
        Self::recover(VersionImage { disk }, cfg)
            .expect("an empty disk recovers")
            .0
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

    /// Rebuild from a crash image: reload the commit record, then scan the
    /// twin slots once. The scan restores the transaction-id high-water
    /// mark (a pre-crash *uncommitted* stamp must never alias a future
    /// commit) and the blocks each uncommitted id still stamps.
    pub fn recover(
        image: VersionImage,
        cfg: VersionConfig,
    ) -> Result<(Self, VersionRecoveryReport), ShadowError> {
        let disk = image.disk;
        let mut report = VersionRecoveryReport::default();
        let decode = |p: &Page| CommitRecord::decode(p, 0).filter(|_| p.id == RECORD_ID);
        let pair = Self::record_pair(&cfg);
        let (record_version, record) = pair.read(&disk, decode).unwrap_or_default();
        let mut aborted: HashMap<TxnId, u64> = HashMap::new();
        for frame in 0..Self::slot_frames(&cfg) {
            if !disk.is_allocated(frame) {
                continue;
            }
            match disk.read_page_retry_with(frame, |p| writer(p.lsn)) {
                Ok(txn) => {
                    report.max_stamp = report.max_stamp.max(txn);
                    if !record.committed(txn) {
                        *aborted.entry(txn).or_default() += 1;
                    }
                }
                Err(_) => report.torn_slots += 1,
            }
        }
        report.high = record.high;
        report.undecided = aborted.len() as u64;
        let store = VersionStore {
            txns: TxnTable::new(report.max_stamp.max(record.high) + 1),
            cfg,
            disk,
            record,
            record_version,
            aborted,
            stats: VersionStats::default(),
        };
        Ok((store, report))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> VersionStats {
        self.stats
    }

    /// Begin a transaction.
    pub fn begin(&mut self) -> TxnId {
        self.txns.begin(|_| BTreeMap::new())
    }

    /// Read both twin blocks of `page`: each one that is allocated, passes
    /// its checksum and belongs to `page` (a torn twin reads as `None`).
    fn twins(&mut self, page: u64) -> [Option<Page>; 2] {
        [2 * page, 2 * page + 1].map(|slot| {
            self.stats.slot_reads += 1;
            if !self.disk.is_allocated(slot) {
                return None;
            }
            self.disk
                .read_page_retry(slot)
                .ok()
                .filter(|p| p.id == PageId(page))
        })
    }

    /// The version-selection algorithm: of the twins whose writer
    /// committed, the one whose version follows the other's. `None` if
    /// the page was never committed.
    fn current(&self, twins: &[Option<Page>; 2]) -> Option<usize> {
        let committed = |i: usize| {
            let p = twins[i].as_ref()?;
            self.record.committed(writer(p.lsn)).then_some(p)
        };
        match (committed(0), committed(1)) {
            (Some(a), Some(b)) => Some(usize::from(version(b.lsn) == (version(a.lsn) + 1) & 3)),
            (Some(_), None) => Some(0),
            (None, Some(_)) => Some(1),
            (None, None) => None,
        }
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
        check_bounds(page, offset, len, self.cfg.logical_pages)?;
        if let Some((_, p)) = self.txns.get(txn)?.get(&page) {
            return Ok(p.read_at(offset, len).to_vec());
        }
        let twins = self.twins(page);
        Ok(match self.current(&twins).and_then(|i| twins[i].as_ref()) {
            Some(p) => p.read_at(offset, len).to_vec(),
            None => vec![0; len],
        })
    }

    /// Write bytes under an exclusive page lock; the non-current twin block
    /// is written through immediately, stamped with this transaction's id
    /// and the page's next version.
    pub fn write(
        &mut self,
        txn: TxnId,
        page: u64,
        offset: usize,
        data: &[u8],
    ) -> Result<(), ShadowError> {
        check_bounds(page, offset, data.len(), self.cfg.logical_pages)?;
        // the id whose block the first write of the page replaces
        let mut displaced = None;
        let first_touch = !self
            .txns
            .lock(txn, page, LockMode::Exclusive)?
            .contains_key(&page);
        if first_touch {
            let mut twins = self.twins(page);
            // write the twin of the current block
            let (twin, mut base) = match self.current(&twins) {
                Some(i) => (1 - i, twins[i].take().expect("selected")),
                None => (0, Page::new(PageId(page))),
            };
            displaced = twins[twin].as_ref().map(|p| writer(p.lsn));
            base.lsn = Lsn(txn << 2 | (version(base.lsn) + 1) & 3);
            self.txns
                .get_mut(txn)?
                .insert(page, (2 * page + twin as u64, base));
        }
        let (slot, work) = self
            .txns
            .get_mut(txn)?
            .get_mut(&page)
            .expect("materialized");
        work.write_at(offset, data);
        self.disk.write_page_verified(*slot, work)?;
        self.stats.slot_writes += 1;
        // that block is gone (after a failed write it stays counted)
        if let Some(left) = displaced.and_then(|w| self.aborted.get_mut(&w)) {
            *left -= 1;
        }
        Ok(())
    }

    /// Commit: one atomic commit-record write makes every block the
    /// transaction stamped current at once. On any error, including
    /// [`ShadowError::SpaceExhausted`] when the undecided ids overflow the
    /// record's frame, the transaction stays open.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), ShadowError> {
        self.txns.get(txn)?;
        self.aborted.retain(|_, blocks| *blocks > 0);
        let pending = self.txns.ids().chain(self.aborted.keys().copied());
        let record = self.record.commit(txn, pending);
        let mut page = Page::new(RECORD_ID);
        if !record.encode(&mut page, 0) {
            return Err(ShadowError::SpaceExhausted);
        }
        let version = self.record_version + 1;
        Self::record_pair(&self.cfg).write(&mut self.disk, version, page)?;
        (self.record, self.record_version) = (record, version);
        self.stats.commit_writes += 1;
        self.txns.end(txn)?;
        Ok(())
    }

    /// Abort: discard the working set and release locks. Zero writes: the
    /// stamped twin blocks never become current, and the next writer of
    /// each page recycles them.
    pub fn abort(&mut self, txn: TxnId) -> Result<(), ShadowError> {
        let pages = self.txns.end(txn)?;
        self.aborted.insert(txn, pages.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmdb_storage::FRAME_SIZE;

    fn cfg() -> VersionConfig {
        VersionConfig { logical_pages: 16 }
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
        assert_eq!((report.high, report.undecided), (t0, 1));
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
        // Crash between slot writes and the commit-record write: no page
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
                    .map(|p| writer(p.lsn) == t1)
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
    fn commits_run_past_the_old_commit_list_capacity() {
        // 8 frames of 508 ids once held the whole run; the record holds
        // only the undecided ids, so the count no longer matters
        let cfg = VersionConfig { logical_pages: 4 };
        let mut s = VersionStore::new(cfg.clone());
        for i in 0..4_200u32 {
            let t = s.begin();
            s.write(t, (i % 4) as u64, 0, &i.to_le_bytes()).unwrap();
            if i % 5 == 4 {
                s.abort(t).unwrap();
            } else {
                s.commit(t).unwrap();
            }
        }
        assert_eq!(committed_read(&mut s, 3, 0, 4), 4_195u32.to_le_bytes());
        assert!(s.record.undecided.len() <= 4, "one stale twin per page");
        let (mut s2, report) = VersionStore::recover(s.crash_image(), cfg).unwrap();
        assert_eq!(report.high, 4_199);
        assert!(report.undecided <= 4);
        assert_eq!(committed_read(&mut s2, 3, 0, 4), 4_195u32.to_le_bytes());
    }

    #[test]
    fn twins_committed_out_of_id_order_pick_the_later_commit() {
        let mut s = VersionStore::new(cfg());
        let t0 = s.begin();
        s.write(t0, 2, 0, b"zero").unwrap();
        s.commit(t0).unwrap();
        // T4 and T5 open; T5 writes the page and commits first
        let t4 = s.begin();
        let t5 = s.begin();
        s.write(t5, 2, 0, b"five").unwrap();
        s.commit(t5).unwrap();
        assert_eq!(s.record.undecided.iter().copied().collect::<Vec<_>>(), [t4]);
        // T4 writes the other twin and commits: both twins are committed,
        // and the newer one has the smaller id
        s.write(t4, 2, 0, b"four").unwrap();
        s.commit(t4).unwrap();
        assert!(s.record.undecided.is_empty());
        assert_eq!(committed_read(&mut s, 2, 0, 4), b"four");
        let (mut s2, _) = VersionStore::recover(s.crash_image(), cfg()).unwrap();
        assert_eq!(committed_read(&mut s2, 2, 0, 4), b"four");
    }

    #[test]
    fn an_abort_leaves_the_record_once_its_blocks_are_overwritten() {
        let mut s = VersionStore::new(cfg());
        let t = s.begin();
        s.write(t, 1, 0, b"a").unwrap();
        s.commit(t).unwrap();
        let loser = s.begin();
        s.write(loser, 1, 0, b"x").unwrap();
        s.write(loser, 2, 0, b"x").unwrap();
        s.abort(loser).unwrap();
        // a commit past it lists it while its two blocks survive
        let t = s.begin();
        s.write(t, 3, 0, b"c").unwrap();
        s.commit(t).unwrap();
        assert!(s.record.undecided.contains(&loser));
        // page 1's next writer overwrites one block; page 2's the other
        for page in [1, 2] {
            let t = s.begin();
            s.write(t, page, 0, b"n").unwrap();
            s.commit(t).unwrap();
        }
        let t = s.begin();
        s.write(t, 3, 0, b"d").unwrap();
        s.commit(t).unwrap();
        assert!(s.record.undecided.is_empty());
        assert_eq!(committed_read(&mut s, 2, 0, 1), b"n");
        // an abort that wrote nothing leaves at the next commit
        let idle = s.begin();
        s.abort(idle).unwrap();
        let t = s.begin();
        s.commit(t).unwrap();
        assert!(s.record.undecided.is_empty() && s.aborted.is_empty());
    }

    #[test]
    fn a_full_record_fails_the_commit_and_leaves_it_open() {
        let mut s = VersionStore::new(cfg());
        let open: Vec<_> = (0..600).map(|_| s.begin()).collect();
        let last = s.begin();
        assert_eq!(s.commit(last), Err(ShadowError::SpaceExhausted));
        for t in open {
            s.abort(t).unwrap();
        }
        s.commit(last).unwrap();
    }

    #[test]
    fn never_written_page_reads_zero() {
        let mut s = VersionStore::new(cfg());
        assert_eq!(committed_read(&mut s, 9, 0, 8), vec![0; 8]);
    }
}
