//! The overwriting architectures (paper §3.2.2.2): shadow copies without a
//! page table, staged through a scratch ring buffer.
//!
//! Both variants keep a separate current/shadow pair **only while the
//! updating transaction is active**; on completion the shadow is
//! overwritten with the current copy in its home location, so pages never
//! move (preserving physical sequentiality — the property that rescues
//! sequential workloads on parallel-access disks in Tables 7–8).
//!
//! * [`NoUndoStore`] — updates live in memory until commit; commit first
//!   writes every updated page to the scratch area, then makes one atomic
//!   *intent directory* write (the commit point), then installs the pages
//!   over their shadows and retires the directory. Recovery **re-installs**
//!   (redoes) committed-but-uninstalled transactions and never undoes.
//! * [`NoRedoStore`] — the first touch of each page saves the original to
//!   the scratch area (and records it in the transaction's directory)
//!   before the home copy is overwritten in place; all updates are on disk
//!   before commit. Recovery **restores shadows** (undoes) transactions
//!   whose directory is still live and never redoes.
//!
//! A transaction's directory lives in a single scratch frame, so its state
//! transitions (live → done) are atomic; the paper's "list of
//! (un)committed transactions that must survive a crash" is exactly the
//! set of live directories.

use crate::pagetable::{check_bounds, ShadowError, TxnId};
use crate::scratch::ScratchRing;
use rmdb_storage::fault::FaultHandle;
use rmdb_storage::{
    Disk, LockMode, Lsn, MemDisk, Page, PageId, StorageError, TxnTable, PAYLOAD_SIZE,
};
use std::collections::BTreeMap;

/// High bit marking a frame as a transaction directory.
const DIR_ID_BIT: u64 = 1 << 63;
/// Directory states.
const DIR_LIVE: u8 = 1;
const DIR_DONE: u8 = 2;
/// Max (page, slot) pairs a single-frame directory can hold.
pub const MAX_TXN_PAGES: usize = (PAYLOAD_SIZE - 13) / 16;

/// Configuration shared by both overwriting stores.
#[derive(Debug, Clone)]
pub struct OverwriteConfig {
    /// Logical pages (home frames `0..logical_pages`).
    pub logical_pages: u64,
    /// Scratch slots following the home area.
    pub scratch_slots: u64,
}

impl Default for OverwriteConfig {
    fn default() -> Self {
        OverwriteConfig {
            logical_pages: 128,
            scratch_slots: 64,
        }
    }
}

/// Crash image: the single disk (home area + scratch ring).
#[derive(Debug)]
pub struct OverwriteImage {
    /// Durable disk contents.
    pub disk: Disk,
}

/// What recovery did.
#[derive(Debug, Clone, Default)]
pub struct OverwriteRecoveryReport {
    /// Transactions completed (no-undo: re-installed; no-redo: rolled back).
    pub txns_processed: u64,
    /// Pages copied between scratch and home.
    pub pages_copied: u64,
    /// Directories already done (nothing to do).
    pub done_directories: u64,
}

/// Access statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverwriteStats {
    /// Pages written to the scratch area.
    pub scratch_writes: u64,
    /// Pages copied from scratch over their shadows (installs/restores).
    pub overwrites: u64,
    /// Directory frame writes.
    pub dir_writes: u64,
    /// Commits.
    pub commits: u64,
    /// Aborts.
    pub aborts: u64,
}

fn encode_dir(state: u8, txn: TxnId, entries: &[(u64, u64)], dir_slot: u64) -> Page {
    assert!(entries.len() <= MAX_TXN_PAGES, "directory overflow");
    let mut p = Page::new(PageId(DIR_ID_BIT | dir_slot));
    p.lsn = Lsn(txn);
    p.write_at(0, &[state]);
    p.write_at(1, &txn.to_le_bytes());
    p.write_at(9, &(entries.len() as u32).to_le_bytes());
    for (i, (page, slot)) in entries.iter().enumerate() {
        p.write_at(13 + 16 * i, &page.to_le_bytes());
        p.write_at(13 + 16 * i + 8, &slot.to_le_bytes());
    }
    p
}

/// `(state, txn, entries)` decoded from a directory frame.
type DirContents = (u8, TxnId, Vec<(u64, u64)>);

fn decode_dir(p: &Page) -> Option<DirContents> {
    if p.id.0 & DIR_ID_BIT == 0 {
        return None;
    }
    let state = p.read_at(0, 1)[0];
    if state != DIR_LIVE && state != DIR_DONE {
        return None;
    }
    let txn = u64::from_le_bytes(p.read_at(1, 8).try_into().unwrap());
    let n = u32::from_le_bytes(p.read_at(9, 4).try_into().unwrap()) as usize;
    if n > MAX_TXN_PAGES {
        return None;
    }
    let entries = (0..n)
        .map(|i| {
            (
                u64::from_le_bytes(p.read_at(13 + 16 * i, 8).try_into().unwrap()),
                u64::from_le_bytes(p.read_at(13 + 16 * i + 8, 8).try_into().unwrap()),
            )
        })
        .collect();
    Some((state, txn, entries))
}

/// Scan the scratch region for directories; returns `(addr, state, txn,
/// entries)` for each decodable directory frame.
type DirScan = Vec<(u64, u8, TxnId, Vec<(u64, u64)>)>;

fn scan_directories(disk: &Disk, ring: &ScratchRing) -> DirScan {
    let mut found = Vec::new();
    for addr in ring.base()..ring.base() + ring.capacity() {
        if !disk.is_allocated(addr) {
            continue;
        }
        if let Ok(page) = disk.read_page_retry(addr) {
            if let Some((state, txn, entries)) = decode_dir(&page) {
                // A frame that decodes but references pages or slots outside
                // the store is garbage wearing a directory id — skip it.
                let sane = entries
                    .iter()
                    .all(|&(p, s)| p < ring.base() && ring.contains(s));
                if sane {
                    found.push((addr, state, txn, entries));
                }
            }
        }
    }
    found
}

// ---------------------------------------------------------------------------
// No-undo
// ---------------------------------------------------------------------------

/// The no-undo overwriting store: commit = stage to scratch, write intent,
/// install over shadows.
pub struct NoUndoStore {
    cfg: OverwriteConfig,
    disk: Disk,
    ring: ScratchRing,
    /// Open transactions: page → working copy.
    txns: TxnTable<BTreeMap<u64, Page>>,
    stats: OverwriteStats,
}

impl NoUndoStore {
    /// A fresh store.
    pub fn new(cfg: OverwriteConfig) -> Self {
        let disk = Disk::from(MemDisk::new(cfg.logical_pages + cfg.scratch_slots));
        let ring = ScratchRing::new(cfg.logical_pages, cfg.scratch_slots);
        NoUndoStore {
            txns: TxnTable::new(1),
            stats: OverwriteStats::default(),
            disk,
            ring,
            cfg,
        }
    }

    /// Capture durable state.
    pub fn crash_image(&self) -> OverwriteImage {
        OverwriteImage {
            disk: self.disk.snapshot(),
        }
    }

    /// Attach one shared fault injector to the disk.
    pub fn attach_faults(&mut self, handle: &FaultHandle) {
        self.disk.attach_faults(handle.clone());
    }

    /// Recovery: finish the installs of every committed transaction whose
    /// intent directory is still live. Nothing is ever undone — home pages
    /// of uncommitted transactions were never touched.
    pub fn recover(
        image: OverwriteImage,
        cfg: OverwriteConfig,
    ) -> Result<(Self, OverwriteRecoveryReport), ShadowError> {
        let mut disk = image.disk;
        let mut ring = ScratchRing::new(cfg.logical_pages, cfg.scratch_slots);
        let mut report = OverwriteRecoveryReport::default();
        let mut max_txn = 0;
        for (addr, state, txn, entries) in scan_directories(&disk, &ring) {
            max_txn = max_txn.max(txn);
            match state {
                DIR_LIVE => {
                    // committed but not (fully) installed: redo the install
                    for &(page, slot) in &entries {
                        let staged = disk.read_page_retry(slot)?;
                        if staged.id != PageId(page) {
                            return Err(ShadowError::Storage(StorageError::Protocol(
                                "staged page does not match its directory entry",
                            )));
                        }
                        disk.write_page_verified(page, &staged)?;
                        report.pages_copied += 1;
                    }
                    let done = encode_dir(DIR_DONE, txn, &entries, addr - cfg.logical_pages);
                    disk.write_page_verified(addr, &done)?;
                    report.txns_processed += 1;
                }
                _ => report.done_directories += 1,
            }
        }
        // all slots are reusable now (every directory is done)
        let _ = &mut ring;
        Ok((
            NoUndoStore {
                txns: TxnTable::new(max_txn + 1),
                stats: OverwriteStats::default(),
                disk,
                ring,
                cfg,
            },
            report,
        ))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> OverwriteStats {
        self.stats
    }

    /// Begin a transaction.
    pub fn begin(&mut self) -> TxnId {
        self.txns.begin(|_| BTreeMap::new())
    }

    /// Read bytes (own working version, else the home copy — the shadow
    /// stays in its original location while the transaction is active).
    pub fn read(
        &mut self,
        txn: TxnId,
        page: u64,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, ShadowError> {
        check_bounds(page, offset, len, self.cfg.logical_pages)?;
        if let Some(p) = self.txns.get(txn)?.get(&page) {
            return Ok(p.read_at(offset, len).to_vec());
        }
        if self.disk.is_allocated(page) {
            let p = self.disk.read_page_retry(page)?;
            Ok(p.read_at(offset, len).to_vec())
        } else {
            Ok(vec![0; len])
        }
    }

    /// Write bytes under an exclusive page lock; the home copy is not
    /// touched until commit.
    pub fn write(
        &mut self,
        txn: TxnId,
        page: u64,
        offset: usize,
        data: &[u8],
    ) -> Result<(), ShadowError> {
        check_bounds(page, offset, data.len(), self.cfg.logical_pages)?;
        let delta = self.txns.lock(txn, page, LockMode::Exclusive)?;
        if !delta.contains_key(&page) {
            if delta.len() >= MAX_TXN_PAGES {
                return Err(ShadowError::SpaceExhausted);
            }
            let base = if self.disk.is_allocated(page) {
                self.disk.read_page_retry(page)?
            } else {
                Page::new(PageId(page))
            };
            delta.insert(page, base);
        }
        delta
            .get_mut(&page)
            .expect("materialized")
            .write_at(offset, data);
        Ok(())
    }

    /// Stage + intent: the first half of commit (everything up to and
    /// including the atomic commit point). Split out so tests can inject a
    /// crash between commit and install.
    ///
    /// A failure before the intent write returns the slots to the ring
    /// and leaves the transaction open, so [`NoUndoStore::abort`] releases
    /// its locks. A failed intent write strands it
    /// ([`TxnTable::strand`]): the directory may be on disk, so its slots
    /// and locks stay held.
    #[doc(hidden)]
    pub fn commit_stage(&mut self, txn: TxnId) -> Result<(u64, Vec<(u64, u64)>), ShadowError> {
        let delta = self.txns.get_mut(txn)?;
        let n = delta.len();
        // the caller may retry after others finish
        let slots = self
            .ring
            .alloc_many(n + 1)
            .ok_or(ShadowError::SpaceExhausted)?;
        let dir_addr = slots[n];
        let mut entries = Vec::with_capacity(n);
        for ((&page, work), &slot) in delta.iter_mut().zip(&slots) {
            work.id = PageId(page);
            work.lsn = Lsn(txn);
            if let Err(e) = self.disk.write_page_verified(slot, work) {
                // no directory names the slots yet
                for slot in slots {
                    self.ring.release(slot);
                }
                return Err(e.into());
            }
            self.stats.scratch_writes += 1;
            entries.push((page, slot));
        }
        // the atomic commit point: one frame write
        let dir = encode_dir(DIR_LIVE, txn, &entries, dir_addr - self.cfg.logical_pages);
        if let Err(e) = self.disk.write_page_verified(dir_addr, &dir) {
            self.txns.strand(txn)?;
            return Err(e.into());
        }
        self.stats.dir_writes += 1;
        Ok((dir_addr, entries))
    }

    /// Install + retire: the second half of commit. Past the commit point,
    /// so a failure strands the transaction; recovery finishes the install.
    #[doc(hidden)]
    pub fn commit_install(
        &mut self,
        txn: TxnId,
        dir_addr: u64,
        entries: Vec<(u64, u64)>,
    ) -> Result<(), ShadowError> {
        if let Err(e) = self.install(txn, dir_addr, &entries) {
            self.txns.strand(txn)?;
            return Err(e);
        }
        for &(_, slot) in &entries {
            self.ring.release(slot);
        }
        self.ring.release(dir_addr);
        // locks release only after the shadows are overwritten (paper)
        self.txns.end(txn)?;
        self.stats.commits += 1;
        Ok(())
    }

    /// Copy the staged pages over their shadows, then retire the directory.
    fn install(
        &mut self,
        txn: TxnId,
        dir_addr: u64,
        entries: &[(u64, u64)],
    ) -> Result<(), ShadowError> {
        for &(page, slot) in entries {
            let staged = self.disk.read_page_retry(slot)?;
            self.disk.write_page_verified(page, &staged)?;
            self.stats.overwrites += 1;
        }
        let done = encode_dir(DIR_DONE, txn, entries, dir_addr - self.cfg.logical_pages);
        self.disk.write_page_verified(dir_addr, &done)?;
        self.stats.dir_writes += 1;
        Ok(())
    }

    /// Commit: stage updated pages to scratch, write the intent directory
    /// (commit point), install over the shadows, retire the directory.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), ShadowError> {
        let (dir_addr, entries) = self.commit_stage(txn)?;
        self.commit_install(txn, dir_addr, entries)
    }

    /// Abort: drop the in-memory working set. The disk never saw anything.
    pub fn abort(&mut self, txn: TxnId) -> Result<(), ShadowError> {
        self.txns.end(txn)?;
        self.stats.aborts += 1;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// No-redo
// ---------------------------------------------------------------------------

#[derive(Default)]
struct NoRedoTxn {
    /// The pair of scratch slots this transaction's directory ping-pongs
    /// between (`None` until the first write). The directory grows on every
    /// first touch, and it is the only thing standing between a scribbled
    /// home page and its saved shadow — a single slot rewritten in place
    /// would be destroyed by a crash-torn write, so successive versions
    /// alternate slots and recovery follows the survivor with the most
    /// entries.
    dir_slots: Option<(u64, u64)>,
    /// Alternation counter selecting which slot the next version hits.
    dir_writes: u64,
    /// page → scratch slot holding its shadow (original) copy
    saved: BTreeMap<u64, u64>,
    /// in-memory copies of the pages being edited (avoid rereads)
    working: BTreeMap<u64, Page>,
}

/// The no-redo overwriting store: shadows saved to scratch up front,
/// updates written home in place, commit retires the directory.
pub struct NoRedoStore {
    cfg: OverwriteConfig,
    disk: Disk,
    ring: ScratchRing,
    txns: TxnTable<NoRedoTxn>,
    stats: OverwriteStats,
}

impl NoRedoStore {
    /// A fresh store.
    pub fn new(cfg: OverwriteConfig) -> Self {
        let disk = Disk::from(MemDisk::new(cfg.logical_pages + cfg.scratch_slots));
        let ring = ScratchRing::new(cfg.logical_pages, cfg.scratch_slots);
        NoRedoStore {
            txns: TxnTable::new(1),
            stats: OverwriteStats::default(),
            disk,
            ring,
            cfg,
        }
    }

    /// Capture durable state.
    pub fn crash_image(&self) -> OverwriteImage {
        OverwriteImage {
            disk: self.disk.snapshot(),
        }
    }

    /// Attach one shared fault injector to the disk.
    pub fn attach_faults(&mut self, handle: &FaultHandle) {
        self.disk.attach_faults(handle.clone());
    }

    /// Recovery: every live directory belongs to an **uncommitted**
    /// transaction — restore its shadows from scratch (undo). Committed
    /// transactions need nothing: their updates were all home before
    /// commit (no redo, by construction).
    ///
    /// Directories ping-pong between two slots, so a transaction may leave
    /// several decodable frames behind. Any `DONE` frame means the
    /// transaction completed (commit and abort stamp both slots); otherwise
    /// the `LIVE` frame with the most entries is the newest durable
    /// directory — the crash tore at most the version after it, whose new
    /// page was never scribbled home.
    pub fn recover(
        image: OverwriteImage,
        cfg: OverwriteConfig,
    ) -> Result<(Self, OverwriteRecoveryReport), ShadowError> {
        let mut disk = image.disk;
        let ring = ScratchRing::new(cfg.logical_pages, cfg.scratch_slots);
        let mut report = OverwriteRecoveryReport::default();
        let mut max_txn = 0;
        // txn → (saw a DONE frame, live frames as (addr, entries))
        type TxnDirs = (bool, Vec<(u64, Vec<(u64, u64)>)>);
        let mut by_txn: BTreeMap<TxnId, TxnDirs> = BTreeMap::new();
        for (addr, state, txn, entries) in scan_directories(&disk, &ring) {
            max_txn = max_txn.max(txn);
            let dirs = by_txn.entry(txn).or_default();
            if state == DIR_DONE {
                dirs.0 = true;
            } else {
                dirs.1.push((addr, entries));
            }
        }
        for (txn, (done, lives)) in by_txn {
            if done {
                report.done_directories += 1;
                continue;
            }
            let Some((_, entries)) = lives.iter().max_by_key(|(_, e)| e.len()) else {
                continue;
            };
            for &(page, slot) in entries {
                let shadow = disk.read_page_retry(slot)?;
                if shadow.id != PageId(page) {
                    return Err(ShadowError::Storage(StorageError::Protocol(
                        "saved shadow does not match its directory entry",
                    )));
                }
                disk.write_page_verified(page, &shadow)?;
                report.pages_copied += 1;
            }
            // retire every frame the transaction left behind
            for (addr, entries) in &lives {
                let retired = encode_dir(DIR_DONE, txn, entries, addr - cfg.logical_pages);
                disk.write_page_verified(*addr, &retired)?;
            }
            report.txns_processed += 1;
        }
        Ok((
            NoRedoStore {
                txns: TxnTable::new(max_txn + 1),
                stats: OverwriteStats::default(),
                disk,
                ring,
                cfg,
            },
            report,
        ))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> OverwriteStats {
        self.stats
    }

    /// Begin a transaction: allocates its directory slot lazily on first
    /// write.
    pub fn begin(&mut self) -> TxnId {
        self.txns.begin(|_| NoRedoTxn::default())
    }

    /// Read bytes (home copies are always current under no-redo).
    pub fn read(
        &mut self,
        txn: TxnId,
        page: u64,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, ShadowError> {
        check_bounds(page, offset, len, self.cfg.logical_pages)?;
        if let Some(p) = self.txns.get(txn)?.working.get(&page) {
            return Ok(p.read_at(offset, len).to_vec());
        }
        if self.disk.is_allocated(page) {
            let p = self.disk.read_page_retry(page)?;
            Ok(p.read_at(offset, len).to_vec())
        } else {
            Ok(vec![0; len])
        }
    }

    /// Write the next version of the transaction's directory into the slot
    /// the previous version did NOT use.
    fn write_dir(&mut self, txn: TxnId) -> Result<(), ShadowError> {
        let state = self.txns.get_mut(txn)?;
        let (a, b) = state
            .dir_slots
            .expect("dir slots allocated before write_dir");
        let addr = if state.dir_writes.is_multiple_of(2) {
            a
        } else {
            b
        };
        let entries: Vec<(u64, u64)> = state.saved.iter().map(|(&p, &s)| (p, s)).collect();
        let dir = encode_dir(DIR_LIVE, txn, &entries, addr - self.cfg.logical_pages);
        self.disk.write_page_verified(addr, &dir)?;
        state.dir_writes += 1;
        self.stats.dir_writes += 1;
        Ok(())
    }

    /// Write bytes: the first touch of a page saves its shadow to scratch
    /// and records it in the directory **before** the home copy changes;
    /// the update itself is written home immediately (all updates are on
    /// disk before commit — that is what makes redo unnecessary).
    pub fn write(
        &mut self,
        txn: TxnId,
        page: u64,
        offset: usize,
        data: &[u8],
    ) -> Result<(), ShadowError> {
        check_bounds(page, offset, data.len(), self.cfg.logical_pages)?;
        let state = self.txns.lock(txn, page, LockMode::Exclusive)?;
        if !state.saved.contains_key(&page) {
            if state.saved.len() >= MAX_TXN_PAGES {
                return Err(ShadowError::SpaceExhausted);
            }
            let needs_dir = state.dir_slots.is_none();
            let Some(slots) = self.ring.alloc_many(1 + 2 * usize::from(needs_dir)) else {
                return Err(ShadowError::SpaceExhausted);
            };
            let save_slot = slots[0];
            if needs_dir {
                state.dir_slots = Some((slots[1], slots[2]));
            }
            // 1. save the shadow
            let original = if self.disk.is_allocated(page) {
                self.disk.read_page_retry(page)?
            } else {
                Page::new(PageId(page))
            };
            self.disk.write_page_verified(save_slot, &original)?;
            self.stats.scratch_writes += 1;
            // 2. record it in the directory (durable before the overwrite)
            state.saved.insert(page, save_slot);
            state.working.insert(page, original);
            self.write_dir(txn)?;
        }
        // 3. update the home copy in place
        let st = self.txns.get_mut(txn)?;
        let work = st.working.get_mut(&page).expect("saved implies working");
        work.write_at(offset, data);
        work.lsn = Lsn(txn);
        let copy = work.clone();
        self.disk.write_page_verified(page, &copy)?;
        self.stats.overwrites += 1;
        Ok(())
    }

    /// Restore every saved shadow over its home copy when `undo`, then
    /// stamp `DONE` into both directory slots (so no stale `LIVE` version
    /// can survive the slots' release) and return the scratch space.
    fn retire_dirs(
        &mut self,
        txn: TxnId,
        slots: (u64, u64),
        saved: BTreeMap<u64, u64>,
        undo: bool,
    ) -> Result<(), ShadowError> {
        if undo {
            for (&page, &slot) in &saved {
                let shadow = self.disk.read_page_retry(slot)?;
                self.disk.write_page_verified(page, &shadow)?;
                self.stats.overwrites += 1;
            }
        }
        let entries: Vec<(u64, u64)> = saved.iter().map(|(&p, &s)| (p, s)).collect();
        for addr in [slots.0, slots.1] {
            let done = encode_dir(DIR_DONE, txn, &entries, addr - self.cfg.logical_pages);
            self.disk.write_page_verified(addr, &done)?;
            self.stats.dir_writes += 1;
        }
        for (_, slot) in saved {
            self.ring.release(slot);
        }
        self.ring.release(slots.0);
        self.ring.release(slots.1);
        Ok(())
    }

    /// Commit: everything is already on disk; retiring the directory is
    /// the atomic commit point. Locks release after; a failed retire
    /// strands the transaction ([`TxnTable::strand`]).
    pub fn commit(&mut self, txn: TxnId) -> Result<(), ShadowError> {
        self.finish(txn, false)?;
        self.stats.commits += 1;
        Ok(())
    }

    /// Abort: restore every shadow from scratch over the home copy, then
    /// retire the directory. A failure part-way strands the transaction:
    /// its live directory lets recovery finish the undo.
    pub fn abort(&mut self, txn: TxnId) -> Result<(), ShadowError> {
        self.finish(txn, true)?;
        self.stats.aborts += 1;
        Ok(())
    }

    /// End `txn`, restoring its shadows first when `undo`.
    fn finish(&mut self, txn: TxnId, undo: bool) -> Result<(), ShadowError> {
        let state = self.txns.get_mut(txn)?;
        let (slots, saved) = (state.dir_slots, std::mem::take(&mut state.saved));
        if let Some(slots) = slots {
            if let Err(e) = self.retire_dirs(txn, slots, saved, undo) {
                self.txns.strand(txn)?;
                return Err(e);
            }
        }
        self.txns.end(txn)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OverwriteConfig {
        OverwriteConfig {
            logical_pages: 32,
            scratch_slots: 16,
        }
    }

    mod no_undo {
        use super::*;

        fn committed_read(s: &mut NoUndoStore, page: u64, off: usize, len: usize) -> Vec<u8> {
            let t = s.begin();
            let v = s.read(t, page, off, len).unwrap();
            s.abort(t).unwrap();
            v
        }

        #[test]
        fn commit_overwrites_shadow_in_place() {
            let mut s = NoUndoStore::new(cfg());
            let t = s.begin();
            s.write(t, 3, 0, b"new").unwrap();
            assert_eq!(committed_read(&mut s, 3, 0, 3), vec![0; 3]);
            s.commit(t).unwrap();
            assert_eq!(committed_read(&mut s, 3, 0, 3), b"new");
            // page stayed at its home address — no relocation
            let img = s.crash_image();
            assert_eq!(img.disk.read_page(3).unwrap().read_at(0, 3), b"new");
        }

        #[test]
        fn abort_is_free_and_traceless() {
            let mut s = NoUndoStore::new(cfg());
            let t = s.begin();
            s.write(t, 1, 0, b"junk").unwrap();
            let writes_before_abort = s.crash_image().disk.writes();
            s.abort(t).unwrap();
            assert_eq!(committed_read(&mut s, 1, 0, 4), vec![0; 4]);
            assert_eq!(s.stats().scratch_writes, 0, "no-undo aborts touch no disk");
            let _ = writes_before_abort;
        }

        #[test]
        fn write_rides_a_transient_fault_on_its_base_read() {
            use rmdb_storage::{FaultInjector, FaultPlan};
            let mut s = NoUndoStore::new(cfg());
            let t0 = s.begin();
            s.write(t0, 2, 0, b"base").unwrap();
            s.commit(t0).unwrap();
            // read 0 of the fresh plan is the write's base-image read
            s.attach_faults(&FaultInjector::handle(
                FaultPlan::new().transient_read(0, 1),
            ));
            let t = s.begin();
            s.write(t, 2, 4, b"more").unwrap();
            s.commit(t).unwrap();
            assert_eq!(committed_read(&mut s, 2, 0, 8), b"basemore");
            let (mut s2, _) = NoUndoStore::recover(s.crash_image(), cfg()).unwrap();
            assert_eq!(committed_read(&mut s2, 2, 0, 8), b"basemore");
        }

        #[test]
        fn crash_before_intent_loses_txn() {
            let mut s = NoUndoStore::new(cfg());
            let t0 = s.begin();
            s.write(t0, 1, 0, b"base").unwrap();
            s.commit(t0).unwrap();
            let t = s.begin();
            s.write(t, 1, 0, b"half").unwrap();
            // crash before commit: delta was memory-only
            let (mut s2, report) = NoUndoStore::recover(s.crash_image(), cfg()).unwrap();
            assert_eq!(committed_read(&mut s2, 1, 0, 4), b"base");
            assert_eq!(report.txns_processed, 0);
        }

        #[test]
        fn crash_between_intent_and_install_redoes_install() {
            let mut s = NoUndoStore::new(cfg());
            let t = s.begin();
            s.write(t, 4, 0, b"AAAA").unwrap();
            s.write(t, 5, 0, b"BBBB").unwrap();
            let (_dir, _entries) = s.commit_stage(t).unwrap(); // commit point passed
            let image = s.crash_image(); // crash before install
            assert!(!image.disk.is_allocated(4), "home not yet written");
            let (mut s2, report) = NoUndoStore::recover(image, cfg()).unwrap();
            assert_eq!(report.txns_processed, 1);
            assert_eq!(report.pages_copied, 2);
            assert_eq!(committed_read(&mut s2, 4, 0, 4), b"AAAA");
            assert_eq!(committed_read(&mut s2, 5, 0, 4), b"BBBB");
        }

        #[test]
        fn recovery_is_idempotent() {
            let mut s = NoUndoStore::new(cfg());
            let t = s.begin();
            s.write(t, 4, 0, b"AAAA").unwrap();
            s.commit_stage(t).unwrap();
            let (s2, r1) = NoUndoStore::recover(s.crash_image(), cfg()).unwrap();
            let (mut s3, r2) = NoUndoStore::recover(s2.crash_image(), cfg()).unwrap();
            assert_eq!(r1.txns_processed, 1);
            assert_eq!(r2.txns_processed, 0, "done directory skipped");
            assert_eq!(r2.done_directories, 1);
            assert_eq!(committed_read(&mut s3, 4, 0, 4), b"AAAA");
        }

        #[test]
        fn crash_after_full_commit_preserves() {
            let mut s = NoUndoStore::new(cfg());
            let t = s.begin();
            s.write(t, 9, 0, b"done").unwrap();
            s.commit(t).unwrap();
            let (mut s2, report) = NoUndoStore::recover(s.crash_image(), cfg()).unwrap();
            assert_eq!(committed_read(&mut s2, 9, 0, 4), b"done");
            assert_eq!(report.txns_processed, 0);
        }

        #[test]
        fn scratch_slots_are_recycled() {
            let mut s = NoUndoStore::new(OverwriteConfig {
                logical_pages: 8,
                scratch_slots: 4,
            });
            // each commit uses 2 slots (1 page + dir); 10 commits must fit
            for gen in 0..10u32 {
                let t = s.begin();
                s.write(t, 0, 0, &gen.to_le_bytes()).unwrap();
                s.commit(t).unwrap();
            }
            assert_eq!(committed_read(&mut s, 0, 0, 4), 9u32.to_le_bytes());
        }

        #[test]
        fn scratch_exhaustion_is_reported_and_recoverable() {
            let mut s = NoUndoStore::new(OverwriteConfig {
                logical_pages: 16,
                scratch_slots: 3,
            });
            let t = s.begin();
            for page in 0..4 {
                s.write(t, page, 0, b"x").unwrap();
            }
            // needs 5 slots, only 3 exist
            assert_eq!(s.commit(t), Err(ShadowError::SpaceExhausted));
            // transaction is still alive and can be aborted cleanly
            s.abort(t).unwrap();
        }

        #[test]
        fn a_failed_stage_stays_open_and_its_abort_frees_everything() {
            use rmdb_storage::{FaultInjector, FaultPlan};
            // each commit takes 3 of the 4 slots: slots leaked by a failed
            // stage would leave the next commit without room
            let mut s = NoUndoStore::new(OverwriteConfig {
                logical_pages: 8,
                scratch_slots: 4,
            });
            for round in 0..20u32 {
                let t = s.begin();
                s.write(t, 0, 0, b"lost").unwrap();
                s.write(t, 1, 0, b"lost").unwrap();
                // the first scratch write fails, before the intent write
                s.attach_faults(&FaultInjector::handle(FaultPlan::new().fail_from_write(0)));
                assert!(matches!(s.commit(t), Err(ShadowError::Storage(_))));
                s.attach_faults(&FaultInjector::handle(FaultPlan::new()));
                s.abort(t).unwrap();
                let t = s.begin();
                s.write(t, 0, 0, &round.to_le_bytes()).unwrap();
                s.write(t, 1, 0, &round.to_le_bytes()).unwrap();
                s.commit(t).unwrap();
            }
            assert_eq!(committed_read(&mut s, 1, 0, 4), 19u32.to_le_bytes());
        }

        #[test]
        fn lock_held_until_install_completes() {
            let mut s = NoUndoStore::new(cfg());
            let a = s.begin();
            s.write(a, 2, 0, b"a").unwrap();
            let b = s.begin();
            assert!(matches!(
                s.write(b, 2, 0, b"b"),
                Err(ShadowError::LockConflict { .. })
            ));
            let (dir, entries) = s.commit_stage(a).unwrap();
            // commit point passed but shadows not yet overwritten: paper
            // says locks release only after the overwrite
            assert!(matches!(
                s.write(b, 2, 0, b"b"),
                Err(ShadowError::LockConflict { .. })
            ));
            s.commit_install(a, dir, entries).unwrap();
            s.write(b, 2, 0, b"b").unwrap();
            s.commit(b).unwrap();
        }
    }

    mod no_redo {
        use super::*;

        fn committed_read(s: &mut NoRedoStore, page: u64, off: usize, len: usize) -> Vec<u8> {
            let t = s.begin();
            let v = s.read(t, page, off, len).unwrap();
            s.commit(t).unwrap();
            v
        }

        #[test]
        fn updates_hit_home_immediately() {
            let mut s = NoRedoStore::new(cfg());
            let t = s.begin();
            s.write(t, 3, 0, b"live").unwrap();
            // on disk before commit — that is the no-redo property
            let img = s.crash_image();
            assert_eq!(img.disk.read_page(3).unwrap().read_at(0, 4), b"live");
            s.commit(t).unwrap();
            assert_eq!(committed_read(&mut s, 3, 0, 4), b"live");
        }

        #[test]
        fn abort_restores_shadows() {
            let mut s = NoRedoStore::new(cfg());
            let t0 = s.begin();
            s.write(t0, 1, 0, b"base").unwrap();
            s.commit(t0).unwrap();
            let t = s.begin();
            s.write(t, 1, 0, b"junk").unwrap();
            s.write(t, 1, 2, b"!!").unwrap(); // second write, same page
            s.abort(t).unwrap();
            assert_eq!(committed_read(&mut s, 1, 0, 4), b"base");
        }

        #[test]
        fn crash_mid_txn_restores_shadows() {
            let mut s = NoRedoStore::new(cfg());
            let t0 = s.begin();
            s.write(t0, 1, 0, b"base").unwrap();
            s.write(t0, 2, 0, b"keep").unwrap();
            s.commit(t0).unwrap();
            let t = s.begin();
            s.write(t, 1, 0, b"bad1").unwrap();
            s.write(t, 2, 0, b"bad2").unwrap();
            // crash with home pages scribbled
            let image = s.crash_image();
            assert_eq!(image.disk.read_page(1).unwrap().read_at(0, 4), b"bad1");
            let (mut s2, report) = NoRedoStore::recover(image, cfg()).unwrap();
            assert_eq!(report.txns_processed, 1);
            assert_eq!(report.pages_copied, 2);
            assert_eq!(committed_read(&mut s2, 1, 0, 4), b"base");
            assert_eq!(committed_read(&mut s2, 2, 0, 4), b"keep");
        }

        #[test]
        fn crash_after_commit_needs_no_work() {
            let mut s = NoRedoStore::new(cfg());
            let t = s.begin();
            s.write(t, 7, 0, b"done").unwrap();
            s.commit(t).unwrap();
            let (mut s2, report) = NoRedoStore::recover(s.crash_image(), cfg()).unwrap();
            assert_eq!(report.txns_processed, 0, "no-redo never redoes");
            assert_eq!(committed_read(&mut s2, 7, 0, 4), b"done");
        }

        #[test]
        fn recovery_is_idempotent() {
            let mut s = NoRedoStore::new(cfg());
            let t0 = s.begin();
            s.write(t0, 1, 0, b"base").unwrap();
            s.commit(t0).unwrap();
            let t = s.begin();
            s.write(t, 1, 0, b"bad!").unwrap();
            let (s2, r1) = NoRedoStore::recover(s.crash_image(), cfg()).unwrap();
            let (mut s3, r2) = NoRedoStore::recover(s2.crash_image(), cfg()).unwrap();
            assert_eq!(r1.txns_processed, 1);
            assert_eq!(r2.txns_processed, 0);
            assert_eq!(committed_read(&mut s3, 1, 0, 4), b"base");
        }

        #[test]
        fn two_txns_different_pages_one_commits_one_crashes() {
            let mut s = NoRedoStore::new(cfg());
            let w = s.begin();
            let l = s.begin();
            s.write(w, 1, 0, b"winw").unwrap();
            s.write(l, 2, 0, b"losr").unwrap();
            s.commit(w).unwrap();
            let (mut s2, report) = NoRedoStore::recover(s.crash_image(), cfg()).unwrap();
            assert_eq!(report.txns_processed, 1); // only the loser
            assert_eq!(committed_read(&mut s2, 1, 0, 4), b"winw");
            assert_eq!(committed_read(&mut s2, 2, 0, 4), vec![0; 4]);
        }

        #[test]
        fn scratch_slots_are_recycled() {
            let mut s = NoRedoStore::new(OverwriteConfig {
                logical_pages: 8,
                scratch_slots: 4,
            });
            for gen in 0..10u32 {
                let t = s.begin();
                s.write(t, 0, 0, &gen.to_le_bytes()).unwrap();
                s.commit(t).unwrap();
            }
            assert_eq!(committed_read(&mut s, 0, 0, 4), 9u32.to_le_bytes());
        }

        #[test]
        fn read_only_txn_has_no_directory_cost() {
            let mut s = NoRedoStore::new(cfg());
            let t = s.begin();
            s.read(t, 0, 0, 4).unwrap();
            s.commit(t).unwrap();
            assert_eq!(s.stats().dir_writes, 0);
        }
    }
}
