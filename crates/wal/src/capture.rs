//! The write side of the WAL protocol, shared by both engines.
//!
//! Every update ships a log fragment, and a dirty page may reach the data
//! disk only once its fragment is durable. [`crate::WalDb`] and the
//! concurrent pipeline in `rmdb-exec` differ in locking and threading, not
//! in that protocol, so the pieces of it live here once:
//!
//! * [`Write`] — one executed write, the only record a transaction keeps
//!   of it: the page, the caller's offset and bytes (or add delta), its
//!   undo half ([`UndoEntry`]), the page LSNs before and after, the route
//!   it was made on, and where it was logged. Its `Update` fragment, the
//!   fragment's encoded length, its compensation, its in-memory revert
//!   and its [`LogicalOp`] are all derived from it when needed;
//! * [`WriteLog`] — a transaction's writes in execution order, plus the
//!   deferred capture of [`LoggingPolicy::Command`] /
//!   [`LoggingPolicy::Adaptive`]: one pool pin per distinct page, savepoint
//!   truncation, the spill to fragments, and the commit-time choice of a
//!   command record;
//! * [`Doublewrite`] — the doublewrite slot layout on the data disk: the
//!   verified flush that parks each page image before its home write, and
//!   the harvest recovery repairs torn home frames from.

use crate::db::{LogMode, LoggingPolicy, TxnId, WalConfig};
use crate::record::{LogRecord, LogicalOp, DECISION_COST, DECISION_FORCED};
use rmdb_storage::{BufferPool, Disk, Lsn, Page, PageId, ShardedPool, StorageError};
use std::collections::{BTreeMap, HashMap};

/// One undoable update: enough to restore the bytes it overwrote and to
/// name it in a compensation record. A [`Write`]'s undo half, and what
/// recovery rebuilds from a loser's `Update` fragments.
#[derive(Debug)]
pub struct UndoEntry {
    /// Updated page.
    pub page: PageId,
    /// Payload offset of `before`.
    pub offset: u32,
    /// The overwritten bytes.
    pub before: Vec<u8>,
    /// Page LSN the update stamped.
    pub new_lsn: Lsn,
}

impl UndoEntry {
    /// The compensation record logging this update's undo at `new_lsn`.
    pub fn compensation(&self, txn: TxnId, new_lsn: Lsn) -> LogRecord {
        LogRecord::Compensation {
            txn,
            page: self.page,
            undoes: self.new_lsn,
            new_lsn,
            offset: self.offset,
            data: self.before.clone(),
        }
    }

    /// Restore the overwritten bytes in `page`. The page LSN is left to the
    /// caller: a logged undo stamps its compensation's LSN, an unlogged one
    /// leaves the LSN where the update put it (every later durable record
    /// allocates a higher LSN, so moving past it is safe).
    pub fn revert(&self, page: &mut Page) {
        page.write_at(self.offset as usize, &self.before);
    }
}

/// One executed write.
#[derive(Debug)]
pub struct Write {
    /// The undo half: page, fragment offset, before-image and new LSN.
    /// [`LogMode::Logical`] keeps the overwritten byte range at the
    /// caller's offset; [`LogMode::Physical`] keeps the whole payload at
    /// offset 0.
    pub undo: UndoEntry,
    /// The caller's payload offset.
    pub offset: u32,
    /// The bytes written (for an add, the resulting 8 bytes).
    pub data: Vec<u8>,
    /// `Some(delta)` when the write was an add of `delta`.
    pub add: Option<u64>,
    /// Page LSN before the write.
    pub prev_lsn: Lsn,
    /// Query processor the write was made on (the fragment's route).
    pub route: usize,
    /// Where its fragment was logged: `(stream, position or ticket)`.
    /// `None` while deferred capture holds it back.
    pub logged: Option<(usize, u64)>,
}

impl Write {
    /// The write of `data` at `offset` of `page` (`add` is an add's
    /// delta), captured from the page's pre-image under `mode`, stamping
    /// `new_lsn`. Not logged yet.
    pub fn new(
        page: &Page,
        offset: usize,
        data: &[u8],
        add: Option<u64>,
        mode: LogMode,
        new_lsn: Lsn,
        route: usize,
    ) -> Write {
        let (frag_offset, before) = match mode {
            LogMode::Logical => (offset as u32, page.read_at(offset, data.len()).to_vec()),
            LogMode::Physical => (0, page.payload().to_vec()),
        };
        Write {
            undo: UndoEntry {
                page: page.id,
                offset: frag_offset,
                before,
                new_lsn,
            },
            offset: offset as u32,
            data: data.to_vec(),
            add,
            prev_lsn: page.lsn,
            route,
            logged: None,
        }
    }

    /// Written page.
    pub fn page(&self) -> PageId {
        self.undo.page
    }

    /// Apply the write to `page`: its bytes, then its LSN.
    pub fn apply(&self, page: &mut Page) {
        page.write_at(self.offset as usize, &self.data);
        page.lsn = self.undo.new_lsn;
    }

    /// The `Update` fragment logging this write for `txn`. The after-image
    /// is built from the before-image: the changed range alone, or (for a
    /// physical before-image) the whole payload with the bytes spliced in.
    pub fn fragment(&self, txn: TxnId) -> LogRecord {
        let before = self.undo.before.clone();
        let after = if before.len() == self.data.len() {
            self.data.clone()
        } else {
            let mut after = before.clone();
            let at = self.offset as usize;
            after[at..at + self.data.len()].copy_from_slice(&self.data);
            after
        };
        LogRecord::Update {
            txn,
            page: self.undo.page,
            prev_lsn: self.prev_lsn,
            new_lsn: self.undo.new_lsn,
            offset: self.undo.offset,
            before,
            after,
        }
    }

    /// [`LogRecord::encoded_len`] of [`Write::fragment`], without building
    /// it: a before and an after image of equal length.
    pub fn fragment_len(&self) -> usize {
        LogRecord::update_len(self.undo.before.len(), self.undo.before.len())
    }

    /// The logical op mirroring this write: [`LogicalOp::AddU64`] for an
    /// add, else a [`LogicalOp::Put`] of its bytes.
    pub fn op(&self) -> LogicalOp {
        let (page, lsn, offset) = (self.undo.page, self.undo.new_lsn, self.offset);
        match self.add {
            Some(delta) => LogicalOp::AddU64 {
                page,
                lsn,
                offset,
                delta,
            },
            None => LogicalOp::Put {
                page,
                lsn,
                offset,
                data: self.data.clone(),
            },
        }
    }
}

/// A buffer pool as a [`WriteLog`] sees it: where pins drop and
/// before-images are restored. Implemented for `&mut BufferPool` and for
/// `&ShardedPool` (one shard lock per call).
pub trait CapturePool {
    /// Drop one deferred-capture pin on `page`.
    fn unpin(&mut self, page: PageId);
    /// [`UndoEntry::revert`] `entry` if its page is resident.
    fn revert(&mut self, entry: &UndoEntry);
}

impl CapturePool for &mut BufferPool {
    fn unpin(&mut self, page: PageId) {
        BufferPool::unpin(self, page);
    }

    fn revert(&mut self, entry: &UndoEntry) {
        if let Some(p) = self.get_mut(entry.page) {
            entry.revert(p);
        }
    }
}

impl<M> CapturePool for &ShardedPool<M> {
    fn unpin(&mut self, page: PageId) {
        self.lock(page).pool.unpin(page);
    }

    fn revert(&mut self, entry: &UndoEntry) {
        if let Some(p) = self.lock(entry.page).pool.get_mut(entry.page) {
            entry.revert(p);
        }
    }
}

/// A transaction's writes, in execution order, and how they reach a log.
///
/// Under [`LoggingPolicy::Fragments`] every write is logged as it is made.
/// Under [`LoggingPolicy::Command`] and [`LoggingPolicy::Adaptive`] the
/// log starts *deferred*: nothing is appended while the transaction runs,
/// and each distinct written page holds one pool pin, so STEAL can never
/// put un-logged bytes on the data disk. A deferred transaction that
/// aborts logs nothing at all. At commit it either appends one command
/// record ([`WriteLog::command_record`]) or spills its writes as
/// fragments; a spill also happens early when the pins would fill the
/// pool.
#[derive(Debug)]
pub struct WriteLog {
    /// The writes a rollback has not undone.
    writes: Vec<Write>,
    /// Where a logged partial rollback's undone writes were logged: their
    /// fragments stay in the log and are still forced at commit.
    undone: Vec<(usize, u64)>,
    /// The policy the transaction began under.
    policy: LoggingPolicy,
    /// Capture is still deferred: no write has been logged.
    deferred: bool,
    /// Most distinct pages a deferred capture may pin.
    budget: usize,
    /// Pinned pages, each with the index of the first write touching it,
    /// in first-touch order.
    pins: Vec<(usize, PageId)>,
}

impl WriteLog {
    /// An empty log for a transaction under `policy`. `frames` is the pool
    /// (or pool-shard) size the pins come out of; a deferred capture never
    /// pins more than `frames - 1` pages, so its own next fetch can always
    /// evict.
    pub fn new(policy: LoggingPolicy, frames: usize) -> WriteLog {
        WriteLog {
            writes: Vec::new(),
            undone: Vec::new(),
            policy,
            deferred: policy != LoggingPolicy::Fragments,
            budget: frames.saturating_sub(1).max(1),
            pins: Vec::new(),
        }
    }

    /// Capture is deferred: the writes are held back from every log.
    pub fn is_deferred(&self) -> bool {
        self.deferred
    }

    /// No write made (or every one rolled back).
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Writes held: the mark a savepoint records.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// The writes, in execution order.
    pub fn writes(&self) -> &[Write] {
        &self.writes
    }

    /// The writes, for noting where a reroute moved them.
    pub fn writes_mut(&mut self) -> &mut [Write] {
        &mut self.writes
    }

    /// Whether a write to `page` fits the pin budget. When it does not,
    /// the engine spills the capture before writing.
    pub fn admits(&self, page: PageId) -> bool {
        !self.deferred || self.pins.len() < self.budget || self.pins.iter().any(|&(_, p)| p == page)
    }

    /// Append `write`. Returns `true` on a deferred capture's first touch
    /// of its page: the caller pins it.
    pub fn push(&mut self, write: Write) -> bool {
        let page = write.page();
        let pin = self.deferred && !self.pins.iter().any(|&(_, p)| p == page);
        if pin {
            self.pins.push((self.writes.len(), page));
        }
        self.writes.push(write);
        pin
    }

    /// Pages holding a capture pin.
    pub fn pinned(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pins.iter().map(|&(_, p)| p)
    }

    /// The distinct pages written, ascending.
    pub fn pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self.writes.iter().map(Write::page).collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// Per stream, the highest position (or ticket) this transaction's
    /// fragments reached, undone ones included: what commit forces.
    pub fn high_water(&self) -> BTreeMap<usize, u64> {
        let logged = self.writes.iter().filter_map(|w| w.logged);
        let mut high = BTreeMap::new();
        for (stream, at) in logged.chain(self.undone.iter().copied()) {
            let h = high.entry(stream).or_insert(at);
            *h = (*h).max(at);
        }
        high
    }

    /// Encoded bytes the writes cost as fragments.
    pub fn fragment_bytes(&self) -> usize {
        self.writes.iter().map(Write::fragment_len).sum()
    }

    /// The commit-time logging decision of a deferred capture. `Some` is
    /// the transaction's [`LogRecord::Logical`] record, which doubles as
    /// its commit record; `commit_lsn` is called for its commit LSN only
    /// when the record is kept. `None` means spill: the log is not
    /// deferred or holds no write, or under [`LoggingPolicy::Adaptive`]
    /// the command record would be bigger than what it replaces: the
    /// fragments and the `Commit` record.
    /// The decision is stamped in the record, so recovery needs no policy
    /// configuration to replay it.
    pub fn command_record(
        &self,
        txn: TxnId,
        commit_lsn: impl FnOnce() -> Lsn,
    ) -> Option<LogRecord> {
        if !self.deferred || self.writes.is_empty() {
            return None;
        }
        let adaptive = self.policy == LoggingPolicy::Adaptive;
        let mut rec = LogRecord::Logical {
            txn,
            commit_lsn: Lsn(0), // sized first; allocated only if kept
            decision: if adaptive {
                DECISION_COST
            } else {
                DECISION_FORCED
            },
            ops: self.writes.iter().map(Write::op).collect(),
        };
        let replaced = self.fragment_bytes() + LogRecord::Commit { txn }.encoded_len();
        if adaptive && rec.encoded_len() > replaced {
            return None;
        }
        if let LogRecord::Logical {
            commit_lsn: lsn, ..
        } = &mut rec
        {
            *lsn = commit_lsn();
        }
        Some(rec)
    }

    /// Deferred partial rollback to the savepoint taken at `len` writes:
    /// the later writes were never logged, so their bytes are reverted in
    /// memory, the writes dropped, and only the pages no remaining write
    /// touches unpinned.
    pub fn revert_to(&mut self, len: usize, mut pool: impl CapturePool) {
        revert_all(&self.writes.split_off(len), &mut pool);
        let keep = self.pins.partition_point(|&(first, _)| first < len);
        for (_, page) in self.pins.split_off(keep) {
            pool.unpin(page);
        }
    }

    /// Logged partial rollback to the savepoint taken at `len` writes: the
    /// later writes, newest last, for the caller to compensate. Their
    /// fragments stay owed a commit force.
    pub fn split_off(&mut self, len: usize) -> Vec<Write> {
        let undone = self.writes.split_off(len);
        self.undone.extend(undone.iter().filter_map(|w| w.logged));
        undone
    }

    /// Spill a deferred capture to fragment mode: `append` logs write `i`'s
    /// fragment and returns where (it gets the log, so a failover may move
    /// what the spill already logged); the first failure ends the spill.
    pub fn spill<E>(
        &mut self,
        txn: TxnId,
        pool: impl CapturePool,
        mut append: impl FnMut(&mut WriteLog, usize, LogRecord) -> Result<(usize, u64), E>,
    ) -> Result<(), E> {
        for i in 0..self.writes.len() {
            let rec = self.writes[i].fragment(txn);
            match append(self, i, rec) {
                Ok(at) => self.writes[i].logged = Some(at),
                Err(e) => {
                    self.end_deferral(i, pool);
                    return Err(e);
                }
            }
        }
        self.end_deferral(self.writes.len(), pool);
        Ok(())
    }

    /// End deferred capture with the first `logged` writes in a log: the
    /// writes from `logged` on reached none, so they are reverted in
    /// memory and dropped (no rollback ever compensates an update no log
    /// has heard of), and every pin drops. From here on every write is
    /// logged as it is made. `end_deferral(0, ..)` abandons a capture
    /// (abort, or a failed command-record append): nothing was logged.
    pub fn end_deferral(&mut self, logged: usize, mut pool: impl CapturePool) {
        revert_all(&self.writes.split_off(logged), &mut pool);
        for (_, page) in self.pins.drain(..) {
            pool.unpin(page);
        }
        self.deferred = false;
    }
}

/// Revert `writes` newest-first, bytes only.
fn revert_all(writes: &[Write], pool: &mut impl CapturePool) {
    for w in writes.iter().rev() {
        pool.revert(&w.undo);
    }
}

/// The home image of data page `id`, or a fresh page if it was never
/// written. Bounded retry rides transient faults and read bit flips;
/// persistent corruption surfaces as a typed error.
pub fn home_page(disk: &Disk, id: PageId) -> Result<Page, StorageError> {
    if disk.is_allocated(id.0) {
        disk.read_page_retry(id.0)
    } else {
        Ok(Page::new(id))
    }
}

/// The doublewrite buffer: `dw_slots` frames after the `data_pages` home
/// frames of the data disk. Every data-page flush parks a verified full
/// image in the next slot (round robin) before overwriting the home
/// frame, so a home write torn by a crash can always be repaired — even
/// under logical logging, whose fragments cannot rebuild a page from
/// scratch.
#[derive(Debug, Clone)]
pub struct Doublewrite {
    data_pages: u64,
    slots: u64,
    cursor: u64,
}

impl Doublewrite {
    /// The layout `cfg` describes, cursor at the first slot.
    pub fn new(cfg: &WalConfig) -> Self {
        Doublewrite {
            data_pages: cfg.data_pages,
            slots: cfg.dw_slots,
            cursor: 0,
        }
    }

    /// A data disk on `cfg`'s backend: home frames, then the slots.
    pub fn provision(cfg: &WalConfig) -> Result<Disk, StorageError> {
        cfg.backend.provision(cfg.data_pages + cfg.dw_slots)
    }

    /// Write `page` to its home frame on `disk`, parking a verified copy
    /// in the next slot first. Both writes are read-back verified, so a
    /// torn or silently lost write is retried.
    pub fn flush(&mut self, disk: &mut Disk, page: &Page) -> Result<(), StorageError> {
        if self.slots > 0 {
            let slot = self.data_pages + self.cursor % self.slots;
            self.cursor += 1;
            disk.write_page_verified(slot, page)?;
        }
        disk.write_page_verified(page.id.0, page)
    }

    /// The latest valid image per page in `disk`'s slots, for rebuilding
    /// home frames torn by a crash. A corrupt slot means the crash hit the
    /// slot write itself — the home frame is then still intact, so the
    /// slot is ignored.
    pub fn harvest(disk: &Disk, cfg: &WalConfig) -> HashMap<PageId, Page> {
        let mut images: HashMap<PageId, Page> = HashMap::new();
        for slot in cfg.data_pages..disk.capacity() {
            if !disk.is_allocated(slot) {
                continue;
            }
            // only a copy newer than the one kept is copied out
            let newer = disk.read_page_retry_with(slot, |p| {
                let kept = images.get(&p.id).is_some_and(|have| have.lsn >= p.lsn);
                (!kept).then(|| p.to_page())
            });
            if let Ok(Some(p)) = newer {
                images.insert(p.id, p);
            }
        }
        images
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmdb_storage::PAYLOAD_SIZE;

    /// A page with recognisable content at a non-zero LSN.
    fn page() -> Page {
        let mut p = Page::new(PageId(5));
        let bytes: Vec<u8> = (0..PAYLOAD_SIZE).map(|i| (i % 251) as u8).collect();
        p.write_at(0, &bytes);
        p.lsn = Lsn(40);
        p
    }

    #[test]
    fn a_write_derives_its_fragment_undo_and_op() {
        for mode in [LogMode::Logical, LogMode::Physical] {
            let before = page();
            let w = Write::new(&before, 100, b"abcd", None, mode, Lsn(41), 2);
            let mut after = before.clone();
            w.apply(&mut after);
            assert_eq!(after.read_at(100, 4), b"abcd");
            assert_eq!(after.lsn, Lsn(41));
            let frag = w.fragment(9);
            assert_eq!(w.fragment_len(), frag.encoded_len(), "{mode:?}");
            let LogRecord::Update {
                txn,
                page,
                prev_lsn,
                new_lsn,
                offset,
                before: b,
                after: a,
            } = frag
            else {
                panic!("an Update fragment");
            };
            assert_eq!(
                (txn, page, prev_lsn, new_lsn),
                (9, PageId(5), Lsn(40), Lsn(41))
            );
            // the fragment's images are the page's bytes at its offset
            let at = offset as usize;
            assert_eq!(b, before.read_at(at, b.len()));
            assert_eq!(a, after.read_at(at, a.len()));
            if mode == LogMode::Physical {
                assert_eq!((offset, a.len()), (0, PAYLOAD_SIZE));
            }
            // the revert restores every byte the write changed
            w.undo.revert(&mut after);
            assert_eq!(after.payload(), before.payload());
            assert_eq!(
                w.op(),
                LogicalOp::Put {
                    page: PageId(5),
                    lsn: Lsn(41),
                    offset: 100,
                    data: b"abcd".to_vec(),
                }
            );
        }
        let add = Write::new(
            &page(),
            8,
            &7u64.to_le_bytes(),
            Some(3),
            LogMode::Logical,
            Lsn(41),
            0,
        );
        assert!(matches!(
            add.op(),
            LogicalOp::AddU64 {
                delta: 3,
                offset: 8,
                ..
            }
        ));
    }

    #[test]
    fn a_command_record_is_weighed_against_fragments_and_commit() {
        // one one-byte write: a 47-byte fragment plus the 9-byte Commit
        // record, against a 48-byte command record that replaces both
        let mut log = WriteLog::new(LoggingPolicy::Adaptive, 8);
        log.push(Write::new(
            &page(),
            0,
            b"p",
            None,
            LogMode::Logical,
            Lsn(41),
            0,
        ));
        let commit = LogRecord::Commit { txn: 9 }.encoded_len();
        assert_eq!((log.fragment_bytes(), commit), (47, 9));
        let rec = log.command_record(9, || Lsn(42)).expect("command-logged");
        assert_eq!(rec.encoded_len(), 48);
        assert!(matches!(
            rec,
            LogRecord::Logical {
                commit_lsn: Lsn(42),
                ..
            }
        ));
    }
}
