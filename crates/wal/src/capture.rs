//! The write side of the WAL protocol, shared by both engines.
//!
//! Every update ships a log fragment, and a dirty page may reach the data
//! disk only once its fragment is durable. [`crate::WalDb`] and the
//! concurrent pipeline in `rmdb-exec` differ in locking and threading, not
//! in that protocol, so the pieces of it live here once:
//!
//! * [`update_fragment`] — the `Update` fragment and its [`UndoEntry`],
//!   built from a page's pre-image (a pure function on `&Page`, so callers
//!   choose which locks to hold around it);
//! * [`UndoEntry`] — one undoable update: its compensation record and its
//!   in-memory revert;
//! * [`Deferred`] — deferred capture under [`LoggingPolicy::Command`] /
//!   [`LoggingPolicy::Adaptive`]: retained fragments, logical ops, the read
//!   set, one pool pin per distinct page, savepoint truncation, the spill
//!   to fragments, and the commit-time logging decision;
//! * [`Doublewrite`] — the doublewrite slot layout on the data disk: the
//!   verified flush that parks each page image before its home write, and
//!   the harvest recovery repairs torn home frames from.

use crate::db::{LogMode, LoggingPolicy, TxnId, WalConfig};
use crate::record::{LogRecord, LogicalOp, DECISION_COST, DECISION_FORCED};
use rmdb_storage::{BufferPool, Disk, Lsn, Page, PageId, ShardedPool, StorageError};
use std::collections::{BTreeSet, HashMap};

/// One undoable update: enough to restore the bytes it overwrote and to
/// name it in a compensation record.
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

/// The `Update` fragment for writing `data` at `offset` of `page`, built
/// from the page's pre-image, with the undo entry that reverses it.
/// [`LogMode::Logical`] ships the changed byte range; [`LogMode::Physical`]
/// ships full before and after payload images at offset 0.
pub fn update_fragment(
    txn: TxnId,
    page: &Page,
    offset: usize,
    data: &[u8],
    mode: LogMode,
    new_lsn: Lsn,
) -> (LogRecord, UndoEntry) {
    let (frag_offset, before, after) = match mode {
        LogMode::Logical => (
            offset as u32,
            page.read_at(offset, data.len()).to_vec(),
            data.to_vec(),
        ),
        LogMode::Physical => {
            let before = page.payload().to_vec();
            let mut after = before.clone();
            after[offset..offset + data.len()].copy_from_slice(data);
            (0, before, after)
        }
    };
    let undo = UndoEntry {
        page: page.id,
        offset: frag_offset,
        before: before.clone(),
        new_lsn,
    };
    let rec = LogRecord::Update {
        txn,
        page: page.id,
        prev_lsn: page.lsn,
        new_lsn,
        offset: frag_offset,
        before,
        after,
    };
    (rec, undo)
}

/// The logical op mirroring one write: [`LogicalOp::AddU64`] when the
/// write was an add of `add`, else a [`LogicalOp::Put`] of its bytes.
pub fn logical_op(
    page: PageId,
    lsn: Lsn,
    offset: usize,
    data: &[u8],
    add: Option<u64>,
) -> LogicalOp {
    let offset = offset as u32;
    match add {
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
            data: data.to_vec(),
        },
    }
}

/// A buffer pool as deferred capture sees it: where pins drop and
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

/// Deferred capture for a transaction under [`LoggingPolicy::Command`] or
/// [`LoggingPolicy::Adaptive`]: nothing is appended while it runs. Each
/// write's fragment is retained (for a physical spill) beside its logical
/// op (for the command record), and each distinct written page holds one
/// pool pin, so STEAL can never put un-logged bytes on the data disk.
/// Deferred transactions that abort log nothing at all.
///
/// The captures run parallel to the engine's undo chain: capture `i` and
/// undo entry `i` describe the same write.
#[derive(Debug)]
pub struct Deferred {
    /// `Some(pct)` under `Adaptive`; `None` under `Command`, which always
    /// command-logs.
    threshold: Option<u32>,
    /// Most distinct pages the capture may pin.
    budget: usize,
    /// `(route, fragment)` per write, in execution order.
    frags: Vec<(usize, LogRecord)>,
    /// Logical op per write, in execution order.
    ops: Vec<LogicalOp>,
    /// Pinned pages, each with the index of the first capture touching
    /// it, in first-touch order.
    pins: Vec<(usize, PageId)>,
    /// Pages read under shared locks — the command record's read set,
    /// which the replay DAG turns into write→read precedence edges.
    reads: BTreeSet<PageId>,
    /// Encoded size of `frags`: the physical side of the cost rule.
    phys_bytes: usize,
}

impl Deferred {
    /// Arm deferred capture for a new transaction, or `None` under
    /// [`LoggingPolicy::Fragments`]. `frames` is the pool (or pool-shard)
    /// size the pins come out of; the capture never pins more than
    /// `frames - 1` pages, so its own next fetch can always evict.
    pub fn arm(policy: LoggingPolicy, frames: usize) -> Option<Deferred> {
        let threshold = match policy {
            LoggingPolicy::Fragments => return None,
            LoggingPolicy::Command => None,
            LoggingPolicy::Adaptive { threshold_pct } => Some(threshold_pct),
        };
        Some(Deferred {
            threshold,
            budget: frames.saturating_sub(1).max(1),
            frags: Vec::new(),
            ops: Vec::new(),
            pins: Vec::new(),
            reads: BTreeSet::new(),
            phys_bytes: 0,
        })
    }

    /// No write captured (so no page pinned) yet.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether a write to `page` fits the pin budget. When it does not,
    /// the engine spills the capture before writing.
    pub fn admits(&self, page: PageId) -> bool {
        self.pins.len() < self.budget || self.pins.iter().any(|&(_, p)| p == page)
    }

    /// Note a page read under a shared lock.
    pub fn note_read(&mut self, page: PageId) {
        self.reads.insert(page);
    }

    /// Retain one write: its fragment (appended through `route` on a
    /// spill) and its logical op. Returns `true` on the first touch of the
    /// op's page — the caller pins it.
    pub fn capture(&mut self, route: usize, rec: LogRecord, op: LogicalOp) -> bool {
        let page = op.page();
        let first = !self.pins.iter().any(|&(_, p)| p == page);
        if first {
            self.pins.push((self.ops.len(), page));
        }
        self.phys_bytes += rec.encoded_len();
        self.frags.push((route, rec));
        self.ops.push(op);
        first
    }

    /// Encoded bytes the retained fragments would cost.
    pub fn phys_bytes(&self) -> usize {
        self.phys_bytes
    }

    /// Pages holding a capture pin.
    pub fn pinned(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pins.iter().map(|&(_, p)| p)
    }

    /// The commit-time logging decision. `Some` is the transaction's
    /// [`LogRecord::Logical`] record, which doubles as its commit record;
    /// `commit_lsn` is called for its commit LSN only when the record is
    /// kept. `None` means spill: nothing was written, or the policy found
    /// the fragments cheaper (`logical * 100 > threshold_pct * physical`).
    /// The decision is stamped in the record, so recovery needs no policy
    /// configuration to replay it.
    pub fn command_record(
        &self,
        txn: TxnId,
        commit_lsn: impl FnOnce() -> Lsn,
    ) -> Option<LogRecord> {
        if self.ops.is_empty() {
            return None;
        }
        let mut rec = LogRecord::Logical {
            txn,
            commit_lsn: Lsn(0), // sized first; allocated only if kept
            decision: if self.threshold.is_some() {
                DECISION_COST
            } else {
                DECISION_FORCED
            },
            reads: self.reads.iter().copied().collect(),
            ops: self.ops.clone(),
        };
        if let Some(pct) = self.threshold {
            if rec.encoded_len() as u128 * 100 > u128::from(pct) * self.phys_bytes as u128 {
                return None;
            }
        }
        if let LogRecord::Logical {
            commit_lsn: lsn, ..
        } = &mut rec
        {
            *lsn = commit_lsn();
        }
        Some(rec)
    }

    /// Partial rollback to the savepoint taken at `undo_len` captures: the
    /// later writes were never logged, so their bytes are reverted in
    /// memory, their captures dropped, and only the pages no remaining
    /// capture touches unpinned.
    pub fn rollback_to(
        &mut self,
        undo_len: usize,
        undo: &mut Vec<UndoEntry>,
        mut pool: impl CapturePool,
    ) {
        debug_assert_eq!(undo.len(), self.ops.len(), "one undo entry per capture");
        self.frags.truncate(undo_len);
        self.ops.truncate(undo_len);
        self.phys_bytes = self.frags.iter().map(|(_, r)| r.encoded_len()).sum();
        revert_all(&undo.split_off(undo_len), &mut pool);
        let keep = self.pins.partition_point(|&(first, _)| first < undo_len);
        for (_, page) in self.pins.split_off(keep) {
            pool.unpin(page);
        }
    }

    /// Abandon the capture (abort, or a failed command-record append):
    /// revert every write in memory and drop every pin. Nothing was logged.
    pub fn discard(self, undo: &[UndoEntry], mut pool: impl CapturePool) {
        revert_all(undo, &mut pool);
        for page in self.pinned() {
            pool.unpin(page);
        }
    }

    /// Convert to fragment mode: hand each retained `(route, page,
    /// fragment)` to `append` in write order, then drop every pin. If an
    /// append fails, the writes from it on reached no log: they are
    /// reverted in memory and their undo entries removed, so rollback never
    /// compensates an update no log has heard of.
    pub fn spill<E>(
        self,
        undo: &mut Vec<UndoEntry>,
        mut pool: impl CapturePool,
        mut append: impl FnMut(usize, PageId, LogRecord) -> Result<(), E>,
    ) -> Result<(), E> {
        debug_assert_eq!(undo.len(), self.ops.len(), "one undo entry per capture");
        let mut out = Ok(());
        for (i, ((route, rec), op)) in self.frags.into_iter().zip(&self.ops).enumerate() {
            if let Err(e) = append(route, op.page(), rec) {
                revert_all(&undo.split_off(i), &mut pool);
                out = Err(e);
                break;
            }
        }
        for &(_, page) in &self.pins {
            pool.unpin(page);
        }
        out
    }
}

/// Revert `undo` newest-first, bytes only.
fn revert_all(undo: &[UndoEntry], pool: &mut impl CapturePool) {
    for entry in undo.iter().rev() {
        pool.revert(entry);
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
