//! [`WalDb`]: the functional database engine running the parallel-logging
//! recovery architecture.
//!
//! The engine plays all the roles of the paper's machine at once: query
//! processors create log fragments on every page update
//! ([`WalDb::write_via`] takes the QP number so the selection policies are
//! exercised faithfully); the back-end controller's page table is the
//! `page_last_log` map, used to enforce the **write-ahead rule** when the
//! buffer pool evicts a dirty page; and commit forces every stream holding
//! the transaction's fragments before appending the commit record to the
//! transaction's *home* stream — the invariant that makes distributed-log
//! recovery sound.
//!
//! Buffer management is STEAL/NO-FORCE (the general case): dirty pages may
//! reach the data disk before commit, and need not reach it at commit.

use crate::capture::{self, Deferred, Doublewrite, UndoEntry};
use crate::lock::{LockMode, LockTable};
use crate::manager::{LogPos, ParallelLogManager};
use crate::record::LogRecord;
use crate::recovery;
use crate::select::SelectionPolicy;
use rmdb_obs::Registry;
use rmdb_storage::fault::FaultHandle;
use rmdb_storage::{BackendKind, BufferPool, Disk, Lsn, Page, PageId, StorageError, PAYLOAD_SIZE};
use std::collections::{BTreeSet, HashMap};

/// Transaction identifier handed out by [`WalDb::begin`].
pub type TxnId = u64;

/// Logical (byte-range delta) or physical (full before/after page image)
/// log fragments — the distinction behind Table 1 vs Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogMode {
    /// Fragments carry only the changed byte range.
    Logical,
    /// Fragments carry the full before and after page images (two log
    /// pages of data per update, as in the paper's Table 3 experiment).
    Physical,
}

/// Per-transaction logging policy: physical after-image fragments, command
/// (logical) records, or a per-commit cost-based choice between the two.
///
/// Under [`Command`](LoggingPolicy::Command) and
/// [`Adaptive`](LoggingPolicy::Adaptive), writes are *deferred-captured*
/// ([`crate::capture::Deferred`]): nothing is appended while the
/// transaction runs, and at commit it either appends one
/// [`LogRecord::Logical`] record or spills its fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggingPolicy {
    /// Always log physical after-image fragments as writes happen (the
    /// engine's original behavior).
    Fragments,
    /// Always command-log: every deferred transaction commits with one
    /// logical record, regardless of relative size.
    Command,
    /// Choose per transaction at commit: command-log iff
    /// `logical_bytes * 100 <= threshold_pct * fragment_bytes`.
    Adaptive {
        /// Percentage threshold; 100 means "whenever the logical record is
        /// no bigger than the fragments it replaces".
        threshold_pct: u32,
    },
}

/// Configuration for a [`WalDb`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Pages on the data disk.
    pub data_pages: u64,
    /// Buffer-pool frames.
    pub pool_frames: usize,
    /// Number of log processors (N ≥ 1).
    pub log_streams: usize,
    /// Frames per log disk.
    pub log_frames: u64,
    /// Fragment routing policy.
    pub policy: SelectionPolicy,
    /// Logical or physical fragments.
    pub log_mode: LogMode,
    /// Seed for the random selection policy.
    pub seed: u64,
    /// Doublewrite-buffer slots appended after the data pages on the data
    /// disk. Every data-page flush parks a verified full image in a slot
    /// before overwriting the home frame, so a write torn by a crash can
    /// always be repaired — even under logical logging, whose fragments
    /// cannot rebuild a page from scratch. Zero disables the buffer.
    pub dw_slots: u64,
    /// Auto-checkpoint knob: take a fuzzy [`WalDb::checkpoint`] after every
    /// N commits (0 disables). Bounds the redo scan a checkpoint-aware
    /// restart engine has to replay after a crash.
    pub ckpt_every_commits: u64,
    /// Per-transaction logging policy (see [`LoggingPolicy`]).
    pub logging: LoggingPolicy,
    /// Which block-device backend the engine provisions its disks on —
    /// data disk, doublewrite slots, and every log platter alike.
    pub backend: BackendKind,
}

impl WalConfig {
    /// Reject an access of `len` bytes at `offset` of `page` that falls
    /// outside the database.
    pub fn check_bounds(&self, page: u64, offset: usize, len: usize) -> Result<(), WalError> {
        if page >= self.data_pages || offset + len > PAYLOAD_SIZE {
            Err(WalError::OutOfBounds { page, offset, len })
        } else {
            Ok(())
        }
    }
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            data_pages: 256,
            pool_frames: 32,
            log_streams: 2,
            log_frames: 4096,
            policy: SelectionPolicy::Cyclic,
            log_mode: LogMode::Logical,
            seed: 0xDB,
            dw_slots: 8,
            ckpt_every_commits: 0,
            logging: LoggingPolicy::Fragments,
            backend: BackendKind::Mem,
        }
    }
}

/// Errors from engine operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Underlying storage failed.
    Storage(StorageError),
    /// Page-level lock conflict (the caller may retry after the holder
    /// finishes).
    LockConflict {
        /// Contested page.
        page: PageId,
        /// Conflicting holder.
        holder: TxnId,
    },
    /// Operation named a transaction that is not active.
    UnknownTxn(TxnId),
    /// Page number or byte range outside the database.
    OutOfBounds {
        /// Offending page.
        page: u64,
        /// Byte offset.
        offset: usize,
        /// Length.
        len: usize,
    },
}

impl From<StorageError> for WalError {
    fn from(e: StorageError) -> Self {
        WalError::Storage(e)
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Storage(e) => write!(f, "storage: {e}"),
            WalError::LockConflict { page, holder } => {
                write!(f, "lock conflict on {page} held by txn {holder}")
            }
            WalError::UnknownTxn(t) => write!(f, "unknown transaction {t}"),
            WalError::OutOfBounds { page, offset, len } => {
                write!(f, "out of bounds: page {page} offset {offset} len {len}")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// Everything that survives a crash: the data disk and the log disks.
#[derive(Debug)]
pub struct CrashImage {
    /// Durable data disk contents.
    pub data: Disk,
    /// Durable log disk contents, one per stream.
    pub logs: Vec<Disk>,
}

/// A point inside a transaction that [`WalDb::rollback_to`] can return to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Savepoint {
    txn: TxnId,
    undo_len: usize,
}

#[derive(Debug)]
struct TxnState {
    home: usize,
    streams: BTreeSet<usize>,
    undo: Vec<UndoEntry>,
    /// `Some` while the transaction is deferred-captured; spilling to
    /// fragment mode takes it.
    deferred: Option<Deferred>,
}

/// The parallel-logging database engine.
pub struct WalDb {
    cfg: WalConfig,
    data: Disk,
    pool: BufferPool,
    log: ParallelLogManager,
    locks: LockTable,
    active: HashMap<TxnId, TxnState>,
    /// The back-end controller's page table: last fragment logged for each
    /// dirty page, consulted before any data-page write (WAL rule).
    page_last_log: HashMap<PageId, LogPos>,
    next_txn: TxnId,
    next_lsn: u64,
    committed: u64,
    aborted: u64,
    eviction_forces: u64,
    /// The doublewrite slots every data-page flush goes through.
    dw: Doublewrite,
}

impl WalDb {
    /// A fresh, empty database.
    pub fn new(cfg: WalConfig) -> Self {
        let log = ParallelLogManager::new_on(
            cfg.log_streams,
            cfg.log_frames,
            cfg.policy,
            cfg.seed,
            &cfg.backend,
        )
        .expect("provisioning log disks on the configured backend");
        let data = Doublewrite::provision(&cfg)
            .expect("provisioning the data disk on the configured backend");
        WalDb::from_parts(cfg, data, log, 1, 1)
    }

    /// Attach one shared fault injector to the data disk and every log
    /// disk, so a single [`rmdb_storage::FaultPlan`]'s operation indices
    /// span the engine's whole I/O stream.
    pub fn attach_faults(&mut self, handle: &FaultHandle) {
        self.data.attach_faults(handle.clone());
        self.log.attach_faults(handle);
    }

    /// Construct an engine from its parts: the data disk, the log
    /// manager, and the next transaction/LSN counters. The recovery
    /// engine passes the repaired disk and the reopened logs.
    pub(crate) fn from_parts(
        cfg: WalConfig,
        data: Disk,
        log: ParallelLogManager,
        next_txn: TxnId,
        next_lsn: u64,
    ) -> Self {
        WalDb {
            data,
            pool: BufferPool::new(cfg.pool_frames),
            log,
            locks: LockTable::new(),
            active: HashMap::new(),
            page_last_log: HashMap::new(),
            next_txn,
            next_lsn,
            committed: 0,
            aborted: 0,
            eviction_forces: 0,
            dw: Doublewrite::new(&cfg),
            cfg,
        }
    }

    /// Recover a database from a crash image: scans all log streams (never
    /// merging them into one physical log), redoes history ahead of each
    /// stream's checkpoint bound, undoes losers, and truncates the streams
    /// behind their bounds. This is the recovery engine at one redo worker.
    pub fn recover(
        image: CrashImage,
        cfg: WalConfig,
    ) -> Result<(WalDb, recovery::RecoveryReport), WalError> {
        recovery::recover(image, cfg)
    }

    /// The configuration in force.
    pub fn config(&self) -> &WalConfig {
        &self.cfg
    }

    /// Begin a transaction.
    pub fn begin(&mut self) -> TxnId {
        let txn = self.next_txn;
        self.next_txn += 1;
        let home = self.log.pick_home(0, txn);
        self.active.insert(
            txn,
            TxnState {
                home,
                streams: BTreeSet::new(),
                undo: Vec::new(),
                deferred: Deferred::arm(self.cfg.logging, self.cfg.pool_frames),
            },
        );
        txn
    }

    /// Transactions currently active.
    pub fn active_txns(&self) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self.active.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Committed-transaction count.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Aborted-transaction count.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Times the WAL rule forced a log stream to release a dirty page at
    /// eviction — only those forces, not commit forces.
    pub fn eviction_forces(&self) -> u64 {
        self.eviction_forces
    }

    /// The log manager (observability for tests/benches).
    pub fn log(&self) -> &ParallelLogManager {
        &self.log
    }

    /// The data disk (observability for tests/benches: its I/O counters).
    pub fn data_disk(&self) -> &Disk {
        &self.data
    }

    /// The buffer pool (observability for tests/benches).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Check an access of `len` bytes at `offset` of `page` by `txn`, then
    /// lock the page in `mode`.
    fn lock_access(
        &mut self,
        txn: TxnId,
        page: u64,
        offset: usize,
        len: usize,
        mode: LockMode,
    ) -> Result<PageId, WalError> {
        self.cfg.check_bounds(page, offset, len)?;
        if !self.active.contains_key(&txn) {
            return Err(WalError::UnknownTxn(txn));
        }
        let id = PageId(page);
        self.locks
            .acquire(txn, id, mode)
            .map_err(|c| WalError::LockConflict {
                page: c.page,
                holder: c.holder,
            })?;
        Ok(id)
    }

    /// Ensure `page` is resident; applies the WAL rule to any evicted
    /// dirty page.
    fn fetch(&mut self, id: PageId) -> Result<(), WalError> {
        if self.pool.contains(id) {
            return Ok(());
        }
        let page = capture::home_page(&self.data, id)?;
        if let Some(evicted) = self.pool.insert(id, page, false)? {
            if evicted.dirty {
                self.flush_page(&evicted.page)?;
            }
        }
        Ok(())
    }

    /// Write one dirty page to the data disk, forcing its log fragment
    /// first if needed — the paper's WAL protocol.
    ///
    /// The home write is preceded by a verified copy into a doublewrite
    /// slot and is itself read-back verified: a torn or silently lost
    /// write is retried, and a write torn by the crash itself is
    /// repairable at recovery from the doublewrite image.
    fn flush_page(&mut self, page: &Page) -> Result<(), WalError> {
        if let Some(&pos) = self.page_last_log.get(&page.id) {
            if !self.log.is_durable(pos) {
                self.log.force(pos.stream)?;
                self.eviction_forces += 1;
            }
        }
        self.dw.flush(&mut self.data, page)?;
        Ok(())
    }

    /// Read `len` bytes at `offset` of `page` under a shared lock.
    pub fn read(
        &mut self,
        txn: TxnId,
        page: u64,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, WalError> {
        let id = self.lock_access(txn, page, offset, len, LockMode::Shared)?;
        self.fetch_spilling(id)?;
        let p = self.pool.get(id).expect("fetched page resident");
        Ok(p.read_at(offset, len).to_vec())
    }

    /// Write `data` at `offset` of `page`, logging a fragment routed by
    /// the selection policy on behalf of query processor `qp`.
    pub fn write_via(
        &mut self,
        qp: usize,
        txn: TxnId,
        page: u64,
        offset: usize,
        data: &[u8],
    ) -> Result<(), WalError> {
        self.write_op(qp, txn, page, offset, data, None)
    }

    /// Add `delta` (wrapping) to the little-endian u64 at `offset` of
    /// `page`, returning the new value. Physically this is a plain 8-byte
    /// write; under deferred capture it is logged as a [`crate::LogicalOp::AddU64`]
    /// — the canonical case where a command record (8-byte delta) beats an
    /// after-image fragment (before + after images).
    pub fn add_u64(
        &mut self,
        txn: TxnId,
        page: u64,
        offset: usize,
        delta: u64,
    ) -> Result<u64, WalError> {
        let id = self.lock_access(txn, page, offset, 8, LockMode::Exclusive)?;
        self.fetch_spilling(id)?;
        let p = self.pool.get(id).expect("fetched page resident");
        let cur: [u8; 8] = p.read_at(offset, 8).try_into().expect("8 bytes");
        let next = u64::from_le_bytes(cur).wrapping_add(delta);
        self.write_op(0, txn, page, offset, &next.to_le_bytes(), Some(delta))?;
        Ok(next)
    }

    /// Shared write path: `add_delta` is `Some` when the write is an
    /// [`WalDb::add_u64`] (so deferred capture records the delta, not the
    /// resulting bytes).
    fn write_op(
        &mut self,
        qp: usize,
        txn: TxnId,
        page: u64,
        offset: usize,
        data: &[u8],
        add_delta: Option<u64>,
    ) -> Result<(), WalError> {
        let id = self.lock_access(txn, page, offset, data.len(), LockMode::Exclusive)?;
        // a deferred txn pinning the whole pool would wedge every fetch —
        // convert it to fragment mode before its pins fill the last frame
        if let Some(d) = self.active.get(&txn).and_then(|s| s.deferred.as_ref()) {
            if !d.admits(id) {
                self.spill_deferred(txn)?;
            }
        }
        self.fetch_spilling(id)?;

        let new_lsn = Lsn(self.next_lsn);
        self.next_lsn += 1;
        let p = self.pool.get(id).expect("fetched page resident");
        let (rec, undo) =
            capture::update_fragment(txn, p, offset, data, self.cfg.log_mode, new_lsn);

        let state = self.active.get_mut(&txn).expect("txn checked active");
        if let Some(d) = state.deferred.as_mut() {
            // Deferred capture: retain the fragment instead of appending it
            // and pin the page on first touch, so STEAL can never put
            // un-logged bytes on disk. The LSN sequence is identical to
            // fragment mode, so per-page ordering — and therefore replay
            // equivalence — is policy-independent.
            let op = capture::logical_op(id, new_lsn, offset, data, add_delta);
            if d.capture(qp, rec, op) {
                self.pool.pin(id);
            }
        } else {
            let pos = self.log.append_routed(qp, txn, &rec)?;
            state.streams.insert(pos.stream);
            self.page_last_log.insert(id, pos);
        }
        state.undo.push(undo);

        let p = self.pool.get_mut(id).expect("fetched page resident");
        p.write_at(offset, data);
        p.lsn = new_lsn;
        Ok(())
    }

    /// [`WalDb::fetch`], spilling deferred transactions and retrying once
    /// if the pool is exhausted (their pins are what fill it up).
    fn fetch_spilling(&mut self, id: PageId) -> Result<(), WalError> {
        match self.fetch(id) {
            Err(WalError::Storage(StorageError::PoolExhausted)) => {
                self.spill_all_deferred()?;
                self.fetch(id)
            }
            other => other,
        }
    }

    /// Convert a deferred transaction to fragment mode: append every
    /// retained fragment (routed through the qp recorded at write time),
    /// release its pins, and drop the logical capture. After this the
    /// transaction commits/aborts exactly like a
    /// [`LoggingPolicy::Fragments`] one.
    fn spill_deferred(&mut self, txn: TxnId) -> Result<(), WalError> {
        let Some(state) = self.active.get_mut(&txn) else {
            return Ok(());
        };
        let Some(d) = state.deferred.take() else {
            return Ok(());
        };
        d.spill(&mut state.undo, &mut self.pool, |qp, page, rec| {
            let pos = self.log.append_routed(qp, txn, &rec)?;
            state.streams.insert(pos.stream);
            self.page_last_log.insert(page, pos);
            Ok::<_, WalError>(())
        })
    }

    /// Spill every deferred transaction (checkpoint/flush prelude and the
    /// pool-exhaustion escape hatch).
    fn spill_all_deferred(&mut self) -> Result<(), WalError> {
        for txn in self.active_txns() {
            self.spill_deferred(txn)?;
        }
        Ok(())
    }

    /// [`WalDb::write_via`] from query processor 0.
    pub fn write(
        &mut self,
        txn: TxnId,
        page: u64,
        offset: usize,
        data: &[u8],
    ) -> Result<(), WalError> {
        self.write_via(0, txn, page, offset, data)
    }

    /// Commit: force every stream holding the transaction's fragments,
    /// then append + force the commit record on its home stream, then
    /// release locks. Dirty pages stay in the pool (NO-FORCE).
    ///
    /// A deferred-captured transaction instead decides its logging here: a
    /// single [`LogRecord::Logical`] record (which *is* the commit record)
    /// when the policy picks command logging, or a spill to fragments plus
    /// the normal commit protocol otherwise.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), WalError> {
        let state = self.active.get(&txn).ok_or(WalError::UnknownTxn(txn))?;
        let next_lsn = &mut self.next_lsn;
        let logical = state.deferred.as_ref().and_then(|d| {
            d.command_record(txn, || {
                *next_lsn += 1;
                Lsn(*next_lsn - 1)
            })
        });
        if let Some(rec) = logical {
            let state = self.active.remove(&txn).expect("checked active");
            let d = state.deferred.expect("command-logged txn is deferred");
            let pos = match self.log.append_to(state.home, &rec) {
                Ok(pos) => pos,
                Err(e) => {
                    // nothing was logged: revert and unpin, as a deferred
                    // abort would
                    d.discard(&state.undo, &mut self.pool);
                    self.locks.release_all(txn);
                    self.aborted += 1;
                    return Err(e.into());
                }
            };
            // pins drop before the force: page_last_log now names the
            // logical record, so a later eviction re-forces under the WAL
            // rule even if this force fails
            for page in d.pinned() {
                self.page_last_log.insert(page, pos);
                self.pool.unpin(page);
            }
            self.log.force(state.home)?;
            self.locks.release_all(txn);
            return self.count_commits(1);
        }
        // the physical protocol is a group commit of one
        self.commit_group(&[txn])
    }

    /// Count `n` new commits and honour [`WalConfig::ckpt_every_commits`]:
    /// fuzzy-checkpoint when the commit counter reaches or steps over a
    /// multiple of the knob. An error here surfaces from the committing
    /// call, but the commit records are already durable — exactly the
    /// "ambiguous commit" a crash mid-checkpoint produces.
    fn count_commits(&mut self, n: u64) -> Result<(), WalError> {
        let before = self.committed;
        self.committed += n;
        let every = self.cfg.ckpt_every_commits;
        if every > 0 && self.committed / every > before / every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Group commit: commit several transactions with one force per
    /// involved log stream instead of one per transaction — the
    /// stream-level analogue of the log processor's page assembly.
    ///
    /// All-or-nothing per transaction (not across the group): each listed
    /// transaction must be active; the group shares the force work.
    pub fn commit_group(&mut self, txns: &[TxnId]) -> Result<(), WalError> {
        // validate first so a bad id does not half-commit the group
        for txn in txns {
            if !self.active.contains_key(txn) {
                return Err(WalError::UnknownTxn(*txn));
            }
        }
        // group commit shares forces across physical commit records; spill
        // any deferred members so the whole group takes that path
        for txn in txns {
            self.spill_deferred(*txn)?;
        }
        let mut states = Vec::with_capacity(txns.len());
        for txn in txns {
            states.push((*txn, self.active.remove(txn).expect("validated")));
        }
        // one force per distinct fragment stream across the whole group
        let mut streams: BTreeSet<usize> = BTreeSet::new();
        for (_, state) in &states {
            streams.extend(state.streams.iter().copied());
        }
        for s in streams {
            self.log.force(s)?;
        }
        // append all commit records, then force each home stream once
        let mut homes: BTreeSet<usize> = BTreeSet::new();
        for (txn, state) in &states {
            self.log
                .append_to(state.home, &LogRecord::Commit { txn: *txn })?;
            homes.insert(state.home);
        }
        for h in homes {
            self.log.force(h)?;
        }
        for (txn, _) in &states {
            self.locks.release_all(*txn);
        }
        self.count_commits(states.len() as u64)
    }

    /// Abort: undo the transaction's updates in reverse order, logging a
    /// compensation on the home stream for each, then append the abort
    /// record. No force is needed — if the tail is lost, recovery simply
    /// re-undoes the remainder.
    pub fn abort(&mut self, txn: TxnId) -> Result<(), WalError> {
        let state = self.active.remove(&txn).ok_or(WalError::UnknownTxn(txn))?;
        if let Some(d) = state.deferred {
            // Deferred abort: nothing was ever logged, so there is nothing
            // to compensate — restore the before-images in memory, release
            // the pins, and vanish without a trace in the log.
            d.discard(&state.undo, &mut self.pool);
        } else {
            self.compensate(txn, state.home, &state.undo)?;
            self.log.append_to(state.home, &LogRecord::Abort { txn })?;
        }
        self.locks.release_all(txn);
        self.aborted += 1;
        Ok(())
    }

    /// Logged undo: revert `undo` newest-first, logging a compensation on
    /// `home` for each entry so the rollback itself is crash-safe.
    fn compensate(&mut self, txn: TxnId, home: usize, undo: &[UndoEntry]) -> Result<(), WalError> {
        for entry in undo.iter().rev() {
            self.fetch(entry.page)?;
            let new_lsn = Lsn(self.next_lsn);
            self.next_lsn += 1;
            let pos = self
                .log
                .append_to(home, &entry.compensation(txn, new_lsn))?;
            self.page_last_log.insert(entry.page, pos);
            let p = self
                .pool
                .get_mut(entry.page)
                .expect("fetched page resident");
            entry.revert(p);
            p.lsn = new_lsn;
        }
        Ok(())
    }

    /// Flush every dirty page to the data disk (honouring the WAL rule)
    /// without writing checkpoint records or truncating the logs.
    pub fn flush_all(&mut self) -> Result<(), WalError> {
        // deferred txns hold un-logged dirty pages; spill first so every
        // flushed byte is covered by a durable-forceable fragment (WAL rule)
        self.spill_all_deferred()?;
        for id in self.pool.dirty_ids() {
            let page = self.pool.peek(id).expect("dirty page resident").clone();
            self.flush_page(&page)?;
            self.pool.mark_clean(id);
        }
        Ok(())
    }

    /// Fuzzy checkpoint: record the active set, flush every dirty page
    /// (honouring the WAL rule), record the end, and — when no transaction
    /// is active — truncate every log stream.
    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        // a fuzzy checkpoint flushes every dirty page; spill deferred txns
        // so none of those pages carries un-logged bytes
        self.spill_all_deferred()?;
        let active: Vec<TxnId> = self.active_txns();
        let begin = LogRecord::CheckpointBegin {
            active: active.clone(),
        };
        for s in 0..self.log.n_streams() {
            self.log.append_to(s, &begin)?;
        }
        self.flush_all()?;
        for s in 0..self.log.n_streams() {
            self.log.append_to(s, &LogRecord::CheckpointEnd)?;
        }
        self.log.force_all()?;
        if active.is_empty() {
            self.log.truncate_all()?;
        }
        Ok(())
    }

    /// Create a savepoint inside a transaction: a later
    /// [`WalDb::rollback_to`] undoes everything the transaction did after
    /// this point while keeping the transaction (and its locks) alive.
    pub fn savepoint(&mut self, txn: TxnId) -> Result<Savepoint, WalError> {
        let state = self.active.get(&txn).ok_or(WalError::UnknownTxn(txn))?;
        Ok(Savepoint {
            txn,
            undo_len: state.undo.len(),
        })
    }

    /// Partial rollback to `sp`: the transaction's updates after the
    /// savepoint are undone (with compensation records, so the rollback
    /// itself is crash-safe) and forgotten; earlier updates and all locks
    /// survive.
    pub fn rollback_to(&mut self, sp: Savepoint) -> Result<(), WalError> {
        let txn = sp.txn;
        let state = self.active.get(&txn).ok_or(WalError::UnknownTxn(txn))?;
        if sp.undo_len > state.undo.len() {
            return Err(WalError::Storage(StorageError::Protocol(
                "savepoint from a different transaction incarnation",
            )));
        }
        let home = state.home;
        let state = self.active.get_mut(&txn).expect("checked active");
        if let Some(d) = state.deferred.as_mut() {
            // Deferred partial rollback: the undone suffix was never logged
            d.rollback_to(sp.undo_len, &mut state.undo, &mut self.pool);
            return Ok(());
        }
        let to_undo = state.undo.split_off(sp.undo_len);
        self.compensate(txn, home, &to_undo)
    }

    /// Take an archive copy of the database for media recovery: flushes
    /// everything dirty (honouring the WAL rule) and snapshots the data
    /// disk. Keep the log disks from the archive point onward — a
    /// quiescent checkpoint truncates them, so archives should be taken
    /// before relying on such a checkpoint.
    pub fn archive(&mut self) -> Result<Disk, WalError> {
        self.flush_all()?;
        Ok(self.data.snapshot())
    }

    /// Media recovery: the data disk was destroyed; rebuild it from an
    /// [`WalDb::archive`] copy plus the surviving log disks. Redo replays
    /// everything logged since the archive (per-page LSNs skip what the
    /// archive already contains); losers are rolled back as usual.
    ///
    /// This is the recovery engine with the checkpoint bound turned off: a
    /// `CheckpointEnd` logged after the archive proves pages reached the
    /// destroyed disk, not the archive, so no record may be skipped.
    pub fn recover_from_archive(
        archive: Disk,
        logs: Vec<Disk>,
        cfg: WalConfig,
    ) -> Result<(WalDb, recovery::RecoveryReport), WalError> {
        let image = CrashImage {
            data: archive,
            logs,
        };
        let run = recovery::EngineRun {
            bounded: false,
            ..recovery::EngineRun::RECOVER
        };
        let (db, report) = recovery::run_engine(image, cfg, run, &Registry::new())?;
        Ok((db, report.base))
    }

    /// Capture the durable state — what a crash at this instant preserves.
    /// Buffer-pool contents and unforced log tails are *not* included.
    pub fn crash_image(&self) -> CrashImage {
        CrashImage {
            data: self.data.snapshot(),
            logs: self.log.disk_snapshots(),
        }
    }

    /// Flush everything and shut down cleanly (used to compare clean vs
    /// crash restarts in tests).
    pub fn shutdown(mut self) -> Result<CrashImage, WalError> {
        self.checkpoint()?;
        Ok(self.crash_image())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WalConfig {
        WalConfig {
            data_pages: 16,
            pool_frames: 4,
            log_streams: 2,
            ..WalConfig::default()
        }
    }

    #[test]
    fn read_your_writes() {
        let mut db = WalDb::new(tiny());
        let t = db.begin();
        db.write(t, 1, 10, b"abc").unwrap();
        assert_eq!(db.read(t, 1, 10, 3).unwrap(), b"abc");
        db.commit(t).unwrap();
    }

    #[test]
    fn committed_data_visible_to_later_txn() {
        let mut db = WalDb::new(tiny());
        let t = db.begin();
        db.write(t, 2, 0, b"persist").unwrap();
        db.commit(t).unwrap();
        let t2 = db.begin();
        assert_eq!(db.read(t2, 2, 0, 7).unwrap(), b"persist");
    }

    #[test]
    fn abort_restores_pre_image() {
        let mut db = WalDb::new(tiny());
        let t = db.begin();
        db.write(t, 1, 0, b"original").unwrap();
        db.commit(t).unwrap();
        let t2 = db.begin();
        db.write(t2, 1, 0, b"scribble").unwrap();
        db.abort(t2).unwrap();
        let t3 = db.begin();
        assert_eq!(db.read(t3, 1, 0, 8).unwrap(), b"original");
    }

    #[test]
    fn abort_undoes_multiple_writes_in_reverse() {
        let mut db = WalDb::new(tiny());
        let t = db.begin();
        db.write(t, 1, 0, b"aa").unwrap();
        db.write(t, 1, 0, b"bb").unwrap();
        db.write(t, 1, 1, b"c").unwrap();
        db.abort(t).unwrap();
        let t2 = db.begin();
        assert_eq!(db.read(t2, 1, 0, 2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn lock_conflict_reported() {
        let mut db = WalDb::new(tiny());
        let t1 = db.begin();
        let t2 = db.begin();
        db.write(t1, 3, 0, b"x").unwrap();
        let err = db.write(t2, 3, 0, b"y").unwrap_err();
        assert_eq!(
            err,
            WalError::LockConflict {
                page: PageId(3),
                holder: t1
            }
        );
        // reads conflict with the exclusive lock too
        assert!(matches!(
            db.read(t2, 3, 0, 1),
            Err(WalError::LockConflict { .. })
        ));
        db.commit(t1).unwrap();
        db.write(t2, 3, 0, b"y").unwrap();
        db.commit(t2).unwrap();
    }

    #[test]
    fn shared_readers_coexist() {
        let mut db = WalDb::new(tiny());
        let t1 = db.begin();
        let t2 = db.begin();
        assert!(db.read(t1, 5, 0, 1).is_ok());
        assert!(db.read(t2, 5, 0, 1).is_ok());
        db.commit(t1).unwrap();
        db.commit(t2).unwrap();
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut db = WalDb::new(tiny());
        let t = db.begin();
        assert!(matches!(
            db.write(t, 99, 0, b"x"),
            Err(WalError::OutOfBounds { .. })
        ));
        assert!(matches!(
            db.write(t, 1, PAYLOAD_SIZE - 1, b"xy"),
            Err(WalError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn unknown_txn_rejected() {
        let mut db = WalDb::new(tiny());
        assert_eq!(db.write(99, 1, 0, b"x"), Err(WalError::UnknownTxn(99)));
        assert_eq!(db.commit(99), Err(WalError::UnknownTxn(99)));
        assert_eq!(db.abort(99), Err(WalError::UnknownTxn(99)));
    }

    #[test]
    fn eviction_enforces_wal_rule() {
        // Pool of 2 frames; touch 3 pages in one txn so an eviction of a
        // dirty page happens before commit — the log must be forced first.
        let mut db = WalDb::new(WalConfig {
            data_pages: 16,
            pool_frames: 2,
            log_streams: 1,
            ..WalConfig::default()
        });
        let t = db.begin();
        db.write(t, 0, 0, b"page0").unwrap();
        db.write(t, 1, 0, b"page1").unwrap();
        db.write(t, 2, 0, b"page2").unwrap(); // evicts a dirty page
        assert!(db.eviction_forces() >= 1, "WAL rule must force the log");
        // the crash image now contains an uncommitted page — recovery
        // must undo it (covered by recovery tests)
        db.commit(t).unwrap();
    }

    #[test]
    fn commit_forces_all_fragment_streams() {
        let mut db = WalDb::new(WalConfig {
            data_pages: 16,
            pool_frames: 8,
            log_streams: 3,
            policy: SelectionPolicy::Cyclic,
            ..WalConfig::default()
        });
        let t = db.begin();
        for page in 0..6 {
            db.write(t, page, 0, b"spread").unwrap();
        }
        db.commit(t).unwrap();
        // every stream that got fragments must be durable up to them
        let image = db.crash_image();
        let reopened = ParallelLogManager::open(image.logs, SelectionPolicy::Cyclic, 0).unwrap();
        let n_updates: usize = reopened
            .scan_all()
            .iter()
            .flatten()
            .filter(|r| matches!(r, LogRecord::Update { .. }))
            .count();
        assert_eq!(n_updates, 6, "all fragments durable after commit");
    }

    #[test]
    fn checkpoint_truncates_when_quiescent() {
        let mut db = WalDb::new(tiny());
        let t = db.begin();
        db.write(t, 1, 0, b"data").unwrap();
        db.commit(t).unwrap();
        db.checkpoint().unwrap();
        let scans = db.log().scan_all();
        assert!(
            scans.iter().all(|s| s.is_empty()),
            "quiescent checkpoint truncates the logs"
        );
        // and the data page is durable on the data disk
        let img = db.crash_image();
        assert_eq!(img.data.read_page(1).unwrap().read_at(0, 4), b"data");
    }

    #[test]
    fn checkpoint_with_active_txn_keeps_log() {
        let mut db = WalDb::new(tiny());
        let t = db.begin();
        db.write(t, 1, 0, b"live").unwrap();
        db.checkpoint().unwrap();
        let scans = db.log().scan_all();
        let updates: usize = scans
            .iter()
            .flatten()
            .filter(|r| matches!(r, LogRecord::Update { .. }))
            .count();
        assert_eq!(updates, 1, "undo information must be retained");
        db.abort(t).unwrap();
    }

    #[test]
    fn physical_mode_logs_full_images() {
        let mut db = WalDb::new(WalConfig {
            log_mode: LogMode::Physical,
            ..tiny()
        });
        let t = db.begin();
        db.write(t, 1, 100, b"tiny").unwrap();
        db.commit(t).unwrap();
        let scans = db.log().scan_all();
        let rec = scans
            .iter()
            .flatten()
            .find(|r| matches!(r, LogRecord::Update { .. }))
            .unwrap();
        if let LogRecord::Update {
            before,
            after,
            offset,
            ..
        } = rec
        {
            assert_eq!(*offset, 0);
            assert_eq!(before.len(), PAYLOAD_SIZE);
            assert_eq!(after.len(), PAYLOAD_SIZE);
            assert_eq!(&after[100..104], b"tiny");
        }
    }

    #[test]
    fn group_commit_amortizes_forces() {
        let mk = || WalConfig {
            data_pages: 32,
            pool_frames: 16,
            log_streams: 2,
            ..WalConfig::default()
        };
        // individual commits
        let mut solo = WalDb::new(mk());
        let txns: Vec<TxnId> = (0..6)
            .map(|i| {
                let t = solo.begin();
                solo.write(t, i, 0, b"solo").unwrap();
                t
            })
            .collect();
        for t in txns {
            solo.commit(t).unwrap();
        }
        let solo_forces: u64 = (0..2).map(|s| solo.log().stream(s).forces()).sum();

        // one group commit
        let mut grouped = WalDb::new(mk());
        let txns: Vec<TxnId> = (0..6)
            .map(|i| {
                let t = grouped.begin();
                grouped.write(t, i, 0, b"grup").unwrap();
                t
            })
            .collect();
        grouped.commit_group(&txns).unwrap();
        let group_forces: u64 = (0..2).map(|s| grouped.log().stream(s).forces()).sum();

        assert!(
            group_forces < solo_forces / 2,
            "group {group_forces} vs solo {solo_forces}"
        );
        assert_eq!(grouped.committed(), 6);
        // durability identical: everything survives a crash
        let (mut rec, report) = WalDb::recover(grouped.crash_image(), mk()).unwrap();
        assert_eq!(report.committed_txns.len(), 6);
        let q = rec.begin();
        for i in 0..6 {
            assert_eq!(rec.read(q, i, 0, 4).unwrap(), b"grup");
        }
    }

    #[test]
    fn group_commit_rejects_unknown_txn_atomically() {
        let mut db = WalDb::new(tiny());
        let a = db.begin();
        db.write(a, 1, 0, b"a").unwrap();
        assert_eq!(db.commit_group(&[a, 999]), Err(WalError::UnknownTxn(999)));
        // a is still active and can commit normally
        db.commit(a).unwrap();
    }

    #[test]
    fn savepoint_partial_rollback() {
        let mut db = WalDb::new(tiny());
        let t = db.begin();
        db.write(t, 1, 0, b"keep").unwrap();
        let sp = db.savepoint(t).unwrap();
        db.write(t, 1, 4, b"drop").unwrap();
        db.write(t, 2, 0, b"drop").unwrap();
        db.rollback_to(sp).unwrap();
        // post-savepoint writes gone, pre-savepoint ones intact, txn alive
        assert_eq!(db.read(t, 1, 0, 8).unwrap(), b"keep\0\0\0\0");
        assert_eq!(db.read(t, 2, 0, 4).unwrap(), vec![0; 4]);
        db.write(t, 3, 0, b"more").unwrap();
        db.commit(t).unwrap();
        let q = db.begin();
        assert_eq!(db.read(q, 1, 0, 4).unwrap(), b"keep");
        assert_eq!(db.read(q, 3, 0, 4).unwrap(), b"more");
    }

    #[test]
    fn savepoint_rollback_survives_crash() {
        let mut db = WalDb::new(tiny());
        let t = db.begin();
        db.write(t, 1, 0, b"keep").unwrap();
        let sp = db.savepoint(t).unwrap();
        db.write(t, 1, 0, b"DROP").unwrap();
        db.rollback_to(sp).unwrap();
        db.commit(t).unwrap();
        let (mut db2, _) = WalDb::recover(db.crash_image(), tiny()).unwrap();
        let q = db2.begin();
        assert_eq!(db2.read(q, 1, 0, 4).unwrap(), b"keep");
    }

    #[test]
    fn nested_savepoints_unwind_in_order() {
        let mut db = WalDb::new(tiny());
        let t = db.begin();
        db.write(t, 1, 0, b"a").unwrap();
        let sp1 = db.savepoint(t).unwrap();
        db.write(t, 1, 1, b"b").unwrap();
        let sp2 = db.savepoint(t).unwrap();
        db.write(t, 1, 2, b"c").unwrap();
        db.rollback_to(sp2).unwrap();
        assert_eq!(db.read(t, 1, 0, 3).unwrap(), b"ab\0");
        db.rollback_to(sp1).unwrap();
        assert_eq!(db.read(t, 1, 0, 3).unwrap(), b"a\0\0");
        db.commit(t).unwrap();
    }

    #[test]
    fn media_recovery_from_archive() {
        let mut db = WalDb::new(tiny());
        let t = db.begin();
        db.write(t, 1, 0, b"pre-archive").unwrap();
        db.commit(t).unwrap();
        let archive = db.archive().unwrap();
        // activity after the archive
        let t2 = db.begin();
        db.write(t2, 2, 0, b"post-archive").unwrap();
        db.commit(t2).unwrap();
        let loser = db.begin();
        db.write(loser, 3, 0, b"in-flight").unwrap();
        // the data disk is destroyed; only the archive and the logs survive
        let logs = db.crash_image().logs;
        let (mut db2, report) = WalDb::recover_from_archive(archive, logs, tiny()).unwrap();
        let q = db2.begin();
        assert_eq!(db2.read(q, 1, 0, 11).unwrap(), b"pre-archive");
        assert_eq!(db2.read(q, 2, 0, 12).unwrap(), b"post-archive");
        assert_eq!(db2.read(q, 3, 0, 9).unwrap(), vec![0; 9]);
        assert!(report.committed_txns.len() >= 2);
    }

    #[test]
    fn media_recovery_ignores_checkpoints_after_archive() {
        // A checkpoint taken after the archive proves its pages reached the
        // destroyed disk, not the archive: archive recovery must replay
        // through it rather than skip what it bounds.
        let mut db = WalDb::new(tiny());
        let drone = db.begin();
        db.write(drone, 7, 0, b"drone").unwrap();
        let archive = db.archive().unwrap();
        for page in 1..4 {
            let t = db.begin();
            db.write(t, page, 0, b"before-ckpt").unwrap();
            db.commit(t).unwrap();
        }
        // fuzzy: the open drone keeps the streams from truncating
        db.checkpoint().unwrap();
        for page in 4..6 {
            let t = db.begin();
            db.write(t, page, 0, b"after-ckpt!").unwrap();
            db.commit(t).unwrap();
        }
        let logs = db.crash_image().logs;
        let (mut db2, report) = WalDb::recover_from_archive(archive, logs, tiny()).unwrap();
        let q = db2.begin();
        for page in 1..4 {
            assert_eq!(db2.read(q, page, 0, 11).unwrap(), b"before-ckpt");
        }
        for page in 4..6 {
            assert_eq!(db2.read(q, page, 0, 11).unwrap(), b"after-ckpt!");
        }
        // the drone's stolen write reached the archive; undo removes it
        assert_eq!(db2.read(q, 7, 0, 5).unwrap(), vec![0; 5]);
        assert_eq!(report.loser_txns, vec![drone]);
    }

    #[test]
    fn savepoint_of_unknown_txn_fails() {
        let mut db = WalDb::new(tiny());
        assert!(db.savepoint(99).is_err());
    }

    fn command_cfg() -> WalConfig {
        WalConfig {
            logging: LoggingPolicy::Command,
            ..tiny()
        }
    }

    fn count_recs(db: &WalDb, pred: fn(&LogRecord) -> bool) -> usize {
        db.log()
            .scan_all()
            .iter()
            .flatten()
            .filter(|r| pred(r))
            .count()
    }

    #[test]
    fn command_policy_logs_one_record_per_txn() {
        let mut db = WalDb::new(command_cfg());
        let t = db.begin();
        db.write(t, 1, 0, b"cmd").unwrap();
        db.write(t, 2, 8, b"cmd2").unwrap();
        db.add_u64(t, 3, 0, 5).unwrap();
        db.commit(t).unwrap();
        assert_eq!(
            count_recs(&db, |r| matches!(r, LogRecord::Logical { .. })),
            1
        );
        assert_eq!(
            count_recs(&db, |r| matches!(r, LogRecord::Update { .. })),
            0
        );
        assert_eq!(
            count_recs(&db, |r| matches!(r, LogRecord::Commit { .. })),
            0
        );
    }

    #[test]
    fn command_logged_txn_survives_crash() {
        let mut db = WalDb::new(command_cfg());
        let t = db.begin();
        db.write(t, 1, 0, b"keepme").unwrap();
        db.add_u64(t, 2, 0, 41).unwrap();
        db.add_u64(t, 2, 0, 1).unwrap();
        db.commit(t).unwrap();
        // an in-flight deferred loser leaves no trace at all
        let loser = db.begin();
        db.write(loser, 3, 0, b"ghost").unwrap();
        let (mut db2, report) = WalDb::recover(db.crash_image(), command_cfg()).unwrap();
        assert_eq!(report.logical_commits, 1);
        assert_eq!(report.reexecuted_ops, 3);
        assert!(report.loser_txns.is_empty(), "deferred loser logs nothing");
        let q = db2.begin();
        assert_eq!(db2.read(q, 1, 0, 6).unwrap(), b"keepme");
        assert_eq!(db2.read(q, 2, 0, 8).unwrap(), 42u64.to_le_bytes());
        assert_eq!(db2.read(q, 3, 0, 5).unwrap(), vec![0u8; 5]);
    }

    #[test]
    fn adaptive_policy_decides_per_txn() {
        let cfg = WalConfig {
            logging: LoggingPolicy::Adaptive { threshold_pct: 100 },
            ..tiny()
        };
        let mut db = WalDb::new(cfg.clone());
        // counter bumps: logical record (no before-images, 8-byte deltas)
        // is far smaller than two fragments
        let small = db.begin();
        db.add_u64(small, 1, 0, 1).unwrap();
        db.add_u64(small, 1, 8, 2).unwrap();
        db.commit(small).unwrap();
        assert_eq!(
            count_recs(&db, |r| matches!(r, LogRecord::Logical { .. })),
            1
        );
        // one one-byte write: the command record's fixed header (48 bytes
        // in all) outweighs the 47-byte fragment, so it spills
        let big = db.begin();
        db.write(big, 2, 0, b"x").unwrap();
        db.commit(big).unwrap();
        assert_eq!(
            count_recs(&db, |r| matches!(r, LogRecord::Logical { .. })),
            1,
            "one-byte write must spill to fragments"
        );
        assert_eq!(
            count_recs(&db, |r| matches!(r, LogRecord::Update { .. })),
            1
        );
        // both survive recovery
        let (mut db2, _) = WalDb::recover(db.crash_image(), cfg).unwrap();
        let q = db2.begin();
        assert_eq!(db2.read(q, 1, 0, 8).unwrap(), 1u64.to_le_bytes());
        assert_eq!(db2.read(q, 2, 0, 1).unwrap(), b"x");
    }

    #[test]
    fn deferred_abort_and_savepoints_leave_no_log_trace() {
        let mut db = WalDb::new(command_cfg());
        let base = db.begin();
        db.write(base, 1, 0, b"base").unwrap();
        db.commit(base).unwrap();

        let t = db.begin();
        db.write(t, 1, 0, b"AAAA").unwrap();
        let sp = db.savepoint(t).unwrap();
        db.write(t, 1, 0, b"BBBB").unwrap();
        db.write(t, 2, 0, b"CCCC").unwrap();
        db.rollback_to(sp).unwrap();
        assert_eq!(db.read(t, 1, 0, 4).unwrap(), b"AAAA");
        assert_eq!(db.read(t, 2, 0, 4).unwrap(), vec![0u8; 4]);
        // page 1 is still captured before the savepoint, so only page 2
        // gave its pin back
        let pins = |db: &WalDb, p| db.pool().pin_count(PageId(p));
        assert_eq!((pins(&db, 1), pins(&db, 2)), (1, 0));
        // a savepoint whose suffix only rewrites already-pinned pages
        // takes no pin and must give none back
        db.write(t, 2, 0, b"DDDD").unwrap();
        let sp2 = db.savepoint(t).unwrap();
        db.write(t, 1, 0, b"EEEE").unwrap();
        db.add_u64(t, 2, 8, 7).unwrap();
        assert_eq!((pins(&db, 1), pins(&db, 2)), (1, 1));
        db.rollback_to(sp2).unwrap();
        assert_eq!((pins(&db, 1), pins(&db, 2)), (1, 1));
        assert_eq!(db.read(t, 1, 0, 4).unwrap(), b"AAAA");
        assert_eq!(
            db.read(t, 2, 0, 16).unwrap(),
            b"DDDD\0\0\0\0\0\0\0\0\0\0\0\0"
        );
        db.abort(t).unwrap();
        assert_eq!((pins(&db, 1), pins(&db, 2)), (0, 0));
        let q = db.begin();
        assert_eq!(db.read(q, 1, 0, 4).unwrap(), b"base");
        db.commit(q).unwrap();
        assert_eq!(
            count_recs(&db, |r| matches!(
                r,
                LogRecord::Compensation { .. } | LogRecord::Abort { .. }
            )),
            0,
            "deferred rollback/abort must not log"
        );
        // no pins leaked: the pool can still turn over every frame
        let t2 = db.begin();
        for p in 0..8 {
            db.write(t2, p, 0, b"turn").unwrap();
        }
        db.commit(t2).unwrap();
    }

    #[test]
    fn deferred_rewrites_of_one_page_pin_one_frame() {
        // one pin per distinct page: a counter bumped more times than the
        // pool has frames still fits the pin budget and command-logs
        let mut db = WalDb::new(command_cfg());
        assert_eq!(db.config().pool_frames, 4);
        let t = db.begin();
        for _ in 0..6 {
            db.add_u64(t, 1, 0, 1).unwrap();
        }
        assert_eq!(db.pool().pin_count(PageId(1)), 1);
        db.commit(t).unwrap();
        assert_eq!(db.pool().pin_count(PageId(1)), 0);
        assert_eq!(
            count_recs(&db, |r| matches!(r, LogRecord::Logical { .. })),
            1
        );
        assert_eq!(
            count_recs(&db, |r| matches!(r, LogRecord::Update { .. })),
            0
        );
        let (mut db2, _) = WalDb::recover(db.crash_image(), command_cfg()).unwrap();
        let q = db2.begin();
        assert_eq!(db2.read(q, 1, 0, 8).unwrap(), 6u64.to_le_bytes());
    }

    #[test]
    fn group_commit_honours_ckpt_every_commits() {
        // groups of two step over the multiples of three: the group that
        // crosses one must checkpoint (flushing every dirty page)
        let mut db = WalDb::new(WalConfig {
            data_pages: 16,
            pool_frames: 16,
            ckpt_every_commits: 3,
            ..WalConfig::default()
        });
        let mut dirty = Vec::new();
        for g in 0..4u64 {
            let txns: Vec<TxnId> = (0..2)
                .map(|i| {
                    let t = db.begin();
                    db.write(t, g * 2 + i, 0, b"grp").unwrap();
                    t
                })
                .collect();
            db.commit_group(&txns).unwrap();
            dirty.push((db.committed(), db.pool().dirty_ids().len()));
        }
        assert_eq!(dirty, vec![(2, 2), (4, 0), (6, 0), (8, 2)]);
    }

    #[test]
    fn checkpoint_spills_deferred_txns() {
        let mut db = WalDb::new(command_cfg());
        let t = db.begin();
        db.write(t, 1, 0, b"spilled").unwrap();
        db.checkpoint().unwrap();
        // the deferred write became a durable fragment under the WAL rule
        assert_eq!(
            count_recs(&db, |r| matches!(r, LogRecord::Update { .. })),
            1
        );
        db.commit(t).unwrap();
        let (mut db2, _) = WalDb::recover(db.crash_image(), command_cfg()).unwrap();
        let q = db2.begin();
        assert_eq!(db2.read(q, 1, 0, 7).unwrap(), b"spilled");
    }

    #[test]
    fn pool_exhaustion_spills_instead_of_failing() {
        // pool of 4 frames, a deferred txn pinning pages: the cap (pool/2)
        // plus the exhaustion retry must keep writes succeeding
        let mut db = WalDb::new(WalConfig {
            data_pages: 16,
            pool_frames: 4,
            log_streams: 2,
            logging: LoggingPolicy::Command,
            ..WalConfig::default()
        });
        let t = db.begin();
        for p in 0..10 {
            db.write(t, p, 0, b"spill-pressure").unwrap();
        }
        db.commit(t).unwrap();
        let (mut db2, _) = WalDb::recover(
            db.crash_image(),
            WalConfig {
                data_pages: 16,
                pool_frames: 4,
                log_streams: 2,
                logging: LoggingPolicy::Command,
                ..WalConfig::default()
            },
        )
        .unwrap();
        let q = db2.begin();
        for p in 0..10 {
            assert_eq!(db2.read(q, p, 0, 5).unwrap(), b"spill");
        }
    }

    #[test]
    fn adaptive_recovers_same_payloads_as_fragments() {
        // same workload under Fragments and Adaptive: recovered page
        // payloads must agree byte-for-byte
        let run = |logging: LoggingPolicy| -> Vec<Vec<u8>> {
            let cfg = WalConfig {
                data_pages: 16,
                pool_frames: 8,
                log_streams: 3,
                logging,
                ..WalConfig::default()
            };
            let mut db = WalDb::new(cfg.clone());
            for i in 0..20u64 {
                let t = db.begin();
                let p = i % 6;
                db.write(t, p, (i as usize % 4) * 16, format!("w{i:04}").as_bytes())
                    .unwrap();
                db.add_u64(t, 6, 0, i).unwrap();
                if i % 5 == 3 {
                    db.abort(t).unwrap();
                } else {
                    db.commit(t).unwrap();
                }
            }
            let loser = db.begin();
            db.write(loser, 7, 0, b"in-flight").unwrap();
            let (mut db2, _) = WalDb::recover(db.crash_image(), cfg).unwrap();
            let q = db2.begin();
            (0..8).map(|p| db2.read(q, p, 0, 64).unwrap()).collect()
        };
        let physical = run(LoggingPolicy::Fragments);
        let adaptive = run(LoggingPolicy::Adaptive { threshold_pct: 100 });
        let command = run(LoggingPolicy::Command);
        assert_eq!(physical, adaptive, "adaptive != fragments after recovery");
        assert_eq!(physical, command, "command != fragments after recovery");
    }

    #[test]
    fn stats_count_outcomes() {
        let mut db = WalDb::new(tiny());
        let a = db.begin();
        db.write(a, 0, 0, b"x").unwrap();
        db.commit(a).unwrap();
        let b = db.begin();
        db.write(b, 1, 0, b"y").unwrap();
        db.abort(b).unwrap();
        assert_eq!(db.committed(), 1);
        assert_eq!(db.aborted(), 1);
        assert!(db.active_txns().is_empty());
    }
}
