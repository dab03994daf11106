//! The leveled store: transactions, the sealed-batch journal, queries
//! under both paper strategies, crash images and redo-only recovery.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use rmdb_obs::{Counter, EventKind, Gauge, Histogram, Registry};
use rmdb_storage::{Disk, FaultHandle, Page, PageId, StorageError, PAYLOAD_SIZE};

use super::codec::{self, get_u32, get_u64, put_u32, put_u64, LsmEntry, LsmOp};
use super::maintenance;
use super::manifest::{self, Extent, Manifest, RunDesc};
use super::run::{self, FenceCache};
use super::{CrashSite, LsmConfig, LsmError, LsmStats};
use crate::ScanStrategy;

/// Journal frame header: `[gen u64][batch u64][idx u32][total u32]`.
const JOURNAL_HDR: usize = 24;

/// All lsm.* metric handles plus the event sink. `Default` yields
/// free-standing handles (still real atomics, just unregistered) so a
/// store without a registry pays no branching in the hot path.
#[derive(Clone, Default)]
pub(crate) struct LsmMetrics {
    registry: Option<Registry>,
    pub(crate) flushes: Counter,
    pub(crate) compactions: Counter,
    pub(crate) bytes_rewritten: Counter,
    pub(crate) maintenance_aborts: Counter,
    pub(crate) levels_live: Gauge,
    pub(crate) l0_runs: Gauge,
    pub(crate) memtable_entries: Gauge,
    pub(crate) flush_stall_us: Histogram,
    pub(crate) flush_us: Histogram,
    pub(crate) compaction_us: Histogram,
}

impl LsmMetrics {
    fn from_registry(r: &Registry) -> Self {
        LsmMetrics {
            registry: Some(r.clone()),
            flushes: r.counter("lsm.flushes"),
            compactions: r.counter("lsm.compactions"),
            bytes_rewritten: r.counter("lsm.bytes_rewritten"),
            maintenance_aborts: r.counter("lsm.maintenance_aborts"),
            levels_live: r.gauge("lsm.levels_live"),
            l0_runs: r.gauge("lsm.l0_runs"),
            memtable_entries: r.gauge("lsm.memtable_entries"),
            flush_stall_us: r.histogram("lsm.flush_stall_us"),
            flush_us: r.histogram("lsm.flush_us"),
            compaction_us: r.histogram("lsm.compaction_us"),
        }
    }

    pub(crate) fn emit(&self, kind: EventKind, txn: u64, stream: u64, page: u64, payload: u64) {
        if let Some(r) = &self.registry {
            r.emit(kind, txn, stream, page, payload);
        }
    }
}

/// Private write set of an open transaction.
#[derive(Default)]
struct TxnBuf {
    writes: BTreeMap<u64, LsmOp>,
}

/// Everything behind the store mutex. Background maintenance runs
/// *under this lock* with the same disk and the same I/O counters as
/// foreground commits — there is exactly one fault-injection surface.
pub(crate) struct LsmState {
    pub(crate) cfg: LsmConfig,
    pub(crate) disk: Disk,
    pub(crate) manifest: Manifest,
    /// Committed entries, newest per key.
    pub(crate) mem: BTreeMap<u64, LsmEntry>,
    /// Journal frames consumed in the current generation.
    pub(crate) journal_head: u64,
    /// Next batch number in the current generation.
    pub(crate) journal_batch: u64,
    pub(crate) next_seq: u64,
    next_txn: u64,
    /// Arena free-space map (derived, never stored).
    pub(crate) free: Vec<Extent>,
    /// First key of each frame of each live run (derived, never
    /// stored).
    pub(crate) fences: FenceCache,
    txns: HashMap<u64, TxnBuf>,
    locks: HashMap<u64, u64>,
    pub(crate) faults: Option<FaultHandle>,
    pub(crate) crash_site: Option<CrashSite>,
    /// A commit is waiting for journal space.
    pub(crate) flush_requested: bool,
    pub(crate) stats: LsmStats,
    pub(crate) metrics: LsmMetrics,
    pub(crate) shutdown: bool,
    pub(crate) last_maintenance_err: Option<LsmError>,
}

pub(crate) struct LsmShared {
    pub(crate) state: Mutex<LsmState>,
    /// Wakes the maintenance worker.
    pub(crate) work: Condvar,
    /// Wakes commits stalled on journal space and `wait_idle` callers.
    pub(crate) idle: Condvar,
}

/// A crash-consistent copy of the store's disk (faults detached), as
/// handed to [`LsmStore::recover`].
pub struct LsmImage {
    pub(crate) disk: Disk,
}

impl LsmImage {
    /// Deterministic byte dump of the whole device: allocated frames
    /// verbatim, unallocated frames as zeros. Two images dump equal
    /// iff the durable state is identical — the double-recovery
    /// byte-identity oracle.
    pub fn dump(&self) -> Vec<u8> {
        let cap = self.disk.capacity();
        let mut out = Vec::with_capacity((cap as usize) * rmdb_storage::FRAME_SIZE);
        for addr in 0..cap {
            if self.disk.is_allocated(addr) {
                match self.disk.read_frame(addr) {
                    Ok(f) => out.extend_from_slice(&f[..]),
                    Err(_) => out.extend_from_slice(&[0xFF; rmdb_storage::FRAME_SIZE]),
                }
            } else {
                out.extend_from_slice(&[0u8; rmdb_storage::FRAME_SIZE]);
            }
        }
        out
    }
}

/// What recovery found and did (entirely in memory — recovery performs
/// zero writes, which is why double recovery is byte-identical).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LsmRecoveryReport {
    /// Version of the manifest slot adopted.
    pub manifest_version: u64,
    /// Journal generation accepted for replay.
    pub journal_gen: u64,
    /// Orphaned output extents of a torn flush/compaction (the
    /// manifest's `pending` list): GC'd by derivation, never read.
    pub orphan_runs: u64,
    /// Frames those orphans cover.
    pub orphan_frames: u64,
    /// Input extents retired by the last installed transition,
    /// reclaimed into the free map.
    pub reclaimed_runs: u64,
    /// Frames those retired extents cover.
    pub reclaimed_frames: u64,
    /// Complete journal batches replayed into the memtable.
    pub replayed_batches: u64,
    /// Entries those batches carried.
    pub replayed_entries: u64,
}

/// The leveled differential-file store.
pub struct LsmStore {
    shared: Arc<LsmShared>,
    worker: Option<JoinHandle<()>>,
}

fn lock_state(shared: &LsmShared) -> MutexGuard<'_, LsmState> {
    shared.state.lock().unwrap_or_else(|p| p.into_inner())
}

impl LsmStore {
    /// Create an empty store on a freshly provisioned backend.
    pub fn new(cfg: LsmConfig) -> Result<LsmStore, LsmError> {
        Self::new_inner(cfg, LsmMetrics::default())
    }

    /// Create an empty store wired to an observability registry
    /// (lsm.* metrics + compaction events).
    pub fn with_registry(cfg: LsmConfig, registry: &Registry) -> Result<LsmStore, LsmError> {
        Self::new_inner(cfg, LsmMetrics::from_registry(registry))
    }

    fn new_inner(cfg: LsmConfig, metrics: LsmMetrics) -> Result<LsmStore, LsmError> {
        let disk = cfg.backend.provision(cfg.total_frames())?;
        let manifest = Manifest::empty(cfg.max_levels);
        let free = vec![Extent {
            start: cfg.arena_start(),
            frames: cfg.arena_frames,
        }];
        let mut state = LsmState {
            cfg,
            disk,
            manifest,
            mem: BTreeMap::new(),
            journal_head: 0,
            journal_batch: 0,
            next_seq: 1,
            next_txn: 1,
            free,
            fences: FenceCache::default(),
            txns: HashMap::new(),
            locks: HashMap::new(),
            faults: None,
            crash_site: None,
            flush_requested: false,
            stats: LsmStats::default(),
            metrics,
            shutdown: false,
            last_maintenance_err: None,
        };
        manifest::write(&mut state.disk, &state.cfg, &state.manifest)?;
        Ok(Self::finish_construction(state))
    }

    fn finish_construction(state: LsmState) -> LsmStore {
        let background = state.cfg.background;
        let shared = Arc::new(LsmShared {
            state: Mutex::new(state),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let worker = if background {
            let shared2 = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("lsm-maintenance".into())
                    .spawn(move || maintenance::worker_loop(&shared2))
                    .expect("spawn lsm maintenance thread"),
            )
        } else {
            None
        };
        LsmStore { shared, worker }
    }

    fn lock(&self) -> MutexGuard<'_, LsmState> {
        lock_state(&self.shared)
    }

    /// Attach a fault injector to the device. Background maintenance
    /// I/O observes the same handle — there is only one disk.
    pub fn attach_faults(&self, handle: &FaultHandle) {
        let mut st = self.lock();
        st.disk.attach_faults(handle.clone());
        st.faults = Some(handle.clone());
    }

    /// Detach the fault injector, returning it if one was attached.
    pub fn detach_faults(&self) -> Option<FaultHandle> {
        let mut st = self.lock();
        st.faults = None;
        st.disk.detach_faults()
    }

    /// Arm a one-shot deterministic crash at a named protocol step of
    /// the next flush/compaction. Requires an attached fault handle
    /// (the crash is delivered through it).
    pub fn set_crash_site(&self, site: CrashSite) {
        self.lock().crash_site = Some(site);
    }

    /// Begin a transaction.
    pub fn begin(&self) -> u64 {
        let mut st = self.lock();
        let t = st.next_txn;
        st.next_txn += 1;
        st.txns.insert(t, TxnBuf::default());
        t
    }

    /// Stage an insert/update.
    pub fn put(&self, txn: u64, key: u64, value: &[u8]) -> Result<(), LsmError> {
        self.stage(txn, key, LsmOp::Put(value.to_vec()))
    }

    /// Stage a delete (tombstone).
    pub fn delete(&self, txn: u64, key: u64) -> Result<(), LsmError> {
        self.stage(txn, key, LsmOp::Delete)
    }

    fn stage(&self, txn: u64, key: u64, op: LsmOp) -> Result<(), LsmError> {
        let mut st = self.lock();
        if !st.txns.contains_key(&txn) {
            return Err(LsmError::UnknownTxn(txn));
        }
        match st.locks.get(&key) {
            Some(&holder) if holder != txn => return Err(LsmError::Conflict { key, holder }),
            _ => {}
        }
        st.locks.insert(key, txn);
        st.txns
            .get_mut(&txn)
            .expect("txn checked above")
            .writes
            .insert(key, op);
        Ok(())
    }

    /// Drop a transaction's staged writes and release its locks.
    pub fn abort(&self, txn: u64) -> Result<(), LsmError> {
        let mut st = self.lock();
        let Some(buf) = st.txns.remove(&txn) else {
            return Err(LsmError::UnknownTxn(txn));
        };
        release_locks(&mut st, txn, &buf);
        st.stats.aborts += 1;
        Ok(())
    }

    /// Commit: seal the write set into fresh journal frames (verified,
    /// then forced — the atomic commit point), then apply it to the
    /// memtable. A torn tail can only lose this in-flight batch; every
    /// earlier commit lives in frames this one never touches.
    pub fn commit(&self, txn: u64) -> Result<(), LsmError> {
        let mut st = self.lock();
        let Some(buf) = st.txns.remove(&txn) else {
            return Err(LsmError::UnknownTxn(txn));
        };
        if buf.writes.is_empty() {
            st.stats.commits += 1;
            return Ok(());
        }
        let entries: Vec<LsmEntry> = buf
            .writes
            .iter()
            .map(|(k, op)| LsmEntry {
                seq: 0,
                txn,
                key: *k,
                op: op.clone(),
            })
            .collect();
        let room = PAYLOAD_SIZE - JOURNAL_HDR;
        let result = match codec::chunk_entries(&entries, room) {
            None => Err(LsmError::Capacity("value overflows a journal frame")),
            Some(c) if c.len() as u64 > st.cfg.journal_frames => {
                Err(LsmError::Capacity("commit batch larger than the journal"))
            }
            Some(c) => {
                // Make room in the journal: flush inline, or wake the
                // background worker and stall on it (the stall is the
                // `lsm.flush_stall_us` signal).
                let need = c.len() as u64;
                let mut space: Result<(), LsmError> = Ok(());
                if st.journal_head + need > st.cfg.journal_frames {
                    let t0 = Instant::now();
                    while st.journal_head + need > st.cfg.journal_frames {
                        st.flush_requested = true;
                        if st.cfg.background {
                            self.shared.work.notify_one();
                            st = self.shared.idle.wait(st).unwrap_or_else(|p| p.into_inner());
                            if let Some(e) = st.last_maintenance_err.take() {
                                space = Err(e);
                                break;
                            }
                        } else if let Err(e) =
                            maintenance::run_job(&mut st, maintenance::Job::Flush)
                        {
                            space = Err(e);
                            break;
                        }
                    }
                    let stalled = t0.elapsed().as_micros() as u64;
                    st.metrics.flush_stall_us.record(stalled);
                }
                space.and_then(|()| commit_write(&mut st, entries, c.len()))
            }
        };
        release_locks(&mut st, txn, &buf);
        match &result {
            Ok(()) => st.stats.commits += 1,
            Err(_) => st.stats.aborts += 1,
        }
        let mem_len = st.mem.len() as u64;
        st.metrics.memtable_entries.set(mem_len);
        if st.cfg.background && maintenance::pick_job(&st).is_some() {
            self.shared.work.notify_one();
        }
        result
    }

    /// Run flush + compaction inline until no maintenance is due —
    /// the foreground twin of the background worker (identical jobs,
    /// identical order, identical I/O).
    pub fn maintain(&self) -> Result<(), LsmError> {
        let mut st = self.lock();
        while let Some(job) = maintenance::pick_job(&st) {
            maintenance::run_job(&mut st, job)?;
        }
        Ok(())
    }

    /// Force a memtable flush now (even below thresholds).
    pub fn flush_now(&self) -> Result<(), LsmError> {
        let mut st = self.lock();
        if st.mem.is_empty() {
            return Ok(());
        }
        maintenance::run_job(&mut st, maintenance::Job::Flush)
    }

    /// Wait until the background worker has drained all due
    /// maintenance, surfacing any job failure.
    pub fn wait_idle(&self) -> Result<(), LsmError> {
        let mut st = self.lock();
        loop {
            if let Some(e) = st.last_maintenance_err.take() {
                return Err(e);
            }
            if maintenance::pick_job(&st).is_none() {
                return Ok(());
            }
            self.shared.work.notify_one();
            st = self.shared.idle.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Point lookup with the optimal strategy.
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, LsmError> {
        self.get_with(key, ScanStrategy::Optimal)
    }

    /// Point lookup under an explicit paper-§3 strategy.
    ///
    /// * `Optimal` walks sources newest-first and stops at the first
    ///   entry for the key (relies on the level-recency invariant). The
    ///   fence index picks the one frame per run that could hold it.
    /// * `Basic` materializes the full set-union of Put entries and
    ///   set-difference against Delete entries, exactly R = (B∪A)−D.
    pub fn get_with(&self, key: u64, strategy: ScanStrategy) -> Result<Option<Vec<u8>>, LsmError> {
        let mut st = self.lock();
        let st = &mut *st;
        match strategy {
            ScanStrategy::Optimal => {
                if let Some(e) = st.mem.get(&key) {
                    return Ok(value_of(e));
                }
                for desc in st.manifest.live_runs() {
                    if let Some(e) = run::lookup_run(&st.disk, &mut st.fences, &desc, key)? {
                        return Ok(value_of(&e));
                    }
                }
                Ok(None)
            }
            ScanStrategy::Basic => {
                let rows = basic_range(st, key, key)?;
                Ok(rows.into_iter().next().map(|(_, v)| v))
            }
        }
    }

    /// Range scan over `lo..=hi` under an explicit strategy; rows come
    /// back key-sorted with tombstoned keys elided.
    pub fn range(
        &self,
        lo: u64,
        hi: u64,
        strategy: ScanStrategy,
    ) -> Result<Vec<(u64, Vec<u8>)>, LsmError> {
        let mut st = self.lock();
        let st = &mut *st;
        match strategy {
            ScanStrategy::Optimal => optimal_range(st, lo, hi),
            ScanStrategy::Basic => basic_range(st, lo, hi),
        }
    }

    /// Full scan (all keys) under a strategy.
    pub fn scan(&self, strategy: ScanStrategy) -> Result<Vec<(u64, Vec<u8>)>, LsmError> {
        self.range(0, u64::MAX, strategy)
    }

    /// Cumulative operation counters (the disk's retry counters folded
    /// in).
    pub fn stats(&self) -> LsmStats {
        let st = self.lock();
        let mut s = st.stats.clone();
        s.write_retries = st.disk.write_retries();
        s.read_retries = st.disk.read_retries();
        s
    }

    /// A clone of the current manifest (level topology, pending and
    /// retired extents) for tests and benches.
    pub fn manifest(&self) -> Manifest {
        self.lock().manifest.clone()
    }

    /// Keys currently in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.lock().mem.len()
    }

    /// Raw device write count (write-amplification numerator).
    pub fn disk_writes(&self) -> u64 {
        self.lock().disk.writes()
    }

    /// Raw device frame-read count (read fan-in numerator; write
    /// verification reads count too).
    pub fn disk_reads(&self) -> u64 {
        self.lock().disk.reads()
    }

    /// Crash-consistent copy of the device, faults detached — the
    /// sweep's "power fails now" primitive.
    pub fn crash_image(&self) -> LsmImage {
        LsmImage {
            disk: self.lock().disk.snapshot(),
        }
    }

    /// Single-pass, redo-only recovery. Reads the best manifest slot,
    /// derives the free map as arena − live runs (counting `pending`
    /// extents as orphans and `retired` ones as reclaimed), and
    /// replays complete journal batches of the current generation into
    /// the memtable. **Writes nothing**: recovering twice from the
    /// same image yields byte-identical disks.
    pub fn recover(
        image: LsmImage,
        cfg: LsmConfig,
    ) -> Result<(LsmStore, LsmRecoveryReport), LsmError> {
        Self::recover_inner(image, cfg, LsmMetrics::default())
    }

    /// [`LsmStore::recover`] wired to an observability registry.
    pub fn recover_with_registry(
        image: LsmImage,
        cfg: LsmConfig,
        registry: &Registry,
    ) -> Result<(LsmStore, LsmRecoveryReport), LsmError> {
        Self::recover_inner(image, cfg, LsmMetrics::from_registry(registry))
    }

    fn recover_inner(
        image: LsmImage,
        cfg: LsmConfig,
        metrics: LsmMetrics,
    ) -> Result<(LsmStore, LsmRecoveryReport), LsmError> {
        let disk = image.disk;
        let Some(mut mf) = manifest::read_best(&disk, &cfg) else {
            return Err(LsmError::Storage(StorageError::Protocol(
                "no valid LSM manifest slot",
            )));
        };
        if mf.levels.len() != cfg.max_levels {
            return Err(LsmError::Storage(StorageError::Protocol(
                "manifest level count does not match config",
            )));
        }
        let mut report = LsmRecoveryReport {
            manifest_version: mf.version,
            journal_gen: mf.journal_gen,
            orphan_runs: mf.pending.len() as u64,
            orphan_frames: mf.pending.iter().map(|e| e.frames).sum(),
            reclaimed_runs: mf.retired.len() as u64,
            reclaimed_frames: mf.retired.iter().map(|e| e.frames).sum(),
            ..LsmRecoveryReport::default()
        };
        // The pending/retired lists have served their purpose
        // (accounting); in memory both are cleared so the next runtime
        // publish drops them from disk. The frames themselves are
        // reclaimed below purely by derivation.
        mf.pending.clear();
        mf.retired.clear();

        // Free map = arena − live runs.
        let mut live: Vec<Extent> = mf.live_runs().iter().map(RunDesc::extent).collect();
        live.sort_by_key(|e| e.start);
        let mut free = Vec::new();
        let mut cursor = cfg.arena_start();
        let arena_end = cfg.arena_start() + cfg.arena_frames;
        for e in &live {
            if e.start < cursor || e.start + e.frames > arena_end {
                return Err(LsmError::Storage(StorageError::Protocol(
                    "manifest runs overlap or escape the arena",
                )));
            }
            if e.start > cursor {
                free.push(Extent {
                    start: cursor,
                    frames: e.start - cursor,
                });
            }
            cursor = e.start + e.frames;
        }
        if cursor < arena_end {
            free.push(Extent {
                start: cursor,
                frames: arena_end - cursor,
            });
        }

        // Replay complete journal batches of the current generation.
        let mut mem: BTreeMap<u64, LsmEntry> = BTreeMap::new();
        let mut head = 0u64;
        let mut batch = 0u64;
        let mut max_seq = mf.next_seq.saturating_sub(1);
        'scan: while head < cfg.journal_frames {
            let addr = cfg.journal_start() + head;
            let Some((hdr, first)) = read_journal_frame(&disk, addr) else {
                break;
            };
            if hdr.gen != mf.journal_gen || hdr.batch != batch || hdr.idx != 0 {
                break;
            }
            if hdr.total == 0 || head + u64::from(hdr.total) > cfg.journal_frames {
                break;
            }
            let mut batch_entries = first;
            for i in 1..hdr.total {
                let addr = cfg.journal_start() + head + u64::from(i);
                let Some((h2, more)) = read_journal_frame(&disk, addr) else {
                    break 'scan;
                };
                if h2.gen != hdr.gen
                    || h2.batch != hdr.batch
                    || h2.idx != i
                    || h2.total != hdr.total
                {
                    break 'scan;
                }
                batch_entries.extend(more);
            }
            for e in batch_entries {
                max_seq = max_seq.max(e.seq);
                report.replayed_entries += 1;
                match mem.get(&e.key) {
                    Some(cur) if cur.seq >= e.seq => {}
                    _ => {
                        mem.insert(e.key, e);
                    }
                }
            }
            head += u64::from(hdr.total);
            batch += 1;
            report.replayed_batches += 1;
        }

        metrics.levels_live.set(mf.levels_live());
        metrics.l0_runs.set(mf.l0.len() as u64);
        metrics.memtable_entries.set(mem.len() as u64);
        let state = LsmState {
            next_seq: max_seq + 1,
            next_txn: 1,
            journal_head: head,
            journal_batch: batch,
            manifest: mf,
            mem,
            free,
            fences: FenceCache::default(),
            disk,
            cfg,
            txns: HashMap::new(),
            locks: HashMap::new(),
            faults: None,
            crash_site: None,
            flush_requested: false,
            stats: LsmStats::default(),
            metrics,
            shutdown: false,
            last_maintenance_err: None,
        };
        Ok((Self::finish_construction(state), report))
    }
}

impl Drop for LsmStore {
    fn drop(&mut self) {
        if let Some(h) = self.worker.take() {
            lock_state(&self.shared).shutdown = true;
            self.shared.work.notify_all();
            let _ = h.join();
        }
    }
}

fn value_of(e: &LsmEntry) -> Option<Vec<u8>> {
    match &e.op {
        LsmOp::Put(v) => Some(v.clone()),
        LsmOp::Delete => None,
    }
}

fn release_locks(st: &mut LsmState, txn: u64, buf: &TxnBuf) {
    for key in buf.writes.keys() {
        if st.locks.get(key) == Some(&txn) {
            st.locks.remove(key);
        }
    }
}

/// Write the sealed batch: every frame verified, then one force —
/// the commit point — then the memtable apply.
fn commit_write(
    st: &mut LsmState,
    mut entries: Vec<LsmEntry>,
    expected_frames: usize,
) -> Result<(), LsmError> {
    let base = st.next_seq;
    let n = entries.len() as u64;
    for (i, e) in entries.iter_mut().enumerate() {
        e.seq = base + i as u64;
    }
    // Re-chunk with real sequence numbers; sizes are unchanged (seq is
    // fixed-width) so the frame count is identical.
    let room = PAYLOAD_SIZE - JOURNAL_HDR;
    let chunks_final =
        codec::chunk_entries(&entries, room).expect("re-chunk of sized batch cannot fail");
    debug_assert_eq!(chunks_final.len(), expected_frames);
    let gen = st.manifest.journal_gen;
    let batch = st.journal_batch;
    let total = chunks_final.len() as u32;
    for (i, chunk) in chunks_final.iter().enumerate() {
        let addr = st.cfg.journal_start() + st.journal_head + i as u64;
        let mut payload = Vec::with_capacity(JOURNAL_HDR + chunk.len());
        put_u64(&mut payload, gen);
        put_u64(&mut payload, batch);
        put_u32(&mut payload, i as u32);
        put_u32(&mut payload, total);
        payload.extend_from_slice(chunk);
        let mut page = Page::new(PageId(addr));
        page.write_at(0, &payload);
        st.disk.write_page_verified(addr, &page)?;
        st.stats.journal_frames_written += 1;
    }
    st.disk.force()?;
    // Committed: apply to the memtable.
    for e in entries {
        st.stats.user_bytes += 8 + match &e.op {
            LsmOp::Put(v) => v.len() as u64,
            LsmOp::Delete => 0,
        };
        st.mem.insert(e.key, e);
    }
    st.journal_head += u64::from(total);
    st.journal_batch += 1;
    st.next_seq = base + n;
    Ok(())
}

struct JournalHdr {
    gen: u64,
    batch: u64,
    idx: u32,
    total: u32,
}

fn read_journal_frame(disk: &Disk, addr: u64) -> Option<(JournalHdr, Vec<LsmEntry>)> {
    disk.read_page_retry_with(addr, |p| {
        let b = p.payload();
        let mut off = 0usize;
        let gen = get_u64(b, &mut off)?;
        let batch = get_u64(b, &mut off)?;
        let idx = get_u32(b, &mut off)?;
        let total = get_u32(b, &mut off)?;
        let entries = codec::decode_chunk(&b[off..])?;
        Some((
            JournalHdr {
                gen,
                batch,
                idx,
                total,
            },
            entries,
        ))
    })
    .ok()?
}

/// Paper-§3 "basic" plan: materialize the set-union of all Put entries
/// and the set-difference against all Delete entries across every
/// source, then keep keys whose newest Put outlives their newest
/// Delete.
fn basic_range(st: &mut LsmState, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, LsmError> {
    let mut a: BTreeMap<u64, (u64, Vec<u8>)> = BTreeMap::new();
    let mut d: BTreeMap<u64, u64> = BTreeMap::new();
    fn absorb(
        a: &mut BTreeMap<u64, (u64, Vec<u8>)>,
        d: &mut BTreeMap<u64, u64>,
        lo: u64,
        hi: u64,
        e: &LsmEntry,
    ) {
        if e.key < lo || e.key > hi {
            return;
        }
        match &e.op {
            LsmOp::Put(v) => {
                if a.get(&e.key).is_none_or(|(s, _)| *s < e.seq) {
                    a.insert(e.key, (e.seq, v.clone()));
                }
            }
            LsmOp::Delete => {
                if d.get(&e.key).is_none_or(|s| *s < e.seq) {
                    d.insert(e.key, e.seq);
                }
            }
        }
    }
    for e in st.mem.values() {
        absorb(&mut a, &mut d, lo, hi, e);
    }
    for desc in st.manifest.live_runs() {
        for e in run::read_run(&st.disk, &desc)? {
            absorb(&mut a, &mut d, lo, hi, &e);
        }
    }
    Ok(a.into_iter()
        .filter(|(k, (s, _))| d.get(k).is_none_or(|ds| ds < s))
        .map(|(k, (_, v))| (k, v))
        .collect())
}

/// Optimal plan: walk sources newest-first; the first source holding a
/// key decides it (no sequence comparison — this leans on the
/// level-recency invariant, which is exactly what the equivalence
/// proptest checks against the basic plan). Each run contributes only
/// the frames its fences say overlap `lo..=hi`.
fn optimal_range(st: &mut LsmState, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, LsmError> {
    let mut chosen: BTreeMap<u64, LsmEntry> = BTreeMap::new();
    for (k, e) in st.mem.range(lo..=hi) {
        chosen.entry(*k).or_insert_with(|| e.clone());
    }
    for desc in st.manifest.live_runs() {
        for e in run::read_span(&st.disk, &mut st.fences, &desc, lo, hi)? {
            if e.key < lo || e.key > hi {
                continue;
            }
            chosen.entry(e.key).or_insert(e);
        }
    }
    Ok(chosen
        .into_iter()
        .filter_map(|(k, e)| match e.op {
            LsmOp::Put(v) => Some((k, v)),
            LsmOp::Delete => None,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> LsmConfig {
        LsmConfig {
            journal_frames: 16,
            arena_frames: 128,
            memtable_limit: 8,
            l0_limit: 2,
            level_base_frames: 2,
            fanout: 2,
            max_levels: 3,
            ..LsmConfig::default()
        }
    }

    fn put1(db: &LsmStore, key: u64, val: &[u8]) {
        let t = db.begin();
        db.put(t, key, val).unwrap();
        db.commit(t).unwrap();
    }

    #[test]
    fn commit_flush_compact_query() {
        let db = LsmStore::new(small_cfg()).unwrap();
        for k in 0..40u64 {
            put1(&db, k, &[k as u8; 8]);
        }
        db.maintain().unwrap();
        let m = db.manifest();
        assert!(
            m.l0.len() <= 2,
            "L0 over limit after maintain: {}",
            m.l0.len()
        );
        assert!(db.stats().flushes >= 1);
        for k in 0..40u64 {
            assert_eq!(db.get(k).unwrap(), Some(vec![k as u8; 8]), "key {k}");
        }
        assert_eq!(db.get(999).unwrap(), None);
    }

    #[test]
    fn delete_shadows_across_levels() {
        let db = LsmStore::new(small_cfg()).unwrap();
        for k in 0..20u64 {
            put1(&db, k, b"v1");
        }
        db.flush_now().unwrap();
        db.maintain().unwrap();
        let t = db.begin();
        db.delete(t, 3).unwrap();
        db.put(t, 4, b"v2").unwrap();
        db.commit(t).unwrap();
        assert_eq!(db.get(3).unwrap(), None);
        assert_eq!(db.get(4).unwrap(), Some(b"v2".to_vec()));
        db.flush_now().unwrap();
        db.maintain().unwrap();
        assert_eq!(db.get(3).unwrap(), None);
        assert_eq!(db.get(4).unwrap(), Some(b"v2".to_vec()));
        // Basic and optimal agree on the full scan.
        assert_eq!(
            db.scan(ScanStrategy::Basic).unwrap(),
            db.scan(ScanStrategy::Optimal).unwrap()
        );
    }

    #[test]
    fn recovery_replays_journal_and_levels() {
        let db = LsmStore::new(small_cfg()).unwrap();
        for k in 0..30u64 {
            put1(&db, k, &k.to_le_bytes());
        }
        db.maintain().unwrap();
        // A few unflushed commits stay journal-only.
        put1(&db, 100, b"tail-a");
        put1(&db, 101, b"tail-b");
        let before: Vec<(u64, Vec<u8>)> = db.scan(ScanStrategy::Optimal).unwrap();
        let image = db.crash_image();
        let (rec, report) = LsmStore::recover(image, small_cfg()).unwrap();
        assert!(report.replayed_batches >= 2, "report: {report:?}");
        assert_eq!(rec.scan(ScanStrategy::Optimal).unwrap(), before);
        // Post-recovery liveness.
        put1(&rec, 200, b"after");
        assert_eq!(rec.get(200).unwrap(), Some(b"after".to_vec()));
    }

    #[test]
    fn double_recovery_is_byte_identical() {
        let db = LsmStore::new(small_cfg()).unwrap();
        for k in 0..25u64 {
            put1(&db, k, &[0xAB; 16]);
        }
        db.maintain().unwrap();
        put1(&db, 77, b"journal-tail");
        let image = db.crash_image();
        let dump0 = image.dump();
        let (rec1, _) = LsmStore::recover(image, small_cfg()).unwrap();
        let image1 = rec1.crash_image();
        assert_eq!(dump0, image1.dump(), "recovery wrote to the disk");
        let (rec2, _) = LsmStore::recover(image1, small_cfg()).unwrap();
        assert_eq!(dump0, rec2.crash_image().dump());
    }

    /// A store with two L0 runs, an L1 run and an L2 run, each spanning
    /// several frames (400-byte values: nine entries a frame), and an
    /// empty memtable.
    fn multi_frame_store() -> (LsmStore, LsmConfig) {
        let cfg = LsmConfig {
            journal_frames: 128,
            arena_frames: 512,
            memtable_limit: 10_000,
            l0_limit: 2,
            level_base_frames: 8,
            fanout: 8,
            max_levels: 3,
            ..LsmConfig::default()
        };
        let db = LsmStore::new(cfg.clone()).unwrap();
        let write = |keys: Vec<u64>| {
            for batch in keys.chunks(8) {
                let t = db.begin();
                for &k in batch {
                    db.put(t, k, &[k as u8; 400]).unwrap();
                }
                db.commit(t).unwrap();
            }
            db.flush_now().unwrap();
        };
        // Three L0 runs compact into L1, which overflows into L2.
        write((0..300).collect());
        write((300..310).collect());
        write((310..320).collect());
        db.maintain().unwrap();
        // Three more fold into a new L1 that fits its budget.
        let l1: Vec<u64> = (0..320).step_by(8).collect();
        for part in l1.chunks(14) {
            write(part.to_vec());
        }
        db.maintain().unwrap();
        // Two stay in L0.
        write((3..320).step_by(16).collect());
        write((5..320).step_by(16).collect());
        db.maintain().unwrap();
        (db, cfg)
    }

    #[test]
    fn fences_bound_the_frames_a_read_touches() {
        let (db, cfg) = multi_frame_store();
        let m = db.manifest();
        let live = m.live_runs();
        assert_eq!(m.l0.len(), 2, "{m:?}");
        assert!(m.levels[0].is_some() && m.levels[1].is_some(), "{m:?}");
        assert!(live.iter().all(|d| d.frames >= 2), "{live:?}");
        assert_eq!(db.memtable_len(), 0);
        // Installs filled the cache and retired runs left it.
        let ids: std::collections::BTreeSet<u64> = live.iter().map(|d| d.run_id).collect();
        assert_eq!(db.lock().fences.run_ids(), ids);

        // An optimal get reads at most one frame per live run, including
        // keys below every fence, on a fence, and past the last frame.
        for key in (0..330).chain([u64::MAX]) {
            let before = db.disk_reads();
            let got = db.get(key).unwrap();
            let reads = db.disk_reads() - before;
            assert!(reads <= live.len() as u64, "get({key}) read {reads} frames");
            assert_eq!(
                got,
                db.get_with(key, ScanStrategy::Basic).unwrap(),
                "key {key}"
            );
        }

        // A narrow range reads only the frames it overlaps.
        let total: u64 = live.iter().map(|d| d.frames).sum();
        let before = db.disk_reads();
        let rows = db.range(100, 110, ScanStrategy::Optimal).unwrap();
        let reads = db.disk_reads() - before;
        assert!(reads < total, "range read {reads} of {total} frames");
        assert!(reads <= 2 * live.len() as u64, "range read {reads} frames");
        assert_eq!(rows, db.range(100, 110, ScanStrategy::Basic).unwrap());
        assert_eq!(
            db.scan(ScanStrategy::Optimal).unwrap(),
            db.scan(ScanStrategy::Basic).unwrap()
        );

        // Recovery reads no arena frame: it succeeds, with the same report
        // and read count, on an image whose whole arena is garbage.
        let (rec, report) = LsmStore::recover(db.crash_image(), cfg.clone()).unwrap();
        let mut scrambled = db.crash_image();
        for addr in cfg.arena_start()..cfg.arena_start() + cfg.arena_frames {
            scrambled
                .disk
                .write_frame(addr, &[0xEE; rmdb_storage::FRAME_SIZE])
                .unwrap();
        }
        let scrambled_writes = scrambled.disk.writes();
        let (blind, blind_report) = LsmStore::recover(scrambled, cfg).unwrap();
        assert_eq!(report, blind_report);
        assert_eq!(rec.disk_reads(), blind.disk_reads());
        assert_eq!(blind.disk_writes(), scrambled_writes, "recovery wrote");
        assert!(rec.lock().fences.run_ids().is_empty());
        assert!(matches!(
            blind.get(100),
            Err(LsmError::Storage(StorageError::Corrupt { .. }))
        ));

        // The first touch reads each run whole and caches its fences; from
        // then on gets are bounded again.
        assert_eq!(rec.get(100).unwrap(), db.get(100).unwrap());
        assert!(!rec.lock().fences.run_ids().is_empty());
        rec.scan(ScanStrategy::Optimal).unwrap();
        assert_eq!(rec.lock().fences.run_ids(), ids);
        for key in [0, 101, 250, 319, 5000] {
            let before = rec.disk_reads();
            assert_eq!(rec.get(key).unwrap(), db.get(key).unwrap(), "key {key}");
            assert!(rec.disk_reads() - before <= live.len() as u64);
        }
    }

    #[test]
    fn background_worker_flushes_under_pressure() {
        let cfg = LsmConfig {
            background: true,
            ..small_cfg()
        };
        let db = LsmStore::new(cfg).unwrap();
        for k in 0..120u64 {
            put1(&db, k, &[1u8; 32]);
        }
        db.wait_idle().unwrap();
        assert!(db.stats().flushes >= 1);
        for k in 0..120u64 {
            assert_eq!(db.get(k).unwrap(), Some(vec![1u8; 32]), "key {k}");
        }
    }
}
