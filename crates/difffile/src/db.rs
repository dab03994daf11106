//! [`DiffDb`]: the differential-file engine.
//!
//! Disk layout (one [`Disk`], backend chosen by [`DiffConfig::backend`]):
//!
//! ```text
//! [ base area 0 | base area 1 | A file | D file | master ]
//! ```
//!
//! The base file is read-only; a quiescent [`DiffDb::merge`] builds the new
//! base `(B ∪ A) − D` in the inactive area and flips the master frame
//! atomically (the same dual-area trick the shadow pager uses for its page
//! table). Additions and deletions append to the `A`/`D` files, tagged with
//! the operation's global sequence number and its transaction. The master
//! also holds the [`CommitRecord`], so a commit is a single atomic master
//! write. The record lists the ids below its high mark that did not commit
//! but may have entries in the files; a merge leaves none of those
//! readable and empties the list. A tuple is *live* when it is
//! the newest visible version of its key and no newer visible deletion
//! covers it. One scan decides that rule for [`DiffDb::query`],
//! [`DiffDb::get`] and [`DiffDb::merge`] alike. The master and every
//! logical `A`/`D` frame is a [`SlotPair`] (two physical frames), so no
//! write lands on acked state.

use crate::tuple::{fits, read_entries, write_entries, Entry, Tuple, FIRST_ENTRY};
use rmdb_storage::fault::FaultHandle;
use rmdb_storage::{
    BackendKind, CommitRecord, Disk, LockMode, Page, PageId, SlotPair, StorageError, TxnError,
    TxnTable, PAYLOAD_SIZE,
};
use std::collections::{BTreeSet, HashMap};

/// Transaction id.
pub type TxnId = u64;

/// Fewest base pages a scan hands one worker. On a 2-core host one worker
/// scanned `difffile_bench`'s 91 pages in ≈24 µs and two took ≈65 µs; a
/// second worker first paid off at 728 pages, two chunks of 364.
const MIN_CHUNK_PAGES: usize = 256;

/// Pages per scan chunk: up to `workers` even chunks of at least
/// [`MIN_CHUNK_PAGES`], or one chunk when the base is smaller.
fn chunk_pages(pages: usize, workers: usize) -> usize {
    let parts = workers.min(pages / MIN_CHUNK_PAGES).max(1);
    pages.div_ceil(parts).max(1)
}

/// Master byte the [`CommitRecord`] starts at, after the base area, page
/// count and merge floor.
const RECORD_AT: usize = 17;

/// Query-processing strategy (paper §4.3: *basic* vs *optimal*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStrategy {
    /// Set-difference against the `D` file for every `B ∪ A` page.
    Basic,
    /// Set-difference only for pages that yielded at least one candidate
    /// tuple — the optimization that moves the bottleneck back to the
    /// disks in Table 9.
    Optimal,
}

/// Configuration for a [`DiffDb`].
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Frames per base area (two areas exist).
    pub base_capacity: u64,
    /// Logical frames in the `A` file (two physical frames each).
    pub a_capacity: u64,
    /// Logical frames in the `D` file (two physical frames each).
    pub d_capacity: u64,
    /// Which block-device backend holds the single durable disk.
    pub backend: BackendKind,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            base_capacity: 64,
            a_capacity: 32,
            d_capacity: 32,
            backend: BackendKind::Mem,
        }
    }
}

impl DiffConfig {
    fn a_start(&self) -> u64 {
        2 * self.base_capacity
    }
    fn d_start(&self) -> u64 {
        self.a_start() + 2 * self.a_capacity
    }
    /// The master record's two slots.
    fn master(&self) -> SlotPair {
        SlotPair::at(self.d_start() + 2 * self.d_capacity)
    }
    fn total_frames(&self) -> u64 {
        self.d_start() + 2 * self.d_capacity + 2
    }
}

/// Errors from the differential-file engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// Underlying storage failed.
    Storage(StorageError),
    /// Not an active transaction.
    UnknownTxn(TxnId),
    /// Key is write-locked by another transaction.
    KeyLocked {
        /// Contested key.
        key: u64,
        /// Holder.
        holder: TxnId,
    },
    /// The A/D file is full, or the commit record cannot list every
    /// undecided id — merge required.
    SpaceExhausted,
    /// Merge attempted while transactions were active.
    NotQuiescent,
}

impl From<StorageError> for DiffError {
    fn from(e: StorageError) -> Self {
        DiffError::Storage(e)
    }
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::Storage(e) => write!(f, "storage: {e}"),
            DiffError::UnknownTxn(t) => write!(f, "unknown txn {t}"),
            DiffError::KeyLocked { key, holder } => {
                write!(f, "key {key} locked by txn {holder}")
            }
            DiffError::SpaceExhausted => write!(f, "differential file full; merge required"),
            DiffError::NotQuiescent => write!(f, "merge requires no active transactions"),
        }
    }
}

impl std::error::Error for DiffError {}

impl From<TxnError> for DiffError {
    fn from(e: TxnError) -> Self {
        match e {
            TxnError::Unknown(txn) => DiffError::UnknownTxn(txn),
            TxnError::Conflict(c) => DiffError::KeyLocked {
                key: c.page.0,
                holder: c.holder,
            },
        }
    }
}

/// Page-access statistics — the quantities the paper's Tables 9–11 track.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffStats {
    /// Base pages scanned.
    pub base_pages_read: u64,
    /// A-file pages scanned.
    pub a_pages_read: u64,
    /// D-file pages consulted for set-differences.
    pub d_pages_read: u64,
    /// Set-difference operations performed (per consulted page).
    pub set_difference_ops: u64,
    /// Tuples examined by predicates.
    pub tuples_examined: u64,
    /// A/D frames written.
    pub diff_writes: u64,
    /// Merges completed.
    pub merges: u64,
}

impl std::ops::AddAssign for DiffStats {
    fn add_assign(&mut self, o: DiffStats) {
        self.base_pages_read += o.base_pages_read;
        self.a_pages_read += o.a_pages_read;
        self.d_pages_read += o.d_pages_read;
        self.set_difference_ops += o.set_difference_ops;
        self.tuples_examined += o.tuples_examined;
        self.diff_writes += o.diff_writes;
        self.merges += o.merges;
    }
}

/// One differential file (`A` or `D`): its entries, durable or not, and
/// the region they flush to, where logical frame `f` is the [`SlotPair`]
/// at `start + 2f`.
struct DiffFile {
    start: u64,
    capacity: u64,
    all: Vec<Entry>,
    /// How many leading entries of `all` are durable.
    durable: usize,
    /// Version of each frame's newest copy (0: never written).
    versions: Vec<u64>,
    /// The last frame written and the index of its first entry: every
    /// frame before it is full and never changes, so a flush packs from
    /// here.
    tail: (u64, usize),
}

impl DiffFile {
    fn new(start: u64, capacity: u64) -> Self {
        DiffFile {
            start,
            capacity,
            all: Vec::new(),
            durable: 0,
            versions: vec![0; capacity as usize],
            tail: (0, 0),
        }
    }

    /// Drop every entry: a merge folded them into the base.
    fn clear(&mut self) {
        self.all.clear();
        self.durable = 0;
        self.tail = (0, 0);
    }

    fn pair(&self, frame: u64) -> SlotPair {
        SlotPair::at(self.start + 2 * frame)
    }

    /// Reload the entries at or above `merge_floor` from each frame's
    /// newest copy, up to the first frame with none (stale pre-merge
    /// frames hold only older ones). Every frame's version is picked up,
    /// so a later rewrite outranks a stale copy.
    fn recover(disk: &Disk, start: u64, capacity: u64, merge_floor: u64) -> Self {
        let mut file = DiffFile::new(start, capacity);
        let mut open = true;
        for f in 0..capacity {
            let id = PageId(file.pair(f).slot(0));
            let Some((version, entries)) = file
                .pair(f)
                .read(disk, |p| (p.id == id).then(|| read_entries(p)))
            else {
                open = false; // never written, or both copies torn
                continue;
            };
            file.versions[f as usize] = version;
            let fresh = entries.into_iter().filter(|e| e.seq >= merge_floor);
            let before = file.all.len();
            if open {
                file.all.extend(fresh);
                open = file.all.len() > before;
                if open {
                    file.tail = (f, before);
                }
            }
        }
        file.durable = file.all.len();
        file
    }

    /// Write the frames holding entries that are not yet durable, each as
    /// the next version of its pair. Packing is deterministic, so packing
    /// from the tail frame packs every later frame as a flush from frame 0
    /// would.
    fn flush(&mut self, disk: &mut Disk, stats: &mut DiffStats) -> Result<(), DiffError> {
        if self.durable == self.all.len() {
            return Ok(());
        }
        let (mut frame, mut first) = self.tail;
        while first < self.all.len() {
            if frame >= self.capacity {
                return Err(DiffError::SpaceExhausted);
            }
            let mut page = Page::new(PageId(self.pair(frame).slot(0)));
            let n = write_entries(&mut page, &self.all[first..]);
            if n == 0 {
                return Err(DiffError::SpaceExhausted); // entry larger than a page
            }
            if first + n > self.durable {
                let version = self.versions[frame as usize] + 1;
                self.pair(frame).write(disk, version, page)?;
                self.versions[frame as usize] = version;
                self.tail = (frame, first);
                stats.diff_writes += 1;
            }
            first += n;
            frame += 1;
        }
        self.durable = self.all.len();
        Ok(())
    }

    /// Pages the entries fill, packed by the rule [`DiffFile::flush`]
    /// packs them by.
    fn pages(&self) -> u64 {
        let mut pages = 0u64;
        let mut end = PAYLOAD_SIZE; // no page open: the first entry opens one
        for e in &self.all {
            let len = e.encoded_len();
            if !fits(end, len) {
                pages += 1;
                end = FIRST_ENTRY;
            }
            end += len;
        }
        pages
    }
}

/// The newest visible insert and delete seq of each key, as one viewer
/// sees the `A` and `D` files (a key with none counts as 0).
struct Liveness {
    inserts: HashMap<u64, u64>,
    deletes: HashMap<u64, u64>,
}

impl Liveness {
    /// Whether the `B` or `A` entry of `key` at `seq` is live: no newer
    /// visible insert supersedes it and no newer visible delete covers it.
    fn is_live(&self, key: u64, seq: u64) -> bool {
        let newest = |m: &HashMap<u64, u64>| m.get(&key).copied().unwrap_or(0);
        newest(&self.inserts) <= seq && newest(&self.deletes) <= seq
    }
}

/// One evaluation of `R = (B ∪ A) − D`: the viewer's liveness, the
/// predicate, the strategy, and the `D` pages each set-difference reads.
struct Scan<'a, F> {
    live: Liveness,
    pred: &'a F,
    strategy: ScanStrategy,
    d_pages: u64,
}

impl<F: Fn(&Tuple) -> bool> Scan<'_, F> {
    /// Scan one set-difference unit, `entries` read as `pages` pages: the
    /// live candidates go to `out`, the charges to `stats`.
    fn unit<'e>(
        &self,
        entries: impl Iterator<Item = &'e Entry>,
        pages: u64,
        out: &mut Vec<Tuple>,
        stats: &mut DiffStats,
    ) {
        let mut candidates = false;
        for e in entries {
            stats.tuples_examined += 1;
            if (self.pred)(&e.tuple) {
                candidates = true;
                if self.live.is_live(e.tuple.key, e.seq) {
                    out.push(e.tuple.clone());
                }
            }
        }
        if candidates || self.strategy == ScanStrategy::Basic {
            stats.set_difference_ops += pages;
            stats.d_pages_read += self.d_pages * pages;
        }
    }

    /// Scan a run of base pages, each its own set-difference unit.
    fn base_chunk(&self, pages: &[Vec<Entry>]) -> (Vec<Tuple>, DiffStats) {
        let mut out = Vec::new();
        let mut stats = DiffStats {
            base_pages_read: pages.len() as u64,
            ..DiffStats::default()
        };
        for page in pages {
            self.unit(page.iter(), 1, &mut out, &mut stats);
        }
        (out, stats)
    }
}

/// Crash image.
#[derive(Debug)]
pub struct DiffImage {
    /// The single durable disk.
    pub disk: Disk,
}

/// The differential-file engine.
///
/// ```
/// use rmdb_difffile::{DiffConfig, DiffDb, ScanStrategy, Tuple};
///
/// let base = vec![Tuple { key: 1, value: b"one".to_vec() }];
/// let mut db = DiffDb::with_base(DiffConfig::default(), base).unwrap();
/// let t = db.begin();
/// db.insert(t, 2, b"two").unwrap();     // appends to the A file
/// db.delete(t, 1).unwrap();             // appends to the D file
/// db.commit(t).unwrap();                // one atomic master write
///
/// let t = db.begin();
/// let all = db.query(t, |_| true, ScanStrategy::Optimal, 1).unwrap();
/// assert_eq!(all.len(), 1);
/// assert_eq!(all[0].key, 2);            // R = (B ∪ A) − D
/// ```
pub struct DiffDb {
    cfg: DiffConfig,
    disk: Disk,
    /// In-memory mirror of the current base, page by page.
    base: Vec<Vec<Entry>>,
    base_area: u8,
    /// Version of the master's newest copy.
    master_seq: u64,
    /// Entries whose `seq` is below this were merged away; recovery
    /// ignores them even if their frames still exist.
    merge_floor: u64,
    /// The A and D files.
    a: DiffFile,
    d: DiffFile,
    /// The commit record, as the master last wrote it.
    record: CommitRecord,
    /// Open transactions; the lock keys are tuple keys.
    txns: TxnTable<()>,
    /// Ids with entries in the files that did not commit: open
    /// transactions, aborts and crash losers since the last merge.
    uncommitted: BTreeSet<TxnId>,
    next_seq: u64,
    stats: DiffStats,
}

impl DiffDb {
    /// A fresh, empty database.
    pub fn new(cfg: DiffConfig) -> Self {
        let mut db = DiffDb {
            disk: cfg
                .backend
                .provision(cfg.total_frames())
                .expect("provision difffile backend"),
            base: Vec::new(),
            base_area: 0,
            master_seq: 0,
            merge_floor: 0,
            a: DiffFile::new(cfg.a_start(), cfg.a_capacity),
            d: DiffFile::new(cfg.d_start(), cfg.d_capacity),
            record: CommitRecord::default(),
            txns: TxnTable::new(1),
            uncommitted: BTreeSet::new(),
            next_seq: 1,
            stats: DiffStats::default(),
            cfg,
        };
        db.write_master(CommitRecord::default())
            .expect("fresh disk fits the master frame");
        db
    }

    /// Load a database with initial base tuples (bulk load, bypassing the
    /// transaction machinery — the read-only `B` of the paper).
    pub fn with_base(cfg: DiffConfig, tuples: Vec<Tuple>) -> Result<Self, DiffError> {
        let mut db = DiffDb::new(cfg);
        let entries: Vec<Entry> = tuples.into_iter().map(Entry::base).collect();
        db.write_base(&entries, 0)?;
        db.write_master(db.record.clone())?;
        Ok(db)
    }

    /// Write the master with `record`, which is then the one in force.
    fn write_master(&mut self, record: CommitRecord) -> Result<(), DiffError> {
        let seq = self.master_seq + 1;
        let mut m = Page::new(PageId(u64::MAX));
        m.write_at(0, &[self.base_area]);
        m.write_at(1, &(self.base.len() as u64).to_le_bytes());
        m.write_at(9, &self.merge_floor.to_le_bytes());
        if !record.encode(&mut m, RECORD_AT) {
            return Err(DiffError::SpaceExhausted);
        }
        self.cfg.master().write(&mut self.disk, seq, m)?;
        (self.master_seq, self.record) = (seq, record);
        Ok(())
    }

    /// Attach one shared fault injector to the disk.
    pub fn attach_faults(&mut self, handle: &FaultHandle) {
        self.disk.attach_faults(handle.clone());
    }

    /// Write `entries` into base area `area` and point the in-memory base
    /// at them. Does *not* flip the master.
    fn write_base(&mut self, entries: &[Entry], area: u8) -> Result<(), DiffError> {
        let start = area as u64 * self.cfg.base_capacity;
        let mut pages: Vec<Vec<Entry>> = Vec::new();
        let mut rest = entries;
        while !rest.is_empty() {
            if pages.len() as u64 >= self.cfg.base_capacity {
                return Err(DiffError::SpaceExhausted);
            }
            let mut page = Page::new(PageId(start + pages.len() as u64));
            let n = write_entries(&mut page, rest);
            if n == 0 {
                return Err(DiffError::SpaceExhausted); // entry larger than a page
            }
            self.disk
                .write_page_verified(start + pages.len() as u64, &page)?;
            pages.push(rest[..n].to_vec());
            rest = &rest[n..];
        }
        self.base = pages;
        self.base_area = area;
        Ok(())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DiffStats {
        self.stats
    }

    /// Number of durable base pages.
    pub fn base_pages(&self) -> usize {
        self.base.len()
    }

    /// Entries currently in the A file (committed or not).
    pub fn a_entries(&self) -> usize {
        self.a.all.len()
    }

    /// Entries currently in the D file (committed or not).
    pub fn d_entries(&self) -> usize {
        self.d.all.len()
    }

    /// Durable A-file pages (the paper's differential-file size knob).
    pub fn a_pages(&self) -> u64 {
        self.a.pages()
    }

    /// Durable D-file pages.
    pub fn d_pages(&self) -> u64 {
        self.d.pages()
    }

    /// Begin a transaction.
    pub fn begin(&mut self) -> TxnId {
        self.txns.begin(|_| ())
    }

    /// Write-lock `key` for `txn` and tag the next sequence number.
    fn write_seq(&mut self, txn: TxnId, key: u64) -> Result<u64, DiffError> {
        self.txns.lock(txn, key, LockMode::Exclusive)?;
        self.uncommitted.insert(txn);
        self.next_seq += 1;
        Ok(self.next_seq - 1)
    }

    fn flush_tails(&mut self) -> Result<(), DiffError> {
        self.a.flush(&mut self.disk, &mut self.stats)?;
        self.d.flush(&mut self.disk, &mut self.stats)
    }

    /// Insert a tuple (appends to the A file).
    pub fn insert(&mut self, txn: TxnId, key: u64, value: &[u8]) -> Result<(), DiffError> {
        let seq = self.write_seq(txn, key)?;
        self.a.all.push(Entry {
            seq,
            txn,
            tuple: Tuple {
                key,
                value: value.to_vec(),
            },
        });
        Ok(())
    }

    /// Delete a key (appends to the D file).
    pub fn delete(&mut self, txn: TxnId, key: u64) -> Result<(), DiffError> {
        let seq = self.write_seq(txn, key)?;
        self.d.all.push(Entry {
            seq,
            txn,
            tuple: Tuple {
                key,
                value: Vec::new(),
            },
        });
        Ok(())
    }

    /// Update = delete + insert, per the paper's view semantics.
    pub fn update(&mut self, txn: TxnId, key: u64, value: &[u8]) -> Result<(), DiffError> {
        self.delete(txn, key)?;
        self.insert(txn, key, value)
    }

    fn visible(&self, viewer: TxnId, e: &Entry) -> bool {
        e.txn == viewer || self.record.committed(e.txn)
    }

    /// Evaluate `R = (B ∪ A) − D` as `viewer` sees it: the live tuples
    /// matching `pred`, sorted by key, and what the scan charged. The base
    /// pages split into chunks by [`chunk_pages`]; the first chunk runs on
    /// the calling thread and each other one on a scoped thread. The visible
    /// `A` entries are one set-difference unit of [`DiffDb::a_pages`]
    /// pages.
    fn scan<F>(
        &self,
        viewer: TxnId,
        pred: &F,
        strategy: ScanStrategy,
        workers: usize,
    ) -> (Vec<Tuple>, DiffStats)
    where
        F: Fn(&Tuple) -> bool + Sync,
    {
        assert!(workers > 0, "a scan needs at least one worker");
        let sees = |e: &&Entry| e.seq >= self.merge_floor && self.visible(viewer, e);
        let newest = |file: &DiffFile| {
            let mut m = HashMap::new();
            for e in file.all.iter().filter(sees) {
                let s = m.entry(e.tuple.key).or_insert(0);
                *s = (*s).max(e.seq);
            }
            m
        };
        let scan = &Scan {
            live: Liveness {
                inserts: newest(&self.a),
                deletes: newest(&self.d),
            },
            pred,
            strategy,
            d_pages: self.d.pages().max(1),
        };
        let mut chunks = self.base.chunks(chunk_pages(self.base.len(), workers));
        let first = chunks.next().unwrap_or_default();
        let parts = std::thread::scope(|s| {
            let spawned: Vec<_> = chunks
                .map(|chunk| s.spawn(move || scan.base_chunk(chunk)))
                .collect();
            let mut parts = vec![scan.base_chunk(first)];
            parts.extend(
                spawned
                    .into_iter()
                    .map(|h| h.join().expect("scan worker panicked")),
            );
            parts
        });
        let (mut out, mut stats) = (Vec::new(), DiffStats::default());
        for (found, charged) in parts {
            out.extend(found);
            stats += charged;
        }
        let a_pages = self.a.pages();
        stats.a_pages_read += a_pages;
        scan.unit(
            self.a.all.iter().filter(sees),
            a_pages,
            &mut out,
            &mut stats,
        );
        out.sort_by_key(|t| t.key);
        (out, stats)
    }

    /// Point lookup of the live value for `key` (a one-worker
    /// [`DiffDb::query`]).
    pub fn get(&mut self, txn: TxnId, key: u64) -> Result<Option<Vec<u8>>, DiffError> {
        let found = self.query(txn, |t| t.key == key, ScanStrategy::Optimal, 1)?;
        Ok(found.into_iter().next().map(|t| t.value))
    }

    /// Scan the relation `R = (B ∪ A) − D` for tuples matching `pred`,
    /// with up to `workers` query processors dividing the base pages among
    /// themselves, the way the companion paper \[21\] describes (fewer
    /// when the base is small; one runs on the calling thread).
    ///
    /// The strategy controls when the set-difference against `D` is paid;
    /// statistics record the page-access pattern either way, the same at
    /// any worker count.
    ///
    /// # Panics
    ///
    /// If `workers` is 0.
    pub fn query<F>(
        &mut self,
        txn: TxnId,
        pred: F,
        strategy: ScanStrategy,
        workers: usize,
    ) -> Result<Vec<Tuple>, DiffError>
    where
        F: Fn(&Tuple) -> bool + Sync,
    {
        self.txns.get(txn)?;
        let (out, stats) = self.scan(txn, &pred, strategy, workers);
        self.stats += stats;
        Ok(out)
    }

    /// Commit: flush the A/D tails, then atomically write the master with
    /// the commit record, which lists every other open id and every id
    /// with uncommitted entries in the files. On any error the
    /// transaction stays open.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), DiffError> {
        self.txns.get(txn)?;
        self.flush_tails()?;
        let pending = self.txns.ids().chain(self.uncommitted.iter().copied());
        let record = self.record.commit(txn, pending);
        self.write_master(record)?;
        self.uncommitted.remove(&txn);
        self.txns.end(txn)?;
        Ok(())
    }

    /// Abort: no write. The transaction's appended entries stay in the
    /// files but are forever invisible (every record written while they
    /// are readable lists its id); the next merge reclaims them.
    pub fn abort(&mut self, txn: TxnId) -> Result<(), DiffError> {
        self.txns.end(txn)?;
        Ok(())
    }

    /// Merge the committed differential files into a new base:
    /// `B' = (B ∪ A) − D`, built in the inactive base area and installed
    /// with one atomic master write. Requires quiescence.
    pub fn merge(&mut self) -> Result<(), DiffError> {
        if !self.txns.is_empty() {
            return Err(DiffError::NotQuiescent);
        }
        // viewer 0 is no transaction: the committed-only view; a merge
        // charges no scan statistics
        let (tuples, _) = self.scan(0, &|_: &Tuple| true, ScanStrategy::Optimal, 1);
        let mut live: Vec<Entry> = tuples.into_iter().map(Entry::base).collect();
        live.dedup_by_key(|e| e.tuple.key); // the scan sorted them by key
        let new_area = 1 - self.base_area;
        self.write_base(&live, new_area)?;
        self.merge_floor = self.next_seq;
        // ← atomic install of the merged base; past the new floor no entry
        // of an undecided id is readable, so none needs listing
        self.write_master(CommitRecord {
            high: self.record.high,
            ..CommitRecord::default()
        })?;
        self.a.clear();
        self.d.clear();
        self.uncommitted.clear();
        self.stats.merges += 1;
        Ok(())
    }

    /// Capture durable state.
    pub fn crash_image(&self) -> DiffImage {
        DiffImage {
            disk: self.disk.snapshot(),
        }
    }

    /// Rebuild from a crash image: reload the master (base location,
    /// merge floor and commit record) and the durable A/D files. Entries
    /// tagged by transactions the record does not count committed stay
    /// invisible.
    pub fn recover(image: DiffImage, cfg: DiffConfig) -> Result<Self, DiffError> {
        let disk = image.disk;
        // Fields are clamped so a corrupted-but-checksum-valid master can
        // never index out of bounds.
        let Some((master_seq, (base_area, base_pages, merge_floor, record))) =
            cfg.master().read(&disk, |m| {
                let word = |at| u64::from_le_bytes(m.read_at(at, 8).try_into().expect("8"));
                let area = m.read_at(0, 1)[0];
                let record = CommitRecord::decode(m, RECORD_AT).filter(|_| area <= 1)?;
                Some((area, word(1).min(cfg.base_capacity), word(9), record))
            })
        else {
            return Err(DiffError::Storage(StorageError::Protocol(
                "no valid differential-file master frame",
            )));
        };

        let base_start = base_area as u64 * cfg.base_capacity;
        let mut base = Vec::with_capacity(base_pages as usize);
        for i in 0..base_pages {
            base.push(read_entries(&disk.read_page_retry(base_start + i)?));
        }

        let a = DiffFile::recover(&disk, cfg.a_start(), cfg.a_capacity, merge_floor);
        let d = DiffFile::recover(&disk, cfg.d_start(), cfg.d_capacity, merge_floor);

        let entries = || a.all.iter().chain(&d.all);
        let next_txn = entries().map(|e| e.txn).fold(record.high, u64::max) + 1;
        let next_seq = entries().map(|e| e.seq).fold(merge_floor, u64::max) + 1;
        let tagged = entries().map(|e| e.txn);
        let uncommitted = tagged.filter(|&t| !record.committed(t)).collect();

        Ok(DiffDb {
            disk,
            base,
            base_area,
            master_seq,
            merge_floor,
            a,
            d,
            record,
            txns: TxnTable::new(next_txn),
            uncommitted,
            next_seq,
            stats: DiffStats::default(),
            cfg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DiffConfig {
        DiffConfig {
            base_capacity: 16,
            a_capacity: 16,
            d_capacity: 16,
            ..Default::default()
        }
    }

    fn base_tuples(n: u64) -> Vec<Tuple> {
        (0..n)
            .map(|k| Tuple {
                key: k,
                value: format!("base-{k}").into_bytes(),
            })
            .collect()
    }

    fn all_of(db: &mut DiffDb) -> Vec<Tuple> {
        let t = db.begin();
        let v = db.query(t, |_| true, ScanStrategy::Optimal, 1).unwrap();
        db.abort(t).unwrap();
        v
    }

    #[test]
    fn base_load_and_scan() {
        let mut db = DiffDb::with_base(small(), base_tuples(50)).unwrap();
        let all = all_of(&mut db);
        assert_eq!(all.len(), 50);
        assert_eq!(all[7].value, b"base-7");
    }

    #[test]
    fn insert_visible_after_commit_only_to_others() {
        let mut db = DiffDb::with_base(small(), base_tuples(5)).unwrap();
        let t = db.begin();
        db.insert(t, 100, b"new").unwrap();
        // own view sees it
        let own = db
            .query(t, |x| x.key == 100, ScanStrategy::Optimal, 1)
            .unwrap();
        assert_eq!(own.len(), 1);
        // other txn does not
        let o = db.begin();
        assert!(db
            .query(o, |x| x.key == 100, ScanStrategy::Optimal, 1)
            .unwrap()
            .is_empty());
        db.abort(o).unwrap();
        db.commit(t).unwrap();
        assert_eq!(all_of(&mut db).len(), 6);
    }

    #[test]
    fn delete_hides_base_tuple() {
        let mut db = DiffDb::with_base(small(), base_tuples(5)).unwrap();
        let t = db.begin();
        db.delete(t, 2).unwrap();
        db.commit(t).unwrap();
        let keys: Vec<u64> = all_of(&mut db).iter().map(|t| t.key).collect();
        assert_eq!(keys, vec![0, 1, 3, 4]);
    }

    #[test]
    fn update_replaces_value() {
        let mut db = DiffDb::with_base(small(), base_tuples(5)).unwrap();
        let t = db.begin();
        db.update(t, 3, b"fresh").unwrap();
        db.commit(t).unwrap();
        let t2 = db.begin();
        assert_eq!(db.get(t2, 3).unwrap(), Some(b"fresh".to_vec()));
        db.abort(t2).unwrap();
        assert_eq!(all_of(&mut db).len(), 5);
    }

    #[test]
    fn aborted_ops_invisible() {
        let mut db = DiffDb::with_base(small(), base_tuples(5)).unwrap();
        let t = db.begin();
        db.insert(t, 99, b"junk").unwrap();
        db.delete(t, 0).unwrap();
        db.abort(t).unwrap();
        let all = all_of(&mut db);
        assert_eq!(all.len(), 5, "abort leaves the view unchanged");
        assert_eq!(all[0].key, 0);
    }

    #[test]
    fn reinsert_after_delete() {
        let mut db = DiffDb::with_base(small(), base_tuples(3)).unwrap();
        let t = db.begin();
        db.delete(t, 1).unwrap();
        db.commit(t).unwrap();
        let t2 = db.begin();
        db.insert(t2, 1, b"back").unwrap();
        db.commit(t2).unwrap();
        let t3 = db.begin();
        assert_eq!(db.get(t3, 1).unwrap(), Some(b"back".to_vec()));
        db.abort(t3).unwrap();
    }

    #[test]
    fn key_lock_conflicts() {
        let mut db = DiffDb::with_base(small(), base_tuples(3)).unwrap();
        let a = db.begin();
        let b = db.begin();
        db.update(a, 1, b"a").unwrap();
        assert_eq!(
            db.update(b, 1, b"b"),
            Err(DiffError::KeyLocked { key: 1, holder: a })
        );
        db.commit(a).unwrap();
        db.update(b, 1, b"b").unwrap();
        db.commit(b).unwrap();
        let t = db.begin();
        assert_eq!(db.get(t, 1).unwrap(), Some(b"b".to_vec()));
        db.abort(t).unwrap();
    }

    #[test]
    fn committed_ops_survive_crash() {
        let mut db = DiffDb::with_base(small(), base_tuples(10)).unwrap();
        let t = db.begin();
        db.insert(t, 50, b"durable").unwrap();
        db.delete(t, 4).unwrap();
        db.commit(t).unwrap();
        let mut db2 = DiffDb::recover(db.crash_image(), small()).unwrap();
        let t2 = db2.begin();
        assert_eq!(db2.get(t2, 50).unwrap(), Some(b"durable".to_vec()));
        assert_eq!(db2.get(t2, 4).unwrap(), None);
        db2.abort(t2).unwrap();
        assert_eq!(all_of(&mut db2).len(), 10);
    }

    #[test]
    fn uncommitted_ops_do_not_survive_crash() {
        let mut db = DiffDb::with_base(small(), base_tuples(10)).unwrap();
        let t0 = db.begin();
        db.insert(t0, 20, b"committed").unwrap();
        db.commit(t0).unwrap(); // flushes tail pages including...
        let t = db.begin();
        db.insert(t, 21, b"inflight").unwrap();
        db.delete(t, 0).unwrap();
        // crash: t's entries may or may not be durable; either way the
        // commit record decides
        let mut db2 = DiffDb::recover(db.crash_image(), small()).unwrap();
        let q = db2.begin();
        assert_eq!(db2.get(q, 20).unwrap(), Some(b"committed".to_vec()));
        assert_eq!(db2.get(q, 21).unwrap(), None);
        assert!(db2.get(q, 0).unwrap().is_some(), "delete rolled back");
        db2.abort(q).unwrap();
    }

    #[test]
    fn uncommitted_entries_on_flushed_pages_stay_invisible() {
        // force the in-flight txn's entries onto disk by committing a
        // *different* txn (tail pages are shared)
        let mut db = DiffDb::with_base(small(), base_tuples(5)).unwrap();
        let loser = db.begin();
        db.insert(loser, 30, b"loser").unwrap();
        let winner = db.begin();
        db.insert(winner, 31, b"winner").unwrap();
        db.commit(winner).unwrap(); // flush writes loser's entry too
        let mut db2 = DiffDb::recover(db.crash_image(), small()).unwrap();
        let q = db2.begin();
        assert_eq!(db2.get(q, 31).unwrap(), Some(b"winner".to_vec()));
        assert_eq!(db2.get(q, 30).unwrap(), None, "uncommitted tag ignored");
        db2.abort(q).unwrap();
    }

    #[test]
    fn a_commit_past_an_open_txn_lists_it_until_it_commits() {
        let mut db = DiffDb::with_base(small(), base_tuples(3)).unwrap();
        let early = db.begin();
        db.insert(early, 40, b"early").unwrap();
        let late = db.begin();
        db.insert(late, 41, b"late").unwrap();
        db.commit(late).unwrap(); // flushes `early`'s entry too
        assert_eq!(
            db.record.undecided.iter().copied().collect::<Vec<_>>(),
            [early]
        );
        let mut crashed = DiffDb::recover(db.crash_image(), small()).unwrap();
        let q = crashed.begin();
        assert_eq!(
            crashed.get(q, 40).unwrap(),
            None,
            "open below the high mark"
        );
        assert_eq!(crashed.get(q, 41).unwrap(), Some(b"late".to_vec()));
        crashed.abort(q).unwrap();
        // a later commit keeps the loser listed: its entry is still there
        let t = crashed.begin();
        crashed.insert(t, 42, b"after").unwrap();
        crashed.commit(t).unwrap();
        assert!(crashed.record.undecided.contains(&early));
        assert_eq!(all_of(&mut crashed).len(), 5);
        // live, the open txn commits below the high mark and leaves the list
        db.commit(early).unwrap();
        assert!(db.record.undecided.is_empty());
        let mut db = DiffDb::recover(db.crash_image(), small()).unwrap();
        assert_eq!(all_of(&mut db).len(), 5);
    }

    #[test]
    fn commits_run_past_the_old_commit_list_capacity() {
        // 2 frames of 508 ids once filled at commit 1,016
        let mut db = DiffDb::with_base(small(), base_tuples(64)).unwrap();
        for i in 0..2_000u64 {
            let key = i * 7 % 64;
            loop {
                let t = db.begin();
                db.update(t, key, &i.to_le_bytes()).unwrap();
                if i % 4 == 3 {
                    db.abort(t).unwrap();
                    break;
                }
                match db.commit(t) {
                    Ok(()) => break,
                    Err(DiffError::SpaceExhausted) => {
                        db.abort(t).unwrap();
                        db.merge().unwrap();
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        }
        assert_eq!(db.stats().merges, 1, "1,500 commits fill the A file once");
        let mut db = DiffDb::recover(db.crash_image(), small()).unwrap();
        let t = db.begin();
        // key 7·1998 % 64 = 34 was last written by i = 1998
        assert_eq!(
            db.get(t, 34).unwrap(),
            Some(1_998u64.to_le_bytes().to_vec())
        );
        db.abort(t).unwrap();
    }

    #[test]
    fn aborts_that_overflow_the_record_wait_for_a_merge() {
        let mut db = DiffDb::with_base(small(), base_tuples(3)).unwrap();
        for k in 0..600 {
            let t = db.begin();
            db.insert(t, 100 + k, b"gone").unwrap();
            db.abort(t).unwrap(); // no write
        }
        let t = db.begin();
        db.insert(t, 9, b"kept").unwrap();
        assert_eq!(db.commit(t), Err(DiffError::SpaceExhausted));
        db.abort(t).unwrap();
        db.merge().unwrap();
        let t = db.begin();
        db.insert(t, 9, b"kept").unwrap();
        db.commit(t).unwrap();
        assert!(db.record.undecided.is_empty());
        assert_eq!(all_of(&mut db).len(), 4);
    }

    #[test]
    fn merge_folds_files_into_base() {
        let mut db = DiffDb::with_base(small(), base_tuples(10)).unwrap();
        let t = db.begin();
        db.insert(t, 100, b"added").unwrap();
        db.delete(t, 3).unwrap();
        db.update(t, 5, b"newer").unwrap();
        db.commit(t).unwrap();
        assert!(db.a_entries() > 0);
        db.merge().unwrap();
        assert_eq!(db.a_entries(), 0);
        assert_eq!(db.d_entries(), 0);
        let all = all_of(&mut db);
        assert_eq!(all.len(), 10); // 10 - 1 deleted + 1 added
        assert!(all.iter().any(|t| t.key == 100 && t.value == b"added"));
        assert!(!all.iter().any(|t| t.key == 3));
        assert!(all.iter().any(|t| t.key == 5 && t.value == b"newer"));
        // merged state survives crash
        let mut db2 = DiffDb::recover(db.crash_image(), small()).unwrap();
        assert_eq!(all_of(&mut db2).len(), 10);
    }

    #[test]
    fn merge_requires_quiescence() {
        let mut db = DiffDb::with_base(small(), base_tuples(3)).unwrap();
        let t = db.begin();
        db.insert(t, 9, b"x").unwrap();
        assert_eq!(db.merge(), Err(DiffError::NotQuiescent));
        db.commit(t).unwrap();
        db.merge().unwrap();
    }

    #[test]
    fn merge_discards_aborted_entries() {
        let mut db = DiffDb::with_base(small(), base_tuples(3)).unwrap();
        let t = db.begin();
        db.insert(t, 9, b"junk").unwrap();
        db.abort(t).unwrap();
        db.merge().unwrap();
        assert_eq!(all_of(&mut db).len(), 3);
        // and post-merge inserts work
        let t2 = db.begin();
        db.insert(t2, 9, b"real").unwrap();
        db.commit(t2).unwrap();
        assert_eq!(all_of(&mut db).len(), 4);
    }

    #[test]
    fn basic_strategy_pays_setdiff_on_every_page() {
        let mut db = DiffDb::with_base(small(), base_tuples(200)).unwrap();
        let t = db.begin();
        db.delete(t, 0).unwrap();
        db.commit(t).unwrap();
        let q = db.begin();
        let s0 = db.stats();
        db.query(q, |t| t.key == 1, ScanStrategy::Basic, 1).unwrap();
        let basic_ops = db.stats().set_difference_ops - s0.set_difference_ops;
        let s1 = db.stats();
        db.query(q, |t| t.key == 1, ScanStrategy::Optimal, 1)
            .unwrap();
        let optimal_ops = db.stats().set_difference_ops - s1.set_difference_ops;
        db.abort(q).unwrap();
        assert!(
            basic_ops > optimal_ops,
            "basic {basic_ops} must exceed optimal {optimal_ops}"
        );
        assert!(optimal_ops >= 1);
    }

    #[test]
    fn parallel_query_matches_serial() {
        let mut db = DiffDb::with_base(small(), base_tuples(300)).unwrap();
        let t = db.begin();
        db.delete(t, 7).unwrap();
        db.insert(t, 500, b"par").unwrap();
        db.update(t, 9, b"upd").unwrap();
        db.commit(t).unwrap();
        let q = db.begin();
        let serial = db
            .query(
                q,
                |t| t.key % 3 == 0 || t.key >= 400,
                ScanStrategy::Optimal,
                1,
            )
            .unwrap();
        let parallel = db
            .query(
                q,
                |t| t.key % 3 == 0 || t.key >= 400,
                ScanStrategy::Optimal,
                4,
            )
            .unwrap();
        db.abort(q).unwrap();
        assert_eq!(serial, parallel);
        assert!(serial.iter().any(|t| t.key == 500));
        assert!(!serial.iter().any(|t| t.key == 7 && t.key % 3 != 0));
    }

    #[test]
    fn scans_split_only_past_the_chunk_floor() {
        assert_eq!(chunk_pages(0, 4), 1);
        assert_eq!(chunk_pages(91, 4), 91, "a small base stays on one thread");
        assert_eq!(
            chunk_pages(2 * MIN_CHUNK_PAGES - 1, 4),
            2 * MIN_CHUNK_PAGES - 1
        );
        assert_eq!(chunk_pages(2 * MIN_CHUNK_PAGES, 4), MIN_CHUNK_PAGES);
        assert_eq!(chunk_pages(3 * MIN_CHUNK_PAGES + 2, 2), 385);
        assert_eq!(chunk_pages(10 * MIN_CHUNK_PAGES, 4), 640);
        // three chunks of real pages: any worker count returns the same
        // tuples and charges the same pages
        let pages = 3 * MIN_CHUNK_PAGES as u64;
        let cfg = DiffConfig {
            base_capacity: pages,
            ..small()
        };
        let base = (0..pages)
            .map(|k| Tuple {
                key: k,
                value: vec![k as u8; 3_000], // one tuple a page
            })
            .collect();
        let mut db = DiffDb::with_base(cfg, base).unwrap();
        assert_eq!(db.base_pages(), pages as usize);
        let t = db.begin();
        db.delete(t, 5).unwrap();
        db.update(t, 700, b"moved").unwrap();
        db.commit(t).unwrap();
        let q = db.begin();
        let pred = |t: &Tuple| t.key.is_multiple_of(5);
        let (one, one_stats) = db.scan(q, &pred, ScanStrategy::Optimal, 1);
        for workers in 2..=4 {
            let (many, stats) = db.scan(q, &pred, ScanStrategy::Optimal, workers);
            assert_eq!((&many, stats), (&one, one_stats), "{workers} workers");
        }
        assert!(!one.iter().any(|t| t.key == 5));
        assert!(one.iter().any(|t| t.key == 700 && t.value == b"moved"));
    }

    #[test]
    fn a_file_exhaustion_reports() {
        let mut db = DiffDb::new(DiffConfig {
            base_capacity: 2,
            a_capacity: 1,
            d_capacity: 1,
            ..Default::default()
        });
        let t = db.begin();
        // each entry ~ 28+512 bytes; a single A frame fills quickly
        for k in 0..20 {
            db.insert(t, k, &[0u8; 512]).unwrap();
        }
        assert_eq!(db.commit(t), Err(DiffError::SpaceExhausted));
    }

    #[test]
    fn stats_track_page_reads() {
        let mut db = DiffDb::with_base(small(), base_tuples(100)).unwrap();
        let q = db.begin();
        db.query(q, |_| true, ScanStrategy::Basic, 1).unwrap();
        db.abort(q).unwrap();
        let s = db.stats();
        assert!(s.base_pages_read > 0);
        assert!(s.tuples_examined >= 100);
        assert!(s.set_difference_ops >= s.base_pages_read);
    }

    proptest::proptest! {
        /// `pages()` counts exactly the frames a flush from empty writes.
        /// A `None` length asks for the entry that fills the rest of the
        /// current page exactly, so page-filling entries are common.
        #[test]
        fn pages_count_the_frames_a_flush_writes(
            asks in proptest::collection::vec(proptest::option::of(0usize..600), 1..40)
        ) {
            const HEAD: usize = 28; // seq, txn, key, vlen
            let mut file = DiffFile::new(0, 64);
            let mut end = FIRST_ENTRY;
            for (i, ask) in asks.into_iter().enumerate() {
                let left = PAYLOAD_SIZE - end;
                let vlen = match ask {
                    Some(v) => v,
                    None if left >= HEAD => left - HEAD,
                    None => PAYLOAD_SIZE - FIRST_ENTRY - HEAD,
                };
                if end + HEAD + vlen > PAYLOAD_SIZE {
                    end = FIRST_ENTRY;
                }
                end += HEAD + vlen;
                let key = i as u64;
                file.all.push(Entry {
                    seq: key + 1,
                    txn: 1,
                    tuple: Tuple { key, value: vec![7; vlen] },
                });
            }
            let mut disk = BackendKind::Mem.provision(128).unwrap();
            let mut stats = DiffStats::default();
            file.flush(&mut disk, &mut stats).unwrap();
            proptest::prop_assert_eq!(stats.diff_writes, file.pages());
        }
    }
}
