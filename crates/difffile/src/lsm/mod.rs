//! Leveled differential-file store — the paper's A/D pair, grown into
//! an LSM hierarchy.
//!
//! The paper's differential file holds one append set A and one delete
//! set D next to a static base B, with every read evaluating
//! R = (B ∪ A) − D. That shape is the direct ancestor of the LSM tree:
//! each *level run* here is a sorted differential file (its Put entries
//! are an A-set, its tombstones a D-set) laid over everything below it.
//! This module promotes rmdb-difffile from the single A/D pair of
//! [`crate::DiffDb`] to a leveled store:
//!
//! * an in-memory **memtable** of committed entries, made durable by a
//!   sealed-batch **journal** (each commit occupies fresh frames; a
//!   torn tail can only lose the in-flight commit, never a prior one);
//! * **L0 runs** flushed from the memtable, newest first;
//! * deeper **levels** L1..Ln holding one sorted run each, maintained
//!   by background (or foreground) compaction;
//! * a **dual-slot versioned manifest** — the same [`SlotPair`] commit
//!   point as the shadow pager's master record — that makes every flush
//!   and compaction an atomic, crash-recoverable transition.
//!
//! Recovery is single-pass, redo-only and performs **zero writes**
//! (the discipline of Sauer & Härder's REDO-only recovery): it picks
//! the newest valid manifest slot, derives the free-space map as
//! arena − live runs, counts `pending` extents as orphans of a torn
//! flush/compaction (GC'd, never read) and replays the journal tail
//! into the memtable. Because nothing is written, double recovery is
//! byte-identical to single recovery by construction.
//!
//! Reads keep an in-memory **fence index**: for each live run, the
//! first key of each of its frames, keyed by [`RunDesc::run_id`]. It is
//! derived and never stored. Flush and compaction fill it at install
//! from the chunks they just wrote (and drop the runs they retire); a
//! run adopted by recovery gets its fences on the first read that
//! touches it, so recovery still reads no run frame. With it an
//! optimal point get reads at most one frame per run, and an optimal
//! range scan only the frames that overlap the range. Every frame read
//! is still checksum-verified and strictly decoded.
//!
//! All I/O — foreground commits and background maintenance alike —
//! goes through the one [`rmdb_storage::Disk`] with whatever
//! [`rmdb_storage::FaultHandle`] the caller attached, so torn writes,
//! device death mid-merge and crash-after-k exercise the compactor
//! exactly as they exercise the commit path. Reads retry and writes
//! verify through [`Disk::read_page_retry_with`](rmdb_storage::Disk::read_page_retry_with),
//! which decodes a run or journal frame where it lies, and
//! [`Disk::write_page_verified`](rmdb_storage::Disk::write_page_verified),
//! under the device's one retry budget, and the disk counts every
//! retry; [`LsmStats`] reports those counts.

mod codec;
mod maintenance;
mod manifest;
mod run;
mod store;

pub use codec::{LsmEntry, LsmOp};
pub use manifest::{Extent, Manifest, RunDesc};
pub use store::{LsmImage, LsmRecoveryReport, LsmStore};

use rmdb_storage::{BackendKind, SlotPair, StorageError};

/// Configuration for [`LsmStore`].
///
/// Disk layout (frames):
/// `[ journal | arena (runs) | manifest slot 0 | manifest slot 1 ]`.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Frames reserved for the commit journal. Commits seal whole
    /// frames, so this bounds how many commits fit between flushes.
    pub journal_frames: u64,
    /// Frames in the run arena shared by all levels.
    pub arena_frames: u64,
    /// Flush the memtable once it holds this many keys.
    pub memtable_limit: usize,
    /// Compact L0 into L1 once it holds more than this many runs.
    pub l0_limit: usize,
    /// Size budget for L1 in frames; level `i` gets
    /// `level_base_frames * fanout^(i-1)`.
    pub level_base_frames: u64,
    /// Geometric growth factor between level budgets.
    pub fanout: u64,
    /// Number of levels below L0 (L1..=L`max_levels`).
    pub max_levels: usize,
    /// Which block-device backend to provision.
    pub backend: BackendKind,
    /// Spawn a background maintenance thread. When `false`, flushes
    /// run inline when the journal fills and tests drive compaction
    /// explicitly via [`LsmStore::maintain`].
    pub background: bool,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            journal_frames: 64,
            arena_frames: 512,
            memtable_limit: 96,
            l0_limit: 4,
            level_base_frames: 8,
            fanout: 4,
            max_levels: 4,
            backend: BackendKind::Mem,
            background: false,
        }
    }
}

impl LsmConfig {
    /// First journal frame.
    pub(crate) fn journal_start(&self) -> u64 {
        0
    }

    /// First arena frame.
    pub(crate) fn arena_start(&self) -> u64 {
        self.journal_frames
    }

    /// The manifest's two slots, after the arena.
    pub(crate) fn manifest_slots(&self) -> SlotPair {
        SlotPair::at(self.journal_frames + self.arena_frames)
    }

    /// Total frames the store needs.
    pub(crate) fn total_frames(&self) -> u64 {
        self.journal_frames + self.arena_frames + 2
    }

    /// Frame budget for the level at `levels[idx]` (i.e. L`idx+1`).
    pub(crate) fn level_budget(&self, idx: usize) -> u64 {
        self.level_base_frames * self.fanout.saturating_pow(idx as u32)
    }
}

/// Named deterministic crash sites inside the flush/compaction
/// protocol, tripped one-shot via [`LsmStore::set_crash_site`].
///
/// Each site calls [`rmdb_storage::FaultInjector::crash_now`] on the
/// attached fault handle at the named protocol step, so a sweep can
/// pin the crash to the interesting transition instead of hunting for
/// the equivalent global write index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// Output run fully written, install manifest **not** published:
    /// the output must be GC'd as an orphan and the inputs must still
    /// serve reads.
    PreManifestPublish,
    /// Halfway through writing the output run (intent manifest
    /// published): recovery sees a `pending` extent with torn pages
    /// and must never read it.
    MidLevelWrite,
    /// Install manifest published, input extents not yet reclaimed:
    /// recovery must serve from the new run and reclaim the retired
    /// inputs.
    PostPublishPreGc,
}

/// Errors surfaced by [`LsmStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsmError {
    /// The underlying device failed.
    Storage(StorageError),
    /// A write lock on `key` is held by another transaction.
    Conflict {
        /// Contended key.
        key: u64,
        /// Transaction holding the lock.
        holder: u64,
    },
    /// The transaction id is unknown (never begun, or already ended).
    UnknownTxn(u64),
    /// A structural limit was hit (batch larger than the journal,
    /// arena exhausted, manifest overflow).
    Capacity(&'static str),
}

impl From<StorageError> for LsmError {
    fn from(e: StorageError) -> Self {
        LsmError::Storage(e)
    }
}

impl std::fmt::Display for LsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LsmError::Storage(e) => write!(f, "storage error: {e:?}"),
            LsmError::Conflict { key, holder } => {
                write!(f, "key {key} locked by txn {holder}")
            }
            LsmError::UnknownTxn(t) => write!(f, "unknown txn {t}"),
            LsmError::Capacity(what) => write!(f, "capacity: {what}"),
        }
    }
}

impl std::error::Error for LsmError {}

/// Cumulative operation counters, including the retry accounting that
/// the fault sweeps compare between foreground and background
/// maintenance paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LsmStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions.
    pub aborts: u64,
    /// Memtable flushes installed.
    pub flushes: u64,
    /// Compactions installed.
    pub compactions: u64,
    /// Flush/compaction jobs aborted by a device fault or injected
    /// crash.
    pub maintenance_aborts: u64,
    /// Frames of run data written by flush + compaction (write
    /// amplification numerator, together with journal frames).
    pub run_frames_written: u64,
    /// Journal frames written by commits.
    pub journal_frames_written: u64,
    /// Payload bytes handed to [`LsmStore::put`] by committed
    /// transactions (write-amplification denominator).
    pub user_bytes: u64,
    /// Extra write+verify rounds beyond the first, anywhere in the
    /// store (commit, manifest, run output): the store disk's
    /// [`Disk::write_retries`](rmdb_storage::Disk::write_retries).
    pub write_retries: u64,
    /// Extra read rounds beyond the first: the store disk's
    /// [`Disk::read_retries`](rmdb_storage::Disk::read_retries).
    pub read_retries: u64,
}
