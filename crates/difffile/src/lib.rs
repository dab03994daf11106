//! Differential-file recovery (paper §3.3), implemented functionally.
//!
//! Following Severance & Lohman and its decomposition in Stonebraker's
//! hypothetical-database work, each relation `R` is the view
//!
//! ```text
//! R = (B ∪ A) − D
//! ```
//!
//! where `B` is a read-only base file, additions are appended to the `A`
//! file and deletions to the `D` file. The base file is never written in
//! place, which is the whole recovery story: transaction durability is one
//! atomic write of the master frame that holds the commit record, aborted
//! transactions simply leave invisible tagged tuples behind, and crash
//! recovery is a reload of that record.
//!
//! The costs the paper measures fall out of the query path: every retrieval
//! turns into a set-union plus set-difference. [`ScanStrategy::Basic`]
//! performs the set-difference against the `D` file for **every** `B ∪ A`
//! page; [`ScanStrategy::Optimal`] — the paper's optimization — only for
//! pages that produced at least one candidate tuple. One scan evaluates
//! the view for [`DiffDb::query`], [`DiffDb::get`] and [`DiffDb::merge`];
//! its `workers` argument divides the base pages among the database
//! machine's query processors, the way the companion paper \[21\]
//! describes.
//!
//! The [`lsm`] module grows the single A/D pair into a **leveled**
//! differential store — memtable, journal, L0 runs, compacted levels,
//! dual-slot versioned manifest — where every flush and compaction is
//! an atomic, crash-recoverable transition and recovery is redo-only.

pub mod db;
pub mod lsm;
pub mod tuple;

pub use db::{DiffConfig, DiffDb, DiffError, DiffImage, DiffStats, ScanStrategy};
pub use lsm::{
    CrashSite, Extent, LsmConfig, LsmEntry, LsmError, LsmImage, LsmOp, LsmRecoveryReport, LsmStats,
    LsmStore, Manifest, RunDesc,
};
pub use tuple::{Entry, Tuple};
