//! Concurrent transaction pipeline for the parallel-WAL architecture.
//!
//! The simulation crates model the paper's multiprocessor as an event
//! loop; this crate runs it on real threads. The paper's machine
//! organisation maps one-to-one onto the pipeline's actors:
//!
//! | paper role | thread |
//! |---|---|
//! | query processor | caller worker ([`Executor`] or any thread) |
//! | log processor | [`LogAppender`] — one per log stream |
//! | back-end controller, scheduler | [`ExecDb`] lock path + wait slots |
//! | back-end controller, commit | group-commit daemon ([`CommitHandle`]) |
//! | recovery supervisor | health-check thread ([`supervisor`]) |
//!
//! Fragments flow from workers to their transaction's log processor over
//! bounded channels; commit forces are batched across streams by the
//! timerless group-commit daemon (a batch is whatever queued while the
//! previous one forced); the monolithic engine mutex is decomposed into a
//! scheduler mutex, sharded buffer-pool locks and per-stream append
//! state. Crash images taken from a live pipeline recover through the
//! ordinary [`rmdb_wal::WalDb::recover`] path — same log format, same
//! distributed-log analysis, no merging.
//!
//! A supervisor thread health-checks the appender fleet; a log processor
//! that dies mid-run (device failure, thread panic, wedged I/O) is
//! quarantined and its in-flight fragments rerouted to survivors — see
//! [`supervisor`] and [`error::AppenderError`] for the failure taxonomy.
//! The same supervisor doubles as the membership manager: recovered
//! devices rejoin the fleet ([`ExecDb::rejoin_stream`]) and dead ones are
//! replaced ([`ExecDb::replace_stream`]). A stream out of routing is
//! always a quarantined stream.
//!
//! # Example
//!
//! ```
//! use rmdb_exec::{ExecConfig, ExecDb};
//! use std::sync::Arc;
//!
//! let db = Arc::new(ExecDb::new(ExecConfig::default()));
//! crossbeam::thread::scope(|s| {
//!     for w in 0..4usize {
//!         let db = Arc::clone(&db);
//!         s.spawn(move |_| {
//!             db.run_txn(w, |ctx| ctx.write(w as u64, 0, b"hello"))
//!                 .unwrap();
//!         });
//!     }
//! })
//! .unwrap();
//! assert_eq!(db.stats().committed, 4);
//! ```

// This crate is failover-critical: a mutex `unwrap()` that panics while a
// sibling holds poisoned state turns one stream's death into a pipeline-wide
// outage. Library code must use `sync::lock_ok` (or a typed error path)
// instead; `scripts/verify.sh` promotes this to an error. Test modules are
// exempt — panicking on a poisoned lock in a test is exactly right.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod appender;
pub mod db;
pub mod error;
pub mod executor;
pub mod group;
pub mod supervisor;

pub use appender::{AppenderProbe, LogAppender, TicketInheritance};
pub use db::{
    ConflictCause, ExecConfig, ExecCtx, ExecDb, ExecStats, RejoinReport, SnapshotCtx, Txn,
};
pub use error::{AppenderError, ExecError};
pub use executor::{Executor, JobHandle};
pub use group::CommitHandle;

/// Poison-tolerant lock helpers shared by the pipeline's actors.
pub(crate) mod sync {
    use std::sync::{Mutex, MutexGuard};

    /// Acquire `m`, repairing poisoning: every mutex this is used on
    /// guards state whose invariants hold at *every* store (counters,
    /// deposited values, already-validated queues), so a panic in one
    /// holder cannot leave the data half-updated — the right response
    /// is to keep the pipeline alive, not to cascade the panic into
    /// every thread that touches the lock afterwards. Locks whose
    /// guarded state *can* be mid-update (the scheduler's lock table)
    /// instead surface [`crate::ExecError::Poisoned`] at the call site.
    pub(crate) fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }
}
