//! Typed errors for the concurrent pipeline.
//!
//! The failover machinery needs to *classify* failures, not just report
//! them: a transient storage hiccup is retried in place, a persistent
//! device fault quarantines the stream and reroutes its fragments, and a
//! dead appender thread is diagnosed with its panic payload intact.
//! [`AppenderError`] is that classification; [`ExecError`] wraps it with
//! the rest of the pipeline's failure surface (lock conflicts, degraded
//! mode, poisoned locks) and carries a single `is_retryable` verdict that
//! [`crate::ExecDb::run_txn`] uses for its bounded retry loop.

use rmdb_storage::StorageError;
use rmdb_wal::WalError;

/// Why a log-appender interaction failed, classified for failover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppenderError {
    /// A storage fault that cleared (or may clear) on retry. The stream
    /// stays in the fleet; the caller should back off and try again.
    Transient(StorageError),
    /// The stream's device failed after the device's bounded retries
    /// ([`Disk::write_page_verified`](rmdb_storage::Disk::write_page_verified));
    /// the stream must be quarantined and its volatile fragments rerouted.
    Persistent(StorageError),
    /// The appender thread is gone — panicked (payload preserved) or its
    /// channel closed underneath a producer.
    ThreadDeath(String),
    /// The appender is alive but unresponsive: a wait exceeded its
    /// deadline without the thread reporting an error.
    Stalled { what: &'static str, waited_ms: u64 },
    /// The stream was already quarantined by failover; the fragment must
    /// be rerouted to a survivor.
    Quarantined,
    /// The ticket was issued against a stream incarnation that died
    /// before forcing it: the fragment was lost with the old appender's
    /// volatile tail and can never become durable here. The caller must
    /// reroute it — the stream itself is healthy (post-rejoin).
    Orphaned {
        /// The orphaned ticket.
        seq: u64,
    },
}

impl AppenderError {
    /// Short class label for metrics and event payloads.
    pub fn class(&self) -> &'static str {
        match self {
            AppenderError::Transient(_) => "transient",
            AppenderError::Persistent(_) => "persistent",
            AppenderError::ThreadDeath(_) => "thread_death",
            AppenderError::Stalled { .. } => "stalled",
            AppenderError::Quarantined => "quarantined",
            AppenderError::Orphaned { .. } => "orphaned",
        }
    }

    /// Ordinal for event payloads (stable, matches `class` order).
    pub fn class_ordinal(&self) -> u64 {
        match self {
            AppenderError::Transient(_) => 0,
            AppenderError::Persistent(_) => 1,
            AppenderError::ThreadDeath(_) => 2,
            AppenderError::Stalled { .. } => 3,
            AppenderError::Quarantined => 4,
            AppenderError::Orphaned { .. } => 5,
        }
    }

    /// Whether the failure warrants quarantining the stream (as opposed
    /// to retrying against it).
    pub fn is_fatal_to_stream(&self) -> bool {
        matches!(
            self,
            AppenderError::Persistent(_)
                | AppenderError::ThreadDeath(_)
                | AppenderError::Stalled { .. }
        )
    }
}

impl std::fmt::Display for AppenderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppenderError::Transient(e) => write!(f, "transient storage fault: {e}"),
            AppenderError::Persistent(e) => write!(f, "persistent storage fault: {e}"),
            AppenderError::ThreadDeath(msg) => write!(f, "appender thread died: {msg}"),
            AppenderError::Stalled { what, waited_ms } => {
                write!(f, "appender stalled: {what} timed out after {waited_ms} ms")
            }
            AppenderError::Quarantined => write!(f, "stream is quarantined"),
            AppenderError::Orphaned { seq } => {
                write!(f, "ticket {seq} orphaned by a stream rejoin; reroute it")
            }
        }
    }
}

/// Pipeline-level error: everything [`crate::ExecDb`] can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An underlying WAL error (lock conflicts, storage faults outside
    /// the appender fleet, protocol violations).
    Wal(WalError),
    /// A log-appender failure, tagged with the stream it happened on so
    /// failover can quarantine the right one.
    Appender { stream: usize, error: AppenderError },
    /// A bounded wait gave up (e.g. [`crate::CommitHandle::wait`]).
    Timeout { what: &'static str, waited_ms: u64 },
    /// The retry budget ran out without a commit.
    Starved { attempts: u64 },
    /// Degraded mode: fewer than the configured minimum of log streams
    /// survive, so the pipeline sheds load instead of wedging.
    Degraded { live: usize, min: usize },
    /// A lock guarding non-repairable state was poisoned by a panicking
    /// thread; the protected invariants cannot be trusted.
    Poisoned { what: &'static str },
    /// A stream-rejoin step failed (device still unhealthy, thread not
    /// retired, prefix revalidation error): the stream stays quarantined
    /// and the membership manager retries on a later probe.
    Rejoin { stream: usize, reason: String },
}

impl ExecError {
    /// A refused membership change (rejoin, replace, park, unpark) of
    /// `stream`.
    pub(crate) fn rejoin(stream: usize, reason: impl Into<String>) -> Self {
        ExecError::Rejoin {
            stream,
            reason: reason.into(),
        }
    }

    /// Whether [`crate::ExecDb::run_txn`] should abort, back off, and try
    /// again: lock conflicts and appender failures are retryable (a
    /// failed stream is quarantined and the retry routes around it);
    /// degraded mode, starvation, and poisoning are terminal.
    ///
    /// [`ExecError::Timeout`] is deliberately **not** retryable: a
    /// timed-out [`crate::CommitHandle::wait`] leaves the request owned
    /// by the group-commit daemon, which may still force the commit
    /// record after the waiter gives up (e.g. a device stall that clears
    /// inside the daemon's own bounded waits). Re-executing the body
    /// then would apply the transaction's effects twice. The outcome is
    /// *indeterminate* — only the caller can decide what that means.
    pub fn is_retryable(&self) -> bool {
        match self {
            ExecError::Wal(WalError::LockConflict { .. }) => true,
            ExecError::Appender { .. } => true,
            ExecError::Timeout { .. }
            | ExecError::Wal(_)
            | ExecError::Starved { .. }
            | ExecError::Degraded { .. }
            | ExecError::Poisoned { .. }
            | ExecError::Rejoin { .. } => false,
        }
    }

    /// The lock-conflict holder, when that is what this error is.
    pub fn lock_conflict(&self) -> Option<rmdb_wal::TxnId> {
        match self {
            ExecError::Wal(WalError::LockConflict { holder, .. }) => Some(*holder),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Wal(e) => write!(f, "{e}"),
            ExecError::Appender { stream, error } => {
                write!(f, "log stream {stream}: {error}")
            }
            ExecError::Timeout { what, waited_ms } => {
                write!(f, "{what} timed out after {waited_ms} ms")
            }
            ExecError::Starved { attempts } => {
                write!(f, "transaction starved after {attempts} attempts")
            }
            ExecError::Degraded { live, min } => {
                write!(
                    f,
                    "degraded mode: {live} live log streams < minimum {min}; shedding load"
                )
            }
            ExecError::Poisoned { what } => {
                write!(f, "poisoned lock: {what}")
            }
            ExecError::Rejoin { stream, reason } => {
                write!(f, "stream {stream} rejoin failed: {reason}")
            }
        }
    }
}

impl From<WalError> for ExecError {
    fn from(e: WalError) -> Self {
        ExecError::Wal(e)
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Wal(WalError::Storage(e))
    }
}

impl std::error::Error for ExecError {}
