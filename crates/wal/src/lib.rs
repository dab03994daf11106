//! Parallel write-ahead logging — the paper's winning recovery architecture,
//! implemented functionally.
//!
//! The architecture (paper §3.1): when a query processor updates a page it
//! creates a *log fragment* and ships it to one of N *log processors*, each
//! owning a log disk. The log processor assembles fragments from many query
//! processors into 4 KB log pages and writes them sequentially to its disk.
//! The back-end controller tracks, per updated page, which log processor
//! holds its fragment, and enforces the write-ahead rule: an updated data
//! page may be written to the data disk only after its fragment is on
//! stable storage. A transaction's fragments are scattered over several
//! logs; recovery works **without merging the distributed logs** (companion
//! paper \[13\]), which this crate re-derives using per-page LSNs.
//!
//! Layout of this crate:
//!
//! * [`record`] — log-record types and their wire encoding;
//! * [`stream`] — one log stream: byte-oriented appends framed into 4 KB
//!   checksummed log pages on a [`rmdb_storage::MemDisk`], with a durable
//!   truncation point;
//! * [`select`] — the four log-processor selection policies studied in
//!   Table 3 (cyclic, random, QP mod N, Txn mod N);
//! * [`manager`] — the bank of N streams plus routing;
//! * [`scheduler`] — the blocking back-end controller scheduler `ExecDb`
//!   uses, over the page-level strict two-phase
//!   [`LockTable`](rmdb_storage::LockTable) of `rmdb-storage`;
//! * [`capture`] — the write-side vocabulary both engines share: the
//!   `Update` fragment builder, undo entries, deferred capture (one pool
//!   pin per distinct page, budget from the pool or shard size) with the
//!   commit-time logging decision, and the doublewrite slot layout;
//! * [`db`] — [`WalDb`], the user-facing engine: begin/read/write/commit/
//!   abort/checkpoint plus crash images; its transactions and no-wait page
//!   locks live in a [`TxnTable`](rmdb_storage::TxnTable);
//! * [`recovery`] — the one recovery engine: checkpoint-bounded analysis
//!   over the distributed logs, repeat-history redo sharded by page across
//!   K workers (fragment installs and command re-execution alike),
//!   compensated undo, and a durable finish that truncates behind the
//!   bound.
//!
//! # Example
//!
//! ```
//! use rmdb_wal::{WalConfig, WalDb};
//!
//! let mut db = WalDb::new(WalConfig::default());
//! let t = db.begin();
//! db.write(t, 3, 0, b"hello").unwrap();
//! db.commit(t).unwrap();
//!
//! // crash and recover: the committed write survives
//! let image = db.crash_image();
//! let (mut db2, report) = WalDb::recover(image, WalConfig::default()).unwrap();
//! let t2 = db2.begin();
//! assert_eq!(db2.read(t2, 3, 0, 5).unwrap(), b"hello");
//! assert_eq!(report.redone_updates, 1);
//! ```

pub mod backoff;
pub mod capture;
pub mod db;
pub mod manager;
pub mod record;
pub mod recovery;
pub mod scheduler;
pub mod select;
pub mod stream;

pub use backoff::Backoff;
pub use db::{CrashImage, LogMode, LoggingPolicy, Savepoint, TxnId, WalConfig, WalDb, WalError};
pub use manager::ParallelLogManager;
pub use record::{LogRecord, LogicalOp, DECISION_COST, DECISION_FORCED};
pub use recovery::{recover_observed, RecoveryReport};
pub use rmdb_storage::{LockMode, LockTable};
pub use scheduler::{Decision, Scheduler, WaitStats};
pub use select::SelectionPolicy;
pub use stream::{IndexedRecord, LogStream, ScanStats};
