//! Umbrella crate for the workspace: re-exports the public API of every
//! sub-crate so the examples and integration tests can use a single
//! dependency.
//!
//! See [`rmdb_core`] for the top-level experiment API, and the individual
//! crates for the functional recovery mechanisms:
//!
//! * [`rmdb_wal`] — parallel write-ahead logging
//! * [`rmdb_exec`] — the concurrent transaction pipeline (real threads)
//! * [`rmdb_shadow`] — shadow paging (thru page-table, version selection,
//!   overwriting)
//! * [`rmdb_difffile`] — differential files
//! * [`rmdb_machine`] — the database-machine simulator behind the paper's
//!   tables

pub use rmdb_core as core;
pub use rmdb_difffile as difffile;
pub use rmdb_disk as disk;
pub use rmdb_exec as exec;
pub use rmdb_machine as machine;
pub use rmdb_mvcc as mvcc;
pub use rmdb_obs as obs;
pub use rmdb_relation as relation;
pub use rmdb_restart as restart;
pub use rmdb_shadow as shadow;
pub use rmdb_sim as sim;
pub use rmdb_storage as storage;
pub use rmdb_wal as wal;
