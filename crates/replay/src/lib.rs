//! Dependency-aware parallel replay for mixed command/physical logs.
//!
//! Page-sharded redo (the recovery engine's built-in scheduler) parallelises by
//! hashing pages into K shards, so its speedup is bounded by the page-set
//! skew and its unit of work is the page. This crate implements the
//! alternative studied for main-memory recovery on multicores: treat the
//! **transaction** as the unit of replay, build a precedence DAG from
//! page-set intersections, and let a K-worker topological executor replay
//! independent transactions concurrently. Physical records short-circuit to
//! page installs; command (logical) records re-execute their operations
//! against the recovered state.
//!
//! Ordering model. Every redo unit carries the page LSN it produced, and
//! every logical operation writes exactly the page it read (single-page
//! ops), so per-page LSN order is a *complete* replay order — the same
//! invariant the unmerged-log architecture rests on. The DAG refines this
//! into transaction-level edges:
//!
//! * each transaction becomes one node, ordered by a scalar key — the
//!   commit LSN for command-logged transactions, the maximum fragment LSN
//!   for physical ones (both drawn from the same global counter);
//! * for every page, the transactions touching it form a chain:
//!   writer → writer edges in first-touch-LSN order, writer → reader and
//!   reader → next-writer edges with readers placed by commit LSN. Strict
//!   2PL makes these interleavings consistent — a reader's shared lock sits
//!   between its neighbours' exclusive lock spans, so key order is lock
//!   order.
//!
//! Because the chain totally orders every toucher of a page, at most one
//! in-flight node ever holds a given page: the per-page mutexes in the
//! executor are uncontended and exist only to move page images between
//! workers. Applying each page's items in chain order is exactly per-page
//! LSN order, so the recovered bytes are identical to serial replay for
//! every K — the equivalence suites pin this.
//!
//! The redo-unit vocabulary ([`RedoItem`], [`RedoBody`]) and the torn-page
//! load/repair helpers live in `rmdb_wal::recovery`, the one recovery
//! engine, and are re-exported here: this scheduler and the engine's
//! page-sharded one apply records through literally the same code.

mod dag;
mod exec;

pub use dag::{build_dag, Dag, DagNode};
pub use exec::replay_dag;

pub use rmdb_wal::recovery::{
    apply_item, load_redo_page, read_data_retry, LogicalMeta, PageLoad, RedoBody, RedoItem,
};
