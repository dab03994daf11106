//! Shadow-page recovery architectures (paper §3.2), implemented
//! functionally.
//!
//! Three distinct architectures share the idea of keeping a *shadow*
//! (pre-update) copy of each page until the updating transaction commits:
//!
//! * [`pagetable::ShadowPager`] — the canonical System-R-style mechanism:
//!   every page access is **indirected** through a page table; updates go
//!   to freshly allocated disk blocks; commit atomically flips a master
//!   pointer between two on-disk page-table versions. The paper studies
//!   how to hide the indirection cost with dedicated page-table processors
//!   and buffers, and what happens when shadow allocation *scrambles*
//!   logically sequential pages ([`pagetable::AllocPolicy`]).
//! * [`version::VersionStore`] — *version selection* (§3.2.2.1): twin
//!   physical blocks per logical page, no page table at all; a read fetches
//!   both blocks and selects the newest committed version by timestamp.
//! * [`overwrite::NoUndoStore`] / [`overwrite::NoRedoStore`] — the
//!   *overwriting* architectures (§3.2.2.2): a separate current copy exists
//!   only while the transaction is active, staged in a scratch ring buffer
//!   ([`scratch::ScratchRing`]); on completion the shadow is overwritten in
//!   place, so pages never move and sequential clustering survives.
//!
//! Each store exposes the same begin/read/write/commit/abort lifecycle plus
//! `crash_image`/`recover`, and each recovers exactly the semantics its
//! architecture promises (no-redo never redoes, no-undo never undoes).
//! All four keep their transactions in one
//! [`TxnTable`](rmdb_storage::TxnTable): ids, open state, and exclusive
//! page locks taken by writes (reads of committed state never block under
//! shadowing). A commit that fails before its commit-point write leaves
//! the transaction open, so an abort frees its frames, slots and locks; a
//! failed commit-point write strands it until restart.

pub mod overwrite;
pub mod pagetable;
pub mod scratch;
pub mod version;

pub use overwrite::{
    NoRedoStore, NoUndoStore, OverwriteConfig, OverwriteImage, OverwriteRecoveryReport,
};
pub use pagetable::{
    AllocPolicy, ShadowConfig, ShadowError, ShadowImage, ShadowPager, ShadowRecoveryReport,
};
pub use scratch::ScratchRing;
pub use version::{VersionConfig, VersionImage, VersionRecoveryReport, VersionStore};
