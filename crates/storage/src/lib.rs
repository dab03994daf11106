//! Storage substrate for the functional recovery mechanisms.
//!
//! The paper's recovery architectures (parallel logging, shadow paging,
//! differential files) all sit on the same primitive: a disk that stores
//! fixed-size pages, where a single-page write is atomic and everything not
//! yet written to disk is lost in a crash. This crate provides that
//! substrate:
//!
//! * [`page::Page`] — a 4 KB page with id, LSN and checksum header, and
//!   [`page::PageRef`], a verified frame borrowed where it lies;
//! * [`device::Disk`] — the one device front every engine holds: an
//!   addressable array of frames whose writes are durable, with
//!   [`device::Disk::snapshot`] capturing the exact durable state at an
//!   arbitrary instant (the crash-injection primitive used throughout the
//!   recovery tests). It applies bounds and torn-length checks, fault
//!   injection, bounded retry with verify-after-write, and I/O and retry
//!   counting once, over one of three raw backends:
//!   [`memdisk::MemDisk`] (in memory), [`filedisk::FileDisk`] (a real
//!   file) and [`nvmedisk::NvmeDisk`] (an NVMe timing model);
//! * [`fault::FaultPlan`] / [`fault::FaultInjector`] — a deterministic,
//!   seeded schedule of torn/lost/transient write faults, read bit flips,
//!   and crash-after-k-writes, attachable to any [`device::Disk`];
//! * [`commit::SlotPair`] — the one commit-point rule: write the slot not
//!   holding the newest copy, read the newest — and
//!   [`commit::CommitRecord`], the bounded "did it commit?" record both
//!   the version store and the differential file write through it;
//! * [`buffer::BufferPool`] — a pin-counted page cache with LRU eviction
//!   that reports evicted dirty pages to the caller so each recovery
//!   manager can enforce its own write-ahead rule;
//! * [`lock::LockTable`] — the page-level strict two-phase lock table of
//!   the paper's back-end controller scheduler — and [`txn::TxnTable`],
//!   the transaction bookkeeping every single-threaded engine keeps on it:
//!   id allocation, each open transaction's state, and no-wait locks.
//!
//! Volatile state lives in the recovery managers (buffer pools, in-memory
//! tables); a crash is modelled by discarding the manager and rebuilding
//! one from a disk snapshot via that architecture's `recover` entry point.

pub mod buffer;
pub mod commit;
pub mod device;
pub mod error;
pub mod fault;
pub mod filedisk;
pub mod lock;
pub mod memdisk;
pub mod nvmedisk;
pub mod page;
pub mod txn;

pub use buffer::{BufferPool, Evicted, PoolShard, ShardGuard, ShardStats, ShardedPool};
pub use commit::{CommitRecord, SlotPair};
pub use device::{BackendKind, Disk};
pub use error::StorageError;
pub use fault::{FaultHandle, FaultInjector, FaultPlan, ReadFault, WriteFault};
pub use filedisk::FileDisk;
pub use lock::{LockConflict, LockMode, LockTable};
pub use memdisk::MemDisk;
pub use nvmedisk::{NvmeConfig, NvmeDisk, NvmeModel};
pub use page::{Lsn, Page, PageId, PageRef, FRAME_SIZE, PAYLOAD_SIZE};
pub use txn::{TxnError, TxnTable};
