//! Storage substrate for the functional recovery mechanisms.
//!
//! The paper's recovery architectures (parallel logging, shadow paging,
//! differential files) all sit on the same primitive: a disk that stores
//! fixed-size pages, where a single-page write is atomic and everything not
//! yet written to disk is lost in a crash. This crate provides that
//! substrate in memory:
//!
//! * [`page::Page`] — a 4 KB page with id, LSN and checksum header;
//! * [`memdisk::MemDisk`] — an addressable array of frames whose writes are
//!   durable, with [`memdisk::MemDisk::snapshot`] capturing the exact
//!   durable state at an arbitrary instant (the crash-injection primitive
//!   used throughout the recovery tests) and partial-write fault injection
//!   for torn-page scenarios;
//! * [`fault::FaultPlan`] / [`fault::FaultInjector`] — a deterministic,
//!   seeded schedule of torn/lost/transient write faults, read bit flips,
//!   and crash-after-k-writes, attachable to any [`memdisk::MemDisk`];
//! * [`buffer::BufferPool`] — a pin-counted page cache with LRU/clock
//!   eviction that reports evicted dirty pages to the caller so each
//!   recovery manager can enforce its own write-ahead rule.
//!
//! Volatile state lives in the recovery managers (buffer pools, in-memory
//! tables); a crash is modelled by discarding the manager and rebuilding
//! one from a disk snapshot via that architecture's `recover` entry point.

pub mod buffer;
pub mod device;
pub mod error;
pub mod fault;
pub mod filedisk;
pub mod memdisk;
pub mod nvmedisk;
pub mod page;

pub use buffer::{
    BufferPool, EvictPolicy, Evicted, PoolShard, ShardGuard, ShardStats, ShardedPool,
};
pub use device::{BackendKind, BlockDevice, Disk};
pub use error::StorageError;
pub use fault::{
    read_page_retry, write_page_verified, FaultHandle, FaultInjector, FaultPlan, ReadFault,
    WriteFault,
};
pub use filedisk::FileDisk;
pub use memdisk::MemDisk;
pub use nvmedisk::{NvmeConfig, NvmeDisk, NvmeModel};
pub use page::{Lsn, Page, PageId, FRAME_SIZE, PAYLOAD_SIZE};
