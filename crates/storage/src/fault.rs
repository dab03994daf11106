//! Deterministic, replayable fault injection for any [`Disk`](crate::Disk).
//!
//! A [`FaultPlan`] is a schedule keyed by the injector's *global* operation
//! counters: "on the k-th frame write, tear it at byte c", "on the j-th
//! frame read, flip a bit", "after the k-th write, crash the device". The
//! plan is pure data — same plan, same workload, same disk contents, every
//! run — which is what makes a failing crashpoint-sweep schedule
//! reproducible from nothing but a seed.
//!
//! One [`FaultInjector`] is shared (via [`FaultHandle`]) by every disk of a
//! store, so the counters advance across the store's whole I/O stream, not
//! per device. The injector is behind a mutex because the WAL engine is
//! `Send` (its shared front wraps the database in `Arc<Mutex<..>>`).
//!
//! Fault taxonomy:
//!
//! * **Torn write** — only a prefix of the frame lands; the tail keeps the
//!   old contents (the classic mid-sector-transfer crash).
//! * **Lost write** — the device reports success but nothing lands (a
//!   firmware lie; detectable only by read-back verification).
//! * **Transient I/O** — the operation fails with [`StorageError::Io`] for
//!   a bounded number of attempts against the same address, then succeeds.
//! * **Bit flip on read** — the returned copy has one bit flipped; the
//!   on-disk frame is untouched (a transfer error, caught by checksums).
//! * **Crash** — after the k-th write attempt the device goes
//!   [`StorageError::Offline`]; the recovery tests then snapshot and
//!   rebuild, exactly as for a clean crash.
//! * **Stuck I/O** — the operation hangs for a scheduled stall and then
//!   fails with [`StorageError::Io`]: a device that has stopped
//!   responding rather than one that errors promptly. The stall is
//!   served by the disk *after* releasing the injector lock, so a stuck
//!   device never wedges the other disks sharing the injector.
//! * **Permanent failure** — from the k-th write attempt on, every
//!   operation fails with [`StorageError::Io`] forever. Unlike a crash
//!   the device is not [`StorageError::Offline`]: its durable frames
//!   remain snapshot-able, which is exactly the state a failover layer
//!   must recover from (the dead log stream's durable prefix survives).
//!
//! Counters count *attempts*: a write that fails with a transient fault
//! still consumed its operation index. This keeps replay trivially
//! deterministic even when consumers retry.

use crate::error::StorageError;
use crate::page::FRAME_SIZE;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Scheduled fate of one frame write, keyed by global write index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteFault {
    /// Only the first `cut` bytes of the new frame land; the tail keeps the
    /// previous contents (zeros if the frame was unallocated).
    Torn {
        /// Bytes of the new image that make it to the platter.
        cut: usize,
    },
    /// The device reports success but the frame is unchanged.
    Lost,
    /// This write and the next `attempts - 1` writes to the same address
    /// fail with [`StorageError::Io`]; nothing lands on failing attempts.
    TransientIo {
        /// Total failing attempts (≥ 1).
        attempts: u32,
    },
    /// The write hangs for `millis` before failing with
    /// [`StorageError::Io`]; nothing lands. Models a device that has
    /// stopped responding (the failover supervisor's stall case).
    Stuck {
        /// Stall served before the failure, in milliseconds.
        millis: u64,
    },
}

/// Scheduled fate of one frame read, keyed by global read index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadFault {
    /// Flip bit `bit` of byte `byte` in the returned copy only.
    FlipBit {
        /// Byte offset within the frame (taken modulo the frame size).
        byte: usize,
        /// Bit index 0..8.
        bit: u8,
    },
    /// This read and the next `attempts - 1` reads of the same address fail
    /// with [`StorageError::Io`].
    TransientIo {
        /// Total failing attempts (≥ 1).
        attempts: u32,
    },
    /// The read hangs for `millis` before failing with
    /// [`StorageError::Io`].
    Stuck {
        /// Stall served before the failure, in milliseconds.
        millis: u64,
    },
}

/// A replayable schedule of device faults.
///
/// ```
/// use rmdb_storage::fault::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .tear_write(3, 100)   // 4th write: only 100 bytes land
///     .lose_write(7)        // 8th write: silently dropped
///     .crash_after_write(12);
/// assert!(plan.crash_after.is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Write faults by global write index (0-based).
    pub on_write: BTreeMap<u64, WriteFault>,
    /// Read faults by global read index (0-based).
    pub on_read: BTreeMap<u64, ReadFault>,
    /// Crash after this write attempt completes (its fault, if any, still
    /// applies). Every later operation returns [`StorageError::Offline`].
    pub crash_after: Option<u64>,
    /// Permanent device failure: every write attempt with a global index
    /// at or past this one fails with [`StorageError::Io`], and once
    /// tripped every read fails too — forever. The durable frames stay
    /// intact (and snapshot-able), unlike a crash.
    pub fail_from: Option<u64>,
    /// Device revival: every write attempt with a global index at or past
    /// this one succeeds unconditionally — the tripped [`FaultPlan::fail_from`]
    /// state is cleared, pending transients for writes are dropped, and any
    /// scheduled write fault at a cleared index (including [`WriteFault::Stuck`])
    /// is skipped. Models a device that comes back after repair or
    /// replacement. A scheduled crash still fires: [`FaultPlan::crash_after`]
    /// means the device is *gone*, not sick.
    pub clear_write_from: Option<u64>,
    /// Read-side revival, keyed by global read index: clears the tripped
    /// permanent failure and skips scheduled read faults from this index on.
    pub clear_read_from: Option<u64>,
}

impl FaultPlan {
    /// An empty plan: no faults, no crash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tear the `idx`-th write at byte `cut`.
    pub fn tear_write(mut self, idx: u64, cut: usize) -> Self {
        self.on_write.insert(idx, WriteFault::Torn { cut });
        self
    }

    /// Silently drop the `idx`-th write.
    pub fn lose_write(mut self, idx: u64) -> Self {
        self.on_write.insert(idx, WriteFault::Lost);
        self
    }

    /// Fail the `idx`-th write (and retries to its address) `attempts`
    /// times with a transient error.
    pub fn transient_write(mut self, idx: u64, attempts: u32) -> Self {
        self.on_write
            .insert(idx, WriteFault::TransientIo { attempts });
        self
    }

    /// Flip one bit in the copy returned by the `idx`-th read.
    pub fn flip_on_read(mut self, idx: u64, byte: usize, bit: u8) -> Self {
        self.on_read.insert(idx, ReadFault::FlipBit { byte, bit });
        self
    }

    /// Fail the `idx`-th read (and retries of its address) `attempts`
    /// times with a transient error.
    pub fn transient_read(mut self, idx: u64, attempts: u32) -> Self {
        self.on_read
            .insert(idx, ReadFault::TransientIo { attempts });
        self
    }

    /// Crash the device after the `idx`-th write attempt.
    pub fn crash_after_write(mut self, idx: u64) -> Self {
        self.crash_after = Some(idx);
        self
    }

    /// Hang the `idx`-th write for `millis`, then fail it.
    pub fn stick_write(mut self, idx: u64, millis: u64) -> Self {
        self.on_write.insert(idx, WriteFault::Stuck { millis });
        self
    }

    /// Hang the `idx`-th read for `millis`, then fail it.
    pub fn stick_read(mut self, idx: u64, millis: u64) -> Self {
        self.on_read.insert(idx, ReadFault::Stuck { millis });
        self
    }

    /// Permanently fail the device from the `idx`-th write attempt on.
    /// `fail_from_write(0)` kills the device immediately: every
    /// subsequent operation fails with [`StorageError::Io`], but the
    /// frames already durable remain readable through a snapshot.
    pub fn fail_from_write(mut self, idx: u64) -> Self {
        self.fail_from = Some(idx);
        self
    }

    /// Revive the device from the `idx`-th write attempt on: the tripped
    /// permanent failure clears and scheduled write faults at or past `idx`
    /// (including stuck I/O) are skipped. Compose with
    /// [`FaultPlan::fail_from_write`] to model an outage window:
    /// `fail_from_write(5).clear_from_write(20)` is a device that dies on
    /// the 6th write and serves again from the 21st.
    pub fn clear_from_write(mut self, idx: u64) -> Self {
        self.clear_write_from = Some(idx);
        self
    }

    /// Revive the read path from the `idx`-th read attempt on.
    pub fn clear_from_read(mut self, idx: u64) -> Self {
        self.clear_read_from = Some(idx);
        self
    }

    /// A seeded random plan over the first `horizon` writes and reads.
    ///
    /// Roughly one write in sixteen is faulted (torn, lost, or transiently
    /// failing) and one read in thirty-two is faulted (bit flip or
    /// transient). No crash is scheduled; compose with
    /// [`FaultPlan::crash_after_write`] for crashpoint sweeps. The same
    /// `(seed, horizon)` always yields the identical plan.
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let mut state = seed ^ 0x8f1b_bcdc_a7b7_9e5d;
        let mut next = move || splitmix64(&mut state);
        let mut plan = FaultPlan::new();
        for idx in 0..horizon {
            let roll = next();
            if roll % 16 == 0 {
                let fault = match roll >> 8 & 3 {
                    0 => WriteFault::Torn {
                        cut: (next() % (FRAME_SIZE as u64 - 1) + 1) as usize,
                    },
                    1 => WriteFault::Lost,
                    _ => WriteFault::TransientIo {
                        attempts: (next() % 2 + 1) as u32,
                    },
                };
                plan.on_write.insert(idx, fault);
            }
            let roll = next();
            if roll % 32 == 0 {
                let fault = if roll >> 8 & 1 == 0 {
                    ReadFault::FlipBit {
                        byte: (next() % FRAME_SIZE as u64) as usize,
                        bit: (next() % 8) as u8,
                    }
                } else {
                    ReadFault::TransientIo {
                        attempts: (next() % 2 + 1) as u32,
                    }
                };
                plan.on_read.insert(idx, fault);
            }
        }
        plan
    }
}

/// SplitMix64: the plan generator's own tiny RNG, so seeded plans do not
/// depend on any other crate's stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shared, lockable injector — one per store, attached to all its disks.
pub type FaultHandle = Arc<Mutex<FaultInjector>>;

/// Executes a [`FaultPlan`] against a live operation stream.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    reads: u64,
    writes: u64,
    crashed: bool,
    failed: bool,
    /// Remaining transient failures per (is_write, addr).
    pending: HashMap<(bool, u64), u32>,
}

/// How a write should land, as decided by the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteApply {
    /// Write the full frame.
    Full,
    /// Write only the first `n` bytes over the old contents.
    Prefix(usize),
    /// Report success without touching the frame.
    Skip,
}

/// A write verdict plus any stall the disk must serve *after* releasing
/// the injector lock (so one stuck device never blocks the others
/// sharing the injector).
#[derive(Debug)]
pub(crate) struct WriteDecision {
    pub stall_ms: u64,
    pub outcome: Result<WriteApply, StorageError>,
}

/// A read verdict (optional bit flip) plus the post-unlock stall.
#[derive(Debug)]
pub(crate) struct ReadDecision {
    pub stall_ms: u64,
    pub outcome: Result<Option<(usize, u8)>, StorageError>,
}

impl FaultInjector {
    /// An injector executing `plan` from operation zero.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            reads: 0,
            writes: 0,
            crashed: false,
            failed: false,
            pending: HashMap::new(),
        }
    }

    /// Wrap a plan in a shareable handle.
    pub fn handle(plan: FaultPlan) -> FaultHandle {
        Arc::new(Mutex::new(FaultInjector::new(plan)))
    }

    /// Whether the scheduled crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Whether the scheduled permanent failure has tripped.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Write attempts seen so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Read attempts seen so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Crash the device immediately, as if [`FaultPlan::crash_after_write`]
    /// had just fired: every subsequent operation returns
    /// [`StorageError::Offline`] until [`FaultInjector::revive`]. This is
    /// the deterministic crash-*site* primitive: a protocol under test
    /// (e.g. the LSM compactor) can trip the crash at a named step —
    /// pre-manifest-publish, mid-level-write — instead of hunting for the
    /// equivalent global write index, while the durable frames stay
    /// exactly as the completed writes left them.
    pub fn crash_now(&mut self) {
        self.crashed = true;
    }

    /// Revive the device unconditionally, as if repaired in place: the
    /// remaining plan is discarded, the tripped permanent-failure and crash
    /// states clear, and pending transients are dropped. The operation
    /// counters keep their positions (they are monotone by design), so a
    /// replay of the same workload against the same plan stays
    /// deterministic up to the revive point.
    pub fn revive(&mut self) {
        self.plan = FaultPlan::new();
        self.failed = false;
        self.crashed = false;
        self.pending.clear();
    }

    pub(crate) fn decide_write(&mut self, addr: u64) -> WriteDecision {
        if self.crashed {
            return WriteDecision {
                stall_ms: 0,
                outcome: Err(StorageError::Offline),
            };
        }
        let idx = self.writes;
        self.writes += 1;
        let crash_now = self.plan.crash_after == Some(idx);
        if self.plan.clear_write_from.is_some_and(|k| idx >= k) {
            // device revival: un-trip the permanent failure, drop pending
            // write transients, skip whatever fault was scheduled here.
            // A scheduled crash still fires below — crashed means gone.
            self.failed = false;
            self.pending.retain(|&(is_write, _), _| !is_write);
            if crash_now {
                self.crashed = true;
            }
            return WriteDecision {
                stall_ms: 0,
                outcome: Ok(WriteApply::Full),
            };
        }
        let mut stall_ms = 0;
        let outcome = if self.failed || self.plan.fail_from.is_some_and(|k| idx >= k) {
            // permanent failure: fail this and everything after it
            self.failed = true;
            Err(StorageError::Io { addr })
        } else if let Some(remaining) = self.pending.get_mut(&(true, addr)) {
            *remaining -= 1;
            if *remaining == 0 {
                self.pending.remove(&(true, addr));
            }
            Err(StorageError::Io { addr })
        } else {
            match self.plan.on_write.get(&idx) {
                None => Ok(WriteApply::Full),
                Some(WriteFault::Torn { cut }) => Ok(WriteApply::Prefix((*cut).min(FRAME_SIZE))),
                Some(WriteFault::Lost) => Ok(WriteApply::Skip),
                Some(WriteFault::TransientIo { attempts }) => {
                    if *attempts > 1 {
                        self.pending.insert((true, addr), attempts - 1);
                    }
                    Err(StorageError::Io { addr })
                }
                Some(WriteFault::Stuck { millis }) => {
                    stall_ms = *millis;
                    Err(StorageError::Io { addr })
                }
            }
        };
        if crash_now {
            self.crashed = true;
        }
        WriteDecision { stall_ms, outcome }
    }

    pub(crate) fn decide_read(&mut self, addr: u64) -> ReadDecision {
        if self.crashed {
            return ReadDecision {
                stall_ms: 0,
                outcome: Err(StorageError::Offline),
            };
        }
        let idx = self.reads;
        self.reads += 1;
        if self.plan.clear_read_from.is_some_and(|k| idx >= k) {
            self.failed = false;
            self.pending.retain(|&(is_write, _), _| is_write);
            return ReadDecision {
                stall_ms: 0,
                outcome: Ok(None),
            };
        }
        if self.failed {
            return ReadDecision {
                stall_ms: 0,
                outcome: Err(StorageError::Io { addr }),
            };
        }
        if let Some(remaining) = self.pending.get_mut(&(false, addr)) {
            *remaining -= 1;
            if *remaining == 0 {
                self.pending.remove(&(false, addr));
            }
            return ReadDecision {
                stall_ms: 0,
                outcome: Err(StorageError::Io { addr }),
            };
        }
        let mut stall_ms = 0;
        let outcome = match self.plan.on_read.get(&idx) {
            None => Ok(None),
            Some(ReadFault::FlipBit { byte, bit }) => Ok(Some((byte % FRAME_SIZE, bit % 8))),
            Some(ReadFault::TransientIo { attempts }) => {
                if *attempts > 1 {
                    self.pending.insert((false, addr), attempts - 1);
                }
                Err(StorageError::Io { addr })
            }
            Some(ReadFault::Stuck { millis }) => {
                stall_ms = *millis;
                Err(StorageError::Io { addr })
            }
        };
        ReadDecision { stall_ms, outcome }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Disk;
    use crate::memdisk::MemDisk;
    use crate::page::{Page, PageId};

    fn page(tag: u8) -> Page {
        let mut p = Page::new(PageId(tag as u64));
        p.write_at(0, &[tag; 64]);
        p
    }

    #[test]
    fn torn_write_corrupts_lost_write_vanishes() {
        let handle = FaultInjector::handle(FaultPlan::new().tear_write(1, 40).lose_write(2));
        let mut d = Disk::from(MemDisk::new(4));
        d.attach_faults(handle);
        d.write_page(0, &page(1)).unwrap(); // write 0: clean
        d.write_page(1, &page(2)).unwrap(); // write 1: torn at byte 40
        d.write_page(2, &page(3)).unwrap(); // write 2: lost
        assert_eq!(d.read_page(0).unwrap(), page(1));
        assert!(matches!(d.read_page(1), Err(StorageError::Corrupt { .. })));
        assert!(matches!(
            d.read_page(2),
            Err(StorageError::Unallocated { .. })
        ));
    }

    #[test]
    fn transient_write_fails_then_succeeds() {
        let handle = FaultInjector::handle(FaultPlan::new().transient_write(0, 2));
        let mut d = Disk::from(MemDisk::new(4));
        d.attach_faults(handle);
        assert!(matches!(
            d.write_page(0, &page(9)),
            Err(StorageError::Io { addr: 0 })
        ));
        assert!(matches!(
            d.write_page(0, &page(9)),
            Err(StorageError::Io { addr: 0 })
        ));
        d.write_page(0, &page(9)).unwrap();
        assert_eq!(d.read_page(0).unwrap(), page(9));
    }

    #[test]
    fn bit_flip_is_read_only() {
        let handle = FaultInjector::handle(FaultPlan::new().flip_on_read(0, 30, 3));
        let mut d = Disk::from(MemDisk::new(4));
        d.write_page(0, &page(5)).unwrap();
        d.attach_faults(handle);
        assert!(matches!(d.read_page(0), Err(StorageError::Corrupt { .. })));
        // second read sees the pristine on-disk frame
        assert_eq!(d.read_page(0).unwrap(), page(5));
    }

    #[test]
    fn crash_takes_device_offline() {
        let handle = FaultInjector::handle(FaultPlan::new().crash_after_write(1));
        let mut d = Disk::from(MemDisk::new(4));
        d.attach_faults(handle.clone());
        d.write_page(0, &page(1)).unwrap();
        d.write_page(1, &page(2)).unwrap(); // crash fires after this one
        assert!(handle.lock().crashed());
        assert_eq!(d.write_page(2, &page(3)), Err(StorageError::Offline));
        assert_eq!(d.read_page(0).unwrap_err(), StorageError::Offline);
        // the snapshot sheds the injector: recovery reads clean frames
        let snap = d.snapshot();
        assert_eq!(snap.read_page(1).unwrap(), page(2));
    }

    #[test]
    fn retry_helpers_ride_through_transients() {
        let handle =
            FaultInjector::handle(FaultPlan::new().transient_read(1, 1).transient_write(2, 1));
        let mut d = Disk::from(MemDisk::new(4));
        d.attach_faults(handle);
        d.write_page(0, &page(1)).unwrap(); // write 0
        assert_eq!(d.read_page_retry(0).unwrap(), page(1)); // read 0: clean
                                                            // write 1 fails, then the read-back of write 2 (read 1) fails:
                                                            // two rounds beyond the first
        d.write_page_verified(1, &page(2)).unwrap();
        assert_eq!(d.read_page(1).unwrap(), page(2));
        assert_eq!((d.read_retries(), d.write_retries()), (0, 2));
    }

    #[test]
    fn verified_write_defeats_lost_write() {
        let handle = FaultInjector::handle(FaultPlan::new().lose_write(0));
        let mut d = Disk::from(MemDisk::new(4));
        d.attach_faults(handle);
        d.write_page_verified(0, &page(7)).unwrap();
        assert_eq!(d.read_page(0).unwrap(), page(7));
    }

    #[test]
    fn permanent_failure_kills_device_but_not_snapshot() {
        let handle = FaultInjector::handle(FaultPlan::new().fail_from_write(1));
        let mut d = Disk::from(MemDisk::new(4));
        d.attach_faults(handle.clone());
        d.write_page(0, &page(1)).unwrap(); // write 0: clean
        assert_eq!(d.write_page(1, &page(2)), Err(StorageError::Io { addr: 1 }));
        // every later write fails too, and once tripped reads fail as well
        assert_eq!(d.write_page(2, &page(3)), Err(StorageError::Io { addr: 2 }));
        assert_eq!(d.read_page(0), Err(StorageError::Io { addr: 0 }));
        assert!(handle.lock().failed());
        assert!(!handle.lock().crashed(), "failed device is not Offline");
        // the durable platter survives: a snapshot sheds the injector and
        // serves everything that landed before the failure
        let snap = d.snapshot();
        assert_eq!(snap.read_page(0).unwrap(), page(1));
        assert!(!snap.is_allocated(1), "failed write must not have landed");
    }

    #[test]
    fn fail_from_zero_kills_device_immediately() {
        let handle = FaultInjector::handle(FaultPlan::new().fail_from_write(0));
        let mut d = Disk::from(MemDisk::new(4));
        d.write_page(0, &page(1)).unwrap();
        d.attach_faults(handle);
        assert!(matches!(
            d.write_page(1, &page(2)),
            Err(StorageError::Io { .. })
        ));
        assert!(matches!(d.read_page(0), Err(StorageError::Io { .. })));
        assert_eq!(d.snapshot().read_page(0).unwrap(), page(1));
    }

    #[test]
    fn stuck_write_stalls_then_fails() {
        let handle = FaultInjector::handle(FaultPlan::new().stick_write(0, 20));
        let mut d = Disk::from(MemDisk::new(4));
        d.attach_faults(handle.clone());
        let t0 = std::time::Instant::now();
        assert!(matches!(
            d.write_page(0, &page(1)),
            Err(StorageError::Io { .. })
        ));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));
        assert!(!d.is_allocated(0), "stuck write deposits nothing");
        // a stuck op is transient, not permanent: the retry lands
        d.write_page(0, &page(1)).unwrap();
        assert!(!handle.lock().failed());
    }

    #[test]
    fn stuck_read_stalls_then_fails() {
        let handle = FaultInjector::handle(FaultPlan::new().stick_read(0, 20));
        let mut d = Disk::from(MemDisk::new(4));
        d.write_page(0, &page(4)).unwrap();
        d.attach_faults(handle);
        let t0 = std::time::Instant::now();
        assert!(matches!(d.read_page(0), Err(StorageError::Io { .. })));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));
        assert_eq!(d.read_page(0).unwrap(), page(4));
    }

    #[test]
    fn clear_from_write_revives_failed_device() {
        // outage window: dead from write 1, back from write 3
        let handle = FaultInjector::handle(FaultPlan::new().fail_from_write(1).clear_from_write(3));
        let mut d = Disk::from(MemDisk::new(4));
        d.attach_faults(handle.clone());
        d.write_page(0, &page(1)).unwrap(); // write 0: clean
        assert!(d.write_page(1, &page(2)).is_err()); // write 1: trips
        assert!(d.write_page(1, &page(2)).is_err()); // write 2: still dead
        assert!(handle.lock().failed());
        d.write_page(1, &page(2)).unwrap(); // write 3: revived
        assert!(!handle.lock().failed(), "clear must un-trip the failure");
        d.write_page(2, &page(3)).unwrap(); // stays revived past fail_from
        assert_eq!(d.read_page(0).unwrap(), page(1));
        assert_eq!(d.read_page(1).unwrap(), page(2));
        assert_eq!(d.read_page(2).unwrap(), page(3));
    }

    #[test]
    fn clear_from_read_revives_read_path() {
        let handle = FaultInjector::handle(FaultPlan::new().fail_from_write(0).clear_from_read(2));
        let mut d = Disk::from(MemDisk::new(4));
        d.write_page(0, &page(6)).unwrap();
        d.attach_faults(handle);
        assert!(d.write_page(1, &page(7)).is_err()); // trips the failure
        assert!(d.read_page(0).is_err()); // read 0: failed
        assert!(d.read_page(0).is_err()); // read 1: failed
        assert_eq!(d.read_page(0).unwrap(), page(6)); // read 2: revived
        assert_eq!(d.read_page(0).unwrap(), page(6));
    }

    #[test]
    fn clear_unsticks_scheduled_faults() {
        // a Stuck fault scheduled inside the cleared range must be skipped
        // entirely: no stall, no error
        let handle =
            FaultInjector::handle(FaultPlan::new().stick_write(1, 5_000).clear_from_write(1));
        let mut d = Disk::from(MemDisk::new(4));
        d.attach_faults(handle);
        d.write_page(0, &page(1)).unwrap();
        let t0 = std::time::Instant::now();
        d.write_page(1, &page(2)).unwrap();
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(1_000),
            "cleared stuck fault must not stall"
        );
        assert_eq!(d.read_page(1).unwrap(), page(2));
    }

    #[test]
    fn clear_drops_pending_write_transients() {
        // the transient at write 0 schedules 2 more failing attempts; the
        // clear at write 1 must drop them
        let handle =
            FaultInjector::handle(FaultPlan::new().transient_write(0, 3).clear_from_write(1));
        let mut d = Disk::from(MemDisk::new(4));
        d.attach_faults(handle);
        assert!(d.write_page(0, &page(9)).is_err()); // write 0: transient
        d.write_page(0, &page(9)).unwrap(); // write 1: cleared
        assert_eq!(d.read_page(0).unwrap(), page(9));
    }

    #[test]
    fn crash_fires_even_inside_cleared_range() {
        let handle =
            FaultInjector::handle(FaultPlan::new().crash_after_write(1).clear_from_write(0));
        let mut d = Disk::from(MemDisk::new(4));
        d.attach_faults(handle.clone());
        d.write_page(0, &page(1)).unwrap();
        d.write_page(1, &page(2)).unwrap(); // crash fires after this one
        assert!(handle.lock().crashed(), "clear must not cancel a crash");
        assert_eq!(d.write_page(2, &page(3)), Err(StorageError::Offline));
    }

    #[test]
    fn revive_restores_a_dead_device_in_place() {
        let handle = FaultInjector::handle(FaultPlan::new().fail_from_write(0));
        let mut d = Disk::from(MemDisk::new(4));
        d.write_page(0, &page(1)).unwrap();
        d.attach_faults(handle.clone());
        assert!(d.write_page(1, &page(2)).is_err());
        assert!(d.read_page(0).is_err());
        handle.lock().revive();
        d.write_page(1, &page(2)).unwrap();
        assert_eq!(d.read_page(0).unwrap(), page(1));
        assert_eq!(d.read_page(1).unwrap(), page(2));
        assert!(!handle.lock().failed());
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 500);
        let b = FaultPlan::seeded(42, 500);
        assert_eq!(a, b);
        assert!(!a.on_write.is_empty(), "500-op horizon should fault writes");
        assert!(!a.on_read.is_empty(), "500-op horizon should fault reads");
        let c = FaultPlan::seeded(43, 500);
        assert_ne!(a, c, "different seeds should differ");
    }
}
