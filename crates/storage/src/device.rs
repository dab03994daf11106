//! The block-device layer: one device front over three backends.
//!
//! Every recovery mechanism in this workspace sits on the same primitive —
//! a device of fixed-size frames where a single-frame write is atomic and a
//! crash preserves exactly the durable state. [`Disk`] is that device: the
//! one type every engine holds, so the whole stack (log streams,
//! buffer-pool flush paths, the exec pipeline, parallel restart, the shadow
//! engines) is backend-generic without a generic parameter rippling
//! through every struct. `Disk` is also the only place the
//! device-independent contract is applied — bounds and torn-length checks,
//! fault injection, bounded retry and verify-after-write, I/O and retry
//! counters — so a fault plan written against one backend replays
//! bit-for-bit against the others.
//!
//! A backend keeps only what actually differs: where frames live, how a
//! prefix of a frame lands, what a force costs, and how a snapshot is
//! taken.
//!
//! * [`MemDisk`] — an in-memory array of frames. Writes
//!   are instant; a force is only counted. The default backend.
//! * [`FileDisk`] — a real file: `pwrite`-per-frame,
//!   `fdatasync` on [`Disk::force`], crash snapshot via file copy. This is
//!   the backend that turns "modeled durability" into actual syscalls with
//!   actual latencies.
//! * [`NvmeDisk`] — an NVMe-class timing model over
//!   in-memory frames: queue-depth-aware service times in the 10–100 µs
//!   band with submission/completion accounting, optionally realtime
//!   (each I/O sleeps its modeled service time) for benchmarks.

use crate::error::StorageError;
use crate::fault::{FaultHandle, WriteApply};
use crate::filedisk::FileDisk;
use crate::memdisk::MemDisk;
use crate::nvmedisk::{NvmeConfig, NvmeDisk, NvmeModel, ServiceGuard};
use crate::page::{Page, PageRef, FRAME_SIZE};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Attempts in total for [`Disk::read_page_retry_with`] (and so
/// [`Disk::read_page_retry`]) and [`Disk::write_page_verified`]: the one
/// retry budget of every engine.
const ATTEMPTS: u32 = 4;

/// Which backend to provision when an engine creates its devices.
///
/// Lives in engine configs (`WalConfig`, `ShadowConfig`, …) so a single
/// field switches a whole engine — data disk, doublewrite slots, every log
/// platter — onto a different device class.
#[derive(Clone, Debug, Default)]
pub enum BackendKind {
    /// In-memory frames (the original simulator device).
    #[default]
    Mem,
    /// A real file with pwrite/fdatasync durability. `dir` overrides the
    /// directory the backing files are created in (default: the OS temp
    /// dir). Files are deleted when the [`FileDisk`] drops — including on
    /// panic unwind, so a failing test leaves no litter.
    File {
        /// Directory for backing files (`None` = `std::env::temp_dir()`).
        dir: Option<PathBuf>,
    },
    /// The NVMe-class timing model. Each [`BackendKind::provision`] call
    /// gets its own controller unless `device` pins a shared one — share
    /// it across a fleet's platters and their I/O queues on one another,
    /// which is what makes queue-depth effects visible in the scaling
    /// bench.
    Nvme {
        /// Service-time model parameters.
        cfg: NvmeConfig,
        /// Shared controller; `None` provisions a private one per disk.
        device: Option<Arc<NvmeModel>>,
    },
}

impl BackendKind {
    /// A file backend in the OS temp dir.
    pub fn file() -> Self {
        BackendKind::File { dir: None }
    }

    /// An NVMe backend with a private controller per provisioned disk.
    pub fn nvme(cfg: NvmeConfig) -> Self {
        BackendKind::Nvme { cfg, device: None }
    }

    /// An NVMe backend whose provisioned disks all share one controller
    /// (one submission/completion queue pair, one queue-depth signal).
    pub fn nvme_shared(cfg: NvmeConfig) -> Self {
        let device = Some(Arc::new(NvmeModel::new(cfg)));
        BackendKind::Nvme { cfg, device }
    }

    /// Short name for reports and bench labels.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Mem => "mem",
            BackendKind::File { .. } => "file",
            BackendKind::Nvme { .. } => "nvme",
        }
    }

    /// Provision a fresh, empty device of `frames` frames on this backend.
    pub fn provision(&self, frames: u64) -> Result<Disk, StorageError> {
        Ok(match self {
            BackendKind::Mem => MemDisk::new(frames).into(),
            BackendKind::File { dir } => FileDisk::create(dir.clone(), frames)?.into(),
            BackendKind::Nvme { cfg, device } => {
                let model = device
                    .clone()
                    .unwrap_or_else(|| Arc::new(NvmeModel::new(*cfg)));
                NvmeDisk::on_model(frames, model).into()
            }
        })
    }
}

/// The one device front every engine holds, over one of the three
/// backends.
///
/// `Disk` applies the device-independent contract; the backend only stores
/// and returns frames. Per call, in this order:
///
/// 1. the NVMe backend pays its modeled service time (a no-op for mem and
///    file); the command completes when the call returns, on any path;
/// 2. a `write_partial` longer than a frame is [`StorageError::BadLength`];
/// 3. an address past the end is [`StorageError::OutOfRange`];
/// 4. an attached [`FaultHandle`] decides the outcome, and any scheduled
///    stall is served after the injector lock is released, so a stuck
///    device never wedges the disks sharing its injector;
/// 5. the read or write counter is bumped — only if the decision did not
///    fail the call;
/// 6. the backend performs the (possibly torn or dropped) operation; a
///    read of a virgin frame is [`StorageError::Unallocated`] and still
///    counted.
///
/// Checks 2–3 consume no fault-plan operation index, so a plan replays
/// identically on every backend.
///
/// A read verifies the frame where it lies: [`Disk::read_page_retry_with`]
/// hands the caller a [`PageRef`] borrowing the stored frame, and the
/// read-back of [`Disk::write_page_verified`] compares in place. A read
/// copies a frame only when the fault plan flips one of its bits (the flip
/// lands on the copy, never on the stored frame) and on a file, which
/// reads into a stack buffer. [`Disk::read_frame`], [`Disk::read_page`]
/// and [`Disk::read_page_retry`] copy into a value they return.
///
/// On top of those single attempts, [`Disk::read_page_retry`] and
/// [`Disk::write_page_verified`] apply the one retry discipline — at most
/// `ATTEMPTS` (4) rounds, each round beyond the first counted in
/// [`Disk::read_retries`] or [`Disk::write_retries`].
///
/// The counters are atomics so a `Disk` is `Sync`: parallel restart
/// workers read pages from one shared data disk through `&Disk`.
pub struct Disk {
    backend: Backend,
    reads: AtomicU64,
    writes: AtomicU64,
    forces: AtomicU64,
    read_retries: AtomicU64,
    write_retries: AtomicU64,
    /// Shared fault injector; snapshotting sheds it (a recovered image is
    /// a clean device).
    faults: Option<FaultHandle>,
}

/// Where the frames live.
#[derive(Debug)]
enum Backend {
    Mem(MemDisk),
    File(FileDisk),
    Nvme(NvmeDisk),
}

/// Run `$body` on the backend's frames (an NVMe namespace's frames are a
/// `MemDisk`).
macro_rules! each {
    ($backend:expr, $d:ident => $body:expr) => {
        match $backend {
            Backend::Mem($d) | Backend::Nvme(NvmeDisk { frames: $d, .. }) => $body,
            Backend::File($d) => $body,
        }
    };
}

impl From<MemDisk> for Disk {
    fn from(d: MemDisk) -> Self {
        Disk::on(Backend::Mem(d))
    }
}

impl From<FileDisk> for Disk {
    fn from(d: FileDisk) -> Self {
        Disk::on(Backend::File(d))
    }
}

impl From<NvmeDisk> for Disk {
    fn from(d: NvmeDisk) -> Self {
        Disk::on(Backend::Nvme(d))
    }
}

/// Serve a stall the fault injector scheduled.
fn stall(ms: u64) {
    if ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

impl Disk {
    /// A fresh front over `backend`: counters at zero, no injector.
    fn on(backend: Backend) -> Self {
        Disk {
            backend,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            forces: AtomicU64::new(0),
            read_retries: AtomicU64::new(0),
            write_retries: AtomicU64::new(0),
            faults: None,
        }
    }

    /// Capacity in frames.
    pub fn capacity(&self) -> u64 {
        each!(&self.backend, d => d.capacity())
    }

    /// Whether `addr` has ever been written.
    pub fn is_allocated(&self, addr: u64) -> bool {
        each!(&self.backend, d => d.is_allocated(addr))
    }

    /// Step 1: the NVMe command this call submits, completed on drop.
    fn service(&self) -> Option<ServiceGuard> {
        match &self.backend {
            Backend::Nvme(d) => Some(d.pay()),
            _ => None,
        }
    }

    /// Step 3: the bounds check.
    fn check(&self, addr: u64) -> Result<(), StorageError> {
        let capacity = self.capacity();
        if addr >= capacity {
            return Err(StorageError::OutOfRange { addr, capacity });
        }
        Ok(())
    }

    /// Read the raw frame at `addr` — unless an attached fault plan fails
    /// the read or flips a bit of the returned copy.
    pub fn read_frame(&self, addr: u64) -> Result<Box<[u8; FRAME_SIZE]>, StorageError> {
        self.with_frame(addr, |frame| Box::new(*frame))
    }

    /// Steps 1–6 of a read of `addr`, then `f` on the frame where it
    /// lies. A scheduled bit flip lands on a copy, never on the stored
    /// frame, so the next clean read sees the original bytes.
    fn with_frame<R>(
        &self,
        addr: u64,
        f: impl FnOnce(&[u8; FRAME_SIZE]) -> R,
    ) -> Result<R, StorageError> {
        let _svc = self.service();
        self.check(addr)?;
        let flip = match &self.faults {
            Some(h) => {
                let d = h.lock().decide_read(addr);
                stall(d.stall_ms);
                d.outcome?
            }
            None => None,
        };
        self.reads.fetch_add(1, Ordering::Relaxed);
        each!(&self.backend, d => d.with_frame(addr, |frame| match flip {
            None => f(frame),
            Some((byte, bit)) => {
                let mut copy = *frame;
                copy[byte] ^= 1 << bit;
                f(&copy)
            }
        }))
    }

    /// One read of `addr`, verified in place: `f` on the page's
    /// [`PageRef`], or the read's error.
    fn view_once<R>(&self, addr: u64, f: impl FnOnce(PageRef<'_>) -> R) -> Result<R, StorageError> {
        self.with_frame(addr, |frame| Page::view(frame, addr).map(f))?
    }

    /// Durably and atomically write the raw frame at `addr` — unless an
    /// attached fault plan tears, drops, or fails this write.
    pub fn write_frame(&mut self, addr: u64, frame: &[u8; FRAME_SIZE]) -> Result<(), StorageError> {
        let _svc = self.service();
        self.land(addr, frame, FRAME_SIZE)
    }

    /// A torn write: only the first `bytes` bytes of `frame` land, and the
    /// stored frame afterwards is `frame[..bytes] ++ old[bytes..]`, where
    /// `old` is the previous contents or zeros if the frame was virgin.
    /// The write still counts and still consults the fault plan; a
    /// scheduled tear shortens the prefix further.
    pub fn write_partial(
        &mut self,
        addr: u64,
        frame: &[u8; FRAME_SIZE],
        bytes: usize,
    ) -> Result<(), StorageError> {
        let _svc = self.service();
        if bytes > FRAME_SIZE {
            return Err(StorageError::BadLength {
                len: bytes,
                max: FRAME_SIZE,
            });
        }
        self.land(addr, frame, bytes)
    }

    /// Steps 3–6 of a write of the first `bytes` bytes of `frame`.
    fn land(
        &mut self,
        addr: u64,
        frame: &[u8; FRAME_SIZE],
        bytes: usize,
    ) -> Result<(), StorageError> {
        self.check(addr)?;
        let apply = match &self.faults {
            Some(h) => {
                let d = h.lock().decide_write(addr);
                stall(d.stall_ms);
                d.outcome?
            }
            None => WriteApply::Full,
        };
        self.writes.fetch_add(1, Ordering::Relaxed);
        let cut = match apply {
            WriteApply::Full => bytes,
            WriteApply::Prefix(cut) => cut.min(bytes),
            WriteApply::Skip => return Ok(()),
        };
        each!(&mut self.backend, d => d.write_prefix(addr, frame, cut))
    }

    /// Make every completed write durable: `fdatasync` on a file, one
    /// flush command on the NVMe model, and only a count in memory, whose
    /// writes are durable the moment they return (the modeled rotational
    /// force time lives in the exec appenders' `force_delay_us`).
    pub fn force(&mut self) -> Result<(), StorageError> {
        let _svc = self.service();
        self.forces.fetch_add(1, Ordering::Relaxed);
        match &self.backend {
            Backend::File(d) => d.sync(),
            Backend::Mem(_) | Backend::Nvme(_) => Ok(()),
        }
    }

    /// Capture the exact durable state — the crash-injection primitive.
    ///
    /// The snapshot is an independent device of the same backend: mutating
    /// either side does not affect the other. Its counters start at zero so
    /// recovery cost is measured in isolation, and any attached fault
    /// injector is *not* carried over — a snapshot is the durable platter
    /// state, and recovery runs against a clean device, which also makes
    /// post-crash images byte-for-byte reproducible for a given plan.
    pub fn snapshot(&self) -> Disk {
        Disk::on(match &self.backend {
            Backend::Mem(d) => Backend::Mem(d.snapshot()),
            // a failed copy means the host lost its temp dir — not a
            // device fault the recovery protocols could respond to
            Backend::File(d) => Backend::File(d.snapshot().expect("snapshot file copy")),
            Backend::Nvme(d) => Backend::Nvme(d.snapshot()),
        })
    }

    /// Attach a fault injector; every subsequent read/write consults it.
    /// The handle is shared: attach the same one to every disk of a store
    /// so the plan's operation indices span the store's whole I/O stream.
    pub fn attach_faults(&mut self, handle: FaultHandle) {
        self.faults = Some(handle);
    }

    /// Detach the fault injector, returning the device to clean operation.
    pub fn detach_faults(&mut self) -> Option<FaultHandle> {
        self.faults.take()
    }

    /// Frame reads served.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Frame writes performed.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Forces issued.
    pub fn forces(&self) -> u64 {
        self.forces.load(Ordering::Relaxed)
    }

    /// Read rounds [`Disk::read_page_retry`] made beyond the first.
    pub fn read_retries(&self) -> u64 {
        self.read_retries.load(Ordering::Relaxed)
    }

    /// Write+verify rounds [`Disk::write_page_verified`] made beyond the
    /// first.
    pub fn write_retries(&self) -> u64 {
        self.write_retries.load(Ordering::Relaxed)
    }

    /// Backend name (`"mem"`, `"file"`, `"nvme"`).
    pub fn kind(&self) -> &'static str {
        match &self.backend {
            Backend::Mem(_) => "mem",
            Backend::File(_) => "file",
            Backend::Nvme(_) => "nvme",
        }
    }

    /// The controller behind an NVMe disk (`None` on the other backends).
    pub fn nvme_model(&self) -> Option<&Arc<NvmeModel>> {
        match &self.backend {
            Backend::Nvme(d) => Some(d.model()),
            _ => None,
        }
    }

    /// Read and decode a [`Page`], verifying its checksum.
    pub fn read_page(&self, addr: u64) -> Result<Page, StorageError> {
        self.view_once(addr, |v| v.to_page())
    }

    /// Encode and write a [`Page`].
    pub fn write_page(&mut self, addr: u64, page: &Page) -> Result<(), StorageError> {
        self.write_frame(addr, &page.to_frame())
    }

    /// [`Disk::read_page`] with bounded retry through transient faults:
    /// [`Disk::read_page_retry_with`] keeping an owned copy.
    pub fn read_page_retry(&self, addr: u64) -> Result<Page, StorageError> {
        self.read_page_retry_with(addr, |v| v.to_page())
    }

    /// Read the page at `addr` with bounded retry through transient
    /// faults, and run `f` on its verified frame where it lies — no page
    /// is built unless `f` builds one.
    ///
    /// Retries [`StorageError::Io`] and [`StorageError::Corrupt`] — a bit
    /// flip during transfer fails the checksum although the platter is
    /// fine, so one clean re-read resolves it. Persistent corruption (a
    /// genuinely torn frame) still surfaces as the last error once the
    /// attempts run out; any other error returns at once. `f` runs once,
    /// on the attempt that verifies.
    pub fn read_page_retry_with<R>(
        &self,
        addr: u64,
        f: impl FnOnce(PageRef<'_>) -> R,
    ) -> Result<R, StorageError> {
        let mut f = Some(f);
        let mut attempt = 1;
        loop {
            let got = self.view_once(addr, |v| f.take().expect("runs on one attempt")(v));
            match got {
                Err(StorageError::Io { .. } | StorageError::Corrupt { .. })
                    if attempt < ATTEMPTS =>
                {
                    attempt += 1;
                    self.read_retries.fetch_add(1, Ordering::Relaxed);
                }
                other => return other,
            }
        }
    }

    /// Write-and-verify: write the page, read the raw frame back, and go
    /// round again on any failure or mismatch, up to the retry budget.
    ///
    /// The defense against *lost* and *torn* writes on commit-critical
    /// frames (master records, commit lists, log pages): a silently dropped
    /// write would otherwise let commit report durability it does not
    /// have. The page is encoded once, and the read-back is compared byte
    /// for byte with that frame where the frame lies, not copied or
    /// decoded: equal bytes carry the valid checksum just written, so the
    /// check is as strict as decoding and comparing pages. A mismatch is
    /// [`StorageError::Corrupt`]. [`StorageError::Offline`] returns at
    /// once; otherwise the last error returns once the attempts run out.
    pub fn write_page_verified(&mut self, addr: u64, page: &Page) -> Result<(), StorageError> {
        let frame = page.to_frame();
        let mut attempt = 1;
        loop {
            let err = match self
                .write_frame(addr, &frame)
                .and_then(|()| self.with_frame(addr, |got| got == &*frame))
            {
                Ok(true) => return Ok(()),
                Ok(false) => StorageError::Corrupt { addr },
                Err(e) => e,
            };
            if err == StorageError::Offline || attempt == ATTEMPTS {
                return Err(err);
            }
            attempt += 1;
            self.write_retries.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Disk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Disk")
            .field("backend", &self.backend)
            .field("reads", &self.reads())
            .field("writes", &self.writes())
            .field("forces", &self.forces())
            .field("read_retries", &self.read_retries())
            .field("write_retries", &self.write_retries())
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;

    #[test]
    fn provision_matches_kind() {
        for (bk, name) in [
            (BackendKind::Mem, "mem"),
            (BackendKind::file(), "file"),
            (BackendKind::nvme(NvmeConfig::default()), "nvme"),
        ] {
            let d = bk.provision(8).unwrap();
            assert_eq!(d.kind(), name);
            assert_eq!(bk.name(), name);
            assert_eq!(d.capacity(), 8);
        }
    }

    #[test]
    fn enum_dispatch_round_trips_each_backend() {
        for bk in [
            BackendKind::Mem,
            BackendKind::file(),
            BackendKind::nvme(NvmeConfig::default()),
        ] {
            let mut d = bk.provision(4).unwrap();
            let mut p = Page::new(PageId(2));
            p.write_at(0, b"via-enum");
            d.write_page(1, &p).unwrap();
            d.force().unwrap();
            assert_eq!(d.read_page(1).unwrap(), p, "{}", d.kind());
            assert_eq!(d.writes(), 1);
            assert_eq!(d.forces(), 1);
        }
    }

    #[test]
    fn shared_nvme_controller_spans_disks() {
        let bk = BackendKind::nvme_shared(NvmeConfig::default());
        let mut a = bk.provision(4).unwrap();
        let mut b = bk.provision(4).unwrap();
        let p = Page::new(PageId(0));
        a.write_page(0, &p).unwrap();
        b.write_page(0, &p).unwrap();
        let (Some(a), Some(b)) = (a.nvme_model(), b.nvme_model()) else {
            panic!("nvme provision produced a non-nvme disk");
        };
        // both disks submitted through the one controller
        assert_eq!(a.submissions(), 2);
        assert!(Arc::ptr_eq(a, b));
    }
}
