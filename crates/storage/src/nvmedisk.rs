//! NVMe-class block device: a queue-depth-aware service-time model over
//! in-memory frames, with submission/completion accounting.
//!
//! The paper's devices are 1985 rotational disks (~28 ms per force); the
//! scaling questions the exec pipeline raises — does group commit still
//! pay at 64 workers? where does the sharded pool saturate? — only have
//! answers relative to a device class. [`NvmeDisk`] models the class that
//! actually ships today: service times in the 10–100 µs band that *grow
//! with queue depth*, so a fleet hammering one controller sees exactly the
//! convoy behaviour a real SSD shows under deep queues.
//!
//! The model is deliberately simple and fully deterministic under a fixed
//! seed **for a sequential caller**: the latency of submission `i` is
//!
//! ```text
//! t(i) = clamp(base_us + per_qd_us·(qd_at_submit − 1) + jitter(seed, i),
//!              base_us, max_us)
//! ```
//!
//! where `jitter` is a splitmix64 hash of the submission index — no wall
//! clock, no global RNG. Under concurrency the queue depth term reflects
//! genuine interleaving (that's the point); the bounds still hold for
//! every sample, which is what the property tests pin down.
//!
//! Each I/O is accounted as submit → (optional realtime sleep of the
//! modeled service time) → transfer → complete. [`NvmeModel::drain`]
//! waits for the queues to empty; at drain, completions always equal
//! submissions — the conservation law the proptest suite checks.
//!
//! Several [`NvmeDisk`]s can share one [`NvmeModel`] (one controller):
//! provision them through
//! [`BackendKind::nvme_shared`](crate::BackendKind::nvme_shared) and the
//! platters of a whole appender fleet queue on one another.

use crate::memdisk::MemDisk;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Service-time model parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NvmeConfig {
    /// Minimum service time, µs (queue depth 1, no jitter).
    pub base_us: u64,
    /// Added service time per outstanding command already queued, µs.
    pub per_qd_us: u64,
    /// Service-time ceiling, µs — every sample is clamped here.
    pub max_us: u64,
    /// Seed for the per-submission jitter hash.
    pub seed: u64,
    /// When set, each I/O *sleeps* its modeled service time, turning the
    /// model into real backpressure for benchmarks. When clear the model
    /// only accounts, so tests stay fast.
    pub realtime: bool,
}

impl Default for NvmeConfig {
    fn default() -> Self {
        NvmeConfig {
            base_us: 12,
            per_qd_us: 4,
            max_us: 100,
            seed: 0x9E37_79B9_7F4A_7C15,
            realtime: false,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The controller: submission/completion queues plus latency accounting.
/// Shared (`Arc`) by every namespace ([`NvmeDisk`]) provisioned on it.
#[derive(Debug)]
pub struct NvmeModel {
    cfg: NvmeConfig,
    submitted: AtomicU64,
    completed: AtomicU64,
    inflight: AtomicU64,
    lat_sum_us: AtomicU64,
    lat_min_us: AtomicU64,
    lat_max_us: AtomicU64,
}

impl NvmeModel {
    /// A fresh controller with empty queues.
    pub fn new(cfg: NvmeConfig) -> Self {
        NvmeModel {
            cfg,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            lat_sum_us: AtomicU64::new(0),
            lat_min_us: AtomicU64::new(u64::MAX),
            lat_max_us: AtomicU64::new(0),
        }
    }

    /// The parameters this controller models.
    pub fn config(&self) -> NvmeConfig {
        self.cfg
    }

    /// Submit one command: returns its modeled service time in µs and
    /// records the latency sample. The caller performs the transfer and
    /// then calls [`NvmeModel::complete`].
    pub fn submit(&self) -> u64 {
        let idx = self.submitted.fetch_add(1, Ordering::Relaxed);
        let qd = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        let span = self.cfg.max_us.saturating_sub(self.cfg.base_us);
        let jitter = if span == 0 {
            0
        } else {
            // jitter up to a quarter of the band keeps qd the dominant term
            splitmix64(self.cfg.seed ^ idx) % (span / 4 + 1)
        };
        let t = (self.cfg.base_us + self.cfg.per_qd_us.saturating_mul(qd - 1) + jitter)
            .clamp(self.cfg.base_us, self.cfg.max_us);
        self.lat_sum_us.fetch_add(t, Ordering::Relaxed);
        self.lat_min_us.fetch_min(t, Ordering::Relaxed);
        self.lat_max_us.fetch_max(t, Ordering::Relaxed);
        t
    }

    /// Complete the oldest outstanding command.
    pub fn complete(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Commands submitted since construction.
    pub fn submissions(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Commands completed since construction.
    pub fn completions(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Commands currently outstanding.
    pub fn queue_depth(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// `(min, max)` latency observed, µs; `(0, 0)` before any submission.
    pub fn latency_bounds(&self) -> (u64, u64) {
        let min = self.lat_min_us.load(Ordering::Relaxed);
        if min == u64::MAX {
            (0, 0)
        } else {
            (min, self.lat_max_us.load(Ordering::Relaxed))
        }
    }

    /// Mean modeled latency, µs (0 before any submission).
    pub fn mean_latency_us(&self) -> u64 {
        self.lat_sum_us
            .load(Ordering::Relaxed)
            .checked_div(self.submissions())
            .unwrap_or(0)
    }

    /// Wait (bounded spin) for the queues to empty, then return
    /// `(submissions, completions)` — equal at drain by construction,
    /// since every in-process submit completes once its transfer returns.
    pub fn drain(&self) -> (u64, u64) {
        let mut spins = 0u32;
        while self.inflight.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
            spins += 1;
            if spins > 1_000_000 {
                break; // a wedged thread owns the command; report as-is
            }
        }
        (self.submissions(), self.completions())
    }
}

/// One namespace on an [`NvmeModel`] controller: in-memory frames whose
/// every I/O pays the controller's modeled service time (the
/// [`Disk`](crate::Disk) front submits the command before anything else
/// and completes it when the call returns).
#[derive(Debug)]
pub struct NvmeDisk {
    /// Read and written directly by the [`Disk`](crate::Disk) front.
    pub(crate) frames: MemDisk,
    model: Arc<NvmeModel>,
}

impl NvmeDisk {
    /// A fresh namespace of `frames` frames on a private controller.
    pub fn new(frames: u64, cfg: NvmeConfig) -> Self {
        NvmeDisk::on_model(frames, Arc::new(NvmeModel::new(cfg)))
    }

    /// A fresh namespace on an existing (possibly shared) controller.
    pub fn on_model(frames: u64, model: Arc<NvmeModel>) -> Self {
        NvmeDisk {
            frames: MemDisk::new(frames),
            model,
        }
    }

    /// The controller this namespace submits to.
    pub fn model(&self) -> &Arc<NvmeModel> {
        &self.model
    }

    /// Submit one command (a read, a write or a flush) and pay its
    /// modeled service time; it completes when the guard drops.
    pub(crate) fn pay(&self) -> ServiceGuard {
        let t = self.model.submit();
        if self.model.cfg.realtime && t > 0 {
            std::thread::sleep(std::time::Duration::from_micros(t));
        }
        ServiceGuard {
            model: Arc::clone(&self.model),
        }
    }

    /// Crash snapshot: the durable frames on a fresh private controller
    /// (queues empty) — recovery's device I/O cost is measured in
    /// isolation.
    pub(crate) fn snapshot(&self) -> NvmeDisk {
        NvmeDisk {
            frames: self.frames.snapshot(),
            model: Arc::new(NvmeModel::new(self.model.cfg)),
        }
    }
}

/// Completes the submission when the transfer returns (any path).
pub(crate) struct ServiceGuard {
    model: Arc<NvmeModel>,
}

impl Drop for ServiceGuard {
    fn drop(&mut self) {
        self.model.complete();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Disk;
    use crate::page::{Page, PageId};

    #[test]
    fn accounting_balances_and_bounds_hold() {
        let cfg = NvmeConfig::default();
        let mut d = Disk::from(NvmeDisk::new(16, cfg));
        let p = Page::new(PageId(1));
        for i in 0..10 {
            d.write_page(i % 16, &p).unwrap();
        }
        for i in 0..10 {
            d.read_page(i % 16).unwrap();
        }
        d.force().unwrap();
        let (subs, comps) = d.nvme_model().unwrap().drain();
        assert_eq!(subs, 21);
        assert_eq!(comps, 21);
        let (min, max) = d.nvme_model().unwrap().latency_bounds();
        assert!(min >= cfg.base_us && max <= cfg.max_us, "{min}..{max}");
    }

    #[test]
    fn deterministic_latency_under_fixed_seed() {
        let run = || {
            let mut d = Disk::from(NvmeDisk::new(8, NvmeConfig::default()));
            let p = Page::new(PageId(0));
            let mut lats = Vec::new();
            for i in 0..32u64 {
                d.write_page(i % 8, &p).unwrap();
                lats.push(d.nvme_model().unwrap().mean_latency_us());
            }
            lats
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn queue_depth_raises_service_time() {
        // jitter spans at most (max-base)/4 = 50 µs, so the +100 µs
        // queue-depth term must dominate and strictly order the samples
        let cfg = NvmeConfig {
            base_us: 10,
            per_qd_us: 100,
            max_us: 210,
            seed: 1,
            realtime: false,
        };
        let model = NvmeModel::new(cfg);
        let t1 = model.submit(); // qd 1
        let t2 = model.submit(); // qd 2: +per_qd_us
        assert!((10..=60).contains(&t1), "t1={t1}");
        assert!((110..=210).contains(&t2), "t2={t2}");
        assert!(t2 > t1);
        model.complete();
        model.complete();
        assert_eq!(model.queue_depth(), 0);
    }

    #[test]
    fn snapshot_resets_controller_and_isolates_frames() {
        let mut d = Disk::from(NvmeDisk::new(4, NvmeConfig::default()));
        let p = Page::new(PageId(1));
        d.write_page(0, &p).unwrap();
        let snap = d.snapshot();
        assert_eq!(snap.nvme_model().unwrap().submissions(), 0);
        let mut p2 = Page::new(PageId(1));
        p2.write_at(0, b"later");
        d.write_page(0, &p2).unwrap();
        assert_eq!(snap.read_page(0).unwrap(), p);
    }
}
