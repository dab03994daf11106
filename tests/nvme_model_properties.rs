//! Property tests for the NVMe-class service-time model.
//!
//! The model underwrites the scaling bench's numbers, so its own laws get
//! pinned down here:
//!
//! * **conservation** — after any mix of reads/writes/forces across any
//!   number of namespaces sharing one controller, draining the queues
//!   leaves completions equal to submissions (no lost or phantom I/Os);
//! * **bounded latency** — every observed service-time sample lies within
//!   `[base_us, max_us]` of the configured band, whatever the workload;
//! * **determinism** — a fixed seed and a fixed sequential workload
//!   reproduce the exact same latency accounting, run after run.

use proptest::prelude::*;
use recovery_machines::storage::{BackendKind, Disk, NvmeConfig, Page, PageId};

const FRAMES: u64 = 32;

/// One modeled I/O op: (frame, write?, force-after?).
fn op_strategy() -> impl Strategy<Value = (u64, bool, bool)> {
    (0..FRAMES, any::<bool>(), any::<bool>())
}

fn run_ops(disk: &mut Disk, ops: &[(u64, bool, bool)]) {
    for &(frame, is_write, force) in ops {
        if is_write {
            let mut p = Page::new(PageId(frame));
            p.write_at(0, &frame.to_le_bytes());
            disk.write_page(frame, &p).expect("write");
        } else {
            // virgin frames error Unallocated — the submission still pays
            // its modeled service time, which is what we're testing
            let _ = disk.read_page(frame);
        }
        if force {
            disk.force().expect("force");
        }
    }
}

/// The controller behind an NVMe-backed `Disk`.
fn model(disk: &Disk) -> &recovery_machines::storage::NvmeModel {
    disk.nvme_model()
        .unwrap_or_else(|| panic!("expected nvme disk, got {}", disk.kind()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn completions_equal_submissions_at_drain(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        namespaces in 1usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = NvmeConfig { seed, ..NvmeConfig::default() };
        let bk = BackendKind::nvme_shared(cfg);
        let mut disks: Vec<Disk> =
            (0..namespaces).map(|_| bk.provision(FRAMES).expect("provision")).collect();
        for d in &mut disks {
            run_ops(d, &ops);
        }
        let m = model(&disks[0]);
        let (submitted, completed) = m.drain();
        prop_assert_eq!(submitted, completed, "conservation at drain");
        prop_assert!(submitted > 0, "workload submitted nothing");
        prop_assert_eq!(m.queue_depth(), 0, "drained queues are empty");
    }

    #[test]
    fn latency_samples_stay_inside_configured_band(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        base_us in 1u64..50,
        extra in 0u64..200,
        per_qd_us in 0u64..30,
        seed in any::<u64>(),
    ) {
        let cfg = NvmeConfig {
            base_us,
            per_qd_us,
            max_us: base_us + extra,
            seed,
            realtime: false,
        };
        let mut disk = BackendKind::nvme(cfg).provision(FRAMES).expect("provision");
        run_ops(&mut disk, &ops);
        let m = model(&disk);
        let (min, max) = m.latency_bounds();
        prop_assert!(min >= cfg.base_us, "min {} below base {}", min, cfg.base_us);
        prop_assert!(max <= cfg.max_us, "max {} above ceiling {}", max, cfg.max_us);
        let mean = m.mean_latency_us();
        prop_assert!(mean >= min && mean <= max, "mean outside observed bounds");
    }

    #[test]
    fn fixed_seed_reproduces_identical_accounting(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in any::<u64>(),
    ) {
        let cfg = NvmeConfig { seed, ..NvmeConfig::default() };
        let run = || {
            let mut disk = BackendKind::nvme(cfg).provision(FRAMES).expect("provision");
            run_ops(&mut disk, &ops);
            let m = model(&disk);
            (
                m.submissions(),
                m.completions(),
                m.latency_bounds(),
                m.mean_latency_us(),
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b, "same seed + same sequential workload must replay exactly");
    }
}
