//! Demo of the deterministic fault-injection substrate: a lying device,
//! a mid-commit crash, and a recovery that reports what it survived.
//!
//! ```text
//! cargo run --example fault_demo
//! ```

use recovery_machines::storage::{FaultInjector, FaultPlan, MemDisk, StorageError, FRAME_SIZE};
use recovery_machines::wal::{SelectionPolicy, WalConfig, WalDb};

fn main() {
    let cfg = WalConfig {
        data_pages: 16,
        pool_frames: 3,
        log_streams: 3,
        policy: SelectionPolicy::Cyclic,
        ..WalConfig::default()
    };

    // A seeded storm: ~1/16 writes torn, lost, or transiently failing,
    // ~1/32 reads bit-flipped or failing — and the machine dies after
    // the 97th frame write. Same (seed, horizon) ⇒ same plan, forever.
    let plan = FaultPlan::seeded(1985, 1 << 20).crash_after_write(97);
    println!(
        "plan: {} write faults, {} read faults scheduled before the crash",
        plan.on_write.range(..98).count(),
        plan.on_read.range(..98).count(),
    );

    let run = |cfg: &WalConfig| {
        let mut db = WalDb::new(cfg.clone());
        db.attach_faults(&FaultInjector::handle(plan.clone()));
        let mut committed = 0;
        for i in 0..1_000u64 {
            let t = db.begin();
            if db.write(t, i % 16, 0, &i.to_le_bytes()).is_err() {
                break; // the device just died mid-write
            }
            if db.commit(t).is_ok() {
                committed += 1;
            } else {
                break; // ... or mid-commit
            }
        }
        (db.crash_image(), committed)
    };

    let (image, committed) = run(&cfg);
    println!("device died; {committed} transactions committed before the crash");

    // Recovery runs on the durable platter state and reports its work.
    let (mut db, report) = WalDb::recover(image, cfg.clone()).expect("recover");
    println!(
        "recovered: {} committed, {} losers, {} redone, {} undone, \
         {} log pages quarantined, {} records salvaged",
        report.committed_txns.len(),
        report.loser_txns.len(),
        report.redone_updates,
        report.undone_updates,
        report.quarantined_log_pages,
        report.salvaged_records,
    );
    let t = db.begin();
    let v = db.read(t, 0, 0, 8).expect("read");
    db.abort(t).expect("abort");
    println!("page 0 after recovery: {v:?}");

    // Replayability: the same plan against the same workload leaves a
    // byte-identical platter.
    let (a, _) = run(&cfg);
    let (b, _) = run(&cfg);
    let identical = (0..a.data.capacity()).all(|addr| {
        a.data.is_allocated(addr) == b.data.is_allocated(addr)
            && (!a.data.is_allocated(addr)
                || a.data.read_frame(addr).unwrap() == b.data.read_frame(addr).unwrap())
    });
    println!("two runs of the same plan are byte-identical: {identical}");

    // Corruption is a typed error, never a panic.
    let mut disk = recovery_machines::storage::Disk::from(MemDisk::new(4));
    match disk.write_partial(0, &[0u8; FRAME_SIZE], FRAME_SIZE + 1) {
        Err(StorageError::BadLength { len, max }) => {
            println!("oversized partial write rejected: len {len} > max {max}")
        }
        other => println!("unexpected: {other:?}"),
    }
}
