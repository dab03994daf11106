//! Crash a busy WAL engine mid-flight and bring it back with the
//! checkpoint-bounded parallel restart engine, comparing redo on one
//! worker against K-way sharded redo.
//!
//! Run with: `cargo run --example restart_demo`

use recovery_machines::restart::{restart, RestartConfig};
use recovery_machines::wal::{WalConfig, WalDb};

fn cfg() -> WalConfig {
    WalConfig {
        data_pages: 256,
        pool_frames: 32,
        log_streams: 4,
        log_frames: 1 << 14,
        ckpt_every_commits: 64, // fuzzy checkpoint every 64 commits
        ..WalConfig::default()
    }
}

fn main() {
    // Build up a history: a long-lived transaction keeps every checkpoint
    // fuzzy (so the logs are retained, not truncated), while short
    // transactions churn pages and trip the auto-checkpoint knob.
    let mut db = WalDb::new(cfg());
    let drone = db.begin();
    db.write(drone, 255, 0, b"long-lived").unwrap();
    for i in 0..400u64 {
        let t = db.begin();
        let page = i % 200;
        db.write(
            t,
            page,
            (i % 16) as usize * 16,
            format!("commit {i:06}").as_bytes(),
        )
        .unwrap();
        db.commit(t).unwrap();
    }
    // ... and one transaction caught in flight by the crash: a loser.
    let loser = db.begin();
    db.write(loser, 7, 0, b"never happened").unwrap();

    println!("-- crash! ----------------------------------------------------");
    let image = db.crash_image();

    // Restart with one worker (serial redo) and with four.
    let serial_cfg = RestartConfig { workers: 1 };
    let (_, serial_report) = restart(db.crash_image(), cfg(), &serial_cfg).unwrap();
    let (mut db2, report) = restart(image, cfg(), &RestartConfig::default()).unwrap();

    println!("{report}");
    println!(
        "serial redo took {:?}; {}-way redo took {:?}",
        serial_report.timings.redo, report.workers, report.timings.redo
    );

    // The committed tail survived, the loser vanished.
    let t = db2.begin();
    assert_eq!(db2.read(t, 199, 240, 13).unwrap(), b"commit 000399");
    assert_eq!(db2.read(t, 255, 0, 10).unwrap(), vec![0u8; 10]);
    println!("recovered state verified: winners kept, losers rolled back");
}
