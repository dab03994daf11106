//! Known-answer test for the write path: the bytes a seeded serial
//! workload leaves on disk are pinned by digest.
//!
//! `WalDb` runs one seeded workload under every [`LoggingPolicy`] ×
//! [`LogMode`] pair and two fragment-routing policies. The workload
//! writes through several query processors, adds with `add_u64`, rolls
//! back to savepoints, aborts, commits pairs through `commit_group`, and
//! checkpoints with a transaction open (so no checkpoint truncates the
//! whole log), on a pool small enough to evict and to spill deferred
//! captures. Every frame of the crash image is hashed: the data disk and
//! each log disk.
//!
//! `ExecDb` runs a one-client workload under the same six policy/mode
//! pairs and hashes the records each stream's scan returns (frame layout
//! there depends on appender timing; the record sequence does not).
//!
//! A refactor of the write path must leave every digest unchanged. On a
//! mismatch the assertion prints the whole table of actual digests.

use recovery_machines::exec::{ExecConfig, ExecDb};
use recovery_machines::storage::{Disk, PAYLOAD_SIZE};
use recovery_machines::wal::{
    LogMode, LogStream, LoggingPolicy, SelectionPolicy, TxnId, WalConfig, WalDb,
};

const ADAPTIVE: LoggingPolicy = LoggingPolicy::Adaptive;
const POLICIES: [(&str, LoggingPolicy); 3] = [
    ("fragments", LoggingPolicy::Fragments),
    ("command", LoggingPolicy::Command),
    ("adaptive", ADAPTIVE),
];
const MODES: [(&str, LogMode); 2] = [
    ("logical", LogMode::Logical),
    ("physical", LogMode::Physical),
];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// splitmix64: a seeded generator with no dependency on a crate's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Digest of every frame of `disk`: allocation, then content.
fn disk_digest(disk: &Disk) -> u64 {
    let mut h = Fnv::new();
    for addr in 0..disk.capacity() {
        if disk.is_allocated(addr) {
            h.bytes(&[1]);
            h.bytes(&disk.read_frame(addr).expect("frame reads")[..]);
        } else {
            h.bytes(&[0]);
        }
    }
    h.0
}

/// Digest of the records a scan of log disk `disk` returns.
fn records_digest(disk: Disk) -> u64 {
    let (_, records, _) = LogStream::open_scanned(disk).expect("log reopens");
    let mut h = Fnv::new();
    let mut buf = Vec::new();
    for r in records {
        buf.clear();
        r.rec.encode(&mut buf);
        h.bytes(&buf);
    }
    h.0
}

/// Data pages of the workloads. Transactions of a group split them by
/// parity, so the two members never contend for a lock.
const PAGES: u64 = 24;

/// One write of a transaction body: a put of 1–32 bytes or an add.
fn wal_write(db: &mut WalDb, rng: &mut Rng, txn: TxnId, parity: u64) {
    let page = 2 * rng.below(PAGES / 2) + parity;
    if rng.below(4) == 0 {
        let offset = 8 * rng.below(64) as usize;
        db.add_u64(txn, page, offset, rng.next() % 1000)
            .expect("add");
    } else {
        let qp = rng.below(4) as usize;
        let len = 1 + rng.below(32) as usize;
        let offset = rng.below((PAYLOAD_SIZE / 8) as u64) as usize;
        let byte = rng.next() as u8;
        db.write_via(qp, txn, page, offset, &vec![byte; len])
            .expect("write");
    }
}

/// A transaction body: a few writes, sometimes a savepoint whose later
/// writes are rolled back.
fn wal_body(db: &mut WalDb, rng: &mut Rng, txn: TxnId, parity: u64) {
    for _ in 0..1 + rng.below(4) {
        wal_write(db, rng, txn, parity);
    }
    if rng.below(3) == 0 {
        let sp = db.savepoint(txn).expect("savepoint");
        for _ in 0..1 + rng.below(3) {
            wal_write(db, rng, txn, parity);
        }
        db.rollback_to(sp).expect("rollback_to");
        wal_write(db, rng, txn, parity);
    }
}

/// Per-disk digests of a seeded `WalDb` run's crash image: the data
/// disk, then each log disk.
fn wal_run(logging: LoggingPolicy, log_mode: LogMode, policy: SelectionPolicy) -> Vec<u64> {
    let mut db = WalDb::new(WalConfig {
        data_pages: PAGES,
        pool_frames: 4,
        log_streams: 3,
        log_frames: 1024,
        policy,
        log_mode,
        seed: 7,
        dw_slots: 4,
        ckpt_every_commits: 0,
        logging,
        ..WalConfig::default()
    });
    let mut rng = Rng(0x5eed);
    for round in 0..48 {
        match round % 8 {
            3 => {
                let (a, b) = (db.begin(), db.begin());
                wal_body(&mut db, &mut rng, a, 0);
                wal_body(&mut db, &mut rng, b, 1);
                db.commit_group(&[a, b]).expect("group commit");
            }
            5 => {
                let t = db.begin();
                wal_body(&mut db, &mut rng, t, 0);
                db.checkpoint().expect("checkpoint with a transaction open");
                wal_body(&mut db, &mut rng, t, 0);
                db.commit(t).expect("commit");
            }
            7 => {
                let t = db.begin();
                wal_body(&mut db, &mut rng, t, 1);
                db.abort(t).expect("abort");
            }
            _ => {
                let t = db.begin();
                wal_body(&mut db, &mut rng, t, round % 2);
                db.commit(t).expect("commit");
            }
        }
    }
    // a loser the crash cuts
    let t = db.begin();
    wal_body(&mut db, &mut rng, t, 0);
    let image = db.crash_image();
    let mut out = vec![disk_digest(&image.data)];
    out.extend(image.logs.iter().map(disk_digest));
    out
}

/// Per-stream record digests of a one-client `ExecDb` run.
fn exec_run(logging: LoggingPolicy, log_mode: LogMode) -> Vec<u64> {
    let db = ExecDb::new(ExecConfig {
        wal: WalConfig {
            data_pages: PAGES,
            pool_frames: 8,
            log_streams: 3,
            log_frames: 1024,
            log_mode,
            seed: 11,
            logging,
            ..WalConfig::default()
        },
        pool_shards: 2,
        ..ExecConfig::default()
    });
    let mut rng = Rng(0xe8ec);
    for round in 0..40u64 {
        let mut t = db.begin((round % 3) as usize);
        for _ in 0..1 + rng.below(5) {
            let page = rng.below(PAGES);
            if rng.below(4) == 0 {
                let offset = 8 * rng.below(64) as usize;
                db.add_u64(&mut t, page, offset, rng.next() % 1000)
                    .expect("add");
            } else {
                let len = 1 + rng.below(32) as usize;
                let offset = rng.below((PAYLOAD_SIZE / 8) as u64) as usize;
                let byte = rng.next() as u8;
                db.write(&mut t, page, offset, &vec![byte; len])
                    .expect("write");
            }
        }
        if round % 7 == 6 {
            db.abort(t).expect("abort");
        } else {
            db.commit(t).expect("submit").wait().expect("commit");
        }
    }
    db.drain_appenders().expect("drain");
    let image = db.crash_image().expect("crash image");
    db.shutdown().expect("shutdown");
    image.logs.into_iter().map(records_digest).collect()
}

/// Compare `actual` with `expected` row by row, printing the whole
/// actual table on a mismatch.
fn check(actual: &[(String, Vec<u64>)], expected: &[(&str, &[u64])]) {
    let table: String = actual
        .iter()
        .map(|(name, d)| {
            let hex: Vec<String> = d.iter().map(|x| format!("0x{x:016x}")).collect();
            format!("    (\"{name}\", &[{}]),\n", hex.join(", "))
        })
        .collect();
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((an, ad), (en, ed))| an == en && ad.as_slice() == *ed);
    assert!(same, "digests differ; actual table:\n{table}");
}

#[test]
fn wal_crash_images_match_the_recorded_digests() {
    let mut actual = Vec::new();
    for (sname, select) in [
        ("qpmod", SelectionPolicy::QpMod),
        ("random", SelectionPolicy::Random),
    ] {
        for (pname, logging) in POLICIES {
            for (mname, mode) in MODES {
                let name = format!("{sname}/{pname}/{mname}");
                actual.push((name, wal_run(logging, mode, select)));
            }
        }
    }
    check(&actual, WAL_DIGESTS);
}

#[test]
fn exec_stream_records_match_the_recorded_digests() {
    let mut actual = Vec::new();
    for (pname, logging) in POLICIES {
        for (mname, mode) in MODES {
            actual.push((format!("{pname}/{mname}"), exec_run(logging, mode)));
        }
    }
    check(&actual, EXEC_DIGESTS);
}

/// `WalDb` digests: data disk, then log disks 0–2.
const WAL_DIGESTS: &[(&str, &[u64])] = &[
    (
        "qpmod/fragments/logical",
        &[
            0xc220f70fd562f85a,
            0xa02d4f5cc16ddc23,
            0x490f9ef5118a5bc9,
            0x05c911411bf10425,
        ],
    ),
    (
        "qpmod/fragments/physical",
        &[
            0xc220f70fd562f85a,
            0x77124ad0de4806ca,
            0x70ccf31efe9951d6,
            0xb0e6659d67a79b46,
        ],
    ),
    (
        "qpmod/command/logical",
        &[
            0x04bf600de97dd875,
            0x0dfbbcc6fe413e41,
            0xed456127afa39bde,
            0x2d3198413f19bd79,
        ],
    ),
    (
        "qpmod/command/physical",
        &[
            0x04bf600de97dd875,
            0x597a34b6a974fe77,
            0x6392a28b18ac7ef4,
            0x94dee148f2a33860,
        ],
    ),
    (
        "qpmod/adaptive/logical",
        &[
            0x04bf600de97dd875,
            0x4eabcc087cb4cd34,
            0xed456127afa39bde,
            0x2d3198413f19bd79,
        ],
    ),
    (
        "qpmod/adaptive/physical",
        &[
            0x04bf600de97dd875,
            0x545f9501f40a8ffb,
            0x6392a28b18ac7ef4,
            0x94dee148f2a33860,
        ],
    ),
    (
        "random/fragments/logical",
        &[
            0xc220f70fd562f85a,
            0xd23a691cb6a94d41,
            0x5f7dc0dd3f3de792,
            0x34bf2610fae61620,
        ],
    ),
    (
        "random/fragments/physical",
        &[
            0xc220f70fd562f85a,
            0xadbdc2ff9fe5e0e5,
            0xde9c94998e014007,
            0xcc231fd09f7ea884,
        ],
    ),
    (
        "random/command/logical",
        &[
            0x04bf600de97dd875,
            0x9de60054d7bfc7d6,
            0xa86cdc899850a236,
            0x266fb81f13f28755,
        ],
    ),
    (
        "random/command/physical",
        &[
            0x04bf600de97dd875,
            0xe9bc069e3c3c3093,
            0x60eea825e665aff0,
            0xc4684958603361a5,
        ],
    ),
    (
        "random/adaptive/logical",
        &[
            0x04bf600de97dd875,
            0x308f9a4cdbe47cf4,
            0x965fd1604ac3b2fc,
            0xa371fcec2e2f0207,
        ],
    ),
    (
        "random/adaptive/physical",
        &[
            0x04bf600de97dd875,
            0x514625c0cd59b9e1,
            0x7a217106432ffa21,
            0x1d09c5c1ccd9209b,
        ],
    ),
];

/// `ExecDb` digests: scanned records of log streams 0–2.
const EXEC_DIGESTS: &[(&str, &[u64])] = &[
    (
        "fragments/logical",
        &[0x09b409655a4d965b, 0xe49ec9e7d0be2c2b, 0x65b723ddee071807],
    ),
    (
        "fragments/physical",
        &[0x7835b08175e34103, 0x261ccb5574735702, 0xafc32e28260e518d],
    ),
    (
        "command/logical",
        &[0x36f53f816398e3cc, 0x886ceafde79c2bb0, 0xabca390f12c222e1],
    ),
    (
        "command/physical",
        &[0x12e82a62908796b1, 0xf1a0cf653498ac1f, 0x5be5aaec91370c21],
    ),
    (
        "adaptive/logical",
        &[0x03dd0d52f235c1f9, 0xe904cae51a87e0d3, 0x813e87db37080e08],
    ),
    (
        "adaptive/physical",
        &[0x820ed22f3b123280, 0xd03c59a93b31834e, 0x23169496fe306550],
    ),
];
