//! Property-based tests of the parallel-logging engine: arbitrary
//! operation sequences, stream counts, selection policies and log modes
//! must always recover exactly the committed state; and of one log
//! stream's packed tail page under crashes and torn writes.

use proptest::prelude::*;
use recovery_machines::storage::{FaultInjector, FaultPlan, Lsn, PageId, FRAME_SIZE};
use recovery_machines::wal::stream::USABLE;
use recovery_machines::wal::{LogMode, LogRecord, LogStream, SelectionPolicy, WalConfig, WalDb};
use std::collections::HashMap;

const PAGES: u64 = 8;
const SLOT: usize = 16;

/// A scripted operation.
#[derive(Debug, Clone)]
enum Op {
    /// Begin a txn, write the listed (page, byte) pairs, then commit or
    /// abort.
    Txn {
        writes: Vec<(u64, u8)>,
        commit: bool,
    },
    /// Take a checkpoint.
    Checkpoint,
    /// Crash and recover.
    Crash,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (
            proptest::collection::vec((0..PAGES, any::<u8>()), 1..4),
            any::<bool>()
        )
            .prop_map(|(writes, commit)| Op::Txn { writes, commit }),
        1 => Just(Op::Checkpoint),
        2 => Just(Op::Crash),
    ]
}

fn config(streams: usize, physical: bool, policy: SelectionPolicy) -> WalConfig {
    WalConfig {
        data_pages: PAGES,
        pool_frames: 2, // aggressive stealing
        log_streams: streams,
        log_frames: 1 << 14,
        log_mode: if physical {
            LogMode::Physical
        } else {
            LogMode::Logical
        },
        policy,
        ..WalConfig::default()
    }
}

fn run_script(ops: Vec<Op>, streams: usize, physical: bool, policy: SelectionPolicy) {
    let cfg = config(streams, physical, policy);
    let mut db = WalDb::new(cfg.clone());
    let mut oracle: HashMap<u64, u8> = HashMap::new();
    for op in ops {
        match op {
            Op::Txn { writes, commit } => {
                let t = db.begin();
                let mut deduped: Vec<(u64, u8)> = Vec::new();
                for (page, byte) in writes {
                    if deduped.iter().any(|&(p, _)| p == page) {
                        continue;
                    }
                    db.write(t, page, 0, &[byte; SLOT]).unwrap();
                    deduped.push((page, byte));
                }
                if commit {
                    db.commit(t).unwrap();
                    for (page, byte) in deduped {
                        oracle.insert(page, byte);
                    }
                } else {
                    db.abort(t).unwrap();
                }
            }
            Op::Checkpoint => db.checkpoint().unwrap(),
            Op::Crash => {
                let (recovered, report) = WalDb::recover(db.crash_image(), cfg.clone()).unwrap();
                // a clean crash tears nothing: salvage and quarantine are
                // strictly fault-storm phenomena
                assert_eq!(report.salvaged_records, 0, "clean crash salvaged records");
                assert_eq!(
                    report.quarantined_log_pages, 0,
                    "clean crash quarantined log pages"
                );
                assert_eq!(
                    report.quarantined_data_pages, 0,
                    "clean crash quarantined data pages"
                );
                db = recovered;
            }
        }
        // committed state must match the oracle at every step
        let t = db.begin();
        for page in 0..PAGES {
            let want = vec![oracle.get(&page).copied().unwrap_or(0); SLOT];
            assert_eq!(db.read(t, page, 0, SLOT).unwrap(), want, "page {page}");
        }
        db.abort(t).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn logical_any_script_recovers(
        ops in proptest::collection::vec(op_strategy(), 1..20),
        streams in 1usize..5,
    ) {
        run_script(ops, streams, false, SelectionPolicy::Cyclic);
    }

    #[test]
    fn physical_any_script_recovers(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        streams in 1usize..4,
    ) {
        run_script(ops, streams, true, SelectionPolicy::Cyclic);
    }

    #[test]
    fn every_policy_recovers(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        policy_idx in 0usize..4,
    ) {
        run_script(ops, 3, false, SelectionPolicy::ALL[policy_idx]);
    }

    #[test]
    fn double_crash_is_idempotent(
        writes in proptest::collection::vec((0..PAGES, any::<u8>()), 1..6),
    ) {
        let cfg = config(2, false, SelectionPolicy::Cyclic);
        let mut db = WalDb::new(cfg.clone());
        let mut oracle: HashMap<u64, u8> = HashMap::new();
        // one committed txn per write
        for &(page, byte) in &writes {
            let t = db.begin();
            db.write(t, page, 0, &[byte; SLOT]).unwrap();
            db.commit(t).unwrap();
            oracle.insert(page, byte);
        }
        // a loser in flight
        let loser = db.begin();
        db.write(loser, writes[0].0, 0, &[0xEE; SLOT]).unwrap();

        let (db2, _) = WalDb::recover(db.crash_image(), cfg.clone()).unwrap();
        let (mut db3, r2) = WalDb::recover(db2.crash_image(), cfg.clone()).unwrap();
        prop_assert_eq!(r2.undone_updates, 0, "second recovery must have nothing to undo");
        let t = db3.begin();
        for page in 0..PAGES {
            let want = vec![oracle.get(&page).copied().unwrap_or(0); SLOT];
            prop_assert_eq!(db3.read(t, page, 0, SLOT).unwrap(), want);
        }
        db3.abort(t).unwrap();
    }
}

/// A torn (checksum-invalid) log page is quarantined, not fatal: recovery
/// reports it and the database stays usable.
#[test]
fn torn_log_page_is_quarantined_not_fatal() {
    let cfg = config(2, false, SelectionPolicy::Cyclic);
    let mut db = WalDb::new(cfg.clone());
    for byte in 0..6u8 {
        let t = db.begin();
        db.write(t, u64::from(byte) % PAGES, 0, &[byte; SLOT])
            .unwrap();
        db.commit(t).unwrap();
    }
    let mut image = db.crash_image();

    // scribble an allocated log frame past the stream header
    let victim = (1..image.logs[0].capacity())
        .find(|&a| image.logs[0].is_allocated(a))
        .expect("no allocated log frame to corrupt");
    image.logs[0]
        .write_partial(victim, &[0xA5u8; FRAME_SIZE], FRAME_SIZE / 2)
        .unwrap();

    let (mut db, report) = WalDb::recover(image, cfg).expect("quarantine, not fatal");
    assert!(
        report.quarantined_log_pages >= 1,
        "torn log page was not quarantined: {report:?}"
    );
    // updates at or past the torn page are lost, but the engine must still
    // serve reads and new transactions
    let t = db.begin();
    for page in 0..PAGES {
        db.read(t, page, 0, SLOT).unwrap();
    }
    db.abort(t).unwrap();
    let t = db.begin();
    db.write(t, 0, 0, &[0xBB; SLOT]).unwrap();
    db.commit(t).unwrap();
}

// ---------------------------------------------------------------------------
// One log stream on its own: the partial tail page is packed across forces
// and rewritten through the two tail slots. Whatever mix of appends,
// forces, truncations, crashes and torn writes runs, a scan returns
// exactly the durable prefix of what was appended, and every record that
// begins its page starts a scan from that page.

/// One step of a [`LogStream`] script.
#[derive(Debug, Clone)]
enum StreamOp {
    /// Append a commit record (9 B).
    Commit,
    /// Append an update with `n`-byte images: ~60 B to two pages.
    Update(usize),
    /// Force the stream.
    Force,
    /// Truncate everything written so far.
    Truncate,
    /// Truncate to the frame of the `n`-th (mod count) record that begins
    /// its page.
    TruncateTo(usize),
    /// Crash and reopen.
    Crash,
    /// Tear the next log-page write at byte `cut` and crash the device
    /// with it.
    Tear(usize),
}

fn stream_op() -> impl Strategy<Value = StreamOp> {
    prop_oneof![
        3 => Just(StreamOp::Commit),
        6 => (0..=USABLE).prop_map(StreamOp::Update),
        4 => Just(StreamOp::Force),
        1 => Just(StreamOp::Truncate),
        1 => any::<usize>().prop_map(StreamOp::TruncateTo),
        2 => Just(StreamOp::Crash),
        // half the cuts land in the first 64 bytes: the frame header and
        // the log page's own header fields
        2 => prop_oneof![1..64usize, 1..FRAME_SIZE].prop_map(StreamOp::Tear),
    ]
}

/// The stream under test plus its oracle: every live (untruncated)
/// record with the stream position its last byte ends at.
struct StreamModel {
    s: LogStream,
    recs: Vec<(LogRecord, u64)>,
    armed: bool,
    next: u64,
}

impl StreamModel {
    fn durable_prefix(&self) -> Vec<LogRecord> {
        let durable = self.s.durable_position();
        self.recs
            .iter()
            .take_while(|(_, end)| *end <= durable)
            .map(|(r, _)| r.clone())
            .collect()
    }

    /// Crash: reopen from the platter. Records the stream acked must all
    /// come back; after a torn write, the unacked ones may come back as a
    /// prefix (the write may have landed whole).
    fn crash(&mut self, torn: bool) {
        let acked = self.durable_prefix();
        self.s = LogStream::open(self.s.disk_snapshot()).expect("reopen");
        self.armed = false;
        let got = self.s.scan();
        if torn {
            assert!(got.len() >= acked.len(), "torn write lost acked records");
            let all: Vec<LogRecord> = self.recs.iter().map(|(r, _)| r.clone()).collect();
            assert_eq!(got, all[..got.len()], "recovered records are not a prefix");
        } else {
            assert_eq!(got, acked, "crash lost or invented records");
        }
        self.recs = got.into_iter().map(|r| (r, 0)).collect();
    }

    fn append(&mut self, rec: LogRecord) {
        let res = self.s.append(&rec);
        self.recs.push((rec, self.s.position()));
        if res.is_err() {
            assert!(self.armed, "append failed on a healthy device: {res:?}");
            self.crash(true);
        }
    }

    /// Drop an armed tear before an op that rewrites the header: the
    /// single-copy header is not what this property is about.
    fn disarm(&mut self) {
        if self.armed {
            self.s.detach_faults();
            self.armed = false;
        }
    }

    fn step(&mut self, op: StreamOp) {
        match op {
            StreamOp::Commit => {
                self.next += 1;
                self.append(LogRecord::Commit { txn: self.next });
            }
            StreamOp::Update(n) => {
                self.next += 1;
                self.append(LogRecord::Update {
                    txn: self.next,
                    page: PageId(self.next % 7),
                    prev_lsn: Lsn(0),
                    new_lsn: Lsn(self.next),
                    offset: 0,
                    before: vec![self.next as u8; n],
                    after: vec![!(self.next as u8); n],
                });
            }
            StreamOp::Force => {
                if let Err(e) = self.s.force() {
                    assert!(self.armed, "force failed on a healthy device: {e}");
                    self.crash(true);
                }
            }
            StreamOp::Truncate => {
                self.disarm();
                self.s.truncate().expect("truncate");
                self.recs.clear();
            }
            StreamOp::TruncateTo(n) => {
                self.disarm();
                let (indexed, _) = self.s.scan_indexed();
                let starts: Vec<usize> = (0..indexed.len())
                    .filter(|&i| indexed[i].frame_start)
                    .collect();
                if let Some(&i) = starts.get(n % starts.len().max(1)) {
                    self.s.truncate_to(indexed[i].frame).expect("truncate_to");
                    self.recs.drain(..i);
                }
            }
            StreamOp::Crash => {
                self.disarm();
                self.crash(false);
            }
            StreamOp::Tear(cut) => {
                self.disarm();
                let plan = FaultPlan::new().tear_write(0, cut).crash_after_write(0);
                self.s.attach_faults(FaultInjector::handle(plan));
                self.armed = true;
            }
        }
    }

    fn check(&self) {
        let (indexed, stats) = self.s.scan_indexed();
        let recs: Vec<LogRecord> = indexed.iter().map(|r| r.rec.clone()).collect();
        assert_eq!(
            recs,
            self.durable_prefix(),
            "scan is not the durable prefix"
        );
        // a torn frame stays counted until rewritten; the next force or
        // page fill does that, so at most one slot and one home frame are
        assert!(stats.corrupt_pages <= 2, "torn frames pile up: {stats:?}");
        // the reopen's own chain read is the scan of the reopened stream:
        // same records, frame tags and salvage stats (the stats of the log
        // as the reopen leaves it)
        let (_, scanned, scanned_stats) =
            LogStream::open_scanned(self.s.disk_snapshot()).expect("open_scanned");
        let reopened = LogStream::open(self.s.disk_snapshot()).expect("reopen");
        assert_eq!(
            (scanned, scanned_stats),
            reopened.scan_indexed(),
            "open_scanned differs from open + scan_indexed"
        );
        // every record that begins its page starts a scan from that page
        for (i, r) in indexed.iter().enumerate().filter(|(_, r)| r.frame_start) {
            let mut copy = LogStream::open(self.s.disk_snapshot()).expect("reopen copy");
            copy.truncate_to(r.frame).expect("truncate copy");
            assert_eq!(copy.scan(), recs[i..], "scan from frame {}", r.frame);
        }
    }
}

fn run_stream_script(ops: Vec<StreamOp>) {
    let mut m = StreamModel {
        s: LogStream::create(256),
        recs: Vec::new(),
        armed: false,
        next: 0,
    };
    for op in ops {
        m.step(op);
        if !m.armed {
            m.check();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn log_stream_scan_is_the_durable_prefix(
        ops in proptest::collection::vec(stream_op(), 1..40),
    ) {
        run_stream_script(ops);
    }
}
