//! Backend conformance: every backend behind the [`Disk`] front must
//! present the same storage contract — the contract all the recovery
//! mechanisms were written against. One suite, run per backend, pins it
//! down:
//!
//! * write/read roundtrip at frame and page granularity;
//! * virgin frames error `Unallocated`, out-of-range errors are typed;
//! * a torn write (partial frame) surfaces as a checksum `Corrupt` on the
//!   next page read — never as silently wrong data;
//! * `snapshot` captures the durable state at an instant: later mutations
//!   of the origin never leak into it, it is the same backend as its
//!   origin, and its counters start at zero;
//! * `force` is counted and never loses completed writes;
//! * an attached fault injector drives identical outcomes on every
//!   backend, so a fault plan authored against `MemDisk` replays
//!   faithfully against a real file or the NVMe model;
//! * on the error paths, the bounds and torn-length checks consume no
//!   fault-plan operation, and only I/O the plan lets through is counted;
//! * the commit-point primitives hold: a `SlotPair` reads back its newest
//!   valid copy past a torn, lost, misplaced or rejected write, and a
//!   `CommitRecord` written through one reads back as the last acked
//!   record or the torn one whole, never anything between.
//! * a borrowed read (`read_page_retry_with`) and a copied one
//!   (`read_page_retry`, or `read_frame` + `Page::from_frame`) return the
//!   same outcomes and leave the same counts under one fault plan, and a
//!   flipped read never touches the stored frame.

use recovery_machines::storage::{
    BackendKind, CommitRecord, Disk, FaultInjector, FaultPlan, Lsn, NvmeConfig, Page, PageId,
    SlotPair, StorageError, FRAME_SIZE, PAYLOAD_SIZE,
};

const FRAMES: u64 = 16;

fn backends() -> Vec<BackendKind> {
    vec![
        BackendKind::Mem,
        BackendKind::file(),
        BackendKind::nvme(NvmeConfig::default()),
    ]
}

fn filled_page(id: u64, fill: u8) -> Page {
    let mut p = Page::new(PageId(id));
    // fill well past any tear point, so a merged old/new frame always
    // disagrees with the new header's checksum
    p.write_at(0, &[fill; 2048]);
    p
}

/// Run `case` once per backend, labelling failures with the backend name.
fn for_each_backend(case: impl Fn(&mut Disk, &str)) {
    for bk in backends() {
        let mut disk = bk.provision(FRAMES).expect("provision");
        assert_eq!(disk.kind(), bk.name());
        case(&mut disk, bk.name());
    }
}

#[test]
fn write_read_roundtrip() {
    for_each_backend(|disk, name| {
        // raw frames
        let mut frame = [0u8; FRAME_SIZE];
        for (i, b) in frame.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        disk.write_frame(3, &frame).expect("write");
        let back = disk.read_frame(3).expect("read");
        assert!(back[..] == frame[..], "{name}: raw frame roundtrip");

        // checksummed pages
        let p = filled_page(7, 0xA5);
        disk.write_page(7, &p).expect("write_page");
        assert_eq!(disk.read_page(7).expect("read_page"), p, "{name}");
        assert_eq!(disk.reads(), 2, "{name}: read count");
        assert_eq!(disk.writes(), 2, "{name}: write count");
    });
}

#[test]
fn virgin_and_out_of_range_frames_error_typed() {
    for_each_backend(|disk, name| {
        assert!(!disk.is_allocated(2), "{name}");
        assert!(
            matches!(
                disk.read_frame(2),
                Err(StorageError::Unallocated { addr: 2 })
            ),
            "{name}: virgin frame must read as Unallocated"
        );
        assert!(
            matches!(
                disk.read_frame(FRAMES),
                Err(StorageError::OutOfRange { addr, capacity })
                    if addr == FRAMES && capacity == FRAMES
            ),
            "{name}: out-of-range read"
        );
        let frame = [1u8; FRAME_SIZE];
        assert!(
            matches!(
                disk.write_frame(FRAMES + 5, &frame),
                Err(StorageError::OutOfRange { .. })
            ),
            "{name}: out-of-range write"
        );
    });
}

#[test]
fn torn_write_surfaces_as_checksum_corruption() {
    for_each_backend(|disk, name| {
        let p = filled_page(4, 0x3C);
        disk.write_page(4, &p).expect("full write");
        // tear a rewrite of the same frame: only the first 100 bytes of the
        // new image land, the old tail shows through
        let p2 = filled_page(4, 0xC3);
        disk.write_partial(4, &p2.to_frame(), 100).expect("tear");
        assert!(
            matches!(disk.read_page(4), Err(StorageError::Corrupt { addr: 4 })),
            "{name}: torn page must fail its checksum"
        );
        // a torn write still allocates (a crash mid-first-write leaves a
        // torn frame, not a virgin one)
        let q = filled_page(5, 0x11);
        disk.write_partial(5, &q.to_frame(), 64)
            .expect("tear virgin");
        assert!(disk.is_allocated(5), "{name}: torn frame is allocated");
    });
}

#[test]
fn snapshot_is_isolated_same_backend_with_fresh_counters() {
    for_each_backend(|disk, name| {
        let before = filled_page(2, 0xAA);
        disk.write_page(2, &before).expect("write");
        // give the origin a retry, so the snapshot's zero is its own
        disk.attach_faults(FaultInjector::handle(FaultPlan::new().transient_read(0, 1)));
        assert_eq!(disk.read_page_retry(2), Ok(before.clone()), "{name}");
        assert_eq!(disk.read_retries(), 1, "{name}: origin read retries");
        let snap = disk.snapshot();
        assert_eq!(snap.kind(), disk.kind(), "{name}: snapshot backend");
        assert_eq!(snap.capacity(), disk.capacity(), "{name}");
        assert_eq!(snap.reads(), 0, "{name}: snapshot read counter");
        assert_eq!(snap.writes(), 0, "{name}: snapshot write counter");
        assert_eq!(snap.forces(), 0, "{name}: snapshot force counter");
        assert_eq!(snap.read_retries(), 0, "{name}: snapshot read retries");
        assert_eq!(snap.write_retries(), 0, "{name}: snapshot write retries");

        // mutate the origin after the snapshot — and vice versa
        let mut snap = snap;
        disk.write_page(2, &filled_page(2, 0xBB)).expect("origin");
        snap.write_page(3, &filled_page(3, 0xCC)).expect("snap");
        assert_eq!(snap.read_page(2).expect("snap read"), before, "{name}");
        assert!(!disk.is_allocated(3), "{name}: snapshot write leaked back");
    });
}

#[test]
fn force_is_counted_and_loses_nothing() {
    for_each_backend(|disk, name| {
        let p = filled_page(1, 0x77);
        disk.write_page(1, &p).expect("write");
        disk.force().expect("force");
        disk.force().expect("force again");
        assert_eq!(disk.forces(), 2, "{name}: force count");
        assert_eq!(disk.read_page(1).expect("read"), p, "{name}");
        // forced state survives a crash snapshot
        assert_eq!(disk.snapshot().read_page(1).expect("snap"), p, "{name}");
    });
}

#[test]
fn fault_injector_drives_identical_outcomes_on_every_backend() {
    // One plan: lose write #1, tear write #2 at 80 bytes, flip a read bit
    // on read #2, then go permanently offline from write #3.
    let plan = || {
        FaultPlan::new()
            .lose_write(1)
            .tear_write(2, 80)
            .flip_on_read(2, 9, 3)
            .fail_from_write(3)
    };
    for_each_backend(|disk, name| {
        disk.attach_faults(FaultInjector::handle(plan()));
        let a = filled_page(0, 0x01);
        disk.write_page(0, &a).expect("write 0 applies");
        disk.write_page(1, &filled_page(1, 0x02))
            .expect("write 1 lost");
        disk.write_page(2, &filled_page(2, 0x03))
            .expect("write 2 torn");

        assert_eq!(disk.read_page(0).expect("read 0"), a, "{name}");
        assert!(
            matches!(disk.read_page(1), Err(StorageError::Unallocated { .. })),
            "{name}: lost write must leave the frame virgin"
        );
        // read #2 carries the bit flip — on the already-torn frame both
        // corruptions fold into the same typed error
        assert!(
            matches!(disk.read_page(2), Err(StorageError::Corrupt { .. })),
            "{name}: torn+flipped page must fail its checksum"
        );
        assert!(
            matches!(
                disk.write_page(3, &filled_page(3, 0x04)),
                Err(StorageError::Io { .. })
            ),
            "{name}: failed device must error its writes"
        );
        // detaching returns the device to clean operation
        assert!(disk.detach_faults().is_some(), "{name}");
        disk.write_page(3, &filled_page(3, 0x04))
            .expect("clean again");
    });
}

#[test]
fn filedisk_snapshot_copies_survive_origin_drop() {
    // File-specific: the snapshot owns an independent backing file, so it
    // must stay readable after the origin (and its file) are gone.
    let mut disk = BackendKind::file().provision(FRAMES).expect("provision");
    let p = filled_page(6, 0x5E);
    disk.write_page(6, &p).expect("write");
    disk.force().expect("force");
    let snap = disk.snapshot();
    drop(disk);
    assert_eq!(snap.read_page(6).expect("after drop"), p);
}

#[test]
fn fault_accounting_on_error_paths_is_identical_on_every_backend() {
    // write op 0 fails transiently, write op 1 is dropped, read op 0 fails
    // transiently; then, for the retrying read and the verified write:
    // read op 2 fails twice on its address, write op 3 is dropped, and
    // the device fails for good from write op 5
    let plan = FaultPlan::new()
        .transient_write(0, 1)
        .lose_write(1)
        .transient_read(0, 1)
        .transient_read(2, 2)
        .lose_write(3)
        .fail_from_write(5);
    for_each_backend(|disk, name| {
        let faults = FaultInjector::handle(plan.clone());
        disk.attach_faults(faults.clone());
        // (plan reads, plan writes, disk reads, disk writes)
        let counts = |disk: &Disk| {
            let f = faults.lock();
            (f.reads(), f.writes(), disk.reads(), disk.writes())
        };
        let frame = [7u8; FRAME_SIZE];

        // rejected before the injector: no plan op, no I/O
        assert!(
            matches!(
                disk.read_frame(FRAMES),
                Err(StorageError::OutOfRange { .. })
            ),
            "{name}: out-of-range read"
        );
        assert!(
            matches!(
                disk.write_frame(FRAMES, &frame),
                Err(StorageError::OutOfRange { .. })
            ),
            "{name}: out-of-range write"
        );
        assert_eq!(
            disk.write_partial(0, &frame, FRAME_SIZE + 1),
            Err(StorageError::BadLength {
                len: FRAME_SIZE + 1,
                max: FRAME_SIZE,
            }),
            "{name}: oversized partial write"
        );
        assert_eq!(counts(disk), (0, 0, 0, 0), "{name}: rejected calls");

        // a transient write consumes an op but counts no I/O and lands nothing
        assert_eq!(
            disk.write_frame(1, &frame),
            Err(StorageError::Io { addr: 1 }),
            "{name}: transient write"
        );
        assert_eq!(counts(disk), (0, 1, 0, 0), "{name}: transient write");
        assert!(!disk.is_allocated(1), "{name}: transient write landed");

        // a transient read consumes an op but counts no I/O
        assert_eq!(
            disk.read_frame(2).map(|_| ()),
            Err(StorageError::Io { addr: 2 }),
            "{name}: transient read"
        );
        assert_eq!(counts(disk), (1, 1, 0, 0), "{name}: transient read");

        // a virgin-frame read consumes an op and counts one read
        assert_eq!(
            disk.read_frame(2).map(|_| ()),
            Err(StorageError::Unallocated { addr: 2 }),
            "{name}: virgin read"
        );
        assert_eq!(counts(disk), (2, 1, 1, 0), "{name}: virgin read");

        // a lost write counts one write and leaves the frame virgin
        disk.write_frame(3, &frame)
            .expect("lost write reports success");
        assert_eq!(counts(disk), (2, 2, 1, 1), "{name}: lost write");
        assert!(!disk.is_allocated(3), "{name}: lost write landed");
        let retries = |disk: &Disk| (disk.read_retries(), disk.write_retries());
        assert_eq!(retries(disk), (0, 0), "{name}: single attempts never retry");

        // a read failing twice costs exactly two read retries
        let p4 = filled_page(4, 0x44);
        disk.write_page(4, &p4).expect("clean write");
        assert_eq!(disk.read_page_retry(4), Ok(p4), "{name}: retried read");
        assert_eq!(counts(disk), (5, 3, 2, 2), "{name}: retried read");
        assert_eq!(retries(disk), (2, 0), "{name}: retried read");

        // a lost write under the verified write: its read-back finds the
        // frame virgin, so one more round lands the page
        let p5 = filled_page(5, 0x55);
        disk.write_page_verified(5, &p5).expect("verified write");
        assert_eq!(counts(disk), (7, 5, 4, 4), "{name}: verified write");
        assert_eq!(retries(disk), (2, 1), "{name}: verified write");
        assert_eq!(disk.read_page(5), Ok(p5), "{name}: verified page landed");

        // a failed device exhausts the budget: four attempts, three
        // retries, and the last error
        assert_eq!(
            disk.write_page_verified(6, &filled_page(6, 0x66)),
            Err(StorageError::Io { addr: 6 }),
            "{name}: exhausted verified write"
        );
        assert_eq!(
            counts(disk),
            (8, 9, 5, 4),
            "{name}: exhausted verified write"
        );
        assert_eq!(retries(disk), (2, 4), "{name}: exhausted verified write");
    });
}

#[test]
fn verified_write_retries_flips_and_lost_writes_on_every_backend() {
    // the rounds a verified write makes before it gives up
    const ROUNDS: u64 = 4;
    for_each_backend(|disk, name| {
        let old = filled_page(4, 0x0D);
        let new = filled_page(4, 0xE0);
        let verify = |disk: &mut Disk, plan: FaultPlan| {
            disk.write_page(4, &old).expect("clean write");
            let faults = FaultInjector::handle(plan);
            disk.attach_faults(faults.clone());
            let retries = disk.write_retries();
            let got = disk.write_page_verified(4, &new);
            disk.detach_faults();
            let rounds = faults.lock().writes();
            (got, disk.write_retries() - retries, rounds)
        };

        // a bit flipped on the read-back, and a write that never landed,
        // each cost exactly one more round and then verify
        for (plan, what) in [
            (
                FaultPlan::new().flip_on_read(0, 100, 2),
                "flip on read-back",
            ),
            (FaultPlan::new().flip_on_read(0, 2, 7), "flip in the header"),
            (FaultPlan::new().lose_write(0), "lost write"),
        ] {
            let (got, retries, rounds) = verify(disk, plan);
            assert_eq!(got, Ok(()), "{name}: {what}");
            assert_eq!((retries, rounds), (1, 2), "{name}: {what}");
            assert_eq!(disk.read_page(4).expect("read"), new, "{name}: {what}");
        }

        // a write whose read-back never matches, and one that never
        // succeeds, each return their error after the last round
        let lost_every: FaultPlan = (0..ROUNDS).fold(FaultPlan::new(), |p, i| p.lose_write(i));
        for (plan, want, what) in [
            (
                lost_every,
                StorageError::Corrupt { addr: 4 },
                "lost every time",
            ),
            (
                FaultPlan::new().fail_from_write(0),
                StorageError::Io { addr: 4 },
                "failing device",
            ),
        ] {
            let (got, retries, rounds) = verify(disk, plan);
            assert_eq!(got, Err(want), "{name}: {what}");
            assert_eq!((retries, rounds), (ROUNDS - 1, ROUNDS), "{name}: {what}");
        }
        assert_eq!(
            disk.read_page(4).expect("read"),
            old,
            "{name}: nothing landed"
        );
    });
}

// ---------------------------------------------------------------------------
// The commit-point primitives: a `SlotPair` reads back its newest valid
// copy and a `CommitRecord` the last one an acked write made durable,
// whatever the backend and however the newest write was cut.
// ---------------------------------------------------------------------------

/// A page whose whole payload carries `tag`, so a write cut anywhere
/// short of the full frame differs from any other tag's copy.
fn tagged(tag: u8) -> Page {
    let mut p = Page::new(PageId(9));
    p.write_at(0, &[tag; PAYLOAD_SIZE]);
    p
}

fn tag_of(p: &Page) -> Option<u8> {
    Some(p.read_at(0, 1)[0])
}

/// `disk` after `write` ran on a copy under `plan` and the crash the plan
/// schedules: the write must fail, and the copy's durable state returns.
fn crashed_copy(disk: &Disk, plan: FaultPlan, write: impl FnOnce(&mut Disk) -> bool) -> Disk {
    let mut copy = disk.snapshot();
    copy.attach_faults(FaultInjector::handle(plan));
    assert!(!write(&mut copy), "the crash must fail the write");
    copy.snapshot()
}

#[test]
fn slot_pair_reads_the_newest_valid_copy_on_every_backend() {
    for_each_backend(|disk, name| {
        let pair = SlotPair::at(4);
        assert_eq!(pair.read(disk, tag_of), None, "{name}: two empty slots");
        for v in 5..=6 {
            pair.write(disk, v, tagged(v as u8)).expect("write");
        }
        assert_eq!(pair.read(disk, tag_of), Some((6, 6)), "{name}");
        let write_v7 = |d: &mut Disk| pair.write(d, 7, tagged(7)).is_ok();

        // a torn or lost write of version 7 leaves version 6
        for cut in [1, 20, 100, FRAME_SIZE - 1] {
            let plan = FaultPlan::new().tear_write(0, cut).crash_after_write(0);
            let torn = crashed_copy(disk, plan, write_v7);
            assert_eq!(pair.read(&torn, tag_of), Some((6, 6)), "{name}: cut {cut}");
        }
        let plan = FaultPlan::new().lose_write(0).crash_after_write(0);
        let lost = crashed_copy(disk, plan, write_v7);
        assert_eq!(pair.read(&lost, tag_of), Some((6, 6)), "{name}: lost write");

        // a valid page in the wrong-parity slot is ignored
        let mut stray = tagged(8);
        stray.lsn = Lsn(8);
        let mut wrong = disk.snapshot();
        wrong.write_page(pair.slot(7), &stray).expect("stray write");
        assert_eq!(pair.read(&wrong, tag_of), Some((6, 6)), "{name}: parity");

        // a newest copy decode rejects falls back to the older one
        pair.write(disk, 7, tagged(0xFF)).expect("write");
        let reject = |p: &Page| tag_of(p).filter(|&t| t != 0xFF);
        assert_eq!(pair.read(disk, reject), Some((6, 6)), "{name}: rejected");
        assert_eq!(pair.read(disk, tag_of), Some((7, 0xFF)), "{name}");
    });
}

#[test]
fn commit_record_recovers_every_acked_commit_on_every_backend() {
    let pair = SlotPair::at(2);
    let read = |d: &Disk| pair.read(d, |p| CommitRecord::decode(p, 0)).map(|(_, r)| r);
    let write = |d: &mut Disk, version: u64, r: &CommitRecord| {
        let mut page = Page::new(PageId(9));
        assert!(r.encode(&mut page, 0));
        pair.write(d, version, page).is_ok()
    };
    // ids commit out of order: every third one stays open past the next
    // two, so the records list it while it is open
    let mut order = Vec::new();
    for n in 1..=30u64 {
        if n % 3 != 0 {
            order.push(n);
        }
        if n % 3 == 2 && n > 2 {
            order.push(n - 2);
        }
    }
    for_each_backend(|disk, name| {
        assert_eq!(read(disk), None, "{name}: two empty slots");
        let mut acked = CommitRecord::default();
        let mut done = Vec::new();
        for (k, &id) in order.iter().enumerate() {
            let begun = order[..=k].iter().copied().max().expect("one id");
            let pending = (1..=begun).filter(|i| !done.contains(i));
            let next = acked.commit(id, pending);
            let version = k as u64 + 1;
            // a torn write of the record, with the first listed id and
            // past it, reads back as the acked record or the new one whole
            if k == 3 || k == 12 {
                for cut in [20, 100, 2000] {
                    let plan = FaultPlan::new().tear_write(0, cut).crash_after_write(0);
                    let torn = crashed_copy(disk, plan, |d| write(d, version, &next));
                    let back = read(&torn).unwrap_or_default();
                    assert!(
                        back == acked || back == next,
                        "{name}: commit {id}, cut {cut}: recovered {back:?}"
                    );
                }
            }
            assert!(write(disk, version, &next), "{name}: commit {id}");
            assert_eq!(read(disk).as_ref(), Some(&next), "{name}: commit {id}");
            done.push(id);
            acked = next;
        }
        assert!((1..=29).all(|id| acked.committed(id)), "{name}");
        assert!(!acked.committed(30) && acked.undecided.is_empty(), "{name}");
    });
}

/// The reads the parity test makes, in order: clean frames, a torn frame
/// (5), a virgin frame (6) and an out-of-range address, twice round.
const PARITY_READS: [u64; 18] = [
    0, 1, 2, 3, 4, 5, 6, FRAMES, 7, 0, 1, 2, 3, 4, 5, 6, FRAMES, 7,
];

/// A plan over [`PARITY_READS`] (operation indices count attempts):
/// transient read errors that retries ride out and ones that outlast the
/// budget, bit flips in the header, the payload and the tail word, a read
/// flipped on every attempt but the last, and one flipped on every attempt.
fn parity_plan() -> FaultPlan {
    FaultPlan::new()
        .transient_read(1, 2)
        .flip_on_read(4, 3, 0)
        .flip_on_read(6, 2000, 7)
        .flip_on_read(7, FRAME_SIZE - 1, 4)
        .transient_read(15, 9)
        .flip_on_read(22, 16, 1)
        .flip_on_read(23, 40, 2)
        .flip_on_read(24, 4000, 5)
        .flip_on_read(26, 9, 6)
        .flip_on_read(27, 24, 3)
        .flip_on_read(28, 100, 0)
        .flip_on_read(29, 4090, 1)
}

/// `disk` with frames 0..=7 but 6 written, frame 5 torn.
fn parity_image(disk: &mut Disk) {
    for addr in (0..8).filter(|&a| a != 6) {
        disk.write_page(addr, &filled_page(addr, addr as u8 + 1))
            .expect("write");
    }
    let mut torn = filled_page(5, 0xEE);
    torn.write_at(3000, &[0xEE; 64]);
    disk.write_partial(5, &torn.to_frame(), 512).expect("tear");
}

#[test]
fn borrowed_and_copied_reads_agree_under_faults_on_every_backend() {
    type Outcome = Result<Page, StorageError>;
    for_each_backend(|disk, name| {
        parity_image(disk);
        // each strategy reads a fresh copy of the image through the plan;
        // the reference retries read_frame + Page::from_frame itself, with
        // the device's budget of four attempts, and counts its own retries
        let run = |read: &dyn Fn(&Disk, u64, &mut u64) -> Outcome| {
            let mut copy = disk.snapshot();
            copy.attach_faults(FaultInjector::handle(parity_plan()));
            let mut own_retries = 0;
            let outcomes: Vec<Outcome> = PARITY_READS
                .iter()
                .map(|&addr| read(&copy, addr, &mut own_retries))
                .collect();
            (outcomes, copy.reads(), copy.read_retries() + own_retries)
        };
        let borrowed = run(&|d, addr, _| d.read_page_retry_with(addr, |v| v.to_page()));
        let owned = run(&|d, addr, _| d.read_page_retry(addr));
        let reference = run(&|d, addr, retries| {
            let mut attempt = 1;
            loop {
                match d.read_frame(addr).and_then(|f| Page::from_frame(&f, addr)) {
                    Err(StorageError::Io { .. } | StorageError::Corrupt { .. }) if attempt < 4 => {
                        attempt += 1;
                        *retries += 1;
                    }
                    other => return other,
                }
            }
        });
        assert_eq!(
            borrowed, reference,
            "{name}: borrowed vs frame + from_frame"
        );
        assert_eq!(
            owned, reference,
            "{name}: read_page_retry vs frame + from_frame"
        );

        // the plan exercised every outcome
        let (outcomes, reads, retries) = &reference;
        let clean = |addr: u64| Ok(filled_page(addr, addr as u8 + 1));
        assert_eq!(outcomes[0], clean(0), "{name}");
        assert_eq!(outcomes[1], clean(1), "{name}: transient read retried");
        assert_eq!(outcomes[2], clean(2), "{name}: header flip retried");
        assert_eq!(
            outcomes[3],
            clean(3),
            "{name}: payload and tail flips retried"
        );
        assert_eq!(
            outcomes[5],
            Err(StorageError::Corrupt { addr: 5 }),
            "{name}: torn"
        );
        assert_eq!(
            outcomes[6],
            Err(StorageError::Unallocated { addr: 6 }),
            "{name}"
        );
        assert!(
            matches!(outcomes[7], Err(StorageError::OutOfRange { .. })),
            "{name}: out of range"
        );
        assert_eq!(
            outcomes[8],
            Err(StorageError::Io { addr: 7 }),
            "{name}: budget spent"
        );
        assert_eq!(outcomes[12], clean(3), "{name}: clean on the last attempt");
        assert_eq!(
            outcomes[13],
            Err(StorageError::Corrupt { addr: 4 }),
            "{name}: all flipped"
        );
        assert_eq!(
            outcomes[17],
            Err(StorageError::Io { addr: 7 }),
            "{name}: still failing"
        );
        // 39 plan operations, 10 of them failed transfers; 9 reads retried
        assert_eq!((*reads, *retries), (29, 23), "{name}: counts");

        // single attempts agree too
        let mut a = disk.snapshot();
        let mut b = disk.snapshot();
        a.attach_faults(FaultInjector::handle(parity_plan()));
        b.attach_faults(FaultInjector::handle(parity_plan()));
        for addr in PARITY_READS {
            let framed = b.read_frame(addr).and_then(|f| Page::from_frame(&f, addr));
            assert_eq!(a.read_page(addr), framed, "{name}: read_page({addr})");
        }
        assert_eq!((a.reads(), a.read_retries()), (b.reads(), 0), "{name}");
    });
}

#[test]
fn a_flipped_read_leaves_the_stored_frame_intact_on_every_backend() {
    for_each_backend(|disk, name| {
        let p = filled_page(2, 0x5A);
        disk.write_page(2, &p).expect("write");
        let stored = disk.read_frame(2).expect("clean read");
        // read 0 flips a payload bit, read 1 a header bit under the retry
        let plan = FaultPlan::new()
            .flip_on_read(0, 1000, 1)
            .flip_on_read(1, 8, 0)
            .flip_on_read(3, 30, 5);
        disk.attach_faults(FaultInjector::handle(plan));
        let flipped = disk.read_frame(2).expect("flipped read");
        assert_ne!(
            flipped[1000], stored[1000],
            "{name}: the flip reached the copy"
        );
        assert!(
            disk.read_frame(2).expect("flipped read")[..] != stored[..],
            "{name}"
        );
        assert!(
            disk.read_frame(2).expect("clean read")[..] == stored[..],
            "{name}: the next clean read returns the original bytes"
        );
        // a flip under the borrowed read is retried, and the stored frame
        // still holds the page
        let got = disk.read_page_retry_with(2, |v| (v.id, v.lsn, v.payload().to_vec()));
        assert_eq!(got, Ok((p.id, p.lsn, p.payload().to_vec())), "{name}");
        assert_eq!(disk.read_retries(), 1, "{name}");
        assert!(
            disk.read_frame(2).expect("clean read")[..] == stored[..],
            "{name}: a flip under the borrowed read stayed on its copy"
        );
        assert_eq!(disk.read_page(2), Ok(p), "{name}");
    });
}
