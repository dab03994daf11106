//! The structured-event half of the observability crate: a bounded,
//! lock-free, multi-writer ring of sequence-numbered events.
//!
//! Design: a seqlock per slot. Each slot carries a `stamp: AtomicU64`
//! alongside the event fields. A writer takes a global ticket `t`
//! (`fetch_add`, so tickets are unique and dense), maps it to slot
//! `t % capacity`, and publishes in three steps:
//!
//! 1. CAS the slot stamp from its current value to the *odd* value
//!    `2t - 1` (with `t` one-based this is always > any stamp a
//!    previous occupant left) — but **only if the current stamp is
//!    even**. An even stamp means the slot is stable, so the claim
//!    takes exclusive ownership. An odd stamp means another writer is
//!    mid-publish in this slot; claiming it would let two writers
//!    interleave field stores and publish a torn event, so the
//!    newcomer drops its event instead (counted in `dropped`). A
//!    stamp ≥ our claim means a later-lap writer already owns the
//!    slot — we are lapped and likewise drop (the ring keeps the
//!    newest events a flight recorder can publish without blocking).
//! 2. Write the event fields with `Relaxed` stores.
//! 3. Publish by CASing the stamp from `2t - 1` to the even `2t`
//!    (`Release`). Because step 1 never claims an odd stamp, no other
//!    writer can have touched the slot while we held it, so this CAS
//!    cannot fail; it is a CAS rather than a blind store purely as a
//!    guard — a failure (protocol bug) counts the event as dropped
//!    instead of publishing a potentially torn slot.
//!
//! A reader snapshots a slot with the mirror-image protocol: load the
//! stamp (`Acquire`), read the fields (`Relaxed`), `fence(Acquire)`,
//! re-load the stamp (`Relaxed`), and accepts the event only if both
//! loads saw the same *even* value. The stamp encodes the sequence
//! number (`seq = stamp / 2 - 1`), so an accepted event is untorn and
//! its sequence is unique by construction — ticket `t` maps to exactly
//! one slot and exactly one stamp value.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

/// What happened. `repr(u16)` so events pack into fixed-size slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// A transaction's commit record became durable (payload: e2e µs).
    TxnCommit = 1,
    /// A transaction hit a lock conflict and will retry after backing
    /// off (page field: contested page, payload: cause code — 1
    /// conversion deadlock, 2 other waits-for cycle, 3 deadlock victim,
    /// 4 lock-wait timeout).
    TxnConflictRetry = 2,
    /// A transaction aborted (payload: attempts used).
    TxnAbort = 3,
    /// A transaction exhausted its retry budget (payload: attempts).
    TxnStarved = 4,
    /// A log stream forced its tail to disk (payload: force latency µs).
    StreamForce = 5,
    /// The group-commit daemon flushed a batch (payload: batch size).
    GroupCommitBatch = 6,
    /// The buffer pool evicted a page (page id set).
    PoolEviction = 7,
    /// A recovery/restart phase finished (stream field: phase ordinal,
    /// payload: wall-clock µs).
    RecoveryPhase = 8,
    /// A checkpoint or crash image was taken (payload: pages captured).
    Checkpoint = 9,
    /// The supervisor began handling a suspected appender failure
    /// (stream field: stream ordinal, payload: failure-class ordinal).
    FailoverStarted = 10,
    /// A log stream was quarantined — no new fragments will be routed
    /// to it (stream field: stream ordinal, payload: surviving streams).
    StreamQuarantined = 11,
    /// An in-flight fragment was rerouted from a quarantined stream to
    /// a survivor (stream field: new stream, payload: old stream).
    FragmentRerouted = 12,
    /// A quarantined log stream was readmitted to the fleet after its
    /// device recovered and its durable prefix revalidated (stream field:
    /// stream ordinal, payload: live streams after the rejoin).
    StreamRejoined = 13,
    // Codes 14 and 17 are retired: they decode as `Unknown` and are
    // never reused, so traces recorded with them still read consistently.
    /// A read-only transaction opened an MVCC snapshot (txn field: txn
    /// id, stream field: home queue processor, payload: snapshot LSN).
    SnapshotOpened = 15,
    /// The MVCC garbage collector reclaimed dead page versions below the
    /// snapshot watermark (payload: versions reclaimed).
    VersionsPruned = 16,
    /// The LSM tier began a flush or compaction (stream field: target
    /// level, page field: input runs, payload: input frames).
    CompactionStarted = 18,
    /// The LSM flush/compaction published its manifest and retired its
    /// inputs (stream field: target level, page field: output frames,
    /// payload: wall-clock µs).
    CompactionFinished = 19,
    /// The LSM flush/compaction aborted — device fault or injected crash
    /// mid-merge; the orphaned output is GC'd by recovery (stream field:
    /// target level, payload: frames written before the abort).
    CompactionAborted = 20,
    /// Catch-all for unrecognised kinds decoded from raw slots.
    Unknown = 0,
}

impl EventKind {
    /// Decode from the raw slot representation.
    pub fn from_u16(v: u16) -> EventKind {
        match v {
            1 => EventKind::TxnCommit,
            2 => EventKind::TxnConflictRetry,
            3 => EventKind::TxnAbort,
            4 => EventKind::TxnStarved,
            5 => EventKind::StreamForce,
            6 => EventKind::GroupCommitBatch,
            7 => EventKind::PoolEviction,
            8 => EventKind::RecoveryPhase,
            9 => EventKind::Checkpoint,
            10 => EventKind::FailoverStarted,
            11 => EventKind::StreamQuarantined,
            12 => EventKind::FragmentRerouted,
            13 => EventKind::StreamRejoined,
            15 => EventKind::SnapshotOpened,
            16 => EventKind::VersionsPruned,
            18 => EventKind::CompactionStarted,
            19 => EventKind::CompactionFinished,
            20 => EventKind::CompactionAborted,
            _ => EventKind::Unknown,
        }
    }

    /// Stable lowercase name for exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TxnCommit => "txn_commit",
            EventKind::TxnConflictRetry => "txn_conflict_retry",
            EventKind::TxnAbort => "txn_abort",
            EventKind::TxnStarved => "txn_starved",
            EventKind::StreamForce => "stream_force",
            EventKind::GroupCommitBatch => "group_commit_batch",
            EventKind::PoolEviction => "pool_eviction",
            EventKind::RecoveryPhase => "recovery_phase",
            EventKind::Checkpoint => "checkpoint",
            EventKind::FailoverStarted => "failover_started",
            EventKind::StreamQuarantined => "stream_quarantined",
            EventKind::FragmentRerouted => "fragment_rerouted",
            EventKind::StreamRejoined => "stream_rejoined",
            EventKind::SnapshotOpened => "snapshot_opened",
            EventKind::VersionsPruned => "versions_pruned",
            EventKind::CompactionStarted => "compaction_started",
            EventKind::CompactionFinished => "compaction_finished",
            EventKind::CompactionAborted => "compaction_aborted",
            EventKind::Unknown => "unknown",
        }
    }
}

/// One recorded event, as returned by [`EventRing::snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Ring-wide sequence number (dense tickets; gaps in a snapshot mean
    /// older events were overwritten, never that a seq was issued twice).
    pub seq: u64,
    /// Microseconds since the ring was created.
    pub ts_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// Transaction id, or 0.
    pub txn: u64,
    /// Stream / shard / phase ordinal, or 0.
    pub stream: u64,
    /// Page id, or 0.
    pub page: u64,
    /// Kind-specific payload (latency µs, batch size, attempts, …).
    pub payload: u64,
}

/// One ring slot: a seqlock stamp plus the event fields.
#[derive(Debug)]
struct Slot {
    /// 0 = empty; odd `2t-1` = writer `t` mid-publish; even `2t` =
    /// event with ticket `t` fully published.
    stamp: AtomicU64,
    ts_us: AtomicU64,
    kind: AtomicU64,
    txn: AtomicU64,
    stream: AtomicU64,
    page: AtomicU64,
    payload: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            ts_us: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            txn: AtomicU64::new(0),
            stream: AtomicU64::new(0),
            page: AtomicU64::new(0),
            payload: AtomicU64::new(0),
        }
    }
}

/// A bounded, lock-free, multi-writer structured-event ring.
///
/// Writers never block; when the ring is full they overwrite the oldest
/// slot, and a writer that gets lapped mid-claim drops its event rather
/// than stall. See the module docs for the memory-ordering protocol.
#[derive(Debug)]
pub struct EventRing {
    slots: Box<[Slot]>,
    /// Next ticket, one-based; `fetch_add` makes tickets unique.
    next: AtomicU64,
    /// Events dropped because the writer was lapped mid-claim or found
    /// its slot held by a mid-publish writer.
    dropped: AtomicU64,
    epoch: Instant,
}

impl EventRing {
    /// A ring holding the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            next: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Tickets issued so far (= events emitted, including dropped ones).
    pub fn emitted(&self) -> u64 {
        self.next.load(Ordering::Relaxed) - 1
    }

    /// Events abandoned because the writer was lapped mid-claim or its
    /// slot was held by another writer mid-publish. Always
    /// `emitted() == published + dropped()`.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Record an event; returns its sequence number (0-based). Never
    /// blocks; may silently overwrite the oldest event.
    pub fn emit(&self, kind: EventKind, txn: u64, stream: u64, page: u64, payload: u64) -> u64 {
        let ts_us = self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize - 1) % self.slots.len()];
        let claim = 2 * ticket - 1;
        // Claim: flip the slot from a *stable* (even) stamp to our odd
        // stamp. Drop if a later-lap writer beat us to it (their stamp
        // is ≥ ours — we are lapped) or if the slot is odd (another
        // writer is mid-publish; stealing it would tear their event).
        let mut cur = slot.stamp.load(Ordering::Relaxed);
        loop {
            if cur >= claim || cur % 2 == 1 {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return ticket - 1;
            }
            match slot
                .stamp
                .compare_exchange_weak(cur, claim, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        slot.ts_us.store(ts_us, Ordering::Relaxed);
        slot.kind.store(kind as u16 as u64, Ordering::Relaxed);
        slot.txn.store(txn, Ordering::Relaxed);
        slot.stream.store(stream, Ordering::Relaxed);
        slot.page.store(page, Ordering::Relaxed);
        slot.payload.store(payload, Ordering::Relaxed);
        // Cannot fail (only we hold the odd stamp); guards the torn-event
        // invariant if the protocol is ever broken — see module docs.
        if slot
            .stamp
            .compare_exchange(claim, 2 * ticket, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ticket - 1
    }

    /// Snapshot the ring's stable events, oldest first. Slots mid-write
    /// at snapshot time are skipped (never returned torn); sequence
    /// numbers in the result are strictly increasing.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out: Vec<Event> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.stamp.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // empty or mid-publish
            }
            let ts_us = slot.ts_us.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let txn = slot.txn.load(Ordering::Relaxed);
            let stream = slot.stream.load(Ordering::Relaxed);
            let page = slot.page.load(Ordering::Relaxed);
            let payload = slot.payload.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let s2 = slot.stamp.load(Ordering::Relaxed);
            if s1 != s2 {
                continue; // overwritten while reading — torn, skip
            }
            out.push(Event {
                seq: s1 / 2 - 1,
                ts_us,
                kind: EventKind::from_u16(kind as u16),
                txn,
                stream,
                page,
                payload,
            });
        }
        out.sort_by_key(|e| e.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn emit_then_snapshot_roundtrips_fields() {
        let ring = EventRing::new(8);
        let seq = ring.emit(EventKind::StreamForce, 1, 2, 3, 450);
        assert_eq!(seq, 0);
        let events = ring.snapshot();
        assert_eq!(events.len(), 1);
        let e = events[0];
        assert_eq!(e.seq, 0);
        assert_eq!(e.kind, EventKind::StreamForce);
        assert_eq!((e.txn, e.stream, e.page, e.payload), (1, 2, 3, 450));
    }

    #[test]
    fn ring_keeps_the_newest_events_when_full() {
        let ring = EventRing::new(4);
        for i in 0..10u64 {
            ring.emit(EventKind::TxnCommit, i, 0, 0, 0);
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(ring.emitted(), 10);
    }

    #[test]
    fn snapshot_seqs_strictly_increase_under_contention() {
        let ring = Arc::new(EventRing::new(64));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        ring.emit(EventKind::TxnCommit, w, i, 0, 0);
                    }
                })
            })
            .collect();
        // snapshot concurrently with the writers
        for _ in 0..200 {
            let events = ring.snapshot();
            for pair in events.windows(2) {
                assert!(pair[0].seq < pair[1].seq, "duplicate or unsorted seq");
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(ring.emitted(), 8_000);
        assert_eq!(ring.snapshot().len(), 64);
    }

    #[test]
    fn kind_codes_roundtrip() {
        for kind in [
            EventKind::TxnCommit,
            EventKind::TxnConflictRetry,
            EventKind::TxnAbort,
            EventKind::TxnStarved,
            EventKind::StreamForce,
            EventKind::GroupCommitBatch,
            EventKind::PoolEviction,
            EventKind::RecoveryPhase,
            EventKind::Checkpoint,
            EventKind::FailoverStarted,
            EventKind::StreamQuarantined,
            EventKind::FragmentRerouted,
            EventKind::StreamRejoined,
            EventKind::SnapshotOpened,
            EventKind::VersionsPruned,
        ] {
            assert_eq!(EventKind::from_u16(kind as u16), kind);
            assert!(!kind.name().is_empty());
        }
        assert_eq!(EventKind::from_u16(14), EventKind::Unknown, "14 is retired");
        assert_eq!(EventKind::from_u16(17), EventKind::Unknown, "17 is retired");
        assert_eq!(EventKind::from_u16(999), EventKind::Unknown);
    }

    #[test]
    fn timestamps_are_monotone_per_writer() {
        let ring = EventRing::new(16);
        ring.emit(EventKind::Checkpoint, 0, 0, 0, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        ring.emit(EventKind::Checkpoint, 0, 0, 0, 0);
        let events = ring.snapshot();
        assert!(events[0].ts_us <= events[1].ts_us);
    }
}
