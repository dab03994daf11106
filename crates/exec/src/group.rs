//! The group-commit daemon: one thread batching commit forces across the
//! log-processor bank.
//!
//! Workers submit [`CommitReq`]s over a bounded channel and park on a
//! [`CommitHandle`]. The daemon is timerless: it blocks for the first
//! request, takes whatever else is already queued, and commits at once —
//! a batch is the commits that queued while the previous batch forced,
//! so groups grow with load and an idle system never waits on a window.
//! For each batch it forces every stream holding any member's fragments
//! (one force per stream, not one per transaction), then — under the
//! commit gate — appends and forces each member's `Commit` record on its
//! home stream. Locks are released only after the commit record is
//! durable, preserving strict 2PL.
//!
//! The commit gate (`Inner::gate`) is the crash-image linchpin: because
//! every commit-record append + home force happens inside the gate, a
//! snapshot that acquires the gate sees either all of a group's commit
//! records durable or none mid-flight, and any commit record visible in
//! a log snapshot had its fragments forced strictly earlier — so the
//! recovered image can never contain a committed transaction with
//! missing fragments.
//!
//! ## Failure isolation
//!
//! A stream failing mid-batch fails only the members that needed it:
//! force errors are kept per stream and mapped back per member, so a
//! batch spanning four streams loses one stream's transactions, not all
//! of them. Failed members are rolled back **daemon-side** — the worker
//! handed over its write log with the [`CommitReq`] — before their
//! locks release, so strict 2PL holds even for commits that die in the
//! daemon. Each failure is also reported to the failover machinery,
//! which quarantines the stream so retries route around it.

use crate::db::Inner;
use crate::error::ExecError;
use crate::sync::lock_ok;
use rmdb_obs::{Counter, EventKind};
use rmdb_wal::capture::WriteLog;
use rmdb_wal::record::LogRecord;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A worker's commit submission.
pub(crate) struct CommitReq {
    /// Committing transaction.
    pub txn: u64,
    /// Home stream for the commit record.
    pub home: usize,
    /// The transaction's writes, surrendered at submit: their tickets are
    /// what the batch forces, and the daemon rolls them back if the
    /// commit fails mid-batch. Under command logging the pages stay
    /// pinned; the daemon unpins them only after the appended commit
    /// record's ticket is in their WAL-rule meta entries (success) or
    /// after rollback restored their before-images (failure) — either
    /// way, no un-logged dirty byte can reach the data disk through an
    /// eviction.
    pub log: WriteLog,
    /// Full images of every page this transaction wrote, captured at
    /// submit under its X locks. On success the daemon installs them in
    /// the MVCC version pool (before releasing locks), making the commit
    /// visible to lock-free snapshot readers; on failure they are simply
    /// dropped.
    pub images: Vec<Arc<rmdb_storage::Page>>,
    /// The commit record the daemon appends on the home stream: a plain
    /// `Commit`, or the transaction's `Logical` record under command
    /// logging — in which case the one record IS the commit record.
    pub commit_rec: LogRecord,
    /// When the worker submitted; `group.dwell_us` measures the oldest
    /// member's queue wait from here to batch close.
    pub submitted: Instant,
    /// Completion channel the worker parks on.
    pub reply: SyncSender<Result<(), ExecError>>,
}

/// Completion handle for a submitted commit.
pub struct CommitHandle {
    rx: std::sync::mpsc::Receiver<Result<(), ExecError>>,
    /// `txn.commits_acked`, bumped when the *waiter* observes success —
    /// the worker-side half of the `commits_acked ==
    /// group_commit_completions` conservation law. `None` on the
    /// read-only fast path, which never crosses the daemon.
    acked: Option<Counter>,
    /// Wait deadline ([`crate::ExecConfig::commit_timeout_ms`]).
    timeout: Duration,
}

impl CommitHandle {
    pub(crate) fn new(
        rx: std::sync::mpsc::Receiver<Result<(), ExecError>>,
        acked: Option<Counter>,
        timeout: Duration,
    ) -> Self {
        CommitHandle { rx, acked, timeout }
    }

    /// Block until the commit record is durable (or the commit failed).
    /// Gives up after the configured deadline with a typed
    /// [`ExecError::Timeout`] — a stuck daemon (or a stuck appender the
    /// daemon is waiting on) sheds the waiter instead of wedging it.
    pub fn wait(self) -> Result<(), ExecError> {
        let t0 = Instant::now();
        match self.rx.recv_timeout(self.timeout) {
            Ok(result) => {
                if result.is_ok() {
                    if let Some(acked) = &self.acked {
                        acked.inc();
                    }
                }
                result
            }
            Err(RecvTimeoutError::Timeout) => Err(ExecError::Timeout {
                what: "group commit",
                waited_ms: t0.elapsed().as_millis() as u64,
            }),
            Err(RecvTimeoutError::Disconnected) => Err(ExecError::Timeout {
                what: "group commit (daemon gone)",
                waited_ms: t0.elapsed().as_millis() as u64,
            }),
        }
    }
}

/// Daemon main loop (timerless, see module docs). Exits when every
/// commit sender is dropped.
pub(crate) fn run_daemon(inner: Arc<Inner>, rx: Receiver<CommitReq>, max_group: usize) {
    let obs = inner.obs.clone();
    let completions = obs.counter("group.completions");
    let batch_size = obs.histogram("group.batch_size");
    let queue_us = obs.histogram("group.dwell_us");
    let logical_records = obs.counter("wal.logical_records");
    let bytes_saved = obs.counter("wal.bytes_saved");
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        batch.extend(rx.try_iter().take(max_group - 1));
        // the commit-queue stage: the first member (the channel is FIFO,
        // so the oldest) waited from submit to batch close
        queue_us.record(batch[0].submitted.elapsed().as_micros() as u64);
        batch_size.record(batch.len() as u64);
        obs.emit(EventKind::GroupCommitBatch, 0, 0, 0, batch.len() as u64);
        let (results, appended) = commit_batch(&inner, &batch);
        inner.stats.group_commits.fetch_add(1, Ordering::Relaxed);
        inner
            .stats
            .commits_grouped
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        inner
            .stats
            .max_group_size
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        for ((req, result), appended) in batch.into_iter().zip(results).zip(appended) {
            match result {
                Ok(()) => {
                    // publish the commit's page versions to the MVCC pool
                    // *before* releasing locks: the X locks pin the
                    // captured images, and publish order under the single
                    // daemon thread is commit order
                    inner.mvcc.commit(&req.images);
                    if matches!(req.commit_rec, LogRecord::Logical { .. }) {
                        // log bytes command logging saved vs the fragments
                        let rec = req.commit_rec.encoded_len();
                        logical_records.inc();
                        bytes_saved.add(req.log.fragment_bytes().saturating_sub(rec) as u64);
                    }
                    // deferred pins drop only now: the durable logical
                    // record is in the pages' WAL-rule meta entries (set
                    // at append time), so eviction forces through it
                    inner.unpin_pages(req.log.pinned());
                    // strict 2PL: release only once the outcome is decided
                    inner.release_locks(req.txn);
                    inner.stats.committed.fetch_add(1, Ordering::Relaxed);
                    completions.inc();
                    let _ = req.reply.send(Ok(()));
                }
                Err(e) => {
                    // roll the member back before its locks release, so
                    // no other transaction ever reads its dirty writes
                    inner.undo_and_release(req.txn, req.home, req.log, appended);
                    let _ = req.reply.send(Err(e));
                }
            }
        }
    }
}

/// Force fragments for the whole batch, then gate + append + force the
/// commit records. Returns one result per batch member, in order, and
/// whether its commit record was appended; a stream failure condemns only
/// the members that needed that stream.
fn commit_batch(inner: &Inner, batch: &[CommitReq]) -> (Vec<Result<(), ExecError>>, Vec<bool>) {
    // Phase 1: one fragment force per distinct stream across the group.
    // Fragments on a transaction's own home stream are skipped: its
    // commit record is appended to that stream *after* them, so the home
    // force in phase 2 covers them for free (stream-local append order) —
    // the durable-commit ⇒ durable-fragments invariant still holds.
    let tickets: Vec<BTreeMap<usize, u64>> = batch.iter().map(|r| r.log.high_water()).collect();
    let mut frag_high: BTreeMap<usize, u64> = BTreeMap::new();
    for (req, tickets) in batch.iter().zip(&tickets) {
        for (&stream, &seq) in tickets {
            if stream == req.home {
                continue;
            }
            let high = frag_high.entry(stream).or_insert(0);
            *high = (*high).max(seq);
        }
    }
    let stream_res = force_streams(inner, &frag_high);
    let mut results: Vec<Result<(), ExecError>> = batch
        .iter()
        .zip(&tickets)
        .map(|(req, tickets)| {
            for &stream in tickets.keys() {
                if stream == req.home {
                    continue;
                }
                if let Some(Err(e)) = stream_res.get(&stream) {
                    return Err(e.clone());
                }
            }
            Ok(())
        })
        .collect();

    // Phase 2: commit records, under the gate (see module docs).
    let _gate = lock_ok(&inner.gate);
    let mut appended: Vec<bool> = vec![false; batch.len()];
    let mut home_high: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, req) in batch.iter().enumerate() {
        if results[i].is_err() {
            continue;
        }
        match inner.appenders.get(req.home).append(req.commit_rec.clone()) {
            Ok(seq) => {
                appended[i] = true;
                // a command-logged member's deferred pages now answer to
                // this record: re-pin their WAL-rule meta before any
                // unpin can expose them to the evicting flusher
                inner.cover_pages(req.log.pinned(), req.home, seq);
                let high = home_high.entry(req.home).or_insert(0);
                *high = (*high).max(seq);
            }
            Err(e) => {
                inner.note_appender_failure(&e);
                results[i] = Err(e);
            }
        }
    }
    let force_res = force_streams(inner, &home_high);
    for (i, req) in batch.iter().enumerate() {
        if results[i].is_ok() && appended[i] {
            if let Some(Err(e)) = force_res.get(&req.home) {
                results[i] = Err(e.clone());
            }
        }
    }
    (results, appended)
}

/// Force every stream in `high` up to its ticket: request all forces
/// first so the appenders work in parallel, then wait for each. The
/// result is kept per stream, so one dead stream fails only its own
/// dependents.
fn force_streams(
    inner: &Inner,
    high: &BTreeMap<usize, u64>,
) -> BTreeMap<usize, Result<(), ExecError>> {
    let mut res = BTreeMap::new();
    for (&stream, &seq) in high {
        let r = inner.appenders.get(stream).request_force(seq);
        if let Err(e) = &r {
            inner.note_appender_failure(e);
        }
        res.insert(stream, r);
    }
    for (&stream, &seq) in high {
        if res[&stream].is_ok() {
            if let Err(e) = inner.appenders.get(stream).wait_forced(seq) {
                inner.note_appender_failure(&e);
                res.insert(stream, Err(e));
            }
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use crate::{AppenderError, ExecConfig, ExecDb, ExecError};
    use rmdb_storage::FaultPlan;
    use rmdb_wal::db::WalConfig;
    use rmdb_wal::{SelectionPolicy, WalDb};
    use std::time::{Duration, Instant};

    #[test]
    fn groups_form_without_a_timer() {
        // a 2 ms modeled force: with no dwell window, the commits that
        // queue while one batch forces must share the next force
        let db = ExecDb::new(ExecConfig {
            wal: WalConfig {
                data_pages: 64,
                log_streams: 2,
                seed: 16,
                ..WalConfig::default()
            },
            force_delay_us: 2_000,
            ..ExecConfig::default()
        });
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..25u64 {
                        db.run_txn(w as usize, |ctx| ctx.write(w, 0, &i.to_le_bytes()))
                            .expect("commit");
                    }
                });
            }
        });
        let stats = db.stats();
        assert_eq!(stats.committed, 100);
        assert_eq!(
            (stats.aborted, stats.starved, stats.conflict_retries),
            (0, 0, 0)
        );
        let per_group = stats.commits_grouped as f64 / stats.group_commits as f64;
        assert!(per_group > 1.5, "{per_group:.2} commits per group");
        let snap = db.metrics();
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        assert_eq!(c("txn.commits_acked"), c("group.completions"));
        assert_eq!(c("txn.commits_acked"), 100);
    }

    #[test]
    fn a_failing_stream_fails_only_the_batch_members_that_needed_it() {
        // QpMod: a transaction's home (and fragment) stream is its qp
        let cfg = ExecConfig {
            wal: WalConfig {
                data_pages: 64,
                log_streams: 3,
                policy: SelectionPolicy::QpMod,
                ..WalConfig::default()
            },
            // C0's force: the window in which A and B queue as one batch
            force_delay_us: 500_000,
            ..ExecConfig::default()
        };
        let db = ExecDb::new(cfg.clone());
        // (batches, largest batch) so far
        let batches = || {
            let snap = db.metrics();
            snap.histogram("group.batch_size")
                .map_or((0, 0), |h| (h.count, h.max))
        };
        // warm-up C0 on stream 2: wait until the daemon has taken it alone
        // into a batch, so it is forcing while A and B queue
        let mut c0 = db.begin(2);
        db.write(&mut c0, 2, 0, b"C0").unwrap();
        let c0 = db.commit(c0).unwrap();
        let t0 = Instant::now();
        while batches().0 == 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "C0 never batched");
            std::thread::yield_now();
        }
        // A logs on stream 0, whose device then fails for good; B logs
        // on the healthy stream 1 only
        let mut a = db.begin(0);
        db.write(&mut a, 10, 0, b"AAAA").unwrap();
        let mut b = db.begin(1);
        db.write(&mut b, 11, 0, b"BBBB").unwrap();
        db.inject_stream_fault(0, FaultPlan::new().fail_from_write(0))
            .unwrap();
        let (a, b) = (db.commit(a).unwrap(), db.commit(b).unwrap());
        c0.wait().unwrap();
        // the force error, or the quarantine the supervisor raised on it
        // first, whichever reaches the daemon's wait
        match a.wait() {
            Err(ExecError::Appender {
                stream: 0,
                error: AppenderError::Persistent(_) | AppenderError::Quarantined,
            }) => {}
            other => panic!("A must fail with stream 0's error, got {other:?}"),
        }
        b.wait().expect("B needed only the healthy stream");
        assert_eq!(batches(), (2, 2), "A and B shared one batch");
        // A was rolled back before its locks released; B is visible
        let ro = |page| db.run_ro_txn(0, |ctx| ctx.read(page, 0, 4)).unwrap();
        assert_eq!(ro(10), vec![0; 4]);
        assert_eq!(ro(11), b"BBBB");
        let (mut recovered, _) = WalDb::recover(db.crash_image().unwrap(), cfg.wal).unwrap();
        let t = recovered.begin();
        assert_eq!(recovered.read(t, 10, 0, 4).unwrap(), vec![0; 4]);
        assert_eq!(recovered.read(t, 11, 0, 4).unwrap(), b"BBBB");
        assert_eq!(recovered.read(t, 2, 0, 2).unwrap(), b"C0");
    }
}
