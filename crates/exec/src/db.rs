//! [`ExecDb`] — the concurrent transaction pipeline.
//!
//! This is the paper's machine organisation with the roles mapped onto
//! real threads instead of a simulated event loop:
//!
//! * **query processors** — the caller's worker threads, each running
//!   transactions against `&ExecDb`;
//! * **log processors** — one [`LogAppender`] thread per log stream,
//!   draining a bounded fragment channel into 4 KB log pages;
//! * **back-end controller scheduler** — a [`Scheduler`] behind its own
//!   mutex, with waiting workers parked on per-transaction condvar slots;
//! * **back-end controller commit path** — the group-commit daemon
//!   ([`crate::group`]), batching commit forces across streams — a batch
//!   is whatever queued while the previous one forced, with no timer;
//! * **supervisor** — a health-check thread ([`crate::supervisor`])
//!   probing each log processor and quarantining failed ones.
//!
//! Instead of one engine-wide mutex around a `WalDb`, the engine uses
//! fine-grained locks: the scheduler mutex (lock table only), a
//! sharded buffer pool (page content + per-page log tickets, one mutex
//! per shard), one data-disk mutex (flush serialisation), and one tiny
//! sender mutex per log stream (ticket issue). No lock is held across a
//! blocking wait on another worker; waits on the appender threads are
//! safe because appenders never take engine locks.
//!
//! ## Commit-ordering invariant
//!
//! A transaction's `Commit` record is appended to its home stream only
//! after every stream holding one of its fragments has confirmed a force
//! covering that fragment's ticket. Together with the crash-image
//! protocol (commit gate + data-before-logs snapshot order, see
//! [`ExecDb::crash_image`]), this guarantees any crash image containing
//! a durable `Commit{t}` also contains every fragment of `t` — so
//! [`rmdb_wal::WalDb::recover`] replays exactly the committed state.
//!
//! ## Failover
//!
//! A log stream whose device fails persistently (or whose thread dies or
//! wedges) is **quarantined**: the [`Selector`] stops routing new
//! transactions to it, and in-flight transactions **reroute** the
//! volatile tail of their fragments — everything above the dead stream's
//! durable high-water ticket — to a surviving stream, re-pinning each
//! affected page's WAL-rule entry as they go
//! ([`Inner::reroute_if_needed`]). The durable prefix stays where it is:
//! recovery scans the quarantined stream's disk like any other and
//! deduplicates rerouted fragments by their globally unique LSN.
//! Commits acked before the failure therefore survive it. When fewer
//! than [`ExecConfig::min_live_streams`] streams survive, the pipeline
//! degrades: [`ExecDb::run_txn`] sheds load with a typed
//! [`ExecError::Degraded`] instead of queueing work that cannot commit.
//!
//! ## Membership churn
//!
//! Quarantine is no longer a one-way door. [`ExecDb::rejoin_stream`]
//! readmits a recovered device: the dead incarnation's thread is
//! retired, the vaulted device probed through its fault injector, the
//! durable prefix revalidated by reopening the stream (torn-tail cut +
//! epoch bump), and a fresh appender spawned that *inherits the ticket
//! space* — the durable prefix stays forced, while tickets issued but
//! never forced by the dead incarnation become an **orphan range** that
//! can never read as durable again ([`LogAppender::orphaned`]). Owners
//! of orphaned fragments re-append them under new tickets via the same
//! reroute path used for dead streams; recovery deduplicates any copies
//! by LSN exactly as it does for rerouted fragments. A device that will
//! never return is swapped out by [`ExecDb::replace_stream`], which
//! archives the old platter for recovery and spawns the successor on a
//! blank one. A stream has exactly two membership states: *live*
//! (routed) or *quarantined* (selector-dead) — a stream out of routing
//! is always a quarantined one, and only rejoin or replace brings it
//! back. Every membership change recomputes degraded mode from the live
//! count — the latch clears when the fleet recovers.

use crate::appender::{LogAppender, TicketInheritance};
use crate::error::{AppenderError, ExecError};
use crate::group::{run_daemon, CommitHandle, CommitReq};
use crate::sync::lock_ok;
use rmdb_mvcc::{Mvcc, Snapshot};
use rmdb_obs::{Counter, EventKind, Histogram, MetricsSnapshot, Registry};
use rmdb_storage::Lsn;
use rmdb_storage::{
    Disk, FaultHandle, FaultInjector, FaultPlan, Page, PageId, PoolShard, ShardGuard, ShardedPool,
    StorageError,
};
use rmdb_wal::capture::{self, Deferred, Doublewrite, UndoEntry};
use rmdb_wal::db::{LoggingPolicy, WalConfig};
use rmdb_wal::lock::LockMode;
use rmdb_wal::record::LogRecord;
use rmdb_wal::scheduler::{Decision, Scheduler, WaitStats};
use rmdb_wal::select::Selector;
use rmdb_wal::stream::LogStream;
use rmdb_wal::{Backoff, CrashImage, WalError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A pool shard's WAL-rule table: page → `(stream, ticket)` of its latest
/// fragment.
type PageMeta = HashMap<PageId, (usize, u64)>;

/// Retries before a transaction is declared starved.
const MAX_RETRIES: usize = 1000;
/// Safety valve on lock waits; healthy runs never hit it.
const LOCK_WAIT_TIMEOUT: Duration = Duration::from_secs(10);
/// Bounded fragment-channel depth per log appender (backpressure).
const APPENDER_QUEUE: usize = 1024;
/// Bounded commit-channel depth (backpressure on committers).
const COMMIT_QUEUE: usize = 1024;
/// Max transactions the daemon folds into one group commit.
const MAX_GROUP: usize = 64;

/// Pipeline configuration: the WAL knobs plus the concurrency shape.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Underlying WAL layout (data pages, streams, log mode, seed, …).
    /// `ckpt_every_commits` is ignored — the pipeline does not
    /// checkpoint; recovery scans the distributed logs from the start.
    pub wal: WalConfig,
    /// Buffer-pool shards (page → shard by multiplicative hash).
    pub pool_shards: usize,
    /// Modeled log-device service time per force, in microseconds. The
    /// paper's log disks are rotational — a force is never free; this is
    /// what makes sharing forces (group commit) worth anything. Zero
    /// (the default) models an ideal device, which unit tests want.
    pub force_delay_us: u64,
    /// Minimum surviving log streams below which the pipeline degrades:
    /// `run_txn` sheds load with [`ExecError::Degraded`] instead of
    /// committing against a fleet too small to be safe. Default 1 — run
    /// as long as any stream lives.
    pub min_live_streams: usize,
    /// Supervisor probe interval, microseconds.
    pub health_interval_us: u64,
    /// Supervisor verdict deadline: an appender whose heartbeat has not
    /// advanced for this long while it has work pending is declared
    /// stalled and quarantined.
    pub force_deadline_ms: u64,
    /// [`CommitHandle::wait`] deadline before it gives up with a typed
    /// [`ExecError::Timeout`].
    pub commit_timeout_ms: u64,
    /// Producer-side wait deadline per appender interaction (force
    /// waits, snapshot replies).
    pub append_wait_ms: u64,
    /// Membership-manager probe period for quarantined streams, in
    /// milliseconds. When non-zero the supervisor periodically attempts
    /// [`ExecDb::rejoin_stream`] on every quarantined stream; a device
    /// whose fault has cleared (or was cleared by an operator) rejoins
    /// automatically, one that is still broken fails the probe and
    /// stays quarantined until the next period. Zero (the default)
    /// disables auto-rejoin — failed streams stay out until readmitted
    /// explicitly.
    pub rejoin_probe_ms: u64,
    /// Observability registry the pipeline publishes into. Cloneable and
    /// Arc-backed, so a bench can hand several databases the same
    /// registry and read cumulative metrics across all of them. Defaults
    /// to a fresh private registry.
    pub obs: Registry,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            wal: WalConfig::default(),
            pool_shards: 8,
            force_delay_us: 0,
            min_live_streams: 1,
            health_interval_us: 1_000,
            force_deadline_ms: 1_000,
            commit_timeout_ms: 30_000,
            append_wait_ms: 30_000,
            rejoin_probe_ms: 0,
            obs: Registry::new(),
        }
    }
}

/// Counter snapshot (all monotonic since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Transactions durably committed (incl. read-only fast path).
    pub committed: u64,
    /// Transactions aborted (voluntary, victim, or failed commit).
    pub aborted: u64,
    /// `run_txn` attempts (first tries + retries).
    pub attempts: u64,
    /// Retries caused by lock conflicts / deadlock victimisation.
    pub conflict_retries: u64,
    /// Transactions that exhausted their retry budget.
    pub starved: u64,
    /// Fragment forces triggered by dirty-page eviction (WAL rule).
    pub wal_forces: u64,
    /// Group-commit batches flushed by the daemon.
    pub group_commits: u64,
    /// Transactions that went through the daemon (batch members).
    pub commits_grouped: u64,
    /// Largest batch the daemon flushed.
    pub max_group_size: u64,
    /// Waiters cancelled as deadlock victims.
    pub deadlock_victims: u64,
}

#[derive(Default)]
pub(crate) struct Stats {
    pub committed: AtomicU64,
    pub aborted: AtomicU64,
    pub attempts: AtomicU64,
    pub conflict_retries: AtomicU64,
    pub starved: AtomicU64,
    pub wal_forces: AtomicU64,
    pub group_commits: AtomicU64,
    pub commits_grouped: AtomicU64,
    pub max_group_size: AtomicU64,
    pub deadlock_victims: AtomicU64,
}

/// Outcome delivered to a parked lock waiter.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The scheduler granted the lock; the waiter now holds it.
    Granted,
    /// The waiter was cancelled as a deadlock victim; it must abort.
    Victim,
}

/// Why a lock request ended in a conflict retry. Each cause has a
/// `lock.conflicts.<name>` counter, and its code is the payload of the
/// retry's [`EventKind::TxnConflictRetry`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictCause {
    /// The requester held S on the page it asked X for, and its wait
    /// would close a cycle: the read-then-write conversion deadlock.
    Conversion = 1,
    /// The requester's wait would close any other waits-for cycle.
    Cycle = 2,
    /// Another transaction's wait closed a cycle and cancelled this
    /// transaction's wait as the youngest member.
    Victim = 3,
    /// The wait ran past the lock-wait safety timeout.
    Timeout = 4,
}

impl ConflictCause {
    /// Every cause, in code order.
    const ALL: [ConflictCause; 4] = [
        ConflictCause::Conversion,
        ConflictCause::Cycle,
        ConflictCause::Victim,
        ConflictCause::Timeout,
    ];

    /// The counter suffix: `lock.conflicts.<name>`.
    pub fn name(self) -> &'static str {
        match self {
            ConflictCause::Conversion => "conversion",
            ConflictCause::Cycle => "cycle",
            ConflictCause::Victim => "victim",
            ConflictCause::Timeout => "timeout",
        }
    }
}

/// One parked worker's wake-up slot.
struct Slot {
    state: Mutex<Option<Outcome>>,
    cv: Condvar,
}

/// Per-transaction condvar slots. Signals and waits may race (a grant
/// can land before the waiter parks), so both sides get-or-create.
#[derive(Default)]
struct WaitTable {
    slots: Mutex<HashMap<u64, Arc<Slot>>>,
}

impl WaitTable {
    fn slot(&self, txn: u64) -> Arc<Slot> {
        let mut slots = lock_ok(&self.slots);
        Arc::clone(slots.entry(txn).or_insert_with(|| {
            Arc::new(Slot {
                state: Mutex::new(None),
                cv: Condvar::new(),
            })
        }))
    }

    /// Deliver `outcome` to `txn`'s slot. Callers hold the scheduler
    /// mutex, making signal/timeout interleavings serialisable.
    fn signal(&self, txn: u64, outcome: Outcome) {
        let slot = self.slot(txn);
        *lock_ok(&slot.state) = Some(outcome);
        slot.cv.notify_all();
    }

    /// Consume a delivered outcome without blocking (timeout re-check).
    fn take(&self, txn: u64) -> Option<Outcome> {
        let slot = self.slot(txn);
        let out = lock_ok(&slot.state).take();
        if out.is_some() {
            lock_ok(&self.slots).remove(&txn);
        }
        out
    }

    /// Park until an outcome arrives; `None` on timeout (slot retained —
    /// the caller resolves the race under the scheduler mutex).
    fn wait(&self, txn: u64) -> Option<Outcome> {
        let slot = self.slot(txn);
        let mut state = lock_ok(&slot.state);
        let deadline = Instant::now() + LOCK_WAIT_TIMEOUT;
        loop {
            if let Some(out) = state.take() {
                drop(state);
                lock_ok(&self.slots).remove(&txn);
                return Some(out);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = slot
                .cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
        }
    }
}

/// One not-yet-committed fragment, retained so failover can re-append it
/// to a surviving stream if its original stream dies. Fragments at or
/// below the dead stream's durable high-water ticket never move — their
/// stream's disk outlives its thread and recovery reads them from it.
struct PendingFrag {
    stream: usize,
    seq: u64,
    page: PageId,
    rec: LogRecord,
}

/// An in-flight transaction, owned by the worker driving it.
pub struct Txn {
    id: u64,
    /// Home stream for the commit/abort record.
    home: usize,
    /// Per-stream high-water fragment tickets.
    tickets: HashMap<usize, u64>,
    /// The undo chain. Travels with the transaction: worker-local while
    /// the body runs, handed to the group-commit daemon at submit so a
    /// commit that fails mid-batch can be rolled back daemon-side.
    undo: Vec<UndoEntry>,
    /// Volatile fragments, kept for failover rerouting.
    pending: Vec<PendingFrag>,
    /// Deferred-capture state; `Some` exactly while the logging policy
    /// is still deciding (a spill resets it to `None` for good).
    deferred: Option<Deferred>,
    /// Why the last lock request failed, for the retry's tag.
    conflict: Option<ConflictCause>,
}

impl Txn {
    /// Transaction id (monotonic; doubles as age for victim selection).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current home stream (may change if the original home dies).
    pub fn home(&self) -> usize {
        self.home
    }

    /// The highest ticket among this transaction's fragments on `stream`.
    fn pending_high(&self, stream: usize) -> Option<u64> {
        let on_stream = self.pending.iter().filter(|f| f.stream == stream);
        on_stream.map(|f| f.seq).max()
    }

    /// Note a fragment appended at `(stream, seq)`: raise the stream's
    /// ticket high-water mark and keep the fragment for rerouting.
    fn note_frag(&mut self, stream: usize, seq: u64, page: PageId, rec: LogRecord) {
        let high = self.tickets.entry(stream).or_insert(0);
        *high = (*high).max(seq);
        self.pending.push(PendingFrag {
            stream,
            seq,
            page,
            rec,
        });
    }
}

/// What a successful [`ExecDb::rejoin_stream`] /
/// [`ExecDb::replace_stream`] did.
#[derive(Debug, Clone)]
pub struct RejoinReport {
    /// The readmitted stream.
    pub stream: usize,
    /// `true` for [`ExecDb::replace_stream`] (old platter archived, new
    /// device blank), `false` for a same-device rejoin.
    pub replaced_device: bool,
    /// Records revalidated on the durable prefix (0 for a replacement —
    /// its prefix lives in the archive, not on the new device).
    pub durable_records: u64,
    /// Torn log pages the prefix validation cut away.
    pub corrupt_pages: u64,
    /// Tickets orphaned across all of this stream's incarnations:
    /// issued but never forced, lost with a dead incarnation's volatile
    /// tail. Owners re-append them under new tickets.
    pub orphaned_tickets: u64,
    /// Serving streams after readmission.
    pub live_streams: usize,
    /// Wall-clock from the rejoin request to the stream serving again.
    pub catchup_us: u64,
}

/// Data disk plus the doublewrite slots every flush goes through.
struct DataState {
    disk: Disk,
    dw: Doublewrite,
}

/// The appender fleet with replaceable membership: one slot per stream,
/// each holding the current incarnation behind its own tiny mutex so a
/// rejoin can swap in a fresh appender while producers keep cloning
/// handles. Producers hold an `Arc` across an interaction; a handle that
/// goes stale mid-call fails with a quarantine/orphan error and the
/// retry re-resolves through the slot.
pub(crate) struct Fleet {
    slots: Vec<Mutex<Arc<LogAppender>>>,
}

impl Fleet {
    fn new(appenders: Vec<LogAppender>) -> Self {
        Fleet {
            slots: appenders
                .into_iter()
                .map(|a| Mutex::new(Arc::new(a)))
                .collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The current incarnation serving `stream`.
    pub(crate) fn get(&self, stream: usize) -> Arc<LogAppender> {
        Arc::clone(&lock_ok(&self.slots[stream]))
    }

    /// Swap in a fresh incarnation; returns the retired one (kept alive
    /// by any producer still mid-interaction with it).
    fn replace(&self, stream: usize, next: LogAppender) -> Arc<LogAppender> {
        std::mem::replace(&mut *lock_ok(&self.slots[stream]), Arc::new(next))
    }
}

/// Everything shared between workers, the appenders, the daemon, and
/// the supervisor.
pub(crate) struct Inner {
    pub(crate) cfg: ExecConfig,
    sched: Mutex<Scheduler>,
    waits: WaitTable,
    /// Page cache, sharded; shard meta maps page → `(stream, ticket)` of
    /// its latest fragment (the WAL rule's "which log holds this page's
    /// fragment" table from the paper's back-end controller).
    shards: ShardedPool<PageMeta>,
    /// Frames per pool shard: the deferred-capture pin budget's base.
    shard_frames: usize,
    data: Mutex<DataState>,
    pub(crate) appenders: Fleet,
    selector: Mutex<Selector>,
    /// Serialises membership changes (rejoin, replace) so two probes
    /// cannot hand the same vaulted device to two incarnations.
    membership: Mutex<()>,
    /// Platters archived by [`ExecDb::replace_stream`]: the durable
    /// prefix of every device that was swapped out rather than rejoined.
    /// [`ExecDb::crash_image`] appends them so recovery still merges the
    /// commits they hold.
    archived_logs: Mutex<Vec<Disk>>,
    /// Commit gate: held for every commit-record append + home force and
    /// for the whole of [`ExecDb::crash_image`].
    pub(crate) gate: Mutex<()>,
    next_txn: AtomicU64,
    next_lsn: AtomicU64,
    /// `live < min_live_streams`, recomputed on every membership change
    /// ([`Inner::recompute_degraded`]) — clears when the fleet recovers.
    degraded: AtomicBool,
    pub(crate) stats: Stats,
    /// Shared observability registry (see [`ExecConfig::obs`]).
    pub(crate) obs: Registry,
    /// Worker-side commit acks (paired with the daemon's
    /// `group.completions`).
    commits_acked: Counter,
    /// End-to-end `run_txn` commit latency, µs.
    commit_us: Histogram,
    /// The versioned buffer pool + snapshot registry: the lock-free read
    /// path beside the locked one. The group-commit daemon is its single
    /// publisher; [`ExecDb::run_ro_txn`] is its consumer.
    pub(crate) mvcc: Mvcc,
    /// Read-only snapshot transactions completed.
    ro_txns: Counter,
    /// End-to-end `run_ro_txn` latency, µs.
    ro_us: Histogram,
    /// `lock.conflicts.<cause>`, indexed by code − 1.
    conflicts: [Counter; 4],
}

impl Inner {
    /// Release `txn`'s locks and wake every waiter the release granted.
    /// Called by workers (abort) and the daemon (commit durable).
    /// Poison-tolerant: on the release path the lock table must keep
    /// draining even if another worker panicked, or the whole pipeline
    /// wedges behind the dead transaction's locks.
    pub(crate) fn release_locks(&self, txn: u64) {
        let mut sched = self.sched.lock().unwrap_or_else(|e| e.into_inner());
        for (granted, _page) in sched.release_all(txn) {
            self.waits.signal(granted, Outcome::Granted);
        }
    }

    /// Log streams not yet quarantined.
    pub(crate) fn live_streams(&self) -> usize {
        lock_ok(&self.selector).live_count()
    }

    /// Whether `stream` has been quarantined.
    pub(crate) fn is_stream_dead(&self, stream: usize) -> bool {
        lock_ok(&self.selector).is_dead(stream)
    }

    /// A surviving stream for rerouted work, if any. The salt feeds the
    /// policy's qp argument too, so mod-based policies spread failover
    /// traffic (CLR reroutes, undo-path re-homes) across the live fleet
    /// instead of always walking forward from stream 0.
    fn pick_live(&self, salt: u64) -> Option<usize> {
        let mut sel = lock_ok(&self.selector);
        if sel.live_count() == 0 {
            return None;
        }
        Some(sel.pick(salt as usize, salt))
    }

    /// Quarantine `stream`: take it out of routing, fail its producers
    /// fast, and record the failover. Idempotent — concurrent detectors
    /// (worker append errors, daemon force errors, supervisor probes)
    /// may all report the same stream; only the first wins.
    pub(crate) fn quarantine_stream(&self, stream: usize, error: &AppenderError) {
        let live = {
            let mut sel = lock_ok(&self.selector);
            if sel.is_dead(stream) {
                return;
            }
            sel.mark_dead(stream);
            sel.live_count()
        };
        self.obs.emit(
            EventKind::FailoverStarted,
            0,
            stream as u64,
            0,
            error.class_ordinal(),
        );
        self.appenders.get(stream).quarantine();
        self.obs.counter("failover.quarantined").inc();
        self.obs
            .counter(&format!("failover.quarantined.{}", error.class()))
            .inc();
        self.obs.emit(
            EventKind::StreamQuarantined,
            0,
            stream as u64,
            0,
            live as u64,
        );
        self.recompute_degraded();
    }

    /// Recompute degraded mode from the current live count and publish
    /// the gauge. Every membership change (quarantine, rejoin, replace)
    /// funnels through here, so degraded mode is always
    /// `live < min_live_streams` — no one-way latch.
    pub(crate) fn recompute_degraded(&self) -> usize {
        let live = self.live_streams();
        self.degraded
            .store(live < self.cfg.min_live_streams, Ordering::Release);
        self.obs.gauge("failover.live_streams").set(live as u64);
        live
    }

    /// Classify an error from an appender interaction; quarantine the
    /// stream when the failure class warrants it.
    ///
    /// Guarded against stale handles: after a rejoin, a producer still
    /// holding the retired incarnation's `Arc` can report that
    /// incarnation's sticky error. The verdict is confirmed against the
    /// *current* slot before convicting — a healthy successor absorbs
    /// the stale report. `Stalled` always convicts (a probe cannot see
    /// a wedged I/O; a mistaken conviction is undone by the next rejoin
    /// probe).
    pub(crate) fn note_appender_failure(&self, e: &ExecError) {
        if let ExecError::Appender { stream, error } = e {
            if !error.is_fatal_to_stream() {
                return;
            }
            if *stream < self.appenders.len() {
                let probe = self.appenders.get(*stream).probe();
                let confirmed = match error {
                    AppenderError::Persistent(_) => probe.error.is_some(),
                    AppenderError::ThreadDeath(_) => !probe.alive,
                    _ => true,
                };
                if !confirmed {
                    return;
                }
            }
            self.quarantine_stream(*stream, error);
        }
    }

    /// The ticket space the successor of `old` inherits: the durable
    /// prefix stays forced, everything issued-but-unforced becomes a new
    /// orphan range, and earlier incarnations' orphan ranges carry over.
    fn inheritance_from(old: &LogAppender) -> TicketInheritance {
        let issued = old.tickets_issued();
        let forced = old.forced_high();
        let mut orphans = old.orphan_ranges().to_vec();
        if issued > forced {
            orphans.push((forced, issued));
        }
        TicketInheritance {
            next_seq: issued + 1,
            forced,
            orphans,
        }
    }

    /// Validate a rejoin/replace target under the membership lock: must
    /// exist and be quarantined (selector-dead).
    fn check_rejoinable(&self, stream: usize) -> Result<(), ExecError> {
        if stream >= self.appenders.len() {
            return Err(ExecError::rejoin(stream, "no such stream"));
        }
        if !self.is_stream_dead(stream) {
            return Err(ExecError::rejoin(stream, "stream is live"));
        }
        Ok(())
    }

    /// Readmission bookkeeping shared by rejoin and replace: swap the
    /// fleet slot, clear the selector dead bit, publish the event and
    /// metrics, and un-latch degraded mode — in that order. The slot
    /// swap comes first so no producer routed by `mark_live` can reach
    /// the retired handle through the slot; degraded clears last so load
    /// is shed until the stream can actually serve.
    fn readmit(&self, stream: usize, successor: LogAppender, t0: Instant) -> (usize, u64) {
        let _retired = self.appenders.replace(stream, successor);
        let live = {
            let mut sel = lock_ok(&self.selector);
            sel.mark_live(stream);
            sel.live_count()
        };
        let catchup_us = t0.elapsed().as_micros() as u64;
        self.obs.counter("failover.rejoins").inc();
        self.obs.histogram("failover.catchup_us").record(catchup_us);
        self.obs
            .emit(EventKind::StreamRejoined, 0, stream as u64, 0, live as u64);
        self.recompute_degraded();
        (live, catchup_us)
    }

    /// Readmit a quarantined stream on its own (recovered) device.
    ///
    /// Protocol, in order: **retire** the dead incarnation's thread (its
    /// vault guard deposits the device even if it panicked); **probe**
    /// the vaulted device *through its fault injector* — a still-broken
    /// device fails here and the stream stays vaulted for the next
    /// probe; **revalidate** the durable prefix by reopening the stream
    /// on the honest platter (injector detached — the probe already
    /// vouched for the device and validation I/O must not be refused by
    /// a fault plan scheduled for later), which cuts any torn tail
    /// record and bumps the write epoch; re-attach the injector so
    /// future faults quarantine correctly; **spawn** a successor
    /// appender inheriting the ticket space; then [`Inner::readmit`].
    pub(crate) fn rejoin_stream(&self, stream: usize) -> Result<RejoinReport, ExecError> {
        let _membership = lock_ok(&self.membership);
        self.check_rejoinable(stream)?;
        let t0 = Instant::now();
        let old = self.appenders.get(stream);
        old.retire()
            .map_err(|e| ExecError::rejoin(stream, format!("retire: {e}")))?;
        old.probe_vaulted_device()
            .map_err(|e| ExecError::rejoin(stream, format!("device probe: {e}")))?;
        let inherit = Self::inheritance_from(&old);
        let recovered = old
            .take_vaulted()
            .map_err(|e| ExecError::rejoin(stream, format!("vault hand-off: {e}")))?;
        let mut disk = recovered.into_disk();
        let faults = disk.detach_faults();
        let (mut reopened, records, stats) = match LogStream::open_scanned(disk) {
            Ok(opened) => opened,
            // Unreachable after a successful probe (the platter is
            // injector-free here), but if it ever fires the device is
            // gone for good: report it — replace_stream is the way out.
            Err(e) => {
                return Err(ExecError::rejoin(
                    stream,
                    format!("durable-prefix validation failed: {e}"),
                ))
            }
        };
        let durable_records = records.len() as u64;
        if let Some(handle) = faults {
            reopened.attach_faults(handle);
        }
        let orphaned_tickets = inherit.orphans.iter().map(|&(lo, hi)| hi - lo).sum();
        let successor = spawn_appender(&self.cfg, stream, reopened, inherit);
        let (live, catchup_us) = self.readmit(stream, successor, t0);
        Ok(RejoinReport {
            stream,
            replaced_device: false,
            durable_records,
            corrupt_pages: stats.corrupt_pages,
            orphaned_tickets,
            live_streams: live,
            catchup_us,
        })
    }

    /// Swap a quarantined stream onto a brand-new device. The old
    /// platter's durable prefix is archived (snapshotted past the
    /// injector) so [`ExecDb::crash_image`] — and therefore recovery —
    /// still merges the commits it holds; the successor appender starts
    /// on a blank platter but inherits the ticket space, so the durable
    /// prefix keeps reading as forced and the unforced tail as orphaned.
    /// For devices that will never come back.
    pub(crate) fn replace_stream(&self, stream: usize) -> Result<RejoinReport, ExecError> {
        let _membership = lock_ok(&self.membership);
        self.check_rejoinable(stream)?;
        let t0 = Instant::now();
        let old = self.appenders.get(stream);
        old.retire()
            .map_err(|e| ExecError::rejoin(stream, format!("retire: {e}")))?;
        let inherit = Self::inheritance_from(&old);
        let recovered = old
            .take_vaulted()
            .map_err(|e| ExecError::rejoin(stream, format!("vault hand-off: {e}")))?;
        let archived = recovered.into_disk().snapshot();
        lock_ok(&self.archived_logs).push(archived);
        let orphaned_tickets = inherit.orphans.iter().map(|&(lo, hi)| hi - lo).sum();
        let fresh = self
            .cfg
            .wal
            .backend
            .provision(self.cfg.wal.log_frames)
            .and_then(LogStream::create_on)
            .map_err(|e| {
                ExecError::rejoin(stream, format!("provision replacement platter: {e}"))
            })?;
        let successor = spawn_appender(&self.cfg, stream, fresh, inherit);
        let (live, catchup_us) = self.readmit(stream, successor, t0);
        Ok(RejoinReport {
            stream,
            replaced_device: true,
            durable_records: 0,
            corrupt_pages: 0,
            orphaned_tickets,
            live_streams: live,
            catchup_us,
        })
    }

    /// Capture the full committed-to-be images of every page `txn`
    /// wrote, for MVCC version publication. Called at commit submit,
    /// while the transaction's X locks pin each page's content; strict
    /// 2PL holds those locks until the daemon has published the commit,
    /// so the captured images stay exact until they are installed. A
    /// page evicted since the last write is re-read through the ordinary
    /// residency path (its fragment was forced at eviction per the WAL
    /// rule, so the disk copy is the locked content).
    pub(crate) fn capture_images(&self, txn: &Txn) -> Result<Vec<Arc<Page>>, ExecError> {
        let mut pages: Vec<PageId> = txn.undo.iter().map(|u| u.page).collect();
        pages.sort_unstable();
        pages.dedup();
        let mut images = Vec::with_capacity(pages.len());
        for id in pages {
            let mut shard = self.shards.lock(id);
            self.ensure_resident(&mut shard, id)?;
            let page = shard.pool.get(id).ok_or(ExecError::Wal(WalError::Storage(
                StorageError::Protocol("page vanished during image capture"),
            )))?;
            images.push(Arc::new(page.clone()));
        }
        Ok(images)
    }

    /// Point `pages`' WAL-rule meta entries at `(stream, seq)`, the
    /// record that now covers their deferred writes: a spilled fragment,
    /// or the logical commit record (the daemon calls this before the
    /// home force). The pages are still pinned, so no eviction can race
    /// the re-pin.
    pub(crate) fn cover_pages(&self, pages: &[PageId], stream: usize, seq: u64) {
        for &id in pages {
            self.shards.lock(id).meta.insert(id, (stream, seq));
        }
    }

    /// Drop the deferred-capture pins on `pages` (one pin per page).
    pub(crate) fn unpin_pages(&self, pages: &[PageId]) {
        for &id in pages {
            self.shards.lock(id).pool.unpin(id);
        }
    }

    /// Ensure `page` is resident in its shard, flushing any evicted dirty
    /// victim under the WAL rule. Caller holds the shard lock via `shard`.
    fn ensure_resident(
        &self,
        shard: &mut PoolShard<PageMeta>,
        id: PageId,
    ) -> Result<(), ExecError> {
        if shard.pool.contains(id) {
            return Ok(());
        }
        // a cold read: book it as a pool lookup that misses, so the
        // pool's `hits + misses == lookups` keeps tiling (the caller's
        // access after the insert is the hit)
        let _ = shard.pool.get(id);
        let page = capture::home_page(&lock_ok(&self.data).disk, id)?;
        if let Some(evicted) = shard
            .pool
            .insert(id, page, false)
            .map_err(ExecError::from)?
        {
            if evicted.dirty {
                if let Err(e) = self.flush_page(shard, &evicted.page) {
                    // The victim's fragment is not durable (e.g. its
                    // stream just died): un-evict it so the dirty bytes
                    // are not lost, give back the frame we took, and let
                    // the caller retry once failover has rerouted the
                    // fragment. The pool regained a free slot, so the
                    // re-insert cannot cascade.
                    shard.pool.remove(id);
                    let victim = evicted.page.id;
                    shard
                        .pool
                        .insert(victim, evicted.page, true)
                        .map_err(ExecError::from)?;
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// WAL-rule flush: force the page's latest fragment if not yet
    /// durable, then doublewrite + verified home write.
    fn flush_page(&self, shard: &mut PoolShard<PageMeta>, page: &Page) -> Result<(), ExecError> {
        if let Some(&(stream, seq)) = shard.meta.get(&page.id) {
            let appender = self.appenders.get(stream);
            if !appender.is_forced(seq) {
                if let Err(e) = appender.force_through(seq) {
                    // A quarantined stream with an un-durable fragment:
                    // the fragment's owner will reroute it (and re-pin
                    // this page's meta) on its next append or at commit;
                    // until then this page cannot be flushed.
                    self.note_appender_failure(&e);
                    return Err(e);
                }
                self.stats.wal_forces.fetch_add(1, Ordering::Relaxed);
            }
        }
        let data = &mut *lock_ok(&self.data);
        data.dw.flush(&mut data.disk, page).map_err(ExecError::from)
    }

    /// Move `txn` off any quarantined stream: re-pick its home and
    /// re-append the volatile tail of its fragments (everything above
    /// the dead stream's durable high-water ticket) to the new home,
    /// re-pinning each page's WAL-rule entry. Fragments within the
    /// durable prefix keep their ticket, clamped so commit-time forces
    /// against the dead stream are satisfied without touching it —
    /// recovery reads them from the quarantined disk and dedups the
    /// rerouted copies by LSN. Idempotent; cheap no-op when nothing the
    /// transaction touched is dead.
    pub(crate) fn reroute_if_needed(&self, txn: &mut Txn) -> Result<(), ExecError> {
        // Streams a rejoin has orphaned fragments of this transaction on:
        // the fragment's ticket was issued by a dead incarnation and
        // never forced, so it can never read as durable again — on a
        // stream that is otherwise perfectly live.
        let orphaned: Vec<usize> = {
            let mut streams: Vec<usize> = txn.pending.iter().map(|f| f.stream).collect();
            streams.sort_unstable();
            streams.dedup();
            streams
                .into_iter()
                .filter(|&s| {
                    let app = self.appenders.get(s);
                    txn.pending
                        .iter()
                        .any(|f| f.stream == s && app.orphaned(f.seq))
                })
                .collect()
        };
        let (dead, new_home) = {
            let mut sel = lock_ok(&self.selector);
            let mut dead: Vec<usize> = txn
                .tickets
                .keys()
                .copied()
                .filter(|&s| sel.is_dead(s))
                .collect();
            if sel.is_dead(txn.home) && !dead.contains(&txn.home) {
                dead.push(txn.home);
            }
            if dead.is_empty() && orphaned.is_empty() {
                return Ok(());
            }
            let home = if sel.is_dead(txn.home) {
                sel.pick(txn.home, txn.id)
            } else {
                txn.home
            };
            (dead, home)
        };
        let t0 = Instant::now();
        txn.home = new_home;
        // Pass 1 — orphans, before the dead-stream pass: a rejoined
        // incarnation's forced watermark sweeps past the orphan range as
        // soon as it forces new work, so the `seq > forced` partition
        // below would mistake orphans for durable prefix. Re-append them
        // under fresh tickets and recompute the source ticket exactly
        // (clamping cannot excise a hole in the middle of the range).
        for s in orphaned {
            let app = self.appenders.get(s);
            let target = self.appenders.get(new_home);
            for frag in txn.pending.iter_mut().filter(|f| f.stream == s) {
                if app.orphaned(frag.seq) {
                    self.move_frag(txn.id, frag, &target, new_home)?;
                }
            }
            match txn.pending_high(s) {
                Some(high) => txn.tickets.insert(s, high),
                None => txn.tickets.remove(&s),
            };
            if let Some(high) = txn.pending_high(new_home) {
                let t = txn.tickets.entry(new_home).or_insert(0);
                *t = (*t).max(high);
            }
        }
        // Pass 2 — quarantined streams: move the volatile tail, keep the
        // durable prefix in place.
        for s in dead {
            let forced = self.appenders.get(s).forced_high();
            let target = self.appenders.get(new_home);
            for frag in txn
                .pending
                .iter_mut()
                .filter(|f| f.stream == s && f.seq > forced)
            {
                self.move_frag(txn.id, frag, &target, new_home)?;
                let high = txn.tickets.entry(new_home).or_insert(0);
                *high = (*high).max(frag.seq);
            }
            // The durable prefix is already forced: clamp the ticket so
            // the commit-time force against the dead stream resolves via
            // `is_forced` without waking its (possibly dead) thread.
            if let Some(high) = txn.tickets.get_mut(&s) {
                *high = (*high).min(forced);
                if *high == 0 {
                    txn.tickets.remove(&s);
                }
            }
        }
        self.obs.counter("failover.reroutes").inc();
        self.obs
            .histogram("failover.reroute_us")
            .record(t0.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Re-append `frag` through `target` (now serving stream `to`) and
    /// re-pin its page's WAL-rule entry — but only if the entry still
    /// names the fragment being moved; a newer fragment (or a CLR) may
    /// have superseded it.
    fn move_frag(
        &self,
        txn: u64,
        frag: &mut PendingFrag,
        target: &LogAppender,
        to: usize,
    ) -> Result<(), ExecError> {
        let new_seq = target.append(frag.rec.clone())?;
        let mut shard = self.shards.lock(frag.page);
        if shard.meta.get(&frag.page) == Some(&(frag.stream, frag.seq)) {
            shard.meta.insert(frag.page, (to, new_seq));
        }
        drop(shard);
        let from = frag.stream as u64;
        self.obs.emit(
            EventKind::FragmentRerouted,
            txn,
            to as u64,
            frag.page.0,
            from,
        );
        self.obs.counter("failover.rerouted_fragments").inc();
        frag.stream = to;
        frag.seq = new_seq;
        Ok(())
    }

    /// Roll back and release: compensations, lock release, abort count.
    /// Used by the worker abort path and by the daemon when a batch
    /// member's commit fails (the worker no longer owns the undo chain
    /// by then — it travelled with the [`CommitReq`]).
    pub(crate) fn undo_and_release(&self, txn_id: u64, home: usize, undo: Vec<UndoEntry>) {
        self.undo_apply(txn_id, home, undo);
        self.release_locks(txn_id);
        self.stats.aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// Walk the undo chain backwards, logging a compensation per undone
    /// update and restoring before-images in the pool. Best-effort with
    /// respect to the log: CLRs route around dead streams, and when no
    /// stream survives the bytes are still restored — but the page LSN
    /// is left untouched, since advancing it to an LSN that exists on no
    /// durable log could defeat redo idempotence after recovery.
    fn undo_apply(&self, txn_id: u64, home: usize, mut undo: Vec<UndoEntry>) {
        let mut clr_stream = if !self.is_stream_dead(home) {
            Some(home)
        } else {
            self.pick_live(txn_id)
        };
        for entry in undo.drain(..).rev() {
            let clr_lsn = Lsn(self.next_lsn.fetch_add(1, Ordering::Relaxed));
            let rec = entry.compensation(txn_id, clr_lsn);
            let mut appended: Option<(usize, u64)> = None;
            while let Some(s) = clr_stream {
                match self.appenders.get(s).append(rec.clone()) {
                    Ok(seq) => {
                        appended = Some((s, seq));
                        break;
                    }
                    Err(e) => {
                        self.note_appender_failure(&e);
                        let next = self.pick_live(txn_id);
                        clr_stream = if next == Some(s) { None } else { next };
                    }
                }
            }
            let mut shard = self.shards.lock(entry.page);
            if self.ensure_resident(&mut shard, entry.page).is_err() {
                // Can't load the page (e.g. every stream dead, eviction
                // blocked). The CLR (if any) still covers recovery; the
                // volatile copy is unreachable anyway.
                continue;
            }
            if let Some((s, seq)) = appended {
                shard.meta.insert(entry.page, (s, seq));
            }
            if let Some(p) = shard.pool.get_mut(entry.page) {
                entry.revert(p);
                if appended.is_some() {
                    p.lsn = clr_lsn;
                }
            }
        }
        if let Some(s) = clr_stream {
            let _ = self
                .appenders
                .get(s)
                .append(LogRecord::Abort { txn: txn_id });
        }
    }
}

/// Whether `e` is the buffer pool's "every frame pinned" signal — the
/// cue for a deferred transaction to spill its pins.
fn is_pool_exhausted(e: &ExecError) -> bool {
    matches!(
        e,
        ExecError::Wal(WalError::Storage(StorageError::PoolExhausted))
    )
}

/// Spawn the appender for `stream` of the fleet `cfg` describes, owning
/// `log` and continuing the ticket space in `inherit` (the default for a
/// fresh stream, the predecessor's for a rejoined or replaced one).
fn spawn_appender(
    cfg: &ExecConfig,
    stream: usize,
    log: LogStream,
    inherit: TicketInheritance,
) -> LogAppender {
    LogAppender::spawn_rejoined(
        log,
        APPENDER_QUEUE,
        Duration::from_micros(cfg.force_delay_us),
        &cfg.obs,
        stream,
        Duration::from_millis(cfg.append_wait_ms.max(1)),
        inherit,
    )
}

/// The concurrent engine. Shared by reference across worker threads
/// (wrap in [`Arc`] to move between threads).
pub struct ExecDb {
    inner: Arc<Inner>,
    commit_tx: Option<SyncSender<CommitReq>>,
    daemon: Option<std::thread::JoinHandle<()>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
    sup_stop: Arc<AtomicBool>,
}

impl ExecDb {
    /// A fresh database with `cfg.wal.log_streams` appender threads, the
    /// group-commit daemon, and the failover supervisor running.
    pub fn new(cfg: ExecConfig) -> Self {
        assert!(cfg.pool_shards > 0, "need at least one pool shard");
        let wal = &cfg.wal;
        let obs = cfg.obs.clone();
        let appenders = (0..wal.log_streams)
            .map(|idx| {
                let log = wal
                    .backend
                    .provision(wal.log_frames)
                    .and_then(LogStream::create_on)
                    .expect("provisioning a log disk on the configured backend");
                spawn_appender(&cfg, idx, log, TicketInheritance::default())
            })
            .collect();
        obs.gauge("failover.live_streams")
            .set(wal.log_streams as u64);
        let shards = ShardedPool::with_meta(cfg.pool_shards, wal.pool_frames, HashMap::new);
        let shard_frames = shards.lock_shard(0).pool.capacity();
        let inner = Arc::new(Inner {
            sched: Mutex::new(Scheduler::new()),
            waits: WaitTable::default(),
            shards,
            shard_frames,
            data: Mutex::new(DataState {
                disk: Doublewrite::provision(wal)
                    .expect("provisioning the data disk on the configured backend"),
                dw: Doublewrite::new(wal),
            }),
            appenders: Fleet::new(appenders),
            selector: Mutex::new(Selector::new(wal.policy, wal.log_streams, wal.seed)),
            membership: Mutex::new(()),
            archived_logs: Mutex::new(Vec::new()),
            gate: Mutex::new(()),
            next_txn: AtomicU64::new(1),
            next_lsn: AtomicU64::new(1),
            degraded: AtomicBool::new(false),
            stats: Stats::default(),
            commits_acked: obs.counter("txn.commits_acked"),
            commit_us: obs.histogram("txn.commit_us"),
            mvcc: Mvcc::new(wal.data_pages as usize, &obs),
            ro_txns: obs.counter("mvcc.ro_txns"),
            ro_us: obs.histogram("mvcc.read_us"),
            conflicts: ConflictCause::ALL
                .map(|c| obs.counter(&format!("lock.conflicts.{}", c.name()))),
            obs,
            cfg: cfg.clone(),
        });
        let (commit_tx, commit_rx) = sync_channel(COMMIT_QUEUE);
        let daemon_inner = Arc::clone(&inner);
        let daemon = std::thread::Builder::new()
            .name("rmdb-group-commit".into())
            .spawn(move || run_daemon(daemon_inner, commit_rx, MAX_GROUP))
            .expect("spawn group-commit daemon");
        let sup_stop = Arc::new(AtomicBool::new(false));
        let sup_inner = Arc::clone(&inner);
        let stop = Arc::clone(&sup_stop);
        let supervisor = std::thread::Builder::new()
            .name("rmdb-failover-supervisor".into())
            .spawn(move || crate::supervisor::run_supervisor(sup_inner, stop))
            .expect("spawn failover supervisor");
        ExecDb {
            inner,
            commit_tx: Some(commit_tx),
            daemon: Some(daemon),
            supervisor: Some(supervisor),
            sup_stop,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ExecConfig {
        &self.inner.cfg
    }

    /// Log streams not yet quarantined.
    pub fn live_streams(&self) -> usize {
        self.inner.live_streams()
    }

    /// Whether the fleet has shrunk below [`ExecConfig::min_live_streams`].
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Acquire)
    }

    /// Whether `stream` has been quarantined by failover.
    pub fn is_stream_dead(&self, stream: usize) -> bool {
        self.inner.is_stream_dead(stream)
    }

    /// Direct appender access for in-crate tests (fault steering).
    #[cfg(test)]
    pub(crate) fn appender(&self, stream: usize) -> Arc<LogAppender> {
        self.inner.appenders.get(stream)
    }

    /// Attach a fault plan to `stream`'s log device, injected from inside
    /// its appender thread so it composes with in-flight appends exactly
    /// like a real device failing under load. `FaultPlan::fail_from_write`
    /// is the mid-run kill switch the failover tests and the
    /// `--kill-stream` bench flag use.
    pub fn inject_stream_fault(&self, stream: usize, plan: FaultPlan) -> Result<(), ExecError> {
        self.inject_stream_fault_handle(stream, FaultInjector::handle(plan))
    }

    /// Like [`ExecDb::inject_stream_fault`], but with a caller-built
    /// [`FaultHandle`] so the caller keeps a clone — the bench's
    /// `--rejoin-at` flag revives the device through its retained handle
    /// mid-run, then lets the membership manager readmit the stream.
    pub fn inject_stream_fault_handle(
        &self,
        stream: usize,
        handle: FaultHandle,
    ) -> Result<(), ExecError> {
        self.inner.appenders.get(stream).inject_faults(handle)
    }

    /// Readmit a quarantined stream on its recovered device. See
    /// [`Inner::rejoin_stream`]'s protocol notes; fails with a typed
    /// [`ExecError::Rejoin`] (stream stays quarantined, crash images
    /// keep working) if the device is still broken.
    pub fn rejoin_stream(&self, stream: usize) -> Result<RejoinReport, ExecError> {
        self.inner.rejoin_stream(stream)
    }

    /// Swap a quarantined stream onto a brand-new device, archiving the
    /// old platter for recovery.
    pub fn replace_stream(&self, stream: usize) -> Result<RejoinReport, ExecError> {
        self.inner.replace_stream(stream)
    }

    /// Begin a transaction on behalf of query processor `qp`.
    pub fn begin(&self, qp: usize) -> Txn {
        let id = self.inner.next_txn.fetch_add(1, Ordering::Relaxed);
        let home = lock_ok(&self.inner.selector).pick(qp, id);
        Txn {
            id,
            home,
            tickets: HashMap::new(),
            undo: Vec::new(),
            pending: Vec::new(),
            deferred: Deferred::arm(self.inner.cfg.wal.logging, self.inner.shard_frames),
            conflict: None,
        }
    }

    /// Acquire `mode` on `page` for `txn`, parking on the wait table if
    /// the scheduler queues us. Deadlock victims (us or others) surface
    /// as a lock-conflict error, the retryable kind, with the cause left
    /// in `txn.conflict`. The scheduler mutex guards the multi-step
    /// waits-for graph, so poisoning there is NOT repaired — it surfaces
    /// as [`ExecError::Poisoned`].
    fn lock_page(&self, txn: &mut Txn, page: PageId, mode: LockMode) -> Result<(), ExecError> {
        const POISONED: ExecError = ExecError::Poisoned {
            what: "scheduler lock table",
        };
        let (decision, converting) = {
            let mut sched = self.inner.sched.lock().map_err(|_| POISONED)?;
            let converting = mode == LockMode::Exclusive
                && sched.locks().held(txn.id, page) == Some(LockMode::Shared);
            let decision = sched.request(txn.id, page, mode);
            // signal victims while still holding the scheduler mutex so
            // victim/grant deliveries are serialised
            match &decision {
                Decision::Waiting { victims } | Decision::Deadlock { victims, .. } => {
                    for &v in victims {
                        self.inner
                            .stats
                            .deadlock_victims
                            .fetch_add(1, Ordering::Relaxed);
                        self.inner.waits.signal(v, Outcome::Victim);
                    }
                }
                Decision::Granted => {}
            }
            (decision, converting)
        };
        let (holder, cause) = match decision {
            Decision::Granted => return Ok(()),
            Decision::Deadlock { cycle, .. } => {
                self.inner
                    .stats
                    .deadlock_victims
                    .fetch_add(1, Ordering::Relaxed);
                let cause = if converting {
                    ConflictCause::Conversion
                } else {
                    ConflictCause::Cycle
                };
                (cycle.get(1).copied().unwrap_or(0), cause)
            }
            Decision::Waiting { .. } => match self.inner.waits.wait(txn.id) {
                Some(Outcome::Granted) => return Ok(()),
                Some(Outcome::Victim) => (0, ConflictCause::Victim),
                None => {
                    // timed out: resolve the race under the scheduler
                    // mutex — either a signal landed after the timeout,
                    // or we withdraw the wait
                    let mut sched = self.inner.sched.lock().map_err(|_| POISONED)?;
                    match self.inner.waits.take(txn.id) {
                        Some(Outcome::Granted) => return Ok(()),
                        Some(Outcome::Victim) => (0, ConflictCause::Victim),
                        None => {
                            sched.cancel_wait(txn.id);
                            (0, ConflictCause::Timeout)
                        }
                    }
                }
            },
        };
        txn.conflict = Some(cause);
        Err(ExecError::Wal(WalError::LockConflict { page, holder }))
    }

    /// Read `len` bytes at `offset` of `page` under a shared lock.
    pub fn read(
        &self,
        txn: &mut Txn,
        page: u64,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, ExecError> {
        self.inner.cfg.wal.check_bounds(page, offset, len)?;
        let id = PageId(page);
        self.lock_page(txn, id, LockMode::Shared)?;
        let mut shard = self.resident_shard(txn, id)?;
        let p = shard.pool.get(id).expect("resident page");
        Ok(p.read_at(offset, len).to_vec())
    }

    /// Lock `id`'s shard with the page resident. When this transaction's
    /// own deferred pins may be what starved the shard, spill them
    /// (logging the retained fragments, dropping the pins) and retry the
    /// residency once.
    fn resident_shard(
        &self,
        txn: &mut Txn,
        id: PageId,
    ) -> Result<ShardGuard<'_, PageMeta>, ExecError> {
        let mut shard = self.inner.shards.lock(id);
        if let Err(e) = self.inner.ensure_resident(&mut shard, id) {
            let self_pinned = txn.deferred.as_ref().is_some_and(|d| !d.is_empty());
            if !is_pool_exhausted(&e) || !self_pinned {
                return Err(e);
            }
            drop(shard);
            self.spill_deferred(txn)?;
            shard = self.inner.shards.lock(id);
            self.inner.ensure_resident(&mut shard, id)?;
        }
        Ok(shard)
    }

    /// Write `data` at `offset` of `page`: X-lock, log a fragment to this
    /// transaction's routed stream, then apply in the buffer pool. The
    /// fragment ticket and the page content move together under one shard
    /// lock, so a concurrent evicting flusher can never see new bytes
    /// with a stale ticket. If the routed stream fails mid-append the
    /// failure is classified, the stream quarantined, and the fragment —
    /// plus the transaction's earlier volatile fragments — rerouted to a
    /// survivor before retrying. Under [`LoggingPolicy::Command`] /
    /// [`LoggingPolicy::Adaptive`] nothing is appended here at all — the
    /// write is deferred-captured and the logging decision happens at
    /// commit ([`ExecDb::commit`]).
    pub fn write(
        &self,
        txn: &mut Txn,
        page: u64,
        offset: usize,
        data: &[u8],
    ) -> Result<(), ExecError> {
        self.inner.cfg.wal.check_bounds(page, offset, data.len())?;
        let id = PageId(page);
        self.lock_page(txn, id, LockMode::Exclusive)?;
        self.write_op(txn, id, offset, data, None)
    }

    /// Add `delta` (wrapping) to the little-endian u64 at `offset` of
    /// `page` under an exclusive lock. Under deferred capture the
    /// increment is recorded as a [`rmdb_wal::LogicalOp::AddU64`] — 29
    /// bytes on the command record no matter how large the page — making
    /// hot-counter transactions the textbook win for command logging;
    /// otherwise it is an ordinary read-modify-write fragment.
    pub fn add_u64(
        &self,
        txn: &mut Txn,
        page: u64,
        offset: usize,
        delta: u64,
    ) -> Result<(), ExecError> {
        self.inner.cfg.wal.check_bounds(page, offset, 8)?;
        let id = PageId(page);
        self.lock_page(txn, id, LockMode::Exclusive)?;
        let next = {
            let mut shard = self.resident_shard(txn, id)?;
            let p = shard.pool.get(id).expect("resident page");
            let cur: [u8; 8] = p.read_at(offset, 8).try_into().expect("8 bytes");
            u64::from_le_bytes(cur).wrapping_add(delta)
        };
        self.write_op(txn, id, offset, &next.to_le_bytes(), Some(delta))
    }

    /// The write path under [`ExecDb::write`] and [`ExecDb::add_u64`]
    /// (`add` is an add's delta, which deferred capture records as such).
    /// The fragment is built under the shard lock but appended with it
    /// released: appender backpressure blocks.
    fn write_op(
        &self,
        txn: &mut Txn,
        id: PageId,
        offset: usize,
        data: &[u8],
        add: Option<u64>,
    ) -> Result<(), ExecError> {
        // a deferred transaction must never pin a pool shard solid, or its
        // own next page could find nothing to evict
        if txn.deferred.as_ref().is_some_and(|d| !d.admits(id)) {
            self.spill_deferred(txn)?;
        }
        let mut shard = self.resident_shard(txn, id)?;
        let new_lsn = Lsn(self.inner.next_lsn.fetch_add(1, Ordering::Relaxed));
        let mode = self.inner.cfg.wal.log_mode;
        let p = shard.pool.get(id).expect("resident page");
        let (rec, undo) = capture::update_fragment(txn.id, p, offset, data, mode, new_lsn);
        if let Some(d) = txn.deferred.as_mut() {
            if d.capture(0, rec, capture::logical_op(id, new_lsn, offset, data, add)) {
                shard.pool.pin(id);
            }
            txn.undo.push(undo);
        } else {
            drop(shard);
            let (stream, seq) = self.append_routed(txn, &rec)?;
            txn.note_frag(stream, seq, id, rec);
            txn.undo.push(undo);
            shard = self.inner.shards.lock(id);
            self.inner.ensure_resident(&mut shard, id)?;
            shard.meta.insert(id, (stream, seq));
        }
        let p = shard.pool.get_mut(id).expect("resident page");
        p.write_at(offset, data);
        p.lsn = new_lsn;
        Ok(())
    }

    /// Append `rec` to the transaction's home stream, routing around
    /// streams that die mid-append (classify → quarantine → reroute →
    /// retry on the new home). Returns the stream + ticket.
    fn append_routed(&self, txn: &mut Txn, rec: &LogRecord) -> Result<(usize, u64), ExecError> {
        let mut attempts = 0usize;
        loop {
            let stream = txn.home;
            match self.inner.appenders.get(stream).append(rec.clone()) {
                Ok(seq) => return Ok((stream, seq)),
                Err(e) => {
                    self.inner.note_appender_failure(&e);
                    attempts += 1;
                    if attempts >= self.inner.cfg.wal.log_streams {
                        return Err(e);
                    }
                    if let Err(re) = self.inner.reroute_if_needed(txn) {
                        // the survivor we rerouted to may itself have
                        // just died — classify it so this site
                        // quarantines it too, like the commit path
                        self.inner.note_appender_failure(&re);
                        return Err(re);
                    }
                    if txn.home == stream {
                        // no live alternative was found
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Spill a deferred transaction to ordinary fragments
    /// ([`Deferred::spill`]), appending through the routed path and
    /// publishing tickets, pending entries and WAL-rule meta. After this
    /// the transaction is a plain fragments transaction for good.
    fn spill_deferred(&self, txn: &mut Txn) -> Result<(), ExecError> {
        let Some(d) = txn.deferred.take() else {
            return Ok(());
        };
        if !d.is_empty() {
            self.inner.obs.counter("wal.deferred_spills").inc();
        }
        let mut undo = std::mem::take(&mut txn.undo);
        let out = d.spill(&mut undo, &self.inner.shards, |_, page, rec| {
            let (stream, seq) = self.append_routed(txn, &rec)?;
            txn.note_frag(stream, seq, page, rec);
            self.inner.cover_pages(&[page], stream, seq);
            Ok(())
        });
        txn.undo = undo;
        out
    }

    /// Commit: submit to the group-commit daemon and return a handle the
    /// caller waits on. Read-only transactions resolve immediately. If
    /// the transaction's fragments sit on a stream that has since been
    /// quarantined, they are rerouted here, before submission — the
    /// daemon only ever forces live streams (or durable prefixes). On
    /// any failure the transaction is rolled back and its locks released
    /// before the error returns: the caller never owns cleanup.
    pub fn commit(&self, mut txn: Txn) -> Result<CommitHandle, ExecError> {
        let timeout = Duration::from_millis(self.inner.cfg.commit_timeout_ms.max(1));
        let (reply, rx) = sync_channel(1);
        if txn.tickets.is_empty() && txn.deferred.as_ref().is_none_or(Deferred::is_empty) {
            // read-only fast path: nothing to force — and no ack counter,
            // so `txn.commits_acked` stays paired with the daemon's
            // `group.completions`
            self.inner.release_locks(txn.id);
            self.inner.stats.committed.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(Ok(()));
            return Ok(CommitHandle::new(rx, None, timeout));
        }
        // The logging decision: one Logical record for a deferred txn the
        // cost policy keeps (it doubles as the commit record), or a spill
        // to fragments plus the plain Commit record.
        let next_lsn = &self.inner.next_lsn;
        let logical = txn.deferred.as_ref().and_then(|d| {
            d.command_record(txn.id, || Lsn(next_lsn.fetch_add(1, Ordering::Relaxed)))
        });
        let (commit_rec, unpin, bytes_saved) = match logical {
            Some(rec) => {
                let d = txn.deferred.take().expect("command-logged txn is deferred");
                let saved = (d.phys_bytes() as u64).saturating_sub(rec.encoded_len() as u64);
                (rec, d.pinned().collect(), saved)
            }
            None => {
                if let Err(e) = self.spill_deferred(&mut txn) {
                    // the spill already reverted the un-appended suffix
                    // and dropped the pins — roll back what was logged
                    self.inner.undo_and_release(txn.id, txn.home, txn.undo);
                    return Err(e);
                }
                (LogRecord::Commit { txn: txn.id }, Vec::new(), 0)
            }
        };
        if let Err(e) = self.inner.reroute_if_needed(&mut txn) {
            self.inner.note_appender_failure(&e);
            self.inner.undo_and_release(txn.id, txn.home, txn.undo);
            self.inner.unpin_pages(&unpin);
            return Err(e);
        }
        // capture page images for MVCC publication while this txn's X
        // locks still pin their content (strict 2PL holds them until the
        // daemon publishes); a capture failure aborts the commit cleanly
        let images = match self.inner.capture_images(&txn) {
            Ok(images) => images,
            Err(e) => {
                self.inner.undo_and_release(txn.id, txn.home, txn.undo);
                self.inner.unpin_pages(&unpin);
                return Err(e);
            }
        };
        let req = CommitReq {
            txn: txn.id,
            home: txn.home,
            tickets: txn.tickets.into_iter().collect(),
            undo: txn.undo,
            images,
            commit_rec,
            unpin,
            bytes_saved,
            submitted: Instant::now(),
            reply,
        };
        let tx = self.commit_tx.as_ref().expect("pipeline running");
        if let Err(send_err) = tx.send(req) {
            let req = send_err.0;
            self.inner.undo_and_release(req.txn, req.home, req.undo);
            self.inner.unpin_pages(&req.unpin);
            return Err(ExecError::Wal(WalError::Storage(StorageError::Protocol(
                "group-commit daemon gone",
            ))));
        }
        Ok(CommitHandle::new(
            rx,
            Some(self.inner.commits_acked.clone()),
            timeout,
        ))
    }

    /// Abort: walk the undo chain backwards, logging a compensation per
    /// undone update, append the `Abort` record (no force needed), then
    /// release locks. Compensations route around quarantined streams. A
    /// still-deferred transaction takes a cheaper exit: none of its
    /// writes ever reached a log, so there is nothing to compensate —
    /// its bytes are reverted in memory, its pins dropped, and no log
    /// stream hears of it at all.
    pub fn abort(&self, txn: Txn) -> Result<(), ExecError> {
        match txn.deferred {
            Some(d) => {
                d.discard(&txn.undo, &self.inner.shards);
                self.inner.release_locks(txn.id);
                self.inner.stats.aborted.fetch_add(1, Ordering::Relaxed);
            }
            None => self.inner.undo_and_release(txn.id, txn.home, txn.undo),
        }
        Ok(())
    }

    /// Run `body` as a transaction with bounded retry: lock conflicts
    /// abort and back off (seeded exponential + jitter); appender
    /// failures quarantine the stream and retry on the survivors; a
    /// fleet below [`ExecConfig::min_live_streams`] sheds the request
    /// with [`ExecError::Degraded`]; an exhausted budget reports
    /// [`ExecError::Starved`]. A commit wait that exceeds
    /// [`ExecConfig::commit_timeout_ms`] surfaces as
    /// [`ExecError::Timeout`] **without retrying**: the group-commit
    /// daemon still owns the request and may yet make the original
    /// commit durable, so re-executing the body could apply the
    /// transaction twice — the indeterminate outcome belongs to the
    /// caller.
    /// [`ExecError::is_retryable`], widened for deferred capture: a pool
    /// exhausted by *other* transactions' deferred pins clears as soon as
    /// they commit and unpin, so under Command/Adaptive logging the
    /// condition is transient and worth a backed-off retry. Under
    /// `Fragments` nothing pins, so exhaustion means the pool is simply
    /// too small — still a hard error.
    fn retryable(&self, e: &ExecError) -> bool {
        e.is_retryable()
            || (is_pool_exhausted(e) && self.inner.cfg.wal.logging != LoggingPolicy::Fragments)
    }

    pub fn run_txn<F>(&self, qp: usize, body: F) -> Result<(), ExecError>
    where
        F: Fn(&mut ExecCtx<'_>) -> Result<(), ExecError>,
    {
        let seed = self.inner.cfg.wal.seed ^ (qp as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut backoff = Backoff::with_bounds(seed, 10, 1_000);
        let t_start = Instant::now();
        fn pause(backoff: &mut Backoff) {
            let delay = backoff.next_delay();
            if delay.is_zero() {
                std::thread::yield_now();
            } else {
                std::thread::sleep(delay);
            }
        }
        for _ in 0..MAX_RETRIES {
            // degraded gate, checked per attempt: shed load instead of
            // queueing against a fleet that cannot commit safely
            let live = self.inner.live_streams();
            let min = self.inner.cfg.min_live_streams;
            if live < min {
                self.inner.obs.counter("failover.degraded_rejects").inc();
                return Err(ExecError::Degraded { live, min });
            }
            self.inner.stats.attempts.fetch_add(1, Ordering::Relaxed);
            let mut txn = self.begin(qp);
            let txn_id = txn.id;
            let mut ctx = ExecCtx {
                db: self,
                txn: &mut txn,
            };
            match body(&mut ctx) {
                Ok(()) => {
                    let commit = self.commit(txn).and_then(CommitHandle::wait);
                    match commit {
                        Ok(()) => {
                            let us = t_start.elapsed().as_micros() as u64;
                            self.inner.commit_us.record(us);
                            self.inner
                                .obs
                                .emit(EventKind::TxnCommit, txn_id, qp as u64, 0, us);
                            return Ok(());
                        }
                        // Every retryable commit error is *determinate*:
                        // it was either rejected before submission or
                        // rolled back daemon-side with locks released —
                        // no abort here, just retry (the failed stream
                        // is quarantined by now, so the retry routes
                        // around it). ExecError::Timeout never lands
                        // here: the daemon still owns that request and
                        // may yet commit it, so it is non-retryable and
                        // returns below.
                        Err(e) if self.retryable(&e) => {
                            pause(&mut backoff);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => {
                    if let Some(_holder) = e.lock_conflict() {
                        let page = match &e {
                            ExecError::Wal(WalError::LockConflict { page, .. }) => page.0,
                            _ => 0,
                        };
                        // a conflict the body raised without the lock
                        // path has no recorded cause; count it as a cycle
                        // so the family still tiles `conflict_retries`
                        let cause = txn.conflict.unwrap_or(ConflictCause::Cycle);
                        self.abort(txn)?;
                        self.inner
                            .stats
                            .conflict_retries
                            .fetch_add(1, Ordering::Relaxed);
                        self.inner.conflicts[cause as usize - 1].inc();
                        pause(&mut backoff);
                        self.inner.obs.emit(
                            EventKind::TxnConflictRetry,
                            txn_id,
                            qp as u64,
                            page,
                            cause as u64,
                        );
                    } else if self.retryable(&e) {
                        // appender failure inside the body: the stream is
                        // quarantined (note_appender_failure ran at the
                        // failure site); roll back and retry on survivors
                        self.abort(txn)?;
                        self.inner.obs.counter("failover.txn_retries").inc();
                        pause(&mut backoff);
                    } else {
                        self.abort(txn)?;
                        self.inner.obs.emit(
                            EventKind::TxnAbort,
                            txn_id,
                            qp as u64,
                            0,
                            backoff.attempts() as u64,
                        );
                        return Err(e);
                    }
                }
            }
        }
        self.inner.stats.starved.fetch_add(1, Ordering::Relaxed);
        self.inner.obs.emit(
            EventKind::TxnStarved,
            0,
            qp as u64,
            0,
            backoff.attempts() as u64,
        );
        Err(ExecError::Starved {
            attempts: backoff.attempts() as u64,
        })
    }

    /// Run `body` as a **read-only snapshot transaction** on the MVCC
    /// read path: capture a snapshot LSN at begin, resolve every page as
    /// "newest committed version at or below that LSN", and never touch
    /// the lock table, the group-commit gate, or the appender fleet.
    ///
    /// Consequences of that routing:
    /// * no lock conflicts, no deadlock victimisation, no retry loop —
    ///   the body runs exactly once and the only errors are the body's
    ///   own (e.g. out-of-bounds reads);
    /// * no degraded-mode gate — snapshot reads stay available while
    ///   failover, rejoin, or membership churn runs, because they depend
    ///   on nothing but already-published memory;
    /// * the view is *stale but transaction-consistent*: exactly the
    ///   commits published before the snapshot opened, never a torn
    ///   write set (the paper's differential-file base-file read,
    ///   generalised to every commit point).
    ///
    /// Pages no committed transaction has ever written read as zeroes —
    /// the version pool, not the data disk, is the source of truth here,
    /// because the steal-policy pool may have flushed uncommitted images
    /// to disk.
    pub fn run_ro_txn<T, F>(&self, qp: usize, body: F) -> Result<T, ExecError>
    where
        F: FnOnce(&mut SnapshotCtx<'_>) -> Result<T, ExecError>,
    {
        let t_start = Instant::now();
        let snap = self.inner.mvcc.begin_snapshot();
        let txn_id = self.inner.next_txn.fetch_add(1, Ordering::Relaxed);
        self.inner
            .obs
            .emit(EventKind::SnapshotOpened, txn_id, qp as u64, 0, snap.lsn());
        let mut ctx = SnapshotCtx { db: self, snap };
        let out = body(&mut ctx);
        drop(ctx); // close the snapshot before accounting
        self.inner
            .ro_us
            .record(t_start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        if out.is_ok() {
            self.inner.ro_txns.inc();
        }
        out
    }

    /// The MVCC facade: version pool + snapshot registry. Benches and
    /// tests use it for chain/watermark introspection; ordinary readers
    /// go through [`ExecDb::run_ro_txn`].
    pub fn mvcc(&self) -> &Mvcc {
        &self.inner.mvcc
    }

    /// Sweep the MVCC version pool against the current GC watermark,
    /// returning the versions reclaimed. The supervisor runs this
    /// continuously; tests call it directly for deterministic quiesced
    /// checks.
    pub fn mvcc_gc(&self) -> u64 {
        self.inner.mvcc.gc()
    }

    /// A crash-consistent image for [`rmdb_wal::WalDb::recover`].
    ///
    /// Protocol: hold the commit gate (no commit record can become
    /// durable inside the window), snapshot the data disk **first**, then
    /// every log disk. Data-first means any page visible on the data
    /// snapshot had its fragment forced strictly before the log
    /// snapshots (WAL rule holds in the image); the gate means any
    /// durable commit record's fragment forces finished strictly before
    /// the window (commit atomicity holds in the image). Quarantined
    /// streams are included — their durable prefix is exactly what
    /// recovery merges with the survivors' logs.
    pub fn crash_image(&self) -> Result<CrashImage, ExecError> {
        let _gate = lock_ok(&self.inner.gate);
        let data = lock_ok(&self.inner.data).disk.snapshot();
        let mut logs = (0..self.inner.appenders.len())
            .map(|i| self.inner.appenders.get(i).snapshot())
            .collect::<Result<Vec<_>, _>>()?;
        // Platters archived by replace_stream: their durable prefixes
        // are nowhere else, and recovery merges any number of log disks
        // (duplicates of rerouted fragments dedup by LSN).
        logs.extend(
            lock_ok(&self.inner.archived_logs)
                .iter()
                .map(Disk::snapshot),
        );
        Ok(CrashImage { data, logs })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ExecStats {
        let s = &self.inner.stats;
        ExecStats {
            committed: s.committed.load(Ordering::Relaxed),
            aborted: s.aborted.load(Ordering::Relaxed),
            attempts: s.attempts.load(Ordering::Relaxed),
            conflict_retries: s.conflict_retries.load(Ordering::Relaxed),
            starved: s.starved.load(Ordering::Relaxed),
            wal_forces: s.wal_forces.load(Ordering::Relaxed),
            group_commits: s.group_commits.load(Ordering::Relaxed),
            commits_grouped: s.commits_grouped.load(Ordering::Relaxed),
            max_group_size: s.max_group_size.load(Ordering::Relaxed),
            deadlock_victims: s.deadlock_victims.load(Ordering::Relaxed),
        }
    }

    /// Scheduler wait-queue counters.
    pub fn wait_stats(&self) -> WaitStats {
        self.inner
            .sched
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .wait_stats()
    }

    /// Buffer-pool hit/miss counters summed over shards.
    pub fn pool_hit_miss(&self) -> (u64, u64) {
        self.inner.shards.hit_miss()
    }

    /// The observability registry the pipeline publishes into (same
    /// registry as [`ExecConfig::obs`]). Counters/histograms of note:
    /// `txn.commits_acked`, `txn.commit_us`, `group.completions`,
    /// `group.batch_size`, `group.dwell_us` (oldest member's queue wait),
    /// `lock.conflicts.<cause>` (see [`ConflictCause`]), per-stream
    /// `wal.fragments_enqueued.s{i}` / `wal.fragments_appended.s{i}` /
    /// `wal.forces.s{i}` / `wal.force_us.s{i}`, the per-stream
    /// `appender.health.s{i}` gauges, and the failover family:
    /// `failover.quarantined`, `failover.reroutes`,
    /// `failover.rerouted_fragments`, `failover.degraded_rejects`,
    /// `failover.rejoins`, `failover.live_streams` (gauge),
    /// `failover.detect_us`, `failover.reroute_us` and
    /// `failover.catchup_us` (histograms).
    pub fn obs(&self) -> &Registry {
        &self.inner.obs
    }

    /// Quiesce the appender queues: force every live stream through its
    /// last issued ticket. A force completes only after all earlier
    /// appends are processed, so after this returns
    /// `wal.fragments_appended.s{i}` has caught up with
    /// `wal.fragments_enqueued.s{i}` on every live stream — the state
    /// the conservation-law assertions need. Quarantined streams are
    /// skipped: their queues can never drain.
    pub fn drain_appenders(&self) -> Result<(), ExecError> {
        for i in 0..self.inner.appenders.len() {
            let appender = self.inner.appenders.get(i);
            if appender.is_quarantined() {
                continue;
            }
            appender.force_through(appender.tickets_issued())?;
        }
        Ok(())
    }

    /// Publish the buffer-pool shard counters as gauges and take a
    /// [`MetricsSnapshot`]. Pool counters live as plain integers inside
    /// the shard mutexes (storage stays observability-free), so they are
    /// copied out here rather than updated on the hot path.
    pub fn metrics(&self) -> MetricsSnapshot {
        let obs = &self.inner.obs;
        let (mut hits, mut misses, mut lookups, mut evictions) = (0u64, 0u64, 0u64, 0u64);
        for s in self.inner.shards.shard_stats() {
            obs.gauge(&format!("pool.s{}.hits", s.shard)).set(s.hits);
            obs.gauge(&format!("pool.s{}.misses", s.shard))
                .set(s.misses);
            obs.gauge(&format!("pool.s{}.lookups", s.shard))
                .set(s.lookups);
            obs.gauge(&format!("pool.s{}.evictions", s.shard))
                .set(s.evictions);
            hits += s.hits;
            misses += s.misses;
            lookups += s.lookups;
            evictions += s.evictions;
        }
        obs.gauge("pool.hits").set(hits);
        obs.gauge("pool.misses").set(misses);
        obs.gauge("pool.lookups").set(lookups);
        obs.gauge("pool.evictions").set(evictions);
        obs.snapshot()
    }

    /// Stop the supervisor, the daemon, and the appender threads,
    /// surfacing any error the pipeline hit. The database is consumed
    /// (its disks die with it — take a [`ExecDb::crash_image`] first to
    /// keep the durable state).
    pub fn shutdown(mut self) -> Result<(), ExecError> {
        self.stop_threads();
        Ok(())
    }

    fn stop_threads(&mut self) {
        self.sup_stop.store(true, Ordering::Release);
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        self.commit_tx = None; // daemon exits on channel close
        if let Some(daemon) = self.daemon.take() {
            let _ = daemon.join();
        }
        // appender threads exit via LogAppender::drop when Inner drops
    }
}

impl Drop for ExecDb {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Transaction scope handed to [`ExecDb::run_txn`] bodies.
pub struct ExecCtx<'a> {
    db: &'a ExecDb,
    txn: &'a mut Txn,
}

impl ExecCtx<'_> {
    /// Transaction id.
    pub fn id(&self) -> u64 {
        self.txn.id
    }

    /// Read under a shared lock.
    pub fn read(&mut self, page: u64, offset: usize, len: usize) -> Result<Vec<u8>, ExecError> {
        self.db.read(self.txn, page, offset, len)
    }

    /// Write under an exclusive lock.
    pub fn write(&mut self, page: u64, offset: usize, data: &[u8]) -> Result<(), ExecError> {
        self.db.write(self.txn, page, offset, data)
    }

    /// Add `delta` (wrapping) to the u64 at `offset` under an exclusive
    /// lock — one logical op on the command record under deferred
    /// capture (see [`ExecDb::add_u64`]).
    pub fn add_u64(&mut self, page: u64, offset: usize, delta: u64) -> Result<(), ExecError> {
        self.db.add_u64(self.txn, page, offset, delta)
    }
}

/// Read-only snapshot scope handed to [`ExecDb::run_ro_txn`] bodies.
/// Every read resolves against the same snapshot LSN, so the body sees
/// one transaction-consistent state of the database no matter how many
/// commits publish while it runs.
pub struct SnapshotCtx<'a> {
    db: &'a ExecDb,
    snap: Snapshot,
}

impl SnapshotCtx<'_> {
    /// The snapshot LSN this scope reads as-of.
    pub fn snapshot_lsn(&self) -> u64 {
        self.snap.lsn()
    }

    /// Read `len` bytes at `offset` of `page` from the snapshot — no
    /// locks, no waiting. A page with no committed version at or below
    /// the snapshot LSN reads as zeroes (see [`ExecDb::run_ro_txn`]).
    pub fn read(&self, page: u64, offset: usize, len: usize) -> Result<Vec<u8>, ExecError> {
        self.db.inner.cfg.wal.check_bounds(page, offset, len)?;
        Ok(match self.db.inner.mvcc.read_at(PageId(page), &self.snap) {
            Some(p) => p.read_at(offset, len).to_vec(),
            None => vec![0u8; len],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmdb_wal::WalDb;

    fn small_cfg() -> ExecConfig {
        ExecConfig {
            wal: WalConfig {
                data_pages: 64,
                pool_frames: 16,
                log_streams: 3,
                log_frames: 4096,
                seed: 42,
                ..WalConfig::default()
            },
            pool_shards: 4,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn single_txn_commits_and_recovers() {
        let db = ExecDb::new(small_cfg());
        let mut t = db.begin(0);
        db.write(&mut t, 3, 0, b"hello").unwrap();
        db.commit(t).unwrap().wait().unwrap();
        let image = db.crash_image().unwrap();
        let (mut recovered, report) = WalDb::recover(image, small_cfg().wal).unwrap();
        assert_eq!(report.redone_updates, 1);
        let t2 = recovered.begin();
        assert_eq!(recovered.read(t2, 3, 0, 5).unwrap(), b"hello");
    }

    #[test]
    fn abort_restores_before_image() {
        let db = ExecDb::new(small_cfg());
        let mut t = db.begin(0);
        db.write(&mut t, 1, 0, b"aaaa").unwrap();
        db.commit(t).unwrap().wait().unwrap();
        let mut t = db.begin(0);
        db.write(&mut t, 1, 0, b"bbbb").unwrap();
        db.abort(t).unwrap();
        let mut t = db.begin(0);
        assert_eq!(db.read(&mut t, 1, 0, 4).unwrap(), b"aaaa");
        db.commit(t).unwrap().wait().unwrap();
    }

    #[test]
    fn uncommitted_txn_invisible_after_crash() {
        let db = ExecDb::new(small_cfg());
        let mut t1 = db.begin(0);
        db.write(&mut t1, 2, 0, b"keep").unwrap();
        db.commit(t1).unwrap().wait().unwrap();
        let mut t2 = db.begin(1);
        db.write(&mut t2, 5, 0, b"lose").unwrap();
        // no commit for t2 — crash now
        let image = db.crash_image().unwrap();
        let (mut recovered, _) = WalDb::recover(image, small_cfg().wal).unwrap();
        let t = recovered.begin();
        assert_eq!(recovered.read(t, 2, 0, 4).unwrap(), b"keep");
        assert_eq!(recovered.read(t, 5, 0, 4).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn cold_read_counts_a_pool_miss() {
        let db = ExecDb::new(small_cfg());
        let mut t = db.begin(0);
        db.read(&mut t, 7, 0, 8).unwrap(); // cold: loaded from disk
        db.read(&mut t, 7, 0, 8).unwrap(); // resident
        db.commit(t).unwrap().wait().unwrap();
        let (hits, misses) = db.pool_hit_miss();
        assert_eq!(misses, 1, "the cold read is a miss");
        assert_eq!(hits, 2, "the load's own access and the warm read hit");
        let snap = db.metrics();
        let g = |name: &str| snap.gauge(name).unwrap_or(0);
        assert_eq!(g("pool.hits") + g("pool.misses"), g("pool.lookups"));
    }

    #[test]
    fn eviction_pressure_preserves_wal_rule() {
        // pool far smaller than the working set forces steady evictions
        let mut cfg = small_cfg();
        cfg.wal.pool_frames = 4;
        cfg.pool_shards = 2;
        let db = ExecDb::new(cfg.clone());
        for round in 0..4u8 {
            // one transaction touching 8× the pool: evictions must flush
            // pages whose fragments are appended but not yet forced
            let mut t = db.begin(0);
            for page in 0..32u64 {
                db.write(&mut t, page, 0, &[round; 8]).unwrap();
            }
            db.commit(t).unwrap().wait().unwrap();
        }
        assert!(db.stats().wal_forces > 0, "evictions must have forced");
        let image = db.crash_image().unwrap();
        let (mut recovered, _) = WalDb::recover(image, cfg.wal).unwrap();
        let t = recovered.begin();
        for page in 0..32u64 {
            assert_eq!(recovered.read(t, page, 0, 8).unwrap(), vec![3u8; 8]);
        }
    }

    #[test]
    fn concurrent_writers_group_commit() {
        let db = Arc::new(ExecDb::new(small_cfg()));
        crossbeam::thread::scope(|s| {
            for w in 0..4usize {
                let db = Arc::clone(&db);
                s.spawn(move |_| {
                    for i in 0..25u64 {
                        let page = (w as u64) * 16 + (i % 16);
                        db.run_txn(w, |ctx| ctx.write(page, 0, &i.to_le_bytes()))
                            .unwrap();
                    }
                });
            }
        })
        .unwrap();
        let stats = db.stats();
        assert_eq!(stats.committed, 100);
        assert!(stats.group_commits <= stats.commits_grouped);
    }

    #[test]
    fn deadlock_is_broken_and_both_txns_finish() {
        let db = Arc::new(ExecDb::new(small_cfg()));
        // classic crossover: worker 0 writes P then Q, worker 1 writes Q
        // then P — must terminate via victimisation + retry
        crossbeam::thread::scope(|s| {
            for (w, (a, b)) in [(7u64, 9u64), (9, 7)].into_iter().enumerate() {
                let db = Arc::clone(&db);
                s.spawn(move |_| {
                    for i in 0..20u64 {
                        db.run_txn(w, |ctx| {
                            ctx.write(a, 0, &i.to_le_bytes())?;
                            ctx.write(b, 8, &i.to_le_bytes())
                        })
                        .unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(db.stats().committed, 40);
    }

    /// Write `page` in `t`: commit on success, abort on a conflict and
    /// return its cause.
    fn write_or_abort(db: &ExecDb, mut t: Txn, page: u64) -> Option<ConflictCause> {
        match db.write(&mut t, page, 0, b"x") {
            Ok(()) => {
                db.commit(t).unwrap().wait().unwrap();
                None
            }
            Err(e) => {
                assert!(e.lock_conflict().is_some(), "{e:?}");
                let cause = t.conflict;
                db.abort(t).unwrap();
                cause
            }
        }
    }

    /// `parked` writes `pp` on a thread and must block; once it waits,
    /// `other` writes `po`. Returns each side's conflict cause.
    fn collide(
        db: &ExecDb,
        (parked, pp): (Txn, u64),
        (other, po): (Txn, u64),
    ) -> (Option<ConflictCause>, Option<ConflictCause>) {
        std::thread::scope(|s| {
            let h = s.spawn(|| write_or_abort(db, parked, pp));
            while db.wait_stats().waiting_txns == 0 {
                std::thread::yield_now();
            }
            let theirs = write_or_abort(db, other, po);
            (h.join().unwrap(), theirs)
        })
    }

    #[test]
    fn lock_conflicts_are_tagged_with_their_cause() {
        let db = ExecDb::new(small_cfg());
        // both read page 5, then both want X: the younger closes the
        // cycle while holding S on the page it converts
        let (mut old, mut young) = (db.begin(0), db.begin(1));
        db.read(&mut old, 5, 0, 8).unwrap();
        db.read(&mut young, 5, 0, 8).unwrap();
        let got = collide(&db, (old, 5), (young, 5));
        assert_eq!(got, (None, Some(ConflictCause::Conversion)));
        // same shape, but the younger parks first: the older's request
        // closes the cycle and cancels the younger's wait
        let (mut old, mut young) = (db.begin(0), db.begin(1));
        db.read(&mut old, 5, 0, 8).unwrap();
        db.read(&mut young, 5, 0, 8).unwrap();
        let got = collide(&db, (young, 5), (old, 5));
        assert_eq!(got, (Some(ConflictCause::Victim), None));
        // X-X crossover on two pages: a cycle with no conversion in it
        let (mut old, mut young) = (db.begin(0), db.begin(1));
        db.write(&mut old, 7, 0, b"o").unwrap();
        db.write(&mut young, 9, 0, b"y").unwrap();
        let got = collide(&db, (old, 9), (young, 7));
        assert_eq!(got, (None, Some(ConflictCause::Cycle)));
    }

    #[test]
    fn killed_stream_reroutes_and_acked_commits_recover() {
        let cfg = small_cfg(); // 3 streams
        let db = ExecDb::new(cfg.clone());
        // phase 1: healthy commits spread across all streams
        for i in 0..12u64 {
            db.run_txn(i as usize, |ctx| ctx.write(i, 0, &(0xA0 | i).to_le_bytes()))
                .unwrap();
        }
        // kill stream 0's device: every write from now on fails
        db.inject_stream_fault(0, FaultPlan::new().fail_from_write(0))
            .unwrap();
        // phase 2: every transaction must still land — those routed to
        // the dead stream fail, quarantine it, and retry on survivors
        for i in 0..24u64 {
            db.run_txn(i as usize, |ctx| {
                ctx.write(24 + i, 0, &(0xB0 | i).to_le_bytes())
            })
            .unwrap();
        }
        assert_eq!(db.stats().committed, 36);
        assert!(db.live_streams() >= 2, "at most one stream may die");
        // recovery merges the quarantined stream's durable prefix with
        // the survivors: every acked value is present
        let image = db.crash_image().unwrap();
        let (mut recovered, _) = WalDb::recover(image, cfg.wal).unwrap();
        let t = recovered.begin();
        for i in 0..12u64 {
            assert_eq!(
                recovered.read(t, i, 0, 8).unwrap(),
                (0xA0 | i).to_le_bytes(),
                "pre-kill commit on page {i} lost"
            );
        }
        for i in 0..24u64 {
            assert_eq!(
                recovered.read(t, 24 + i, 0, 8).unwrap(),
                (0xB0 | i).to_le_bytes(),
                "post-kill commit on page {} lost",
                24 + i
            );
        }
    }

    #[test]
    fn degraded_mode_sheds_load_below_minimum_fleet() {
        let mut cfg = small_cfg();
        cfg.min_live_streams = 3; // all three streams required
        let db = ExecDb::new(cfg);
        db.run_txn(0, |ctx| ctx.write(1, 0, b"ok")).unwrap();
        assert!(!db.is_degraded());
        db.inner
            .quarantine_stream(1, &AppenderError::ThreadDeath("induced".into()));
        match db.run_txn(0, |ctx| ctx.write(2, 0, b"no")) {
            Err(ExecError::Degraded { live: 2, min: 3 }) => {}
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert!(db.is_degraded());
        assert!(db.obs().snapshot().counter("failover.degraded_rejects") >= Some(1));
    }

    #[test]
    fn rejoin_clears_degraded_and_restores_routing() {
        // Satellite regression: degraded mode used to be a one-way
        // latch — quarantine below min_live_streams set it, nothing
        // cleared it. A rejoin that restores the fleet must un-latch it.
        let mut cfg = small_cfg();
        cfg.min_live_streams = 3;
        let db = ExecDb::new(cfg.clone());
        for i in 0..6u64 {
            db.run_txn(i as usize, |ctx| ctx.write(i, 0, &(0xC0 | i).to_le_bytes()))
                .unwrap();
        }
        db.inner
            .quarantine_stream(1, &AppenderError::ThreadDeath("induced".into()));
        assert!(db.is_degraded());
        assert!(matches!(
            db.run_txn(0, |ctx| ctx.write(20, 0, b"no")),
            Err(ExecError::Degraded { live: 2, min: 3 })
        ));
        let report = db.rejoin_stream(1).expect("healthy device must rejoin");
        assert_eq!(report.stream, 1);
        assert_eq!(report.live_streams, 3);
        assert!(!report.replaced_device);
        assert!(!db.is_degraded(), "rejoin must un-latch degraded mode");
        assert!(!db.is_stream_dead(1));
        // the readmitted fleet serves again, including stream 1
        for i in 0..12u64 {
            db.run_txn(i as usize, |ctx| {
                ctx.write(32 + i, 0, &(0xD0 | i).to_le_bytes())
            })
            .unwrap();
        }
        let snap = db.obs().snapshot();
        assert!(snap.counter("failover.rejoins") >= Some(1));
        assert_eq!(snap.gauge("failover.live_streams"), Some(3));
        // nothing acked before, during, or after the churn is lost
        let image = db.crash_image().unwrap();
        let (mut recovered, _) = WalDb::recover(image, cfg.wal).unwrap();
        let t = recovered.begin();
        for i in 0..6u64 {
            assert_eq!(
                recovered.read(t, i, 0, 8).unwrap(),
                (0xC0 | i).to_le_bytes()
            );
        }
        for i in 0..12u64 {
            assert_eq!(
                recovered.read(t, 32 + i, 0, 8).unwrap(),
                (0xD0 | i).to_le_bytes()
            );
        }
    }

    #[test]
    fn rejoin_refuses_a_still_broken_device_and_stays_quarantined() {
        let cfg = small_cfg();
        let db = ExecDb::new(cfg);
        db.inject_stream_fault(0, FaultPlan::new().fail_from_write(0))
            .unwrap();
        // drive work until the stream is quarantined
        for i in 0..24u64 {
            db.run_txn(i as usize, |ctx| ctx.write(i, 0, b"x")).unwrap();
        }
        let t0 = Instant::now();
        while !db.is_stream_dead(0) && t0.elapsed() < Duration::from_secs(5) {
            db.run_txn(0, |ctx| ctx.write(1, 0, b"y")).unwrap();
        }
        assert!(db.is_stream_dead(0));
        let err = db.rejoin_stream(0).unwrap_err();
        match err {
            ExecError::Rejoin { stream: 0, reason } => {
                assert!(
                    reason.contains("device probe"),
                    "unexpected reason: {reason}"
                )
            }
            other => panic!("expected Rejoin, got {other:?}"),
        }
        assert!(db.is_stream_dead(0), "failed rejoin must leave quarantine");
        // the vaulted durable prefix still serves crash images
        let image = db.crash_image().unwrap();
        assert_eq!(image.logs.len(), 3);
        // rejoining a live stream is refused too
        assert!(matches!(
            db.rejoin_stream(1),
            Err(ExecError::Rejoin { stream: 1, .. })
        ));
    }

    #[test]
    fn orphaned_fragments_reroute_after_rejoin() {
        // A transaction writes a fragment that is still volatile when
        // its stream dies; the stream rejoins (volatile tail lost, the
        // ticket now orphaned) before the transaction commits. The
        // commit path must re-append the orphan under a new ticket —
        // against the rejoined incarnation itself — and still land.
        let cfg = small_cfg();
        let db = ExecDb::new(cfg.clone());
        for i in 0..6u64 {
            db.run_txn(i as usize, |ctx| ctx.write(i, 0, &(0xE0 | i).to_le_bytes()))
                .unwrap();
        }
        let mut t = db.begin(0);
        db.write(&mut t, 40, 0, b"orphan-me").unwrap();
        let victim = t.home();
        let old_seq = *t.tickets.get(&victim).expect("fragment ticket");
        db.inner
            .quarantine_stream(victim, &AppenderError::ThreadDeath("induced".into()));
        let report = db.rejoin_stream(victim).unwrap();
        assert!(
            report.orphaned_tickets >= 1,
            "the volatile fragment must be orphaned"
        );
        assert!(db.appender(victim).orphaned(old_seq));
        // commit re-appends the orphan and succeeds
        db.commit(t).unwrap().wait().unwrap();
        let snap = db.obs().snapshot();
        assert!(snap.counter("failover.rerouted_fragments") >= Some(1));
        let image = db.crash_image().unwrap();
        let (mut recovered, _) = WalDb::recover(image, cfg.wal).unwrap();
        let tr = recovered.begin();
        assert_eq!(recovered.read(tr, 40, 0, 9).unwrap(), b"orphan-me");
    }

    #[test]
    fn replace_stream_archives_platter_and_keeps_acked_commits() {
        let cfg = small_cfg();
        let db = ExecDb::new(cfg.clone());
        for i in 0..12u64 {
            db.run_txn(i as usize, |ctx| ctx.write(i, 0, &(0x10 | i).to_le_bytes()))
                .unwrap();
        }
        db.inject_stream_fault(0, FaultPlan::new().fail_from_write(0))
            .unwrap();
        for i in 0..24u64 {
            db.run_txn(i as usize, |ctx| {
                ctx.write(24 + i, 0, &(0x20 | i).to_le_bytes())
            })
            .unwrap();
        }
        let t0 = Instant::now();
        while !db.is_stream_dead(0) && t0.elapsed() < Duration::from_secs(5) {
            db.run_txn(0, |ctx| ctx.write(1, 0, b"y")).unwrap();
        }
        // the device never recovers: swap in a blank one, archive the old
        let report = db.replace_stream(0).unwrap();
        assert!(report.replaced_device);
        assert_eq!(report.live_streams, 3);
        assert!(!db.is_stream_dead(0));
        for i in 0..12u64 {
            db.run_txn(i as usize, |ctx| {
                ctx.write(50 + i, 0, &(0x30 | i).to_le_bytes())
            })
            .unwrap();
        }
        // the crash image carries the archived platter alongside the
        // three live ones; recovery merges all four
        let image = db.crash_image().unwrap();
        assert_eq!(image.logs.len(), 4, "archived platter missing from image");
        let (mut recovered, _) = WalDb::recover(image, cfg.wal).unwrap();
        let t = recovered.begin();
        for i in 0..12u64 {
            assert_eq!(
                recovered.read(t, i, 0, 8).unwrap(),
                (0x10 | i).to_le_bytes()
            );
        }
        for i in 0..24u64 {
            assert_eq!(
                recovered.read(t, 24 + i, 0, 8).unwrap(),
                (0x20 | i).to_le_bytes()
            );
        }
        for i in 0..12u64 {
            assert_eq!(
                recovered.read(t, 50 + i, 0, 8).unwrap(),
                (0x30 | i).to_le_bytes()
            );
        }
    }

    #[test]
    fn dead_stream_is_exactly_a_quarantined_stream() {
        // A stream leaves routing only by quarantine and re-enters it
        // only by rejoin or replace: at every step of a kill → rejoin →
        // kill → replace cycle, the selector's dead bit and the
        // appender's quarantine flag agree on every stream.
        let db = ExecDb::new(small_cfg());
        let agree = |step: &str| {
            for s in 0..3 {
                assert_eq!(
                    db.is_stream_dead(s),
                    db.appender(s).is_quarantined(),
                    "stream {s} after {step}"
                );
            }
        };
        // drive commits until stream 1 is quarantined, and wait for the
        // quarantine to finish publishing (the counter bumps last)
        let kill = |handle: FaultHandle, quarantines: u64| {
            db.inject_stream_fault_handle(1, handle).unwrap();
            let t0 = Instant::now();
            while db.obs().snapshot().counter("failover.quarantined") < Some(quarantines) {
                assert!(t0.elapsed() < Duration::from_secs(5), "stream 1 never died");
                db.run_txn(1, |ctx| ctx.write(1, 0, b"k")).unwrap();
            }
        };
        for i in 0..6u64 {
            db.run_txn(i as usize, |ctx| ctx.write(i, 0, b"warm"))
                .unwrap();
        }
        agree("healthy start");
        let handle = FaultInjector::handle(FaultPlan::new().fail_from_write(0));
        kill(handle.clone(), 1);
        assert!(db.is_stream_dead(1));
        agree("first kill");
        handle.lock().revive();
        db.rejoin_stream(1).unwrap();
        assert!(!db.is_stream_dead(1));
        agree("rejoin");
        kill(
            FaultInjector::handle(FaultPlan::new().fail_from_write(0)),
            2,
        );
        assert!(db.is_stream_dead(1));
        agree("second kill");
        db.replace_stream(1).unwrap();
        assert!(!db.is_stream_dead(1));
        agree("replace");
        assert_eq!(db.live_streams(), 3);
    }

    #[test]
    fn membership_manager_auto_rejoins_a_recovered_device() {
        // End-to-end tentpole path: device dies mid-run, the fault later
        // clears (operator fixes the platter), and the supervisor's
        // rejoin probe readmits the stream with no explicit call.
        let mut cfg = small_cfg();
        cfg.health_interval_us = 500;
        cfg.rejoin_probe_ms = 20;
        let db = ExecDb::new(cfg.clone());
        for i in 0..6u64 {
            db.run_txn(i as usize, |ctx| ctx.write(i, 0, &(0x40 | i).to_le_bytes()))
                .unwrap();
        }
        // a handle we keep: fail every write from now on, until revived
        let handle = FaultInjector::handle(FaultPlan::new().fail_from_write(0));
        db.inject_stream_fault_handle(0, handle.clone()).unwrap();
        for i in 0..24u64 {
            db.run_txn(i as usize, |ctx| {
                ctx.write(24 + i, 0, &(0x50 | i).to_le_bytes())
            })
            .unwrap();
        }
        let t0 = Instant::now();
        while !db.is_stream_dead(0) && t0.elapsed() < Duration::from_secs(5) {
            db.run_txn(0, |ctx| ctx.write(1, 0, b"y")).unwrap();
        }
        assert!(db.is_stream_dead(0));
        // while broken, probes keep failing and the stream stays out
        std::thread::sleep(Duration::from_millis(80));
        assert!(db.is_stream_dead(0));
        assert!(db.obs().snapshot().counter("failover.rejoin_probes_failed") >= Some(1));
        // the device comes back: clear the fault in place
        handle.lock().revive();
        let t0 = Instant::now();
        while db.is_stream_dead(0) && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            !db.is_stream_dead(0),
            "supervisor never rejoined the stream"
        );
        assert_eq!(db.live_streams(), 3);
        for i in 0..12u64 {
            db.run_txn(i as usize, |ctx| {
                ctx.write(50 + i, 0, &(0x60 | i).to_le_bytes())
            })
            .unwrap();
        }
        let image = db.crash_image().unwrap();
        let (mut recovered, _) = WalDb::recover(image, cfg.wal).unwrap();
        let t = recovered.begin();
        for i in 0..6u64 {
            assert_eq!(
                recovered.read(t, i, 0, 8).unwrap(),
                (0x40 | i).to_le_bytes()
            );
        }
        for i in 0..24u64 {
            assert_eq!(
                recovered.read(t, 24 + i, 0, 8).unwrap(),
                (0x50 | i).to_le_bytes()
            );
        }
        for i in 0..12u64 {
            assert_eq!(
                recovered.read(t, 50 + i, 0, 8).unwrap(),
                (0x60 | i).to_le_bytes()
            );
        }
    }

    #[test]
    fn run_txn_does_not_retry_indeterminate_commit_timeout() {
        // A timed-out commit wait leaves the request owned by the
        // group-commit daemon, which commits it once the device stall
        // clears — retrying would apply the transaction twice. run_txn
        // must return the Timeout without re-executing the body.
        let mut cfg = small_cfg();
        cfg.wal.log_streams = 1;
        cfg.commit_timeout_ms = 40;
        let db = ExecDb::new(cfg.clone());
        // stall the first log write (the commit force) past the waiter's
        // deadline, but let it complete; the device stays healthy after
        db.inject_stream_fault(0, FaultPlan::new().stick_write(0, 300))
            .unwrap();
        let bodies = AtomicU64::new(0);
        let err = db
            .run_txn(0, |ctx| {
                bodies.fetch_add(1, Ordering::Relaxed);
                ctx.write(1, 0, b"once")
            })
            .unwrap_err();
        match err {
            ExecError::Timeout { what, .. } => assert_eq!(what, "group commit"),
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert_eq!(
            bodies.load(Ordering::Relaxed),
            1,
            "an indeterminate commit timeout must not re-execute the body"
        );
        // the daemon still owned the request: once the stall cleared the
        // original commit became durable anyway — exactly the outcome a
        // retry would have doubled
        let image = db.crash_image().unwrap();
        let (mut recovered, _) = WalDb::recover(image, cfg.wal).unwrap();
        let t = recovered.begin();
        assert_eq!(recovered.read(t, 1, 0, 4).unwrap(), b"once");
        // the daemon bumps `committed` after the gate releases; give the
        // bookkeeping a moment to land
        let t0 = Instant::now();
        while db.stats().committed != 1 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        assert_eq!(db.stats().committed, 1);
    }

    #[test]
    fn commit_wait_times_out_with_typed_error_against_stuck_appender() {
        // satellite: the commit-gate timeout path. One stream whose
        // device stalls 2 s per I/O; commit deadline 50 ms.
        let mut cfg = small_cfg();
        cfg.wal.log_streams = 1;
        cfg.commit_timeout_ms = 50;
        cfg.append_wait_ms = 400;
        let db = ExecDb::new(cfg);
        let mut t = db.begin(0);
        db.write(&mut t, 1, 0, b"stuck").unwrap();
        // stall the next log write for 2 s, then fail the device outright
        db.inject_stream_fault(0, FaultPlan::new().stick_write(0, 2_000).fail_from_write(1))
            .unwrap();
        let t0 = Instant::now();
        let err = db.commit(t).unwrap().wait().unwrap_err();
        let waited = t0.elapsed();
        match err {
            ExecError::Timeout { what, waited_ms } => {
                assert_eq!(what, "group commit");
                assert!(waited_ms >= 50);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(
            waited < Duration::from_millis(1_500),
            "wait returned in {waited:?}, after the stall rather than the deadline"
        );
    }

    #[test]
    fn snapshot_reads_see_committed_writes_and_zeroes_elsewhere() {
        let db = ExecDb::new(small_cfg());
        db.run_txn(0, |ctx| ctx.write(3, 10, b"published")).unwrap();
        let bytes = db
            .run_ro_txn(0, |snap| snap.read(3, 10, 9))
            .expect("snapshot read");
        assert_eq!(&bytes, b"published");
        // a page no committed txn ever wrote reads as zeroes
        let zeroes = db.run_ro_txn(0, |snap| snap.read(7, 0, 16)).unwrap();
        assert_eq!(zeroes, vec![0u8; 16]);
        // bounds still enforced
        assert!(db.run_ro_txn(0, |snap| snap.read(999, 0, 1)).is_err());
        let snap = db.obs().snapshot();
        assert_eq!(snap.counter("mvcc.ro_txns"), Some(2));
        assert!(snap.counter("mvcc.snapshots_opened") >= Some(3));
        assert_eq!(snap.gauge("mvcc.snapshots_open"), Some(0));
    }

    #[test]
    fn snapshot_does_not_see_uncommitted_writes_and_never_blocks_on_x_locks() {
        let db = ExecDb::new(small_cfg());
        db.run_txn(0, |ctx| ctx.write(5, 0, b"old")).unwrap();
        // leave a transaction holding the X lock with dirty bytes applied
        let mut t = db.begin(1);
        db.write(&mut t, 5, 0, b"new").unwrap();
        // the snapshot read returns immediately with the committed image
        let t0 = Instant::now();
        let bytes = db.run_ro_txn(2, |snap| snap.read(5, 0, 3)).unwrap();
        assert_eq!(&bytes, b"old", "snapshot leaked an uncommitted write");
        assert!(
            t0.elapsed() < LOCK_WAIT_TIMEOUT / 2,
            "snapshot read appears to have waited on the lock table"
        );
        db.abort(t).unwrap();
        // the aborted write never becomes visible
        let bytes = db.run_ro_txn(2, |snap| snap.read(5, 0, 3)).unwrap();
        assert_eq!(&bytes, b"old");
    }

    #[test]
    fn snapshot_pins_its_view_while_later_commits_publish() {
        let db = ExecDb::new(small_cfg());
        db.run_txn(0, |ctx| ctx.write(1, 0, &[1])).unwrap();
        db.run_ro_txn(0, |snap| {
            assert_eq!(snap.read(1, 0, 1)?[0], 1);
            // commit twice more while this snapshot is open
            db.run_txn(0, |ctx| ctx.write(1, 0, &[2])).unwrap();
            db.run_txn(0, |ctx| ctx.write(1, 0, &[3])).unwrap();
            // still the pinned view
            assert_eq!(snap.read(1, 0, 1)?[0], 1);
            Ok(())
        })
        .unwrap();
        // a fresh snapshot sees the newest commit
        let now = db.run_ro_txn(0, |snap| snap.read(1, 0, 1)).unwrap();
        assert_eq!(now[0], 3);
        // quiesced: GC leaves exactly one live version for the page
        let reclaimed = db.mvcc_gc();
        assert!(reclaimed >= 2, "old pinned versions not reclaimed");
        assert_eq!(db.mvcc().pool().chain_len(PageId(1)), 1);
    }

    fn policy_cfg(logging: LoggingPolicy) -> ExecConfig {
        let mut cfg = small_cfg();
        cfg.wal.logging = logging;
        cfg
    }

    #[test]
    fn command_logged_txns_survive_crash_recovery() {
        let cfg = policy_cfg(LoggingPolicy::Command);
        let db = ExecDb::new(cfg.clone());
        db.run_txn(0, |ctx| {
            ctx.write(3, 0, b"cmd")?;
            ctx.add_u64(4, 0, 7)
        })
        .unwrap();
        db.run_txn(1, |ctx| ctx.add_u64(4, 0, 5)).unwrap();
        // committed effects are visible live, through the pinned pages
        let mut t = db.begin(0);
        assert_eq!(db.read(&mut t, 4, 0, 8).unwrap(), 12u64.to_le_bytes());
        db.commit(t).unwrap().wait().unwrap();
        let snap = db.obs().snapshot();
        assert!(snap.counter("wal.logical_records") >= Some(2));
        assert!(snap.counter("wal.bytes_saved") > Some(0));
        // and re-execution from the command records alone reproduces them
        let image = db.crash_image().unwrap();
        let (mut recovered, report) = WalDb::recover(image, cfg.wal).unwrap();
        assert!(report.logical_commits >= 2);
        assert!(report.reexecuted_ops >= 3);
        // every redo item was an op re-execution: no fragments were logged
        assert_eq!(report.redone_updates, report.reexecuted_ops);
        let t2 = recovered.begin();
        assert_eq!(recovered.read(t2, 3, 0, 3).unwrap(), b"cmd");
        assert_eq!(recovered.read(t2, 4, 0, 8).unwrap(), 12u64.to_le_bytes());
    }

    #[test]
    fn adaptive_policy_decides_per_txn() {
        let cfg = policy_cfg(LoggingPolicy::Adaptive { threshold_pct: 100 });
        let db = ExecDb::new(cfg.clone());
        // small write: the command record undercuts its fragment
        db.run_txn(0, |ctx| ctx.add_u64(1, 0, 9)).unwrap();
        // one one-byte write: the command record's fixed header (48 bytes
        // in all) outweighs the 47-byte fragment, so this txn spills
        db.run_txn(1, |ctx| ctx.write(2, 0, b"p")).unwrap();
        let snap = db.obs().snapshot();
        assert!(snap.counter("wal.logical_records") >= Some(1));
        assert!(snap.counter("wal.deferred_spills") >= Some(1));
        let image = db.crash_image().unwrap();
        let (mut recovered, report) = WalDb::recover(image, cfg.wal).unwrap();
        assert!(report.logical_commits >= 1);
        assert!(report.redone_updates >= 1, "spilled txn logged fragments");
        let t = recovered.begin();
        assert_eq!(recovered.read(t, 1, 0, 8).unwrap(), 9u64.to_le_bytes());
        assert_eq!(recovered.read(t, 2, 0, 1).unwrap(), b"p");
    }

    #[test]
    fn deferred_abort_reverts_in_memory_and_logs_nothing() {
        let cfg = policy_cfg(LoggingPolicy::Command);
        let db = ExecDb::new(cfg.clone());
        db.run_txn(0, |ctx| ctx.write(6, 0, b"base")).unwrap();
        let mut t = db.begin(0);
        db.write(&mut t, 6, 0, b"gone").unwrap();
        db.add_u64(&mut t, 7, 0, 3).unwrap();
        db.abort(t).unwrap();
        let mut t = db.begin(0);
        assert_eq!(db.read(&mut t, 6, 0, 4).unwrap(), b"base");
        assert_eq!(db.read(&mut t, 7, 0, 8).unwrap(), 0u64.to_le_bytes());
        db.commit(t).unwrap().wait().unwrap();
        let image = db.crash_image().unwrap();
        let (mut recovered, report) = WalDb::recover(image, cfg.wal).unwrap();
        // the aborted txn hit the log zero times: no fragments, no CLRs,
        // and exactly the one committed command record to replay
        assert_eq!(report.redone_updates, report.reexecuted_ops);
        assert_eq!(report.undone_updates, 0);
        assert_eq!(report.logical_commits, 1);
        let t2 = recovered.begin();
        assert_eq!(recovered.read(t2, 6, 0, 4).unwrap(), b"base");
        assert_eq!(recovered.read(t2, 7, 0, 8).unwrap(), 0u64.to_le_bytes());
    }

    #[test]
    fn pin_budget_overflow_spills_and_stays_correct() {
        // per-shard budget = 16/4 - 1 = 3 distinct pinned pages; a txn
        // touching 32 pages must spill to physical logging mid-flight
        let cfg = policy_cfg(LoggingPolicy::Command);
        let db = ExecDb::new(cfg.clone());
        db.run_txn(0, |ctx| {
            for page in 0..32u64 {
                ctx.write(page, 0, &page.to_le_bytes())?;
            }
            Ok(())
        })
        .unwrap();
        assert!(db.obs().snapshot().counter("wal.deferred_spills") >= Some(1));
        let image = db.crash_image().unwrap();
        let (mut recovered, _) = WalDb::recover(image, cfg.wal).unwrap();
        let t = recovered.begin();
        for page in 0..32u64 {
            assert_eq!(recovered.read(t, page, 0, 8).unwrap(), page.to_le_bytes());
        }
    }

    #[test]
    fn mixed_policy_workload_recovers_under_concurrency() {
        let cfg = policy_cfg(LoggingPolicy::Adaptive { threshold_pct: 100 });
        let db = Arc::new(ExecDb::new(cfg.clone()));
        crossbeam::thread::scope(|s| {
            for w in 0..4usize {
                let db = Arc::clone(&db);
                s.spawn(move |_| {
                    for i in 0..20u64 {
                        // hot counter page per worker + a private write
                        db.run_txn(w, |ctx| {
                            ctx.add_u64(w as u64, 0, 1)?;
                            ctx.write(8 + w as u64 * 8 + (i % 8), 0, &i.to_le_bytes())
                        })
                        .unwrap();
                    }
                });
            }
        })
        .unwrap();
        let image = db.crash_image().unwrap();
        let (mut recovered, report) = WalDb::recover(image, cfg.wal).unwrap();
        assert!(report.logical_commits > 0, "adaptive never command-logged");
        let t = recovered.begin();
        for w in 0..4u64 {
            assert_eq!(recovered.read(t, w, 0, 8).unwrap(), 20u64.to_le_bytes());
        }
    }
}
