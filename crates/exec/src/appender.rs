//! One log processor as a real thread: an appender owning a
//! [`LogStream`] and draining a bounded MPSC channel of log fragments.
//!
//! The paper's log processors receive fragments from many query
//! processors and assemble them into 4 KB log pages. Here each
//! [`LogAppender`] thread does exactly that: fragments arrive over a
//! bounded channel (backpressure — a full queue blocks the producer, the
//! pipeline's flow control), are appended to the stream in ticket order,
//! and are made durable when a force request arrives. Consecutive
//! channel messages are drained in batches, so one `force()` covers every
//! fragment that raced in ahead of it — the stream-level half of group
//! commit.
//!
//! Producers never touch the stream itself. They hold a ticket — the
//! per-stream sequence number assigned at enqueue time — and synchronise
//! through [`LogAppender::wait_forced`], which parks on a condvar until
//! the appender reports the ticket durable. The WAL rule and the commit
//! protocol are both phrased as "force through ticket t".
//!
//! ## Failure surface
//!
//! The appender is the unit the failover supervisor watches, so its
//! failure modes are typed ([`AppenderError`]) and observable:
//!
//! * a **heartbeat** counter the thread bumps every loop iteration
//!   (idle ticks included) *and* around each long I/O section — per
//!   batched request, after every force, and through each slice of the
//!   modeled device delay — so a frozen heartbeat means one device I/O
//!   is wedged, not merely that a batch is long or the device slow;
//! * a **sticky storage error**: stream appends/forces write through
//!   [`Disk::write_page_verified`](rmdb_storage::Disk::write_page_verified),
//!   the device's bounded retry, so an error surfacing here is post-retry
//!   and classified *persistent*;
//! * a **vault**: the thread deposits its [`LogStream`] into a shared
//!   slot on every exit path — including panic unwind — so the durable
//!   log disk survives thread death and stays snapshot-able;
//! * a **quarantine flag** set by failover: producers fail fast with
//!   [`AppenderError::Quarantined`] instead of queueing work a dead
//!   stream will never make durable.
//!
//! The thread itself keeps running after a sticky error *and* after
//! quarantine, serving [`Req::Snapshot`] requests — crash images of a
//! quarantined stream's durable prefix go through the ordinary snapshot
//! path, which is what lets recovery merge that prefix with the
//! survivors' logs.

use crate::error::{AppenderError, ExecError};
use crate::sync::lock_ok;
use rmdb_obs::{Counter, EventKind, Histogram, Registry};
use rmdb_storage::{Disk, FaultHandle, StorageError};
use rmdb_wal::record::LogRecord;
use rmdb_wal::stream::LogStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default producer wait deadline (overridable per appender via
/// [`LogAppender::spawn_rejoined`]; never hit in healthy runs).
pub const DEFAULT_WAIT: Duration = Duration::from_secs(30);

/// Idle receive timeout: the thread wakes at least this often to bump
/// its heartbeat, so supervision can tell "idle" from "wedged".
const HEARTBEAT_TICK: Duration = Duration::from_millis(10);

/// Requests crossing the fragment channel.
enum Req {
    /// Append a record; `seq` is the ticket assigned at enqueue time.
    Append { rec: LogRecord, seq: u64 },
    /// Make everything appended up to (at least) `seq` durable.
    Force { seq: u64 },
    /// Reply with a crash snapshot of the log disk.
    Snapshot { reply: SyncSender<Disk> },
    /// Attach a fault injector to the stream's disk (mid-run failure
    /// injection — the `--kill-stream` mechanism).
    InjectFaults { handle: FaultHandle },
    /// Panic the thread (failure-injection hook for supervision tests).
    #[cfg(test)]
    Panic,
    /// Drain and exit the thread.
    Shutdown,
}

/// Durability bookkeeping shared between producers and the appender.
struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    /// Bumped by the thread every loop iteration (see [`HEARTBEAT_TICK`])
    /// and around each long I/O section — per batched request, after each
    /// force, and through each slice of the modeled device delay — so a
    /// frozen heartbeat isolates a single wedged I/O.
    heartbeat: AtomicU64,
    /// Cleared by the vault guard on every thread exit path.
    alive: AtomicBool,
    /// Where the thread deposits its stream on exit — normal return,
    /// channel close, or panic unwind alike.
    vault: Mutex<Option<LogStream>>,
}

#[derive(Default)]
struct State {
    /// Highest ticket appended to the stream (volatile).
    appended: u64,
    /// Highest ticket covered by a completed force (durable).
    forced: u64,
    /// First storage error the appender hit, if any; sticky.
    error: Option<StorageError>,
    /// Set by failover: no new fragments should be routed here.
    quarantined: bool,
}

/// A point-in-time health reading, consumed by the supervisor.
#[derive(Debug, Clone)]
pub struct AppenderProbe {
    /// Thread loop iterations so far; a constant value across probes
    /// separated by more than the heartbeat tick means a wedged thread.
    pub heartbeat: u64,
    /// Whether the thread is still running.
    pub alive: bool,
    /// Highest ticket durable.
    pub forced: u64,
    /// The sticky storage error, if any.
    pub error: Option<StorageError>,
    /// Whether failover already quarantined this stream.
    pub quarantined: bool,
}

/// The appender thread's metric handles (one set per stream).
struct ThreadObs {
    /// Stream index, for event attribution.
    idx: u64,
    /// Fragments the thread appended to the stream.
    appended: Counter,
    /// Forces the thread performed (not requests — actual `force()` calls).
    forces: Counter,
    /// Wall-clock per force, including the modeled device service time.
    force_us: Histogram,
    /// Event sink for [`EventKind::StreamForce`].
    obs: Registry,
}

/// Ticket-space state a rejoined stream incarnation inherits from its
/// predecessor, so tickets stay unique per stream across churn and the
/// durable prefix stays queryable through the fresh handle.
#[derive(Debug, Clone, Default)]
pub struct TicketInheritance {
    /// First ticket the new incarnation will issue (old `issued + 1`).
    pub next_seq: u64,
    /// Highest durable ticket of the old incarnation; `is_forced` keeps
    /// answering true for the inherited prefix.
    pub forced: u64,
    /// Orphan ranges `(lo, hi]`: tickets issued by a dead incarnation but
    /// never forced — lost with its volatile tail, never durable here.
    pub orphans: Vec<(u64, u64)>,
}

/// Handle to one log-processor thread.
pub struct LogAppender {
    /// Stream index in the fleet, for error attribution.
    idx: usize,
    /// Ticket issue + enqueue, atomically (so channel order == seq order).
    tx: Mutex<SyncSender<Req>>,
    next_seq: AtomicU64,
    shared: Arc<Shared>,
    /// Producer wait deadline for `wait_forced` / `snapshot`.
    wait: Duration,
    /// Tickets issued by dead predecessor incarnations that never became
    /// durable: `(lo, hi]` ranges, immutable for this incarnation's
    /// lifetime. `is_forced` must never report them durable even though
    /// the inherited `forced` watermark has passed them.
    orphans: Vec<(u64, u64)>,
    /// Fragments enqueued — the producer-side half of the
    /// `fragments_enqueued == fragments_appended` conservation law.
    enqueued: Counter,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl LogAppender {
    /// Spawn an appender thread owning `stream`, with a bounded queue of
    /// `queue` fragments. `force_delay` models the log device's service
    /// time per force (the paper's log disks are rotational; a force is
    /// never free) — the appender thread sleeps that long after each
    /// completed force, during which further commits pile up behind it
    /// and share the next force. Zero means an ideal device.
    pub fn spawn(stream: LogStream, queue: usize, force_delay: Duration) -> Self {
        LogAppender::spawn_rejoined(
            stream,
            queue,
            force_delay,
            &Registry::new(),
            0,
            DEFAULT_WAIT,
            TicketInheritance::default(),
        )
    }

    /// [`LogAppender::spawn`] publishing per-stream metrics into `obs`:
    /// `wal.fragments_enqueued.s<idx>` (producer side, at ticket issue),
    /// `wal.fragments_appended.s<idx>` (appender side, after the stream
    /// write), `wal.forces.s<idx>` and the `wal.force_us.s<idx>` latency
    /// histogram, plus a [`EventKind::StreamForce`] event per force.
    /// `wait` bounds every producer-side blocking wait on this appender.
    ///
    /// The appender continues the ticket space in `inherit`: a fresh
    /// stream passes [`TicketInheritance::default`] (tickets start at 1),
    /// a rejoined incarnation its predecessor's, so the inherited durable
    /// prefix stays `is_forced` and the orphaned tail stays *not* durable
    /// — forever. The `appended` and `forced` watermarks both start at
    /// the inherited `forced`, so a post-rejoin force can never sweep the
    /// orphan range into durability.
    pub fn spawn_rejoined(
        stream: LogStream,
        queue: usize,
        force_delay: Duration,
        obs: &Registry,
        idx: usize,
        wait: Duration,
        inherit: TicketInheritance,
    ) -> Self {
        let (tx, rx) = sync_channel(queue.max(1));
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                appended: inherit.forced,
                forced: inherit.forced,
                ..State::default()
            }),
            cv: Condvar::new(),
            heartbeat: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            vault: Mutex::new(None),
        });
        let thread_shared = Arc::clone(&shared);
        let tobs = ThreadObs {
            idx: idx as u64,
            appended: obs.counter(&format!("wal.fragments_appended.s{idx}")),
            forces: obs.counter(&format!("wal.forces.s{idx}")),
            force_us: obs.histogram(&format!("wal.force_us.s{idx}")),
            obs: obs.clone(),
        };
        let handle = std::thread::Builder::new()
            .name("rmdb-log-appender".into())
            .spawn(move || run(stream, rx, thread_shared, force_delay, tobs))
            .expect("spawn log appender");
        LogAppender {
            idx,
            tx: Mutex::new(tx),
            next_seq: AtomicU64::new(inherit.next_seq.max(1)),
            shared,
            wait,
            orphans: inherit.orphans,
            enqueued: obs.counter(&format!("wal.fragments_enqueued.s{idx}")),
            handle: Some(handle),
        }
    }

    /// Stream index in the fleet.
    pub fn index(&self) -> usize {
        self.idx
    }

    fn err(&self, error: AppenderError) -> ExecError {
        ExecError::Appender {
            stream: self.idx,
            error,
        }
    }

    fn thread_gone(&self) -> ExecError {
        self.err(AppenderError::ThreadDeath(
            "fragment channel closed".to_string(),
        ))
    }

    /// Enqueue a fragment; returns its ticket. Blocks when the queue is
    /// full (backpressure). Fails fast on a quarantined or errored stream.
    pub fn append(&self, rec: LogRecord) -> Result<u64, ExecError> {
        self.check_error()?;
        let tx = lock_ok(&self.tx);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        // Count before the send so a live sample never sees
        // appended > enqueued; a failed send leaves enqueued one ahead,
        // but then the appender is gone and the pipeline is erroring out.
        self.enqueued.inc();
        tx.send(Req::Append { rec, seq })
            .map_err(|_| self.thread_gone())?;
        Ok(seq)
    }

    /// Ask the appender to make ticket `seq` durable (non-blocking).
    pub fn request_force(&self, seq: u64) -> Result<(), ExecError> {
        if self.orphaned(seq) {
            return Err(self.err(AppenderError::Orphaned { seq }));
        }
        if self.is_forced(seq) {
            return Ok(());
        }
        let tx = lock_ok(&self.tx);
        tx.send(Req::Force { seq })
            .map_err(|_| self.thread_gone())?;
        Ok(())
    }

    /// Whether ticket `seq` is already durable (cheap check). `forced`
    /// is monotone truth about the platter — it stays valid after an
    /// error or a quarantine, which is exactly what lets the WAL-rule
    /// flush path keep flushing pages whose fragments were durable on a
    /// stream before it died.
    pub fn is_forced(&self, seq: u64) -> bool {
        !self.orphaned(seq) && lock_ok(&self.shared.state).forced >= seq
    }

    /// Whether ticket `seq` was orphaned by a predecessor incarnation's
    /// death: issued but never forced before the rejoin, so its bytes
    /// are gone. Such a ticket can never become durable here — the
    /// fragment must be re-appended (here or elsewhere) under a new
    /// ticket.
    pub fn orphaned(&self, seq: u64) -> bool {
        self.orphans.iter().any(|&(lo, hi)| lo < seq && seq <= hi)
    }

    /// The accumulated orphan ranges `(lo, hi]`, oldest first.
    pub fn orphan_ranges(&self) -> &[(u64, u64)] {
        &self.orphans
    }

    /// Highest durable ticket — the quarantined stream's durable prefix
    /// boundary the reroute logic partitions against.
    pub fn forced_high(&self) -> u64 {
        lock_ok(&self.shared.state).forced
    }

    /// Park until ticket `seq` is durable (or the appender fails —
    /// classified, in precedence order: already durable wins over any
    /// failure state, then quarantine, sticky error, thread death, and
    /// finally the bounded-wait deadline).
    pub fn wait_forced(&self, seq: u64) -> Result<(), ExecError> {
        if self.orphaned(seq) {
            // never durable here — waiting out the deadline would be lying
            return Err(self.err(AppenderError::Orphaned { seq }));
        }
        let start = Instant::now();
        let mut state = lock_ok(&self.shared.state);
        loop {
            if state.forced >= seq {
                return Ok(());
            }
            if state.quarantined {
                return Err(self.err(AppenderError::Quarantined));
            }
            if let Some(e) = &state.error {
                return Err(self.err(AppenderError::Persistent(e.clone())));
            }
            if !self.shared.alive.load(Ordering::Acquire) {
                return Err(self.err(AppenderError::ThreadDeath(
                    "appender thread exited".to_string(),
                )));
            }
            let elapsed = start.elapsed();
            if elapsed >= self.wait {
                return Err(self.err(AppenderError::Stalled {
                    what: "force",
                    waited_ms: elapsed.as_millis() as u64,
                }));
            }
            let (next, _) = self
                .shared
                .cv
                .wait_timeout(state, self.wait - elapsed)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
        }
    }

    /// Force + wait: returns once ticket `seq` is on stable storage.
    pub fn force_through(&self, seq: u64) -> Result<(), ExecError> {
        self.request_force(seq)?;
        self.wait_forced(seq)
    }

    /// Crash snapshot of this stream's log disk, as of "now" in the
    /// appender's frame of reference (between batches, never mid-force).
    /// If the thread is dead the snapshot is served from the vaulted
    /// stream instead — a quarantined stream's durable prefix stays
    /// reachable for crash images.
    pub fn snapshot(&self) -> Result<Disk, ExecError> {
        let (reply, rx) = sync_channel(1);
        let sent = {
            let tx = lock_ok(&self.tx);
            tx.send(Req::Snapshot { reply }).is_ok()
        };
        if sent {
            match rx.recv_timeout(self.wait) {
                Ok(disk) => return Ok(disk),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(self.err(AppenderError::Stalled {
                        what: "snapshot",
                        waited_ms: self.wait.as_millis() as u64,
                    }));
                }
                // the thread exited with our request still queued: its
                // vault guard has already deposited the stream (locals
                // drop before the channel receiver) — fall through
                Err(RecvTimeoutError::Disconnected) => {}
            }
        }
        let vault = lock_ok(&self.shared.vault);
        match vault.as_ref() {
            Some(stream) => Ok(stream.disk_snapshot()),
            None => Err(self.err(AppenderError::ThreadDeath(
                "appender thread gone and stream unrecoverable".to_string(),
            ))),
        }
    }

    /// Attach a fault injector to the stream's disk, from inside the
    /// appender thread (so it composes with in-flight appends exactly
    /// like a real device failing under load).
    pub fn inject_faults(&self, handle: FaultHandle) -> Result<(), ExecError> {
        let tx = lock_ok(&self.tx);
        tx.send(Req::InjectFaults { handle })
            .map_err(|_| self.thread_gone())?;
        Ok(())
    }

    /// Panic the appender thread (supervision/diagnostics tests).
    #[cfg(test)]
    pub(crate) fn inject_panic(&self) {
        let tx = lock_ok(&self.tx);
        let _ = tx.send(Req::Panic);
    }

    /// Mark this stream quarantined: producers fail fast, and waiters
    /// currently parked in [`LogAppender::wait_forced`] wake immediately
    /// with [`AppenderError::Quarantined`] instead of riding out their
    /// full deadline.
    pub fn quarantine(&self) {
        let mut state = lock_ok(&self.shared.state);
        state.quarantined = true;
        self.shared.cv.notify_all();
    }

    /// Whether failover has quarantined this stream.
    pub fn is_quarantined(&self) -> bool {
        lock_ok(&self.shared.state).quarantined
    }

    /// A point-in-time health reading for the supervisor.
    pub fn probe(&self) -> AppenderProbe {
        let state = lock_ok(&self.shared.state);
        AppenderProbe {
            heartbeat: self.shared.heartbeat.load(Ordering::Relaxed),
            alive: self.shared.alive.load(Ordering::Acquire),
            forced: state.forced,
            error: state.error.clone(),
            quarantined: state.quarantined,
        }
    }

    /// Tickets issued so far (fragments enqueued).
    pub fn tickets_issued(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed) - 1
    }

    fn check_error(&self) -> Result<(), ExecError> {
        let state = lock_ok(&self.shared.state);
        if state.quarantined {
            return Err(self.err(AppenderError::Quarantined));
        }
        match &state.error {
            Some(e) => Err(self.err(AppenderError::Persistent(e.clone()))),
            None => Ok(()),
        }
    }

    /// Stop the thread in place without consuming the handle (the rejoin
    /// protocol's first step: producers may still hold stale clones of
    /// this handle while the fleet slot is being replaced). Sends
    /// shutdown and waits — bounded by the producer deadline — for the
    /// vault guard to run. Idempotent: an already-dead thread returns
    /// `Ok` immediately.
    pub fn retire(&self) -> Result<(), ExecError> {
        {
            let tx = lock_ok(&self.tx);
            let _ = tx.send(Req::Shutdown);
        }
        let start = Instant::now();
        while self.shared.alive.load(Ordering::Acquire) {
            let elapsed = start.elapsed();
            if elapsed >= self.wait {
                return Err(self.err(AppenderError::Stalled {
                    what: "retire",
                    waited_ms: elapsed.as_millis() as u64,
                }));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Probe the vaulted stream's device in place: one header-frame read
    /// and write-back through the fault injector. Cheap health gate for
    /// the membership manager's rejoin probe — fails while the device's
    /// permanent fault is still tripped, succeeds once a fault-clear has
    /// revived it. Errors if the thread has not deposited the stream.
    pub fn probe_vaulted_device(&self) -> Result<(), ExecError> {
        let mut vault = lock_ok(&self.shared.vault);
        match vault.as_mut() {
            Some(stream) => stream
                .probe_device()
                .map_err(|e| self.err(AppenderError::Persistent(e))),
            None => Err(self.err(AppenderError::ThreadDeath(
                "stream not vaulted; retire the thread first".to_string(),
            ))),
        }
    }

    /// Take the vaulted stream (rejoin hand-off); the caller now owns the
    /// device and this handle can no longer serve snapshots.
    pub fn take_vaulted(&self) -> Result<LogStream, ExecError> {
        lock_ok(&self.shared.vault).take().ok_or_else(|| {
            self.err(AppenderError::ThreadDeath(
                "appender exited without depositing its stream".to_string(),
            ))
        })
    }

    /// Put a stream back in the vault (a rejoin step failed after the
    /// hand-off; crash images must keep finding the durable prefix).
    pub fn return_to_vault(&self, stream: LogStream) {
        *lock_ok(&self.shared.vault) = Some(stream);
    }

    /// Stop the thread and take the stream back (final shutdown). A
    /// panicked thread surfaces as [`AppenderError::ThreadDeath`] with
    /// the panic payload preserved for diagnosis.
    pub fn shutdown(mut self) -> Result<LogStream, ExecError> {
        {
            let tx = lock_ok(&self.tx);
            let _ = tx.send(Req::Shutdown);
        }
        let handle = self.handle.take().expect("appender joined twice");
        match handle.join() {
            Ok(()) => {
                let mut vault = lock_ok(&self.shared.vault);
                vault.take().ok_or_else(|| {
                    self.err(AppenderError::ThreadDeath(
                        "appender exited without depositing its stream".to_string(),
                    ))
                })
            }
            Err(payload) => Err(self.err(AppenderError::ThreadDeath(panic_message(&*payload)))),
        }
    }
}

impl Drop for LogAppender {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            {
                let tx = lock_ok(&self.tx);
                let _ = tx.send(Req::Shutdown);
            }
            let _ = handle.join();
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deposits the thread's stream into the shared vault on every exit
/// path — normal return and panic unwind alike — and clears `alive` so
/// waiters and the supervisor observe the death promptly.
struct VaultGuard {
    shared: Arc<Shared>,
    stream: Option<LogStream>,
}

impl VaultGuard {
    fn stream(&mut self) -> &mut LogStream {
        self.stream.as_mut().expect("stream vaulted while running")
    }
}

impl Drop for VaultGuard {
    fn drop(&mut self) {
        if let Some(stream) = self.stream.take() {
            *lock_ok(&self.shared.vault) = Some(stream);
        }
        self.shared.alive.store(false, Ordering::Release);
        // wake parked waiters so they classify the death immediately
        self.shared.cv.notify_all();
    }
}

/// The appender thread: drain → append in ticket order → force once per
/// batch if anyone asked → publish progress.
fn run(
    stream: LogStream,
    rx: Receiver<Req>,
    shared: Arc<Shared>,
    force_delay: Duration,
    tobs: ThreadObs,
) {
    let mut guard = VaultGuard {
        shared: Arc::clone(&shared),
        stream: Some(stream),
    };
    loop {
        shared.heartbeat.fetch_add(1, Ordering::Relaxed);
        let first = match rx.recv_timeout(HEARTBEAT_TICK) {
            Ok(req) => req,
            Err(RecvTimeoutError::Timeout) => continue, // idle heartbeat
            Err(RecvTimeoutError::Disconnected) => return, // all senders gone
        };
        let mut batch = vec![first];
        while let Ok(more) = rx.try_recv() {
            batch.push(more);
        }
        let mut appended_high = 0u64;
        let mut force_to: Option<u64> = None;
        let mut snapshots: Vec<SyncSender<Disk>> = Vec::new();
        let mut shutdown = false;
        let mut error: Option<StorageError> = None;
        for req in batch {
            // one beat per request: a large batch of appends (each a
            // potential page write) must not freeze the heartbeat for
            // the whole batch — the supervisor's stall deadline is meant
            // to bound a *single* wedged device I/O, not batch length
            shared.heartbeat.fetch_add(1, Ordering::Relaxed);
            match req {
                Req::Append { rec, seq } => {
                    if error.is_none() {
                        match guard.stream().append(&rec) {
                            Ok(_) => tobs.appended.inc(),
                            Err(e) => error = Some(e),
                        }
                    }
                    appended_high = appended_high.max(seq);
                }
                Req::Force { seq } => {
                    force_to = Some(force_to.map_or(seq, |f| f.max(seq)));
                }
                Req::Snapshot { reply } => snapshots.push(reply),
                Req::InjectFaults { handle } => guard.stream().attach_faults(handle),
                #[cfg(test)]
                Req::Panic => panic!("injected appender panic"),
                Req::Shutdown => shutdown = true,
            }
        }
        {
            let mut state = lock_ok(&shared.state);
            if appended_high > 0 {
                state.appended = state.appended.max(appended_high);
            }
            let need_force = error.is_none() && force_to.is_some_and(|seq| seq > state.forced);
            let appended_now = state.appended;
            drop(state);
            if need_force {
                let t_force = Instant::now();
                let force_res = guard.stream().force();
                // the force is the longest single I/O section; beat as
                // soon as it returns so only time spent *inside* the
                // device counts against the supervisor's stall deadline
                shared.heartbeat.fetch_add(1, Ordering::Relaxed);
                if let Err(e) = force_res {
                    error = Some(e);
                } else {
                    if !force_delay.is_zero() {
                        // modeled device service time; commits queue
                        // behind it. Sleep in heartbeat-sized slices so
                        // a configured delay near (or beyond) the
                        // supervisor deadline does not read as a wedged
                        // thread — the device is slow, not stuck.
                        let mut left = force_delay;
                        while !left.is_zero() {
                            let step = left.min(HEARTBEAT_TICK);
                            std::thread::sleep(step);
                            shared.heartbeat.fetch_add(1, Ordering::Relaxed);
                            left -= step;
                        }
                    }
                    let us = t_force.elapsed().as_micros() as u64;
                    tobs.forces.inc();
                    tobs.force_us.record(us);
                    tobs.obs.emit(EventKind::StreamForce, 0, tobs.idx, 0, us);
                }
            }
            let mut state = lock_ok(&shared.state);
            if need_force && error.is_none() {
                // everything appended before the force is now durable
                state.forced = state.forced.max(appended_now);
            }
            if let Some(e) = error {
                state.error.get_or_insert(e);
            }
            shared.cv.notify_all();
        }
        for reply in snapshots {
            let _ = reply.send(guard.stream().disk_snapshot());
        }
        if shutdown {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmdb_storage::{FaultInjector, FaultPlan};
    use rmdb_wal::ParallelLogManager;
    use rmdb_wal::SelectionPolicy;

    fn commit(txn: u64) -> LogRecord {
        LogRecord::Commit { txn }
    }

    #[test]
    fn appended_records_become_durable_after_force() {
        let app = LogAppender::spawn(LogStream::create(256), 64, Duration::ZERO);
        let t1 = app.append(commit(1)).unwrap();
        let t2 = app.append(commit(2)).unwrap();
        assert!(t2 > t1);
        app.force_through(t2).unwrap();
        assert!(app.is_forced(t1) && app.is_forced(t2));
        let disk = app.snapshot().unwrap();
        let mgr = ParallelLogManager::open(vec![disk], SelectionPolicy::Cyclic, 0).unwrap();
        assert_eq!(mgr.scan_all()[0], vec![commit(1), commit(2)]);
    }

    #[test]
    fn unforced_tail_missing_from_snapshot() {
        let app = LogAppender::spawn(LogStream::create(256), 64, Duration::ZERO);
        let t1 = app.append(commit(1)).unwrap();
        app.force_through(t1).unwrap();
        let _t2 = app.append(commit(2)).unwrap();
        // no force for t2 — snapshot may contain only the durable prefix
        let disk = app.snapshot().unwrap();
        let mgr = ParallelLogManager::open(vec![disk], SelectionPolicy::Cyclic, 0).unwrap();
        let recs = mgr.scan_all()[0].clone();
        assert!(recs.starts_with(&[commit(1)]));
        assert!(recs.len() <= 2);
    }

    #[test]
    fn concurrent_producers_keep_ticket_order() {
        let app = std::sync::Arc::new(LogAppender::spawn(
            LogStream::create(1024),
            8,
            Duration::ZERO,
        ));
        crossbeam::thread::scope(|s| {
            for p in 0..4u64 {
                let app = std::sync::Arc::clone(&app);
                s.spawn(move |_| {
                    for i in 0..50 {
                        let seq = app.append(commit(p * 1000 + i)).unwrap();
                        if i % 10 == 0 {
                            app.force_through(seq).unwrap();
                        }
                    }
                });
            }
        })
        .unwrap();
        let app = std::sync::Arc::into_inner(app).unwrap();
        assert_eq!(app.tickets_issued(), 200);
        let stream = app.shutdown().unwrap();
        // records landed in ticket order: scan parses cleanly and the
        // durable prefix is a permutation-free interleaving
        let (recs, stats) = stream.scan_with_stats();
        assert_eq!(stats.corrupt_pages, 0);
        assert!(!recs.is_empty());
    }

    #[test]
    fn shutdown_returns_stream_with_pending_appends() {
        let app = LogAppender::spawn(LogStream::create(256), 64, Duration::ZERO);
        let seq = app.append(commit(7)).unwrap();
        app.force_through(seq).unwrap();
        let stream = app.shutdown().unwrap();
        assert_eq!(stream.scan(), vec![commit(7)]);
    }

    #[test]
    fn panicked_thread_surfaces_payload_in_typed_error() {
        let app = LogAppender::spawn(LogStream::create(256), 64, Duration::ZERO);
        let seq = app.append(commit(1)).unwrap();
        app.force_through(seq).unwrap();
        app.inject_panic();
        match app.shutdown().map(|_| ()) {
            Err(ExecError::Appender {
                stream: 0,
                error: AppenderError::ThreadDeath(msg),
            }) => assert!(
                msg.contains("injected appender panic"),
                "panic payload lost: {msg:?}"
            ),
            other => panic!("expected ThreadDeath with payload, got {other:?}"),
        }
    }

    #[test]
    fn dead_thread_still_serves_snapshot_from_vault() {
        let app = LogAppender::spawn(LogStream::create(256), 64, Duration::ZERO);
        let seq = app.append(commit(9)).unwrap();
        app.force_through(seq).unwrap();
        app.inject_panic();
        // wait for the unwind to deposit the stream
        let t0 = Instant::now();
        while app.probe().alive && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!app.probe().alive, "thread should have died");
        let disk = app.snapshot().expect("vault snapshot");
        let mgr = ParallelLogManager::open(vec![disk], SelectionPolicy::Cyclic, 0).unwrap();
        assert_eq!(mgr.scan_all()[0], vec![commit(9)]);
        // waiters on new work classify the death rather than hanging
        match app.wait_forced(seq + 1) {
            Err(ExecError::Appender {
                error: AppenderError::ThreadDeath(_),
                ..
            }) => {}
            other => panic!("expected ThreadDeath, got {other:?}"),
        }
    }

    #[test]
    fn persistent_device_fault_is_classified_and_prefix_survives() {
        let app = LogAppender::spawn(LogStream::create(256), 64, Duration::ZERO);
        let t1 = app.append(commit(1)).unwrap();
        app.force_through(t1).unwrap();
        // kill the device: every write from now on fails
        app.inject_faults(FaultInjector::handle(FaultPlan::new().fail_from_write(0)))
            .unwrap();
        let t2 = app.append(commit(2)).unwrap();
        match app.force_through(t2) {
            Err(ExecError::Appender {
                error: AppenderError::Persistent(_),
                ..
            }) => {}
            other => panic!("expected Persistent, got {other:?}"),
        }
        // the durable prefix is still reachable: forced is monotone truth
        assert!(app.is_forced(t1));
        let disk = app.snapshot().unwrap();
        let mgr = ParallelLogManager::open(vec![disk], SelectionPolicy::Cyclic, 0).unwrap();
        assert_eq!(mgr.scan_all()[0], vec![commit(1)]);
    }

    #[test]
    fn quarantine_fails_fast_and_wakes_waiters() {
        let app = std::sync::Arc::new(LogAppender::spawn(
            LogStream::create(256),
            64,
            Duration::ZERO,
        ));
        let t1 = app.append(commit(1)).unwrap();
        app.force_through(t1).unwrap();
        let t2 = app.append(commit(2)).unwrap();
        let waiter = {
            let app = std::sync::Arc::clone(&app);
            std::thread::spawn(move || app.wait_forced(t2 + 100))
        };
        std::thread::sleep(Duration::from_millis(20));
        app.quarantine();
        // the parked waiter wakes with Quarantined, well inside the deadline
        match waiter.join().expect("waiter") {
            Err(ExecError::Appender {
                error: AppenderError::Quarantined,
                ..
            }) => {}
            other => panic!("expected Quarantined, got {other:?}"),
        }
        // new appends fail fast; durable facts remain queryable
        assert!(matches!(
            app.append(commit(3)),
            Err(ExecError::Appender {
                error: AppenderError::Quarantined,
                ..
            })
        ));
        assert!(app.is_forced(t1));
        assert!(app.is_quarantined());
    }

    #[test]
    fn rejoined_incarnation_inherits_prefix_and_orphans_the_volatile_tail() {
        let app = LogAppender::spawn(LogStream::create(256), 64, Duration::ZERO);
        let t1 = app.append(commit(1)).unwrap();
        app.force_through(t1).unwrap();
        let t2 = app.append(commit(2)).unwrap(); // never forced
        app.retire().unwrap();
        app.probe_vaulted_device().unwrap();
        let issued = app.tickets_issued();
        let forced = app.forced_high();
        assert_eq!((forced, issued), (t1, t2));
        let disk = app.take_vaulted().unwrap().into_disk();
        let reopened = LogStream::open(disk).unwrap();
        let next = LogAppender::spawn_rejoined(
            reopened,
            64,
            Duration::ZERO,
            &rmdb_obs::Registry::new(),
            0,
            Duration::from_secs(5),
            TicketInheritance {
                next_seq: issued + 1,
                forced,
                orphans: vec![(forced, issued)],
            },
        );
        // the durable prefix keeps reading as forced; the lost tail never does
        assert!(next.is_forced(t1));
        assert!(next.orphaned(t2));
        assert!(!next.is_forced(t2));
        match next.request_force(t2) {
            Err(ExecError::Appender {
                error: AppenderError::Orphaned { seq },
                ..
            }) => assert_eq!(seq, t2),
            other => panic!("expected Orphaned, got {other:?}"),
        }
        let t0 = Instant::now();
        match next.wait_forced(t2) {
            Err(ExecError::Appender {
                error: AppenderError::Orphaned { .. },
                ..
            }) => {}
            other => panic!("expected Orphaned, got {other:?}"),
        }
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "orphan wait must fail fast, not ride out the deadline"
        );
        // ticket space continues past the dead incarnation's issue point
        let t3 = next.append(commit(3)).unwrap();
        assert!(t3 > t2);
        next.force_through(t3).unwrap();
        // forcing new work must not sweep the orphan range into durability
        assert!(!next.is_forced(t2) && next.orphaned(t2));
        assert!(next.is_forced(t1) && next.is_forced(t3));
        // the platter holds exactly the durable records: old prefix + new tail
        let disk = next.snapshot().unwrap();
        let mgr = ParallelLogManager::open(vec![disk], SelectionPolicy::Cyclic, 0).unwrap();
        assert_eq!(mgr.scan_all()[0], vec![commit(1), commit(3)]);
    }

    #[test]
    fn retire_is_idempotent_and_vault_roundtrips() {
        let app = LogAppender::spawn(LogStream::create(256), 64, Duration::ZERO);
        let t1 = app.append(commit(1)).unwrap();
        app.force_through(t1).unwrap();
        app.retire().unwrap();
        app.retire().unwrap(); // already dead: immediate Ok
                               // snapshots are served from the vault while retired
        let disk = app.snapshot().unwrap();
        let mgr = ParallelLogManager::open(vec![disk], SelectionPolicy::Cyclic, 0).unwrap();
        assert_eq!(mgr.scan_all()[0], vec![commit(1)]);
        // a failed rejoin step puts the stream back: the vault keeps serving
        let stream = app.take_vaulted().unwrap();
        assert!(
            app.take_vaulted().is_err(),
            "vault must be empty after take"
        );
        assert!(app.probe_vaulted_device().is_err());
        app.return_to_vault(stream);
        app.probe_vaulted_device().unwrap();
        let disk = app.snapshot().unwrap();
        let mgr = ParallelLogManager::open(vec![disk], SelectionPolicy::Cyclic, 0).unwrap();
        assert_eq!(mgr.scan_all()[0], vec![commit(1)]);
    }
}
