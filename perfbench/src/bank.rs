//! The bank: one account per page of an `ExecDb`, transfers through
//! `run_txn` and balance reads through `run_ro_txn`. Shared by the
//! `oltp-bank` and `crash-restart` workloads.

use crate::report::Report;
use crate::stats::{hist_mean, hist_q, merged_histogram, ratio, Rng, Samples};
use crate::trace::{SpanLog, Tracer, NONE};
use rmdb_exec::{ExecConfig, ExecDb, ExecError};
use rmdb_obs::{MetricsSnapshot, Registry};
use rmdb_storage::Disk;
use rmdb_wal::{CrashImage, WalConfig, WalDb, WalError};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Accounts, one 8-byte balance at offset 0 of each page.
pub const ACCOUNTS: u64 = 4096;
/// Opening balance of every account.
pub const INITIAL: u64 = 1_000;
/// Buffer-pool frames: the accounts are 16x the pool.
const POOL_FRAMES: usize = 256;
/// Accounts written per preload transaction.
const PRELOAD_BATCH: u64 = 64;
/// Hot accounts, and the share of picks that go to them.
const HOT: u64 = 8;
const HOT_PCT: u64 = 90;
/// Share of operations that are transfers; the rest are balance reads.
const TRANSFER_PCT: u64 = 80;
/// Accounts per balance read.
pub const BALANCE_READ: usize = 4;

/// Pipeline configuration: MemDisk, 2 log streams, no modeled force
/// delay, so timings are the program's own CPU and handoff cost.
pub fn config(obs: &Registry, extra_pages: u64, log_frames: u64) -> ExecConfig {
    ExecConfig {
        wal: wal_config(extra_pages, log_frames),
        pool_shards: 8,
        force_delay_us: 0,
        obs: obs.clone(),
        ..ExecConfig::default()
    }
}

pub fn wal_config(extra_pages: u64, log_frames: u64) -> WalConfig {
    WalConfig {
        data_pages: ACCOUNTS + extra_pages,
        pool_frames: POOL_FRAMES,
        log_streams: 2,
        log_frames,
        seed: 1985,
        ..WalConfig::default()
    }
}

pub fn balance_of(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte balance"))
}

/// Give every account its opening balance.
pub fn preload(db: &ExecDb) -> Result<(), ExecError> {
    for base in (0..ACCOUNTS).step_by(PRELOAD_BATCH as usize) {
        db.run_txn(0, |ctx| {
            for a in base..base + PRELOAD_BATCH {
                ctx.write(a, 0, &INITIAL.to_le_bytes())?;
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// One generated request.
pub enum Op {
    Transfer { from: u64, to: u64, amount: u64 },
    Balance([u64; BALANCE_READ]),
}

/// Generates the request stream: 80% transfers, 20% balance reads, 90%
/// of account picks from a small hot set chosen by the seed.
pub struct Gen {
    rng: Rng,
    hot: [u64; HOT as usize],
}

impl Gen {
    /// Generator `stream` of run seed `seed`; every stream of one seed
    /// shares the hot set.
    pub fn new(seed: u64, stream: u64) -> Gen {
        let mut h = Rng::new(seed, u64::MAX);
        let hot = std::array::from_fn(|_| h.below(ACCOUNTS));
        Gen {
            rng: Rng::new(seed, stream),
            hot,
        }
    }

    fn account(&mut self) -> u64 {
        if self.rng.pct(HOT_PCT) {
            self.hot[self.rng.below(HOT) as usize]
        } else {
            self.rng.below(ACCOUNTS)
        }
    }

    pub fn next(&mut self) -> Op {
        if self.rng.pct(TRANSFER_PCT) {
            let from = self.account();
            let mut to = self.account();
            if to == from {
                to = (from + 1 + self.rng.below(ACCOUNTS - 1)) % ACCOUNTS;
            }
            Op::Transfer {
                from,
                to,
                amount: 1 + self.rng.below(50),
            }
        } else {
            Op::Balance(std::array::from_fn(|_| self.account()))
        }
    }
}

/// Move `min(amount, balance of from)` from `from` to `to`; returns the
/// amount moved. Spans: `exec.txn` around the call, `exec.body` around
/// each attempt with `lock.read`/`lock.write` inside it,
/// `exec.retry_gap` between attempts, `exec.commit_wait` from the last
/// attempt to the return.
pub fn transfer(
    db: &ExecDb,
    qp: usize,
    from: u64,
    to: u64,
    amount: u64,
    tr: &RefCell<Tracer>,
) -> Result<u64, ExecError> {
    let moved = Cell::new(0);
    if !tr.borrow().on() {
        db.run_txn(qp, |ctx| {
            let f = balance_of(&ctx.read(from, 0, 8)?);
            let t = balance_of(&ctx.read(to, 0, 8)?);
            let m = amount.min(f);
            ctx.write(from, 0, &(f - m).to_le_bytes())?;
            ctx.write(to, 0, &(t + m).to_le_bytes())?;
            moved.set(m);
            Ok(())
        })?;
        return Ok(moved.get());
    }
    let req = tr.borrow_mut().request();
    let root = tr.borrow_mut().open(req, "exec.txn", NONE);
    let last_end: Cell<Option<Instant>> = Cell::new(None);
    let out = db.run_txn(qp, |ctx| {
        let start = Instant::now();
        if let Some(prev) = last_end.get() {
            tr.borrow_mut()
                .record(req, "exec.retry_gap", root, prev, start);
        }
        let body = tr.borrow_mut().open(req, "exec.body", root);
        let res = (|| {
            let f = balance_of(&timed(tr, req, "lock.read", body, || ctx.read(from, 0, 8))?);
            let t = balance_of(&timed(tr, req, "lock.read", body, || ctx.read(to, 0, 8))?);
            let m = amount.min(f);
            timed(tr, req, "lock.write", body, || {
                ctx.write(from, 0, &(f - m).to_le_bytes())
            })?;
            timed(tr, req, "lock.write", body, || {
                ctx.write(to, 0, &(t + m).to_le_bytes())
            })?;
            moved.set(m);
            Ok(())
        })();
        last_end.set(tr.borrow_mut().close(body));
        res
    });
    let mut t = tr.borrow_mut();
    if let (Ok(()), Some(end)) = (&out, last_end.get()) {
        t.record(req, "exec.commit_wait", root, end, Instant::now());
    }
    t.close(root);
    out.map(|()| moved.get())
}

/// Run `f` inside a span named `name`.
fn timed<T>(
    tr: &RefCell<Tracer>,
    req: u64,
    name: &'static str,
    parent: usize,
    f: impl FnOnce() -> T,
) -> T {
    let s = tr.borrow_mut().open(req, name, parent);
    let out = f();
    tr.borrow_mut().close(s);
    out
}

/// Sum `accounts` in one snapshot. Spans: `mvcc.ro_txn` around the call,
/// `mvcc.read` around each page read.
pub fn balance(
    db: &ExecDb,
    qp: usize,
    accounts: &[u64],
    tr: &RefCell<Tracer>,
) -> Result<u64, ExecError> {
    let req = tr.borrow_mut().request();
    let root = tr.borrow_mut().open(req, "mvcc.ro_txn", NONE);
    let out = db.run_ro_txn(qp, |snap| {
        let mut sum = 0u64;
        for &a in accounts {
            sum += balance_of(&timed(tr, req, "mvcc.read", root, || snap.read(a, 0, 8))?);
        }
        Ok(sum)
    });
    tr.borrow_mut().close(root);
    out
}

/// Every balance, read under shared locks in one transaction.
pub fn locked_balances(db: &ExecDb) -> Result<Vec<u64>, ExecError> {
    let out = RefCell::new(Vec::new());
    db.run_txn(0, |ctx| {
        let mut v = Vec::with_capacity(ACCOUNTS as usize);
        for a in 0..ACCOUNTS {
            v.push(balance_of(&ctx.read(a, 0, 8)?));
        }
        *out.borrow_mut() = v;
        Ok(())
    })?;
    Ok(out.into_inner())
}

/// Every balance of a recovered database, pages `0..pages`, timing each
/// read into `lat`.
pub fn recovered_balances(
    db: &mut WalDb,
    pages: u64,
    lat: &mut Samples,
) -> Result<Vec<u64>, WalError> {
    let t = db.begin();
    let mut out = Vec::with_capacity(pages as usize);
    for p in 0..pages {
        let start = Instant::now();
        let b = db.read(t, p, 0, 8)?;
        lat.push(start.elapsed());
        out.push(balance_of(&b));
    }
    db.abort(t)?;
    Ok(out)
}

/// Log frames in use across a crash image's log disks.
pub fn log_frames_used(image: &CrashImage) -> u64 {
    image
        .logs
        .iter()
        .map(|d| (0..d.capacity()).filter(|&a| d.is_allocated(a)).count() as u64)
        .sum()
}

/// A crash image's own copy, for one recovery to consume.
pub fn copy_image(image: &CrashImage) -> CrashImage {
    CrashImage {
        data: image.data.snapshot(),
        logs: image.logs.iter().map(Disk::snapshot).collect(),
    }
}

/// Whether two disks hold the same frames.
pub fn disks_identical(a: &Disk, b: &Disk) -> bool {
    a.capacity() == b.capacity()
        && (0..a.capacity()).all(|f| {
            a.is_allocated(f) == b.is_allocated(f)
                && (!a.is_allocated(f) || a.read_frame(f).ok() == b.read_frame(f).ok())
        })
}

/// Latencies and counts one client measured.
#[derive(Default)]
pub struct ClientOut {
    pub commits: Samples,
    pub reads: Samples,
    pub attempted: u64,
    pub errors: Vec<String>,
}

/// Pipeline counters summed over the databases of a run, read from
/// outside before each database is dropped.
#[derive(Default)]
pub struct ExecTotals {
    pub committed: u64,
    attempts: u64,
    conflict_retries: u64,
    evictions: u64,
    waits_enqueued: u64,
    deadlocks: u64,
    max_wait_depth: u64,
    pub log_frames: u64,
    log_fill: f64,
    /// `ExecStats::wal_forces` and `ExecDb::pool_hit_miss`, kept only as
    /// evidence that they mislead (see README.md).
    stat_wal_forces: u64,
    pool_misses: u64,
}

impl ExecTotals {
    /// Fold in a quiesced database's counters.
    pub fn absorb(&mut self, db: &ExecDb) {
        let s = db.stats();
        self.committed += s.committed;
        self.attempts += s.attempts;
        self.conflict_retries += s.conflict_retries;
        self.stat_wal_forces += s.wal_forces;
        self.evictions += db.metrics().gauge("pool.evictions").unwrap_or(0);
        let w = db.wait_stats();
        self.waits_enqueued += w.waits_enqueued;
        self.deadlocks += w.deadlocks_detected;
        self.max_wait_depth = self.max_wait_depth.max(w.max_wait_depth as u64);
        self.pool_misses += db.pool_hit_miss().1;
    }

    /// Fold in the log frames of that database's crash image.
    pub fn absorb_log(&mut self, image: &CrashImage, capacity_per_stream: u64) {
        let used = log_frames_used(image);
        self.log_frames += used;
        let cap = capacity_per_stream * image.logs.len() as u64;
        self.log_fill = self.log_fill.max(ratio(used as f64, cap as f64));
    }
}

/// Per-layer metrics of the commit pipeline, its locks, log, pool and
/// version store: spans from `log`, counters from the pipeline's registry.
pub fn exec_layer_metrics(rep: &mut Report, log: &SpanLog, snap: &MetricsSnapshot, t: &ExecTotals) {
    let mut body = log.durations("exec.body");
    rep.set("exec.body_us.p50", body.quantile(0.5));
    rep.set("exec.body_us.p99", body.quantile(0.99));
    rep.set(
        "exec.retry_gap_us.p99",
        log.durations("exec.retry_gap").quantile(0.99),
    );
    let mut wait = log.durations("exec.commit_wait");
    rep.set("exec.commit_wait_us.p50", wait.quantile(0.5));
    rep.set("exec.commit_wait_us.p99", wait.quantile(0.99));
    rep.set(
        "exec.attempts_per_commit",
        ratio(t.attempts as f64, t.committed as f64),
    );
    rep.set("exec.conflict_retries", t.conflict_retries as f64);
    rep.set(
        "lock.read_us.p99",
        log.durations("lock.read").quantile(0.99),
    );
    rep.set(
        "lock.write_us.p99",
        log.durations("lock.write").quantile(0.99),
    );
    rep.set("lock.waits_enqueued", t.waits_enqueued as f64);
    rep.set("lock.deadlocks_detected", t.deadlocks as f64);
    rep.set("lock.max_wait_depth", t.max_wait_depth as f64);
    let forces = snap.counter_family("wal.forces.s") as f64;
    rep.set(
        "group.batch_size.p50",
        hist_q(snap, "group.batch_size", 0.5),
    );
    rep.set("group.dwell_us.p50", hist_q(snap, "group.dwell_us", 0.5));
    rep.set("group.dwell_us.p99", hist_q(snap, "group.dwell_us", 0.99));
    let completions = snap.counter("group.completions").unwrap_or(0) as f64;
    rep.set("group.commits_per_force", ratio(completions, forces));
    rep.set("wal.forces", forces);
    rep.set(
        "wal.force_us.p99",
        merged_histogram(snap, "wal.force_us.s").quantile(0.99) as f64,
    );
    rep.set(
        "wal.fragments_appended",
        snap.counter_family("wal.fragments_appended.s") as f64,
    );
    rep.set(
        "wal.log_frames_per_commit",
        ratio(t.log_frames as f64, t.committed as f64),
    );
    rep.set("wal.log_fill", t.log_fill);
    rep.set(
        "failover.quarantined",
        snap.counter("failover.quarantined").unwrap_or(0) as f64,
    );
    rep.set(
        "pool.evictions_per_commit",
        ratio(t.evictions as f64, t.committed as f64),
    );
    rep.set("mvcc.read_us.p99", hist_q(snap, "mvcc.read_us", 0.99));
    rep.set("mvcc.chain_len.p99", hist_q(snap, "mvcc.chain_len", 0.99));
    rep.set(
        "mvcc.versions_live",
        snap.gauge("mvcc.versions_live").unwrap_or(0) as f64,
    );
    rep.set(
        "mvcc.snapshot_age.p99",
        hist_q(snap, "mvcc.snapshot_age", 0.99),
    );
    rep.note(format!(
        "counter hygiene: ExecStats::wal_forces = {} vs sum of wal.forces.s* = {forces}; \
         ExecDb::pool_hit_miss misses = {} vs pool.evictions = {} (neither is reported)",
        t.stat_wal_forces, t.pool_misses, t.evictions
    ));
}

/// Per-recovery means of the serial recovery's phase clock and counters.
pub fn recovery_layer_metrics(rep: &mut Report, snap: &MetricsSnapshot) {
    let n = snap
        .histogram("recovery.analysis_us")
        .map_or(0, |h| h.count) as f64;
    for (metric, hist) in [
        ("recovery.analysis_us", "recovery.analysis_us"),
        ("recovery.redo_us", "recovery.redo_us"),
        ("recovery.undo_us", "recovery.undo_us"),
        ("recovery.flush_us", "recovery.flush_us"),
    ] {
        rep.set(metric, hist_mean(snap, hist));
    }
    let per = |c: &str| ratio(snap.counter(c).unwrap_or(0) as f64, n);
    rep.set("recovery.records_scanned", per("recovery.records_scanned"));
    rep.set("recovery.redone_updates", per("recovery.redone_updates"));
}

/// Failed operations and pipeline health that count against a run: a
/// quarantined stream is a failure, never a slowdown.
pub fn check_fleet(rep: &mut Report, snap: &MetricsSnapshot) {
    let quarantined = snap.counter("failover.quarantined").unwrap_or(0);
    if quarantined > 0 {
        rep.fail(format!("{quarantined} log streams were quarantined"));
    }
}
