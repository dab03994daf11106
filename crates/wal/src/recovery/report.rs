//! What recovery did: the base [`RecoveryReport`] every entry point
//! returns, and the [`RestartReport`] layered over it with the
//! checkpoint-bound accounting, the phase clock, and per-worker stats.

use crate::db::TxnId;
use std::time::Duration;

/// What recovery did, for observability and tests.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Streams scanned.
    pub streams_scanned: usize,
    /// Total durable records seen.
    pub records_scanned: usize,
    /// Transactions whose commit record was found.
    pub committed_txns: Vec<TxnId>,
    /// Transactions rolled back by recovery.
    pub loser_txns: Vec<TxnId>,
    /// Redo units applied (page image was stale): fragment installs plus
    /// the re-executed logical ops counted in `reexecuted_ops`.
    pub redone_updates: u64,
    /// Loser fragments undone.
    pub undone_updates: u64,
    /// Distinct pages recovery wrote back to the data disk: exactly the
    /// pages it changed (redo applied a unit, repaired a torn frame or
    /// started a fresh one, or undo reverted an update). A page redo read
    /// clean and left as read is already home and is not rewritten.
    pub pages_written: u64,
    /// Torn data pages reconstructed from the doublewrite buffer or from
    /// full-page (physical) log images.
    pub torn_pages_repaired: u64,
    /// Records salvaged from streams whose scan was cut short by a
    /// corrupt log page (zero when every stream scanned clean).
    pub salvaged_records: u64,
    /// Corrupt (torn) log pages quarantined during the scans.
    pub quarantined_log_pages: u64,
    /// Data pages that were corrupt and could not be rebuilt; the frame is
    /// left in place, so reading the page yields a typed error rather than
    /// silently invented contents.
    pub quarantined_data_pages: u64,
    /// Transient I/O faults ridden through by bounded retry: the read and
    /// write retries the run accrued on its data and log devices.
    pub retried_ios: u64,
    /// Duplicate update/compensation fragments skipped during analysis.
    /// Failover reroutes a dead stream's volatile fragments to a survivor;
    /// if the original turned out to be durable after all, both copies are
    /// in the logs, keyed by the same globally-unique `new_lsn`.
    pub duplicate_fragments: u64,
    /// Command-logged (logical) commit records found during analysis.
    pub logical_commits: u64,
    /// Logical ops re-executed during redo (the command-replay path, as
    /// opposed to fragment installs).
    pub reexecuted_ops: u64,
}

/// Wall-clock spent in each restart phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Scanning the streams, locating checkpoint bounds, building the redo
    /// and undo work lists, harvesting the doublewrite buffer.
    pub analysis: Duration,
    /// Sharded replay across the worker threads (longest worker bounds it).
    pub redo: Duration,
    /// Backward undo of losers, including compensation logging.
    pub undo: Duration,
    /// Forcing the logs, writing recovered pages home, truncating streams.
    pub flush: Duration,
    /// End-to-end restart time.
    pub total: Duration,
}

/// What one redo worker did — one histogram bucket per shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Shard index (0..K).
    pub shard: usize,
    /// Pages assigned to and processed by this worker.
    pub pages: u64,
    /// Fragments replayed (page image was stale).
    pub redone: u64,
    /// Fragments skipped by the per-shard idempotence check
    /// (`page.lsn >= new_lsn`: the update already reached the platter).
    pub skipped_idempotent: u64,
    /// Wall-clock this worker spent replaying its shard.
    pub busy: Duration,
}

/// What a run of the recovery engine did.
///
/// Extends the base [`RecoveryReport`] (available as
/// [`RestartReport::base`]) with the bound accounting, the phase clock, and
/// the per-worker histogram. Two restarts of the same crash image with
/// different worker counts agree on every field except the timings and the
/// per-worker split — that invariant is what the equivalence tests pin.
#[derive(Debug, Clone, Default)]
pub struct RestartReport {
    /// The base accounting: records scanned, winners and losers,
    /// redo/undo counts, torn-page repairs, salvage and quarantine counters.
    pub base: RecoveryReport,
    /// Worker threads used for the redo phase.
    pub workers: usize,
    /// Update/compensation records behind a stream's checkpoint bound whose
    /// redo was skipped outright (the bounding checkpoint proved them home).
    pub records_skipped: u64,
    /// Complete `CheckpointBegin`/`CheckpointEnd` pairs seen across streams.
    pub checkpoints_found: u64,
    /// Streams whose redo scan was bounded by a complete checkpoint pair.
    pub bounded_streams: usize,
    /// Streams whose scan prefix was durably truncated behind the bound.
    pub truncated_streams: usize,
    /// Wall-clock per phase.
    pub timings: PhaseTimings,
    /// Per-worker redo histogram, indexed by shard.
    pub per_worker: Vec<WorkerStats>,
}

impl RestartReport {
    /// The logical (timing-free) portion of the report, for equivalence
    /// assertions across worker counts.
    pub fn logical_summary(&self) -> String {
        format!(
            "scanned={} skipped={} ckpts={} bounded={} truncated={} \
             committed={:?} losers={:?} redone={} undone={} written={} \
             torn_repaired={} quarantined={} salvaged={} logical={} reexec_ops={}",
            self.base.records_scanned,
            self.records_skipped,
            self.checkpoints_found,
            self.bounded_streams,
            self.truncated_streams,
            self.base.committed_txns,
            self.base.loser_txns,
            self.base.redone_updates,
            self.base.undone_updates,
            self.base.pages_written,
            self.base.torn_pages_repaired,
            self.base.quarantined_data_pages,
            self.base.salvaged_records,
            self.base.logical_commits,
            self.base.reexecuted_ops,
        )
    }
}

impl std::fmt::Display for RestartReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "restart report ({} workers)", self.workers)?;
        writeln!(
            f,
            "  analysis: {} streams, {} records scanned, {} skipped behind \
             checkpoint bound ({} complete checkpoints, {} streams bounded)",
            self.base.streams_scanned,
            self.base.records_scanned,
            self.records_skipped,
            self.checkpoints_found,
            self.bounded_streams,
        )?;
        writeln!(
            f,
            "  outcome:  {} winners, {} losers, {} redone, {} undone, {} pages written",
            self.base.committed_txns.len(),
            self.base.loser_txns.len(),
            self.base.redone_updates,
            self.base.undone_updates,
            self.base.pages_written,
        )?;
        if self.base.torn_pages_repaired
            + self.base.quarantined_data_pages
            + self.base.quarantined_log_pages
            > 0
        {
            writeln!(
                f,
                "  repairs:  {} torn pages repaired, {} data pages quarantined, \
                 {} log pages quarantined, {} records salvaged",
                self.base.torn_pages_repaired,
                self.base.quarantined_data_pages,
                self.base.quarantined_log_pages,
                self.base.salvaged_records,
            )?;
        }
        writeln!(
            f,
            "  phases:   analysis {:?}, redo {:?}, undo {:?}, flush {:?}, total {:?}",
            self.timings.analysis,
            self.timings.redo,
            self.timings.undo,
            self.timings.flush,
            self.timings.total,
        )?;
        writeln!(
            f,
            "  truncated {} stream scan prefixes",
            self.truncated_streams
        )?;
        for w in &self.per_worker {
            writeln!(
                f,
                "  worker {:>2}: {:>5} pages, {:>6} redone, {:>6} idempotent-skips, busy {:?}",
                w.shard, w.pages, w.redone, w.skipped_idempotent, w.busy,
            )?;
        }
        Ok(())
    }
}
