//! The bank of N parallel log streams plus fragment routing.
//!
//! This is the log-processor side of the paper's architecture: query
//! processors hand fragments to [`ParallelLogManager::append_routed`],
//! which picks a log processor with the configured [`SelectionPolicy`] and
//! appends the fragment to that stream. Commit/abort records are appended
//! to a chosen *home* stream by the engine (see [`crate::db`]), which also
//! enforces the write-ahead and commit-force protocols using the positions
//! this module reports.

use crate::record::LogRecord;
use crate::select::{SelectionPolicy, Selector};
use crate::stream::{IndexedRecord, LogStream, ScanStats};
use rmdb_storage::fault::FaultHandle;
use rmdb_storage::{BackendKind, Disk, StorageError};

/// A durable location in the distributed log: stream index and byte
/// position within that stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogPos {
    /// Which log processor's stream.
    pub stream: usize,
    /// End position of the record within the stream.
    pub pos: u64,
}

/// N log processors, each with a private log disk.
pub struct ParallelLogManager {
    streams: Vec<LogStream>,
    selector: Selector,
    fragments: Vec<u64>,
}

impl ParallelLogManager {
    /// Create `n` fresh in-memory streams of `frames_per_log` frames each.
    pub fn new(n: usize, frames_per_log: u64, policy: SelectionPolicy, seed: u64) -> Self {
        ParallelLogManager::new_on(n, frames_per_log, policy, seed, &BackendKind::Mem)
            .expect("in-memory log disks always provision")
    }

    /// Create `n` fresh streams, each on its own device provisioned from
    /// `backend` (one log platter per log processor, as in the paper).
    pub fn new_on(
        n: usize,
        frames_per_log: u64,
        policy: SelectionPolicy,
        seed: u64,
        backend: &BackendKind,
    ) -> Result<Self, StorageError> {
        assert!(n > 0, "need at least one log processor");
        let streams = (0..n)
            .map(|_| LogStream::create_on(backend.provision(frames_per_log)?))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ParallelLogManager {
            streams,
            selector: Selector::new(policy, n, seed),
            fragments: vec![0; n],
        })
    }

    /// Re-open from crash-image log disks.
    pub fn open(
        disks: Vec<Disk>,
        policy: SelectionPolicy,
        seed: u64,
    ) -> Result<Self, StorageError> {
        ParallelLogManager::open_scanned(disks, policy, seed).map(|(m, _)| m)
    }

    /// [`ParallelLogManager::open`] that also returns every stream's
    /// durable records and salvage stats from the read the reopen does
    /// (see [`LogStream::open_scanned`]) — the input to recovery
    /// analysis. Element `i` is stream `i`'s records in append order.
    #[allow(clippy::type_complexity)]
    pub fn open_scanned(
        disks: Vec<Disk>,
        policy: SelectionPolicy,
        seed: u64,
    ) -> Result<(Self, Vec<(Vec<IndexedRecord>, ScanStats)>), StorageError> {
        assert!(!disks.is_empty(), "need at least one log disk");
        let n = disks.len();
        let mut streams = Vec::with_capacity(n);
        let mut scans = Vec::with_capacity(n);
        for disk in disks {
            let (stream, records, stats) = LogStream::open_scanned(disk)?;
            streams.push(stream);
            scans.push((records, stats));
        }
        let mgr = ParallelLogManager {
            streams,
            selector: Selector::new(policy, n, seed),
            fragments: vec![0; n],
        };
        Ok((mgr, scans))
    }

    /// Number of log processors.
    pub fn n_streams(&self) -> usize {
        self.streams.len()
    }

    /// Route a fragment produced by query processor `qp` for transaction
    /// `txn` to a log processor; returns where it landed.
    pub fn append_routed(
        &mut self,
        qp: usize,
        txn: u64,
        rec: &LogRecord,
    ) -> Result<LogPos, StorageError> {
        let stream = self.selector.pick(qp, txn);
        self.append_to(stream, rec)
    }

    /// Append to a specific stream (home-stream records: commit, abort,
    /// compensation, checkpoint).
    pub fn append_to(&mut self, stream: usize, rec: &LogRecord) -> Result<LogPos, StorageError> {
        let pos = self.streams[stream].append(rec)?;
        self.fragments[stream] += 1;
        Ok(LogPos { stream, pos })
    }

    /// Pick the home stream for a new transaction without appending.
    pub fn pick_home(&mut self, qp: usize, txn: u64) -> usize {
        self.selector.pick(qp, txn)
    }

    /// Force one stream.
    pub fn force(&mut self, stream: usize) -> Result<(), StorageError> {
        self.streams[stream].force()
    }

    /// Force every stream.
    pub fn force_all(&mut self) -> Result<(), StorageError> {
        for s in &mut self.streams {
            s.force()?;
        }
        Ok(())
    }

    /// Whether the record at `pos` is on stable storage.
    pub fn is_durable(&self, pos: LogPos) -> bool {
        self.streams[pos.stream].is_durable(pos.pos)
    }

    /// Scan every stream from its truncation point (recovery input).
    /// Element `i` is stream `i`'s records in append order.
    pub fn scan_all(&self) -> Vec<Vec<LogRecord>> {
        self.streams.iter().map(|s| s.scan()).collect()
    }

    /// Durably drop one stream's scan prefix before `frame` (the
    /// checkpoint-bound rule). `frame` must begin a record; see
    /// [`LogStream::truncate_to`] for the contract.
    pub fn truncate_stream_to(&mut self, stream: usize, frame: u64) -> Result<(), StorageError> {
        self.streams[stream].truncate_to(frame)
    }

    /// Attach one shared fault injector to every log disk.
    pub fn attach_faults(&mut self, handle: &FaultHandle) {
        for s in &mut self.streams {
            s.attach_faults(handle.clone());
        }
    }

    /// Truncate every stream (checkpoint completed with no live txns).
    pub fn truncate_all(&mut self) -> Result<(), StorageError> {
        for s in &mut self.streams {
            s.truncate()?;
        }
        Ok(())
    }

    /// Crash image of every log disk.
    pub fn disk_snapshots(&self) -> Vec<Disk> {
        self.streams.iter().map(|s| s.disk_snapshot()).collect()
    }

    /// Fragments routed to each stream (load-balance observability).
    pub fn fragments_per_stream(&self) -> &[u64] {
        &self.fragments
    }

    /// Log pages written by each stream.
    pub fn pages_written_per_stream(&self) -> Vec<u64> {
        self.streams.iter().map(|s| s.pages_written()).collect()
    }

    /// Direct access to a stream (tests and benches).
    pub fn stream(&self, i: usize) -> &LogStream {
        &self.streams[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit(txn: u64) -> LogRecord {
        LogRecord::Commit { txn }
    }

    #[test]
    fn cyclic_routing_spreads_fragments() {
        let mut m = ParallelLogManager::new(3, 64, SelectionPolicy::Cyclic, 0);
        for i in 0..9 {
            m.append_routed(i, 1, &commit(i as u64)).unwrap();
        }
        assert_eq!(m.fragments_per_stream(), &[3, 3, 3]);
    }

    #[test]
    fn txn_mod_concentrates() {
        let mut m = ParallelLogManager::new(4, 64, SelectionPolicy::TxnMod, 0);
        for qp in 0..12 {
            m.append_routed(qp, 6, &commit(6)).unwrap();
        }
        assert_eq!(m.fragments_per_stream(), &[0, 0, 12, 0]);
    }

    #[test]
    fn scan_all_reflects_forced_state() {
        let mut m = ParallelLogManager::new(2, 64, SelectionPolicy::Cyclic, 0);
        let a = m.append_to(0, &commit(1)).unwrap();
        let b = m.append_to(1, &commit(2)).unwrap();
        m.force(0).unwrap();
        assert!(m.is_durable(a));
        assert!(!m.is_durable(b));
        // recover from snapshots: only stream 0's record survives
        let recovered =
            ParallelLogManager::open(m.disk_snapshots(), SelectionPolicy::Cyclic, 0).unwrap();
        let scans = recovered.scan_all();
        assert_eq!(scans[0], vec![commit(1)]);
        assert!(scans[1].is_empty());
    }

    #[test]
    fn force_all_covers_every_stream() {
        let mut m = ParallelLogManager::new(3, 64, SelectionPolicy::Cyclic, 0);
        let positions: Vec<LogPos> = (0..3)
            .map(|s| m.append_to(s, &commit(s as u64)).unwrap())
            .collect();
        m.force_all().unwrap();
        assert!(positions.iter().all(|&p| m.is_durable(p)));
    }

    #[test]
    fn truncate_all_drops_history() {
        let mut m = ParallelLogManager::new(2, 64, SelectionPolicy::Cyclic, 0);
        m.append_to(0, &commit(1)).unwrap();
        m.append_to(1, &commit(2)).unwrap();
        m.truncate_all().unwrap();
        assert!(m.scan_all().iter().all(|s| s.is_empty()));
    }

    #[test]
    #[should_panic(expected = "at least one log processor")]
    fn zero_streams_rejected() {
        ParallelLogManager::new(0, 64, SelectionPolicy::Cyclic, 0);
    }
}
