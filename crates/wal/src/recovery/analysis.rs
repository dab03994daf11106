//! Checkpoint-bounded analysis over the distributed log streams.
//!
//! Within one stream, any update logged **before** the stream's last
//! *complete* `CheckpointBegin`/`CheckpointEnd` pair needs no redo — a
//! durable `CheckpointEnd` proves the fuzzy checkpoint's flush finished, so
//! every page dirtied before its `CheckpointBegin` reached the data disk
//! through a verified write.
//!
//! The bound is applied **per stream, independently**. After a crash in the
//! middle of a checkpoint, streams may disagree about which checkpoint is
//! their last complete one; that is fine, because the rule above is sound
//! for each stream on its own. Media recovery turns the bound off: there
//! the checkpoints proved pages reached the destroyed disk, not the archive.
//!
//! Three kinds of information must still be gathered from the *entire*
//! scan, bound or no bound:
//!
//! * **commit/abort records** — a transaction's commit may sit behind one
//!   stream's bound while its fragments sit ahead of another's;
//! * **compensation provenance** (`undoes` LSNs) — so undo stays idempotent
//!   across repeated restarts;
//! * **LSN and transaction-id high-water marks** — the reopened engine must
//!   never reuse either.
//!
//! Undo candidates behind the bound are kept only for transactions named in
//! the bounding `CheckpointBegin`'s active list: a transaction absent from
//! that list had finished before the checkpoint instant, so it is either a
//! winner (commit record retained somewhere) or fully compensated (its
//! compensations precede the bound in the same stream and are therefore
//! durable and scanned).

use super::redo::{RedoBody, RedoItem};
use super::report::RestartReport;
use crate::capture::UndoEntry;
use crate::db::TxnId;
use crate::record::LogRecord;
use crate::stream::{IndexedRecord, ScanStats};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes the integer keys analysis looks up once per record — LSNs and
/// transaction ids — with one multiply instead of SipHash. The keys come
/// from the log this program wrote, so there is no adversary to pick
/// colliding ones. Consecutive keys land in distinct buckets: multiplying
/// by an odd constant permutes the low bits.
#[derive(Default)]
pub(super) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0.rotate_left(5) ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed through [`KeyHasher`].
type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;
/// A set keyed through [`KeyHasher`].
type KeySet<K> = HashSet<K, BuildHasherDefault<KeyHasher>>;

/// Everything the redo/undo phases need.
#[derive(Default)]
pub(super) struct Analysis {
    /// Every redo unit ahead of the bound, in scan order (redo orders
    /// them by page and LSN).
    pub redo: Vec<RedoItem>,
    /// Per-transaction undo candidates of every transaction with no
    /// commit record, each with the stream it was logged on (its
    /// compensation goes to the same stream).
    pub updates_by_txn: KeyMap<TxnId, Vec<(usize, UndoEntry)>>,
    /// `undoes` LSNs of every durable compensation record.
    pub compensated: KeySet<u64>,
    /// High-water marks for the reopened engine.
    pub max_lsn: u64,
    pub max_txn: TxnId,
    /// Per-stream record-aligned truncation frame: the nearest frame at or
    /// before the bounding `CheckpointBegin` whose first byte begins a
    /// record, computed here so truncation needs no second log pass.
    pub bounds: Vec<Option<u64>>,
}

/// Run analysis over the indexed scans of every stream; `bounded` applies
/// each stream's checkpoint bound. The scans are consumed: each payload
/// moves into the one redo item or undo candidate that needs it. The scan
/// and bound accounting goes straight into `report`.
pub(super) fn analyze(
    scans: Vec<(Vec<IndexedRecord>, ScanStats)>,
    bounded: bool,
    report: &mut RestartReport,
) -> Analysis {
    let mut a = Analysis::default();
    let committed = committed_txns(&scans);
    let base = &mut report.base;
    base.streams_scanned = scans.len();
    // `new_lsn`s are globally unique, so a second update/compensation with
    // the same one is a rerouted duplicate of a fragment that was durable
    // on the quarantined stream after all — analyse it exactly once.
    let mut seen_lsns: KeySet<u64> = KeySet::default();
    for (stream_idx, (records, stats)) in scans.into_iter().enumerate() {
        base.quarantined_log_pages += stats.corrupt_pages;
        if stats.corrupt_pages > 0 {
            // the decodable prefix before the torn page is what survives
            base.salvaged_records += records.len() as u64;
        }

        let bound = if bounded {
            last_complete_checkpoint(&records, &mut report.checkpoints_found)
        } else {
            None
        };
        let (bound_idx, active): (usize, KeySet<TxnId>) = match bound {
            Some((bi, act)) => {
                // Truncation cut: records span log pages, so the Begin's own
                // frame may start mid-record; walk back to the nearest
                // record-aligned frame. records[0] always begins the first
                // scanned frame, so a bound implies such a frame exists.
                let cut = records[..=bi]
                    .iter()
                    .rev()
                    .find(|r| r.frame_start)
                    .map(|r| r.frame);
                a.bounds.push(cut);
                (bi, act.iter().copied().collect())
            }
            None => {
                a.bounds.push(None);
                (0, KeySet::default())
            }
        };

        for (i, ir) in records.into_iter().enumerate() {
            base.records_scanned += 1;
            if let Some(t) = ir.rec.txn() {
                a.max_txn = a.max_txn.max(t);
            }
            let behind = i < bound_idx;
            match ir.rec {
                LogRecord::Update {
                    txn,
                    page,
                    new_lsn,
                    offset,
                    before,
                    after,
                    ..
                } => {
                    a.max_lsn = a.max_lsn.max(new_lsn.0);
                    if !seen_lsns.insert(new_lsn.0) {
                        base.duplicate_fragments += 1;
                        continue;
                    }
                    if behind {
                        report.records_skipped += 1;
                        if !active.contains(&txn) {
                            // finished before the checkpoint instant
                            continue;
                        }
                    } else {
                        a.redo.push(RedoItem {
                            page,
                            new_lsn,
                            body: RedoBody::Install {
                                offset,
                                data: after,
                            },
                        });
                    }
                    if committed.contains(&txn) {
                        // winners are never undone
                        continue;
                    }
                    let undo = UndoEntry {
                        page,
                        offset,
                        before,
                        new_lsn,
                    };
                    a.updates_by_txn
                        .entry(txn)
                        .or_default()
                        .push((stream_idx, undo));
                }
                LogRecord::Compensation {
                    page,
                    undoes,
                    new_lsn,
                    offset,
                    data,
                    ..
                } => {
                    a.max_lsn = a.max_lsn.max(new_lsn.0);
                    a.compensated.insert(undoes.0);
                    if !seen_lsns.insert(new_lsn.0) {
                        base.duplicate_fragments += 1;
                    } else if behind {
                        report.records_skipped += 1;
                    } else {
                        a.redo.push(RedoItem {
                            page,
                            new_lsn,
                            body: RedoBody::Install { offset, data },
                        });
                    }
                }
                LogRecord::Logical {
                    commit_lsn, ops, ..
                } => {
                    // The logical record IS the commit record; its ops carry
                    // their own per-write LSNs, so redo orders them exactly
                    // like fragments. commit_lsn comes from the same global
                    // counter, which makes it the dedup key for reroutes.
                    a.max_lsn = a.max_lsn.max(commit_lsn.0);
                    for op in &ops {
                        a.max_lsn = a.max_lsn.max(op.lsn().0);
                    }
                    if !seen_lsns.insert(commit_lsn.0) {
                        base.duplicate_fragments += 1;
                        continue;
                    }
                    base.logical_commits += 1;
                    if behind {
                        // committed before the bounding CheckpointBegin, so
                        // its dirtied pages were in the fuzzy checkpoint's
                        // flush set: no redo needed
                        report.records_skipped += 1;
                        continue;
                    }
                    for op in ops {
                        a.redo.push(RedoItem {
                            page: op.page(),
                            new_lsn: op.lsn(),
                            body: RedoBody::Op(op),
                        });
                    }
                }
                LogRecord::Commit { .. }
                | LogRecord::Abort { .. }
                | LogRecord::CheckpointBegin { .. }
                | LogRecord::CheckpointEnd => {}
            }
        }
    }
    base.committed_txns = committed.into_iter().collect();
    base.committed_txns.sort_unstable();
    report.bounded_streams = a.bounds.iter().flatten().count();
    a
}

/// The commit-set prepass: every transaction with a durable commit
/// record — a `Commit`, or a `Logical` record, which is its own commit —
/// on any stream. The main pass keeps undo candidates only for the rest.
fn committed_txns(scans: &[(Vec<IndexedRecord>, ScanStats)]) -> KeySet<TxnId> {
    scans
        .iter()
        .flat_map(|(records, _)| records)
        .filter_map(|ir| match ir.rec {
            LogRecord::Commit { txn } | LogRecord::Logical { txn, .. } => Some(txn),
            _ => None,
        })
        .collect()
}

/// A stream's last complete Begin/End pair: the Begin's index and active
/// list. An End pairs with the most recent Begin: the engine writes
/// checkpoints serially, and an End is only ever appended after that
/// round's Begin reached every stream, so within a stream the pairing is
/// unambiguous. An orphan End (its Begin truncated away or never durable)
/// bounds nothing.
fn last_complete_checkpoint<'r>(
    records: &'r [IndexedRecord],
    found: &mut u64,
) -> Option<(usize, &'r Vec<TxnId>)> {
    let mut open = None;
    let mut bound = None;
    for (i, ir) in records.iter().enumerate() {
        match &ir.rec {
            LogRecord::CheckpointBegin { active } => open = Some((i, active)),
            LogRecord::CheckpointEnd => {
                if let Some(pair) = open.take() {
                    *found += 1;
                    bound = Some(pair);
                }
            }
            _ => {}
        }
    }
    bound
}
