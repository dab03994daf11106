//! Log records and their wire encoding.
//!
//! A record is encoded as a little-endian byte string and appended to a log
//! stream; records may span log-page boundaries (a *physical* log fragment
//! carries two full page images and always spans). The encoding is
//! deliberately simple — a tag byte followed by fixed-width fields and
//! length-prefixed byte strings — and is exercised by a property-based
//! round-trip test.

use bytes::{Buf, BufMut};
use rmdb_storage::{Lsn, Page, PageId, StorageError, PAYLOAD_SIZE};

/// Transaction identifier.
pub type RawTxnId = u64;

/// One logical (command) operation inside a [`LogRecord::Logical`] record.
///
/// Every op names the single page it writes and the globally unique LSN the
/// write produced; single-page ops are what keep command redo idempotent
/// under STEAL — recovery re-executes an op only while `page.lsn < op.lsn`,
/// exactly the rule physical fragments use, so per-page LSN order is the
/// one total order all replay paths agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalOp {
    /// Store `data` at `offset` (the logical form of a blind write).
    Put {
        /// Written page.
        page: PageId,
        /// Page LSN the write produced.
        lsn: Lsn,
        /// Payload offset of the written bytes.
        offset: u32,
        /// Bytes written.
        data: Vec<u8>,
    },
    /// Add `delta` (wrapping) to the little-endian u64 at `offset`.
    AddU64 {
        /// Written page.
        page: PageId,
        /// Page LSN the write produced.
        lsn: Lsn,
        /// Payload offset of the counter.
        offset: u32,
        /// Wrapping increment.
        delta: u64,
    },
}

const OP_PUT: u8 = 1;
const OP_ADD_U64: u8 = 2;

impl LogicalOp {
    /// The page this op writes.
    pub fn page(&self) -> PageId {
        match *self {
            LogicalOp::Put { page, .. } | LogicalOp::AddU64 { page, .. } => page,
        }
    }

    /// The page LSN this op produced.
    pub fn lsn(&self) -> Lsn {
        match *self {
            LogicalOp::Put { lsn, .. } | LogicalOp::AddU64 { lsn, .. } => lsn,
        }
    }

    /// Re-execute the op against `page` (the command-redo path). Does not
    /// stamp the page LSN — the caller owns the `page.lsn < op.lsn` check.
    pub fn apply(&self, page: &mut Page) -> Result<(), StorageError> {
        match self {
            LogicalOp::Put { offset, data, .. } => {
                let off = *offset as usize;
                if off + data.len() > PAYLOAD_SIZE {
                    return Err(StorageError::Protocol("logical op exceeds page payload"));
                }
                page.write_at(off, data);
            }
            LogicalOp::AddU64 { offset, delta, .. } => {
                let off = *offset as usize;
                if off + 8 > PAYLOAD_SIZE {
                    return Err(StorageError::Protocol("logical op exceeds page payload"));
                }
                let mut cur = [0u8; 8];
                cur.copy_from_slice(page.read_at(off, 8));
                let next = u64::from_le_bytes(cur).wrapping_add(*delta);
                page.write_at(off, &next.to_le_bytes());
            }
        }
        Ok(())
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogicalOp::Put {
                page,
                lsn,
                offset,
                data,
            } => {
                out.put_u8(OP_PUT);
                out.put_u64_le(page.0);
                out.put_u64_le(lsn.0);
                out.put_u32_le(*offset);
                out.put_u32_le(data.len() as u32);
                out.put_slice(data);
            }
            LogicalOp::AddU64 {
                page,
                lsn,
                offset,
                delta,
            } => {
                out.put_u8(OP_ADD_U64);
                out.put_u64_le(page.0);
                out.put_u64_le(lsn.0);
                out.put_u32_le(*offset);
                out.put_u64_le(*delta);
            }
        }
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            LogicalOp::Put { data, .. } => 1 + 8 + 8 + 4 + 4 + data.len(),
            LogicalOp::AddU64 { .. } => 1 + 8 + 8 + 4 + 8,
        }
    }

    fn decode(b: &mut &[u8]) -> Option<LogicalOp> {
        if b.is_empty() {
            return None;
        }
        let tag = b.get_u8();
        let op = match tag {
            OP_PUT => {
                if b.remaining() < 8 + 8 + 4 + 4 {
                    return None;
                }
                let page = PageId(b.get_u64_le());
                let lsn = Lsn(b.get_u64_le());
                let offset = b.get_u32_le();
                let dlen = b.get_u32_le() as usize;
                if b.remaining() < dlen {
                    return None;
                }
                let data = b[..dlen].to_vec();
                b.advance(dlen);
                LogicalOp::Put {
                    page,
                    lsn,
                    offset,
                    data,
                }
            }
            OP_ADD_U64 => {
                if b.remaining() < 8 + 8 + 4 + 8 {
                    return None;
                }
                LogicalOp::AddU64 {
                    page: PageId(b.get_u64_le()),
                    lsn: Lsn(b.get_u64_le()),
                    offset: b.get_u32_le(),
                    delta: b.get_u64_le(),
                }
            }
            _ => return None,
        };
        Some(op)
    }
}

/// One record in a log stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A log fragment: one page update by one transaction.
    ///
    /// `prev_lsn` is the page's LSN before the update and `new_lsn` the LSN
    /// the update produces; per-page LSNs are what let recovery order a
    /// page's fragments without merging the distributed logs.
    Update {
        /// Updating transaction.
        txn: RawTxnId,
        /// Updated page.
        page: PageId,
        /// Page LSN before this update.
        prev_lsn: Lsn,
        /// Page LSN after this update (globally unique).
        new_lsn: Lsn,
        /// Payload offset of the changed bytes.
        offset: u32,
        /// Byte image before the update (undo).
        before: Vec<u8>,
        /// Byte image after the update (redo).
        after: Vec<u8>,
    },
    /// Redo-only record written while undoing an `Update` (at abort or
    /// during recovery); `undoes` names the `new_lsn` of the compensated
    /// update so recovery never undoes the same fragment twice.
    Compensation {
        /// Aborting transaction.
        txn: RawTxnId,
        /// Updated page.
        page: PageId,
        /// `new_lsn` of the update this compensates.
        undoes: Lsn,
        /// Page LSN after the compensation.
        new_lsn: Lsn,
        /// Payload offset of the restored bytes.
        offset: u32,
        /// Restored (pre-update) image.
        data: Vec<u8>,
    },
    /// Transaction commit. Written to the transaction's home stream only
    /// after every stream holding its fragments has been forced.
    Commit {
        /// Committing transaction.
        txn: RawTxnId,
    },
    /// Transaction abort: all its updates have been compensated.
    Abort {
        /// Aborted transaction.
        txn: RawTxnId,
    },
    /// Start of a fuzzy checkpoint; lists transactions active at the time.
    CheckpointBegin {
        /// Transactions in flight when the checkpoint began.
        active: Vec<RawTxnId>,
    },
    /// End of a fuzzy checkpoint: every page dirty at `CheckpointBegin`
    /// has been written to the data disk.
    CheckpointEnd,
    /// Command-logged transaction: the whole txn in one record, appended at
    /// commit in place of its after-image fragments AND its `Commit` record
    /// (presence implies the txn committed). Deferred-captured transactions
    /// that abort log nothing, so undo never sees a logical loser.
    Logical {
        /// Committing transaction.
        txn: RawTxnId,
        /// Commit LSN — allocated from the same global LSN counter as
        /// fragment LSNs, so it dedups rerouted duplicates.
        commit_lsn: Lsn,
        /// Why this txn was command-logged (`DECISION_*`): recovery is
        /// self-describing, no policy config needed to replay.
        decision: u8,
        /// The txn's writes, in execution order.
        ops: Vec<LogicalOp>,
    },
}

/// `decision` value: the policy was [`Command`](crate::LoggingPolicy) — every
/// deferred txn is command-logged regardless of size.
pub const DECISION_FORCED: u8 = 0;
/// `decision` value: adaptive cost comparison picked the logical record
/// because it encoded smaller than the after-image fragments.
pub const DECISION_COST: u8 = 1;

const TAG_UPDATE: u8 = 1;
const TAG_COMPENSATION: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_CKPT_BEGIN: u8 = 5;
const TAG_CKPT_END: u8 = 6;
const TAG_LOGICAL: u8 = 7;

impl LogRecord {
    /// The transaction a record belongs to, if any.
    pub fn txn(&self) -> Option<RawTxnId> {
        match *self {
            LogRecord::Update { txn, .. }
            | LogRecord::Compensation { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::Logical { txn, .. } => Some(txn),
            LogRecord::CheckpointBegin { .. } | LogRecord::CheckpointEnd => None,
        }
    }

    /// Append the wire form of this record to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Update {
                txn,
                page,
                prev_lsn,
                new_lsn,
                offset,
                before,
                after,
            } => {
                out.put_u8(TAG_UPDATE);
                out.put_u64_le(*txn);
                out.put_u64_le(page.0);
                out.put_u64_le(prev_lsn.0);
                out.put_u64_le(new_lsn.0);
                out.put_u32_le(*offset);
                out.put_u32_le(before.len() as u32);
                out.put_slice(before);
                out.put_u32_le(after.len() as u32);
                out.put_slice(after);
            }
            LogRecord::Compensation {
                txn,
                page,
                undoes,
                new_lsn,
                offset,
                data,
            } => {
                out.put_u8(TAG_COMPENSATION);
                out.put_u64_le(*txn);
                out.put_u64_le(page.0);
                out.put_u64_le(undoes.0);
                out.put_u64_le(new_lsn.0);
                out.put_u32_le(*offset);
                out.put_u32_le(data.len() as u32);
                out.put_slice(data);
            }
            LogRecord::Commit { txn } => {
                out.put_u8(TAG_COMMIT);
                out.put_u64_le(*txn);
            }
            LogRecord::Abort { txn } => {
                out.put_u8(TAG_ABORT);
                out.put_u64_le(*txn);
            }
            LogRecord::CheckpointBegin { active } => {
                out.put_u8(TAG_CKPT_BEGIN);
                out.put_u32_le(active.len() as u32);
                for t in active {
                    out.put_u64_le(*t);
                }
            }
            LogRecord::CheckpointEnd => out.put_u8(TAG_CKPT_END),
            LogRecord::Logical {
                txn,
                commit_lsn,
                decision,
                ops,
            } => {
                out.put_u8(TAG_LOGICAL);
                out.put_u64_le(*txn);
                out.put_u64_le(commit_lsn.0);
                out.put_u8(*decision);
                out.put_u32_le(ops.len() as u32);
                for op in ops {
                    op.encode(out);
                }
            }
        }
    }

    /// [`LogRecord::encoded_len`] of an `Update` whose before- and
    /// after-images are `before` and `after` bytes long.
    pub fn update_len(before: usize, after: usize) -> usize {
        1 + 8 * 4 + 4 + 4 + before + 4 + after
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            LogRecord::Update { before, after, .. } => Self::update_len(before.len(), after.len()),
            LogRecord::Compensation { data, .. } => 1 + 8 * 4 + 4 + 4 + data.len(),
            LogRecord::Commit { .. } | LogRecord::Abort { .. } => 9,
            LogRecord::CheckpointBegin { active } => 5 + 8 * active.len(),
            LogRecord::CheckpointEnd => 1,
            LogRecord::Logical { ops, .. } => {
                1 + 8 + 8 + 1 + 4 + ops.iter().map(LogicalOp::encoded_len).sum::<usize>()
            }
        }
    }

    /// Decode one record from the front of `buf`, consuming its bytes.
    ///
    /// Returns `None` if `buf` holds a prefix of a record (the stream was
    /// cut by a crash) — the caller treats the tail as unwritten. Corrupt
    /// tags also yield `None`; log-page checksums make genuine corruption
    /// inside a durable page impossible, so a bad tag means a torn tail.
    pub fn decode(buf: &mut &[u8]) -> Option<LogRecord> {
        if buf.is_empty() {
            return None;
        }
        let mut b = *buf;
        let tag = b.get_u8();
        let rec = match tag {
            TAG_UPDATE => {
                if b.remaining() < 8 * 4 + 4 + 4 {
                    return None;
                }
                let txn = b.get_u64_le();
                let page = PageId(b.get_u64_le());
                let prev_lsn = Lsn(b.get_u64_le());
                let new_lsn = Lsn(b.get_u64_le());
                let offset = b.get_u32_le();
                let blen = b.get_u32_le() as usize;
                if b.remaining() < blen + 4 {
                    return None;
                }
                let before = b[..blen].to_vec();
                b.advance(blen);
                let alen = b.get_u32_le() as usize;
                if b.remaining() < alen {
                    return None;
                }
                let after = b[..alen].to_vec();
                b.advance(alen);
                LogRecord::Update {
                    txn,
                    page,
                    prev_lsn,
                    new_lsn,
                    offset,
                    before,
                    after,
                }
            }
            TAG_COMPENSATION => {
                if b.remaining() < 8 * 4 + 4 + 4 {
                    return None;
                }
                let txn = b.get_u64_le();
                let page = PageId(b.get_u64_le());
                let undoes = Lsn(b.get_u64_le());
                let new_lsn = Lsn(b.get_u64_le());
                let offset = b.get_u32_le();
                let dlen = b.get_u32_le() as usize;
                if b.remaining() < dlen {
                    return None;
                }
                let data = b[..dlen].to_vec();
                b.advance(dlen);
                LogRecord::Compensation {
                    txn,
                    page,
                    undoes,
                    new_lsn,
                    offset,
                    data,
                }
            }
            TAG_COMMIT => {
                if b.remaining() < 8 {
                    return None;
                }
                LogRecord::Commit {
                    txn: b.get_u64_le(),
                }
            }
            TAG_ABORT => {
                if b.remaining() < 8 {
                    return None;
                }
                LogRecord::Abort {
                    txn: b.get_u64_le(),
                }
            }
            TAG_CKPT_BEGIN => {
                if b.remaining() < 4 {
                    return None;
                }
                let n = b.get_u32_le() as usize;
                if b.remaining() < 8 * n {
                    return None;
                }
                let active = (0..n).map(|_| b.get_u64_le()).collect();
                LogRecord::CheckpointBegin { active }
            }
            TAG_CKPT_END => LogRecord::CheckpointEnd,
            TAG_LOGICAL => {
                if b.remaining() < 8 + 8 + 1 + 4 {
                    return None;
                }
                let txn = b.get_u64_le();
                let commit_lsn = Lsn(b.get_u64_le());
                let decision = b.get_u8();
                let nops = b.get_u32_le() as usize;
                let mut ops = Vec::with_capacity(nops.min(1024));
                for _ in 0..nops {
                    ops.push(LogicalOp::decode(&mut b)?);
                }
                LogRecord::Logical {
                    txn,
                    commit_lsn,
                    decision,
                    ops,
                }
            }
            _ => return None,
        };
        *buf = b;
        Some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(rec: &LogRecord) {
        let mut bytes = Vec::new();
        rec.encode(&mut bytes);
        assert_eq!(bytes.len(), rec.encoded_len());
        let mut cursor = bytes.as_slice();
        let decoded = LogRecord::decode(&mut cursor).expect("decodes");
        assert!(cursor.is_empty(), "trailing bytes");
        assert_eq!(&decoded, rec);
    }

    #[test]
    fn round_trip_all_variants() {
        round_trip(&LogRecord::Update {
            txn: 7,
            page: PageId(42),
            prev_lsn: Lsn(1),
            new_lsn: Lsn(2),
            offset: 100,
            before: vec![1, 2, 3],
            after: vec![4, 5, 6, 7],
        });
        round_trip(&LogRecord::Compensation {
            txn: 7,
            page: PageId(42),
            undoes: Lsn(2),
            new_lsn: Lsn(9),
            offset: 100,
            data: vec![1, 2, 3],
        });
        round_trip(&LogRecord::Commit { txn: 3 });
        round_trip(&LogRecord::Abort { txn: 4 });
        round_trip(&LogRecord::CheckpointBegin {
            active: vec![1, 2, 3],
        });
        round_trip(&LogRecord::CheckpointBegin { active: vec![] });
        round_trip(&LogRecord::CheckpointEnd);
        round_trip(&LogRecord::Logical {
            txn: 12,
            commit_lsn: Lsn(99),
            decision: DECISION_COST,
            ops: vec![
                LogicalOp::Put {
                    page: PageId(3),
                    lsn: Lsn(90),
                    offset: 16,
                    data: vec![1, 2, 3, 4],
                },
                LogicalOp::AddU64 {
                    page: PageId(9),
                    lsn: Lsn(91),
                    offset: 0,
                    delta: u64::MAX,
                },
            ],
        });
        round_trip(&LogRecord::Logical {
            txn: 13,
            commit_lsn: Lsn(100),
            decision: DECISION_FORCED,
            ops: vec![],
        });
    }

    #[test]
    fn logical_ops_apply_and_bound_check() {
        let mut page = Page::new(PageId(1));
        LogicalOp::Put {
            page: PageId(1),
            lsn: Lsn(1),
            offset: 8,
            data: vec![7; 4],
        }
        .apply(&mut page)
        .expect("put applies");
        assert_eq!(page.read_at(8, 4), &[7; 4]);
        LogicalOp::AddU64 {
            page: PageId(1),
            lsn: Lsn(2),
            offset: 0,
            delta: 41,
        }
        .apply(&mut page)
        .expect("add applies");
        LogicalOp::AddU64 {
            page: PageId(1),
            lsn: Lsn(3),
            offset: 0,
            delta: 1,
        }
        .apply(&mut page)
        .expect("add applies");
        let mut cur = [0u8; 8];
        cur.copy_from_slice(page.read_at(0, 8));
        assert_eq!(u64::from_le_bytes(cur), 42);
        // every op kind rejects out-of-payload ranges instead of panicking
        for op in [
            LogicalOp::Put {
                page: PageId(1),
                lsn: Lsn(5),
                offset: PAYLOAD_SIZE as u32 - 2,
                data: vec![0; 4],
            },
            LogicalOp::AddU64 {
                page: PageId(1),
                lsn: Lsn(6),
                offset: PAYLOAD_SIZE as u32 - 4,
                delta: 1,
            },
        ] {
            assert!(op.apply(&mut page).is_err(), "op {op:?} must bound-check");
        }
    }

    #[test]
    fn truncated_record_returns_none_and_consumes_nothing() {
        let rec = LogRecord::Update {
            txn: 7,
            page: PageId(42),
            prev_lsn: Lsn(1),
            new_lsn: Lsn(2),
            offset: 100,
            before: vec![1; 50],
            after: vec![2; 50],
        };
        let mut bytes = Vec::new();
        rec.encode(&mut bytes);
        for cut in 0..bytes.len() {
            let mut cursor = &bytes[..cut];
            let before_ptr = cursor;
            assert!(LogRecord::decode(&mut cursor).is_none(), "cut at {cut}");
            assert_eq!(cursor.len(), before_ptr.len(), "consumed on failure");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut cursor: &[u8] = &[0xEE, 0, 0, 0];
        assert!(LogRecord::decode(&mut cursor).is_none());
    }

    #[test]
    fn decode_sequence() {
        let mut bytes = Vec::new();
        LogRecord::Commit { txn: 1 }.encode(&mut bytes);
        LogRecord::Abort { txn: 2 }.encode(&mut bytes);
        LogRecord::CheckpointEnd.encode(&mut bytes);
        let mut cursor = bytes.as_slice();
        assert_eq!(
            LogRecord::decode(&mut cursor),
            Some(LogRecord::Commit { txn: 1 })
        );
        assert_eq!(
            LogRecord::decode(&mut cursor),
            Some(LogRecord::Abort { txn: 2 })
        );
        assert_eq!(
            LogRecord::decode(&mut cursor),
            Some(LogRecord::CheckpointEnd)
        );
        assert_eq!(LogRecord::decode(&mut cursor), None);
    }

    proptest! {
        #[test]
        fn round_trip_arbitrary_update(
            txn in any::<u64>(),
            page in any::<u64>(),
            prev in any::<u64>(),
            new in any::<u64>(),
            offset in any::<u32>(),
            before in proptest::collection::vec(any::<u8>(), 0..200),
            after in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            round_trip(&LogRecord::Update {
                txn,
                page: PageId(page),
                prev_lsn: Lsn(prev),
                new_lsn: Lsn(new),
                offset,
                before,
                after,
            });
        }

        #[test]
        fn round_trip_arbitrary_ckpt(active in proptest::collection::vec(any::<u64>(), 0..50)) {
            round_trip(&LogRecord::CheckpointBegin { active });
        }

        #[test]
        fn round_trip_arbitrary_logical(
            txn in any::<u64>(),
            commit in any::<u64>(),
            decision in any::<u8>(),
            ops in proptest::collection::vec(
                prop_oneof![
                    (any::<u64>(), any::<u64>(), any::<u32>(),
                     proptest::collection::vec(any::<u8>(), 0..64))
                        .prop_map(|(p, l, o, d)| LogicalOp::Put {
                            page: PageId(p), lsn: Lsn(l), offset: o, data: d,
                        }),
                    (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>())
                        .prop_map(|(p, l, o, d)| LogicalOp::AddU64 {
                            page: PageId(p), lsn: Lsn(l), offset: o, delta: d,
                        }),
                ],
                0..12,
            ),
        ) {
            round_trip(&LogRecord::Logical {
                txn,
                commit_lsn: Lsn(commit),
                decision,
                ops,
            });
        }
    }
}
