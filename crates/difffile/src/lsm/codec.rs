//! Entry codec for journal frames and level runs.
//!
//! Every chunk is `[count u32]` followed by `count` entries:
//! `[seq u64][txn u64][key u64][tag u8]` and, for a Put,
//! `[vlen u32][value]`. Decoding is **strict**: a truncated or
//! malformed entry invalidates the whole chunk. That is exactly what
//! journal replay wants — a torn tail must read as "no batch here",
//! never as a shorter batch.

/// A single operation against a key. Puts are the paper's A-set
/// (append) entries, Deletes its D-set tombstones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsmOp {
    /// Insert/update the key with this value.
    Put(Vec<u8>),
    /// Tombstone the key.
    Delete,
}

/// One versioned operation, as stored in the journal and in level
/// runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsmEntry {
    /// Global sequence number — a total order over all committed
    /// operations; the newest entry for a key wins.
    pub seq: u64,
    /// Committing transaction (diagnostic only).
    pub txn: u64,
    /// The key.
    pub key: u64,
    /// The operation.
    pub op: LsmOp,
}

const TAG_DELETE: u8 = 0;
const TAG_PUT: u8 = 1;

impl LsmEntry {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        8 + 8
            + 8
            + 1
            + match &self.op {
                LsmOp::Put(v) => 4 + v.len(),
                LsmOp::Delete => 0,
            }
    }
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn get_u32(bytes: &[u8], off: &mut usize) -> Option<u32> {
    let end = off.checked_add(4)?;
    let v = u32::from_le_bytes(bytes.get(*off..end)?.try_into().ok()?);
    *off = end;
    Some(v)
}

pub(crate) fn get_u64(bytes: &[u8], off: &mut usize) -> Option<u64> {
    let end = off.checked_add(8)?;
    let v = u64::from_le_bytes(bytes.get(*off..end)?.try_into().ok()?);
    *off = end;
    Some(v)
}

fn encode_entry(buf: &mut Vec<u8>, e: &LsmEntry) {
    put_u64(buf, e.seq);
    put_u64(buf, e.txn);
    put_u64(buf, e.key);
    match &e.op {
        LsmOp::Put(v) => {
            buf.push(TAG_PUT);
            put_u32(buf, v.len() as u32);
            buf.extend_from_slice(v);
        }
        LsmOp::Delete => buf.push(TAG_DELETE),
    }
}

fn decode_entry(bytes: &[u8], off: &mut usize) -> Option<LsmEntry> {
    let seq = get_u64(bytes, off)?;
    let txn = get_u64(bytes, off)?;
    let key = get_u64(bytes, off)?;
    let tag = *bytes.get(*off)?;
    *off += 1;
    let op = match tag {
        TAG_PUT => {
            let len = get_u32(bytes, off)? as usize;
            let end = off.checked_add(len)?;
            let v = bytes.get(*off..end)?.to_vec();
            *off = end;
            LsmOp::Put(v)
        }
        TAG_DELETE => LsmOp::Delete,
        _ => return None,
    };
    Some(LsmEntry { seq, txn, key, op })
}

/// Encode `entries` as one `[count u32][entry…]` chunk.
pub(crate) fn encode_chunk(entries: &[LsmEntry]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + entries.iter().map(LsmEntry::encoded_len).sum::<usize>());
    put_u32(&mut buf, entries.len() as u32);
    for e in entries {
        encode_entry(&mut buf, e);
    }
    buf
}

/// Strictly decode one chunk; `None` on any truncation or malformed
/// entry. Trailing padding after the last entry is ignored (chunks
/// live in fixed-size frames).
pub(crate) fn decode_chunk(bytes: &[u8]) -> Option<Vec<LsmEntry>> {
    let mut off = 0usize;
    let count = get_u32(bytes, &mut off)? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        out.push(decode_entry(bytes, &mut off)?);
    }
    Some(out)
}

/// Key of the first entry of an encoded chunk — the frame's fence.
/// `None` for an empty or truncated chunk.
pub(crate) fn first_key(chunk: &[u8]) -> Option<u64> {
    let mut off = 0usize;
    if get_u32(chunk, &mut off)? == 0 {
        return None;
    }
    off += 16; // seq, txn
    get_u64(chunk, &mut off)
}

/// Greedily split `entries` into encoded chunks of at most `room`
/// bytes each (including the count header). `None` if a single entry
/// cannot fit on its own.
pub(crate) fn chunk_entries(entries: &[LsmEntry], room: usize) -> Option<Vec<Vec<u8>>> {
    let mut chunks = Vec::new();
    let mut cur: Vec<LsmEntry> = Vec::new();
    let mut cur_len = 4usize;
    for e in entries {
        let n = e.encoded_len();
        if 4 + n > room {
            return None;
        }
        if cur_len + n > room {
            chunks.push(encode_chunk(&cur));
            cur.clear();
            cur_len = 4;
        }
        cur_len += n;
        cur.push(e.clone());
    }
    if !cur.is_empty() {
        chunks.push(encode_chunk(&cur));
    }
    Some(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, key: u64, op: LsmOp) -> LsmEntry {
        LsmEntry {
            seq,
            txn: 7,
            key,
            op,
        }
    }

    #[test]
    fn chunk_roundtrip() {
        let entries = vec![
            entry(1, 10, LsmOp::Put(vec![1, 2, 3])),
            entry(2, 11, LsmOp::Delete),
            entry(3, 12, LsmOp::Put(vec![])),
        ];
        let chunk = encode_chunk(&entries);
        assert_eq!(decode_chunk(&chunk).unwrap(), entries);
    }

    #[test]
    fn truncated_chunk_rejected() {
        let entries = vec![entry(1, 10, LsmOp::Put(vec![9; 32]))];
        let chunk = encode_chunk(&entries);
        for cut in 1..chunk.len() {
            assert!(
                decode_chunk(&chunk[..cut]).is_none(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn chunking_respects_room() {
        let entries: Vec<LsmEntry> = (0..100)
            .map(|i| entry(i, i, LsmOp::Put(vec![0u8; 40])))
            .collect();
        let chunks = chunk_entries(&entries, 256).unwrap();
        assert!(chunks.len() > 1);
        assert!(chunks.iter().all(|c| c.len() <= 256));
        let decoded: Vec<LsmEntry> = chunks
            .iter()
            .flat_map(|c| decode_chunk(c).unwrap())
            .collect();
        assert_eq!(decoded, entries);
    }

    #[test]
    fn first_key_reads_the_chunk_fence() {
        let entries = vec![
            entry(5, 42, LsmOp::Delete),
            entry(6, 43, LsmOp::Put(vec![1])),
        ];
        assert_eq!(first_key(&encode_chunk(&entries)), Some(42));
        assert_eq!(first_key(&encode_chunk(&[])), None);
        assert_eq!(first_key(&encode_chunk(&entries)[..20]), None);
    }

    #[test]
    fn oversized_entry_rejected() {
        let entries = vec![entry(1, 1, LsmOp::Put(vec![0u8; 300]))];
        assert!(chunk_entries(&entries, 256).is_none());
    }
}
