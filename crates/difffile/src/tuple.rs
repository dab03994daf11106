//! Tuples and their on-page layout.
//!
//! All three files (`B`, `A`, `D`) store [`Entry`] records packed into
//! 4 KB pages. An entry carries a global sequence number (ordering inserts
//! against deletes of the same key), the tagging transaction (visibility),
//! the tuple key, and — for base/`A` entries — the tuple value. `D` entries
//! have no value.
//!
//! Page payload layout: `[count u32] ([seq u64][txn u64][key u64]
//! [vlen u32][value bytes])*`.

use rmdb_storage::{Page, PAYLOAD_SIZE};

/// A user-visible tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    /// Unique key.
    pub key: u64,
    /// Opaque value bytes.
    pub value: Vec<u8>,
}

/// One record in a differential file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Global operation sequence number (0 for base tuples).
    pub seq: u64,
    /// Tagging transaction (0 for base tuples, always visible).
    pub txn: u64,
    /// The tuple; its value is empty for `D` entries.
    pub tuple: Tuple,
}

impl Entry {
    /// A base-file entry: sequence number and transaction 0.
    pub fn base(tuple: Tuple) -> Entry {
        Entry {
            seq: 0,
            txn: 0,
            tuple,
        }
    }

    /// Bytes this entry occupies on a page.
    pub fn encoded_len(&self) -> usize {
        8 + 8 + 8 + 4 + self.tuple.value.len()
    }
}

/// Payload offset of a page's first entry (after the `count` word).
pub(crate) const FIRST_ENTRY: usize = 4;

/// The packing rule: an entry of `len` bytes fits on a page whose entries
/// so far end at payload offset `end`. [`write_entries`] packs by it, and
/// the differential files count their pages by it.
pub(crate) fn fits(end: usize, len: usize) -> bool {
    end + len <= PAYLOAD_SIZE
}

/// Pack as many of `entries` as fit onto `page`, starting from
/// `entries[0]`. Returns how many were written.
pub fn write_entries(page: &mut Page, entries: &[Entry]) -> usize {
    let mut offset = FIRST_ENTRY;
    let mut count = 0u32;
    for e in entries {
        let need = e.encoded_len();
        if !fits(offset, need) {
            break;
        }
        let Tuple { key, value } = &e.tuple;
        page.write_at(offset, &e.seq.to_le_bytes());
        page.write_at(offset + 8, &e.txn.to_le_bytes());
        page.write_at(offset + 16, &key.to_le_bytes());
        page.write_at(offset + 24, &(value.len() as u32).to_le_bytes());
        page.write_at(offset + 28, value);
        offset += need;
        count += 1;
    }
    page.write_at(0, &count.to_le_bytes());
    count as usize
}

/// Decode every entry on `page`.
///
/// Total on arbitrary bytes: a `count` or `vlen` that would run past the
/// payload (possible only on a corrupted frame, since writers pack within
/// bounds) truncates the decode instead of panicking.
pub fn read_entries(page: &Page) -> Vec<Entry> {
    let count = u32::from_le_bytes(page.read_at(0, 4).try_into().unwrap());
    let mut offset = FIRST_ENTRY;
    let mut out = Vec::with_capacity((count as usize).min(PAYLOAD_SIZE / 28));
    for _ in 0..count {
        if offset + 28 > PAYLOAD_SIZE {
            break;
        }
        let seq = u64::from_le_bytes(page.read_at(offset, 8).try_into().unwrap());
        let txn = u64::from_le_bytes(page.read_at(offset + 8, 8).try_into().unwrap());
        let key = u64::from_le_bytes(page.read_at(offset + 16, 8).try_into().unwrap());
        let vlen = u32::from_le_bytes(page.read_at(offset + 24, 4).try_into().unwrap()) as usize;
        if offset + 28 + vlen > PAYLOAD_SIZE {
            break;
        }
        let value = page.read_at(offset + 28, vlen).to_vec();
        offset += 28 + vlen;
        out.push(Entry {
            seq,
            txn,
            tuple: Tuple { key, value },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rmdb_storage::PageId;

    fn entry(key: u64, vlen: usize) -> Entry {
        Entry {
            seq: key * 2,
            txn: key + 1,
            tuple: Tuple {
                key,
                value: vec![key as u8; vlen],
            },
        }
    }

    #[test]
    fn round_trip_some_entries() {
        let entries: Vec<Entry> = (0..10).map(|k| entry(k, 16)).collect();
        let mut page = Page::new(PageId(0));
        let n = write_entries(&mut page, &entries);
        assert_eq!(n, 10);
        assert_eq!(read_entries(&page), entries);
    }

    #[test]
    fn stops_when_page_full() {
        let entries: Vec<Entry> = (0..100).map(|k| entry(k, 100)).collect();
        let mut page = Page::new(PageId(0));
        let n = write_entries(&mut page, &entries);
        // 128 bytes each, ~4068 usable → 31 fit
        assert!(n < 100 && n > 20, "unexpected fit count {n}");
        assert_eq!(read_entries(&page), entries[..n]);
    }

    #[test]
    fn empty_value_entries() {
        // D-file entries carry no value
        let entries: Vec<Entry> = (0..5).map(|k| entry(k, 0)).collect();
        let mut page = Page::new(PageId(0));
        assert_eq!(write_entries(&mut page, &entries), 5);
        assert_eq!(read_entries(&page), entries);
    }

    #[test]
    fn zero_entries() {
        let mut page = Page::new(PageId(0));
        assert_eq!(write_entries(&mut page, &[]), 0);
        assert!(read_entries(&page).is_empty());
    }

    proptest! {
        #[test]
        fn round_trip_arbitrary(
            keys in proptest::collection::vec((any::<u64>(), 0usize..200), 1..40)
        ) {
            let entries: Vec<Entry> = keys
                .into_iter()
                .enumerate()
                .map(|(i, (k, vlen))| Entry {
                    seq: i as u64,
                    txn: i as u64 % 7,
                    tuple: Tuple {
                        key: k,
                        value: vec![(k % 251) as u8; vlen],
                    },
                })
                .collect();
            let mut page = Page::new(PageId(0));
            let n = write_entries(&mut page, &entries);
            prop_assert_eq!(read_entries(&page), &entries[..n]);
        }
    }
}
