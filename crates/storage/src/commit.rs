//! The commit-point rule, in one place: a versioned record is written to
//! the frame that does *not* hold its newest copy, and a reader takes the
//! newest valid copy. A write torn or lost by a crash then destroys only
//! the copy being written, and the transition it described did not
//! happen. [`SlotPair`] is that rule; [`CommitRecord`] is the bounded
//! answer to "did transaction `id` commit?" that the version store and
//! the differential file write through it, one frame write per commit.
//! Neither type forces the device; callers keep their own [`Disk::force`]
//! discipline.

use crate::device::Disk;
use crate::error::StorageError;
use crate::page::{Lsn, Page, PAYLOAD_SIZE};
use std::collections::BTreeSet;

/// A record alternating between frames `base` and `base + 1`: version `v`
/// is stamped into the page LSN and lands in frame `base + v % 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotPair {
    base: u64,
}

impl SlotPair {
    /// The pair occupying frames `base` and `base + 1`.
    pub const fn at(base: u64) -> Self {
        SlotPair { base }
    }

    /// The frame version `version` is written to.
    pub fn slot(self, version: u64) -> u64 {
        self.base + version % 2
    }

    /// Write `page` as version `version`, verified by read-back. Callers
    /// write consecutive versions, so this never lands on the newest copy.
    pub fn write(self, disk: &mut Disk, version: u64, mut page: Page) -> Result<(), StorageError> {
        page.lsn = Lsn(version);
        disk.write_page_verified(self.slot(version), &page)
    }

    /// The highest version whose frame is allocated, passes its checksum,
    /// sits in its parity slot and is accepted by `decode`; `None` if
    /// neither frame passes.
    pub fn read<T>(
        self,
        disk: &Disk,
        mut decode: impl FnMut(&Page) -> Option<T>,
    ) -> Option<(u64, T)> {
        let mut best: Option<(u64, T)> = None;
        for slot in [self.base, self.base + 1] {
            if !disk.is_allocated(slot) {
                continue;
            }
            let Ok(page) = disk.read_page_retry(slot) else {
                continue; // torn: the other slot survives
            };
            let version = page.lsn.0;
            if self.slot(version) != slot || best.as_ref().is_some_and(|(v, _)| *v > version) {
                continue;
            }
            if let Some(value) = decode(&page) {
                best = Some((version, value));
            }
        }
        best
    }
}

/// Whether a transaction committed, in bounded space. Ids are handed out
/// in increasing order, so `id` committed exactly when `id ≤ high` and
/// `id` is not undecided.
///
/// The rule that keeps the answer right: a record write that raises
/// `high` past an id that may have left anything on disk lists that id in
/// the same write ([`CommitRecord::commit`] takes them as `pending`). An
/// id leaves the list when it commits, or when nothing of it is left on
/// disk to misread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommitRecord {
    /// The largest committed id (0: none).
    pub high: u64,
    /// The ids at or below `high` that did not commit but may have left a
    /// stamp or entry on disk: open transactions, aborts, crash losers.
    pub undecided: BTreeSet<u64>,
}

impl CommitRecord {
    /// Whether `id` committed.
    pub fn committed(&self, id: u64) -> bool {
        id <= self.high && !self.undecided.contains(&id)
    }

    /// The record once `id` commits, while every id in `pending` (every
    /// other open transaction, and every abort or loser that may still
    /// have something on disk) stays undecided. Pending ids above the new
    /// `high` need no entry yet.
    pub fn commit(&self, id: u64, pending: impl IntoIterator<Item = u64>) -> CommitRecord {
        let high = self.high.max(id);
        CommitRecord {
            high,
            undecided: pending
                .into_iter()
                .filter(|&p| p < high && p != id)
                .collect(),
        }
    }

    /// Encode into `page` from payload byte `at`: `high`, a `u32` count,
    /// then the undecided ids. `false` (and `page` untouched) when they do
    /// not fit.
    #[must_use]
    pub fn encode(&self, page: &mut Page, at: usize) -> bool {
        let n = self.undecided.len();
        if at + 12 + 8 * n > PAYLOAD_SIZE {
            return false;
        }
        page.write_at(at, &self.high.to_le_bytes());
        page.write_at(at + 8, &(n as u32).to_le_bytes());
        for (i, id) in self.undecided.iter().enumerate() {
            page.write_at(at + 12 + 8 * i, &id.to_le_bytes());
        }
        true
    }

    /// Decode what [`CommitRecord::encode`] wrote at `at`; `None` if the
    /// count overruns the payload.
    pub fn decode(page: &Page, at: usize) -> Option<CommitRecord> {
        let word = |off: usize| u64::from_le_bytes(page.read_at(off, 8).try_into().expect("8"));
        let n = u32::from_le_bytes(page.read_at(at + 8, 4).try_into().expect("4")) as usize;
        if at + 12 + 8 * n > PAYLOAD_SIZE {
            return None;
        }
        Some(CommitRecord {
            high: word(at),
            undecided: (0..n).map(|i| word(at + 12 + 8 * i)).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memdisk::MemDisk;
    use crate::page::PageId;

    fn tagged(tag: u8) -> Page {
        let mut p = Page::new(PageId(7));
        p.write_at(0, &[tag]);
        p
    }

    fn tag_of(p: &Page) -> Option<u8> {
        Some(p.read_at(0, 1)[0])
    }

    #[test]
    fn versions_alternate_and_the_newest_wins() {
        let mut disk = Disk::from(MemDisk::new(4));
        let pair = SlotPair::at(2);
        assert_eq!(pair.read(&disk, tag_of), None);
        for v in 0..5u64 {
            pair.write(&mut disk, v, tagged(v as u8)).unwrap();
            assert!(disk.is_allocated(pair.slot(v)));
            assert_eq!(pair.read(&disk, tag_of), Some((v, v as u8)));
        }
        assert_eq!((pair.slot(3), pair.slot(4)), (3, 2));
    }

    #[test]
    fn commit_record_lists_what_it_passes_and_round_trips() {
        let empty = CommitRecord::default();
        assert!(empty.committed(0) && !empty.committed(1));
        // 4 and 5 open; 5 commits past 4, which stays undecided
        let r = empty.commit(5, [4, 5, 9]);
        assert_eq!(r.high, 5);
        assert!(r.committed(5) && r.committed(3) && !r.committed(4) && !r.committed(9));
        assert_eq!(r.undecided.iter().copied().collect::<Vec<_>>(), [4]);
        // 4 commits below the high mark: it leaves the list
        let r = r.commit(4, [9]);
        assert_eq!((r.high, r.undecided.len()), (5, 0));
        assert!(r.committed(4));
        let r = r.commit(12, [9, 11, 13]);
        assert_eq!(r.undecided.iter().copied().collect::<Vec<_>>(), [9, 11]);

        let mut page = Page::new(PageId(1));
        assert!(r.encode(&mut page, 17));
        assert_eq!(CommitRecord::decode(&page, 17), Some(r));
        // a list that overruns the payload does not encode
        let full = CommitRecord::default().commit(2_000, 0..600);
        assert!(!full.encode(&mut page, 0));
        page.write_at(8, &u32::MAX.to_le_bytes());
        assert_eq!(CommitRecord::decode(&page, 0), None);
    }
}
