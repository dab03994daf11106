//! The commit-point rule, in one place: a versioned record is written to
//! the frame that does *not* hold its newest copy, and a reader takes the
//! newest valid copy. A write torn or lost by a crash then destroys only
//! the copy being written, and the transition it described did not
//! happen. Neither type forces the device; callers keep their own
//! [`Disk::force`] discipline.

use crate::device::Disk;
use crate::error::StorageError;
use crate::page::{Lsn, Page, PageId, PAYLOAD_SIZE};
use std::collections::HashMap;

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

/// Committed ids per [`CommitList`] frame: the payload after a `u32`
/// count.
pub const IDS_PER_FRAME: usize = (PAYLOAD_SIZE - 4) / 8;

/// Page ids of commit-list frames start here, clear of any data page.
const LIST_ID: u64 = 1 << 62;

/// Why a [`CommitList`] append failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendError {
    /// Every frame holds [`IDS_PER_FRAME`] ids.
    Full,
    /// The frame write failed.
    Storage(StorageError),
}

impl From<StorageError> for AppendError {
    fn from(e: StorageError) -> Self {
        AppendError::Storage(e)
    }
}

/// An append-only durable list of committed ids over `frames` logical
/// frames from `base`: frame `f` is the [`SlotPair`] at `base + 2f`, and
/// its version is the number of ids it holds. An append rebuilds the
/// frame from the ids in memory, never from a read of the disk.
#[derive(Debug, Clone)]
pub struct CommitList {
    base: u64,
    frames: u64,
    ids: Vec<u64>,
    /// Commit position of each id.
    position: HashMap<u64, u64>,
}

impl CommitList {
    /// An empty list.
    pub fn new(base: u64, frames: u64) -> Self {
        CommitList {
            base,
            frames,
            ids: Vec::new(),
            position: HashMap::new(),
        }
    }

    /// Physical frames a list of `frames` logical frames occupies.
    pub const fn footprint(frames: u64) -> u64 {
        2 * frames
    }

    fn pair(&self, frame: u64) -> SlotPair {
        SlotPair::at(self.base + 2 * frame)
    }

    /// Reload the durable list: each frame's newest valid copy, up to the
    /// first partial (or missing) frame.
    pub fn recover(disk: &Disk, base: u64, frames: u64) -> Self {
        let mut list = CommitList::new(base, frames);
        for f in 0..frames {
            let Some((count, page)) = list.pair(f).read(disk, |p| {
                let count = u32::from_le_bytes(p.read_at(0, 4).try_into().expect("4 bytes"));
                let valid = p.id == PageId(LIST_ID + f) && u64::from(count) == p.lsn.0;
                (valid && count as usize <= IDS_PER_FRAME).then(|| p.clone())
            }) else {
                break;
            };
            let id =
                |i| u64::from_le_bytes(page.read_at(4 + 8 * i, 8).try_into().expect("8 bytes"));
            for id in (0..count as usize).map(id) {
                list.push(id);
            }
            if count < IDS_PER_FRAME as u64 {
                break;
            }
        }
        list
    }

    /// Durably append `id`: the commit point. On any error the list is
    /// unchanged.
    pub fn append(&mut self, disk: &mut Disk, id: u64) -> Result<(), AppendError> {
        let frame = (self.ids.len() / IDS_PER_FRAME) as u64;
        if frame >= self.frames {
            return Err(AppendError::Full);
        }
        let held = &self.ids[frame as usize * IDS_PER_FRAME..];
        let mut page = Page::new(PageId(LIST_ID + frame));
        page.write_at(0, &(held.len() as u32 + 1).to_le_bytes());
        for (i, t) in held.iter().chain([&id]).enumerate() {
            page.write_at(4 + 8 * i, &t.to_le_bytes());
        }
        self.pair(frame).write(disk, held.len() as u64 + 1, page)?;
        self.push(id);
        Ok(())
    }

    fn push(&mut self, id: u64) {
        self.position.insert(id, self.ids.len() as u64);
        self.ids.push(id);
    }

    /// Where `id` stands in commit order, if it committed.
    pub fn position(&self, id: u64) -> Option<u64> {
        self.position.get(&id).copied()
    }

    /// The committed ids, in commit order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memdisk::MemDisk;

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
    fn commit_list_spans_frames_and_reloads() {
        let mut disk = Disk::from(MemDisk::new(CommitList::footprint(2)));
        let mut list = CommitList::new(0, 2);
        let n = IDS_PER_FRAME as u64 + 3;
        for id in 0..n {
            list.append(&mut disk, 100 + id).unwrap();
        }
        let back = CommitList::recover(&disk, 0, 2);
        assert_eq!(back.ids(), list.ids());
        assert_eq!(back.ids().len(), n as usize);
        // a smaller list fills up
        let mut small = CommitList::new(0, 1);
        let mut disk = Disk::from(MemDisk::new(2));
        for id in 0..IDS_PER_FRAME as u64 {
            small.append(&mut disk, id).unwrap();
        }
        assert_eq!(small.append(&mut disk, 9), Err(AppendError::Full));
        assert_eq!(small.ids().len(), IDS_PER_FRAME);
    }
}
