//! In-memory stable storage with crash-snapshot semantics.
//!
//! A [`MemDisk`] is an array of frames. A frame write is durable and atomic
//! — exactly the assumption every recovery mechanism in the paper makes
//! about a single-page disk write. Crashes are modelled *outside* the disk:
//! volatile state (buffer pools, in-memory page tables, partially assembled
//! log pages) lives in the recovery managers, so "crash at instant t" is
//! simply "take [`Disk::snapshot`](crate::Disk::snapshot) at t, drop the manager, run recovery
//! against the snapshot".
//!
//! A `MemDisk` is a raw backend: it is read and written through the
//! [`Disk`](crate::Disk) front, which applies bounds checks, fault injection and I/O
//! counting. A torn write ([`Disk::write_partial`](crate::Disk::write_partial)) deposits only a prefix
//! of a frame over the old contents, as a crash in the middle of a sector
//! transfer would; [`crate::page::Page::view`]'s checksum then flags the
//! frame.

use crate::error::StorageError;
use crate::page::FRAME_SIZE;

/// An in-memory array of durable frames.
///
/// ```
/// use rmdb_storage::{Disk, MemDisk, Page, PageId};
///
/// let mut disk = Disk::from(MemDisk::new(8));
/// let mut page = Page::new(PageId(3));
/// page.write_at(0, b"durable");
/// disk.write_page(3, &page).unwrap();
///
/// let crash = disk.snapshot();          // 💥 the crash-injection primitive
/// assert_eq!(crash.read_page(3).unwrap().read_at(0, 7), b"durable");
/// ```
pub struct MemDisk {
    frames: Vec<Option<Box<[u8; FRAME_SIZE]>>>,
}

impl MemDisk {
    /// A disk with `capacity` frames, all unallocated.
    pub fn new(capacity: u64) -> Self {
        MemDisk {
            frames: vec![None; capacity as usize],
        }
    }

    /// Capacity in frames.
    pub(crate) fn capacity(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Whether `addr` has ever been written.
    pub(crate) fn is_allocated(&self, addr: u64) -> bool {
        (addr as usize) < self.frames.len() && self.frames[addr as usize].is_some()
    }

    /// Run `f` on the in-range frame at `addr`, where it lies.
    pub(crate) fn with_frame<R>(
        &self,
        addr: u64,
        f: impl FnOnce(&[u8; FRAME_SIZE]) -> R,
    ) -> Result<R, StorageError> {
        self.frames[addr as usize]
            .as_deref()
            .map(f)
            .ok_or(StorageError::Unallocated { addr })
    }

    /// Land the first `bytes` bytes of `frame` at the in-range `addr`:
    /// the frame afterwards is `frame[..bytes] ++ old[bytes..]`, with
    /// `old` all zeros if the frame was unallocated.
    pub(crate) fn write_prefix(
        &mut self,
        addr: u64,
        frame: &[u8; FRAME_SIZE],
        bytes: usize,
    ) -> Result<(), StorageError> {
        let slot = &mut self.frames[addr as usize];
        let merged = slot.get_or_insert_with(|| Box::new([0u8; FRAME_SIZE]));
        merged[..bytes].copy_from_slice(&frame[..bytes]);
        Ok(())
    }

    /// An independent copy of every frame.
    pub(crate) fn snapshot(&self) -> MemDisk {
        MemDisk {
            frames: self.frames.clone(),
        }
    }
}

impl std::fmt::Debug for MemDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let allocated = self.frames.iter().filter(|f| f.is_some()).count();
        f.debug_struct("MemDisk")
            .field("capacity", &self.frames.len())
            .field("allocated", &allocated)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Disk;
    use crate::page::{Lsn, Page, PageId};

    #[test]
    fn write_then_read() {
        let mut d = Disk::from(MemDisk::new(16));
        let mut p = Page::new(PageId(3));
        p.write_at(0, b"hello");
        p.lsn = Lsn(1);
        d.write_page(7, &p).unwrap();
        assert_eq!(d.read_page(7).unwrap(), p);
        assert_eq!(d.writes(), 1);
        assert_eq!(d.reads(), 1);
    }

    #[test]
    fn unallocated_read_fails() {
        let d = Disk::from(MemDisk::new(4));
        assert_eq!(
            d.read_frame(2).unwrap_err(),
            StorageError::Unallocated { addr: 2 }
        );
        assert!(!d.is_allocated(2));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = Disk::from(MemDisk::new(4));
        assert!(matches!(
            d.read_frame(4),
            Err(StorageError::OutOfRange { .. })
        ));
        let frame = [0u8; FRAME_SIZE];
        assert!(matches!(
            d.write_frame(9, &frame),
            Err(StorageError::OutOfRange { .. })
        ));
    }

    #[test]
    fn snapshot_is_independent() {
        let mut d = Disk::from(MemDisk::new(4));
        let p = Page::new(PageId(1));
        d.write_page(0, &p).unwrap();
        let snap = d.snapshot();
        // overwrite after the crash point
        let mut p2 = Page::new(PageId(1));
        p2.write_at(0, b"post-crash");
        d.write_page(0, &p2).unwrap();
        assert_eq!(snap.read_page(0).unwrap(), p);
        assert_eq!(snap.reads(), 1);
    }

    #[test]
    fn partial_write_is_detected_by_checksum() {
        let mut d = Disk::from(MemDisk::new(4));
        let mut old = Page::new(PageId(2));
        old.write_at(0, &[7u8; 100]);
        old.write_at(2000, &[7u8; 100]);
        d.write_page(1, &old).unwrap();
        let mut new = old.clone();
        new.write_at(0, &[9u8; 100]);
        new.write_at(2000, &[9u8; 100]);
        new.lsn = Lsn(5);
        // only the first 1000 bytes of the new image land: the changed
        // bytes at offset 2000 keep their old contents → torn frame
        d.write_partial(1, &new.to_frame(), 1000).unwrap();
        assert!(matches!(
            d.read_page(1),
            Err(StorageError::Corrupt { addr: 1 })
        ));
    }

    #[test]
    fn partial_write_of_whole_frame_is_fine() {
        let mut d = Disk::from(MemDisk::new(4));
        let p = Page::new(PageId(2));
        d.write_partial(0, &p.to_frame(), FRAME_SIZE).unwrap();
        assert_eq!(d.read_page(0).unwrap(), p);
    }

    #[test]
    fn oversized_partial_write_is_typed_error() {
        let mut d = Disk::from(MemDisk::new(4));
        let frame = [0u8; FRAME_SIZE];
        assert_eq!(
            d.write_partial(0, &frame, FRAME_SIZE + 1),
            Err(StorageError::BadLength {
                len: FRAME_SIZE + 1,
                max: FRAME_SIZE,
            })
        );
        // the failed call must not have touched the frame or the counters
        assert!(!d.is_allocated(0));
        assert_eq!(d.writes(), 0);
    }

    proptest::proptest! {
        /// write_partial merges: result is new[..bytes] ++ old[bytes..],
        /// with old = zeros when the frame was unallocated.
        #[test]
        fn partial_write_merges_prefix_over_old_tail(
            bytes in 0usize..=FRAME_SIZE,
            seed_old in proptest::prelude::any::<u64>(),
            seed_new in proptest::prelude::any::<u64>(),
            allocated in proptest::prelude::any::<bool>(),
        ) {
            fn fill(seed: u64) -> [u8; FRAME_SIZE] {
                let mut f = [0u8; FRAME_SIZE];
                let mut s = seed;
                for chunk in f.chunks_mut(8) {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let b = s.to_le_bytes();
                    chunk.copy_from_slice(&b[..chunk.len()]);
                }
                f
            }
            let old = fill(seed_old);
            let new = fill(seed_new);
            let mut d = Disk::from(MemDisk::new(2));
            if allocated {
                d.write_frame(0, &old).unwrap();
            }
            d.write_partial(0, &new, bytes).unwrap();
            let got = d.read_frame(0).unwrap();
            proptest::prop_assert_eq!(&got[..bytes], &new[..bytes]);
            if allocated {
                proptest::prop_assert_eq!(&got[bytes..], &old[bytes..]);
            } else {
                proptest::prop_assert!(got[bytes..].iter().all(|&b| b == 0));
            }
        }
    }

    #[test]
    fn wrong_page_check_via_id() {
        let mut d = Disk::from(MemDisk::new(4));
        let p = Page::new(PageId(10));
        d.write_page(0, &p).unwrap();
        let got = d.read_page(0).unwrap();
        assert_eq!(got.id, PageId(10));
    }
}
