//! A block device backed by a real file: pwrite per frame, fdatasync on
//! force, crash snapshot via file copy.
//!
//! This is the backend that grounds the workspace's durability story in
//! actual syscalls. A frame write is one positioned `pwrite` of the 4 KB
//! frame (the same single-sector atomicity assumption every recovery
//! mechanism here makes); [`Disk::force`](crate::Disk::force) is
//! `fdatasync`, so a log force on this backend pays what the hardware
//! actually charges. A torn write really does land only a prefix of the
//! frame in the file.
//!
//! Crash semantics match `MemDisk`: a snapshot copies the backing file
//! into a fresh temp file and returns an independent `FileDisk` over the
//! copy. Recovery then runs against that real file, so the fault sweep
//! exercises the file backend on *both* sides of the crash. Allocation
//! tracking (which frames were ever written — a virgin frame reads as
//! `Unallocated`, and log-scan frontiers rely on it) is kept as an
//! in-process bitmap and carried into snapshots; on the platter a virgin
//! frame is sparse zeros either way.
//!
//! The backing file is deleted when the `FileDisk` drops — including
//! during a panic unwind, so a failing test cleans its temp dir up.

use crate::error::StorageError;
use crate::page::FRAME_SIZE;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide suffix so concurrent tests never collide on a path.
static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(0);

/// A durable array of frames inside one backing file.
pub struct FileDisk {
    file: File,
    path: PathBuf,
    capacity: u64,
    /// Frames ever written (torn writes count; skipped writes don't) —
    /// the same allocation semantics as `MemDisk`.
    allocated: Vec<bool>,
}

impl FileDisk {
    /// Create a fresh disk of `capacity` frames backed by a new sparse
    /// file under `dir` (default: the OS temp dir).
    pub fn create(dir: Option<PathBuf>, capacity: u64) -> Result<Self, StorageError> {
        let dir = dir.unwrap_or_else(std::env::temp_dir);
        let path = dir.join(format!(
            "rmdb-{}-{}.disk",
            std::process::id(),
            NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|_| StorageError::Io { addr: 0 })?;
        file.set_len(capacity * FRAME_SIZE as u64)
            .map_err(|_| StorageError::Io { addr: 0 })?;
        Ok(FileDisk {
            file,
            path,
            capacity,
            allocated: vec![false; capacity as usize],
        })
    }

    /// Path of the backing file (deleted when this disk drops).
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Capacity in frames.
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Whether `addr` has ever been written.
    pub(crate) fn is_allocated(&self, addr: u64) -> bool {
        (addr as usize) < self.allocated.len() && self.allocated[addr as usize]
    }

    /// Read the in-range frame at `addr` with one positioned read into a
    /// stack buffer, and run `f` on it.
    pub(crate) fn with_frame<R>(
        &self,
        addr: u64,
        f: impl FnOnce(&[u8; FRAME_SIZE]) -> R,
    ) -> Result<R, StorageError> {
        if !self.allocated[addr as usize] {
            return Err(StorageError::Unallocated { addr });
        }
        let mut frame = [0u8; FRAME_SIZE];
        self.file
            .read_exact_at(&mut frame, addr * FRAME_SIZE as u64)
            .map_err(|_| StorageError::Io { addr })?;
        Ok(f(&frame))
    }

    /// pwrite the first `bytes` bytes of `frame` at the in-range `addr`;
    /// the file's old tail (zeros if virgin) shows through.
    pub(crate) fn write_prefix(
        &mut self,
        addr: u64,
        frame: &[u8; FRAME_SIZE],
        bytes: usize,
    ) -> Result<(), StorageError> {
        self.file
            .write_all_at(&frame[..bytes], addr * FRAME_SIZE as u64)
            .map_err(|_| StorageError::Io { addr })?;
        self.allocated[addr as usize] = true;
        Ok(())
    }

    /// fdatasync the backing file: everything pwritten so far is on the
    /// platter when this returns.
    pub(crate) fn sync(&self) -> Result<(), StorageError> {
        self.file
            .sync_data()
            .map_err(|_| StorageError::Io { addr: 0 })
    }

    /// Crash snapshot via file copy: an independent `FileDisk` over a
    /// fresh copy of the backing file.
    pub(crate) fn snapshot(&self) -> Result<FileDisk, StorageError> {
        let dir = self
            .path
            .parent()
            .map(|p| p.to_path_buf())
            .unwrap_or_else(std::env::temp_dir);
        let mut copy = FileDisk::create(Some(dir), self.capacity)?;
        std::fs::copy(&self.path, &copy.path).map_err(|_| StorageError::Io { addr: 0 })?;
        // the copy reopens the same inode contents; refresh the handle so
        // positioned reads see them (copy replaced the file in place)
        copy.file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&copy.path)
            .map_err(|_| StorageError::Io { addr: 0 })?;
        copy.allocated = self.allocated.clone();
        Ok(copy)
    }
}

impl Drop for FileDisk {
    fn drop(&mut self) {
        // best-effort temp cleanup; runs on panic unwind too
        let _ = std::fs::remove_file(&self.path);
    }
}

impl std::fmt::Debug for FileDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileDisk")
            .field("path", &self.path)
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Disk;
    use crate::page::{Page, PageId};

    #[test]
    fn write_read_roundtrip_and_cleanup() {
        let path;
        {
            let fd = FileDisk::create(None, 8).unwrap();
            path = fd.path().to_path_buf();
            assert!(path.exists());
            let mut d = Disk::from(fd);
            let mut p = Page::new(PageId(3));
            p.write_at(0, b"on-disk");
            d.write_page(5, &p).unwrap();
            d.force().unwrap();
            assert_eq!(d.read_page(5).unwrap(), p);
            assert_eq!((d.reads(), d.writes(), d.forces()), (1, 1, 1));
        }
        assert!(!path.exists(), "backing file must be removed on drop");
    }

    #[test]
    fn unallocated_and_out_of_range() {
        let d = Disk::from(FileDisk::create(None, 4).unwrap());
        assert_eq!(
            d.read_frame(1).unwrap_err(),
            StorageError::Unallocated { addr: 1 }
        );
        assert!(matches!(
            d.read_frame(4),
            Err(StorageError::OutOfRange { .. })
        ));
    }

    #[test]
    fn snapshot_is_an_independent_file() {
        let mut d = FileDisk::create(None, 4).unwrap();
        let p = Page::new(PageId(1));
        d.write_prefix(0, &p.to_frame(), FRAME_SIZE).unwrap();
        let snap = d.snapshot().unwrap();
        assert_ne!(snap.path(), d.path());
        let mut p2 = Page::new(PageId(1));
        p2.write_at(0, b"post-crash");
        d.write_prefix(0, &p2.to_frame(), FRAME_SIZE).unwrap();
        assert_eq!(Disk::from(snap).read_page(0).unwrap(), p);
    }

    #[test]
    fn partial_write_tears_the_frame_in_the_file() {
        let mut d = Disk::from(FileDisk::create(None, 4).unwrap());
        let mut old = Page::new(PageId(2));
        old.write_at(0, &[7u8; 100]);
        old.write_at(2000, &[7u8; 100]);
        d.write_page(1, &old).unwrap();
        let mut new = old.clone();
        new.write_at(0, &[9u8; 100]);
        new.write_at(2000, &[9u8; 100]);
        d.write_partial(1, &new.to_frame(), 1000).unwrap();
        assert!(matches!(
            d.read_page(1),
            Err(StorageError::Corrupt { addr: 1 })
        ));
    }
}
