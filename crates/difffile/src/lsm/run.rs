//! Sorted runs: building, reading, the fence index, and the
//! newest-wins merge.
//!
//! A run is a contiguous arena extent of frames, each frame one
//! strictly-decoded entry chunk, entries sorted by key with at most
//! one entry per key. Runs are immutable once installed: compaction
//! writes a *new* run and retires the inputs via the manifest, it
//! never rewrites in place.
//!
//! Because frames are key-ordered, the first key of each frame (its
//! *fence*) is enough to tell which frames can hold a key range. The
//! [`FenceCache`] keeps those fences in memory for every live run, so a
//! point read touches at most one frame per run and a range scan only
//! the frames it overlaps.

use std::collections::{BTreeMap, HashMap};

use rmdb_storage::{Disk, Page, PageId, StorageError, PAYLOAD_SIZE};

use super::codec::{self, LsmEntry, LsmOp};
use super::manifest::{Manifest, RunDesc};

/// Encode sorted `entries` into per-frame chunks. `None` if a single
/// entry overflows a frame.
pub(crate) fn build_chunks(entries: &[LsmEntry]) -> Option<Vec<Vec<u8>>> {
    codec::chunk_entries(entries, PAYLOAD_SIZE)
}

/// In-memory fence index over the live runs: for each run, keyed by
/// [`RunDesc::run_id`], the first key of each of its frames.
///
/// Derived and never stored. Flush and compaction fill it at install
/// from the chunks they just wrote and drop the runs they retire; a run
/// adopted by recovery gets its fences on the first read that touches
/// it. Run ids are never reused, so an entry cannot describe the wrong
/// run.
#[derive(Debug, Default)]
pub(crate) struct FenceCache {
    runs: HashMap<u64, Vec<u64>>,
}

impl FenceCache {
    /// Record the fences of the run a job just installed from `chunks`
    /// (if it produced one) and forget every run `manifest` no longer
    /// names.
    pub(crate) fn install(&mut self, manifest: &Manifest, output: Option<(u64, &[Vec<u8>])>) {
        if let Some((run_id, chunks)) = output {
            let fences = chunks
                .iter()
                .map(|c| codec::first_key(c).expect("built run chunks are non-empty"))
                .collect();
            self.runs.insert(run_id, fences);
        }
        let live: Vec<u64> = manifest.live_runs().iter().map(|d| d.run_id).collect();
        self.runs.retain(|id, _| live.contains(id));
    }

    /// Ids of the runs whose fences are cached.
    #[cfg(test)]
    pub(crate) fn run_ids(&self) -> std::collections::BTreeSet<u64> {
        self.runs.keys().copied().collect()
    }
}

/// Read and strictly decode frame `i` of a run, from the verified frame
/// where it lies.
fn read_frame(disk: &Disk, desc: &RunDesc, i: u64) -> Result<Vec<LsmEntry>, StorageError> {
    let addr = desc.start + i;
    disk.read_page_retry_with(addr, |p| codec::decode_chunk(p.payload()))?
        .ok_or(StorageError::Corrupt { addr })
}

/// Write one run chunk to `addr` (verified).
pub(crate) fn write_chunk(disk: &mut Disk, addr: u64, chunk: &[u8]) -> Result<(), StorageError> {
    let mut page = Page::new(PageId(addr));
    page.write_at(0, chunk);
    disk.write_page_verified(addr, &page)
}

/// Read a whole run back as its sorted entry list.
pub(crate) fn read_run(disk: &Disk, desc: &RunDesc) -> Result<Vec<LsmEntry>, StorageError> {
    let mut out = Vec::with_capacity(desc.entries as usize);
    for i in 0..desc.frames {
        out.extend(read_frame(disk, desc, i)?);
    }
    Ok(out)
}

/// The sorted entries of every frame of `desc` that can hold a key in
/// `lo..=hi`: from the frame whose fence covers `lo` to the last frame
/// whose fence is `<= hi`, none at all when `hi` is below the run's
/// first fence. The result may hold keys outside the range; callers
/// filter. On the first touch of a run adopted by recovery the run is
/// read whole once, its fences cached, and all of it returned.
pub(crate) fn read_span(
    disk: &Disk,
    cache: &mut FenceCache,
    desc: &RunDesc,
    lo: u64,
    hi: u64,
) -> Result<Vec<LsmEntry>, StorageError> {
    let Some(fences) = cache.runs.get(&desc.run_id) else {
        let mut fences = Vec::with_capacity(desc.frames as usize);
        let mut out = Vec::new();
        for i in 0..desc.frames {
            let chunk = read_frame(disk, desc, i)?;
            let first = chunk.first().ok_or(StorageError::Corrupt {
                addr: desc.start + i,
            })?;
            fences.push(first.key);
            out.extend(chunk);
        }
        cache.runs.insert(desc.run_id, fences);
        return Ok(out);
    };
    let first = fences.partition_point(|&f| f <= lo).saturating_sub(1);
    let end = fences.partition_point(|&f| f <= hi);
    let mut out = Vec::new();
    for i in first..end {
        out.extend(read_frame(disk, desc, i as u64)?);
    }
    Ok(out)
}

/// Point lookup inside one sorted run: at most one frame read once the
/// run's fences are cached.
pub(crate) fn lookup_run(
    disk: &Disk,
    cache: &mut FenceCache,
    desc: &RunDesc,
    key: u64,
) -> Result<Option<LsmEntry>, StorageError> {
    let mut span = read_span(disk, cache, desc, key, key)?;
    Ok(span
        .binary_search_by_key(&key, |e| e.key)
        .ok()
        .map(|i| span.swap_remove(i)))
}

/// Merge entry lists into one sorted run, newest (highest `seq`) entry
/// winning per key. With `drop_tombstones` (output is the deepest
/// occupied level, so nothing below could resurrect the key), winning
/// Delete entries are elided entirely.
pub(crate) fn merge_newest_wins(
    inputs: Vec<Vec<LsmEntry>>,
    drop_tombstones: bool,
) -> Vec<LsmEntry> {
    let mut best: BTreeMap<u64, LsmEntry> = BTreeMap::new();
    for entries in inputs {
        for e in entries {
            match best.get(&e.key) {
                Some(cur) if cur.seq >= e.seq => {}
                _ => {
                    best.insert(e.key, e);
                }
            }
        }
    }
    best.into_values()
        .filter(|e| !(drop_tombstones && matches!(e.op, LsmOp::Delete)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(seq: u64, key: u64, op: LsmOp) -> LsmEntry {
        LsmEntry {
            seq,
            txn: 0,
            key,
            op,
        }
    }

    #[test]
    fn merge_prefers_newest_seq() {
        let old = vec![e(1, 5, LsmOp::Put(vec![1])), e(2, 6, LsmOp::Put(vec![2]))];
        let new = vec![e(9, 5, LsmOp::Delete), e(3, 7, LsmOp::Put(vec![3]))];
        let merged = merge_newest_wins(vec![old.clone(), new.clone()], false);
        assert_eq!(
            merged,
            vec![
                e(9, 5, LsmOp::Delete),
                e(2, 6, LsmOp::Put(vec![2])),
                e(3, 7, LsmOp::Put(vec![3])),
            ]
        );
        let bottom = merge_newest_wins(vec![old, new], true);
        assert_eq!(
            bottom,
            vec![e(2, 6, LsmOp::Put(vec![2])), e(3, 7, LsmOp::Put(vec![3]))]
        );
    }

    #[test]
    fn merge_is_input_order_independent() {
        let a = vec![e(4, 1, LsmOp::Put(vec![4]))];
        let b = vec![e(8, 1, LsmOp::Put(vec![8]))];
        assert_eq!(
            merge_newest_wins(vec![a.clone(), b.clone()], false),
            merge_newest_wins(vec![b, a], false)
        );
    }
}
