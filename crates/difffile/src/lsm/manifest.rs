//! Snapshot-versioned manifest on a [`SlotPair`](rmdb_storage::SlotPair)
//! commit point.
//!
//! The manifest is the LSM analogue of the shadow pager's master
//! record: a single page naming every live run, written as version
//! `version` of its slot pair (verified) plus a force. Recovery adopts
//! the newest valid copy, so a torn manifest write can only destroy the
//! slot being written — the previous manifest is always intact, and the
//! transition it describes simply did not happen.
//!
//! Flush and compaction are two-phase against this commit point:
//!
//! 1. **Intent** — publish version `v+1` with the freshly allocated
//!    output extent in [`Manifest::pending`]. From this instant a
//!    crash leaves a named orphan: recovery counts the extent, never
//!    reads it, and the space is free again (live runs are the only
//!    thing that pins arena frames).
//! 2. **Install** — after the output is fully written and forced,
//!    publish `v+2` with the output run installed, the inputs removed
//!    and their extents listed in [`Manifest::retired`], and `pending`
//!    cleared. Because `v+2` lands in the *other* slot from `v+1`, a
//!    torn install write leaves the intent manifest valid — exactly
//!    the "compaction never happened" state.
//!
//! `pending`/`retired` are pure accounting for recovery (orphan and
//! reclaim reporting): the free-space map itself is always derived as
//! arena − live runs, never read from disk.

use rmdb_storage::{Disk, Page, PageId, StorageError};

use super::codec::{get_u32, get_u64, put_u32, put_u64};
use super::LsmConfig;

const MANIFEST_MAGIC: u32 = 0x4C53_4D31; // "LSM1"

/// A contiguous frame range in the run arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First frame (absolute address).
    pub start: u64,
    /// Frame count.
    pub frames: u64,
}

/// Descriptor of one sorted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDesc {
    /// Monotonic id; never reused. The store's in-memory fence index
    /// (first key of each frame) is keyed by it, so a cached entry can
    /// never describe a newer run that reuses the same extent.
    pub run_id: u64,
    /// Level the run lives on (0 = freshest).
    pub level: u32,
    /// First frame of the run's extent.
    pub start: u64,
    /// Frames occupied.
    pub frames: u64,
    /// Entries stored.
    pub entries: u64,
    /// Smallest sequence number in the run.
    pub seq_lo: u64,
    /// Largest sequence number in the run.
    pub seq_hi: u64,
}

impl RunDesc {
    /// The run's extent.
    pub fn extent(&self) -> Extent {
        Extent {
            start: self.start,
            frames: self.frames,
        }
    }
}

/// The versioned snapshot of the whole level hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic version: the slot-pair version it is written as.
    pub version: u64,
    /// First sequence number *not* covered by the runs: journal replay
    /// reconstructs everything from here.
    pub next_seq: u64,
    /// Journal generation. A flush bumps it, logically emptying the
    /// journal: replay only accepts frames stamped with this value.
    pub journal_gen: u64,
    /// Next run id to hand out.
    pub next_run_id: u64,
    /// L0 runs, newest first.
    pub l0: Vec<RunDesc>,
    /// `levels[i]` is the single run of level `i+1`, if occupied.
    pub levels: Vec<Option<RunDesc>>,
    /// Output extents of an in-flight flush/compaction (intent). On
    /// recovery these are orphans: torn, unreadable, GC'd by
    /// derivation.
    pub pending: Vec<Extent>,
    /// Input extents dropped by the most recent install, reclaimable.
    pub retired: Vec<Extent>,
}

impl Manifest {
    /// The empty hierarchy at store creation.
    pub(crate) fn empty(max_levels: usize) -> Manifest {
        Manifest {
            version: 0,
            next_seq: 1,
            journal_gen: 1,
            next_run_id: 1,
            l0: Vec::new(),
            levels: vec![None; max_levels],
            pending: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// All live runs, shallowest (newest) first: L0 in order, then
    /// L1..Ln.
    pub(crate) fn live_runs(&self) -> Vec<RunDesc> {
        let mut out: Vec<RunDesc> = self.l0.clone();
        for lvl in self.levels.iter().flatten() {
            out.push(*lvl);
        }
        out
    }

    /// Number of occupied levels including L0.
    pub fn levels_live(&self) -> u64 {
        let l0 = u64::from(!self.l0.is_empty());
        l0 + self.levels.iter().filter(|l| l.is_some()).count() as u64
    }
}

fn put_run(buf: &mut Vec<u8>, r: &RunDesc) {
    put_u64(buf, r.run_id);
    put_u32(buf, r.level);
    put_u64(buf, r.start);
    put_u64(buf, r.frames);
    put_u64(buf, r.entries);
    put_u64(buf, r.seq_lo);
    put_u64(buf, r.seq_hi);
}

fn get_run(bytes: &[u8], off: &mut usize) -> Option<RunDesc> {
    Some(RunDesc {
        run_id: get_u64(bytes, off)?,
        level: get_u32(bytes, off)?,
        start: get_u64(bytes, off)?,
        frames: get_u64(bytes, off)?,
        entries: get_u64(bytes, off)?,
        seq_lo: get_u64(bytes, off)?,
        seq_hi: get_u64(bytes, off)?,
    })
}

fn put_extent(buf: &mut Vec<u8>, e: &Extent) {
    put_u64(buf, e.start);
    put_u64(buf, e.frames);
}

fn get_extent(bytes: &[u8], off: &mut usize) -> Option<Extent> {
    Some(Extent {
        start: get_u64(bytes, off)?,
        frames: get_u64(bytes, off)?,
    })
}

/// Encode the manifest into a single page payload.
pub(crate) fn encode(m: &Manifest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    put_u32(&mut buf, MANIFEST_MAGIC);
    put_u64(&mut buf, m.version);
    put_u64(&mut buf, m.next_seq);
    put_u64(&mut buf, m.journal_gen);
    put_u64(&mut buf, m.next_run_id);
    put_u32(&mut buf, m.l0.len() as u32);
    put_u32(&mut buf, m.levels.len() as u32);
    put_u32(&mut buf, m.pending.len() as u32);
    put_u32(&mut buf, m.retired.len() as u32);
    for r in &m.l0 {
        put_run(&mut buf, r);
    }
    for lvl in &m.levels {
        match lvl {
            Some(r) => {
                buf.push(1);
                put_run(&mut buf, r);
            }
            None => buf.push(0),
        }
    }
    for e in &m.pending {
        put_extent(&mut buf, e);
    }
    for e in &m.retired {
        put_extent(&mut buf, e);
    }
    buf
}

/// Strictly decode a manifest payload; `None` if the magic or any
/// field is malformed.
pub(crate) fn decode(bytes: &[u8]) -> Option<Manifest> {
    let mut off = 0usize;
    if get_u32(bytes, &mut off)? != MANIFEST_MAGIC {
        return None;
    }
    let version = get_u64(bytes, &mut off)?;
    let next_seq = get_u64(bytes, &mut off)?;
    let journal_gen = get_u64(bytes, &mut off)?;
    let next_run_id = get_u64(bytes, &mut off)?;
    let n_l0 = get_u32(bytes, &mut off)? as usize;
    let n_levels = get_u32(bytes, &mut off)? as usize;
    let n_pending = get_u32(bytes, &mut off)? as usize;
    let n_retired = get_u32(bytes, &mut off)? as usize;
    if n_l0 > 1024 || n_levels > 1024 || n_pending > 1024 || n_retired > 1024 {
        return None;
    }
    let mut l0 = Vec::with_capacity(n_l0);
    for _ in 0..n_l0 {
        l0.push(get_run(bytes, &mut off)?);
    }
    let mut levels = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        let tag = *bytes.get(off)?;
        off += 1;
        levels.push(match tag {
            0 => None,
            1 => Some(get_run(bytes, &mut off)?),
            _ => return None,
        });
    }
    let mut pending = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        pending.push(get_extent(bytes, &mut off)?);
    }
    let mut retired = Vec::with_capacity(n_retired);
    for _ in 0..n_retired {
        retired.push(get_extent(bytes, &mut off)?);
    }
    Some(Manifest {
        version,
        next_seq,
        journal_gen,
        next_run_id,
        l0,
        levels,
        pending,
        retired,
    })
}

/// Write the manifest as version `m.version` of its slot pair and force
/// the device.
pub(crate) fn write(disk: &mut Disk, cfg: &LsmConfig, m: &Manifest) -> Result<(), StorageError> {
    let payload = encode(m);
    if payload.len() > rmdb_storage::PAYLOAD_SIZE {
        return Err(StorageError::Protocol("manifest overflows one page"));
    }
    let mut page = Page::new(PageId(cfg.manifest_slots().slot(0)));
    page.write_at(0, &payload);
    cfg.manifest_slots().write(disk, m.version, page)?;
    disk.force()
}

/// The newest valid manifest, if any: a copy must decode and carry the
/// version it was written as.
pub(crate) fn read_best(disk: &Disk, cfg: &LsmConfig) -> Option<Manifest> {
    cfg.manifest_slots()
        .read(disk, |p| {
            decode(p.payload()).filter(|m| m.version == p.lsn.0)
        })
        .map(|(_, m)| m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrip() {
        let mut m = Manifest::empty(4);
        m.version = 9;
        m.next_seq = 1234;
        m.journal_gen = 5;
        m.next_run_id = 17;
        m.l0.push(RunDesc {
            run_id: 16,
            level: 0,
            start: 100,
            frames: 3,
            entries: 40,
            seq_lo: 1000,
            seq_hi: 1233,
        });
        m.levels[1] = Some(RunDesc {
            run_id: 12,
            level: 2,
            start: 140,
            frames: 9,
            entries: 300,
            seq_lo: 1,
            seq_hi: 999,
        });
        m.pending.push(Extent {
            start: 160,
            frames: 4,
        });
        m.retired.push(Extent {
            start: 103,
            frames: 2,
        });
        let enc = encode(&m);
        assert_eq!(decode(&enc), Some(m));
    }

    #[test]
    fn corrupt_manifest_rejected() {
        let mut m = Manifest::empty(2);
        m.version = 3;
        let enc = encode(&m);
        assert!(decode(&enc[..enc.len() - 1]).is_none());
        let mut bad = enc.clone();
        bad[0] ^= 0xFF;
        assert!(decode(&bad).is_none());
    }
}
