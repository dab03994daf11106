//! The redo vocabulary and page-sharded redo, the engine's one scheduler.
//!
//! Redo units come in two kinds: physical fragments install bytes, command
//! records re-execute their logical op. Both go through [`apply_item`], and
//! redo and undo load home images through [`load_redo_page`].
//!
//! Page-sharded redo is embarrassingly parallel across pages: per-page LSN
//! ordering is the only order recovery needs (the whole point of the
//! unmerged-log architecture), and no two pages share state. Pages are
//! hashed into K shards; each shard is replayed by one worker thread reading
//! the shared data disk through `&Disk` (its I/O counters are atomics, so
//! the disk is `Sync`). Workers never write the disk — each returns the
//! page images replay changed, and the serial coordinator writes them home.
//! Redo never builds a page it leaves unchanged: a home frame that
//! verifies with an LSN at or above the page's newest unit is checked
//! where it lies, every unit skipped, and nothing copied. Its home frame
//! already holds the bytes a rewrite would produce (a frame that verifies
//! re-encodes to itself).
//!
//! Analysis hands over its units in scan order, each naming its page.
//! Replay walks an index of them sorted by page, then LSN, and the units
//! themselves never move: once replay is done they are dropped in the
//! order their payloads were decoded, which frees them far faster than a
//! per-page order would.
//!
//! Determinism: the shard hash depends only on the page id, each worker
//! replays its pages in ascending page order with items in LSN order, and
//! shard outcomes are merged over disjoint page sets — so the recovered
//! state is byte-identical for every worker count K. K=1 replays the
//! sorted index in place, without spawning a thread.

use super::report::WorkerStats;
use crate::record::LogicalOp;
use rmdb_storage::{Disk, Lsn, Page, PageId, StorageError, PAYLOAD_SIZE};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

/// One redo unit: either a physical fragment install or a logical op
/// re-execution, applied iff the page is older than `new_lsn`.
#[derive(Debug, Clone)]
pub(super) struct RedoItem {
    /// The page it updates.
    pub page: PageId,
    /// The page LSN this unit produced when first executed.
    pub new_lsn: Lsn,
    pub body: RedoBody,
}

/// The two replay paths: install bytes, or re-execute a command.
#[derive(Debug, Clone)]
pub(super) enum RedoBody {
    /// Physical after-image: write `data` at `offset`.
    Install { offset: u32, data: Vec<u8> },
    /// Command record: re-execute the operation against recovered state.
    Op(LogicalOp),
}

impl RedoItem {
    /// Whether this install carries a full page image (physical logging's
    /// from-scratch rebuild guarantee for torn pages).
    fn is_full_image(&self) -> bool {
        matches!(&self.body, RedoBody::Install { offset: 0, data } if data.len() == PAYLOAD_SIZE)
    }
}

/// Refuse an install that overruns the payload: such a fragment was never
/// writable.
fn check_bounds(item: &RedoItem) -> Result<(), StorageError> {
    match &item.body {
        RedoBody::Install { offset, data } if *offset as usize + data.len() > PAYLOAD_SIZE => {
            Err(StorageError::Protocol("log fragment exceeds page payload"))
        }
        _ => Ok(()),
    }
}

/// Apply one redo unit with the per-page idempotence check. Returns whether
/// the unit was applied (`false`: the image already reflected it). Installs
/// bounds-check before the LSN check, ops bounds-check inside
/// [`LogicalOp::apply`].
fn apply_item(page: &mut Page, item: &RedoItem) -> Result<bool, StorageError> {
    check_bounds(item)?;
    if page.lsn >= item.new_lsn {
        return Ok(false);
    }
    match &item.body {
        RedoBody::Install { offset, data } => page.write_at(*offset as usize, data),
        RedoBody::Op(op) => op.apply(page)?,
    }
    page.lsn = item.new_lsn;
    Ok(true)
}

/// Where a usable page image came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Origin {
    /// The home frame, read clean: the image is the frame's own bytes.
    Home,
    /// A fresh page: the home frame was never allocated.
    Fresh,
    /// A torn home frame, repaired from the doublewrite buffer or rebuilt
    /// from scratch.
    Repaired,
}

/// Result of loading a page's home image for replay.
pub(super) enum PageLoad {
    /// A usable image and where it came from.
    Ready(Page, Origin),
    /// The home frame verifies and its LSN already covers every unit:
    /// left where it lies, no page built.
    Current,
    /// Corrupt and unrebuildable: leave the torn frame so reads yield a
    /// typed error instead of invented contents.
    Quarantined,
}

/// Load the home image of `page_id` with one read, repairing a torn frame
/// from the doublewrite buffer or — when `rebuild_from_log` says the
/// earliest retained item is a full-image install — from scratch. A home
/// frame that verifies with an LSN at or above `covers` is
/// [`PageLoad::Current`]. Redo and undo share this decision tree; undo
/// passes no `covers`, as it always needs the image.
pub(super) fn load_redo_page(
    data: &Disk,
    doublewrite: &HashMap<PageId, Page>,
    page_id: PageId,
    rebuild_from_log: bool,
    covers: Option<Lsn>,
) -> Result<PageLoad, StorageError> {
    if !data.is_allocated(page_id.0) {
        return Ok(PageLoad::Ready(Page::new(page_id), Origin::Fresh));
    }
    let home = data.read_page_retry_with(page_id.0, |p| {
        covers.is_none_or(|lsn| p.lsn < lsn).then(|| p.to_page())
    });
    match home {
        Ok(Some(p)) => Ok(PageLoad::Ready(p, Origin::Home)),
        Ok(None) => Ok(PageLoad::Current),
        Err(StorageError::Corrupt { .. }) => {
            if let Some(copy) = doublewrite.get(&page_id) {
                // torn home write: the doublewrite buffer holds a verified
                // full image written just before it
                Ok(PageLoad::Ready(copy.clone(), Origin::Repaired))
            } else if rebuild_from_log {
                // the earliest retained fragment is a full image, so replay
                // rebuilds the page from scratch
                Ok(PageLoad::Ready(Page::new(page_id), Origin::Repaired))
            } else {
                Ok(PageLoad::Quarantined)
            }
        }
        Err(e) => Err(e),
    }
}

/// What redo hands back to the engine.
#[derive(Default)]
pub(super) struct RedoOutcome {
    /// The page images replay changed (an item applied, a torn frame
    /// repaired, or a fresh frame), ready for the coordinator to write
    /// home. Pages read clean with every item skipped are not kept.
    pub pages: BTreeMap<PageId, Page>,
    /// Pages that were corrupt and unrebuildable.
    pub quarantined: BTreeSet<PageId>,
    /// Items applied (installs + re-executed ops).
    pub redone: u64,
    /// Of `redone`: logical ops re-executed.
    pub reexecuted_ops: u64,
    pub torn_repaired: u64,
    /// One entry per worker.
    pub per_worker: Vec<WorkerStats>,
}

/// Shard a page id into `0..k` (Fibonacci hashing on the high bits, so
/// consecutive page ids spread instead of clustering).
fn shard_of(page: PageId, k: usize) -> usize {
    ((page.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % k as u64) as usize
}

/// A unit's place in the replay order: its page, its LSN, and its index
/// in the scan-ordered unit list.
type Slot = (PageId, Lsn, usize);

/// Replay the redo units (in scan order) across `workers` threads, one
/// shard each, reading home images from `data` and repairing torn ones
/// from the `doublewrite` harvest.
///
/// The units stay where analysis put them: replay walks an index sorted
/// by page, then LSN, then scan position, and the units are dropped in
/// scan order, the order their payloads were allocated in, once every
/// shard is done.
pub(super) fn shard_redo(
    data: &Disk,
    doublewrite: &HashMap<PageId, Page>,
    units: Vec<RedoItem>,
    workers: usize,
) -> Result<RedoOutcome, StorageError> {
    let mut order: Vec<Slot> = units
        .iter()
        .enumerate()
        .map(|(i, u)| (u.page, u.new_lsn, i))
        .collect();
    order.sort_unstable();
    let k = workers.max(1);
    if k == 1 {
        return replay_shard(data, doublewrite, 0, &units, &order);
    }
    let mut plans: Vec<Vec<Slot>> = vec![Vec::new(); k];
    for slot in order {
        plans[shard_of(slot.0, k)].push(slot);
    }
    let units = &units;
    let shards = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| scope.spawn(move || replay_shard(data, doublewrite, i, units, plan)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| StorageError::Protocol("redo worker panicked"))?
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut out = RedoOutcome::default();
    for mut shard in shards {
        out.redone += shard.redone;
        out.reexecuted_ops += shard.reexecuted_ops;
        out.torn_repaired += shard.torn_repaired;
        out.per_worker.append(&mut shard.per_worker);
        out.pages.append(&mut shard.pages);
        out.quarantined.append(&mut shard.quarantined);
    }
    Ok(out)
}

/// Replay one shard's slots, pages ascending: for each page, read the
/// home frame once. A frame that verifies with an LSN covering every unit
/// skips them all without a page being built. Otherwise load the image
/// (repairing torn frames from the doublewrite buffer or a full-image
/// fragment, else quarantining), apply the units in LSN order with the
/// idempotence check, and keep the page only if that changed it.
fn replay_shard(
    data: &Disk,
    doublewrite: &HashMap<PageId, Page>,
    shard: usize,
    units: &[RedoItem],
    plan: &[Slot],
) -> Result<RedoOutcome, StorageError> {
    let start = Instant::now();
    let mut out = RedoOutcome::default();
    let mut stats = WorkerStats {
        shard,
        ..WorkerStats::default()
    };
    for run in plan.chunk_by(|a, b| a.0 == b.0) {
        let page_id = run[0].0;
        let items = || run.iter().map(|&(_, _, i)| &units[i]);
        let rebuild = units[run[0].2].is_full_image();
        let newest = run[run.len() - 1].1;
        stats.pages += 1;
        let (mut page, origin) =
            match load_redo_page(data, doublewrite, page_id, rebuild, Some(newest))? {
                PageLoad::Ready(p, origin) => (p, origin),
                PageLoad::Current => {
                    // the home frame covers every unit: each is skipped, and
                    // installs are still bounds-checked
                    items().try_for_each(check_bounds)?;
                    stats.skipped_idempotent += run.len() as u64;
                    continue;
                }
                PageLoad::Quarantined => {
                    out.quarantined.insert(page_id);
                    continue;
                }
            };
        out.torn_repaired += u64::from(origin == Origin::Repaired);
        let mut changed = origin != Origin::Home;
        for item in items() {
            if apply_item(&mut page, item)? {
                changed = true;
                out.redone += 1;
                if matches!(item.body, RedoBody::Op(_)) {
                    out.reexecuted_ops += 1;
                }
            } else {
                stats.skipped_idempotent += 1;
            }
        }
        if changed {
            out.pages.insert(page_id, page);
        }
    }
    stats.redone = out.redone;
    stats.busy = start.elapsed();
    out.per_worker.push(stats);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn install(lsn: u64, offset: u32, data: &[u8]) -> RedoItem {
        RedoItem {
            page: PageId(1),
            new_lsn: Lsn(lsn),
            body: RedoBody::Install {
                offset,
                data: data.to_vec(),
            },
        }
    }

    #[test]
    fn apply_install_respects_lsn() {
        let mut page = Page::new(PageId(1));
        let item = install(5, 0, b"abc");
        assert!(apply_item(&mut page, &item).unwrap());
        assert_eq!(page.read_at(0, 3), b"abc");
        assert_eq!(page.lsn, Lsn(5));
        // replaying the same item is a no-op
        let again = install(5, 0, b"xyz");
        assert!(!apply_item(&mut page, &again).unwrap());
        assert_eq!(page.read_at(0, 3), b"abc");
    }

    #[test]
    fn apply_op_reexecutes_once() {
        let mut page = Page::new(PageId(2));
        page.write_at(0, &7u64.to_le_bytes());
        let op = LogicalOp::AddU64 {
            page: PageId(2),
            lsn: Lsn(9),
            offset: 0,
            delta: 5,
        };
        let item = RedoItem {
            page: PageId(2),
            new_lsn: Lsn(9),
            body: RedoBody::Op(op.clone()),
        };
        assert!(apply_item(&mut page, &item).unwrap());
        assert_eq!(page.read_at(0, 8), 12u64.to_le_bytes());
        // idempotent: the LSN gate stops double-execution
        assert!(!apply_item(&mut page, &item).unwrap());
        assert_eq!(page.read_at(0, 8), 12u64.to_le_bytes());
    }

    #[test]
    fn oversized_install_is_refused() {
        let mut page = Page::new(PageId(3));
        let item = install(5, (PAYLOAD_SIZE - 1) as u32, b"toolong");
        assert!(matches!(
            apply_item(&mut page, &item),
            Err(StorageError::Protocol(_))
        ));
    }

    #[test]
    fn full_image_detection() {
        assert!(install(2, 0, &vec![0u8; PAYLOAD_SIZE]).is_full_image());
        assert!(!install(2, 1, &vec![0u8; PAYLOAD_SIZE - 1]).is_full_image());
        assert!(!install(2, 0, b"short").is_full_image());
    }
}
