//! K-worker topological executor over the precedence DAG.
//!
//! Ready nodes (indegree zero) sit in a min-heap keyed by the node's
//! scheduling key, so K=1 degenerates to exactly the serial schedule and
//! larger K only ever runs nodes whose page chains have fully drained —
//! which is why the recovered bytes cannot depend on K. Page images move
//! between workers through per-page mutexes; the chain edges totally order
//! every toucher of a page, so those mutexes are never contended, they are
//! just the hand-off points.
//!
//! Workers never write the data disk. Each applies its nodes' items into
//! the shared page slots; the coordinator collects the final images (and
//! the quarantine set) after the scope joins.

use crate::{apply_item, build_dag, load_redo_page, PageLoad, RedoBody};
use rmdb_storage::{Disk, Page, PageId, StorageError};
use rmdb_wal::recovery::{RedoOutcome, RedoWork, ReplaySummary, WorkerStats};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// What one replay worker did: its histogram bucket, plus the split of
/// its applied items into installs and re-executed ops.
#[derive(Default)]
struct Tally {
    stats: WorkerStats,
    installed: u64,
    reexec_ops: u64,
}

enum Slot {
    Unloaded { rebuild_from_log: bool },
    Ready(Page),
    Quarantined,
}

/// One page's image plus its load-time accounting. Loaded exactly once
/// (by whichever worker touches the page first), so the counters are
/// schedule-independent.
struct SlotState {
    slot: Slot,
    torn_repaired: bool,
    retried: u64,
}

struct SlotBox {
    slot: Mutex<SlotState>,
}

struct Sched {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    indegree: Vec<u32>,
    /// Nodes not yet fully processed; 0 means the run is over.
    remaining: usize,
    failed: Option<StorageError>,
}

struct Shared<'a> {
    data: &'a Disk,
    doublewrite: &'a HashMap<PageId, Page>,
    nodes: &'a [crate::DagNode],
    succ: &'a [Vec<u32>],
    slots: &'a HashMap<PageId, SlotBox>,
    sched: Mutex<Sched>,
    cv: Condvar,
    /// Per-node replay time in µs; each entry written once, by the worker
    /// that replayed the node.
    node_us: Vec<AtomicU64>,
}

/// The dependency-aware scheduler in the recovery engine's redo slot:
/// build the DAG and replay it with `work.workers` threads. The outcome's
/// logical fields (everything but `per_worker` and the timings in the
/// [`ReplaySummary`]) and the page images are identical for every K.
pub fn replay_dag(work: RedoWork<'_>) -> Result<RedoOutcome, StorageError> {
    let k = work.workers.max(1);
    let dag = build_dag(work.redo, work.logical);
    let slots: HashMap<PageId, SlotBox> = dag
        .full_image
        .iter()
        .map(|(page, &rebuild)| {
            (
                *page,
                SlotBox {
                    slot: Mutex::new(SlotState {
                        slot: Slot::Unloaded {
                            rebuild_from_log: rebuild,
                        },
                        torn_repaired: false,
                        retried: 0,
                    }),
                },
            )
        })
        .collect();

    let mut heap = BinaryHeap::new();
    for (i, node) in dag.nodes.iter().enumerate() {
        if dag.indegree[i] == 0 {
            heap.push(Reverse((node.key, i as u32)));
        }
    }
    let shared = Shared {
        data: work.data,
        doublewrite: work.doublewrite,
        nodes: &dag.nodes,
        succ: &dag.succ,
        slots: &slots,
        sched: Mutex::new(Sched {
            heap,
            indegree: dag.indegree.clone(),
            remaining: dag.nodes.len(),
            failed: None,
        }),
        cv: Condvar::new(),
        node_us: (0..dag.nodes.len()).map(|_| AtomicU64::new(0)).collect(),
    };

    let tallies: Vec<Tally> = if k == 1 {
        vec![worker_loop(&shared, 0)]
    } else {
        std::thread::scope(|scope| {
            let shared = &shared;
            let handles: Vec<_> = (0..k)
                .map(|i| scope.spawn(move || worker_loop(shared, i)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| panic!("replay worker panicked"))
                })
                .collect()
        })
    };
    if let Some(e) = shared
        .sched
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .failed
        .take()
    {
        return Err(e);
    }

    // Work/span over the measured per-node times. Node order (ascending
    // key) is a topological order — every edge points to a strictly
    // higher key (2PL: a successor's page touches postdate its
    // predecessor's commit point) — so one forward pass finds the
    // critical path.
    let mut summary = ReplaySummary {
        dag_nodes: dag.nodes.len() as u64,
        dag_edges: dag.edges,
        txns_reexecuted: dag.nodes.iter().filter(|n| n.reexec).count() as u64,
        ..ReplaySummary::default()
    };
    let mut dist: Vec<u64> = vec![0; dag.nodes.len()];
    for i in 0..dag.nodes.len() {
        let us = shared.node_us[i].load(Ordering::Relaxed);
        summary.work_us += us;
        let finish = dist[i] + us;
        summary.span_us = summary.span_us.max(finish);
        for &s in &dag.succ[i] {
            dist[s as usize] = dist[s as usize].max(finish);
        }
    }

    // Every per-item and per-slot decision is fixed by per-page order, so
    // these sums are identical for every K; only the per-worker split of
    // them varies with the schedule.
    let mut out = RedoOutcome::default();
    for t in tallies {
        out.redone += t.stats.redone;
        out.reexecuted_ops += t.reexec_ops;
        summary.pages_installed += t.installed;
        out.per_worker.push(t.stats);
    }
    out.replay = Some(summary);
    for (page, sbox) in &slots {
        let state = sbox.take_state();
        out.torn_repaired += u64::from(state.torn_repaired);
        out.retried_ios += state.retried;
        match state.slot {
            Slot::Ready(p) => {
                out.pages.insert(*page, p);
            }
            Slot::Quarantined => {
                out.quarantined.insert(*page);
            }
            Slot::Unloaded { .. } => {
                // only reachable when a worker bailed on error; the caller
                // is about to see Err anyway
            }
        }
    }
    Ok(out)
}

impl SlotBox {
    fn take_state(&self) -> SlotState {
        let empty = SlotState {
            slot: Slot::Quarantined,
            torn_repaired: false,
            retried: 0,
        };
        // slots are only poisoned if a worker panicked, which already
        // propagated through the scope join
        match self.slot.lock() {
            Ok(mut g) => std::mem::replace(&mut *g, empty),
            Err(p) => std::mem::replace(&mut *p.into_inner(), empty),
        }
    }
}

fn worker_loop(shared: &Shared<'_>, worker: usize) -> Tally {
    let start = Instant::now();
    let mut tally = Tally::default();
    tally.stats.shard = worker;
    // One sched-lock critical section per node: completing a node and
    // claiming the next ready one happen under the same acquisition, and
    // peers are woken only when that pop leaves more ready work behind —
    // an idle condvar never hears about work this worker is taking anyway.
    let mut done: Option<usize> = None;
    loop {
        let node_idx = {
            let mut s = shared.sched.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(idx) = done.take() {
                s.remaining -= 1;
                for &succ in &shared.succ[idx] {
                    s.indegree[succ as usize] -= 1;
                    if s.indegree[succ as usize] == 0 {
                        s.heap
                            .push(Reverse((shared.nodes[succ as usize].key, succ)));
                    }
                }
                if s.remaining == 0 {
                    shared.cv.notify_all();
                }
            }
            loop {
                if s.failed.is_some() || s.remaining == 0 {
                    tally.stats.busy = start.elapsed();
                    return tally;
                }
                if let Some(Reverse((_, idx))) = s.heap.pop() {
                    if !s.heap.is_empty() {
                        shared.cv.notify_all();
                    }
                    break idx as usize;
                }
                s = shared.cv.wait(s).unwrap_or_else(|p| p.into_inner());
            }
        };
        let t_node = Instant::now();
        let replayed = replay_node(shared, node_idx, &mut tally);
        shared.node_us[node_idx].store(t_node.elapsed().as_micros() as u64, Ordering::Relaxed);
        match replayed {
            Ok(()) => done = Some(node_idx),
            Err(e) => {
                let mut s = shared.sched.lock().unwrap_or_else(|p| p.into_inner());
                s.failed = Some(e);
                shared.cv.notify_all();
                tally.stats.busy = start.elapsed();
                return tally;
            }
        }
        tally.stats.pages += 1;
    }
}

/// Replay one transaction: for each page it writes, take the page slot
/// (loading/repairing the home image on first touch), then apply the
/// transaction's items in LSN order with the idempotence check.
fn replay_node(
    shared: &Shared<'_>,
    node_idx: usize,
    tally: &mut Tally,
) -> Result<(), StorageError> {
    let node = &shared.nodes[node_idx];
    for (page_id, items) in &node.pages {
        let sbox = shared
            .slots
            .get(page_id)
            .ok_or(StorageError::Protocol("replay page has no slot"))?;
        let mut state = sbox.slot.lock().unwrap_or_else(|p| p.into_inner());
        if let Slot::Unloaded { rebuild_from_log } = state.slot {
            state.slot = match load_redo_page(
                shared.data,
                shared.doublewrite,
                *page_id,
                rebuild_from_log,
                &mut state.retried,
            )? {
                PageLoad::Ready(p, torn) => {
                    state.torn_repaired = torn;
                    Slot::Ready(p)
                }
                PageLoad::Quarantined => Slot::Quarantined,
            };
        }
        match &mut state.slot {
            Slot::Ready(page) => {
                for item in items {
                    if apply_item(page, item)? {
                        tally.stats.redone += 1;
                        match &item.body {
                            RedoBody::Install { .. } => tally.installed += 1,
                            RedoBody::Op(_) => tally.reexec_ops += 1,
                        }
                    } else {
                        tally.stats.skipped_idempotent += 1;
                    }
                }
            }
            Slot::Quarantined => {
                // unreadable either way; applying onto a fresh frame would
                // invent contents for the untouched bytes
            }
            Slot::Unloaded { .. } => unreachable!("slot loaded above"),
        }
    }
    Ok(())
}
