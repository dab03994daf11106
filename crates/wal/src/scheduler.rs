//! The back-end controller's transaction scheduler: blocking page locks
//! with FIFO wait queues and deadlock detection.
//!
//! The paper assumes "a scheduler, located in the back-end controller,
//! which employs page-level locking". [`rmdb_storage::LockTable`] is the
//! non-blocking core; this module adds what a real scheduler needs on
//! top: conflicting requests **wait** in FIFO order, grants cascade when
//! locks are released, and a waits-for graph catches deadlocks so the
//! controller can pick a victim instead of hanging the machine.

use rmdb_storage::{LockMode, LockTable, PageId};
use std::collections::{HashMap, VecDeque};

/// Outcome of a scheduled lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Lock granted; proceed.
    Granted,
    /// Conflict: the transaction is enqueued and must wait for a
    /// [`Scheduler::release_all`] to grant it (reported there).
    Waiting {
        /// Waiting transactions chosen as deadlock victims to keep this
        /// wait acyclic. Their waits are already cancelled; the caller
        /// **must abort them** (releasing their locks) or the system
        /// stalls. Empty in the common, cycle-free case.
        victims: Vec<u64>,
    },
    /// The requester itself is the youngest transaction in a cycle its
    /// wait would close; the request is *not* enqueued and the requester
    /// should abort and retry.
    Deadlock {
        /// Transactions forming the cycle, starting with the requester.
        cycle: Vec<u64>,
        /// Other victims cancelled while resolving earlier cycles of the
        /// same request (rare; the caller must abort these too).
        victims: Vec<u64>,
    },
}

/// Point-in-time wait-queue statistics for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Transactions currently blocked.
    pub waiting_txns: usize,
    /// Total waits ever enqueued.
    pub waits_enqueued: u64,
    /// Deepest single-page wait queue ever observed.
    pub max_wait_depth: usize,
    /// Deadlock cycles detected.
    pub deadlocks_detected: u64,
    /// Times a *younger* transaction (not the requester) was chosen as
    /// the victim.
    pub victims_chosen: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WaitEntry {
    txn: u64,
    mode: LockMode,
}

/// Page-level locking scheduler with FIFO waiting and deadlock detection.
///
/// Deadlocks are resolved by aborting the **youngest** transaction in the
/// cycle — transaction ids are handed out monotonically, so the largest id
/// has done the least work and is the cheapest to redo. When the youngest
/// is the requester itself the request is rejected outright
/// ([`Decision::Deadlock`]); otherwise the requester waits and the victim's
/// wait is cancelled for the caller to abort ([`Decision::Waiting`]).
///
/// ```
/// use rmdb_wal::{LockMode, scheduler::{Decision, Scheduler}};
/// use rmdb_storage::PageId;
///
/// let mut s = Scheduler::new();
/// assert_eq!(s.request(1, PageId(7), LockMode::Exclusive), Decision::Granted);
/// assert_eq!(
///     s.request(2, PageId(7), LockMode::Exclusive),
///     Decision::Waiting { victims: vec![] },
/// );
/// // txn 1 finishes: the waiter is granted
/// assert_eq!(s.release_all(1), vec![(2, PageId(7))]);
/// ```
#[derive(Debug, Default)]
pub struct Scheduler {
    locks: LockTable,
    waiting: HashMap<PageId, VecDeque<WaitEntry>>,
    /// txn → page it is waiting on (a transaction waits on one page at a
    /// time: it is single-threaded until granted).
    waits_on: HashMap<u64, PageId>,
    deadlocks_detected: u64,
    waits_enqueued: u64,
    max_wait_depth: usize,
    victims_chosen: u64,
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct access to the underlying lock table (read-only queries).
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// Number of transactions currently waiting.
    pub fn waiting_txns(&self) -> usize {
        self.waits_on.len()
    }

    /// Deadlocks detected so far.
    pub fn deadlocks_detected(&self) -> u64 {
        self.deadlocks_detected
    }

    /// Current depth of the wait queue on `page`.
    pub fn queue_depth(&self, page: PageId) -> usize {
        self.waiting.get(&page).map_or(0, |q| q.len())
    }

    /// Snapshot of the wait-queue counters.
    pub fn wait_stats(&self) -> WaitStats {
        WaitStats {
            waiting_txns: self.waits_on.len(),
            waits_enqueued: self.waits_enqueued,
            max_wait_depth: self.max_wait_depth,
            deadlocks_detected: self.deadlocks_detected,
            victims_chosen: self.victims_chosen,
        }
    }

    /// Who blocks `txn` right now: the holders of the page it waits on
    /// plus any waiter queued ahead of it.
    fn blockers(&self, txn: u64, page: PageId) -> Vec<u64> {
        let mut out = Vec::new();
        // queued-ahead waiters
        if let Some(q) = self.waiting.get(&page) {
            for w in q {
                if w.txn == txn {
                    break;
                }
                out.push(w.txn);
            }
        }
        // current holders (conservatively: anyone holding the page)
        for holder in self.locks.holders(page) {
            if holder != txn && !out.contains(&holder) {
                out.push(holder);
            }
        }
        out
    }

    /// Would `txn` waiting on `page` close a cycle? Returns the cycle if
    /// so (starting at `txn`).
    fn find_cycle(&self, txn: u64, page: PageId) -> Option<Vec<u64>> {
        // DFS over "t waits on page p; p is blocked by holders/earlier
        // waiters; those may in turn wait…"
        let mut stack = vec![(txn, page, vec![txn])];
        let mut visited = std::collections::HashSet::new();
        while let Some((t, p, path)) = stack.pop() {
            for blocker in self.blockers(t, p) {
                if blocker == txn {
                    return Some(path);
                }
                if !visited.insert(blocker) {
                    continue;
                }
                if let Some(&next_page) = self.waits_on.get(&blocker) {
                    let mut next_path = path.clone();
                    next_path.push(blocker);
                    stack.push((blocker, next_page, next_path));
                }
            }
        }
        None
    }

    /// Request `mode` on `page` for `txn`: grant, enqueue, or resolve a
    /// deadlock by victimising the youngest transaction in the cycle.
    ///
    /// # Panics
    /// If `txn` is already waiting on another page (a transaction issues
    /// one request at a time).
    pub fn request(&mut self, txn: u64, page: PageId, mode: LockMode) -> Decision {
        assert!(
            !self.waits_on.contains_key(&txn),
            "txn {txn} already waiting"
        );
        // FIFO fairness: if others already wait on this page, join the
        // queue even when the lock itself would be compatible.
        let queue_empty = self.waiting.get(&page).is_none_or(|q| q.is_empty());
        if queue_empty && self.locks.acquire(txn, page, mode).is_ok() {
            return Decision::Granted;
        }
        self.waits_on.insert(txn, page);
        self.waiting
            .entry(page)
            .or_default()
            .push_back(WaitEntry { txn, mode });
        self.waits_enqueued += 1;
        self.max_wait_depth = self.max_wait_depth.max(self.queue_depth(page));
        // The wait may close cycles; break each by aborting its youngest
        // member (largest id — ids are monotonic, so least work lost).
        let mut victims = Vec::new();
        while let Some(cycle) = self.find_cycle(txn, page) {
            self.deadlocks_detected += 1;
            let youngest = *cycle.iter().max().expect("cycle is non-empty");
            if youngest == txn {
                // the requester is the victim: undo the tentative wait
                self.remove_waiter(txn, page);
                return Decision::Deadlock { cycle, victims };
            }
            // cancel the younger waiter's wait; the caller aborts it
            self.victims_chosen += 1;
            self.cancel_wait(youngest);
            victims.push(youngest);
        }
        Decision::Waiting { victims }
    }

    fn remove_waiter(&mut self, txn: u64, page: PageId) {
        if let Some(q) = self.waiting.get_mut(&page) {
            q.retain(|w| w.txn != txn);
            if q.is_empty() {
                self.waiting.remove(&page);
            }
        }
        self.waits_on.remove(&txn);
    }

    /// A waiting transaction gives up (e.g. it was chosen as a deadlock
    /// victim elsewhere, or timed out).
    pub fn cancel_wait(&mut self, txn: u64) {
        if let Some(page) = self.waits_on.get(&txn).copied() {
            self.remove_waiter(txn, page);
        }
    }

    /// Release all of `txn`'s locks (commit/abort) and grant as many
    /// queued waiters as now fit, in FIFO order per page.
    ///
    /// Returns the `(txn, page)` pairs that were granted — the controller
    /// resumes those transactions.
    pub fn release_all(&mut self, txn: u64) -> Vec<(u64, PageId)> {
        self.cancel_wait(txn);
        let released = self.locks.release_all(txn);
        let mut granted = Vec::new();
        for page in released {
            self.drain_queue(page, &mut granted);
        }
        granted
    }

    /// Grant the longest FIFO-compatible prefix of a page's wait queue.
    fn drain_queue(&mut self, page: PageId, granted: &mut Vec<(u64, PageId)>) {
        loop {
            let Some(q) = self.waiting.get_mut(&page) else {
                return;
            };
            let Some(&head) = q.front() else {
                self.waiting.remove(&page);
                return;
            };
            if self.locks.acquire(head.txn, page, head.mode).is_ok() {
                q.pop_front();
                self.waits_on.remove(&head.txn);
                granted.push((head.txn, page));
            } else {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PageId = PageId(1);
    const Q: PageId = PageId(2);

    #[test]
    fn grants_when_free() {
        let mut s = Scheduler::new();
        assert_eq!(s.request(1, P, LockMode::Exclusive), Decision::Granted);
        assert_eq!(s.request(2, Q, LockMode::Shared), Decision::Granted);
        assert_eq!(s.waiting_txns(), 0);
    }

    #[test]
    fn conflicting_request_waits_and_is_granted_on_release() {
        let mut s = Scheduler::new();
        assert_eq!(s.request(1, P, LockMode::Exclusive), Decision::Granted);
        assert_eq!(
            s.request(2, P, LockMode::Exclusive),
            Decision::Waiting { victims: vec![] }
        );
        assert_eq!(s.waiting_txns(), 1);
        let granted = s.release_all(1);
        assert_eq!(granted, vec![(2, P)]);
        assert_eq!(s.waiting_txns(), 0);
    }

    #[test]
    fn fifo_order_is_respected() {
        let mut s = Scheduler::new();
        s.request(1, P, LockMode::Exclusive);
        assert_eq!(
            s.request(2, P, LockMode::Exclusive),
            Decision::Waiting { victims: vec![] }
        );
        assert_eq!(
            s.request(3, P, LockMode::Exclusive),
            Decision::Waiting { victims: vec![] }
        );
        assert_eq!(s.release_all(1), vec![(2, P)]);
        assert_eq!(s.release_all(2), vec![(3, P)]);
        assert!(s.release_all(3).is_empty());
    }

    #[test]
    fn shared_waiters_granted_together() {
        let mut s = Scheduler::new();
        s.request(1, P, LockMode::Exclusive);
        assert_eq!(
            s.request(2, P, LockMode::Shared),
            Decision::Waiting { victims: vec![] }
        );
        assert_eq!(
            s.request(3, P, LockMode::Shared),
            Decision::Waiting { victims: vec![] }
        );
        let granted = s.release_all(1);
        assert_eq!(granted, vec![(2, P), (3, P)]);
    }

    #[test]
    fn shared_then_exclusive_waits_behind() {
        let mut s = Scheduler::new();
        s.request(1, P, LockMode::Exclusive);
        s.request(2, P, LockMode::Shared);
        s.request(3, P, LockMode::Exclusive);
        let granted = s.release_all(1);
        // shared head granted; exclusive stays queued behind it
        assert_eq!(granted, vec![(2, P)]);
        assert_eq!(s.waiting_txns(), 1);
        assert_eq!(s.release_all(2), vec![(3, P)]);
    }

    #[test]
    fn queue_jumping_is_prevented() {
        // a compatible request must not overtake earlier waiters
        let mut s = Scheduler::new();
        s.request(1, P, LockMode::Shared);
        s.request(2, P, LockMode::Exclusive); // waits behind the S lock
                                              // txn 3's S-request is compatible with the held S lock, but must
                                              // queue behind txn 2 (no starvation of writers)
        assert_eq!(
            s.request(3, P, LockMode::Shared),
            Decision::Waiting { victims: vec![] }
        );
        let granted = s.release_all(1);
        assert_eq!(granted[0], (2, P), "writer first");
    }

    #[test]
    fn two_txn_deadlock_detected() {
        let mut s = Scheduler::new();
        s.request(1, P, LockMode::Exclusive);
        s.request(2, Q, LockMode::Exclusive);
        assert_eq!(
            s.request(1, Q, LockMode::Exclusive),
            Decision::Waiting { victims: vec![] }
        );
        match s.request(2, P, LockMode::Exclusive) {
            Decision::Deadlock { cycle, victims } => {
                assert!(victims.is_empty());
                assert!(cycle.contains(&2));
                assert_eq!(s.deadlocks_detected(), 1);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        // victim aborts; the survivor gets its lock
        let granted = s.release_all(2);
        assert_eq!(granted, vec![(1, Q)]);
    }

    #[test]
    fn three_txn_cycle_detected() {
        let mut s = Scheduler::new();
        let r = PageId(3);
        s.request(1, P, LockMode::Exclusive);
        s.request(2, Q, LockMode::Exclusive);
        s.request(3, r, LockMode::Exclusive);
        assert_eq!(
            s.request(1, Q, LockMode::Exclusive),
            Decision::Waiting { victims: vec![] }
        );
        assert_eq!(
            s.request(2, r, LockMode::Exclusive),
            Decision::Waiting { victims: vec![] }
        );
        assert!(matches!(
            s.request(3, P, LockMode::Exclusive),
            Decision::Deadlock { .. }
        ));
    }

    #[test]
    fn no_false_deadlocks_on_a_chain() {
        let mut s = Scheduler::new();
        s.request(1, P, LockMode::Exclusive);
        assert_eq!(
            s.request(2, P, LockMode::Exclusive),
            Decision::Waiting { victims: vec![] }
        );
        s.request(3, Q, LockMode::Exclusive);
        // 3 waits on P too — a chain, not a cycle
        assert_eq!(
            s.request(1, Q, LockMode::Exclusive),
            Decision::Waiting { victims: vec![] }
        );
        // wait: txn 1 waits on Q held by 3; 3 holds Q and waits on nothing
        assert_eq!(s.waiting_txns(), 2);
    }

    #[test]
    fn older_requester_victimises_youngest() {
        // 1 holds P, 2 holds Q; 2 waits on P. When the OLDER txn 1 then
        // waits on Q (closing the cycle), the younger txn 2 is chosen as
        // the victim and its wait is cancelled — txn 1 keeps waiting.
        let mut s = Scheduler::new();
        s.request(1, P, LockMode::Exclusive);
        s.request(2, Q, LockMode::Exclusive);
        assert_eq!(
            s.request(2, P, LockMode::Exclusive),
            Decision::Waiting { victims: vec![] }
        );
        assert_eq!(
            s.request(1, Q, LockMode::Exclusive),
            Decision::Waiting { victims: vec![2] }
        );
        assert_eq!(s.wait_stats().victims_chosen, 1);
        assert_eq!(s.deadlocks_detected(), 1);
        // only txn 1 is still waiting; the caller now aborts the victim,
        // which hands Q to txn 1
        assert_eq!(s.waiting_txns(), 1);
        assert_eq!(s.release_all(2), vec![(1, Q)]);
        assert_eq!(s.waiting_txns(), 0);
    }

    #[test]
    fn wait_stats_track_depth_and_enqueues() {
        let mut s = Scheduler::new();
        s.request(1, P, LockMode::Exclusive);
        s.request(2, P, LockMode::Exclusive);
        s.request(3, P, LockMode::Exclusive);
        assert_eq!(s.queue_depth(P), 2);
        assert_eq!(s.queue_depth(Q), 0);
        let stats = s.wait_stats();
        assert_eq!(stats.waits_enqueued, 2);
        assert_eq!(stats.max_wait_depth, 2);
        assert_eq!(stats.waiting_txns, 2);
        s.release_all(1);
        s.release_all(2);
        // history survives the queues draining
        assert_eq!(s.wait_stats().max_wait_depth, 2);
        assert_eq!(s.wait_stats().waiting_txns, 0);
    }

    #[test]
    fn cancel_wait_removes_from_queue() {
        let mut s = Scheduler::new();
        s.request(1, P, LockMode::Exclusive);
        s.request(2, P, LockMode::Exclusive);
        s.request(3, P, LockMode::Exclusive);
        s.cancel_wait(2);
        assert_eq!(s.release_all(1), vec![(3, P)]);
    }

    #[test]
    fn deadlock_rejection_leaves_clean_state() {
        let mut s = Scheduler::new();
        s.request(1, P, LockMode::Exclusive);
        s.request(2, Q, LockMode::Exclusive);
        s.request(1, Q, LockMode::Exclusive); // 1 waits
        let _ = s.request(2, P, LockMode::Exclusive); // deadlock, rejected
                                                      // txn 2 is not waiting, so releasing it cascades to txn 1 only
        assert_eq!(s.waiting_txns(), 1);
        let granted = s.release_all(2);
        assert_eq!(granted, vec![(1, Q)]);
        assert_eq!(s.waiting_txns(), 0);
    }

    #[test]
    #[should_panic(expected = "already waiting")]
    fn double_wait_panics() {
        let mut s = Scheduler::new();
        s.request(1, P, LockMode::Exclusive);
        s.request(2, P, LockMode::Exclusive);
        s.request(2, Q, LockMode::Exclusive);
    }
}
