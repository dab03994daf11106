//! Page-level locking, as used by the back-end controller's scheduler.
//!
//! The paper assumes "a scheduler, located in the back-end controller,
//! which employs page-level locking" for concurrency control. This module
//! implements a strict two-phase lock table with shared/exclusive page
//! locks and upgrade. It is non-blocking: a conflicting request returns an
//! error so single-threaded tests (and the simulator) can decide what to do
//! with the blocked transaction; there is no internal wait queue.

use crate::page::PageId;
use std::collections::{HashMap, HashSet};

/// Shared (read) or exclusive (write) page lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Multiple readers.
    Shared,
    /// Single writer.
    Exclusive,
}

/// A conflicting lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockConflict {
    /// The contested page.
    pub page: PageId,
    /// A transaction currently holding a conflicting lock.
    pub holder: u64,
}

#[derive(Debug)]
struct Entry {
    mode: LockMode,
    holders: HashSet<u64>,
}

/// A table of page locks held by transactions.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: HashMap<PageId, Entry>,
    by_txn: HashMap<u64, HashSet<PageId>>,
}

impl LockTable {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock mode `txn` holds on `page`, if any.
    pub fn held(&self, txn: u64, page: PageId) -> Option<LockMode> {
        self.locks
            .get(&page)
            .filter(|e| e.holders.contains(&txn))
            .map(|e| e.mode)
    }

    /// Number of pages currently locked (by anyone).
    pub fn locked_pages(&self) -> usize {
        self.locks.len()
    }

    /// The transactions currently holding a lock on `page`, in sorted
    /// order (empty if unlocked).
    pub fn holders(&self, page: PageId) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .locks
            .get(&page)
            .map(|e| e.holders.iter().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Acquire (or upgrade to) `mode` on `page` for `txn`.
    ///
    /// Grants are: S alongside other S holders; X when free; S→X upgrade
    /// when `txn` is the sole holder. Re-acquiring an already-held
    /// (equal or stronger) lock is a no-op.
    pub fn acquire(&mut self, txn: u64, page: PageId, mode: LockMode) -> Result<(), LockConflict> {
        match self.locks.get_mut(&page) {
            None => {
                self.locks.insert(
                    page,
                    Entry {
                        mode,
                        holders: HashSet::from([txn]),
                    },
                );
                self.by_txn.entry(txn).or_default().insert(page);
                Ok(())
            }
            Some(entry) => {
                let held = entry.holders.contains(&txn);
                match (entry.mode, mode, held) {
                    // Already strong enough.
                    (LockMode::Exclusive, _, true) | (LockMode::Shared, LockMode::Shared, true) => {
                        Ok(())
                    }
                    // Upgrade when sole holder.
                    (LockMode::Shared, LockMode::Exclusive, true) => {
                        if entry.holders.len() == 1 {
                            entry.mode = LockMode::Exclusive;
                            Ok(())
                        } else {
                            let holder = *entry
                                .holders
                                .iter()
                                .find(|&&h| h != txn)
                                .expect("another holder exists");
                            Err(LockConflict { page, holder })
                        }
                    }
                    // New shared holder joins shared lock.
                    (LockMode::Shared, LockMode::Shared, false) => {
                        entry.holders.insert(txn);
                        self.by_txn.entry(txn).or_default().insert(page);
                        Ok(())
                    }
                    // Everything else conflicts.
                    (LockMode::Shared, LockMode::Exclusive, false)
                    | (LockMode::Exclusive, _, false) => {
                        let holder = *entry.holders.iter().next().expect("entry has a holder");
                        Err(LockConflict { page, holder })
                    }
                }
            }
        }
    }

    /// Release every lock `txn` holds (strict 2PL: called at commit/abort).
    /// Returns the pages released.
    pub fn release_all(&mut self, txn: u64) -> Vec<PageId> {
        let pages = self.by_txn.remove(&txn).unwrap_or_default();
        let mut released: Vec<PageId> = pages.into_iter().collect();
        released.sort_unstable();
        for &page in &released {
            if let Some(entry) = self.locks.get_mut(&page) {
                entry.holders.remove(&txn);
                if entry.holders.is_empty() {
                    self.locks.remove(&page);
                }
            }
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PageId = PageId(1);
    const Q: PageId = PageId(2);

    #[test]
    fn shared_locks_coexist() {
        let mut lt = LockTable::new();
        lt.acquire(1, P, LockMode::Shared).unwrap();
        lt.acquire(2, P, LockMode::Shared).unwrap();
        assert_eq!(lt.held(1, P), Some(LockMode::Shared));
        assert_eq!(lt.held(2, P), Some(LockMode::Shared));
    }

    #[test]
    fn exclusive_excludes() {
        let mut lt = LockTable::new();
        lt.acquire(1, P, LockMode::Exclusive).unwrap();
        assert_eq!(
            lt.acquire(2, P, LockMode::Shared),
            Err(LockConflict { page: P, holder: 1 })
        );
        assert_eq!(
            lt.acquire(2, P, LockMode::Exclusive),
            Err(LockConflict { page: P, holder: 1 })
        );
    }

    #[test]
    fn shared_blocks_exclusive_from_other() {
        let mut lt = LockTable::new();
        lt.acquire(1, P, LockMode::Shared).unwrap();
        assert!(lt.acquire(2, P, LockMode::Exclusive).is_err());
    }

    #[test]
    fn sole_holder_upgrades() {
        let mut lt = LockTable::new();
        lt.acquire(1, P, LockMode::Shared).unwrap();
        lt.acquire(1, P, LockMode::Exclusive).unwrap();
        assert_eq!(lt.held(1, P), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_blocked_by_other_reader() {
        let mut lt = LockTable::new();
        lt.acquire(1, P, LockMode::Shared).unwrap();
        lt.acquire(2, P, LockMode::Shared).unwrap();
        assert_eq!(
            lt.acquire(1, P, LockMode::Exclusive),
            Err(LockConflict { page: P, holder: 2 })
        );
        // still holds its shared lock
        assert_eq!(lt.held(1, P), Some(LockMode::Shared));
    }

    #[test]
    fn reacquire_is_noop() {
        let mut lt = LockTable::new();
        lt.acquire(1, P, LockMode::Exclusive).unwrap();
        lt.acquire(1, P, LockMode::Exclusive).unwrap();
        lt.acquire(1, P, LockMode::Shared).unwrap(); // weaker: still fine
        assert_eq!(lt.held(1, P), Some(LockMode::Exclusive));
    }

    #[test]
    fn release_all_frees_pages() {
        let mut lt = LockTable::new();
        lt.acquire(1, P, LockMode::Exclusive).unwrap();
        lt.acquire(1, Q, LockMode::Shared).unwrap();
        lt.acquire(2, Q, LockMode::Shared).unwrap();
        let released = lt.release_all(1);
        assert_eq!(released, vec![P, Q]);
        // P is free now; Q still held by 2
        lt.acquire(3, P, LockMode::Exclusive).unwrap();
        assert!(lt.acquire(3, Q, LockMode::Exclusive).is_err());
        assert_eq!(lt.held(2, Q), Some(LockMode::Shared));
    }

    #[test]
    fn release_unknown_txn_is_empty() {
        let mut lt = LockTable::new();
        assert!(lt.release_all(99).is_empty());
    }

    #[test]
    fn locked_pages_counts() {
        let mut lt = LockTable::new();
        assert_eq!(lt.locked_pages(), 0);
        lt.acquire(1, P, LockMode::Shared).unwrap();
        lt.acquire(2, Q, LockMode::Exclusive).unwrap();
        assert_eq!(lt.locked_pages(), 2);
        lt.release_all(1);
        assert_eq!(lt.locked_pages(), 1);
    }
}
