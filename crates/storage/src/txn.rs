//! One transaction table for the single-threaded engines: the back-end
//! controller's bookkeeping, kept once. Ids are handed out in increasing
//! order, each open transaction keeps its engine state, and strict
//! two-phase no-wait locks are keyed by a `u64`: a page number for the log
//! and shadow engines, a tuple key for the differential file.

use crate::lock::{LockConflict, LockMode, LockTable};
use crate::page::PageId;
use std::collections::HashMap;

/// Why a [`TxnTable`] refused an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The id names no open transaction.
    Unknown(u64),
    /// Another transaction holds a conflicting lock; [`LockConflict::page`]
    /// carries the contested key.
    Conflict(LockConflict),
}

/// Open transactions, their engine state `T`, and a no-wait lock table.
#[derive(Debug)]
pub struct TxnTable<T> {
    next: u64,
    open: HashMap<u64, T>,
    locks: LockTable,
}

impl<T> TxnTable<T> {
    /// An empty table whose first transaction gets id `first`.
    pub fn new(first: u64) -> Self {
        TxnTable {
            next: first,
            open: HashMap::new(),
            locks: LockTable::new(),
        }
    }

    /// Open a transaction whose state `make` builds from its id.
    pub fn begin(&mut self, make: impl FnOnce(u64) -> T) -> u64 {
        let txn = self.next;
        self.next += 1;
        self.open.insert(txn, make(txn));
        txn
    }

    /// The state of open transaction `txn`.
    pub fn get(&self, txn: u64) -> Result<&T, TxnError> {
        self.open.get(&txn).ok_or(TxnError::Unknown(txn))
    }

    /// The state of open transaction `txn`, mutably.
    pub fn get_mut(&mut self, txn: u64) -> Result<&mut T, TxnError> {
        self.open.get_mut(&txn).ok_or(TxnError::Unknown(txn))
    }

    /// Lock `key` in `mode` for open transaction `txn` and return its
    /// state. Nothing waits: a conflicting holder is reported, and a lock
    /// already held as strongly is granted again.
    pub fn lock(&mut self, txn: u64, key: u64, mode: LockMode) -> Result<&mut T, TxnError> {
        let state = self.open.get_mut(&txn).ok_or(TxnError::Unknown(txn))?;
        self.locks
            .acquire(txn, PageId(key), mode)
            .map_err(TxnError::Conflict)?;
        Ok(state)
    }

    /// End `txn`, committed or aborted: its state leaves the table and
    /// every lock it holds is released.
    pub fn end(&mut self, txn: u64) -> Result<T, TxnError> {
        let state = self.open.remove(&txn).ok_or(TxnError::Unknown(txn))?;
        self.locks.release_all(txn);
        Ok(state)
    }

    /// Strand `txn` after its commit-point write failed: whether that
    /// write reached the disk is known only after a restart, so its state
    /// leaves the table but its locks stay held, and nothing this engine
    /// runs may overwrite what it locked.
    pub fn strand(&mut self, txn: u64) -> Result<T, TxnError> {
        self.open.remove(&txn).ok_or(TxnError::Unknown(txn))
    }

    /// The open transactions' ids, in no particular order.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.open.keys().copied()
    }

    /// No transaction is open.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_count_up_from_the_first() {
        let mut txns: TxnTable<u64> = TxnTable::new(5);
        assert_eq!(txns.begin(|id| id * 10), 5);
        assert_eq!(txns.begin(|id| id * 10), 6);
        assert_eq!(*txns.get(6).unwrap(), 60);
        let mut ids: Vec<u64> = txns.ids().collect();
        ids.sort_unstable();
        assert_eq!(ids, [5, 6]);
        txns.end(5).unwrap();
        txns.end(6).unwrap();
        assert!(txns.is_empty());
        assert_eq!(txns.begin(|_| 0), 7, "ids are never reused");
    }

    #[test]
    fn unknown_ids_are_refused_everywhere() {
        let mut txns: TxnTable<()> = TxnTable::new(1);
        assert_eq!(txns.get(3).unwrap_err(), TxnError::Unknown(3));
        assert_eq!(txns.get_mut(3).unwrap_err(), TxnError::Unknown(3));
        assert_eq!(
            txns.lock(3, 1, LockMode::Shared).unwrap_err(),
            TxnError::Unknown(3)
        );
        assert_eq!(txns.end(3).unwrap_err(), TxnError::Unknown(3));
        assert_eq!(txns.strand(3).unwrap_err(), TxnError::Unknown(3));
    }

    #[test]
    fn shared_locks_coexist_and_exclusive_conflicts() {
        let mut txns: TxnTable<()> = TxnTable::new(1);
        let (a, b) = (txns.begin(|_| ()), txns.begin(|_| ()));
        txns.lock(a, 9, LockMode::Shared).unwrap();
        txns.lock(b, 9, LockMode::Shared).unwrap();
        assert_eq!(
            txns.lock(b, 9, LockMode::Exclusive).unwrap_err(),
            TxnError::Conflict(LockConflict {
                page: PageId(9),
                holder: a
            })
        );
        txns.end(a).unwrap();
        txns.lock(b, 9, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn a_stranded_txn_keeps_its_locks() {
        let mut txns: TxnTable<()> = TxnTable::new(1);
        let (a, b) = (txns.begin(|_| ()), txns.begin(|_| ()));
        txns.lock(a, 4, LockMode::Exclusive).unwrap();
        txns.strand(a).unwrap();
        assert_eq!(txns.get(a).unwrap_err(), TxnError::Unknown(a));
        assert_eq!(
            txns.lock(b, 4, LockMode::Exclusive).unwrap_err(),
            TxnError::Conflict(LockConflict {
                page: PageId(4),
                holder: a
            })
        );
    }
}
