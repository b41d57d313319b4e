//! The transaction handle.
//!
//! Commit processing follows §2.2 stage III: the timestamp is chosen at
//! commit (consistent with serialization order), a single PTT row records
//! the `TID → timestamp` mapping for immortal-table writers, and the
//! updated records themselves are *not* revisited — they are stamped
//! lazily on later access, flush, or time split. The eager baseline mode
//! revisits and logs instead, reproducing the costs §2.2 argues against.

use immortaldb_common::{Lsn, Tid, Timestamp, TreeId, NULL_LSN};

/// Isolation level of a read-write transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isolation {
    /// Two-phase locking; reads see the current state and lock it.
    Serializable,
    /// Snapshot isolation: reads AS OF the begin snapshot without locks,
    /// writes take X locks with first-committer-wins conflicts.
    Snapshot,
}

/// When record versions receive their timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimestampingMode {
    /// The paper's scheme: one PTT write at commit, stamping on later
    /// access (unlogged).
    Lazy,
    /// The baseline: revisit and stamp every updated record before the
    /// commit record, logging each stamping.
    Eager,
}

/// A transaction. Obtain from [`crate::Database::begin`] /
/// [`crate::Database::begin_as_of`]; finish with
/// [`crate::Database::commit`] or [`crate::Database::rollback`]. Dropping
/// an unfinished transaction leaks its locks until rollback — the SQL
/// session layer rolls back automatically.
pub struct Transaction {
    pub(crate) tid: Tid,
    pub(crate) last_lsn: Lsn,
    pub(crate) isolation: Isolation,
    /// `Some(ts)` marks a read-only historical (AS OF) transaction.
    pub(crate) as_of: Option<Timestamp>,
    /// Snapshot for SI reads: latest commit timestamp at begin.
    pub(crate) snapshot: Timestamp,
    /// Record versions created (drives the VTT RefCount).
    pub(crate) writes: u64,
    /// Whether any write hit an immortal table (then commit writes a PTT
    /// row).
    pub(crate) wrote_immortal: bool,
    /// Versioned-table keys touched, for the eager baseline's revisit.
    pub(crate) touched: Vec<(TreeId, Vec<u8>)>,
    pub(crate) finished: bool,
    /// Sentinel observation log: hashed reads/writes in execution order,
    /// recorded only when the engine was opened with an event tap armed
    /// (empty and never pushed to otherwise).
    pub(crate) ops: Vec<immortaldb_check::Op>,
    /// The SQL session that began it (0: none), for the sentinel's
    /// session rule.
    pub(crate) session: u64,
}

impl Transaction {
    pub(crate) fn new(tid: Tid, isolation: Isolation, snapshot: Timestamp) -> Transaction {
        Transaction {
            tid,
            last_lsn: NULL_LSN,
            isolation,
            as_of: None,
            snapshot,
            writes: 0,
            wrote_immortal: false,
            touched: Vec::new(),
            finished: false,
            ops: Vec::new(),
            session: 0,
        }
    }

    pub(crate) fn new_as_of(tid: Tid, as_of: Timestamp) -> Transaction {
        Transaction {
            tid,
            last_lsn: NULL_LSN,
            isolation: Isolation::Snapshot,
            as_of: Some(as_of),
            snapshot: as_of,
            writes: 0,
            wrote_immortal: false,
            touched: Vec::new(),
            finished: false,
            ops: Vec::new(),
            session: 0,
        }
    }

    pub fn tid(&self) -> Tid {
        self.tid
    }

    pub fn isolation(&self) -> Isolation {
        self.isolation
    }

    /// The AS OF timestamp for historical transactions.
    pub fn as_of(&self) -> Option<Timestamp> {
        self.as_of
    }

    pub fn is_read_only(&self) -> bool {
        self.as_of.is_some()
    }

    /// Snapshot this transaction reads at (SI and AS OF transactions).
    pub fn snapshot(&self) -> Timestamp {
        self.snapshot
    }

    /// Number of record versions created so far.
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_classify_transactions() {
        let rw = Transaction::new(Tid(1), Isolation::Serializable, Timestamp::new(20, 0));
        assert!(!rw.is_read_only());
        assert_eq!(rw.as_of(), None);
        assert_eq!(rw.tid(), Tid(1));
        assert_eq!(rw.write_count(), 0);

        let ro = Transaction::new_as_of(Tid(2), Timestamp::new(40, 1));
        assert!(ro.is_read_only());
        assert_eq!(ro.as_of(), Some(Timestamp::new(40, 1)));
        assert_eq!(ro.snapshot(), Timestamp::new(40, 1));
    }
}
