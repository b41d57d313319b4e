//! Abstract syntax of the SQL dialect.

use crate::catalog::TableKind;
use crate::row::{ColType, Value};
use crate::txn::Isolation;

/// Comparison operators in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// `column op literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    pub column: String,
    pub op: CmpOp,
    pub value: Value,
}

/// Conjunction of conditions (empty = always true).
pub type Predicate = Vec<Condition>;

/// How an AS OF time was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsOfSpec {
    /// `AS OF "8/12/2004 10:15:20"` — a civil datetime (UTC).
    DateTime(String),
    /// `AS OF ms(1234567)` — raw milliseconds since the epoch.
    Millis(u64),
    /// `AS OF SNAPSHOT name` — a named snapshot's pinned timestamp.
    Snapshot(String),
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        kind: TableKind,
        columns: Vec<(String, ColType)>,
        /// Column marked PRIMARY KEY.
        pk: usize,
    },
    AlterEnableSnapshot {
        table: String,
    },
    Begin {
        as_of: Option<AsOfSpec>,
        isolation: Isolation,
    },
    Commit,
    Rollback,
    Insert {
        table: String,
        rows: Vec<Vec<Value>>,
    },
    Update {
        table: String,
        sets: Vec<(String, Value)>,
        predicate: Predicate,
    },
    Delete {
        table: String,
        predicate: Predicate,
    },
    Select {
        table: String,
        /// `None` = `*`.
        columns: Option<Vec<String>>,
        predicate: Predicate,
    },
    /// `HISTORY OF t WHERE pk = literal` — time travel for one record.
    History {
        table: String,
        pk: Value,
    },
    /// `RESTORE TABLE t AS OF …` — log-based point-in-time restore:
    /// rewrite the table's current state back to what an AS OF reader
    /// sees, as one transaction (history is preserved).
    RestoreTable {
        table: String,
        as_of: AsOfSpec,
    },
    /// `SELECT … FROM t VERSIONS BETWEEN a AND b [WHERE …]` — every
    /// version of matching keys committed in the window, delete
    /// tombstones included, each row carrying its commit timestamp.
    VersionsBetween {
        table: String,
        /// `None` = `*`.
        columns: Option<Vec<String>>,
        t1: AsOfSpec,
        t2: AsOfSpec,
        predicate: Predicate,
    },
    /// `DIFF TABLE t BETWEEN a AND b [WHERE pk …]` — the net change set
    /// between the table's states at the two instants, optionally for a
    /// primary-key range only.
    DiffTable {
        table: String,
        t1: AsOfSpec,
        t2: AsOfSpec,
        predicate: Predicate,
    },
    /// `CREATE SNAPSHOT s [AS OF …]` — pin a timestamp under a name.
    CreateSnapshot {
        name: String,
        as_of: Option<AsOfSpec>,
    },
    /// `DROP SNAPSHOT s`.
    DropSnapshot {
        name: String,
    },
    /// `SHOW SNAPSHOTS` — every named snapshot and its pinned time.
    ShowSnapshots,
    /// `CHECKPOINT` — engine maintenance.
    Checkpoint,
    /// `VACUUM` — stamp everything and reclaim all PTT entries (§2.2).
    Vacuum,
    /// `SHOW STATS` — every engine metric as `(name, value)` rows.
    ShowStats,
}
