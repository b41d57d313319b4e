//! # Immortal DB
//!
//! A transaction-time database engine, reproducing *"Transaction Time
//! Support Inside a Database Engine"* (Lomet et al., ICDE 2006) in Rust.
//!
//! Regular inserts/updates/deletes never remove information: every change
//! creates a new record version stamped — lazily, after commit — with a
//! timestamp consistent with transaction serialization order. Versions
//! live in an integrated storage structure whose pages *time-split*, so
//! the full history of every `IMMORTAL` table stays queryable:
//!
//! ```
//! use std::sync::Arc;
//! use immortaldb::{Database, DbConfig, Session, SimClock};
//!
//! let dir = std::env::temp_dir().join(format!("immortal-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let clock = Arc::new(SimClock::new(1_000_000));
//! let db = Database::open(DbConfig::new(&dir).clock(clock.clone())).unwrap();
//! let mut session = Session::new(&db);
//!
//! session.execute(
//!     "CREATE IMMORTAL TABLE MovingObjects \
//!      (Oid SMALLINT PRIMARY KEY, LocationX INT, LocationY INT)",
//! ).unwrap();
//! session.execute("INSERT INTO MovingObjects VALUES (1, 10, 20)").unwrap();
//! let t_past = db.now_ms();
//! clock.advance(20); // next clock tick
//! session.execute("UPDATE MovingObjects SET LocationX = 99 WHERE Oid = 1").unwrap();
//!
//! // Query the past: the AS OF transaction sees the pre-update state.
//! let sql = format!("BEGIN TRAN AS OF ms({t_past})");
//! session.execute(&sql).unwrap();
//! let rows = session.execute("SELECT * FROM MovingObjects WHERE Oid < 10").unwrap();
//! session.execute("COMMIT TRAN").unwrap();
//! assert_eq!(rows.rows[0][1].to_string(), "10");
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! The engine stack: a page/WAL/buffer-pool substrate
//! ([`immortaldb_storage`]), a versioned B+tree with time splits
//! ([`immortaldb_btree`]), lazy timestamping and locking
//! ([`immortaldb_txn`]), and — in this crate — the catalog, the
//! transaction API, and a small SQL dialect (`CREATE IMMORTAL TABLE`,
//! `BEGIN TRAN AS OF "…"`, and friends).

pub mod catalog;
pub mod db;
pub mod row;
pub mod sql;
pub mod temporal;
pub mod txn;

#[cfg(test)]
mod tests;

pub use catalog::{SnapshotDef, TableDef, TableKind};
pub use db::{Database, DbConfig, TID_BLOCK, WRITE_CHUNK};
pub use row::{ColType, Column, PkBounds, RowSink, Schema, Value};
pub use sql::{Outcome, Paused, QueryResult, Session, Step};
pub use temporal::{DiffOp, DiffRow, TemporalVersion};
pub use txn::{Isolation, TimestampingMode, Transaction};

// Re-exports for downstream crates (benches, examples).
pub use immortaldb_btree::{CompactionStats, Flow, HistoryStats};
pub use immortaldb_check::{EventTap, Sentinel, SentinelReport};
pub use immortaldb_common::{Clock, Error, ErrorCode, Result, SimClock, SystemClock, Timestamp};
pub use immortaldb_storage::wal::{Durability, GroupCommitConfig};
