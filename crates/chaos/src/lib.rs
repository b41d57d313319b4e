//! # immortaldb-chaos
//!
//! Deterministic fault injection and crash-recovery torture for the
//! Immortal DB engine.
//!
//! Three layers:
//!
//! * [`fault::FaultVfs`] — wraps the storage crate's [`Vfs`] seam and
//!   injects seeded, counted faults: torn page writes, truncated WAL
//!   appends, fsync failures, transient read errors and "crash after
//!   operation N" cut-points.
//! * [`torture`] — a randomized multi-transaction workload, run by one
//!   writer or (`threads`) several sharing group-commit batches, that
//!   crashes the engine at those cut-points, reopens it through full
//!   ARIES recovery and audits every invariant transaction-time support
//!   promises (durability, rollback, timestamp repair through the PTT,
//!   `AS OF` stability across crashes, no TID handed out twice).
//! * [`history`] — the test suite's one commit-history model
//!   ([`History`]) and offline isolation check ([`replay`], through the
//!   sentinel's own rule engine), plus [`TempDir`], the scratch directory
//!   every test works in.
//!
//! ```text
//! cargo run -p immortaldb-chaos --bin torture -- --seed 42 --ops 2000 --crashes 25
//! cargo run -p immortaldb-chaos --bin torture -- --threads 4 --seed 42 --keys 16
//! ```
//!
//! [`Vfs`]: immortaldb_storage::vfs::Vfs

pub mod fault;
pub mod history;
pub mod torture;

pub use fault::{FaultState, FaultVfs};
pub use history::{replay, Access, Change, History, Mismatch, Row, TxnLog, Version};
pub use torture::{run, TortureConfig, TortureReport};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use immortaldb::{ColType, Column, Schema};

/// Schema shared by the torture harness and the deterministic chaos
/// tests: `k INT PRIMARY KEY, v VARCHAR(32)`.
pub fn kv_schema() -> Schema {
    Schema::new(
        vec![
            Column {
                name: "k".into(),
                ctype: ColType::Int,
            },
            Column {
                name: "v".into(),
                ctype: ColType::Varchar(32),
            },
        ],
        0,
    )
    .expect("static schema is valid")
}

/// A fresh, empty directory under the system temp dir, removed with
/// everything in it when the guard drops — also when the test holding it
/// panics.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("immortaldb-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a scratch directory");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_directories_go_even_when_their_test_panics() {
        let dir = TempDir::new("guard");
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("data"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists(), "{path:?} survived its guard");

        let mut path = PathBuf::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = TempDir::new("guard-panic");
            path = dir.path().to_path_buf();
            std::fs::write(path.join("data"), b"x").unwrap();
            panic!("a failing assertion");
        }));
        assert!(unwound.is_err());
        assert!(
            !path.as_os_str().is_empty() && !path.exists(),
            "{path:?} leaked"
        );
    }
}
