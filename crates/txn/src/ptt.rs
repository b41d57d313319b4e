//! The persistent timestamp table (PTT, §2.2).
//!
//! A disk table `(TID, Ttime, SN)` implemented as an unversioned B-tree
//! keyed by big-endian TID — TIDs ascend, so the active entries cluster at
//! the tail and lookups stay fast even when crash-orphaned entries
//! accumulate at the front. The single PTT insert at commit is the whole
//! price of lazy timestamping; it is logged inside the committing
//! transaction (so a pre-commit crash rolls it back with everything else).

use std::sync::Arc;

use immortaldb_btree::{BTree, Flow, KeyRange, SplitTimeSource};
use immortaldb_common::codec::{key_from_u64, u64_from_key, Reader, Writer};
use immortaldb_common::{Error, Lsn, Result, Tid, Timestamp, TreeId, NULL_LSN};
use immortaldb_storage::buffer::BufferPool;
use immortaldb_storage::wal::Wal;

/// The persistent timestamp table.
pub struct Ptt {
    tree: Arc<BTree>,
}

fn encode_ts(ts: Timestamp) -> Vec<u8> {
    let mut w = Writer::with_capacity(12);
    w.u64(ts.ttime).u32(ts.sn);
    w.finish()
}

fn decode_ts(data: &[u8]) -> Result<Timestamp> {
    let mut r = Reader::new(data);
    let ts = Timestamp::new(r.u64()?, r.u32()?);
    r.expect_end()?;
    Ok(ts)
}

impl Ptt {
    /// Create the PTT in a fresh database.
    pub fn create(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        split_time: Arc<dyn SplitTimeSource>,
    ) -> Result<Ptt> {
        Ok(Ptt {
            tree: Arc::new(BTree::create(pool, wal, TreeId::PTT, false, split_time)?),
        })
    }

    /// Open the PTT of an existing database.
    pub fn open(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        split_time: Arc<dyn SplitTimeSource>,
    ) -> Result<Ptt> {
        Ok(Ptt {
            tree: Arc::new(BTree::open(pool, wal, TreeId::PTT, false, split_time)?),
        })
    }

    /// The underlying tree handle (shared with the engine's tree registry
    /// so logical undo can locate PTT leaves — there must be exactly one
    /// `BTree` handle per tree).
    pub fn tree(&self) -> &Arc<BTree> {
        &self.tree
    }

    /// Insert the committing transaction's `(TID → timestamp)` mapping,
    /// logged under the transaction itself (stage III). Returns the new
    /// last LSN for the transaction's backchain.
    pub fn insert(&self, tid: Tid, ts: Timestamp, prev_lsn: Lsn) -> Result<Lsn> {
        self.tree
            .u_insert(tid, prev_lsn, &key_from_u64(tid.0), &encode_ts(ts))
    }

    /// Look up a transaction's timestamp (stage IV fallback on VTT miss).
    pub fn lookup(&self, tid: Tid) -> Result<Option<Timestamp>> {
        match self.tree.u_get(&key_from_u64(tid.0))? {
            Some(data) => Ok(Some(decode_ts(&data)?)),
            None => Ok(None),
        }
    }

    /// Garbage-collect a completed transaction's entry (redo-only system
    /// action; stamping durability was established before this is called).
    pub fn delete(&self, tid: Tid) -> Result<()> {
        match self
            .tree
            .u_delete(Tid::SYSTEM, NULL_LSN, &key_from_u64(tid.0))
        {
            Ok(_) => Ok(()),
            // Already gone (e.g. repeated GC pass): idempotent.
            Err(Error::KeyNotFound) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Write back, where dirty, the leaves that hold (or held) `tids`'
    /// entries. A checkpoint collects entries after its flush; left
    /// dirty, their leaves would be written back by the evictions of
    /// later reads, each of which would wait for it.
    pub fn write_back(&self, tids: &[Tid]) -> Result<()> {
        let mut leaves = tids
            .iter()
            .map(|t| self.tree.locate_leaf_page(&key_from_u64(t.0)))
            .collect::<Result<Vec<_>>>()?;
        leaves.sort_unstable();
        leaves.dedup();
        let pool = self.tree.pool();
        for frame in leaves.into_iter().filter_map(|id| pool.resident(id)) {
            pool.write_back(&frame)?;
        }
        Ok(())
    }

    /// Number of live entries (drives the PTT-growth experiment).
    pub fn len(&self) -> Result<usize> {
        self.tree.u_count()
    }

    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// All entries, ascending by TID (diagnostics / tests).
    pub fn entries(&self) -> Result<Vec<(Tid, Timestamp)>> {
        let mut out = Vec::new();
        self.tree.u_scan_in(&KeyRange::ALL, &mut |key, data| {
            out.push((Tid(u64_from_key(key)?), decode_ts(data)?));
            Ok(Flow::Continue)
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use immortaldb_common::Timestamp;
    use immortaldb_storage::disk::DiskManager;
    use std::path::PathBuf;

    struct FixedSplit;
    impl SplitTimeSource for FixedSplit {
        fn current_split_ts(&self) -> Timestamp {
            Timestamp::MAX
        }
    }

    fn env(name: &str) -> (Arc<BufferPool>, Arc<Wal>, PathBuf, PathBuf) {
        let mut db = std::env::temp_dir();
        db.push(format!("immortal-ptt-{name}-{}.db", std::process::id()));
        let mut wal_path = std::env::temp_dir();
        wal_path.push(format!("immortal-ptt-{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(&wal_path);
        let (disk, _) = DiskManager::open(&db).unwrap();
        let wal = Arc::new(Wal::open(&wal_path).unwrap());
        let pool = Arc::new(BufferPool::new(Arc::new(disk), Arc::clone(&wal), 64));
        (pool, wal, db, wal_path)
    }

    fn ts(t: u64, sn: u32) -> Timestamp {
        Timestamp::new(t * 20, sn)
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        let (pool, wal, db, wp) = env("roundtrip");
        let ptt = Ptt::create(pool, wal, Arc::new(FixedSplit)).unwrap();
        ptt.insert(Tid(10), ts(5, 3), NULL_LSN).unwrap();
        ptt.insert(Tid(11), ts(5, 4), NULL_LSN).unwrap();
        assert_eq!(ptt.lookup(Tid(10)).unwrap(), Some(ts(5, 3)));
        assert_eq!(ptt.lookup(Tid(99)).unwrap(), None);
        assert_eq!(ptt.len().unwrap(), 2);
        ptt.delete(Tid(10)).unwrap();
        assert_eq!(ptt.lookup(Tid(10)).unwrap(), None);
        assert_eq!(ptt.len().unwrap(), 1);
        // Idempotent delete.
        ptt.delete(Tid(10)).unwrap();
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wp);
    }

    #[test]
    fn entries_ascend_by_tid() {
        let (pool, wal, db, wp) = env("ascend");
        let ptt = Ptt::create(pool, wal, Arc::new(FixedSplit)).unwrap();
        for tid in [5u64, 1, 9, 3, 7] {
            ptt.insert(Tid(tid), ts(tid, 0), NULL_LSN).unwrap();
        }
        let entries = ptt.entries().unwrap();
        let tids: Vec<u64> = entries.iter().map(|(t, _)| t.0).collect();
        assert_eq!(tids, vec![1, 3, 5, 7, 9]);
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wp);
    }

    #[test]
    fn scales_past_one_page() {
        let (pool, wal, db, wp) = env("scale");
        let ptt = Ptt::create(pool, wal, Arc::new(FixedSplit)).unwrap();
        for tid in 1..=2000u64 {
            ptt.insert(Tid(tid), ts(tid, 0), NULL_LSN).unwrap();
        }
        assert_eq!(ptt.len().unwrap(), 2000);
        assert_eq!(ptt.lookup(Tid(1500)).unwrap(), Some(ts(1500, 0)));
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wp);
    }
}
