//! Table index dispatch: every table is backed either by the page-chain
//! B+tree (the paper's implemented design) or by a TSB-tree (§7.2's
//! temporal index, where AS OF descends directly to historical pages).

use std::sync::Arc;

use immortaldb_btree::{
    BTree, CompactionStats, HistoryStats, KeyRange, Query, RecordVisitor, ScanItem, VersionCursor,
    Visitor,
};
use immortaldb_common::{Error, Lsn, PageId, Result, Tid, Timestamp, TreeId};
use immortaldb_storage::TimestampResolver;
use immortaldb_tsb::TsbTree;

/// Which index structure backs a table (persisted in the catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// B+tree with time-split history page chains (the paper's prototype).
    Chain,
    /// Time-split B-tree: key-time rectangles, direct AS OF access.
    Tsb,
}

/// A handle to a table's index structure.
#[derive(Clone)]
pub enum TableIndex {
    Chain(Arc<BTree>),
    Tsb(Arc<TsbTree>),
}

/// Versioned reads: both index structures answer through the one key ×
/// time cursor, so every adapter of [`VersionCursor`] (`get_as_of`,
/// `scan_as_of`, `versions_between`, `history_of`, `head_version`, …)
/// works on a table handle.
impl VersionCursor for TableIndex {
    fn cursor(
        &self,
        q: &Query<'_>,
        r: &dyn TimestampResolver,
        visit: &mut Visitor<'_>,
    ) -> Result<()> {
        match self {
            TableIndex::Chain(t) => t.cursor(q, r, visit),
            TableIndex::Tsb(t) => t.cursor(q, r, visit),
        }
    }
}

impl TableIndex {
    pub fn kind(&self) -> IndexKind {
        match self {
            TableIndex::Chain(_) => IndexKind::Chain,
            TableIndex::Tsb(_) => IndexKind::Tsb,
        }
    }

    pub fn tree_id(&self) -> TreeId {
        match self {
            TableIndex::Chain(t) => t.tree_id(),
            TableIndex::Tsb(t) => t.tree_id(),
        }
    }

    fn chain(&self) -> Result<&Arc<BTree>> {
        match self {
            TableIndex::Chain(t) => Ok(t),
            TableIndex::Tsb(_) => Err(Error::Internal(
                "operation requires the page-chain index".into(),
            )),
        }
    }

    /// `(time splits, key splits)` since this handle opened.
    pub fn split_counts(&self) -> (u32, u32) {
        match self {
            TableIndex::Chain(t) => t.split_counts(),
            TableIndex::Tsb(t) => t.split_counts(),
        }
    }

    // -- versioned writes ---------------------------------------------------

    pub fn insert(
        &self,
        tid: Tid,
        prev: Lsn,
        key: &[u8],
        data: &[u8],
        r: &dyn TimestampResolver,
    ) -> Result<Lsn> {
        match self {
            TableIndex::Chain(t) => t.insert(tid, prev, key, data, r),
            TableIndex::Tsb(t) => t.insert(tid, prev, key, data, r),
        }
    }

    /// Insert many rows in one call. On a TSB table, runs of rows landing
    /// on the same leaf are applied under one latch acquisition and one
    /// dirty marking (batched ingest); on a chain table it degrades to a
    /// per-row loop. Rows must be sorted by the caller for the batching
    /// to find runs.
    pub fn insert_batch(
        &self,
        tid: Tid,
        prev: Lsn,
        rows: &[(Vec<u8>, Vec<u8>)],
        r: &dyn TimestampResolver,
    ) -> Result<Lsn> {
        match self {
            TableIndex::Chain(t) => {
                let mut last = prev;
                for (key, data) in rows {
                    last = t.insert(tid, last, key, data, r)?;
                }
                Ok(last)
            }
            TableIndex::Tsb(t) => t.insert_batch(tid, prev, rows, r),
        }
    }

    pub fn update(
        &self,
        tid: Tid,
        prev: Lsn,
        key: &[u8],
        data: &[u8],
        r: &dyn TimestampResolver,
    ) -> Result<Lsn> {
        match self {
            TableIndex::Chain(t) => t.update(tid, prev, key, data, r),
            TableIndex::Tsb(t) => t.update(tid, prev, key, data, r),
        }
    }

    pub fn delete(
        &self,
        tid: Tid,
        prev: Lsn,
        key: &[u8],
        r: &dyn TimestampResolver,
    ) -> Result<Lsn> {
        match self {
            TableIndex::Chain(t) => t.delete(tid, prev, key, r),
            TableIndex::Tsb(t) => t.delete(tid, prev, key, r),
        }
    }

    /// Current version of `key` as `own` sees it; on the chain index this
    /// is also the paper's read trigger for lazy timestamping. Every
    /// other versioned read goes through [`VersionCursor`].
    pub fn get_current(
        &self,
        key: &[u8],
        own: Option<Tid>,
        r: &dyn TimestampResolver,
    ) -> Result<Option<Vec<u8>>> {
        match self {
            TableIndex::Chain(t) => t.get_current(key, own, r),
            TableIndex::Tsb(t) => t.get_current(key, own, r),
        }
    }

    pub fn eager_stamp(
        &self,
        tid: Tid,
        prev: Lsn,
        key: &[u8],
        ts: Timestamp,
    ) -> Result<(Lsn, u32)> {
        match self {
            TableIndex::Chain(t) => t.eager_stamp(tid, prev, key, ts),
            TableIndex::Tsb(t) => t.eager_stamp(tid, prev, key, ts),
        }
    }

    /// Snapshot-version pruning — only snapshot-enabled tables, which are
    /// always chain-indexed.
    pub fn prune_snapshot_versions(&self, key: &[u8], watermark: Timestamp) -> Result<usize> {
        self.chain()?.prune_snapshot_versions(key, watermark)
    }

    /// Vacuum support: stamp every committed TID-marked record.
    pub fn stamp_all(&self, r: &dyn TimestampResolver) -> Result<u64> {
        match self {
            TableIndex::Chain(t) => t.stamp_all(r),
            TableIndex::Tsb(t) => t.stamp_all(r),
        }
    }

    // -- history compaction ---------------------------------------------------

    /// One compaction pass over this table's historical pages.
    pub fn compact_history(&self) -> Result<CompactionStats> {
        match self {
            TableIndex::Chain(t) => t.compact_history(),
            TableIndex::Tsb(t) => t.compact_history(),
        }
    }

    /// Shape of this table's version store.
    pub fn history_stats(&self) -> Result<HistoryStats> {
        match self {
            TableIndex::Chain(t) => t.history_stats(),
            TableIndex::Tsb(t) => t.history_stats(),
        }
    }

    // -- unversioned (conventional) ops ---------------------------------------

    pub fn u_insert(&self, tid: Tid, prev: Lsn, key: &[u8], data: &[u8]) -> Result<Lsn> {
        self.chain()?.u_insert(tid, prev, key, data)
    }

    pub fn u_update(&self, tid: Tid, prev: Lsn, key: &[u8], data: &[u8]) -> Result<Lsn> {
        self.chain()?.u_update(tid, prev, key, data)
    }

    pub fn u_delete(&self, tid: Tid, prev: Lsn, key: &[u8]) -> Result<Lsn> {
        self.chain()?.u_delete(tid, prev, key)
    }

    pub fn u_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.chain()?.u_get(key)
    }

    pub fn u_scan(&self) -> Result<Vec<ScanItem>> {
        self.chain()?.u_scan()
    }

    pub fn u_scan_in(&self, keys: &KeyRange<'_>, visit: &mut RecordVisitor<'_>) -> Result<()> {
        self.chain()?.u_scan_in(keys, visit)
    }

    pub fn u_count(&self) -> Result<usize> {
        self.chain()?.u_count()
    }

    // -- TreeLocator support -----------------------------------------------

    pub fn locate_leaf_page(&self, key: &[u8]) -> Result<PageId> {
        match self {
            TableIndex::Chain(t) => t.locate_leaf_page(key),
            TableIndex::Tsb(t) => t.locate_leaf_page(key),
        }
    }

    pub fn locate_leaf_page_for_insert(
        &self,
        key: &[u8],
        space: usize,
        r: &dyn TimestampResolver,
    ) -> Result<PageId> {
        match self {
            TableIndex::Chain(t) => t.locate_leaf_page_for_insert(key, space, r),
            TableIndex::Tsb(t) => t.locate_leaf_page_for_insert(key, space, r),
        }
    }
}
