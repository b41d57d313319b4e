//! Table index dispatch: every table is backed either by the page-chain
//! B+tree (the paper's implemented design) or by a TSB-tree (§7.2's
//! temporal index, where AS OF descends directly to historical pages).
//!
//! Both are one [`TemporalIndex`] — the shared write path, stamping,
//! current reads and the key × time cursor — which a handle derefs to.
//! What stays per index kind is compaction and, on the chain index only,
//! the conventional-table operations.

use std::ops::Deref;
use std::sync::Arc;

use immortaldb_btree::{
    BTree, CompactionStats, KeyRange, RecordVisitor, ScanItem, SplitTimeSource, TemporalIndex,
};
use immortaldb_common::{Error, Lsn, Result, Tid, Timestamp};
use immortaldb_storage::buffer::BufferPool;
use immortaldb_storage::wal::Wal;
use immortaldb_tsb::TsbTree;

use crate::catalog::TableDef;

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

impl Deref for TableIndex {
    type Target = dyn TemporalIndex;

    fn deref(&self) -> &(dyn TemporalIndex + 'static) {
        match self {
            TableIndex::Chain(t) => t.as_ref(),
            TableIndex::Tsb(t) => t.as_ref(),
        }
    }
}

impl TableIndex {
    /// Create (`create`) or open the tree behind `def`.
    pub(crate) fn build(
        def: &TableDef,
        create: bool,
        pool: &Arc<BufferPool>,
        wal: &Arc<Wal>,
        split_time: &Arc<dyn SplitTimeSource>,
    ) -> Result<TableIndex> {
        let (pool, wal, split_time) = (Arc::clone(pool), Arc::clone(wal), Arc::clone(split_time));
        let (tree, versioned) = (def.tree, def.kind.is_versioned());
        Ok(match def.index {
            IndexKind::Chain => {
                let t = if create {
                    BTree::create(pool, wal, tree, versioned, split_time)
                } else {
                    BTree::open(pool, wal, tree, versioned, split_time)
                }?;
                TableIndex::Chain(Arc::new(t))
            }
            IndexKind::Tsb => {
                let t = if create {
                    TsbTree::create(pool, wal, tree, split_time)
                } else {
                    TsbTree::open(pool, wal, tree, split_time)
                }?;
                TableIndex::Tsb(Arc::new(t))
            }
        })
    }

    pub fn kind(&self) -> IndexKind {
        match self {
            TableIndex::Chain(_) => IndexKind::Chain,
            TableIndex::Tsb(_) => IndexKind::Tsb,
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

    /// Snapshot-version pruning — only snapshot-enabled tables, which are
    /// always chain-indexed.
    pub fn prune_snapshot_versions(&self, key: &[u8], watermark: Timestamp) -> Result<usize> {
        self.chain()?.prune_snapshot_versions(key, watermark)
    }

    // -- history compaction ---------------------------------------------------

    /// One compaction pass over this table's historical pages. A TSB
    /// table has nothing to merge: its index entries address history
    /// pages by id.
    pub fn compact_history(&self) -> Result<CompactionStats> {
        match self {
            TableIndex::Chain(t) => t.compact_history(),
            TableIndex::Tsb(_) => Ok(CompactionStats::default()),
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

    pub fn u_scan(&self) -> Result<Vec<ScanItem>> {
        self.chain()?.u_scan()
    }

    pub fn u_scan_in(&self, keys: &KeyRange<'_>, visit: &mut RecordVisitor<'_>) -> Result<()> {
        self.chain()?.u_scan_in(keys, visit)
    }

    pub fn u_count(&self) -> Result<usize> {
        self.chain()?.u_count()
    }
}
