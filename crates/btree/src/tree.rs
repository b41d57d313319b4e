//! The chain B-tree: structure, descent, and the logged operations of
//! conventional (unversioned) tables. Versioned writes are the shared
//! [`TemporalIndex`](crate::TemporalIndex) path.

use immortaldb_common::codec::get_u32;
use immortaldb_common::{Error, Lsn, PageId, Result, Tid, TreeId};
use immortaldb_storage::buffer::{BufferPool, FrameRef};
use immortaldb_storage::logrec::LogRecord;
use immortaldb_storage::page::{Page, PageType, FLAG_VERSIONED, REC_HDR};
use immortaldb_storage::wal::Wal;
use immortaldb_storage::NullResolver;
use std::sync::Arc;

use crate::tree_core::{check_record_size, split_for, SplitTimeSource, TreeCore};

/// A disk-backed B+tree whose leaves chain their history pages. See the
/// crate docs for the concurrency model.
pub struct BTree {
    pub(crate) core: TreeCore,
    pub(crate) versioned: bool,
}

impl BTree {
    /// Create a new tree (see [`TreeCore::create`]).
    pub fn create(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        tree_id: TreeId,
        versioned: bool,
        split_time: Arc<dyn SplitTimeSource>,
    ) -> Result<BTree> {
        let flags = if versioned { FLAG_VERSIONED } else { 0 };
        Ok(BTree {
            core: TreeCore::create(pool, wal, tree_id, flags, split_time)?,
            versioned,
        })
    }

    /// Open an existing tree from the meta-page directory.
    pub fn open(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        tree_id: TreeId,
        versioned: bool,
        split_time: Arc<dyn SplitTimeSource>,
    ) -> Result<BTree> {
        Ok(BTree {
            core: TreeCore::open(pool, wal, tree_id, split_time)?,
            versioned,
        })
    }

    pub fn is_versioned(&self) -> bool {
        self.versioned
    }

    /// Set the post-time-split key-split threshold *T* (clamped to
    /// `[0.3, 0.95]`).
    pub fn set_split_threshold(&mut self, t: f64) {
        self.core.split_threshold = t.clamp(0.3, 0.95);
    }

    // -- descent ---------------------------------------------------------

    /// Child pointer stored in an index-page record.
    pub(crate) fn index_child(page: &Page, slot: usize) -> PageId {
        PageId(get_u32(page.rec_data(page.slot(slot)), 0))
    }

    /// Pick the child responsible for `key` in an index page (low-key
    /// entries: rightmost entry with key <= target).
    pub(crate) fn pick_child(page: &Page, key: &[u8]) -> Result<PageId> {
        let n = page.slot_count();
        if n == 0 {
            return Err(Error::Corruption(format!(
                "empty index page {:?}",
                page.page_id()
            )));
        }
        let i = match page.find_slot(key) {
            Ok(i) => i,
            Err(0) => {
                return Err(Error::Corruption(format!(
                    "index page {:?} missing low sentinel",
                    page.page_id()
                )))
            }
            Err(pos) => pos - 1,
        };
        Ok(Self::index_child(page, i))
    }

    /// Descend from the root to the current leaf for `key`. The caller
    /// must hold (at least) the structure read latch so the path cannot
    /// move underneath.
    pub(crate) fn descend(&self, key: &[u8]) -> Result<FrameRef> {
        let metrics = self.core.pool.metrics();
        let mut page_id = self.core.root();
        loop {
            let frame = self.core.pool.fetch(page_id)?;
            // The header says whether this is the leaf; only an index
            // page is worth the full optimistic copy (validate the
            // version counter around a latch-free copy; a racing split
            // retries or falls back).
            page_id = match frame.peek_header(metrics).page_type()? {
                PageType::Leaf => return Ok(frame),
                PageType::Index => frame.read_optimistic(metrics, |g| Self::pick_child(g, key))?,
                other => {
                    return Err(Error::Corruption(format!(
                        "descent hit {other:?} page {page_id:?}"
                    )))
                }
            };
        }
    }

    /// Descend recording the whole root→leaf path (for splits).
    pub(crate) fn descend_path(&self, key: &[u8]) -> Result<Vec<PageId>> {
        let metrics = self.core.pool.metrics();
        let mut path = Vec::with_capacity(4);
        let mut page_id = self.core.root();
        loop {
            path.push(page_id);
            let frame = self.core.pool.fetch(page_id)?;
            let step = frame.read_optimistic(metrics, |g| match g.page_type()? {
                PageType::Leaf => Ok(None),
                PageType::Index => Ok(Some(Self::pick_child(g, key)?)),
                other => Err(Error::Corruption(format!(
                    "descent hit {other:?} page {page_id:?}"
                ))),
            })?;
            match step {
                None => return Ok(path),
                Some(child) => page_id = child,
            }
        }
    }

    /// Leftmost current leaf (scan start).
    pub(crate) fn leftmost_leaf(&self) -> Result<FrameRef> {
        let metrics = self.core.pool.metrics();
        let mut page_id = self.core.root();
        loop {
            let frame = self.core.pool.fetch(page_id)?;
            let step = frame.read_optimistic(metrics, |g| match g.page_type()? {
                PageType::Leaf => Ok(None),
                PageType::Index => Ok(Some(Self::index_child(g, 0))),
                other => Err(Error::Corruption(format!(
                    "descent hit {other:?} page {page_id:?}"
                ))),
            })?;
            match step {
                None => return Ok(frame),
                Some(child) => page_id = child,
            }
        }
    }

    // -- unversioned (conventional) operations -----------------------------

    /// Insert into a conventional table (in-place storage, logged with
    /// logical undo).
    pub fn u_insert(&self, tid: Tid, prev_lsn: Lsn, key: &[u8], data: &[u8]) -> Result<Lsn> {
        debug_assert!(!self.versioned);
        check_record_size(key, data)?;
        loop {
            {
                let _s = self.core.structure.read();
                let frame = self.descend(key)?;
                let mut g = frame.write();
                if g.find_slot(key).is_ok() {
                    return Err(Error::DuplicateKey);
                }
                match g.insert_sorted(key, data, 0) {
                    Ok(_) => {
                        let rec = LogRecord::InsertRecord {
                            tree: self.core.tree_id(),
                            page: frame.page_id(),
                            key,
                            data,
                        };
                        return Ok(self.log(&frame, &mut g, tid, prev_lsn, &rec));
                    }
                    Err(Error::PageFull) => {}
                    Err(e) => return Err(e),
                }
            }
            let need = REC_HDR + key.len() + data.len() + 2;
            split_for(self, key, need, &NullResolver)?;
        }
    }

    /// In-place update on a conventional table.
    pub fn u_update(&self, tid: Tid, prev_lsn: Lsn, key: &[u8], data: &[u8]) -> Result<Lsn> {
        debug_assert!(!self.versioned);
        check_record_size(key, data)?;
        loop {
            {
                let _s = self.core.structure.read();
                let frame = self.descend(key)?;
                let mut g = frame.write();
                let i = g.find_slot(key).map_err(|_| Error::KeyNotFound)?;
                let old = g.rec_data(g.slot(i)).to_vec();
                match g.update_sorted(key, data) {
                    Ok(()) => {
                        let rec = LogRecord::UpdateRecord {
                            tree: self.core.tree_id(),
                            page: frame.page_id(),
                            key,
                            old: &old,
                            new: data,
                        };
                        return Ok(self.log(&frame, &mut g, tid, prev_lsn, &rec));
                    }
                    Err(Error::PageFull) => {}
                    Err(e) => return Err(e),
                }
            }
            let need = REC_HDR + key.len() + data.len() + 2;
            split_for(self, key, need, &NullResolver)?;
        }
    }

    /// Delete from a conventional table.
    pub fn u_delete(&self, tid: Tid, prev_lsn: Lsn, key: &[u8]) -> Result<Lsn> {
        debug_assert!(!self.versioned);
        let _s = self.core.structure.read();
        let frame = self.descend(key)?;
        let mut g = frame.write();
        let i = g.find_slot(key).map_err(|_| Error::KeyNotFound)?;
        let old = g.rec_data(g.slot(i)).to_vec();
        g.remove_sorted(key)?;
        let rec = LogRecord::DeleteRecord {
            tree: self.core.tree_id(),
            page: frame.page_id(),
            key,
            old: &old,
        };
        Ok(self.log(&frame, &mut g, tid, prev_lsn, &rec))
    }

    /// Append `rec` for the change just made to the latched leaf `g`.
    fn log(
        &self,
        frame: &FrameRef,
        g: &mut Page,
        tid: Tid,
        prev_lsn: Lsn,
        rec: &LogRecord<&[u8]>,
    ) -> Lsn {
        let lsn = self.core.wal.append(tid, prev_lsn, rec);
        g.set_page_lsn(lsn);
        frame.mark_dirty(lsn);
        lsn
    }

    /// Point read on a conventional table.
    pub fn u_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        debug_assert!(!self.versioned);
        let _s = self.core.structure.read();
        let frame = self.descend(key)?;
        Ok(frame.read_optimistic(self.core.pool.metrics(), |g| {
            g.find_slot(key)
                .ok()
                .map(|i| g.rec_data(g.slot(i)).to_vec())
        }))
    }

    /// Number of live records in a conventional table (scans leaves).
    pub fn u_count(&self) -> Result<usize> {
        debug_assert!(!self.versioned);
        let _s = self.core.structure.read();
        let mut n = 0usize;
        let mut frame = self.leftmost_leaf()?;
        loop {
            let g = frame.read();
            n += g.slot_count();
            let next = g.next_leaf();
            drop(g);
            if !next.is_valid() {
                return Ok(n);
            }
            frame = self.core.pool.fetch(next)?;
        }
    }
}
