//! The chain B-tree: structure, descent, and the logged operations of
//! conventional (unversioned) tables. Versioned writes are in
//! [`crate::write`].

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use immortaldb_common::codec::get_u32;
use immortaldb_common::{Error, Lsn, PageId, Result, Tid, TreeId, NULL_LSN};
use immortaldb_storage::buffer::{BufferPool, FrameRef};
use immortaldb_storage::logrec::LogRecord;
use immortaldb_storage::meta::MetaView;
use immortaldb_storage::page::{Page, PageType, FLAG_VERSIONED, REC_HDR};
use immortaldb_storage::wal::Wal;
use immortaldb_storage::NullResolver;

use crate::chain_dir::ChainDirectory;
use crate::write::{check_record_size, split_for, SplitTimeSource};

/// A disk-backed B+tree whose leaves chain their history pages. See the
/// crate docs for the concurrency model. There must be exactly **one**
/// handle per tree in a process: the structure latch lives here.
pub struct BTree {
    pub(crate) versioned: bool,
    pub(crate) tree_id: TreeId,
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) wal: Arc<Wal>,
    root: AtomicU32,
    /// Read for descents and page operations, write for splits and
    /// compaction passes.
    pub(crate) structure: RwLock<()>,
    pub(crate) split_time: Arc<dyn SplitTimeSource>,
    /// Key-split threshold *T*: after a time split, key-split too if
    /// utilization still exceeds this (default 0.7 → single-slice
    /// utilization ≈ T·ln2 ≈ 0.48).
    pub(crate) split_threshold: f64,
    /// Per-tree split counters (tests read them); the engine-wide
    /// registry aggregates across trees.
    pub(crate) time_splits: AtomicU32,
    pub(crate) key_splits: AtomicU32,
    /// Serializes history-compaction passes over this tree (the
    /// background compactor vs explicit `compact_history` calls).
    pub(crate) compacting: Mutex<()>,
    /// Where each current leaf's history pages lie in time (see
    /// [`crate::chain_dir`]).
    pub(crate) chains: ChainDirectory,
}

impl BTree {
    /// Create a new tree: allocates a root leaf (versioned or not),
    /// registers it in the meta page tree directory, and logs both images
    /// atomically.
    pub fn create(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        tree_id: TreeId,
        versioned: bool,
        split_time: Arc<dyn SplitTimeSource>,
    ) -> Result<BTree> {
        let flags = if versioned { FLAG_VERSIONED } else { 0 };
        let root_frame = pool.new_page(PageType::Leaf, flags, 0)?;
        let root_id = root_frame.page_id();
        let meta_frame = pool.fetch(PageId(0))?;
        let mut meta_g = meta_frame.write();
        if MetaView::tree_root(&meta_g, tree_id).is_some() {
            return Err(Error::Catalog(format!("{tree_id:?} already exists")));
        }
        let mut new_meta = meta_g.clone();
        MetaView::set_tree_root(&mut new_meta, tree_id, root_id)?;
        let root_g = root_frame.read();
        let lsn = wal.append(
            Tid::SYSTEM,
            NULL_LSN,
            &LogRecord::PageImages {
                pages: vec![
                    (root_id, root_g.as_bytes()),
                    (PageId(0), new_meta.as_bytes()),
                ],
            },
        );
        drop(root_g);
        new_meta.set_page_lsn(lsn);
        *meta_g = new_meta;
        meta_frame.mark_dirty(lsn);
        drop(meta_g);
        root_frame.write().set_page_lsn(lsn);
        root_frame.mark_dirty(lsn);
        Ok(Self::handle(
            pool, wal, tree_id, versioned, root_id, split_time,
        ))
    }

    /// Open an existing tree from the meta-page directory.
    pub fn open(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        tree_id: TreeId,
        versioned: bool,
        split_time: Arc<dyn SplitTimeSource>,
    ) -> Result<BTree> {
        let tree = Self::handle(pool, wal, tree_id, versioned, PageId(0), split_time);
        tree.reload_root()?;
        Ok(tree)
    }

    fn handle(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        tree_id: TreeId,
        versioned: bool,
        root: PageId,
        split_time: Arc<dyn SplitTimeSource>,
    ) -> BTree {
        BTree {
            versioned,
            tree_id,
            pool,
            wal,
            root: AtomicU32::new(root.0),
            structure: RwLock::new(()),
            split_threshold: 0.7,
            split_time,
            time_splits: AtomicU32::new(0),
            key_splits: AtomicU32::new(0),
            compacting: Mutex::new(()),
            chains: ChainDirectory::default(),
        }
    }

    pub fn tree_id(&self) -> TreeId {
        self.tree_id
    }

    pub fn root(&self) -> PageId {
        PageId(self.root.load(Ordering::SeqCst))
    }

    /// Re-read the root from the meta page. A replica's redo installs the
    /// root splits its primary made without going through
    /// `install`, so its handles pick the new root up here. Redo
    /// may also have installed a compaction's page images, so the chain
    /// directory starts over.
    pub fn reload_root(&self) -> Result<()> {
        let meta = self.pool.fetch(PageId(0))?;
        let root = MetaView::tree_root(&meta.read(), self.tree_id)
            .ok_or_else(|| Error::Catalog(format!("{:?} not found", self.tree_id)))?;
        self.root.store(root.0, Ordering::SeqCst);
        self.chains.clear();
        Ok(())
    }

    /// `(time splits, key splits)` of leaves since this handle was built.
    pub fn split_counts(&self) -> (u32, u32) {
        (
            self.time_splits.load(Ordering::Relaxed),
            self.key_splits.load(Ordering::Relaxed),
        )
    }

    /// Level of a page that may live in `images` (not yet installed) or in
    /// the pool.
    pub(crate) fn page_level(&self, images: &[Page], id: PageId) -> Result<u16> {
        if let Some(p) = images.iter().find(|p| p.page_id() == id) {
            return Ok(p.level());
        }
        let level = self.pool.fetch(id)?.read().level();
        Ok(level)
    }

    /// Log `images` as one atomic `PageImages` record, then install each
    /// in the pool; with `new_root`, also the meta page naming it.
    pub(crate) fn install(&self, mut images: Vec<Page>, new_root: Option<PageId>) -> Result<()> {
        // The meta write latch is held from clone to install: root changes
        // of *different* trees race on the meta page and the per-tree
        // structure latch does not cover that.
        let meta_frame = self.pool.fetch(PageId(0))?;
        let mut meta_guard = None;
        if let Some(root_id) = new_root {
            let g = meta_frame.write();
            let mut meta = g.clone();
            MetaView::set_tree_root(&mut meta, self.tree_id, root_id)?;
            images.push(meta);
            meta_guard = Some(g);
        }
        // Pin the cached frames of the pages being replaced until each
        // holds its new image. Installing a new page can evict; were an
        // old frame the victim, its write-back would put the image this
        // record supersedes on disk and, with page-image logging, into the
        // log after the record, where redo would take it as the newest.
        let _pins: Vec<FrameRef> = images
            .iter()
            .filter_map(|p| self.pool.resident(p.page_id()))
            .collect();
        let rec = LogRecord::PageImages {
            pages: images.iter().map(|p| (p.page_id(), p.as_bytes())).collect(),
        };
        let lsn = self.wal.append(Tid::SYSTEM, NULL_LSN, &rec);
        for mut image in images {
            let id = image.page_id();
            image.set_page_lsn(lsn);
            if id == PageId(0) {
                let g = meta_guard.as_mut().expect("meta image implies meta guard");
                **g = image;
                meta_frame.mark_dirty(lsn);
            } else {
                // Not `fetch`: for the pages a split allocated that would
                // read the zero page back from disk.
                self.pool.install(image, lsn);
            }
        }
        if let Some(root_id) = new_root {
            self.root.store(root_id.0, Ordering::SeqCst);
        }
        Ok(())
    }

    pub fn is_versioned(&self) -> bool {
        self.versioned
    }

    /// The buffer pool the tree's pages live in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Set the post-time-split key-split threshold *T* (clamped to
    /// `[0.3, 0.95]`).
    pub fn set_split_threshold(&mut self, t: f64) {
        self.split_threshold = t.clamp(0.3, 0.95);
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
        let metrics = self.pool.metrics();
        let mut page_id = self.root();
        loop {
            let frame = self.pool.fetch(page_id)?;
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
        let metrics = self.pool.metrics();
        let mut path = Vec::with_capacity(4);
        let mut page_id = self.root();
        loop {
            path.push(page_id);
            let frame = self.pool.fetch(page_id)?;
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
        let metrics = self.pool.metrics();
        let mut page_id = self.root();
        loop {
            let frame = self.pool.fetch(page_id)?;
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
                let _s = self.structure.read();
                let frame = self.descend(key)?;
                let mut g = frame.write();
                if g.find_slot(key).is_ok() {
                    return Err(Error::DuplicateKey);
                }
                match g.insert_sorted(key, data, 0) {
                    Ok(_) => {
                        let rec = LogRecord::InsertRecord {
                            tree: self.tree_id(),
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
                let _s = self.structure.read();
                let frame = self.descend(key)?;
                let mut g = frame.write();
                let i = g.find_slot(key).map_err(|_| Error::KeyNotFound)?;
                let old = g.rec_data(g.slot(i)).to_vec();
                match g.update_sorted(key, data) {
                    Ok(()) => {
                        let rec = LogRecord::UpdateRecord {
                            tree: self.tree_id(),
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
        let _s = self.structure.read();
        let frame = self.descend(key)?;
        let mut g = frame.write();
        let i = g.find_slot(key).map_err(|_| Error::KeyNotFound)?;
        let old = g.rec_data(g.slot(i)).to_vec();
        g.remove_sorted(key)?;
        let rec = LogRecord::DeleteRecord {
            tree: self.tree_id(),
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
        let lsn = self.wal.append(tid, prev_lsn, rec);
        g.set_page_lsn(lsn);
        frame.mark_dirty(lsn);
        lsn
    }

    /// Point read on a conventional table.
    pub fn u_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        debug_assert!(!self.versioned);
        let _s = self.structure.read();
        let frame = self.descend(key)?;
        Ok(frame.read_optimistic(self.pool.metrics(), |g| {
            g.find_slot(key)
                .ok()
                .map(|i| g.rec_data(g.slot(i)).to_vec())
        }))
    }

    /// Number of live records in a conventional table (scans leaves).
    pub fn u_count(&self) -> Result<usize> {
        debug_assert!(!self.versioned);
        let _s = self.structure.read();
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
            frame = self.pool.fetch(next)?;
        }
    }
}
