//! Tree structure, descent, and logged write operations.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use immortaldb_common::codec::get_u32;
use immortaldb_common::{Error, Lsn, PageId, Result, Tid, Timestamp, TreeId, NULL_LSN};
use immortaldb_storage::buffer::{BufferPool, FrameRef};
use immortaldb_storage::logrec::LogRecord;
use immortaldb_storage::meta::MetaView;
use immortaldb_storage::page::{Page, PageType, FLAG_VERSIONED, REC_HDR};
use immortaldb_storage::recovery::TreeLocator;
use immortaldb_storage::version;
use immortaldb_storage::wal::Wal;
use immortaldb_storage::TimestampResolver;

/// Largest key+data payload a single record may carry. Keeps every record
/// comfortably below a quarter page so key splits always succeed.
pub const MAX_RECORD: usize = 1900;

/// Provides the split time for page time splits: a timestamp strictly
/// greater than every commit timestamp issued so far (the paper splits
/// "using the current time"). Implemented by the timestamp authority.
pub trait SplitTimeSource: Send + Sync {
    fn current_split_ts(&self) -> Timestamp;

    /// Upper bound a time split may use as its boundary. A split above
    /// this value could cut below a commit timestamp that is already
    /// issued but whose (TID-marked) versions must stay in the current
    /// page — those versions would then be invisible to readers between
    /// the commit timestamp and the page's new start. Sources that track
    /// in-flight commits override this; the default imposes no bound.
    fn max_safe_split_ts(&self) -> Timestamp {
        Timestamp::MAX
    }
}

/// A split-time source for unversioned trees and tests.
pub struct FixedSplitTime(pub Timestamp);

impl SplitTimeSource for FixedSplitTime {
    fn current_split_ts(&self) -> Timestamp {
        self.0
    }
}

/// State of the newest (chain-head) version of a key — what snapshot
/// isolation's first-committer-wins check needs to see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeadVersion {
    /// No chain for this key in the current page.
    NotFound,
    /// Newest version is TID-marked by a transaction the resolver does not
    /// know to be committed (i.e. still active).
    Uncommitted { tid: Tid, stub: bool },
    /// Newest version is committed with this timestamp.
    Committed { ts: Timestamp, stub: bool },
}

/// A disk-backed B+tree. See the crate docs for the concurrency model.
pub struct BTree {
    pub(crate) tree_id: TreeId,
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) wal: Arc<Wal>,
    pub(crate) versioned: bool,
    pub(crate) root: AtomicU32,
    pub(crate) structure: RwLock<()>,
    /// Key-split threshold *T*: after a time split, key-split too if
    /// utilization still exceeds this (default 0.7 → single-slice
    /// utilization ≈ T·ln2 ≈ 0.48).
    pub(crate) split_threshold: f64,
    pub(crate) split_time: Arc<dyn SplitTimeSource>,
    /// Metrics: number of time splits / key splits performed.
    pub(crate) time_splits: AtomicU32,
    pub(crate) key_splits: AtomicU32,
    /// Serializes history-compaction passes over this tree (the
    /// background compactor vs explicit `compact_history` calls).
    pub(crate) compacting: Mutex<()>,
}

impl BTree {
    /// Create a new tree: allocates a root leaf, registers it in the meta
    /// page tree directory, and logs both images atomically.
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
                    (root_id, root_g.as_bytes().to_vec()),
                    (PageId(0), new_meta.as_bytes().to_vec()),
                ],
            },
        );
        drop(root_g);
        new_meta.set_page_lsn(lsn);
        *meta_g = new_meta;
        meta_frame.mark_dirty(lsn);
        drop(meta_g);
        {
            let mut g = root_frame.write();
            g.set_page_lsn(lsn);
        }
        root_frame.mark_dirty(lsn);

        Ok(BTree {
            tree_id,
            pool,
            wal,
            versioned,
            root: AtomicU32::new(root_id.0),
            structure: RwLock::new(()),
            split_threshold: 0.7,
            split_time,
            time_splits: AtomicU32::new(0),
            key_splits: AtomicU32::new(0),
            compacting: Mutex::new(()),
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
        let meta_frame = pool.fetch(PageId(0))?;
        let root = {
            let g = meta_frame.read();
            MetaView::tree_root(&g, tree_id)
                .ok_or_else(|| Error::Catalog(format!("{tree_id:?} not found")))?
        };
        Ok(BTree {
            tree_id,
            pool,
            wal,
            versioned,
            root: AtomicU32::new(root.0),
            structure: RwLock::new(()),
            split_threshold: 0.7,
            split_time,
            time_splits: AtomicU32::new(0),
            key_splits: AtomicU32::new(0),
            compacting: Mutex::new(()),
        })
    }

    pub fn tree_id(&self) -> TreeId {
        self.tree_id
    }

    pub fn is_versioned(&self) -> bool {
        self.versioned
    }

    pub fn root(&self) -> PageId {
        PageId(self.root.load(Ordering::SeqCst))
    }

    pub(crate) fn set_root(&self, id: PageId) {
        self.root.store(id.0, Ordering::SeqCst);
    }

    /// Set the post-time-split key-split threshold *T* (clamped to
    /// `[0.3, 0.95]`).
    pub fn set_split_threshold(&mut self, t: f64) {
        self.split_threshold = t.clamp(0.3, 0.95);
    }

    /// `(time splits, key splits)` performed since this handle was built.
    pub fn split_counts(&self) -> (u32, u32) {
        (
            self.time_splits.load(Ordering::Relaxed),
            self.key_splits.load(Ordering::Relaxed),
        )
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

    fn check_record_size(key: &[u8], data: &[u8]) -> Result<()> {
        let n = key.len() + data.len();
        if n > MAX_RECORD {
            return Err(Error::RecordTooLarge(n));
        }
        Ok(())
    }

    // -- versioned write operations ---------------------------------------

    /// Insert a new record version (§3.2). Fails with
    /// [`Error::DuplicateKey`] if a live (non-deleted) committed or own
    /// version exists. Returns the LSN of the logged operation for the
    /// transaction's backchain.
    pub fn insert(
        &self,
        tid: Tid,
        prev_lsn: Lsn,
        key: &[u8],
        data: &[u8],
        resolver: &dyn TimestampResolver,
    ) -> Result<Lsn> {
        Self::check_record_size(key, data)?;
        self.versioned_write(tid, prev_lsn, key, data, false, true, resolver)
    }

    /// Add a new version for an existing record. Fails with
    /// [`Error::KeyNotFound`] if the key has no live version.
    pub fn update(
        &self,
        tid: Tid,
        prev_lsn: Lsn,
        key: &[u8],
        data: &[u8],
        resolver: &dyn TimestampResolver,
    ) -> Result<Lsn> {
        Self::check_record_size(key, data)?;
        self.versioned_write(tid, prev_lsn, key, data, false, false, resolver)
    }

    /// Record a delete by pushing a delete stub version.
    pub fn delete(
        &self,
        tid: Tid,
        prev_lsn: Lsn,
        key: &[u8],
        resolver: &dyn TimestampResolver,
    ) -> Result<Lsn> {
        self.versioned_write(tid, prev_lsn, key, &[], true, false, resolver)
    }

    /// Shared path for insert/update/delete on versioned trees.
    #[allow(clippy::too_many_arguments)]
    fn versioned_write(
        &self,
        tid: Tid,
        prev_lsn: Lsn,
        key: &[u8],
        data: &[u8],
        stub: bool,
        is_insert: bool,
        resolver: &dyn TimestampResolver,
    ) -> Result<Lsn> {
        debug_assert!(self.versioned);
        loop {
            {
                let _s = self.structure.read();
                let frame = self.descend(key)?;
                let mut g = frame.write();
                // Validate the newest version against the operation type
                // and apply the paper's update trigger: stamp the prior
                // chain before pushing a new version.
                match g.find_slot(key) {
                    Ok(i) => {
                        let head = g.slot(i);
                        let head_live = if g.rec_is_tid_marked(head) {
                            let owner = g.rec_tid(head);
                            if owner != tid && resolver.resolve(owner).is_none() {
                                // Engine-level locks should prevent this.
                                return Err(Error::WriteConflict(tid));
                            }
                            !g.rec_is_stub(head)
                        } else {
                            !g.rec_is_stub(head)
                        };
                        if is_insert && head_live {
                            return Err(Error::DuplicateKey);
                        }
                        if !is_insert && !head_live && !stub {
                            return Err(Error::KeyNotFound);
                        }
                        if !is_insert && stub && !head_live {
                            return Err(Error::KeyNotFound);
                        }
                        // Timestamp the existing chain (update trigger).
                        for (t, n) in version::stamp_chain(&mut g, i, resolver) {
                            self.pool.metrics().ts.stamps_update.add(n as u64);
                            resolver.note_stamped(t, n);
                        }
                    }
                    Err(_) => {
                        if !is_insert {
                            return Err(Error::KeyNotFound);
                        }
                    }
                }
                let rec = LogRecord::AddVersion {
                    tree: self.tree_id,
                    page: frame.page_id(),
                    key: key.to_vec(),
                    data: data.to_vec(),
                    stub,
                };
                match version::add_version(&mut g, key, data, stub, tid) {
                    Ok(_) => {
                        let lsn = self.wal.append(tid, prev_lsn, &rec);
                        g.set_page_lsn(lsn);
                        frame.mark_dirty(lsn);
                        return Ok(lsn);
                    }
                    Err(Error::PageFull) => { /* fall through to split */ }
                    Err(e) => return Err(e),
                }
            }
            // Page full: split under the structure write latch, retry.
            let need = REC_HDR + key.len() + data.len() + immortaldb_common::VERSION_TAIL + 2;
            self.split_for(key, need, resolver)?;
        }
    }

    /// Inspect the newest version of `key` (for first-committer-wins).
    pub fn head_version(
        &self,
        key: &[u8],
        resolver: &dyn TimestampResolver,
    ) -> Result<HeadVersion> {
        let _s = self.structure.read();
        let frame = self.descend(key)?;
        frame.read_optimistic(self.pool.metrics(), |g| {
            let Ok(i) = g.find_slot(key) else {
                return Ok(HeadVersion::NotFound);
            };
            let off = g.slot(i);
            let stub = g.rec_is_stub(off);
            if g.rec_is_tid_marked(off) {
                let owner = g.rec_tid(off);
                match resolver.resolve(owner) {
                    Some(ts) => Ok(HeadVersion::Committed { ts, stub }),
                    None => Ok(HeadVersion::Uncommitted { tid: owner, stub }),
                }
            } else {
                Ok(HeadVersion::Committed {
                    ts: g.rec_timestamp(off),
                    stub,
                })
            }
        })
    }

    // -- unversioned (conventional) operations -----------------------------

    /// Insert into a conventional table (in-place storage, logged with
    /// logical undo).
    pub fn u_insert(&self, tid: Tid, prev_lsn: Lsn, key: &[u8], data: &[u8]) -> Result<Lsn> {
        debug_assert!(!self.versioned);
        Self::check_record_size(key, data)?;
        loop {
            {
                let _s = self.structure.read();
                let frame = self.descend(key)?;
                let mut g = frame.write();
                if g.find_slot(key).is_ok() {
                    return Err(Error::DuplicateKey);
                }
                let need = REC_HDR + key.len() + data.len() + 2;
                if need > g.contiguous_free() && need <= g.total_free() {
                    g.compact()?;
                }
                match g.insert_sorted(key, data, 0) {
                    Ok(_) => {
                        let rec = LogRecord::InsertRecord {
                            tree: self.tree_id,
                            page: frame.page_id(),
                            key: key.to_vec(),
                            data: data.to_vec(),
                        };
                        let lsn = self.wal.append(tid, prev_lsn, &rec);
                        g.set_page_lsn(lsn);
                        frame.mark_dirty(lsn);
                        return Ok(lsn);
                    }
                    Err(Error::PageFull) => {}
                    Err(e) => return Err(e),
                }
            }
            let need = REC_HDR + key.len() + data.len() + 2;
            self.split_for(key, need, &immortaldb_storage::NullResolver)?;
        }
    }

    /// In-place update on a conventional table.
    pub fn u_update(&self, tid: Tid, prev_lsn: Lsn, key: &[u8], data: &[u8]) -> Result<Lsn> {
        debug_assert!(!self.versioned);
        Self::check_record_size(key, data)?;
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
                            tree: self.tree_id,
                            page: frame.page_id(),
                            key: key.to_vec(),
                            old,
                            new: data.to_vec(),
                        };
                        let lsn = self.wal.append(tid, prev_lsn, &rec);
                        g.set_page_lsn(lsn);
                        frame.mark_dirty(lsn);
                        return Ok(lsn);
                    }
                    Err(Error::PageFull) => {}
                    Err(e) => return Err(e),
                }
            }
            let need = REC_HDR + key.len() + data.len() + 2;
            self.split_for(key, need, &immortaldb_storage::NullResolver)?;
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
            tree: self.tree_id,
            page: frame.page_id(),
            key: key.to_vec(),
            old,
        };
        let lsn = self.wal.append(tid, prev_lsn, &rec);
        g.set_page_lsn(lsn);
        frame.mark_dirty(lsn);
        Ok(lsn)
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

impl BTree {
    /// [`TreeLocator`] support: current leaf page for `key`. There must be
    /// exactly **one** `BTree` handle per tree in a process (the structure
    /// latch lives in the handle); the engine keeps a registry of
    /// `Arc<BTree>` and implements [`TreeLocator`] by delegating here.
    pub fn locate_leaf_page(&self, key: &[u8]) -> Result<PageId> {
        let _s = self.structure.read();
        Ok(self.descend(key)?.page_id())
    }

    /// [`TreeLocator`] support: leaf for `key` with at least `space` free
    /// bytes, splitting as needed.
    pub fn locate_leaf_page_for_insert(
        &self,
        key: &[u8],
        space: usize,
        resolver: &dyn TimestampResolver,
    ) -> Result<PageId> {
        loop {
            {
                let _s = self.structure.read();
                let frame = self.descend(key)?;
                let g = frame.read();
                if space <= g.total_free() {
                    return Ok(frame.page_id());
                }
            }
            self.split_for(key, space, resolver)?;
        }
    }
}

// Quiet the TreeLocator import: it documents the contract implemented by
// the engine over a registry of tree handles.
#[allow(unused_imports)]
use TreeLocator as _TreeLocatorContract;
