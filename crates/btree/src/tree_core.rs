//! The half of a temporal index that does not depend on how history is
//! addressed: one write path for the chain B-tree and the TSB-tree.
//!
//! The paper's split protocol (§3.3) and its lazy-timestamping triggers
//! (§2.2) are one algorithm whichever way history is found afterwards:
//!
//! 1. timestamp every committed version in the full leaf (they must be
//!    stamped to know which side of the split time they belong on);
//! 2. if a time split would shed history, time-split at the current
//!    time: historical versions move to a fresh history page;
//! 3. if utilization still exceeds the threshold *T* (or the incoming
//!    record still does not fit), key-split the leaf;
//! 4. record the split in the ancestors — the only step that differs.
//!
//! [`TreeCore`] holds what both indexes keep per tree; [`Routing`] is
//! what each index supplies (finding current leaves, posting splits);
//! [`TemporalIndex`] is every operation written once over any routing.
//! Every page image a split produces goes into a single
//! [`LogRecord::PageImages`] record ([`TreeCore::install`]), making the
//! structure modification atomic for recovery (a redo-only nested top
//! action).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use immortaldb_common::{
    Error, Lsn, PageId, Result, Tid, Timestamp, TreeId, NULL_LSN, VERSION_TAIL,
};
use immortaldb_obs::MetricsRegistry;
use immortaldb_storage::buffer::{BufferPool, FrameRef};
use immortaldb_storage::logrec::LogRecord;
use immortaldb_storage::meta::MetaView;
use immortaldb_storage::page::{Page, PageType, REC_HDR};
use immortaldb_storage::version::{self, Visible};
use immortaldb_storage::wal::Wal;
use immortaldb_storage::TimestampResolver;

use crate::chain_dir::ChainDirectory;
use crate::compact::{walk_history, HistoryStats};
use crate::cursor::{Flow, RecordVisitor, VersionCursor};

/// Largest key+data payload a single record may carry. Keeps every record
/// comfortably below a quarter page so key splits always succeed.
pub const MAX_RECORD: usize = 1900;

/// Provides the split time for page time splits: the paper splits "using
/// the current time". It is also the bound a split may not exceed: a
/// boundary above a commit timestamp that is issued but whose
/// (TID-marked) versions must stay in the current page would hide those
/// versions from readers between the commit timestamp and the page's new
/// start. Implemented by the timestamp authority and, in the engine, by
/// the commit horizon's clamp.
pub trait SplitTimeSource: Send + Sync {
    fn current_split_ts(&self) -> Timestamp;
}

/// A split-time source for unversioned trees and tests.
pub struct FixedSplitTime(pub Timestamp);

impl SplitTimeSource for FixedSplitTime {
    fn current_split_ts(&self) -> Timestamp {
        self.0
    }
}

/// What every tree keeps, whatever its routing. There must be exactly
/// **one** handle per tree in a process: the structure latch lives here.
pub struct TreeCore {
    tree_id: TreeId,
    pub pool: Arc<BufferPool>,
    pub(crate) wal: Arc<Wal>,
    root: AtomicU32,
    /// Read for descents and page operations, write for splits and
    /// compaction passes.
    pub structure: RwLock<()>,
    pub split_time: Arc<dyn SplitTimeSource>,
    /// Key-split threshold *T*: after a time split, key-split too if
    /// utilization still exceeds this (default 0.7 → single-slice
    /// utilization ≈ T·ln2 ≈ 0.48).
    pub(crate) split_threshold: f64,
    /// Per-tree split counters (tests read them); the engine-wide
    /// registry aggregates across trees.
    time_splits: AtomicU32,
    key_splits: AtomicU32,
    /// Serializes history-compaction passes over this tree (the
    /// background compactor vs explicit `compact_history` calls).
    pub compacting: Mutex<()>,
    /// Where each current leaf's history pages lie in time (chain index
    /// only; see [`crate::chain_dir`]).
    pub(crate) chains: ChainDirectory,
}

impl TreeCore {
    /// Create a new tree: allocates a root leaf with `flags`, registers
    /// it in the meta page tree directory, and logs both images
    /// atomically.
    pub fn create(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        tree_id: TreeId,
        flags: u8,
        split_time: Arc<dyn SplitTimeSource>,
    ) -> Result<TreeCore> {
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
        Ok(Self::handle(pool, wal, tree_id, root_id, split_time))
    }

    /// Open an existing tree from the meta-page directory.
    pub fn open(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        tree_id: TreeId,
        split_time: Arc<dyn SplitTimeSource>,
    ) -> Result<TreeCore> {
        let core = Self::handle(pool, wal, tree_id, PageId(0), split_time);
        core.reload_root()?;
        Ok(core)
    }

    fn handle(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        tree_id: TreeId,
        root: PageId,
        split_time: Arc<dyn SplitTimeSource>,
    ) -> TreeCore {
        TreeCore {
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
    /// [`Self::install`], so its handles pick the new root up here. Redo
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
    pub fn page_level(&self, images: &[Page], id: PageId) -> Result<u16> {
        if let Some(p) = images.iter().find(|p| p.page_id() == id) {
            return Ok(p.level());
        }
        let level = self.pool.fetch(id)?.read().level();
        Ok(level)
    }

    /// Log `images` as one atomic `PageImages` record, then install each
    /// in the pool; with `new_root`, also the meta page naming it.
    pub fn install(&self, mut images: Vec<Page>, new_root: Option<PageId>) -> Result<()> {
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
}

/// What the leaf phase of a split did, for [`Routing::post`] to record in
/// the ancestors.
pub struct LeafSplit {
    /// The current leaf that split; it keeps its page id.
    pub leaf: PageId,
    /// Time split: its boundary and the history page that took the
    /// versions ended before it.
    pub time_split: Option<(Timestamp, PageId)>,
    /// Key split: the separator and the new right sibling, which holds
    /// the keys at or above it.
    pub key_split: Option<(Vec<u8>, PageId)>,
}

/// How an index finds its current leaves and records splits above them —
/// everything that differs between the chain B-tree and the TSB-tree.
/// Callers hold the structure latch (read, or write for `split_path` and
/// `post`).
pub trait Routing: Send + Sync {
    /// What a split remembers of its descent, for posting.
    type Path;

    fn core(&self) -> &TreeCore;

    /// The current leaf responsible for `key`.
    fn current_leaf(&self, key: &[u8]) -> Result<FrameRef>;

    /// The current leaf for `key` and the path down to it.
    fn split_path(&self, key: &[u8]) -> Result<(PageId, Self::Path)>;

    /// Record `split` in the ancestors on `path`, pushing every page image
    /// that changes onto `images`; returns the new root if the tree grew.
    fn post(
        &self,
        path: Self::Path,
        split: LeafSplit,
        images: &mut Vec<Page>,
    ) -> Result<Option<PageId>>;

    /// Hand `visit` every current leaf, once.
    fn current_leaves(&self, visit: &mut dyn FnMut(PageId) -> Result<()>) -> Result<()>;
}

pub(crate) fn check_record_size(key: &[u8], data: &[u8]) -> Result<()> {
    let n = key.len() + data.len();
    if n > MAX_RECORD {
        return Err(Error::RecordTooLarge(n));
    }
    Ok(())
}

/// Split whatever stands in the way of fitting `need` more bytes on the
/// leaf responsible for `key`. Called without any latches held; takes the
/// structure write latch.
pub(crate) fn split_for<R: Routing>(
    r: &R,
    key: &[u8],
    need: usize,
    resolver: &dyn TimestampResolver,
) -> Result<()> {
    let core = r.core();
    let _s = core.structure.write();
    let m = core.pool.metrics();
    // Sample the split-time bound BEFORE the stamping pass below: a
    // transaction still in flight while we stamp leaves TID-marked
    // versions in the page, and sampling afterwards could observe it
    // retired and lift the bound above its commit timestamp — the time
    // split would then set the fresh page's start past versions that stay
    // current (case 4), stranding them from every AS OF read at their
    // commit time. Sampling first pins the bound at or below any commit
    // the stamping pass can leave unstamped.
    let split_ts = core.split_time.current_split_ts();
    let (leaf, path) = r.split_path(key)?;

    // Work on a private copy; the frame is only mutated at install time.
    let mut left: Page = {
        let frame = core.pool.fetch(leaf)?;
        let mut g = frame.write();
        if need <= g.total_free() {
            return Ok(()); // a concurrent split already made room
        }
        if g.is_versioned() {
            let stamped = version::stamp_committed(&mut g, resolver);
            m.ts.stamps_time_split.add(stamped);
        }
        g.clone()
    };
    let mut images: Vec<Page> = Vec::new();
    let mut split = LeafSplit {
        leaf,
        time_split: None,
        key_split: None,
    };

    // The boundary is the bound itself: a leaf whose start has already
    // reached it does not time-split this round (the key split below
    // still makes room), and retries once the pipeline drains.
    if left.is_versioned()
        && split_ts > left.start_ts()
        && version::time_split_gain(&left, split_ts) > 0
    {
        let hist_id = core.pool.disk().allocate()?;
        let (hist, fresh, packed) = version::time_split(&left, split_ts, hist_id)?;
        images.push(hist);
        left = fresh;
        split.time_split = Some((split_ts, hist_id));
        core.time_splits.fetch_add(1, Ordering::Relaxed);
        m.tree.time_splits.inc();
        m.version.anchors_written.add(packed.anchors);
        m.version.deltas_written.add(packed.deltas);
    }

    let over_threshold = left.is_versioned() && left.utilization() > core.split_threshold;
    if over_threshold || need > left.total_free() {
        if left.slot_count() < 2 {
            return Err(Error::RecordTooLarge(need));
        }
        let right_id = core.pool.disk().allocate()?;
        let (l, right, sep) = version::key_split(&left, right_id)?;
        left = l;
        images.push(right);
        split.key_split = Some((sep, right_id));
        core.key_splits.fetch_add(1, Ordering::Relaxed);
        m.tree.key_splits.inc();
    }
    images.push(left);

    let new_root = r.post(path, split, &mut images)?;
    core.install(images, new_root)
}

/// Bytes a new version of `key` takes on a leaf: record, tail and slot.
fn need(key: &[u8], data: &[u8]) -> usize {
    REC_HDR + key.len() + data.len() + VERSION_TAIL + 2
}

/// A versioned write's kind.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Insert,
    Update,
    Delete,
}

/// Validate `key`'s newest version on leaf `g` against `op`, apply the
/// paper's update trigger (stamp the prior chain), then push `tid`'s new
/// version. Fails with `PageFull` when the leaf must split first.
fn push_version(
    g: &mut Page,
    tid: Tid,
    key: &[u8],
    data: &[u8],
    op: Op,
    resolver: &dyn TimestampResolver,
    metrics: &MetricsRegistry,
) -> Result<()> {
    match g.find_slot(key) {
        Ok(i) => {
            let head = g.slot(i);
            if g.rec_is_tid_marked(head) {
                let owner = g.rec_tid(head);
                if owner != tid && resolver.resolve(owner).is_none() {
                    // Engine-level locks should prevent this.
                    return Err(Error::WriteConflict(tid));
                }
            }
            match (op, !g.rec_is_stub(head)) {
                (Op::Insert, true) => return Err(Error::DuplicateKey),
                (Op::Update | Op::Delete, false) => return Err(Error::KeyNotFound),
                _ => {}
            }
            let stamped = version::stamp_chain(g, i, resolver);
            metrics.ts.stamps_update.add(stamped);
        }
        Err(_) if op != Op::Insert => return Err(Error::KeyNotFound),
        Err(_) => {}
    }
    version::add_version(g, key, data, op == Op::Delete, tid).map(|_| ())
}

/// Apply `rows` as `op` versions of `tid`: each run of rows that lands on
/// one current leaf under one write latch and one dirty marking, one
/// `AddVersion` record per row on `tid`'s backchain, `*last_lsn`
/// advancing as rows apply. A full leaf splits and the run resumes at the
/// row that did not fit; an error ends the call with the rows before it
/// applied (and logged, so rollback undoes them).
fn write_rows<R: Routing>(
    r: &R,
    tid: Tid,
    last_lsn: &mut Lsn,
    rows: &[(&[u8], &[u8])],
    op: Op,
    resolver: &dyn TimestampResolver,
) -> Result<()> {
    for (key, data) in rows {
        check_record_size(key, data)?;
    }
    let core = r.core();
    let mut i = 0;
    while i < rows.len() {
        let full = {
            // Holding the structure latch across the run pins every
            // key→leaf routing: the latch-free descents below cannot be
            // invalidated by a concurrent split before the run is
            // applied. Run discovery happens BEFORE the write latch is
            // taken (descents read-latch the leaf they land on).
            let _s = core.structure.read();
            let frame = r.current_leaf(rows[i].0)?;
            let mut end = i + 1;
            if end < rows.len() {
                // Extend the run only as far as the leaf has room: an
                // ascending load routes every remaining row to the
                // rightmost leaf, and a row that does not fit ends the
                // run with a split anyway.
                let (key, data) = rows[i];
                let mut room = frame.read().total_free().saturating_sub(need(key, data));
                while let Some(&(key, data)) = rows.get(end) {
                    if need(key, data) > room || r.current_leaf(key)?.page_id() != frame.page_id() {
                        break;
                    }
                    room -= need(key, data);
                    end += 1;
                }
            }
            let mut g = frame.write();
            let mut applied = false;
            let outcome = loop {
                if i == end {
                    break Ok(false);
                }
                let (key, data) = rows[i];
                match push_version(&mut g, tid, key, data, op, resolver, core.pool.metrics()) {
                    Ok(()) => {
                        let rec = LogRecord::AddVersion {
                            tree: core.tree_id,
                            page: frame.page_id(),
                            key,
                            data,
                            stub: op == Op::Delete,
                        };
                        *last_lsn = core.wal.append(tid, *last_lsn, &rec);
                        if !applied {
                            // Enter the dirty-page table with the run's
                            // FIRST lsn so a concurrent checkpoint's
                            // recLSN covers every record of the run.
                            frame.mark_dirty(*last_lsn);
                            applied = true;
                        }
                        i += 1;
                    }
                    Err(Error::PageFull) => break Ok(true),
                    Err(e) => break Err(e),
                }
            };
            if applied {
                g.set_page_lsn(*last_lsn);
            }
            outcome?
        };
        if full {
            let (key, data) = rows[i];
            split_for(r, key, need(key, data), resolver)?;
        }
    }
    Ok(())
}

/// A versioned index: the one key × time cursor plus every operation
/// written once over a [`Routing`] — writes with the update trigger,
/// batched ingest, current reads with the read trigger, eager and vacuum
/// stamping, and the leaf lookups recovery needs. Object safe, so a table
/// handle can hold either index behind one pointer.
pub trait TemporalIndex: VersionCursor + Send + Sync {
    fn tree_id(&self) -> TreeId;

    /// `(time splits, key splits)` of leaves since this handle was built.
    fn split_counts(&self) -> (u32, u32);

    /// Follow a root change that redo installed ([`TreeCore::reload_root`]).
    fn reload_root(&self) -> Result<()>;

    /// Insert a new record version (§3.2). Fails with
    /// [`Error::DuplicateKey`] if a live (non-deleted) committed or own
    /// version exists. Returns the LSN of the logged operation for the
    /// transaction's backchain.
    fn insert(
        &self,
        tid: Tid,
        prev_lsn: Lsn,
        key: &[u8],
        data: &[u8],
        resolver: &dyn TimestampResolver,
    ) -> Result<Lsn>;

    /// Add a new version for an existing record. Fails with
    /// [`Error::KeyNotFound`] if the key has no live version.
    fn update(
        &self,
        tid: Tid,
        prev_lsn: Lsn,
        key: &[u8],
        data: &[u8],
        resolver: &dyn TimestampResolver,
    ) -> Result<Lsn>;

    /// Record a delete by pushing a delete stub version.
    fn delete(
        &self,
        tid: Tid,
        prev_lsn: Lsn,
        key: &[u8],
        resolver: &dyn TimestampResolver,
    ) -> Result<Lsn>;

    /// Batched ingest: [`Self::insert`] for every `(key, data)` row, with
    /// each run of rows that lands on one leaf applied under one write
    /// latch (rows must be key-sorted for runs to form). Each row still
    /// gets its own log record on `tid`'s backchain, ending at
    /// `*last_lsn`. An error (e.g. `DuplicateKey`) ends the batch with the
    /// rows before it applied and `*last_lsn` covering them, so they roll
    /// back with the transaction as usual.
    fn insert_batch(
        &self,
        tid: Tid,
        last_lsn: &mut Lsn,
        rows: &[(Vec<u8>, Vec<u8>)],
        resolver: &dyn TimestampResolver,
    ) -> Result<()>;

    /// Read the current version of `key` as seen by `own_tid` (its own
    /// uncommitted writes are visible). Opportunistically applies
    /// timestamps when the chain head is a committed TID-marked record
    /// (the paper's read trigger); every other read goes through the
    /// cursor, which never stamps.
    fn get_current(
        &self,
        key: &[u8],
        own_tid: Option<Tid>,
        resolver: &dyn TimestampResolver,
    ) -> Result<Option<Vec<u8>>> {
        let mut out = None;
        self.visit_current(key, own_tid, resolver, &mut |_, data| {
            out = Some(data.to_vec());
            Ok(Flow::Stop)
        })?;
        Ok(out)
    }

    /// [`Self::get_current`] handing the image, borrowed from the page,
    /// to `visit` (not called when the key has no current row).
    fn visit_current(
        &self,
        key: &[u8],
        own_tid: Option<Tid>,
        resolver: &dyn TimestampResolver,
        visit: &mut RecordVisitor<'_>,
    ) -> Result<()>;

    /// Eager-timestamping baseline: stamp all of `tid`'s versions in
    /// `key`'s chain with `ts` and log the stamping (the cost lazy
    /// timestamping avoids). Returns the new last LSN and the number of
    /// versions stamped.
    fn eager_stamp(&self, tid: Tid, prev_lsn: Lsn, key: &[u8], ts: Timestamp)
        -> Result<(Lsn, u32)>;

    /// Vacuum support (§2.2): stamp every committed TID-marked record in
    /// every *current* leaf (historical pages never hold TID marks — only
    /// committed, stamped versions move there). Returns the number of
    /// records stamped. After the caller also checkpoints, no persistent
    /// timestamp-table entry for a pre-existing transaction is needed any
    /// more.
    fn stamp_all(&self, resolver: &dyn TimestampResolver) -> Result<u64>;

    /// Shape of the version store: every historical page reachable from
    /// a current leaf, counted once ([`walk_history`]).
    fn history_shape(&self) -> Result<HistoryStats>;

    /// `TreeLocator` support: current leaf page for `key`.
    fn locate_leaf_page(&self, key: &[u8]) -> Result<PageId>;

    /// `TreeLocator` support: current leaf for `key` with at least `space`
    /// free bytes, splitting as needed.
    fn locate_leaf_page_for_insert(
        &self,
        key: &[u8],
        space: usize,
        resolver: &dyn TimestampResolver,
    ) -> Result<PageId>;
}

impl<R: Routing + VersionCursor> TemporalIndex for R {
    fn tree_id(&self) -> TreeId {
        self.core().tree_id
    }

    fn split_counts(&self) -> (u32, u32) {
        self.core().split_counts()
    }

    fn reload_root(&self) -> Result<()> {
        self.core().reload_root()
    }

    fn insert(
        &self,
        tid: Tid,
        prev_lsn: Lsn,
        key: &[u8],
        data: &[u8],
        resolver: &dyn TimestampResolver,
    ) -> Result<Lsn> {
        let mut lsn = prev_lsn;
        write_rows(self, tid, &mut lsn, &[(key, data)], Op::Insert, resolver)?;
        Ok(lsn)
    }

    fn update(
        &self,
        tid: Tid,
        prev_lsn: Lsn,
        key: &[u8],
        data: &[u8],
        resolver: &dyn TimestampResolver,
    ) -> Result<Lsn> {
        let mut lsn = prev_lsn;
        write_rows(self, tid, &mut lsn, &[(key, data)], Op::Update, resolver)?;
        Ok(lsn)
    }

    fn delete(
        &self,
        tid: Tid,
        prev_lsn: Lsn,
        key: &[u8],
        resolver: &dyn TimestampResolver,
    ) -> Result<Lsn> {
        let mut lsn = prev_lsn;
        write_rows(self, tid, &mut lsn, &[(key, &[])], Op::Delete, resolver)?;
        Ok(lsn)
    }

    fn insert_batch(
        &self,
        tid: Tid,
        last_lsn: &mut Lsn,
        rows: &[(Vec<u8>, Vec<u8>)],
        resolver: &dyn TimestampResolver,
    ) -> Result<()> {
        let rows: Vec<(&[u8], &[u8])> = rows.iter().map(|(k, d)| (&k[..], &d[..])).collect();
        write_rows(self, tid, last_lsn, &rows, Op::Insert, resolver)
    }

    fn visit_current(
        &self,
        key: &[u8],
        own_tid: Option<Tid>,
        resolver: &dyn TimestampResolver,
        visit: &mut RecordVisitor<'_>,
    ) -> Result<()> {
        let core = self.core();
        let metrics = core.pool.metrics();
        let _s = core.structure.read();
        let frame = self.current_leaf(key)?;
        // Opportunistic stamping needs the write latch; check cheaply
        // with an optimistic (latch-free) read first.
        let needs_stamp = frame.read_optimistic(metrics, |g| match g.find_slot(key) {
            Ok(i) => {
                let off = g.slot(i);
                g.rec_is_tid_marked(off)
                    && Some(g.rec_tid(off)) != own_tid
                    && resolver.resolve(g.rec_tid(off)).is_some()
            }
            Err(_) => false,
        });
        if needs_stamp {
            let mut g = frame.write();
            if let Ok(i) = g.find_slot(key) {
                let len = version::chain(&g, i).count();
                metrics.tree.version_chain_len.observe(len as u64);
                let stamped = version::stamp_chain(&mut g, i, resolver);
                metrics.ts.stamps_read.add(stamped);
                frame.mark_dirty_unlogged();
            }
        }
        frame.read_optimistic(metrics, |g| {
            let Ok(i) = g.find_slot(key) else {
                return Ok(());
            };
            match version::visible_as_of(g, i, Timestamp::MAX, own_tid, resolver) {
                Visible::Version(off) => visit(key, g.rec_data(off)).map(drop),
                Visible::Deleted | Visible::NotHere => Ok(()),
            }
        })
    }

    fn eager_stamp(
        &self,
        tid: Tid,
        prev_lsn: Lsn,
        key: &[u8],
        ts: Timestamp,
    ) -> Result<(Lsn, u32)> {
        let core = self.core();
        let _s = core.structure.read();
        let frame = self.current_leaf(key)?;
        let mut g = frame.write();
        let Ok(i) = g.find_slot(key) else {
            return Ok((prev_lsn, 0));
        };
        let rec = LogRecord::EagerStamp {
            tree: core.tree_id,
            page: frame.page_id(),
            key,
            ts,
        };
        let lsn = core.wal.append(tid, prev_lsn, &rec);
        let mut n = 0u32;
        for off in version::chain_offsets(&g, i) {
            if g.rec_is_tid_marked(off) && g.rec_tid(off) == tid {
                g.stamp_rec(off, ts);
                n += 1;
            }
        }
        core.pool.metrics().ts.stamps_eager.add(n as u64);
        g.set_page_lsn(lsn);
        frame.mark_dirty(lsn);
        Ok((lsn, n))
    }

    fn stamp_all(&self, resolver: &dyn TimestampResolver) -> Result<u64> {
        let core = self.core();
        let _s = core.structure.read();
        let mut stamped = 0u64;
        self.current_leaves(&mut |id| {
            let frame = core.pool.fetch(id)?;
            let mut g = frame.write();
            let n = version::stamp_committed(&mut g, resolver);
            if n > 0 {
                frame.mark_dirty_unlogged();
            }
            stamped += n;
            Ok(())
        })?;
        core.pool.metrics().ts.stamps_vacuum.add(stamped);
        Ok(stamped)
    }

    fn history_shape(&self) -> Result<HistoryStats> {
        let _s = self.core().structure.read();
        let mut shape = HistoryStats::default();
        walk_history(self, &mut |p| shape.add_page(p))?;
        Ok(shape)
    }

    fn locate_leaf_page(&self, key: &[u8]) -> Result<PageId> {
        let _s = self.core().structure.read();
        Ok(self.current_leaf(key)?.page_id())
    }

    fn locate_leaf_page_for_insert(
        &self,
        key: &[u8],
        space: usize,
        resolver: &dyn TimestampResolver,
    ) -> Result<PageId> {
        loop {
            {
                let _s = self.core().structure.read();
                let frame = self.current_leaf(key)?;
                if space <= frame.read().total_free() {
                    return Ok(frame.page_id());
                }
            }
            split_for(self, key, space, resolver)?;
        }
    }
}
