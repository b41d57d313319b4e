//! The versioned write path: the paper's split protocol (§3.3) and its
//! lazy-timestamping triggers (§2.2). A full leaf splits in four steps:
//!
//! 1. timestamp every committed version in the full leaf (they must be
//!    stamped to know which side of the split time they belong on);
//! 2. if a time split would shed history, time-split at the current
//!    time: historical versions move to a fresh history page;
//! 3. if utilization still exceeds the threshold *T* (or the incoming
//!    record still does not fit), key-split the leaf;
//! 4. post a key split's separator in the ancestors ([`BTree::post`]).
//!
//! Every page image a split produces goes into a single
//! [`LogRecord::PageImages`] record ([`BTree::install`]), making the
//! structure modification atomic for recovery (a redo-only nested top
//! action).

use std::sync::atomic::Ordering;

use immortaldb_common::{Error, Lsn, PageId, Result, Tid, Timestamp, VERSION_TAIL};
use immortaldb_obs::MetricsRegistry;
use immortaldb_storage::logrec::LogRecord;
use immortaldb_storage::page::{Page, REC_HDR};
use immortaldb_storage::version::{self, Visible};
use immortaldb_storage::TimestampResolver;

use crate::compact::{walk_history, HistoryStats};
use crate::cursor::{Flow, RecordVisitor};
use crate::tree::BTree;

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

/// What the leaf phase of a split did, for [`BTree::post`] to record in
/// the ancestors.
pub(crate) struct LeafSplit {
    /// The current leaf that split; it keeps its page id.
    pub leaf: PageId,
    /// Time split: its boundary and the history page that took the
    /// versions ended before it.
    pub time_split: Option<(Timestamp, PageId)>,
    /// Key split: the separator and the new right sibling, which holds
    /// the keys at or above it.
    pub key_split: Option<(Vec<u8>, PageId)>,
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
pub(crate) fn split_for(
    tree: &BTree,
    key: &[u8],
    need: usize,
    resolver: &dyn TimestampResolver,
) -> Result<()> {
    let _s = tree.structure.write();
    let m = tree.pool.metrics();
    // Sample the split-time bound BEFORE the stamping pass below: a
    // transaction still in flight while we stamp leaves TID-marked
    // versions in the page, and sampling afterwards could observe it
    // retired and lift the bound above its commit timestamp — the time
    // split would then set the fresh page's start past versions that stay
    // current (case 4), stranding them from every AS OF read at their
    // commit time. Sampling first pins the bound at or below any commit
    // the stamping pass can leave unstamped.
    let split_ts = tree.split_time.current_split_ts();
    let path = tree.descend_path(key)?;
    let leaf = *path.last().expect("descent path never empty");

    // Work on a private copy; the frame is only mutated at install time.
    let mut left: Page = {
        let frame = tree.pool.fetch(leaf)?;
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
        let hist_id = tree.pool.disk().allocate()?;
        let (hist, fresh, packed) = version::time_split(&left, split_ts, hist_id)?;
        images.push(hist);
        left = fresh;
        split.time_split = Some((split_ts, hist_id));
        tree.time_splits.fetch_add(1, Ordering::Relaxed);
        m.tree.time_splits.inc();
        m.version.anchors_written.add(packed.anchors);
        m.version.deltas_written.add(packed.deltas);
    }

    let over_threshold = left.is_versioned() && left.utilization() > tree.split_threshold;
    if over_threshold || need > left.total_free() {
        if left.slot_count() < 2 {
            return Err(Error::RecordTooLarge(need));
        }
        let right_id = tree.pool.disk().allocate()?;
        let (l, right, sep) = version::key_split(&left, right_id)?;
        left = l;
        images.push(right);
        split.key_split = Some((sep, right_id));
        tree.key_splits.fetch_add(1, Ordering::Relaxed);
        m.tree.key_splits.inc();
    }
    images.push(left);

    let new_root = tree.post(path, split, &mut images)?;
    tree.install(images, new_root)
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
fn write_rows(
    tree: &BTree,
    tid: Tid,
    last_lsn: &mut Lsn,
    rows: &[(&[u8], &[u8])],
    op: Op,
    resolver: &dyn TimestampResolver,
) -> Result<()> {
    for (key, data) in rows {
        check_record_size(key, data)?;
    }
    let mut i = 0;
    while i < rows.len() {
        let full = {
            // Holding the structure latch across the run pins every
            // key→leaf routing: the latch-free descents below cannot be
            // invalidated by a concurrent split before the run is
            // applied. Run discovery happens BEFORE the write latch is
            // taken (descents read-latch the leaf they land on).
            let _s = tree.structure.read();
            let frame = tree.descend(rows[i].0)?;
            let mut end = i + 1;
            if end < rows.len() {
                // Extend the run only as far as the leaf has room: an
                // ascending load routes every remaining row to the
                // rightmost leaf, and a row that does not fit ends the
                // run with a split anyway.
                let (key, data) = rows[i];
                let mut room = frame.read().total_free().saturating_sub(need(key, data));
                while let Some(&(key, data)) = rows.get(end) {
                    if need(key, data) > room || tree.descend(key)?.page_id() != frame.page_id() {
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
                match push_version(&mut g, tid, key, data, op, resolver, tree.pool.metrics()) {
                    Ok(()) => {
                        let rec = LogRecord::AddVersion {
                            tree: tree.tree_id,
                            page: frame.page_id(),
                            key,
                            data,
                            stub: op == Op::Delete,
                        };
                        *last_lsn = tree.wal.append(tid, *last_lsn, &rec);
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
            split_for(tree, key, need(key, data), resolver)?;
        }
    }
    Ok(())
}

/// The versioned operations: writes with the update trigger, batched
/// ingest, current reads with the read trigger, eager and vacuum
/// stamping, and the leaf lookups recovery needs. Reads at other times go
/// through the key × time cursor ([`crate::cursor`]).
impl BTree {
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
        let mut lsn = prev_lsn;
        write_rows(self, tid, &mut lsn, &[(key, data)], Op::Insert, resolver)?;
        Ok(lsn)
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
        let mut lsn = prev_lsn;
        write_rows(self, tid, &mut lsn, &[(key, data)], Op::Update, resolver)?;
        Ok(lsn)
    }

    /// Record a delete by pushing a delete stub version.
    pub fn delete(
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

    /// Batched ingest: [`Self::insert`] for every `(key, data)` row, with
    /// each run of rows that lands on one leaf applied under one write
    /// latch (rows must be key-sorted for runs to form). Each row still
    /// gets its own log record on `tid`'s backchain, ending at
    /// `*last_lsn`. An error (e.g. `DuplicateKey`) ends the batch with the
    /// rows before it applied and `*last_lsn` covering them, so they roll
    /// back with the transaction as usual.
    pub fn insert_batch(
        &self,
        tid: Tid,
        last_lsn: &mut Lsn,
        rows: &[(Vec<u8>, Vec<u8>)],
        resolver: &dyn TimestampResolver,
    ) -> Result<()> {
        let rows: Vec<(&[u8], &[u8])> = rows.iter().map(|(k, d)| (&k[..], &d[..])).collect();
        write_rows(self, tid, last_lsn, &rows, Op::Insert, resolver)
    }

    /// Read the current version of `key` as seen by `own_tid` (its own
    /// uncommitted writes are visible). Opportunistically applies
    /// timestamps when the chain head is a committed TID-marked record
    /// (the paper's read trigger); every other read goes through the
    /// cursor, which never stamps.
    pub fn get_current(
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
    pub fn visit_current(
        &self,
        key: &[u8],
        own_tid: Option<Tid>,
        resolver: &dyn TimestampResolver,
        visit: &mut RecordVisitor<'_>,
    ) -> Result<()> {
        let metrics = self.pool.metrics();
        let _s = self.structure.read();
        let frame = self.descend(key)?;
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

    /// Eager-timestamping baseline: stamp all of `tid`'s versions in
    /// `key`'s chain with `ts` and log the stamping (the cost lazy
    /// timestamping avoids). Returns the new last LSN and the number of
    /// versions stamped.
    pub fn eager_stamp(
        &self,
        tid: Tid,
        prev_lsn: Lsn,
        key: &[u8],
        ts: Timestamp,
    ) -> Result<(Lsn, u32)> {
        let _s = self.structure.read();
        let frame = self.descend(key)?;
        let mut g = frame.write();
        let Ok(i) = g.find_slot(key) else {
            return Ok((prev_lsn, 0));
        };
        let rec = LogRecord::EagerStamp {
            tree: self.tree_id,
            page: frame.page_id(),
            key,
            ts,
        };
        let lsn = self.wal.append(tid, prev_lsn, &rec);
        let mut n = 0u32;
        for off in version::chain_offsets(&g, i) {
            if g.rec_is_tid_marked(off) && g.rec_tid(off) == tid {
                g.stamp_rec(off, ts);
                n += 1;
            }
        }
        self.pool.metrics().ts.stamps_eager.add(n as u64);
        g.set_page_lsn(lsn);
        frame.mark_dirty(lsn);
        Ok((lsn, n))
    }

    /// Vacuum support (§2.2): stamp every committed TID-marked record in
    /// every *current* leaf (historical pages never hold TID marks — only
    /// committed, stamped versions move there). Returns the number of
    /// records stamped. After the caller also checkpoints, no persistent
    /// timestamp-table entry for a pre-existing transaction is needed any
    /// more.
    pub fn stamp_all(&self, resolver: &dyn TimestampResolver) -> Result<u64> {
        let _s = self.structure.read();
        let mut stamped = 0u64;
        self.current_leaves(&mut |id| {
            let frame = self.pool.fetch(id)?;
            let mut g = frame.write();
            let n = version::stamp_committed(&mut g, resolver);
            if n > 0 {
                frame.mark_dirty_unlogged();
            }
            stamped += n;
            Ok(())
        })?;
        self.pool.metrics().ts.stamps_vacuum.add(stamped);
        Ok(stamped)
    }

    /// Shape of the version store: every historical page reachable from
    /// a current leaf, counted once ([`walk_history`]).
    pub fn history_shape(&self) -> Result<HistoryStats> {
        let _s = self.structure.read();
        let mut shape = HistoryStats::default();
        walk_history(self, &mut |p| shape.add_page(p))?;
        Ok(shape)
    }

    /// `TreeLocator` support: current leaf page for `key`.
    pub fn locate_leaf_page(&self, key: &[u8]) -> Result<PageId> {
        let _s = self.structure.read();
        Ok(self.descend(key)?.page_id())
    }

    /// `TreeLocator` support: current leaf for `key` with at least `space`
    /// free bytes, splitting as needed.
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
                if space <= frame.read().total_free() {
                    return Ok(frame.page_id());
                }
            }
            split_for(self, key, space, resolver)?;
        }
    }
}
