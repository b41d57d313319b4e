//! Read paths: the key × time cursor of the page-chain index, and the
//! leaf enumeration that scans and maintenance share.
//!
//! The cursor is the paper's §4.2 algorithm: descend the *current*
//! B-tree by key; compare the requested time with the page's split time
//! (its `start_ts`). If the request is later, the answer is in the
//! current page's version chains; otherwise it is on the history page
//! whose `[start_ts, end_ts)` range contains the request. The paper walks
//! the history-page chain back to that page; here the chain directory
//! ([`crate::chain_dir`]) names it, so a point read fetches one history
//! page however deep it reaches. A leaf the directory knows nothing of
//! walks the chain by header peek
//! ([`immortaldb_storage::buffer::Frame::peek_header`]) down to the page
//! that answers, as the paper does, and records what it walked.

use immortaldb_common::{PageId, Result, Timestamp};
use immortaldb_storage::buffer::FrameRef;
use immortaldb_storage::page::{PageHeader, PageType};
use immortaldb_storage::version;
use immortaldb_storage::TimestampResolver;

use crate::chain_dir::{ChainEntry, Seek};
use crate::cursor::{visit_page, Flow, KeyRange, Query, RecordVisitor, Version, WalkScratch};
use crate::tree::BTree;

/// Storage shape of a versioned tree (see [`BTree::storage_stats`]).
#[derive(Debug, Clone, Copy)]
pub struct StorageStats {
    pub current_leaves: usize,
    /// Mean raw page fill of current leaves (versions of all ages).
    pub avg_page_utilization: f64,
    /// Bytes of the newest live versions over current-leaf capacity — the
    /// quantity the paper predicts ≈ T·ln 2.
    pub current_slice_utilization: f64,
    pub history_pages: usize,
}

/// A current leaf and the key region `[low, upper)` the index routes to
/// it (`low` empty / `upper` `None` = unbounded). History pages are
/// shared between the leaves a key split made, so a leaf's chain is
/// always read through these bounds.
pub(crate) struct LeafSpan {
    pub id: PageId,
    pub low: Vec<u8>,
    pub upper: Option<Vec<u8>>,
}

impl BTree {
    /// Walk `q` by the contract at the top of `cursor.rs`. The visitor
    /// is a type parameter, not a trait object, so each version reaches
    /// it, and through it an adapter's visitor, by direct calls.
    pub fn cursor<V>(
        &self,
        q: &Query<'_>,
        resolver: &dyn TimestampResolver,
        visit: &mut V,
    ) -> Result<()>
    where
        V: FnMut(&Version<'_>) -> Result<Flow> + ?Sized,
    {
        debug_assert!(self.versioned);
        let _s = self.structure.read();
        let mut scratch = WalkScratch::default();
        if let Some(key) = q.keys.as_point() {
            let leaf = self.descend(key)?;
            self.walk_leaf(leaf, (&[], None), q, resolver, &mut scratch, visit)?;
        } else {
            // Leaf by leaf, left to right, so a visitor that stops early
            // has paid for the leaves it saw and the descent to the first.
            self.walk_leaves(self.root(), Vec::new(), None, &q.keys, &mut |span| {
                let leaf = self.pool.fetch(span.id)?;
                let bounds = (span.low.as_slice(), span.upper.as_deref());
                self.walk_leaf(leaf, bounds, q, resolver, &mut scratch, visit)
            })?;
        }
        let folds = scratch.fold_bufs.folds;
        if folds > 0 {
            self.pool.metrics().version.delta_folds.add(folds);
        }
        Ok(())
    }

    /// Snapshot-version GC: prune versions of `key` older than the oldest
    /// active snapshot (`watermark`). Unlogged physical reorganisation —
    /// see [`version::prune_chain`].
    pub fn prune_snapshot_versions(&self, key: &[u8], watermark: Timestamp) -> Result<usize> {
        debug_assert!(self.versioned);
        let _s = self.structure.read();
        let frame = self.descend(key)?;
        let mut g = frame.write();
        let Ok(i) = g.find_slot(key) else {
            return Ok(0);
        };
        let n = version::prune_chain(&mut g, i, watermark);
        if n > 0 {
            frame.mark_dirty_unlogged();
        }
        Ok(n)
    }

    /// Feed `visit` the `(key, data)` records of a conventional table
    /// whose key lies in `keys`, ascending, until it answers
    /// [`Flow::Stop`]: one descent to the low key, then along the leaf
    /// chain.
    pub fn u_scan_in(&self, keys: &KeyRange<'_>, visit: &mut RecordVisitor<'_>) -> Result<()> {
        debug_assert!(!self.versioned);
        let _s = self.structure.read();
        let mut frame = self.descend(keys.seek_key())?;
        loop {
            let g = frame.read();
            let first = g.find_slot(keys.seek_key()).unwrap_or_else(|pos| pos);
            for i in first..g.slot_count() {
                let off = g.slot(i);
                let key = g.rec_key(off);
                if keys.is_above(key) {
                    return Ok(());
                }
                if keys.is_below(key) {
                    continue; // an excluded low bound
                }
                if visit(key, g.rec_data(off))? == Flow::Stop {
                    return Ok(());
                }
            }
            // A point's leaf is the one the descent found.
            let next = g.next_leaf();
            drop(g);
            if !next.is_valid() || keys.as_point().is_some() {
                return Ok(());
            }
            frame = self.pool.fetch(next)?;
        }
    }

    /// Storage statistics over the *current* leaves, for the
    /// utilization-vs-threshold ablation (the §3.3 claim that a key-split
    /// threshold *T* yields single-time-slice utilization ≈ T·ln 2).
    pub fn storage_stats(&self) -> Result<StorageStats> {
        let _s = self.structure.read();
        let leaves = self.leaves_with_bounds()?;
        let mut util_sum = 0.0;
        let mut slice_bytes = 0usize;
        let mut history = std::collections::HashSet::new();
        for leaf in &leaves {
            let frame = self.pool.fetch(leaf.id)?;
            let g = frame.read();
            util_sum += g.utilization();
            // The "current time slice": the newest live version of each
            // key — what a current-state query would touch.
            for i in 0..g.slot_count() {
                let off = g.slot(i);
                if !g.rec_is_stub(off) {
                    slice_bytes += g.rec_size(off) + 2; // + slot
                }
            }
            let mut hist = g.history_page();
            drop(g);
            // History pages are shared between sibling leaves after key
            // splits; dedup by page id.
            while hist.is_valid() && history.insert(hist) {
                let hframe = self.pool.fetch(hist)?;
                hist = hframe.read().history_page();
            }
        }
        let n = leaves.len();
        let usable = immortaldb_common::PAGE_SIZE - immortaldb_storage::page::HEADER_SIZE;
        Ok(StorageStats {
            current_leaves: n,
            avg_page_utilization: util_sum / n.max(1) as f64,
            current_slice_utilization: slice_bytes as f64 / (n.max(1) * usable) as f64,
            history_pages: history.len(),
        })
    }

    /// All current leaves, left to right.
    pub(crate) fn leaves_with_bounds(&self) -> Result<Vec<LeafSpan>> {
        self.leaves_in(&KeyRange::ALL)
    }

    /// The current leaves whose key region can hold a key of `keys`,
    /// left to right.
    fn leaves_in(&self, keys: &KeyRange<'_>) -> Result<Vec<LeafSpan>> {
        let mut out = Vec::new();
        self.walk_leaves(self.root(), Vec::new(), None, keys, &mut |span| {
            out.push(span);
            Ok(Flow::Continue)
        })?;
        Ok(out)
    }

    /// Hand `visit` the leaves under `page_id` (which covers keys
    /// `[low, upper)`) whose key region can hold a key of `keys`, left to
    /// right, until it answers [`Flow::Stop`].
    pub(crate) fn walk_leaves(
        &self,
        page_id: PageId,
        low: Vec<u8>,
        upper: Option<Vec<u8>>,
        keys: &KeyRange<'_>,
        visit: &mut dyn FnMut(LeafSpan) -> Result<Flow>,
    ) -> Result<Flow> {
        let frame = self.pool.fetch(page_id)?;
        let g = frame.read();
        match g.page_type()? {
            PageType::Leaf => {
                drop(g);
                visit(LeafSpan {
                    id: page_id,
                    low,
                    upper,
                })
            }
            PageType::Index => {
                // Child `i` covers [its entry key (the node's low for the
                // first), the next entry's key (the node's upper for the
                // last)).
                let n = g.slot_count();
                let entry_key = |i: usize| g.rec_key(g.slot(i)).to_vec();
                let mut children = Vec::new();
                for i in 0..n {
                    let child_low = if i == 0 { low.clone() } else { entry_key(i) };
                    let child_upper = if i + 1 < n {
                        Some(entry_key(i + 1))
                    } else {
                        upper.clone()
                    };
                    if keys.overlaps(&child_low, child_upper.as_deref()) {
                        children.push((BTree::index_child(&g, i), child_low, child_upper));
                    }
                }
                drop(g);
                for (child, child_low, child_upper) in children {
                    if self.walk_leaves(child, child_low, child_upper, keys, visit)? == Flow::Stop {
                        return Ok(Flow::Stop);
                    }
                }
                Ok(Flow::Continue)
            }
            other => Err(immortaldb_common::Error::Corruption(format!(
                "scan hit {other:?} page {page_id:?}"
            ))),
        }
    }

    /// The cursor over one leaf's history chain, for the keys of
    /// `bounds`. Seeks to the newest page whose time range reaches
    /// `q.hi` ([`Self::seek_history`]), then reads pages until one
    /// reaches back to `q.lo`: the pages whose `[start_ts, end_ts)`
    /// intersect the window.
    fn walk_leaf<V>(
        &self,
        leaf: FrameRef,
        bounds: (&[u8], Option<&[u8]>),
        q: &Query<'_>,
        resolver: &dyn TimestampResolver,
        scratch: &mut WalkScratch,
        visit: &mut V,
    ) -> Result<Flow>
    where
        V: FnMut(&Version<'_>) -> Result<Flow> + ?Sized,
    {
        let metrics = self.pool.metrics();
        let leaf_hdr = leaf.peek_header(metrics);
        // Uncommitted versions live ONLY in the current page (time splits
        // keep them there, case 4), so a reader that wants them consults
        // the leaf even when the window lies wholly in its history.
        let leaf_for_uncommitted = q.uncommitted && q.hi < leaf_hdr.start_ts();
        let (mut page, hdr) = if q.hi < leaf_hdr.start_ts() {
            match self.seek_history(leaf.page_id(), &leaf_hdr, q.hi)? {
                Some((frame, hdr)) => (Some(frame), hdr),
                None => (None, leaf_hdr), // the window precedes all recorded history
            }
        } else {
            (Some(leaf.clone()), leaf_hdr)
        };
        // One page answers (every instant read, and a window a single
        // page spans): stream from it. `hdr` is stable under the
        // structure latch — only splits and compaction rewrite headers.
        let reaches_lo = hdr.start_ts() <= q.lo || !hdr.history_page().is_valid();
        let WalkScratch { fold_bufs, gather } = scratch;
        match &page {
            Some(frame) if reaches_lo && !leaf_for_uncommitted => {
                return frame.read_optimistic(metrics, |g| {
                    visit_page(g, q, bounds, true, resolver, fold_bufs, visit)
                });
            }
            _ => {}
        }
        // Several pages hold versions of the same keys: gather, then
        // replay in cursor order.
        let mut page_of = |frame: &FrameRef, committed: bool| {
            frame.read_optimistic(metrics, |g| {
                let mut keep = gather.collect();
                visit_page(g, q, bounds, committed, resolver, fold_bufs, &mut keep)
                    .map(|_| (g.start_ts(), g.history_page()))
            })
        };
        if leaf_for_uncommitted {
            page_of(&leaf, false)?;
        }
        while let Some(frame) = page {
            let (start, hist) = page_of(&frame, true)?;
            if start <= q.lo || !hist.is_valid() {
                break;
            }
            metrics.tree.asof_hops.inc();
            page = Some(self.pool.fetch(hist)?);
        }
        gather.replay(q.lo, visit)
    }

    /// The history page below `leaf` (header `leaf_hdr`) that answers
    /// time `t`, older than the leaf's `start_ts`: the newest page that
    /// starts at or before `t`, and its header; `None` when every page
    /// starts after `t`. The chain directory names the page, so a read
    /// fetches that page alone; a leaf with no entry, a time the entry
    /// does not reach yet, and an entry whose page no longer fits it walk
    /// ([`Self::walk_chain`]).
    fn seek_history(
        &self,
        leaf: PageId,
        leaf_hdr: &PageHeader,
        t: Timestamp,
    ) -> Result<Option<(FrameRef, PageHeader)>> {
        let (head, above) = (leaf_hdr.history_page(), leaf_hdr.start_ts());
        if !head.is_valid() {
            return Ok(None);
        }
        let metrics = self.pool.metrics();
        match self.chains.seek(leaf, head, above, t) {
            Seek::Page(start, id) => {
                metrics.tree.asof_hops.inc();
                let frame = self.pool.fetch(id)?;
                let hdr = frame.peek_header(metrics);
                if matches!(hdr.page_type(), Ok(PageType::Leaf))
                    && hdr.start_ts() == start
                    && t < hdr.end_ts()
                {
                    return Ok(Some((frame, hdr)));
                }
                self.chains.remove(leaf);
            }
            Seek::BeforeHistory => return Ok(None),
            Seek::Walk => {}
        }
        self.walk_chain(leaf, head, above, t)
    }

    /// Walk `leaf`'s history chain by header peeks down to the page that
    /// answers `t` — from where its directory entry ends, or from `head`
    /// — and record the pages walked in the entry.
    fn walk_chain(
        &self,
        leaf: PageId,
        head: PageId,
        above: Timestamp,
        t: Timestamp,
    ) -> Result<Option<(FrameRef, PageHeader)>> {
        let metrics = self.pool.metrics();
        metrics.tree.chain_dir_builds.inc();
        let (mut pages, mut next, epoch) = self.chains.resume(leaf, head, above);
        let mut found = None;
        while found.is_none() && next.is_valid() {
            metrics.tree.asof_hops.inc();
            let frame = self.pool.fetch(next)?;
            let hdr = frame.peek_header(metrics);
            pages.push((hdr.start_ts(), next));
            next = hdr.history_page();
            if hdr.start_ts() <= t {
                found = Some((frame, hdr));
            }
        }
        let entry = ChainEntry {
            head,
            above,
            pages: pages.into(),
            rest: next,
        };
        self.chains.insert(leaf, entry, epoch);
        Ok(found)
    }
}
