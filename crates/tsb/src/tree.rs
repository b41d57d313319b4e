//! TSB-tree implementation: temporal descent, rectangle posting and
//! index-node splits, the cursor walk.

use std::collections::HashSet;
use std::sync::Arc;

use immortaldb_btree::{
    visit_page, Flow, KeyRange, LeafSplit, Query, Routing, SplitTimeSource, TreeCore, Version,
    VersionBuffer, VersionCursor, Visitor,
};
use immortaldb_common::codec::{get_u32, get_u64, put_u32, put_u64};
use immortaldb_common::{Error, PageId, Result, Timestamp, TreeId, PAGE_SIZE};
use immortaldb_storage::buffer::{BufferPool, FrameRef};
use immortaldb_storage::page::{
    Page, PageType, FLAG_HISTORICAL, FLAG_VERSIONED, HEADER_SIZE, REC_HDR,
};
use immortaldb_storage::wal::Wal;
use immortaldb_storage::TimestampResolver;

/// On an index page, each entry's data is `t_low (12B) | t_high (12B) |
/// child (4B)`, and entries are sorted by `key_low` (several time slices
/// may share a boundary).
const ENTRY_DATA: usize = 28;

fn encode_entry(t_low: Timestamp, t_high: Timestamp, child: PageId) -> [u8; ENTRY_DATA] {
    let mut b = [0u8; ENTRY_DATA];
    put_u64(&mut b, 0, t_low.ttime);
    put_u32(&mut b, 8, t_low.sn);
    put_u64(&mut b, 12, t_high.ttime);
    put_u32(&mut b, 20, t_high.sn);
    put_u32(&mut b, 24, child.0);
    b
}

/// A decoded index entry: the key-time rectangle `[key_low, next key_low)
/// × [t_low, t_high)` and the page it points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Entry {
    key_low: Vec<u8>,
    t_low: Timestamp,
    t_high: Timestamp,
    pub(crate) child: PageId,
}

impl Entry {
    fn is_open(&self) -> bool {
        self.t_high == Timestamp::MAX
    }

    fn encoded(&self) -> [u8; ENTRY_DATA] {
        encode_entry(self.t_low, self.t_high, self.child)
    }

    /// Bytes the entry takes on an index page: record and slot.
    fn size(&self) -> usize {
        REC_HDR + self.key_low.len() + ENTRY_DATA + 2
    }

    fn view(&self) -> EntryView<'_> {
        EntryView {
            key_low: &self.key_low,
            t_low: self.t_low,
            t_high: self.t_high,
            child: self.child,
        }
    }
}

/// An index entry read in place: like [`Entry`] with a borrowed key.
struct EntryView<'a> {
    key_low: &'a [u8],
    t_low: Timestamp,
    t_high: Timestamp,
    child: PageId,
}

impl EntryView<'_> {
    /// Whether the rectangle's time range `[t_low, t_high)` meets the
    /// inclusive range `[lo, hi]` — contains `t` when both are `t`. An
    /// open range (`t_high == MAX`) meets everything later, current-time
    /// queries at `MAX` included.
    fn meets(&self, lo: Timestamp, hi: Timestamp) -> bool {
        self.t_low <= hi && (self.t_high == Timestamp::MAX || self.t_high > lo)
    }

    /// Whether the two rectangles' time ranges share an instant.
    fn overlaps_time(&self, other: &EntryView<'_>) -> bool {
        self.t_low < other.t_high && other.t_low < self.t_high
    }

    /// Where the rectangle's key region ends, given the entries after it
    /// in key order: where the next one over the same times begins.
    /// Several time slices may share a boundary, and an older slice may
    /// span boundaries that later key splits introduced. `None`: it runs
    /// to the end of the node's own region.
    fn key_end<'a>(&self, after: impl IntoIterator<Item = EntryView<'a>>) -> Option<&'a [u8]> {
        after
            .into_iter()
            .find(|o| o.key_low > self.key_low && o.overlaps_time(self))
            .map(|o| o.key_low)
    }
}

fn view_entry(page: &Page, slot: usize) -> EntryView<'_> {
    let off = page.slot(slot);
    let d = page.rec_data(off);
    EntryView {
        key_low: page.rec_key(off),
        t_low: Timestamp::new(get_u64(d, 0), get_u32(d, 8)),
        t_high: Timestamp::new(get_u64(d, 12), get_u32(d, 20)),
        child: PageId(get_u32(d, 24)),
    }
}

fn decode_entry(page: &Page, slot: usize) -> Entry {
    let v = view_entry(page, slot);
    Entry {
        key_low: v.key_low.to_vec(),
        t_low: v.t_low,
        t_high: v.t_high,
        child: v.child,
    }
}

/// A key region `[low, upper)`: `low` empty / `upper` `None` is
/// unbounded.
type Region<'a> = (&'a [u8], Option<&'a [u8]>);

/// A child to walk and its key region.
type Child = (PageId, Vec<u8>, Option<Vec<u8>>);

/// The children of index node `page` (which covers `[low, upper)`) whose
/// entry is `wanted` and whose key region can hold a key of `keys`, in
/// key order, each with that region clipped to the node's.
fn children(
    page: &Page,
    (low, upper): Region<'_>,
    keys: &KeyRange<'_>,
    wanted: impl Fn(&EntryView<'_>) -> bool,
) -> Vec<Child> {
    let n = page.slot_count();
    let mut out = Vec::new();
    for i in 0..n {
        let e = view_entry(page, i);
        if !wanted(&e) || keys.is_above(e.key_low) {
            continue;
        }
        let next_low = e.key_end((i + 1..n).map(|j| view_entry(page, j)));
        let child_low = e.key_low.max(low);
        let child_upper = match (next_low, upper) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let empty = child_upper.is_some_and(|up| up <= child_low);
        if !empty && keys.overlaps(child_low, child_upper) {
            out.push((e.child, child_low.to_vec(), child_upper.map(<[u8]>::to_vec)));
        }
    }
    out
}

pub(crate) fn entries(page: &Page) -> Vec<Entry> {
    (0..page.slot_count())
        .map(|i| decode_entry(page, i))
        .collect()
}

fn insert_entry(page: &mut Page, e: &Entry) -> Result<()> {
    let need = e.size();
    if need > page.contiguous_free() && need <= page.total_free() {
        page.compact()?;
    }
    page.insert_sorted_dup(&e.key_low, &e.encoded(), 0)?;
    Ok(())
}

/// One step of a temporal descent.
pub struct Step {
    node: PageId,
    slot: usize,
    entry_t_low: Timestamp,
}

/// A disk-backed TSB-tree over versioned data pages: its routing by
/// key-time rectangles over the shared [`TreeCore`].
pub struct TsbTree {
    core: TreeCore,
}

impl TsbTree {
    pub fn create(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        tree_id: TreeId,
        split_time: Arc<dyn SplitTimeSource>,
    ) -> Result<TsbTree> {
        let core = TreeCore::create(pool, wal, tree_id, FLAG_VERSIONED, split_time)?;
        Ok(TsbTree { core })
    }

    pub fn open(
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        tree_id: TreeId,
        split_time: Arc<dyn SplitTimeSource>,
    ) -> Result<TsbTree> {
        let core = TreeCore::open(pool, wal, tree_id, split_time)?;
        Ok(TsbTree { core })
    }

    /// Height of the tree (1 = root is a data page).
    pub fn height(&self) -> Result<u16> {
        let frame = self.core.pool.fetch(self.core.root())?;
        let levels = frame.read().level() + 1;
        Ok(levels)
    }

    // -- descent ------------------------------------------------------------

    /// In `page`, find the entry covering `(key, t)`: greatest
    /// `key_low ≤ key` whose time range contains `t` (backward scan skips
    /// other time slices of the same boundary).
    fn pick_entry(page: &Page, key: &[u8], t: Timestamp) -> Option<usize> {
        let n = page.slot_count();
        let start = match page.find_slot(key) {
            Ok(mut i) => {
                while i + 1 < n && page.rec_key(page.slot(i + 1)) == key {
                    i += 1;
                }
                i + 1
            }
            Err(pos) => pos,
        };
        (0..start).rev().find(|&i| view_entry(page, i).meets(t, t))
    }

    /// Descend to the data page covering `(key, t)`, recording the path.
    pub(crate) fn descend(&self, key: &[u8], t: Timestamp) -> Result<(FrameRef, Vec<Step>)> {
        let metrics = self.core.pool.metrics();
        let mut steps = Vec::new();
        let mut page_id = self.core.root();
        loop {
            let frame = self.core.pool.fetch(page_id)?;
            // The header says whether this is the data page; only an
            // index node is worth the full optimistic copy (validate the
            // version counter around a latch-free copy; a racing split
            // retries or falls back).
            match frame.peek_header(metrics).page_type()? {
                PageType::Leaf => return Ok((frame, steps)),
                PageType::Index => {}
                other => {
                    return Err(Error::Corruption(format!(
                        "TSB descent hit {other:?} page {page_id:?}"
                    )))
                }
            }
            let (step, child) = frame.read_optimistic(metrics, |g| {
                let i = Self::pick_entry(g, key, t).ok_or_else(|| {
                    Error::Corruption(format!(
                        "TSB index {page_id:?} has no entry covering the key/time"
                    ))
                })?;
                let e = view_entry(g, i);
                let step = Step {
                    node: page_id,
                    slot: i,
                    entry_t_low: e.t_low,
                };
                Ok::<_, Error>((step, e.child))
            })?;
            steps.push(step);
            page_id = child;
        }
    }

    /// The cursor for one key at one instant: one index descent to the
    /// page covering `(key, q.hi)`, no page-chain walk (the point of the
    /// TSB-tree).
    fn walk_point(
        &self,
        key: &[u8],
        q: &Query<'_>,
        resolver: &dyn TimestampResolver,
        visit: &mut Visitor<'_>,
    ) -> Result<()> {
        let metrics = self.core.pool.metrics();
        if q.uncommitted {
            // Uncommitted versions live only in the CURRENT data page
            // (time splits keep them there); a temporal descent at `hi`
            // routes past them after a time split, so visit that page
            // first — for them alone if it lies after `hi`. They sort
            // before every committed version, so this is cursor order.
            let (current, _) = self.descend(key, Timestamp::MAX)?;
            let mut settled = false;
            let reaches_hi = current.read_optimistic(metrics, |g| {
                let reaches_hi = g.start_ts() <= q.hi;
                let mut visit = |v: &Version<'_>| {
                    let flow = visit(v)?;
                    settled = flow != Flow::Continue;
                    Ok(flow)
                };
                visit_page(g, q, (&[], None), reaches_hi, resolver, metrics, &mut visit)
                    .map(|_| reaches_hi)
            })?;
            if reaches_hi || settled {
                return Ok(());
            }
        }
        let (frame, _) = self.descend(key, q.hi)?;
        frame.read_optimistic(metrics, |g| {
            visit_page(g, q, (&[], None), true, resolver, metrics, visit)
        })?;
        Ok(())
    }

    /// The cursor's rectangle walk: visit the data pages under `page_id`
    /// whose key-time rectangle meets `q`, each read through the key
    /// region `[low, upper)` its index entry spans, clipped to the region
    /// the walk is called for. Open rectangles are also followed when
    /// uncommitted versions are wanted. Visited pages are collected in
    /// `pages` (feeds `tsb.range_scan_pages`).
    fn walk_node(
        &self,
        page_id: PageId,
        (low, upper): Region<'_>,
        q: &Query<'_>,
        resolver: &dyn TimestampResolver,
        pages: &mut HashSet<PageId>,
        visit: &mut Visitor<'_>,
    ) -> Result<Flow> {
        enum Node {
            Leaf(Flow),
            Index(Vec<Child>),
        }
        let metrics = self.core.pool.metrics();
        let frame = self.core.pool.fetch(page_id)?;
        pages.insert(page_id);
        let node = frame.read_optimistic(metrics, |g| match g.page_type()? {
            PageType::Leaf => {
                let committed = g.start_ts() <= q.hi;
                visit_page(g, q, (low, upper), committed, resolver, metrics, visit).map(Node::Leaf)
            }
            PageType::Index => Ok(Node::Index(children(g, (low, upper), &q.keys, |e| {
                e.meets(q.lo, q.hi) || (q.uncommitted && e.t_high == Timestamp::MAX)
            }))),
            other => Err(Error::Corruption(format!(
                "TSB walk hit {other:?} page {page_id:?}"
            ))),
        })?;
        let children = match node {
            Node::Leaf(flow) => return Ok(flow),
            Node::Index(children) => children,
        };
        for (child, low, upper) in children {
            let bounds = (low.as_slice(), upper.as_deref());
            if self.walk_node(child, bounds, q, resolver, pages, visit)? == Flow::Stop {
                return Ok(Flow::Stop);
            }
        }
        Ok(Flow::Continue)
    }

    /// Hand `visit` the key region of every current data page under
    /// `page_id` (which covers `[low, upper)`) that can hold a key of
    /// `keys`, in key order, until it answers [`Flow::Stop`]. Reads index
    /// nodes only: a node's level says when its children are data pages.
    fn current_regions(
        &self,
        page_id: PageId,
        (low, upper): Region<'_>,
        keys: &KeyRange<'_>,
        visit: &mut dyn FnMut(Region<'_>) -> Result<Flow>,
    ) -> Result<Flow> {
        let metrics = self.core.pool.metrics();
        let frame = self.core.pool.fetch(page_id)?;
        let node = frame.read_optimistic(metrics, |g| match g.page_type()? {
            PageType::Leaf => Ok(None),
            PageType::Index => Ok(Some((
                g.level(),
                children(g, (low, upper), keys, |e| e.t_high == Timestamp::MAX),
            ))),
            other => Err(Error::Corruption(format!(
                "TSB walk hit {other:?} page {page_id:?}"
            ))),
        })?;
        let Some((level, children)) = node else {
            return visit((low, upper)); // the root is the only data page
        };
        for (child, low, upper) in children {
            let region = (low.as_slice(), upper.as_deref());
            let flow = if level == 1 {
                visit(region)?
            } else {
                self.current_regions(child, region, keys, visit)?
            };
            if flow == Flow::Stop {
                return Ok(Flow::Stop);
            }
        }
        Ok(Flow::Continue)
    }

    /// Low key of the region of the page the descent path ends at
    /// (the key of its entry in the parent; empty for the root).
    fn region_low(&self, steps: &[Step]) -> Result<Vec<u8>> {
        match steps.last() {
            None => Ok(Vec::new()),
            Some(s) => {
                let frame = self.core.pool.fetch(s.node)?;
                let g = frame.read();
                Ok(g.rec_key(g.slot(s.slot)).to_vec())
            }
        }
    }

    /// Apply `(retime, adds)` to the parent of `child`, splitting index
    /// nodes upward as needed. Every modified page image ends up in
    /// `images`.
    fn post_entries(
        &self,
        mut steps: Vec<Step>,
        mut child: PageId,
        mut retime: Option<Timestamp>,
        mut adds: Vec<Entry>,
        images: &mut Vec<Page>,
    ) -> Result<Option<PageId>> {
        while retime.is_some() || !adds.is_empty() {
            let Some(step) = steps.pop() else {
                let new_root =
                    self.grow_root(child, retime.take(), std::mem::take(&mut adds), images)?;
                return Ok(Some(new_root));
            };
            // Region low of the node being modified (for a possible index
            // time split posting); `steps` now ends at its parent.
            let node_region_low = self.region_low(&steps)?;
            // This node's own rectangle lower time bound: the t_low of its
            // entry in *its* parent (ZERO for the root) — NOT the t_low of
            // the entry we descended through inside it.
            let node_t_low = steps
                .last()
                .map(|s| s.entry_t_low)
                .unwrap_or(Timestamp::ZERO);

            let frame = self.core.pool.fetch(step.node)?;
            let mut node = frame.read().clone();
            drop(frame);

            if let Some(new_t_low) = retime.take() {
                let slot = self.find_child_entry(&node, child)?;
                let off = node.slot(slot);
                let d = node.rec_data_mut(off);
                put_u64(d, 0, new_t_low.ttime);
                put_u32(d, 8, new_t_low.sn);
            }

            // Split *proactively* above 85% utilization: below it the node
            // has room for the (at most two) pending entries — each is ~40
            // bytes, far below the reserved 15% — and above it they are
            // routed into the halves with the node's own entries.
            if node.utilization() <= 0.85 {
                for e in adds.drain(..) {
                    insert_entry(&mut node, &e)?;
                }
                images.push(node);
                return Ok(None);
            }
            let mut all = entries(&node);
            all.append(&mut adds);
            (adds, retime) =
                self.split_index_node(&node, all, node_t_low, &node_region_low, images)?;
            child = step.node;
        }
        Ok(None)
    }

    /// Create a new root above `child`, containing the (possibly retimed)
    /// entry for `child` plus `adds`. The meta-directory update happens in
    /// [`TreeCore::install`] under a held meta latch (root changes of
    /// different trees race on the shared meta page).
    fn grow_root(
        &self,
        child: PageId,
        retime: Option<Timestamp>,
        adds: Vec<Entry>,
        images: &mut Vec<Page>,
    ) -> Result<PageId> {
        let new_root_id = self.core.pool.disk().allocate()?;
        let child_level = self.core.page_level(images, child)?;
        let mut root = Page::zeroed();
        root.format(new_root_id, PageType::Index, 0, child_level + 1);
        let t_low = retime.unwrap_or(Timestamp::ZERO);
        insert_entry(
            &mut root,
            &Entry {
                key_low: Vec::new(),
                t_low,
                t_high: Timestamp::MAX,
                child,
            },
        )?;
        for e in adds {
            insert_entry(&mut root, &e)?;
        }
        images.push(root);
        Ok(new_root_id)
    }

    fn find_child_entry(&self, node: &Page, child: PageId) -> Result<usize> {
        for i in 0..node.slot_count() {
            let e = decode_entry(node, i);
            if e.child == child && e.is_open() {
                return Ok(i);
            }
        }
        Err(Error::Internal(format!(
            "no current entry for child {child:?} in index node {:?}",
            node.page_id()
        )))
    }

    /// Split a full index node: `all` is every entry it must hold — those
    /// on `node` after the pending retime, and the pending adds. One rule
    /// routes them all: each entry goes to every half its rectangle
    /// overlaps.
    ///
    /// * **Time split** at `T`, the earliest start among the open entries,
    ///   when `T` lies above the node's own start and some entry ends by
    ///   it. The historical node takes the entries starting before `T` —
    ///   closed ones only, so it references history alone and never
    ///   changes again; the current node keeps those ending after `T`. A
    ///   closed entry straddling `T` goes to both: its page is immutable.
    /// * **Key split** at the median open boundary when the current node
    ///   is still more than half full. Entries at or above it go right; a
    ///   left entry whose key region runs past it is also copied right,
    ///   starting there.
    ///
    /// Pushes every page it writes onto `images`; returns the entries to
    /// post one level up, and the node's new `t_low` if it time-split.
    fn split_index_node(
        &self,
        node: &Page,
        mut all: Vec<Entry>,
        node_t_low: Timestamp,
        node_region_low: &[u8],
        images: &mut Vec<Page>,
    ) -> Result<(Vec<Entry>, Option<Timestamp>)> {
        let metrics = &self.core.pool.metrics().tree;
        let page = |id: PageId, flags: u8, entries: &[Entry]| -> Result<Page> {
            let mut p = Page::zeroed();
            p.format(id, PageType::Index, flags, node.level());
            entries.iter().try_for_each(|e| insert_entry(&mut p, e))?;
            Ok(p)
        };
        all.sort_by(|a, b| a.key_low.cmp(&b.key_low));
        let mut posted = Vec::new();
        let split_ts = (all.iter().filter(|e| e.is_open()).map(|e| e.t_low).min())
            .filter(|&t| t > node_t_low && all.iter().any(|e| e.t_high <= t));
        if let Some(t) = split_ts {
            let hist_id = self.core.pool.disk().allocate()?;
            let old: Vec<Entry> = all.iter().filter(|e| e.t_low < t).cloned().collect();
            images.push(page(hist_id, FLAG_HISTORICAL, &old)?);
            all.retain(|e| e.t_high > t);
            posted.push(Entry {
                key_low: node_region_low.to_vec(),
                t_low: node_t_low,
                t_high: t,
                child: hist_id,
            });
            metrics.index_time_splits.inc();
        }
        let open: Vec<&[u8]> = (all.iter().filter(|e| e.is_open()))
            .map(|e| e.key_low.as_slice())
            .collect();
        let half_full = 2 * all.iter().map(Entry::size).sum::<usize>() > PAGE_SIZE - HEADER_SIZE;
        let sep = (half_full && open.len() >= 2).then(|| open[open.len() / 2].to_vec());
        if let Some(sep) = sep {
            let (mut left, mut right) = (Vec::new(), Vec::new());
            for (i, e) in all.iter().enumerate() {
                if e.key_low >= sep {
                    right.push(e.clone());
                    continue;
                }
                left.push(e.clone());
                let end = e.view().key_end(all[i + 1..].iter().map(Entry::view));
                if end.is_none_or(|end| end > sep.as_slice()) {
                    right.push(Entry {
                        key_low: sep.clone(),
                        ..e.clone()
                    });
                }
            }
            all = left;
            let right_id = self.core.pool.disk().allocate()?;
            images.push(page(right_id, node.flags(), &right)?);
            posted.push(Entry {
                key_low: sep,
                t_low: split_ts.unwrap_or(node_t_low),
                t_high: Timestamp::MAX,
                child: right_id,
            });
            metrics.index_key_splits.inc();
        }
        if posted.is_empty() {
            return Err(Error::Internal(
                "index node full but neither time nor key split possible".into(),
            ));
        }
        images.push(page(node.page_id(), node.flags(), &all)?);
        Ok((posted, split_ts))
    }
}

impl Routing for TsbTree {
    type Path = Vec<Step>;

    fn core(&self) -> &TreeCore {
        &self.core
    }

    fn current_leaf(&self, key: &[u8]) -> Result<FrameRef> {
        Ok(self.descend(key, Timestamp::MAX)?.0)
    }

    fn split_path(&self, key: &[u8]) -> Result<(PageId, Vec<Step>)> {
        let (leaf, steps) = self.descend(key, Timestamp::MAX)?;
        Ok((leaf.page_id(), steps))
    }

    /// A data-page time split at `ts` retimes the leaf's entry to
    /// `[ts, ∞)` and posts `(key_low, [old t_low, ts), hist)`; a key split
    /// at `sep` posts `(sep, [t_low, ∞), right)`.
    fn post(
        &self,
        steps: Vec<Step>,
        split: LeafSplit,
        images: &mut Vec<Page>,
    ) -> Result<Option<PageId>> {
        let parent_t_low = steps
            .last()
            .map(|s| s.entry_t_low)
            .unwrap_or(Timestamp::ZERO);
        let retime = split.time_split.map(|(ts, _)| ts);
        let mut adds = Vec::new();
        if let Some((split_ts, hist)) = split.time_split {
            adds.push(Entry {
                key_low: self.region_low(&steps)?,
                t_low: parent_t_low,
                t_high: split_ts,
                child: hist,
            });
        }
        if let Some((sep, right)) = split.key_split {
            adds.push(Entry {
                key_low: sep,
                t_low: retime.unwrap_or(parent_t_low),
                t_high: Timestamp::MAX,
                child: right,
            });
        }
        self.post_entries(steps, split.leaf, retime, adds, images)
    }

    /// The data pages under open entries, each once.
    fn current_leaves(&self, visit: &mut dyn FnMut(PageId) -> Result<()>) -> Result<()> {
        let mut leaves = Vec::new();
        let mut seen: HashSet<PageId> = HashSet::new();
        let mut stack = vec![self.core.root()];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let frame = self.core.pool.fetch(id)?;
            let g = frame.read();
            match g.page_type()? {
                PageType::Leaf => leaves.push(id),
                PageType::Index => stack.extend(
                    entries(&g)
                        .into_iter()
                        .filter(Entry::is_open)
                        .map(|e| e.child),
                ),
                other => {
                    return Err(Error::Corruption(format!(
                        "TSB walk hit {other:?} page {id:?}"
                    )))
                }
            }
        }
        leaves.into_iter().try_for_each(visit)
    }
}

impl VersionCursor for TsbTree {
    fn cursor(
        &self,
        q: &Query<'_>,
        resolver: &dyn TimestampResolver,
        visit: &mut Visitor<'_>,
    ) -> Result<()> {
        let _s = self.core.structure.read();
        if let (Some(key), true) = (q.keys.as_point(), q.is_instant()) {
            return self.walk_point(key, q, resolver, visit);
        }
        let (root, root_region) = (self.core.root(), (&[][..], None));
        let mut pages = HashSet::new();
        // An instant is answered by one page per key region and the walk
        // meets regions in key order, so it streams — unless uncommitted
        // versions are wanted and may sit in a second (current) page.
        if q.is_instant() && (!q.uncommitted || q.hi == Timestamp::MAX) {
            self.walk_node(root, root_region, q, resolver, &mut pages, visit)?;
            return Ok(());
        }
        // Otherwise several time slices hold versions of the same keys,
        // in regions that need not line up. Gather them one current key
        // region at a time — every page of the box read through that
        // region — and replay each in cursor order before the next, so a
        // visitor that stops (and resumes after its last key) has paid
        // for the regions it saw, not for the rest of the box.
        self.current_regions(root, root_region, &q.keys, &mut |region| {
            let mut buf = VersionBuffer::default();
            self.walk_node(root, region, q, resolver, &mut pages, &mut buf.collect())?;
            buf.replay(q.lo, visit)
        })?;
        if !q.is_instant() {
            let m = self.core.pool.metrics();
            m.temporal.range_scan_pages.add(pages.len() as u64);
        }
        Ok(())
    }
}
