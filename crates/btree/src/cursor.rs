//! The one read primitive of a versioned tree: a cursor over a key
//! range × time range, and the classic read entry points as adapters
//! over it.
//!
//! **Contract.** [`BTree::cursor`] visits, for every key of
//! `q.keys` in ascending order, that key's versions newest first:
//!
//! * committed versions with a commit timestamp `<= q.hi`, down to and
//!   including the newest one with a timestamp `<= q.lo` — the state at
//!   `q.lo`, on which every later change in the window builds. An
//!   *instant* (`lo == hi`) therefore yields exactly the version that
//!   governs the key at that time;
//! * with `q.uncommitted`, also the versions of transactions that have
//!   not committed (they sort before every committed version of their
//!   key). These live only in current pages, so the cursor consults
//!   those even when the window lies wholly in history.
//!
//! Each `(key, timestamp)` is visited once: the copies a time split
//! leaves on both sides of its boundary are deduplicated, and of several
//! versions one transaction wrote to a key only the newest is seen. The
//! visitor steers with [`Flow`]. Work is proportional to what the box
//! touches: the cursor descends to the low key and reads only pages whose
//! key range and `[start_ts, end_ts)` intersect it.
//!
//! | adapter | keys | time | visitor |
//! |---|---|---|---|
//! | [`rows_at`](BTree::rows_at) | range | instant | governing image per key |
//! | [`versions_by_key`](BTree::versions_by_key) | range | window | one key's group |
//! | [`head_version`](BTree::head_version) | one | `MAX`, uncommitted | first version, stop |
//!
//! A visitor sees every version borrowed, from the page (or buffer) it
//! sits in. Versions that must outlive one page read go into a
//! [`VersionBuf`], the one buffer that keeps them: a byte arena and
//! fixed-size entries, cleared between uses and never freed.

use std::ops::{Bound, Range};

use immortaldb_common::{Result, Tid, Timestamp};
use immortaldb_storage::page::Page;
use immortaldb_storage::version::{ChainWalker, FoldBuffers};
use immortaldb_storage::TimestampResolver;

use crate::tree::BTree;

/// State of the newest (chain-head) version of a key — what snapshot
/// isolation's first-committer-wins check needs to see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeadVersion {
    /// No version of the key.
    NotFound,
    /// Newest version is TID-marked by a transaction the resolver does not
    /// know to be committed (i.e. still active).
    Uncommitted { tid: Tid, stub: bool },
    /// Newest version is committed with this timestamp.
    Committed { ts: Timestamp, stub: bool },
}

/// A range of index keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange<'a> {
    pub lo: Bound<&'a [u8]>,
    pub hi: Bound<&'a [u8]>,
}

impl<'a> KeyRange<'a> {
    pub const ALL: KeyRange<'static> = KeyRange {
        lo: Bound::Unbounded,
        hi: Bound::Unbounded,
    };

    pub fn point(key: &'a [u8]) -> KeyRange<'a> {
        KeyRange {
            lo: Bound::Included(key),
            hi: Bound::Included(key),
        }
    }

    /// The key, when the range holds exactly one.
    pub fn as_point(&self) -> Option<&'a [u8]> {
        match (self.lo, self.hi) {
            (Bound::Included(a), Bound::Included(b)) if a == b => Some(a),
            _ => None,
        }
    }

    /// Whether `key` lies before the range's first key.
    pub fn is_below(&self, key: &[u8]) -> bool {
        match self.lo {
            Bound::Unbounded => false,
            Bound::Included(lo) => key < lo,
            Bound::Excluded(lo) => key <= lo,
        }
    }

    /// Whether `key` lies past the range's last key.
    pub fn is_above(&self, key: &[u8]) -> bool {
        match self.hi {
            Bound::Unbounded => false,
            Bound::Included(hi) => key > hi,
            Bound::Excluded(hi) => key >= hi,
        }
    }

    pub fn contains(&self, key: &[u8]) -> bool {
        !self.is_below(key) && !self.is_above(key)
    }

    /// Whether a node covering keys `[low, upper)` (`None` = unbounded
    /// above) can hold a key of this range.
    pub fn overlaps(&self, low: &[u8], upper: Option<&[u8]>) -> bool {
        // Every key of the node is >= low, so one past the range's end
        // rules the node out; likewise every key is < upper.
        let starts_past_end = self.is_above(low);
        let ends_before_start = match (upper, self.lo) {
            (Some(up), Bound::Included(lo) | Bound::Excluded(lo)) => up <= lo,
            _ => false,
        };
        !starts_past_end && !ends_before_start
    }

    /// The key a descent seeks: the range's low key, or the smallest key.
    pub fn seek_key(&self) -> &'a [u8] {
        match self.lo {
            Bound::Included(k) | Bound::Excluded(k) => k,
            Bound::Unbounded => &[],
        }
    }
}

/// What a cursor is asked for: a key range × an inclusive time window.
#[derive(Debug, Clone, Copy)]
pub struct Query<'a> {
    pub keys: KeyRange<'a>,
    pub lo: Timestamp,
    pub hi: Timestamp,
    /// Also visit versions whose transaction has not committed.
    pub uncommitted: bool,
}

impl<'a> Query<'a> {
    /// The state of `keys` at `t`; `own` makes uncommitted versions
    /// visible so the visitor can pick the reader's own writes.
    pub fn instant(keys: KeyRange<'a>, t: Timestamp, own: Option<Tid>) -> Query<'a> {
        Query {
            keys,
            lo: t,
            hi: t,
            uncommitted: own.is_some(),
        }
    }

    /// Committed history of `keys` over `[lo, hi]` plus the state at `lo`.
    pub fn window(keys: KeyRange<'a>, lo: Timestamp, hi: Timestamp) -> Query<'a> {
        Query {
            keys,
            lo,
            hi,
            uncommitted: false,
        }
    }
}

/// When a version took (or will take) effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamp {
    Committed(Timestamp),
    /// Written by a transaction the resolver does not know as committed.
    Uncommitted(Tid),
}

/// One visited version, borrowed from the page (or buffer) it sits in.
#[derive(Debug, Clone, Copy)]
pub struct Version<'a> {
    pub key: &'a [u8],
    pub stamp: Stamp,
    /// `None` marks a delete stub.
    pub data: Option<&'a [u8]>,
}

impl Version<'_> {
    /// Whether a reader seeing committed state plus `own`'s writes stops
    /// at this version: any committed one, or an uncommitted one of its
    /// own. Other transactions' uncommitted versions are skipped.
    pub fn governs(&self, own: Option<Tid>) -> bool {
        match self.stamp {
            Stamp::Committed(_) => true,
            Stamp::Uncommitted(tid) => Some(tid) == own,
        }
    }

    /// The commit timestamp; `None` while the writer has not committed.
    pub fn ts(&self) -> Option<Timestamp> {
        match self.stamp {
            Stamp::Committed(ts) => Some(ts),
            Stamp::Uncommitted(_) => None,
        }
    }
}

/// A visitor's verdict after each version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Older versions of this key, then the next key.
    Continue,
    /// Skip the rest of this key's versions.
    NextKey,
    /// End the walk.
    Stop,
}

/// Visitor of one key's versions at a time, oldest first
/// ([`BTree::versions_by_key`]), borrowed from the group's buffer.
pub type KeyVisitor<'v> = dyn FnMut(&VersionBuf) -> Result<Flow> + 'v;

/// Visitor of `(key, data)` records: an unversioned tree's, or the rows
/// an instant read finds ([`BTree::rows_at`]).
pub type RecordVisitor<'v> = dyn FnMut(&[u8], &[u8]) -> Result<Flow> + 'v;

/// Versions kept past the page read that found them: their bytes in one
/// arena, each version a fixed-size entry of where its key and data lie.
/// [`Self::clear`] keeps both allocations, so a buffer reused from one
/// group (or page, or statement) to the next allocates only while it
/// grows. Consecutive versions of one key share one copy of it.
#[derive(Debug, Default)]
pub struct VersionBuf {
    bytes: Vec<u8>,
    entries: Vec<Entry>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// `bytes[key.0..key.1]`.
    key: (usize, usize),
    stamp: Stamp,
    /// `bytes[data.0..data.1]`; `None` marks a delete stub.
    data: Option<(usize, usize)>,
}

impl VersionBuf {
    /// Keep a copy of `v`.
    pub fn push(&mut self, v: &Version<'_>) {
        let key = match self.entries.last() {
            Some(last) if self.slice(last.key) == v.key => last.key,
            _ => self.append(v.key),
        };
        let data = v.data.map(|d| self.append(d));
        self.entries.push(Entry {
            key,
            stamp: v.stamp,
            data,
        });
    }

    fn append(&mut self, b: &[u8]) -> (usize, usize) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(b);
        (start, self.bytes.len())
    }

    fn slice(&self, (start, end): (usize, usize)) -> &[u8] {
        &self.bytes[start..end]
    }

    fn get(&self, e: &Entry) -> Version<'_> {
        Version {
            key: self.slice(e.key),
            stamp: e.stamp,
            data: e.data.map(|d| self.slice(d)),
        }
    }

    /// A visitor that keeps everything it is shown.
    pub fn collect(&mut self) -> impl FnMut(&Version<'_>) -> Result<Flow> + '_ {
        |v| {
            self.push(v);
            Ok(Flow::Continue)
        }
    }

    /// The versions, in the order they were pushed.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Version<'_>> + ExactSizeIterator {
        self.entries.iter().map(|e| self.get(e))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forget every version, keeping the memory.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.entries.clear();
    }

    /// Versions gathered from several pages of one key region, replayed
    /// to `visit` in cursor order, each key cut off below its state at
    /// `lo` as the contract demands; the buffer is left empty. Pages
    /// arrive newest first and each is key-ordered, so page order is not
    /// (key, time) order, and a version spanning a time split sits in
    /// both neighbours.
    pub(crate) fn replay<V>(&mut self, lo: Timestamp, visit: &mut V) -> Result<Flow>
    where
        V: FnMut(&Version<'_>) -> Result<Flow> + ?Sized,
    {
        // Uncommitted first, then newest committed first. The sort is
        // stable, so a transaction's several uncommitted versions of one
        // key keep their chain (newest-first) order.
        let rank = |s: &Stamp| match s {
            Stamp::Uncommitted(_) => Timestamp::MAX,
            Stamp::Committed(ts) => *ts,
        };
        let VersionBuf { bytes, entries } = self;
        let key = |e: &Entry| &bytes[e.key.0..e.key.1];
        entries.sort_by(|a, b| key(a).cmp(key(b)).then(rank(&b.stamp).cmp(&rank(&a.stamp))));
        entries.dedup_by(|a, b| {
            a.stamp == b.stamp && matches!(a.stamp, Stamp::Committed(_)) && key(a) == key(b)
        });
        let mut skip: Option<&[u8]> = None;
        let mut flow = Flow::Continue;
        for e in &self.entries {
            let v = self.get(e);
            if skip == Some(v.key) {
                continue;
            }
            let at_base = matches!(v.stamp, Stamp::Committed(ts) if ts <= lo);
            match visit(&v)? {
                Flow::Stop => {
                    flow = Flow::Stop;
                    break;
                }
                Flow::NextKey => skip = Some(v.key),
                Flow::Continue if at_base => skip = Some(v.key),
                Flow::Continue => {}
            }
        }
        self.clear();
        Ok(flow)
    }
}

/// What one cursor walk reuses from page to page and leaf to leaf: the
/// chain walker's fold buffers (which count the walk's folds) and the
/// multi-page gather.
#[derive(Default)]
pub(crate) struct WalkScratch {
    pub fold_bufs: FoldBuffers,
    pub gather: VersionBuf,
}

/// The reads of a versioned tree, each an adapter over
/// [`cursor`](BTree::cursor).
impl BTree {
    /// The rows of `keys` as they stand at `at` for a reader that also
    /// sees `own`'s uncommitted writes, key-ordered: each key's governing
    /// version, unless it is a delete stub, handed to `visit` as `(key,
    /// image)` until it answers [`Flow::Stop`].
    pub fn rows_at<V>(
        &self,
        keys: KeyRange<'_>,
        at: Timestamp,
        own: Option<Tid>,
        resolver: &dyn TimestampResolver,
        visit: &mut V,
    ) -> Result<()>
    where
        V: FnMut(&[u8], &[u8]) -> Result<Flow> + ?Sized,
    {
        self.cursor(&Query::instant(keys, at, own), resolver, &mut |v| {
            if !v.governs(own) {
                return Ok(Flow::Continue);
            }
            match v.data {
                Some(data) if visit(v.key, data)? == Flow::Stop => Ok(Flow::Stop),
                _ => Ok(Flow::NextKey),
            }
        })
    }

    /// Every committed version of `keys` with a timestamp in `(lo, hi]`
    /// plus each key's state at `lo` (its newest version at or below
    /// `lo`, the *base*), one key at a time, key-ascending: `visit` is
    /// lent each key's group (oldest first, base included);
    /// [`Flow::Stop`] ends the walk after that key.
    pub fn versions_by_key(
        &self,
        keys: KeyRange<'_>,
        lo: Timestamp,
        hi: Timestamp,
        resolver: &dyn TimestampResolver,
        visit: &mut KeyVisitor<'_>,
    ) -> Result<()> {
        let mut group = VersionBuf::default();
        let mut close = |group: &mut VersionBuf| {
            group.entries.reverse();
            let flow = visit(group);
            group.clear();
            flow
        };
        let mut stopped = false;
        self.cursor(&Query::window(keys, lo, hi), resolver, &mut |v| {
            if group
                .iter()
                .next_back()
                .is_some_and(|last| last.key != v.key)
                && close(&mut group)? == Flow::Stop
            {
                stopped = true;
                return Ok(Flow::Stop);
            }
            if let Stamp::Committed(_) = v.stamp {
                group.push(v);
            }
            Ok(Flow::Continue)
        })?;
        if !stopped && !group.is_empty() {
            close(&mut group)?;
        }
        Ok(())
    }

    /// State of the newest version of `key` — what snapshot isolation's
    /// first-committer-wins check needs to see.
    pub fn head_version(
        &self,
        key: &[u8],
        resolver: &dyn TimestampResolver,
    ) -> Result<HeadVersion> {
        let mut out = HeadVersion::NotFound;
        let q = Query {
            keys: KeyRange::point(key),
            lo: Timestamp::MAX,
            hi: Timestamp::MAX,
            uncommitted: true,
        };
        self.cursor(&q, resolver, &mut |v| {
            let stub = v.data.is_none();
            out = match v.stamp {
                Stamp::Committed(ts) => HeadVersion::Committed { ts, stub },
                Stamp::Uncommitted(tid) => HeadVersion::Uncommitted { tid, stub },
            };
            Ok(Flow::Stop)
        })?;
        Ok(out)
    }
}

/// The slots of `page` whose keys lie in `keys` and in `[low, upper)`:
/// bounded by binary searches once per page rather than by comparing
/// every key with both ends of both ranges, which cost a scan a `memcmp`
/// call per row. Keys are sorted and distinct, so only the first slot can
/// sit on an excluded low bound.
fn slots_in(page: &Page, keys: &KeyRange<'_>, low: &[u8], upper: Option<&[u8]>) -> Range<usize> {
    let at = |key: &[u8]| page.find_slot(key).unwrap_or_else(|pos| pos);
    let mut first = at(low.max(keys.seek_key()));
    if first < page.slot_count() && keys.is_below(page.rec_key(page.slot(first))) {
        first += 1;
    }
    let mut end = upper.map_or(page.slot_count(), at);
    match keys.hi {
        Bound::Included(hi) => end = end.min(page.find_slot(hi).map_or_else(|pos| pos, |i| i + 1)),
        Bound::Excluded(hi) => end = end.min(at(hi)),
        Bound::Unbounded => {}
    }
    first..end.max(first)
}

/// Visit the versions of one data page that `q` asks for, restricted to
/// the keys of `[low, upper)` (the key region the page is being read
/// for: history pages are shared between the leaves a key split made).
/// With `committed == false` only uncommitted versions are visited — the
/// page lies after the window and is consulted for them alone.
pub(crate) fn visit_page<V>(
    page: &Page,
    q: &Query<'_>,
    (low, upper): (&[u8], Option<&[u8]>),
    committed: bool,
    resolver: &dyn TimestampResolver,
    fold_bufs: &mut FoldBuffers,
    visit: &mut V,
) -> Result<Flow>
where
    V: FnMut(&Version<'_>) -> Result<Flow> + ?Sized,
{
    // One walker for the page, folding in the walk's buffers.
    let mut walker = ChainWalker::reusing(page, std::mem::take(fold_bufs));
    let mut flow = Flow::Continue;
    for i in slots_in(page, &q.keys, low, upper) {
        let key = page.rec_key(page.slot(i));
        walker.restart(i);
        flow = Flow::Continue;
        let mut last_ts = None;
        while let Some(rec) = walker.step()? {
            let resolved = rec.stamp().or_else(|tid| resolver.resolve(tid).ok_or(tid));
            let stamp = match resolved {
                // A transaction that wrote the key twice left two versions
                // with one timestamp: only the newer ever governed.
                Ok(ts) if !committed || ts > q.hi || last_ts == Some(ts) => continue,
                Ok(ts) => {
                    last_ts = Some(ts);
                    Stamp::Committed(ts)
                }
                Err(_) if !q.uncommitted => continue,
                Err(tid) => Stamp::Uncommitted(tid),
            };
            let data = (!rec.is_stub()).then(|| walker.data());
            flow = visit(&Version { key, stamp, data })?;
            let at_base = matches!(stamp, Stamp::Committed(ts) if ts <= q.lo);
            if flow != Flow::Continue || at_base {
                break;
            }
        }
        if flow == Flow::Stop {
            break;
        }
    }
    *fold_bufs = walker.into_buffers();
    Ok(if flow == Flow::Stop {
        Flow::Stop
    } else {
        Flow::Continue
    })
}
