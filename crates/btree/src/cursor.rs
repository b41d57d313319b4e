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
//! | [`get_as_of`](BTree::get_as_of) | one | instant | `rows_at`, stop |
//! | [`scan_as_of`](BTree::scan_as_of) / `scan_current` | range | instant / `MAX` | `rows_at`, collect |
//! | [`versions_by_key`](BTree::versions_by_key) | range | window | collect per key |
//! | [`history_of`](BTree::history_of) | one | all time, uncommitted | collect |
//! | [`head_version`](BTree::head_version) | one | `MAX`, uncommitted | first version, stop |

use std::ops::Bound;

use immortaldb_common::{Result, Tid, Timestamp};
use immortaldb_obs::MetricsRegistry;
use immortaldb_storage::page::Page;
use immortaldb_storage::version::ChainWalker;
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

    pub fn is_instant(&self) -> bool {
        self.lo == self.hi
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

pub type Visitor<'v> = dyn FnMut(&Version<'_>) -> Result<Flow> + 'v;

/// Visitor of one key's versions at a time, oldest first
/// ([`BTree::versions_by_key`]); it may take them.
pub type KeyVisitor<'v> = dyn FnMut(&mut Vec<TemporalVersion>) -> Result<Flow> + 'v;

/// Visitor of `(key, data)` records: an unversioned tree's, or the rows
/// an instant read finds ([`BTree::rows_at`]).
pub type RecordVisitor<'v> = dyn FnMut(&[u8], &[u8]) -> Result<Flow> + 'v;

/// One row produced by a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanItem {
    pub key: Vec<u8>,
    pub data: Vec<u8>,
}

/// One entry of a record's version history (newest first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryVersion {
    /// Commit timestamp; `None` while the owning transaction is active.
    pub ts: Option<Timestamp>,
    /// TID for uncommitted versions.
    pub tid: Option<Tid>,
    /// `None` marks a delete stub.
    pub data: Option<Vec<u8>>,
}

/// One committed version emitted by a time-range scan
/// (`versions_by_key`). Uncommitted versions never appear.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalVersion {
    pub key: Vec<u8>,
    /// Commit timestamp of this version.
    pub ts: Timestamp,
    /// `None` marks a delete tombstone.
    pub data: Option<Vec<u8>>,
}

/// The reads of a versioned tree, each an adapter over
/// [`cursor`](BTree::cursor).
impl BTree {
    /// The rows of `keys` as they stand at `at` for a reader that also
    /// sees `own`'s uncommitted writes, key-ordered: each key's governing
    /// version, unless it is a delete stub, handed to `visit` as `(key,
    /// image)` until it answers [`Flow::Stop`].
    pub fn rows_at(
        &self,
        keys: KeyRange<'_>,
        at: Timestamp,
        own: Option<Tid>,
        resolver: &dyn TimestampResolver,
        visit: &mut RecordVisitor<'_>,
    ) -> Result<()> {
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

    /// Version of `key` current AS OF `as_of`. Historical queries pass
    /// `own = None`; snapshot-isolation reads pass their TID so their own
    /// uncommitted writes stay visible.
    pub fn get_as_of(
        &self,
        key: &[u8],
        as_of: Timestamp,
        own: Option<Tid>,
        resolver: &dyn TimestampResolver,
    ) -> Result<Option<Vec<u8>>> {
        let mut out = None;
        self.rows_at(
            KeyRange::point(key),
            as_of,
            own,
            resolver,
            &mut |_, data| {
                out = Some(data.to_vec());
                Ok(Flow::Stop)
            },
        )?;
        Ok(out)
    }

    /// The rows of `keys` alive AS OF `as_of`, key-ordered.
    pub fn scan_as_of(
        &self,
        keys: KeyRange<'_>,
        as_of: Timestamp,
        own: Option<Tid>,
        resolver: &dyn TimestampResolver,
    ) -> Result<Vec<ScanItem>> {
        let mut out = Vec::new();
        self.rows_at(keys, as_of, own, resolver, &mut |key, data| {
            out.push(ScanItem {
                key: key.to_vec(),
                data: data.to_vec(),
            });
            Ok(Flow::Continue)
        })?;
        Ok(out)
    }

    /// The current rows of `keys` as `own` sees them.
    pub fn scan_current(
        &self,
        keys: KeyRange<'_>,
        own: Option<Tid>,
        resolver: &dyn TimestampResolver,
    ) -> Result<Vec<ScanItem>> {
        self.scan_as_of(keys, Timestamp::MAX, own, resolver)
    }

    /// Every committed version of `keys` with a timestamp in `(lo, hi]`
    /// plus each key's state at `lo` (its newest version at or below
    /// `lo`, the *base*), one key at a time, key-ascending: `visit` is
    /// handed each key's versions (oldest first, base included) and may
    /// take them; [`Flow::Stop`] ends the walk after that key.
    pub fn versions_by_key(
        &self,
        keys: KeyRange<'_>,
        lo: Timestamp,
        hi: Timestamp,
        resolver: &dyn TimestampResolver,
        visit: &mut KeyVisitor<'_>,
    ) -> Result<()> {
        let mut group: Vec<TemporalVersion> = Vec::new();
        let mut close = |group: &mut Vec<TemporalVersion>| {
            group.reverse();
            let flow = visit(group);
            group.clear();
            flow
        };
        let mut stopped = false;
        self.cursor(&Query::window(keys, lo, hi), resolver, &mut |v| {
            if group.last().is_some_and(|last| last.key != v.key)
                && close(&mut group)? == Flow::Stop
            {
                stopped = true;
                return Ok(Flow::Stop);
            }
            if let Stamp::Committed(ts) = v.stamp {
                group.push(TemporalVersion {
                    key: v.key.to_vec(),
                    ts,
                    data: v.data.map(<[u8]>::to_vec),
                });
            }
            Ok(Flow::Continue)
        })?;
        if !stopped && !group.is_empty() {
            close(&mut group)?;
        }
        Ok(())
    }

    /// Complete version history of `key`, newest first, uncommitted
    /// versions included.
    pub fn history_of(
        &self,
        key: &[u8],
        resolver: &dyn TimestampResolver,
    ) -> Result<Vec<HistoryVersion>> {
        let mut out = Vec::new();
        let q = Query {
            keys: KeyRange::point(key),
            lo: Timestamp::ZERO,
            hi: Timestamp::MAX,
            uncommitted: true,
        };
        self.cursor(&q, resolver, &mut |v| {
            let (ts, tid) = match v.stamp {
                Stamp::Committed(ts) => (Some(ts), None),
                Stamp::Uncommitted(tid) => (None, Some(tid)),
            };
            out.push(HistoryVersion {
                ts,
                tid,
                data: v.data.map(<[u8]>::to_vec),
            });
            Ok(Flow::Continue)
        })?;
        Ok(out)
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

/// Visit the versions of one data page that `q` asks for, restricted to
/// the keys of `[low, upper)` (the key region the page is being read
/// for: history pages are shared between the leaves a key split made).
/// With `committed == false` only uncommitted versions are visited — the
/// page lies after the window and is consulted for them alone.
pub(crate) fn visit_page(
    page: &Page,
    q: &Query<'_>,
    (low, upper): (&[u8], Option<&[u8]>),
    committed: bool,
    resolver: &dyn TimestampResolver,
    metrics: &MetricsRegistry,
    visit: &mut Visitor<'_>,
) -> Result<Flow> {
    let seek = low.max(q.keys.seek_key());
    let first = page.find_slot(seek).unwrap_or_else(|pos| pos);
    // One walker for the page: its fold buffers serve every chain.
    let mut walker = ChainWalker::idle(page);
    let mut flow = Flow::Continue;
    for i in first..page.slot_count() {
        let key = page.rec_key(page.slot(i));
        if upper.is_some_and(|up| key >= up) || q.keys.is_above(key) {
            break;
        }
        if q.keys.is_below(key) {
            continue; // an excluded low bound
        }
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
    if walker.folds > 0 {
        metrics.version.delta_folds.add(walker.folds);
    }
    Ok(if flow == Flow::Stop {
        Flow::Stop
    } else {
        Flow::Continue
    })
}

/// Versions gathered from several pages of one key region, to be put in
/// cursor order before the visitor sees them: pages arrive newest first
/// and each is key-ordered, so page order is not (key, time) order, and
/// a version spanning a time split sits in both neighbours.
#[derive(Default)]
pub(crate) struct VersionBuffer {
    versions: Vec<(Vec<u8>, Stamp, Option<Vec<u8>>)>,
}

impl VersionBuffer {
    /// A visitor that files everything it is shown.
    pub fn collect(&mut self) -> impl FnMut(&Version<'_>) -> Result<Flow> + '_ {
        |v| {
            self.versions
                .push((v.key.to_vec(), v.stamp, v.data.map(<[u8]>::to_vec)));
            Ok(Flow::Continue)
        }
    }

    /// Replay to `visit` in cursor order, each key cut off below its
    /// state at `lo` as the contract demands.
    pub fn replay(mut self, lo: Timestamp, visit: &mut Visitor<'_>) -> Result<Flow> {
        // Uncommitted first, then newest committed first. The sort is
        // stable, so a transaction's several uncommitted versions of one
        // key keep their chain (newest-first) order.
        let rank = |s: &Stamp| match s {
            Stamp::Uncommitted(_) => Timestamp::MAX,
            Stamp::Committed(ts) => *ts,
        };
        self.versions
            .sort_by(|a, b| a.0.cmp(&b.0).then(rank(&b.1).cmp(&rank(&a.1))));
        self.versions
            .dedup_by(|a, b| a.0 == b.0 && a.1 == b.1 && matches!(a.1, Stamp::Committed(_)));
        let mut skip: Option<&[u8]> = None;
        for (key, stamp, data) in &self.versions {
            if skip == Some(key.as_slice()) {
                continue;
            }
            let flow = visit(&Version {
                key,
                stamp: *stamp,
                data: data.as_deref(),
            })?;
            let at_base = matches!(stamp, Stamp::Committed(ts) if *ts <= lo);
            match flow {
                Flow::Stop => return Ok(Flow::Stop),
                Flow::NextKey => skip = Some(key),
                Flow::Continue if at_base => skip = Some(key),
                Flow::Continue => {}
            }
        }
        Ok(Flow::Continue)
    }
}
