//! Version-chain operations on leaf pages (§3 of the paper).
//!
//! A versioned leaf page keeps, per key, a chain of record versions:
//! the slot array points at the newest version and each version's VP field
//! points at its predecessor within the same page. This module implements:
//!
//! * pushing a new version (insert / update / delete-stub),
//! * popping the newest version (transaction rollback),
//! * visibility: finding the version current AS OF a timestamp,
//! * lazy timestamp application (stage IV of the protocol, unlogged),
//! * **page time splits** — the four-case version partition of Fig. 3,
//! * page key splits (whole chains move).
//!
//! A chain is walked in place ([`chain`]) and packed onto a history page
//! version by version ([`ChainPacker`]), straight from the bytes where
//! they lie, so a split allocates no buffer per key or per version.

use immortaldb_common::{Error, PageId, Result, Tid, Timestamp, VERSION_TAIL};

use crate::page::{Page, RecVersion, FLAG_HISTORICAL, RFLAG_DELETE_STUB, RFLAG_DELTA};
use crate::TimestampResolver;

// -- delta-encoded history chains --------------------------------------
//
// Historical pages are immutable except for whole-page rewrites (time
// splits create them; the compactor repacks them), so their version
// chains can afford a denser encoding than current pages: every K-th
// version is a full "anchor" image and the versions between anchors are
// prefix/suffix deltas against their newer neighbour. Current pages never
// hold deltas — `pop_newest` must be able to re-head a chain on rollback,
// which a delta head-successor would break.

/// Anchor interval K of a packed history chain: the head and every K-th
/// version are stored as full images, so reconstructing any version folds
/// at most `K - 1` deltas.
pub const DELTA_ANCHOR_EVERY: usize = 8;

/// Encode `new` as a delta against `base` (the next *newer* version):
/// `[prefix:u16][suffix:u16][mid bytes]`, where the reconstruction is
/// `base[..prefix] ++ mid ++ base[base_len-suffix..]`.
pub fn encode_delta(base: &[u8], new: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_delta_into(base, new, &mut out);
    out
}

/// [`encode_delta`] over `out`, which it clears first: a packing pass
/// reuses one buffer for every delta.
pub fn encode_delta_into(base: &[u8], new: &[u8], out: &mut Vec<u8>) {
    let shorter = base.len().min(new.len());
    let mut prefix = 0usize;
    while prefix < shorter && base[prefix] == new[prefix] {
        prefix += 1;
    }
    let mut suffix = 0usize;
    let max_suffix = shorter - prefix;
    while suffix < max_suffix && base[base.len() - 1 - suffix] == new[new.len() - 1 - suffix] {
        suffix += 1;
    }
    out.clear();
    out.extend_from_slice(&(prefix as u16).to_be_bytes());
    out.extend_from_slice(&(suffix as u16).to_be_bytes());
    out.extend_from_slice(&new[prefix..new.len() - suffix]);
}

/// Reconstruct a version from its delta payload and the materialized data
/// of the next newer chain version.
pub fn apply_delta(base: &[u8], delta: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    apply_delta_into(base, delta, &mut out)?;
    Ok(out)
}

/// [`apply_delta`] over `out`, which it clears first: a walk folding
/// many versions reuses one buffer.
pub fn apply_delta_into(base: &[u8], delta: &[u8], out: &mut Vec<u8>) -> Result<()> {
    if delta.len() < 4 {
        return Err(Error::Corruption(
            "delta payload shorter than header".into(),
        ));
    }
    let prefix = u16::from_be_bytes([delta[0], delta[1]]) as usize;
    let suffix = u16::from_be_bytes([delta[2], delta[3]]) as usize;
    if prefix + suffix > base.len() {
        return Err(Error::Corruption(format!(
            "delta prefix {prefix} + suffix {suffix} exceed base length {}",
            base.len()
        )));
    }
    out.clear();
    out.extend_from_slice(&base[..prefix]);
    out.extend_from_slice(&delta[4..]);
    out.extend_from_slice(&base[base.len() - suffix..]);
    Ok(())
}

/// Cursor over one version chain (newest first) that materializes each
/// version's data incrementally, folding deltas from the nearest newer
/// anchor as it walks. Amortized O(1) fold work per step; a full record
/// is served straight from the page, never copied. Folds alternate
/// between two buffers the walker owns, and [`Self::restart`] keeps them,
/// so one walker over a page's chains allocates only while they grow.
pub struct ChainWalker<'a> {
    page: &'a Page,
    next: Option<usize>,
    /// The current version's data when it is stored whole; `None` when it
    /// is the folded image in `folded`.
    full: Option<&'a [u8]>,
    folded: Vec<u8>,
    /// Where the next fold is written, then swapped with `folded`.
    spare: Vec<u8>,
    /// Number of delta folds performed so far (feeds `version.delta_folds`).
    pub folds: u64,
}

impl<'a> ChainWalker<'a> {
    pub fn new(page: &'a Page, slot_i: usize) -> ChainWalker<'a> {
        let mut walker = ChainWalker::idle(page);
        walker.restart(slot_i);
        walker
    }

    /// A walker of `page` standing on no chain yet: [`Self::restart`] it
    /// on each chain to walk.
    pub fn idle(page: &'a Page) -> ChainWalker<'a> {
        ChainWalker {
            page,
            next: None,
            full: None,
            folded: Vec::new(),
            spare: Vec::new(),
            folds: 0,
        }
    }

    /// Walk the chain at slot `slot_i` next, from its head.
    pub fn restart(&mut self, slot_i: usize) {
        self.next = Some(self.page.slot(slot_i));
        self.full = None;
        self.folded.clear();
    }

    /// Advance to the next (older) version and return it, its header and
    /// tail read once, or `None` at the end of the chain. After a `Some`
    /// return, [`Self::data`] is that version's materialized data.
    pub fn step(&mut self) -> Result<Option<RecVersion<'a>>> {
        let Some(off) = self.next else {
            return Ok(None);
        };
        let rec = self.page.rec_version(off);
        if rec.is_delta() {
            let base = match self.full {
                Some(data) => data,
                None => &self.folded,
            };
            apply_delta_into(base, rec.data, &mut self.spare)?;
            std::mem::swap(&mut self.folded, &mut self.spare);
            self.full = None;
            self.folds += 1;
        } else {
            self.full = Some(rec.data);
        }
        self.next = (rec.vp != 0).then_some(rec.vp);
        Ok(Some(rec))
    }

    /// Materialized data of the version most recently returned by
    /// [`Self::step`].
    pub fn data(&self) -> &[u8] {
        self.full.unwrap_or(&self.folded)
    }
}

/// Records written by a packing pass, split by encoding.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PackCounts {
    pub anchors: u64,
    pub deltas: u64,
}

impl PackCounts {
    pub fn add(&mut self, other: PackCounts) {
        self.anchors += other.anchors;
        self.deltas += other.deltas;
    }
}

/// Packs whole chains onto a page in delta form, one version at a time,
/// newest first, taking each version's bytes from wherever they lie: a
/// time split's current page, a compaction's [`ChainWalker`]. The head
/// and every [`DELTA_ANCHOR_EVERY`]-th version are full anchors, the rest
/// deltas against their newer neighbour when that is actually smaller.
/// Only the head carries the key; stubs are never delta-encoded. The
/// newer neighbour's bytes and the delta being built live in buffers the
/// packer reuses for every version and chain.
#[derive(Default)]
pub struct ChainPacker {
    newer: Vec<u8>,
    delta: Vec<u8>,
    /// Versions of the open chain so far, and its head and last records.
    len: usize,
    head: usize,
    last: usize,
    /// Records written so far, by encoding.
    pub counts: PackCounts,
}

impl ChainPacker {
    /// Append the next (older) version of the open chain to `dst`; the
    /// first version opens a chain of `key`. The tail is raw `(Ttime,
    /// SN)` bytes — committed stamp or TID mark alike, copied verbatim.
    pub fn push(
        &mut self,
        dst: &mut Page,
        key: &[u8],
        data: &[u8],
        flags: u8,
        ttime: u64,
        sn: u32,
    ) -> Result<()> {
        debug_assert!(dst.is_versioned());
        let head = self.len == 0;
        let flags = flags & !(crate::page::RFLAG_DEAD | RFLAG_DELTA);
        // The head and every K-th version are anchors; a stub is never a
        // delta; any other version is one when that is smaller.
        let delta =
            !self.len.is_multiple_of(DELTA_ANCHOR_EVERY) && flags & RFLAG_DELETE_STUB == 0 && {
                encode_delta_into(&self.newer, data, &mut self.delta);
                self.delta.len() < data.len()
            };
        let off = if delta {
            dst.alloc_record(&[], &self.delta, flags | RFLAG_DELTA, false)?
        } else {
            dst.alloc_record(if head { key } else { &[] }, data, flags, head)?
        };
        dst.set_rec_tail_raw(off, ttime, sn);
        dst.set_rec_vp(off, 0);
        if delta {
            self.counts.deltas += 1;
        } else {
            self.counts.anchors += 1;
        }
        if head {
            self.head = off;
        } else {
            dst.set_rec_vp(self.last, off);
        }
        (self.last, self.len) = (off, self.len + 1);
        self.newer.clear();
        self.newer.extend_from_slice(data);
        Ok(())
    }

    /// Close the open chain, if any: add its head's slot to `dst`.
    pub fn finish(&mut self, dst: &mut Page) -> Result<()> {
        if std::mem::take(&mut self.len) == 0 {
            return Ok(());
        }
        let Err(pos) = dst.find_slot(dst.rec_key(self.head)) else {
            return Err(Error::Internal(
                "duplicate slot while packing a chain".into(),
            ));
        };
        dst.add_slot_for(pos, self.head);
        Ok(())
    }
}

/// Push a new version for `key` onto the page: a plain insert if the key
/// has no chain, otherwise a new chain head whose VP points at the old
/// newest version. `stub = true` records a delete.
///
/// The new version is TID-marked (stage II); it receives its timestamp
/// lazily after commit. Returns the heap offset of the new version.
/// Fails with [`Error::PageFull`] when the caller must split first;
/// compaction is attempted automatically when fragmentation would cover
/// the request.
pub fn add_version(
    page: &mut Page,
    key: &[u8],
    data: &[u8],
    stub: bool,
    tid: Tid,
) -> Result<usize> {
    debug_assert!(page.is_versioned());
    let need = crate::page::REC_HDR + key.len() + data.len() + VERSION_TAIL + 2;
    if need > page.contiguous_free() && need <= page.total_free() {
        page.compact()?;
    }
    let rflags = if stub { RFLAG_DELETE_STUB } else { 0 };
    match page.find_slot(key) {
        Ok(i) => {
            let prev = page.slot(i);
            let off = page.alloc_record(key, data, rflags, false)?;
            page.set_rec_vp(off, prev);
            page.mark_rec_tid(off, tid);
            page.set_slot(i, off);
            Ok(off)
        }
        Err(pos) => {
            let off = page.insert_at(pos, key, data, rflags)?;
            page.set_rec_vp(off, 0);
            page.mark_rec_tid(off, tid);
            Ok(off)
        }
    }
}

/// Pop the newest version of `key`, which must be TID-marked by `tid`
/// (rollback / logical undo of [`add_version`]). If the chain becomes
/// empty the slot disappears.
pub fn pop_newest(page: &mut Page, key: &[u8], tid: Tid) -> Result<()> {
    debug_assert!(page.is_versioned());
    let i = page.find_slot(key).map_err(|_| Error::KeyNotFound)?;
    let off = page.slot(i);
    if !page.rec_is_tid_marked(off) || page.rec_tid(off) != tid {
        return Err(Error::Internal(format!(
            "pop_newest: newest version of key not owned by {tid:?}"
        )));
    }
    let vp = page.rec_vp(off);
    let size = page.rec_size(off);
    page.set_rec_flags(off, page.rec_flags(off) | crate::page::RFLAG_DEAD);
    page.add_frag(size);
    if vp == 0 {
        page.remove_slot(i);
    } else {
        page.set_slot(i, vp);
    }
    Ok(())
}

/// The version after `off` in its chain (its older neighbour), if any.
fn older(page: &Page, off: usize) -> Option<usize> {
    let vp = page.rec_vp(off);
    (vp != 0).then_some(vp)
}

/// The version offsets of the chain anchored at slot `i`, newest first,
/// read as the walk goes.
pub fn chain(page: &Page, i: usize) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors(Some(page.slot(i)), move |&off| older(page, off))
}

/// All version offsets of the chain anchored at slot `i`, newest first.
pub fn chain_offsets(page: &Page, i: usize) -> Vec<usize> {
    chain(page, i).collect()
}

/// Outcome of a visibility walk along one chain.
#[derive(Debug, PartialEq, Eq)]
pub enum Visible {
    /// This version (heap offset) is the one current AS OF the requested
    /// time.
    Version(usize),
    /// The record was deleted as of the requested time (a stub governs).
    Deleted,
    /// Nothing in this page's chain is old enough — the caller must follow
    /// the history-page chain (or conclude the record did not exist yet if
    /// the page's time range covers the request).
    NotHere,
}

/// Walk the chain at slot `i` and find the version visible AS OF `as_of`.
///
/// `own_tid` makes a transaction's *own* uncommitted versions visible
/// (read-your-writes). TID-marked versions of other transactions are
/// resolved through `resolver`: committed → their timestamp applies,
/// active → invisible, skip to the predecessor. This read-only walk never
/// mutates the page; use [`stamp_committed`] (write latch) to also apply
/// timestamps, per the paper's read trigger.
pub fn visible_as_of(
    page: &Page,
    i: usize,
    as_of: Timestamp,
    own_tid: Option<Tid>,
    resolver: &dyn TimestampResolver,
) -> Visible {
    let mut off = page.slot(i);
    loop {
        let ts = if page.rec_is_tid_marked(off) {
            let tid = page.rec_tid(off);
            if Some(tid) == own_tid {
                // Own uncommitted write: always visible at "now".
                return classify(page, off);
            }
            resolver.resolve(tid)
        } else {
            Some(page.rec_timestamp(off))
        };
        if let Some(ts) = ts {
            if ts <= as_of {
                return classify(page, off);
            }
        }
        let vp = page.rec_vp(off);
        if vp == 0 {
            return Visible::NotHere;
        }
        off = vp;
    }
}

fn classify(page: &Page, off: usize) -> Visible {
    if page.rec_is_stub(off) {
        Visible::Deleted
    } else {
        Visible::Version(off)
    }
}

/// Apply timestamps to every TID-marked record of a committed transaction
/// in this page (triggers: page flush, time split, opportunistic access).
/// The resolver hears how many records of each transaction were stamped
/// ([`TimestampResolver::note_stamped`], which drives the volatile
/// reference counts); returns how many were in all. This mutation is
/// deliberately unlogged (§2.2): durability comes from the
/// flush-before-GC rule.
pub fn stamp_committed(page: &mut Page, resolver: &dyn TimestampResolver) -> u64 {
    debug_assert!(page.is_versioned());
    let mut stamper = Stamper::new(resolver);
    for i in 0..page.slot_count() {
        stamper.chain(page, i);
    }
    stamper.finish()
}

/// Stamp the chain for a single key (the paper's update trigger: "when we
/// update a non-timestamped version of a record with a later version, all
/// existing versions must be committed, and we timestamp them all"), as
/// [`stamp_committed`] does a page.
pub fn stamp_chain(page: &mut Page, i: usize, resolver: &dyn TimestampResolver) -> u64 {
    let mut stamper = Stamper::new(resolver);
    stamper.chain(page, i);
    stamper.finish()
}

/// Stamps the committed TID-marked versions a walk meets, telling the
/// resolver once per run of one transaction's versions.
struct Stamper<'r> {
    resolver: &'r dyn TimestampResolver,
    run: Option<(Tid, u32)>,
    stamped: u64,
}

impl<'r> Stamper<'r> {
    fn new(resolver: &'r dyn TimestampResolver) -> Stamper<'r> {
        Stamper {
            resolver,
            run: None,
            stamped: 0,
        }
    }

    fn chain(&mut self, page: &mut Page, i: usize) {
        let mut next = Some(page.slot(i));
        while let Some(off) = next {
            next = older(page, off);
            if !page.rec_is_tid_marked(off) {
                continue;
            }
            let tid = page.rec_tid(off);
            let Some(ts) = self.resolver.resolve(tid) else {
                continue;
            };
            page.stamp_rec(off, ts);
            self.stamped += 1;
            match &mut self.run {
                Some((t, n)) if *t == tid => *n += 1,
                run => {
                    if let Some((t, n)) = run.replace((tid, 1)) {
                        self.resolver.note_stamped(t, n);
                    }
                }
            }
        }
    }

    fn finish(self) -> u64 {
        if let Some((t, n)) = self.run {
            self.resolver.note_stamped(t, n);
        }
        self.stamped
    }
}

/// Garbage-collect snapshot versions (§3, "Snapshots"): drop versions of
/// the chain at slot `i` that are older than the version visible to the
/// oldest active snapshot transaction (`watermark`). The newest version
/// with timestamp ≤ `watermark` is kept (it is what that snapshot reads);
/// everything older is marked dead. Only meaningful for snapshot-enabled
/// conventional tables — immortal tables never collect versions. Returns
/// the number of versions pruned.
pub fn prune_chain(page: &mut Page, i: usize, watermark: Timestamp) -> usize {
    let chain = chain_offsets(page, i);
    // Find the first (newest) committed, stamped version visible at the
    // watermark; its predecessors are unreachable by any live snapshot.
    let mut keep_until = None;
    for (idx, &off) in chain.iter().enumerate() {
        if page.rec_is_tid_marked(off) {
            continue; // unresolved: keep conservatively
        }
        if page.rec_timestamp(off) <= watermark {
            keep_until = Some(idx);
            break;
        }
    }
    let Some(keep) = keep_until else { return 0 };
    let mut pruned = 0usize;
    for &off in &chain[keep + 1..] {
        let size = page.rec_size(off);
        page.set_rec_flags(off, page.rec_flags(off) | crate::page::RFLAG_DEAD);
        page.add_frag(size);
        pruned += 1;
    }
    if pruned > 0 {
        page.set_rec_vp(chain[keep], 0);
    }
    pruned
}

/// Where a version goes during a time split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SplitFate {
    HistoryOnly,
    Both,
    CurrentOnly,
}

/// The chain at slot `i` with each version's fate in a time split at
/// `split_ts`, newest first, per the four cases of Fig. 3 plus the
/// delete-stub rule. All committed versions must already be stamped.
fn fates(
    page: &Page,
    i: usize,
    split_ts: Timestamp,
) -> impl Iterator<Item = (usize, SplitFate)> + '_ {
    // The start of the next newer *effective* version ends a lifetime.
    // Uncommitted versions have no timestamp yet and end nothing.
    let mut next_newer_start: Option<Timestamp> = None;
    chain(page, i).map(move |off| {
        if page.rec_is_tid_marked(off) {
            // Case 4: uncommitted versions remain in the current page.
            return (off, SplitFate::CurrentOnly);
        }
        let start = page.rec_timestamp(off);
        let end = next_newer_start.replace(start).unwrap_or(Timestamp::MAX);
        let fate = if page.rec_is_stub(off) {
            if start < split_ts {
                // Stubs earlier than the split time move to history: their
                // purpose is to end the prior version there. They are
                // removed from the current page.
                SplitFate::HistoryOnly
            } else {
                SplitFate::CurrentOnly
            }
        } else if end <= split_ts {
            // Case 1: lifetime entirely before the split.
            SplitFate::HistoryOnly
        } else if start < split_ts {
            // Case 2: alive across the split — redundantly in both pages.
            SplitFate::Both
        } else {
            // Case 3: born at/after the split.
            SplitFate::CurrentOnly
        };
        (off, fate)
    })
}

/// Bytes a time split at `split_ts` would free from the current page
/// (records whose fate is HistoryOnly). Used to decide whether a time
/// split is worthwhile or the page should go straight to a key split
/// (insert-heavy pages may have nothing historical to shed).
pub fn time_split_gain(cur: &Page, split_ts: Timestamp) -> usize {
    let shed: usize = (0..cur.slot_count())
        .flat_map(|i| fates(cur, i, split_ts))
        .filter(|&(_, fate)| fate == SplitFate::HistoryOnly)
        .map(|(off, _)| cur.rec_size(off))
        .sum();
    shed + cur.frag_space()
}

/// Time-split `cur` at `split_ts` (§3.3): returns `(history page, new
/// current page, pack counts)` images. The history page receives the time
/// range `[cur.start_ts, split_ts)` and inherits the old history pointer;
/// the rebuilt current page covers `[split_ts, ∞)` and points at the new
/// history page. The history side is written once, here, delta-packed;
/// nothing rewrites it afterwards except a chain merge. The caller must
/// have stamped all committed versions first ([`stamp_committed`]) and
/// installs/logs both images atomically.
pub fn time_split(
    cur: &Page,
    split_ts: Timestamp,
    hist_id: PageId,
) -> Result<(Page, Page, PackCounts)> {
    debug_assert!(cur.is_versioned());
    debug_assert!(split_ts > cur.start_ts());

    let mut hist = Page::zeroed();
    hist.format(
        hist_id,
        crate::page::PageType::Leaf,
        cur.flags() | FLAG_HISTORICAL,
        0,
    );
    hist.set_start_ts(cur.start_ts());
    hist.set_end_ts(split_ts);
    hist.set_history_page(cur.history_page());

    let mut fresh = Page::zeroed();
    fresh.format(cur.page_id(), crate::page::PageType::Leaf, cur.flags(), 0);
    fresh.set_start_ts(split_ts);
    fresh.set_end_ts(Timestamp::MAX);
    fresh.set_history_page(hist_id);
    fresh.set_next_leaf(cur.next_leaf());

    let mut packer = ChainPacker::default();
    for i in 0..cur.slot_count() {
        let stays = fates(cur, i, split_ts).filter(|&(_, f)| f != SplitFate::HistoryOnly);
        copy_chain(cur, stays.map(|(off, _)| off), &mut fresh)?;
        // Current pages never hold deltas (and every version carries the
        // key), so each version the history page takes is whole here.
        for (off, _) in fates(cur, i, split_ts).filter(|&(_, f)| f != SplitFate::CurrentOnly) {
            let (key, data) = (cur.rec_key(off), cur.rec_data(off));
            let (flags, ttime, sn) = (cur.rec_flags(off), cur.rec_ttime(off), cur.rec_sn(off));
            packer.push(&mut hist, key, data, flags, ttime, sn)?;
        }
        packer.finish(&mut hist)?;
    }
    Ok((hist, fresh, packer.counts))
}

/// Copy the versions `offs` of one chain of `src` (newest first) into
/// `dst`, preserving their order and relinking VPs.
fn copy_chain(src: &Page, offs: impl Iterator<Item = usize>, dst: &mut Page) -> Result<()> {
    let mut prev_new: Option<usize> = None;
    let mut first: Option<(usize, usize)> = None;
    for off in offs {
        let new_off = dst.alloc_record(
            src.rec_key(off),
            src.rec_data(off),
            src.rec_flags(off),
            first.is_none(),
        )?;
        // Copy Ttime + SN verbatim (committed stamps or TID marks).
        copy_tail(src, off, dst, new_off);
        match prev_new {
            None => first = Some((off, new_off)),
            Some(p) => dst.set_rec_vp(p, new_off),
        }
        prev_new = Some(new_off);
    }
    if let Some((src_head, head)) = first {
        let pos = match dst.find_slot(src.rec_key(src_head)) {
            Ok(_) => return Err(Error::Internal("duplicate slot during split copy".into())),
            Err(pos) => pos,
        };
        // `alloc_record` reserved room for the head's slot; add it now
        // that the chain is linked.
        dst.add_slot_for(pos, head);
    }
    Ok(())
}

fn copy_tail(src: &Page, src_off: usize, dst: &mut Page, dst_off: usize) {
    if src.rec_is_tid_marked(src_off) {
        dst.mark_rec_tid(dst_off, src.rec_tid(src_off));
    } else {
        dst.stamp_rec(dst_off, src.rec_timestamp(src_off));
    }
}

/// Key-split `cur` around its slot midpoint (by accumulated live bytes):
/// returns `(new left image — same page id, right page, separator key)`.
/// Whole version chains move together; both halves keep the page's time
/// range and share the existing history chain. Works for versioned and
/// unversioned leaves.
pub fn key_split(cur: &Page, right_id: PageId) -> Result<(Page, Page, Vec<u8>)> {
    let n = cur.slot_count();
    if n < 2 {
        return Err(Error::Internal("key split of a page with < 2 keys".into()));
    }
    // Find the slot index where accumulated chain bytes pass half the total.
    let chain_bytes: Vec<usize> = (0..n)
        .map(|i| {
            if cur.is_versioned() {
                chain(cur, i).map(|o| cur.rec_size(o)).sum()
            } else {
                cur.rec_size(cur.slot(i))
            }
        })
        .collect();
    let total: usize = chain_bytes.iter().sum();
    let mut acc = 0usize;
    let mut split_at = n / 2;
    for (i, b) in chain_bytes.iter().enumerate() {
        acc += b;
        if acc * 2 >= total {
            split_at = (i + 1).clamp(1, n - 1);
            break;
        }
    }

    let mut left = Page::zeroed();
    left.format(cur.page_id(), crate::page::PageType::Leaf, cur.flags(), 0);
    left.set_start_ts(cur.start_ts());
    left.set_end_ts(cur.end_ts());
    left.set_history_page(cur.history_page());
    left.set_next_leaf(right_id);

    let mut right = Page::zeroed();
    right.format(right_id, crate::page::PageType::Leaf, cur.flags(), 0);
    right.set_start_ts(cur.start_ts());
    right.set_end_ts(cur.end_ts());
    right.set_history_page(cur.history_page());
    right.set_next_leaf(cur.next_leaf());

    for i in 0..n {
        let dst = if i < split_at { &mut left } else { &mut right };
        if cur.is_versioned() {
            copy_chain(cur, chain(cur, i), dst)?;
        } else {
            let off = cur.slot(i);
            dst.insert_sorted(cur.rec_key(off), cur.rec_data(off), cur.rec_flags(off))?;
        }
    }
    let sep = right.rec_key(right.slot(0)).to_vec();
    Ok((left, right, sep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{PageType, FLAG_VERSIONED};
    use std::collections::HashMap as Map;

    /// Resolves from a map; keeps what it was told was stamped.
    struct MapResolver(Map<u64, Timestamp>, std::sync::Mutex<Vec<(Tid, u32)>>);
    impl TimestampResolver for MapResolver {
        fn resolve(&self, tid: Tid) -> Option<Timestamp> {
            self.0.get(&tid.0).copied()
        }
        fn note_stamped(&self, tid: Tid, n: u32) {
            self.1.lock().unwrap().push((tid, n));
        }
    }

    fn vleaf() -> Page {
        let mut p = Page::zeroed();
        p.format(PageId(7), PageType::Leaf, FLAG_VERSIONED, 0);
        p
    }

    fn ts(t: u64, sn: u32) -> Timestamp {
        Timestamp::new(t, sn)
    }

    #[test]
    fn add_version_builds_chain() {
        let mut p = vleaf();
        let o1 = add_version(&mut p, b"a", b"v1", false, Tid(1)).unwrap();
        p.stamp_rec(o1, ts(20, 0));
        let o2 = add_version(&mut p, b"a", b"v2", false, Tid(2)).unwrap();
        assert_eq!(p.slot_count(), 1);
        assert_eq!(p.slot(0), o2);
        assert_eq!(p.rec_vp(o2), o1);
        assert_eq!(chain_offsets(&p, 0), vec![o2, o1]);
    }

    #[test]
    fn pop_newest_restores_or_removes() {
        let mut p = vleaf();
        let o1 = add_version(&mut p, b"a", b"v1", false, Tid(1)).unwrap();
        p.stamp_rec(o1, ts(20, 0));
        add_version(&mut p, b"a", b"v2", false, Tid(2)).unwrap();
        pop_newest(&mut p, b"a", Tid(2)).unwrap();
        assert_eq!(p.slot(0), o1);
        assert_eq!(p.rec_data(p.slot(0)), b"v1");
        // Popping an insert removes the slot entirely.
        add_version(&mut p, b"b", b"x", false, Tid(3)).unwrap();
        assert_eq!(p.slot_count(), 2);
        pop_newest(&mut p, b"b", Tid(3)).unwrap();
        assert_eq!(p.slot_count(), 1);
        assert!(p.find_slot(b"b").is_err());
    }

    #[test]
    fn pop_newest_rejects_wrong_owner() {
        let mut p = vleaf();
        add_version(&mut p, b"a", b"v1", false, Tid(1)).unwrap();
        assert!(pop_newest(&mut p, b"a", Tid(9)).is_err());
    }

    #[test]
    fn visibility_walks_to_correct_version() {
        let mut p = vleaf();
        let o1 = add_version(&mut p, b"a", b"v1", false, Tid(1)).unwrap();
        p.stamp_rec(o1, ts(20, 0));
        let o2 = add_version(&mut p, b"a", b"v2", false, Tid(2)).unwrap();
        p.stamp_rec(o2, ts(40, 0));
        let o3 = add_version(&mut p, b"a", b"v3", false, Tid(3)).unwrap();
        p.stamp_rec(o3, ts(60, 0));
        let r = MapResolver(Map::new(), Default::default());
        assert_eq!(
            visible_as_of(&p, 0, ts(60, 5), None, &r),
            Visible::Version(o3)
        );
        assert_eq!(
            visible_as_of(&p, 0, ts(59, 0), None, &r),
            Visible::Version(o2)
        );
        assert_eq!(
            visible_as_of(&p, 0, ts(40, 0), None, &r),
            Visible::Version(o2)
        );
        assert_eq!(
            visible_as_of(&p, 0, ts(20, 0), None, &r),
            Visible::Version(o1)
        );
        assert_eq!(visible_as_of(&p, 0, ts(19, 9), None, &r), Visible::NotHere);
    }

    #[test]
    fn visibility_of_uncommitted_and_own_writes() {
        let mut p = vleaf();
        let o1 = add_version(&mut p, b"a", b"v1", false, Tid(1)).unwrap();
        p.stamp_rec(o1, ts(20, 0));
        let o2 = add_version(&mut p, b"a", b"v2", false, Tid(5)).unwrap();
        let r = MapResolver(Map::new(), Default::default()); // Tid(5) still active
                                                             // Other readers skip the uncommitted version.
        assert_eq!(
            visible_as_of(&p, 0, Timestamp::MAX, None, &r),
            Visible::Version(o1)
        );
        // The owner sees its own write.
        assert_eq!(
            visible_as_of(&p, 0, Timestamp::MAX, Some(Tid(5)), &r),
            Visible::Version(o2)
        );
        // Once committed (resolver knows), it becomes visible to all.
        let mut m = Map::new();
        m.insert(5, ts(40, 0));
        let r = MapResolver(m, Default::default());
        assert_eq!(
            visible_as_of(&p, 0, Timestamp::MAX, None, &r),
            Visible::Version(o2)
        );
        assert_eq!(
            visible_as_of(&p, 0, ts(39, 0), None, &r),
            Visible::Version(o1)
        );
    }

    #[test]
    fn delete_stub_reports_deleted() {
        let mut p = vleaf();
        let o1 = add_version(&mut p, b"a", b"v1", false, Tid(1)).unwrap();
        p.stamp_rec(o1, ts(20, 0));
        let o2 = add_version(&mut p, b"a", b"", true, Tid(2)).unwrap();
        p.stamp_rec(o2, ts(40, 0));
        let r = MapResolver(Map::new(), Default::default());
        assert_eq!(visible_as_of(&p, 0, ts(50, 0), None, &r), Visible::Deleted);
        assert_eq!(
            visible_as_of(&p, 0, ts(30, 0), None, &r),
            Visible::Version(o1)
        );
    }

    #[test]
    fn stamp_committed_counts_per_tid() {
        let mut p = vleaf();
        add_version(&mut p, b"a", b"v1", false, Tid(1)).unwrap();
        add_version(&mut p, b"b", b"v1", false, Tid(1)).unwrap();
        add_version(&mut p, b"c", b"v1", false, Tid(2)).unwrap();
        let mut m = Map::new();
        m.insert(1, ts(20, 0));
        // Tid(2) not yet committed.
        let resolver = MapResolver(m, Default::default());
        assert_eq!(stamp_committed(&mut p, &resolver), 2);
        assert_eq!(*resolver.1.lock().unwrap(), vec![(Tid(1), 2)]);
        // a and b stamped, c still TID-marked.
        let oa = p.slot(p.find_slot(b"a").unwrap());
        assert_eq!(p.rec_timestamp(oa), ts(20, 0));
        let oc = p.slot(p.find_slot(b"c").unwrap());
        assert!(p.rec_is_tid_marked(oc));
    }

    /// Reproduce the exact Fig. 3 scenario: records A, B, C with the
    /// depicted lifetimes, then time-split and check each page's content.
    #[test]
    fn time_split_matches_figure_3() {
        let mut p = vleaf();
        // Record A: one version, alive across the split.
        let a1 = add_version(&mut p, b"A", b"a1", false, Tid(1)).unwrap();
        p.stamp_rec(a1, ts(20, 0));
        // Record B: early version, then a later version after split time.
        let b1 = add_version(&mut p, b"B", b"b1", false, Tid(1)).unwrap();
        p.stamp_rec(b1, ts(20, 0));
        let b2 = add_version(&mut p, b"B", b"b2", false, Tid(2)).unwrap();
        p.stamp_rec(b2, ts(200, 0));
        // Record C: early version, mid version, then a delete stub after split.
        let c1 = add_version(&mut p, b"C", b"c1", false, Tid(1)).unwrap();
        p.stamp_rec(c1, ts(20, 0));
        let c2 = add_version(&mut p, b"C", b"c2", false, Tid(3)).unwrap();
        p.stamp_rec(c2, ts(60, 0));
        let c3 = add_version(&mut p, b"C", b"", true, Tid(4)).unwrap();
        p.stamp_rec(c3, ts(200, 0));

        let split = ts(100, 0);
        let (hist, cur, _) = time_split(&p, split, PageId(99)).unwrap();

        // History page: time range [0, 100).
        assert!(hist.is_historical());
        assert_eq!(hist.start_ts(), Timestamp::ZERO);
        assert_eq!(hist.end_ts(), split);
        assert_eq!(hist.page_id(), PageId(99));
        // A: the only version spans the split -> in both.
        let ha = hist.find_slot(b"A").unwrap();
        assert_eq!(hist.rec_data(hist.slot(ha)), b"a1");
        let ca = cur.find_slot(b"A").unwrap();
        assert_eq!(cur.rec_data(cur.slot(ca)), b"a1");
        // B: b1 [20,200) spans -> both; b2 [200,inf) current only.
        let hb = hist.find_slot(b"B").unwrap();
        assert_eq!(chain_offsets(&hist, hb).len(), 1);
        assert_eq!(hist.rec_data(hist.slot(hb)), b"b1");
        let cb = cur.find_slot(b"B").unwrap();
        let cb_chain = chain_offsets(&cur, cb);
        assert_eq!(cb_chain.len(), 2);
        assert_eq!(cur.rec_data(cb_chain[0]), b"b2");
        assert_eq!(cur.rec_data(cb_chain[1]), b"b1");
        // C: c1 [20,60) history only; c2 [60,200) spans -> both; stub at 200
        // stays current only.
        let hc = hist.find_slot(b"C").unwrap();
        let hc_chain = chain_offsets(&hist, hc);
        assert_eq!(hc_chain.len(), 2);
        assert_eq!(hist.rec_data(hc_chain[0]), b"c2");
        assert_eq!(hist.rec_data(hc_chain[1]), b"c1");
        let cc = cur.find_slot(b"C").unwrap();
        let cc_chain = chain_offsets(&cur, cc);
        assert_eq!(cc_chain.len(), 2);
        assert!(cur.rec_is_stub(cc_chain[0]));
        assert_eq!(cur.rec_data(cc_chain[1]), b"c2");
        // Current page time range updated, history linked.
        assert_eq!(cur.start_ts(), split);
        assert_eq!(cur.history_page(), PageId(99));
        assert_eq!(cur.end_ts(), Timestamp::MAX);
    }

    #[test]
    fn time_split_drops_old_stub_from_current() {
        let mut p = vleaf();
        let o1 = add_version(&mut p, b"k", b"v", false, Tid(1)).unwrap();
        p.stamp_rec(o1, ts(20, 0));
        let o2 = add_version(&mut p, b"k", b"", true, Tid(2)).unwrap();
        p.stamp_rec(o2, ts(40, 0));
        let (hist, cur, _) = time_split(&p, ts(100, 0), PageId(9)).unwrap();
        // Whole chain ended before the split: key vanishes from current.
        assert!(cur.find_slot(b"k").is_err());
        let h = hist.find_slot(b"k").unwrap();
        let chain = chain_offsets(&hist, h);
        assert_eq!(chain.len(), 2);
        assert!(hist.rec_is_stub(chain[0]));
    }

    #[test]
    fn time_split_keeps_uncommitted_in_current() {
        let mut p = vleaf();
        let o1 = add_version(&mut p, b"k", b"v1", false, Tid(1)).unwrap();
        p.stamp_rec(o1, ts(20, 0));
        add_version(&mut p, b"k", b"v2", false, Tid(7)).unwrap(); // uncommitted
        let (hist, cur, _) = time_split(&p, ts(100, 0), PageId(9)).unwrap();
        let c = cur.find_slot(b"k").unwrap();
        let chain = chain_offsets(&cur, c);
        assert_eq!(chain.len(), 2);
        assert!(cur.rec_is_tid_marked(chain[0]));
        assert_eq!(cur.rec_tid(chain[0]), Tid(7));
        // Committed predecessor spans (its end is still open) -> in both.
        assert_eq!(cur.rec_data(chain[1]), b"v1");
        let h = hist.find_slot(b"k").unwrap();
        assert_eq!(hist.rec_data(hist.slot(h)), b"v1");
    }

    #[test]
    fn key_split_partitions_keys_and_preserves_chains() {
        let mut p = vleaf();
        for k in 0u8..10 {
            let o = add_version(&mut p, &[k], &[k, k], false, Tid(1)).unwrap();
            p.stamp_rec(o, ts(20, 0));
            let o2 = add_version(&mut p, &[k], &[k, k, k], false, Tid(2)).unwrap();
            p.stamp_rec(o2, ts(40, 0));
        }
        let (left, right, sep) = key_split(&p, PageId(33)).unwrap();
        assert_eq!(left.slot_count() + right.slot_count(), 10);
        assert!(left.slot_count() >= 1 && right.slot_count() >= 1);
        assert_eq!(sep, right.rec_key(right.slot(0)).to_vec());
        assert!(left.rec_key(left.slot(left.slot_count() - 1)) < sep.as_slice());
        assert_eq!(left.next_leaf(), PageId(33));
        // Chains intact on both sides.
        let chain = chain_offsets(&right, 0);
        assert_eq!(chain.len(), 2);
        assert_eq!(right.rec_timestamp(chain[0]), ts(40, 0));
        assert_eq!(right.rec_timestamp(chain[1]), ts(20, 0));
    }

    #[test]
    fn prune_chain_drops_versions_below_watermark() {
        let mut p = vleaf();
        let o1 = add_version(&mut p, b"k", b"v1", false, Tid(1)).unwrap();
        p.stamp_rec(o1, ts(20, 0));
        let o2 = add_version(&mut p, b"k", b"v2", false, Tid(2)).unwrap();
        p.stamp_rec(o2, ts(40, 0));
        let o3 = add_version(&mut p, b"k", b"v3", false, Tid(3)).unwrap();
        p.stamp_rec(o3, ts(60, 0));
        // Oldest snapshot at 45: v2 is what it reads; v1 is unreachable.
        let pruned = prune_chain(&mut p, 0, ts(45, 0));
        assert_eq!(pruned, 1);
        let chain = chain_offsets(&p, 0);
        assert_eq!(chain.len(), 2);
        assert_eq!(p.rec_data(chain[1]), b"v2");
        assert!(p.frag_space() > 0);
        // Watermark before everything: nothing visible -> nothing pruned.
        let mut q = vleaf();
        let a = add_version(&mut q, b"k", b"x", false, Tid(1)).unwrap();
        q.stamp_rec(a, ts(20, 0));
        assert_eq!(prune_chain(&mut q, 0, ts(10, 0)), 0);
    }

    #[test]
    fn delta_encode_apply_roundtrip() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"hello world", b"hello brave world"),
            (b"same", b"same"),
            (b"", b"fresh"),
            (b"gone", b""),
            (b"abcdef", b"xyz"),
            (b"aaaa", b"aaaaaaaa"),
            (b"aaaaaaaa", b"aaaa"),
        ];
        for (base, new) in cases {
            let enc = encode_delta(base, new);
            let dec = apply_delta(base, &enc).unwrap();
            assert_eq!(&dec, new, "base={base:?} new={new:?}");
        }
        assert!(apply_delta(b"short", &[0, 9, 0, 9]).is_err());
        assert!(apply_delta(b"x", &[0]).is_err());
    }

    /// Pack `datas` (newest first, each stamped `ttime(i)`) as one chain
    /// of `key` onto `dst`.
    fn pack(
        dst: &mut Page,
        key: &[u8],
        datas: &[Vec<u8>],
        ttime: impl Fn(usize) -> u64,
    ) -> PackCounts {
        let mut packer = ChainPacker::default();
        for (i, data) in datas.iter().enumerate() {
            packer.push(dst, key, data, 0, ttime(i), 0).unwrap();
        }
        packer.finish(dst).unwrap();
        packer.counts
    }

    /// Every version's bytes of the chain at slot `i`, newest first, and
    /// the delta folds the walk took.
    fn unpack(page: &Page, i: usize) -> (Vec<Vec<u8>>, u64) {
        let mut w = ChainWalker::new(page, i);
        let mut out = Vec::new();
        while w.step().unwrap().is_some() {
            out.push(w.data().to_vec());
        }
        (out, w.folds)
    }

    fn big(val: u8, tag: u8) -> Vec<u8> {
        // 120 mostly-stable bytes with a small mutating tail — the shape
        // delta encoding exists for.
        let mut v = vec![val; 120];
        v[118] = tag;
        v[119] = tag.wrapping_mul(7);
        v
    }

    #[test]
    fn pack_chain_writes_deltas_and_anchors_every_k() {
        let depth = 2 * DELTA_ANCHOR_EVERY + 3;
        let vers: Vec<Vec<u8>> = (0..depth).map(|i| big(9, i as u8)).collect();
        let mut hist = Page::zeroed();
        hist.format(
            PageId(3),
            PageType::Leaf,
            FLAG_VERSIONED | FLAG_HISTORICAL,
            0,
        );
        let counts = pack(&mut hist, b"key", &vers, |i| 1000 - i as u64);
        // Head + one anchor per K boundary; everything else deltas.
        let expect_anchors = 1 + (depth - 1) / DELTA_ANCHOR_EVERY;
        assert_eq!(counts.anchors as usize, expect_anchors);
        assert_eq!(counts.deltas as usize, depth - expect_anchors);

        // The walker reproduces every version, newest first.
        let i = hist.find_slot(b"key").unwrap();
        let mut w = ChainWalker::new(&hist, i);
        let mut seen = 0usize;
        while let Some(rec) = w.step().unwrap() {
            let off = rec.off;
            assert_eq!(w.data(), &big(9, seen as u8)[..], "version {seen}");
            assert_eq!(hist.rec_ttime(off), 1000 - seen as u64);
            if hist.rec_is_delta(off) {
                assert!(hist.rec_key(off).is_empty());
            }
            seen += 1;
        }
        assert_eq!(seen, depth);
        assert_eq!(w.folds as usize, depth - expect_anchors);
    }

    #[test]
    fn pack_falls_back_to_full_when_delta_not_smaller() {
        // Tiny values: the 4-byte delta header loses.
        let vers: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8; 2]).collect();
        let mut hist = Page::zeroed();
        hist.format(
            PageId(3),
            PageType::Leaf,
            FLAG_VERSIONED | FLAG_HISTORICAL,
            0,
        );
        let counts = pack(&mut hist, b"k", &vers, |i| 100 - i as u64);
        assert_eq!(counts.deltas, 0);
        assert_eq!(counts.anchors, 3);
    }

    #[test]
    fn time_split_packs_history_side() {
        let mut p = vleaf();
        let depth = 12;
        for i in 0..depth {
            let o =
                add_version(&mut p, b"obj", &big(5, i as u8), false, Tid(i as u64 + 1)).unwrap();
            p.stamp_rec(o, ts(10 * (i as u64 + 1), 0));
        }
        let split = ts(10 * depth as u64 + 5, 0);
        let (hist, cur, counts) = time_split(&p, split, PageId(40)).unwrap();
        assert!(counts.deltas > 0, "large stable payloads must delta-pack");
        // History holds the full chain (newest spans the split -> Both);
        // the walker reproduces every payload.
        let hi = hist.find_slot(b"obj").unwrap();
        let (vers, folds) = unpack(&hist, hi);
        assert_eq!(vers.len(), depth);
        assert!(folds > 0);
        for (idx, v) in vers.iter().enumerate() {
            assert_eq!(v, &big(5, (depth - 1 - idx) as u8));
        }
        // Packed history is denser than the same versions were on the
        // source page, where every record is a full image.
        assert!(hist.free_lower() < p.free_lower());
        // Current side keeps only the spanning newest version, full-image.
        let ci = cur.find_slot(b"obj").unwrap();
        assert_eq!(chain_offsets(&cur, ci).len(), 1);
        assert!(!cur.rec_is_delta(cur.slot(ci)));
    }

    #[test]
    fn page_compact_preserves_packed_chains() {
        let depth = 10;
        let vers: Vec<Vec<u8>> = (0..depth).map(|i| big(1, i as u8)).collect();
        let mut hist = Page::zeroed();
        hist.format(
            PageId(3),
            PageType::Leaf,
            FLAG_VERSIONED | FLAG_HISTORICAL,
            0,
        );
        pack(&mut hist, b"a", &vers, |i| 500 - i as u64);
        // A dead sibling chain gives compact() something to reclaim.
        let o = add_version(&mut hist, b"zz", b"junk", false, Tid(1)).unwrap();
        hist.stamp_rec(o, ts(1, 0));
        let zi = hist.find_slot(b"zz").unwrap();
        hist.remove_record_at(zi);
        hist.compact().unwrap();

        let i = hist.find_slot(b"a").unwrap();
        let (out, _) = unpack(&hist, i);
        assert_eq!(out, vers);
    }

    #[test]
    fn key_split_unversioned() {
        let mut p = Page::zeroed();
        p.format(PageId(7), PageType::Leaf, 0, 0);
        for k in 0u8..8 {
            p.insert_sorted(&[k], b"data", 0).unwrap();
        }
        let (left, right, sep) = key_split(&p, PageId(8)).unwrap();
        assert_eq!(left.slot_count(), 4);
        assert_eq!(right.slot_count(), 4);
        assert_eq!(sep, vec![4u8]);
    }
}
