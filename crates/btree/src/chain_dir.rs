//! The chain directory: where each current leaf's history pages lie in
//! time, kept in memory so an `AS OF` read fetches the page that answers
//! and no page above it (the seek of [`crate::read`]).
//!
//! A history page never changes after the time split that writes it,
//! except when [`crate::BTree::compact_history`] merges it. So the chain
//! below a current leaf is a fixed list of `(start_ts, page id)` pairs
//! that only grows at its head, one page per time split. One
//! [`ChainEntry`] per current leaf holds that list, newest first, with
//! the leaf header it was built from:
//!
//! * **split** — a time split knows the page it writes and where it
//!   starts, so it puts that pair at the head of the leaf's entry (a leaf
//!   without one gets an entry of that page alone, which lists the whole
//!   chain if it was the leaf's first split); a key split gives the new
//!   right leaf a copy, since it shares the chain. A tree built in this
//!   process therefore never walks;
//! * **build** — otherwise the header walk the read path always had
//!   builds the entry, down to the page that answers the read and no
//!   further; a later read that reaches further back resumes the walk
//!   where the entry ends, so a chain is walked at most once per leaf;
//! * **check on use** — an entry whose `(head, above)` is not the leaf's
//!   header is walked afresh, and the page an entry names must carry the
//!   `start_ts` it was listed with and reach past the time read, or the
//!   entry is dropped and the read walks. This guards a replica reader
//!   that races a batch rewriting the chain;
//! * **invalidate** — a compaction pass that rewrites pages, and every
//!   root reload (open, each replica batch), clear the directory. A walk
//!   that began before a clear does not store what it found
//!   ([`ChainDirectory::insert`]).
//!
//! An entry holds page ids only and pins no frame: 16 bytes per history
//! page of the leaf's chain, one entry per current leaf.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use immortaldb_common::{PageId, Timestamp};

/// One current leaf's history chain, as of the leaf header it was built
/// from.
#[derive(Clone)]
pub(crate) struct ChainEntry {
    /// The leaf's history pointer when the entry was built.
    pub head: PageId,
    /// The leaf's `start_ts` when the entry was built.
    pub above: Timestamp,
    /// `(start_ts, id)` of the chain's pages from `head` down, newest
    /// first (so `start_ts` strictly decreases).
    pub pages: Arc<[(Timestamp, PageId)]>,
    /// Where the chain goes on below the last listed page: invalid once
    /// the list reaches the chain's end.
    pub rest: PageId,
}

impl ChainEntry {
    fn seek(&self, t: Timestamp) -> Seek {
        match self
            .pages
            .get(self.pages.partition_point(|&(start, _)| start > t))
        {
            Some(&(start, id)) => Seek::Page(start, id),
            None if self.rest.is_valid() => Seek::Walk,
            None => Seek::BeforeHistory,
        }
    }
}

/// What the directory says about the history page for a time.
pub(crate) enum Seek {
    /// This page, listed with this `start_ts`, is the newest one that
    /// starts at or before the time.
    Page(Timestamp, PageId),
    /// Every page of the chain starts after the time.
    BeforeHistory,
    /// The leaf has no entry, or the page lies below the listed ones.
    Walk,
}

/// Per-tree map from current-leaf page id to its [`ChainEntry`].
#[derive(Default)]
pub(crate) struct ChainDirectory {
    /// The entries, and the number of clears so far: a walk stores its
    /// entry only if no clear came between its start and its end.
    inner: RwLock<(HashMap<PageId, ChainEntry>, u64)>,
}

impl ChainDirectory {
    /// Where the history page for time `t` lies below leaf `leaf`, whose
    /// header reads `(head, above)`.
    pub fn seek(&self, leaf: PageId, head: PageId, above: Timestamp, t: Timestamp) -> Seek {
        match self.inner.read().0.get(&leaf) {
            Some(e) if e.head == head && e.above == above => e.seek(t),
            _ => Seek::Walk,
        }
    }

    /// Record a split of `leaf` (the caller holds the structure write
    /// latch): a time split onto page `hist`, which covers
    /// `[start, above)` and goes on to `below`, and a key split's new
    /// right leaf, which shares the chain.
    pub fn split(
        &self,
        leaf: PageId,
        time_split: Option<(PageId, Timestamp, PageId, Timestamp)>,
        right: Option<PageId>,
    ) {
        let mut g = self.inner.write();
        if let Some((hist, start, below, above)) = time_split {
            let mut pages = vec![(start, hist)];
            let rest = match g.0.get(&leaf) {
                Some(e) if e.head == below && e.above == start => {
                    pages.extend_from_slice(&e.pages);
                    e.rest
                }
                _ => below,
            };
            let entry = ChainEntry {
                head: hist,
                above,
                pages: pages.into(),
                rest,
            };
            g.0.insert(leaf, entry);
        }
        if let Some(right) = right {
            if let Some(e) = g.0.get(&leaf).cloned() {
                g.0.insert(right, e);
            }
        }
    }

    /// The walk that resumes `leaf`'s entry for header `(head, above)`:
    /// the pages listed so far, the page to go on from, and the clear
    /// count to hand back to [`Self::insert`]. Without a matching entry
    /// the walk starts at `head`.
    pub fn resume(
        &self,
        leaf: PageId,
        head: PageId,
        above: Timestamp,
    ) -> (Vec<(Timestamp, PageId)>, PageId, u64) {
        let g = self.inner.read();
        match g.0.get(&leaf) {
            Some(e) if e.head == head && e.above == above => (e.pages.to_vec(), e.rest, g.1),
            _ => (Vec::new(), head, g.1),
        }
    }

    /// Store `entry` for `leaf`, unless the directory was cleared since
    /// [`Self::resume`] returned `epoch`: the walk may have read a chain
    /// the clear was for.
    pub fn insert(&self, leaf: PageId, entry: ChainEntry, epoch: u64) {
        let mut g = self.inner.write();
        if g.1 == epoch {
            g.0.insert(leaf, entry);
        }
    }

    /// Forget `leaf`'s entry (it named a page that no longer fits it).
    pub fn remove(&self, leaf: PageId) {
        self.inner.write().0.remove(&leaf);
    }

    /// Forget every entry.
    pub fn clear(&self) {
        let mut g = self.inner.write();
        g.0.clear();
        g.1 += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t, 0)
    }

    fn entry(head: u32, above: u64, pages: &[(u64, u32)], rest: u32) -> ChainEntry {
        ChainEntry {
            head: PageId(head),
            above: ts(above),
            pages: pages.iter().map(|&(s, id)| (ts(s), PageId(id))).collect(),
            rest: PageId(rest),
        }
    }

    fn at(dir: &ChainDirectory, head: u32, above: u64, t: u64) -> Option<Option<(u64, u32)>> {
        match dir.seek(PageId(1), PageId(head), ts(above), ts(t)) {
            Seek::Page(start, id) => Some(Some((start.ttime, id.0))),
            Seek::BeforeHistory => Some(None),
            Seek::Walk => None,
        }
    }

    #[test]
    fn seek_finds_the_newest_page_starting_at_or_before_the_time() {
        let dir = ChainDirectory::default();
        assert_eq!(at(&dir, 9, 300, 5), None, "no entry: walk");
        let (_, _, epoch) = dir.resume(PageId(1), PageId(9), ts(300));
        let e = entry(9, 300, &[(200, 9), (100, 8), (10, 7)], 0);
        dir.insert(PageId(1), e, epoch);
        assert_eq!(at(&dir, 9, 300, 299), Some(Some((200, 9))));
        assert_eq!(at(&dir, 9, 300, 200), Some(Some((200, 9))));
        assert_eq!(at(&dir, 9, 300, 199), Some(Some((100, 8))));
        assert_eq!(at(&dir, 9, 300, 10), Some(Some((10, 7))));
        assert_eq!(at(&dir, 9, 300, 9), Some(None), "the chain ends at 7");
    }

    #[test]
    fn a_partial_entry_resumes_below_its_last_page() {
        let dir = ChainDirectory::default();
        let (_, _, epoch) = dir.resume(PageId(1), PageId(9), ts(300));
        dir.insert(PageId(1), entry(9, 300, &[(200, 9)], 8), epoch);
        assert_eq!(at(&dir, 9, 300, 250), Some(Some((200, 9))));
        assert_eq!(at(&dir, 9, 300, 150), None, "below page 9: walk on");
        let (pages, next, _) = dir.resume(PageId(1), PageId(9), ts(300));
        assert_eq!((pages.len(), next), (1, PageId(8)));
        // A header the entry was not built for starts from its head.
        let (pages, next, _) = dir.resume(PageId(1), PageId(5), ts(10));
        assert_eq!((pages.len(), next), (0, PageId(5)));
    }

    #[test]
    fn a_split_heads_the_entry_with_its_page() {
        let dir = ChainDirectory::default();
        // The first time split lists the whole chain.
        dir.split(
            PageId(1),
            Some((PageId(8), ts(100), PageId(0), ts(200))),
            None,
        );
        assert_eq!(at(&dir, 8, 200, 150), Some(Some((100, 8))));
        assert_eq!(at(&dir, 8, 200, 50), Some(None));
        // The next extends it, and a key split copies it rightwards.
        let split = (PageId(9), ts(200), PageId(8), ts(300));
        dir.split(PageId(1), Some(split), Some(PageId(2)));
        assert_eq!(at(&dir, 9, 300, 250), Some(Some((200, 9))));
        assert_eq!(at(&dir, 9, 300, 150), Some(Some((100, 8))));
        let right = dir.seek(PageId(2), PageId(9), ts(300), ts(150));
        assert!(matches!(right, Seek::Page(_, PageId(8))));
        // A split of a leaf with no entry lists its page and walks on.
        dir.split(
            PageId(3),
            Some((PageId(7), ts(50), PageId(6), ts(90))),
            None,
        );
        let (pages, next, _) = dir.resume(PageId(3), PageId(7), ts(90));
        assert_eq!((pages.len(), next), (1, PageId(6)));
        // A header the entry does not match walks from its head.
        assert_eq!(at(&dir, 8, 200, 150), None);
    }

    #[test]
    fn a_walk_that_straddles_a_clear_stores_nothing() {
        let dir = ChainDirectory::default();
        let (_, _, epoch) = dir.resume(PageId(1), PageId(9), ts(300));
        dir.clear();
        dir.insert(PageId(1), entry(9, 300, &[(200, 9)], 0), epoch);
        assert_eq!(at(&dir, 9, 300, 250), None);
        let (_, _, epoch) = dir.resume(PageId(1), PageId(9), ts(300));
        dir.insert(PageId(1), entry(9, 300, &[(200, 9)], 0), epoch);
        assert_eq!(at(&dir, 9, 300, 250), Some(Some((200, 9))));
        dir.remove(PageId(1));
        assert_eq!(at(&dir, 9, 300, 250), None);
    }
}
