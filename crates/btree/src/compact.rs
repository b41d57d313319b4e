//! The version store after the time split: the one walk over it, and
//! the chain index's merge pass.
//!
//! A time split writes its history page once, delta-packed
//! ([`version::time_split`]). [`walk_history`] reaches every such page
//! from the current leaves down history pointers, once each; it measures
//! the store ([`HistoryStats`]) and hands the compactor its chains and
//! referrer counts.
//!
//! A packed page often fills only part of a page — the deeper and the
//! more alike a key's versions, the less — so the consecutive pages of
//! one leaf's chain can share a page; the compactor merges them and frees
//! the rest.
//!
//! History pages are immutable to the rest of the engine, so the
//! compactor is their single writer, and the one pass that must clear
//! the chain directory ([`crate::chain_dir`]). A pass runs under the tree's
//! structure **write** latch — the same exclusion splits use — so no
//! reader can be mid-hop on a page the pass merges away, and every
//! key→page routing it observes is stable. Two further rules keep
//! merging safe:
//!
//! * an older chain page `Q` is merged into its newer neighbour `P` only
//!   when `Q` has exactly ONE referrer (key splits make sibling leaves
//!   share history chains; a shared page must keep its identity);
//! * the surviving page keeps its page id, so nothing that points at it
//!   (leaf history pointers, other chain pages) needs rewriting beyond
//!   the one predecessor.
//!
//! Every page the pass changes — rewritten chain pages and the
//! [`PageType::Free`] images of merged-away pages — goes into a single
//! `PageImages` record per leaf chain ([`BTree::install`]), so
//! recovery and replicas replay the compaction byte-for-byte, and a torn
//! multi-page write is repaired from the log like any other structure
//! modification.

use std::collections::HashMap;

use immortaldb_common::{PageId, Result, PAGE_SIZE, VERSION_TAIL};
use immortaldb_storage::page::{Page, PageType, HEADER_SIZE, REC_HDR};
use immortaldb_storage::version::{self, ChainPacker, ChainWalker, PackCounts};

use crate::tree::BTree;

/// What one compaction pass over a tree did.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactionStats {
    /// Historical pages rewritten (merge survivors, or pages written
    /// before time splits packed).
    pub pages_rewritten: u64,
    /// Historical pages emptied by merging and freed.
    pub pages_freed: u64,
    /// Bytes of page occupancy reclaimed.
    pub bytes_reclaimed: u64,
    /// Full / delta records written while repacking.
    pub counts: PackCounts,
}

impl CompactionStats {
    pub fn add(&mut self, other: CompactionStats) {
        self.pages_rewritten += other.pages_rewritten;
        self.pages_freed += other.pages_freed;
        self.bytes_reclaimed += other.bytes_reclaimed;
        self.counts.add(other.counts);
    }
}

/// Shape of a tree's version store (for `version.bytes_per_version`).
#[derive(Debug, Clone, Copy, Default)]
pub struct HistoryStats {
    /// Distinct historical pages reachable from current leaves.
    pub history_pages: u64,
    /// Versions stored on those pages.
    pub versions: u64,
    /// Bytes occupied on those pages (records + slots, not headers).
    pub used_bytes: u64,
    /// Bytes the same versions would occupy as full records, written the
    /// way a current page holds them: header, key, whole payload and
    /// tail on every record, plus one slot per chain. The baseline delta
    /// packing is measured against.
    pub full_record_bytes: u64,
}

impl HistoryStats {
    pub fn add(&mut self, other: HistoryStats) {
        self.history_pages += other.history_pages;
        self.versions += other.versions;
        self.used_bytes += other.used_bytes;
        self.full_record_bytes += other.full_record_bytes;
    }

    /// Count one historical page.
    pub fn add_page(&mut self, p: &Page) -> Result<()> {
        self.history_pages += 1;
        self.used_bytes += page_used_bytes(p) as u64;
        for i in 0..p.slot_count() {
            let key_len = p.rec_key(p.slot(i)).len();
            self.full_record_bytes += 2;
            let mut w = ChainWalker::new(p, i);
            while w.step()?.is_some() {
                self.versions += 1;
                self.full_record_bytes +=
                    (REC_HDR + key_len + w.data().len() + VERSION_TAIL) as u64;
            }
        }
        Ok(())
    }

    /// Mean occupied bytes per stored version (0 when empty).
    pub fn bytes_per_version(&self) -> f64 {
        if self.versions == 0 {
            0.0
        } else {
            self.used_bytes as f64 / self.versions as f64
        }
    }
}

/// The history reachable from a tree's current leaves.
#[derive(Debug, Default)]
pub(crate) struct HistoryWalk {
    /// One chain per current leaf that has history, newest page first,
    /// cut where it joins a chain an earlier leaf already reached (key
    /// splits make sibling leaves share the pages carved off before).
    pub chains: Vec<Vec<PageId>>,
    /// Per historical page, how many pages point at it: current leaves
    /// and newer history pages.
    pub referrers: HashMap<PageId, u32>,
}

/// Walk every historical page reachable from `tree`'s current leaves down
/// history pointers, handing each to `visit` once, the first time it is
/// reached. The caller holds the structure latch.
pub(crate) fn walk_history(
    tree: &BTree,
    visit: &mut dyn FnMut(&Page) -> Result<()>,
) -> Result<HistoryWalk> {
    let pool = &tree.pool;
    let mut walk = HistoryWalk::default();
    tree.current_leaves(&mut |leaf| {
        let mut chain = Vec::new();
        let mut h = pool.fetch(leaf)?.read().history_page();
        while h.is_valid() {
            let seen = walk.referrers.entry(h).or_default();
            *seen += 1;
            if *seen > 1 {
                break;
            }
            chain.push(h);
            let frame = pool.fetch(h)?;
            let g = frame.read();
            visit(&g)?;
            h = g.history_page();
        }
        if !chain.is_empty() {
            walk.chains.push(chain);
        }
        Ok(())
    })?;
    Ok(walk)
}

/// Occupied bytes of a page: records plus slot array, headers excluded.
fn page_used_bytes(p: &Page) -> usize {
    PAGE_SIZE - HEADER_SIZE - p.total_free()
}

/// Does the page hold any TID-marked (not-yet-stamped) record? History
/// pages never should — time splits move only stamped committed
/// versions — but an unexpected one makes the page ineligible rather
/// than corrupting a timestamp.
fn page_has_tid_marked(p: &Page) -> bool {
    for i in 0..p.slot_count() {
        for off in version::chain_offsets(p, i) {
            if p.rec_is_tid_marked(off) {
                return true;
            }
        }
    }
    false
}

/// Rebuild one historical page from the chains of `srcs` (newest page
/// first), delta-packed, onto a fresh image that keeps `id`. Chains of
/// the same key concatenate across pages; the boundary version a time
/// split copied into both pages is deduplicated by timestamp. Fails with
/// `PageFull` when the combined content does not fit.
fn pack_history_pages(srcs: &[&Page], id: PageId) -> Result<(Page, PackCounts)> {
    let newest = srcs[0];
    let oldest = srcs[srcs.len() - 1];
    let mut dst = Page::zeroed();
    dst.format(id, PageType::Leaf, newest.flags(), 0);
    dst.set_start_ts(oldest.start_ts());
    dst.set_end_ts(newest.end_ts());
    dst.set_history_page(oldest.history_page());
    dst.set_next_leaf(newest.next_leaf());
    // Every chain of every page, ordered by key, then by page (newest
    // first): the pieces of one key's chain, in its order.
    let mut pieces: Vec<(&[u8], usize, usize)> = srcs
        .iter()
        .enumerate()
        .flat_map(|(p, page)| {
            (0..page.slot_count()).map(move |i| (page.rec_key(page.slot(i)), p, i))
        })
        .collect();
    pieces.sort_unstable();
    let mut walkers: Vec<ChainWalker> = srcs.iter().map(|p| ChainWalker::idle(p)).collect();
    let mut packer = ChainPacker::default();
    let mut last_stamp = None;
    for (n, &(key, p, i)) in pieces.iter().enumerate() {
        if n > 0 && pieces[n - 1].0 != key {
            packer.finish(&mut dst)?;
            last_stamp = None;
        }
        let w = &mut walkers[p];
        w.restart(i);
        while let Some(rec) = w.step()? {
            // Chains are newest-first and timestamps strictly decrease,
            // so a spanning duplicate can only collide with the version
            // packed immediately before it.
            if last_stamp.replace((rec.ttime, rec.sn)) == Some((rec.ttime, rec.sn)) {
                continue;
            }
            packer.push(&mut dst, key, w.data(), rec.flags, rec.ttime, rec.sn)?;
        }
    }
    packer.finish(&mut dst)?;
    Ok((dst, packer.counts))
}

impl BTree {
    /// Compact this tree's history chains: merge single-referrer older
    /// pages into their newer neighbours, repacking the survivor, and
    /// free the emptied pages. Runs under the structure write latch;
    /// concurrent reads and writes wait for the pass, exactly as they do
    /// for a split.
    pub fn compact_history(&self) -> Result<CompactionStats> {
        let mut stats = CompactionStats::default();
        if !self.versioned {
            return Ok(stats);
        }
        let _c = self.compacting.lock();
        let _s = self.structure.write();
        let walk = walk_history(self, &mut |_| Ok(()))?;
        for chain in &walk.chains {
            stats.add(self.compact_chain(chain, &walk.referrers)?);
        }
        if stats.pages_rewritten > 0 {
            // Merged pages changed their time ranges and freed ids will
            // be reused: no directory entry may name them.
            self.chains.clear();
        }

        let m = self.pool.metrics();
        m.compaction.pages_rewritten.add(stats.pages_rewritten);
        m.compaction.pages_freed.add(stats.pages_freed);
        m.compaction.bytes_reclaimed.add(stats.bytes_reclaimed);
        m.version.anchors_written.add(stats.counts.anchors);
        m.version.deltas_written.add(stats.counts.deltas);
        Ok(stats)
    }

    /// Compact one leaf's history chain (newest page first). Chains of
    /// one walk are disjoint, and a page another chain reaches too has
    /// two referrers, so it is never absorbed. Caller holds the structure
    /// write latch and the compacting mutex.
    fn compact_chain(
        &self,
        chain: &[PageId],
        referrers: &HashMap<PageId, u32>,
    ) -> Result<CompactionStats> {
        let mut stats = CompactionStats::default();
        let mut images: Vec<Page> = Vec::new();
        let mut freed: Vec<PageId> = Vec::new();

        let mut idx = 0;
        while idx < chain.len() {
            let pid = chain[idx];
            let page = {
                let f = self.pool.fetch(pid)?;
                let g = f.read();
                g.clone()
            };
            if page_has_tid_marked(&page) {
                idx += 1;
                continue;
            }
            let before = page_used_bytes(&page);
            let (mut packed, mut counts) = pack_history_pages(&[&page], pid)?;
            let mut absorbed_pages: Vec<Page> = Vec::new();
            // Greedily pull in older single-referrer neighbours while the
            // combined content still fits in one page.
            let mut next = idx + 1;
            while next < chain.len() && referrers.get(&chain[next]).copied().unwrap_or(0) == 1 {
                let q = {
                    let f = self.pool.fetch(chain[next])?;
                    let g = f.read();
                    g.clone()
                };
                if page_has_tid_marked(&q) {
                    break;
                }
                absorbed_pages.push(q);
                let mut srcs: Vec<&Page> = vec![&page];
                srcs.extend(absorbed_pages.iter());
                match pack_history_pages(&srcs, pid) {
                    Ok((merged, c)) => {
                        packed = merged;
                        counts = c;
                        next += 1;
                    }
                    Err(immortaldb_common::Error::PageFull) => {
                        absorbed_pages.pop();
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            let merged_n = next - idx - 1;
            let after = page_used_bytes(&packed);
            let absorbed_before: usize = absorbed_pages.iter().map(page_used_bytes).sum();
            if merged_n == 0 && after >= before {
                idx += 1; // nothing to gain: leave the page untouched
                continue;
            }
            stats.pages_rewritten += 1;
            stats.pages_freed += merged_n as u64;
            stats.bytes_reclaimed += (before + absorbed_before).saturating_sub(after) as u64;
            stats.counts.add(counts);
            images.push(packed);
            for p in chain[idx + 1..next].iter() {
                let mut free = Page::zeroed();
                free.format(*p, PageType::Free, 0, 0);
                images.push(free);
                freed.push(*p);
            }
            idx = next;
        }

        if images.is_empty() {
            return Ok(stats);
        }
        // One atomic multi-page image record per chain (same redo-only
        // nested-top-action shape as a split).
        self.install(images, None)?;
        for id in freed {
            self.pool.disk().free_page(id);
        }
        Ok(stats)
    }
}
