//! Split orchestration: time splits, key splits, parent posting, root
//! growth — all logged as one atomic multi-page image record.
//!
//! The protocol (§3.3 of the paper):
//!
//! 1. Timestamp every committed version in the full page (they must be
//!    stamped to know which side of the split time they belong on).
//! 2. If the page is versioned and a time split would actually shed
//!    history, time-split at the current time: historical versions move to
//!    a fresh history page that is chained from the current page.
//! 3. If utilization still exceeds the threshold *T* (or the incoming
//!    record still does not fit), key-split the current page as a normal
//!    B+tree would, posting the separator to the parent (recursively,
//!    growing a new root when needed).
//!
//! Every page image produced (history page, rebuilt current page, new
//! right sibling, modified ancestors, meta page on root change) goes into
//! a single [`LogRecord::PageImages`] record, making the whole structure
//! modification atomic for recovery (a redo-only nested top action).

use immortaldb_common::{Error, PageId, Result, Tid, Timestamp, NULL_LSN};
use immortaldb_storage::logrec::LogRecord;
use immortaldb_storage::meta::MetaView;
use immortaldb_storage::page::{Page, PageType, REC_HDR};
use immortaldb_storage::version;
use immortaldb_storage::TimestampResolver;

use crate::tree::BTree;

impl BTree {
    /// Split whatever stands in the way of fitting `need` more bytes on
    /// the leaf responsible for `key`. Called without any latches held;
    /// takes the structure write latch.
    pub(crate) fn split_for(
        &self,
        key: &[u8],
        need: usize,
        resolver: &dyn TimestampResolver,
    ) -> Result<()> {
        let _s = self.structure.write();
        // Sample the split-time bound BEFORE the stamping pass below: a
        // transaction still in flight while we stamp leaves TID-marked
        // versions in the page, and sampling afterwards could observe it
        // retired and lift the bound above its commit timestamp — the
        // time split would then set the fresh page's start past versions
        // that stay current (case 4), stranding them from every AS OF
        // read at their commit time. Sampling first pins the bound at or
        // below any commit the stamping pass can leave unstamped.
        let desired_split_ts = self.split_time.current_split_ts();
        let max_safe_ts = self.split_time.max_safe_split_ts();
        let path = self.descend_path(key)?;
        let leaf_id = *path.last().expect("descent path never empty");
        let leaf_frame = self.pool.fetch(leaf_id)?;

        // Work on a private copy; the frame is only mutated at install time.
        let mut left: Page = {
            let mut g = leaf_frame.write();
            if need <= g.total_free() {
                return Ok(()); // a concurrent split already made room
            }
            if g.is_versioned() {
                for (t, n) in version::stamp_committed(&mut g, resolver) {
                    self.pool.metrics().ts.stamps_time_split.add(n as u64);
                    resolver.note_stamped(t, n);
                }
            }
            g.clone()
        };

        let mut images: Vec<Page> = Vec::new();

        // -- step 2: time split ------------------------------------------
        if left.is_versioned() {
            let mut split_ts = desired_split_ts;
            if split_ts <= left.start_ts() {
                split_ts = bump(left.start_ts());
            }
            // Splitting past the safe bound would strand an in-flight
            // commit's versions above the new page start; skip the time
            // split this round (the key split below still makes room) and
            // retry once the pipeline drains.
            let safe = split_ts <= max_safe_ts;
            if safe && version::time_split_gain(&left, split_ts) > 0 {
                let hist_id = self.pool.disk().allocate()?;
                let (hist, fresh, packed) = version::time_split(&left, split_ts, hist_id)?;
                images.push(hist);
                left = fresh;
                // Per-tree counter (tests depend on per-tree semantics)
                // plus the engine-wide registry.
                self.time_splits
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let m = self.pool.metrics();
                m.tree.time_splits.inc();
                m.version.anchors_written.add(packed.anchors);
                m.version.deltas_written.add(packed.deltas);
            }
        }

        // -- step 3: key split --------------------------------------------
        let needs_key_split = if left.is_versioned() {
            left.utilization() > self.split_threshold || need > left.total_free()
        } else {
            need > left.total_free()
        };
        let mut pending: Option<(Vec<u8>, PageId)> = None;
        if needs_key_split {
            if left.slot_count() < 2 {
                return Err(Error::RecordTooLarge(need));
            }
            let right_id = self.pool.disk().allocate()?;
            let (l, r, sep) = version::key_split(&left, right_id)?;
            left = l;
            pending = Some((sep, right_id));
            images.push(r);
            self.key_splits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.pool.metrics().tree.key_splits.inc();
        }
        images.push(left);

        // -- parent posting -----------------------------------------------
        let mut new_root: Option<PageId> = None;
        if pending.is_some() {
            // Walk ancestors bottom-up. `path` is root..leaf.
            let mut level = path.len().checked_sub(2);
            let mut child_left_id = leaf_id;
            while let Some((sep, right_id)) = pending.take() {
                match level {
                    None => {
                        // Split reached the (old) root: grow the tree.
                        let new_root_id = self.pool.disk().allocate()?;
                        let child_level = self.page_level(&images, child_left_id)?;
                        let mut root = Page::zeroed();
                        root.format(new_root_id, PageType::Index, 0, child_level + 1);
                        root.insert_sorted(b"", &child_left_id.0.to_le_bytes(), 0)?;
                        root.insert_sorted(&sep, &right_id.0.to_le_bytes(), 0)?;
                        images.push(root);
                        new_root = Some(new_root_id);
                    }
                    Some(idx) => {
                        let parent_id = path[idx];
                        let parent_frame = self.pool.fetch(parent_id)?;
                        let mut parent = parent_frame.read().clone();
                        let entry_need = REC_HDR + sep.len() + 4 + 2;
                        if entry_need > parent.contiguous_free()
                            && entry_need <= parent.total_free()
                        {
                            parent.compact()?;
                        }
                        match parent.insert_sorted(&sep, &right_id.0.to_le_bytes(), 0) {
                            Ok(_) => {
                                images.push(parent);
                            }
                            Err(Error::PageFull) => {
                                let pright_id = self.pool.disk().allocate()?;
                                let (mut pl, mut pr, psep) = index_key_split(&parent, pright_id)?;
                                let target = if sep.as_slice() < psep.as_slice() {
                                    &mut pl
                                } else {
                                    &mut pr
                                };
                                target.insert_sorted(&sep, &right_id.0.to_le_bytes(), 0)?;
                                images.push(pr);
                                images.push(pl);
                                pending = Some((psep, pright_id));
                                child_left_id = parent_id;
                                level = idx.checked_sub(1);
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
            }
        }

        // Meta image on root change. The meta write latch is held from
        // clone to install: root changes of *different* trees race on the
        // meta page and the per-tree structure latch does not cover that.
        let meta_frame = self.pool.fetch(PageId(0))?;
        let mut meta_guard = None;
        if let Some(root_id) = new_root {
            let g = meta_frame.write();
            let mut meta = g.clone();
            MetaView::set_tree_root(&mut meta, self.tree_id, root_id)?;
            images.push(meta);
            meta_guard = Some(g);
        }

        // -- log once, install everywhere ----------------------------------
        let rec = LogRecord::PageImages {
            pages: images
                .iter()
                .map(|p| (p.page_id(), p.as_bytes().to_vec()))
                .collect(),
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
                // Not `fetch`: for the pages this split allocated that
                // would read the zero page back from disk.
                self.pool.install(image, lsn);
            }
        }
        if let Some(root_id) = new_root {
            self.set_root(root_id);
        }
        Ok(())
    }

    /// Level of a page that may live in `images` (not yet installed) or in
    /// the pool.
    fn page_level(&self, images: &[Page], id: PageId) -> Result<u16> {
        if let Some(p) = images.iter().find(|p| p.page_id() == id) {
            return Ok(p.level());
        }
        let frame = self.pool.fetch(id)?;
        let g = frame.read();
        Ok(g.level())
    }
}

/// Strictly greater timestamp (for degenerate split-time collisions).
fn bump(ts: Timestamp) -> Timestamp {
    if ts.sn + 1 < immortaldb_common::time::SN_TID_MARK {
        Timestamp::new(ts.ttime, ts.sn + 1)
    } else {
        Timestamp::new(ts.ttime + immortaldb_common::TICK_MS, 0)
    }
}

/// Key-split an index page at its entry midpoint. Returns `(new left —
/// same id, right page, separator)`. The right page keeps its first
/// entry's real key; the separator promoted to the grandparent equals it.
fn index_key_split(cur: &Page, right_id: PageId) -> Result<(Page, Page, Vec<u8>)> {
    let n = cur.slot_count();
    if n < 2 {
        return Err(Error::Internal(
            "index split of page with < 2 entries".into(),
        ));
    }
    let split_at = n / 2;
    let mut left = Page::zeroed();
    left.format(cur.page_id(), PageType::Index, 0, cur.level());
    let mut right = Page::zeroed();
    right.format(right_id, PageType::Index, 0, cur.level());
    for i in 0..n {
        let off = cur.slot(i);
        let dst = if i < split_at { &mut left } else { &mut right };
        dst.insert_sorted(cur.rec_key(off), cur.rec_data(off), cur.rec_flags(off))?;
    }
    let sep = right.rec_key(right.slot(0)).to_vec();
    Ok((left, right, sep))
}
