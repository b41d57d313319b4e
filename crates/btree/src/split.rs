//! Posting a split above its leaf, and the leaf enumeration maintenance
//! walks.
//!
//! A time split needs nothing from the ancestors — the leaf keeps its
//! page id and reaches the new history page through its own history
//! pointer — so posting a [`LeafSplit`] is a key split's separator going
//! into the parent, as a conventional B+tree would (recursively, growing
//! a new root when needed). The leaf phase of the split is
//! [`crate::write`]'s.

use immortaldb_common::{Error, PageId, Result};
use immortaldb_storage::page::{Page, PageType};

use crate::cursor::{Flow, KeyRange};
use crate::tree::BTree;
use crate::write::LeafSplit;

impl BTree {
    /// Record `split` in the ancestors on `path` (root..leaf page ids),
    /// pushing every page image that changes onto `images`; returns the
    /// new root if the tree grew. The caller holds the structure write
    /// latch.
    pub(crate) fn post(
        &self,
        path: Vec<PageId>,
        split: LeafSplit,
        images: &mut Vec<Page>,
    ) -> Result<Option<PageId>> {
        // The chain directory learns the split's page here, where its
        // start and successor are at hand.
        let time_split = split.time_split.map(|(above, hist)| {
            let page = images.iter().find(|p| p.page_id() == hist);
            let page = page.expect("the history page is among the images");
            (hist, page.start_ts(), page.history_page(), above)
        });
        let right = split.key_split.as_ref().map(|(_, id)| *id);
        let leaf = split.leaf;
        let new_root = self.post_separator(path, split, images)?;
        self.chains.split(leaf, time_split, right);
        Ok(new_root)
    }

    /// Hand `visit` every current leaf, once. The caller holds the
    /// structure latch.
    pub(crate) fn current_leaves(&self, visit: &mut dyn FnMut(PageId) -> Result<()>) -> Result<()> {
        let root = self.root();
        self.walk_leaves(root, Vec::new(), None, &KeyRange::ALL, &mut |span| {
            visit(span.id).map(|()| Flow::Continue)
        })?;
        Ok(())
    }

    /// Post a key split's separator into the ancestors on `path`.
    fn post_separator(
        &self,
        path: Vec<PageId>,
        split: LeafSplit,
        images: &mut Vec<Page>,
    ) -> Result<Option<PageId>> {
        // Walk ancestors bottom-up. `path` is root..leaf.
        let mut pending = split.key_split;
        let mut level = path.len().checked_sub(2);
        let mut child_left_id = split.leaf;
        while let Some((sep, right_id)) = pending.take() {
            let Some(idx) = level else {
                // Split reached the (old) root: grow the tree.
                let new_root_id = self.pool.disk().allocate()?;
                let child_level = self.page_level(images, child_left_id)?;
                let mut root = Page::zeroed();
                root.format(new_root_id, PageType::Index, 0, child_level + 1);
                root.insert_sorted(b"", &child_left_id.0.to_le_bytes(), 0)?;
                root.insert_sorted(&sep, &right_id.0.to_le_bytes(), 0)?;
                images.push(root);
                return Ok(Some(new_root_id));
            };
            let parent_id = path[idx];
            let mut parent = self.pool.fetch(parent_id)?.read().clone();
            match parent.insert_sorted(&sep, &right_id.0.to_le_bytes(), 0) {
                Ok(_) => images.push(parent),
                Err(Error::PageFull) => {
                    let pright_id = self.pool.disk().allocate()?;
                    let (mut pl, mut pr, psep) = index_key_split(&parent, pright_id)?;
                    self.pool.metrics().tree.index_key_splits.inc();
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
        Ok(None)
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
