//! Meta page (page 0): database bootstrap information.
//!
//! The meta page holds the tree directory — the stable `TreeId -> root
//! PageId` mapping that lets logical undo re-descend a tree even after its
//! root has moved — plus high-water marks persisted so identifier
//! monotonicity survives restarts: the TID reservation (no TID at or below
//! it is reissued) and the last issued timestamp, as of the last
//! checkpoint.
//!
//! The meta page travels through the buffer pool like any other page, and
//! structure modifications that change roots include its image in their
//! atomic multi-page image log record.

use immortaldb_common::codec::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64};
use immortaldb_common::{Error, PageId, Result, Tid, Timestamp, TreeId, PAGE_SIZE};

use crate::page::{Page, PageType, HEADER_SIZE};

const MAGIC: u64 = 0x494D_4D4F_5254_4C44; // "IMMORTLD"
const FORMAT_VERSION: u16 = 1;

const OFF_MAGIC: usize = HEADER_SIZE;
const OFF_VERSION: usize = HEADER_SIZE + 8;
const OFF_MAX_TID: usize = HEADER_SIZE + 10;
const OFF_LAST_TTIME: usize = HEADER_SIZE + 18;
const OFF_LAST_SN: usize = HEADER_SIZE + 26;
const OFF_TREE_COUNT: usize = HEADER_SIZE + 30;
const OFF_ENTRIES: usize = HEADER_SIZE + 34;
const ENTRY_SIZE: usize = 8; // tree_id u32 + root u32

/// Maximum number of trees the directory can hold.
pub const MAX_TREES: usize = (PAGE_SIZE - OFF_ENTRIES) / ENTRY_SIZE;

/// Typed view over the meta page.
pub struct MetaView;

impl MetaView {
    /// Format a fresh meta page.
    pub fn init(page: &mut Page) {
        page.format(PageId(0), PageType::Meta, 0, 0);
        let b = page.as_bytes_mut();
        put_u64(b, OFF_MAGIC, MAGIC);
        put_u16(b, OFF_VERSION, FORMAT_VERSION);
        put_u64(b, OFF_MAX_TID, 0);
        put_u64(b, OFF_LAST_TTIME, 0);
        put_u32(b, OFF_LAST_SN, 0);
        put_u32(b, OFF_TREE_COUNT, 0);
    }

    /// Validate magic and format version.
    pub fn validate(page: &Page) -> Result<()> {
        let b = page.as_bytes();
        if get_u64(b, OFF_MAGIC) != MAGIC {
            return Err(Error::Corruption("meta page magic mismatch".into()));
        }
        let v = get_u16(b, OFF_VERSION);
        if v != FORMAT_VERSION {
            return Err(Error::Corruption(format!("unsupported format version {v}")));
        }
        Ok(())
    }

    pub fn max_tid(page: &Page) -> Tid {
        Tid(get_u64(page.as_bytes(), OFF_MAX_TID))
    }

    pub fn set_max_tid(page: &mut Page, tid: Tid) {
        put_u64(page.as_bytes_mut(), OFF_MAX_TID, tid.0);
    }

    /// Last issued commit timestamp persisted at the most recent
    /// checkpoint; the clock must not issue anything ≤ this after restart.
    pub fn last_timestamp(page: &Page) -> Timestamp {
        let b = page.as_bytes();
        Timestamp {
            ttime: get_u64(b, OFF_LAST_TTIME),
            sn: get_u32(b, OFF_LAST_SN),
        }
    }

    pub fn set_last_timestamp(page: &mut Page, ts: Timestamp) {
        let b = page.as_bytes_mut();
        put_u64(b, OFF_LAST_TTIME, ts.ttime);
        put_u32(b, OFF_LAST_SN, ts.sn);
    }

    fn tree_count(page: &Page) -> usize {
        get_u32(page.as_bytes(), OFF_TREE_COUNT) as usize
    }

    fn entry(page: &Page, i: usize) -> (TreeId, PageId) {
        let b = page.as_bytes();
        let off = OFF_ENTRIES + i * ENTRY_SIZE;
        (TreeId(get_u32(b, off)), PageId(get_u32(b, off + 4)))
    }

    /// Root page of `tree`, if registered.
    pub fn tree_root(page: &Page, tree: TreeId) -> Option<PageId> {
        (0..Self::tree_count(page))
            .map(|i| Self::entry(page, i))
            .find(|(t, _)| *t == tree)
            .map(|(_, r)| r)
    }

    /// Register or update the root of `tree`.
    pub fn set_tree_root(page: &mut Page, tree: TreeId, root: PageId) -> Result<()> {
        let n = Self::tree_count(page);
        for i in 0..n {
            if Self::entry(page, i).0 == tree {
                let off = OFF_ENTRIES + i * ENTRY_SIZE + 4;
                put_u32(page.as_bytes_mut(), off, root.0);
                return Ok(());
            }
        }
        if n >= MAX_TREES {
            return Err(Error::Catalog(format!("tree directory full ({MAX_TREES})")));
        }
        let off = OFF_ENTRIES + n * ENTRY_SIZE;
        let b = page.as_bytes_mut();
        put_u32(b, off, tree.0);
        put_u32(b, off + 4, root.0);
        put_u32(b, OFF_TREE_COUNT, (n + 1) as u32);
        Ok(())
    }

    /// All registered trees.
    pub fn trees(page: &Page) -> Vec<(TreeId, PageId)> {
        (0..Self::tree_count(page))
            .map(|i| Self::entry(page, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_and_validate() {
        let mut p = Page::zeroed();
        MetaView::init(&mut p);
        MetaView::validate(&p).unwrap();
        assert_eq!(MetaView::max_tid(&p), Tid(0));
        assert_eq!(MetaView::last_timestamp(&p), Timestamp::ZERO);
        assert!(MetaView::trees(&p).is_empty());
    }

    #[test]
    fn validate_rejects_garbage() {
        let p = Page::zeroed();
        assert!(MetaView::validate(&p).is_err());
    }

    #[test]
    fn tree_directory_roundtrip() {
        let mut p = Page::zeroed();
        MetaView::init(&mut p);
        MetaView::set_tree_root(&mut p, TreeId(5), PageId(10)).unwrap();
        MetaView::set_tree_root(&mut p, TreeId(7), PageId(20)).unwrap();
        assert_eq!(MetaView::tree_root(&p, TreeId(5)), Some(PageId(10)));
        assert_eq!(MetaView::tree_root(&p, TreeId(7)), Some(PageId(20)));
        assert_eq!(MetaView::tree_root(&p, TreeId(9)), None);
        // Update in place.
        MetaView::set_tree_root(&mut p, TreeId(5), PageId(99)).unwrap();
        assert_eq!(MetaView::tree_root(&p, TreeId(5)), Some(PageId(99)));
        assert_eq!(MetaView::trees(&p).len(), 2);
    }

    #[test]
    fn watermarks_roundtrip() {
        let mut p = Page::zeroed();
        MetaView::init(&mut p);
        MetaView::set_max_tid(&mut p, Tid(123));
        MetaView::set_last_timestamp(&mut p, Timestamp::new(400, 7));
        assert_eq!(MetaView::max_tid(&p), Tid(123));
        assert_eq!(MetaView::last_timestamp(&p), Timestamp::new(400, 7));
    }

    #[test]
    fn directory_capacity_enforced() {
        let mut p = Page::zeroed();
        MetaView::init(&mut p);
        for i in 0..MAX_TREES {
            MetaView::set_tree_root(&mut p, TreeId(i as u32 + 1), PageId(1)).unwrap();
        }
        assert!(MetaView::set_tree_root(&mut p, TreeId(100_000), PageId(1)).is_err());
    }
}
