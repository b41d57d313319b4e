//! Disk manager: the single database file of fixed-size pages.
//!
//! Pages are read and written with positioned I/O (`pread`/`pwrite`)
//! through the [`crate::vfs`] seam; allocation is a monotonic high-water
//! mark derived from the file length, so it needs no logging — a page
//! allocated but orphaned by a crash is merely leaked space (documented
//! trade-off). The history compactor *does* free pages: it rewrites them
//! as formatted `PageType::Free` images (logged like any other page
//! rewrite, so recovery and replicas agree) and returns their ids to an
//! in-memory free list that [`DiskManager::allocate`] reuses before
//! extending the file. The list is rebuilt at open by scanning for Free
//! pages; a crash between the free and the rescan merely leaks until the
//! next open.
//!
//! Every page image is stamped with a whole-page CRC on write and
//! verified on read, so a torn 8 KB write (some sectors old, some new)
//! surfaces as [`Error::Corruption`] instead of silently wrong data.
//! Recovery repairs such pages from full-page images in the WAL.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use immortaldb_common::{Error, PageId, Result, PAGE_SIZE};

use crate::meta::MetaView;
use crate::page::{self, Page};
use crate::vfs::{std_fs, Vfs, VfsFile};

/// Manages the database page file.
pub struct DiskManager {
    file: Arc<dyn VfsFile>,
    path: PathBuf,
    /// Next page number to hand out (== current page count of the file).
    next_page: AtomicU32,
    /// Serializes file extension so concurrent allocations don't race the
    /// high-water mark against the write that materializes the page.
    alloc_lock: Mutex<()>,
    /// Page ids reclaimed by the history compactor, reused by
    /// [`Self::allocate`] before the file is extended.
    free_list: Mutex<Vec<PageId>>,
}

impl DiskManager {
    /// Open through the production [`crate::vfs::StdFs`].
    pub fn open(path: impl AsRef<Path>) -> Result<(DiskManager, bool)> {
        Self::open_with(std_fs(), path)
    }

    /// Open an existing database file or create a fresh one (with a
    /// formatted, fsynced meta page) through the given VFS. Returns the
    /// manager and whether the file was newly created.
    ///
    /// A file length that is not a page multiple — the footprint of a
    /// crash in the middle of an extending write — is repaired by
    /// truncating back to the last whole page.
    pub fn open_with(vfs: Arc<dyn Vfs>, path: impl AsRef<Path>) -> Result<(DiskManager, bool)> {
        let path = path.as_ref().to_path_buf();
        let existed = vfs.exists(&path);
        let file = vfs.open(&path)?;
        let mut len = file.len()?;
        if existed && len % PAGE_SIZE as u64 != 0 {
            // Torn extension: drop the partial page; it was never
            // acknowledged as allocated to any caller that could have
            // logged against it.
            len -= len % PAGE_SIZE as u64;
            file.set_len(len)?;
        }
        let mgr = DiskManager {
            file,
            path,
            next_page: AtomicU32::new((len / PAGE_SIZE as u64) as u32),
            alloc_lock: Mutex::new(()),
            free_list: Mutex::new(Vec::new()),
        };
        let fresh = !existed || len == 0;
        if fresh {
            let mut meta = Page::zeroed();
            MetaView::init(&mut meta);
            let _guard = mgr.alloc_lock.lock();
            mgr.next_page.store(1, Ordering::SeqCst);
            mgr.write_page(&meta)?;
            // Make the formatted meta page durable immediately: a crash
            // right after create must not leave an unvalidatable file.
            mgr.file.sync()?;
        } else {
            // Validate the meta page, but tolerate a torn page 0: recovery
            // repairs it from a logged full-page image, and the engine
            // re-validates after redo.
            match mgr.read_page(PageId(0)) {
                Ok(meta) => MetaView::validate(&meta)?,
                Err(Error::Corruption(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok((mgr, fresh))
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of pages currently in the file.
    pub fn num_pages(&self) -> u32 {
        self.next_page.load(Ordering::SeqCst)
    }

    /// Read a page image from disk, verifying its CRC.
    pub fn read_page(&self, id: PageId) -> Result<Page> {
        let mut page = Page::zeroed();
        self.read_into(id, &mut page)?;
        Ok(page)
    }

    /// Read page `id` into `page`, waiting for the device if it must, and
    /// verify its CRC.
    pub fn read_into(&self, id: PageId, page: &mut Page) -> Result<()> {
        let offset = self.offset_of(id)?;
        self.file.read_exact_at(page.as_bytes_mut(), offset)?;
        Self::verify(id, page)
    }

    /// [`Self::read_into`] if the OS page cache holds the whole image;
    /// `Ok(false)` (and `page` unspecified) if reading it would wait for
    /// the device, or the VFS cannot tell. A cached image that fails its
    /// CRC is [`Error::Corruption`], as on the blocking path.
    pub fn read_cached_into(&self, id: PageId, page: &mut Page) -> Result<bool> {
        let offset = self.offset_of(id)?;
        if !self.file.read_cached_at(page.as_bytes_mut(), offset) {
            return Ok(false);
        }
        Self::verify(id, page).map(|()| true)
    }

    /// The file offset of an allocated page.
    fn offset_of(&self, id: PageId) -> Result<u64> {
        if id.0 >= self.num_pages() {
            return Err(Error::Corruption(format!(
                "read of unallocated page {id:?} (file has {} pages)",
                self.num_pages()
            )));
        }
        Ok(id.file_offset(PAGE_SIZE))
    }

    fn verify(id: PageId, page: &mut Page) -> Result<()> {
        if !page::verify_image_crc(page.as_bytes_mut()) {
            return Err(Error::Corruption(format!(
                "page {id:?} failed CRC verification (torn or corrupt write)"
            )));
        }
        Ok(())
    }

    /// Write a page image to disk, stamping its CRC (no fsync; see
    /// [`Self::sync`]).
    pub fn write_page(&self, page_ref: &Page) -> Result<()> {
        let id = page_ref.page_id();
        if id.0 >= self.num_pages() {
            return Err(Error::Internal(format!("write of unallocated page {id:?}")));
        }
        let mut buf = page_ref.as_bytes().to_vec();
        page::stamp_image_crc(&mut buf);
        self.file.write_all_at(&buf, id.file_offset(PAGE_SIZE))?;
        Ok(())
    }

    /// Allocate a page: reuse a compactor-freed page when one is
    /// available, otherwise extend the file with zeroes. Callers install a
    /// full logged image into the page before use, so stale Free-page
    /// content never survives reallocation.
    pub fn allocate(&self) -> Result<PageId> {
        if let Some(id) = self.free_list.lock().pop() {
            return Ok(id);
        }
        self.extend()
    }

    /// Allocate strictly by extending the file (never reuses freed pages).
    /// Recovery uses this to grow the file up to a logged page id — taking
    /// from the free list there would not raise the high-water mark.
    pub fn extend(&self) -> Result<PageId> {
        let _guard = self.alloc_lock.lock();
        let id = PageId(self.next_page.load(Ordering::SeqCst));
        let zero = [0u8; PAGE_SIZE];
        self.file.write_all_at(&zero, id.file_offset(PAGE_SIZE))?;
        self.next_page.store(id.0 + 1, Ordering::SeqCst);
        Ok(id)
    }

    /// Return a page to the free list. The caller must already have
    /// installed (and logged) a `PageType::Free` image for it so the free
    /// survives recovery and replication.
    pub fn free_page(&self, id: PageId) {
        debug_assert!(id.0 != 0 && id.0 < self.num_pages());
        self.free_list.lock().push(id);
    }

    /// Number of pages currently on the free list.
    pub fn free_pages(&self) -> usize {
        self.free_list.lock().len()
    }

    /// Rebuild the free list by scanning the file for `PageType::Free`
    /// pages (called once at open, after recovery redo). Unreadable pages
    /// are skipped — they are certainly not reusable.
    pub fn reload_free_list(&self) -> Result<usize> {
        let mut found = Vec::new();
        for n in 1..self.num_pages() {
            if let Ok(p) = self.read_page(PageId(n)) {
                if matches!(p.page_type(), Ok(crate::page::PageType::Free)) {
                    found.push(PageId(n));
                }
            }
        }
        let count = found.len();
        *self.free_list.lock() = found;
        Ok(count)
    }

    /// Flush file contents to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.file.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("immortal-disk-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn create_formats_meta_page() {
        let path = tmp("create");
        let (d, fresh) = DiskManager::open(&path).unwrap();
        assert!(fresh);
        assert_eq!(d.num_pages(), 1);
        let meta = d.read_page(PageId(0)).unwrap();
        MetaView::validate(&meta).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let path = tmp("rw");
        let (d, _) = DiskManager::open(&path).unwrap();
        let id = d.allocate().unwrap();
        assert_eq!(id, PageId(1));
        let mut p = Page::zeroed();
        p.format(id, PageType::Leaf, 0, 0);
        p.insert_sorted(b"hello", b"world", 0).unwrap();
        d.write_page(&p).unwrap();
        let q = d.read_page(id).unwrap();
        assert_eq!(q.rec_data(q.slot(0)), b"world");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_preserves_pages() {
        let path = tmp("reopen");
        {
            let (d, _) = DiskManager::open(&path).unwrap();
            let id = d.allocate().unwrap();
            let mut p = Page::zeroed();
            p.format(id, PageType::Leaf, 0, 0);
            d.write_page(&p).unwrap();
            d.sync().unwrap();
        }
        let (d, fresh) = DiskManager::open(&path).unwrap();
        assert!(!fresh);
        assert_eq!(d.num_pages(), 2);
        let p = d.read_page(PageId(1)).unwrap();
        assert_eq!(p.page_type().unwrap(), PageType::Leaf);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let path = tmp("oob");
        let (d, _) = DiskManager::open(&path).unwrap();
        assert!(d.read_page(PageId(5)).is_err());
        let mut p = Page::zeroed();
        p.format(PageId(5), PageType::Leaf, 0, 0);
        assert!(d.write_page(&p).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_file_length_is_truncated_on_open() {
        let path = tmp("torn");
        {
            let (d, _) = DiskManager::open(&path).unwrap();
            let id = d.allocate().unwrap();
            let mut p = Page::zeroed();
            p.format(id, PageType::Leaf, 0, 0);
            d.write_page(&p).unwrap();
            d.sync().unwrap();
        }
        // Simulate a crash mid-extension: a dangling partial page.
        let intact = std::fs::read(&path).unwrap();
        std::fs::write(&path, [&intact[..], &[0xAAu8; 100][..]].concat()).unwrap();
        let (d, fresh) = DiskManager::open(&path).unwrap();
        assert!(!fresh);
        assert_eq!(d.num_pages(), 2);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            2 * PAGE_SIZE as u64
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn free_list_reuse_and_reload() {
        let path = tmp("free");
        {
            let (d, _) = DiskManager::open(&path).unwrap();
            let a = d.allocate().unwrap();
            let b = d.allocate().unwrap();
            let mut f = Page::zeroed();
            f.format(a, PageType::Free, 0, 0);
            d.write_page(&f).unwrap();
            d.free_page(a);
            assert_eq!(d.free_pages(), 1);
            // Reuse comes before extension and does not grow the file.
            assert_eq!(d.allocate().unwrap(), a);
            assert_eq!(d.num_pages(), 3);
            // Free it again, durably, for the reload half of the test.
            d.write_page(&f).unwrap();
            d.free_page(a);
            let mut p = Page::zeroed();
            p.format(b, PageType::Leaf, 0, 0);
            d.write_page(&p).unwrap();
            d.sync().unwrap();
        }
        let (d, _) = DiskManager::open(&path).unwrap();
        assert_eq!(d.free_pages(), 0, "free list is rebuilt only on demand");
        assert_eq!(d.reload_free_list().unwrap(), 1);
        assert_eq!(d.allocate().unwrap(), PageId(1));
        // extend() never reuses freed pages.
        assert_eq!(d.extend().unwrap(), PageId(3));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_page_fails_crc_on_read() {
        let path = tmp("crc");
        let id;
        {
            let (d, _) = DiskManager::open(&path).unwrap();
            id = d.allocate().unwrap();
            let mut p = Page::zeroed();
            p.format(id, PageType::Leaf, 0, 0);
            p.insert_sorted(b"k", b"v", 0).unwrap();
            d.write_page(&p).unwrap();
            d.sync().unwrap();
        }
        // Flip, one at a time, one bit of the first byte, of either side
        // of the first 64-byte block the checksum folds, of the middle
        // of the page and of its last byte: each must fail the CRC on
        // the cached read and on the blocking one, and the image read
        // back once the byte is restored.
        let pristine = std::fs::read(&path).unwrap();
        let base = id.file_offset(PAGE_SIZE) as usize;
        for off in [0, 63, 64, 4096, PAGE_SIZE - 1] {
            let mut bytes = pristine.clone();
            bytes[base + off] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let (d, _) = DiskManager::open(&path).unwrap();
            let mut page = Page::zeroed();
            // Just written, so the page cache holds it.
            match d.read_cached_into(id, &mut page) {
                Err(Error::Corruption(msg)) => assert!(msg.contains("CRC"), "{msg}"),
                Ok(false) if !cfg!(target_os = "linux") => {}
                other => panic!("byte {off}, cached: expected CRC corruption, got {other:?}"),
            }
            match d.read_into(id, &mut page) {
                Err(Error::Corruption(msg)) => assert!(msg.contains("CRC"), "{msg}"),
                other => panic!("byte {off}, blocking: expected CRC corruption, got {other:?}"),
            }
        }
        std::fs::write(&path, &pristine).unwrap();
        let (d, _) = DiskManager::open(&path).unwrap();
        let p = d.read_page(id).unwrap();
        assert_eq!(p.rec_data(p.slot(0)), b"v");
        let mut cached = Page::zeroed();
        if d.read_cached_into(id, &mut cached).unwrap() {
            assert_eq!(cached.as_bytes(), p.as_bytes());
        }
        std::fs::remove_file(&path).unwrap();
    }
}
