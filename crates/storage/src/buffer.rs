//! Buffer pool: cached page frames with latching, WAL-rule flushing and
//! the lazy-timestamping flush hook.
//!
//! Every cached page lives in a [`Frame`] holding the page image behind a
//! latch plus a seqlock-style version counter. Fetching returns a
//! [`FrameRef`]; the frame stays resident at least as long as any
//! reference exists.
//!
//! Concurrency (DESIGN.md §11):
//!
//! * The frame table is **sharded**: a power-of-two number of shards,
//!   each a `Mutex<HashMap>`, keyed by a fibonacci hash of the page id,
//!   so concurrent readers of distinct pages never contend on one lock.
//! * Misses use **singleflight**: the first thread to miss a page posts
//!   an in-flight token in the shard and reads disk; concurrent misses
//!   on the same page wait on the shard's condvar instead of issuing
//!   duplicate reads.
//! * Readers may use the **optimistic latch protocol**
//!   ([`Frame::read_optimistic`]): load the version counter, copy the
//!   page image without taking the latch, and revalidate the counter —
//!   retrying (and finally falling back to the shared latch) when a
//!   writer interleaved. Writers make the counter odd while they hold
//!   the write latch and bump it even again on release.
//!
//! Eviction sweeps unreferenced frames across shards, **history leaves
//! first**: an unpinned frame holding a `FLAG_HISTORICAL` leaf (the
//! history page a time split moves old versions to) goes before any
//! other frame, and second chance applies only among the others. A
//! history leaf is immutable once split off, clean after its first
//! write-back, and touched once by the chain walk that passes it; index
//! nodes and current leaves are the working set (DESIGN.md §11). Dirty victims are written back, after (a)
//! flushing the WAL up to the page LSN and (b) running the flush hook —
//! which is how Immortal DB timestamps non-timestamped records of
//! committed transactions "just before a cached page is flushed to disk"
//! (§2.2).

use std::cell::UnsafeCell;
use std::collections::{HashMap, HashSet};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use immortaldb_common::{blocking, Lsn, PageId, Result, NULL_LSN, PAGE_SIZE};
use immortaldb_obs::MetricsRegistry;

use crate::disk::DiskManager;
use crate::logrec::LogRecord;
use crate::page::{Page, PageHeader, PageType, HEADER_SIZE};
use crate::wal::{Durability, Wal};

use immortaldb_common::{Error, Tid};

/// Hook invoked with a write-latched page right before its image is
/// written to disk. The transaction manager installs a hook that stamps
/// committed TID-marked records (unlogged) so timestamping is durable
/// before PTT garbage collection can touch the transaction's entry.
pub trait FlushHook: Send + Sync {
    fn before_flush(&self, page: &mut Page);
}

/// Optimistic read attempts before [`Frame::read_optimistic`] falls back
/// to the pessimistic shared latch.
pub const OPTIMISTIC_RETRIES: u32 = 3;

/// A cached page frame.
///
/// The page image lives in an `UnsafeCell` guarded by two cooperating
/// mechanisms: a conventional reader-writer latch (`latch`) and a
/// seqlock version counter (`version`, odd while a writer holds the
/// write latch). Pessimistic readers/writers go through the latch;
/// optimistic readers copy the image latch-free and discard the copy if
/// the counter moved.
pub struct Frame {
    id: PageId,
    latch: RwLock<()>,
    page: UnsafeCell<Page>,
    /// Seqlock word: even = no writer, odd = writer active. Bumped twice
    /// per write-latch hold (acquire and release).
    version: AtomicU64,
    dirty: AtomicBool,
    /// LSN of the first record that dirtied this page since it was last
    /// clean (recLSN in ARIES; drives the dirty-page table).
    rec_lsn: AtomicU64,
    /// Second-chance bit for the eviction sweep.
    referenced: AtomicBool,
    /// The image is a history leaf ([`is_history_leaf`]), so the sweep
    /// takes this frame first. Set with the frame's first image and again
    /// whenever a write latch on it is released.
    history_leaf: AtomicBool,
    /// Its shard's count of live history-leaf frames, kept in step with
    /// `history_leaf` by [`Frame::set_class`].
    history_leaves: Arc<AtomicUsize>,
}

// SAFETY: the UnsafeCell is only written under the exclusive latch (or
// through `&mut Frame` before the frame is shared); racy reads happen
// only in `try_copy`, whose callers use the copy only after the version
// counter validated it.
unsafe impl Send for Frame {}
// SAFETY: as for `Send`.
unsafe impl Sync for Frame {}

/// Whether `page` is a history leaf (`FLAG_HISTORICAL`; only a time
/// split's history pages carry it), which the eviction sweep takes
/// before any other frame.
fn is_history_leaf(page: &Page) -> bool {
    page.is_historical()
}

/// Shared handle to a cached page. Holding one pins the frame.
pub type FrameRef = Arc<Frame>;

/// Shared (pessimistic) latch on a page.
pub struct PageReadGuard<'a> {
    frame: &'a Frame,
    _latch: std::sync::RwLockReadGuard<'a, ()>,
}

impl Deref for PageReadGuard<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        // SAFETY: the guard holds the shared latch, so no writer mutates
        // the image while this borrow lives.
        unsafe { &*self.frame.page.get() }
    }
}

/// Exclusive latch on a page. Acquiring one makes the frame's version
/// counter odd; dropping it makes the counter even again, invalidating
/// any optimistic copy taken in between.
pub struct PageWriteGuard<'a> {
    frame: &'a Frame,
    _latch: std::sync::RwLockWriteGuard<'a, ()>,
}

impl Deref for PageWriteGuard<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        // SAFETY: the guard holds the exclusive latch; the only mutable
        // borrow it hands out needs `&mut self`, so none is live here.
        unsafe { &*self.frame.page.get() }
    }
}

impl DerefMut for PageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Page {
        // SAFETY: the guard holds the exclusive latch, and `&mut self`
        // makes this the only borrow of the image through it.
        unsafe { &mut *self.frame.page.get() }
    }
}

impl Drop for PageWriteGuard<'_> {
    fn drop(&mut self) {
        // The image may have been replaced (install, redo) or re-flagged.
        self.frame.set_class(is_history_leaf(self));
        // Back to even: publish the writes to optimistic readers.
        self.frame.version.fetch_add(1, Ordering::Release);
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        self.set_class(false);
    }
}

impl Frame {
    fn new(id: PageId, page: Page, dirty: bool, history_leaves: &Arc<AtomicUsize>) -> Frame {
        let history_leaf = is_history_leaf(&page);
        if history_leaf {
            history_leaves.fetch_add(1, Ordering::Relaxed);
        }
        Frame {
            id,
            latch: RwLock::new(()),
            history_leaf: AtomicBool::new(history_leaf),
            history_leaves: Arc::clone(history_leaves),
            page: UnsafeCell::new(page),
            version: AtomicU64::new(0),
            dirty: AtomicBool::new(dirty),
            rec_lsn: AtomicU64::new(0),
            referenced: AtomicBool::new(true),
        }
    }

    /// Record whether the image is a history leaf. The caller has the
    /// image to itself (a new or dying frame, or the write latch).
    fn set_class(&self, history_leaf: bool) {
        if self.history_leaf.load(Ordering::Relaxed) != history_leaf {
            self.history_leaf.store(history_leaf, Ordering::Relaxed);
            if history_leaf {
                self.history_leaves.fetch_add(1, Ordering::Relaxed);
            } else {
                self.history_leaves.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    pub fn page_id(&self) -> PageId {
        self.id
    }

    /// Acquire the page read latch.
    pub fn read(&self) -> PageReadGuard<'_> {
        self.referenced.store(true, Ordering::Relaxed);
        PageReadGuard {
            frame: self,
            _latch: self.latch.read(),
        }
    }

    /// Acquire the page write latch and mark a writer active.
    pub fn write(&self) -> PageWriteGuard<'_> {
        self.referenced.store(true, Ordering::Relaxed);
        let latch = self.latch.write();
        // Odd: optimistic readers that load the counter now (or revalidate
        // against a pre-acquire value) will discard their copy. AcqRel so
        // the bump is ordered before the page writes that follow.
        self.version.fetch_add(1, Ordering::AcqRel);
        PageWriteGuard {
            frame: self,
            _latch: latch,
        }
    }

    /// Current seqlock version (even = no writer active). Exposed for
    /// latch-protocol tests.
    pub fn latch_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// One latch-free copy attempt of the first `N` bytes of the page
    /// image into `dst`; `true` iff the version counter proves no writer
    /// interleaved, i.e. `dst` now holds `N` initialized, untorn bytes.
    fn try_copy<const N: usize>(&self, dst: *mut u8) -> bool {
        let v1 = self.version.load(Ordering::Acquire);
        if v1 & 1 != 0 {
            return false; // writer active right now
        }
        // SAFETY: the frame owns PAGE_SIZE >= N readable bytes and `dst`
        // points at N writable ones (both callers pass a local buffer).
        // The copy may race a writer mutating the image; the possibly
        // torn bytes are never observed — validation below rejects them.
        unsafe { std::ptr::copy_nonoverlapping(self.page.get() as *const u8, dst, N) };
        // Order the copy before the validating load.
        fence(Ordering::Acquire);
        self.version.load(Ordering::Relaxed) == v1
    }

    /// One optimistic read attempt: copy the page image without taking
    /// the latch and run `f` on the copy only if the version counter
    /// proves no writer interleaved. Returns `None` on conflict.
    pub fn try_read_optimistic<R>(&self, f: impl FnOnce(&Page) -> R) -> Option<R> {
        let mut copy = std::mem::MaybeUninit::<Page>::uninit();
        if !self.try_copy::<PAGE_SIZE>(copy.as_mut_ptr() as *mut u8) {
            return None;
        }
        // SAFETY: a validated `try_copy` initialized all PAGE_SIZE bytes
        // of the copy, and every byte pattern is a valid `Page`.
        Some(f(unsafe { copy.assume_init_ref() }))
    }

    /// Read the page via the optimistic protocol: up to
    /// [`OPTIMISTIC_RETRIES`] latch-free attempts, then a pessimistic
    /// shared-latch fallback. `f` runs exactly once, on a validated
    /// (never torn) page image either way — so it may have side effects.
    pub fn read_optimistic<R>(&self, metrics: &MetricsRegistry, f: impl FnOnce(&Page) -> R) -> R {
        self.referenced.store(true, Ordering::Relaxed);
        let mut copy = std::mem::MaybeUninit::<Page>::uninit();
        for _ in 0..OPTIMISTIC_RETRIES {
            if self.try_copy::<PAGE_SIZE>(copy.as_mut_ptr() as *mut u8) {
                metrics.latch.optimistic_reads.inc();
                // SAFETY: as in `try_read_optimistic`.
                return f(unsafe { copy.assume_init_ref() });
            }
            metrics.latch.optimistic_retries.inc();
            std::hint::spin_loop();
        }
        metrics.latch.pessimistic_fallbacks.inc();
        let g = self.read();
        f(&g)
    }

    /// Read only the fixed page header, by the same seqlock protocol as
    /// [`Frame::read_optimistic`] but copying [`HEADER_SIZE`] bytes
    /// instead of the whole image. A history-chain walk peeks every page
    /// it passes and pays the full copy once, on the page that answers.
    pub fn peek_header(&self, metrics: &MetricsRegistry) -> PageHeader {
        self.referenced.store(true, Ordering::Relaxed);
        let mut hdr = [0u8; HEADER_SIZE];
        for _ in 0..OPTIMISTIC_RETRIES {
            if self.try_copy::<HEADER_SIZE>(hdr.as_mut_ptr()) {
                metrics.latch.optimistic_reads.inc();
                return PageHeader::from_bytes(hdr);
            }
            metrics.latch.optimistic_retries.inc();
            std::hint::spin_loop();
        }
        metrics.latch.pessimistic_fallbacks.inc();
        let g = self.read();
        hdr.copy_from_slice(&g.as_bytes()[..HEADER_SIZE]);
        PageHeader::from_bytes(hdr)
    }

    /// Record that a logged mutation at `lsn` dirtied this page. Callers
    /// must hold the write latch and have set the page LSN already.
    pub fn mark_dirty(&self, lsn: Lsn) {
        if !self.dirty.swap(true, Ordering::SeqCst) {
            self.rec_lsn.store(lsn.0, Ordering::SeqCst);
        }
    }

    /// Mark dirty with no associated log record (unlogged timestamp
    /// application). Keeps recLSN untouched if already dirty; otherwise
    /// pins recLSN at the current end of log is unnecessary — unlogged
    /// changes need no redo, so a clean page stays out of the DPT and the
    /// page is simply written back by the eviction/checkpoint path.
    pub fn mark_dirty_unlogged(&self) {
        self.dirty.store(true, Ordering::SeqCst);
    }

    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::SeqCst)
    }

    pub fn rec_lsn(&self) -> Lsn {
        Lsn(self.rec_lsn.load(Ordering::SeqCst))
    }
}

/// One frame-table shard: resident frames plus the in-flight miss
/// tokens for singleflight.
struct ShardState {
    frames: HashMap<PageId, FrameRef>,
    inflight: HashSet<PageId>,
}

struct Shard {
    state: Mutex<ShardState>,
    /// Signalled when an in-flight load completes (either way).
    loaded: Condvar,
    /// Live frames of this shard holding a history leaf. The sweep's
    /// history pass skips a shard with none instead of scanning it:
    /// history leaves go first, so few stay resident. Measured on random
    /// point reads of a conventional table 8x a 1,024-page pool (no
    /// history at all; 2-vCPU x86-64 VM, one CPU pinned, 10 alternating
    /// pairs): 11.0-15.1 us per read (median 11.7) with the count and
    /// 14.9-23.3 (median 15.6) with a history pass that locks and scans
    /// every shard, slower in 10 of 10 pairs. `mixed.spill`, where most
    /// shards hold history, moves within noise either way (DESIGN.md §11).
    history_leaves: Arc<AtomicUsize>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            state: Mutex::new(ShardState {
                frames: HashMap::new(),
                inflight: HashSet::new(),
            }),
            loaded: Condvar::new(),
            history_leaves: Arc::new(AtomicUsize::new(0)),
        }
    }
}

/// Buffer pool over a disk manager and WAL.
pub struct BufferPool {
    disk: Arc<DiskManager>,
    wal: Arc<Wal>,
    capacity: usize,
    shards: Vec<Shard>,
    /// `shards.len() - 1`; shard count is a power of two.
    shard_mask: usize,
    /// Total resident frames across shards; drives eviction.
    len: AtomicUsize,
    /// Rotating start shard for the eviction sweep, so one shard is not
    /// always drained first.
    clock: AtomicUsize,
    flush_hook: RwLock<Option<Arc<dyn FlushHook>>>,
    /// When set, every page write-back first logs the full page image
    /// (and flushes the WAL), so a torn data-page write — detected by the
    /// page CRC on the next read — can be repaired during redo. Off by
    /// default: it roughly doubles write volume and matters only under a
    /// torn-write failure model.
    page_image_logging: AtomicBool,
    metrics: MetricsRegistry,
}

impl BufferPool {
    /// Pool with a private metrics registry (tests, standalone use).
    pub fn new(disk: Arc<DiskManager>, wal: Arc<Wal>, capacity: usize) -> BufferPool {
        Self::with_metrics(disk, wal, capacity, MetricsRegistry::new())
    }

    /// Pool recording into a shared engine-wide registry, with the
    /// automatic shard count.
    pub fn with_metrics(
        disk: Arc<DiskManager>,
        wal: Arc<Wal>,
        capacity: usize,
        metrics: MetricsRegistry,
    ) -> BufferPool {
        Self::with_config(disk, wal, capacity, 0, metrics)
    }

    /// Full control: `shards` is rounded up to a power of two; 0 picks
    /// an automatic count from the host's parallelism.
    pub fn with_config(
        disk: Arc<DiskManager>,
        wal: Arc<Wal>,
        capacity: usize,
        shards: usize,
        metrics: MetricsRegistry,
    ) -> BufferPool {
        let shards = if shards == 0 {
            let cores = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
            (cores * 4).clamp(8, 64)
        } else {
            shards
        }
        .next_power_of_two();
        BufferPool {
            disk,
            wal,
            capacity: capacity.max(8),
            shard_mask: shards - 1,
            shards: (0..shards).map(|_| Shard::new()).collect(),
            len: AtomicUsize::new(0),
            clock: AtomicUsize::new(0),
            flush_hook: RwLock::new(None),
            page_image_logging: AtomicBool::new(false),
            metrics,
        }
    }

    /// Number of frame-table shards (power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Enable or disable full-page-image logging on write-back.
    pub fn set_page_image_logging(&self, on: bool) {
        self.page_image_logging.store(on, Ordering::SeqCst);
    }

    /// Whether write-backs log full page images first.
    pub fn page_image_logging(&self) -> bool {
        self.page_image_logging.load(Ordering::SeqCst)
    }

    /// The registry this pool (and components reached through it) records
    /// into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Install the lazy-timestamping flush hook (done once the transaction
    /// manager exists).
    pub fn set_flush_hook(&self, hook: Arc<dyn FlushHook>) {
        *self.flush_hook.write() = Some(hook);
    }

    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.disk
    }

    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// Number of page write-backs performed so far (thin shim over the
    /// registry's `buffer.flushes`; kept because tests assert on it).
    pub fn flush_count(&self) -> u64 {
        self.metrics.buffer.flushes.get()
    }

    /// Fibonacci-hash a page id into its shard.
    fn shard_for(&self, id: PageId) -> &Shard {
        let h = (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize & self.shard_mask]
    }

    /// Lock a shard, counting contention: a failed `try_lock` means
    /// another thread holds this shard right now.
    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, ShardState> {
        match shard.state.try_lock() {
            Some(g) => g,
            None => {
                self.metrics.buffer.shard_conflicts.inc();
                shard.state.lock()
            }
        }
    }

    /// Fetch a page, reading it from disk on a miss. Concurrent misses
    /// on the same page collapse into one disk read (singleflight).
    pub fn fetch(&self, id: PageId) -> Result<FrameRef> {
        self.metrics.buffer.fetches.inc();
        let shard = self.shard_for(id);
        let mut state = self.lock_shard(shard);
        let mut waited = false;
        loop {
            if let Some(f) = state.frames.get(&id) {
                f.referenced.store(true, Ordering::Relaxed);
                self.metrics.buffer.hits.inc();
                return Ok(Arc::clone(f));
            }
            if state.inflight.contains(&id) {
                // Another thread is already reading this page from disk;
                // wait for it instead of issuing a duplicate read.
                if !waited {
                    self.metrics.buffer.singleflight_waits.inc();
                    waited = true;
                    blocking::about_to_block();
                }
                shard.loaded.wait(&mut state);
                continue;
            }
            break;
        }
        // We are the loader: post the token and read outside the lock.
        state.inflight.insert(id);
        drop(state);
        self.metrics.buffer.misses.inc();
        self.metrics.disk.reads.inc();
        let loaded = self.load(id, shard);
        let mut state = self.lock_shard(shard);
        state.inflight.remove(&id);
        shard.loaded.notify_all();
        // On error, waiters woken by the notify find neither frame nor
        // token and retry their own load, surfacing their own error.
        let frame = loaded?;
        if let Some(f) = state.frames.get(&id) {
            // Raced with fetch_or_reset / new_page; reuse the resident
            // frame rather than shadowing it.
            return Ok(Arc::clone(f));
        }
        state.frames.insert(id, Arc::clone(&frame));
        drop(state);
        self.grew();
        Ok(frame)
    }

    /// Read page `id` from disk straight into a new frame's image. The
    /// page cache is asked first, and only a read that needs the device
    /// signals [`blocking::about_to_block`]: a serving loop keeps a miss
    /// the OS answers from memory (DESIGN.md §11).
    fn load(&self, id: PageId, shard: &Shard) -> Result<FrameRef> {
        let mut frame = Arc::new(Frame::new(id, Page::zeroed(), false, &shard.history_leaves));
        let page = Arc::get_mut(&mut frame).expect("unshared").page.get_mut();
        if self.disk.read_cached_into(id, page)? {
            self.metrics.buffer.misses_cached.inc();
        } else {
            blocking::about_to_block();
            self.disk.read_into(id, page)?;
        }
        let history_leaf = is_history_leaf(page);
        frame.set_class(history_leaf);
        Ok(frame)
    }

    /// A frame was added: evict what that puts the pool over capacity.
    fn grew(&self) {
        let total = self.len.fetch_add(1, Ordering::Relaxed) + 1;
        if total > self.capacity {
            self.evict(total - self.capacity);
        }
    }

    /// [`Self::fetch`], but a page whose on-disk image fails CRC
    /// verification is cached as a zeroed frame (page LSN 0) instead of
    /// erroring. Recovery uses this so a torn page can be rebuilt from a
    /// logged full-page image; returns whether the page was reset.
    pub fn fetch_or_reset(&self, id: PageId) -> Result<(FrameRef, bool)> {
        match self.fetch(id) {
            Ok(f) => Ok((f, false)),
            Err(Error::Corruption(_)) => {
                let shard = self.shard_for(id);
                let mut state = self.lock_shard(shard);
                if let Some(f) = state.frames.get(&id) {
                    return Ok((Arc::clone(f), false));
                }
                let frame = Arc::new(Frame::new(id, Page::zeroed(), false, &shard.history_leaves));
                state.frames.insert(id, Arc::clone(&frame));
                self.len.fetch_add(1, Ordering::Relaxed);
                Ok((frame, true))
            }
            Err(e) => Err(e),
        }
    }

    /// Evict up to `want` frames: sweep shards starting at the clock
    /// hand, first for unpinned history leaves, then for other unpinned
    /// frames with second chance, and write the victims back WITHOUT
    /// any shard lock held — the flush hook resolves timestamps through
    /// the PTT, which lives in this same pool, so holding a shard mutex
    /// across write_back could self-deadlock on a PTT page miss mapping
    /// to the same shard (and would serialize fetches behind I/O).
    fn evict(&self, want: usize) {
        let n = self.shards.len();
        let start = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut victims: Vec<FrameRef> = Vec::new();
        for history_leaves in [true, false] {
            for i in 0..n {
                if victims.len() >= want {
                    break;
                }
                let shard = &self.shards[(start + i) % n];
                if history_leaves && shard.history_leaves.load(Ordering::Relaxed) == 0 {
                    continue;
                }
                let state = self.lock_shard(shard);
                Self::pick_victims(
                    &state.frames,
                    history_leaves,
                    want - victims.len(),
                    &mut victims,
                );
            }
        }
        for victim in victims {
            // The victim is still in its shard while we flush, so a
            // concurrent fetch shares this frame instead of reading a
            // stale image from disk.
            //
            // A failed write-back must NOT fail the triggering fetch or
            // drop the victim: the frame stays dirty and cached
            // (write_back only clears the dirty bit on success), the pool
            // simply runs over capacity until a later flush succeeds.
            if self.write_back(&victim).is_err() {
                self.metrics.buffer.flush_errors.inc();
                continue;
            }
            let shard = self.shard_for(victim.id);
            let mut state = self.lock_shard(shard);
            // Only unmap if nobody re-dirtied or re-pinned it meanwhile
            // (strong count: shard table + our clone).
            if !victim.is_dirty() && Arc::strong_count(&victim) == 2 {
                state.frames.remove(&victim.id);
                self.len.fetch_sub(1, Ordering::Relaxed);
                self.metrics.buffer.evictions.inc();
                if victim.history_leaf.load(Ordering::Relaxed) {
                    self.metrics.buffer.history_evictions.inc();
                }
            }
        }
    }

    /// Select up to `want` unpinned victims of one class from one shard
    /// into `out`. A history leaf goes at once; any other frame gets a
    /// second chance when its referenced bit is set. Must be called with
    /// the shard locked.
    fn pick_victims(
        table: &HashMap<PageId, FrameRef>,
        history_leaves: bool,
        want: usize,
        out: &mut Vec<FrameRef>,
    ) {
        let base = out.len();
        for pass in 0..2 {
            for frame in table.values() {
                if out.len() - base >= want {
                    break;
                }
                if Arc::strong_count(frame) > 1
                    || frame.history_leaf.load(Ordering::Relaxed) != history_leaves
                {
                    continue;
                }
                if !history_leaves && pass == 0 && frame.referenced.swap(false, Ordering::Relaxed) {
                    continue;
                }
                out.push(Arc::clone(frame));
            }
            if history_leaves || out.len() - base >= want {
                break;
            }
        }
    }

    /// Allocate a brand-new page, format it and cache it (dirty).
    pub fn new_page(&self, ptype: PageType, flags: u8, level: u16) -> Result<FrameRef> {
        let id = self.disk.allocate()?;
        let mut page = Page::zeroed();
        page.format(id, ptype, flags, level);
        let shard = self.shard_for(id);
        let frame = Arc::new(Frame::new(id, page, true, &shard.history_leaves));
        let mut state = self.lock_shard(shard);
        state.frames.insert(id, Arc::clone(&frame));
        self.len.fetch_add(1, Ordering::Relaxed);
        Ok(frame)
    }

    /// The cached frame of `id`, pinned, if there is one; never reads the
    /// disk.
    pub fn resident(&self, id: PageId) -> Option<FrameRef> {
        let state = self.lock_shard(self.shard_for(id));
        state.frames.get(&id).map(Arc::clone)
    }

    /// Make `image`, logged at `lsn`, the cached (dirty) page of its id,
    /// replacing what the pool holds and without reading what the disk
    /// does: the caller has the whole new page, so the old one is of no
    /// use. A split installs its images this way; taking the pages it has
    /// just allocated through [`Self::fetch`] would miss, read the zero
    /// page back, check its CRC and tell the serving loop the thread is
    /// about to block.
    pub fn install(&self, image: Page, lsn: Lsn) {
        let id = image.page_id();
        let shard = self.shard_for(id);
        let mut state = self.lock_shard(shard);
        if let Some(f) = state.frames.get(&id).map(Arc::clone) {
            drop(state);
            let mut g = f.write();
            *g = image;
            f.mark_dirty(lsn);
            return;
        }
        let frame = Arc::new(Frame::new(id, image, false, &shard.history_leaves));
        frame.mark_dirty(lsn);
        state.frames.insert(id, Arc::clone(&frame));
        drop(state);
        // With `frame` still in hand, so the sweep cannot pick it.
        self.grew();
    }

    /// Make sure `id` is allocated on disk (recovery may redo page images
    /// for pages past the crashed file's end). Extends strictly — taking
    /// from the free list would not raise the high-water mark.
    pub fn ensure_allocated(&self, id: PageId) -> Result<()> {
        while self.disk.num_pages() <= id.0 {
            self.disk.extend()?;
        }
        Ok(())
    }

    /// Write a frame's page to disk if dirty (WAL rule + flush hook). The
    /// frame stays cached; the caller syncs the data file if it needs the
    /// page durable.
    pub fn write_back(&self, frame: &Frame) -> Result<()> {
        if !frame.is_dirty() {
            return Ok(());
        }
        blocking::about_to_block();
        let mut guard = frame.write();
        // Lazy timestamping trigger: stamp committed records on the way
        // out (only meaningful for versioned leaf pages; the hook checks).
        let hook = self.flush_hook.read().clone();
        if let Some(hook) = hook {
            hook.before_flush(&mut guard);
        }
        if self.page_image_logging() {
            // Log the exact image about to hit disk (post-hook, so the
            // stamps it applied are in the image too) and push it into the
            // log file. If the page write then tears, redo rebuilds the
            // page from this image.
            self.wal.append(
                Tid::SYSTEM,
                NULL_LSN,
                &LogRecord::PageImages {
                    pages: vec![(frame.id, guard.as_bytes())],
                },
            );
            self.wal.flush(Durability::Buffered)?;
        } else {
            self.wal.flush_to(guard.page_lsn())?;
        }
        self.disk.write_page(&guard)?;
        // Count only successful writes: a failed write-back left nothing
        // on disk and the frame stays dirty for a retry.
        self.metrics.disk.writes.inc();
        frame.dirty.store(false, Ordering::SeqCst);
        frame.rec_lsn.store(NULL_LSN.0, Ordering::SeqCst);
        self.metrics.buffer.flushes.inc();
        Ok(())
    }

    /// Write back every dirty page (checkpoint). Frames stay cached.
    pub fn flush_all(&self) -> Result<()> {
        for shard in &self.shards {
            let frames: Vec<FrameRef> = {
                let state = self.lock_shard(shard);
                state.frames.values().cloned().collect()
            };
            for frame in frames {
                self.write_back(&frame)?;
            }
        }
        Ok(())
    }

    /// Current dirty-page table: `(page, recLSN)` pairs in page order,
    /// for fuzzy checkpoint records.
    pub fn dirty_page_table(&self) -> Vec<(PageId, Lsn)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let state = self.lock_shard(shard);
            out.extend(
                state
                    .frames
                    .values()
                    .filter(|f| f.is_dirty())
                    .map(|f| (f.id, f.rec_lsn())),
            );
        }
        out.sort_unstable();
        out
    }

    /// Drop every cached frame without writing anything (crash
    /// simulation in tests).
    pub fn drop_all_dirty(&self) {
        for shard in &self.shards {
            let mut state = self.lock_shard(shard);
            let n = state.frames.len();
            state.frames.clear();
            self.len.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Number of cached frames.
    pub fn cached(&self) -> usize {
        self.shards
            .iter()
            .map(|s| self.lock_shard(s).frames.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{FLAG_HISTORICAL, FLAG_VERSIONED};
    use std::path::PathBuf;

    fn setup(
        name: &str,
        capacity: usize,
    ) -> (Arc<DiskManager>, Arc<Wal>, BufferPool, PathBuf, PathBuf) {
        let mut db = std::env::temp_dir();
        db.push(format!("immortal-buf-{name}-{}.db", std::process::id()));
        let mut wal = std::env::temp_dir();
        wal.push(format!("immortal-buf-{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(&wal);
        let (disk, _) = DiskManager::open(&db).unwrap();
        let disk = Arc::new(disk);
        let w = Arc::new(Wal::open(&wal).unwrap());
        let pool = BufferPool::new(Arc::clone(&disk), Arc::clone(&w), capacity);
        (disk, w, pool, db, wal)
    }

    #[test]
    fn fetch_caches_frames() {
        let (_d, _w, pool, db, wal) = setup("cache", 16);
        let f = pool.new_page(PageType::Leaf, 0, 0).unwrap();
        let id = f.page_id();
        drop(f);
        let f1 = pool.fetch(id).unwrap();
        let f2 = pool.fetch(id).unwrap();
        assert!(Arc::ptr_eq(&f1, &f2));
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wal);
    }

    #[test]
    fn install_takes_the_image_and_reads_nothing() {
        let (disk, _w, pool, db, wal) = setup("install", 8);
        let image = |id: PageId, key: &[u8]| {
            let mut p = Page::zeroed();
            p.format(id, PageType::Leaf, 0, 0);
            p.insert_sorted(key, b"v", 0).unwrap();
            p
        };
        let key_of = |f: &FrameRef| {
            let g = f.read();
            g.rec_key(g.slot(0)).to_vec()
        };
        // A page just allocated: cached dirty, never read back.
        let id = disk.allocate().unwrap();
        pool.install(image(id, b"fresh"), Lsn(7));
        let f = pool.fetch(id).unwrap();
        assert_eq!(key_of(&f), b"fresh");
        assert!(f.is_dirty());
        assert_eq!(f.rec_lsn(), Lsn(7));
        // Over a resident frame: the same frame, the new image.
        pool.install(image(id, b"again"), Lsn(9));
        assert_eq!(key_of(&f), b"again");
        assert_eq!(f.rec_lsn(), Lsn(7), "dirty since the first install");
        assert!(Arc::ptr_eq(&f, &pool.fetch(id).unwrap()));
        drop(f);
        // Installs count against the capacity like fetched pages do, and
        // what is evicted comes back from disk as installed.
        for _ in 0..24 {
            let other = disk.allocate().unwrap();
            pool.install(image(other, b"other"), Lsn(9));
        }
        assert!(pool.cached() <= 9, "{} frames cached", pool.cached());
        assert_eq!(pool.metrics().disk.reads.get(), 0);
        assert_eq!(key_of(&pool.fetch(id).unwrap()), b"again");
        assert_eq!(pool.metrics().disk.reads.get(), 1);
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wal);
    }

    #[test]
    fn write_read_through_latches() {
        let (_d, _w, pool, db, wal) = setup("latch", 16);
        let f = pool.new_page(PageType::Leaf, 0, 0).unwrap();
        {
            let mut g = f.write();
            g.insert_sorted(b"k", b"v", 0).unwrap();
            f.mark_dirty(Lsn(1));
        }
        {
            let g = f.read();
            assert_eq!(g.rec_data(g.slot(0)), b"v");
        }
        assert!(f.is_dirty());
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wal);
    }

    #[test]
    fn optimistic_read_sees_committed_writes() {
        let (_d, _w, pool, db, wal) = setup("optread", 16);
        let f = pool.new_page(PageType::Leaf, 0, 0).unwrap();
        {
            let mut g = f.write();
            g.insert_sorted(b"k", b"v", 0).unwrap();
        }
        let v = f
            .try_read_optimistic(|p| p.rec_data(p.slot(0)).to_vec())
            .expect("no writer active");
        assert_eq!(v, b"v");
        // A held write latch makes the counter odd and fails the attempt.
        let g = f.write();
        assert!(f.try_read_optimistic(|_| ()).is_none());
        drop(g);
        assert!(f.try_read_optimistic(|_| ()).is_some());
        assert_eq!(f.latch_version() % 2, 0);
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wal);
    }

    #[test]
    fn read_optimistic_falls_back_under_writer() {
        let (_d, _w, pool, db, wal) = setup("optfall", 16);
        let f = pool.new_page(PageType::Leaf, 0, 0).unwrap();
        {
            let mut g = f.write();
            g.insert_sorted(b"k", b"v", 0).unwrap();
        }
        let metrics = MetricsRegistry::new();
        // No writer: first attempt validates.
        let v = f.read_optimistic(&metrics, |p| p.rec_data(p.slot(0)).to_vec());
        assert_eq!(v, b"v");
        assert_eq!(metrics.latch.optimistic_reads.get(), 1);
        assert_eq!(metrics.latch.pessimistic_fallbacks.get(), 0);
        // Writer holds the latch in another thread: every optimistic
        // attempt fails and the reader must fall back to the shared
        // latch, which blocks until the writer releases.
        let f2 = Arc::clone(&f);
        let m2 = metrics.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            let mut g = f2.write();
            tx.send(()).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(30));
            g.insert_sorted(b"k2", b"v2", 0).unwrap();
        });
        rx.recv().unwrap();
        let v = f.read_optimistic(&m2, |p| p.slot_count());
        assert_eq!(v, 2, "fallback read must see the completed write");
        assert_eq!(
            metrics.latch.optimistic_retries.get(),
            OPTIMISTIC_RETRIES as u64
        );
        assert_eq!(metrics.latch.pessimistic_fallbacks.get(), 1);
        writer.join().unwrap();
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wal);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (disk, _w, pool, db, wal) = setup("evict", 8);
        let mut ids = Vec::new();
        for i in 0..30u8 {
            let f = pool.new_page(PageType::Leaf, 0, 0).unwrap();
            {
                let mut g = f.write();
                g.insert_sorted(&[i], &[i], 0).unwrap();
            }
            f.mark_dirty(Lsn(0));
            ids.push(f.page_id());
            drop(f);
            // Touch pages to trigger eviction sweeps.
            let _ = pool.fetch(ids[0]).ok();
        }
        assert!(pool.cached() <= 30);
        pool.flush_all().unwrap();
        // Every page readable directly from disk with its content.
        for (i, id) in ids.iter().enumerate() {
            let p = disk.read_page(*id).unwrap();
            assert_eq!(p.rec_key(p.slot(0)), &[i as u8]);
        }
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wal);
    }

    /// A clean leaf of the given flags, cached as a fresh frame.
    fn clean_page(pool: &BufferPool, flags: u8) -> FrameRef {
        let f = pool.new_page(PageType::Leaf, flags, 0).unwrap();
        pool.write_back(&f).unwrap();
        f
    }

    /// Install a brand-new page, which can push the pool over capacity.
    fn install_new(disk: &DiskManager, pool: &BufferPool) -> PageId {
        let id = disk.allocate().unwrap();
        let mut p = Page::zeroed();
        p.format(id, PageType::Leaf, 0, 0);
        pool.install(p, Lsn(1));
        id
    }

    fn history_leaves(pool: &BufferPool) -> usize {
        let shards = pool.shards.iter();
        shards
            .map(|s| s.history_leaves.load(Ordering::Relaxed))
            .sum()
    }

    fn resident(pool: &BufferPool, id: PageId) -> bool {
        pool.lock_shard(pool.shard_for(id)).frames.contains_key(&id)
    }

    #[test]
    fn history_frames_are_evicted_before_current_ones() {
        let (disk, _w, pool, db, wal) = setup("histfirst", 8);
        let history: Vec<FrameRef> = (0..3)
            .map(|_| clean_page(&pool, FLAG_VERSIONED | FLAG_HISTORICAL))
            .collect();
        let current: Vec<PageId> = (0..5)
            .map(|_| clean_page(&pool, FLAG_VERSIONED).page_id())
            .collect();
        let pinned = Arc::clone(&history[0]);
        let history: Vec<PageId> = history.into_iter().map(|f| f.page_id()).collect();
        let m = pool.metrics();
        // Two frames over: both unpinned history frames go, although
        // every frame was referenced as recently as the others.
        let fresh: Vec<PageId> = (0..2).map(|_| install_new(&disk, &pool)).collect();
        assert_eq!(m.buffer.evictions.get(), 2);
        assert_eq!(m.buffer.history_evictions.get(), 2);
        for id in current.iter().chain(&fresh) {
            assert!(resident(&pool, *id), "current page {id:?} was evicted");
        }
        // The pinned history frame is the only one left: the sweep falls
        // back to current frames and leaves it where it is.
        install_new(&disk, &pool);
        assert_eq!(m.buffer.evictions.get(), 3);
        assert_eq!(m.buffer.history_evictions.get(), 2);
        assert!(Arc::ptr_eq(&pinned, &pool.fetch(history[0]).unwrap()));
        assert!(!resident(&pool, history[1]) && !resident(&pool, history[2]));
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wal);
    }

    #[test]
    fn an_image_written_in_place_takes_its_class() {
        let (disk, _w, pool, db, wal) = setup("reclassify", 8);
        // Redo of a time split's history page onto a page the disk never
        // got: the frame starts as a zeroed current page.
        let id = disk.allocate().unwrap();
        let (f, _) = pool.fetch_or_reset(id).unwrap();
        assert_eq!(history_leaves(&pool), 0);
        f.write()
            .format(id, PageType::Leaf, FLAG_VERSIONED | FLAG_HISTORICAL, 0);
        assert_eq!(history_leaves(&pool), 1);
        pool.write_back(&f).unwrap();
        drop(f);
        for _ in 0..7 {
            clean_page(&pool, FLAG_VERSIONED);
        }
        install_new(&disk, &pool);
        assert_eq!(pool.metrics().buffer.history_evictions.get(), 1);
        assert!(!resident(&pool, id));
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wal);
    }

    #[test]
    fn second_chance_applies_among_current_frames() {
        let (disk, w, _pool, db, wal) = setup("secondchance", 8);
        // One shard, so the sweep order is the one table's.
        let pool = BufferPool::with_config(Arc::clone(&disk), w, 8, 1, MetricsRegistry::new());
        let ids: Vec<PageId> = (0..8)
            .map(|_| clean_page(&pool, FLAG_VERSIONED).page_id())
            .collect();
        // The first sweep clears every referenced bit and takes one frame.
        install_new(&disk, &pool);
        assert_eq!(pool.metrics().buffer.evictions.get(), 1);
        let left: Vec<PageId> = ids.into_iter().filter(|id| resident(&pool, *id)).collect();
        assert_eq!(left.len(), 7);
        // Touch all but one: the untouched frame is the next victim.
        let untouched = left[3];
        for id in left.iter().filter(|id| **id != untouched) {
            pool.fetch(*id).unwrap();
        }
        install_new(&disk, &pool);
        assert_eq!(pool.metrics().buffer.evictions.get(), 2);
        assert_eq!(pool.metrics().buffer.history_evictions.get(), 0);
        for id in left.iter().filter(|id| **id != untouched) {
            assert!(resident(&pool, *id), "referenced page {id:?} was evicted");
        }
        assert!(!resident(&pool, untouched));
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wal);
    }

    #[test]
    fn a_dirty_history_frame_is_written_back_before_it_is_dropped() {
        let (disk, _w, pool, db, wal) = setup("histdirty", 8);
        let f = pool
            .new_page(PageType::Leaf, FLAG_VERSIONED | FLAG_HISTORICAL, 0)
            .unwrap();
        let id = f.page_id();
        {
            let mut g = f.write();
            g.insert_sorted(b"old", b"version", 0).unwrap();
        }
        f.mark_dirty(Lsn(0));
        drop(f);
        for _ in 0..7 {
            clean_page(&pool, FLAG_VERSIONED);
        }
        let writes = pool.metrics().disk.writes.get();
        install_new(&disk, &pool);
        assert_eq!(pool.metrics().buffer.history_evictions.get(), 1);
        assert_eq!(pool.metrics().disk.writes.get(), writes + 1);
        let p = disk.read_page(id).unwrap();
        assert!(p.is_historical());
        assert_eq!(p.rec_data(p.slot(0)), b"version");
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wal);
    }

    #[test]
    fn dirty_page_table_reports_rec_lsn() {
        let (_d, _w, pool, db, wal) = setup("dpt", 16);
        let f = pool.new_page(PageType::Leaf, 0, 0).unwrap();
        pool.flush_all().unwrap(); // frame now clean
        f.mark_dirty(Lsn(77));
        f.mark_dirty(Lsn(99)); // recLSN stays at first dirtying record
        let dpt = pool.dirty_page_table();
        assert!(dpt.iter().any(|(p, l)| *p == f.page_id() && *l == Lsn(77)));
        pool.flush_all().unwrap();
        assert!(pool.dirty_page_table().is_empty());
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wal);
    }

    #[test]
    fn flush_hook_runs_before_write_back() {
        struct StampAll;
        impl FlushHook for StampAll {
            fn before_flush(&self, page: &mut Page) {
                if page.is_versioned() && page.slot_count() > 0 {
                    let off = page.slot(0);
                    if page.rec_is_tid_marked(off) {
                        page.stamp_rec(off, immortaldb_common::Timestamp::new(500, 1));
                    }
                }
            }
        }
        let (disk, _w, pool, db, wal) = setup("hook", 16);
        pool.set_flush_hook(Arc::new(StampAll));
        let f = pool.new_page(PageType::Leaf, FLAG_VERSIONED, 0).unwrap();
        let id = f.page_id();
        {
            let mut g = f.write();
            crate::version::add_version(&mut g, b"k", b"v", false, immortaldb_common::Tid(9))
                .unwrap();
        }
        f.mark_dirty(Lsn(0));
        drop(f);
        pool.flush_all().unwrap();
        let p = disk.read_page(id).unwrap();
        let off = p.slot(0);
        assert!(!p.rec_is_tid_marked(off));
        assert_eq!(
            p.rec_timestamp(off),
            immortaldb_common::Timestamp::new(500, 1)
        );
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wal);
    }

    #[test]
    fn failed_write_back_keeps_frame_dirty_and_data_safe() {
        use crate::vfs::{StdFs, Vfs, VfsFile};

        // A VFS whose data-file writes and syncs fail while `fail` is set.
        struct FailFile {
            inner: Arc<dyn VfsFile>,
            fail: Arc<AtomicBool>,
        }
        impl VfsFile for FailFile {
            fn read_exact_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
                self.inner.read_exact_at(buf, off)
            }
            fn write_all_at(&self, data: &[u8], off: u64) -> Result<()> {
                if self.fail.load(Ordering::SeqCst) {
                    return Err(Error::Io(std::io::Error::other("injected write error")));
                }
                self.inner.write_all_at(data, off)
            }
            fn sync(&self) -> Result<()> {
                if self.fail.load(Ordering::SeqCst) {
                    return Err(Error::Io(std::io::Error::other("injected fsync error")));
                }
                self.inner.sync()
            }
            fn len(&self) -> Result<u64> {
                self.inner.len()
            }
            fn set_len(&self, len: u64) -> Result<()> {
                self.inner.set_len(len)
            }
        }
        struct FailVfs {
            fail: Arc<AtomicBool>,
        }
        impl Vfs for FailVfs {
            fn open(&self, path: &std::path::Path) -> Result<Arc<dyn VfsFile>> {
                Ok(Arc::new(FailFile {
                    inner: StdFs.open(path)?,
                    fail: Arc::clone(&self.fail),
                }))
            }
            fn read_file(&self, path: &std::path::Path) -> Result<Option<Vec<u8>>> {
                StdFs.read_file(path)
            }
            fn write_file_atomic(&self, path: &std::path::Path, data: &[u8]) -> Result<()> {
                StdFs.write_file_atomic(path, data)
            }
            fn remove_file(&self, path: &std::path::Path) -> Result<()> {
                StdFs.remove_file(path)
            }
            fn exists(&self, path: &std::path::Path) -> bool {
                StdFs.exists(path)
            }
        }

        let mut db = std::env::temp_dir();
        db.push(format!("immortal-buf-failvfs-{}.db", std::process::id()));
        let mut wp = std::env::temp_dir();
        wp.push(format!("immortal-buf-failvfs-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(&wp);
        let fail = Arc::new(AtomicBool::new(false));
        let vfs: Arc<dyn Vfs> = Arc::new(FailVfs {
            fail: Arc::clone(&fail),
        });
        let (disk, _) = DiskManager::open_with(Arc::clone(&vfs), &db).unwrap();
        let disk = Arc::new(disk);
        let w = Arc::new(Wal::open_with(Arc::clone(&vfs), &wp, MetricsRegistry::new()).unwrap());
        let pool = BufferPool::new(Arc::clone(&disk), Arc::clone(&w), 8);

        // Direct write-back failure: the dirty bit must survive the error.
        let f = pool.new_page(PageType::Leaf, 0, 0).unwrap();
        let probe = f.page_id();
        {
            let mut g = f.write();
            g.insert_sorted(b"probe", b"p", 0).unwrap();
        }
        drop(f);
        pool.flush_all().unwrap();
        pool.drop_all_dirty(); // forget clean frames; probe stays on disk

        // 12 dirty pages in a capacity-8 pool.
        let mut ids = Vec::new();
        for i in 0..12u8 {
            let f = pool.new_page(PageType::Leaf, 0, 0).unwrap();
            {
                let mut g = f.write();
                g.insert_sorted(&[i], &[i], 0).unwrap();
            }
            f.mark_dirty(Lsn(0));
            ids.push(f.page_id());
        }
        fail.store(true, Ordering::SeqCst);
        let writes_before = pool.metrics().disk.writes.get();
        assert!(pool.flush_all().is_err(), "flush must report the I/O error");
        assert_eq!(
            pool.dirty_page_table().len(),
            12,
            "no dirty bit may be cleared by a failed flush"
        );
        // Eviction path: a fetch miss over capacity tries to evict, every
        // victim write-back fails — the fetch itself must still succeed
        // and the victims must stay cached and dirty.
        let before = pool.metrics().buffer.flush_errors.get();
        let pf = pool.fetch(probe).unwrap();
        assert_eq!(pf.read().rec_key(pf.read().slot(0)), b"probe");
        assert!(pool.metrics().buffer.flush_errors.get() > before);
        assert_eq!(pool.dirty_page_table().len(), 12);
        assert_eq!(
            pool.metrics().disk.writes.get(),
            writes_before,
            "disk.writes counts successes only; failed write-backs must not move it"
        );
        // Fault clears: everything drains to disk intact.
        fail.store(false, Ordering::SeqCst);
        pool.flush_all().unwrap();
        assert!(pool.dirty_page_table().is_empty());
        assert_eq!(
            pool.metrics().disk.writes.get(),
            writes_before + 12,
            "each successful write-back counts exactly once"
        );
        for (i, id) in ids.iter().enumerate() {
            let p = disk.read_page(*id).unwrap();
            assert_eq!(p.rec_key(p.slot(0)), &[i as u8]);
        }
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(&wp);
    }

    #[test]
    fn ensure_allocated_extends_file() {
        let (disk, _w, pool, db, wal) = setup("ensure", 16);
        pool.ensure_allocated(PageId(5)).unwrap();
        assert!(disk.num_pages() >= 6);
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(wal);
    }
}
