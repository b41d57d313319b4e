//! Slotted page layout (§3.2 of the paper).
//!
//! Every page is [`PAGE_SIZE`] bytes: a fixed header, a record heap
//! growing upward from the header, and a slot array growing downward from
//! the page end. Slots are kept sorted by the key of the record they point
//! at, so lookups are binary searches. For versioned (transaction-time)
//! pages a slot points at the *newest* version of its record; older
//! versions are reachable only through the intra-page version chain
//! (see [`crate::version`]).
//!
//! The header carries the two fields Immortal DB adds to the conventional
//! page header: the **history pointer** (page holding versions that once
//! lived here) and the **split time** (start of this page's time range),
//! plus the end of the time range for historical pages.

use immortaldb_common::codec::{get_u16, get_u32, get_u64, put_u16, put_u32, put_u64};
use immortaldb_common::time::SN_TID_MARK;
use immortaldb_common::{Error, Lsn, PageId, Result, Tid, Timestamp, PAGE_SIZE, VERSION_TAIL};

/// Size of the fixed page header in bytes.
pub const HEADER_SIZE: usize = 64;

/// Per-record header preceding the key bytes: `key_len:u16 | data_len:u16
/// | flags:u8`.
pub const REC_HDR: usize = 5;

// Header field offsets.
const OFF_TYPE: usize = 0;
const OFF_FLAGS: usize = 1;
const OFF_LEVEL: usize = 2;
const OFF_PAGE_ID: usize = 4;
const OFF_LSN: usize = 8;
const OFF_SLOT_COUNT: usize = 16;
const OFF_FREE_LOWER: usize = 18;
const OFF_FRAG: usize = 20;
const OFF_HISTORY: usize = 24;
const OFF_NEXT_LEAF: usize = 28;
const OFF_START_TTIME: usize = 32;
const OFF_START_SN: usize = 40;
const OFF_END_TTIME: usize = 44;
const OFF_END_SN: usize = 52;
/// Whole-page CRC, stamped by the disk manager on write and verified on
/// read (the field itself is zeroed while computing). In-memory pages
/// leave it zero. 4 bytes follow as reserved header space.
const OFF_CRC: usize = 56;

/// Page flags.
pub const FLAG_HISTORICAL: u8 = 0b0000_0001;
/// Set on leaf pages of transaction-time (or snapshot-enabled) tables:
/// records carry the 14-byte version tail.
pub const FLAG_VERSIONED: u8 = 0b0000_0010;

/// Record flags.
pub const RFLAG_DELETE_STUB: u8 = 0b0000_0001;
/// The record was logically removed (e.g. popped by transaction rollback)
/// and its bytes await compaction.
pub const RFLAG_DEAD: u8 = 0b0000_0010;
/// The record's data is a prefix/suffix delta against the next *newer*
/// version of the same chain (its walk-order predecessor), not a full
/// image. Only ever set on non-head records of historical pages; delta
/// records store no key bytes (`key_len == 0`). See
/// [`crate::version::apply_delta`].
pub const RFLAG_DELTA: u8 = 0b0000_0100;

/// What a page is used for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageType {
    /// Page 0: database metadata (tree directory, bootstrap info).
    Meta,
    /// B-tree leaf holding data records (current or historical).
    Leaf,
    /// B-tree internal node holding (separator key, child) entries.
    Index,
    /// Allocated but unused.
    Free,
}

impl PageType {
    fn to_u8(self) -> u8 {
        match self {
            PageType::Meta => 0,
            PageType::Leaf => 1,
            PageType::Index => 2,
            PageType::Free => 3,
        }
    }

    fn from_u8(v: u8) -> Result<PageType> {
        Ok(match v {
            0 => PageType::Meta,
            1 => PageType::Leaf,
            2 => PageType::Index,
            3 => PageType::Free,
            other => return Err(Error::Corruption(format!("unknown page type {other}"))),
        })
    }
}

/// One record of a versioned page with its version tail
/// ([`Page::rec_version`]).
#[derive(Debug, Clone, Copy)]
pub struct RecVersion<'a> {
    /// Heap offset of the record.
    pub off: usize,
    pub flags: u8,
    /// The stored data: a full image, or a delta payload
    /// ([`RecVersion::is_delta`]).
    pub data: &'a [u8],
    /// Heap offset of the next older version (0 = none).
    pub vp: usize,
    /// Raw tail fields (see [`Page::rec_ttime`] / [`Page::rec_sn`]).
    pub ttime: u64,
    pub sn: u32,
}

impl RecVersion<'_> {
    #[inline]
    pub fn is_stub(&self) -> bool {
        self.flags & RFLAG_DELETE_STUB != 0
    }

    #[inline]
    pub fn is_delta(&self) -> bool {
        self.flags & RFLAG_DELTA != 0
    }

    /// The commit timestamp, or the TID of a version not yet stamped.
    #[inline]
    pub fn stamp(&self) -> std::result::Result<Timestamp, Tid> {
        if self.sn == SN_TID_MARK {
            Err(Tid(self.ttime))
        } else {
            Ok(Timestamp {
                ttime: self.ttime,
                sn: self.sn,
            })
        }
    }
}

fn ts_at(bytes: &[u8], ttime_off: usize, sn_off: usize) -> Timestamp {
    Timestamp {
        ttime: get_u64(bytes, ttime_off),
        sn: get_u32(bytes, sn_off),
    }
}

/// A copy of just the fixed page header: what a history-chain walk needs
/// to decide whether a page covers a time (its `[start_ts, end_ts)`
/// range) and where the chain continues, without the 8 KiB image behind
/// it. Produced by [`crate::buffer::Frame::peek_header`].
#[derive(Clone, Copy)]
pub struct PageHeader([u8; HEADER_SIZE]);

impl PageHeader {
    pub(crate) fn from_bytes(bytes: [u8; HEADER_SIZE]) -> PageHeader {
        PageHeader(bytes)
    }

    pub fn page_type(&self) -> Result<PageType> {
        PageType::from_u8(self.0[OFF_TYPE])
    }

    /// See [`Page::start_ts`].
    pub fn start_ts(&self) -> Timestamp {
        ts_at(&self.0, OFF_START_TTIME, OFF_START_SN)
    }

    /// See [`Page::end_ts`].
    pub fn end_ts(&self) -> Timestamp {
        ts_at(&self.0, OFF_END_TTIME, OFF_END_SN)
    }

    /// See [`Page::history_page`].
    pub fn history_page(&self) -> PageId {
        PageId(get_u32(&self.0, OFF_HISTORY))
    }
}

/// An in-memory page image. Always exactly [`PAGE_SIZE`] bytes.
///
/// The byte array is stored inline (not boxed) so that a whole-struct
/// assignment (`*guard = new_page`) rewrites bytes in place instead of
/// swapping heap allocations — a stability requirement for the buffer
/// pool's optimistic (seqlock-style) readers, which may race a copy of
/// the frame's page image against a writer and rely on version
/// validation (not pointer liveness) to discard torn copies.
/// `repr(transparent)`: those readers copy the image — or just its first
/// [`HEADER_SIZE`] bytes — as raw bytes from the start of the struct.
#[derive(Clone)]
#[repr(transparent)]
pub struct Page {
    bytes: [u8; PAGE_SIZE],
}

impl Page {
    /// A zeroed page (type `Meta`/0 until formatted).
    pub fn zeroed() -> Page {
        Page {
            bytes: [0u8; PAGE_SIZE],
        }
    }

    /// Build a page from raw disk bytes.
    pub fn from_bytes(src: &[u8]) -> Result<Page> {
        if src.len() != PAGE_SIZE {
            return Err(Error::Corruption(format!(
                "page image of {} bytes (expected {PAGE_SIZE})",
                src.len()
            )));
        }
        let mut p = Page::zeroed();
        p.bytes.copy_from_slice(src);
        Ok(p)
    }

    /// Format this page as a fresh, empty page of the given type.
    pub fn format(&mut self, id: PageId, ptype: PageType, flags: u8, level: u16) {
        self.bytes.fill(0);
        self.bytes[OFF_TYPE] = ptype.to_u8();
        self.bytes[OFF_FLAGS] = flags;
        put_u16(&mut self.bytes[..], OFF_LEVEL, level);
        put_u32(&mut self.bytes[..], OFF_PAGE_ID, id.0);
        put_u16(&mut self.bytes[..], OFF_FREE_LOWER, HEADER_SIZE as u16);
        self.set_end_ts(Timestamp::MAX);
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..]
    }

    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[..]
    }

    // -- header accessors ------------------------------------------------

    pub fn page_type(&self) -> Result<PageType> {
        PageType::from_u8(self.bytes[OFF_TYPE])
    }

    pub fn flags(&self) -> u8 {
        self.bytes[OFF_FLAGS]
    }

    pub fn set_flags(&mut self, flags: u8) {
        self.bytes[OFF_FLAGS] = flags;
    }

    pub fn is_historical(&self) -> bool {
        self.flags() & FLAG_HISTORICAL != 0
    }

    pub fn is_versioned(&self) -> bool {
        self.flags() & FLAG_VERSIONED != 0
    }

    /// Tree level: 0 for leaves, >0 for index nodes.
    pub fn level(&self) -> u16 {
        get_u16(&self.bytes[..], OFF_LEVEL)
    }

    pub fn page_id(&self) -> PageId {
        PageId(get_u32(&self.bytes[..], OFF_PAGE_ID))
    }

    pub fn page_lsn(&self) -> Lsn {
        Lsn(get_u64(&self.bytes[..], OFF_LSN))
    }

    pub fn set_page_lsn(&mut self, lsn: Lsn) {
        put_u64(&mut self.bytes[..], OFF_LSN, lsn.0);
    }

    #[inline]
    pub fn slot_count(&self) -> usize {
        get_u16(&self.bytes[..], OFF_SLOT_COUNT) as usize
    }

    fn set_slot_count(&mut self, n: usize) {
        put_u16(&mut self.bytes[..], OFF_SLOT_COUNT, n as u16);
    }

    /// First free byte of the record heap.
    pub fn free_lower(&self) -> usize {
        get_u16(&self.bytes[..], OFF_FREE_LOWER) as usize
    }

    fn set_free_lower(&mut self, v: usize) {
        put_u16(&mut self.bytes[..], OFF_FREE_LOWER, v as u16);
    }

    /// Bytes occupied by dead records, reclaimable by [`Self::compact`].
    pub fn frag_space(&self) -> usize {
        get_u16(&self.bytes[..], OFF_FRAG) as usize
    }

    pub(crate) fn add_frag(&mut self, n: usize) {
        let v = self.frag_space() + n;
        put_u16(&mut self.bytes[..], OFF_FRAG, v as u16);
    }

    fn set_frag(&mut self, n: usize) {
        put_u16(&mut self.bytes[..], OFF_FRAG, n as u16);
    }

    /// The history pointer: page holding versions that previously lived in
    /// this page's key range (next link of the time-split chain).
    pub fn history_page(&self) -> PageId {
        PageId(get_u32(&self.bytes[..], OFF_HISTORY))
    }

    pub fn set_history_page(&mut self, p: PageId) {
        put_u32(&mut self.bytes[..], OFF_HISTORY, p.0);
    }

    /// Right sibling for leaf scans (current pages only).
    pub fn next_leaf(&self) -> PageId {
        PageId(get_u32(&self.bytes[..], OFF_NEXT_LEAF))
    }

    pub fn set_next_leaf(&mut self, p: PageId) {
        put_u32(&mut self.bytes[..], OFF_NEXT_LEAF, p.0);
    }

    /// Start of this page's time range (the paper's "split time" header
    /// field). Versions living in this page all have lifetimes
    /// intersecting `[start_ts, end_ts)`.
    pub fn start_ts(&self) -> Timestamp {
        ts_at(&self.bytes, OFF_START_TTIME, OFF_START_SN)
    }

    pub fn set_start_ts(&mut self, ts: Timestamp) {
        put_u64(&mut self.bytes[..], OFF_START_TTIME, ts.ttime);
        put_u32(&mut self.bytes[..], OFF_START_SN, ts.sn);
    }

    /// End of this page's time range: `Timestamp::MAX` for current pages,
    /// the split time for historical pages.
    pub fn end_ts(&self) -> Timestamp {
        ts_at(&self.bytes, OFF_END_TTIME, OFF_END_SN)
    }

    pub fn set_end_ts(&mut self, ts: Timestamp) {
        put_u64(&mut self.bytes[..], OFF_END_TTIME, ts.ttime);
        put_u32(&mut self.bytes[..], OFF_END_SN, ts.sn);
    }

    // -- slot array -------------------------------------------------------

    /// Heap offset stored in slot `i`.
    #[inline]
    pub fn slot(&self, i: usize) -> usize {
        debug_assert!(i < self.slot_count());
        get_u16(&self.bytes[..], PAGE_SIZE - 2 * (i + 1)) as usize
    }

    pub fn set_slot(&mut self, i: usize, off: usize) {
        debug_assert!(i < self.slot_count());
        put_u16(&mut self.bytes[..], PAGE_SIZE - 2 * (i + 1), off as u16);
    }

    /// Insert a new slot at index `i`, shifting later slots down.
    fn insert_slot(&mut self, i: usize, off: usize) {
        let n = self.slot_count();
        debug_assert!(i <= n);
        // Slot j lives at PAGE_SIZE - 2*(j+1); shifting "later" slots means
        // moving bytes of slots i..n two bytes lower in memory.
        let lo = PAGE_SIZE - 2 * (n + 1);
        let hi = PAGE_SIZE - 2 * i;
        self.bytes.copy_within(lo + 2..hi, lo);
        self.set_slot_count(n + 1);
        self.set_slot(i, off);
    }

    /// Add a slot at position `pos` pointing at an already allocated
    /// record (used when rebuilding chains during splits).
    pub(crate) fn add_slot_for(&mut self, pos: usize, off: usize) {
        self.insert_slot(pos, off);
    }

    /// Remove slot `i`, shifting later slots up.
    pub(crate) fn remove_slot(&mut self, i: usize) {
        let n = self.slot_count();
        debug_assert!(i < n);
        let lo = PAGE_SIZE - 2 * n;
        let hi = PAGE_SIZE - 2 * (i + 1);
        self.bytes.copy_within(lo..hi, lo + 2);
        self.set_slot_count(n - 1);
    }

    /// Contiguous free space between the heap and the slot array.
    pub fn contiguous_free(&self) -> usize {
        let slot_end = PAGE_SIZE - 2 * self.slot_count();
        slot_end.saturating_sub(self.free_lower())
    }

    /// Free space counting fragmentation (available after compaction).
    pub fn total_free(&self) -> usize {
        self.contiguous_free() + self.frag_space()
    }

    /// Fraction of the usable area occupied by live data (used to decide
    /// whether a time split should be followed by a key split).
    pub fn utilization(&self) -> f64 {
        let usable = (PAGE_SIZE - HEADER_SIZE) as f64;
        let used = usable - self.total_free() as f64;
        used / usable
    }

    // -- record access ----------------------------------------------------

    #[inline]
    fn rec_key_len(&self, off: usize) -> usize {
        get_u16(&self.bytes[..], off) as usize
    }

    #[inline]
    fn rec_data_len(&self, off: usize) -> usize {
        get_u16(&self.bytes[..], off + 2) as usize
    }

    #[inline]
    pub fn rec_flags(&self, off: usize) -> u8 {
        self.bytes[off + 4]
    }

    pub fn set_rec_flags(&mut self, off: usize, flags: u8) {
        self.bytes[off + 4] = flags;
    }

    pub fn rec_is_stub(&self, off: usize) -> bool {
        self.rec_flags(off) & RFLAG_DELETE_STUB != 0
    }

    pub fn rec_is_delta(&self, off: usize) -> bool {
        self.rec_flags(off) & RFLAG_DELTA != 0
    }

    #[inline]
    pub fn rec_key(&self, off: usize) -> &[u8] {
        let kl = self.rec_key_len(off);
        &self.bytes[off + REC_HDR..off + REC_HDR + kl]
    }

    #[inline]
    pub fn rec_data(&self, off: usize) -> &[u8] {
        let kl = self.rec_key_len(off);
        let dl = self.rec_data_len(off);
        &self.bytes[off + REC_HDR + kl..off + REC_HDR + kl + dl]
    }

    /// Total on-page size of the record at `off` (accounts for the version
    /// tail iff this page is versioned).
    pub fn rec_size(&self, off: usize) -> usize {
        let tail = if self.is_versioned() { VERSION_TAIL } else { 0 };
        REC_HDR + self.rec_key_len(off) + self.rec_data_len(off) + tail
    }

    fn tail_off(&self, off: usize) -> usize {
        debug_assert!(self.is_versioned(), "version tail on unversioned page");
        off + REC_HDR + self.rec_key_len(off) + self.rec_data_len(off)
    }

    /// The version at `off` as a chain walk reads it: flags, data and
    /// version tail, its lengths read once. Inlined, like the accessors
    /// under it, into the walk of another crate: returned through memory
    /// instead, a version cost the cursor a store-forwarding stall.
    #[inline(always)]
    pub fn rec_version(&self, off: usize) -> RecVersion<'_> {
        let data = off + REC_HDR + self.rec_key_len(off);
        let t = data + self.rec_data_len(off);
        RecVersion {
            off,
            flags: self.rec_flags(off),
            data: &self.bytes[data..t],
            vp: get_u16(&self.bytes[..], t) as usize,
            ttime: get_u64(&self.bytes[..], t + 2),
            sn: get_u32(&self.bytes[..], t + 10),
        }
    }

    /// Version pointer: heap offset of the previous version of this record
    /// in the same page (0 = none).
    pub fn rec_vp(&self, off: usize) -> usize {
        let t = self.tail_off(off);
        get_u16(&self.bytes[..], t) as usize
    }

    pub fn set_rec_vp(&mut self, off: usize, vp: usize) {
        let t = self.tail_off(off);
        put_u16(&mut self.bytes[..], t, vp as u16);
    }

    /// Raw Ttime field (commit time, or the TID for non-timestamped
    /// records).
    pub fn rec_ttime(&self, off: usize) -> u64 {
        let t = self.tail_off(off);
        get_u64(&self.bytes[..], t + 2)
    }

    /// Raw SN field ([`SN_TID_MARK`] marks a non-timestamped record).
    pub fn rec_sn(&self, off: usize) -> u32 {
        let t = self.tail_off(off);
        get_u32(&self.bytes[..], t + 10)
    }

    /// Whether the record still carries a TID instead of a timestamp.
    pub fn rec_is_tid_marked(&self, off: usize) -> bool {
        self.rec_sn(off) == SN_TID_MARK
    }

    /// The TID of a non-timestamped record.
    pub fn rec_tid(&self, off: usize) -> Tid {
        debug_assert!(self.rec_is_tid_marked(off));
        Tid(self.rec_ttime(off))
    }

    /// The commit timestamp of a timestamped record.
    pub fn rec_timestamp(&self, off: usize) -> Timestamp {
        debug_assert!(!self.rec_is_tid_marked(off));
        Timestamp {
            ttime: self.rec_ttime(off),
            sn: self.rec_sn(off),
        }
    }

    /// Mark the record with the updating transaction's TID (stage II of
    /// the timestamping protocol).
    pub fn mark_rec_tid(&mut self, off: usize, tid: Tid) {
        let t = self.tail_off(off);
        put_u64(&mut self.bytes[..], t + 2, tid.0);
        put_u32(&mut self.bytes[..], t + 10, SN_TID_MARK);
    }

    /// Replace the TID with the transaction's timestamp (stage IV). This
    /// mutation is deliberately *not* logged (§2.2).
    pub fn stamp_rec(&mut self, off: usize, ts: Timestamp) {
        let t = self.tail_off(off);
        put_u64(&mut self.bytes[..], t + 2, ts.ttime);
        put_u32(&mut self.bytes[..], t + 10, ts.sn);
    }

    /// Copy a raw `(Ttime, SN)` tail verbatim — committed stamp or TID
    /// mark alike (chain rebuilds during packing must not reinterpret).
    pub(crate) fn set_rec_tail_raw(&mut self, off: usize, ttime: u64, sn: u32) {
        let t = self.tail_off(off);
        put_u64(&mut self.bytes[..], t + 2, ttime);
        put_u32(&mut self.bytes[..], t + 10, sn);
    }

    // -- heap allocation ---------------------------------------------------

    /// Append record bytes to the heap (no slot bookkeeping). Returns the
    /// record's heap offset, or [`Error::PageFull`].
    pub(crate) fn alloc_record(
        &mut self,
        key: &[u8],
        data: &[u8],
        rflags: u8,
        need_slot: bool,
    ) -> Result<usize> {
        let tail = if self.is_versioned() { VERSION_TAIL } else { 0 };
        let size = REC_HDR + key.len() + data.len() + tail;
        let slot_cost = if need_slot { 2 } else { 0 };
        if size + slot_cost > self.contiguous_free() {
            return Err(Error::PageFull);
        }
        let off = self.free_lower();
        put_u16(&mut self.bytes[..], off, key.len() as u16);
        put_u16(&mut self.bytes[..], off + 2, data.len() as u16);
        self.bytes[off + 4] = rflags;
        self.bytes[off + REC_HDR..off + REC_HDR + key.len()].copy_from_slice(key);
        self.bytes[off + REC_HDR + key.len()..off + REC_HDR + key.len() + data.len()]
            .copy_from_slice(data);
        if tail != 0 {
            // Zero the version tail; callers set VP/Ttime/SN explicitly.
            let t = off + REC_HDR + key.len() + data.len();
            self.bytes[t..t + VERSION_TAIL].fill(0);
        }
        self.set_free_lower(off + size);
        Ok(off)
    }

    // -- sorted record operations (index pages, unversioned leaves) --------

    /// Binary search the slot array for `key`. `Ok(i)` = slot `i` holds
    /// `key`; `Err(i)` = `key` belongs at slot position `i`.
    pub fn find_slot(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        let n = self.slot_count();
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = self.rec_key(self.slot(mid));
            match k.cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Insert `(key, data)` keeping slots sorted, compacting the heap
    /// first when the record fits only by counting fragmented space. Fails
    /// with [`Error::DuplicateKey`] if the key is present,
    /// [`Error::PageFull`] if there is no room. Redo replays a logged
    /// insert through this same call, so it compacts exactly where the
    /// original insert did.
    pub fn insert_sorted(&mut self, key: &[u8], data: &[u8], rflags: u8) -> Result<usize> {
        let pos = match self.find_slot(key) {
            Ok(_) => return Err(Error::DuplicateKey),
            Err(pos) => pos,
        };
        let tail = if self.is_versioned() { VERSION_TAIL } else { 0 };
        let need = REC_HDR + key.len() + data.len() + tail + 2;
        if need > self.contiguous_free() && need <= self.total_free() {
            self.compact()?;
        }
        let off = self.alloc_record(key, data, rflags, true)?;
        self.insert_slot(pos, off);
        Ok(off)
    }

    /// Remove the record at slot `i` (marks the record dead and drops the
    /// slot).
    pub fn remove_record_at(&mut self, i: usize) {
        let off = self.slot(i);
        let size = self.rec_size(off);
        self.set_rec_flags(off, self.rec_flags(off) | RFLAG_DEAD);
        self.add_frag(size);
        self.remove_slot(i);
    }

    /// Mutable access to the data bytes of the record at `off` (fixed-size
    /// in-place rewrites, e.g. index-entry time ranges).
    pub fn rec_data_mut(&mut self, off: usize) -> &mut [u8] {
        let kl = self.rec_key_len(off);
        let dl = self.rec_data_len(off);
        &mut self.bytes[off + REC_HDR + kl..off + REC_HDR + kl + dl]
    }

    /// Insert allowing the caller to have pre-computed the slot position
    /// (used by versioned chains where the slot may already exist).
    pub(crate) fn insert_at(
        &mut self,
        pos: usize,
        key: &[u8],
        data: &[u8],
        rflags: u8,
    ) -> Result<usize> {
        let off = self.alloc_record(key, data, rflags, true)?;
        self.insert_slot(pos, off);
        Ok(off)
    }

    /// Replace the data of the record for `key` (unversioned pages only).
    /// Reuses the record bytes when the size matches; otherwise removes
    /// the old record and inserts the new one (compacting if necessary —
    /// removing first matters: a dead record still referenced by a slot
    /// would survive compaction and its space could not be counted on).
    pub fn update_sorted(&mut self, key: &[u8], data: &[u8]) -> Result<()> {
        let i = self.find_slot(key).map_err(|_| Error::KeyNotFound)?;
        let off = self.slot(i);
        if self.rec_data_len(off) == data.len() {
            let kl = self.rec_key_len(off);
            self.bytes[off + REC_HDR + kl..off + REC_HDR + kl + data.len()].copy_from_slice(data);
            return Ok(());
        }
        let rflags = self.rec_flags(off);
        let old_size = self.rec_size(off);
        let old_data = self.rec_data(off).to_vec();
        let tail = if self.is_versioned() { VERSION_TAIL } else { 0 };
        let need = REC_HDR + key.len() + data.len() + tail;
        if need > self.contiguous_free() + self.frag_space() + old_size {
            return Err(Error::PageFull);
        }
        // Remove (slot + dead mark) so compaction genuinely reclaims it.
        let size = self.rec_size(off);
        self.set_rec_flags(off, rflags | RFLAG_DEAD);
        self.add_frag(size);
        self.remove_slot(i);
        match self.insert_sorted(key, data, rflags & !RFLAG_DEAD) {
            Ok(_) => Ok(()),
            Err(e) => {
                // Restore the old record so a failed update is a no-op.
                let _ = self.insert_sorted(key, &old_data, rflags & !RFLAG_DEAD);
                Err(e)
            }
        }
    }

    /// Remove the record for `key` (unversioned pages only).
    pub fn remove_sorted(&mut self, key: &[u8]) -> Result<()> {
        let i = self.find_slot(key).map_err(|_| Error::KeyNotFound)?;
        let off = self.slot(i);
        let size = self.rec_size(off);
        self.set_rec_flags(off, self.rec_flags(off) | RFLAG_DEAD);
        self.add_frag(size);
        self.remove_slot(i);
        Ok(())
    }

    /// Rebuild the heap, dropping dead records and preserving slot order
    /// and version-chain links. Safe on both versioned and unversioned
    /// pages.
    pub fn compact(&mut self) -> Result<()> {
        let versioned = self.is_versioned();
        let mut fresh = Page::zeroed();
        fresh.bytes[..HEADER_SIZE].copy_from_slice(&self.bytes[..HEADER_SIZE]);
        fresh.set_slot_count(0);
        fresh.set_free_lower(HEADER_SIZE);
        fresh.set_frag(0);
        let n = self.slot_count();
        for i in 0..n {
            // Copy the whole chain for this slot, newest first, relinking VPs.
            let mut src = self.slot(i);
            let mut prev_new: Option<usize> = None;
            let mut first_new = 0usize;
            loop {
                let off = fresh.alloc_record(
                    self.rec_key(src),
                    self.rec_data(src),
                    self.rec_flags(src),
                    prev_new.is_none(),
                )?;
                if versioned {
                    // Copy the raw tail (Ttime + SN); VP is relinked below.
                    let t_src = self.tail_off(src);
                    let t_dst = fresh.tail_off(off);
                    fresh.bytes[t_dst + 2..t_dst + VERSION_TAIL]
                        .copy_from_slice(&self.bytes[t_src + 2..t_src + VERSION_TAIL]);
                }
                match prev_new {
                    None => first_new = off,
                    Some(p) => fresh.set_rec_vp(p, off),
                }
                prev_new = Some(off);
                if !versioned {
                    break;
                }
                let vp = self.rec_vp(src);
                if vp == 0 {
                    break;
                }
                src = vp;
            }
            fresh.insert_slot(i, first_new);
        }
        *self = fresh;
        Ok(())
    }
}

/// Stamp the page-image CRC into a raw [`PAGE_SIZE`] buffer about to hit
/// disk. The CRC covers the whole image with the CRC field zeroed.
pub fn stamp_image_crc(buf: &mut [u8]) {
    debug_assert_eq!(buf.len(), PAGE_SIZE);
    put_u32(buf, OFF_CRC, 0);
    let crc = immortaldb_common::codec::crc32(buf);
    put_u32(buf, OFF_CRC, crc);
}

/// Verify the page-image CRC of a raw buffer just read from disk, zeroing
/// the CRC field in place (in-memory pages keep it zero). An all-zero
/// image passes: it is a freshly allocated, never-written page.
pub fn verify_image_crc(buf: &mut [u8]) -> bool {
    debug_assert_eq!(buf.len(), PAGE_SIZE);
    let stored = get_u32(buf, OFF_CRC);
    put_u32(buf, OFF_CRC, 0);
    if stored == 0 && buf.iter().all(|&b| b == 0) {
        return true;
    }
    immortaldb_common::codec::crc32(buf) == stored
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.page_id())
            .field("type", &self.page_type())
            .field("flags", &self.flags())
            .field("slots", &self.slot_count())
            .field("free", &self.contiguous_free())
            .field("start_ts", &self.start_ts())
            .field("end_ts", &self.end_ts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(versioned: bool) -> Page {
        let mut p = Page::zeroed();
        let flags = if versioned { FLAG_VERSIONED } else { 0 };
        p.format(PageId(5), PageType::Leaf, flags, 0);
        p
    }

    #[test]
    fn format_initializes_header() {
        let p = leaf(true);
        assert_eq!(p.page_id(), PageId(5));
        assert_eq!(p.page_type().unwrap(), PageType::Leaf);
        assert!(p.is_versioned());
        assert!(!p.is_historical());
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.free_lower(), HEADER_SIZE);
        assert_eq!(p.end_ts(), Timestamp::MAX);
        assert_eq!(p.start_ts(), Timestamp::ZERO);
    }

    #[test]
    fn insert_sorted_keeps_order() {
        let mut p = leaf(false);
        for k in [b"m", b"a", b"z", b"c"] {
            p.insert_sorted(k, b"v", 0).unwrap();
        }
        let keys: Vec<_> = (0..p.slot_count())
            .map(|i| p.rec_key(p.slot(i)).to_vec())
            .collect();
        assert_eq!(
            keys,
            vec![b"a".to_vec(), b"c".to_vec(), b"m".to_vec(), b"z".to_vec()]
        );
        assert!(matches!(
            p.insert_sorted(b"m", b"v", 0),
            Err(Error::DuplicateKey)
        ));
    }

    #[test]
    fn find_slot_boundaries() {
        let mut p = leaf(false);
        p.insert_sorted(b"b", b"1", 0).unwrap();
        p.insert_sorted(b"d", b"2", 0).unwrap();
        assert_eq!(p.find_slot(b"a"), Err(0));
        assert_eq!(p.find_slot(b"b"), Ok(0));
        assert_eq!(p.find_slot(b"c"), Err(1));
        assert_eq!(p.find_slot(b"d"), Ok(1));
        assert_eq!(p.find_slot(b"e"), Err(2));
    }

    #[test]
    fn update_same_size_in_place() {
        let mut p = leaf(false);
        p.insert_sorted(b"k", b"aaaa", 0).unwrap();
        let before = p.free_lower();
        p.update_sorted(b"k", b"bbbb").unwrap();
        assert_eq!(p.free_lower(), before);
        assert_eq!(p.rec_data(p.slot(0)), b"bbbb");
    }

    #[test]
    fn update_different_size_reallocates() {
        let mut p = leaf(false);
        p.insert_sorted(b"k", b"short", 0).unwrap();
        p.update_sorted(b"k", b"a much longer value").unwrap();
        assert_eq!(p.rec_data(p.slot(0)), b"a much longer value");
        assert!(p.frag_space() > 0);
    }

    #[test]
    fn remove_marks_dead_and_compact_reclaims() {
        let mut p = leaf(false);
        p.insert_sorted(b"a", b"1", 0).unwrap();
        p.insert_sorted(b"b", b"2", 0).unwrap();
        let free_before = p.contiguous_free();
        p.remove_sorted(b"a").unwrap();
        assert_eq!(p.slot_count(), 1);
        assert!(p.frag_space() > 0);
        p.compact().unwrap();
        assert_eq!(p.frag_space(), 0);
        assert!(p.contiguous_free() > free_before);
        assert_eq!(p.rec_key(p.slot(0)), b"b");
    }

    #[test]
    fn fills_up_and_reports_page_full() {
        let mut p = leaf(false);
        let data = vec![0u8; 500];
        let mut n = 0u32;
        loop {
            let key = n.to_be_bytes();
            match p.insert_sorted(&key, &data, 0) {
                Ok(_) => n += 1,
                Err(Error::PageFull) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(
            n >= 14,
            "8K page should hold at least 14 x 500B records, got {n}"
        );
        assert!(p.contiguous_free() < 510);
        // A removed record leaves fragmented space only: the insert
        // compacts into it instead of reporting a full page (redo replays
        // an insert logged after such a removal through this same call).
        p.remove_sorted(&0u32.to_be_bytes()).unwrap();
        assert!(p.contiguous_free() < 510);
        p.insert_sorted(&n.to_be_bytes(), &data, 0).unwrap();
        assert_eq!(p.frag_space(), 0);
    }

    #[test]
    fn version_tail_roundtrip() {
        let mut p = leaf(true);
        let off = p.insert_sorted(b"k", b"v1", 0).unwrap();
        p.mark_rec_tid(off, Tid(42));
        assert!(p.rec_is_tid_marked(off));
        assert_eq!(p.rec_tid(off), Tid(42));
        p.stamp_rec(off, Timestamp::new(100, 3));
        assert!(!p.rec_is_tid_marked(off));
        assert_eq!(p.rec_timestamp(off), Timestamp::new(100, 3));
        p.set_rec_vp(off, 123);
        assert_eq!(p.rec_vp(off), 123);
    }

    #[test]
    fn compact_preserves_version_chains() {
        let mut p = leaf(true);
        // Build a 3-version chain for key "k" by hand.
        let o1 = p.insert_sorted(b"k", b"v1", 0).unwrap();
        p.stamp_rec(o1, Timestamp::new(20, 0));
        let o2 = p.alloc_record(b"k", b"v2", 0, false).unwrap();
        p.set_rec_vp(o2, o1);
        p.stamp_rec(o2, Timestamp::new(40, 0));
        p.set_slot(0, o2);
        let o3 = p.alloc_record(b"k", b"v3", 0, false).unwrap();
        p.set_rec_vp(o3, o2);
        p.mark_rec_tid(o3, Tid(9));
        p.set_slot(0, o3);
        // Add a dead record to create garbage.
        p.insert_sorted(b"zz", b"dead", 0).unwrap();
        p.remove_sorted(b"zz").unwrap();

        p.compact().unwrap();
        assert_eq!(p.slot_count(), 1);
        let newest = p.slot(0);
        assert_eq!(p.rec_data(newest), b"v3");
        assert!(p.rec_is_tid_marked(newest));
        assert_eq!(p.rec_tid(newest), Tid(9));
        let mid = p.rec_vp(newest);
        assert_eq!(p.rec_data(mid), b"v2");
        assert_eq!(p.rec_timestamp(mid), Timestamp::new(40, 0));
        let oldest = p.rec_vp(mid);
        assert_eq!(p.rec_data(oldest), b"v1");
        assert_eq!(p.rec_vp(oldest), 0);
        assert_eq!(p.frag_space(), 0);
    }

    #[test]
    fn clone_and_from_bytes_roundtrip() {
        let mut p = leaf(false);
        p.insert_sorted(b"x", b"y", 0).unwrap();
        let q = Page::from_bytes(p.as_bytes()).unwrap();
        assert_eq!(q.slot_count(), 1);
        assert_eq!(q.rec_key(q.slot(0)), b"x");
        assert!(Page::from_bytes(&[0u8; 100]).is_err());
    }

    #[test]
    fn image_crc_roundtrip_and_detection() {
        let mut p = leaf(false);
        p.insert_sorted(b"k", b"v", 0).unwrap();
        let mut buf = p.as_bytes().to_vec();
        stamp_image_crc(&mut buf);
        assert!(verify_image_crc(&mut buf.clone()));
        // A single flipped byte (torn/corrupt write) is detected.
        let mut torn = buf.clone();
        torn[HEADER_SIZE + 1] ^= 0xFF;
        assert!(!verify_image_crc(&mut torn));
        // A never-written page (all zeroes) passes.
        let mut zero = vec![0u8; PAGE_SIZE];
        assert!(verify_image_crc(&mut zero));
    }

    #[test]
    fn utilization_tracks_fill() {
        let mut p = leaf(false);
        assert!(p.utilization() < 0.01);
        let data = vec![7u8; 1000];
        for k in 0u8..6 {
            p.insert_sorted(&[k], &data, 0).unwrap();
        }
        assert!(p.utilization() > 0.7, "got {}", p.utilization());
    }
}
