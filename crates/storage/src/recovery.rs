//! Crash recovery (ARIES-style) and transaction rollback.
//!
//! Three passes: **analysis** rebuilds the active-transaction and
//! dirty-page tables from the last checkpoint; **redo** repeats history
//! for page-oriented records guarded by page LSNs; **undo** rolls back
//! loser transactions with *logical* undo — each operation is compensated
//! by re-locating its record by key (splits may have moved it), writing a
//! CLR so undo itself is idempotent.
//!
//! Timestamp application is unlogged, so recovery neither redoes nor
//! undoes it: a record that was stamped but whose page never reached disk
//! simply reverts to TID-marked, and the (not-yet-garbage-collected) PTT
//! entry re-stamps it on next access — exactly the paper's design.
//!
//! The same undo machinery implements runtime [`rollback_txn`], and
//! [`checkpoint`] implements the fuzzy checkpoint whose redo-scan-start
//! LSN gates PTT garbage collection.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::path::{Path, PathBuf};

use immortaldb_common::{Error, Lsn, PageId, Result, Tid, Timestamp, TreeId, NULL_LSN};

use crate::buffer::BufferPool;
use crate::logrec::LogRecord;
use crate::version;
use crate::wal::{Durability, Wal, WalEntry};

/// Finds the *current* leaf page for a key so logical undo can compensate
/// operations whose records were relocated by page splits. Implemented by
/// the B-tree layer.
pub trait TreeLocator: Send + Sync {
    /// Leaf page currently responsible for `key` in `tree`.
    fn locate_leaf(&self, tree: TreeId, key: &[u8]) -> Result<PageId>;
    /// Like [`Self::locate_leaf`] but guarantees at least `space` free
    /// bytes on the returned page, splitting on the way if needed (undo of
    /// a delete must be able to re-insert).
    fn locate_leaf_for_insert(&self, tree: TreeId, key: &[u8], space: usize) -> Result<PageId>;
}

/// Result of the analysis pass.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Loser transactions: tid -> LSN of their last log record.
    pub att: HashMap<Tid, Lsn>,
    /// Transactions whose Commit record is in the log, with their
    /// timestamps.
    pub committed: HashMap<Tid, Timestamp>,
    /// Dirty-page table: page -> recLSN (earliest record possibly not on
    /// disk).
    pub dpt: HashMap<PageId, Lsn>,
    /// Highest TID seen (TID assignment restarts above this).
    pub max_tid: Tid,
    /// End of the scanned log.
    pub end_lsn: Lsn,
    /// The scan's final record was a `CheckpointEnd`. Together with an
    /// empty ATT this identifies a clean shutdown: redo may still
    /// re-apply the checkpoint's own page images, but nothing was lost.
    pub ends_at_checkpoint: bool,
}

impl Analysis {
    /// Where the redo pass must start.
    pub fn redo_start(&self, scan_start: Lsn) -> Lsn {
        self.dpt
            .values()
            .copied()
            .min()
            .unwrap_or(scan_start)
            .min(scan_start)
            .max(Lsn(0))
    }
}

// ---------------------------------------------------------------------
// Master record (points at the last completed checkpoint)
// ---------------------------------------------------------------------

fn master_path(wal: &Wal) -> PathBuf {
    let mut p = wal.path().to_path_buf();
    let mut name = p.file_name().unwrap_or_default().to_os_string();
    name.push(".master");
    p.set_file_name(name);
    p
}

/// Read the checkpoint-begin LSN from the master record, if present.
pub fn read_master(wal: &Wal) -> Option<Lsn> {
    let bytes = wal.vfs().read_file(&master_path(wal)).ok()??;
    if bytes.len() != 12 {
        return None;
    }
    let lsn = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if immortaldb_common::codec::crc32(&bytes[0..8]) != crc {
        return None;
    }
    Some(Lsn(lsn))
}

/// Atomically persist the checkpoint-begin LSN (write + rename, through
/// the WAL's VFS).
pub fn write_master(wal: &Wal, lsn: Lsn) -> Result<()> {
    let mut bytes = Vec::with_capacity(12);
    bytes.extend_from_slice(&lsn.0.to_le_bytes());
    bytes.extend_from_slice(&immortaldb_common::codec::crc32(&lsn.0.to_le_bytes()).to_le_bytes());
    wal.vfs().write_file_atomic(&master_path(wal), &bytes)
}

/// Remove the master record (tests).
pub fn clear_master(wal: &Wal) {
    let _ = wal.vfs().remove_file(&master_path(wal));
}

// ---------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------

/// Scan the log from `start` (the last checkpoint begin, or 0) and build
/// the ATT/DPT.
pub fn analyze(wal: &Wal, start: Lsn) -> Result<Analysis> {
    let mut a = Analysis::default();
    // Transactions whose Commit/End this scan has already witnessed: a
    // fuzzy checkpoint's ATT snapshot is taken before CheckpointBegin, so
    // a transaction can commit between the snapshot and the CheckpointEnd
    // record — merging the stale snapshot back would roll back committed
    // work during undo.
    let mut ended: std::collections::HashSet<Tid> = std::collections::HashSet::new();
    for entry in wal.iter_from(start)? {
        let e = entry?;
        a.end_lsn = e.next_lsn;
        a.ends_at_checkpoint = matches!(e.record, LogRecord::CheckpointEnd { .. });
        if e.tid > a.max_tid {
            a.max_tid = e.tid;
        }
        match &e.record {
            LogRecord::Begin => {
                a.att.insert(e.tid, e.lsn);
            }
            LogRecord::Commit { ts } => {
                a.committed.insert(e.tid, *ts);
                a.att.remove(&e.tid);
                ended.insert(e.tid);
            }
            LogRecord::End => {
                a.att.remove(&e.tid);
                ended.insert(e.tid);
            }
            LogRecord::Abort => {
                a.att.insert(e.tid, e.lsn);
            }
            LogRecord::CheckpointBegin => {}
            LogRecord::CheckpointEnd { att, dpt } => {
                for (tid, lsn) in att {
                    if !ended.contains(tid) {
                        a.att.entry(*tid).or_insert(*lsn);
                    }
                    if *tid > a.max_tid {
                        a.max_tid = *tid;
                    }
                }
                for (page, rec_lsn) in dpt {
                    a.dpt.entry(*page).or_insert(*rec_lsn);
                }
            }
            LogRecord::PageImages { pages } => {
                for (page, _) in pages {
                    a.dpt.entry(*page).or_insert(e.lsn);
                }
            }
            rec => {
                if let Some(page) = rec.target_page() {
                    a.dpt.entry(page).or_insert(e.lsn);
                }
                if e.tid != Tid::SYSTEM {
                    a.att.insert(e.tid, e.lsn);
                }
            }
        }
    }
    Ok(a)
}

// ---------------------------------------------------------------------
// Redo
// ---------------------------------------------------------------------

/// Repeat history from `redo_start`. Returns the number of operations
/// actually re-applied (skipped ones were already on disk).
///
/// A page whose on-disk image fails CRC verification (torn write at the
/// crash) is tolerated as long as a logged full-page image later in the
/// scan rebuilds it: the page is cached as zeroed (page LSN 0), the image
/// applies unconditionally, and any following logical records replay on
/// top. If the scan ends with a torn page never repaired, redo fails —
/// the database genuinely lost that page.
pub fn redo(wal: &Wal, pool: &BufferPool, analysis: &Analysis, redo_start: Lsn) -> Result<usize> {
    let metrics = pool.metrics().clone();
    let mut applied = 0usize;
    let mut torn: HashSet<PageId> = HashSet::new();
    for entry in wal.iter_from(redo_start)? {
        let e = entry?;
        match &e.record {
            LogRecord::PageImages { pages } => {
                for (id, img) in pages {
                    match apply_to_page(pool, *id, e.lsn, Change::Image(img))? {
                        PageStep::Skipped => {}
                        PageStep::Repaired => {
                            metrics.recovery.torn_pages_repaired.inc();
                            applied += 1;
                        }
                        _ => applied += 1,
                    }
                    torn.remove(id);
                }
            }
            rec => {
                let Some(page_id) = rec.target_page() else {
                    continue;
                };
                match analysis.dpt.get(&page_id) {
                    Some(rec_lsn) if e.lsn >= *rec_lsn => {}
                    _ => continue,
                }
                match apply_to_page(pool, page_id, e.lsn, Change::Record(&e))? {
                    PageStep::Skipped => {}
                    // Torn on disk: its logical records are skipped — the
                    // full-page image that must follow contains their
                    // effects.
                    PageStep::Torn(_) => {
                        torn.insert(page_id);
                    }
                    _ => applied += 1,
                }
            }
        }
    }
    if !torn.is_empty() {
        return Err(Error::Corruption(format!(
            "redo finished with unrepaired torn pages {torn:?} \
             (no full-page image in the log; enable page-image logging)"
        )));
    }
    Ok(applied)
}

/// One logged change to one page: its whole image, or a page record.
enum Change<'a> {
    Image(&'a [u8]),
    Record(&'a WalEntry),
}

/// What [`apply_to_page`] did.
enum PageStep {
    /// The page's LSN says the change is there already.
    Skipped,
    Applied,
    /// The page's stored bytes were torn, and the image replaced them.
    Repaired,
    /// The page's stored bytes are torn: a record cannot apply to them.
    Torn(Error),
}

/// The one page-apply step of redo and of a replica's apply: make sure
/// the page is allocated, fetch it (an image takes the place of a torn
/// one), take its write latch and, unless the page's LSN is at `lsn`
/// already, apply `change` and set the LSN and the dirty mark.
fn apply_to_page(pool: &BufferPool, id: PageId, lsn: Lsn, change: Change<'_>) -> Result<PageStep> {
    pool.ensure_allocated(id)?;
    let (frame, reset) = match change {
        Change::Image(_) => pool.fetch_or_reset(id)?,
        Change::Record(_) => match pool.fetch(id) {
            Ok(frame) => (frame, false),
            Err(e @ Error::Corruption(_)) => return Ok(PageStep::Torn(e)),
            Err(e) => return Err(e),
        },
    };
    let mut g = frame.write();
    if g.page_lsn() >= lsn {
        return Ok(PageStep::Skipped);
    }
    match change {
        Change::Image(img) => *g = crate::page::Page::from_bytes(img)?,
        Change::Record(e) => apply_redo(&mut g, e)?,
    }
    g.set_page_lsn(lsn);
    frame.mark_dirty(lsn);
    Ok(if reset {
        PageStep::Repaired
    } else {
        PageStep::Applied
    })
}

/// Apply a page-oriented record's redo action.
fn apply_redo(page: &mut crate::page::Page, e: &WalEntry) -> Result<()> {
    match &e.record {
        LogRecord::AddVersion {
            key, data, stub, ..
        } => {
            version::add_version(page, key, data, *stub, e.tid)?;
        }
        LogRecord::ClrPopVersion { key, .. } => {
            version::pop_newest(page, key, e.tid)?;
        }
        LogRecord::InsertRecord { key, data, .. } => {
            page.insert_sorted(key, data, 0)?;
        }
        LogRecord::UpdateRecord { key, new, .. } => {
            page.update_sorted(key, new)?;
        }
        LogRecord::DeleteRecord { key, .. } => {
            page.remove_sorted(key)?;
        }
        LogRecord::ClrDeleteRecord { key, .. } => {
            page.remove_sorted(key)?;
        }
        LogRecord::ClrUpdateRecord { key, data, .. } => {
            page.update_sorted(key, data)?;
        }
        LogRecord::ClrInsertRecord { key, data, .. } => {
            page.insert_sorted(key, data, 0)?;
        }
        LogRecord::EagerStamp { key, ts, .. } => {
            if let Ok(i) = page.find_slot(key) {
                for off in version::chain_offsets(page, i) {
                    if page.rec_is_tid_marked(off) && page.rec_tid(off) == e.tid {
                        page.stamp_rec(off, *ts);
                    }
                }
            }
        }
        other => {
            return Err(Error::Internal(format!(
                "apply_redo called for non-page record {other:?}"
            )));
        }
    }
    Ok(())
}

/// Continuous redo for replication: apply one shipped log entry to the
/// buffer pool, guarded only by page LSNs — no dirty-page table, because
/// a replica replays *everything* not already reflected in its pages.
/// Non-page records (Begin / Commit / End / Abort / checkpoint markers)
/// are no-ops here; the caller tracks commit state separately. Returns
/// whether the entry mutated a page.
///
/// New pages always enter the log as full `PageImages` (tree creation and
/// splits log them), so replaying a shipped prefix in order onto an empty
/// or previously-recovered store needs no other bootstrap.
pub fn apply_entry(pool: &BufferPool, e: &WalEntry) -> Result<bool> {
    match &e.record {
        LogRecord::PageImages { pages } => {
            let mut applied = false;
            for (id, img) in pages {
                let step = apply_to_page(pool, *id, e.lsn, Change::Image(img))?;
                applied |= !matches!(step, PageStep::Skipped);
            }
            Ok(applied)
        }
        rec => {
            let Some(page_id) = rec.target_page() else {
                return Ok(false);
            };
            match apply_to_page(pool, page_id, e.lsn, Change::Record(e))? {
                PageStep::Skipped => Ok(false),
                PageStep::Torn(e) => Err(e),
                _ => Ok(true),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Undo
// ---------------------------------------------------------------------

/// Roll back every loser transaction in `att`, writing CLRs and End
/// records. Losers are processed merged, in descending LSN order (classic
/// ARIES). Returns the number of rolled-back transactions.
pub fn undo(
    wal: &Wal,
    pool: &BufferPool,
    locator: &dyn TreeLocator,
    att: &HashMap<Tid, Lsn>,
) -> Result<usize> {
    let t0 = std::time::Instant::now();
    let mut heap: BinaryHeap<(Lsn, Tid)> = att.iter().map(|(t, l)| (*l, *t)).collect();
    let mut last_lsn: HashMap<Tid, Lsn> = att.clone();
    let mut finished = 0usize;
    while let Some((lsn, tid)) = heap.pop() {
        let e = wal.read_at(lsn)?;
        debug_assert_eq!(e.tid, tid, "txn log chain corrupted");
        if let Some(undo_next) = e.record.undo_next() {
            // CLR: skip over already-compensated work.
            if undo_next.is_null() {
                finish_txn(wal, &mut last_lsn, tid)?;
                finished += 1;
            } else {
                heap.push((undo_next, tid));
            }
            continue;
        }
        match &e.record {
            LogRecord::Begin => {
                finish_txn(wal, &mut last_lsn, tid)?;
                finished += 1;
            }
            LogRecord::Abort | LogRecord::Commit { .. } | LogRecord::EagerStamp { .. } => {
                // Markers and eager stamps need no compensation: a loser's
                // stamped versions are popped by the AddVersion undo.
                if e.prev_lsn.is_null() {
                    finish_txn(wal, &mut last_lsn, tid)?;
                    finished += 1;
                } else {
                    heap.push((e.prev_lsn, tid));
                }
            }
            _ => {
                undo_one(wal, pool, locator, &e, &mut last_lsn)?;
                if e.prev_lsn.is_null() {
                    finish_txn(wal, &mut last_lsn, tid)?;
                    finished += 1;
                } else {
                    heap.push((e.prev_lsn, tid));
                }
            }
        }
    }
    let metrics = pool.metrics();
    metrics
        .recovery
        .undo_us
        .set(t0.elapsed().as_micros() as u64);
    metrics.recovery.losers_rolled_back.add(finished as u64);
    Ok(finished)
}

fn finish_txn(wal: &Wal, last_lsn: &mut HashMap<Tid, Lsn>, tid: Tid) -> Result<()> {
    let prev = last_lsn.get(&tid).copied().unwrap_or(NULL_LSN);
    wal.append(tid, prev, &LogRecord::End);
    last_lsn.remove(&tid);
    Ok(())
}

/// Compensate a single operation: apply the inverse on the *current*
/// location of the record and log a CLR.
fn undo_one(
    wal: &Wal,
    pool: &BufferPool,
    locator: &dyn TreeLocator,
    e: &WalEntry,
    last_lsn: &mut HashMap<Tid, Lsn>,
) -> Result<()> {
    let prev = last_lsn.get(&e.tid).copied().unwrap_or(NULL_LSN);
    let clr = match &e.record {
        LogRecord::AddVersion { tree, key, .. } => {
            let page_id = locator.locate_leaf(*tree, key)?;
            let frame = pool.fetch(page_id)?;
            let mut g = frame.write();
            version::pop_newest(&mut g, key, e.tid)?;
            let clr = LogRecord::ClrPopVersion {
                tree: *tree,
                page: page_id,
                key: &key[..],
                undo_next: e.prev_lsn,
            };
            let lsn = wal.append(e.tid, prev, &clr);
            g.set_page_lsn(lsn);
            frame.mark_dirty(lsn);
            lsn
        }
        LogRecord::InsertRecord { tree, key, .. } => {
            let page_id = locator.locate_leaf(*tree, key)?;
            let frame = pool.fetch(page_id)?;
            let mut g = frame.write();
            g.remove_sorted(key)?;
            let clr = LogRecord::ClrDeleteRecord {
                tree: *tree,
                page: page_id,
                key: &key[..],
                undo_next: e.prev_lsn,
            };
            let lsn = wal.append(e.tid, prev, &clr);
            g.set_page_lsn(lsn);
            frame.mark_dirty(lsn);
            lsn
        }
        LogRecord::UpdateRecord { tree, key, old, .. } => {
            let need = crate::page::REC_HDR + key.len() + old.len() + 2;
            let page_id = locator.locate_leaf_for_insert(*tree, key, need)?;
            let frame = pool.fetch(page_id)?;
            let mut g = frame.write();
            g.update_sorted(key, old)?;
            let clr = LogRecord::ClrUpdateRecord {
                tree: *tree,
                page: page_id,
                key: &key[..],
                data: &old[..],
                undo_next: e.prev_lsn,
            };
            let lsn = wal.append(e.tid, prev, &clr);
            g.set_page_lsn(lsn);
            frame.mark_dirty(lsn);
            lsn
        }
        LogRecord::DeleteRecord { tree, key, old, .. } => {
            let need = crate::page::REC_HDR + key.len() + old.len() + 2;
            let page_id = locator.locate_leaf_for_insert(*tree, key, need)?;
            let frame = pool.fetch(page_id)?;
            let mut g = frame.write();
            g.insert_sorted(key, old, 0)?;
            let clr = LogRecord::ClrInsertRecord {
                tree: *tree,
                page: page_id,
                key: &key[..],
                data: &old[..],
                undo_next: e.prev_lsn,
            };
            let lsn = wal.append(e.tid, prev, &clr);
            g.set_page_lsn(lsn);
            frame.mark_dirty(lsn);
            lsn
        }
        other => {
            return Err(Error::Internal(format!("cannot undo {other:?}")));
        }
    };
    last_lsn.insert(e.tid, clr);
    Ok(())
}

/// Runtime transaction rollback: undo the transaction's chain starting at
/// `last_lsn`, writing CLRs, then Abort + End.
pub fn rollback_txn(
    wal: &Wal,
    pool: &BufferPool,
    locator: &dyn TreeLocator,
    tid: Tid,
    last: Lsn,
) -> Result<()> {
    let mut last_lsn: HashMap<Tid, Lsn> = HashMap::new();
    let abort_lsn = wal.append(tid, last, &LogRecord::Abort);
    last_lsn.insert(tid, abort_lsn);
    let mut cursor = last;
    while !cursor.is_null() {
        let e = wal.read_at(cursor)?;
        debug_assert_eq!(e.tid, tid);
        if let Some(undo_next) = e.record.undo_next() {
            cursor = undo_next;
            continue;
        }
        match &e.record {
            LogRecord::Begin => break,
            LogRecord::Abort | LogRecord::EagerStamp { .. } => {
                cursor = e.prev_lsn;
            }
            _ => {
                undo_one(wal, pool, locator, &e, &mut last_lsn)?;
                cursor = e.prev_lsn;
            }
        }
    }
    let prev = last_lsn.get(&tid).copied().unwrap_or(abort_lsn);
    wal.append(tid, prev, &LogRecord::End);
    Ok(())
}

// ---------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------

/// Take a checkpoint: flush all dirty pages (which also lazily stamps
/// their committed records via the flush hook), log Begin/End checkpoint
/// records, fsync everything and persist the master record.
///
/// Returns the **redo-scan-start LSN**: recovery will never need log
/// records before it, which is exactly the condition (§2.2) under which
/// completed timestamping is stable and PTT entries may be garbage
/// collected.
pub fn checkpoint(wal: &Wal, pool: &BufferPool, att: Vec<(Tid, Lsn)>) -> Result<Lsn> {
    pool.metrics().recovery.checkpoints.inc();
    let begin = wal.append(Tid::SYSTEM, NULL_LSN, &LogRecord::CheckpointBegin);
    pool.flush_all()?;
    let dpt = pool.dirty_page_table();
    let redo_scan_start = dpt
        .iter()
        .map(|(_, l)| *l)
        .min()
        .unwrap_or(begin)
        .min(begin);
    wal.append(
        Tid::SYSTEM,
        NULL_LSN,
        &LogRecord::CheckpointEnd { att, dpt },
    );
    wal.flush(Durability::Fsync)?;
    pool.disk().sync()?;
    write_master(wal, begin)?;
    Ok(redo_scan_start)
}

/// Full restart sequence up to (and excluding) undo: returns the analysis
/// so the caller can construct a tree locator and run [`undo`], then
/// resume normal operation.
pub fn analyze_and_redo(wal: &Wal, pool: &BufferPool) -> Result<Analysis> {
    let metrics = pool.metrics().clone();
    let t0 = std::time::Instant::now();
    let start = read_master(wal).unwrap_or(NULL_LSN);
    let mut analysis = analyze(wal, start)?;
    // A checkpoint-ATT transaction whose Commit landed *before* the
    // checkpoint-begin record (the snapshot precedes the append) is
    // invisible to a scan starting at `start`. Rescan from the oldest
    // ATT entry so every such Commit is witnessed and the transaction is
    // correctly classified as a winner.
    if let Some(oldest) = analysis.att.values().copied().min() {
        if oldest < start {
            analysis = analyze(wal, oldest)?;
        }
    }
    metrics
        .recovery
        .analyze_us
        .set(t0.elapsed().as_micros() as u64);
    let t1 = std::time::Instant::now();
    let redo_start = analysis.redo_start(start);
    let applied = redo(wal, pool, &analysis, redo_start)?;
    metrics
        .recovery
        .redo_us
        .set(t1.elapsed().as_micros() as u64);
    metrics.recovery.records_replayed.add(applied as u64);
    Ok(analysis)
}

// Used by tests and the engine to locate the master next to a WAL path.
pub fn master_file_for(path: &Path) -> PathBuf {
    let mut p = path.to_path_buf();
    let mut name = p.file_name().unwrap_or_default().to_os_string();
    name.push(".master");
    p.set_file_name(name);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use crate::page::{PageType, FLAG_VERSIONED};
    use std::sync::Arc;

    struct Fixture {
        disk: Arc<DiskManager>,
        wal: Arc<Wal>,
        pool: Arc<BufferPool>,
        db: PathBuf,
        wal_path: PathBuf,
    }

    impl Fixture {
        fn new(name: &str) -> Fixture {
            let mut db = std::env::temp_dir();
            db.push(format!("immortal-rec-{name}-{}.db", std::process::id()));
            let mut wal_path = std::env::temp_dir();
            wal_path.push(format!("immortal-rec-{name}-{}.wal", std::process::id()));
            let _ = std::fs::remove_file(&db);
            let _ = std::fs::remove_file(&wal_path);
            let _ = std::fs::remove_file(master_file_for(&wal_path));
            Fixture::open(db, wal_path)
        }

        fn open(db: PathBuf, wal_path: PathBuf) -> Fixture {
            let (disk, _) = DiskManager::open(&db).unwrap();
            let disk = Arc::new(disk);
            let wal = Arc::new(Wal::open(&wal_path).unwrap());
            let pool = Arc::new(BufferPool::new(Arc::clone(&disk), Arc::clone(&wal), 64));
            Fixture {
                disk,
                wal,
                pool,
                db,
                wal_path,
            }
        }

        /// Simulated crash: drop all cached pages, reopen everything.
        fn crash_and_reopen(self) -> Fixture {
            let db = self.db.clone();
            let wal_path = self.wal_path.clone();
            self.wal.flush(Durability::Fsync).unwrap();
            drop(self);
            Fixture::open(db, wal_path)
        }

        fn cleanup(self) {
            let _ = std::fs::remove_file(&self.db);
            let _ = std::fs::remove_file(&self.wal_path);
            let _ = std::fs::remove_file(master_file_for(&self.wal_path));
        }
    }

    /// A locator for single-page "trees" used in these substrate tests.
    struct FixedLocator(PageId);
    impl TreeLocator for FixedLocator {
        fn locate_leaf(&self, _tree: TreeId, _key: &[u8]) -> Result<PageId> {
            Ok(self.0)
        }
        fn locate_leaf_for_insert(
            &self,
            _tree: TreeId,
            _key: &[u8],
            _space: usize,
        ) -> Result<PageId> {
            Ok(self.0)
        }
    }

    #[test]
    fn analysis_classifies_winners_and_losers() {
        let f = Fixture::new("analysis");
        let t1 = Tid(1);
        let t2 = Tid(2);
        let b1 = f.wal.append(t1, NULL_LSN, &LogRecord::Begin);
        let b2 = f.wal.append(t2, NULL_LSN, &LogRecord::Begin);
        let c1 = f.wal.append(
            t1,
            b1,
            &LogRecord::Commit {
                ts: Timestamp::new(20, 0),
            },
        );
        f.wal.append(t1, c1, &LogRecord::End);
        let a2 = f.wal.append(
            t2,
            b2,
            &LogRecord::AddVersion {
                tree: TreeId(5),
                page: PageId(3),
                key: &b"k"[..],
                data: &b"v"[..],
                stub: false,
            },
        );
        let a = analyze(&f.wal, Lsn(0)).unwrap();
        assert_eq!(a.committed.get(&t1), Some(&Timestamp::new(20, 0)));
        assert!(!a.att.contains_key(&t1));
        assert_eq!(a.att.get(&t2), Some(&a2));
        assert_eq!(a.max_tid, t2);
        assert_eq!(a.dpt.get(&PageId(3)), Some(&a2));
        f.cleanup();
    }

    #[test]
    fn redo_replays_lost_versions_and_undo_rolls_back_losers() {
        let f = Fixture::new("redo-undo");
        // Set up a versioned leaf page on disk.
        let frame = f.pool.new_page(PageType::Leaf, FLAG_VERSIONED, 0).unwrap();
        let page_id = frame.page_id();
        drop(frame);
        f.pool.flush_all().unwrap();

        // Committed txn 1 inserts "a"; loser txn 2 inserts "b".
        let t1 = Tid(1);
        let t2 = Tid(2);
        let b1 = f.wal.append(t1, NULL_LSN, &LogRecord::Begin);
        let rec1 = LogRecord::AddVersion {
            tree: TreeId(5),
            page: page_id,
            key: &b"a"[..],
            data: &b"va"[..],
            stub: false,
        };
        let l1 = f.wal.append(t1, b1, &rec1);
        let c1 = f.wal.append(
            t1,
            l1,
            &LogRecord::Commit {
                ts: Timestamp::new(20, 0),
            },
        );
        f.wal.append(t1, c1, &LogRecord::End);
        let b2 = f.wal.append(t2, NULL_LSN, &LogRecord::Begin);
        let rec2 = LogRecord::AddVersion {
            tree: TreeId(5),
            page: page_id,
            key: &b"b"[..],
            data: &b"vb"[..],
            stub: false,
        };
        f.wal.append(t2, b2, &rec2);

        // Apply both to the in-memory page, but "crash" before flushing.
        {
            let frame = f.pool.fetch(page_id).unwrap();
            let mut g = frame.write();
            version::add_version(&mut g, b"a", b"va", false, t1).unwrap();
            version::add_version(&mut g, b"b", b"vb", false, t2).unwrap();
            // Intentionally do NOT mark dirty / flush: simulating loss.
        }
        let f = f.crash_and_reopen();

        let analysis = analyze_and_redo(&f.wal, &f.pool).unwrap();
        assert_eq!(analysis.att.len(), 1);
        undo(&f.wal, &f.pool, &FixedLocator(page_id), &analysis.att).unwrap();

        let frame = f.pool.fetch(page_id).unwrap();
        let g = frame.read();
        // Winner's record is back; loser's is gone.
        assert!(g.find_slot(b"a").is_ok());
        assert!(g.find_slot(b"b").is_err());
        let off = g.slot(g.find_slot(b"a").unwrap());
        assert!(g.rec_is_tid_marked(off)); // stamping was lost with the crash
        assert_eq!(g.rec_tid(off), t1);
        drop(g);
        f.cleanup();
    }

    #[test]
    fn redo_is_idempotent() {
        let f = Fixture::new("idempotent");
        let frame = f.pool.new_page(PageType::Leaf, FLAG_VERSIONED, 0).unwrap();
        let page_id = frame.page_id();
        drop(frame);
        f.pool.flush_all().unwrap();

        let t1 = Tid(1);
        let b1 = f.wal.append(t1, NULL_LSN, &LogRecord::Begin);
        let l1 = f.wal.append(
            t1,
            b1,
            &LogRecord::AddVersion {
                tree: TreeId(5),
                page: page_id,
                key: &b"a"[..],
                data: &b"va"[..],
                stub: false,
            },
        );
        let c1 = f.wal.append(
            t1,
            l1,
            &LogRecord::Commit {
                ts: Timestamp::new(20, 0),
            },
        );
        f.wal.append(t1, c1, &LogRecord::End);
        let f = f.crash_and_reopen();

        let analysis = analyze(&f.wal, Lsn(0)).unwrap();
        let n1 = redo(&f.wal, &f.pool, &analysis, Lsn(0)).unwrap();
        assert_eq!(n1, 1);
        // Running redo again applies nothing (page LSN guard).
        let n2 = redo(&f.wal, &f.pool, &analysis, Lsn(0)).unwrap();
        assert_eq!(n2, 0);
        let frame = f.pool.fetch(page_id).unwrap();
        let g = frame.read();
        assert_eq!(g.slot_count(), 1);
        drop(g);
        f.cleanup();
    }

    #[test]
    fn page_images_redo_atomically() {
        let f = Fixture::new("images");
        let fr1 = f.pool.new_page(PageType::Leaf, 0, 0).unwrap();
        let id1 = fr1.page_id();
        drop(fr1);
        f.pool.flush_all().unwrap();

        // Build two images: modified id1, brand new id2 beyond file end.
        let mut img1 = crate::page::Page::zeroed();
        img1.format(id1, PageType::Leaf, 0, 0);
        img1.insert_sorted(b"x", b"1", 0).unwrap();
        let id2 = PageId(f.disk.num_pages()); // not yet allocated
        let mut img2 = crate::page::Page::zeroed();
        img2.format(id2, PageType::Leaf, 0, 0);
        img2.insert_sorted(b"y", b"2", 0).unwrap();
        f.wal.append(
            Tid::SYSTEM,
            NULL_LSN,
            &LogRecord::PageImages {
                pages: vec![(id1, img1.as_bytes()), (id2, img2.as_bytes())],
            },
        );
        let f = f.crash_and_reopen();
        analyze_and_redo(&f.wal, &f.pool).unwrap();
        let p1 = f.pool.fetch(id1).unwrap();
        assert_eq!(p1.read().rec_key(p1.read().slot(0)), b"x");
        let p2 = f.pool.fetch(id2).unwrap();
        assert_eq!(p2.read().rec_key(p2.read().slot(0)), b"y");
        f.cleanup();
    }

    #[test]
    fn runtime_rollback_restores_state() {
        let f = Fixture::new("rollback");
        let frame = f.pool.new_page(PageType::Leaf, FLAG_VERSIONED, 0).unwrap();
        let page_id = frame.page_id();

        let t1 = Tid(1);
        let b1 = f.wal.append(t1, NULL_LSN, &LogRecord::Begin);
        let mut last = b1;
        {
            let mut g = frame.write();
            for (k, v) in [(b"a", b"1"), (b"b", b"2")] {
                let rec = LogRecord::AddVersion {
                    tree: TreeId(5),
                    page: page_id,
                    key: &k[..],
                    data: &v[..],
                    stub: false,
                };
                last = f.wal.append(t1, last, &rec);
                version::add_version(&mut g, k, v, false, t1).unwrap();
                g.set_page_lsn(last);
            }
            frame.mark_dirty(b1);
        }
        rollback_txn(&f.wal, &f.pool, &FixedLocator(page_id), t1, last).unwrap();
        let g = frame.read();
        assert_eq!(g.slot_count(), 0);
        drop(g);
        // The log ends with Abort ... CLRs ... End.
        let entries: Vec<_> = f
            .wal
            .iter_from(Lsn(0))
            .unwrap()
            .map(|e| e.unwrap())
            .collect();
        assert!(matches!(entries.last().unwrap().record, LogRecord::End));
        assert!(entries.iter().any(|e| matches!(e.record, LogRecord::Abort)));
        assert_eq!(entries.iter().filter(|e| e.record.is_clr()).count(), 2);
        f.cleanup();
    }

    #[test]
    fn checkpoint_roundtrip_and_master_record() {
        let f = Fixture::new("ckpt");
        let frame = f.pool.new_page(PageType::Leaf, 0, 0).unwrap();
        {
            let mut g = frame.write();
            g.insert_sorted(b"k", b"v", 0).unwrap();
        }
        frame.mark_dirty(Lsn(1));
        drop(frame);
        let rss = checkpoint(&f.wal, &f.pool, vec![(Tid(9), Lsn(5))]).unwrap();
        let master = read_master(&f.wal).unwrap();
        assert_eq!(master, rss); // all pages flushed -> redo starts at begin
                                 // Analysis from the checkpoint sees the ATT snapshot.
        let a = analyze(&f.wal, master).unwrap();
        assert_eq!(a.att.get(&Tid(9)), Some(&Lsn(5)));
        f.cleanup();
    }

    #[test]
    fn recovery_after_abort_record_continues_undo() {
        // Crash in the middle of a rollback: Abort logged, one op
        // compensated, one not. Recovery must finish the job.
        let f = Fixture::new("midabort");
        let frame = f.pool.new_page(PageType::Leaf, FLAG_VERSIONED, 0).unwrap();
        let page_id = frame.page_id();
        drop(frame);
        f.pool.flush_all().unwrap();

        let t = Tid(3);
        let b = f.wal.append(t, NULL_LSN, &LogRecord::Begin);
        let r1 = LogRecord::AddVersion {
            tree: TreeId(5),
            page: page_id,
            key: &b"a"[..],
            data: &b"1"[..],
            stub: false,
        };
        let l1 = f.wal.append(t, b, &r1);
        let r2 = LogRecord::AddVersion {
            tree: TreeId(5),
            page: page_id,
            key: &b"b"[..],
            data: &b"2"[..],
            stub: false,
        };
        let l2 = f.wal.append(t, l1, &r2);
        let ab = f.wal.append(t, l2, &LogRecord::Abort);
        // CLR for the second op only (undo of "b" happened pre-crash).
        f.wal.append(
            t,
            ab,
            &LogRecord::ClrPopVersion {
                tree: TreeId(5),
                page: page_id,
                key: &b"b"[..],
                undo_next: l1,
            },
        );
        // On-disk page state reflects: both ops applied, then "b" popped.
        {
            let frame = f.pool.fetch(page_id).unwrap();
            let mut g = frame.write();
            version::add_version(&mut g, b"a", b"1", false, t).unwrap();
            version::add_version(&mut g, b"b", b"2", false, t).unwrap();
            version::pop_newest(&mut g, b"b", t).unwrap();
            // Page LSN reflects the CLR so redo skips everything.
            g.set_page_lsn(f.wal.end_lsn());
            frame.mark_dirty(b);
        }
        f.pool.flush_all().unwrap();
        let f = f.crash_and_reopen();
        let analysis = analyze_and_redo(&f.wal, &f.pool).unwrap();
        assert!(analysis.att.contains_key(&t));
        undo(&f.wal, &f.pool, &FixedLocator(page_id), &analysis.att).unwrap();
        let frame = f.pool.fetch(page_id).unwrap();
        let g = frame.read();
        assert_eq!(g.slot_count(), 0, "both inserts rolled back");
        drop(g);
        f.cleanup();
    }
}

#[cfg(test)]
mod checkpoint_race_tests {
    use super::*;
    use crate::disk::DiskManager;
    use crate::page::{PageType, FLAG_VERSIONED};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn env(name: &str) -> (Arc<BufferPool>, Arc<Wal>, PathBuf, PathBuf) {
        let mut db = std::env::temp_dir();
        db.push(format!(
            "immortal-ckptrace-{name}-{}.db",
            std::process::id()
        ));
        let mut wp = std::env::temp_dir();
        wp.push(format!(
            "immortal-ckptrace-{name}-{}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(&wp);
        let _ = std::fs::remove_file(master_file_for(&wp));
        let (disk, _) = DiskManager::open(&db).unwrap();
        let wal = Arc::new(Wal::open(&wp).unwrap());
        let pool = Arc::new(BufferPool::new(Arc::new(disk), Arc::clone(&wal), 64));
        (pool, wal, db, wp)
    }

    /// A transaction that commits between the checkpoint's ATT snapshot
    /// and the CheckpointEnd record must NOT be classified as a loser —
    /// undoing it would roll back committed, durable work.
    #[test]
    fn committed_txn_in_checkpoint_att_is_not_resurrected() {
        let (pool, wal, db, wp) = env("resurrect");
        let frame = pool.new_page(PageType::Leaf, FLAG_VERSIONED, 0).unwrap();
        let page_id = frame.page_id();
        drop(frame);
        pool.flush_all().unwrap();

        let t = Tid(7);
        let b = wal.append(t, NULL_LSN, &LogRecord::Begin);
        let l1 = wal.append(
            t,
            b,
            &LogRecord::AddVersion {
                tree: TreeId(5),
                page: page_id,
                key: &b"k"[..],
                data: &b"v"[..],
                stub: false,
            },
        );
        // ATT snapshot taken here (T active, last_lsn = l1)...
        let att_snapshot = vec![(t, l1)];
        // ...then T commits BEFORE CheckpointBegin is appended.
        let c = wal.append(
            t,
            l1,
            &LogRecord::Commit {
                ts: Timestamp::new(20, 0),
            },
        );
        wal.append(t, c, &LogRecord::End);
        let begin = wal.append(Tid::SYSTEM, NULL_LSN, &LogRecord::CheckpointBegin);
        wal.append(
            Tid::SYSTEM,
            NULL_LSN,
            &LogRecord::CheckpointEnd {
                att: att_snapshot.clone(),
                dpt: vec![],
            },
        );
        wal.flush(Durability::Fsync).unwrap();
        write_master(&wal, begin).unwrap();

        // Recovery: T's Commit is before the scan start; the rescan from
        // the oldest ATT entry must witness it.
        let analysis = analyze_and_redo(&wal, &pool).unwrap();
        assert!(
            !analysis.att.contains_key(&t),
            "committed transaction resurrected as loser: {:?}",
            analysis.att
        );
        assert!(analysis.committed.contains_key(&t));

        // Variant: commit lands AFTER CheckpointBegin (the ended-set
        // guard path).
        let t2 = Tid(8);
        let b2 = wal.append(t2, NULL_LSN, &LogRecord::Begin);
        let l2 = wal.append(
            t2,
            b2,
            &LogRecord::AddVersion {
                tree: TreeId(5),
                page: page_id,
                key: &b"k2"[..],
                data: &b"v"[..],
                stub: false,
            },
        );
        let begin2 = wal.append(Tid::SYSTEM, NULL_LSN, &LogRecord::CheckpointBegin);
        let c2 = wal.append(
            t2,
            l2,
            &LogRecord::Commit {
                ts: Timestamp::new(40, 0),
            },
        );
        wal.append(t2, c2, &LogRecord::End);
        wal.append(
            Tid::SYSTEM,
            NULL_LSN,
            &LogRecord::CheckpointEnd {
                att: vec![(t2, l2)],
                dpt: vec![],
            },
        );
        wal.flush(Durability::Fsync).unwrap();
        write_master(&wal, begin2).unwrap();
        let analysis = analyze_and_redo(&wal, &pool).unwrap();
        assert!(
            !analysis.att.contains_key(&t2),
            "ended-set guard failed: {:?}",
            analysis.att
        );
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(master_file_for(&wp));
        let _ = std::fs::remove_file(wp);
    }
}
