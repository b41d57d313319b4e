//! The timestamp resolver (stage IV of the protocol), the buffer-pool
//! flush hook, and incremental PTT garbage collection.
//!
//! Resolution order: VTT (fast, recent transactions) → PTT (disk lookup,
//! result cached back into the VTT with an *undefined* refcount so its
//! PTT entry survives — we can no longer tell when its stamping is done).

use std::sync::Arc;

use immortaldb_common::{Result, Tid, Timestamp};
use immortaldb_obs::MetricsRegistry;
use immortaldb_storage::buffer::FlushHook;
use immortaldb_storage::page::Page;
use immortaldb_storage::version;
use immortaldb_storage::wal::Wal;
use immortaldb_storage::TimestampResolver;

use crate::ptt::Ptt;
use crate::vtt::Vtt;

/// Resolver over VTT + PTT. Every storage-layer stamping trigger flows
/// through this.
pub struct TxnResolver {
    vtt: Arc<Vtt>,
    ptt: Arc<Ptt>,
    wal: Arc<Wal>,
    /// Shared with the WAL (and therefore the whole engine when the WAL
    /// was built with `Wal::with_metrics`).
    metrics: MetricsRegistry,
}

impl TxnResolver {
    pub fn new(vtt: Arc<Vtt>, ptt: Arc<Ptt>, wal: Arc<Wal>) -> TxnResolver {
        let metrics = wal.metrics().clone();
        TxnResolver {
            vtt,
            ptt,
            wal,
            metrics,
        }
    }

    pub fn vtt(&self) -> &Arc<Vtt> {
        &self.vtt
    }

    pub fn ptt(&self) -> &Arc<Ptt> {
        &self.ptt
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

impl TimestampResolver for TxnResolver {
    fn resolve(&self, tid: Tid) -> Option<Timestamp> {
        match self.vtt.resolve(tid) {
            Some(state) => {
                self.metrics.ts.vtt_hits.inc();
                state // known: committed ts or active/aborted
            }
            None => {
                // VTT miss: consult the persistent table.
                self.metrics.ts.vtt_misses.inc();
                self.metrics.ts.ptt_lookups.inc();
                match self.ptt.lookup(tid) {
                    Ok(Some(ts)) => {
                        self.vtt.cache_from_ptt(tid, ts);
                        Some(ts)
                    }
                    Ok(None) => None,
                    // A lookup failure must not corrupt visibility: treat
                    // as unresolved (version stays TID-marked).
                    Err(_) => None,
                }
            }
        }
    }

    fn note_stamped(&self, tid: Tid, n: u32) {
        // A PTT-cached entry means the transaction's volatile state was
        // lost in a crash: these stamps are post-crash timestamp repair.
        if self.vtt.is_ptt_cached(tid) {
            self.metrics.recovery.versions_restamped.add(n as u64);
        }
        self.vtt.note_stamped(tid, n as u64, self.wal.end_lsn());
    }
}

/// Buffer-pool flush hook: "just before a cached page is flushed to disk,
/// we check whether the page contains any non-timestamped records from
/// committed transactions. If so, we timestamp them." (§2.2)
pub struct StampingFlushHook {
    resolver: Arc<TxnResolver>,
}

impl StampingFlushHook {
    pub fn new(resolver: Arc<TxnResolver>) -> StampingFlushHook {
        StampingFlushHook { resolver }
    }
}

impl FlushHook for StampingFlushHook {
    fn before_flush(&self, page: &mut Page) {
        if !page.is_versioned() {
            return;
        }
        if !matches!(
            page.page_type(),
            Ok(immortaldb_storage::page::PageType::Leaf)
        ) {
            return;
        }
        let stamped = version::stamp_committed(page, self.resolver.as_ref());
        self.resolver.metrics().ts.stamps_flush.add(stamped);
    }
}

/// Incremental PTT garbage collection (§2.2): after a checkpoint returns
/// the redo-scan-start LSN, delete the PTT entry of every transaction
/// whose timestamping completed *and* whose stamped pages are provably on
/// disk. Snapshot-transaction VTT entries are dropped as soon as their
/// count hits zero.
pub struct PttGc {
    vtt: Arc<Vtt>,
    ptt: Arc<Ptt>,
}

impl PttGc {
    pub fn new(vtt: Arc<Vtt>, ptt: Arc<Ptt>) -> PttGc {
        PttGc { vtt, ptt }
    }

    /// Run one GC pass; returns how many PTT entries were reclaimed. The
    /// timestamp-table leaves it changed are written back before it
    /// returns ([`Ptt::write_back`]): the pass runs after a checkpoint's
    /// flush, and its deletes are logged, so the WAL rule holds.
    pub fn collect(&self, redo_scan_start: immortaldb_common::Lsn) -> Result<usize> {
        let mut reclaimed = Vec::new();
        for (tid, in_ptt) in self.vtt.gc_candidates(redo_scan_start) {
            if in_ptt {
                self.ptt.delete(tid)?;
                reclaimed.push(tid);
            }
            self.vtt.remove(tid);
        }
        self.vtt.drop_completed_snapshot_entries();
        self.ptt.write_back(&reclaimed)?;
        Ok(reclaimed.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use immortaldb_btree::SplitTimeSource;
    use immortaldb_common::{Lsn, NULL_LSN};
    use immortaldb_storage::buffer::BufferPool;
    use immortaldb_storage::disk::DiskManager;
    use std::path::PathBuf;

    struct FixedSplit;
    impl SplitTimeSource for FixedSplit {
        fn current_split_ts(&self) -> Timestamp {
            Timestamp::MAX
        }
    }

    struct Env {
        pool: Arc<BufferPool>,
        wal: Arc<Wal>,
        vtt: Arc<Vtt>,
        ptt: Arc<Ptt>,
        db: PathBuf,
        wp: PathBuf,
    }

    fn env(name: &str) -> Env {
        let mut db = std::env::temp_dir();
        db.push(format!("immortal-res-{name}-{}.db", std::process::id()));
        let mut wp = std::env::temp_dir();
        wp.push(format!("immortal-res-{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(&wp);
        let (disk, _) = DiskManager::open(&db).unwrap();
        let wal = Arc::new(Wal::open(&wp).unwrap());
        let pool = Arc::new(BufferPool::new(Arc::new(disk), Arc::clone(&wal), 64));
        let vtt = Arc::new(Vtt::new());
        let ptt = Arc::new(
            Ptt::create(Arc::clone(&pool), Arc::clone(&wal), Arc::new(FixedSplit)).unwrap(),
        );
        Env {
            pool,
            wal,
            vtt,
            ptt,
            db,
            wp,
        }
    }

    impl Drop for Env {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.db);
            let _ = std::fs::remove_file(&self.wp);
        }
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t * 20, 0)
    }

    #[test]
    fn resolve_prefers_vtt_then_falls_back_to_ptt() {
        let e = env("fallback");
        let r = TxnResolver::new(Arc::clone(&e.vtt), Arc::clone(&e.ptt), Arc::clone(&e.wal));
        // Unknown everywhere.
        assert_eq!(r.resolve(Tid(1)), None);
        // In PTT only (simulating post-crash state: VTT lost).
        e.ptt.insert(Tid(2), ts(7), NULL_LSN).unwrap();
        assert_eq!(r.resolve(Tid(2)), Some(ts(7)));
        // Now cached in the VTT.
        assert_eq!(e.vtt.resolve(Tid(2)), Some(Some(ts(7))));
        // Active transactions resolve to None even if a (stale) PTT probe
        // would be attempted.
        e.vtt.begin(Tid(3));
        assert_eq!(r.resolve(Tid(3)), None);
        let _ = e.pool; // keep alive
    }

    #[test]
    fn gc_reclaims_only_durably_stamped() {
        let e = env("gc");
        let r = TxnResolver::new(Arc::clone(&e.vtt), Arc::clone(&e.ptt), Arc::clone(&e.wal));
        // Txn 1: committed, 2 versions pending.
        e.vtt.begin(Tid(1));
        e.vtt.add_pending(Tid(1), 2);
        e.ptt.insert(Tid(1), ts(5), NULL_LSN).unwrap();
        e.vtt.commit(Tid(1), ts(5), true, e.wal.end_lsn());
        // Stamp both (simulating triggers).
        r.note_stamped(Tid(1), 2);
        let stable = e.wal.end_lsn();
        let gc = PttGc::new(Arc::clone(&e.vtt), Arc::clone(&e.ptt));
        // Redo scan start before the stable point: nothing reclaimable.
        assert_eq!(gc.collect(Lsn(stable.0 - 1)).unwrap(), 0);
        assert_eq!(e.ptt.len().unwrap(), 1);
        // Past it: reclaimed.
        assert_eq!(gc.collect(Lsn(stable.0 + 1)).unwrap(), 1);
        assert_eq!(e.ptt.len().unwrap(), 0);
        assert_eq!(e.vtt.state(Tid(1)), None);
    }

    #[test]
    fn gc_spares_ptt_cached_entries() {
        let e = env("gcspare");
        // Entry cached back from the PTT: refcount unknown -> immortal in
        // the PTT until a vacuum-style sweep (not this GC).
        e.ptt.insert(Tid(9), ts(4), NULL_LSN).unwrap();
        e.vtt.cache_from_ptt(Tid(9), ts(4));
        let gc = PttGc::new(Arc::clone(&e.vtt), Arc::clone(&e.ptt));
        assert_eq!(gc.collect(Lsn(u64::MAX)).unwrap(), 0);
        assert_eq!(e.ptt.len().unwrap(), 1);
    }

    #[test]
    fn flush_hook_stamps_committed_records() {
        use immortaldb_storage::page::{PageType, FLAG_VERSIONED};
        let e = env("hook");
        let r = Arc::new(TxnResolver::new(
            Arc::clone(&e.vtt),
            Arc::clone(&e.ptt),
            Arc::clone(&e.wal),
        ));
        e.pool
            .set_flush_hook(Arc::new(StampingFlushHook::new(Arc::clone(&r))));
        let frame = e.pool.new_page(PageType::Leaf, FLAG_VERSIONED, 0).unwrap();
        {
            let mut g = frame.write();
            version::add_version(&mut g, b"k", b"v", false, Tid(5)).unwrap();
        }
        frame.mark_dirty(Lsn(0));
        e.vtt.begin(Tid(5));
        e.vtt.add_pending(Tid(5), 1);
        e.vtt.commit(Tid(5), ts(9), true, e.wal.end_lsn());
        let id = frame.page_id();
        drop(frame);
        e.pool.flush_all().unwrap();
        let p = e.pool.disk().read_page(id).unwrap();
        let off = p.slot(0);
        assert!(!p.rec_is_tid_marked(off));
        assert_eq!(p.rec_timestamp(off), ts(9));
        // Refcount decremented to zero.
        assert_eq!(e.vtt.pending(Tid(5)), Some(0));
    }
}
