//! The Immortal DB engine: wiring of storage, trees, transactions and
//! timestamping, plus the table-level API the SQL front end drives.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};

use immortaldb_btree::{
    BTree, CompactionStats, Flow, HeadVersion, HistoryStats, KeyRange, KeyVisitor, Query,
    SplitTimeSource, VersionBuf,
};
use immortaldb_common::{
    blocking, Clock, Error, Lsn, PageId, Result, SystemClock, Tid, Timestamp, TreeId, NULL_LSN,
};
use immortaldb_obs::{Counter, MetricsRegistry, MetricsSnapshot};
use immortaldb_storage::buffer::BufferPool;
use immortaldb_storage::disk::DiskManager;
use immortaldb_storage::logrec::LogRecord;
use immortaldb_storage::meta::MetaView;
use immortaldb_storage::recovery::{self, TreeLocator};
use immortaldb_storage::vfs::{std_fs, Vfs};
use immortaldb_storage::wal::{Durability, GroupCommitConfig, Wal, WAL_START};
use immortaldb_txn::{
    LockManager, Ptt, PttGc, StampingFlushHook, TimestampAuthority, TxnResolver, Vtt,
};

use crate::catalog::{snapshot_key, SnapshotDef, TableDef, TableKind, SNAPSHOT_KEY_PREFIX};
use crate::row::{PkBounds, Pushdown, Schema, Value};
use crate::temporal::{self, DiffOp, DiffRow, TemporalVersion};
use crate::txn::{Isolation, TimestampingMode, Transaction};

/// Engine configuration.
pub struct DbConfig {
    /// Directory holding the data file, WAL and master record.
    pub dir: PathBuf,
    /// Buffer pool capacity in pages.
    pub pool_pages: usize,
    /// Commit durability (fsync vs OS-buffered).
    pub durability: Durability,
    /// Group-commit barrier tuning (leader/follower shared fsyncs at
    /// commit; only relevant under `Durability::Fsync`). Enabled by
    /// default; disable for strict fsync-per-commit.
    pub group_commit: GroupCommitConfig,
    /// Lazy (the paper) or eager (baseline) timestamping.
    pub timestamping: TimestampingMode,
    /// Lock wait timeout (deadlock backstop).
    pub lock_timeout: Duration,
    /// Wall clock (inject a `SimClock` for deterministic runs).
    pub clock: Arc<dyn Clock>,
    /// Virtual file system the data file, WAL and master record go
    /// through. The default is the real OS filesystem; chaos tests swap
    /// in a fault-injecting wrapper.
    pub vfs: Arc<dyn Vfs>,
    /// Log a full page image just before every buffer-pool write-back so
    /// redo can repair torn (partially written) pages. Off by default:
    /// it roughly doubles write-path log volume.
    pub page_image_logging: bool,
    /// Metrics registry to record into; `None` creates a private one.
    /// Chaos harnesses share a registry between the engine and the fault
    /// VFS so `faults.*` and `recovery.*` land in one snapshot.
    pub metrics: Option<MetricsRegistry>,
    /// Background history-compaction interval; `None` (default) disables
    /// the compactor thread. Ignored on replicas — compaction appends to
    /// the WAL, and a replica's log must stay a prefix of the primary's.
    pub compaction: Option<Duration>,
    /// Isolation-sentinel event tap (see `immortaldb-check`). When set,
    /// the engine records per-transaction read/write observations and
    /// publishes one event per transaction outcome into the ring, plus a
    /// visibility watermark for checker-state pruning. `None` (default)
    /// compiles the taps down to a branch on a never-set option.
    pub sentinel: Option<Arc<immortaldb_check::EventTap>>,
}

impl DbConfig {
    pub fn new(dir: impl AsRef<Path>) -> DbConfig {
        DbConfig {
            dir: dir.as_ref().to_path_buf(),
            pool_pages: 1024,
            durability: Durability::Buffered,
            group_commit: GroupCommitConfig::default(),
            timestamping: TimestampingMode::Lazy,
            lock_timeout: Duration::from_secs(5),
            clock: Arc::new(SystemClock),
            vfs: std_fs(),
            page_image_logging: false,
            metrics: None,
            compaction: None,
            sentinel: None,
        }
    }

    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    pub fn pool_pages(mut self, n: usize) -> Self {
        self.pool_pages = n;
        self
    }

    pub fn durability(mut self, d: Durability) -> Self {
        self.durability = d;
        self
    }

    pub fn group_commit(mut self, cfg: GroupCommitConfig) -> Self {
        self.group_commit = cfg;
        self
    }

    pub fn timestamping(mut self, m: TimestampingMode) -> Self {
        self.timestamping = m;
        self
    }

    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    pub fn page_image_logging(mut self, on: bool) -> Self {
        self.page_image_logging = on;
        self
    }

    pub fn metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    pub fn compaction_interval(mut self, every: Duration) -> Self {
        self.compaction = Some(every);
        self
    }

    pub fn sentinel(mut self, tap: Arc<immortaldb_check::EventTap>) -> Self {
        self.sentinel = Some(tap);
        self
    }
}

/// The database engine.
pub struct Database {
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) wal: Arc<Wal>,
    /// Commit timestamps, the snapshot boundary below every in-flight
    /// commit, and (as every tree's split-time source) the split bound.
    pub(crate) authority: Arc<TimestampAuthority>,
    pub(crate) vtt: Arc<Vtt>,
    pub(crate) ptt: Arc<Ptt>,
    pub(crate) resolver: Arc<TxnResolver>,
    gc: PttGc,
    pub(crate) locks: Arc<LockManager>,
    catalog_tree: Arc<BTree>,
    tables: RwLock<HashMap<String, Arc<TableDef>>>,
    /// Named snapshots (`CREATE SNAPSHOT`): catalog-persisted pins of a
    /// transaction-time timestamp, usable anywhere an AS OF operand is.
    named_snapshots: RwLock<HashMap<String, SnapshotDef>>,
    /// Tree registry, shared with the background compactor thread (which
    /// holds its own `Arc` so it can snapshot the handles each pass).
    trees: Arc<RwLock<HashMap<TreeId, Arc<BTree>>>>,
    next_tid: AtomicU64,
    /// The durable TID reservation: the meta page's max TID as last
    /// synced. No TID at or below it is handed out again after a crash.
    tids_reserved: AtomicU64,
    /// Serialises [`Self::reserve_tids`].
    tid_reservation: Mutex<()>,
    next_tree: AtomicU32,
    next_session: AtomicU64,
    /// Active-transaction table: tid → last LSN (for fuzzy checkpoints).
    active: Mutex<HashMap<Tid, Lsn>>,
    /// Active snapshot reads: snapshot timestamp → count (oldest bounds
    /// snapshot-version GC).
    snapshots: Mutex<std::collections::BTreeMap<Timestamp, usize>>,
    /// Active `AS OF` pins: as-of timestamp → count. Does not feed
    /// `oldest_snapshot` (AS OF reads never block version GC — history is
    /// immortal), but it does bound the sentinel watermark so the checker
    /// keeps enough history to judge in-flight historical readers.
    asof_pins: Mutex<std::collections::BTreeMap<Timestamp, usize>>,
    /// Isolation-sentinel event tap, when armed via [`DbConfig::sentinel`].
    sentinel: Option<Arc<immortaldb_check::EventTap>>,
    timestamping: TimestampingMode,
    durability: Durability,
    /// Read-replica mode: the engine only ever applies a log shipped from
    /// a primary ([`Self::replica_apply`]) and rejects local writes, DDL
    /// and maintenance that would append to the WAL — the local log must
    /// stay a byte-identical prefix of the primary's.
    replica: bool,
    /// Replication horizon (replicas only): the newest primary commit
    /// timestamp whose transaction is known fully applied locally. The
    /// visibility horizon of every replica read.
    repl_horizon: Mutex<Timestamp>,
    /// Background history compactor (when configured): stop flag +
    /// condvar shared with the thread, and its handle, joined on drop.
    compactor_stop: Option<Arc<(Mutex<bool>, Condvar)>>,
    compactor: Option<std::thread::JoinHandle<()>>,
    /// Losers rolled back during the last open (metrics/tests).
    pub recovered_losers: usize,
}

/// One history-compaction pass over every registered tree, in tree-id
/// order so that the log a pass writes does not follow hash order,
/// recording the pass counter and refreshing the
/// `version.bytes_per_version` gauge (fixed-point, ×100) from the
/// post-pass store shape.
fn compaction_pass(
    trees: &RwLock<HashMap<TreeId, Arc<BTree>>>,
    metrics: &MetricsRegistry,
) -> Result<CompactionStats> {
    let mut trees: Vec<(TreeId, Arc<BTree>)> = trees
        .read()
        .iter()
        .map(|(id, t)| (*id, Arc::clone(t)))
        .collect();
    trees.sort_unstable_by_key(|(id, _)| *id);
    let mut stats = CompactionStats::default();
    let mut shape = HistoryStats::default();
    for (_, t) in &trees {
        stats.add(t.compact_history()?);
        shape.add(t.history_shape()?);
    }
    metrics.compaction.runs.inc();
    metrics
        .version
        .bytes_per_version
        .set((shape.bytes_per_version() * 100.0) as u64);
    Ok(stats)
}

/// Keys a statement that writes many (`UPDATE`, `DELETE`, `RESTORE
/// TABLE`) gathers per cursor walk, and writes before it walks on: the
/// most rows such a statement holds at once.
pub const WRITE_CHUNK: usize = 128;

/// Base of the TID range replicas hand to their (read-only) local
/// transactions, far above anything a primary will ever assign — a
/// replica reader's VTT entry must never shadow a shipped transaction's
/// committed timestamp.
const REPLICA_TID_BASE: u64 = 1 << 48;

/// TIDs a durable reservation covers past the newest one issued. Every
/// checkpoint (the one each open runs after recovery included) persists
/// `next_tid - 1 + TID_BLOCK` as the meta page's max TID, and a writer
/// whose TID comes within half a block of that mark extends it before it
/// logs anything. Recovery's `max(meta, log) + 1` then lands above every
/// TID a crashed run may have logged, including one whose records died in
/// the log buffer. At 2^20, a ten-second buffered commit stream (about
/// 30 k commits/s) extends at most once.
pub const TID_BLOCK: u64 = 1 << 20;

/// Decodes stored row images ([`Schema::decode_row_into`]) and counts
/// them in `sql.rows_decoded` — in one update when it is dropped, so a
/// scan that decodes pays no shared-counter write per row.
pub(crate) struct RowDecoder<'s> {
    schema: &'s Schema,
    decoded: &'s Counter,
    n: u64,
}

impl RowDecoder<'_> {
    pub(crate) fn schema(&self) -> &Schema {
        self.schema
    }

    pub(crate) fn decode(&mut self, image: &[u8]) -> Result<Vec<Value>> {
        let mut row = Vec::new();
        self.decode_into(image, &mut row)?;
        Ok(row)
    }

    /// Decode over `row`, a scratch row of the same shape or empty.
    pub(crate) fn decode_into(&mut self, image: &[u8], row: &mut Vec<Value>) -> Result<()> {
        self.n += 1;
        self.schema.decode_row_into(image, row)
    }
}

impl Drop for RowDecoder<'_> {
    fn drop(&mut self) {
        self.decoded.add(self.n);
    }
}

impl Database {
    /// Open (or create) a database in `config.dir`, running full crash
    /// recovery (analysis, redo, undo) if the previous run did not shut
    /// down cleanly.
    pub fn open(config: DbConfig) -> Result<Database> {
        Self::open_impl(config, false)
    }

    /// Open a read replica over a WAL prefix shipped from a primary
    /// (`crates/repl` bootstraps the log, then calls this). The engine
    /// replays the shipped log (analysis + redo, no undo: in-flight
    /// primary transactions resolve through later shipped records),
    /// rejects every local write, and serves `AS OF` reads at the
    /// replication horizon maintained by [`Self::replica_apply`].
    pub fn open_replica(config: DbConfig) -> Result<Database> {
        Self::open_impl(config, true)
    }

    fn open_impl(config: DbConfig, replica: bool) -> Result<Database> {
        std::fs::create_dir_all(&config.dir)?;
        let (disk, fresh) =
            DiskManager::open_with(Arc::clone(&config.vfs), config.dir.join("data.idb"))?;
        let disk = Arc::new(disk);
        // One registry for the whole engine: the WAL, buffer pool, lock
        // manager and (via the pool/WAL accessors) trees, resolver and
        // recovery all record into it.
        let metrics = config.metrics.clone().unwrap_or_default();
        let mut wal = Wal::open_with(
            Arc::clone(&config.vfs),
            config.dir.join("wal.log"),
            metrics.clone(),
        )?;
        wal.set_group_commit(config.group_commit);
        let wal = Arc::new(wal);
        let pool = Arc::new(BufferPool::with_config(
            Arc::clone(&disk),
            Arc::clone(&wal),
            config.pool_pages,
            0, // frame-table shards from the host's parallelism
            metrics.clone(),
        ));
        pool.set_page_image_logging(config.page_image_logging);
        let authority = Arc::new(TimestampAuthority::new(
            Arc::clone(&config.clock),
            metrics.clone(),
        ));

        if replica && wal.end_lsn() == WAL_START {
            return Err(Error::Internal(
                "replica open requires a shipped log prefix (bootstrap the WAL from the primary first)".into(),
            ));
        }

        // Analysis + redo (trivial for a fresh database). On a replica
        // this replays the whole shipped prefix onto the (typically
        // empty) local data file.
        let replayed_before = metrics.recovery.records_replayed.get();
        let analysis = recovery::analyze_and_redo(&wal, &pool)?;
        let replayed = metrics.recovery.records_replayed.get() - replayed_before;

        // Restore watermarks: meta page (as of last checkpoint) plus
        // anything later found in the log.
        {
            let meta = pool.fetch(PageId(0))?;
            let g = meta.read();
            MetaView::validate(&g)?;
            authority.restore(MetaView::last_timestamp(&g));
        }
        if let Some(max_committed) = analysis.committed.values().copied().max() {
            authority.restore(max_committed);
        }
        let meta_max_tid = {
            let meta = pool.fetch(PageId(0))?;
            let g = meta.read();
            MetaView::max_tid(&g)
        };
        let mut next_tid = meta_max_tid.0.max(analysis.max_tid.0) + 1;
        if replica {
            // Replica readers register in the VTT; a TID colliding with a
            // shipped (possibly not-yet-committed-here) primary
            // transaction would make that transaction's versions resolve
            // as "active" and vanish from reads.
            next_tid = next_tid.max(REPLICA_TID_BASE);
        }

        let vtt = Arc::new(Vtt::new());
        let split_time: Arc<dyn SplitTimeSource> = authority.clone();
        // A replica never *creates* system trees — creation appends log
        // records, and the replica's log must stay a byte prefix of the
        // primary's. The shipped prefix contains the primary's creation
        // records, so after redo the trees exist and plain opens succeed.
        let ptt = Arc::new(if fresh && !replica {
            Ptt::create(Arc::clone(&pool), Arc::clone(&wal), Arc::clone(&split_time))?
        } else {
            Ptt::open(Arc::clone(&pool), Arc::clone(&wal), Arc::clone(&split_time))?
        });
        let catalog_tree = Arc::new(if fresh && !replica {
            BTree::create(
                Arc::clone(&pool),
                Arc::clone(&wal),
                TreeId::CATALOG,
                false,
                Arc::clone(&split_time),
            )?
        } else {
            BTree::open(
                Arc::clone(&pool),
                Arc::clone(&wal),
                TreeId::CATALOG,
                false,
                Arc::clone(&split_time),
            )?
        });
        let resolver = Arc::new(TxnResolver::new(
            Arc::clone(&vtt),
            Arc::clone(&ptt),
            Arc::clone(&wal),
        ));
        pool.set_flush_hook(Arc::new(StampingFlushHook::new(Arc::clone(&resolver))));

        // The system trees; the catalog's tables join them below.
        let mut trees: HashMap<TreeId, Arc<BTree>> = HashMap::new();
        trees.insert(TreeId::PTT, Arc::clone(ptt.tree()));
        trees.insert(TreeId::CATALOG, Arc::clone(&catalog_tree));

        let gc = PttGc::new(Arc::clone(&vtt), Arc::clone(&ptt));
        let db = Database {
            pool,
            wal,
            authority,
            vtt,
            ptt,
            resolver,
            gc,
            locks: Arc::new(LockManager::with_metrics(
                config.lock_timeout,
                metrics.clone(),
            )),
            catalog_tree,
            tables: RwLock::new(HashMap::new()),
            named_snapshots: RwLock::new(HashMap::new()),
            trees: Arc::new(RwLock::new(trees)),
            next_tid: AtomicU64::new(next_tid),
            tids_reserved: AtomicU64::new(meta_max_tid.0),
            tid_reservation: Mutex::new(()),
            next_tree: AtomicU32::new(TreeId::FIRST_USER.0),
            next_session: AtomicU64::new(1),
            active: Mutex::new(HashMap::new()),
            snapshots: Mutex::new(std::collections::BTreeMap::new()),
            asof_pins: Mutex::new(std::collections::BTreeMap::new()),
            sentinel: config.sentinel.clone(),
            timestamping: config.timestamping,
            durability: config.durability,
            replica,
            repl_horizon: Mutex::new(Timestamp::ZERO),
            compactor_stop: None,
            compactor: None,
            recovered_losers: 0,
        };
        // Open one tree handle per table the catalog holds.
        db.refresh_catalog()?;

        if replica {
            // No undo: transactions open at the end of the shipped prefix
            // are the primary's in-flight writers, and their outcomes
            // arrive through later shipped records. No checkpoint either
            // (it would append local records). Reads stay correct because
            // visibility is bounded by the replication horizon, which
            // never covers an unresolved transaction.
            return Ok(db);
        }

        // Undo pass: roll back losers (requires the tree registry).
        let mut db = db;
        db.recovered_losers = recovery::undo(&db.wal, &db.pool, &db, &analysis.att)?;
        // The open counts as a crash recovery when the log had work to
        // repeat or losers to roll back. A clean shutdown's log ends at
        // its CheckpointEnd with an empty ATT — redo may still re-apply
        // the checkpoint's own page images, so that case is excluded.
        let clean_shutdown = analysis.ends_at_checkpoint && analysis.att.is_empty();
        if !clean_shutdown && (replayed > 0 || db.recovered_losers > 0) {
            metrics.recovery.crash_recoveries.inc();
        }
        // Post-recovery checkpoint establishes a fresh redo scan start.
        db.checkpoint()?;
        // The checkpoint flushed every dirty page, so the data file now
        // reflects any `Free` images a pre-crash compaction logged —
        // rebuild the allocator's free list from it.
        db.pool.disk().reload_free_list()?;
        if let Some(every) = config.compaction {
            db.start_compactor(every);
        }
        Ok(db)
    }

    /// Spawn the background history compactor: every `every`, snapshot
    /// the tree registry and run one compaction pass over each table.
    /// Per-pass errors are dropped — compaction is advisory maintenance
    /// and the next pass retries from scratch.
    fn start_compactor(&mut self, every: Duration) {
        let trees = Arc::clone(&self.trees);
        let metrics = self.metrics().clone();
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("immortal-compactor".into())
            .spawn(move || {
                let (lock, cvar) = &*stop2;
                loop {
                    let mut stopped = lock.lock();
                    if *stopped {
                        break;
                    }
                    cvar.wait_for(&mut stopped, every);
                    if *stopped {
                        break;
                    }
                    drop(stopped);
                    let _ = compaction_pass(&trees, &metrics);
                }
            })
            .expect("spawn compactor thread");
        self.compactor_stop = Some(stop);
        self.compactor = Some(handle);
    }

    // -- accessors ---------------------------------------------------------

    /// Engine-wide metrics registry (shared by every layer).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.pool.metrics()
    }

    /// Point-in-time snapshot of every metric (what `SHOW STATS` renders).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.pool.metrics().snapshot()
    }

    /// A fresh SQL session id (never 0, which means "no session").
    pub fn new_session_id(&self) -> u64 {
        self.next_session.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of frame-table shards the buffer pool resolved to.
    pub fn pool_shards(&self) -> usize {
        self.pool.shard_count()
    }

    /// Current wall-clock time (through the injected clock).
    pub fn now_ms(&self) -> u64 {
        self.authority.now_ms()
    }

    /// Persistent timestamp table size (experiments).
    pub fn ptt_len(&self) -> Result<usize> {
        self.ptt.len()
    }

    /// All PTT rows as `(tid, commit timestamp)` pairs (chaos-test
    /// invariant checks: only committed transactions may appear here).
    pub fn ptt_entries(&self) -> Result<Vec<(Tid, Timestamp)>> {
        self.ptt.entries()
    }

    /// Bytes written to the log so far (experiments).
    pub fn log_bytes(&self) -> u64 {
        self.wal.end_lsn().0
    }

    /// `(time splits, key splits)` across all user tables.
    pub fn split_counts(&self) -> (u32, u32) {
        let trees = self.trees.read();
        let mut t = 0;
        let mut k = 0;
        for handle in trees.values() {
            let (a, b) = handle.split_counts();
            t += a;
            k += b;
        }
        (t, k)
    }

    pub(crate) fn tree_handle(&self, tree: TreeId) -> Result<Arc<BTree>> {
        self.trees
            .read()
            .get(&tree)
            .cloned()
            .ok_or_else(|| Error::Catalog(format!("{tree:?} not registered")))
    }

    /// Table definition by name.
    pub fn table(&self, name: &str) -> Result<Arc<TableDef>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::Catalog(format!("unknown table {name}")))
    }

    // -- DDL ---------------------------------------------------------------

    /// Create a table (`CREATE [IMMORTAL] TABLE`) on a page-chain
    /// B+tree of its own. DDL is not transactional: it is logged as system
    /// actions and survives crashes, but cannot be rolled back.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        kind: TableKind,
    ) -> Result<Arc<TableDef>> {
        if self.replica {
            return Err(Error::ReplicaReadOnly);
        }
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(Error::Catalog(format!("table {name} already exists")));
        }
        let tree = TreeId(self.next_tree.fetch_add(1, Ordering::SeqCst));
        let def = Arc::new(TableDef {
            name: name.to_string(),
            tree,
            kind,
            schema,
        });
        let handle = self.build_index(&def, true)?;
        self.catalog_tree
            .u_insert(Tid::SYSTEM, NULL_LSN, name.as_bytes(), &def.encode())?;
        self.trees.write().insert(tree, handle);
        tables.insert(name.to_string(), Arc::clone(&def));
        Ok(def)
    }

    /// Create (`create`) or open the tree behind `def`.
    fn build_index(&self, def: &TableDef, create: bool) -> Result<Arc<BTree>> {
        let split_time: Arc<dyn SplitTimeSource> = self.authority.clone();
        let (pool, wal) = (Arc::clone(&self.pool), Arc::clone(&self.wal));
        let (tree, versioned) = (def.tree, def.kind.is_versioned());
        let tree = if create {
            BTree::create(pool, wal, tree, versioned, split_time)
        } else {
            BTree::open(pool, wal, tree, versioned, split_time)
        }?;
        Ok(Arc::new(tree))
    }

    /// Enable snapshot versioning on an *empty* conventional table
    /// (`ALTER TABLE … ENABLE SNAPSHOT`). Converting populated tables
    /// would require rewriting record formats and is out of scope.
    pub fn enable_snapshot(&self, name: &str) -> Result<()> {
        if self.replica {
            return Err(Error::ReplicaReadOnly);
        }
        let def = self.table(name)?;
        if def.kind != TableKind::Conventional {
            return Ok(()); // already versioned
        }
        let handle = self.tree_handle(def.tree)?;
        if handle.u_count()? != 0 {
            return Err(Error::Catalog(format!(
                "cannot enable snapshot versioning on non-empty table {name}"
            )));
        }
        // Swap in a fresh versioned tree under a new TreeId.
        let tree = TreeId(self.next_tree.fetch_add(1, Ordering::SeqCst));
        let new_def = Arc::new(TableDef {
            name: def.name.clone(),
            tree,
            kind: TableKind::SnapshotEnabled,
            schema: def.schema.clone(),
        });
        let new_handle = self.build_index(&new_def, true)?;
        self.catalog_tree
            .u_update(Tid::SYSTEM, NULL_LSN, name.as_bytes(), &new_def.encode())?;
        self.trees.write().insert(tree, new_handle);
        self.tables.write().insert(name.to_string(), new_def);
        Ok(())
    }

    // -- named snapshots -----------------------------------------------------

    /// `CREATE SNAPSHOT name [AS OF …]`: pin a transaction-time
    /// timestamp under a stable name. With no explicit time the current
    /// visibility horizon is pinned; an explicit time is clamped to the
    /// horizon exactly like `BEGIN TRAN AS OF`. The pin is persisted in
    /// the catalog, so it survives restarts and ships to replicas
    /// through the WAL like any other catalog change.
    pub fn create_named_snapshot(&self, name: &str, ts: Option<Timestamp>) -> Result<SnapshotDef> {
        if self.replica {
            return Err(Error::ReplicaReadOnly);
        }
        let mut snaps = self.named_snapshots.write();
        if snaps.contains_key(name) {
            return Err(Error::Temporal(format!("snapshot {name} already exists")));
        }
        let horizon = self.visible_horizon();
        let def = SnapshotDef {
            name: name.to_string(),
            ts: ts.unwrap_or(horizon).min(horizon),
            created_ms: self.now_ms(),
        };
        self.catalog_tree
            .u_insert(Tid::SYSTEM, NULL_LSN, &snapshot_key(name), &def.encode())?;
        snaps.insert(name.to_string(), def.clone());
        self.metrics().temporal.snapshots.set(snaps.len() as u64);
        Ok(def)
    }

    /// `DROP SNAPSHOT name`: unpin a named snapshot. The history it
    /// pointed at remains queryable by timestamp — only the name goes.
    pub fn drop_named_snapshot(&self, name: &str) -> Result<()> {
        if self.replica {
            return Err(Error::ReplicaReadOnly);
        }
        let mut snaps = self.named_snapshots.write();
        if snaps.remove(name).is_none() {
            return Err(Error::UnknownSnapshot(name.to_string()));
        }
        self.catalog_tree
            .u_delete(Tid::SYSTEM, NULL_LSN, &snapshot_key(name))?;
        self.metrics().temporal.snapshots.set(snaps.len() as u64);
        Ok(())
    }

    /// The pinned timestamp behind a snapshot name.
    pub fn resolve_snapshot(&self, name: &str) -> Result<SnapshotDef> {
        self.named_snapshots
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::UnknownSnapshot(name.to_string()))
    }

    /// All named snapshots, name-ascending (`SHOW SNAPSHOTS`).
    pub fn list_snapshots(&self) -> Vec<SnapshotDef> {
        let mut v: Vec<SnapshotDef> = self.named_snapshots.read().values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    // -- transaction lifecycle ----------------------------------------------

    /// Newest timestamp at which a reader sees a stable world: every
    /// commit at or below it is visible, and none newer can appear below
    /// it later (in-flight group-committed transactions are all above).
    pub fn visible_horizon(&self) -> Timestamp {
        if self.replica {
            // Shipped Commit records arrive in *log* order, which is not
            // timestamp order across the group-commit pipeline, so the
            // newest restored timestamp may name a commit whose
            // smaller-ts sibling is still in flight on the primary. The
            // replication horizon — sampled on the primary before the
            // batch bytes — is the newest timestamp with no such gap.
            return *self.repl_horizon.lock();
        }
        self.authority.snapshot()
    }

    /// Begin a read-write transaction.
    pub fn begin(&self, isolation: Isolation) -> Transaction {
        let tid = Tid(self.next_tid.fetch_add(1, Ordering::SeqCst));
        self.vtt.begin(tid);
        // Snapshot at the stable boundary, *not* at the newest issued
        // timestamp: one issued to a commit still in the group-commit
        // pipeline must stay invisible to this snapshot forever, or the
        // same read would change mid-transaction. (On a replica
        // `visible_horizon()` is the replication horizon.) An SI snapshot
        // is sampled and registered under one `snapshots` lock, so a
        // concurrent snapshot-version GC pass either sees it or bounded
        // itself at a horizon no newer than it.
        let snapshot = if isolation == Isolation::Snapshot {
            let mut snaps = self.snapshots.lock();
            let snapshot = self.visible_horizon();
            *snaps.entry(snapshot).or_insert(0) += 1;
            snapshot
        } else {
            self.visible_horizon()
        };
        self.publish_watermark();
        Transaction::new(tid, isolation, snapshot)
    }

    /// Begin a read-only historical transaction (`BEGIN TRAN AS OF …`).
    /// `as_of` is a wall-clock millisecond value; every transaction that
    /// committed within or before its 20 ms tick is visible. Requests at
    /// (or past) the current time are clamped to the visibility horizon
    /// so the view cannot change while the transaction reads it.
    pub fn begin_as_of(&self, as_of_ms: u64) -> Transaction {
        self.begin_as_of_ts(Timestamp::as_of_clock(as_of_ms))
    }

    /// Begin a read-only transaction at an exact timestamp (clamped to
    /// the visibility horizon like [`Self::begin_as_of`]).
    pub fn begin_as_of_ts(&self, as_of: Timestamp) -> Transaction {
        let tid = Tid(self.next_tid.fetch_add(1, Ordering::SeqCst));
        let txn = Transaction::new_as_of(tid, as_of.min(self.visible_horizon()));
        if self.sentinel.is_some() {
            // Pin the as-of instant so the sentinel watermark cannot
            // advance past a running historical reader (the checker would
            // prune the history needed to judge its reads).
            *self.asof_pins.lock().entry(txn.snapshot).or_insert(0) += 1;
            self.publish_watermark();
        }
        txn
    }

    /// Log `txn`'s Begin record before its first write, first extending
    /// the durable TID reservation if `txn`'s TID is within half a
    /// [`TID_BLOCK`] of it.
    fn ensure_begin_logged(&self, txn: &mut Transaction) -> Result<()> {
        if txn.last_lsn.is_null() {
            if txn.tid.0 + TID_BLOCK / 2 > self.tids_reserved.load(Ordering::SeqCst) {
                self.reserve_tids(txn.tid)?;
            }
            let lsn = self.wal.append(txn.tid, NULL_LSN, &LogRecord::Begin);
            txn.last_lsn = lsn;
            self.active.lock().insert(txn.tid, lsn);
        }
        Ok(())
    }

    /// Extend the durable TID reservation to a block past the newest TID
    /// issued: write the meta page back and sync the data file.
    fn reserve_tids(&self, tid: Tid) -> Result<()> {
        let _one = self.tid_reservation.lock();
        if tid.0 + TID_BLOCK / 2 <= self.tids_reserved.load(Ordering::SeqCst) {
            return Ok(()); // another writer extended it meanwhile
        }
        let mark = self.set_meta_max_tid()?;
        let meta = self.pool.fetch(PageId(0))?;
        self.pool.write_back(&meta)?;
        self.pool.disk().sync()?;
        self.tids_reserved.fetch_max(mark, Ordering::SeqCst);
        Ok(())
    }

    /// Raise the cached meta page's max TID to `next_tid - 1 + TID_BLOCK`
    /// (never lower it) and return the new value; durable once the page
    /// is written back and the data file synced.
    fn set_meta_max_tid(&self) -> Result<u64> {
        let meta = self.pool.fetch(PageId(0))?;
        let mut g = meta.write();
        let mark = MetaView::max_tid(&g)
            .0
            .max(self.next_tid.load(Ordering::SeqCst) - 1 + TID_BLOCK);
        MetaView::set_max_tid(&mut g, Tid(mark));
        drop(g);
        meta.mark_dirty_unlogged();
        Ok(mark)
    }

    fn ensure_writable(&self, txn: &Transaction) -> Result<()> {
        if txn.finished {
            return Err(Error::UnknownTransaction(txn.tid));
        }
        if self.replica {
            return Err(Error::ReplicaReadOnly);
        }
        if txn.is_read_only() {
            return Err(Error::ReadOnlyTransaction);
        }
        Ok(())
    }

    /// Commit: choose the timestamp (stage III), write the PTT row for
    /// immortal writers, log Commit + End, flush. Returns the commit
    /// timestamp (the begin snapshot for read-only transactions).
    pub fn commit(&self, txn: &mut Transaction) -> Result<Timestamp> {
        if txn.finished {
            return Err(Error::UnknownTransaction(txn.tid));
        }
        txn.finished = true;
        if txn.last_lsn.is_null() {
            // Read-only (or no-op): nothing logged, nothing to make
            // durable.
            self.tap_event(txn, None, false);
            self.finish_bookkeeping(txn);
            self.vtt.remove(txn.tid);
            return Ok(txn.snapshot);
        }
        // Issued in flight: concurrent `begin()`s keep their snapshots
        // below us until we are visible.
        let ts = self.authority.issue();
        match self.commit_inner(txn, ts) {
            Ok(()) => {
                // Publish the commit event *before* retiring: any reader
                // whose snapshot covers `ts` samples the boundary after
                // the retire, so its event lands later in ring order and
                // the checker always knows this version first.
                self.tap_event(txn, Some(ts), false);
                // Visible (VTT entry made after the group fsync). Return
                // only once the boundary covers us too, so the next
                // snapshot anyone takes — this client's above all — sees
                // the commit being acknowledged.
                self.authority.acknowledge(ts);
                Ok(ts)
            }
            Err(e) => {
                // A commit-path failure (I/O, PTT insert, failed group
                // batch) must not leak locks or leave the transaction
                // half-visible: roll it back like an abort. Retire the
                // timestamp only afterwards — and unconditionally, or the
                // boundary would wedge every later snapshot in the past
                // and every later commit's acknowledgement.
                self.vtt.abort(txn.tid);
                let _ = recovery::rollback_txn(&self.wal, &self.pool, self, txn.tid, txn.last_lsn);
                self.vtt.remove(txn.tid);
                self.tap_event(txn, None, true);
                self.finish_bookkeeping(txn);
                self.authority.retire(ts);
                Err(e)
            }
        }
    }

    fn commit_inner(&self, txn: &mut Transaction, ts: Timestamp) -> Result<()> {
        let mut in_ptt = false;
        match self.timestamping {
            TimestampingMode::Eager => {
                // Revisit every updated record before commit: stamp + log.
                let mut seen = std::collections::HashSet::new();
                let touched = std::mem::take(&mut txn.touched);
                for (tree, key) in touched {
                    if !seen.insert((tree, key.clone())) {
                        continue;
                    }
                    let handle = self.tree_handle(tree)?;
                    let (lsn, n) = handle.eager_stamp(txn.tid, txn.last_lsn, &key, ts)?;
                    txn.last_lsn = lsn;
                    if n > 0 {
                        self.vtt.note_stamped(txn.tid, n as u64, self.wal.end_lsn());
                    }
                }
            }
            TimestampingMode::Lazy => {
                if txn.wrote_immortal {
                    txn.last_lsn = self.ptt.insert(txn.tid, ts, txn.last_lsn)?;
                    self.metrics().ts.ptt_inserts.inc();
                    in_ptt = true;
                }
            }
        }
        let clsn = self
            .wal
            .append(txn.tid, txn.last_lsn, &LogRecord::Commit { ts });
        let elsn = self.wal.append(txn.tid, clsn, &LogRecord::End);
        // Park on the group-commit barrier until a leader's fsync covers
        // our End record (first byte past its start: buffer writes are
        // whole-record, so covering that byte covers the record — and
        // unlike `end_lsn()`, it doesn't grow with other transactions'
        // concurrent appends). Locks are released and the VTT entry
        // committed only after this returns: lazy timestamping order
        // keeps matching serialization order, and nothing becomes
        // visible before it is durable.
        self.wal.commit_durable(Lsn(elsn.0 + 1), self.durability)?;
        self.vtt.commit(txn.tid, ts, in_ptt, self.wal.end_lsn());
        self.finish_bookkeeping(txn);
        Ok(())
    }

    /// Roll back: undo the transaction's operations (writing CLRs), then
    /// release everything.
    pub fn rollback(&self, txn: &mut Transaction) -> Result<()> {
        if txn.finished {
            return Err(Error::UnknownTransaction(txn.tid));
        }
        txn.finished = true;
        if !txn.last_lsn.is_null() {
            self.vtt.abort(txn.tid);
            recovery::rollback_txn(&self.wal, &self.pool, self, txn.tid, txn.last_lsn)?;
        }
        self.vtt.remove(txn.tid);
        self.tap_event(txn, None, true);
        self.finish_bookkeeping(txn);
        Ok(())
    }

    /// Publish this transaction's outcome (plus its recorded read/write
    /// observations) to the sentinel tap, if one is armed. Skipped when
    /// nothing was observed — an empty event carries no checkable facts.
    fn tap_event(&self, txn: &mut Transaction, commit: Option<Timestamp>, aborted: bool) {
        if let Some(tap) = &self.sentinel {
            if txn.ops.is_empty() {
                return;
            }
            tap.push(immortaldb_check::TxnEvent {
                tid: txn.tid.0,
                session: txn.session,
                si: txn.isolation == Isolation::Snapshot,
                snapshot: txn.snapshot,
                commit,
                aborted,
                ops: std::mem::take(&mut txn.ops),
            });
        }
    }

    /// Advance the sentinel watermark to the oldest instant any live
    /// reader can still consult: the minimum of the visibility horizon,
    /// the oldest registered SI snapshot, and the oldest AS OF pin. The
    /// tap keeps it monotonic, so racing publishers are harmless.
    fn publish_watermark(&self) {
        if let Some(tap) = &self.sentinel {
            let mut wm = self.visible_horizon();
            if let Some(s) = self.snapshots.lock().keys().next() {
                wm = wm.min(*s);
            }
            if let Some(p) = self.asof_pins.lock().keys().next() {
                wm = wm.min(*p);
            }
            tap.set_watermark(wm);
        }
    }

    fn finish_bookkeeping(&self, txn: &Transaction) {
        self.locks.release_all(txn.tid);
        self.active.lock().remove(&txn.tid);
        if txn.isolation == Isolation::Snapshot && txn.as_of.is_none() {
            let mut snaps = self.snapshots.lock();
            if let Some(n) = snaps.get_mut(&txn.snapshot) {
                *n -= 1;
                if *n == 0 {
                    snaps.remove(&txn.snapshot);
                }
            }
        }
        if self.sentinel.is_some() {
            if txn.as_of.is_some() {
                let mut pins = self.asof_pins.lock();
                if let Some(n) = pins.get_mut(&txn.snapshot) {
                    *n -= 1;
                    if *n == 0 {
                        pins.remove(&txn.snapshot);
                    }
                }
            }
            self.publish_watermark();
        }
    }

    /// Oldest snapshot any active transaction may read (bounds
    /// snapshot-version GC). With none active it is the boundary the next
    /// `begin` would read at — not the newest issued timestamp, which may
    /// still be in flight above it — sampled under the same lock `begin`
    /// samples and registers under, so no later snapshot is below it.
    pub fn oldest_snapshot(&self) -> Timestamp {
        let snaps = self.snapshots.lock();
        snaps
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.visible_horizon())
    }

    // -- DML ----------------------------------------------------------------

    /// Insert a full row.
    pub fn insert_row(&self, txn: &mut Transaction, table: &str, values: Vec<Value>) -> Result<()> {
        let def = self.table(table)?;
        self.ensure_writable(txn)?;
        let values = def.schema.check_row(values)?;
        let key = def.schema.key_of_row(&values)?;
        let data = def.schema.encode_row(&values);
        self.locks.lock_write(txn.tid, def.tree, Arc::clone(&key))?;
        self.ensure_begin_logged(txn)?;
        let handle = self.tree_handle(def.tree)?;
        if def.kind.is_versioned() {
            txn.last_lsn =
                handle.insert(txn.tid, txn.last_lsn, &key, &data, self.resolver.as_ref())?;
            self.tap_write(txn, def.tree, &key, &data);
            self.note_write(txn, &def, &key);
        } else {
            txn.last_lsn = handle.u_insert(txn.tid, txn.last_lsn, &key, &data)?;
        }
        self.active.lock().insert(txn.tid, txn.last_lsn);
        Ok(())
    }

    /// Insert many full rows in one call (batched ingest). Rows are
    /// encoded, locked, sorted by key and handed to the index as one
    /// batch; runs landing on the same leaf are applied under a single
    /// latch acquisition and dirty marking. Atomicity is
    /// the transaction's, as with per-row inserts: a mid-batch error
    /// (duplicate key, write conflict) leaves earlier rows applied and
    /// the caller rolls the transaction back.
    pub fn insert_rows(
        &self,
        txn: &mut Transaction,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<()> {
        let def = self.table(table)?;
        self.ensure_writable(txn)?;
        let mut encoded: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(rows.len());
        for values in rows {
            let values = def.schema.check_row(values)?;
            let key = crate::row::encode_key(&values[def.schema.pk])?;
            let data = def.schema.encode_row(&values);
            encoded.push((key, data));
        }
        encoded.sort_by(|a, b| a.0.cmp(&b.0));
        for (key, _) in &encoded {
            self.locks.lock_write(txn.tid, def.tree, key[..].into())?;
        }
        self.ensure_begin_logged(txn)?;
        let handle = self.tree_handle(def.tree)?;
        let applied = if def.kind.is_versioned() {
            // Noted before the batch: a row the batch never reaches only
            // over-counts pending stamps, which is safe, and the caller
            // rolls back after an error.
            for (key, data) in &encoded {
                self.tap_write(txn, def.tree, key, data);
                self.note_write(txn, &def, key);
            }
            let r = self.resolver.as_ref();
            handle.insert_batch(txn.tid, &mut txn.last_lsn, &encoded, r)
        } else {
            encoded.iter().try_for_each(|(key, data)| {
                txn.last_lsn = handle.u_insert(txn.tid, txn.last_lsn, key, data)?;
                Ok(())
            })
        };
        // Even after an error: rows before it are applied and logged, and
        // a checkpoint taken before the rollback must cover them.
        self.active.lock().insert(txn.tid, txn.last_lsn);
        applied
    }

    /// Replace the row with primary key `values[pk]` by `values`.
    pub fn update_row(&self, txn: &mut Transaction, table: &str, values: Vec<Value>) -> Result<()> {
        let def = self.table(table)?;
        self.ensure_writable(txn)?;
        let values = def.schema.check_row(values)?;
        let key = def.schema.key_of_row(&values)?;
        let data = def.schema.encode_row(&values);
        self.locks.lock_write(txn.tid, def.tree, Arc::clone(&key))?;
        self.ensure_begin_logged(txn)?;
        let handle = self.tree_handle(def.tree)?;
        if def.kind.is_versioned() {
            self.check_first_committer(txn, &handle, &key)?;
            txn.last_lsn =
                handle.update(txn.tid, txn.last_lsn, &key, &data, self.resolver.as_ref())?;
            self.tap_write(txn, def.tree, &key, &data);
            self.note_write(txn, &def, &key);
            if def.kind == TableKind::SnapshotEnabled {
                handle.prune_snapshot_versions(&key, self.oldest_snapshot())?;
            }
        } else {
            txn.last_lsn = handle.u_update(txn.tid, txn.last_lsn, &key, &data)?;
        }
        self.active.lock().insert(txn.tid, txn.last_lsn);
        Ok(())
    }

    /// Delete the row with primary key `pk`.
    pub fn delete_row(&self, txn: &mut Transaction, table: &str, pk: &Value) -> Result<()> {
        let def = self.table(table)?;
        self.ensure_writable(txn)?;
        let pk = pk.coerce(def.schema.columns[def.schema.pk].ctype)?;
        let key = crate::row::encode_shared_key(&pk)?;
        self.locks.lock_write(txn.tid, def.tree, Arc::clone(&key))?;
        self.ensure_begin_logged(txn)?;
        let handle = self.tree_handle(def.tree)?;
        if def.kind.is_versioned() {
            self.check_first_committer(txn, &handle, &key)?;
            txn.last_lsn = handle.delete(txn.tid, txn.last_lsn, &key, self.resolver.as_ref())?;
            if self.sentinel.is_some() {
                txn.ops.push(immortaldb_check::Op::Delete {
                    key: immortaldb_check::hash_key(def.tree.0, &key),
                });
            }
            self.note_write(txn, &def, &key);
        } else {
            txn.last_lsn = handle.u_delete(txn.tid, txn.last_lsn, &key)?;
        }
        self.active.lock().insert(txn.tid, txn.last_lsn);
        Ok(())
    }

    /// Record a versioned-table write in the sentinel observation log
    /// (hashes only — the tap never retains row payloads).
    fn tap_write(&self, txn: &mut Transaction, tree: TreeId, key: &[u8], data: &[u8]) {
        if self.sentinel.is_some() {
            txn.ops.push(immortaldb_check::Op::Write {
                key: immortaldb_check::hash_key(tree.0, key),
                value: immortaldb_check::hash_value(data),
            });
        }
    }

    /// Record a snapshot-governed read (point or scan element) in the
    /// sentinel observation log. Serializable reads are excluded — they
    /// observe the locked current state, which the begin snapshot says
    /// nothing about.
    fn tap_read(&self, txn: &mut Transaction, tree: TreeId, key: &[u8], data: Option<&[u8]>) {
        if self.sentinel.is_some() {
            let kh = immortaldb_check::hash_key(tree.0, key);
            txn.ops.push(match data {
                Some(d) => immortaldb_check::Op::Read {
                    key: kh,
                    value: immortaldb_check::hash_value(d),
                },
                None => immortaldb_check::Op::ReadMiss { key: kh },
            });
        }
    }

    fn note_write(&self, txn: &mut Transaction, def: &TableDef, key: &[u8]) {
        txn.writes += 1;
        self.vtt.add_pending(txn.tid, 1);
        if def.kind == TableKind::Immortal {
            txn.wrote_immortal = true;
        }
        if self.timestamping == TimestampingMode::Eager {
            txn.touched.push((def.tree, key.to_vec()));
        }
    }

    /// Snapshot isolation first-committer-wins: abort the writer if the
    /// newest committed version postdates its snapshot. (Serializable
    /// transactions rely on two-phase locking instead.)
    fn check_first_committer(
        &self,
        txn: &Transaction,
        handle: &Arc<BTree>,
        key: &[u8],
    ) -> Result<()> {
        if txn.isolation != Isolation::Snapshot {
            return Ok(());
        }
        match handle.head_version(key, self.resolver.as_ref())? {
            HeadVersion::Committed { ts, .. } if ts > txn.snapshot => {
                Err(Error::WriteConflict(txn.tid))
            }
            HeadVersion::Uncommitted { tid, .. } if tid != txn.tid => {
                // The X lock should have excluded this.
                Err(Error::WriteConflict(txn.tid))
            }
            _ => Ok(()),
        }
    }

    /// Point read by primary key.
    pub fn get_row(
        &self,
        txn: &mut Transaction,
        table: &str,
        pk: &Value,
    ) -> Result<Option<Vec<Value>>> {
        let def = self.table(table)?;
        let bounds = PkBounds::point(&def.schema, pk)?;
        let (mut row, mut decoder) = (None, self.row_decoder(&def.schema));
        self.visit_rows(txn, &def, &bounds, |_, image| {
            row = Some(decoder.decode(image)?);
            Ok(Flow::Continue)
        })?;
        Ok(row)
    }

    /// Full-table scan (current, snapshot, or AS OF depending on the
    /// transaction), collected.
    pub fn scan_rows(&self, txn: &mut Transaction, table: &str) -> Result<Vec<Vec<Value>>> {
        let def = self.table(table)?;
        let (mut rows, mut decoder) = (Vec::new(), self.row_decoder(&def.schema));
        self.visit_rows(txn, &def, &PkBounds::all(), |_, image| {
            rows.push(decoder.decode(image)?);
            Ok(Flow::Continue)
        })?;
        Ok(rows)
    }

    /// The one way the engine turns stored row images of `schema` into
    /// values, for a caller that needs them (see [`RowDecoder`]).
    pub(crate) fn row_decoder<'s>(&'s self, schema: &'s Schema) -> RowDecoder<'s> {
        RowDecoder {
            schema,
            decoded: &self.metrics().sql.rows_decoded,
            n: 0,
        }
    }

    /// Feed `visit` every row of `def` visible to `txn` (current,
    /// snapshot, or AS OF depending on the transaction) whose primary key
    /// lies in `bounds`, key-ordered, until it answers [`Flow::Stop`]:
    /// its index key and its stored image, borrowed from the page the
    /// cursor reads, neither decoded nor checked here — a caller that
    /// hands an image on undecoded checks it first
    /// ([`Schema::check_image`]), and decoding rejects what is not a row.
    /// Work is proportional to the
    /// keys visited, not to the table: a visitor that stopped resumes
    /// with another call under [`PkBounds::resume_after`] the last key it
    /// saw — the transaction's snapshot, AS OF instant or scan lock make
    /// the two calls one scan.
    pub fn visit_rows(
        &self,
        txn: &mut Transaction,
        def: &TableDef,
        bounds: &PkBounds,
        mut visit: impl FnMut(&[u8], &[u8]) -> Result<Flow>,
    ) -> Result<()> {
        let handle = self.tree_handle(def.tree)?;
        let keys = bounds.as_range();
        self.count_pushdown(bounds);
        let versioned = def.kind.is_versioned();
        // What the transaction reads: an instant, plus its own writes.
        let (at, own) = match (txn.as_of, txn.isolation) {
            (Some(as_of), _) => {
                self.check_as_of_allowed(def)?;
                (as_of, None)
            }
            (None, Isolation::Snapshot) if versioned => (txn.snapshot, Some(txn.tid)),
            (None, isolation) => {
                if isolation == Isolation::Serializable {
                    match keys.as_point() {
                        Some(key) => self.locks.lock_read(txn.tid, def.tree, key)?,
                        None => self.locks.lock_scan(txn.tid, def.tree)?,
                    }
                }
                (Timestamp::MAX, Some(txn.tid))
            }
        };
        // Snapshot-governed reads feed the sentinel, when one is armed;
        // serializable reads observe the locked current state, which the
        // begin snapshot says nothing about.
        let tapped = self.sentinel.is_some()
            && versioned
            && (txn.as_of.is_some() || txn.isolation == Isolation::Snapshot);
        let mut found = false;
        let mut emit = |key: &[u8], image: &[u8]| -> Result<Flow> {
            found = true;
            if tapped {
                self.tap_read(txn, def.tree, key, Some(image));
            }
            visit(key, image)
        };
        let resolver = self.resolver.as_ref();
        match keys.as_point() {
            // A serializable point read is the paper's read trigger: it
            // may stamp the chain head, which the cursor never does.
            Some(key) if versioned && at == Timestamp::MAX => {
                handle.visit_current(key, own, resolver, &mut emit)?
            }
            _ if !versioned => handle.u_scan_in(&keys, &mut emit)?,
            _ => handle.rows_at(keys, at, own, resolver, &mut emit)?,
        }
        if let Some(key) = keys.as_point() {
            if tapped && !found {
                self.tap_read(txn, def.tree, key, None);
            }
        }
        Ok(())
    }

    /// Count a read's push-down once per statement: a resumed scan's
    /// later cursor calls are the same read.
    fn count_pushdown(&self, bounds: &PkBounds) {
        if bounds.is_resumed() {
            return;
        }
        let m = &self.metrics().temporal;
        match bounds.pushdown() {
            Pushdown::Point => m.pushdown_point.inc(),
            Pushdown::Range => m.pushdown_range.inc(),
            Pushdown::None => m.pushdown_none.inc(),
        }
    }

    fn check_as_of_allowed(&self, def: &TableDef) -> Result<()> {
        if def.kind != TableKind::Immortal {
            return Err(Error::Catalog(format!(
                "AS OF queries require an IMMORTAL table; {} is {:?}",
                def.name, def.kind
            )));
        }
        Ok(())
    }

    /// Complete version history of a row (time travel). Returns
    /// `(commit timestamp, row)` pairs, newest first; `None` rows mark
    /// deletions, a `None` timestamp marks an uncommitted version.
    #[allow(clippy::type_complexity)]
    pub fn history_rows(
        &self,
        table: &str,
        pk: &Value,
    ) -> Result<Vec<(Option<Timestamp>, Option<Vec<Value>>)>> {
        let mut history = VersionBuf::default();
        let def = self.history_into(table, pk, &mut history)?;
        let mut decoder = self.row_decoder(&def.schema);
        history
            .iter()
            .map(|v| Ok((v.ts(), v.data.map(|d| decoder.decode(d)).transpose()?)))
            .collect()
    }

    /// Gather a row's complete version history into `history` (cleared
    /// first), newest first, uncommitted versions included, its images
    /// undecoded: what `HISTORY OF` sends once every latch is released.
    pub(crate) fn history_into(
        &self,
        table: &str,
        pk: &Value,
        history: &mut VersionBuf,
    ) -> Result<Arc<TableDef>> {
        let def = self.table(table)?;
        self.check_as_of_allowed(&def)?;
        let bounds = PkBounds::point(&def.schema, pk)?;
        self.count_pushdown(&bounds);
        let q = Query {
            keys: bounds.as_range(),
            lo: Timestamp::ZERO,
            hi: Timestamp::MAX,
            uncommitted: true,
        };
        history.clear();
        self.tree_handle(def.tree)?
            .cursor(&q, self.resolver.as_ref(), &mut history.collect())?;
        Ok(def)
    }

    /// Every committed version of `table` whose timestamp falls in
    /// `[lo, hi]`, key-ascending then timestamp-ascending, delete
    /// tombstones included: `SELECT … VERSIONS BETWEEN`, collected.
    pub fn versions_between(
        &self,
        table: &str,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Result<Vec<TemporalVersion>> {
        let (def, lo, hi) = self.temporal_window(table, lo, hi)?;
        let returned = &self.metrics().temporal.versions_returned;
        let mut out = Vec::new();
        self.visit_versions(&def, &PkBounds::all(), lo, hi, &mut |group| {
            let before = out.len();
            out.extend(group.iter().filter_map(|v| TemporalVersion::within(&v, lo)));
            returned.add((out.len() - before) as u64);
            Ok(Flow::Continue)
        })?;
        Ok(out)
    }

    /// The temporal walk behind `VERSIONS BETWEEN`, `DIFF TABLE` and
    /// `RESTORE TABLE`, over a window [`Self::temporal_window`] has
    /// already clamped: `visit` is lent the versions of `bounds` one key
    /// at a time, oldest first, until it answers
    /// [`Flow::Stop`], and resumes like [`Self::visit_rows`]. A key's
    /// group starts with its *base*, its state at `lo`, when it has one;
    /// the base lies inside the window only if it committed at `lo`
    /// itself. Executes as one key × time cursor walk, which reads only
    /// the covering leaves' chain pages that intersect the window.
    /// The window is resolved once per statement, not here, because the
    /// horizon it is clamped to moves.
    pub fn visit_versions(
        &self,
        def: &TableDef,
        bounds: &PkBounds,
        lo: Timestamp,
        hi: Timestamp,
        visit: &mut KeyVisitor<'_>,
    ) -> Result<()> {
        self.count_pushdown(bounds);
        let handle = self.tree_handle(def.tree)?;
        handle.versions_by_key(bounds.as_range(), lo, hi, self.resolver.as_ref(), visit)
    }

    /// Shared validation for the temporal read surface: the table must
    /// be IMMORTAL and the bounds ordered. Both bounds are then clamped
    /// to the visibility horizon — on a replica that is the replication
    /// horizon, so a follower answers from the history it has instead
    /// of erroring, mirroring `BEGIN TRAN AS OF` clamping.
    pub fn temporal_window(
        &self,
        table: &str,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Result<(Arc<TableDef>, Timestamp, Timestamp)> {
        let def = self.table(table)?;
        self.check_as_of_allowed(&def)?;
        if lo > hi {
            return Err(Error::Temporal(format!(
                "reversed time window: lower bound {}.{} is above upper bound {}.{}",
                lo.ttime, lo.sn, hi.ttime, hi.sn
            )));
        }
        let horizon = self.visible_horizon();
        let hi = hi.min(horizon);
        let lo = lo.min(hi);
        Ok((def, lo, hi))
    }

    // -- maintenance ---------------------------------------------------------

    /// Take a checkpoint: persist watermarks, flush dirty pages (which
    /// also applies pending timestamps), log the checkpoint, then run PTT
    /// garbage collection against the new redo-scan-start LSN, which
    /// writes back the timestamp-table leaves it changed: the checkpoint
    /// leaves no page dirty that it dirtied itself. Returns the number of
    /// PTT entries reclaimed.
    pub fn checkpoint(&self) -> Result<usize> {
        if self.replica {
            // A checkpoint appends log records and rewrites the meta
            // watermarks — both would diverge the local log/meta from the
            // primary's shipped prefix. Replicas re-run redo at open
            // instead of maintaining a redo scan start.
            return Ok(0);
        }
        blocking::about_to_run_long();
        let reserved = self.set_meta_max_tid()?;
        {
            let meta = self.pool.fetch(PageId(0))?;
            let mut g = meta.write();
            MetaView::set_last_timestamp(&mut g, self.authority.latest());
            drop(g);
            meta.mark_dirty_unlogged();
        }
        let mut att: Vec<(Tid, Lsn)> = self
            .active
            .lock()
            .iter()
            .filter(|(_, l)| !l.is_null())
            .map(|(t, l)| (*t, *l))
            .collect();
        att.sort_unstable();
        let redo_scan_start = recovery::checkpoint(&self.wal, &self.pool, att)?;
        self.tids_reserved.fetch_max(reserved, Ordering::SeqCst);
        let reclaimed = self.gc.collect(redo_scan_start)?;
        self.metrics().ts.ptt_gc_deleted.add(reclaimed as u64);
        Ok(reclaimed)
    }

    /// Vacuum (§2.2 / the Postgres comparison): reclaim *every*
    /// persistent-timestamp-table entry, including the crash-orphaned ones
    /// the incremental collector cannot touch (their volatile reference
    /// counts were lost). Stamps every committed TID-marked record in
    /// every versioned table, checkpoints (making the stamping durable),
    /// then deletes the PTT rows that existed before the sweep — afterwards
    /// no record anywhere still needs them. Returns the number of PTT
    /// entries reclaimed.
    pub fn vacuum(&self) -> Result<usize> {
        if self.replica {
            return Err(Error::ReplicaReadOnly);
        }
        blocking::about_to_run_long();
        // Snapshot the reclaim set first: entries appearing *after* this
        // point belong to transactions committing during the sweep, whose
        // records may be stamped lazily later.
        let candidates: Vec<Tid> = self.ptt.entries()?.into_iter().map(|(t, _)| t).collect();
        let defs: Vec<Arc<TableDef>> = self.tables.read().values().cloned().collect();
        for def in defs {
            if def.kind.is_versioned() {
                self.tree_handle(def.tree)?
                    .stamp_all(self.resolver.as_ref())?;
            }
        }
        let reclaimed = candidates.len();
        self.checkpoint()?;
        for tid in candidates {
            // The incremental GC inside checkpoint() already removes the
            // entries whose stamping it just made durable; sweep the rest
            // (Ptt::delete is idempotent).
            if self.ptt.lookup(tid)?.is_some() {
                self.ptt.delete(tid)?;
                self.metrics().ts.ptt_gc_deleted.inc();
            }
            self.vtt.remove(tid);
        }
        Ok(reclaimed)
    }

    /// Run one history-compaction pass over every table now: merge
    /// single-referrer history pages and free the emptied pages. The
    /// background
    /// thread (see [`DbConfig::compaction_interval`]) runs this same pass
    /// on its timer; this is the synchronous entry point for maintenance
    /// and tests. Returns the aggregate stats.
    pub fn compact_history(&self) -> Result<CompactionStats> {
        if self.replica {
            return Err(Error::ReplicaReadOnly);
        }
        blocking::about_to_run_long();
        compaction_pass(&self.trees, self.metrics())
    }

    /// Aggregate version-store shape across every table (historical
    /// pages, versions stored, occupied bytes, full-record bytes).
    pub fn history_stats(&self) -> Result<HistoryStats> {
        let mut out = HistoryStats::default();
        let handles: Vec<Arc<BTree>> = self.trees.read().values().cloned().collect();
        for t in &handles {
            out.add(t.history_shape()?);
        }
        Ok(out)
    }

    // -- replication ---------------------------------------------------------

    /// The write-ahead log (the replication shipper reads raw frames off
    /// it; everyone else should go through the engine API).
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// Current replication horizon (== [`Self::visible_horizon`] on a
    /// replica; `Timestamp::ZERO` on a primary).
    pub fn replication_horizon(&self) -> Timestamp {
        *self.repl_horizon.lock()
    }

    /// Advance the replication horizon (monotonic). Called by the
    /// follower after it has *fully applied* every shipped byte the
    /// horizon covers — never before, or a reader could take a snapshot
    /// whose versions have not landed yet.
    pub fn set_replication_horizon(&self, ts: Timestamp) {
        let mut h = self.repl_horizon.lock();
        if ts > *h {
            *h = ts;
            self.metrics().repl.horizon_ms.set(ts.ttime);
        }
    }

    /// Apply one shipped WAL batch: append the raw bytes at `start`
    /// (must equal the local log end), redo every record onto the buffer
    /// pool, then publish `horizon`. Returns the number of log records
    /// applied. Replicas only.
    pub fn replica_apply(&self, start: Lsn, bytes: &[u8], horizon: Timestamp) -> Result<u64> {
        if !self.replica {
            return Err(Error::Internal(
                "replica_apply on a primary would fork the log".into(),
            ));
        }
        let mut records = 0u64;
        if !bytes.is_empty() {
            self.wal.append_raw(start, bytes)?;
            for entry in self.wal.iter_from(start)? {
                let e = entry?;
                recovery::apply_entry(&self.pool, &e)?;
                if let LogRecord::Commit { ts } = &e.record {
                    // Track the primary's clock so `now_ms`-relative AS OF
                    // requests and split times stay sensible.
                    self.authority.restore(*ts);
                }
                records += 1;
            }
            // Redo bypasses the trees' own root bookkeeping: re-read every
            // root (the catalog's too) before anything descends from one.
            for handle in self.trees.read().values() {
                handle.reload_root()?;
            }
            self.refresh_catalog()?;
            let metrics = self.metrics();
            metrics.repl.records_applied.add(records);
            metrics.repl.applied_lsn.set(self.wal.end_lsn().0);
        }
        // Horizon last: every commit it covers is now applied.
        self.set_replication_horizon(horizon);
        self.metrics().repl.batches_applied.inc();
        Ok(records)
    }

    /// Load the catalog: open a tree handle for every table not open yet
    /// (at open, all of them; on a replica, those the primary created or
    /// converted with `ENABLE SNAPSHOT` since the last scan), and read the
    /// named snapshots afresh.
    fn refresh_catalog(&self) -> Result<()> {
        // Rebuilt from scratch each refresh: a snapshot the primary
        // dropped must disappear here too.
        let (mut named_snapshots, mut defs) = (HashMap::new(), Vec::new());
        self.catalog_tree
            .u_scan_in(&KeyRange::ALL, &mut |key, data| {
                if key.first() == Some(&SNAPSHOT_KEY_PREFIX) {
                    let snap = SnapshotDef::decode(data)?;
                    named_snapshots.insert(snap.name.clone(), snap);
                } else {
                    let name = String::from_utf8(key.to_vec())
                        .map_err(|_| Error::Corruption("non-UTF8 table name".into()))?;
                    defs.push(Arc::new(TableDef::decode(&name, data)?));
                }
                Ok(Flow::Continue)
            })?;
        // Opened once the catalog's latches are released.
        for def in defs {
            let name = def.name.clone();
            if let Some(existing) = self.tables.read().get(&name) {
                if existing.tree == def.tree {
                    continue;
                }
            }
            let handle = self.build_index(&def, false)?;
            // Keep next_tree above every tree allocated (on a replica:
            // by the primary, which matters if it is ever promoted).
            self.next_tree.fetch_max(def.tree.0 + 1, Ordering::SeqCst);
            self.trees.write().insert(def.tree, handle);
            self.tables.write().insert(name, def);
        }
        self.metrics()
            .temporal
            .snapshots
            .set(named_snapshots.len() as u64);
        *self.named_snapshots.write() = named_snapshots;
        Ok(())
    }

    /// Log-based point-in-time restore: rewrite `table`'s current state
    /// to what an `AS OF as_of` reader sees, as one serializable
    /// transaction (`RESTORE TABLE … AS OF …`). History is preserved —
    /// the pre-restore state remains readable at its own timestamps, the
    /// restore itself is just another set of stamped updates. Returns
    /// `(rows changed, effective timestamp)` after clamping `as_of` to
    /// the visibility horizon.
    pub fn restore_table_as_of(&self, table: &str, as_of: Timestamp) -> Result<(usize, Timestamp)> {
        let def = self.table(table)?;
        self.check_as_of_allowed(&def)?;
        blocking::about_to_run_long();
        let as_of = as_of.min(self.visible_horizon());
        let mut txn = self.begin(Isolation::Serializable);
        match self.restore_diff(&mut txn, &def, as_of) {
            Ok(n) => {
                self.commit(&mut txn)?;
                Ok((n, as_of))
            }
            Err(e) => {
                let _ = self.rollback(&mut txn);
                Err(e)
            }
        }
    }

    fn restore_diff(
        &self,
        txn: &mut Transaction,
        def: &Arc<TableDef>,
        as_of: Timestamp,
    ) -> Result<usize> {
        self.ensure_writable(txn)?;
        // Whole-table lock: the walks and the writes must see one state.
        self.locks.lock_scan(txn.tid, def.tree)?;
        // Restoring is undoing the net change since `as_of`: a window
        // walk from then to now, folded like DIFF, applied in reverse
        // one chunk of keys at a time. The walk reads committed versions
        // only, so the restore's own writes never feed it back.
        let mut n = 0;
        let mut changes: Vec<DiffRow> = Vec::new();
        PkBounds::all().chunked(|bounds| {
            self.visit_versions(def, bounds, as_of, Timestamp::MAX, &mut |group| {
                if let Some(change) = temporal::fold_diff(group, as_of) {
                    changes.push(change);
                    if changes.len() == WRITE_CHUNK {
                        return Ok(Flow::Stop);
                    }
                }
                Ok(Flow::Continue)
            })?;
            let last = (changes.len() == WRITE_CHUNK).then(|| changes[WRITE_CHUNK - 1].key.clone());
            n += changes.len();
            for change in changes.drain(..) {
                self.undo_change(txn, def, change)?;
            }
            Ok(last)
        })?;
        Ok(n)
    }

    /// Put one key back into the state a [`DiffRow`] found it in at its
    /// earlier instant.
    fn undo_change(&self, txn: &mut Transaction, def: &TableDef, change: DiffRow) -> Result<()> {
        match change.before {
            None => {
                let pk = crate::row::decode_key(&change.key)?;
                self.delete_row(txn, &def.name, &pk)
            }
            Some(then) => {
                let values = self.row_decoder(&def.schema).decode(&then)?;
                if change.op == DiffOp::Delete {
                    self.insert_row(txn, &def.name, values)
                } else {
                    self.update_row(txn, &def.name, values)
                }
            }
        }
    }

    /// Flush everything and fsync (clean shutdown), then cut the log
    /// file at the log's end: a closed `wal.log` holds its records only.
    pub fn close(&self) -> Result<()> {
        self.checkpoint()?;
        self.wal.trim_tail()
    }

    /// Force the buffered log to disk without a checkpoint (log force).
    /// Used by crash tests: makes in-flight transactions' records durable
    /// while their pages are not, so recovery has losers to undo.
    pub fn force_log(&self) -> Result<()> {
        self.wal.flush(Durability::Fsync)
    }
}

impl Drop for Database {
    /// Best-effort shutdown drain: push any still-buffered log records
    /// (e.g. system actions like DDL that never went through a commit
    /// flush) into the file so recovery can replay them, and give
    /// acknowledged commits their durability level one last time. Errors
    /// are ignored — in chaos runs the fault VFS is already "crashed"
    /// here and the write is *supposed* to fail, which preserves the
    /// crash semantics torture tests rely on.
    fn drop(&mut self) {
        if let Some(stop) = self.compactor_stop.take() {
            let (lock, cvar) = &*stop;
            *lock.lock() = true;
            cvar.notify_all();
        }
        if let Some(handle) = self.compactor.take() {
            let _ = handle.join();
        }
        let _ = self.wal.flush(self.durability);
    }
}

impl TreeLocator for Database {
    fn locate_leaf(&self, tree: TreeId, key: &[u8]) -> Result<PageId> {
        self.tree_handle(tree)?.locate_leaf_page(key)
    }

    fn locate_leaf_for_insert(&self, tree: TreeId, key: &[u8], space: usize) -> Result<PageId> {
        self.tree_handle(tree)?
            .locate_leaf_page_for_insert(key, space, self.resolver.as_ref())
    }
}
