//! Engine-wide observability for Immortal DB.
//!
//! A zero-dependency metrics subsystem: every instrument is a relaxed
//! atomic, so recording on hot paths (buffer fetches, WAL appends, lock
//! grants) costs one uncontended `fetch_add` and never takes a lock.
//!
//! * [`Counter`] — monotonically increasing `u64`.
//! * [`Gauge`] — last-written `u64` (pass durations, sizes).
//! * [`Histogram`] — fixed power-of-two buckets with count/sum/max;
//!   [`Histogram::start_timer`] returns a guard that records elapsed
//!   nanoseconds on drop.
//! * [`Metrics`] — the typed tree of every instrument in the engine,
//!   grouped by layer (buffer / wal / recovery / locks / ts / tree).
//! * [`MetricsRegistry`] — a cheaply cloneable `Arc<Metrics>` handle that
//!   is threaded through `Database` construction so every layer records
//!   into one shared registry.
//! * [`MetricsSnapshot`] — a point-in-time copy with stable metric names,
//!   renderable as aligned text (`SHOW STATS`) or JSON (bench output).
//!
//! Metric names are a stable public interface: `<layer>.<metric>`, e.g.
//! `buffer.hits`, `wal.fsync_ns.count`, `ts.stamps.flush`. Renaming one
//! is a breaking change for dashboards and bench tooling.

pub mod snapshot;

pub use snapshot::{HistogramSnapshot, MetricsSnapshot};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// Monotonically increasing counter. All operations are `Relaxed`: we
/// want per-event cheapness, not cross-metric ordering — snapshots are
/// advisory, never used for synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-written value (durations of one-shot passes, current sizes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Set to `v` unless the gauge already reads more: a high-water mark
    /// that racing writers cannot move back.
    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds zero values, bucket `i`
/// (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Fixed-bucket power-of-two histogram. A recorded value `v` lands in
/// bucket `64 - v.leading_zeros()`, so bucket boundaries are exact
/// powers of two and `observe` is branch-light and allocation-free.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Exclusive upper bound of bucket `i` (`None` for the last bucket,
    /// whose bound would overflow u64).
    pub fn bucket_upper_bound(i: usize) -> Option<u64> {
        if i >= HISTOGRAM_BUCKETS - 1 {
            None
        } else {
            Some(1u64 << i)
        }
    }

    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Start a timer; elapsed nanoseconds are recorded when the returned
    /// guard drops.
    #[inline]
    pub fn start_timer(&self) -> HistogramTimer<'_> {
        HistogramTimer {
            hist: self,
            start: Instant::now(),
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            buckets: (0..HISTOGRAM_BUCKETS)
                .filter_map(|i| {
                    let n = self.bucket_count(i);
                    if n == 0 {
                        None
                    } else {
                        Some((Self::bucket_upper_bound(i).unwrap_or(u64::MAX), n))
                    }
                })
                .collect(),
        }
    }
}

/// RAII timer for a [`Histogram`]; records elapsed ns on drop.
pub struct HistogramTimer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl HistogramTimer<'_> {
    /// Stop explicitly (equivalent to dropping the guard).
    pub fn stop(self) {}
}

impl Drop for HistogramTimer<'_> {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos();
        self.hist.observe(ns.min(u64::MAX as u128) as u64);
    }
}

// ---------------------------------------------------------------------
// The engine's instrument tree
// ---------------------------------------------------------------------

/// Buffer pool instruments.
#[derive(Debug, Default)]
pub struct BufferMetrics {
    /// Page fetches through the pool (hits + misses).
    pub fetches: Counter,
    /// Fetches satisfied from a resident frame.
    pub hits: Counter,
    /// Fetches that had to read the page from disk.
    pub misses: Counter,
    /// The part of `misses` the OS page cache answered without a wait
    /// for the device (`RWF_NOWAIT`), so the fetch signalled no wait.
    pub misses_cached: Counter,
    /// Frames reclaimed by the eviction clock.
    pub evictions: Counter,
    /// The part of `evictions` that reclaimed a history leaf (a
    /// `FLAG_HISTORICAL` leaf, which the sweep takes first).
    pub history_evictions: Counter,
    /// Dirty pages written back to disk.
    pub flushes: Counter,
    /// Write-backs that failed (WAL flush or page write error); the frame
    /// stays dirty and cached.
    pub flush_errors: Counter,
    /// Shard-table lock acquisitions that found the shard mutex already
    /// held (a `try_lock` failed and the caller had to block).
    pub shard_conflicts: Counter,
    /// Fetch misses that piggybacked on another thread's in-flight disk
    /// read for the same page instead of issuing their own.
    pub singleflight_waits: Counter,
}

/// Page-latch instruments (optimistic version-counter reads on the
/// B+tree read paths).
#[derive(Debug, Default)]
pub struct LatchMetrics {
    /// Page reads served by the optimistic (latch-free) protocol: the
    /// version was validated after the copy with no writer interleaved.
    pub optimistic_reads: Counter,
    /// Optimistic read attempts invalidated by a concurrent writer
    /// (version moved or was odd) and retried.
    pub optimistic_retries: Counter,
    /// Reads that exhausted the retry bound and fell back to the
    /// pessimistic shared latch.
    pub pessimistic_fallbacks: Counter,
}

/// Disk-manager instruments (physical page I/O under the buffer pool).
#[derive(Debug, Default)]
pub struct DiskMetrics {
    /// Page reads issued to the VFS (buffer-pool misses after
    /// singleflight collapsing).
    pub reads: Counter,
    /// Page writes issued to the VFS.
    pub writes: Counter,
}

/// Write-ahead-log instruments.
#[derive(Debug, Default)]
pub struct WalMetrics {
    /// Log records appended.
    pub appends: Counter,
    /// Payload bytes appended (record bodies incl. headers).
    pub bytes: Counter,
    /// `fsync` / `sync_data` calls issued.
    pub fsyncs: Counter,
    /// Latency of each fsync, in nanoseconds.
    pub fsync_ns: Histogram,
    /// Chunks of zeros a commit sync wrote ahead of the log's end, so
    /// that later commit syncs overwrite instead of growing the file.
    pub extensions: Counter,
    /// Group-commit batches synced (one leader fsync each).
    pub group_commits: Counter,
    /// Committers covered per group-commit batch.
    pub batch_size: Histogram,
    /// Time a group-commit leader spent gathering stragglers, in
    /// nanoseconds. A leader never waits for followers, so this stays
    /// empty; it stays registered because reports read it by name.
    pub leader_waits_ns: Histogram,
    /// End of log: the LSN one past the last appended record.
    pub end_lsn: Gauge,
    /// Highest LSN known fsynced, by any successful sync of the log.
    pub durable_lsn: Gauge,
}

/// WAL-shipping / replication instruments. On a primary the `shipped`
/// side counts per subscriber; on a replica the `applied` side tracks
/// the continuous-redo loop and the horizon gauges expose lag.
#[derive(Debug, Default)]
pub struct ReplMetrics {
    /// WAL_BATCH frames shipped to subscribers (primary side).
    pub batches_shipped: Counter,
    /// Raw log bytes shipped (primary side).
    pub bytes_shipped: Counter,
    /// WAL_BATCH frames received and fully applied (replica side).
    pub batches_applied: Counter,
    /// Log records replayed by the continuous-redo loop (replica side).
    pub records_applied: Counter,
    /// Reconnect attempts after a broken primary connection.
    pub reconnects: Counter,
    /// Replication horizon: newest primary commit time (ms) known safe
    /// to read on this replica.
    pub horizon_ms: Gauge,
    /// End of the locally applied log prefix (replica side).
    pub applied_lsn: Gauge,
}

/// Restart-recovery instruments (set once per `Database::open`).
#[derive(Debug, Default)]
pub struct RecoveryMetrics {
    /// Duration of the analysis pass, microseconds.
    pub analyze_us: Gauge,
    /// Duration of the redo pass, microseconds.
    pub redo_us: Gauge,
    /// Duration of the undo pass, microseconds.
    pub undo_us: Gauge,
    /// Log records replayed during redo.
    pub records_replayed: Counter,
    /// Loser transactions rolled back during undo.
    pub losers_rolled_back: Counter,
    /// Checkpoints taken.
    pub checkpoints: Counter,
    /// Restarts that actually recovered work (replayed records or rolled
    /// back losers) rather than finding a clean shutdown.
    pub crash_recoveries: Counter,
    /// Versions that lost their timestamp in a crash (flushed TID-marked)
    /// and were re-stamped from the persisted timestamp table afterwards.
    pub versions_restamped: Counter,
    /// Pages whose on-disk image failed CRC verification during redo and
    /// were rebuilt from a logged full-page image.
    pub torn_pages_repaired: Counter,
}

/// Injected-fault instruments (populated by the chaos crate's fault VFS;
/// always zero in production).
#[derive(Debug, Default)]
pub struct FaultMetrics {
    /// Page/WAL writes deliberately torn (partial write then crash).
    pub torn_writes: Counter,
    /// `fsync` calls failed by injection.
    pub fsync_errors: Counter,
    /// Reads failed by injection (transient).
    pub read_errors: Counter,
    /// Simulated crash cut-points hit.
    pub crashes: Counter,
}

/// Multi-granularity lock-manager instruments.
#[derive(Debug, Default)]
pub struct LockMetrics {
    /// Grants by mode.
    pub acquired_is: Counter,
    pub acquired_ix: Counter,
    pub acquired_s: Counter,
    pub acquired_x: Counter,
    /// Requests that blocked at least once before being granted or denied.
    pub waits: Counter,
    /// Time from first block to grant/denial, nanoseconds.
    pub wait_ns: Histogram,
    /// Requests denied by wait-for-graph cycle detection.
    pub deadlocks: Counter,
    /// Requests denied by the lock-wait timeout backstop.
    pub timeouts: Counter,
    /// Lock-table shard mutex acquisitions that found the shard already
    /// held (a `try_lock` failed and the caller had to block).
    pub shard_conflicts: Counter,
}

/// Lazy-timestamping instruments (VTT / PTT / stamping triggers).
#[derive(Debug, Default)]
pub struct TimestampMetrics {
    /// Timestamp resolutions served by the volatile table.
    pub vtt_hits: Counter,
    /// Resolutions that missed the VTT and consulted the persisted table.
    pub vtt_misses: Counter,
    /// Persisted-table lookups (== vtt_misses; kept for clarity).
    pub ptt_lookups: Counter,
    /// PTT records inserted at commit (lazy timestamping only).
    pub ptt_inserts: Counter,
    /// PTT records reclaimed by garbage collection.
    pub ptt_gc_deleted: Counter,
    /// Commits that waited, before being acknowledged, for a lower
    /// timestamp still in flight to retire.
    pub visibility_waits: Counter,
    /// Versions stamped, by trigger.
    pub stamps_read: Counter,
    pub stamps_update: Counter,
    pub stamps_flush: Counter,
    pub stamps_time_split: Counter,
    pub stamps_vacuum: Counter,
    pub stamps_eager: Counter,
}

impl TimestampMetrics {
    /// Total versions stamped across every trigger.
    pub fn stamps_total(&self) -> u64 {
        self.stamps_read.get()
            + self.stamps_update.get()
            + self.stamps_flush.get()
            + self.stamps_time_split.get()
            + self.stamps_vacuum.get()
            + self.stamps_eager.get()
    }
}

/// Time-split B+tree instruments.
#[derive(Debug, Default)]
pub struct TreeMetrics {
    /// Time splits (history page carved off a full versioned page).
    pub time_splits: Counter,
    /// Key splits (conventional B+tree splits).
    pub key_splits: Counter,
    /// Index-node key splits.
    pub index_key_splits: Counter,
    /// History pages fetched by AS OF reads and scans below the current
    /// leaf: the page the chain directory names, the pages a window reads
    /// down to its low end, and every page a directory build walks.
    pub asof_hops: Counter,
    /// Chain-directory builds: header walks down a leaf's history chain.
    pub chain_dir_builds: Counter,
    /// Version-chain length observed when a chain is stamped or read.
    pub version_chain_len: Histogram,
}

/// Version-encoding instruments (delta chains in historical pages).
#[derive(Debug, Default)]
pub struct VersionMetrics {
    /// Delta records folded onto their base during reconstruction
    /// (AS OF reads, scans, compaction walks).
    pub delta_folds: Counter,
    /// Delta-encoded records written while packing chains (time splits
    /// and compaction).
    pub deltas_written: Counter,
    /// Full (anchor) records written while packing chains.
    pub anchors_written: Counter,
    /// Live history bytes per stored version (×100, fixed-point), as
    /// measured by the most recent compaction pass.
    pub bytes_per_version: Gauge,
}

/// Background history-compactor instruments.
#[derive(Debug, Default)]
pub struct CompactionMetrics {
    /// Compaction passes completed (background or explicit).
    pub runs: Counter,
    /// Historical pages rewritten delta-packed in place or merged.
    pub pages_rewritten: Counter,
    /// Historical pages emptied by merging and returned to the free list.
    pub pages_freed: Counter,
    /// Net page bytes reclaimed by packing (pre-pack minus post-pack
    /// occupancy).
    pub bytes_reclaimed: Counter,
}

/// Temporal query-subsystem instruments (VERSIONS BETWEEN / DIFF /
/// named snapshots).
#[derive(Debug, Default)]
pub struct TemporalMetrics {
    /// Versions emitted by VERSIONS BETWEEN queries.
    pub versions_returned: Counter,
    /// Net change rows emitted by DIFF queries.
    pub diff_rows: Counter,
    /// Reads whose primary-key predicate reached the index cursor as a
    /// single key / as a key range / not at all (a whole-table walk
    /// filtered afterwards). One of the three counts per cursor call: a
    /// scan that resumes after a full chunk re-enters with a range.
    pub pushdown_point: Counter,
    pub pushdown_range: Counter,
    pub pushdown_none: Counter,
    /// Named snapshots currently registered in the catalog.
    pub snapshots: Gauge,
}

/// SQL executor instruments.
#[derive(Debug, Default)]
pub struct SqlMetrics {
    /// Row images decoded into values: by a residual predicate, a
    /// projection, an UPDATE/DELETE/RESTORE write set, or a collecting
    /// reader (`Database::get_row` and friends, and `Session::execute`,
    /// which decodes every row it returns, `SHOW` rows included). A
    /// `SELECT *` the primary-key bounds answer whole ships its rows
    /// undecoded.
    pub rows_decoded: Counter,
}

/// Wire-protocol server instruments (populated by `crates/net`; always
/// zero in embedded use).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// TCP connections accepted (including ones later shed).
    pub connections_accepted: Counter,
    /// Connections closed (client disconnect, idle timeout, shutdown).
    pub connections_closed: Counter,
    /// Connections shed with SERVER_BUSY at accept by the connection cap.
    pub shed_connections: Counter,
    /// Individual request frames answered SERVER_BUSY because the
    /// in-flight request cap was hit (the connection stays open).
    pub shed_requests: Counter,
    /// Connections currently open (idle or active).
    pub open_connections: Gauge,
    /// Connections with requests executing or queued for a thread.
    pub active_sessions: Gauge,
    /// Connections with buffered requests waiting for a thread to finish
    /// (every other thread was executing when they arrived).
    pub ready_queue_depth: Gauge,
    /// Request frames processed (all opcodes).
    pub requests: Counter,
    /// Requests that ran start to finish on the thread holding the poll
    /// loop, which then went back to polling (no hand-off, no wake-up).
    pub requests_inline: Counter,
    /// Times the poll loop was handed to a parked thread because the
    /// request in hand was about to wait (lock, fsync, page miss).
    pub loop_handoffs_wait: Counter,
    /// … because it was about to run long (scan, checkpoint, a long
    /// pipelined burst).
    pub loop_handoffs_long: Counter,
    /// … because the same poll batch held other ready connections and a
    /// CPU was free to serve them in parallel.
    pub loop_handoffs_batch: Counter,
    /// `ROWS` frames sent: one per result that fits a chunk, one per
    /// chunk of a result that does not.
    pub row_chunks: Counter,
    /// Result rows encoded into connection output buffers.
    pub rows_streamed: Counter,
    /// Times a result in mid-stream waited for its socket to take more,
    /// the connection's output backlog having reached its cap.
    pub stream_stalls: Counter,
    /// Requests answered with an ERROR frame.
    pub errors: Counter,
    /// Open transactions rolled back by the idle-session timeout.
    pub idle_rollbacks: Counter,
    /// End-to-end server-side request latency (decode → response
    /// flushed), nanoseconds.
    pub request_ns: Histogram,
    /// Server-side latency of commit requests (explicit COMMIT frames and
    /// autocommitted statements), nanoseconds.
    pub commit_ns: Histogram,
}

/// Online isolation-sentinel instruments (populated by `crates/check`
/// when a sentinel is armed; always zero otherwise). Totals are gauges
/// mirrored from the single checker thread's running report, so they
/// are exact, not racy sums.
#[derive(Debug, Default)]
pub struct CheckMetrics {
    /// Transaction events consumed from the tap ring.
    pub events: Counter,
    /// Events lost to ring overflow (mirrored from the tap's counter;
    /// any nonzero value puts the checker in degraded mode).
    pub dropped_gauge: Gauge,
    /// Individual reads validated against the committed-version map.
    pub reads_checked_gauge: Gauge,
    /// Committed writer transactions folded into the version map.
    pub commits_checked_gauge: Gauge,
    /// Isolation violations found since arming. Nonzero is an engine
    /// bug; CI gates on this staying zero.
    pub violations_gauge: Gauge,
    /// Reads the checker had no committed knowledge to judge (pre-arm
    /// rows, pruned history, post-drop mismatches).
    pub unverifiable_gauge: Gauge,
    /// Events currently buffered in the tap ring awaiting the checker.
    pub backlog: Gauge,
}

/// Every instrument in the engine, grouped by layer. Constructed once
/// per [`MetricsRegistry`] and shared via `Arc`.
#[derive(Debug, Default)]
pub struct Metrics {
    pub buffer: BufferMetrics,
    pub wal: WalMetrics,
    pub recovery: RecoveryMetrics,
    pub locks: LockMetrics,
    pub ts: TimestampMetrics,
    pub tree: TreeMetrics,
    pub faults: FaultMetrics,
    pub server: ServerMetrics,
    pub repl: ReplMetrics,
    pub temporal: TemporalMetrics,
    pub sql: SqlMetrics,
    pub latch: LatchMetrics,
    pub disk: DiskMetrics,
    pub version: VersionMetrics,
    pub compaction: CompactionMetrics,
    pub check: CheckMetrics,
}

/// Cloneable handle to a shared [`Metrics`] tree. Cloning is one `Arc`
/// bump; every component a registry is passed to records into the same
/// instruments.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Metrics>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Point-in-time copy of every instrument, with stable names.
    pub fn snapshot(&self) -> MetricsSnapshot {
        snapshot::take(self)
    }
}

impl std::ops::Deref for MetricsRegistry {
    type Target = Metrics;
    fn deref(&self) -> &Metrics {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn registry_clones_share_instruments() {
        let r1 = MetricsRegistry::new();
        let r2 = r1.clone();
        r1.buffer.hits.inc();
        r2.buffer.hits.inc();
        assert_eq!(r1.buffer.hits.get(), 2);
    }

    #[test]
    fn timer_records_elapsed() {
        let h = Histogram::new();
        {
            let _t = h.start_timer();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 2_000_000, "sum {} < 2ms", h.sum());
    }
}
