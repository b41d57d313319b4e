//! Ablations for the design choices DESIGN.md §4 calls out.
//!
//! * **A1** eager vs lazy timestamping — the §2.2 argument: eager delays
//!   commit and logs every stamping; lazy pays one PTT write per txn.
//! * **A2** AS OF point-read cost vs how far back it reaches (§7.2), on
//!   the page chain with its chain directory: see
//!   [`crate::ablations::chain_as_of`].
//! * **A3** storage utilization vs key-split threshold *T* (§3.3's
//!   T·ln 2 claim).
//! * **A4** PTT growth with vs without incremental GC (§2.2).
//! * **A5** snapshot-read cost vs version age (§3.4: recent versions are
//!   found in the current page).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use immortaldb::Value;
use immortaldb_btree::{BTree, Flow, KeyRange, SplitTimeSource};
use immortaldb_chaos::TempDir;
use immortaldb_common::codec::key_from_u64;
use immortaldb_common::{Result, Tid, Timestamp, TreeId, NULL_LSN};
use immortaldb_mobgen::Generator;
use immortaldb_storage::buffer::BufferPool;
use immortaldb_storage::disk::DiskManager;
use immortaldb_storage::wal::Wal;
use immortaldb_storage::TimestampResolver;
use parking_lot::Mutex;

use crate::harness::{time, BenchDb, Mode};
use crate::report::{Cell, Report, Table};

/// Commit registry doubling as resolver and split-time source, for the
/// ablations that drive an index directly.
#[derive(Default)]
struct SimAuthority {
    committed: Mutex<HashMap<Tid, Timestamp>>,
    max: Mutex<Timestamp>,
    issued: AtomicU64,
}

impl SimAuthority {
    /// One transaction: `write` gets a fresh TID, which then commits one
    /// 20 ms tick after the previous transaction.
    fn txn<T>(&self, write: impl FnOnce(Tid) -> Result<T>) {
        let tid = Tid(self.issued.fetch_add(1, Ordering::Relaxed) + 1);
        write(tid).expect("write");
        let ts = Timestamp::new(tid.0 * 20, 0);
        self.committed.lock().insert(tid, ts);
        *self.max.lock() = ts;
    }

    /// Just after the last commit: an AS OF time that sees all of it.
    fn after_last(&self) -> Timestamp {
        Timestamp::new(self.max.lock().ttime, 1)
    }
}

impl TimestampResolver for SimAuthority {
    fn resolve(&self, tid: Tid) -> Option<Timestamp> {
        self.committed.lock().get(&tid).copied()
    }
}

impl SplitTimeSource for SimAuthority {
    fn current_split_ts(&self) -> Timestamp {
        let m = *self.max.lock();
        Timestamp::new(m.ttime + 20, 0)
    }
}

/// A buffer pool of `pool_pages` frames over a fresh data file and log.
fn scratch_pool(dir: &TempDir, pool_pages: usize) -> (Arc<BufferPool>, Arc<Wal>) {
    let (disk, _) = DiskManager::open(dir.path().join("data.idb")).unwrap();
    let wal = Arc::new(Wal::open(dir.path().join("wal.log")).unwrap());
    let pool = Arc::new(BufferPool::new(
        Arc::new(disk),
        Arc::clone(&wal),
        pool_pages,
    ));
    (pool, wal)
}

// ---------------------------------------------------------------------
// A1: eager vs lazy timestamping
// ---------------------------------------------------------------------

pub struct EagerLazyResult {
    pub txns: u32,
    pub records_per_txn: u32,
    pub lazy_s: f64,
    pub eager_s: f64,
    pub lazy_log_bytes: u64,
    pub eager_log_bytes: u64,
}

pub fn eager_vs_lazy(quick: bool) -> Vec<EagerLazyResult> {
    let txns: u32 = if quick { 1_000 } else { 4_000 };
    [1u32, 8, 32]
        .iter()
        .map(|&records_per_txn| {
            let objects = 500u32;
            let rounds = txns * records_per_txn / objects;
            let events = Generator::events_exact(0xA1, objects, rounds.max(1));

            let run = |mode: Mode| {
                let bench = BenchDb::new("a1", mode);
                let base = bench.db.log_bytes();
                let secs = time(|| {
                    for chunk in events.chunks(records_per_txn as usize) {
                        bench.apply_batch(chunk);
                    }
                });
                (secs, bench.db.log_bytes() - base)
            };
            let (lazy_s, lazy_log_bytes) = run(Mode::Immortal);
            let (eager_s, eager_log_bytes) = run(Mode::ImmortalEager);
            EagerLazyResult {
                txns: events.len() as u32 / records_per_txn,
                records_per_txn,
                lazy_s,
                eager_s,
                lazy_log_bytes,
                eager_log_bytes,
            }
        })
        .collect()
}

pub fn report_eager_vs_lazy(rows: &[EagerLazyResult]) -> Report {
    let cells = rows
        .iter()
        .map(|r| {
            let overhead = (r.eager_log_bytes as f64 / r.lazy_log_bytes as f64 - 1.0) * 100.0;
            vec![
                r.txns.into(),
                r.records_per_txn.into(),
                Cell::fixed(r.lazy_s, 3),
                Cell::fixed(r.eager_s, 3),
                Cell::fixed(r.lazy_log_bytes as f64 / 1024.0, 1),
                Cell::fixed(r.eager_log_bytes as f64 / 1024.0, 1),
                Cell::new(format!("{overhead:+.1}%"), overhead),
            ]
        })
        .collect();
    Report::default().table(Table::new(
        "A1: eager vs lazy timestamping (same workload, per-record stamping \
         logged vs one PTT row per txn)",
        [
            "txns",
            "rec/txn",
            "lazy (s)",
            "eager (s)",
            "lazy log KiB",
            "eager log KiB",
            "log overhead",
        ],
        cells,
    ))
}

// ---------------------------------------------------------------------
// A3: utilization vs split threshold T
// ---------------------------------------------------------------------

pub struct UtilResult {
    pub threshold: f64,
    pub leaves: usize,
    pub slice_utilization: f64,
    pub history_pages: usize,
}

pub fn utilization_vs_threshold(quick: bool) -> Vec<UtilResult> {
    // The threshold only matters when the *current* data grows: a pure
    // update workload lets time splits shed everything historical and no
    // key split is ever needed. Grow the key population every round (a
    // fleet gaining vehicles) while updating all existing keys.
    let keys0 = if quick { 100u64 } else { 200 };
    let rounds = if quick { 20u64 } else { 40 };
    [0.5f64, 0.6, 0.7, 0.8, 0.9]
        .iter()
        .map(|&threshold| {
            let dir = TempDir::new("bench-a3");
            let (pool, wal) = scratch_pool(&dir, 32 * 1024);
            let auth = Arc::new(SimAuthority::default());
            let mut tree = BTree::create(
                pool,
                wal,
                TreeId(100),
                true,
                Arc::clone(&auth) as Arc<dyn SplitTimeSource>,
            )
            .unwrap();
            tree.set_split_threshold(threshold);
            let value = vec![7u8; 64];
            let mut population = 0u64;
            for round in 0..=rounds {
                // Growth: 10% new keys per round.
                let grow = if round == 0 {
                    keys0
                } else {
                    (population / 10).max(5)
                };
                for k in population..population + grow {
                    auth.txn(|tid| tree.insert(tid, NULL_LSN, &key_from_u64(k), &value, &*auth));
                }
                population += grow;
                for k in 0..population {
                    auth.txn(|tid| tree.update(tid, NULL_LSN, &key_from_u64(k), &value, &*auth));
                }
            }
            let stats = tree.storage_stats().unwrap();
            UtilResult {
                threshold,
                leaves: stats.current_leaves,
                slice_utilization: stats.current_slice_utilization,
                history_pages: stats.history_pages,
            }
        })
        .collect()
}

pub fn report_utilization(rows: &[UtilResult]) -> Report {
    let cells = rows
        .iter()
        .map(|r| {
            vec![
                Cell::fixed(r.threshold, 2),
                r.leaves.into(),
                Cell::fixed(r.slice_utilization, 3),
                Cell::fixed(r.threshold * std::f64::consts::LN_2, 3),
                r.history_pages.into(),
            ]
        })
        .collect();
    Report::default().table(Table::new(
        "A3: current-slice utilization vs key-split threshold T \
         (paper: expected ~ T*ln2)",
        [
            "T",
            "current leaves",
            "measured util",
            "T*ln2",
            "history pages",
        ],
        cells,
    ))
}

// ---------------------------------------------------------------------
// A2: AS OF point reads vs how far back they reach
// ---------------------------------------------------------------------

pub struct A2Result {
    /// `(percent of history, first read us, warm us/read)`. The first
    /// read follows a cleared chain directory (as at open), so it walks
    /// its leaf's chain; warm reads find their page in the directory,
    /// and their column is the median of `A2_PASSES` timed passes.
    pub points: Vec<(u32, f64, f64)>,
}

/// §7.2's prediction was that AS OF performance becomes independent of
/// how far back the query reaches "once we implement the TSB-tree",
/// because the index then descends directly to the right historical page
/// instead of walking the time-split page chain from the current page.
/// The chain directory does the same for the page chain, once a leaf's
/// chain has been walked (or recorded by its splits).
/// Timed passes of warm reads per A2 mark; the warm column is their
/// median.
const A2_PASSES: usize = 5;

pub fn chain_as_of(quick: bool) -> A2Result {
    let dir = TempDir::new("bench-a2");
    // Small pool: historical pages must not be resident (the regime where
    // chain walks hurt).
    let (pool, wal) = scratch_pool(&dir, 96);
    let auth = Arc::new(SimAuthority::default());
    let tree = BTree::create(
        Arc::clone(&pool),
        Arc::clone(&wal),
        TreeId(60),
        true,
        Arc::clone(&auth) as Arc<dyn SplitTimeSource>,
    )
    .unwrap();

    // `keys` keys, `rounds` updates of each.
    let keys = if quick { 100u64 } else { 200 };
    let rounds = if quick { 60u64 } else { 150 };
    let value = vec![5u8; 100];
    for k in 0..keys {
        auth.txn(|tid| tree.insert(tid, NULL_LSN, &key_from_u64(k), &value, &*auth));
    }
    let mut marks: Vec<(u32, Timestamp)> = vec![(0, auth.after_last())];
    for r in 1..=rounds {
        for k in 0..keys {
            auth.txn(|tid| tree.update(tid, NULL_LSN, &key_from_u64(k), &value, &*auth));
        }
        if r * 10 % rounds == 0 {
            marks.push(((r * 100 / rounds) as u32, auth.after_last()));
        }
    }

    let probes = keys.min(100);
    let read = |k: u64, t| {
        let mut len = 0;
        let key = key_from_u64(k);
        tree.rows_at(
            KeyRange::point(&key),
            t,
            None,
            auth.as_ref(),
            &mut |_, row| {
                len = row.len();
                Ok(Flow::Stop)
            },
        )
        .unwrap();
        len
    };
    let measure = |at: Timestamp| -> f64 {
        let t0 = Instant::now();
        for k in 0..probes {
            let _ = read(k, at);
        }
        t0.elapsed().as_secs_f64() * 1e6 / probes as f64
    };
    let mut points = Vec::new();
    for (pct, at) in &marks {
        // Cleared (as at open), the directory is rebuilt by the first
        // read of each leaf: time one such read, then warm every leaf.
        tree.reload_root().unwrap();
        let t0 = Instant::now();
        let _ = read(0, *at);
        let first_us = t0.elapsed().as_secs_f64() * 1e6;
        measure(*at);
        // A pass is ~100 µs: one preemption moves its mean several
        // times over, and the median pass does not see it.
        let mut passes: Vec<f64> = (0..A2_PASSES).map(|_| measure(*at)).collect();
        passes.sort_by(f64::total_cmp);
        points.push((*pct, first_us, passes[A2_PASSES / 2]));
    }
    A2Result { points }
}

pub fn report_a2(r: &A2Result) -> Report {
    let cells = r
        .points
        .iter()
        .map(|&(pct, first, warm)| {
            vec![
                Cell::new(format!("{pct}%"), pct),
                Cell::fixed(first, 1),
                Cell::fixed(warm, 1),
            ]
        })
        .collect();
    Report::default().table(Table::new(
        "A2: AS OF point reads on the page chain — the first read after the chain \
         directory is cleared walks its leaf's chain, then the directory names the page \
         (0% = oldest history; paper §7.2 predicts a flat warm column)",
        ["% of history", "first read us", "warm us/read"],
        cells,
    ))
}

// ---------------------------------------------------------------------
// A4: PTT growth with vs without incremental GC
// ---------------------------------------------------------------------

pub struct PttGcResult {
    /// `(transactions so far, PTT entries without GC, PTT entries with
    /// periodic checkpoints+GC)`.
    pub samples: Vec<(u32, usize, usize)>,
}

pub fn ptt_gc(quick: bool) -> PttGcResult {
    let total: u32 = if quick { 2_000 } else { 10_000 };
    let sample_every = total / 10;
    let events = Generator::events_exact(0xA4, 500, total / 500);

    let run = |gc: bool| -> Vec<usize> {
        let bench = BenchDb::new("a4", Mode::Immortal);
        let mut sizes = Vec::new();
        for (i, e) in events.iter().take(total as usize).enumerate() {
            bench.apply_event(e);
            let n = i as u32 + 1;
            if gc && n.is_multiple_of((sample_every / 2).max(1)) {
                // Touch the records so stamping happens, then checkpoint.
                bench.db.checkpoint().expect("checkpoint");
            }
            if n.is_multiple_of(sample_every) {
                sizes.push(bench.db.ptt_len().expect("ptt len"));
            }
        }
        sizes
    };
    let no_gc = run(false);
    let with_gc = run(true);
    PttGcResult {
        samples: no_gc
            .iter()
            .zip(&with_gc)
            .enumerate()
            .map(|(i, (a, b))| ((i as u32 + 1) * sample_every, *a, *b))
            .collect(),
    }
}

pub fn report_ptt_gc(r: &PttGcResult) -> Report {
    let cells = r
        .samples
        .iter()
        .map(|&(n, a, b)| vec![n.into(), a.into(), b.into()])
        .collect();
    Report::default().table(Table::new(
        "A4: persistent timestamp table size (entries) with vs without \
         incremental GC",
        ["txns", "no GC", "checkpoint + GC"],
        cells,
    ))
}

// ---------------------------------------------------------------------
// A5: snapshot read cost vs version age
// ---------------------------------------------------------------------

pub struct SnapshotReadResult {
    /// `(versions back in time, avg point-read microseconds)`.
    pub points: Vec<(u32, f64)>,
}

pub fn snapshot_reads(quick: bool) -> SnapshotReadResult {
    let keys: u32 = if quick { 200 } else { 500 };
    let rounds: u32 = if quick { 24 } else { 72 };
    let bench = BenchDb::new("a5", Mode::Immortal);
    let events = Generator::events_exact(0xA5, keys, rounds);
    // Capture a watermark after each update round.
    let mut marks = Vec::new();
    for (i, e) in events.iter().enumerate() {
        bench.apply_event(e);
        if i >= keys as usize && (i + 1 - keys as usize).is_multiple_of(keys as usize) {
            marks.push(bench.db.visible_horizon());
        }
    }
    // Read 100 keys at "now", and at snapshots N rounds back.
    let depths: Vec<u32> = [0u32, 1, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .filter(|d| *d < rounds)
        .collect();
    let mut points = Vec::new();
    for &back in &depths {
        let ts = marks[marks.len() - 1 - back as usize];
        let mut txn = bench.db.begin_as_of_ts(ts);
        let probes = 100u32.min(keys);
        let t0 = Instant::now();
        for k in 0..probes {
            let _ = bench
                .db
                .get_row(&mut txn, "MovingObjects", &Value::Int(k as i32))
                .expect("read");
        }
        let us = t0.elapsed().as_secs_f64() * 1e6 / probes as f64;
        bench.db.commit(&mut txn).unwrap();
        points.push((back, us));
    }
    SnapshotReadResult { points }
}

pub fn report_snapshot_reads(r: &SnapshotReadResult) -> Report {
    let cells = r
        .points
        .iter()
        .map(|&(back, us)| vec![back.into(), Cell::fixed(us, 1)])
        .collect();
    Report::default().table(Table::new(
        "A5: point-read latency vs snapshot age (versions back): recent \
         versions live in the current page, older ones behind the history chain",
        ["rounds back", "avg us/read"],
        cells,
    ))
}
