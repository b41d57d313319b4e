//! Allocation budgets of the versioned write path and the temporal read
//! path.
//!
//! A counting global allocator counts the heap allocations the test's
//! own thread makes while it runs the measured calls (other threads, the
//! harness's included, are not counted):
//!
//! * an update shaped like the benchmark's `asof.deep` set-up — 25-row
//!   serializable transactions of `update_row` on an immortal table,
//!   time splits included — stays within [`UPDATE_BUDGET`] allocations
//!   per update;
//! * a log append of an `AddVersion` record, once the log buffer has
//!   grown, allocates nothing: the record is encoded straight into it;
//! * a keyed `VERSIONS BETWEEN` and a `HISTORY OF`, streamed to a sink
//!   that keeps nothing, allocate per statement, not per version: their
//!   counts at about 100 versions of the key exceed those at about 50 by
//!   at most [`DEEPER_BUDGET`]. A 500-row `AS OF` scan stays within
//!   [`SCAN_BUDGET`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use immortaldb::{
    Clock, Database, DbConfig, Flow, Isolation, Result, RowSink, Session, SimClock, Timestamp,
    Value,
};
use immortaldb_chaos::TempDir;
use immortaldb_common::{Lsn, PageId, Tid, TreeId};
use immortaldb_storage::logrec::LogRecord;
use immortaldb_storage::wal::Wal;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local with no destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // the system allocator's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn note() {
    // `try_with`: the thread-locals may already be gone while a thread
    // exits.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNT.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (COUNT.with(Cell::get), r)
}

/// At most this many allocations per set-up-shaped update, averaged over
/// whole rounds (time splits included). It measures 4.41: the key is
/// built once, in the allocation the lock table keeps (5.41 when the
/// lock table copied it).
const UPDATE_BUDGET: f64 = 5.0;

const KEYS: i32 = 500;
const BATCH: usize = 25;

fn row(key: i32, n: i32) -> Vec<Value> {
    vec![
        Value::Int(key),
        Value::Int(key.wrapping_mul(31).wrapping_add(n)),
        Value::Int(n),
    ]
}

/// One round: every key updated once, in 25-key transactions, the clock
/// moving a tick per round so time splits have history to shed.
fn round(db: &Database, clock: &SimClock, keys: &[i32], n: i32) {
    for batch in keys.chunks(BATCH) {
        let mut txn = db.begin(Isolation::Serializable);
        for &key in batch {
            db.update_row(&mut txn, "MovingObjects", row(key, n))
                .unwrap();
        }
        db.commit(&mut txn).unwrap();
    }
    clock.advance(20);
}

#[test]
fn a_setup_shaped_update_stays_within_its_allocation_budget() {
    let dir = TempDir::new("write-allocs");
    let clock = Arc::new(SimClock::new(1_700_000_000_000));
    let db = Database::open(DbConfig::new(&dir).clock(clock.clone())).unwrap();
    Session::new(&db)
        .execute("CREATE IMMORTAL TABLE MovingObjects (Oid INT PRIMARY KEY, LocationX INT, LocationY INT)")
        .unwrap();
    let keys: Vec<i32> = (0..KEYS).collect();
    let mut txn = db.begin(Isolation::Serializable);
    db.insert_rows(
        &mut txn,
        "MovingObjects",
        keys.iter().map(|&k| row(k, 0)).collect(),
    )
    .unwrap();
    db.commit(&mut txn).unwrap();
    clock.advance(20);
    // Warm up: the log buffer, the lock and timestamp tables and the
    // buffer pool reach their working size.
    for n in 1..=10 {
        round(&db, &clock, &keys, n);
    }
    let (time_splits, _) = split_counts(&db);
    let rounds = 30;
    let (allocs, ()) = allocations(|| {
        for n in 11..11 + rounds {
            round(&db, &clock, &keys, n);
        }
    });
    let (after, _) = split_counts(&db);
    assert!(after > time_splits, "the measured rounds never time-split");
    let per_update = allocs as f64 / (rounds as f64 * KEYS as f64);
    assert!(
        per_update <= UPDATE_BUDGET,
        "{per_update:.2} allocations per update (budget {UPDATE_BUDGET})"
    );
}

fn split_counts(db: &Database) -> (u64, u64) {
    let snap = db.metrics_snapshot();
    (
        snap.get("tree.time_splits").unwrap(),
        snap.get("tree.key_splits").unwrap(),
    )
}

#[test]
fn a_steady_state_log_append_allocates_nothing() {
    let dir = TempDir::new("wal-allocs");
    let wal = Wal::open(dir.as_ref().join("wal.log")).unwrap();
    let (key, data) = ([0x80, 0, 0, 7], [9u8; 48]);
    let rec = LogRecord::AddVersion {
        tree: TreeId(3),
        page: PageId(17),
        key: &key[..],
        data: &data[..],
        stub: false,
    };
    let mut lsn = Lsn(0);
    // Grow the append buffer to the size the measured appends need.
    for _ in 0..1_000 {
        lsn = wal.append(Tid(5), lsn, &rec);
    }
    wal.flush(immortaldb::Durability::Buffered).unwrap();
    let (allocs, _) = allocations(|| {
        for _ in 0..1_000 {
            lsn = wal.append(Tid(5), lsn, &rec);
        }
    });
    assert_eq!(allocs, 0, "1,000 appends allocated {allocs} times");
}

/// How many more allocations a keyed temporal statement may make over
/// about 100 versions of its key than over about 50. Each version once
/// cost about ten (a copy of it, its lead columns and its row), which
/// made that rise about 500; the walk's reused buffers grow by doubling,
/// a few times.
const DEEPER_BUDGET: u64 = 8;

/// Allocations of one 500-row `AS OF` scan statement, parsing included,
/// whatever the depth. It measures 26; it made 40 while the versions of a
/// leaf whose answer spans several history pages were copied one by one.
const SCAN_BUDGET: u64 = 30;

/// A sink that keeps nothing.
struct Discard;

impl RowSink for Discard {
    fn columns(&mut self, _: Vec<String>) -> Result<()> {
        Ok(())
    }

    fn row(&mut self, _: &[u8]) -> Result<Flow> {
        Ok(Flow::Continue)
    }
}

/// One statement's cost, the mean of a few runs after a warm-up run:
/// allocations, then `buffer.fetches` and `version.delta_folds`.
fn statement_cost(db: &Database, as_of: Option<Timestamp>, sql: &str) -> (u64, f64, f64) {
    const RUNS: u64 = 4;
    let mut s = Session::new(db);
    let mut run = || {
        if let Some(t) = as_of {
            s.begin_as_of_ts(t).unwrap();
        }
        s.execute_into(sql, &mut Discard).unwrap();
        if as_of.is_some() {
            s.commit().unwrap();
        }
    };
    run();
    let counters = |db: &Database| {
        let snap = db.metrics_snapshot();
        let get = |name| snap.get(name).unwrap() as f64;
        (get("buffer.fetches"), get("version.delta_folds"))
    };
    let before = counters(db);
    let (allocs, ()) = allocations(|| {
        for _ in 0..RUNS {
            run();
        }
    });
    let after = counters(db);
    let per = |a: f64, b: f64| (b - a) / RUNS as f64;
    (
        allocs / RUNS,
        per(before.0, after.0),
        per(before.1, after.1),
    )
}

#[test]
fn keyed_temporal_reads_allocate_per_statement_not_per_version() {
    let dir = TempDir::new("read-allocs");
    let start = 1_700_000_000_000;
    let clock = Arc::new(SimClock::new(start));
    let db = Database::open(DbConfig::new(&dir).clock(clock.clone())).unwrap();
    Session::new(&db)
        .execute("CREATE IMMORTAL TABLE MovingObjects (Oid INT PRIMARY KEY, LocationX INT, LocationY INT)")
        .unwrap();
    let keys: Vec<i32> = (0..KEYS).collect();
    let mut txn = db.begin(Isolation::Serializable);
    db.insert_rows(
        &mut txn,
        "MovingObjects",
        keys.iter().map(|&k| row(k, 0)).collect(),
    )
    .unwrap();
    db.commit(&mut txn).unwrap();
    clock.advance(20);
    let statements = |db: &Database, depth: i32| {
        let now = clock.now_ms();
        // Half-way back through the history every key has.
        let mid = db.visible_horizon();
        let mid = Timestamp::new(mid.ttime - (depth as u64 / 2) * 20, 0);
        [
            (
                "VERSIONS BETWEEN",
                None,
                format!(
                    "SELECT * FROM MovingObjects VERSIONS BETWEEN ms({start}) AND ms({now}) \
                     WHERE Oid = 250"
                ),
            ),
            (
                "HISTORY OF",
                None,
                "HISTORY OF MovingObjects WHERE Oid = 250".to_string(),
            ),
            (
                "AS OF scan",
                Some(mid),
                "SELECT * FROM MovingObjects".to_string(),
            ),
        ]
        .map(|(name, as_of, sql)| {
            let (allocs, fetches, folds) = statement_cost(db, as_of, &sql);
            println!(
                "depth {depth:>3} {name:<16}: {allocs:>5} allocations, \
                 {fetches:>6.1} buffer fetches, {folds:>6.1} delta folds"
            );
            allocs
        })
    };
    let mut depth = 1;
    let mut deepen = |to: i32| {
        while depth < to {
            round(&db, &clock, &keys, depth);
            depth += 1;
        }
    };
    deepen(50);
    let shallow = statements(&db, 50);
    deepen(100);
    let deep = statements(&db, 100);
    for (i, name) in ["VERSIONS BETWEEN", "HISTORY OF"].iter().enumerate() {
        assert!(
            deep[i] <= shallow[i] + DEEPER_BUDGET,
            "{name}: {} allocations at depth 50, {} at depth 100",
            shallow[i],
            deep[i]
        );
    }
    for allocs in [shallow[2], deep[2]] {
        assert!(allocs <= SCAN_BUDGET, "AS OF scan: {allocs} allocations");
    }
}
