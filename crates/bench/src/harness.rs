//! Shared benchmark plumbing: database fixtures, workload application,
//! timing and latency percentiles.

use std::sync::{Arc, Barrier};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use immortaldb::{
    Database, DbConfig, Durability, Isolation, Session, SimClock, Timestamp, TimestampingMode,
    Transaction, Value,
};
use immortaldb_chaos::TempDir;
use immortaldb_mobgen::{Event, Op};

/// The paper's table, after `CREATE [IMMORTAL] TABLE`.
pub(crate) const MOVING_OBJECTS: &str =
    "MovingObjects (Oid INT PRIMARY KEY, LocationX INT, LocationY INT)";

/// Which storage/timestamping configuration a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Transaction-time table with lazy timestamping (the paper's system).
    Immortal,
    /// Conventional table in the same engine (the paper's baseline).
    Conventional,
    /// Transaction-time table with the eager-timestamping baseline.
    ImmortalEager,
}

/// A scratch database in a temp directory, removed when it drops.
pub struct BenchDb {
    pub db: Database,
    // Declared after `db`, so the database closes before its directory goes.
    _dir: TempDir,
}

impl BenchDb {
    pub fn new(tag: &str, mode: Mode) -> BenchDb {
        Self::new_with(tag, mode, Durability::Buffered)
    }

    /// `durability` selects the commit regime: `Buffered` exposes raw CPU
    /// costs, `Fsync` reproduces the paper's I/O-bound per-transaction
    /// times.
    pub fn new_with(tag: &str, mode: Mode, durability: Durability) -> BenchDb {
        Self::new_sized(tag, mode, durability, 16 * 1024)
    }

    /// Full control, including the buffer-pool size (a small pool
    /// reproduces the paper's memory-pressure regime where historical
    /// pages are not resident).
    pub fn new_sized(tag: &str, mode: Mode, durability: Durability, pool_pages: usize) -> BenchDb {
        let dir = TempDir::new(&format!("bench-{tag}"));
        let timestamping = match mode {
            Mode::ImmortalEager => TimestampingMode::Eager,
            _ => TimestampingMode::Lazy,
        };
        let db = Database::open(
            DbConfig::new(dir.path())
                .pool_pages(pool_pages)
                .durability(durability)
                .timestamping(timestamping),
        )
        .expect("open bench db");
        let kind = if mode == Mode::Conventional {
            ""
        } else {
            "IMMORTAL "
        };
        let ddl = format!("CREATE {kind}TABLE {MOVING_OBJECTS}");
        Session::new(&db).execute(&ddl).expect("create table");
        BenchDb { db, _dir: dir }
    }

    /// Apply one event as its own transaction (the paper's worst case:
    /// one record per transaction).
    pub fn apply_event(&self, e: &Event) {
        self.apply_batch(std::slice::from_ref(e));
    }

    /// Apply a batch of events inside a single transaction (the paper's
    /// lowest-overhead case).
    pub fn apply_batch(&self, events: &[Event]) {
        let mut txn = self.db.begin(Isolation::Serializable);
        for e in events {
            apply(&self.db, &mut txn, e);
        }
        self.db.commit(&mut txn).expect("commit");
    }
}

/// Insert or update one event's row of `MovingObjects` in `txn`.
pub(crate) fn apply(db: &Database, txn: &mut Transaction, e: &Event) {
    let (Op::Insert { oid, x, y } | Op::Update { oid, x, y }) = e.op;
    let row = vec![Value::Int(oid as i32), Value::Int(x), Value::Int(y)];
    match e.op {
        Op::Insert { .. } => db.insert_row(txn, "MovingObjects", row).expect("insert"),
        Op::Update { .. } => db.update_row(txn, "MovingObjects", row).expect("update"),
    }
}

/// The database `config` opens, with buffered commits and a simulated
/// clock for [`load_history`] to move, after running `ddl`.
pub(crate) fn sim_clock_db(config: DbConfig, ddl: &str) -> (Database, Arc<SimClock>) {
    let clock = Arc::new(SimClock::new(1_000_000));
    let config = config.durability(Durability::Buffered).clock(clock.clone());
    let db = Database::open(config).expect("open bench db");
    Session::new(&db).execute(ddl).expect("create table");
    (db, clock)
}

/// Apply each event as its own transaction, moving `clock` one 20 ms
/// tick after each, so every commit has its own time; returns the commit
/// timestamps.
pub(crate) fn load_history(db: &Database, clock: &SimClock, events: &[Event]) -> Vec<Timestamp> {
    let commit = |e: &Event| {
        let mut txn = db.begin(Isolation::Serializable);
        apply(db, &mut txn, e);
        let ts = db.commit(&mut txn).expect("commit");
        clock.advance(20);
        ts
    };
    events.iter().map(commit).collect()
}

/// Run `n` clients on scoped threads. Each gets its index and calls
/// `start.wait()` once it is ready; the clock runs from that barrier
/// until the last client returns. Returns the clients' results and the
/// seconds elapsed.
pub(crate) fn timed_clients<T: Send>(
    n: usize,
    client: impl Fn(usize, &Barrier) -> T + Sync,
) -> (Vec<T>, f64) {
    let start = Barrier::new(n + 1);
    std::thread::scope(|scope| {
        let (start, client) = (&start, &client);
        let handles: Vec<_> = (0..n)
            .map(|w| scope.spawn(move || client(w, start)))
            .collect();
        start.wait();
        let t0 = Instant::now();
        let results = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (results, t0.elapsed().as_secs_f64())
    })
}

/// Time a closure, returning seconds.
pub fn time<F: FnOnce()>(f: F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// The number of latencies, and their median and 99th percentile.
pub(crate) fn summarize(mut us: Vec<u64>) -> (u64, u64, u64) {
    us.sort_unstable();
    let at = |p: f64| match us.len() {
        0 => 0,
        n => us[((n - 1) as f64 * p).round() as usize],
    };
    (us.len() as u64, at(0.50), at(0.99))
}

/// Wall-clock milliseconds since the epoch, for `BEGIN TRAN AS OF` now.
pub(crate) fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_millis() as u64
}

/// The CPU mask a [`pin_to_one_cpu`] replaced; dropping it puts it back.
pub(crate) struct Pinned {
    #[cfg(target_os = "linux")]
    mask: [u64; 16],
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Confine the calling thread, and every thread it starts from now on,
/// to the first CPU it may run on, as the ledger confines itself: a
/// server and its clients then share one CPU, and what a request costs
/// does not drift with how often it hops between CPUs. `None` when the
/// mask could not be set.
#[cfg(target_os = "linux")]
pub(crate) fn pin_to_one_cpu() -> Option<Pinned> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the kernel writes at most `size` bytes into `mask`; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|w| *w != 0)?;
    let mut one = [0u64; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: the kernel reads `size` bytes of `one`.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(Pinned { mask })
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn pin_to_one_cpu() -> Option<Pinned> {
    None
}

#[cfg(target_os = "linux")]
impl Drop for Pinned {
    fn drop(&mut self) {
        let size = std::mem::size_of_val(&self.mask);
        // SAFETY: the kernel reads `size` bytes of the saved mask.
        unsafe { sched_setaffinity(0, size, self.mask.as_ptr()) };
    }
}
