//! **Temporal sweep** — the `VERSIONS BETWEEN` range walk vs naive
//! per-timestamp `AS OF` replay, on a deep-history table.
//!
//! Fig. 6-style load: a modest key population updated 100+ times per
//! object under a simulated clock that gives every commit its own 20 ms
//! tick, so "replay every distinct commit time" and "replay every tick"
//! coincide. Enumerating every version inside a time window then has two
//! implementations:
//!
//! * the subsystem's way: **one** range walk
//!   ([`immortaldb::Database::versions_between`]) that reads, for each
//!   leaf, only the chain pages whose time range meets the window;
//! * the naive way: a full-table `AS OF` scan at every commit tick in
//!   the window (the only way to see every version through point-in-time
//!   reads).
//!
//! The artifact records page fetches for both; the walk must come out
//! ≥5x cheaper ([`check`], the run's exit status).

use immortaldb::{DbConfig, Timestamp};

use immortaldb_chaos::TempDir;
use immortaldb_mobgen::Generator;
use immortaldb_obs::MetricsSnapshot;

use crate::harness::{load_history, sim_clock_db, MOVING_OBJECTS};
use crate::report::{Cell, Report, Table};

pub struct TemporalResult {
    pub objects: u32,
    pub updates_per_object: u32,
    /// Commits covered by the measured window.
    pub window_commits: usize,
    /// Versions the range walk returned for the window.
    pub versions: usize,
    /// Buffer-pool page fetches: one range walk vs per-tick AS OF replay.
    pub walk_fetches: u64,
    pub replay_fetches: u64,
    pub walk_ms: f64,
    pub replay_ms: f64,
    pub metrics: MetricsSnapshot,
}

impl TemporalResult {
    pub fn fetch_ratio(&self) -> f64 {
        self.replay_fetches as f64 / (self.walk_fetches.max(1)) as f64
    }
}

pub fn run(quick: bool) -> TemporalResult {
    let (objects, updates_per_object) = if quick { (100, 100) } else { (200, 120) };
    let dir = TempDir::new("bench-temporal");
    // Small pool (512 KiB): historical pages are not resident, every
    // page the two strategies touch is a real fetch. SimClock advances
    // one tick per commit so commit times are dense and distinct.
    let (db, clock) = sim_clock_db(
        DbConfig::new(dir.path()).pool_pages(64),
        &format!("CREATE IMMORTAL TABLE {MOVING_OBJECTS}"),
    );

    // Load phase, recording every commit timestamp.
    let events = Generator::events_exact(0x7E3A, objects, updates_per_object);
    let commit_ts = load_history(&db, &clock, &events);

    // Measured window: the middle ~2% of history — deep enough that its
    // pages are long since evicted, small enough that per-tick replay
    // stays tractable.
    let window = (commit_ts.len() / 50).max(100).min(commit_ts.len());
    let start = (commit_ts.len() - window) / 2;
    let ticks = &commit_ts[start..start + window];
    let lo = Timestamp::new(ticks[0].ttime, 0);
    let hi = Timestamp::as_of_clock(ticks[window - 1].ttime);

    let m = db.metrics();

    // One range walk over the window.
    let f0 = m.buffer.fetches.get();
    let t0 = std::time::Instant::now();
    let versions = db
        .versions_between("MovingObjects", lo, hi)
        .expect("range walk");
    let walk_ms = t0.elapsed().as_secs_f64() * 1e3;
    let walk_fetches = m.buffer.fetches.get() - f0;

    // Naive replay: a full-table AS OF scan at every commit tick in the
    // window — the only way point-in-time reads can observe every
    // version the walk returned.
    let f1 = m.buffer.fetches.get();
    let t1 = std::time::Instant::now();
    for ts in ticks {
        let mut txn = db.begin_as_of_ts(*ts);
        let _ = db.scan_rows(&mut txn, "MovingObjects").expect("as of scan");
        db.commit(&mut txn).expect("commit");
    }
    let replay_ms = t1.elapsed().as_secs_f64() * 1e3;
    let replay_fetches = m.buffer.fetches.get() - f1;

    TemporalResult {
        objects,
        updates_per_object,
        window_commits: window,
        versions: versions.len(),
        walk_fetches,
        replay_fetches,
        walk_ms,
        replay_ms,
        metrics: db.metrics_snapshot(),
    }
}

pub fn report(r: &TemporalResult) -> Report {
    let rows = vec![
        vec![
            "VERSIONS BETWEEN range walk".into(),
            r.walk_fetches.into(),
            Cell::fixed(r.walk_ms, 2),
        ],
        vec![
            format!("AS OF replay x{}", r.window_commits).into(),
            r.replay_fetches.into(),
            Cell::fixed(r.replay_ms, 2),
        ],
    ];
    let table = Table::new(
        format!(
            "Temporal sweep: {} objects x {} updates, {}-commit window, {} versions",
            r.objects, r.updates_per_object, r.window_commits, r.versions
        ),
        ["strategy", "page fetches", "ms"],
        rows,
    )
    .note(format!(
        "range walk fetched {} buffer pages; replay fetched {:.1}x more \
         (acceptance floor: 5x)",
        r.walk_fetches,
        r.fetch_ratio()
    ));
    Report::default()
        .param("objects", r.objects)
        .param("updates_per_object", r.updates_per_object)
        .param("window_commits", r.window_commits)
        .param("versions", r.versions)
        .param("fetch_ratio", r.fetch_ratio())
        .table(table)
        .metrics("run", &r.metrics)
        .floor(check(r))
}

/// The acceptance floor: the walk returns versions and reads at least 5x
/// fewer pages than the replay.
pub fn check(r: &TemporalResult) -> Result<String, String> {
    let ratio = r.fetch_ratio();
    if r.versions == 0 {
        Err("temporal sweep returned no versions".into())
    } else if ratio < 5.0 {
        Err(format!(
            "range walk only {ratio:.1}x cheaper than AS OF replay"
        ))
    } else {
        Ok(format!(
            "temporal: walk {} fetches vs replay {} ({ratio:.1}x, floor 5x)",
            r.walk_fetches, r.replay_fetches
        ))
    }
}
