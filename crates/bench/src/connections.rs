//! Connection scaling on the leader/followers server.
//!
//! For each fleet size (64 / 256 / 1024 connections, ≥90% idle) the
//! server holds the whole fleet while the active minority drives
//! autocommit commits. Measured per configuration:
//!
//! * **process threads** while the fleet is parked — the headline
//!   number: the same fixed budget (`SERVER_WORKERS + 1` serving threads)
//!   whatever the fleet size,
//! * resident memory with the fleet parked,
//! * commit throughput and client-observed p50/p99 from the active
//!   clients — an idle fleet must not tax the hot path,
//! * how often the poll loop changed hands, and why.
//!
//! Client-side load threads are identical across rows, so the
//! thread/RSS deltas between rows isolate the server's share.
//! (EXPERIMENTS.md keeps the thread-per-connection rows this sweep was
//! first run against, as history.)

use std::sync::Arc;
use std::time::Instant;

use immortaldb::{Database, DbConfig, Durability, EventTap, Sentinel, Session};
use immortaldb_chaos::TempDir;
use immortaldb_net::{Client, Server, ServerConfig};

use crate::harness::{summarize, timed_clients};
use crate::json::Json;
use crate::report::{Cell, Report, Table};

/// `ServerConfig::workers` — fixed across fleet sizes.
const SERVER_WORKERS: usize = 4;

/// One measured configuration: an idle fleet parked on the server while
/// `active` clients commit.
#[derive(Debug, Clone)]
pub struct FleetRun {
    pub idle: usize,
    pub active: usize,
    pub sentinel: bool,
    /// `Threads:` from /proc/self/status with the fleet parked
    /// (0 where procfs is unavailable).
    pub threads: u64,
    /// `VmRSS:` (KiB) with the fleet parked.
    pub rss_kib: u64,
    pub commits: u64,
    /// Commits per second over the measured window.
    pub throughput: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    /// `server.loop_handoffs_{wait,long,batch}` over the run.
    pub handoffs: [u64; 3],
    /// Sentinel totals for an armed run (0 otherwise).
    pub events_checked: u64,
    pub violations: u64,
}

fn proc_status(field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn run_one(idle: usize, active: usize, arm: bool, commits_per_active: u64) -> FleetRun {
    let dir = TempDir::new("bench-conns");
    let tap = arm.then(|| EventTap::new(1 << 18));
    let mut db_cfg = DbConfig::new(dir.path())
        .pool_pages(4 * 1024)
        .durability(Durability::Fsync);
    if let Some(tap) = &tap {
        db_cfg = db_cfg.sentinel(Arc::clone(tap));
    }
    let db = Arc::new(Database::open(db_cfg).expect("open bench db"));
    let sentinel = tap.map(|tap| Sentinel::spawn(tap, db.metrics().clone()));
    Session::new(&db)
        .execute("CREATE IMMORTAL TABLE Conns (Id INT PRIMARY KEY, V INT)")
        .expect("create table");
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig::new("127.0.0.1:0")
            .workers(SERVER_WORKERS)
            .max_connections(idle + active + 16),
    )
    .expect("start server");
    let addr = server.local_addr();

    // Park the idle fleet, then sample what holding it costs.
    let fleet: Vec<Client> = (0..idle)
        .map(|_| Client::connect(addr).expect("connect idle"))
        .collect();
    let threads = proc_status("Threads");
    let rss_kib = proc_status("VmRSS");

    // Commit load from the active clients.
    let (latencies, secs) = timed_clients(active, |w, start| {
        let mut c = Client::connect(addr).expect("connect active");
        let mut lat = Vec::with_capacity(commits_per_active as usize);
        start.wait();
        for i in 0..commits_per_active {
            let id = (w as u64 * commits_per_active + i) as i32;
            let t0 = Instant::now();
            c.query_with_backoff(&format!("INSERT INTO Conns VALUES ({id}, {w})"), 64)
                .expect("insert");
            lat.push(t0.elapsed().as_micros() as u64);
        }
        lat
    });
    let (commits, p50_us, p99_us) = summarize(latencies.concat());
    let sm = &db.metrics().server;
    let handoffs = [
        sm.loop_handoffs_wait.get(),
        sm.loop_handoffs_long.get(),
        sm.loop_handoffs_batch.get(),
    ];

    drop(fleet);
    server.shutdown().expect("shutdown");
    let (events_checked, violations) = match sentinel {
        Some(s) => {
            let r = s.stop();
            (r.events, r.violation_count)
        }
        None => (0, 0),
    };
    FleetRun {
        idle,
        active,
        sentinel: arm,
        threads,
        rss_kib,
        commits,
        throughput: commits as f64 / secs,
        p50_us,
        p99_us,
        handoffs,
        events_checked,
        violations,
    }
}

/// The fleet sweep: 64 / 256 / 1024 connections, at most 6.25% of them
/// (and at least 2) active.
pub fn run(quick: bool) -> Vec<FleetRun> {
    let per_active: u64 = if quick { 150 } else { 600 };
    [64usize, 256, 1024]
        .iter()
        .map(|&conns| {
            let active = (conns / 16).max(2);
            run_one(conns - active, active, false, per_active)
        })
        .collect()
}

/// The idle-fleet-tax configurations: `(label, idle connections,
/// sentinel armed)`, each beside 8 active commit clients.
const TAX: [(&str, usize, bool); 3] = [
    ("8 clients alone", 0, false),
    ("+1016 idle conns", 1016, false),
    ("+1016 idle, sentinel armed", 1016, true),
];

/// The idle-fleet-tax experiment: the
/// server with 8 active commit clients, measured alone, with a
/// 1016-connection idle fleet parked beside them, and with the fleet
/// AND the isolation sentinel armed. The fleet must not tax the hot
/// path (within 10%) and the sentinel must cost < 5%. One run per
/// [`TAX`] row, in its order.
pub fn idle_tax(quick: bool) -> Vec<FleetRun> {
    let per_active: u64 = if quick { 400 } else { 2000 };
    // Interleaved rounds, best-of-N per configuration: single runs on a
    // shared host carry +/- 25% noise and the host drifts over a sweep,
    // so configs run round-robin (drift hits all three equally) and the
    // best round approximates each configuration's capability.
    let reps = if quick { 2 } else { 3 };
    let mut best: Vec<Option<FleetRun>> = vec![None, None, None];
    for _ in 0..reps {
        for (best, &(_, idle, arm)) in best.iter_mut().zip(&TAX) {
            let run = run_one(idle, 8, arm, per_active);
            if best.as_ref().is_none_or(|b| run.throughput > b.throughput) {
                *best = Some(run);
            }
        }
    }
    best.into_iter().map(|r| r.expect("one rep ran")).collect()
}

fn idle_tax_table(rows: &[FleetRun]) -> Table {
    let cells = rows
        .iter()
        .zip(TAX)
        .map(|(r, (label, ..))| {
            vec![
                label.into(),
                r.idle.into(),
                if r.sentinel { "yes" } else { "no" }.into(),
                Cell::fixed(r.throughput, 0),
                r.p50_us.into(),
                r.p99_us.into(),
                r.events_checked.into(),
                r.violations.into(),
            ]
        })
        .collect();
    let table = Table::new(
        "connections — idle-fleet tax on the hot path (8 active clients)",
        [
            "configuration",
            "idle",
            "sentinel",
            "commits/s",
            "p50 us",
            "p99 us",
            "checked",
            "violations",
        ],
        cells,
    );
    match rows {
        [base, fleet, armed] => table.note(format!(
            "  idle-fleet tax: {:.1}% (acceptance: within 10%); sentinel overhead: {:.1}% \
             (acceptance: < 5%)",
            (1.0 - fleet.throughput / base.throughput) * 100.0,
            (1.0 - armed.throughput / fleet.throughput) * 100.0,
        )),
        _ => table,
    }
}

/// The fleet sweep's table, then the idle-tax table.
pub fn report(rows: &[FleetRun], tax: &[FleetRun]) -> Report {
    let cells = rows
        .iter()
        .map(|r| {
            let [wait, long, batch] = r.handoffs;
            vec![
                (r.idle + r.active).into(),
                r.active.into(),
                r.threads.into(),
                Cell::fixed(r.rss_kib as f64 / 1024.0, 0),
                Cell::fixed(r.throughput, 0),
                r.p50_us.into(),
                r.p99_us.into(),
                Cell::new(format!("{wait}/{long}/{batch}"), Json::arr(r.handoffs)),
            ]
        })
        .collect();
    let fleet = Table::new(
        "connections — fleet scaling on a fixed thread budget",
        [
            "conns",
            "active",
            "threads",
            "RSS MiB",
            "commits/s",
            "p50 us",
            "p99 us",
            "handoffs wait/long/batch",
        ],
        cells,
    );
    Report::default().table(fleet).table(idle_tax_table(tax))
}
