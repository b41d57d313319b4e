//! **Figure 6** — The effect of insertions/updates on AS OF queries.
//!
//! The paper: 36,000 update transactions over 500/1000/2000/4000 inserted
//! records (so each record has 72/36/18/9 versions), then full-table-scan
//! AS OF queries at increasing depths of history. Expected shape:
//!
//! * near the present, configurations with *fewer* records answer faster
//!   (fewer rows to return);
//! * deep in the past the advantage reverses — more updates per record
//!   mean longer version chains and longer time-split page chains to walk.
//!
//! We capture the engine's commit-timestamp watermark after every 10 % of
//! the updates and scan AS OF each watermark.

use immortaldb::Timestamp;
use immortaldb_mobgen::{Generator, Op};
use immortaldb_obs::MetricsSnapshot;

use crate::harness::{BenchDb, Mode};
use crate::report::{Cell, Report, Table};

pub struct Fig6Series {
    pub inserts: u32,
    pub updates_per_object: u32,
    /// `(percent of history, scan milliseconds, rows returned)` — percent
    /// counts from the start: 10 % = early history (deep in the page
    /// chains), 100 % = now.
    pub points: Vec<(u32, f64, usize)>,
    /// Engine metrics after the load + all AS OF scans (history-chain
    /// hops, version chain lengths, buffer behaviour under pressure).
    pub metrics: MetricsSnapshot,
}

/// The paper's `(inserts, updates per object)` configurations: 36,000
/// updates each. Quick runs halve the inserts.
pub const CONFIGS: [(u32, u32); 4] = [(500, 72), (1000, 36), (2000, 18), (4000, 9)];

pub fn run(quick: bool) -> Vec<Fig6Series> {
    let scale = if quick { 2 } else { 1 };
    CONFIGS
        .iter()
        .map(|&(inserts, updates)| run_config(inserts / scale, updates))
        .collect()
}

fn run_config(inserts: u32, updates_per_object: u32) -> Fig6Series {
    // A deliberately small buffer pool (512 KiB): like the paper's 256 MB
    // testbed, historical pages do not stay resident, so AS OF scans pay
    // real I/O for every time-split chain page they traverse.
    let bench = BenchDb::new_sized("fig6", Mode::Immortal, immortaldb::Durability::Buffered, 64);
    let events = Generator::events_exact(0xF160, inserts, updates_per_object);
    let total_updates = (inserts * updates_per_object) as usize;

    // Load, capturing the commit watermark right after the insert phase
    // (0% = the oldest queryable state) and after every 10% of updates.
    let mut watermarks: Vec<(u32, Timestamp)> = Vec::new();
    let mut updates_done = 0usize;
    let mut next_mark = 1u32;
    for e in &events {
        bench.apply_event(e);
        if let Op::Update { .. } = e.op {
            if updates_done == 0 {
                // Not yet recorded: state just after all inserts. The
                // first update already ran; use its predecessor tick.
                watermarks.push((0, bench.db.visible_horizon()));
            }
            updates_done += 1;
            while next_mark <= 10 && updates_done * 10 >= total_updates * next_mark as usize {
                watermarks.push((next_mark * 10, bench.db.visible_horizon()));
                next_mark += 1;
            }
        }
    }

    // Full-scan AS OF at each watermark (warm one scan first).
    let mut txn = bench.db.begin_as_of_ts(bench.db.visible_horizon());
    let _ = bench.db.scan_rows(&mut txn, "MovingObjects").unwrap();
    bench.db.commit(&mut txn).unwrap();

    let mut points = Vec::new();
    for (pct, ts) in watermarks {
        let mut txn = bench.db.begin_as_of_ts(ts);
        let t0 = std::time::Instant::now();
        let rows = bench.db.scan_rows(&mut txn, "MovingObjects").unwrap();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        bench.db.commit(&mut txn).unwrap();
        points.push((pct, ms, rows.len()));
    }
    let metrics = bench.db.metrics_snapshot();
    Fig6Series {
        inserts,
        updates_per_object,
        points,
        metrics,
    }
}

pub fn report(series: &[Fig6Series]) -> Report {
    let label = |s: &Fig6Series| format!("{}x{}", s.inserts, s.updates_per_object);
    let headers = std::iter::once("% of history".to_string())
        .chain(series.iter().map(|s| format!("{} (ms)", label(s))));
    let npoints = series.iter().map(|s| s.points.len()).min().unwrap_or(0);
    let rows = (0..npoints)
        .map(|i| {
            let pct = series[0].points[i].0;
            std::iter::once(Cell::new(format!("{pct}%"), pct))
                .chain(series.iter().map(|s| Cell::fixed(s.points[i].1, 2)))
                .collect()
        })
        .collect();
    let table = Table::new(
        "Figure 6: full-scan AS OF latency vs depth of history \
         (0% = just after the inserts, 100% = now)",
        headers,
        rows,
    )
    .note(
        "expected shape: at 100% fewer-inserts configs are fastest (fewer rows); \
         deep in history the ordering reverses (longer version/page chains).",
    );
    let mut report = Report::default().table(table);
    for s in series {
        report = report.metrics(label(s), &s.metrics);
    }
    report
}
