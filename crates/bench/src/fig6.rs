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

use crate::harness::{print_table, BenchDb, Mode};

pub struct Fig6Config {
    pub inserts: u32,
    pub updates_per_object: u32,
}

pub struct Fig6Series {
    pub config: Fig6Config,
    /// `(percent of history, scan milliseconds, rows returned)` — percent
    /// counts from the start: 10 % = early history (deep in the page
    /// chains), 100 % = now.
    pub points: Vec<(u32, f64, usize)>,
    /// Engine metrics after the load + all AS OF scans (history-chain
    /// hops, version chain lengths, buffer behaviour under pressure).
    pub metrics: MetricsSnapshot,
}

pub const CONFIGS: [Fig6Config; 4] = [
    Fig6Config {
        inserts: 500,
        updates_per_object: 72,
    },
    Fig6Config {
        inserts: 1000,
        updates_per_object: 36,
    },
    Fig6Config {
        inserts: 2000,
        updates_per_object: 18,
    },
    Fig6Config {
        inserts: 4000,
        updates_per_object: 9,
    },
];

pub fn run(quick: bool) -> Vec<Fig6Series> {
    let scale = if quick { 2 } else { 1 };
    CONFIGS
        .iter()
        .map(|c| {
            run_config(Fig6Config {
                inserts: c.inserts / scale,
                updates_per_object: c.updates_per_object,
            })
        })
        .collect()
}

fn run_config(config: Fig6Config) -> Fig6Series {
    // A deliberately small buffer pool (512 KiB): like the paper's 256 MB
    // testbed, historical pages do not stay resident, so AS OF scans pay
    // real I/O for every time-split chain page they traverse.
    let bench = BenchDb::new_sized("fig6", Mode::Immortal, immortaldb::Durability::Buffered, 64);
    let events = Generator::events_exact(0xF160, config.inserts, config.updates_per_object);
    let total_updates = (config.inserts * config.updates_per_object) as usize;

    // Load, capturing the commit watermark right after the insert phase
    // (0% = the oldest queryable state) and after every 10% of updates.
    let mut watermarks: Vec<(u32, Timestamp)> = Vec::new();
    let mut updates_done = 0usize;
    let mut next_mark = 1u32;
    for e in &events {
        bench.apply_event(e);
        match e.op {
            Op::Insert { .. } => {}
            Op::Update { .. } => {
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
        config,
        points,
        metrics,
    }
}

/// Serialize one series as a JSON object (no trailing newline).
pub fn series_json(s: &Fig6Series) -> String {
    let points: Vec<String> = s
        .points
        .iter()
        .map(|(pct, ms, rows)| format!("{{\"pct\":{pct},\"scan_ms\":{ms:.4},\"rows\":{rows}}}"))
        .collect();
    format!(
        "{{\"inserts\":{},\"updates_per_object\":{},\"points\":[{}],\"metrics\":{}}}",
        s.config.inserts,
        s.config.updates_per_object,
        points.join(","),
        s.metrics.to_json()
    )
}

pub fn report(series: &[Fig6Series]) {
    let headers: Vec<String> = std::iter::once("% of history".to_string())
        .chain(
            series
                .iter()
                .map(|s| format!("{}x{} (ms)", s.config.inserts, s.config.updates_per_object)),
        )
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let npoints = series.iter().map(|s| s.points.len()).min().unwrap_or(0);
    let rows: Vec<Vec<String>> = (0..npoints)
        .map(|i| {
            std::iter::once(format!("{}%", series[0].points[i].0))
                .chain(series.iter().map(|s| format!("{:.2}", s.points[i].1)))
                .collect()
        })
        .collect();
    print_table(
        "Figure 6: full-scan AS OF latency vs depth of history \
         (0% = just after the inserts, 100% = now)",
        &header_refs,
        &rows,
    );
    println!(
        "expected shape: at 100% fewer-inserts configs are fastest (fewer rows); \
         deep in history the ordering reverses (longer version/page chains)."
    );
}
