//! The traced run. Tracing inside the engine is a later change; here
//! each layer is measured from outside, by replaying one seeded op
//! stream — single-threaded, a fixed number of ops — against fresh
//! identical databases at four nested public boundaries:
//!
//! * pass A: the wire client over loopback,
//! * pass B: the SQL session in process,
//! * pass C: the `Database` API,
//! * pass D: the SQL parser alone.
//!
//! The difference of two passes' per-op medians is the self time of the
//! layer between them. Counter deltas are read by name around pass A.
//! The clock is the generator's, nothing runs concurrently and nothing
//! is time-triggered, so every count repeats exactly from run to run.

use std::path::Path;

use immortaldb::sql::parser::Parser;
use immortaldb::Session;

use crate::exec::{drive, execute, execute_direct, DriveCtx, Limit, Outcome, Plan, Step, Tally};
use crate::json::Json;
use crate::report::{Measured, Row};
use crate::spans::{self_time_ns, spans_to_json, Recorder, Span};
use crate::stats::median;
use crate::workloads::{s, serve, set_up, Bed, Class, Kind, Spec, CLIENTS};

/// Engine counters read (by string name) before and after pass A.
const COUNTERS: [&str; 27] = [
    "ts.ptt_inserts",
    "ts.stamps.total",
    "ts.stamps.read",
    "ts.stamps.update",
    "ts.stamps.flush",
    "ts.stamps.time_split",
    "ts.vtt_hits",
    "ts.vtt_misses",
    "locks.wait_ns.sum",
    "tree.time_splits",
    "tree.key_splits",
    "tree.asof_hops",
    "version.delta_folds",
    "latch.optimistic_reads",
    "latch.optimistic_retries",
    "buffer.fetches",
    "buffer.hits",
    "buffer.evictions",
    "buffer.singleflight_waits",
    "wal.bytes",
    "wal.appends",
    "wal.fsyncs",
    "wal.fsync_ns.sum",
    "wal.leader_waits_ns.sum",
    "disk.reads",
    "disk.writes",
    "version.bytes_per_version",
];

/// Per-layer metrics, in report order: name, unit, better. Every time
/// in the list is one every workload spends (the layers of its main op),
/// so none reads a constant 0; times only some workloads have are
/// reported beside them as diagnostics.
pub const LAYER_METRICS: [(&str, &str, &str); 31] = [
    ("net_self_us", "us", "lower"),
    ("sql_parse_us", "us", "lower"),
    ("sql_exec_self_us", "us", "lower"),
    ("core_primary_us", "us", "lower"),
    ("core_secondary_us", "us", "lower"),
    ("core_call_us", "us", "lower"),
    ("core_commit_us", "us", "lower"),
    ("layer_sum_pct", "%", "higher"),
    ("trace_overhead_pct", "%", "lower"),
    ("ptt_inserts_per_commit", "count", "lower"),
    ("stamps_per_commit", "count", "lower"),
    ("stamps_on_read_per_commit", "count", "lower"),
    ("stamps_on_update_per_commit", "count", "lower"),
    ("stamps_on_flush_per_commit", "count", "lower"),
    ("stamps_on_split_per_commit", "count", "lower"),
    ("vtt_hit_ratio", "ratio", "higher"),
    ("time_splits_per_kcommit", "count", "lower"),
    ("key_splits_per_kcommit", "count", "lower"),
    ("asof_hops_per_read", "count", "lower"),
    ("delta_folds_per_read", "count", "lower"),
    ("optimistic_retry_ratio", "ratio", "lower"),
    ("buffer_hit_ratio", "ratio", "higher"),
    ("evictions_per_op", "count", "lower"),
    ("singleflight_waits_per_op", "count", "lower"),
    ("wal_bytes_per_commit", "B", "lower"),
    ("wal_appends_per_commit", "count", "lower"),
    ("commits_per_fsync", "count", "higher"),
    ("disk_reads_per_op", "count", "lower"),
    ("disk_writes_per_op", "count", "lower"),
    ("bytes_per_version", "B", "lower"),
    ("trace_ops", "count", "higher"),
];

/// Ops of each pass whose spans are written to the trace file.
const TRACE_FILE_OPS: u64 = 2_000;

/// What one pass leaves behind.
struct Pass {
    tally: Tally,
    spans: Vec<Span>,
}

impl Pass {
    /// Median duration in µs of the per-op parent spans of `class`.
    fn op_median_us(&self, class: Class) -> f64 {
        self.median_us(|s| s.parent.is_none() && s.name == class.name())
    }

    /// Median duration in µs of the spans `pick` selects; 0 if none.
    fn median_us(&self, pick: impl Fn(&Span) -> bool) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }
}

fn ctx<'a>(bed: &'a Bed, checkpoint_every: u64, filtered: bool) -> DriveCtx<'a> {
    DriveCtx {
        db: &bed.db,
        clock: &bed.clock,
        checkpoint_every,
        filtered,
    }
}

pub fn trace_workload(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    smoke: bool,
    scratch: &Path,
    out_dir: &Path,
) -> Result<Measured, String> {
    let ops = ((spec.trace_ops_per_s as f64 * seconds) as u64).max(40);
    let limit = Limit::Ops(ops);
    let dir = scratch.join(format!("{}-{seed}-trace", spec.name));
    let sizes = spec.sizes(smoke);
    let every = sizes.checkpoint_every / 10;
    let streams = || -> Vec<_> { (0..CLIENTS).map(|c| spec.stream(seed, c, smoke)).collect() };

    // A read-only workload leaves its database as it found it, so one
    // set-up serves every pass; a writing one gets a fresh database each.
    let renew = |bed: Bed| -> Result<Bed, String> {
        if spec.kind == Kind::AsOfDeep {
            return Ok(bed);
        }
        bed.db.close().map_err(s)?;
        drop(bed);
        set_up(spec, &dir, smoke)
    };

    // Pass A twice: spans off (the twin `trace_overhead_pct` is taken
    // against), then spans on with the counters read around it.
    let mut statements: Vec<(Class, Vec<String>)> = Vec::new();
    let mut deltas: Vec<Option<u64>> = Vec::new();
    let mut wire = |bed: &Bed, traced: bool| -> Result<Pass, String> {
        let (server, mut clients) = serve(bed, 1)?;
        let mut client = clients.pop().expect("one client");
        let mut rec = Recorder::new(traced);
        let before = bed.db.metrics_snapshot();
        let tally = drive(
            |plan: &Plan, rec: &mut Recorder| {
                if traced {
                    let sql = plan.steps.iter().filter_map(|s| match s {
                        Step::Do(_, sql) => Some(sql.clone()),
                        _ => None,
                    });
                    statements.push((plan.class, sql.collect()));
                }
                execute(&mut client, plan, rec)
            },
            &mut streams(),
            &mut bed.model.share(),
            &ctx(bed, every, true),
            &limit,
            &mut rec,
        );
        if traced {
            let after = bed.db.metrics_snapshot();
            deltas = COUNTERS
                .iter()
                .map(|name| Some(after.get(name)?.wrapping_sub(before.get(name)?)))
                .collect();
        }
        drop(client);
        server.shutdown().map_err(s)?;
        Ok(Pass {
            tally,
            spans: rec.spans,
        })
    };
    let mut bed = set_up(spec, &dir, smoke)?;
    let plain = wire(&bed, false)?;
    bed = renew(bed)?;
    let a = wire(&bed, true)?;
    bed = renew(bed)?;

    // Passes B and C: the SQL session and the Database API, in process.
    let in_process =
        |bed: &Bed, filtered: bool, run: &mut dyn FnMut(&Plan, &mut Recorder) -> Outcome| {
            let mut rec = Recorder::new(true);
            let tally = drive(
                run,
                &mut streams(),
                &mut bed.model.share(),
                &ctx(bed, every, filtered),
                &limit,
                &mut rec,
            );
            Pass {
                tally,
                spans: rec.spans,
            }
        };
    let b = {
        let mut session = Session::new(&bed.db);
        in_process(&bed, true, &mut |plan, rec| {
            execute(&mut session, plan, rec)
        })
    };
    bed = renew(bed)?;
    let c = in_process(&bed, false, &mut |plan, rec| {
        execute_direct(&bed.db, plan, rec)
    });
    bed.db.close().map_err(s)?;
    drop(bed);
    let _ = std::fs::remove_dir_all(&dir);

    // Pass D: the parser, on every statement pass A sent.
    let d = {
        let mut rec = Recorder::new(true);
        let mut tally = Tally::new();
        for (op_id, (class, sqls)) in statements.iter().enumerate() {
            rec.begin_op(class.name(), op_id as u64);
            for sql in sqls {
                tally.attempted += 1;
                if rec.child("sql.parse", || Parser::parse(sql)).is_err() {
                    tally.failed += 1;
                    tally.first_failure.get_or_insert(format!("parse: {sql}"));
                }
            }
            rec.end_op();
        }
        Pass {
            tally,
            spans: rec.spans,
        }
    };

    // -- layer times --------------------------------------------------------
    let (primary, secondary) = spec.primary_secondary();
    let a_us = a.op_median_us(primary);
    let b_us = b.op_median_us(primary);
    let c_us = c.op_median_us(primary);
    // Statements of one op are parsed back to back under its parent span.
    let d_us = d.op_median_us(primary);
    let net_self = a_us - b_us;
    let sql_exec_self = b_us - c_us - d_us;
    let named = |names: &[&str]| c.median_us(|s| names.contains(&s.name));
    // The engine call that does the main op's work, and the one that ends it.
    let (call, end) = if primary.is_write() {
        ("core.update_row", "core.commit")
    } else {
        ("core.get_row_as_of", "core.end_read")
    };
    // The primary op's pass-C time, rebuilt from its calls' medians: how
    // much of pass A the named layers account for.
    let is_primary_op = |s: &Span| s.parent.is_none() && s.name == primary.name();
    let primary_ops = c.spans.iter().filter(|s| is_primary_op(s)).count();
    let calls_of_primary = |name: &str| -> f64 {
        let hits = c
            .spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| is_primary_op(&c.spans[p])))
            .count();
        hits as f64 / primary_ops.max(1) as f64
    };
    let core_sum: f64 = [
        "core.begin",
        "core.begin_as_of_ts",
        "core.get_row",
        "core.get_row_as_of",
        "core.insert_row",
        "core.update_row",
        "core.commit",
        "core.end_read",
    ]
    .iter()
    .map(|name| calls_of_primary(name) * c.median_us(|s| s.name == *name))
    .sum();
    // What pass C's own loop spends around the calls: the parent span's
    // self time.
    let harness_self = {
        let v: Vec<f64> = (0..c.spans.len())
            .filter(|i| is_primary_op(&c.spans[*i]))
            .map(|i| self_time_ns(&c.spans, i) as f64 / 1e3)
            .collect();
        median(&v)
    };
    let layer_sum_pct = 100.0 * (net_self + d_us + sql_exec_self + core_sum + harness_self) / a_us;
    let plain_us = {
        let v: Vec<f64> = plain
            .tally
            .of(primary)
            .iter()
            .map(|ns| *ns as f64 / 1e3)
            .collect();
        median(&v)
    };
    let trace_overhead_pct = 100.0 * (a_us - plain_us) / plain_us;

    // -- counters -----------------------------------------------------------
    let delta = |name: &str| -> Option<f64> {
        let i = COUNTERS
            .iter()
            .position(|n| *n == name)
            .expect("listed counter");
        deltas[i].map(|d| d as f64)
    };
    let commits = a.tally.commits.max(1) as f64;
    let reads = a.tally.reads.max(1) as f64;
    let all_ops = a.tally.attempted.max(1) as f64;
    let per = |name: &str, den: f64| delta(name).map(|d| d / den);
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        (Some(_), Some(_)) => Some(0.0),
        _ => None,
    };
    let sum2 = |x: Option<f64>, y: Option<f64>| Some(x? + y?);

    let values: Vec<Option<f64>> = vec![
        Some(net_self),
        Some(d_us),
        Some(sql_exec_self),
        Some(c_us),
        Some(c.op_median_us(secondary)),
        Some(named(&[call])),
        Some(named(&[end])),
        Some(layer_sum_pct),
        Some(trace_overhead_pct),
        per("ts.ptt_inserts", commits),
        per("ts.stamps.total", commits),
        per("ts.stamps.read", commits),
        per("ts.stamps.update", commits),
        per("ts.stamps.flush", commits),
        per("ts.stamps.time_split", commits),
        ratio(
            delta("ts.vtt_hits"),
            sum2(delta("ts.vtt_hits"), delta("ts.vtt_misses")),
        ),
        per("tree.time_splits", commits / 1e3),
        per("tree.key_splits", commits / 1e3),
        per("tree.asof_hops", reads),
        per("version.delta_folds", reads),
        ratio(
            delta("latch.optimistic_retries"),
            delta("latch.optimistic_reads"),
        ),
        ratio(delta("buffer.hits"), delta("buffer.fetches")),
        per("buffer.evictions", all_ops),
        per("buffer.singleflight_waits", all_ops),
        per("wal.bytes", commits),
        per("wal.appends", commits),
        ratio(Some(a.tally.commits as f64), delta("wal.fsyncs")),
        per("disk.reads", all_ops),
        per("disk.writes", all_ops),
        // A gauge (fixed point, ×100) the engine refreshes only on a
        // compaction pass; no workload compacts, so it reads 0 until one
        // does.
        delta("version.bytes_per_version").map(|d| d / 100.0),
        Some(ops as f64),
    ];
    let samples = a.tally.attempted;
    let mut rows: Vec<Row> = LAYER_METRICS
        .iter()
        .zip(values)
        .map(|((name, unit, _), v)| Row::new(spec.name, name, unit, v, samples))
        .collect();
    // Diagnostics: the passes themselves, and the times only some
    // workloads have (0 where the workload makes no such call; the two
    // waits are 0 in any single-threaded replay).
    let mut push = |metric: &str, unit: &str, value: Option<f64>| {
        rows.push(Row::new(spec.name, metric, unit, value, samples));
    };
    push("pass_a_us", "us", Some(a_us));
    push("pass_b_us", "us", Some(b_us));
    push("pass_a_untraced_us", "us", Some(plain_us));
    push("harness_self_us", "us", Some(harness_self));
    push(
        "core_write_us",
        "us",
        Some(named(&["core.insert_row", "core.update_row"])),
    );
    push("core_read_us", "us", Some(named(&["core.get_row_as_of"])));
    push(
        "core_versions_us",
        "us",
        Some(named(&["core.versions_between"])),
    );
    push("core_scan_us", "us", Some(named(&["core.scan_rows"])));
    push(
        "fsync_us_per_commit",
        "us",
        per("wal.fsync_ns.sum", commits * 1e3),
    );
    push(
        "lock_wait_us_per_op",
        "us",
        per("locks.wait_ns.sum", all_ops * 1e3),
    );
    push(
        "leader_wait_us_per_commit",
        "us",
        per("wal.leader_waits_ns.sum", commits * 1e3),
    );
    push("trace_commits", "count", Some(a.tally.commits as f64));
    push("trace_reads", "count", Some(a.tally.reads as f64));

    // -- the spans ------------------------------------------------------------
    // The file holds the head of each pass; the numbers above are taken
    // over all of it.
    let spans_of = |p: &Pass| {
        let head = p.spans.partition_point(|s| s.op_id < TRACE_FILE_OPS);
        spans_to_json(&p.spans[..head])
    };
    let doc = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(seed as f64)),
        ("ops_per_pass", Json::Num(ops as f64)),
        (
            "ops_per_pass_in_file",
            Json::Num(ops.min(TRACE_FILE_OPS) as f64),
        ),
        (
            "passes",
            Json::obj([
                ("A", spans_of(&a)),
                ("B", spans_of(&b)),
                ("C", spans_of(&c)),
                ("D", spans_of(&d)),
            ]),
        ),
    ]);
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let path = out_dir.join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut total = Tally::new();
    for pass in [plain, a, b, c, d] {
        total.absorb(pass.tally);
    }
    Ok(Measured {
        rows,
        attempted: total.attempted,
        failed: total.failed,
        first_failure: total.first_failure,
    })
}
