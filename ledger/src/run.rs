//! The untraced run: set up, drive two wire clients in a closed loop
//! for the measured window, take the space numbers after a final
//! checkpoint, shut down, reopen, re-verify.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::exec::{drive, execute, DriveCtx, Limit, Tally};
use crate::report::{Measured, Row};
use crate::spans::Recorder;
use crate::stats::{median, quantile, tail_percentile};
use crate::verify::verify_reopened;
use crate::workloads::{
    data_file_bytes, serve, set_up, Bed, Class, Kind, Model, Spec, CLIENTS, ROW_PAYLOAD_BYTES,
};

/// Share of the window run before sampling starts, on top of it.
const WARM_UP: f64 = 0.05;

/// Fold the clients' acknowledged-version maps into one: each client
/// only ever advanced the keys it owns.
fn merge_models(mut models: Vec<Model>) -> Model {
    let mut merged = models.pop().expect("at least one client");
    for other in models {
        if let (Model::Acked(into), Model::Acked(from)) = (&mut merged, other) {
            for (key, n) in from {
                let slot = into.entry(key).or_insert(0);
                *slot = (*slot).max(n);
            }
        }
    }
    merged
}

pub fn run_workload(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    smoke: bool,
    scratch: &Path,
) -> Result<Measured, String> {
    let dir = scratch.join(format!("{}-{seed}", spec.name));

    // Set up `setup_reps` times, keep the last.
    let mut setup_s = Vec::new();
    let mut ready = None;
    for rep in 0..spec.setup_reps {
        let started = Instant::now();
        let bed = set_up(spec, &dir, smoke)?;
        let (server, clients) = serve(&bed, CLIENTS)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if rep + 1 < spec.setup_reps {
            drop(clients);
            server.shutdown().map_err(|e| e.to_string())?;
        } else {
            ready = Some((bed, server, clients));
        }
    }
    let (bed, server, clients) = ready.expect("setup_reps is at least 1");
    let data_bytes_at_start = data_file_bytes(&bed.dir);

    // Measure.
    let warm_until = Instant::now() + Duration::from_secs_f64(seconds * WARM_UP);
    let limit = Limit::Until {
        warm_until,
        end: warm_until + Duration::from_secs_f64(seconds),
    };
    let sizes = spec.sizes(smoke);
    let results: Vec<(Tally, Model)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let mut model = bed.model.share();
                let mut streams = [spec.stream(seed, c, smoke)];
                let ctx = DriveCtx {
                    db: &bed.db,
                    clock: &bed.clock,
                    checkpoint_every: sizes.checkpoint_every,
                    filtered: true,
                };
                let limit = &limit;
                scope.spawn(move || {
                    let mut rec = Recorder::new(false);
                    let tally = drive(
                        |plan, rec| execute(&mut client, plan, rec),
                        &mut streams,
                        &mut model,
                        &ctx,
                        limit,
                        &mut rec,
                    );
                    (tally, model)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    // Space, after a final checkpoint.
    bed.db.checkpoint().map_err(|e| e.to_string())?;
    let data_bytes = data_file_bytes(&bed.dir);
    server.shutdown().map_err(|e| e.to_string())?;

    let mut ops_per_s = 0.0;
    let mut commit_tps = 0.0;
    let mut read_ops_per_s = 0.0;
    let mut all = Tally::new();
    let mut models = Vec::new();
    for (tally, model) in results {
        if tally.window_s > 0.0 {
            ops_per_s += tally.attempted as f64 / tally.window_s;
            let writes: usize = Class::ALL
                .iter()
                .filter(|c| c.is_write())
                .map(|c| tally.of(*c).len())
                .sum();
            commit_tps += writes as f64 / tally.window_s;
            read_ops_per_s += tally.reads as f64 / tally.window_s;
        }
        all.absorb(tally);
        models.push(model);
    }
    let model = merge_models(models);
    let Bed {
        dir,
        db,
        clock,
        rows_written,
        ..
    } = bed;
    drop(db);

    let (checked, rejected, first_rejected) = verify_reopened(spec, &dir, &clock, &model, seed)?;
    let _ = std::fs::remove_dir_all(&dir);

    let payload_bytes = (rows_written + all.rows_written) * ROW_PAYLOAD_BYTES;
    let failed = all.failed + rejected;
    let attempted = all.attempted + checked;

    // Rows.
    let mut rows = Vec::new();
    let mut push = |metric: &str, unit: &str, value: f64, samples: u64| {
        rows.push(Row::new(spec.name, metric, unit, Some(value), samples));
    };
    let sorted = |class: Class| -> Vec<f64> {
        let mut v: Vec<f64> = all.of(class).iter().map(|ns| *ns as f64 / 1e3).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let (primary, secondary) = spec.primary_secondary();
    let p50_of = |class: Class| {
        let v = sorted(class);
        if v.is_empty() {
            // A window too short to see the class once (smoke runs only).
            (f64::NAN, 0)
        } else {
            (quantile(&v, 0.5), v.len() as u64)
        }
    };

    // End to end.
    push("ops_per_s", "1/s", ops_per_s, all.attempted);
    let (v, n) = p50_of(primary);
    push("primary_p50_us", "us", v, n);
    let (v, n) = p50_of(secondary);
    push("secondary_p50_us", "us", v, n);
    push(
        "space_amp",
        "x",
        data_bytes as f64 / payload_bytes as f64,
        1,
    );
    push("setup_s", "s", median(&setup_s), setup_s.len() as u64);

    // Diagnostics: the same run by op class, under the names the issues
    // use. Printed and filed, never gated.
    if commit_tps > 0.0 {
        let mut v: Vec<f64> = Class::ALL
            .iter()
            .filter(|c| c.is_write())
            .flat_map(|c| sorted(*c))
            .collect();
        v.sort_by(f64::total_cmp);
        push("commit_tps", "1/s", commit_tps, v.len() as u64);
        push("commit_p50_us", "us", quantile(&v, 0.5), v.len() as u64);
        push("commit_p99_us", "us", quantile(&v, 0.99), v.len() as u64);
    }
    if read_ops_per_s > 0.0 {
        push("read_ops_per_s", "1/s", read_ops_per_s, all.reads);
    }
    for class in Class::ALL {
        let v = sorted(class);
        if v.is_empty() {
            continue;
        }
        let n = v.len() as u64;
        // Whole-table work is milliseconds; everything else microseconds.
        let (unit, div) = match class {
            Class::Scan | Class::Range | Class::Checkpoint => ("ms", 1e3),
            _ => ("us", 1.0),
        };
        let name = class.name();
        push(
            &format!("{name}_p50_{unit}"),
            unit,
            quantile(&v, 0.5) / div,
            n,
        );
        if v.len() >= 1_000 {
            push(
                &format!("{name}_p99_{unit}"),
                unit,
                quantile(&v, 0.99) / div,
                n,
            );
        }
        if let Some(p) = tail_percentile(v.len()) {
            push(
                &format!("{name}_tail_{unit}"),
                unit,
                quantile(&v, p) / div,
                n,
            );
            push(&format!("{name}_tail_pct"), "%", p * 100.0, n);
        }
    }
    push("failed_ops", "count", failed as f64, attempted);
    push("verify_checks", "count", checked as f64, checked);
    push("data_file_mib", "MiB", data_bytes as f64 / 1048576.0, 1);
    push(
        "data_file_at_start_mib",
        "MiB",
        data_bytes_at_start as f64 / 1048576.0,
        1,
    );
    push(
        "pool_mib",
        "MiB",
        spec.pool_pages as f64 * 8192.0 / 1048576.0,
        1,
    );
    push("payload_mib", "MiB", payload_bytes as f64 / 1048576.0, 1);
    if matches!(spec.kind, Kind::Commit { .. }) {
        let inserts = all.of(Class::Insert).len() as f64;
        push(
            "insert_share_pct",
            "%",
            100.0 * inserts / all.attempted.max(1) as f64,
            all.attempted,
        );
    }
    let hash = (0..CLIENTS).fold(0u64, |h, c| {
        h.rotate_left(1) ^ spec.stream(seed, c, smoke).hash_prefix(1_000)
    });
    // 53 bits: exact in a JSON number.
    push("op_stream_hash", "hash", (hash >> 11) as f64, 1_000);

    Ok(Measured {
        rows,
        attempted,
        failed,
        first_failure: all.first_failure.or(first_rejected),
    })
}
