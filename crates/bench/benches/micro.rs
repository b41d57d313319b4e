//! Criterion microbenchmarks: single-operation costs of the engine's
//! hot paths (conventional vs immortal inserts/updates, current vs AS OF
//! reads, lazy vs eager commit).

use criterion::{criterion_group, criterion_main, Criterion};
use immortaldb::{Isolation, Value};
use immortaldb_bench::{BenchDb, Mode};
use immortaldb_mobgen::Generator;

fn bench_writes(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_record_txn");
    group.sample_size(20);

    for (name, mode) in [
        ("conventional_update", Mode::Conventional),
        ("immortal_update_lazy", Mode::Immortal),
        ("immortal_update_eager", Mode::ImmortalEager),
    ] {
        let bench = BenchDb::new("micro-w", mode);
        let events = Generator::events_exact(1, 100, 1);
        for e in &events {
            bench.apply_event(e);
        }
        let mut x = 0i32;
        group.bench_function(name, |b| {
            b.iter(|| {
                x = x.wrapping_add(1);
                let mut txn = bench.db.begin(Isolation::Serializable);
                bench
                    .db
                    .update_row(
                        &mut txn,
                        "MovingObjects",
                        vec![Value::Int((x % 100).abs()), Value::Int(x), Value::Int(0)],
                    )
                    .unwrap();
                bench.db.commit(&mut txn).unwrap();
            })
        });
    }
    group.finish();
}

fn bench_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("point_read");
    group.sample_size(30);

    let bench = BenchDb::new("micro-r", Mode::Immortal);
    // 200 keys, 40 versions each.
    let events = Generator::events_exact(2, 200, 40);
    let mut early = None;
    for (i, e) in events.iter().enumerate() {
        bench.apply_event(e);
        if i == 200 * 5 {
            early = Some(bench.db.visible_horizon());
        }
    }
    let early = early.unwrap();
    let now = bench.db.visible_horizon();

    group.bench_function("current", |b| {
        let mut txn = bench.db.begin(Isolation::Snapshot);
        let mut k = 0;
        b.iter(|| {
            k = (k + 1) % 200;
            bench
                .db
                .get_row(&mut txn, "MovingObjects", &Value::Int(k))
                .unwrap()
        });
        bench.db.commit(&mut txn).unwrap();
    });
    group.bench_function("as_of_recent", |b| {
        let mut txn = bench.db.begin_as_of_ts(now);
        let mut k = 0;
        b.iter(|| {
            k = (k + 1) % 200;
            bench
                .db
                .get_row(&mut txn, "MovingObjects", &Value::Int(k))
                .unwrap()
        });
        bench.db.commit(&mut txn).unwrap();
    });
    group.bench_function("as_of_deep_history", |b| {
        let mut txn = bench.db.begin_as_of_ts(early);
        let mut k = 0;
        b.iter(|| {
            k = (k + 1) % 200;
            bench
                .db
                .get_row(&mut txn, "MovingObjects", &Value::Int(k))
                .unwrap()
        });
        bench.db.commit(&mut txn).unwrap();
    });
    group.finish();
}

fn bench_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_scan");
    group.sample_size(10);
    let bench = BenchDb::new("micro-s", Mode::Immortal);
    let events = Generator::events_exact(3, 500, 18);
    let mut early = None;
    for (i, e) in events.iter().enumerate() {
        bench.apply_event(e);
        if i == 500 * 3 {
            early = Some(bench.db.visible_horizon());
        }
    }
    let early = early.unwrap();
    group.bench_function("scan_current", |b| {
        b.iter(|| {
            let mut txn = bench.db.begin(Isolation::Snapshot);
            let rows = bench.db.scan_rows(&mut txn, "MovingObjects").unwrap();
            bench.db.commit(&mut txn).unwrap();
            rows.len()
        })
    });
    group.bench_function("scan_as_of_history", |b| {
        b.iter(|| {
            let mut txn = bench.db.begin_as_of_ts(early);
            let rows = bench.db.scan_rows(&mut txn, "MovingObjects").unwrap();
            bench.db.commit(&mut txn).unwrap();
            rows.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_writes, bench_reads, bench_scans);
criterion_main!(benches);
