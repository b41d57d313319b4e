//! Shadow-model checker for the temporal query subsystem.
//!
//! A deterministic history (inserts, multi-updates, deletes, re-inserts
//! from `mobgen::temporal_history`) is replayed against the engine while
//! a `History` records every commit's exact `(timestamp, key, row)`.
//! Afterwards `VERSIONS BETWEEN`, `DIFF TABLE`, and snapshot reads are
//! checked against it — zero mismatches allowed — on fixed seeds, with
//! per-commit and grouped transactions, on the primary `Session` and over
//! the wire.

use std::sync::Arc;

use immortaldb::temporal::{window_hi, window_lo};
use immortaldb::{Database, DbConfig, Durability, Isolation, Session, SimClock, Value};
use immortaldb_chaos::{Change, History, TempDir, Version};
use immortaldb_common::{Error, ErrorCode};
use immortaldb_mobgen::{temporal_history, TemporalOp};
use immortaldb_net::{Client, Server, ServerConfig};
use immortaldb_repl::{Replica, ReplicaConfig};

const OBJECTS: u32 = 6;
const STEPS: u32 = 240;

struct Fixture {
    db: Arc<Database>,
    history: History,
    _dir: TempDir,
}

/// Replay `ops` in transactions of up to `batch` operations (flushing
/// early if an oid repeats, so each key has at most one version per
/// commit), advancing the simulated clock one 20 ms tick per commit.
fn build(tag: &str, seed: u64, batch: usize) -> Fixture {
    let dir = TempDir::new(&format!("temporal-shadow-{tag}"));
    let clock = Arc::new(SimClock::new(5_000_000));
    let db = Arc::new(
        Database::open(
            DbConfig::new(&dir)
                .durability(Durability::Buffered)
                .clock(clock.clone()),
        )
        .unwrap(),
    );
    let mut s = Session::new(&db);
    s.execute("CREATE IMMORTAL TABLE obj (Oid INT PRIMARY KEY, LocationX INT, LocationY INT)")
        .unwrap();

    let ops = temporal_history(seed, OBJECTS, STEPS);
    let mut history = History::default();
    let mut i = 0;
    while i < ops.len() {
        let mut in_txn: Vec<TemporalOp> = Vec::new();
        while i < ops.len()
            && in_txn.len() < batch
            && !in_txn.iter().any(|o| o.oid() == ops[i].oid())
        {
            in_txn.push(ops[i]);
            i += 1;
        }
        let mut txn = db.begin(Isolation::Serializable);
        for op in &in_txn {
            match *op {
                TemporalOp::Insert { oid, x, y } => db
                    .insert_row(
                        &mut txn,
                        "obj",
                        vec![Value::Int(oid as i32), Value::Int(x), Value::Int(y)],
                    )
                    .unwrap(),
                TemporalOp::Update { oid, x, y } => db
                    .update_row(
                        &mut txn,
                        "obj",
                        vec![Value::Int(oid as i32), Value::Int(x), Value::Int(y)],
                    )
                    .unwrap(),
                TemporalOp::Delete { oid } => db
                    .delete_row(&mut txn, "obj", &Value::Int(oid as i32))
                    .unwrap(),
            }
        }
        let ts = db.commit(&mut txn).unwrap();
        for op in &in_txn {
            match *op {
                TemporalOp::Insert { oid, x, y } | TemporalOp::Update { oid, x, y } => {
                    let row = vec![Value::Int(oid as i32), Value::Int(x), Value::Int(y)];
                    history.record(ts, oid as i32, Some(row))
                }
                TemporalOp::Delete { oid } => history.record(ts, oid as i32, None),
            }
        }
        clock.advance(20);
    }
    Fixture {
        db,
        history,
        _dir: dir,
    }
}

fn versions(rows: &[Vec<Value>]) -> Vec<Version> {
    rows.iter().map(|r| Version::from_sql(r)).collect()
}

fn changes(rows: &[Vec<Value>]) -> Vec<Change> {
    rows.iter().map(|r| Change::from_sql(r)).collect()
}

/// Run the full battery of checks through `query` (a closure so the same
/// assertions run against a local Session and a wire client).
fn check_against_history<F>(h: &History, mut query: F)
where
    F: FnMut(&str) -> immortaldb::QueryResult,
{
    let times = h.commits();
    let span = (times[0].ttime, times[times.len() - 1].ttime);
    // Windows: whole history, a mid slice, a single tick, and an upper
    // bound far past the horizon (the engine clamps it; the model has the
    // same rows because nothing committed out there).
    let mid = (span.0 + span.1) / 2;
    let windows = [
        (span.0, span.1),
        (mid - 400, mid + 400),
        (times[times.len() / 3].ttime, times[times.len() / 3].ttime),
        (span.0, span.1 + 1_000_000),
    ];
    for (a, b) in windows {
        let sql = format!("SELECT * FROM obj VERSIONS BETWEEN ms({a}) AND ms({b})");
        let res = query(&sql);
        assert_eq!(
            res.columns,
            vec![
                "_commit_ms",
                "_commit_sn",
                "_op",
                "Oid",
                "LocationX",
                "LocationY"
            ]
        );
        h.check_versions(window_lo(a), window_hi(b), |_| true, &versions(&res.rows))
            .expect(&sql);

        let sql = format!("DIFF TABLE obj BETWEEN ms({a}) AND ms({b})");
        let res = query(&sql);
        h.check_diff(window_hi(a), window_hi(b), |_| true, &changes(&res.rows))
            .expect(&sql);
    }

    // Snapshot pinned mid-history reads exactly the state there, both via
    // BEGIN AS OF SNAPSHOT and as a VERSIONS BETWEEN bound.
    query(&format!("CREATE SNAPSHOT mid AS OF ms({mid})"));
    query("BEGIN TRAN AS OF SNAPSHOT mid");
    let res = query("SELECT * FROM obj");
    query("COMMIT TRAN");
    let snap_ts = window_hi(mid);
    h.check_scan(snap_ts, |_| true, &res.rows)
        .expect("snapshot read");

    let res = query(&format!(
        "SELECT * FROM obj VERSIONS BETWEEN SNAPSHOT mid AND ms({})",
        span.1
    ));
    // Snapshot bounds are exact (no tick-widening).
    h.check_versions(snap_ts, window_hi(span.1), |_| true, &versions(&res.rows))
        .expect("snapshot-bounded VERSIONS");

    let res = query("SHOW SNAPSHOTS");
    assert!(
        res.rows
            .iter()
            .any(|r| matches!(&r[0], Value::Varchar(n) if n == "mid")),
        "SHOW SNAPSHOTS lost the snapshot"
    );
    query("DROP SNAPSHOT mid");

    // WHERE on VERSIONS BETWEEN: a key qualifies if any live version in
    // the window matches; all of its versions are then returned.
    let res = query(&format!(
        "SELECT * FROM obj VERSIONS BETWEEN ms({}) AND ms({}) WHERE Oid = 3",
        span.0, span.1
    ));
    let (lo, hi) = (window_lo(span.0), window_hi(span.1));
    h.check_versions(lo, hi, |k| k == 3, &versions(&res.rows))
        .expect("predicate filtering");
}

#[test]
fn versions_diff_and_snapshots_match_shadow_on_fixed_seeds() {
    // (seed, grouped batch size) — per-commit histories and grouped
    // transactions both replayed.
    for (seed, batch) in [(0xA11CE, 1), (0xB0B, 3)] {
        let f = build(&format!("s{seed}-b{batch}"), seed, batch);
        let mut session = Session::new(&f.db);
        check_against_history(&f.history, |sql| {
            session
                .execute(sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"))
        });
    }
}

#[test]
fn wire_results_match_shadow_and_errors_stay_typed() {
    let f = build("wire", 0xA11CE, 1);
    let server = Server::start(
        Arc::clone(&f.db),
        ServerConfig::new("127.0.0.1:0").workers(2),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    check_against_history(&f.history, |sql| {
        let resp = c.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        immortaldb::QueryResult {
            columns: resp.columns,
            rows: resp.rows,
            affected: resp.affected as usize,
            message: resp.message,
        }
    });

    // Reversed literal bounds: a parse error anchored at the second
    // bound's byte offset, surviving the wire round trip.
    let sql = "SELECT * FROM obj VERSIONS BETWEEN ms(200) AND ms(100)";
    match c.query(sql) {
        Err(Error::Remote {
            code,
            offset,
            message,
        }) => {
            assert_eq!(code, ErrorCode::Parse);
            assert_eq!(offset, Some(sql.find("ms(100)").unwrap() as u32));
            assert!(message.contains("reversed"), "unhelpful: {message}");
        }
        other => panic!("reversed bounds accepted: {other:?}"),
    }

    // Unknown snapshot name: the typed temporal code crosses the wire.
    match c.query("BEGIN TRAN AS OF SNAPSHOT no_such_snap") {
        Err(Error::Remote { code, message, .. }) => {
            assert_eq!(code, ErrorCode::Temporal);
            assert!(message.contains("no_such_snap"), "unhelpful: {message}");
        }
        other => panic!("unknown snapshot accepted: {other:?}"),
    }
    match c.query("DIFF TABLE obj BETWEEN SNAPSHOT no_such_snap AND ms(99999999999)") {
        Err(Error::Remote { code, .. }) => assert_eq!(code, ErrorCode::Temporal),
        other => panic!("unknown snapshot accepted: {other:?}"),
    }
    // Duplicate snapshot names are temporal errors too.
    c.query("CREATE SNAPSHOT dup").unwrap();
    match c.query("CREATE SNAPSHOT dup") {
        Err(Error::Remote { code, .. }) => assert_eq!(code, ErrorCode::Temporal),
        other => panic!("duplicate snapshot accepted: {other:?}"),
    }
    c.query("DROP SNAPSHOT dup").unwrap();

    server.shutdown().unwrap();
}

#[test]
fn replica_clamps_temporal_upper_bound_to_its_horizon() {
    let f = build("repl-clamp", 0xB0B, 1);
    let server = Server::start(
        Arc::clone(&f.db),
        ServerConfig::new("127.0.0.1:0").workers(2),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let replica_dir = TempDir::new("temporal-shadow-replica");
    let replica = Replica::start(ReplicaConfig::new(replica_dir.path(), addr)).unwrap();
    let last = *f.history.commits().last().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while replica.db().visible_horizon() < last {
        assert!(
            std::time::Instant::now() < deadline,
            "replica never caught up to {last:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let replica_server = Server::start(
        Arc::clone(replica.db()),
        ServerConfig::new("127.0.0.1:0").workers(2),
    )
    .unwrap();
    let mut c = Client::connect(replica_server.local_addr().to_string()).unwrap();

    // An upper bound far beyond the replication horizon must be clamped,
    // not rejected, and the rows must match the primary's full history.
    let (a, b) = (f.history.commits()[0].ttime, last.ttime + 1_000_000_000);
    let resp = c
        .query(&format!(
            "SELECT * FROM obj VERSIONS BETWEEN ms({a}) AND ms({b})"
        ))
        .expect("replica rejected a past-horizon VERSIONS upper bound");
    let window = (window_lo(a), window_hi(b));
    f.history
        .check_versions(window.0, window.1, |_| true, &versions(&resp.rows))
        .expect("replica VERSIONS against the primary history");
    let resp = c
        .query(&format!("DIFF TABLE obj BETWEEN ms({a}) AND ms({b})"))
        .expect("replica rejected a past-horizon DIFF upper bound");
    f.history
        .check_diff(window_hi(a), window.1, |_| true, &changes(&resp.rows))
        .expect("replica DIFF against the primary history");

    // Snapshots created on the primary replicate; creating one on the
    // replica is refused as read-only.
    let mut p = Client::connect(server.local_addr().to_string()).unwrap();
    p.query(&format!(
        "CREATE SNAPSHOT replicated AS OF ms({})",
        last.ttime
    ))
    .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let resp = c.query("SHOW SNAPSHOTS").unwrap();
        if resp
            .rows
            .iter()
            .any(|r| matches!(&r[0], Value::Varchar(n) if n == "replicated"))
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "snapshot never reached the replica"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    match c.query("CREATE SNAPSHOT local_on_replica") {
        Err(Error::Remote { code, .. }) => assert_eq!(code, ErrorCode::ReadOnly),
        other => panic!("replica accepted snapshot DDL: {other:?}"),
    }

    replica_server.shutdown().unwrap();
    replica.stop();
    server.shutdown().unwrap();
}
