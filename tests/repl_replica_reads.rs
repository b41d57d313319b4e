//! Wire-path isolation check for read replicas.
//!
//! A primary serves a write load over TCP while a replica follows over
//! the replication frames and serves `BEGIN AS OF` reads over its own
//! TCP endpoint. The writer records every commit in a `History` (single
//! writer, so it is the exact serialization order); afterwards every
//! replica read is checked against it: the rows seen must be the state
//! at the read's effective timestamp, with zero exceptions.
//!
//! The isolation sentinel is armed across BOTH engines through one
//! shared event tap: the primary's commits and the replica's AS OF
//! reads land in the same ring, so the checker verifies the replica
//! reads online against the primary's commit history — the same
//! property the offline replay below proves, but caught live. Ring
//! order is sound because the replication horizon the replica serves
//! under never passes the primary's visible horizon, and every commit's
//! event is pushed before its timestamp becomes visible.
//!
//! Also locks in the typed READ_ONLY rejection over the wire (satellite:
//! `ErrorCode::ReadOnly` must survive the ERROR frame round trip).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use immortaldb::{Database, DbConfig, Durability, EventTap, Isolation, Sentinel, Session, Value};
use immortaldb_chaos::{History, TempDir};
use immortaldb_common::{Error, ErrorCode, Timestamp};
use immortaldb_net::{Client, Server, ServerConfig};
use immortaldb_repl::{Replica, ReplicaConfig};
use immortaldb_storage::wal::{Wal, WAL_START};

const KEYS: i32 = 4;
const ROUNDS: usize = 60;

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64
}

#[test]
fn replica_as_of_reads_match_the_primary_commit_history() {
    // One tap shared by the primary and the replica engines; one checker
    // watching both sides of the replication boundary.
    let tap = EventTap::new(1 << 16);
    let (primary_dir, replica_dir) = (TempDir::new("repl-reads"), TempDir::new("repl-reads"));
    let db = Arc::new(
        Database::open(
            DbConfig::new(&primary_dir)
                .durability(Durability::Buffered)
                .sentinel(Arc::clone(&tap)),
        )
        .unwrap(),
    );
    let sentinel = Sentinel::spawn(Arc::clone(&tap), db.metrics().clone());
    let server =
        Server::start(Arc::clone(&db), ServerConfig::new("127.0.0.1:0").workers(4)).unwrap();
    let addr = server.local_addr().to_string();

    let mut setup = Client::connect(&addr).unwrap();
    setup
        .query("CREATE IMMORTAL TABLE kv (k int PRIMARY KEY, v bigint)")
        .unwrap();

    // Ground truth: every commit, in serialization order.
    let history: Arc<Mutex<History>> = Arc::default();
    let done = Arc::new(AtomicBool::new(false));

    // A few rounds land before the replica exists, so bootstrap catch-up
    // is exercised on a non-trivial log.
    let writer = {
        let addr = addr.clone();
        let history = Arc::clone(&history);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            for round in 0..ROUNDS {
                let k = round as i32 % KEYS;
                let v = round as i64 * 10;
                c.begin(Isolation::Serializable).unwrap();
                let stmt = if round < KEYS as usize {
                    format!("INSERT INTO kv VALUES ({k}, {v})")
                } else {
                    format!("UPDATE kv SET v = {v} WHERE k = {k}")
                };
                c.query(&stmt).unwrap();
                let ts = c.commit().unwrap();
                let row = vec![Value::Int(k), Value::BigInt(v)];
                history.lock().unwrap().record(ts, k, Some(row));
                std::thread::sleep(Duration::from_millis(3));
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    // Give the writer a head start, then bootstrap the replica mid-load.
    std::thread::sleep(Duration::from_millis(60));
    let replica = Replica::start(
        ReplicaConfig::new(replica_dir.path(), addr.clone()).sentinel(Arc::clone(&tap)),
    )
    .unwrap();
    let replica_server = Server::start(
        Arc::clone(replica.db()),
        ServerConfig::new("127.0.0.1:0").workers(2),
    )
    .unwrap();
    let replica_addr = replica_server.local_addr().to_string();

    // Replica reads during the load: (effective ts, rows seen).
    let mut observations: Vec<(Timestamp, Vec<Vec<Value>>)> = Vec::new();
    let mut reader = Client::connect(&replica_addr).unwrap();
    while !done.load(Ordering::SeqCst) {
        reader.begin_as_of_ms(now_ms()).unwrap();
        let resp = reader.query("SELECT * FROM kv").unwrap();
        let effective = reader.snapshot().expect("the BEGIN was answered");
        reader.commit().unwrap();
        observations.push((effective, resp.rows));
        std::thread::sleep(Duration::from_millis(2));
    }
    writer.join().unwrap();
    assert!(
        observations.iter().any(|(_, rows)| !rows.is_empty()),
        "no replica read ever observed data; the check never engaged"
    );

    // Offline check: each observation must equal the state of the
    // commit history at its effective timestamp.
    let history = history.lock().unwrap();
    let mut violations = 0usize;
    for (effective, rows) in &observations {
        if let Err(e) = history.check_scan(*effective, |_| true, rows) {
            violations += 1;
            eprintln!("violation: {e}");
        }
    }
    assert_eq!(violations, 0, "replica AS OF reads diverged from history");

    // Satellite: the typed READ_ONLY code must cross the wire intact.
    let mut w = Client::connect(&replica_addr).unwrap();
    match w.query("INSERT INTO kv VALUES (99, 1)") {
        Err(Error::Remote { code, message, .. }) => {
            assert_eq!(code, ErrorCode::ReadOnly);
            assert!(
                message.contains("read-only"),
                "unhelpful replica rejection: {message}"
            );
        }
        other => panic!("replica accepted a write: {other:?}"),
    }
    // DDL is rejected the same way.
    match w.query("CREATE TABLE nope (a int PRIMARY KEY)") {
        Err(Error::Remote { code, .. }) => assert_eq!(code, ErrorCode::ReadOnly),
        other => panic!("replica accepted DDL: {other:?}"),
    }

    replica_server.shutdown().unwrap();
    replica.stop();
    server.shutdown().unwrap();

    // The online checker must agree with the offline replay: it watched
    // the primary's commits and the replica's reads and found nothing.
    let report = sentinel.stop();
    assert!(
        report.commits_checked > 0,
        "sentinel saw no commits; the online check never engaged"
    );
    assert!(
        report.reads_checked > 0,
        "sentinel saw no replica reads; the online check never engaged"
    );
    assert_eq!(
        report.violation_count, 0,
        "online sentinel found violations the replay did not: {:?}",
        report.violations
    );
}

/// A replica opens a tree handle when it first sees a table in the
/// shipped catalog; the primary may grow that tree a new root later.
/// Redo installs the new root in the replica's meta page, and the
/// replica's handle must follow it — or its reads descend from the old
/// root and see only that page's keys.
#[test]
fn replica_follows_root_splits_of_tables_it_has_open() {
    let (primary_dir, replica_dir) = (TempDir::new("repl-root"), TempDir::new("repl-root"));
    let primary = Database::open(DbConfig::new(&primary_dir)).unwrap();
    Session::new(&primary)
        .execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v BIGINT)")
        .unwrap();
    // Bootstrap: the replica starts from the primary's log as it is
    // now, with the table created and its root a single leaf.
    let (bytes, shipped) = primary.wal().read_raw(WAL_START, usize::MAX).unwrap();
    Wal::open(replica_dir.path().join("wal.log"))
        .unwrap()
        .append_raw(WAL_START, &bytes)
        .unwrap();
    let replica = Database::open_replica(DbConfig::new(&replica_dir)).unwrap();
    let mut s = Session::new(&primary);
    for batch in (0..2_000).collect::<Vec<i32>>().chunks(100) {
        let values: Vec<String> = batch.iter().map(|k| format!("({k}, {k})")).collect();
        s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }
    assert!(primary.split_counts().1 > 0, "the root never split");
    let (bytes, _) = primary.wal().read_raw(shipped, usize::MAX).unwrap();
    replica
        .replica_apply(shipped, &bytes, primary.visible_horizon())
        .unwrap();
    let scan = |db: &Database| {
        let mut txn = db.begin_as_of_ts(Timestamp::MAX);
        let rows = db.scan_rows(&mut txn, "t").unwrap();
        db.commit(&mut txn).unwrap();
        rows
    };
    let (want, got) = (scan(&primary), scan(&replica));
    assert_eq!(want.len(), 2_000);
    assert!(
        got == want,
        "the replica scanned {} of {} rows",
        got.len(),
        want.len()
    );
}
