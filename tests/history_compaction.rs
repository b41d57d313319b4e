//! Deep-history shadow checker for delta-encoded version chains and the
//! history compactor.
//!
//! A table is driven through hundreds of updates per key — deep version
//! chains spanning many history pages, with mostly-stable payloads so
//! delta encoding has something to exploit — while a shadow log records
//! every commit's exact `(timestamp, key, value)`. AS OF point reads and
//! `VERSIONS BETWEEN` are then checked against the shadow: after the
//! build, after a synchronous `compact_history` pass, after a reopen
//! that replays the compaction's page images from the log, and on a
//! replica that applied the compacted primary's WAL. Both index kinds
//! (chain and TSB) run the same battery.

use std::sync::Arc;

use immortaldb::{Database, DbConfig, Durability, Error, Isolation, Session, SimClock, Value};
use immortaldb_common::Timestamp;
use immortaldb_net::{Client, Server, ServerConfig};
use immortaldb_repl::{Replica, ReplicaConfig};

const KEYS: i32 = 4;
const ROUNDS: usize = 250;
/// The key that gets a mid-history delete + re-insert (tombstones must
/// survive packing as anchors).
const DELETED_KEY: i32 = 2;

fn tempdir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "history-compaction-{}-{tag}-{nanos}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Mostly-stable payload: a long constant pad with a small changing head.
fn payload(oid: i32, seq: i32) -> String {
    format!("{seq:06}-{oid:02}-{}", "p".repeat(120))
}

/// One committed change: `(commit ts, oid, Some(seq) | None for delete)`.
type Log = Vec<(Timestamp, i32, Option<i32>)>;

struct Fixture {
    /// `Option` so tests can close the engine (reopen scenarios) while
    /// the fixture keeps owning the directory.
    db: Option<Arc<Database>>,
    clock: Arc<SimClock>,
    log: Log,
    dir: std::path::PathBuf,
}

impl Fixture {
    fn db(&self) -> &Arc<Database> {
        self.db.as_ref().expect("engine is open")
    }

    /// Close the engine and recover from the files on disk.
    fn reopen(&mut self) {
        self.db = None;
        self.db = Some(open_db(&self.dir, Arc::clone(&self.clock)));
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.db = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn open_db(dir: &std::path::Path, clock: Arc<SimClock>) -> Arc<Database> {
    Arc::new(
        Database::open(
            DbConfig::new(dir)
                .durability(Durability::Buffered)
                .clock(clock),
        )
        .unwrap(),
    )
}

/// Build the deep history: a batched initial load, then `ROUNDS` rounds
/// of single-key updates walking round-robin over the keys, one delete +
/// re-insert for [`DELETED_KEY`] in the middle.
fn build(tag: &str, using_tsb: bool) -> Fixture {
    let dir = tempdir(tag);
    let clock = Arc::new(SimClock::new(7_000_000));
    let db = open_db(&dir, Arc::clone(&clock));
    let mut s = Session::new(&db);
    let ddl = format!(
        "CREATE IMMORTAL TABLE deep (Oid INT PRIMARY KEY, Seq INT, Pad VARCHAR(160)){}",
        if using_tsb { " USING TSB" } else { "" }
    );
    s.execute(&ddl).unwrap();

    let mut log: Log = Vec::new();
    // Initial load through the batched-ingest path.
    let rows: Vec<Vec<Value>> = (0..KEYS)
        .map(|oid| {
            vec![
                Value::Int(oid),
                Value::Int(0),
                Value::Varchar(payload(oid, 0)),
            ]
        })
        .collect();
    let mut txn = db.begin(Isolation::Serializable);
    db.insert_rows(&mut txn, "deep", rows).unwrap();
    let ts = db.commit(&mut txn).unwrap();
    for oid in 0..KEYS {
        log.push((ts, oid, Some(0)));
    }
    clock.advance(20);

    for round in 1..=ROUNDS {
        let oid = (round as i32) % KEYS;
        let seq = round as i32;
        let mut txn = db.begin(Isolation::Serializable);
        if oid == DELETED_KEY && round == ROUNDS / 2 {
            db.delete_row(&mut txn, "deep", &Value::Int(oid)).unwrap();
            let ts = db.commit(&mut txn).unwrap();
            log.push((ts, oid, None));
        } else if oid == DELETED_KEY && round == ROUNDS / 2 + KEYS as usize {
            db.insert_row(
                &mut txn,
                "deep",
                vec![
                    Value::Int(oid),
                    Value::Int(seq),
                    Value::Varchar(payload(oid, seq)),
                ],
            )
            .unwrap();
            let ts = db.commit(&mut txn).unwrap();
            log.push((ts, oid, Some(seq)));
        } else {
            db.update_row(
                &mut txn,
                "deep",
                vec![
                    Value::Int(oid),
                    Value::Int(seq),
                    Value::Varchar(payload(oid, seq)),
                ],
            )
            .unwrap();
            let ts = db.commit(&mut txn).unwrap();
            log.push((ts, oid, Some(seq)));
        }
        clock.advance(20);
    }
    Fixture {
        db: Some(db),
        clock,
        log,
        dir,
    }
}

/// Shadow answer for `key` AS OF `ts`: newest change at or below it.
fn shadow_at(log: &Log, oid: i32, ts: Timestamp) -> Option<i32> {
    log.iter()
        .rfind(|(cts, k, _)| *k == oid && *cts <= ts)
        .and_then(|(_, _, v)| *v)
}

/// Check sampled AS OF point reads for every key against the shadow.
fn check_as_of(db: &Database, log: &Log, label: &str) {
    let step = (log.len() / 40).max(1);
    for (i, (ts, _, _)) in log.iter().enumerate().step_by(step) {
        for oid in 0..KEYS {
            let mut txn = db.begin_as_of_ts(*ts);
            let row = db.get_row(&mut txn, "deep", &Value::Int(oid)).unwrap();
            db.rollback(&mut txn).unwrap();
            let want = shadow_at(log, oid, *ts);
            let got = row.map(|r| match r[1] {
                Value::Int(seq) => seq,
                ref other => panic!("bad Seq cell: {other:?}"),
            });
            assert_eq!(
                got, want,
                "{label}: AS OF {ts:?} (log index {i}) diverged for key {oid}"
            );
            if let Some(seq) = want {
                // The payload must reconstruct byte-exact through any
                // delta chain, not just the Seq column.
                let mut txn = db.begin_as_of_ts(*ts);
                let row = db.get_row(&mut txn, "deep", &Value::Int(oid)).unwrap();
                db.rollback(&mut txn).unwrap();
                match &row.unwrap()[2] {
                    Value::Varchar(p) => assert_eq!(
                        p,
                        &payload(oid, seq),
                        "{label}: payload mismatch AS OF {ts:?} key {oid}"
                    ),
                    other => panic!("bad Pad cell: {other:?}"),
                }
            }
        }
    }
}

/// Check `VERSIONS BETWEEN` over a window against the shadow.
fn check_versions_between(db: &Arc<Database>, log: &Log, label: &str) {
    let lo = log[log.len() / 4].0;
    let hi = log[3 * log.len() / 4].0;
    let mut s = Session::new(db);
    let sql = format!(
        "SELECT * FROM deep VERSIONS BETWEEN ms({}) AND ms({})",
        lo.ttime, hi.ttime
    );
    let got = s.execute(&sql).unwrap();
    let mut want: Vec<(u64, i32, Option<i32>)> = log
        .iter()
        .filter(|(ts, _, _)| lo <= *ts && *ts <= hi)
        .map(|(ts, oid, v)| (ts.ttime, *oid, *v))
        .collect();
    want.sort_by_key(|(ms, oid, _)| (*oid, *ms));
    assert_eq!(
        got.rows.len(),
        want.len(),
        "{label}: VERSIONS BETWEEN row count diverged"
    );
    for (row, (ms, oid, v)) in got.rows.iter().zip(&want) {
        match (&row[0], &row[2], &row[3]) {
            (Value::BigInt(got_ms), Value::Varchar(op), Value::Int(got_oid)) => {
                assert_eq!(*got_ms as u64, *ms, "{label}: version ms diverged");
                assert_eq!(got_oid, oid, "{label}: version key diverged");
                let want_op = if v.is_some() { "WRITE" } else { "DELETE" };
                assert_eq!(op, want_op, "{label}: version op diverged");
            }
            other => panic!("bad VERSIONS row head: {other:?}"),
        }
    }
}

/// Serializes the batteries: they toggle the process-wide split-time
/// packing switch and must not observe each other's setting.
static PACKING_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn run_battery(using_tsb: bool, tag: &str) {
    let _gate = PACKING_GATE.lock().unwrap();
    // Build with split-time delta packing off: history pages land holding
    // full versions — the shape a pre-delta engine (or one upgraded in
    // place) leaves behind — so the compactor's packing win is
    // measurable for both index kinds, not just the chain merge.
    let was = immortaldb_storage::version::set_history_packing(false);
    let mut f = build(tag, using_tsb);
    immortaldb_storage::version::set_history_packing(was);

    check_as_of(f.db(), &f.log, "pre-compaction");
    check_versions_between(f.db(), &f.log, "pre-compaction");
    let before = f.db().history_stats().unwrap();
    assert!(
        before.history_pages > 3,
        "build must produce deep history, got {before:?}"
    );

    // Synchronous compaction pass: must reclaim something (merging for
    // the chain index, packing for both) and must not change any answer.
    let stats = f.db().compact_history().unwrap();
    assert!(
        stats.pages_rewritten > 0,
        "compaction found nothing to rewrite: {stats:?}"
    );
    let after = f.db().history_stats().unwrap();
    assert!(
        after.bytes_per_version() < 0.7 * before.bytes_per_version(),
        "delta packing must shrink bytes/version substantially: {before:?} -> {after:?}"
    );
    if !using_tsb {
        assert!(
            stats.pages_freed > 0,
            "chain compaction must merge under-filled chain pages: {stats:?}"
        );
        assert!(
            after.history_pages < before.history_pages,
            "merging must shrink the page count: {before:?} -> {after:?}"
        );
    }
    check_as_of(f.db(), &f.log, "post-compaction");
    check_versions_between(f.db(), &f.log, "post-compaction");

    // A second pass must be (close to) a no-op — idempotence.
    let again = f.db().compact_history().unwrap();
    assert_eq!(again.pages_freed, 0, "second pass freed pages: {again:?}");
    check_as_of(f.db(), &f.log, "second-pass");

    // Reopen: redo replays the compaction's page images from the log
    // (the pass never checkpointed, so its pages were never flushed).
    f.reopen();
    check_as_of(f.db(), &f.log, "post-reopen");
    check_versions_between(f.db(), &f.log, "post-reopen");
    let reopened = f.db().history_stats().unwrap();
    assert_eq!(
        reopened.history_pages, after.history_pages,
        "reopen must reconstruct the compacted store"
    );
}

#[test]
fn deep_history_matches_shadow_chain_index() {
    run_battery(false, "chain");
}

#[test]
fn deep_history_matches_shadow_tsb_index() {
    run_battery(true, "tsb");
}

/// A replica that applies the primary's WAL — including the compaction's
/// page-image records — must serve the same deep-history answers.
#[test]
fn replica_serves_compacted_history() {
    let f = build("repl", false);
    f.db().compact_history().unwrap();

    let server = Server::start(
        Arc::clone(f.db()),
        ServerConfig::new("127.0.0.1:0").workers(2),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let replica = Replica::start(ReplicaConfig::new(tempdir("repl-follower"), addr)).unwrap();
    let last = f.log.last().unwrap().0;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while replica.db().visible_horizon() < last {
        assert!(
            std::time::Instant::now() < deadline,
            "replica never caught up to {last:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    check_as_of(replica.db(), &f.log, "replica");

    // And over the wire, a sampled AS OF transaction.
    let replica_server = Server::start(
        Arc::clone(replica.db()),
        ServerConfig::new("127.0.0.1:0").workers(2),
    )
    .unwrap();
    let mut c = Client::connect(replica_server.local_addr().to_string()).unwrap();
    let (mid_ts, _, _) = f.log[f.log.len() / 2];
    c.query(&format!("BEGIN TRAN AS OF ms({})", mid_ts.ttime))
        .unwrap();
    let rows = c.query("SELECT * FROM deep WHERE Oid < 1000").unwrap();
    c.query("COMMIT TRAN").unwrap();
    let want_live = (0..KEYS)
        .filter(|oid| shadow_at(&f.log, *oid, mid_ts).is_some())
        .count();
    assert_eq!(
        rows.rows.len(),
        want_live,
        "replica wire scan diverged from the shadow"
    );

    replica_server.shutdown().unwrap();
    replica.stop();
    server.shutdown().unwrap();
}

// -- batched ingest -----------------------------------------------------------

fn ingest_row(oid: i32) -> Vec<Value> {
    vec![
        Value::Int(oid),
        Value::Int(0),
        Value::Varchar(payload(oid, 0)),
    ]
}

/// A fresh `deep` table, either index kind, and its clock.
fn empty_table(tag: &str, using_tsb: bool) -> Fixture {
    let dir = tempdir(tag);
    let clock = Arc::new(SimClock::new(7_000_000));
    let db = open_db(&dir, Arc::clone(&clock));
    let ddl = format!(
        "CREATE IMMORTAL TABLE deep (Oid INT PRIMARY KEY, Seq INT, Pad VARCHAR(160)){}",
        if using_tsb { " USING TSB" } else { "" }
    );
    Session::new(&db).execute(&ddl).unwrap();
    Fixture {
        db: Some(db),
        clock,
        log: Vec::new(),
        dir,
    }
}

/// Twin databases, one loaded with `insert_rows` (batched) and one row by
/// row with `insert_row`, then given the same updates: the batch must
/// build the same tree — same splits, same version store, same answers.
fn batched_ingest_matches_per_row(using_tsb: bool, tag: &str) {
    const ROWS: i32 = 300;
    // Both twins must split under the same packing setting.
    let _gate = PACKING_GATE.lock().unwrap();
    let twins: Vec<Fixture> = [true, false]
        .into_iter()
        .map(|batched| {
            let mut f = empty_table(&format!("{tag}-{batched}"), using_tsb);
            let db = Arc::clone(f.db());
            let mut txn = db.begin(Isolation::Serializable);
            if batched {
                let rows = (0..ROWS).map(ingest_row).collect();
                db.insert_rows(&mut txn, "deep", rows).unwrap();
            } else {
                for oid in 0..ROWS {
                    db.insert_row(&mut txn, "deep", ingest_row(oid)).unwrap();
                }
            }
            let ts = db.commit(&mut txn).unwrap();
            f.log.extend((0..ROWS).map(|oid| (ts, oid, Some(0))));
            for seq in 1..=200 {
                f.clock.advance(20);
                let oid = seq * 37 % ROWS;
                let mut txn = db.begin(Isolation::Serializable);
                let row = vec![
                    Value::Int(oid),
                    Value::Int(seq),
                    Value::Varchar(payload(oid, seq)),
                ];
                db.update_row(&mut txn, "deep", row).unwrap();
                f.log.push((db.commit(&mut txn).unwrap(), oid, Some(seq)));
            }
            f
        })
        .collect();
    let (batched, per_row) = (twins[0].db(), twins[1].db());
    let splits = batched.split_counts();
    assert_eq!(splits, per_row.split_counts(), "{tag}: split counts");
    assert!(splits.1 > 0, "{tag}: the load must key-split");
    assert_eq!(
        format!("{:?}", batched.history_stats().unwrap()),
        format!("{:?}", per_row.history_stats().unwrap()),
        "{tag}: version store"
    );
    let log = &twins[0].log;
    assert_eq!(log, &twins[1].log, "{tag}: commit timestamps");
    for (ts, _, _) in log.iter().step_by(10) {
        let scan = |db: &Database| {
            let mut txn = db.begin_as_of_ts(*ts);
            let rows = db.scan_rows(&mut txn, "deep").unwrap();
            db.rollback(&mut txn).unwrap();
            rows
        };
        assert_eq!(scan(batched), scan(per_row), "{tag}: AS OF {ts:?}");
    }
    let (lo, hi) = (log[0].0, log.last().unwrap().0);
    let window = |db: &Database| db.versions_between("deep", lo, hi).unwrap();
    assert_eq!(window(batched), window(per_row), "{tag}: VERSIONS BETWEEN");
    check_as_of(batched, log, tag);
}

#[test]
fn chain_batched_ingest_matches_per_row() {
    batched_ingest_matches_per_row(false, "ingest-chain");
}

#[test]
fn tsb_batched_ingest_matches_per_row() {
    batched_ingest_matches_per_row(true, "ingest-tsb");
}

/// A duplicate key part-way through a batch ends it with the rows before
/// it applied (the transaction sees them) and the rest not; rolling back
/// removes the applied ones, so a later batch can insert them again.
fn batch_error_rolls_back(using_tsb: bool, tag: &str) {
    let f = empty_table(tag, using_tsb);
    let db = f.db();
    let mut txn = db.begin(Isolation::Serializable);
    db.insert_row(&mut txn, "deep", ingest_row(150)).unwrap();
    db.commit(&mut txn).unwrap();

    let get = |txn: &mut immortaldb::Transaction, oid: i32| {
        db.get_row(txn, "deep", &Value::Int(oid)).unwrap()
    };
    let mut txn = db.begin(Isolation::Serializable);
    let all = (0..300).map(ingest_row).collect();
    let err = db.insert_rows(&mut txn, "deep", all).unwrap_err();
    assert!(matches!(err, Error::DuplicateKey), "{tag}: {err:?}");
    assert!(
        get(&mut txn, 10).is_some(),
        "{tag}: rows before the duplicate stay applied"
    );
    assert!(
        get(&mut txn, 200).is_none(),
        "{tag}: rows after it never were"
    );
    db.rollback(&mut txn).unwrap();

    let mut txn = db.begin(Isolation::Serializable);
    assert!(
        get(&mut txn, 10).is_none(),
        "{tag}: rollback removed the batch"
    );
    let again = (0..150).map(ingest_row).collect();
    db.insert_rows(&mut txn, "deep", again).unwrap();
    db.commit(&mut txn).unwrap();
    let mut txn = db.begin(Isolation::Serializable);
    assert_eq!(db.scan_rows(&mut txn, "deep").unwrap().len(), 151, "{tag}");
    db.commit(&mut txn).unwrap();
}

#[test]
fn chain_batch_error_rolls_back() {
    batch_error_rolls_back(false, "dup-chain");
}

#[test]
fn tsb_batch_error_rolls_back() {
    batch_error_rolls_back(true, "dup-tsb");
}
