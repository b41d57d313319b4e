//! Deep-history checker for delta-encoded version chains and the history
//! compactor.
//!
//! A table is driven through hundreds of updates per key — deep version
//! chains spanning many history pages, with mostly-stable payloads so
//! delta encoding has something to exploit — while a `History` records
//! every commit's exact `(timestamp, key, row)`. AS OF point reads,
//! `VERSIONS BETWEEN` and every version at its own commit timestamp are
//! then checked against it: after the build, after a synchronous
//! `compact_history` pass, after a reopen that replays the compaction's
//! page images from the log, and on a replica that applied the compacted
//! primary's WAL.

use std::path::Path;
use std::sync::Arc;

use immortaldb::temporal::{window_hi, window_lo};
use immortaldb::{Database, DbConfig, Durability, Error, Isolation, Session, SimClock, Value};
use immortaldb_chaos::{History, TempDir, Version};
use immortaldb_net::{Client, Server, ServerConfig};
use immortaldb_repl::{Replica, ReplicaConfig};

const KEYS: i32 = 4;
const ROUNDS: usize = 250;
/// The key that gets a mid-history delete + re-insert (tombstones must
/// survive packing as anchors).
const DELETED_KEY: i32 = 2;

/// Mostly-stable payload: a long constant pad with a small changing head.
fn payload(oid: i32, seq: i32) -> String {
    format!("{seq:06}-{oid:02}-{}", "p".repeat(120))
}

/// The row of `oid` written in round `seq`.
fn deep_row(oid: i32, seq: i32) -> Vec<Value> {
    vec![
        Value::Int(oid),
        Value::Int(seq),
        Value::Varchar(payload(oid, seq)),
    ]
}

struct Fixture {
    /// `Option` so tests can close the engine (reopen scenarios) while
    /// the fixture keeps owning the directory.
    db: Option<Arc<Database>>,
    clock: Arc<SimClock>,
    history: History,
    dir: TempDir,
}

impl Fixture {
    fn db(&self) -> &Arc<Database> {
        self.db.as_ref().expect("engine is open")
    }

    /// Close the engine and recover from the files on disk.
    fn reopen(&mut self) {
        self.db = None;
        self.db = Some(open_db(self.dir.path(), Arc::clone(&self.clock)));
    }
}

fn open_db(dir: &Path, clock: Arc<SimClock>) -> Arc<Database> {
    Arc::new(
        Database::open(
            DbConfig::new(dir)
                .durability(Durability::Buffered)
                .clock(clock),
        )
        .unwrap(),
    )
}

/// A fresh `deep` table and its clock.
fn empty_table(tag: &str) -> Fixture {
    let dir = TempDir::new(&format!("history-compaction-{tag}"));
    let clock = Arc::new(SimClock::new(7_000_000));
    let db = open_db(dir.path(), Arc::clone(&clock));
    Session::new(&db)
        .execute("CREATE IMMORTAL TABLE deep (Oid INT PRIMARY KEY, Seq INT, Pad VARCHAR(160))")
        .unwrap();
    Fixture {
        db: Some(db),
        clock,
        history: History::default(),
        dir,
    }
}

/// Build the deep history: a batched initial load, then `ROUNDS` rounds
/// of single-key updates walking round-robin over the keys, one delete +
/// re-insert for [`DELETED_KEY`] in the middle.
fn build(tag: &str) -> Fixture {
    let mut f = empty_table(tag);
    let db = Arc::clone(f.db());
    // Initial load through the batched-ingest path.
    let mut txn = db.begin(Isolation::Serializable);
    let rows = (0..KEYS).map(|oid| deep_row(oid, 0)).collect();
    db.insert_rows(&mut txn, "deep", rows).unwrap();
    let ts = db.commit(&mut txn).unwrap();
    for oid in 0..KEYS {
        f.history.record(ts, oid, Some(deep_row(oid, 0)));
    }

    for round in 1..=ROUNDS {
        f.clock.advance(20);
        let (oid, seq) = ((round as i32) % KEYS, round as i32);
        let mut txn = db.begin(Isolation::Serializable);
        let row = if oid == DELETED_KEY && round == ROUNDS / 2 {
            db.delete_row(&mut txn, "deep", &Value::Int(oid)).unwrap();
            None
        } else if oid == DELETED_KEY && round == ROUNDS / 2 + KEYS as usize {
            db.insert_row(&mut txn, "deep", deep_row(oid, seq)).unwrap();
            Some(deep_row(oid, seq))
        } else {
            db.update_row(&mut txn, "deep", deep_row(oid, seq)).unwrap();
            Some(deep_row(oid, seq))
        };
        f.history.record(db.commit(&mut txn).unwrap(), oid, row);
    }
    f
}

/// Sampled AS OF point reads of every key. Whole rows are compared, so
/// every payload must reconstruct byte-exact through any delta chain.
fn check_as_of(db: &Database, h: &History, label: &str) {
    let step = (h.commits().len() / 40).max(1);
    for ts in h.commits().iter().step_by(step) {
        let mut txn = db.begin_as_of_ts(*ts);
        for oid in 0..KEYS {
            let row = db.get_row(&mut txn, "deep", &Value::Int(oid)).unwrap();
            h.check_point(oid, *ts, row.as_deref()).expect(label);
        }
        db.rollback(&mut txn).unwrap();
    }
}

/// `VERSIONS BETWEEN` over the middle half of the history.
fn check_versions_between(db: &Database, h: &History, label: &str) {
    let commits = h.commits();
    let (lo, hi) = (commits[commits.len() / 4], commits[3 * commits.len() / 4]);
    let sql = format!(
        "SELECT * FROM deep VERSIONS BETWEEN ms({}) AND ms({})",
        lo.ttime, hi.ttime
    );
    let rows = Session::new(db).execute(&sql).unwrap().rows;
    let got: Vec<Version> = rows.iter().map(|r| Version::from_sql(r)).collect();
    h.check_versions(window_lo(lo.ttime), window_hi(hi.ttime), |_| true, &got)
        .expect(label);
}

/// The checks every stage of the battery runs.
fn check_all(f: &Fixture, label: &str) {
    check_as_of(f.db(), &f.history, label);
    check_versions_between(f.db(), &f.history, label);
    f.history.check_own_timestamps(f.db(), "deep").expect(label);
}

fn run_battery(tag: &str) {
    // Time splits write every history page delta-packed, once.
    let mut f = build(tag);
    check_all(&f, "pre-compaction");
    let before = f.db().history_stats().unwrap();
    assert!(
        before.history_pages > 3,
        "build must produce deep history, got {before:?}"
    );
    assert!(
        before.used_bytes as f64 <= 0.7 * before.full_record_bytes as f64,
        "history must be packed well below full records: {before:?}"
    );

    // Synchronous compaction pass: under-filled chain pages merge, and
    // no answer may change.
    let stats = f.db().compact_history().unwrap();
    let after = f.db().history_stats().unwrap();
    assert!(
        stats.pages_freed > 0,
        "chain compaction must merge under-filled chain pages: {stats:?}"
    );
    assert!(
        after.history_pages < before.history_pages,
        "merging must shrink the page count: {before:?} -> {after:?}"
    );
    assert!(
        after.bytes_per_version() <= before.bytes_per_version(),
        "merging must not grow bytes/version: {before:?} -> {after:?}"
    );
    check_all(&f, "post-compaction");

    // A second pass must be (close to) a no-op — idempotence.
    let again = f.db().compact_history().unwrap();
    assert_eq!(again.pages_freed, 0, "second pass freed pages: {again:?}");
    check_as_of(f.db(), &f.history, "second-pass");

    // Reopen: redo replays the compaction's page images from the log
    // (the pass never checkpointed, so its pages were never flushed).
    f.reopen();
    check_all(&f, "post-reopen");
    let reopened = f.db().history_stats().unwrap();
    assert_eq!(
        reopened.history_pages, after.history_pages,
        "reopen must reconstruct the compacted store"
    );
}

#[test]
fn deep_history_matches_shadow_chain_index() {
    run_battery("chain");
}

/// A replica that applies the primary's WAL — including the compaction's
/// page-image records — must serve the same deep-history answers.
#[test]
fn replica_serves_compacted_history() {
    let f = build("repl");
    f.db().compact_history().unwrap();

    let server = Server::start(
        Arc::clone(f.db()),
        ServerConfig::new("127.0.0.1:0").workers(2),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let follower = TempDir::new("history-compaction-follower");
    let replica = Replica::start(ReplicaConfig::new(follower.path(), addr)).unwrap();
    let last = *f.history.commits().last().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while replica.db().visible_horizon() < last {
        assert!(
            std::time::Instant::now() < deadline,
            "replica never caught up to {last:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    check_as_of(replica.db(), &f.history, "replica");

    // And over the wire, a sampled AS OF transaction.
    let replica_server = Server::start(
        Arc::clone(replica.db()),
        ServerConfig::new("127.0.0.1:0").workers(2),
    )
    .unwrap();
    let mut c = Client::connect(replica_server.local_addr().to_string()).unwrap();
    let mid_ms = f.history.commits()[f.history.commits().len() / 2].ttime;
    c.query(&format!("BEGIN TRAN AS OF ms({mid_ms})")).unwrap();
    let rows = c.query("SELECT * FROM deep WHERE Oid < 1000").unwrap();
    c.query("COMMIT TRAN").unwrap();
    f.history
        .check_scan(window_hi(mid_ms), |oid| oid < 1000, &rows.rows)
        .expect("replica wire scan");

    replica_server.shutdown().unwrap();
    replica.stop();
    server.shutdown().unwrap();
}

// -- batched ingest -----------------------------------------------------------

/// Twin databases, one loaded with `insert_rows` (batched) and one row by
/// row with `insert_row`, then given the same updates: the batch must
/// build the same tree — same splits, same version store, same answers.
fn batched_ingest_matches_per_row(tag: &str) {
    const ROWS: i32 = 300;
    let twins: Vec<Fixture> = [true, false]
        .into_iter()
        .map(|batched| {
            let mut f = empty_table(&format!("{tag}-{batched}"));
            let db = Arc::clone(f.db());
            let mut txn = db.begin(Isolation::Serializable);
            if batched {
                let rows = (0..ROWS).map(|oid| deep_row(oid, 0)).collect();
                db.insert_rows(&mut txn, "deep", rows).unwrap();
            } else {
                for oid in 0..ROWS {
                    db.insert_row(&mut txn, "deep", deep_row(oid, 0)).unwrap();
                }
            }
            let ts = db.commit(&mut txn).unwrap();
            for oid in 0..ROWS {
                f.history.record(ts, oid, Some(deep_row(oid, 0)));
            }
            for seq in 1..=200 {
                f.clock.advance(20);
                let oid = seq * 37 % ROWS;
                let mut txn = db.begin(Isolation::Serializable);
                db.update_row(&mut txn, "deep", deep_row(oid, seq)).unwrap();
                let ts = db.commit(&mut txn).unwrap();
                f.history.record(ts, oid, Some(deep_row(oid, seq)));
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
    let h = &twins[0].history;
    assert_eq!(h, &twins[1].history, "{tag}: commit timestamps");
    for ts in h.commits().iter().step_by(10) {
        let scan = |db: &Database| {
            let mut txn = db.begin_as_of_ts(*ts);
            let rows = db.scan_rows(&mut txn, "deep").unwrap();
            db.rollback(&mut txn).unwrap();
            rows
        };
        assert_eq!(scan(batched), scan(per_row), "{tag}: AS OF {ts:?}");
    }
    let (lo, hi) = (h.commits()[0], *h.commits().last().unwrap());
    let window = |db: &Database| db.versions_between("deep", lo, hi).unwrap();
    assert_eq!(window(batched), window(per_row), "{tag}: VERSIONS BETWEEN");
    check_as_of(batched, h, tag);
}

#[test]
fn chain_batched_ingest_matches_per_row() {
    batched_ingest_matches_per_row("ingest-chain");
}

/// A duplicate key part-way through a batch ends it with the rows before
/// it applied (the transaction sees them) and the rest not; rolling back
/// removes the applied ones, so a later batch can insert them again.
fn batch_error_rolls_back(tag: &str) {
    let f = empty_table(tag);
    let db = f.db();
    let mut txn = db.begin(Isolation::Serializable);
    db.insert_row(&mut txn, "deep", deep_row(150, 0)).unwrap();
    db.commit(&mut txn).unwrap();

    let get = |txn: &mut immortaldb::Transaction, oid: i32| {
        db.get_row(txn, "deep", &Value::Int(oid)).unwrap()
    };
    let mut txn = db.begin(Isolation::Serializable);
    let all = (0..300).map(|oid| deep_row(oid, 0)).collect();
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
    let again = (0..150).map(|oid| deep_row(oid, 0)).collect();
    db.insert_rows(&mut txn, "deep", again).unwrap();
    db.commit(&mut txn).unwrap();
    let mut txn = db.begin(Isolation::Serializable);
    assert_eq!(db.scan_rows(&mut txn, "deep").unwrap().len(), 151, "{tag}");
    db.commit(&mut txn).unwrap();
}

#[test]
fn chain_batch_error_rolls_back() {
    batch_error_rolls_back("dup-chain");
}
