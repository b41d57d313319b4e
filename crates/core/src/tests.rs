//! End-to-end engine tests: SQL sessions, transactions, isolation,
//! timestamping, recovery.

use std::path::PathBuf;
use std::sync::Arc;

use immortaldb_common::{Error, SimClock};

use crate::db::{Database, DbConfig};
use crate::row::Value;
use crate::sql::Session;
use crate::txn::{Isolation, TimestampingMode};

struct Env {
    dir: PathBuf,
    clock: Arc<SimClock>,
}

impl Env {
    fn new(name: &str) -> Env {
        let dir = std::env::temp_dir().join(format!("immortal-core-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Env {
            dir,
            clock: Arc::new(SimClock::new(1_000_000)),
        }
    }

    fn config(&self) -> DbConfig {
        DbConfig::new(&self.dir).clock(Arc::clone(&self.clock) as Arc<dyn immortaldb_common::Clock>)
    }

    fn open(&self) -> Database {
        Database::open(self.config()).unwrap()
    }

    /// Advance virtual time by one 20 ms tick.
    fn tick(&self) {
        self.clock.advance(immortaldb_common::TICK_MS);
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

const DDL: &str = "Create IMMORTAL Table MovingObjects \
                   (Oid smallint PRIMARY KEY, LocationX int, LocationY int) ON [PRIMARY]";

#[test]
fn paper_example_end_to_end() {
    let env = Env::new("paper");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute(DDL).unwrap();
    for oid in 0..20 {
        s.execute(&format!(
            "INSERT INTO MovingObjects VALUES ({oid}, {oid}, 0)"
        ))
        .unwrap();
        env.tick();
    }
    let t_past = db.now_ms();
    env.tick();
    for oid in 0..20 {
        s.execute(&format!(
            "UPDATE MovingObjects SET LocationX = {}, LocationY = 1 WHERE Oid = {oid}",
            oid + 100
        ))
        .unwrap();
        env.tick();
    }
    // Current state.
    let res = s
        .execute("SELECT * FROM MovingObjects WHERE Oid < 10")
        .unwrap();
    assert_eq!(res.rows.len(), 10);
    assert_eq!(res.rows[3][1], Value::Int(103));
    // The paper's AS OF query shape.
    s.execute(&format!("Begin Tran AS OF ms({t_past})"))
        .unwrap();
    let res = s
        .execute("SELECT * FROM MovingObjects WHERE Oid < 10")
        .unwrap();
    s.execute("Commit Tran").unwrap();
    assert_eq!(res.rows.len(), 10);
    assert_eq!(res.rows[3][1], Value::Int(3), "AS OF sees pre-update state");
    assert_eq!(res.rows[3][2], Value::Int(0));
}

#[test]
fn as_of_datetime_string_roundtrip() {
    let env = Env::new("datetime");
    // Position virtual time at a known date: 8/12/2004 10:15:25 UTC.
    env.clock.set(1_092_305_725_000);
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute(DDL).unwrap();
    s.execute("INSERT INTO MovingObjects VALUES (1, 5, 5)")
        .unwrap();
    env.clock.advance(60_000); // one minute later
    s.execute("UPDATE MovingObjects SET LocationX = 9 WHERE Oid = 1")
        .unwrap();
    // Query as of 10:15:30 — between the insert and the update.
    s.execute("Begin Tran AS OF \"8/12/2004 10:15:30\"")
        .unwrap();
    let res = s
        .execute("SELECT LocationX FROM MovingObjects WHERE Oid = 1")
        .unwrap();
    s.execute("Commit Tran").unwrap();
    assert_eq!(res.rows[0][0], Value::Int(5));
}

#[test]
fn as_of_rejected_for_non_immortal_tables() {
    let env = Env::new("asofconv");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute("CREATE TABLE plain (id INT PRIMARY KEY, v INT)")
        .unwrap();
    s.execute("INSERT INTO plain VALUES (1, 2)").unwrap();
    s.execute(&format!("BEGIN TRAN AS OF ms({})", db.now_ms()))
        .unwrap();
    let err = s.execute("SELECT * FROM plain").unwrap_err();
    assert!(matches!(err, Error::Catalog(_)), "{err}");
    s.execute("ROLLBACK").unwrap();
}

#[test]
fn explicit_transaction_rollback_undoes_everything() {
    let env = Env::new("rollback");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute(DDL).unwrap();
    s.execute("INSERT INTO MovingObjects VALUES (1, 10, 10)")
        .unwrap();
    s.execute("BEGIN TRAN").unwrap();
    s.execute("INSERT INTO MovingObjects VALUES (2, 20, 20)")
        .unwrap();
    s.execute("UPDATE MovingObjects SET LocationX = 99 WHERE Oid = 1")
        .unwrap();
    s.execute("DELETE FROM MovingObjects WHERE Oid = 1")
        .unwrap();
    // Inside the transaction the changes are visible.
    let res = s.execute("SELECT * FROM MovingObjects").unwrap();
    assert_eq!(res.rows.len(), 1); // object 1 deleted, object 2 added
    s.execute("ROLLBACK TRAN").unwrap();
    let res = s.execute("SELECT * FROM MovingObjects").unwrap();
    assert_eq!(res.rows.len(), 1);
    assert_eq!(res.rows[0][0], Value::SmallInt(1));
    assert_eq!(res.rows[0][1], Value::Int(10), "update rolled back");
}

#[test]
fn read_only_as_of_transactions_reject_writes() {
    let env = Env::new("rowrite");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute(DDL).unwrap();
    s.execute(&format!("BEGIN TRAN AS OF ms({})", db.now_ms()))
        .unwrap();
    let err = s
        .execute("INSERT INTO MovingObjects VALUES (1, 1, 1)")
        .unwrap_err();
    assert!(matches!(err, Error::ReadOnlyTransaction), "{err}");
    s.execute("ROLLBACK").unwrap();
}

#[test]
fn snapshot_isolation_reads_ignore_later_commits() {
    let env = Env::new("snapread");
    let db = env.open();
    let mut setup = Session::new(&db);
    setup.execute(DDL).unwrap();
    setup
        .execute("INSERT INTO MovingObjects VALUES (1, 10, 0)")
        .unwrap();
    env.tick();

    let mut reader = db.begin(Isolation::Snapshot);
    // A later writer commits an update.
    let mut writer = db.begin(Isolation::Snapshot);
    db.update_row(
        &mut writer,
        "MovingObjects",
        vec![Value::SmallInt(1), Value::Int(99), Value::Int(0)],
    )
    .unwrap();
    db.commit(&mut writer).unwrap();
    // The reader still sees the old version (reads are never blocked).
    let row = db
        .get_row(&mut reader, "MovingObjects", &Value::SmallInt(1))
        .unwrap()
        .unwrap();
    assert_eq!(row[1], Value::Int(10));
    db.commit(&mut reader).unwrap();
    // A fresh snapshot sees the update.
    let mut fresh = db.begin(Isolation::Snapshot);
    let row = db
        .get_row(&mut fresh, "MovingObjects", &Value::SmallInt(1))
        .unwrap()
        .unwrap();
    assert_eq!(row[1], Value::Int(99));
    db.commit(&mut fresh).unwrap();
}

#[test]
fn snapshot_write_conflict_first_committer_wins() {
    let env = Env::new("fcw");
    let db = env.open();
    let mut setup = Session::new(&db);
    setup.execute(DDL).unwrap();
    setup
        .execute("INSERT INTO MovingObjects VALUES (1, 10, 0)")
        .unwrap();
    env.tick();

    let mut a = db.begin(Isolation::Snapshot);
    let mut b = db.begin(Isolation::Snapshot);
    // a updates and commits first.
    db.update_row(
        &mut a,
        "MovingObjects",
        vec![Value::SmallInt(1), Value::Int(11), Value::Int(0)],
    )
    .unwrap();
    db.commit(&mut a).unwrap();
    // b's snapshot predates a's commit: its write must conflict.
    let err = db
        .update_row(
            &mut b,
            "MovingObjects",
            vec![Value::SmallInt(1), Value::Int(22), Value::Int(0)],
        )
        .unwrap_err();
    assert!(matches!(err, Error::WriteConflict(_)), "{err}");
    db.rollback(&mut b).unwrap();
    // a's value survived.
    let mut check = db.begin(Isolation::Snapshot);
    let row = db
        .get_row(&mut check, "MovingObjects", &Value::SmallInt(1))
        .unwrap()
        .unwrap();
    assert_eq!(row[1], Value::Int(11));
    db.commit(&mut check).unwrap();
}

#[test]
fn own_writes_visible_under_snapshot_isolation() {
    let env = Env::new("ownsnap");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute(DDL).unwrap();
    s.execute("BEGIN TRAN ISOLATION SNAPSHOT").unwrap();
    s.execute("INSERT INTO MovingObjects VALUES (5, 1, 2)")
        .unwrap();
    let res = s
        .execute("SELECT * FROM MovingObjects WHERE Oid = 5")
        .unwrap();
    assert_eq!(res.rows.len(), 1);
    s.execute("COMMIT").unwrap();
}

#[test]
fn conventional_table_crud() {
    let env = Env::new("conventional");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute("CREATE TABLE accounts (id INT PRIMARY KEY, balance BIGINT, owner VARCHAR(32))")
        .unwrap();
    s.execute("INSERT INTO accounts VALUES (1, 100, 'alice'), (2, 200, 'bob')")
        .unwrap();
    s.execute("UPDATE accounts SET balance = 150 WHERE id = 1")
        .unwrap();
    let res = s
        .execute("SELECT balance, owner FROM accounts WHERE id = 1")
        .unwrap();
    assert_eq!(
        res.rows[0],
        vec![Value::BigInt(150), Value::Varchar("alice".into())]
    );
    s.execute("DELETE FROM accounts WHERE id = 2").unwrap();
    let res = s.execute("SELECT * FROM accounts").unwrap();
    assert_eq!(res.rows.len(), 1);
    // Duplicate key.
    let err = s
        .execute("INSERT INTO accounts VALUES (1, 0, 'x')")
        .unwrap_err();
    assert!(matches!(err, Error::DuplicateKey));
}

#[test]
fn history_statement_time_travel() {
    let env = Env::new("history");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute(DDL).unwrap();
    s.execute("INSERT INTO MovingObjects VALUES (7, 1, 1)")
        .unwrap();
    env.tick();
    s.execute("UPDATE MovingObjects SET LocationX = 2 WHERE Oid = 7")
        .unwrap();
    env.tick();
    s.execute("DELETE FROM MovingObjects WHERE Oid = 7")
        .unwrap();
    let res = s.execute("HISTORY OF MovingObjects WHERE Oid = 7").unwrap();
    assert_eq!(res.rows.len(), 3);
    assert_eq!(res.rows[0][2], Value::Varchar("DELETE".into()));
    assert_eq!(res.rows[1][2], Value::Varchar("WRITE".into()));
    assert_eq!(res.rows[1][4], Value::Int(2));
    assert_eq!(res.rows[2][4], Value::Int(1));
    // Timestamps descend.
    assert!(res.rows[0][0].as_i64() > res.rows[1][0].as_i64());
}

#[test]
fn crash_recovery_rolls_back_losers_and_keeps_history() {
    let env = Env::new("crash");
    {
        let db = env.open();
        let mut s = Session::new(&db);
        s.execute(DDL).unwrap();
        s.execute("INSERT INTO MovingObjects VALUES (1, 10, 0)")
            .unwrap();
        env.tick();
        s.execute("UPDATE MovingObjects SET LocationX = 20 WHERE Oid = 1")
            .unwrap();
        env.tick();
        // Leave a transaction in flight, force its log records out, then
        // "crash" (drop without checkpoint — cached pages vanish).
        let mut loser = db.begin(Isolation::Serializable);
        db.update_row(
            &mut loser,
            "MovingObjects",
            vec![Value::SmallInt(1), Value::Int(666), Value::Int(0)],
        )
        .unwrap();
        db.insert_row(
            &mut loser,
            "MovingObjects",
            vec![Value::SmallInt(2), Value::Int(5), Value::Int(5)],
        )
        .unwrap();
        db.force_log().unwrap();
        std::mem::forget(loser); // crash: no commit, no rollback
    }
    let db = env.open();
    assert_eq!(db.recovered_losers, 1, "one loser rolled back");
    let mut s = Session::new(&db);
    let res = s.execute("SELECT * FROM MovingObjects").unwrap();
    assert_eq!(res.rows.len(), 1, "loser's insert gone");
    assert_eq!(res.rows[0][1], Value::Int(20), "loser's update undone");
    // Committed history survived the crash.
    let hist = s.execute("HISTORY OF MovingObjects WHERE Oid = 1").unwrap();
    assert_eq!(hist.rows.len(), 2);
}

#[test]
fn reopen_preserves_data_and_as_of() {
    let env = Env::new("reopen");
    let t_past;
    {
        let db = env.open();
        let mut s = Session::new(&db);
        s.execute(DDL).unwrap();
        s.execute("INSERT INTO MovingObjects VALUES (1, 1, 1)")
            .unwrap();
        env.tick();
        t_past = db.now_ms();
        env.tick();
        s.execute("UPDATE MovingObjects SET LocationX = 2 WHERE Oid = 1")
            .unwrap();
        db.close().unwrap();
    }
    let db = env.open();
    let mut s = Session::new(&db);
    let res = s
        .execute("SELECT LocationX FROM MovingObjects WHERE Oid = 1")
        .unwrap();
    assert_eq!(res.rows[0][0], Value::Int(2));
    s.execute(&format!("BEGIN TRAN AS OF ms({t_past})"))
        .unwrap();
    let res = s
        .execute("SELECT LocationX FROM MovingObjects WHERE Oid = 1")
        .unwrap();
    s.execute("COMMIT").unwrap();
    assert_eq!(res.rows[0][0], Value::Int(1), "history survives restart");
}

#[test]
fn ptt_gc_reclaims_after_checkpoint() {
    let env = Env::new("pttgc");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute(DDL).unwrap();
    for oid in 0..50 {
        s.execute(&format!("INSERT INTO MovingObjects VALUES ({oid}, 0, 0)"))
            .unwrap();
        env.tick();
    }
    assert_eq!(db.ptt_len().unwrap(), 50, "one PTT entry per committed txn");
    // Point reads apply the timestamps (stage IV read trigger)...
    for oid in 0..25 {
        let _ = s
            .execute(&format!("SELECT * FROM MovingObjects WHERE Oid = {oid}"))
            .unwrap();
    }
    // ...and the checkpoint makes the stamping durable, enabling GC for
    // the read half.
    db.checkpoint().unwrap();
    assert_eq!(db.ptt_len().unwrap(), 25, "read-stamped entries reclaimed");
    // The other half gets stamped by the flush hook *during* that
    // checkpoint — durable, but after its redo-scan-start, so the
    // conservative LSN rule defers their reclamation to the next one.
    db.checkpoint().unwrap();
    assert_eq!(db.ptt_len().unwrap(), 0, "all entries reclaimed");
    // The data is of course still there, with full history.
    let res = s.execute("SELECT * FROM MovingObjects").unwrap();
    assert_eq!(res.rows.len(), 50);
}

#[test]
fn eager_mode_stamps_at_commit_and_logs_more() {
    // Lazy timestamping writes ONE PTT row per transaction no matter how
    // many records it touched; eager logs a stamping record per touched
    // record. Multi-record transactions expose the difference (§2.2).
    fn run(mode: TimestampingMode, env: &Env) -> (u64, usize) {
        let db = Database::open(env.config().timestamping(mode)).unwrap();
        let mut s = Session::new(&db);
        s.execute(DDL).unwrap();
        for oid in 0..50 {
            s.execute(&format!("INSERT INTO MovingObjects VALUES ({oid}, 0, 0)"))
                .unwrap();
        }
        let base = db.log_bytes();
        for round in 1..=10 {
            s.execute("BEGIN TRAN").unwrap();
            for oid in 0..50 {
                s.execute(&format!(
                    "UPDATE MovingObjects SET LocationX = {round} WHERE Oid = {oid}"
                ))
                .unwrap();
            }
            s.execute("COMMIT TRAN").unwrap();
        }
        (db.log_bytes() - base, db.ptt_len().unwrap())
    }
    let env_lazy = Env::new("eager-lazy");
    let env_eager = Env::new("eager-eager");
    let (lazy_bytes, lazy_ptt) = run(TimestampingMode::Lazy, &env_lazy);
    let (eager_bytes, eager_ptt) = run(TimestampingMode::Eager, &env_eager);
    assert!(
        eager_bytes > lazy_bytes,
        "eager timestamping must log more: {eager_bytes} vs {lazy_bytes}"
    );
    // Eager mode never needs the persistent timestamp table.
    assert_eq!(eager_ptt, 0);
    assert!(lazy_ptt > 0);
}

#[test]
fn serializable_readers_block_writers() {
    let env = Env::new("serial");
    let db = Arc::new(env.open());
    let mut s = Session::new(&db);
    s.execute(DDL).unwrap();
    s.execute("INSERT INTO MovingObjects VALUES (1, 10, 0)")
        .unwrap();

    let mut reader = db.begin(Isolation::Serializable);
    let _ = db
        .get_row(&mut reader, "MovingObjects", &Value::SmallInt(1))
        .unwrap();
    // Writer blocks on the reader's S lock; run it in a thread and make
    // sure it only succeeds after the reader commits.
    let db2 = Arc::clone(&db);
    let handle = std::thread::spawn(move || {
        let mut w = db2.begin(Isolation::Serializable);
        db2.update_row(
            &mut w,
            "MovingObjects",
            vec![Value::SmallInt(1), Value::Int(99), Value::Int(0)],
        )
        .unwrap();
        db2.commit(&mut w).unwrap();
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(!handle.is_finished(), "writer must wait for the read lock");
    db.commit(&mut reader).unwrap();
    handle.join().unwrap();
}

#[test]
fn snapshot_enabled_table_prunes_old_versions() {
    let env = Env::new("snapgc");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute("CREATE TABLE cache (id INT PRIMARY KEY, v INT)")
        .unwrap();
    s.execute("ALTER TABLE cache ENABLE SNAPSHOT").unwrap();
    s.execute("INSERT INTO cache VALUES (1, 0)").unwrap();
    env.tick();
    for i in 1..50 {
        s.execute(&format!("UPDATE cache SET v = {i} WHERE id = 1"))
            .unwrap();
        env.tick();
    }
    // With no active snapshots, chains are pruned to ~1 version. A
    // snapshot-enabled table never answers AS OF queries.
    let err = {
        let mut t = db.begin_as_of(db.now_ms());
        db.get_row(&mut t, "cache", &Value::Int(1)).unwrap_err()
    };
    assert!(matches!(err, Error::Catalog(_)));
    let res = s.execute("SELECT v FROM cache WHERE id = 1").unwrap();
    assert_eq!(res.rows[0][0], Value::Int(49));
    // Versions were pruned: far fewer than 50 remain (the exact count
    // depends on stamping opportunities; the invariant is "bounded").
    let (tsplits, _) = db.split_counts();
    assert_eq!(
        tsplits, 0,
        "pruning must prevent time splits for this tiny table"
    );
}

#[test]
fn ddl_errors() {
    let env = Env::new("ddlerr");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute(DDL).unwrap();
    assert!(matches!(s.execute(DDL).unwrap_err(), Error::Catalog(_)));
    assert!(matches!(
        s.execute("SELECT * FROM nothere").unwrap_err(),
        Error::Catalog(_)
    ));
    // Enabling snapshot on a non-empty conventional table fails.
    s.execute("CREATE TABLE full_t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    s.execute("INSERT INTO full_t VALUES (1, 1)").unwrap();
    assert!(s.execute("ALTER TABLE full_t ENABLE SNAPSHOT").is_err());
}

#[test]
fn multi_statement_transaction_spanning_tables() {
    let env = Env::new("multitable");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute(DDL).unwrap();
    s.execute("CREATE IMMORTAL TABLE audit (seq INT PRIMARY KEY, what VARCHAR(40))")
        .unwrap();
    s.execute("BEGIN TRAN").unwrap();
    s.execute("INSERT INTO MovingObjects VALUES (1, 1, 1)")
        .unwrap();
    s.execute("INSERT INTO audit VALUES (1, 'created object 1')")
        .unwrap();
    s.execute("COMMIT TRAN").unwrap();
    // Both tables committed atomically; both carry the same timestamp.
    let h1 = db
        .history_rows("MovingObjects", &Value::SmallInt(1))
        .unwrap();
    let h2 = db.history_rows("audit", &Value::Int(1)).unwrap();
    assert_eq!(h1[0].0, h2[0].0, "one transaction, one timestamp");
}

#[test]
fn reopen_reads_deep_history_as_of() {
    let env = Env::new("deepreopen");
    let mut marks = Vec::new();
    {
        let db = env.open();
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT, pad VARCHAR(48))")
            .unwrap();
        for round in 0..8 {
            for id in 0..60 {
                let stmt = if round == 0 {
                    format!("INSERT INTO t VALUES ({id}, 0, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')")
                } else {
                    format!("UPDATE t SET v = {round} WHERE id = {id}")
                };
                s.execute(&stmt).unwrap();
                env.tick();
            }
            marks.push((round, db.visible_horizon()));
        }
        db.close().unwrap();
    }
    let db = env.open();
    for (round, ts) in marks {
        let mut txn = db.begin_as_of_ts(ts);
        let rows = db.scan_rows(&mut txn, "t").unwrap();
        db.commit(&mut txn).unwrap();
        assert_eq!(rows.len(), 60, "round {round}");
        assert!(
            rows.iter().all(|r| r[1] == Value::Int(round)),
            "round {round}"
        );
    }
}

#[test]
fn vacuum_reclaims_crash_orphaned_ptt_entries() {
    let env = Env::new("vacuum");
    {
        let db = env.open();
        let mut s = Session::new(&db);
        s.execute(DDL).unwrap();
        for oid in 0..30 {
            s.execute(&format!("INSERT INTO MovingObjects VALUES ({oid}, 0, 0)"))
                .unwrap();
            env.tick();
        }
        db.force_log().unwrap();
        // Crash: volatile refcounts are lost; after restart the PTT
        // entries are pinned (incremental GC cannot prove they're done).
    }
    let db = env.open();
    assert_eq!(db.ptt_len().unwrap(), 30);
    // Ordinary checkpoints cannot reclaim the orphans.
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    assert_eq!(db.ptt_len().unwrap(), 30);
    // The vacuum sweep stamps everything and reclaims all of them.
    let mut s = Session::new(&db);
    let res = s.execute("VACUUM").unwrap();
    assert!(res.message.contains("30"), "{}", res.message);
    assert_eq!(db.ptt_len().unwrap(), 0);
    // Data and history untouched.
    let res = s.execute("SELECT * FROM MovingObjects").unwrap();
    assert_eq!(res.rows.len(), 30);
    let h = s.execute("HISTORY OF MovingObjects WHERE Oid = 5").unwrap();
    assert_eq!(h.rows.len(), 1);
}

#[test]
fn vacuum_spares_concurrently_active_transactions() {
    let env = Env::new("vacuumactive");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute(DDL).unwrap();
    s.execute("INSERT INTO MovingObjects VALUES (1, 0, 0)")
        .unwrap();
    env.tick();
    // An active transaction holds an uncommitted version during vacuum.
    let mut active = db.begin(Isolation::Serializable);
    db.update_row(
        &mut active,
        "MovingObjects",
        vec![Value::SmallInt(1), Value::Int(7), Value::Int(0)],
    )
    .unwrap();
    db.vacuum().unwrap();
    // The active transaction can still commit and its data is correct.
    db.commit(&mut active).unwrap();
    let res = s
        .execute("SELECT LocationX FROM MovingObjects WHERE Oid = 1")
        .unwrap();
    assert_eq!(res.rows[0][0], Value::Int(7));
    // Its own PTT entry is reclaimed by the ordinary path later.
    let _ = s
        .execute("SELECT * FROM MovingObjects WHERE Oid = 1")
        .unwrap();
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    assert_eq!(db.ptt_len().unwrap(), 0);
}

fn visibility_waits(db: &Database) -> u64 {
    db.metrics_snapshot()
        .get("ts.visibility_waits")
        .unwrap_or(0)
}

/// Wait until `thread` has finished or the engine has counted `waits`
/// commits waiting for a lower timestamp to become visible.
fn until_done_or_waiting<T>(db: &Database, thread: &std::thread::ScopedJoinHandle<T>, waits: u64) {
    while !thread.is_finished() && visibility_waits(db) < waits {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// A commit the server has acknowledged is inside every later snapshot.
/// A timestamp held in flight — a slow group-commit batch — gates session
/// A's autocommit `INSERT`, which must not return until the gate retires.
/// After that, A's snapshot transaction finds its own row, and so do an
/// `AS OF` its own commit timestamp and session B. The sentinel, armed
/// throughout, must see no violation: without the wait its session rule
/// flags A's snapshot, taken below A's acknowledged commit.
#[test]
fn an_acknowledged_commit_is_in_every_later_snapshot() {
    let env = Env::new("ackvisible");
    let tap = immortaldb_check::EventTap::new(1024);
    let db = Database::open(env.config().sentinel(Arc::clone(&tap))).unwrap();
    let mut b = Session::new(&db);
    b.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    let gate = db.authority.issue();
    let (acked_early, (updated, saw_own)) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let mut a = Session::new(&db);
            a.execute("INSERT INTO t VALUES (7, 0)").unwrap();
            let own = db.history_rows("t", &Value::Int(7)).unwrap()[0].0.unwrap();
            a.execute("BEGIN TRAN ISOLATION SNAPSHOT").unwrap();
            let updated = a
                .execute("UPDATE t SET v = 1 WHERE id = 7")
                .unwrap()
                .affected;
            a.execute("COMMIT TRAN").unwrap();
            let mut as_of = db.begin_as_of_ts(own);
            let saw_own = db
                .get_row(&mut as_of, "t", &Value::Int(7))
                .unwrap()
                .is_some();
            db.commit(&mut as_of).unwrap();
            (updated, saw_own)
        });
        until_done_or_waiting(&db, &a, 1);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let acked_early = a.is_finished();
        db.authority.retire(gate);
        (acked_early, a.join().unwrap())
    });
    let mut checker = immortaldb_check::sentinel::Checker::new();
    while let Some(event) = tap.pop() {
        checker.process(&event);
    }
    let report = checker.report();
    assert_eq!(report.violation_count, 0, "{:?}", report.violations);
    assert!(
        !acked_early,
        "INSERT acknowledged below an in-flight timestamp"
    );
    assert_eq!(updated, 1, "session A's snapshot missed its own INSERT");
    assert!(saw_own, "AS OF its own commit timestamp missed the row");
    assert!(visibility_waits(&db) >= 1);
    b.execute("BEGIN TRAN ISOLATION SNAPSHOT").unwrap();
    let rows = b.execute("SELECT v FROM t WHERE id = 7").unwrap().rows;
    b.execute("COMMIT TRAN").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(1)]]);
}

/// Snapshot-version GC must not prune below a snapshot that has not begun
/// yet. With a timestamp held in flight, v1 commits below it and two
/// updates commit above it, each from its own thread; the second update
/// prunes the chain. A snapshot begun now reads at the stable boundary,
/// below the held timestamp, so it still needs v1.
#[test]
fn snapshot_version_gc_keeps_what_the_next_snapshot_reads() {
    let env = Env::new("gcboundary");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute("CREATE TABLE cache (id INT PRIMARY KEY, v INT)")
        .unwrap();
    s.execute("ALTER TABLE cache ENABLE SNAPSHOT").unwrap();
    s.execute("INSERT INTO cache VALUES (1, 1)").unwrap();
    let gate = db.authority.issue();
    let db = &db;
    let row = std::thread::scope(|scope| {
        let writers: Vec<_> = (2..=3u64)
            .map(|v| {
                let w = scope.spawn(move || {
                    let sql = format!("UPDATE cache SET v = {v} WHERE id = 1");
                    Session::new(db).execute(&sql).map(|_| ())
                });
                until_done_or_waiting(db, &w, v - 1);
                w
            })
            .collect();
        let mut txn = db.begin(Isolation::Snapshot);
        let row = db.get_row(&mut txn, "cache", &Value::Int(1)).unwrap();
        db.commit(&mut txn).unwrap();
        db.authority.retire(gate);
        for w in writers {
            w.join().unwrap().unwrap();
        }
        row
    });
    assert_eq!(row, Some(vec![Value::Int(1), Value::Int(1)]));
}

/// `begin` samples an SI snapshot and registers it for snapshot-version
/// GC under one lock, and the GC bound's fallback is sampled under that
/// lock too. Otherwise a writer's GC pass between the sample and the
/// registration bounds itself by a newer horizon and prunes the version
/// the new snapshot reads. Readers race one writer on a `SNAPSHOT`
/// table; every read must return the version that governs at its
/// snapshot.
#[test]
fn snapshots_begun_beside_version_gc_read_what_governs() {
    const WRITES: i32 = 10_000;
    let env = Env::new("begin-gc-race");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute("CREATE TABLE cache (id INT PRIMARY KEY, v INT)")
        .unwrap();
    s.execute("ALTER TABLE cache ENABLE SNAPSHOT").unwrap();
    let write = |v: i32| {
        let mut txn = db.begin(Isolation::Serializable);
        let row = vec![Value::Int(1), Value::Int(v)];
        if v == 0 {
            db.insert_row(&mut txn, "cache", row).unwrap();
        } else {
            db.update_row(&mut txn, "cache", row).unwrap();
        }
        (db.commit(&mut txn).unwrap(), v)
    };
    let first = write(0);
    let done = std::sync::atomic::AtomicBool::new(false);
    let (commits, reads) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut reads = Vec::new();
                    while !done.load(std::sync::atomic::Ordering::Relaxed) {
                        let mut txn = db.begin(Isolation::Snapshot);
                        let row = db.get_row(&mut txn, "cache", &Value::Int(1)).unwrap();
                        reads.push((txn.snapshot, row));
                        db.commit(&mut txn).unwrap();
                    }
                    reads
                })
            })
            .collect();
        let mut commits = vec![first];
        commits.extend((1..=WRITES).map(write));
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let reads: Vec<_> = readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect();
        (commits, reads)
    });
    assert!(!reads.is_empty());
    for (snapshot, row) in reads {
        let governs = commits
            .iter()
            .filter(|(ts, _)| *ts <= snapshot)
            .map(|(_, v)| *v)
            .next_back()
            .expect("the insert precedes every snapshot");
        assert_eq!(
            row,
            Some(vec![Value::Int(1), Value::Int(governs)]),
            "read at {snapshot:?}"
        );
    }
}
