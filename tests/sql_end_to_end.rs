//! Workspace integration: SQL surface across sessions and tables.

use std::sync::Arc;

use immortaldb::{
    Database, DbConfig, Error, Isolation, Session, SimClock, Timestamp, Value, WRITE_CHUNK,
};
use immortaldb_chaos::TempDir;

struct Env {
    dir: TempDir,
    clock: Arc<SimClock>,
}

impl Env {
    fn new(name: &str) -> Env {
        Env {
            dir: TempDir::new(&format!("sql-{name}")),
            clock: Arc::new(SimClock::new(10_000_000)),
        }
    }

    fn open(&self) -> Database {
        Database::open(
            DbConfig::new(&self.dir).clock(Arc::clone(&self.clock) as Arc<dyn immortaldb::Clock>),
        )
        .unwrap()
    }

    fn tick(&self) {
        self.clock.advance(20);
    }
}

#[test]
fn two_sessions_share_one_database() {
    let env = Env::new("twosessions");
    let db = env.open();
    let mut a = Session::new(&db);
    let mut b = Session::new(&db);
    a.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    a.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    // Session b sees a's committed work immediately.
    let res = b.execute("SELECT v FROM t WHERE id = 1").unwrap();
    assert_eq!(res.rows[0][0], Value::Int(10));
}

#[test]
fn snapshot_session_is_unaffected_by_concurrent_commits() {
    let env = Env::new("snapsession");
    let db = env.open();
    let mut setup = Session::new(&db);
    setup
        .execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    setup.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    env.tick();

    let mut reader = Session::new(&db);
    reader.execute("BEGIN TRAN ISOLATION SNAPSHOT").unwrap();
    let before = reader.execute("SELECT v FROM t WHERE id = 1").unwrap();

    let mut writer = Session::new(&db);
    writer.execute("UPDATE t SET v = 99 WHERE id = 1").unwrap();
    env.tick();

    let during = reader.execute("SELECT v FROM t WHERE id = 1").unwrap();
    reader.execute("COMMIT").unwrap();
    assert_eq!(before.rows, during.rows, "snapshot reads are stable");
    let after = reader.execute("SELECT v FROM t WHERE id = 1").unwrap();
    assert_eq!(
        after.rows[0][0],
        Value::Int(99),
        "new snapshot sees the update"
    );
}

#[test]
fn sql_predicates_and_projections() {
    let env = Env::new("predicates");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute("CREATE TABLE items (id INT PRIMARY KEY, qty INT, name VARCHAR(20))")
        .unwrap();
    for (id, qty, name) in [
        (1, 5, "apple"),
        (2, 20, "pear"),
        (3, 12, "plum"),
        (4, 3, "fig"),
    ] {
        s.execute(&format!("INSERT INTO items VALUES ({id}, {qty}, '{name}')"))
            .unwrap();
    }
    let res = s
        .execute("SELECT name, qty FROM items WHERE qty >= 5 AND qty <= 15")
        .unwrap();
    assert_eq!(res.columns, vec!["name", "qty"]);
    assert_eq!(res.rows.len(), 2);
    assert_eq!(res.rows[0][0], Value::Varchar("apple".into()));
    let res = s
        .execute("SELECT * FROM items WHERE name <> 'fig' AND id > 2")
        .unwrap();
    assert_eq!(res.rows.len(), 1);
    // Point lookup path with extra predicates.
    let res = s
        .execute("SELECT * FROM items WHERE id = 2 AND qty < 5")
        .unwrap();
    assert!(res.rows.is_empty());
    // UPDATE with predicate, DELETE with predicate.
    let res = s
        .execute("UPDATE items SET qty = 0 WHERE qty < 10")
        .unwrap();
    assert_eq!(res.affected, 2);
    let res = s.execute("DELETE FROM items WHERE qty = 0").unwrap();
    assert_eq!(res.affected, 2);
    assert_eq!(s.execute("SELECT * FROM items").unwrap().rows.len(), 2);
}

#[test]
fn write_conflict_rolls_back_the_doomed_session_txn() {
    let env = Env::new("conflict");
    let db = env.open();
    let mut setup = Session::new(&db);
    setup
        .execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    setup.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    env.tick();

    let mut a = Session::new(&db);
    let mut b = Session::new(&db);
    a.execute("BEGIN TRAN ISOLATION SNAPSHOT").unwrap();
    b.execute("BEGIN TRAN ISOLATION SNAPSHOT").unwrap();
    a.execute("UPDATE t SET v = 1 WHERE id = 1").unwrap();
    a.execute("COMMIT").unwrap();
    // b is doomed by first-committer-wins; the session auto-rolls back.
    let err = b.execute("UPDATE t SET v = 2 WHERE id = 1").unwrap_err();
    assert!(
        matches!(err, Error::WriteConflict(_) | Error::Deadlock(_)),
        "{err}"
    );
    assert!(!b.in_transaction(), "doomed transaction was rolled back");
    // b can retry on a fresh snapshot and succeed.
    b.execute("UPDATE t SET v = 2 WHERE id = 1").unwrap();
    let res = b.execute("SELECT v FROM t WHERE id = 1").unwrap();
    assert_eq!(res.rows[0][0], Value::Int(2));
}

#[test]
fn timestamp_order_matches_commit_order() {
    let env = Env::new("tsorder");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    // Interleave two transactions; the one committing LAST must carry the
    // larger timestamp even though it began first.
    let mut first = db.begin(Isolation::Serializable);
    db.insert_row(&mut first, "t", vec![Value::Int(1), Value::Int(1)])
        .unwrap();
    let mut second = db.begin(Isolation::Serializable);
    db.insert_row(&mut second, "t", vec![Value::Int(2), Value::Int(2)])
        .unwrap();
    let ts_second = db.commit(&mut second).unwrap();
    let ts_first = db.commit(&mut first).unwrap();
    assert!(
        ts_first > ts_second,
        "late committer gets the later timestamp"
    );
    // And the stored versions agree.
    let h1 = db.history_rows("t", &Value::Int(1)).unwrap();
    let h2 = db.history_rows("t", &Value::Int(2)).unwrap();
    assert_eq!(h1[0].0.unwrap(), ts_first);
    assert_eq!(h2[0].0.unwrap(), ts_second);
}

#[test]
fn same_tick_commits_disambiguated_by_sequence_number() {
    let env = Env::new("sn");
    let db = env.open();
    let mut s = Session::new(&db);
    s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    // No clock advance: every commit lands in the same 20 ms tick and is
    // distinguished purely by the 4-byte sequence number (§2.1).
    for i in 0..100 {
        s.execute(&format!("INSERT INTO t VALUES ({i}, 0)"))
            .unwrap();
    }
    let mut stamps = Vec::new();
    for i in 0..100 {
        let h = db.history_rows("t", &Value::Int(i)).unwrap();
        stamps.push(h[0].0.unwrap());
    }
    let ticks: std::collections::HashSet<u64> = stamps.iter().map(|t| t.ttime).collect();
    assert_eq!(ticks.len(), 1, "all in one tick");
    let mut sns: Vec<u32> = stamps.iter().map(|t| t.sn).collect();
    let mut sorted = sns.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 100, "unique sequence numbers");
    sns.sort_unstable();
    assert_eq!(sns, sorted);
}

#[test]
fn large_workload_with_checkpoints_and_reopen() {
    let env = Env::new("bigreopen");
    {
        let db = env.open();
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT, pad VARCHAR(64))")
            .unwrap();
        for round in 0..6 {
            for id in 0..300 {
                let stmt = if round == 0 {
                    format!("INSERT INTO t VALUES ({id}, 0, 'pppppppppppppppppppppppppppp')")
                } else {
                    format!("UPDATE t SET v = {round} WHERE id = {id}")
                };
                s.execute(&stmt).unwrap();
                env.tick();
            }
            db.checkpoint().unwrap();
        }
        let (tsplits, ksplits) = db.split_counts();
        assert!(tsplits > 0 && ksplits > 0, "{tsplits}/{ksplits}");
        db.close().unwrap();
    }
    let db = env.open();
    let mut s = Session::new(&db);
    let res = s.execute("SELECT * FROM t").unwrap();
    assert_eq!(res.rows.len(), 300);
    assert!(res.rows.iter().all(|r| r[1] == Value::Int(5)));
    // Deep history still intact after checkpoints + restart.
    let h = db.history_rows("t", &Value::Int(42)).unwrap();
    assert_eq!(h.len(), 6);
}

/// `UPDATE` and `DELETE` with no predicate write `WRITE_CHUNK` rows per
/// cursor walk: over several chunks they must leave exactly the state —
/// and the history — that writing the same rows one by one leaves, under
/// both isolation levels.
#[test]
fn chunked_update_and_delete_match_row_by_row() {
    let env = Env::new("chunked-writes");
    let db = env.open();
    let n = 2 * WRITE_CHUNK as i32 + 37;
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|k| vec![Value::Int(k), Value::Int(k), Value::Int(0)])
        .collect();
    let scan = |table: &str| {
        let mut txn = db.begin(Isolation::Serializable);
        let rows = db.scan_rows(&mut txn, table).unwrap();
        db.commit(&mut txn).unwrap();
        rows
    };
    // Every version ever written, without its commit time.
    let versions = |table: &str| -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        let all = db.versions_between(table, Timestamp::ZERO, Timestamp::MAX);
        all.unwrap().into_iter().map(|v| (v.key, v.data)).collect()
    };
    for (i, iso) in [Isolation::Serializable, Isolation::Snapshot]
        .into_iter()
        .enumerate()
    {
        let (chunked, by_row) = (format!("chunked{i}"), format!("by_row{i}"));
        let mut s = Session::new(&db);
        for t in [&chunked, &by_row] {
            s.execute(&format!(
                "CREATE IMMORTAL TABLE {t} (id INT PRIMARY KEY, v INT, w INT)"
            ))
            .unwrap();
            let mut txn = db.begin(Isolation::Serializable);
            db.insert_rows(&mut txn, t, rows.clone()).unwrap();
            db.commit(&mut txn).unwrap();
        }
        env.tick();

        s.begin(iso).unwrap();
        let updated = s.execute(&format!("UPDATE {chunked} SET w = 7")).unwrap();
        s.commit().unwrap();
        assert_eq!(updated.affected, n as usize);
        let mut txn = db.begin(iso);
        for mut row in db.scan_rows(&mut txn, &by_row).unwrap() {
            row[2] = Value::Int(7);
            db.update_row(&mut txn, &by_row, row).unwrap();
        }
        db.commit(&mut txn).unwrap();
        assert_eq!(scan(&chunked), scan(&by_row), "{iso:?} UPDATE");
        env.tick();

        s.begin(iso).unwrap();
        let deleted = s.execute(&format!("DELETE FROM {chunked}")).unwrap();
        s.commit().unwrap();
        assert_eq!(deleted.affected, n as usize);
        let mut txn = db.begin(iso);
        for row in db.scan_rows(&mut txn, &by_row).unwrap() {
            db.delete_row(&mut txn, &by_row, &row[0]).unwrap();
        }
        db.commit(&mut txn).unwrap();
        assert!(scan(&chunked).is_empty(), "{iso:?} DELETE left rows");
        assert_eq!(versions(&chunked), versions(&by_row), "{iso:?} history");
        assert_eq!(versions(&chunked).len(), 3 * n as usize);
    }
}
