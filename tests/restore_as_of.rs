//! `RESTORE TABLE … AS OF` against the commit history.
//!
//! A scripted mutation history is applied in committed transactions and
//! recorded in a `History`. Restoring to any commit timestamp must
//! reproduce the state at that instant exactly — and, because the restore
//! is ordinary stamped work, the pre-restore state must stay readable at
//! its own timestamps (history is preserved, not rewritten).

use std::collections::{BTreeMap, BTreeSet};

use immortaldb::{Database, DbConfig, Isolation, Session, TableKind, Value, WRITE_CHUNK};
use immortaldb_chaos::{History, TempDir};
use immortaldb_common::Timestamp;

fn schema() -> immortaldb::Schema {
    immortaldb::Schema::new(
        vec![
            immortaldb::Column {
                name: "id".into(),
                ctype: immortaldb::ColType::Int,
            },
            immortaldb::Column {
                name: "v".into(),
                ctype: immortaldb::ColType::BigInt,
            },
        ],
        0,
    )
    .unwrap()
}

fn row(id: i32, v: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::BigInt(v)]
}

/// The current rows of `t`.
fn scan(db: &Database) -> Vec<Vec<Value>> {
    let mut txn = db.begin(Isolation::Serializable);
    let rows = db.scan_rows(&mut txn, "t").unwrap();
    db.commit(&mut txn).unwrap();
    rows
}

#[test]
fn restore_reproduces_every_shadow_snapshot() {
    let dir = TempDir::new("restore-as-of");
    let db = Database::open(DbConfig::new(&dir)).unwrap();
    db.create_table("t", schema(), TableKind::Immortal).unwrap();

    // Scripted history: each step is one committed transaction.
    let mut history = History::default();
    #[derive(Clone)]
    enum Op {
        Ins(i32, i64),
        Upd(i32, i64),
        Del(i32),
    }
    use Op::*;
    let script: Vec<Vec<Op>> = vec![
        vec![Ins(1, 10), Ins(2, 20), Ins(3, 30)],
        vec![Upd(2, 21), Ins(4, 40)],
        vec![Del(1), Upd(3, 33)],
        vec![Ins(1, 11), Del(4), Upd(2, 22)],
        vec![Del(2), Del(3)],
    ];
    for step in &script {
        let mut txn = db.begin(Isolation::Serializable);
        let mut left = Vec::new();
        for op in step {
            match op {
                Ins(id, v) => {
                    db.insert_row(&mut txn, "t", row(*id, *v)).unwrap();
                    left.push((*id, Some(row(*id, *v))));
                }
                Upd(id, v) => {
                    db.update_row(&mut txn, "t", row(*id, *v)).unwrap();
                    left.push((*id, Some(row(*id, *v))));
                }
                Del(id) => {
                    db.delete_row(&mut txn, "t", &Value::Int(*id)).unwrap();
                    left.push((*id, None));
                }
            }
        }
        let ts = db.commit(&mut txn).unwrap();
        for (id, row) in left {
            history.record(ts, id, row);
        }
    }

    // Restore to every commit in turn (newest to oldest exercises both
    // directions of the diff: re-inserts, un-deletes, value reverts).
    for ts in history.commits().iter().rev() {
        let (_changed, effective) = db.restore_table_as_of("t", *ts).unwrap();
        assert_eq!(effective, *ts, "timestamp was clamped unexpectedly");
        history
            .check_scan(*ts, |_| true, &scan(&db))
            .unwrap_or_else(|e| panic!("restore to {ts:?}: {e}"));
    }

    // Restoring to the current horizon is a no-op.
    let (changed, _) = db.restore_table_as_of("t", Timestamp::MAX).unwrap();
    assert_eq!(changed, 0, "idempotent restore still changed rows");

    // History preservation: the state right before the first restore
    // (i.e. after the last scripted commit) is still readable AS OF then.
    let last = *history.commits().last().unwrap();
    let mut txn = db.begin_as_of_ts(last);
    let seen = db.scan_rows(&mut txn, "t").unwrap();
    db.commit(&mut txn).unwrap();
    history
        .check_scan(last, |_| true, &seen)
        .expect("restore rewrote history");
}

#[test]
fn restore_error_paths_and_sql_surface() {
    let dir = TempDir::new("restore-as-of-sql");
    let db = Database::open(DbConfig::new(&dir)).unwrap();
    db.create_table("t", schema(), TableKind::Immortal).unwrap();
    db.create_table("plain", schema(), TableKind::Conventional)
        .unwrap();

    // Conventional tables have no history to restore from.
    assert!(db.restore_table_as_of("plain", Timestamp::MAX).is_err());
    assert!(db.restore_table_as_of("missing", Timestamp::MAX).is_err());

    // SQL surface: seed, mutate, restore via the statement.
    let mut session = Session::new(&db);
    session.execute("INSERT INTO t VALUES (1, 100)").unwrap();
    let good_ms = {
        // The tick boundary: everything committed so far is within it.
        session.execute("INSERT INTO t VALUES (2, 200)").unwrap();
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_millis() as u64
    };
    // Separate tick so the damage is not inside the restore target.
    std::thread::sleep(std::time::Duration::from_millis(50));
    session.execute("DELETE FROM t WHERE id = 1").unwrap();
    session.execute("UPDATE t SET v = 0 WHERE id = 2").unwrap();

    // Inside an explicit transaction the statement must be refused.
    session.execute("BEGIN TRAN").unwrap();
    assert!(session
        .execute(&format!("RESTORE TABLE t AS OF ms({good_ms})"))
        .is_err());
    session.execute("ROLLBACK").unwrap();

    let res = session
        .execute(&format!("RESTORE TABLE t AS OF ms({good_ms})"))
        .unwrap();
    assert!(res.affected > 0);
    assert_eq!(
        scan(&db),
        [row(1, 100), row(2, 200)],
        "SQL restore missed the pre-damage state"
    );
}

/// `RESTORE TABLE` undoes the change since its instant `WRITE_CHUNK` keys
/// at a time. On a table several chunks wide, every restore must
/// reproduce the state at its instant and report exactly the keys it
/// changed.
fn restore_over_chunks(tag: &str) {
    let dir = TempDir::new(tag);
    let db = Database::open(DbConfig::new(&dir)).unwrap();
    db.create_table("t", schema(), TableKind::Immortal).unwrap();
    let keys = 3 * WRITE_CHUNK as i32 + 21;
    let mut history = History::default();
    // Each step is one transaction: `Some(v)` writes the key, `None`
    // deletes it.
    let steps: Vec<Vec<(i32, Option<i64>)>> = vec![
        (0..keys).map(|k| (k, Some(k as i64))).collect(),
        (0..keys)
            .step_by(2)
            .map(|k| (k, Some(-(k as i64))))
            .collect(),
        (0..keys).step_by(3).map(|k| (k, None)).collect(),
        (0..keys + 60)
            .filter(|k| k % 5 == 0 || *k >= keys)
            .map(|k| (k, Some(1_000 + k as i64)))
            .collect(),
    ];
    for step in &steps {
        let mut txn = db.begin(Isolation::Serializable);
        let live = history.state_at(Timestamp::MAX);
        for &(k, v) in step {
            match v {
                Some(v) if live.contains_key(&k) => db.update_row(&mut txn, "t", row(k, v)),
                Some(v) => db.insert_row(&mut txn, "t", row(k, v)),
                None => db.delete_row(&mut txn, "t", &Value::Int(k)),
            }
            .unwrap();
        }
        let ts = db.commit(&mut txn).unwrap();
        for &(k, v) in step {
            history.record(ts, k, v.map(|v| row(k, v)));
        }
    }
    let by_key = |rows: Vec<Vec<Value>>| -> BTreeMap<Value, Vec<Value>> {
        rows.into_iter().map(|r| (r[0].clone(), r)).collect()
    };
    for ts in history.commits().iter().rev() {
        let before = by_key(scan(&db));
        let (changed, _) = db.restore_table_as_of("t", *ts).unwrap();
        let after = scan(&db);
        history
            .check_scan(*ts, |_| true, &after)
            .unwrap_or_else(|e| panic!("{tag}: restore to {ts:?}: {e}"));
        let after = by_key(after);
        let keys: BTreeSet<&Value> = before.keys().chain(after.keys()).collect();
        let expect = keys.iter().filter(|k| before.get(k) != after.get(k));
        assert_eq!(
            changed,
            expect.count(),
            "{tag}: rows changed restoring to {ts:?}"
        );
    }
}

#[test]
fn restore_spans_many_chunks_on_the_chain_index() {
    restore_over_chunks("restore-chunks-chain");
}
