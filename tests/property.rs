//! Property-based tests: the engine against the commit history.
//!
//! A `History` records every committed `(timestamp, key, row-or-deleted)`;
//! after replaying a random operation sequence, every AS OF point query
//! and full scan on the engine must match it at every captured instant —
//! across time splits, key splits, rollbacks and checkpoints.

// The proptest shim's `ProptestConfig` happens to have exactly the fields
// set below, making `..default()` redundant offline — but it is required
// against the real crate.
#![allow(clippy::needless_update)]

use std::sync::Arc;

use proptest::prelude::*;

use immortaldb::{Database, DbConfig, Isolation, SimClock, Timestamp, Value};
use immortaldb_chaos::{History, TempDir};

#[derive(Debug, Clone)]
enum Action {
    /// Write `value` to `key` (insert or update as appropriate) and
    /// commit.
    Put { key: i32, value: i32 },
    /// Delete `key` if present, commit.
    Delete { key: i32 },
    /// Write but roll back — must leave no trace.
    AbortedPut { key: i32, value: i32 },
    /// Take a checkpoint (exercises flush-time stamping + PTT GC).
    Checkpoint,
    /// Remember this instant for later AS OF validation.
    Mark,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        6 => (0..24i32, any::<i32>()).prop_map(|(key, value)| Action::Put { key, value }),
        2 => (0..24i32).prop_map(|key| Action::Delete { key }),
        2 => (0..24i32, any::<i32>()).prop_map(|(key, value)| Action::AbortedPut { key, value }),
        1 => Just(Action::Checkpoint),
        2 => Just(Action::Mark),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    #[test]
    fn engine_matches_model_at_every_marked_instant(
        actions in proptest::collection::vec(action_strategy(), 30..120),
        seed in any::<u32>(),
    ) {
        let dir = TempDir::new(&format!("prop-{seed}"));
        let clock = Arc::new(SimClock::new(30_000_000));
        let db = Database::open(
            DbConfig::new(&dir).clock(Arc::clone(&clock) as Arc<dyn immortaldb::Clock>),
        ).unwrap();
        {
            let mut s = immortaldb::Session::new(&db);
            s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)").unwrap();
        }

        let mut history = History::default();
        let mut marks: Vec<Timestamp> = Vec::new();
        for action in &actions {
            let exists = |h: &History, key: &i32| h.row_at(*key, Timestamp::MAX).is_some();
            match action {
                Action::Put { key, value } => {
                    let mut txn = db.begin(Isolation::Serializable);
                    let row = vec![Value::Int(*key), Value::Int(*value)];
                    if exists(&history, key) {
                        db.update_row(&mut txn, "t", row.clone()).unwrap();
                    } else {
                        db.insert_row(&mut txn, "t", row.clone()).unwrap();
                    }
                    history.record(db.commit(&mut txn).unwrap(), *key, Some(row));
                    clock.advance(20);
                }
                Action::Delete { key } => {
                    if exists(&history, key) {
                        let mut txn = db.begin(Isolation::Serializable);
                        db.delete_row(&mut txn, "t", &Value::Int(*key)).unwrap();
                        history.record(db.commit(&mut txn).unwrap(), *key, None);
                        clock.advance(20);
                    }
                }
                Action::AbortedPut { key, value } => {
                    let mut txn = db.begin(Isolation::Serializable);
                    let row = vec![Value::Int(*key), Value::Int(*value)];
                    if exists(&history, key) {
                        db.update_row(&mut txn, "t", row).unwrap();
                    } else {
                        db.insert_row(&mut txn, "t", row).unwrap();
                    }
                    db.rollback(&mut txn).unwrap();
                }
                Action::Checkpoint => {
                    db.checkpoint().unwrap();
                }
                Action::Mark => marks.push(db.visible_horizon()),
            }
        }
        marks.push(db.visible_horizon());

        // Validate every mark: point queries + scans.
        for ts in marks {
            let mut txn = db.begin_as_of_ts(ts);
            for key in 0..24i32 {
                let row = db.get_row(&mut txn, "t", &Value::Int(key)).unwrap();
                let checked = history.check_point(key, ts, row.as_deref());
                prop_assert!(checked.is_ok(), "{:?}", checked);
            }
            let rows = db.scan_rows(&mut txn, "t").unwrap();
            let checked = history.check_scan(ts, |_| true, &rows);
            prop_assert!(checked.is_ok(), "{:?}", checked);
            db.commit(&mut txn).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Row codec roundtrip over arbitrary typed values.
    #[test]
    fn row_codec_roundtrip(
        a in any::<i16>(),
        b in any::<i32>(),
        c in any::<i64>(),
        s in "[a-zA-Z0-9 ]{0,30}",
    ) {
        use immortaldb::{ColType, Column, Schema};
        let schema = Schema::new(vec![
            Column { name: "a".into(), ctype: ColType::SmallInt },
            Column { name: "b".into(), ctype: ColType::Int },
            Column { name: "c".into(), ctype: ColType::BigInt },
            Column { name: "s".into(), ctype: ColType::Varchar(30) },
        ], 0).unwrap();
        let row = vec![
            Value::SmallInt(a),
            Value::Int(b),
            Value::BigInt(c),
            Value::Varchar(s),
        ];
        let enc = schema.encode_row(&row);
        prop_assert_eq!(schema.decode_row(&enc).unwrap(), row);
    }

    /// Key encoding is strictly order-preserving per type.
    #[test]
    fn key_encoding_preserves_order(a in any::<i64>(), b in any::<i64>()) {
        use immortaldb::row::encode_key;
        let ka = encode_key(&Value::BigInt(a)).unwrap();
        let kb = encode_key(&Value::BigInt(b)).unwrap();
        prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
    }
}
