//! Workspace integration: concurrent transactions against one engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use immortaldb::{Database, DbConfig, Durability, Isolation, Session, Value};
use immortaldb_chaos::TempDir;

/// A fresh engine in its own directory (which outlives it: declare the
/// pair as `let (_dir, db)`).
fn open(name: &str, durability: Durability) -> (TempDir, Arc<Database>) {
    let dir = TempDir::new(&format!("conc-{name}"));
    let db = Database::open(DbConfig::new(&dir).durability(durability)).unwrap();
    (dir, Arc::new(db))
}

#[test]
fn disjoint_writers_proceed_in_parallel() {
    let (_dir, db) = open("disjoint", Durability::Buffered);
    {
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
    }
    let threads = 4;
    let per_thread = 200;
    let handles: Vec<_> = (0..threads)
        .map(|tno| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let id = tno * per_thread + i;
                    let mut txn = db.begin(Isolation::Serializable);
                    db.insert_row(&mut txn, "t", vec![Value::Int(id), Value::Int(tno)])
                        .unwrap();
                    db.commit(&mut txn).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut s = Session::new(&db);
    let res = s.execute("SELECT * FROM t").unwrap();
    assert_eq!(res.rows.len(), (threads * per_thread) as usize);
}

#[test]
fn contended_counter_under_serializable_locking() {
    let (_dir, db) = open("counter", Durability::Buffered);
    {
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE c (id INT PRIMARY KEY, n BIGINT)")
            .unwrap();
        s.execute("INSERT INTO c VALUES (1, 0)").unwrap();
    }
    let threads = 4;
    let per_thread = 50;
    let retries = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let db = Arc::clone(&db);
            let retries = Arc::clone(&retries);
            std::thread::spawn(move || {
                for _ in 0..per_thread {
                    loop {
                        let mut txn = db.begin(Isolation::Serializable);
                        let attempt = (|| -> immortaldb::Result<()> {
                            let row = db
                                .get_row(&mut txn, "c", &Value::Int(1))?
                                .expect("counter row");
                            let n = row[1].as_i64().unwrap();
                            db.update_row(
                                &mut txn,
                                "c",
                                vec![Value::Int(1), Value::BigInt(n + 1)],
                            )?;
                            Ok(())
                        })();
                        match attempt {
                            Ok(()) => {
                                db.commit(&mut txn).unwrap();
                                break;
                            }
                            Err(e) if e.is_transient() => {
                                let _ = db.rollback(&mut txn);
                                retries.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut s = Session::new(&db);
    let res = s.execute("SELECT n FROM c WHERE id = 1").unwrap();
    assert_eq!(
        res.rows[0][0],
        Value::BigInt((threads * per_thread) as i64),
        "no lost updates (retries: {})",
        retries.load(Ordering::Relaxed)
    );
    // Every increment is a distinct version in history.
    let h = db.history_rows("c", &Value::Int(1)).unwrap();
    assert_eq!(h.len(), 1 + (threads * per_thread) as usize);
}

#[test]
fn snapshot_writers_on_same_key_obey_first_committer_wins() {
    let (_dir, db) = open("fcwthreads", Durability::Buffered);
    {
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(25));
    let commits = Arc::new(AtomicU64::new(0));
    let conflicts = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..4)
        .map(|tno| {
            let db = Arc::clone(&db);
            let commits = Arc::clone(&commits);
            let conflicts = Arc::clone(&conflicts);
            std::thread::spawn(move || {
                for i in 0..25 {
                    let mut txn = db.begin(Isolation::Snapshot);
                    match db.update_row(
                        &mut txn,
                        "t",
                        vec![Value::Int(1), Value::Int(tno * 100 + i)],
                    ) {
                        Ok(()) => {
                            db.commit(&mut txn).unwrap();
                            commits.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_transient() => {
                            let _ = db.rollback(&mut txn);
                            conflicts.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let n_commits = commits.load(Ordering::Relaxed);
    assert!(n_commits > 0);
    // History length equals insert + exactly the committed updates: no
    // aborted write left a version behind.
    let h = db.history_rows("t", &Value::Int(1)).unwrap();
    assert_eq!(h.len() as u64, 1 + n_commits);
}

#[test]
fn readers_never_block_under_snapshot_isolation() {
    let (_dir, db) = open("readnoblock", Durability::Buffered);
    {
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        for i in 0..50 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, 0)"))
                .unwrap();
        }
    }
    let stop = Arc::new(AtomicU64::new(0));
    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut round = 1;
            while stop.load(Ordering::Relaxed) == 0 {
                for i in 0..50 {
                    let mut txn = db.begin(Isolation::Serializable);
                    db.update_row(&mut txn, "t", vec![Value::Int(i), Value::Int(round)])
                        .unwrap();
                    db.commit(&mut txn).unwrap();
                }
                round += 1;
            }
        })
    };
    // Concurrent snapshot scans always see a transaction-consistent state:
    // within one scan, all values come from the same round or its
    // immediate boundary (monotone prefix: v[i] >= v[i+1] is NOT
    // guaranteed row-wise, but min/max spread is at most 1 round because
    // the writer commits row-by-row in order).
    for _ in 0..30 {
        let mut txn = db.begin(Isolation::Snapshot);
        let rows = db.scan_rows(&mut txn, "t").unwrap();
        db.commit(&mut txn).unwrap();
        assert_eq!(rows.len(), 50);
        let vals: Vec<i64> = rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        let (min, max) = (vals.iter().min().unwrap(), vals.iter().max().unwrap());
        assert!(max - min <= 1, "snapshot spread {min}..{max}");
        // Prefix property: once a value drops to `min`, it never goes back
        // up within the scan (writer updates keys in ascending order).
        let first_min = vals.iter().position(|v| v == min).unwrap();
        assert!(
            vals[first_min..].iter().all(|v| v == min),
            "snapshot must be a clean prefix cut: {vals:?}"
        );
    }
    stop.store(1, Ordering::Relaxed);
    writer.join().unwrap();
}

#[test]
fn as_of_readers_never_observe_half_a_batch() {
    // Writers update a PAIR of rows with one value per transaction; a
    // reader pinned at the visibility horizon must see both halves of
    // every pair equal — group commit must never expose a transaction's
    // first row without its second, no matter where the batch fsync cuts.
    // Fsync durability puts the group-commit barrier on the commit path
    // (buffered commits never batch).
    let (_dir, db) = open("pairbatch", Durability::Fsync);
    const PAIRS: i32 = 8;
    {
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE p (id INT PRIMARY KEY, v BIGINT)")
            .unwrap();
        for k in 0..2 * PAIRS {
            s.execute(&format!("INSERT INTO p VALUES ({k}, 0)"))
                .unwrap();
        }
    }
    let stop = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut val: i64 = 1;
                while stop.load(Ordering::Relaxed) == 0 {
                    // Each writer owns two pairs; keys always locked in
                    // ascending order, so no deadlocks.
                    let j = 2 * w + (val % 2) as i32;
                    let v = (w as i64) * 1_000_000 + val;
                    let mut txn = db.begin(Isolation::Serializable);
                    db.update_row(&mut txn, "p", vec![Value::Int(2 * j), Value::BigInt(v)])
                        .unwrap();
                    db.update_row(&mut txn, "p", vec![Value::Int(2 * j + 1), Value::BigInt(v)])
                        .unwrap();
                    db.commit(&mut txn).unwrap();
                    val += 1;
                }
            })
        })
        .collect();
    for _ in 0..300 {
        let mut txn = db.begin_as_of_ts(db.visible_horizon());
        for j in 0..PAIRS {
            let a = db.get_row(&mut txn, "p", &Value::Int(2 * j)).unwrap();
            let b = db.get_row(&mut txn, "p", &Value::Int(2 * j + 1)).unwrap();
            // Compare the value column only — the id columns differ by
            // construction.
            let va = a.expect("pair row present")[1].clone();
            let vb = b.expect("pair row present")[1].clone();
            assert_eq!(
                va,
                vb,
                "pair {j} torn at horizon {:?}",
                txn.as_of().unwrap()
            );
        }
        db.commit(&mut txn).unwrap();
    }
    stop.store(1, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
}

#[test]
fn version_chains_stay_strictly_descending_under_load() {
    // Property over the whole post-run state: after 8 threads hammer a
    // handful of keys through the group-commit pipeline, every version
    // chain's commit timestamps are strictly descending and fully
    // committed (no TID-marked residue, no duplicate or reordered
    // stamps).
    let (_dir, db) = open("descending", Durability::Fsync);
    const KEYS: i32 = 6;
    {
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v BIGINT)")
            .unwrap();
        for k in 0..KEYS {
            s.execute(&format!("INSERT INTO t VALUES ({k}, 0)"))
                .unwrap();
        }
    }
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let mut committed = 0u64;
                let mut n = 0u64;
                while committed < 25 {
                    n += 1;
                    assert!(n < 10_000, "thread {t} cannot make progress");
                    let k = ((t + n) % KEYS as u64) as i32;
                    let mut txn = db.begin(Isolation::Snapshot);
                    let v = (t as i64) * 1_000_000 + n as i64;
                    match db.update_row(&mut txn, "t", vec![Value::Int(k), Value::BigInt(v)]) {
                        Ok(()) => {}
                        Err(e) if e.is_transient() => {
                            let _ = db.rollback(&mut txn);
                            continue;
                        }
                        Err(e) => panic!("update: {e}"),
                    }
                    match db.commit(&mut txn) {
                        Ok(_) => committed += 1,
                        Err(e) if e.is_transient() => {}
                        Err(e) => panic!("commit: {e}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut total_versions = 0usize;
    for k in 0..KEYS {
        let h = db.history_rows("t", &Value::Int(k)).unwrap();
        total_versions += h.len();
        let ts: Vec<_> = h
            .iter()
            .map(|(ts, _)| ts.expect("uncommitted version after all writers joined"))
            .collect();
        for w in ts.windows(2) {
            assert!(
                w[0] > w[1],
                "key {k}: version chain not strictly descending: {ts:?}"
            );
        }
    }
    // 8 threads x 25 commits, one version each, plus the seed inserts.
    assert_eq!(total_versions, (8 * 25 + KEYS) as usize);
}

#[test]
fn rollbacks_interleaved_with_pending_batches_do_not_wedge_commit() {
    // Aborting transactions append WAL records between the commit records
    // of a forming batch; their rollback must neither join nor stall the
    // barrier, and committers must keep draining.
    let (_dir, db) = open("abortmix", Durability::Fsync);
    {
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
    }
    let handles: Vec<_> = (0..6u64)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..40u64 {
                    let id = (t * 1_000 + i) as i32;
                    let mut txn = db.begin(Isolation::Serializable);
                    db.insert_row(&mut txn, "t", vec![Value::Int(id), Value::Int(t as i32)])
                        .unwrap();
                    if (t + i) % 3 == 0 {
                        db.rollback(&mut txn).unwrap();
                    } else {
                        db.commit(&mut txn).unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // A committed row is durable and visible; a rolled-back one is gone.
    let mut txn = db.begin(Isolation::Snapshot);
    let rows = db.scan_rows(&mut txn, "t").unwrap();
    db.commit(&mut txn).unwrap();
    let expect: usize = (0..6u64)
        .map(|t| (0..40u64).filter(|i| (t + i) % 3 != 0).count())
        .sum();
    assert_eq!(rows.len(), expect);
    // And the barrier still works for a fresh committer.
    let mut txn = db.begin(Isolation::Serializable);
    db.insert_row(&mut txn, "t", vec![Value::Int(99_999), Value::Int(7)])
        .unwrap();
    db.commit(&mut txn).unwrap();
}
