//! Timestamp-based isolation checking (after arXiv:2504.01477): run a
//! randomized concurrent workload, log every transaction's reads and
//! writes together with its begin snapshot and commit timestamp, then
//! check the run afterwards:
//!
//! 1. **Version chains** — per key, the engine's version chain must be
//!    exactly the logged committed writes (one `History`), timestamps
//!    strictly descending.
//! 2. **Snapshot isolation** — the log replays through the sentinel's own
//!    rule engine (`immortaldb_chaos::replay`): every read returns the
//!    transaction's own latest write to the key, or else the committed
//!    value with the greatest commit timestamp at or below its snapshot
//!    (no dirty, no half-batch, no non-repeatable reads), and no two
//!    committed snapshot writers of a key overlap (first-committer-wins).
//! 3. **PTT agreement** — the persistent timestamp table must map every
//!    committed writer to exactly the commit timestamp it returned.
//!
//! The workload runs with group commit on (several seeds) and off: the
//! leader/follower fsync barrier must not reorder or split commit
//! visibility in any way a timestamp checker can observe.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use immortaldb::{
    Database, DbConfig, Durability, GroupCommitConfig, Isolation, Session, Timestamp, Transaction,
    Value,
};
use immortaldb_chaos::{replay, Access, Mismatch, TempDir, TxnLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TABLE: &str = "acct";
const KEYS: i32 = 16;
const THREADS: u64 = 6;
const COMMITS_PER_THREAD: usize = 40;

/// Read key `k` in `txn`: the value column it saw, logged.
fn read(db: &Database, txn: &mut Transaction, k: i32) -> immortaldb::Result<Access> {
    let row = db.get_row(txn, TABLE, &Value::Int(k))?;
    Ok(Access::Read(k, row.map(|r| r[1].clone())))
}

/// Run the workload for one seed and check it.
///
/// `readers` adds that many dedicated read-only threads running
/// concurrently with the writers: snapshot transactions doing multi-read
/// batches plus `AS OF` transactions replaying a random already-logged
/// commit timestamp. Their reads are logged like everyone else's (an
/// `AS OF` transaction is logged with the pinned timestamp as its
/// snapshot) and judged by the same snapshot-read rule. This drives the
/// optimistic read path of DESIGN.md §11 underneath the timestamp
/// checker.
fn check_one(seed: u64, grouped: bool, readers: usize) -> Result<(), Mismatch> {
    let dir = TempDir::new("iso");
    let db = Database::open(
        DbConfig::new(&dir)
            .durability(Durability::Fsync)
            .group_commit(GroupCommitConfig { enabled: grouped }),
    )
    .unwrap();
    Session::new(&db)
        .execute(&format!(
            "CREATE IMMORTAL TABLE {TABLE} (id INT PRIMARY KEY, v BIGINT)"
        ))
        .unwrap();
    // Seed every key with value 0 in one transaction; its commit acts as
    // the first committed write of each key.
    let seed_log = {
        let mut txn = db.begin(Isolation::Serializable);
        let ops = (0..KEYS)
            .map(|k| {
                let row = vec![Value::Int(k), Value::BigInt(0)];
                db.insert_row(&mut txn, TABLE, row).unwrap();
                Access::Write(k, Value::BigInt(0))
            })
            .collect();
        TxnLog {
            tid: txn.tid().0,
            session: 0,
            snapshot: Timestamp::ZERO,
            commit: db.commit(&mut txn).unwrap(),
            ops,
        }
    };

    let logs: Mutex<Vec<TxnLog>> = Mutex::new(Vec::new());
    let writers_left = AtomicU64::new(THREADS);
    let reader_reads = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let (db, logs, writers_left, reader_reads) = (&db, &logs, &writers_left, &reader_reads);
        for r in 0..readers {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7919).wrapping_add(r as u64));
                while writers_left.load(Ordering::Acquire) > 0 {
                    // A read-only snapshot transaction with a batch of
                    // point reads, logged like any writer transaction.
                    let mut txn = db.begin(Isolation::Snapshot);
                    let ops: Vec<Access> = (0..rng.gen_range(4..9))
                        .map(|_| read(db, &mut txn, rng.gen_range(0..KEYS)).unwrap())
                        .collect();
                    reader_reads.fetch_add(ops.len() as u64, Ordering::Relaxed);
                    let (tid, snapshot) = (txn.tid().0, txn.snapshot());
                    let commit = db.commit(&mut txn).unwrap();
                    logs.lock().unwrap().push(TxnLog {
                        tid,
                        session: THREADS + 1 + r as u64,
                        snapshot,
                        commit,
                        ops,
                    });

                    // An AS OF replay pinned at a random commit timestamp
                    // logged so far; the pinned timestamp plays the role
                    // of the snapshot. Every logged commit was
                    // acknowledged, so it is inside the visibility
                    // horizon and the engine never clamps the pin.
                    let as_of = {
                        let logs = logs.lock().unwrap();
                        logs[rng.gen_range(0..logs.len())].commit
                    };
                    let mut txn = db.begin_as_of_ts(as_of);
                    assert_eq!(txn.as_of(), Some(as_of), "AS OF an acknowledged commit");
                    let ops: Vec<Access> = (0..rng.gen_range(2..5))
                        .map(|_| read(db, &mut txn, rng.gen_range(0..KEYS)).unwrap())
                        .collect();
                    reader_reads.fetch_add(ops.len() as u64, Ordering::Relaxed);
                    let tid = txn.tid().0;
                    db.commit(&mut txn).unwrap();
                    logs.lock().unwrap().push(TxnLog {
                        tid,
                        session: 0,
                        snapshot: as_of,
                        commit: as_of,
                        ops,
                    });
                }
            });
        }
        for t in 0..THREADS {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1009).wrapping_add(t));
                // Monotone per thread so every write attempt carries a
                // globally unique value (thread id in the high digits).
                let mut next_val: i64 = 0;
                let mut committed = 0;
                let mut attempts = 0;
                while committed < COMMITS_PER_THREAD {
                    attempts += 1;
                    assert!(
                        attempts < COMMITS_PER_THREAD * 100,
                        "thread {t} cannot make progress"
                    );
                    let mut txn = db.begin(Isolation::Snapshot);
                    let mut ops = Vec::new();
                    let done = (0..rng.gen_range(2..5)).try_for_each(|_| {
                        let k = rng.gen_range(0..KEYS);
                        if rng.gen_range(0..100) < 60 {
                            ops.push(read(db, &mut txn, k)?);
                        } else {
                            next_val += 1;
                            let v = Value::BigInt(t as i64 * 1_000_000 + next_val);
                            db.update_row(&mut txn, TABLE, vec![Value::Int(k), v.clone()])?;
                            ops.push(Access::Write(k, v));
                        }
                        Ok::<_, immortaldb::Error>(())
                    });
                    match done {
                        Ok(()) => {}
                        Err(e) if e.is_transient() => {
                            let _ = db.rollback(&mut txn);
                            continue;
                        }
                        Err(e) => panic!("operation failed: {e}"),
                    }
                    let (tid, snapshot) = (txn.tid().0, txn.snapshot());
                    match db.commit(&mut txn) {
                        Ok(commit) => {
                            logs.lock().unwrap().push(TxnLog {
                                tid,
                                session: t + 1,
                                snapshot,
                                commit,
                                ops,
                            });
                            committed += 1;
                        }
                        Err(e) if e.is_transient() => continue,
                        Err(e) => panic!("commit failed: {e}"),
                    }
                }
                writers_left.fetch_sub(1, Ordering::Release);
            });
        }
    });
    if readers > 0 {
        assert!(
            reader_reads.load(Ordering::Relaxed) > 0,
            "concurrent readers never read"
        );
    }

    // (2) Snapshot isolation, judged by the sentinel's rules.
    let logs = logs.into_inner().unwrap();
    let history = replay(&seed_log, &logs)?;

    // (1) The engine's version chains are the committed writes.
    for k in 0..KEYS {
        history.check_history(k, &db.history_rows(TABLE, &Value::Int(k)).unwrap())?;
    }

    // (3) PTT agreement: every committed writer's PTT row carries the
    // timestamp the engine returned at commit. GC may legitimately have
    // reclaimed a fully-stamped entry, so only a present one is judged.
    let ptt: HashMap<u64, Timestamp> = db
        .ptt_entries()
        .unwrap()
        .into_iter()
        .map(|(tid, ts)| (tid.0, ts))
        .collect();
    for log in &logs {
        let wrote = log.ops.iter().any(|op| matches!(op, Access::Write(..)));
        match ptt.get(&log.tid) {
            Some(ts) if wrote && *ts != log.commit => {
                return Err(Mismatch(format!(
                    "txn {}: PTT timestamp {ts:?} != returned commit timestamp {:?}",
                    log.tid, log.commit
                )))
            }
            _ => {}
        }
    }
    Ok(())
}

#[test]
fn isolation_checker_group_commit_enabled() {
    for seed in [11u64, 22, 33] {
        check_one(seed, true, 0).unwrap_or_else(|e| panic!("seed {seed} (grouped): {e}"));
    }
}

#[test]
fn isolation_checker_per_commit_fsync() {
    for seed in [44u64, 55] {
        check_one(seed, false, 0).unwrap_or_else(|e| panic!("seed {seed} (per-commit): {e}"));
    }
}

/// Concurrent-readers mode: dedicated snapshot/AS OF reader threads race
/// the writer workload through the optimistic page-latch read path while
/// the replay audits every observation.
#[test]
fn isolation_checker_concurrent_readers() {
    for seed in [66u64, 77] {
        check_one(seed, true, 3)
            .unwrap_or_else(|e| panic!("seed {seed} (concurrent readers): {e}"));
    }
}
