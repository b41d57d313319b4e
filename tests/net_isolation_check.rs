//! The isolation check of `tests/isolation_check.rs`, run through the wire
//! path: 8 concurrent TCP clients drive a randomized read/write workload
//! against one `immortaldb-net` server, logging what each transaction
//! received over the wire together with the begin-snapshot and commit
//! timestamps the protocol returns natively. The checks are the same:
//!
//! 1. **Version chains** — per key, the engine's version chain must be
//!    exactly the logged committed writes ordered by commit timestamp.
//! 2. **Snapshot isolation** — the log replays through the sentinel's
//!    rule engine: every wire read saw the transaction's own latest write
//!    or the newest committed value at or below its snapshot, and no
//!    foreign committed write to a key a transaction wrote landed strictly
//!    between its snapshot and its commit.
//!
//! (The embedded check's PTT agreement needs engine transaction ids, which
//! the protocol deliberately does not expose; it stays covered there.)
//!
//! Run grouped and per-commit: the leader/follower log-force barrier,
//! now batching commits *across connections*, must stay invisible to a
//! timestamp checker.

use std::sync::{Arc, Mutex};

use immortaldb::{Database, DbConfig, Durability, GroupCommitConfig, Isolation, Timestamp, Value};
use immortaldb_chaos::{replay, Access, Mismatch, TempDir, TxnLog};
use immortaldb_net::{Client, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TABLE: &str = "acct";
const KEYS: i32 = 16;
const CLIENTS: u64 = 8;
const COMMITS_PER_CLIENT: usize = 25;

fn check_one(seed: u64, grouped: bool) -> Result<(), Mismatch> {
    let dir = TempDir::new("net-iso");
    let db = Arc::new(
        Database::open(
            DbConfig::new(&dir)
                .durability(Durability::Fsync)
                .group_commit(GroupCommitConfig { enabled: grouped }),
        )
        .unwrap(),
    );
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig::new("127.0.0.1:0").workers(CLIENTS as usize),
    )
    .unwrap();
    let addr = server.local_addr();

    // Set up and seed every key through the wire, then free the worker.
    let seed_log = {
        let mut admin = Client::connect(addr).unwrap();
        admin
            .query(&format!(
                "CREATE IMMORTAL TABLE {TABLE} (id INT PRIMARY KEY, v BIGINT)"
            ))
            .unwrap();
        admin.begin(Isolation::Serializable).unwrap();
        for k in 0..KEYS {
            admin
                .query(&format!("INSERT INTO {TABLE} VALUES ({k}, 0)"))
                .unwrap();
        }
        TxnLog {
            tid: CLIENTS,
            session: 0,
            snapshot: Timestamp::ZERO,
            commit: admin.commit().unwrap(),
            ops: (0..KEYS)
                .map(|k| Access::Write(k, Value::BigInt(0)))
                .collect(),
        }
    };

    let logs: Mutex<Vec<TxnLog>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let logs = &logs;
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1009).wrapping_add(t));
                let mut next_val: i64 = 0;
                let mut committed = 0;
                let mut attempts = 0;
                while committed < COMMITS_PER_CLIENT {
                    attempts += 1;
                    assert!(
                        attempts < COMMITS_PER_CLIENT * 100,
                        "client {t} cannot make progress"
                    );
                    c.begin(Isolation::Snapshot).unwrap();
                    let mut ops = Vec::new();
                    let done = (0..rng.gen_range(2..5)).try_for_each(|_| {
                        let k = rng.gen_range(0..KEYS);
                        if rng.gen_range(0..100) < 60 {
                            let resp = c.query(&format!("SELECT v FROM {TABLE} WHERE id = {k}"))?;
                            ops.push(Access::Read(k, resp.rows.first().map(|r| r[0].clone())));
                        } else {
                            next_val += 1;
                            let v = t as i64 * 1_000_000 + next_val;
                            c.query(&format!("UPDATE {TABLE} SET v = {v} WHERE id = {k}"))?;
                            ops.push(Access::Write(k, Value::BigInt(v)));
                        }
                        Ok::<_, immortaldb::Error>(())
                    });
                    match done {
                        Ok(()) => {}
                        Err(e) if e.is_transient() => {
                            // A transient failure dooms the transaction;
                            // the server already rolled it back (ERROR
                            // frames carry txn_open=false) but be
                            // defensive.
                            if c.in_transaction() {
                                c.rollback().unwrap();
                            }
                            continue;
                        }
                        Err(e) => panic!("operation failed: {e}"),
                    }
                    // The BEGIN left with the first statement.
                    let snapshot = c.snapshot().expect("the BEGIN was answered");
                    match c.commit() {
                        Ok(commit) => {
                            logs.lock().unwrap().push(TxnLog {
                                tid: t,
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
            });
        }
    });
    let history = replay(&seed_log, &logs.into_inner().unwrap())?;

    // The engine's version chains, read directly (the server is idle now).
    for k in 0..KEYS {
        history.check_history(k, &db.history_rows(TABLE, &Value::Int(k)).unwrap())?;
    }
    server.shutdown().unwrap();
    Ok(())
}

#[test]
fn wire_isolation_checker_group_commit_enabled() {
    for seed in [17u64, 29] {
        check_one(seed, true).unwrap_or_else(|e| panic!("seed {seed} (grouped): {e}"));
    }
}

#[test]
fn wire_isolation_checker_per_commit_fsync() {
    check_one(41, false).unwrap_or_else(|e| panic!("seed 41 (per-commit): {e}"));
}
