//! `repl-smoke` — end-to-end replication smoke test for CI.
//!
//! Topology: one primary server, two read replicas following it over the
//! wire protocol, each serving its own read-only endpoint. Under a mixed
//! write load it asserts:
//!
//! * replica `BEGIN AS OF` reads never see a torn invariant (balance
//!   transfers conserve the total) at any horizon;
//! * writes against a replica are rejected with the typed READ_ONLY code;
//! * both replicas converge to the primary's exact state within a
//!   bounded time once writers stop;
//! * `RESTORE TABLE … AS OF` on the primary returns a table to a
//!   shadow-copied earlier state — also one wider than a restore chunk,
//!   after a chunked `UPDATE` and `DELETE` — and the restore itself
//!   replicates.
//!
//! Exits non-zero (panics) on any violation; prints `SMOKE PASS` at the
//! end so the CI log is greppable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use immortaldb::{Database, DbConfig, Durability, Value, WRITE_CHUNK};
use immortaldb_common::{Error, ErrorCode, Timestamp};
use immortaldb_net::{Client, Response, Server, ServerConfig};
use immortaldb_repl::{Replica, ReplicaConfig};

const ACCOUNTS: i64 = 8;
const BALANCE: i64 = 1_000;
const TOTAL: i64 = ACCOUNTS * BALANCE;
const WRITERS: usize = 2;
const TRANSFERS_PER_WRITER: usize = 120;
const READS_PER_REPLICA: usize = 200;

/// Order-preserving packing of a commit timestamp into one u64 so the
/// writers can share "newest commit so far" through an atomic.
fn pack(ts: Timestamp) -> u64 {
    ts.ttime * 1_000_000 + ts.sn as u64
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("repl-smoke-{}-{tag}-{nanos}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sum_of(resp: &Response) -> i64 {
    resp.rows
        .iter()
        .map(|r| match &r[1] {
            Value::BigInt(b) => *b,
            other => panic!("unexpected balance value {other:?}"),
        })
        .sum()
}

fn sorted_rows(mut resp: Response) -> Vec<Vec<Value>> {
    resp.rows
        .sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    resp.rows
}

/// Retry transient failures (lock timeouts, write conflicts) until the
/// closure succeeds.
fn with_retries(mut f: impl FnMut() -> Result<(), Error>) {
    for _ in 0..50 {
        match f() {
            Ok(()) => return,
            Err(e) if e.is_transient() || matches!(e, Error::ServerBusy { .. }) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("non-transient failure: {e}"),
        }
    }
    panic!("transfer did not succeed in 50 attempts");
}

fn main() {
    // -- primary -----------------------------------------------------------
    let primary_dir = fresh_dir("primary");
    let db = Arc::new(
        Database::open(DbConfig::new(&primary_dir).durability(Durability::Buffered)).unwrap(),
    );
    let primary =
        Server::start(Arc::clone(&db), ServerConfig::new("127.0.0.1:0").workers(6)).unwrap();
    let primary_addr = primary.local_addr().to_string();

    let mut seed = Client::connect(&primary_addr).unwrap();
    seed.query("CREATE IMMORTAL TABLE accounts (id int PRIMARY KEY, balance bigint)")
        .unwrap();
    seed.begin(immortaldb::Isolation::Serializable).unwrap();
    for id in 0..ACCOUNTS {
        seed.query(&format!("INSERT INTO accounts VALUES ({id}, {BALANCE})"))
            .unwrap();
    }
    let ts_seed = seed.commit().unwrap();
    println!(
        "seeded {ACCOUNTS} accounts at {}.{}",
        ts_seed.ttime, ts_seed.sn
    );

    // -- replicas ----------------------------------------------------------
    let mut replicas = Vec::new();
    let mut replica_addrs = Vec::new();
    for i in 0..2 {
        let r = Replica::start(
            ReplicaConfig::new(fresh_dir(&format!("replica{i}")), primary_addr.clone())
                .batch_timeout(Duration::from_secs(10)),
        )
        .unwrap();
        let srv = Server::start(
            Arc::clone(r.db()),
            ServerConfig::new("127.0.0.1:0").workers(2),
        )
        .unwrap();
        replica_addrs.push(srv.local_addr().to_string());
        replicas.push((r, srv));
    }
    println!("2 replicas bootstrapped and serving");

    // -- mixed load: writers on the primary, AS OF readers on replicas -----
    let last_commit = Arc::new(AtomicU64::new(0));
    let mut writer_handles = Vec::new();
    for w in 0..WRITERS {
        let addr = primary_addr.clone();
        let last_commit = Arc::clone(&last_commit);
        writer_handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            // Each writer transfers within its own account partition
            // (ids ≡ w mod WRITERS), so writers never deadlock against
            // each other; the conserved TOTAL is still global.
            let slots = ACCOUNTS / WRITERS as i64;
            let slot = |x: i64| WRITERS as i64 * x.rem_euclid(slots) + w as i64;
            for i in 0..TRANSFERS_PER_WRITER {
                let from = slot((i * 3) as i64);
                let to = slot((i * 3) as i64 + 1 + (i as i64 % (slots - 1)));
                let amount = 1 + (i as i64 % 7);
                with_retries(|| {
                    c.begin(immortaldb::Isolation::Serializable)?;
                    let step = (|| {
                        let a = c.query(&format!("SELECT * FROM accounts WHERE id = {from}"))?;
                        let b = c.query(&format!("SELECT * FROM accounts WHERE id = {to}"))?;
                        let (ab, bb) = (sum_of(&a), sum_of(&b));
                        c.query(&format!(
                            "UPDATE accounts SET balance = {} WHERE id = {from}",
                            ab - amount
                        ))?;
                        c.query(&format!(
                            "UPDATE accounts SET balance = {} WHERE id = {to}",
                            bb + amount
                        ))?;
                        let ts = c.commit()?;
                        last_commit.fetch_max(pack(ts), Ordering::SeqCst);
                        Ok(())
                    })();
                    if step.is_err() && c.in_transaction() {
                        let _ = c.rollback();
                    }
                    step
                });
            }
        }));
    }

    let seed_ttime = ts_seed.ttime;
    let mut reader_handles = Vec::new();
    for addr in &replica_addrs {
        let addr = addr.clone();
        reader_handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            let mut checked = 0usize;
            for _ in 0..READS_PER_REPLICA {
                c.begin_as_of_ms(now_ms()).unwrap();
                let resp = c.query("SELECT * FROM accounts").unwrap();
                let effective = c.snapshot().expect("the BEGIN was answered");
                c.commit().unwrap();
                // Before the seed commit is visible the table is empty;
                // any later horizon must show a conserved total.
                if effective.ttime >= seed_ttime {
                    assert_eq!(
                        sum_of(&resp),
                        TOTAL,
                        "isolation violation at replica horizon {}.{}",
                        effective.ttime,
                        effective.sn
                    );
                    checked += 1;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            checked
        }));
    }

    for h in writer_handles {
        h.join().unwrap();
    }
    let mut total_checked = 0usize;
    for h in reader_handles {
        total_checked += h.join().unwrap();
    }
    println!(
        "writers done ({} transfers), {total_checked} replica AS OF reads checked, 0 violations",
        WRITERS * TRANSFERS_PER_WRITER
    );
    assert!(
        total_checked > 0,
        "no replica read ever saw the seed commit"
    );

    // -- bounded lag: both replicas catch the last commit ------------------
    let last = last_commit.load(Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(30);
    for (i, (r, _)) in replicas.iter().enumerate() {
        while pack(r.horizon()) < last {
            assert!(
                Instant::now() < deadline,
                "replica {i} lag exceeded 30s (horizon {:?} < packed {last})",
                r.horizon()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    println!("both replicas converged past the last commit");

    // -- replicas serve the primary's exact state --------------------------
    let mut pc = Client::connect(&primary_addr).unwrap();
    let primary_rows = sorted_rows(pc.query("SELECT * FROM accounts").unwrap());
    for addr in &replica_addrs {
        let mut c = Client::connect(addr).unwrap();
        c.begin_as_of_ms(now_ms()).unwrap();
        let rows = sorted_rows(c.query("SELECT * FROM accounts").unwrap());
        c.commit().unwrap();
        assert_eq!(rows, primary_rows, "replica content diverged from primary");
    }
    println!("replica contents match the primary row-for-row");

    // -- writes against a replica are rejected with READ_ONLY --------------
    let mut rc = Client::connect(&replica_addrs[0]).unwrap();
    match rc.query("INSERT INTO accounts VALUES (999, 1)") {
        Err(Error::Remote { code, .. }) => assert_eq!(
            code,
            ErrorCode::ReadOnly,
            "replica write rejected with wrong code"
        ),
        other => panic!("replica write was not rejected: {other:?}"),
    }
    println!("replica write rejected with READ_ONLY over the wire");

    // -- RESTORE TABLE ... AS OF round trip --------------------------------
    // `wide` holds more rows than one restore chunk: its restore writes
    // several chunks between the walks of its window.
    let wide_rows = 3 * WRITE_CHUNK + 10;
    pc.query("CREATE IMMORTAL TABLE wide (id int PRIMARY KEY, v bigint)")
        .unwrap();
    let values: Vec<String> = (0..wide_rows).map(|i| format!("({i}, {i})")).collect();
    pc.query(&format!("INSERT INTO wide VALUES {}", values.join(", ")))
        .unwrap();
    let shadow = [
        primary_rows, // state at `last` (writers are done)
        sorted_rows(pc.query("SELECT * FROM wide").unwrap()),
    ];
    let restore_ms = now_ms();
    std::thread::sleep(Duration::from_millis(50)); // clear the 20ms tick
    pc.query("UPDATE accounts SET balance = 0 WHERE id = 0")
        .unwrap();
    pc.query("DELETE FROM accounts WHERE id = 1").unwrap();
    pc.query("INSERT INTO accounts VALUES (999, 123)").unwrap();
    pc.query("UPDATE wide SET v = -1").unwrap();
    pc.query(&format!("DELETE FROM wide WHERE id >= {}", wide_rows / 2))
        .unwrap();
    for (table, shadow) in ["accounts", "wide"].iter().zip(&shadow) {
        let res = pc
            .query(&format!("RESTORE TABLE {table} AS OF ms({restore_ms})"))
            .unwrap();
        println!("restore: {}", res.message);
        assert!(res.affected > 0, "restore of {table} changed nothing");
        if *table == "wide" {
            assert_eq!(
                res.affected, wide_rows as u64,
                "restore of wide missed rows"
            );
        }
        let restored = sorted_rows(pc.query(&format!("SELECT * FROM {table}")).unwrap());
        assert_eq!(
            &restored, shadow,
            "restore did not reproduce the shadow state of {table}"
        );
    }
    println!("RESTORE TABLE reproduced the shadow-copied state of both tables");

    // The restore is ordinary logged work: replicas must converge to it.
    let deadline = Instant::now() + Duration::from_secs(30);
    'replicas: for addr in &replica_addrs {
        let mut c = Client::connect(addr).unwrap();
        loop {
            c.begin_as_of_ms(now_ms()).unwrap();
            let rows = [
                sorted_rows(c.query("SELECT * FROM accounts").unwrap()),
                sorted_rows(c.query("SELECT * FROM wide").unwrap()),
            ];
            c.commit().unwrap();
            if rows == shadow {
                continue 'replicas;
            }
            assert!(
                Instant::now() < deadline,
                "replica did not converge to the restored state"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    println!("restore replicated to both followers");

    // -- teardown ----------------------------------------------------------
    for (r, srv) in replicas {
        srv.shutdown().unwrap();
        r.stop();
    }
    primary.shutdown().unwrap();
    println!("SMOKE PASS");
}
