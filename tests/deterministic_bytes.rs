//! The same workload writes the same bytes.
//!
//! One single-threaded workload under a `SimClock` — versioned writes,
//! deletes, re-inserts and rollbacks on an immortal table, in-place
//! writes on a conventional one beside it, two history compactions,
//! checkpoints, a `VACUUM` and a `RESTORE TABLE … AS OF` — runs in two
//! child processes (this test binary, re-invoked), so every hash map in
//! the engine is seeded differently in each. The two runs must leave
//! `wal.log` and `data.idb` identical byte for byte, and each file must
//! hash to the digest recorded here: a change that alters what the
//! engine writes for this workload says so by updating them.

use std::path::Path;
use std::process::Command;
use std::sync::Arc;

use immortaldb::{Clock, Database, DbConfig, Isolation, Session, SimClock, Value};
use immortaldb_chaos::TempDir;
use immortaldb_check::hash_value;

/// FNV-1a digests ([`hash_value`]) of the files the workload leaves.
const WAL_DIGEST: u64 = 0x5c0a_0532_8526_ba1b;
const DATA_DIGEST: u64 = 0x45cb_751e_1cf8_4b00;

/// Set in a child process: the directory its workload runs in.
const CHILD_DIR: &str = "IMMORTALDB_DETERMINISTIC_BYTES_DIR";
const TEST_NAME: &str = "the_same_workload_writes_the_same_bytes";

const KEYS: usize = 400;
const ROUNDS: usize = 60;
const TXN_ROWS: usize = 25;
const CONV_ROWS: i32 = 50;

/// A fixed xorshift stream: the workload's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn obj_row(k: usize, v: i64) -> Vec<Value> {
    vec![
        Value::Int(k as i32),
        Value::Int(v as i32),
        Value::Int((v * 7 + k as i64) as i32),
        Value::Varchar(format!("v{v}-k{k}")),
    ]
}

fn conv_row(k: i32, v: i64) -> Vec<Value> {
    vec![Value::Int(k), Value::BigInt(v)]
}

fn run_workload(dir: &Path) {
    let clock = Arc::new(SimClock::new(1_700_000_000_000));
    let db = Database::open(DbConfig::new(dir).clock(clock.clone())).unwrap();
    let mut session = Session::new(&db);
    session
        .execute("CREATE IMMORTAL TABLE obj (Oid INT PRIMARY KEY, X INT, Y INT, Note VARCHAR(40))")
        .unwrap();
    session
        .execute("CREATE TABLE conv (Id INT PRIMARY KEY, V BIGINT)")
        .unwrap();

    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut live = vec![false; KEYS];
    let mut conv_live = vec![false; CONV_ROWS as usize];
    let mut restore_to = None;
    let mut txns = 0u64;
    for round in 0..ROUNDS {
        let mut order: Vec<usize> = (0..KEYS).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for chunk in order.chunks(TXN_ROWS) {
            txns += 1;
            let mut txn = db.begin(Isolation::Serializable);
            let mut after = live.clone();
            for &k in chunk {
                let v = (round * KEYS + k) as i64;
                if !after[k] {
                    db.insert_row(&mut txn, "obj", obj_row(k, v)).unwrap();
                    after[k] = true;
                } else if rng.below(10) == 0 {
                    db.delete_row(&mut txn, "obj", &Value::Int(k as i32))
                        .unwrap();
                    after[k] = false;
                } else {
                    db.update_row(&mut txn, "obj", obj_row(k, v)).unwrap();
                }
            }
            let c = rng.below(CONV_ROWS as usize);
            let mut conv_after = conv_live.clone();
            if !conv_after[c] {
                db.insert_row(&mut txn, "conv", conv_row(c as i32, txns as i64))
                    .unwrap();
                conv_after[c] = true;
            } else if rng.below(4) == 0 {
                db.delete_row(&mut txn, "conv", &Value::Int(c as i32))
                    .unwrap();
                conv_after[c] = false;
            } else {
                db.update_row(&mut txn, "conv", conv_row(c as i32, txns as i64))
                    .unwrap();
            }
            if txns.is_multiple_of(13) {
                db.rollback(&mut txn).unwrap();
            } else {
                db.commit(&mut txn).unwrap();
                live = after;
                conv_live = conv_after;
            }
            clock.advance(20);
        }
        match round {
            // The next commit lands at `now`: restore to just before it.
            10 => restore_to = Some((clock.now_ms() - 1, live.clone())),
            20 | 40 => {
                db.compact_history().unwrap();
                session.execute("CHECKPOINT").unwrap();
            }
            30 => {
                session.execute("VACUUM").unwrap();
            }
            50 => {
                let (at, then) = restore_to.take().expect("round 10 came first");
                session
                    .execute(&format!("RESTORE TABLE obj AS OF ms({at})"))
                    .unwrap();
                live = then;
                clock.advance(20);
            }
            _ => {}
        }
    }
    db.close().unwrap();
}

/// Where two byte strings first differ.
fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    a.iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .or((a.len() != b.len()).then(|| a.len().min(b.len())))
}

#[test]
fn the_same_workload_writes_the_same_bytes() {
    if let Some(dir) = std::env::var_os(CHILD_DIR) {
        run_workload(Path::new(&dir));
        return;
    }
    let scratch = TempDir::new("deterministic-bytes");
    let runs: Vec<_> = (0..2)
        .map(|run| {
            let dir = scratch.path().join(format!("run{run}"));
            let status = Command::new(std::env::current_exe().unwrap())
                .args(["--exact", TEST_NAME, "--test-threads=1"])
                .env(CHILD_DIR, &dir)
                .status()
                .unwrap();
            assert!(status.success(), "workload run {run} failed");
            let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
            (read("wal.log"), read("data.idb"))
        })
        .collect();
    let ((wal_a, data_a), (wal_b, data_b)) = (&runs[0], &runs[1]);
    for (name, a, b) in [("wal.log", wal_a, wal_b), ("data.idb", data_a, data_b)] {
        if let Some(at) = first_difference(a, b) {
            panic!(
                "{name} differs between two runs of one workload at byte {at} \
                 ({} and {} bytes)",
                a.len(),
                b.len()
            );
        }
    }
    assert_eq!(
        (hash_value(wal_a), hash_value(data_a)),
        (WAL_DIGEST, DATA_DIGEST),
        "the workload's (wal.log, data.idb) digests changed"
    );
}
