//! Concurrent read-scaling stress against the exact commit history.
//!
//! N reader threads (mixed snapshot-current and `AS OF` point reads) run
//! against M writer threads driving inserts, updates and deletes — deep
//! version chains, leaf splits and time splits —
//! while the optimistic page-latch protocol (DESIGN.md §11) serves the
//! read side. Writers commit under a mutex that records every committed
//! change in one `History`, so it is always exactly the engine's commit
//! history. Each read is verified against the row that history implies
//! for its timestamp: zero violations allowed, on two fixed seeds.
//!
//! The runs also assert `latch.optimistic_retries > 0` — the protocol's
//! conflict path must actually exercise under writer pressure (a hot-key
//! phase tops up contention on machines where the main phase raced too
//! cleanly).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use immortaldb::{Database, DbConfig, Durability, Isolation, Session, SimClock, Timestamp, Value};
use immortaldb_chaos::{History, Row, TempDir};

const WRITERS: usize = 2;
const READERS: usize = 3;
const COMMITS_PER_WRITER: u32 = 250;
/// Verified reads each reader must complete (it keeps going while
/// writers are still running, so the mixed phase lasts the whole run).
const MIN_READS: u32 = 600;

fn xorshift(rng: &mut u64) -> u64 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    *rng
}

fn obj_row(oid: i32, x: i32, y: i32) -> Vec<Value> {
    vec![Value::Int(oid), Value::Int(x), Value::Int(y)]
}

/// Writer `w` owns oids with `oid % WRITERS == w`, so Serializable
/// writers never conflict with each other; every commit records its
/// changes under the history mutex, which makes the history exactly the
/// engine's commit history.
fn writer(
    db: &Database,
    history: &Mutex<History>,
    clock: &SimClock,
    writers_left: &AtomicUsize,
    w: usize,
    seed: u64,
) {
    let mut rng = seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut live: Vec<i32> = Vec::new();
    let mut next_new = w as i32;
    for _ in 0..COMMITS_PER_WRITER {
        let nops = 1 + (xorshift(&mut rng) % 3) as usize;
        let mut txn = db.begin(Isolation::Serializable);
        let mut pending: Vec<(i32, Row)> = Vec::new();
        for _ in 0..nops {
            let roll = xorshift(&mut rng) % 10;
            if live.is_empty() || roll < 3 {
                let oid = next_new;
                next_new += WRITERS as i32;
                let (x, y) = (
                    (xorshift(&mut rng) % 10_000) as i32,
                    (xorshift(&mut rng) % 10_000) as i32,
                );
                db.insert_row(&mut txn, "obj", obj_row(oid, x, y)).unwrap();
                live.push(oid);
                pending.push((oid, Some(obj_row(oid, x, y))));
            } else {
                let idx = (xorshift(&mut rng) % live.len() as u64) as usize;
                let oid = live[idx];
                if pending.iter().any(|(o, _)| *o == oid) {
                    continue; // at most one version per key per commit
                }
                if roll < 5 {
                    db.delete_row(&mut txn, "obj", &Value::Int(oid)).unwrap();
                    live.swap_remove(idx);
                    pending.push((oid, None));
                } else {
                    let (x, y) = (
                        (xorshift(&mut rng) % 10_000) as i32,
                        (xorshift(&mut rng) % 10_000) as i32,
                    );
                    db.update_row(&mut txn, "obj", obj_row(oid, x, y)).unwrap();
                    pending.push((oid, Some(obj_row(oid, x, y))));
                }
            }
        }
        // Commit and record atomically w.r.t. every other commit and
        // every reader's expectation.
        let mut history = history.lock().unwrap();
        let ts = db.commit(&mut txn).unwrap();
        for (oid, row) in pending {
            history.record(ts, oid, row);
        }
        clock.advance(20);
    }
    writers_left.fetch_sub(1, Ordering::Release);
}

/// Reader: alternates snapshot-current batches (transaction begun under
/// the history lock, so its snapshot covers exactly the recorded commits)
/// with `AS OF` point reads at a random recorded commit timestamp
/// (history is immutable, so the expectation computed under the lock
/// holds no matter what commits after).
fn reader(
    db: &Database,
    history: &Mutex<History>,
    writers_left: &AtomicUsize,
    violations: &Mutex<Vec<String>>,
    seed: u64,
) {
    let mut rng = seed | 1;
    let mut verified = 0u32;
    let complain = |msg: String| violations.lock().unwrap().push(msg);
    while verified < MIN_READS || writers_left.load(Ordering::Acquire) > 0 {
        // -- current reads under snapshot isolation ---------------------
        let (mut txn, picks) = {
            let history = history.lock().unwrap();
            let keys: Vec<i32> = history.keys().collect();
            if keys.is_empty() {
                continue;
            }
            let txn = db.begin(Isolation::Snapshot);
            let picks: Vec<(i32, Row)> = (0..8)
                .map(|_| {
                    let oid = keys[(xorshift(&mut rng) % keys.len() as u64) as usize];
                    (
                        oid,
                        history.row_at(oid, Timestamp::MAX).map(<[Value]>::to_vec),
                    )
                })
                .collect();
            (txn, picks)
        };
        for (oid, want) in picks {
            let got = db.get_row(&mut txn, "obj", &Value::Int(oid)).unwrap();
            if got != want {
                complain(format!(
                    "snapshot read oid {oid}: got {got:?}, want {want:?}"
                ));
            }
            verified += 1;
        }
        db.commit(&mut txn).unwrap();

        // -- AS OF replay at a random commit timestamp ------------------
        let (ts, oid, want) = {
            let history = history.lock().unwrap();
            let (commits, keys) = (history.commits(), history.keys().collect::<Vec<_>>());
            let ts = commits[(xorshift(&mut rng) % commits.len() as u64) as usize];
            let oid = keys[(xorshift(&mut rng) % keys.len() as u64) as usize];
            (ts, oid, history.row_at(oid, ts).map(<[Value]>::to_vec))
        };
        let mut txn = db.begin_as_of_ts(ts);
        let got = db.get_row(&mut txn, "obj", &Value::Int(oid)).unwrap();
        if got != want {
            complain(format!(
                "AS OF {ts:?} read oid {oid}: got {got:?}, want {want:?}"
            ));
        }
        verified += 1;
        db.commit(&mut txn).unwrap();
    }
}

/// Top up latch contention on a hot key until the optimistic protocol
/// records at least one retry (bounded; the main phase almost always
/// produces retries on its own, but a clean race is not a test failure).
fn ensure_retries(db: &Database) {
    let hot = 5_000_000;
    let mut txn = db.begin(Isolation::Serializable);
    db.insert_row(
        &mut txn,
        "obj",
        vec![Value::Int(hot), Value::Int(0), Value::Int(0)],
    )
    .unwrap();
    db.commit(&mut txn).unwrap();
    for _ in 0..50 {
        if db.metrics().latch.optimistic_retries.get() > 0 {
            return;
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..400 {
                    let mut txn = db.begin(Isolation::Serializable);
                    db.update_row(
                        &mut txn,
                        "obj",
                        vec![Value::Int(hot), Value::Int(i), Value::Int(i)],
                    )
                    .unwrap();
                    db.commit(&mut txn).unwrap();
                }
            });
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut txn = db.begin(Isolation::Snapshot);
                    for _ in 0..4_000 {
                        let _ = db.get_row(&mut txn, "obj", &Value::Int(hot)).unwrap();
                    }
                    db.commit(&mut txn).unwrap();
                });
            }
        });
    }
}

fn stress(tag: &str, seed: u64) {
    let dir = TempDir::new(&format!("read-scaling-stress-{tag}"));
    let clock = Arc::new(SimClock::new(5_000_000));
    let db = Database::open(
        DbConfig::new(&dir)
            .durability(Durability::Buffered)
            .clock(clock.clone()),
    )
    .unwrap();
    let mut s = Session::new(&db);
    s.execute("CREATE IMMORTAL TABLE obj (Oid INT PRIMARY KEY, LocationX INT, LocationY INT)")
        .unwrap();

    let history: Mutex<History> = Mutex::new(History::default());
    let writers_left = AtomicUsize::new(WRITERS);
    let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (db, history, clock, writers_left) = (&db, &history, &*clock, &writers_left);
            scope.spawn(move || writer(db, history, clock, writers_left, w, seed));
        }
        for r in 0..READERS {
            let (db, history, writers_left, violations) =
                (&db, &history, &writers_left, &violations);
            let rseed = seed ^ (0xABCD_0000 + r as u64);
            scope.spawn(move || reader(db, history, writers_left, violations, rseed));
        }
    });

    let violations = violations.into_inner().unwrap();
    assert!(
        violations.is_empty(),
        "{} violations of the commit history ({tag}); first: {}",
        violations.len(),
        violations[0]
    );
    let commits = history.into_inner().unwrap().commits().len();
    assert!(
        commits as u32 >= WRITERS as u32 * COMMITS_PER_WRITER,
        "writers under-committed"
    );

    ensure_retries(&db);
    let retries = db.metrics().latch.optimistic_retries.get();
    assert!(
        retries > 0,
        "optimistic latch protocol never conflicted ({tag})"
    );
}

#[test]
fn read_scaling_stress_chain_seed1() {
    stress("chain1", 0xDEC0_DE01);
}

#[test]
fn read_scaling_stress_chain_seed2() {
    stress("chain2", 0x0DDB_A117);
}
