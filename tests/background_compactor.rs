//! The background history compactor (`DbConfig::compaction_interval`)
//! beside a writer and an `AS OF` reader.
//!
//! The compactor wakes every 5 ms and rewrites history pages while a
//! writer commits padded rows (so leaves time-split and history pages
//! keep appearing) and a reader scans and point-reads the table as of
//! commits it has seen. Every read is checked against the `History` the
//! writer records, the compactor must have run while the reader read,
//! and dropping the database must return — it joins the compactor
//! thread.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use immortaldb::{Database, DbConfig, Isolation, Session, Timestamp, Value};
use immortaldb_chaos::{History, TempDir};

const TABLE: &str = "t";
const KEYS: i32 = 40;
const COMMITS: i32 = 300;

fn row(k: i32, v: i32) -> Vec<Value> {
    vec![
        Value::Int(k),
        Value::Int(v),
        Value::Varchar(format!("{v:0>120}")),
    ]
}

/// One `AS OF` read the reader made: the instant, the scan it saw, and
/// one point read.
struct Read {
    ts: Timestamp,
    scan: Vec<Vec<Value>>,
    key: i32,
    point: Option<Vec<Value>>,
}

fn compactor_beside_writer_and_reader(tag: &str) {
    let dir = TempDir::new(tag);
    let db = Arc::new(
        Database::open(DbConfig::new(&dir).compaction_interval(Duration::from_millis(5))).unwrap(),
    );
    let ddl =
        format!("CREATE IMMORTAL TABLE {TABLE} (id INT PRIMARY KEY, v INT, pad VARCHAR(200))");
    Session::new(&db).execute(&ddl).unwrap();
    let history = Arc::new(Mutex::new(History::default()));

    let writer = {
        let (db, history) = (Arc::clone(&db), Arc::clone(&history));
        std::thread::spawn(move || {
            for i in 0..COMMITS {
                let mut txn = db.begin(Isolation::Serializable);
                let keys: Vec<i32> = (0..4).map(|j| (i * 7 + j * 11) % KEYS).collect();
                let alive = history.lock().unwrap().state_at(Timestamp::MAX);
                for &k in &keys {
                    match (alive.contains_key(&k), i % 9 == 0) {
                        (true, true) => db.delete_row(&mut txn, TABLE, &Value::Int(k)),
                        (true, false) => db.update_row(&mut txn, TABLE, row(k, i)),
                        (false, _) => db.insert_row(&mut txn, TABLE, row(k, i)),
                    }
                    .unwrap();
                }
                let ts = db.commit(&mut txn).unwrap();
                let mut h = history.lock().unwrap();
                for &k in &keys {
                    let deleted = alive.contains_key(&k) && i % 9 == 0;
                    h.record(ts, k, (!deleted).then(|| row(k, i)));
                }
            }
        })
    };

    let reader = {
        let (db, history) = (Arc::clone(&db), Arc::clone(&history));
        std::thread::spawn(move || {
            let mut reads = Vec::new();
            let mut n = 0usize;
            // Until the writer is done and the compactor has run twice
            // (or long enough that it evidently never will).
            let deadline = Instant::now() + Duration::from_secs(10);
            let runs = || db.metrics().compaction.runs.get();
            while !(writer_done(&history) && runs() >= 2) && Instant::now() < deadline {
                let commits = history.lock().unwrap().commits().to_vec();
                let Some(&ts) = commits.get(n * 31 % commits.len().max(1)) else {
                    std::thread::yield_now();
                    continue;
                };
                let key = (n % KEYS as usize) as i32;
                let mut txn = db.begin_as_of_ts(ts);
                let scan = db.scan_rows(&mut txn, TABLE).unwrap();
                let point = db.get_row(&mut txn, TABLE, &Value::Int(key)).unwrap();
                db.commit(&mut txn).unwrap();
                reads.push(Read {
                    ts,
                    scan,
                    key,
                    point,
                });
                n += 1;
            }
            reads
        })
    };

    writer.join().unwrap();
    let reads = reader.join().unwrap();
    let history = history.lock().unwrap();
    assert!(reads.len() > 10, "{tag}: only {} reads", reads.len());
    for r in &reads {
        history.check_scan(r.ts, |_| true, &r.scan).expect(tag);
        history
            .check_point(r.key, r.ts, r.point.as_deref())
            .expect(tag);
    }
    history
        .check_own_timestamps(&db, TABLE)
        .expect("every version at its own commit timestamp");
    let runs = db.metrics().compaction.runs.get();
    assert!(runs >= 2, "{tag}: the compactor ran {runs} times");
    let (time_splits, _) = db.split_counts();
    assert!(time_splits > 0, "{tag}: no history for the compactor");

    // Dropping the last handle stops and joins the compactor thread.
    let db = Arc::into_inner(db).expect("the threads are done with the database");
    let (done, dropped) = mpsc::channel();
    std::thread::spawn(move || {
        drop(db);
        done.send(()).unwrap();
    });
    dropped
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{tag}: dropping the database did not return"));
}

/// The writer records its last commit before it exits.
fn writer_done(history: &Mutex<History>) -> bool {
    history.lock().unwrap().commits().len() >= COMMITS as usize
}

#[test]
fn background_compactor_on_the_chain_index() {
    compactor_beside_writer_and_reader("compactor-chain");
}
