//! Workspace integration: the obs metrics subsystem observed end-to-end
//! through `Database::metrics_snapshot()` and `SHOW STATS`.

use immortaldb::{
    Database, DbConfig, Flow, Isolation, Result, RowSink, Session, Step, TimestampingMode, Value,
};
use immortaldb_chaos::TempDir;

struct Env {
    dir: TempDir,
}

impl Env {
    fn new(name: &str) -> Env {
        Env {
            dir: TempDir::new(&format!("obs-{name}")),
        }
    }

    fn open(&self, mode: TimestampingMode) -> Database {
        Database::open(DbConfig::new(&self.dir).timestamping(mode)).unwrap()
    }
}

fn load(db: &Database, rows: i32) {
    let mut s = Session::new(db);
    s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..rows {
        s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
        s.execute(&format!("UPDATE t SET v = {} WHERE id = {i}", i + 1))
            .unwrap();
    }
    // Read everything back so the buffer pool sees hits, not just misses.
    let res = s.execute("SELECT * FROM t").unwrap();
    assert_eq!(res.rows.len(), rows as usize);
}

#[test]
fn buffer_accounting_is_consistent() {
    let env = Env::new("buffer");
    let db = env.open(TimestampingMode::Lazy);
    load(&db, 50);
    let snap = db.metrics_snapshot();
    let fetches = snap.get("buffer.fetches").unwrap();
    let hits = snap.get("buffer.hits").unwrap();
    let misses = snap.get("buffer.misses").unwrap();
    assert!(fetches > 0, "workload must touch the buffer pool");
    assert_eq!(fetches, hits + misses, "every fetch is a hit or a miss");
    assert!(snap.get("buffer.history_evictions").unwrap() <= snap.get("buffer.evictions").unwrap());
    assert!(snap.get("wal.appends").unwrap() > 0);
    assert!(snap.get("wal.bytes").unwrap() > 0);
}

#[test]
fn lazy_timestamping_defers_and_eager_does_not() {
    // Lazy: commits go through the PTT, no eager stamping work.
    let lazy_env = Env::new("lazy");
    let lazy = lazy_env.open(TimestampingMode::Lazy);
    load(&lazy, 30);
    let snap = lazy.metrics_snapshot();
    assert!(
        snap.get("ts.ptt_inserts").unwrap() > 0,
        "lazy commits register in the PTT"
    );
    assert_eq!(
        snap.get("ts.stamps.eager").unwrap(),
        0,
        "lazy mode never eager-stamps"
    );
    // The SELECT revisits committed versions, so lazy stamping happens at
    // read time (the paper's central mechanism).
    assert!(
        snap.get("ts.stamps.total").unwrap() > 0,
        "reads stamp lazily"
    );
    drop(lazy);

    // Eager: every record stamped at commit, nothing deferred to the PTT.
    let eager_env = Env::new("eager");
    let eager = eager_env.open(TimestampingMode::Eager);
    load(&eager, 30);
    let snap = eager.metrics_snapshot();
    assert_eq!(
        snap.get("ts.ptt_inserts").unwrap(),
        0,
        "eager mode bypasses the PTT"
    );
    assert!(
        snap.get("ts.stamps.eager").unwrap() > 0,
        "eager mode stamps at commit"
    );
}

#[test]
fn show_stats_surfaces_the_registry() {
    let env = Env::new("showstats");
    let db = env.open(TimestampingMode::Lazy);
    load(&db, 10);
    let mut s = Session::new(&db);
    let res = s.execute("SHOW STATS").unwrap();
    assert_eq!(res.columns, vec!["metric", "value"]);
    assert!(!res.rows.is_empty());
    let get = |name: &str| {
        res.rows
            .iter()
            .find(|r| r[0] == Value::Varchar(name.to_string()))
            .unwrap_or_else(|| panic!("SHOW STATS missing {name}"))[1]
            .clone()
    };
    // The rows reflect real activity, not a zeroed registry.
    match get("buffer.fetches") {
        Value::BigInt(n) => assert!(n > 0),
        other => panic!("buffer.fetches not a BIGINT: {other:?}"),
    }
    match get("wal.appends") {
        Value::BigInt(n) => assert!(n > 0),
        other => panic!("wal.appends not a BIGINT: {other:?}"),
    }
    // Histogram-derived rows are present too.
    get("wal.fsync_ns.count");
    get("buffer.hit_rate_pct");
    get("buffer.history_evictions");
}

/// Every lazy-timestamping trigger of the paper fires on an immortal
/// table: the update trigger, the split, the serializable read, vacuum —
/// and eager stamping in the baseline mode. Here the table is the only
/// versioned one, so every count below is its own.
#[test]
fn every_stamping_trigger_fires_on_an_immortal_table() {
    let ddl = "CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT, pad VARCHAR(100))";
    let row = |id: i32, v: i32| {
        vec![
            Value::Int(id),
            Value::Int(v),
            Value::Varchar("p".repeat(90)),
        ]
    };
    let env = Env::new("stamps");
    let db = env.open(TimestampingMode::Lazy);
    Session::new(&db).execute(ddl).unwrap();
    let autocommit = |f: &mut dyn FnMut(&mut immortaldb::Transaction)| {
        let mut txn = db.begin(Isolation::Serializable);
        f(&mut txn);
        db.commit(&mut txn).unwrap();
    };
    for id in 0..40 {
        autocommit(&mut |txn| db.insert_row(txn, "t", row(id, 0)).unwrap());
    }
    // Odd keys are only ever updated (each update stamps the version
    // before it); even keys are read back after every update.
    for round in 1..=20 {
        for id in 0..40 {
            autocommit(&mut |txn| db.update_row(txn, "t", row(id, round)).unwrap());
            if id % 2 == 0 {
                autocommit(&mut |txn| {
                    let got = db.get_row(txn, "t", &Value::Int(id)).unwrap();
                    assert_eq!(got.unwrap()[1], Value::Int(round));
                });
            }
        }
    }
    assert!(db.split_counts().0 > 0, "the stream must time-split");
    // The odd keys' newest versions are still TID-marked.
    db.vacuum().unwrap();
    let snap = db.metrics_snapshot();
    for trigger in ["update", "time_split", "read", "vacuum"] {
        let n = snap.get(&format!("ts.stamps.{trigger}")).unwrap();
        assert!(n > 0, "ts.stamps.{trigger} never moved");
    }
    drop(db);

    let env = Env::new("stamps-eager");
    let db = env.open(TimestampingMode::Eager);
    let mut s = Session::new(&db);
    s.execute(ddl).unwrap();
    s.execute("INSERT INTO t VALUES (1, 1, 'x')").unwrap();
    s.execute("UPDATE t SET v = 2 WHERE id = 1").unwrap();
    let eager = db.metrics_snapshot().get("ts.stamps.eager").unwrap();
    assert!(eager >= 2, "eager commits stamp their versions: {eager}");
}

/// A sink that is full after every `k` rows.
struct StopEvery {
    k: usize,
    rows: usize,
}

impl RowSink for StopEvery {
    fn columns(&mut self, _names: Vec<String>) -> Result<()> {
        Ok(())
    }

    fn row(&mut self, _image: &[u8]) -> Result<Flow> {
        self.rows += 1;
        Ok(if self.rows.is_multiple_of(self.k) {
            Flow::Stop
        } else {
            Flow::Continue
        })
    }
}

/// A scan that resumes every few rows is still one read: its push-down
/// and its table lock count once, not once per cursor re-entry.
#[test]
fn resumed_scan_counts_once_per_statement() {
    let env = Env::new("resume-counts");
    let db = env.open(TimestampingMode::Lazy);
    load(&db, 50);
    let counters = [
        "temporal.pushdown_none",
        "temporal.pushdown_range",
        "temporal.pushdown_point",
        "locks.acquired.s",
    ];
    let read = || counters.map(|c| db.metrics_snapshot().get(c).unwrap());
    let now = db.now_ms();
    for sql in [
        "SELECT * FROM t".to_string(),
        format!("SELECT * FROM t VERSIONS BETWEEN ms(0) AND ms({now})"),
    ] {
        let before = read();
        let mut sink = StopEvery { k: 7, rows: 0 };
        // Autocommit: a serializable transaction of its own, held by the
        // paused statement from step to step.
        let mut s = Session::new(&db);
        let mut step = s.execute_into(&sql, &mut sink).unwrap();
        let mut resumes = 0;
        while let Step::Paused(paused) = step {
            resumes += 1;
            step = s.resume(paused, &mut sink).unwrap();
        }
        assert!(resumes >= 7, "{sql}: the scan must resume");
        let moved: Vec<u64> = read().iter().zip(before).map(|(a, b)| a - b).collect();
        let want_s = u64::from(!sql.contains("VERSIONS"));
        assert_eq!(moved, [1, 0, 0, want_s], "{sql}: {counters:?}");
    }
}
