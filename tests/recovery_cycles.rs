//! Workspace integration: repeated crash/recovery cycles, checkpoint
//! interplay, PTT garbage collection and TID reservation across
//! restarts, and a short run of the torture harness with four writers.

use std::sync::Arc;

use immortaldb::{
    Database, DbConfig, Durability, Isolation, Session, SimClock, TableKind, Timestamp, Value,
    TID_BLOCK,
};
use immortaldb_chaos::{kv_schema, run, FaultVfs, TempDir, TortureConfig};
use immortaldb_storage::vfs::Vfs;

struct Env {
    dir: TempDir,
    clock: Arc<SimClock>,
}

impl Env {
    fn new(name: &str) -> Env {
        Env {
            dir: TempDir::new(&format!("rec-{name}")),
            clock: Arc::new(SimClock::new(20_000_000)),
        }
    }

    fn open(&self) -> Database {
        Database::open(
            DbConfig::new(&self.dir).clock(Arc::clone(&self.clock) as Arc<dyn immortaldb::Clock>),
        )
        .unwrap()
    }

    /// Open through `vfs`, acknowledging commits only once they are
    /// fsynced: a crash of the fault layer then loses exactly the log
    /// buffer's uncommitted tail.
    fn open_on(&self, vfs: &Arc<FaultVfs>) -> Database {
        Database::open(
            DbConfig::new(&self.dir)
                .clock(Arc::clone(&self.clock) as Arc<dyn immortaldb::Clock>)
                .durability(Durability::Fsync)
                .vfs(Arc::clone(vfs) as Arc<dyn Vfs>),
        )
        .unwrap()
    }

    fn tick(&self) {
        self.clock.advance(20);
    }
}

/// Commit row `k` in its own transaction; returns its TID.
fn commit_row(db: &Database, k: i32) -> u64 {
    let mut txn = db.begin(Isolation::Serializable);
    db.insert_row(
        &mut txn,
        "kv",
        vec![Value::Int(k), Value::Varchar(format!("v{k}"))],
    )
    .unwrap();
    db.commit(&mut txn).unwrap();
    txn.tid().0
}

/// Stage an insert of row `k` and abandon the transaction with its log
/// records still in the log buffer; returns its TID.
fn stage_loser(db: &Database, k: i32) -> u64 {
    let mut txn = db.begin(Isolation::Serializable);
    db.insert_row(
        &mut txn,
        "kv",
        vec![Value::Int(k), Value::Varchar("loser".into())],
    )
    .unwrap();
    txn.tid().0
}

/// Kill the file system under `db`, drop it, and bring the files back.
fn crash(db: Database, vfs: &FaultVfs) {
    vfs.state().force_crash();
    drop(db);
    vfs.state().clear_crash();
}

#[test]
fn a_crashed_losers_tid_is_not_reissued() {
    // A loser whose records never left the log buffer leaves no trace in
    // the log. Recovery restarts TIDs above the meta page's reservation,
    // not above the newest TID the log shows, so the next transaction
    // cannot take the loser's TID.
    let env = Env::new("tid-reissue");
    let vfs = Arc::new(FaultVfs::wrap_std(1));
    let db = env.open_on(&vfs);
    db.create_table("kv", kv_schema(), TableKind::Immortal)
        .unwrap();
    commit_row(&db, 1);
    let loser = stage_loser(&db, 2);
    crash(db, &vfs);

    let db = env.open_on(&vfs);
    let next = db.begin(Isolation::Serializable).tid().0;
    assert_ne!(next, loser, "the loser's TID was handed out again");
    let mut txn = db.begin(Isolation::Serializable);
    assert!(db
        .get_row(&mut txn, "kv", &Value::Int(1))
        .unwrap()
        .is_some());
    assert!(db
        .get_row(&mut txn, "kv", &Value::Int(2))
        .unwrap()
        .is_none());
}

#[test]
fn tid_reservation_extends_mid_run() {
    // Burn a whole block of TIDs past what the open reserved, so the
    // next writer must extend the reservation before it logs. A loser
    // after that writer is then covered, although the log's newest TID
    // is the writer's, one below it.
    let env = Env::new("tid-extend");
    let vfs = Arc::new(FaultVfs::wrap_std(2));
    let db = env.open_on(&vfs);
    db.create_table("kv", kv_schema(), TableKind::Immortal)
        .unwrap();
    let first = commit_row(&db, 1);
    while db.begin_as_of_ts(Timestamp::ZERO).tid().0 <= first + TID_BLOCK {}
    env.tick();
    let writer = commit_row(&db, 2);
    let loser = stage_loser(&db, 3);
    assert!(writer > first + TID_BLOCK && loser > writer);
    crash(db, &vfs);

    let db = env.open_on(&vfs);
    let next = db.begin(Isolation::Serializable).tid().0;
    assert!(next > loser, "TID {next} handed out after loser {loser}");
    env.tick();
    commit_row(&db, 4);
    let mut txn = db.begin(Isolation::Serializable);
    for (k, present) in [(1, true), (2, true), (3, false), (4, true)] {
        let row = db.get_row(&mut txn, "kv", &Value::Int(k)).unwrap();
        assert_eq!(row.is_some(), present, "row {k}");
    }
}

#[test]
fn four_writers_survive_crashes_mid_batch() {
    // The torture harness with four writers on disjoint key ranges: the
    // full audit after every crash, and more than one committer per
    // group fsync, so the crashes cut batches.
    let mut cfg = TortureConfig::new(42);
    cfg.threads = 4;
    cfg.keys = 16;
    cfg.pool_pages = 32;
    cfg.ops = 300;
    cfg.crashes = 3;
    let report = run(cfg);
    assert!(report.passed(), "{report}");
    assert!(report.commits > 0 && report.crashes >= 2, "{report}");
    assert!(report.commits_per_group_fsync > 1.0, "{report}");
}

#[test]
fn repeated_crash_cycles_accumulate_only_committed_history() {
    let env = Env::new("cycles");
    let cycles = 5;
    for cycle in 0..cycles {
        let db = env.open();
        let mut s = Session::new(&db);
        if cycle == 0 {
            s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
                .unwrap();
            s.execute("INSERT INTO t VALUES (1, 0)").unwrap();
            env.tick();
        }
        // Committed update for this cycle.
        s.execute(&format!("UPDATE t SET v = {} WHERE id = 1", cycle + 1))
            .unwrap();
        env.tick();
        // A loser that must vanish.
        let mut loser = db.begin(Isolation::Serializable);
        db.update_row(&mut loser, "t", vec![Value::Int(1), Value::Int(-999)])
            .unwrap();
        db.force_log().unwrap();
        std::mem::forget(loser);
        // Crash (no close/checkpoint).
        drop(db);
    }
    let db = env.open();
    let mut s = Session::new(&db);
    let res = s.execute("SELECT v FROM t WHERE id = 1").unwrap();
    assert_eq!(res.rows[0][0], Value::Int(cycles));
    let h = db.history_rows("t", &Value::Int(1)).unwrap();
    assert_eq!(
        h.len(),
        1 + cycles as usize,
        "insert + one committed update per cycle"
    );
    // Timestamps strictly descending, no -999 anywhere.
    for w in h.windows(2) {
        assert!(w[0].0.unwrap() > w[1].0.unwrap());
    }
    assert!(h
        .iter()
        .all(|(_, row)| row.as_ref().unwrap()[1] != Value::Int(-999)));
}

#[test]
fn crash_between_checkpoint_and_commit_preserves_atomicity() {
    let env = Env::new("ckptmid");
    {
        let db = env.open();
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        env.tick();
        // Multi-record loser caught mid-flight by a checkpoint: its dirty
        // pages reach disk, but the transaction never commits.
        let mut loser = db.begin(Isolation::Serializable);
        db.update_row(&mut loser, "t", vec![Value::Int(1), Value::Int(-1)])
            .unwrap();
        db.checkpoint().unwrap(); // flushes the loser's modified pages!
        db.update_row(&mut loser, "t", vec![Value::Int(2), Value::Int(-2)])
            .unwrap();
        db.force_log().unwrap();
        std::mem::forget(loser);
    }
    let db = env.open();
    assert_eq!(db.recovered_losers, 1);
    let mut s = Session::new(&db);
    let res = s.execute("SELECT * FROM t").unwrap();
    assert_eq!(
        res.rows[0][1],
        Value::Int(10),
        "flushed-but-uncommitted change undone"
    );
    assert_eq!(res.rows[1][1], Value::Int(20));
}

#[test]
fn ptt_entries_survive_crash_and_still_resolve() {
    // The paper: after a crash, volatile refcounts are lost, so those PTT
    // entries "cannot be deleted" — but they keep resolving TID-marked
    // records correctly, and the data remains exact.
    let env = Env::new("pttcrash");
    let n = 40;
    {
        let db = env.open();
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        for i in 0..n {
            s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap();
            env.tick();
        }
        db.force_log().unwrap();
        // Crash with every record still TID-marked (no reads, no flushes).
    }
    let db = env.open();
    // All committed transactions' PTT entries were redone.
    assert!(db.ptt_len().unwrap() >= n as usize);
    let mut s = Session::new(&db);
    // Reads resolve through the PTT (VTT was lost) and still see all data.
    let res = s.execute("SELECT * FROM t").unwrap();
    assert_eq!(res.rows.len(), n as usize);
    for (i, row) in res.rows.iter().enumerate() {
        assert_eq!(row[1], Value::Int(i as i32));
    }
    // Those crash-orphaned entries are pinned (refcount unknown), but the
    // engine keeps working and new transactions GC normally.
    for i in n..n + 10 {
        s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
        let _ = s
            .execute(&format!("SELECT * FROM t WHERE id = {i}"))
            .unwrap();
        env.tick();
    }
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    let after = db.ptt_len().unwrap();
    assert!(
        after <= n as usize + 2,
        "new entries reclaimed, orphans retained: {after}"
    );
}

#[test]
fn as_of_correctness_across_restart_with_cold_cache() {
    let env = Env::new("coldasof");
    let mut marks = Vec::new();
    {
        let db = env.open();
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT, pad VARCHAR(48))")
            .unwrap();
        for round in 0..8 {
            for id in 0..120 {
                let stmt = if round == 0 {
                    format!("INSERT INTO t VALUES ({id}, 0, 'xxxxxxxxxxxxxxxxxxxxxxxx')")
                } else {
                    format!("UPDATE t SET v = {round} WHERE id = {id}")
                };
                s.execute(&stmt).unwrap();
                env.tick();
            }
            marks.push((round, db.visible_horizon()));
        }
        db.close().unwrap();
    }
    let db = env.open();
    for (round, ts) in marks {
        let mut txn = db.begin_as_of_ts(ts);
        let rows = db.scan_rows(&mut txn, "t").unwrap();
        db.commit(&mut txn).unwrap();
        assert_eq!(rows.len(), 120, "round {round}");
        assert!(
            rows.iter().all(|r| r[1] == Value::Int(round)),
            "round {round} state exact after restart"
        );
    }
}

#[test]
fn drop_without_close_preserves_ddl_and_commits() {
    // Dropping the engine without `close()` (no checkpoint) must not
    // lose acknowledged work: `Drop` drains the WAL buffer, so DDL
    // system records and committed rows replay on the next open even
    // though no page was ever flushed.
    let env = Env::new("drop-no-close");
    {
        let db = env.open();
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE d (id INT PRIMARY KEY, v INT)")
            .unwrap();
        for id in 0..10 {
            s.execute(&format!("INSERT INTO d VALUES ({id}, {})", id * 7))
                .unwrap();
        }
        env.tick();
        drop(db); // no close(), no checkpoint
    }
    let db = env.open();
    let mut txn = db.begin(Isolation::Serializable);
    let rows = db.scan_rows(&mut txn, "d").unwrap();
    db.commit(&mut txn).unwrap();
    assert_eq!(rows.len(), 10, "all committed rows replayed");
    for row in rows {
        let id = match row[0] {
            Value::Int(i) => i,
            ref other => panic!("unexpected id {other:?}"),
        };
        assert_eq!(row[1], Value::Int(id * 7));
    }
}

/// Durable commits keep zeros written ahead of the log's end; a clean
/// close cuts them, so a closed `wal.log` is its records and nothing
/// else, and it reopens with every commit.
#[test]
fn a_clean_close_cuts_the_log_at_its_end() {
    let env = Env::new("close-trim");
    let log = env.dir.path().join("wal.log");
    let len = || std::fs::metadata(&log).unwrap().len();
    let db = Database::open(
        DbConfig::new(&env.dir)
            .clock(Arc::clone(&env.clock) as Arc<dyn immortaldb::Clock>)
            .durability(Durability::Fsync),
    )
    .unwrap();
    db.create_table("kv", kv_schema(), TableKind::Immortal)
        .unwrap();
    for k in 0..20 {
        env.tick();
        commit_row(&db, k);
    }
    assert!(len() > db.wal().end_lsn().0, "no zeros ahead of the log");
    db.close().unwrap();
    assert_eq!(len(), db.wal().end_lsn().0);
    drop(db);
    let db = env.open();
    assert_eq!(len(), db.wal().end_lsn().0);
    let mut txn = db.begin(Isolation::Snapshot);
    for k in 0..20 {
        assert!(db
            .get_row(&mut txn, "kv", &Value::Int(k))
            .unwrap()
            .is_some());
    }
    db.rollback(&mut txn).unwrap();
}
