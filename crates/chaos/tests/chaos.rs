//! Deterministic chaos tests: crash recovery under injected faults.
//!
//! These complement the randomized torture harness with fixed scenarios
//! whose assertions pin down the two recovery mechanisms the paper's
//! design depends on: post-crash timestamp repair through the PTT, and
//! torn-page repair from logged full-page images.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use immortaldb::{Clock, Database, DbConfig, Durability, Isolation, SimClock, TableKind, Value};
use immortaldb_chaos::fault::FaultVfs;
use immortaldb_chaos::{kv_schema, run, TempDir, TortureConfig};
use immortaldb_common::{Lsn, Tid, NULL_LSN};
use immortaldb_obs::MetricsRegistry;
use immortaldb_storage::logrec::LogRecord;
use immortaldb_storage::vfs::Vfs;
use immortaldb_storage::wal::Wal;

const TABLE: &str = "chaos_kv";

fn config(
    dir: &Path,
    clock: &Arc<SimClock>,
    metrics: &MetricsRegistry,
    pool_pages: usize,
) -> DbConfig {
    let clock: Arc<dyn Clock> = Arc::clone(clock) as _;
    DbConfig::new(dir)
        .clock(clock)
        .pool_pages(pool_pages)
        .durability(Durability::Fsync)
        .metrics(metrics.clone())
}

/// A version flushed TID-marked before the crash (or redone TID-marked
/// after it) must be restamped from the PTT during recovery, and the
/// `recovery.versions_restamped` counter must prove it happened.
#[test]
fn post_crash_timestamp_repair_restamps_versions() {
    let dir = TempDir::new("chaos-restamp");
    let clock = Arc::new(SimClock::new(50_000));
    let metrics = MetricsRegistry::new();

    let commit_ts = {
        let db = Database::open(config(dir.path(), &clock, &metrics, 8)).unwrap();
        db.create_table(TABLE, kv_schema(), TableKind::Immortal)
            .unwrap();
        clock.advance(20);
        // One large transaction over a tiny pool: evictions flush leaves
        // mid-transaction, persisting TID-marked (unstamped) versions.
        let mut txn = db.begin(Isolation::Serializable);
        for k in 0..60i32 {
            db.insert_row(
                &mut txn,
                TABLE,
                vec![Value::Int(k), Value::Varchar(format!("restamp-{k:04}"))],
            )
            .unwrap();
        }
        let ts = db.commit(&mut txn).unwrap();
        // Crash: drop without close. The commit record is durable
        // (Durability::Fsync); dirty pages and the VTT are lost.
        drop(db);
        ts
    };

    let restamped_before = metrics
        .snapshot()
        .get("recovery.versions_restamped")
        .unwrap();
    let db = Database::open(config(dir.path(), &clock, &metrics, 8)).unwrap();
    let snap = metrics.snapshot();
    assert!(
        snap.get("recovery.crash_recoveries").unwrap() >= 1,
        "reopen after a hard drop must count as a crash recovery"
    );
    assert!(
        snap.get("recovery.versions_restamped").unwrap() > restamped_before,
        "recovery must restamp at least one version from the PTT"
    );

    // Every committed row survived and every version carries the commit
    // timestamp — none is left unstamped.
    for k in 0..60i32 {
        let hist = db.history_rows(TABLE, &Value::Int(k)).unwrap();
        assert_eq!(hist.len(), 1, "key {k}");
        assert_eq!(hist[0].0, Some(commit_ts), "key {k} must be stamped");
        let row = hist[0].1.as_ref().expect("insert, not delete");
        assert_eq!(row[1].to_string(), format!("restamp-{k:04}"));
    }
}

/// A data-page write torn mid-flush (prefix persisted, CRC now invalid)
/// must be rebuilt during redo from the full page image logged just
/// before the write, and the committed data underneath must survive.
#[test]
fn torn_data_page_write_is_repaired_from_logged_image() {
    let dir = TempDir::new("chaos-torn");
    let clock = Arc::new(SimClock::new(80_000));
    let metrics = MetricsRegistry::new();
    let fault = Arc::new(FaultVfs::wrap_std(9));
    let state = fault.state();
    state.set_metrics(metrics.clone());

    let open = |pool: usize| {
        let vfs: Arc<dyn Vfs> = Arc::clone(&fault) as _;
        Database::open(
            config(dir.path(), &clock, &metrics, pool)
                .vfs(vfs)
                .page_image_logging(true),
        )
    };

    // Enough full-width rows that the tree far outgrows the pool: the
    // tail of every batch is evicted (written back) mid-run, and any
    // fetch miss during the update phase must evict a dirty page.
    const KEYS: i32 = 1200;
    let mut committed: HashMap<i32, String> = HashMap::new();
    let db = open(8).unwrap();
    db.create_table(TABLE, kv_schema(), TableKind::Immortal)
        .unwrap();
    for batch in 0..KEYS / 50 {
        clock.advance(20);
        let mut txn = db.begin(Isolation::Serializable);
        for k in batch * 50..batch * 50 + 50 {
            let v = format!("base-{k:04}-0123456789abcdefghij");
            db.insert_row(
                &mut txn,
                TABLE,
                vec![Value::Int(k), Value::Varchar(v.clone())],
            )
            .unwrap();
            committed.insert(k, v);
        }
        db.commit(&mut txn).unwrap();
    }

    // The next write to the data file — necessarily the write-back of a
    // dirty page evicted by the update's leaf fetches — is torn and takes
    // the file system down.
    state.arm_crash_on_write_to("data.idb", true);
    clock.advance(20);
    let mut txn = db.begin(Isolation::Serializable);
    let mut tripped = false;
    for k in 0..KEYS {
        let r = db.update_row(
            &mut txn,
            TABLE,
            vec![Value::Int(k), Value::Varchar(format!("upd-{k:04}"))],
        );
        if r.is_err() {
            tripped = true;
            break;
        }
    }
    assert!(
        tripped && state.crashed(),
        "a data-page write must have torn"
    );
    assert!(state.torn_writes.load(std::sync::atomic::Ordering::SeqCst) >= 1);
    drop(txn);
    drop(db);

    state.clear_crash();
    let db = open(8).unwrap();
    let snap = metrics.snapshot();
    assert!(
        snap.get("recovery.torn_pages_repaired").unwrap() >= 1,
        "redo must rebuild the torn page from its logged image"
    );
    assert!(snap.get("faults.torn_writes").unwrap() >= 1);

    // All committed data intact; the crashed transaction's updates gone.
    let mut txn = db.begin(Isolation::Serializable);
    for k in 0..KEYS {
        let row = db
            .get_row(&mut txn, TABLE, &Value::Int(k))
            .unwrap()
            .unwrap_or_else(|| panic!("key {k} lost"));
        assert_eq!(row[1].to_string(), committed[&k], "key {k}");
    }
    db.rollback(&mut txn).unwrap();
}

/// A short torture run must pass, and two runs with the same seed must
/// take exactly the same path.
#[test]
fn torture_smoke_is_deterministic() {
    let reports: Vec<_> = (0..2)
        .map(|_| {
            let mut cfg = TortureConfig::new(5);
            cfg.ops = 150;
            cfg.crashes = 2;
            run(cfg)
        })
        .collect();
    for r in &reports {
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert!(r.commits > 0 && r.crashes >= 2);
    }
    let key = |r: &immortaldb_chaos::TortureReport| {
        (
            r.ops_done,
            r.txns,
            r.commits,
            r.aborts,
            r.indeterminate_commits,
            r.crashes,
            r.torn_writes,
            r.fsync_errors,
            r.read_errors,
        )
    };
    assert_eq!(key(&reports[0]), key(&reports[1]));
}

/// A group-commit batch whose fsync fails must acknowledge nobody
/// (all-or-nothing per batch): every committer gets the error, their
/// writes are rolled back and invisible, and the barrier recovers for
/// later commits once fsyncs succeed again.
#[test]
fn failed_group_batch_acknowledges_no_committer() {
    let dir = TempDir::new("chaos-gcfail");
    let fault = Arc::new(FaultVfs::wrap_std(33));
    let state = fault.state();
    let metrics = MetricsRegistry::new();
    state.set_metrics(metrics.clone());
    let vfs: Arc<dyn Vfs> = fault;
    let db = Database::open(
        DbConfig::new(&dir)
            .durability(Durability::Fsync)
            .vfs(vfs)
            .metrics(metrics.clone()),
    )
    .unwrap();
    db.create_table(TABLE, kv_schema(), TableKind::Immortal)
        .unwrap();

    // From here on every fsync fails, so every group batch — whatever
    // its size — must fail as a unit.
    state.set_error_rates(0.0, 1.0);
    state.enable();
    let writers: i32 = 4;
    let results: Vec<bool> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..writers)
            .map(|t| {
                let db = &db;
                s.spawn(move || {
                    let mut txn = db.begin(Isolation::Serializable);
                    db.insert_row(
                        &mut txn,
                        TABLE,
                        vec![Value::Int(t), Value::Varchar(format!("v{t}"))],
                    )
                    .unwrap();
                    db.commit(&mut txn).is_ok()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        results.iter().all(|ok| !ok),
        "a committer in a failed batch was acknowledged: {results:?}"
    );
    assert!(metrics.faults.fsync_errors.get() > 0);
    state.disable();

    // The barrier must not be wedged by the failed batches: a later
    // commit leads a fresh sync, which also clears the sticky error.
    let mut txn = db.begin(Isolation::Serializable);
    db.insert_row(
        &mut txn,
        TABLE,
        vec![Value::Int(100), Value::Varchar("ok".into())],
    )
    .unwrap();
    db.commit(&mut txn).unwrap();

    // Failed committers' writes were rolled back: invisible now.
    let mut reader = db.begin(Isolation::Snapshot);
    for t in 0..writers {
        assert!(
            db.get_row(&mut reader, TABLE, &Value::Int(t))
                .unwrap()
                .is_none(),
            "unacknowledged write of key {t} became visible"
        );
    }
    assert!(db
        .get_row(&mut reader, TABLE, &Value::Int(100))
        .unwrap()
        .is_some());
    db.rollback(&mut reader).unwrap();
}

/// The first commit sync of a fresh log writes its chunk of zeros ahead
/// and then fails its fsync: every record that sync's write covered
/// fails to commit, no new sync is tried for them, and the next commit
/// syncs into the room the failed one wrote, with its LSNs continuing.
#[test]
fn a_failed_sync_right_after_an_extension_fails_its_batch_only() {
    let dir = TempDir::new("chaos-extfail");
    let fault = Arc::new(FaultVfs::wrap_std(57));
    let state = fault.state();
    let metrics = MetricsRegistry::new();
    state.set_metrics(metrics.clone());
    let path = dir.path().join("wal.log");
    let wal = Wal::open_with(fault as Arc<dyn Vfs>, &path, metrics.clone()).unwrap();
    let a1 = wal.append(Tid(1), NULL_LSN, &LogRecord::Begin);
    let a2 = wal.append(Tid(2), NULL_LSN, &LogRecord::Begin);
    let batch_end = wal.end_lsn();

    state.set_error_rates(0.0, 1.0);
    state.enable();
    assert!(wal
        .commit_durable(Lsn(a1.0 + 1), Durability::Fsync)
        .is_err());
    assert_eq!(metrics.wal.extensions.get(), 1, "the sync extended first");
    assert_eq!(metrics.faults.fsync_errors.get(), 1);
    // The other record the failed sync covered fails with it.
    assert!(wal.commit_durable(batch_end, Durability::Fsync).is_err());
    assert_eq!(metrics.wal.fsyncs.get(), 1);
    assert_eq!(wal.durable_lsn(), NULL_LSN);
    state.disable();

    let b = wal.append(Tid(3), NULL_LSN, &LogRecord::Begin);
    assert_eq!(b, batch_end);
    wal.commit_durable(Lsn(b.0 + 1), Durability::Fsync).unwrap();
    assert!(wal.durable_lsn() > b);
    assert_eq!(
        metrics.wal.extensions.get(),
        1,
        "the next sync reused the room"
    );
    let end = wal.end_lsn();
    drop(wal);

    let len = std::fs::metadata(&path).unwrap().len();
    assert!(len > end.0, "the zeros stay until a clean close or reopen");
    let wal = Wal::open(&path).unwrap();
    assert_eq!(wal.end_lsn(), end);
    let lsns: Vec<_> = wal
        .iter_from(NULL_LSN)
        .unwrap()
        .map(|e| e.unwrap().lsn)
        .collect();
    assert_eq!(lsns, [a1, a2, b]);
}
