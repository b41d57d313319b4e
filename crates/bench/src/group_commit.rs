//! Multi-threaded commit-throughput benchmark for the WAL group-commit
//! pipeline: N writer threads each committing single-row transactions,
//! grouped (leader/follower shared fsyncs) vs. per-commit fsync.
//!
//! The interesting number is commits/second at 8 writers: per-commit
//! fsync serializes the hottest path in the engine, while the barrier
//! amortizes one fsync over every committer that arrived during the
//! previous sync.

use immortaldb::{Database, DbConfig, Durability, GroupCommitConfig, Isolation, Session, Value};
use immortaldb_chaos::TempDir;

use crate::harness::timed_clients;
use crate::report::{Cell, Report, Table};

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct GcRow {
    pub writers: usize,
    pub grouped: bool,
    pub commits: u64,
    /// Commits per second over the measured window.
    pub throughput: f64,
    /// fsyncs issued during the measured window.
    pub fsyncs: u64,
    /// Mean committers per group batch (1.0 when grouping is disabled).
    pub mean_batch: f64,
}

/// A fresh fsync-durable database, group commit on or off, with an
/// empty `Commits (Id INT PRIMARY KEY, V INT)` table.
pub(crate) fn commit_db(dir: &TempDir, grouped: bool) -> Database {
    let db = Database::open(
        DbConfig::new(dir.path())
            .pool_pages(4 * 1024)
            .durability(Durability::Fsync)
            .group_commit(GroupCommitConfig { enabled: grouped }),
    )
    .expect("open bench db");
    Session::new(&db)
        .execute("CREATE IMMORTAL TABLE Commits (Id INT PRIMARY KEY, V INT)")
        .expect("create table");
    db
}

/// The WAL's fsyncs, group batches and committers in those batches so far.
pub(crate) fn wal_counters(db: &Database) -> [u64; 3] {
    let wal = &db.metrics().wal;
    let batched = wal.batch_size.snapshot().sum;
    [wal.fsyncs.get(), wal.group_commits.get(), batched]
}

/// Fsyncs and mean committers per group batch (1 without batching)
/// since `before`.
pub(crate) fn wal_since(db: &Database, before: [u64; 3]) -> (u64, f64) {
    let [fsyncs, batches, batched] = wal_counters(db);
    let (fsyncs, batches, batched) = (fsyncs - before[0], batches - before[1], batched - before[2]);
    let mean_batch = if batches > 0 {
        batched as f64 / batches as f64
    } else {
        1.0
    };
    (fsyncs, mean_batch)
}

fn run_one(writers: usize, commits_per_writer: u64, grouped: bool) -> GcRow {
    let dir = TempDir::new("bench-gc");
    let db = commit_db(&dir, grouped);
    let before = wal_counters(&db);
    let (_, secs) = timed_clients(writers, |w, start| {
        start.wait();
        for i in 0..commits_per_writer {
            // Disjoint keys per writer: pure commit-path contention, no
            // lock conflicts.
            let id = (w as u64 * commits_per_writer + i) as i32;
            let mut txn = db.begin(Isolation::Serializable);
            let row = vec![Value::Int(id), Value::Int(w as i32)];
            db.insert_row(&mut txn, "Commits", row).expect("insert");
            db.commit(&mut txn).expect("commit");
        }
    });
    let (fsyncs, mean_batch) = wal_since(&db, before);
    let commits = writers as u64 * commits_per_writer;
    GcRow {
        writers,
        grouped,
        commits,
        throughput: commits as f64 / secs,
        fsyncs,
        mean_batch,
    }
}

/// Run the full writer sweep, grouped and per-commit.
pub fn run(quick: bool) -> Vec<GcRow> {
    let per_writer: u64 = if quick { 150 } else { 500 };
    let mut rows = Vec::new();
    for &writers in &[1usize, 4, 8, 16] {
        for grouped in [false, true] {
            rows.push(run_one(writers, per_writer, grouped));
        }
    }
    rows
}

pub fn report(rows: &[GcRow]) -> Report {
    let cells = rows
        .iter()
        .map(|r| {
            vec![
                r.writers.into(),
                if r.grouped { "grouped" } else { "per-commit" }.into(),
                r.commits.into(),
                Cell::fixed(r.throughput, 0),
                r.fsyncs.into(),
                Cell::fixed(r.mean_batch, 1),
            ]
        })
        .collect();
    let mut table = Table::new(
        "group commit — commit throughput (fsync durability)",
        [
            "writers",
            "mode",
            "commits",
            "commits/s",
            "fsyncs",
            "mean batch",
        ],
        cells,
    );
    for &w in &[1usize, 4, 8, 16] {
        let per = rows.iter().find(|r| r.writers == w && !r.grouped);
        let grp = rows.iter().find(|r| r.writers == w && r.grouped);
        if let (Some(p), Some(g)) = (per, grp) {
            table = table.note(format!(
                "  {w:>2} writers: {:.0} -> {:.0} commits/s ({:.2}x)",
                p.throughput,
                g.throughput,
                g.throughput / p.throughput
            ));
        }
    }
    Report::default().table(table)
}
