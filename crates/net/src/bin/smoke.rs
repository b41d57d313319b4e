//! `net-smoke` — the CI "serve" stage, in one process.
//!
//! Opens a fresh store, starts the wire server on an ephemeral port,
//! drives a mixed workload from several concurrent `net::Client`s
//! (autocommit writes, explicit transactions, AS OF reads, a parse error
//! checking the byte offset, a scan streamed in several chunks, none of
//! its rows decoded on the server, and checked against the in-process
//! answer), shuts the server down gracefully, then
//! reopens the store and verifies the shutdown was clean: recovery must
//! replay nothing (`recovery.crash_recoveries` stays 0) and the data must
//! survive.
//!
//! The isolation sentinel is armed for the whole run: every commit and
//! every snapshot/AS OF read streams through the event tap, and the run
//! FAILS if the checker confirms a single snapshot-isolation violation.
//! Exits non-zero on any failure.
//!
//! `SMOKE_WORKERS` sets `ServerConfig::workers` (default: one per
//! client). CI runs the mix a second time with `SMOKE_WORKERS=1` — two
//! serving threads, the tightest case for the loop's hand-off rules —
//! under a wall-clock timeout.

use std::process::ExitCode;
use std::sync::Arc;
use std::thread;

use immortaldb::{Database, DbConfig, Durability, EventTap, Sentinel, Session, Value};
use immortaldb_common::Error;
use immortaldb_net::{Client, Server, ServerConfig};

const CLIENTS: usize = 4;
const ROWS_PER_CLIENT: i32 = 25;
/// Rows of the table scanned in chunks: some 270 KB of result.
const WIDE_ROWS: i32 = 150;

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("net-smoke: PASS");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("net-smoke: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

fn retry<T>(mut f: impl FnMut() -> immortaldb_common::Result<T>) -> immortaldb_common::Result<T> {
    loop {
        match f() {
            Err(e) if e.is_transient() => continue,
            other => return other,
        }
    }
}

fn run() -> immortaldb_common::Result<()> {
    let dir = std::env::var("SMOKE_DIR")
        .map(Into::into)
        .unwrap_or_else(|_| {
            std::env::temp_dir().join(format!("immortal-net-smoke-{}", std::process::id()))
        });
    let _ = std::fs::remove_dir_all(&dir);

    let tap = EventTap::new(1 << 16);
    let db = Arc::new(Database::open(
        DbConfig::new(&dir)
            .durability(Durability::Fsync)
            .sentinel(Arc::clone(&tap)),
    )?);
    let sentinel = Sentinel::spawn(Arc::clone(&tap), db.metrics().clone());
    let workers = std::env::var("SMOKE_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(CLIENTS);
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig::new("127.0.0.1:0").workers(workers),
    )?;
    let addr = server.local_addr();
    println!("net-smoke: serving on {addr} (workers = {workers})");

    let mut admin = Client::connect(addr)?;
    admin.query("CREATE IMMORTAL TABLE smoke (id INT PRIMARY KEY, worker INT, v VARCHAR(32))")?;

    // A parse error must come back typed, with the byte offset.
    match admin.query("SELECT * FORM smoke") {
        Err(Error::Remote {
            offset: Some(9), ..
        }) => {}
        other => {
            return Err(Error::Internal(format!(
                "expected parse error at byte 9 over the wire, got {other:?}"
            )))
        }
    }

    let handles: Vec<_> = (0..CLIENTS)
        .map(|w| {
            thread::spawn(move || -> immortaldb_common::Result<()> {
                let mut c = Client::connect(addr)?;
                for i in 0..ROWS_PER_CLIENT {
                    let id = w as i32 * 1000 + i;
                    // Autocommit write.
                    retry(|| c.query(&format!("INSERT INTO smoke VALUES ({id}, {w}, 'v0')")))?;
                    // Explicit transaction: update then commit.
                    let commit_ts = retry(|| {
                        if c.in_transaction() {
                            c.rollback()?;
                        }
                        c.query("BEGIN TRAN")?;
                        c.query(&format!("UPDATE smoke SET v = 'v1' WHERE id = {id}"))?;
                        c.commit()
                    })?;
                    // AS OF read at the commit timestamp sees the update:
                    // an acknowledged commit is inside the visibility
                    // horizon, so the AS OF instant is not clamped below it.
                    if i % 5 == 0 {
                        c.begin_as_of_ts(commit_ts)?;
                        let rows = c.query(&format!("SELECT v FROM smoke WHERE id = {id}"))?;
                        c.commit()?;
                        let eff = c.snapshot();
                        if eff != Some(commit_ts) {
                            return Err(Error::Internal(format!(
                                "AS OF own commit {commit_ts:?} was clamped to {eff:?}"
                            )));
                        }
                        if rows.rows != vec![vec![Value::Varchar("v1".into())]] {
                            return Err(Error::Internal(format!(
                                "AS OF read at {commit_ts:?} saw {:?}",
                                rows.rows
                            )));
                        }
                    }
                }
                Ok(())
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked")?;
    }

    // Group commit must have engaged across connections, observable over
    // the wire via SHOW STATS.
    let stats = admin.query("SHOW STATS")?;
    let metric = |name: &str| -> i64 {
        stats
            .rows
            .iter()
            .find(|r| r[0] == Value::Varchar(name.into()))
            .map(|r| match r[1] {
                Value::BigInt(v) => v,
                _ => 0,
            })
            .unwrap_or(0)
    };
    let expect_rows = (CLIENTS as i64) * (ROWS_PER_CLIENT as i64);
    println!(
        "net-smoke: {} requests ({} inline, {} loop hand-offs), {} group commits, {} fsyncs",
        metric("server.requests"),
        metric("server.requests_inline"),
        metric("server.loop_handoffs"),
        metric("wal.group_commits"),
        metric("wal.fsyncs"),
    );

    let count = admin.query("SELECT id FROM smoke")?;
    if count.rows.len() as i64 != expect_rows {
        return Err(Error::Internal(format!(
            "expected {expect_rows} rows before shutdown, found {}",
            count.rows.len()
        )));
    }

    // A result of several chunks reaches the client frame by frame and
    // is, row for row, what the engine answers in-process.
    let fold = |(n, sum): (u64, u64), row: &[Value]| {
        // FNV-1a over the row's text.
        let text = row.iter().map(|v| format!("{v}|")).collect::<String>();
        let sum = text
            .bytes()
            .fold(sum, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
        (n + 1, sum)
    };
    let start = (0, 0xcbf2_9ce4_8422_2325);
    admin.query("CREATE IMMORTAL TABLE wide (id INT PRIMARY KEY, pad VARCHAR(1800))")?;
    let values: Vec<String> = (0..WIDE_ROWS)
        .map(|id| format!("({id}, '{id:x>1800}')"))
        .collect();
    admin.query(&format!("INSERT INTO wide VALUES {}", values.join(", ")))?;
    let stat = |db: &Database, name: &str| db.metrics_snapshot().get(name).unwrap_or(0);
    let (chunks_before, decoded_before) = (
        stat(&db, "server.row_chunks"),
        stat(&db, "sql.rows_decoded"),
    );
    let mut streamed = start;
    admin.query_rows("SELECT * FROM wide", |row| streamed = fold(streamed, row))?;
    let chunks = stat(&db, "server.row_chunks") - chunks_before;
    let decoded = stat(&db, "sql.rows_decoded") - decoded_before;
    let local = Session::new(&db).execute("SELECT * FROM wide")?;
    let expected = local.rows.iter().fold(start, |acc, row| fold(acc, row));
    println!(
        "net-smoke: {} rows streamed in {chunks} chunks, {decoded} decoded on the server, \
         checksum {:016x}",
        streamed.0, streamed.1
    );
    if streamed != expected || streamed.0 != WIDE_ROWS as u64 {
        return Err(Error::Internal(format!(
            "streamed scan {streamed:?} differs from the in-process answer {expected:?}"
        )));
    }
    if chunks <= 1 {
        return Err(Error::Internal(format!(
            "a {}-row scan of wide rows left in {chunks} chunk(s)",
            streamed.0
        )));
    }
    // Rows leave as they are stored: the server decoded none of them.
    if decoded != 0 {
        return Err(Error::Internal(format!(
            "the server decoded {decoded} rows of a {}-row SELECT *",
            streamed.0
        )));
    }

    // The sentinel watched the whole run: it must have processed events
    // and confirmed no isolation violation.
    let report = sentinel.stop();
    println!(
        "net-smoke: sentinel checked {} events ({} reads, {} commits, {} unverifiable, {} dropped)",
        report.events,
        report.reads_checked,
        report.commits_checked,
        report.unverifiable,
        report.dropped,
    );
    if report.violation_count != 0 {
        return Err(Error::Internal(format!(
            "sentinel confirmed {} isolation violations: {:?}",
            report.violation_count, report.violations
        )));
    }
    if report.events == 0 {
        return Err(Error::Internal(
            "sentinel was armed but saw no events".into(),
        ));
    }

    drop(admin);
    server.shutdown()?;

    // Clean-shutdown check: reopening must not be a crash recovery, and
    // the data must still be there.
    let db = Database::open(DbConfig::new(&dir).durability(Durability::Fsync))?;
    let crash = db.metrics_snapshot().get("recovery.crash_recoveries");
    if crash != Some(0) {
        return Err(Error::Internal(format!(
            "graceful shutdown was not clean: crash_recoveries = {crash:?}"
        )));
    }
    let mut session = Session::new(&db);
    let rows = session.execute("SELECT id, v FROM smoke")?;
    if rows.rows.len() as i64 != expect_rows {
        return Err(Error::Internal(format!(
            "expected {expect_rows} rows after reopen, found {}",
            rows.rows.len()
        )));
    }
    if rows
        .rows
        .iter()
        .any(|r| r[1] != Value::Varchar("v1".into()))
    {
        return Err(Error::Internal("a committed update was lost".into()));
    }
    db.close()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
