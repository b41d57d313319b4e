//! `serve-scale` — the CI connection-scaling stage, in one process.
//!
//! Opens a fresh store, starts the server on a small fixed thread
//! budget, then connects 500 clients (override with
//! `SCALE_CONNS`) of which ≥90% sit idle while the rest drive a mixed
//! load (autocommit writes, explicit transactions, snapshot reads, AS OF
//! reads). The isolation sentinel is armed for the whole run.
//!
//! The run FAILS if:
//! * any connection is shed or errors (the cap is set above the fleet),
//! * any parked connection stops answering when poked at the end,
//! * the server runs on anything but its fixed budget of `WORKERS + 1`
//!   serving threads, or the process thread count grows with the fleet,
//! * the poll loop never changed hands (every commit here waits for an
//!   fsync, so it must have),
//! * resident memory exceeds a hard bound,
//! * the sentinel confirms a single isolation violation, or saw nothing.

use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::{SystemTime, UNIX_EPOCH};

use immortaldb::{Database, DbConfig, Durability, EventTap, Sentinel, Value};
use immortaldb_common::Error;
use immortaldb_net::{Client, Server, ServerConfig};

const WORKERS: usize = 4;
const ACTIVE: usize = 50;
const ROUNDS: i32 = 20;
const MAX_RSS_MIB: u64 = 768;
const MAX_THREADS: u64 = 96;

fn main() -> ExitCode {
    match run() {
        Ok(()) => {
            println!("serve-scale: PASS");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve-scale: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .count()
}

/// Read a numeric field (kB for VmRSS) from /proc/self/status.
fn proc_status(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let rest = rest.trim_start_matches(':').trim();
            return rest.split_whitespace().next()?.parse().ok();
        }
    }
    None
}

fn run() -> immortaldb_common::Result<()> {
    let conns: usize = std::env::var("SCALE_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500);
    let dir = std::env::var("SCALE_DIR")
        .map(Into::into)
        .unwrap_or_else(|_| {
            std::env::temp_dir().join(format!("immortal-serve-scale-{}", std::process::id()))
        });
    let _ = std::fs::remove_dir_all(&dir);

    let tap = EventTap::new(1 << 18);
    let db = Arc::new(Database::open(
        DbConfig::new(&dir)
            .durability(Durability::Fsync)
            .sentinel(Arc::clone(&tap)),
    )?);
    let sentinel = Sentinel::spawn(Arc::clone(&tap), db.metrics().clone());
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig::new("127.0.0.1:0")
            .workers(WORKERS)
            .max_connections(conns * 2),
    )?;
    let addr = server.local_addr();
    println!(
        "serve-scale: serving on {addr} ({WORKERS} workers, {} serving threads)",
        WORKERS + 1
    );

    let mut admin = Client::connect(addr)?;
    admin.query("CREATE IMMORTAL TABLE scale (id INT PRIMARY KEY, worker INT, v BIGINT)")?;

    // The idle fleet: connect, handshake, park. The server must hold
    // them all on its fixed thread budget.
    let mut idle = Vec::with_capacity(conns - ACTIVE);
    for _ in 0..conns.saturating_sub(ACTIVE) {
        idle.push(Client::connect(addr)?);
    }
    let open = db.metrics().server.open_connections.get();
    if (open as usize) < conns - ACTIVE {
        return Err(Error::Internal(format!(
            "expected ≥{} open connections, server sees {open}",
            conns - ACTIVE
        )));
    }
    let threads = proc_status("Threads").unwrap_or(0);
    println!("serve-scale: {open} connections open, {threads} process threads");
    if threads > MAX_THREADS {
        return Err(Error::Internal(format!(
            "{threads} threads for {open} connections — threads scale with the fleet \
             (bound: {MAX_THREADS})"
        )));
    }
    let serving = threads_named("imdb-serve-");
    if serving != WORKERS + 1 && std::path::Path::new("/proc/self/task").exists() {
        return Err(Error::Internal(format!(
            "{serving} serving threads, the budget is workers + 1 = {}",
            WORKERS + 1
        )));
    }

    // Mixed load from the active minority while the fleet idles.
    let handles: Vec<_> = (0..ACTIVE)
        .map(|w| {
            thread::spawn(move || -> immortaldb_common::Result<()> {
                let mut c = Client::connect(addr)?;
                for i in 0..ROUNDS {
                    let id = (w as i32) * 1000 + i;
                    c.query_with_backoff(&format!("INSERT INTO scale VALUES ({id}, {w}, 0)"), 32)?;
                    // Explicit transaction with a snapshot read inside.
                    loop {
                        if c.in_transaction() {
                            c.rollback()?;
                        }
                        c.query("BEGIN TRAN ISOLATION SNAPSHOT")?;
                        let r = (|| {
                            c.query(&format!("SELECT v FROM scale WHERE id = {id}"))?;
                            c.query(&format!(
                                "UPDATE scale SET v = {} WHERE id = {id}",
                                i as i64 + 1
                            ))?;
                            c.commit()
                        })();
                        match r {
                            Ok(_) => break,
                            Err(e) if e.is_transient() => continue,
                            Err(Error::ServerBusy { .. }) => continue,
                            Err(e) => return Err(e),
                        }
                    }
                    // Occasional historical read at "now".
                    if i % 7 == 0 {
                        let ms = SystemTime::now()
                            .duration_since(UNIX_EPOCH)
                            .unwrap()
                            .as_millis() as u64;
                        c.begin_as_of_ms(ms)?;
                        c.query(&format!("SELECT v FROM scale WHERE id = {id}"))?;
                        c.commit()?;
                    }
                }
                Ok(())
            })
        })
        .collect();
    for h in handles {
        h.join().expect("load thread panicked")?;
    }

    // The sentinel first: a read that went wrong is named at the read, not
    // as the lost update the final check would show.
    let report = sentinel.stop();
    println!(
        "serve-scale: sentinel checked {} events ({} reads, {} commits, {} unverifiable, {} dropped)",
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
    if report.events == 0 || report.reads_checked == 0 {
        return Err(Error::Internal(
            "sentinel was armed but checked nothing".into(),
        ));
    }

    let rss_kib = proc_status("VmRSS").unwrap_or(0);
    let threads = proc_status("Threads").unwrap_or(0);
    let snap = db.metrics_snapshot();
    let handoffs = snap.get("server.loop_handoffs").unwrap_or(0);
    println!(
        "serve-scale: after load: RSS {} MiB, {} threads, shed {} conns / {} reqs, \
         {} of {} requests inline, {handoffs} loop hand-offs (wait {} / long {} / batch {})",
        rss_kib / 1024,
        threads,
        db.metrics().server.shed_connections.get(),
        db.metrics().server.shed_requests.get(),
        snap.get("server.requests_inline").unwrap_or(0),
        snap.get("server.requests").unwrap_or(0),
        snap.get("server.loop_handoffs_wait").unwrap_or(0),
        snap.get("server.loop_handoffs_long").unwrap_or(0),
        snap.get("server.loop_handoffs_batch").unwrap_or(0),
    );
    if handoffs == 0 {
        return Err(Error::Internal(
            "server.loop_handoffs = 0: fsync commits ran without the loop changing hands".into(),
        ));
    }
    if rss_kib / 1024 > MAX_RSS_MIB {
        return Err(Error::Internal(format!(
            "RSS {} MiB exceeds the {MAX_RSS_MIB} MiB bound",
            rss_kib / 1024
        )));
    }
    if threads > MAX_THREADS {
        return Err(Error::Internal(format!(
            "{threads} threads after load (bound: {MAX_THREADS})"
        )));
    }

    // Every parked connection must still answer.
    for (i, c) in idle.iter_mut().enumerate() {
        let r = c.query("SELECT id FROM scale WHERE id = 0")?;
        if r.rows.is_empty() {
            return Err(Error::Internal(format!(
                "idle connection {i} got an empty answer for a committed row"
            )));
        }
    }

    let expect = (ACTIVE as i64) * (ROUNDS as i64);
    let count = admin.query("SELECT id FROM scale")?;
    if count.rows.len() as i64 != expect {
        return Err(Error::Internal(format!(
            "expected {expect} rows, found {}",
            count.rows.len()
        )));
    }
    // Sanity: row w*1000+i was inserted at 0 then updated once to i+1.
    let vals = admin.query("SELECT id, v FROM scale")?;
    for r in &vals.rows {
        let (Value::Int(id), Value::BigInt(v)) = (&r[0], &r[1]) else {
            return Err(Error::Internal(format!("unexpected row shape {r:?}")));
        };
        let want = (*id as i64 % 1000) + 1;
        if *v != want {
            return Err(Error::Internal(format!(
                "row {id}: expected v = {want}, found {v} — an update was lost"
            )));
        }
    }

    drop(idle);
    drop(admin);
    server.shutdown()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
