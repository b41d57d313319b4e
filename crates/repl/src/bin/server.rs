//! `immortaldb-server` — serve one database over the wire protocol,
//! as a primary or as a read replica.
//!
//! ```text
//! immortaldb-server [--dir DIR] [--addr HOST:PORT] [--workers N]
//!                   [--max-connections N] [--idle-timeout-secs N]
//!                   [--buffered] [--sentinel] [--replica-of HOST:PORT]
//! ```
//!
//! Commits are fsync-durable by default (group commit amortizes the log
//! forces across connections); `--buffered` trades durability for speed.
//!
//! Thousands of mostly-idle connections share `--workers + 1` threads:
//! `--workers` is how many requests may execute (and block) at once.
//! A result set leaves in chunks as it is read, however large it is; a
//! client that stops reading one holds its thread until it has been
//! silent for `--idle-timeout-secs`, the same patience an idle session
//! gets, and is then disconnected and rolled back.
//!
//! `--sentinel` arms the always-on isolation checker: every commit and
//! snapshot read streams through a lock-free tap into an online checker
//! (`check.*` in SHOW STATS). On shutdown the server prints the
//! sentinel's report and exits non-zero if any violation was confirmed.
//!
//! With `--replica-of`, the server bootstraps a replica of the given
//! primary into `--dir` (shipping its WAL over the replication frames),
//! keeps following it, and serves read-only sessions: `BEGIN AS OF` reads
//! up to the replication horizon work exactly as on the primary; writes
//! are rejected with the typed READ_ONLY error.
//!
//! The server runs until stdin closes or a `quit` line arrives, then
//! shuts down gracefully: in-flight commits drain, abandoned transactions
//! roll back, and the database closes with a final WAL force so the next
//! open replays nothing.

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use immortaldb::{Database, DbConfig, Durability, EventTap, Sentinel};
use immortaldb_net::{Server, ServerConfig};
use immortaldb_repl::{Replica, ReplicaConfig};

fn main() -> ExitCode {
    let mut dir = "immortal-data".to_string();
    let mut addr = "127.0.0.1:5433".to_string();
    let mut workers = 8usize;
    let mut max_connections = 4096usize;
    let mut idle_secs = 300u64;
    let mut durability = Durability::Fsync;
    let mut arm_sentinel = false;
    let mut replica_of: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--dir" => dir = take("--dir"),
            "--addr" => addr = take("--addr"),
            "--workers" => workers = take("--workers").parse().expect("--workers: number"),
            "--idle-timeout-secs" => {
                idle_secs = take("--idle-timeout-secs")
                    .parse()
                    .expect("--idle-timeout-secs: number")
            }
            "--max-connections" => {
                max_connections = take("--max-connections")
                    .parse()
                    .expect("--max-connections: number")
            }
            "--buffered" => durability = Durability::Buffered,
            "--sentinel" => arm_sentinel = true,
            "--replica-of" => replica_of = Some(take("--replica-of")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: immortaldb-server [--dir DIR] [--addr HOST:PORT] [--workers N] \
                     [--max-connections N] [--idle-timeout-secs N] [--buffered] [--sentinel] \
                     [--replica-of HOST:PORT]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let tap = arm_sentinel.then(|| EventTap::new(1 << 16));
    let (db, replica): (Arc<Database>, Option<Replica>) = match &replica_of {
        Some(primary) => {
            let mut rcfg = ReplicaConfig::new(&dir, primary.clone());
            if let Some(tap) = &tap {
                rcfg = rcfg.sentinel(Arc::clone(tap));
            }
            match Replica::start(rcfg) {
                Ok(r) => (Arc::clone(r.db()), Some(r)),
                Err(e) => {
                    eprintln!("failed to start replica of {primary} at {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            let mut dcfg = DbConfig::new(&dir).durability(durability);
            if let Some(tap) = &tap {
                dcfg = dcfg.sentinel(Arc::clone(tap));
            }
            match Database::open(dcfg) {
                Ok(db) => (Arc::new(db), None),
                Err(e) => {
                    eprintln!("failed to open database at {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let sentinel = tap
        .as_ref()
        .map(|tap| Sentinel::spawn(Arc::clone(tap), db.metrics().clone()));

    let cfg = ServerConfig::new(addr)
        .workers(workers)
        .max_connections(max_connections)
        .idle_timeout(Duration::from_secs(idle_secs));
    let server = match Server::start(db, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let role = match &replica_of {
        Some(p) => format!("replica of {p}"),
        None => "primary".to_string(),
    };
    eprintln!(
        "immortaldb-server listening on {} (dir: {dir}, workers: {workers}, {role}); \
         type 'quit' or close stdin to stop",
        server.local_addr()
    );

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim().eq_ignore_ascii_case("quit") => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }

    eprintln!("shutting down...");
    if let Some(r) = replica {
        r.stop();
    }
    let clean = match server.shutdown() {
        Ok(()) => true,
        Err(e) => {
            eprintln!("shutdown error: {e}");
            false
        }
    };
    let mut verified = true;
    if let Some(s) = sentinel {
        let report = s.stop();
        eprintln!(
            "sentinel: {} events, {} reads checked, {} commits checked, \
             {} unverifiable, {} dropped, {} violations",
            report.events,
            report.reads_checked,
            report.commits_checked,
            report.unverifiable,
            report.dropped,
            report.violation_count,
        );
        for v in &report.violations {
            eprintln!("sentinel violation: {v}");
        }
        verified = report.violation_count == 0;
    }
    if clean && verified {
        eprintln!("clean shutdown");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
