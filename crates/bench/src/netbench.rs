//! Multi-client commit throughput over the wire protocol.
//!
//! N TCP clients drive one `immortaldb-net` server: each client issues
//! autocommit single-row INSERTs (disjoint keys — pure commit-path
//! contention) with a sprinkling of AS OF historical reads, the mix a
//! transaction-time server actually sees. Measured per configuration:
//! commit throughput, client-observed p50/p99 commit latency, and the
//! WAL's group-commit batching — the point of the experiment being that
//! the leader/follower log-force barrier batches commits *across
//! connections*, so multi-client throughput scales even though every
//! commit is fsync-durable.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use immortaldb::Value;
use immortaldb_chaos::TempDir;
use immortaldb_net::{Client, Server, ServerConfig};

use crate::group_commit::{commit_db, wal_counters, wal_since};
use crate::harness::{now_ms, summarize, timed_clients};
use crate::json::Json;
use crate::report::{Cell, Report, Table};

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct NetRow {
    pub clients: usize,
    pub grouped: bool,
    pub commits: u64,
    /// Commits per second over the measured window.
    pub throughput: f64,
    /// Client-observed commit (autocommit INSERT round-trip) latency.
    pub p50_us: u64,
    pub p99_us: u64,
    /// fsyncs issued during the measured window.
    pub fsyncs: u64,
    pub mean_batch: f64,
    /// `wal.group_commits` as reported by SHOW STATS *over the wire* —
    /// the batching is observable by any client.
    pub group_commits_over_wire: Option<u64>,
}

/// Autocommit writes kept in flight per connection (see the pipelining
/// comment in `run_one`); latency is still measured per request, send to
/// reply.
const PIPELINE_DEPTH: usize = 4;

fn run_one(clients: usize, commits_per_client: u64, grouped: bool) -> NetRow {
    let dir = TempDir::new("bench-net");
    let db = Arc::new(commit_db(&dir, grouped));
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig::new("127.0.0.1:0").workers(clients.max(1)),
    )
    .expect("start server");
    let addr = server.local_addr();
    let before = wal_counters(&db);

    let (results, secs) = timed_clients(clients, |w, start| {
        let mut c = Client::connect(addr).expect("connect");
        let mut lat = Vec::with_capacity(commits_per_client as usize);
        // Keep a few writes in flight: the reply of one commit overlaps
        // the next request, so the worker stays at the group-commit
        // barrier instead of idling a client round trip between commits.
        let mut sent: VecDeque<Instant> = VecDeque::new();
        start.wait();
        for i in 0..commits_per_client {
            let id = (w as u64 * commits_per_client + i) as i32;
            c.send_query(&format!("INSERT INTO Commits VALUES ({id}, {w})"))
                .expect("send insert");
            sent.push_back(Instant::now());
            while sent.len() >= PIPELINE_DEPTH {
                c.recv_response().expect("insert reply");
                lat.push(sent.pop_front().unwrap().elapsed().as_micros() as u64);
            }
            // Every 8th op, drain the pipeline and read the recent past
            // AS OF "now" (clamped to the visibility horizon).
            if i % 8 == 7 {
                while let Some(t) = sent.pop_front() {
                    c.recv_response().expect("insert reply");
                    lat.push(t.elapsed().as_micros() as u64);
                }
                c.begin_as_of_ms(now_ms()).expect("begin as of");
                c.query(&format!("SELECT V FROM Commits WHERE Id = {id}"))
                    .expect("as of read");
                c.commit().expect("close as of");
            }
        }
        while let Some(t) = sent.pop_front() {
            c.recv_response().expect("insert reply");
            lat.push(t.elapsed().as_micros() as u64);
        }
        lat
    });
    let (fsyncs, mean_batch) = wal_since(&db, before);
    let (commits, p50_us, p99_us) = summarize(results.concat());

    // The batching must be visible over the wire, not just in-process.
    let mut admin = Client::connect(addr).expect("connect admin");
    let stats = admin.query("SHOW STATS").expect("show stats");
    let group_commits_over_wire = stats
        .rows
        .iter()
        .find(|r| r[0] == Value::Varchar("wal.group_commits".into()))
        .and_then(|r| match r[1] {
            Value::BigInt(v) => u64::try_from(v).ok(),
            _ => None,
        });
    drop(admin);

    server.shutdown().expect("shutdown");
    NetRow {
        clients,
        grouped,
        commits,
        throughput: commits as f64 / secs,
        p50_us,
        p99_us,
        fsyncs,
        mean_batch,
        group_commits_over_wire,
    }
}

/// Run the full client sweep, grouped and per-commit fsync.
pub fn run(quick: bool) -> Vec<NetRow> {
    let per_client: u64 = if quick { 200 } else { 1500 };
    let mut rows = Vec::new();
    for &clients in &[1usize, 4, 8, 16] {
        for grouped in [false, true] {
            rows.push(run_one(clients, per_client, grouped));
        }
    }
    rows
}

pub fn report(rows: &[NetRow]) -> Report {
    let cells = rows
        .iter()
        .map(|r| {
            vec![
                r.clients.into(),
                if r.grouped { "grouped" } else { "per-commit" }.into(),
                r.commits.into(),
                Cell::fixed(r.throughput, 0),
                r.p50_us.into(),
                r.p99_us.into(),
                r.fsyncs.into(),
                Cell::fixed(r.mean_batch, 1),
            ]
        })
        .collect();
    let mut table = Table::new(
        "net — wire-protocol commit throughput (fsync durability)",
        [
            "clients",
            "mode",
            "commits",
            "commits/s",
            "p50 us",
            "p99 us",
            "fsyncs",
            "mean batch",
        ],
        cells,
    );
    let one = rows.iter().find(|r| r.clients == 1 && r.grouped);
    for &c in &[4usize, 8, 16] {
        let grp = rows.iter().find(|r| r.clients == c && r.grouped);
        if let (Some(base), Some(g)) = (one, grp) {
            table = table.note(format!(
                "  {c:>2} clients (grouped): {:.0} commits/s = {:.2}x of 1 client",
                g.throughput,
                g.throughput / base.throughput
            ));
        }
    }
    Report::default()
        .param(
            "group_commits_over_wire",
            Json::arr(rows.iter().map(|r| r.group_commits_over_wire)),
        )
        .table(table)
}
