//! Read fan-out across WAL-shipped replicas.
//!
//! One primary takes a steady trickle of autocommit UPDATEs while
//! readers issue `BEGIN AS OF now` point-in-time scans. The sweep is
//! the classic fan-out experiment: a fixed pool of readers is attached
//! to *each* read endpoint — the primary alone (0 replicas, the
//! baseline every read-scaling claim is measured against), then 1 and
//! 2 WAL-shipped replicas. Each replica serves reads from its own
//! buffer pool against its own shipped log, so every endpoint added
//! admits another full reader pool without touching the primary's
//! write path; aggregate read throughput should grow with the endpoint
//! count until the machine itself saturates.
//!
//! Caveat: the whole topology runs in one process, so on a single-core
//! host every node time-shares the same CPU and the sweep measures
//! topology overhead instead of scaling — interpret the ratio together
//! with the core count (EXPERIMENTS.md records both).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use immortaldb::{Database, DbConfig, Durability, Session};
use immortaldb_chaos::TempDir;
use immortaldb_net::{Client, Server, ServerConfig};
use immortaldb_repl::{Replica, ReplicaConfig};

use crate::harness::{now_ms, summarize, timed_clients};
use crate::report::{Cell, Report, Table};

const ROWS: i64 = 256;

/// One measured fan-out configuration.
#[derive(Debug, Clone)]
pub struct ReplRow {
    pub replicas: usize,
    /// Total readers (a fixed pool per read endpoint).
    pub readers: usize,
    pub reads: u64,
    /// Reads per second over the measured window.
    pub throughput: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    /// Writes the primary absorbed during the measured window.
    pub writes: u64,
}

fn run_one(replicas: usize, readers_per_endpoint: usize, reads_per_reader: u64) -> ReplRow {
    let dir = TempDir::new("bench-repl");
    let db = Arc::new(
        Database::open(
            DbConfig::new(dir.path())
                .pool_pages(4 * 1024)
                .durability(Durability::Buffered),
        )
        .expect("open bench db"),
    );
    {
        let mut s = Session::new(&db);
        s.execute("CREATE IMMORTAL TABLE kv (k INT PRIMARY KEY, v INT)")
            .expect("create table");
        s.execute("BEGIN TRAN").expect("begin seed");
        for k in 0..ROWS {
            s.execute(&format!("INSERT INTO kv VALUES ({k}, 0)"))
                .expect("seed row");
        }
        s.execute("COMMIT").expect("commit seed");
    }
    // Primary workers: one per potential local reader, plus the writer
    // connection and one per replica, whose shipping steps run on them.
    let server = Server::start(
        Arc::clone(&db),
        ServerConfig::new("127.0.0.1:0").workers(readers_per_endpoint + replicas + 2),
    )
    .expect("start primary server");
    let primary_addr = server.local_addr().to_string();

    let replica_dirs: Vec<TempDir> = (0..replicas)
        .map(|_| TempDir::new("bench-replica"))
        .collect();
    let mut followers = Vec::new();
    let mut endpoints = Vec::new();
    for dir in &replica_dirs {
        let r = Replica::start(ReplicaConfig::new(dir.path(), primary_addr.clone()))
            .expect("start replica");
        let srv = Server::start(
            Arc::clone(r.db()),
            ServerConfig::new("127.0.0.1:0").workers(readers_per_endpoint),
        )
        .expect("start replica server");
        endpoints.push(srv.local_addr().to_string());
        followers.push((r, srv));
    }
    if endpoints.is_empty() {
        endpoints.push(primary_addr.clone());
    }
    let readers = readers_per_endpoint * endpoints.len();

    // Background writer: the replicas must be *applying* while serving,
    // not following an idle log.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let addr = primary_addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("writer connect");
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let k = i as i64 % ROWS;
                c.query(&format!("UPDATE kv SET v = {i} WHERE k = {k}"))
                    .expect("writer update");
                i += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i
        })
    };

    // Each reader connects to its endpoint before the clock starts.
    let (results, secs) = timed_clients(readers, |w, start| {
        let mut c = Client::connect(&endpoints[w % endpoints.len()]).expect("reader connect");
        let mut lat = Vec::with_capacity(reads_per_reader as usize);
        start.wait();
        for i in 0..reads_per_reader {
            let k = (w as u64 * 31 + i) as i64 % ROWS;
            let t0 = Instant::now();
            c.begin_as_of_ms(now_ms()).expect("begin as of");
            // A full historical scan plus a point read: enough
            // server-side work per request that the endpoint's
            // capacity — not the client round trip — is what
            // the sweep measures.
            c.query("SELECT * FROM kv").expect("as of scan");
            c.query(&format!("SELECT * FROM kv WHERE k = {k}"))
                .expect("as of read");
            c.commit().expect("close as of");
            lat.push(t0.elapsed().as_micros() as u64);
        }
        lat
    });

    stop.store(true, Ordering::Relaxed);
    let writes = writer.join().expect("writer join");

    let (reads, p50_us, p99_us) = summarize(results.concat());

    for (r, srv) in followers {
        srv.shutdown().expect("replica server shutdown");
        r.stop();
    }
    server.shutdown().expect("primary shutdown");
    ReplRow {
        replicas,
        readers,
        reads,
        throughput: reads as f64 / secs,
        p50_us,
        p99_us,
        writes,
    }
}

/// Sweep the read fan-out: a fixed reader pool per endpoint, against
/// the primary alone, then 1 and 2 replicas, with the same write
/// trickle throughout.
pub fn run(quick: bool) -> Vec<ReplRow> {
    let readers_per_endpoint = 3usize;
    let per_reader: u64 = if quick { 150 } else { 1000 };
    [0usize, 1, 2]
        .iter()
        .map(|&replicas| run_one(replicas, readers_per_endpoint, per_reader))
        .collect()
}

pub fn report(rows: &[ReplRow]) -> Report {
    let cells = rows
        .iter()
        .map(|r| {
            vec![
                r.replicas.into(),
                r.readers.into(),
                r.reads.into(),
                Cell::fixed(r.throughput, 0),
                r.p50_us.into(),
                r.p99_us.into(),
                r.writes.into(),
            ]
        })
        .collect();
    let table = Table::new(
        "repl — AS OF read fan-out across WAL-shipped replicas",
        [
            "replicas",
            "readers",
            "reads",
            "reads/s",
            "p50 us",
            "p99 us",
            "writes absorbed",
        ],
        cells,
    );
    let one = rows.iter().find(|r| r.replicas == 1);
    let table = match (one, rows.iter().find(|r| r.replicas == 2)) {
        (Some(one), Some(two)) => table.note(format!(
            "  2 replicas: {:.0} reads/s = {:.2}x of 1 replica",
            two.throughput,
            two.throughput / one.throughput
        )),
        _ => table,
    };
    Report::default().table(table)
}
