//! Replication stream chaos: kill the wire mid-batch, assert the
//! follower reconnects with backoff and converges anyway.
//!
//! The replica connects to the primary through an in-test TCP proxy.
//! After bootstrap, the proxy repeatedly severs every live connection
//! while a writer keeps committing on the primary — the follower loses
//! batches mid-socket, resubscribes from its local log end (the
//! replication position *is* the log position, so nothing is lost or
//! doubled), and must end up byte-identical with the primary. The
//! `repl.reconnects` counter proves the failure path actually ran.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use immortaldb::{Database, DbConfig, Durability, Isolation, Value};
use immortaldb_chaos::TempDir;
use immortaldb_net::{Server, ServerConfig};
use immortaldb_obs::MetricsRegistry;
use immortaldb_repl::{Replica, ReplicaConfig};

/// A dumb TCP proxy whose connections can all be severed on demand.
struct ChaosProxy {
    addr: String,
    live: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
}

impl ChaosProxy {
    fn start(upstream: String) -> ChaosProxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let live: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        {
            let live = Arc::clone(&live);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for inbound in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(inbound) = inbound else { continue };
                    let Ok(outbound) = TcpStream::connect(&upstream) else {
                        continue;
                    };
                    let _ = inbound.set_nodelay(true);
                    let _ = outbound.set_nodelay(true);
                    {
                        let mut l = live.lock().unwrap();
                        l.push(inbound.try_clone().unwrap());
                        l.push(outbound.try_clone().unwrap());
                    }
                    pump(inbound.try_clone().unwrap(), outbound.try_clone().unwrap());
                    pump(outbound, inbound);
                }
            });
        }
        ChaosProxy { addr, live, stop }
    }

    /// Sever every live proxied connection mid-stream.
    fn kill_all(&self) {
        let mut l = self.live.lock().unwrap();
        for s in l.drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.kill_all();
        // Unblock the accept loop.
        let _ = TcpStream::connect(&self.addr);
    }
}

fn pump(mut from: TcpStream, mut to: TcpStream) {
    std::thread::spawn(move || {
        let mut buf = [0u8; 8 * 1024];
        loop {
            match from.read(&mut buf) {
                Ok(0) | Err(_) => {
                    let _ = to.shutdown(std::net::Shutdown::Both);
                    return;
                }
                Ok(n) => {
                    if to.write_all(&buf[..n]).is_err() {
                        let _ = from.shutdown(std::net::Shutdown::Both);
                        return;
                    }
                }
            }
        }
    });
}

fn write_round(db: &Database, base: i64) {
    let mut txn = db.begin(Isolation::Serializable);
    for k in 0..4i64 {
        let row = vec![Value::Int(k as i32), Value::BigInt(base + k)];
        if base == 0 {
            db.insert_row(&mut txn, "kv", row).unwrap();
        } else {
            db.update_row(&mut txn, "kv", row).unwrap();
        }
    }
    db.commit(&mut txn).unwrap();
}

fn scan_sorted(db: &Database) -> Vec<Vec<Value>> {
    let mut txn = db.begin(Isolation::Serializable);
    let mut rows = db.scan_rows(&mut txn, "kv").unwrap();
    db.commit(&mut txn).unwrap();
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

#[test]
fn follower_survives_severed_streams_and_converges() {
    let (primary_dir, replica_dir) = (TempDir::new("repl-chaos"), TempDir::new("repl-chaos"));
    let db = Arc::new(
        Database::open(DbConfig::new(&primary_dir).durability(Durability::Buffered)).unwrap(),
    );
    let schema = immortaldb::Schema::new(
        vec![
            immortaldb::Column {
                name: "k".into(),
                ctype: immortaldb::ColType::Int,
            },
            immortaldb::Column {
                name: "v".into(),
                ctype: immortaldb::ColType::BigInt,
            },
        ],
        0,
    )
    .unwrap();
    db.create_table("kv", schema, immortaldb::TableKind::Immortal)
        .unwrap();
    write_round(&db, 0);

    let server =
        Server::start(Arc::clone(&db), ServerConfig::new("127.0.0.1:0").workers(4)).unwrap();
    let proxy = ChaosProxy::start(server.local_addr().to_string());

    // Fast backoff so the test converges quickly; private registry so
    // the reconnect counter is unambiguous.
    let metrics = MetricsRegistry::default();
    let replica = Replica::start(
        ReplicaConfig::new(replica_dir.path(), proxy.addr.clone())
            .backoff(Duration::from_millis(20), Duration::from_millis(200))
            .metrics(metrics.clone()),
    )
    .unwrap();

    // Writer load with the proxy repeatedly severing connections under
    // it: batches die mid-socket, acks are lost, subscriptions break.
    let mut last_ts = None;
    for round in 1..=30i64 {
        write_round(&db, round * 100);
        let mut txn = db.begin(Isolation::Serializable);
        db.scan_rows(&mut txn, "kv").unwrap();
        last_ts = Some(db.commit(&mut txn).unwrap());
        if round % 5 == 0 {
            proxy.kill_all();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let last_ts = last_ts.unwrap();

    // Convergence despite the chaos: the replica horizon must pass the
    // last commit within a bounded time.
    let deadline = Instant::now() + Duration::from_secs(60);
    while replica.horizon() < last_ts {
        assert!(
            Instant::now() < deadline,
            "follower failed to converge after stream kills (horizon {:?})",
            replica.horizon()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    assert!(
        metrics.repl.reconnects.get() >= 1,
        "the stream was never actually severed — chaos did not engage"
    );

    // Byte-level agreement: the replica's log is a prefix of the
    // primary's, and the visible table state matches exactly.
    assert_eq!(scan_sorted(replica.db()), scan_sorted(&db));
    let rdb = replica.stop();
    assert!(rdb.wal().end_lsn() <= db.wal().end_lsn());

    proxy.stop();
    server.shutdown().unwrap();
}
