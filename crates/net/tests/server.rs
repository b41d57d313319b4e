//! Integration tests for the wire-protocol server: round trips, typed
//! errors, backpressure shedding, idle-session rollback, pipelining,
//! graceful shutdown, and the adversarial-client battery (slow loris,
//! oversized frames, mid-frame disconnects) against the reactor.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use immortaldb::{Database, DbConfig, Durability, Isolation, Session, Value};
use immortaldb_common::{Error, ErrorCode};
use immortaldb_net::proto::{self, FrameBuffer, Reply, Request, VERSION};
use immortaldb_net::{Client, Server, ServerConfig, ServerModel};

/// The one reply a raw connection is owed for the request it just sent.
fn read_reply(raw: &mut TcpStream) -> std::io::Result<(u8, Vec<u8>)> {
    FrameBuffer::new().read_frame(raw, |op, payload| (op, payload.to_vec()))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("immortal-net-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(name: &str, cfg: ServerConfig) -> (Arc<Database>, Server, PathBuf) {
    let dir = scratch(name);
    let db = Arc::new(Database::open(DbConfig::new(&dir).durability(Durability::Fsync)).unwrap());
    let server = Server::start(Arc::clone(&db), cfg).unwrap();
    (db, server, dir)
}

#[test]
fn wire_round_trip_with_as_of() {
    let (db, server, dir) = start("roundtrip", ServerConfig::new("127.0.0.1:0"));
    let addr = server.local_addr();

    let mut c = Client::connect(addr).unwrap();
    c.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v VARCHAR(16))")
        .unwrap();
    let r = c.query("INSERT INTO t VALUES (1, 'old')").unwrap();
    assert_eq!(r.affected, 1);

    // Typed transaction surface returns real timestamps.
    let snap = c.begin(Isolation::Serializable).unwrap();
    c.query("UPDATE t SET v = 'new' WHERE id = 1").unwrap();
    assert!(c.in_transaction());
    let commit_ts = c.commit().unwrap();
    assert!(!c.in_transaction());
    assert!(commit_ts >= snap);

    // Current read sees the update...
    let now = c.query("SELECT v FROM t WHERE id = 1").unwrap();
    assert_eq!(now.rows, vec![vec![Value::Varchar("new".into())]]);

    // ...while an AS OF transaction pinned at the update's begin
    // snapshot (before its commit timestamp) sees the old version.
    let eff = c.begin_as_of_ts(snap).unwrap();
    assert!(eff < commit_ts);
    let old = c.query("SELECT v FROM t WHERE id = 1").unwrap();
    c.commit().unwrap();
    assert_eq!(old.rows, vec![vec![Value::Varchar("old".into())]]);

    // SHOW STATS works over the wire and includes the server counters.
    let stats = c.query("SHOW STATS").unwrap();
    let get = |name: &str| {
        stats
            .rows
            .iter()
            .find(|r| r[0] == Value::Varchar(name.into()))
            .map(|r| match r[1] {
                Value::BigInt(v) => v,
                _ => -1,
            })
    };
    assert!(get("server.requests").unwrap() > 0);
    assert_eq!(get("server.active_sessions"), Some(1));
    assert!(get("wal.group_commits").is_some());

    drop(c);
    server.shutdown().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parse_errors_carry_code_and_offset() {
    let (db, server, dir) = start("parse-err", ServerConfig::new("127.0.0.1:0"));
    let mut c = Client::connect(server.local_addr()).unwrap();

    match c.query("SELECT * FORM t") {
        Err(Error::Remote {
            code,
            offset,
            message,
        }) => {
            assert_eq!(code, ErrorCode::Parse);
            assert_eq!(offset, Some(9));
            assert!(message.contains("FROM"), "message: {message}");
        }
        other => panic!("expected remote parse error, got {other:?}"),
    }

    // Non-parse errors carry their own codes and no offset.
    match c.query("SELECT * FROM missing") {
        Err(Error::Remote { code, offset, .. }) => {
            assert_eq!(code, ErrorCode::Catalog);
            assert_eq!(offset, None);
        }
        other => panic!("expected catalog error, got {other:?}"),
    }

    drop(c);
    server.shutdown().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_is_shed_with_server_busy() {
    // Thread-per-connection baseline: one worker, no queue — the second
    // concurrent connection is shed.
    let (db, server, dir) = start(
        "busy",
        ServerConfig::new("127.0.0.1:0")
            .model(ServerModel::ThreadPerConn)
            .workers(1)
            .accept_queue(0),
    );
    let addr = server.local_addr();

    // First client occupies the only worker (its handshake completed, so
    // the worker is pinned to this connection).
    let c1 = Client::connect(addr).unwrap();

    match Client::connect(addr) {
        Err(Error::ServerBusy { retry_after_ms }) => {
            assert!(retry_after_ms.is_some(), "shed reply must carry a hint");
        }
        Err(e) => panic!("expected SERVER_BUSY, got error {e}"),
        Ok(_) => panic!("expected SERVER_BUSY, got a connection"),
    }
    assert_eq!(db.metrics().server.connections_rejected.get(), 1);
    assert_eq!(db.metrics().server.shed_connections.get(), 1);

    // Capacity frees up when the first client leaves.
    drop(c1);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut c3 = loop {
        match Client::connect(addr) {
            Ok(c) => break c,
            Err(Error::ServerBusy { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    };
    c3.query("SHOW STATS").unwrap();

    drop(c3);
    server.shutdown().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reactor_sheds_connections_over_cap_with_retry_hint() {
    let (db, server, dir) = start(
        "busy-reactor",
        ServerConfig::new("127.0.0.1:0")
            .max_connections(1)
            .shed_retry_ms(7),
    );
    let addr = server.local_addr();

    let mut c1 = Client::connect(addr).unwrap();
    c1.query("SHOW STATS").unwrap(); // ensure the reactor registered c1

    match Client::connect(addr) {
        Err(Error::ServerBusy { retry_after_ms }) => {
            assert_eq!(retry_after_ms, Some(7), "hint must be the configured one");
        }
        Err(e) => panic!("expected SERVER_BUSY, got error {e}"),
        Ok(_) => panic!("expected SERVER_BUSY, got a connection"),
    }
    assert_eq!(db.metrics().server.shed_connections.get(), 1);

    // Capacity frees up when the first client goes away.
    drop(c1);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut c3 = loop {
        match Client::connect(addr) {
            Ok(c) => break c,
            Err(Error::ServerBusy { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    };
    c3.query("SHOW STATS").unwrap();

    drop(c3);
    server.shutdown().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_sessions_are_rolled_back() {
    let (db, server, dir) = start(
        "idle",
        ServerConfig::new("127.0.0.1:0")
            .idle_timeout(Duration::from_millis(200))
            .tick(Duration::from_millis(20)),
    );
    let addr = server.local_addr();

    let mut c = Client::connect(addr).unwrap();
    c.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    c.begin(Isolation::Serializable).unwrap();
    c.query("INSERT INTO t VALUES (1, 1)").unwrap();

    // Abandon the session: the server must roll the transaction back and
    // hang up once the idle timeout elapses.
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.metrics().server.idle_rollbacks.get() == 0 {
        assert!(Instant::now() < deadline, "idle rollback never happened");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The abandoned insert is gone and its lock is released: a fresh
    // client can claim the same key immediately.
    let mut c2 = Client::connect(addr).unwrap();
    let r = c2.query("SELECT id FROM t").unwrap();
    assert!(r.rows.is_empty(), "uncommitted insert leaked: {:?}", r.rows);
    assert_eq!(c2.query("INSERT INTO t VALUES (1, 2)").unwrap().affected, 1);

    // The idle client's connection was closed server-side.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match c.query("SELECT id FROM t") {
            Err(Error::Io(_)) => break,
            Ok(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("expected closed connection, got {other:?}"),
        }
    }

    drop(c2);
    server.shutdown().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (db, server, dir) = start("pipeline", ServerConfig::new("127.0.0.1:0"));
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();

    // Fire a burst of autocommit writes without reading any replies.
    const N: usize = 32;
    for i in 0..N {
        c.send_query(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    assert_eq!(c.pending(), N);
    for _ in 0..N {
        assert_eq!(c.recv_response().unwrap().affected, 1);
    }
    assert_eq!(c.pending(), 0);

    let r = c.query("SELECT id FROM t").unwrap();
    assert_eq!(r.rows.len(), N);

    drop(c);
    server.shutdown().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hello_is_required_and_version_checked() {
    let (db, server, dir) = start("hello", ServerConfig::new("127.0.0.1:0"));
    let addr = server.local_addr();

    // Skipping HELLO: first real request is refused and the connection
    // closed.
    let mut raw = TcpStream::connect(addr).unwrap();
    let (op, payload) = Request::Query("SELECT 1".into()).encode();
    proto::write_frame(&mut raw, op, &payload).unwrap();
    let (op, payload) = read_reply(&mut raw).unwrap();
    match Reply::decode(op, &payload).unwrap() {
        Reply::Error { message, .. } => assert!(message.contains("HELLO"), "{message}"),
        other => panic!("expected error, got {other:?}"),
    }

    // Wrong protocol version: typed refusal.
    let mut raw = TcpStream::connect(addr).unwrap();
    let (op, payload) = Request::Hello {
        version: VERSION + 1,
    }
    .encode();
    proto::write_frame(&mut raw, op, &payload).unwrap();
    let (op, payload) = read_reply(&mut raw).unwrap();
    match Reply::decode(op, &payload).unwrap() {
        Reply::Error { message, .. } => {
            assert!(message.contains("version mismatch"), "{message}")
        }
        other => panic!("expected error, got {other:?}"),
    }

    server.shutdown().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_reopens_cleanly() {
    let dir = scratch("shutdown");
    let db = Arc::new(Database::open(DbConfig::new(&dir).durability(Durability::Fsync)).unwrap());
    let server = Server::start(Arc::clone(&db), ServerConfig::new("127.0.0.1:0")).unwrap();

    let mut c = Client::connect(server.local_addr()).unwrap();
    c.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..20 {
        c.query(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    // Leave a transaction open on a second connection: shutdown must roll
    // it back rather than leak it into the log as a loser.
    let mut open = Client::connect(server.local_addr()).unwrap();
    open.begin(Isolation::Serializable).unwrap();
    open.query("INSERT INTO t VALUES (999, 999)").unwrap();

    drop(c);
    server.shutdown().unwrap();
    drop(open);
    drop(db);

    // Clean reopen: no crash recovery, committed data intact, the
    // abandoned transaction's write gone.
    let db = Database::open(DbConfig::new(&dir).durability(Durability::Fsync)).unwrap();
    assert_eq!(
        db.metrics_snapshot().get("recovery.crash_recoveries"),
        Some(0),
        "graceful shutdown must not require crash recovery"
    );
    let mut s = Session::new(&db);
    let rows = s.execute("SELECT id FROM t").unwrap();
    assert_eq!(rows.rows.len(), 20);
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Adversarial clients: the reactor must share no fate with them.
// ---------------------------------------------------------------------

#[test]
fn slow_loris_partial_frames_do_not_starve_other_clients() {
    // One execution core. Eight connections each park a few header
    // bytes and go silent: under the reactor they are never dispatched,
    // so they cannot pin the core the way they would pin a worker
    // thread in the old model.
    let (db, server, dir) = start("loris", ServerConfig::new("127.0.0.1:0").workers(1));
    let addr = server.local_addr();

    let mut loris = Vec::new();
    for i in 0..8 {
        let mut s = TcpStream::connect(addr).unwrap();
        // A plausible frame header promising more bytes than we send.
        let len: u32 = 64;
        let mut partial = len.to_le_bytes().to_vec();
        partial.push(0x01); // HELLO opcode
        partial.truncate(3 + (i % 3)); // some don't even finish the header
        s.write_all(&partial).unwrap();
        loris.push(s); // keep the socket open, never complete the frame
    }

    // A well-behaved client gets served promptly regardless.
    let mut c = Client::connect(addr).unwrap();
    c.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    for i in 0..10 {
        assert_eq!(
            c.query(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap()
                .affected,
            1
        );
    }
    assert_eq!(c.query("SELECT id FROM t").unwrap().rows.len(), 10);

    drop(c);
    drop(loris);
    server.shutdown().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_frame_is_rejected_and_others_keep_serving() {
    let (db, server, dir) = start("oversize", ServerConfig::new("127.0.0.1:0"));
    let addr = server.local_addr();

    let mut victim = Client::connect(addr).unwrap();
    victim
        .query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();

    // A frame length beyond MAX_FRAME: the server hangs up without
    // allocating or replying (the stream state is untrustworthy).
    let mut hostile = TcpStream::connect(addr).unwrap();
    let huge: u32 = 64 * 1024 * 1024;
    hostile.write_all(&huge.to_le_bytes()).unwrap();
    hostile.write_all(&[0x02u8; 32]).unwrap();
    match read_reply(&mut hostile) {
        Err(_) => {}
        Ok(f) => panic!("expected hangup for oversized frame, got {f:?}"),
    }

    // Collateral damage check: the existing session still works.
    assert_eq!(
        victim
            .query("INSERT INTO t VALUES (1, 1)")
            .unwrap()
            .affected,
        1
    );

    drop(victim);
    server.shutdown().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_frame_disconnect_releases_the_session() {
    let (db, server, dir) = start(
        "midframe",
        ServerConfig::new("127.0.0.1:0").tick(Duration::from_millis(10)),
    );
    let addr = server.local_addr();

    let mut c = Client::connect(addr).unwrap();
    c.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();

    // A raw client opens a transaction, takes a lock, then dies halfway
    // through its next frame.
    let mut dying = TcpStream::connect(addr).unwrap();
    for req in [
        Request::Hello { version: VERSION },
        Request::Begin(Isolation::Serializable),
        Request::Query("INSERT INTO t VALUES (7, 7)".into()),
    ] {
        let (op, payload) = req.encode();
        proto::write_frame(&mut dying, op, &payload).unwrap();
        read_reply(&mut dying).unwrap();
    }
    // Half a frame (header promises 16 bytes, only 3 arrive), then FIN:
    // the server must drop the partial bytes and roll the txn back.
    dying.write_all(&[16, 0, 0, 0, 0x02, b'S', b'E']).unwrap();
    drop(dying);

    // The abandoned insert's lock must clear without waiting for any
    // idle timeout: the disconnect itself is the trigger.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match c.query("INSERT INTO t VALUES (7, 70)") {
            Ok(r) => {
                assert_eq!(r.affected, 1);
                break;
            }
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("lock never released after disconnect: {e}"),
        }
    }

    drop(c);
    server.shutdown().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_abandoned_txn_never_holds_locks_past_the_deadline() {
    // Regression for the timer-wheel idle reaper: the rollback must fire
    // from reactor ticks, not from a read that never returns — within a
    // bounded multiple of the configured deadline.
    let idle = Duration::from_millis(150);
    let (db, server, dir) = start(
        "idle-locks",
        ServerConfig::new("127.0.0.1:0")
            .idle_timeout(idle)
            .tick(Duration::from_millis(15)),
    );
    let addr = server.local_addr();

    let mut c = Client::connect(addr).unwrap();
    c.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();

    let mut abandoned = Client::connect(addr).unwrap();
    abandoned.begin(Isolation::Serializable).unwrap();
    abandoned.query("INSERT INTO t VALUES (1, 1)").unwrap();
    let abandoned_at = Instant::now();
    // No further bytes are ever sent on `abandoned`; the socket stays
    // open, so only the timer wheel can reap it.

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match c.query("INSERT INTO t VALUES (1, 2)") {
            Ok(r) => {
                assert_eq!(r.affected, 1);
                break;
            }
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("idle transaction still holds its lock: {e}"),
        }
    }
    let waited = abandoned_at.elapsed();
    assert!(
        waited < idle * 20,
        "lock held for {waited:?}, far past the {idle:?} deadline"
    );
    assert_eq!(db.metrics().server.idle_rollbacks.get(), 1);

    drop(abandoned);
    drop(c);
    server.shutdown().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn many_idle_connections_on_a_tiny_core_pool() {
    // The reactor's reason to exist: 64 open, mostly-idle connections on
    // two execution cores, with every one still answering when poked.
    let (db, server, dir) = start(
        "many-idle",
        ServerConfig::new("127.0.0.1:0")
            .workers(2)
            .max_connections(256),
    );
    let addr = server.local_addr();

    let mut c0 = Client::connect(addr).unwrap();
    c0.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();

    let mut idle: Vec<Client> = (0..64).map(|_| Client::connect(addr).unwrap()).collect();
    assert_eq!(db.metrics().server.open_connections.get(), 65);

    // Mixed load from a few of them while the rest stay parked.
    for (i, c) in idle.iter_mut().enumerate().take(8) {
        assert_eq!(
            c.query(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap()
                .affected,
            1
        );
    }
    // Every parked connection is still alive and serviceable.
    for c in idle.iter_mut() {
        assert!(!c
            .query("SELECT id FROM t WHERE id = 0")
            .unwrap()
            .rows
            .is_empty());
    }

    drop(idle);
    drop(c0);
    server.shutdown().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
