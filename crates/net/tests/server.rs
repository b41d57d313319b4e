//! Integration tests for the wire-protocol server: round trips, typed
//! errors, backpressure shedding, idle-session rollback, pipelining,
//! graceful shutdown, the adversarial-client battery (slow loris,
//! oversized frames, mid-frame disconnects), the hand-off rules of the
//! leader/followers loop (who executes, when the loop moves, what queues
//! and what is shed), result sets streamed in chunks (any size, to
//! readers that stall, vanish, or meet an error half way), and WAL
//! subscriptions served on the loop.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use immortaldb::{Database, DbConfig, Durability, Isolation, Session, Value};
use immortaldb_chaos::FaultVfs;
use immortaldb_common::{Error, ErrorCode, Timestamp};
use immortaldb_net::proto::{
    op, AsOfTarget, FrameBuffer, Reply, Request, RowsFrame, WalBatch, MAX_FRAME, VERSION,
};
use immortaldb_net::{Client, Server, ServerConfig, SHED_RETRY_MS};

/// Send one request on a raw connection.
fn write_request(raw: &mut TcpStream, req: &Request<'_>) {
    let mut frame = Vec::new();
    req.encode_into(&mut frame);
    raw.write_all(&frame).unwrap();
}

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
    start_on(name, cfg, |db| db.durability(Durability::Fsync))
}

fn start_on(
    name: &str,
    cfg: ServerConfig,
    db_cfg: impl FnOnce(DbConfig) -> DbConfig,
) -> (Arc<Database>, Server, PathBuf) {
    let dir = scratch(name);
    let db = Arc::new(Database::open(db_cfg(DbConfig::new(&dir))).unwrap());
    let server = Server::start(Arc::clone(&db), cfg).unwrap();
    (db, server, dir)
}

fn stop(db: Arc<Database>, server: Server, dir: PathBuf) {
    server.shutdown().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes of `pad` in a row of `wide`: with the key, what a record holds.
const WIDE: usize = 1_880;

fn wide_pad(id: i32) -> String {
    format!("{id:0>WIDE$}")
}

fn is_wide_row(row: &[Value], id: i32) -> bool {
    matches!(row, [Value::Int(i), Value::Varchar(pad)] if *i == id && *pad == wide_pad(id))
}

/// `wide (id INT PRIMARY KEY, pad VARCHAR)` with ids `0..rows`, each row
/// as large as a record gets, loaded in-process.
fn load_wide(db: &Database, rows: i32) {
    let ddl = format!("CREATE IMMORTAL TABLE wide (id INT PRIMARY KEY, pad VARCHAR({WIDE}))");
    Session::new(db).execute(&ddl).unwrap();
    for batch in (0..rows).collect::<Vec<_>>().chunks(500) {
        let mut txn = db.begin(Isolation::Serializable);
        let rows = batch
            .iter()
            .map(|&id| vec![Value::Int(id), Value::Varchar(wide_pad(id))])
            .collect();
        db.insert_rows(&mut txn, "wide", rows).unwrap();
        db.commit(&mut txn).unwrap();
    }
}

/// Enough of `wide` that its scan outgrows `MAX_FRAME`, and the server's
/// output cap plus what the kernel buffers for a reader that is not
/// reading, several times over.
const HUGE: i32 = 9_500;

/// A `server.*` / `wal.*` / `locks.*` value by its `SHOW STATS` name.
fn stat(db: &Database, name: &str) -> u64 {
    db.metrics_snapshot()
        .get(name)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

/// Poll until `cond` holds; the interleavings below are forced by
/// waiting on the server's own counters, never by sleeping a guess.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Poll until `value` has not changed for `quiet`. Returns it and when it
/// last changed.
fn held_still(what: &str, quiet: Duration, value: impl Fn() -> u64) -> (u64, Instant) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut last, mut since) = (value(), Instant::now());
    while since.elapsed() < quiet {
        assert!(Instant::now() < deadline, "{what} never held still");
        std::thread::sleep(Duration::from_millis(2));
        let now = value();
        if now != last {
            (last, since) = (now, Instant::now());
        }
    }
    (last, since)
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
    c.begin(Isolation::Serializable).unwrap();
    c.query("UPDATE t SET v = 'new' WHERE id = 1").unwrap();
    let snap = c.snapshot().expect("the BEGIN left with the UPDATE");
    assert!(c.in_transaction());
    let commit_ts = c.commit().unwrap();
    assert!(!c.in_transaction());
    assert!(commit_ts >= snap);

    // Current read sees the update...
    let now = c.query("SELECT v FROM t WHERE id = 1").unwrap();
    assert_eq!(now.rows, vec![vec![Value::Varchar("new".into())]]);

    // ...while an AS OF transaction pinned at the update's begin
    // snapshot (before its commit timestamp) sees the old version.
    c.begin_as_of_ts(snap).unwrap();
    let old = c.query("SELECT v FROM t WHERE id = 1").unwrap();
    let eff = c.snapshot().unwrap();
    assert!(eff < commit_ts);
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
fn reactor_sheds_connections_over_cap_with_retry_hint() {
    let (db, server, dir) = start(
        "busy-reactor",
        ServerConfig::new("127.0.0.1:0").max_connections(1),
    );
    let addr = server.local_addr();

    let mut c1 = Client::connect(addr).unwrap();
    c1.query("SHOW STATS").unwrap(); // ensure the reactor registered c1

    match Client::connect(addr) {
        Err(Error::ServerBusy { retry_after_ms }) => {
            assert_eq!(
                retry_after_ms,
                Some(SHED_RETRY_MS),
                "the shed carries the hint"
            );
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

    // Requests behind a result of several chunks wait their turn.
    load_wide(&db, 200);
    let chunks = stat(&db, "server.row_chunks");
    c.send_query("SELECT * FROM wide").unwrap();
    c.send_query("SELECT id FROM wide WHERE id = 7").unwrap();
    c.send_query("INSERT INTO t VALUES (1000, 1000)").unwrap();
    let wide = c.recv_response().unwrap();
    assert_eq!(wide.rows.len(), 200);
    assert_eq!(wide.message, "200 rows");
    assert!(wide.rows.iter().zip(0..).all(|(r, i)| is_wide_row(r, i)));
    assert!(stat(&db, "server.row_chunks") - chunks > 3);
    assert_eq!(c.recv_response().unwrap().rows, vec![vec![Value::Int(7)]]);
    assert_eq!(c.recv_response().unwrap().affected, 1);
    assert_eq!(c.pending(), 0);

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
    write_request(&mut raw, &Request::Query("SELECT 1".into()));
    let (op, payload) = read_reply(&mut raw).unwrap();
    match Reply::decode(op, &payload).unwrap() {
        Reply::Error { message, .. } => assert!(message.contains("HELLO"), "{message}"),
        other => panic!("expected error, got {other:?}"),
    }

    // Wrong protocol version: typed refusal.
    let mut raw = TcpStream::connect(addr).unwrap();
    write_request(
        &mut raw,
        &Request::Hello {
            version: VERSION + 1,
        },
    );
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
        write_request(&mut dying, &req);
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

// ---------------------------------------------------------------------
// One round trip per historical read.
// ---------------------------------------------------------------------

#[test]
fn query_as_of_is_one_round_trip_and_leaves_no_transaction() {
    let (db, server, dir) = start("query-as-of", ServerConfig::new("127.0.0.1:0"));
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v VARCHAR(8))")
        .unwrap();
    c.query("INSERT INTO t VALUES (1, 'old')").unwrap();
    c.begin(Isolation::Serializable).unwrap();
    c.query("UPDATE t SET v = 'new' WHERE id = 1").unwrap();
    let before = c.snapshot().unwrap();
    let updated = c.commit().unwrap();

    // Happy path: one frame, one reply, the row as of then.
    let requests = stat(&db, "server.requests");
    let r = c
        .query_as_of(before, "SELECT v FROM t WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Varchar("old".into())]]);
    assert_eq!(r.ts, Some(before));
    assert!(!c.in_transaction());
    assert_eq!(stat(&db, "server.requests"), requests + 1);
    assert_eq!(c.pending(), 0);

    // A parse error is the error returned, and no transaction is left
    // open.
    match c.query_as_of(before, "SELECT v FORM t") {
        Err(Error::Remote { code, offset, .. }) => {
            assert_eq!(code, ErrorCode::Parse);
            assert_eq!(offset, Some(9));
        }
        other => panic!("expected the statement's parse error, got {other:?}"),
    }
    assert!(!c.in_transaction());
    assert_eq!(c.pending(), 0);
    assert_eq!(
        c.query("SELECT v FROM t WHERE id = 1").unwrap().rows,
        vec![vec![Value::Varchar("new".into())]]
    );

    // A timestamp past the visibility horizon is clamped to it: the
    // effective timestamp comes back, and the read sees the present.
    let future = Timestamp::new(updated.ttime + 3_600_000, 0);
    let r = c
        .query_as_of(future, "SELECT v FROM t WHERE id = 1")
        .unwrap();
    let effective = r.ts.expect("effective timestamp");
    assert!(updated <= effective && effective < future, "{effective:?}");
    assert_eq!(r.rows, vec![vec![Value::Varchar("new".into())]]);

    // Inside an open transaction: refused before anything is sent.
    c.begin(Isolation::Serializable).unwrap();
    assert!(matches!(
        c.query_as_of(before, "SELECT v FROM t"),
        Err(Error::Sql(_))
    ));
    assert!(c.in_transaction());
    c.rollback().unwrap();

    drop(c);
    stop(db, server, dir);
}

fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64
}

/// An AS OF transaction is a timestamp the client holds: each statement
/// is one request and begin, commit and rollback are none; every
/// statement answers at the instant the first one named, commits landing
/// in between unseen; and the server keeps nothing of it between
/// statements, so the idle reaper finds nothing to roll back.
#[test]
fn a_client_held_as_of_transaction_is_one_instant_and_holds_nothing() {
    let idle = Duration::from_millis(400);
    let cfg = ServerConfig::new("127.0.0.1:0")
        .idle_timeout(idle)
        .tick(Duration::from_millis(20));
    let (db, server, dir) = start_on("client-held-as-of", cfg, |db| {
        db.durability(Durability::Buffered)
    });
    let addr = server.local_addr();
    let mut w = Client::connect(addr).unwrap();
    w.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    w.query("INSERT INTO t VALUES (1, 0)").unwrap();
    let mut version = 0;
    let bump = |w: &mut Client, version: &mut i32| {
        *version += 1;
        w.query(&format!("UPDATE t SET v = {version} WHERE id = 1"))
            .unwrap();
    };
    let requests = || stat(&db, "server.requests");
    let future = || Timestamp::new(db.visible_horizon().ttime + 3_600_000, 0);
    let read = "SELECT v FROM t WHERE id = 1";
    let mut c = Client::connect(addr).unwrap();

    // A future exact target (clamped to the horizon), then the clock now.
    for from_clock in [false, true] {
        bump(&mut w, &mut version);
        let r = requests();
        if from_clock {
            c.begin_as_of_ms(now_ms()).unwrap();
        } else {
            c.begin_as_of_ts(future()).unwrap();
        }
        assert!(c.in_transaction());
        assert_eq!(c.snapshot(), None);
        assert_eq!(requests(), r, "begin sent nothing");

        let first = c.query(read).unwrap();
        assert_eq!(requests(), r + 1);
        let at = first.ts.expect("the answer names its instant");
        assert_eq!(c.snapshot(), Some(at));
        assert_eq!(first.rows, vec![vec![Value::Int(version)]]);

        bump(&mut w, &mut version);
        let r = requests();
        let empty = c.query("SELECT v FROM t WHERE id = 99").unwrap();
        assert!(empty.rows.is_empty());
        assert_eq!(empty.ts, Some(at));
        bump(&mut w, &mut version);
        let again = c.query(read).unwrap();
        assert_eq!((&again.rows, again.ts), (&first.rows, Some(at)));
        assert_eq!(requests(), r + 3, "two statements and one update");

        let r = requests();
        assert_eq!(c.commit().unwrap(), at);
        assert!(!c.in_transaction());
        c.begin_as_of_ts(at).unwrap();
        assert_eq!(c.query(read).unwrap().rows, first.rows);
        c.rollback().unwrap();
        assert!(!c.in_transaction());
        assert_eq!(requests(), r + 1, "one statement, no commit or rollback");
    }

    // A COMMIT sent as SQL text ends the transaction, at its instant.
    c.begin_as_of_ts(future()).unwrap();
    let at = c.query(read).unwrap().ts.unwrap();
    bump(&mut w, &mut version);
    assert_eq!(c.query("COMMIT").unwrap().ts, Some(at));
    assert!(!c.in_transaction());
    assert_eq!(c.query(read).unwrap().rows, vec![vec![Value::Int(version)]]);

    // A write is refused, leaves no row, and ends nothing.
    c.begin_as_of_ts(at).unwrap();
    match c.query("INSERT INTO t VALUES (7, 7)") {
        Err(Error::Remote { code, .. }) => assert_eq!(code, ErrorCode::ReadOnly),
        other => panic!("a write in an AS OF transaction: {other:?}"),
    }
    assert!(c.in_transaction());
    assert_eq!(c.query(read).unwrap().ts, Some(at));
    c.rollback().unwrap();
    assert!(w
        .query("SELECT v FROM t WHERE id = 7")
        .unwrap()
        .rows
        .is_empty());

    // Committed before any statement: one round trip says the instant.
    let (r, horizon, target) = (requests(), db.visible_horizon(), future());
    c.begin_as_of_ts(target).unwrap();
    let at = c.commit().unwrap();
    assert_eq!(requests(), r + 1);
    assert!(horizon <= at && at < target, "{at:?}");

    // Pipelined: until the first answer names the instant, nothing more
    // is sent — a second statement could run at a later horizon.
    c.begin_as_of_ts(future()).unwrap();
    let r = requests();
    c.send_query(read).unwrap();
    assert!(matches!(c.send_query(read), Err(Error::Sql(_))));
    assert!(matches!(c.commit(), Err(Error::Sql(_))));
    let first = c.recv_response().unwrap();
    let at = first.ts.unwrap();
    assert_eq!(requests(), r + 1);
    // Then statements pipeline, all at that instant.
    bump(&mut w, &mut version);
    c.send_query(read).unwrap();
    c.send_query(read).unwrap();
    for _ in 0..2 {
        let next = c.recv_response().unwrap();
        assert_eq!((&next.rows, next.ts), (&first.rows, Some(at)));
    }
    // Committed with a statement unanswered: its answer must not name
    // the instant of the next AS OF transaction, so none begins yet.
    c.send_query(read).unwrap();
    assert_eq!(c.commit().unwrap(), at);
    assert!(matches!(c.begin_as_of_ts(at), Err(Error::Sql(_))));
    assert_eq!(c.recv_response().unwrap().ts, Some(at));
    assert!(!c.in_transaction());
    assert_eq!(c.pending(), 0);

    // Open for twice the idle timeout, used within it: the connection
    // stays and every statement answers at the first one's instant.
    let rollbacks = stat(&db, "server.idle_rollbacks");
    c.begin_as_of_ms(now_ms()).unwrap();
    let first = c.query(read).unwrap();
    let at = first.ts.unwrap();
    let opened = Instant::now();
    while opened.elapsed() < idle * 2 {
        std::thread::sleep(idle / 4);
        bump(&mut w, &mut version);
        let next = c.query(read).unwrap();
        assert_eq!((&next.rows, next.ts), (&first.rows, Some(at)));
    }
    // Held for twice the idle timeout with no statement: the connection
    // is closed, as every idle one is, but the server held no
    // transaction for it, so none is rolled back. The next statement
    // finds the connection closed, is sent again on a new one, and
    // answers at the same instant with the same rows.
    let held = Instant::now();
    wait_for("the idle connections to close", || {
        stat(&db, "server.open_connections") == 0
    });
    std::thread::sleep((idle * 2).saturating_sub(held.elapsed()));
    assert_eq!(stat(&db, "server.idle_rollbacks"), rollbacks);
    assert!(c.in_transaction());
    // An autocommit statement is never sent again: the writer's fails.
    assert!(matches!(w.query(read), Err(Error::Io(_))));
    let mut w = Client::connect(addr).unwrap();
    bump(&mut w, &mut version);
    let accepted = stat(&db, "server.connections.accepted");
    let next = c.query(read).unwrap();
    assert_eq!((&next.rows, next.ts), (&first.rows, Some(at)));
    assert_eq!(stat(&db, "server.connections.accepted"), accepted + 1);
    assert_eq!(c.commit().unwrap(), at);
    assert_eq!(c.query(read).unwrap().rows, vec![vec![Value::Int(version)]]);

    // A write transaction idle past the timeout is rolled back with its
    // connection, and its next statement surfaces the I/O error: it is
    // not sent again, and its write never lands.
    let mut t = Client::connect(addr).unwrap();
    t.begin(Isolation::Serializable).unwrap();
    t.query("UPDATE t SET v = -1 WHERE id = 1").unwrap();
    wait_for("the idle transaction to be rolled back", || {
        stat(&db, "server.idle_rollbacks") > rollbacks
    });
    assert!(matches!(t.query(read), Err(Error::Io(_))));
    let mut w = Client::connect(addr).unwrap();
    assert_eq!(w.query(read).unwrap().rows, vec![vec![Value::Int(version)]]);

    drop((c, t, w));
    stop(db, server, dir);
}

// ---------------------------------------------------------------------
// Deferred BEGIN: the BEGIN leaves with the transaction's first request.
// ---------------------------------------------------------------------

/// The begin snapshot arrives with the first statement's reply; a
/// rollback of a BEGIN never sent sends nothing.
#[test]
fn a_deferred_begin_reports_its_snapshot_with_the_first_reply() {
    let (db, server, dir) = start("deferred-begin", ServerConfig::new("127.0.0.1:0"));
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    c.query("INSERT INTO t VALUES (1, 0)").unwrap();

    let requests = stat(&db, "server.requests");
    c.begin(Isolation::Serializable).unwrap();
    assert!(c.in_transaction());
    assert_eq!(c.snapshot(), None, "nothing has been sent");
    c.rollback().unwrap();
    assert!(!c.in_transaction());
    assert_eq!(stat(&db, "server.requests"), requests, "nothing was sent");

    // BEGIN and UPDATE in one write, two replies read for one call.
    c.begin(Isolation::Serializable).unwrap();
    assert_eq!(c.snapshot(), None);
    assert_eq!(
        c.query("UPDATE t SET v = 1 WHERE id = 1").unwrap().affected,
        1
    );
    assert_eq!(stat(&db, "server.requests"), requests + 2);
    assert_eq!(c.pending(), 0);
    let snapshot = c.snapshot().expect("the BEGIN was answered");
    let committed = c.commit().unwrap();
    assert!(committed >= snapshot, "{committed:?} < {snapshot:?}");
    assert_eq!(c.snapshot(), Some(snapshot));

    // A second BEGIN before the first is used is refused here.
    c.begin(Isolation::Snapshot).unwrap();
    assert!(matches!(c.begin(Isolation::Snapshot), Err(Error::Sql(_))));
    c.rollback().unwrap();

    drop(c);
    stop(db, server, dir);
}

/// A statement marked for a transaction never runs outside one: the
/// server refuses it on a session with none, and runs it once one is
/// open.
#[test]
fn a_statement_marked_for_a_transaction_is_refused_without_one() {
    let (db, server, dir) = start("marked-query", ServerConfig::new("127.0.0.1:0"));
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    write_request(&mut raw, &Request::Hello { version: VERSION });
    read_reply(&mut raw).unwrap();
    let insert = |raw: &mut TcpStream, id: i32| {
        let sql = format!("INSERT INTO t VALUES ({id}, {id})");
        write_request(raw, &Request::QueryInTxn(sql.into()));
        let (op, payload) = read_reply(raw).unwrap();
        Reply::decode(op, &payload).unwrap()
    };
    match insert(&mut raw, 5) {
        Reply::Error {
            txn_open, message, ..
        } => {
            assert!(!txn_open);
            assert!(message.contains("no open transaction"), "{message}");
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert!(c
        .query("SELECT v FROM t WHERE id = 5")
        .unwrap()
        .rows
        .is_empty());

    // Inside a transaction the same frame runs.
    write_request(&mut raw, &Request::Begin(Isolation::Serializable));
    read_reply(&mut raw).unwrap();
    assert!(matches!(
        insert(&mut raw, 6),
        Reply::Ok { txn_open: true, .. }
    ));
    // A statement for an AS OF transaction is refused in it, and the
    // transaction goes on.
    write_request(
        &mut raw,
        &Request::QueryAsOf(AsOfTarget::Exact(Timestamp::ZERO), "SELECT v FROM t".into()),
    );
    let (op, payload) = read_reply(&mut raw).unwrap();
    assert!(matches!(
        Reply::decode(op, &payload).unwrap(),
        Reply::Error { txn_open: true, .. }
    ));
    write_request(&mut raw, &Request::Commit);
    read_reply(&mut raw).unwrap();
    assert_eq!(
        c.query("SELECT v FROM t WHERE id = 6").unwrap().rows,
        vec![vec![Value::Int(6)]]
    );

    drop((c, raw));
    stop(db, server, dir);
}

/// A BEGIN shed with the statement behind it: the call returns the
/// BEGIN's SERVER_BUSY, no transaction is open, and the statement did
/// not run as autocommit.
#[test]
fn a_shed_begin_takes_its_statement_with_it() {
    let (db, server, dir) = start_on(
        "shed-begin",
        ServerConfig::new("127.0.0.1:0").workers(1).max_inflight(2),
        |db| db.durability(Durability::Buffered),
    );
    let addr = server.local_addr();
    let mut reader = Client::connect(addr).unwrap();
    reader
        .query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    let mut waiter = Client::connect(addr).unwrap();
    let mut extra = Client::connect(addr).unwrap();

    // Fill the in-flight cap: one request parked on a lock the
    // in-process holder keeps, one queued behind it.
    let mut holder = Session::new(&db);
    holder.begin(Isolation::Serializable).unwrap();
    holder.execute("INSERT INTO t VALUES (10, 0)").unwrap();
    let waits = stat(&db, "locks.waits");
    waiter
        .send_query("UPDATE t SET v = 5 WHERE id = 10")
        .unwrap();
    wait_for("the waiter to park", || stat(&db, "locks.waits") > waits);
    reader.send_query("SELECT v FROM t WHERE id = 10").unwrap();
    wait_for("the read to queue", || {
        stat(&db, "server.ready_queue_depth") == 1
    });

    extra.begin(Isolation::Serializable).unwrap();
    match extra.query("INSERT INTO t VALUES (77, 7)") {
        Err(Error::ServerBusy { .. }) => {}
        other => panic!("expected SERVER_BUSY, got {other:?}"),
    }
    assert!(!extra.in_transaction());
    assert_eq!(extra.pending(), 0);

    holder.commit().unwrap();
    assert_eq!(waiter.recv_response().unwrap().affected, 1);
    reader.recv_response().unwrap();
    assert!(reader
        .query("SELECT v FROM t WHERE id = 77")
        .unwrap()
        .rows
        .is_empty());
    // The session is whole: the next transaction runs.
    extra.begin(Isolation::Serializable).unwrap();
    extra.query("INSERT INTO t VALUES (77, 7)").unwrap();
    extra.commit().unwrap();
    assert_eq!(
        reader.query("SELECT v FROM t WHERE id = 77").unwrap().rows,
        vec![vec![Value::Int(7)]]
    );

    drop((reader, waiter, extra, holder));
    stop(db, server, dir);
}

// ---------------------------------------------------------------------
// The hand-off rules. `workers(1)` is two threads — the tightest case:
// one request may execute, and the thread left polling never does.
// ---------------------------------------------------------------------

/// (i) A lock holder makes progress while a waiter blocks: the waiter
/// hands the loop on before it parks, so the holder's COMMIT is read and
/// served. Needs two requests in execution at once (the wait and the
/// COMMIT), so `workers(2)` is the smallest pool it can hold on.
#[test]
fn lock_holder_commits_while_a_waiter_blocks() {
    for workers in [2, 4] {
        let (db, server, dir) = start(
            &format!("holder-{workers}"),
            ServerConfig::new("127.0.0.1:0").workers(workers),
        );
        let addr = server.local_addr();
        let mut a = Client::connect(addr).unwrap();
        a.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        a.query("INSERT INTO t VALUES (1, 0)").unwrap();
        a.begin(Isolation::Serializable).unwrap();
        a.query("UPDATE t SET v = 1 WHERE id = 1").unwrap();

        let started = Instant::now();
        let waits = stat(&db, "locks.waits");
        let b = std::thread::spawn(move || {
            let mut b = Client::connect(addr).unwrap();
            b.query("UPDATE t SET v = 2 WHERE id = 1")
        });
        wait_for("B to park in the lock manager", || {
            stat(&db, "locks.waits") > waits
        });
        assert!(stat(&db, "server.loop_handoffs_wait") > 0);

        a.commit()
            .expect("the holder's COMMIT is served while B waits");
        assert_eq!(b.join().unwrap().expect("B's update").affected, 1);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "took {:?}: B sat out its lock timeout",
            started.elapsed()
        );
        assert_eq!(
            a.query("SELECT v FROM t WHERE id = 1").unwrap().rows,
            vec![vec![Value::Int(2)]]
        );
        drop(a);
        stop(db, server, dir);
    }
}

/// (ii) Group commit still batches across connections: a committer gives
/// the loop away before it parks in the barrier, so the next connection's
/// commit is read while the first one's fsync runs. A batch needs
/// committers that overlap, so the pools are the ones with room for three.
#[test]
fn group_commit_batches_across_connections() {
    for workers in [4, 8] {
        let (db, server, dir) = start(
            &format!("group-{workers}"),
            ServerConfig::new("127.0.0.1:0").workers(workers),
        );
        let addr = server.local_addr();
        let mut admin = Client::connect(addr).unwrap();
        admin
            .query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        let (fsyncs, batches) = (stat(&db, "wal.fsyncs"), stat(&db, "wal.batch_size.count"));
        let batched = stat(&db, "wal.batch_size.sum");

        const CLIENTS: u64 = 8;
        const INSERTS: u64 = 50;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for i in 0..INSERTS {
                        let id = w * 1000 + i;
                        c.query(&format!("INSERT INTO t VALUES ({id}, {w})"))
                            .unwrap();
                    }
                })
            })
            .collect();
        handles.into_iter().for_each(|h| h.join().unwrap());

        let fsyncs = stat(&db, "wal.fsyncs") - fsyncs;
        let batches = stat(&db, "wal.batch_size.count") - batches;
        let batched = stat(&db, "wal.batch_size.sum") - batched;
        assert!(
            fsyncs < CLIENTS * INSERTS,
            "workers({workers}): {fsyncs} fsyncs for {} commits",
            CLIENTS * INSERTS
        );
        assert!(
            batched > batches,
            "workers({workers}): {batches} batches covered {batched} commits"
        );
        drop(admin);
        stop(db, server, dir);
    }
}

/// (iii) The loop changes hands when the code says a request will wait or
/// run long, and only then: resident point statements all run inline,
/// and so does a cold one whose pages the OS page cache holds.
#[test]
fn only_waits_and_long_statements_move_the_loop() {
    for workers in [1, 4] {
        let handoffs = |db: &Database| {
            (
                stat(db, "server.loop_handoffs_wait"),
                stat(db, "server.loop_handoffs_long"),
            )
        };

        // Everything resident, nothing forced to disk.
        let (db, server, dir) = start_on(
            &format!("inline-{workers}"),
            ServerConfig::new("127.0.0.1:0").workers(workers),
            |db| db.durability(Durability::Buffered),
        );
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        // Load first: the first statements read the table's root and the
        // timestamp table from disk, and a page that fills up splits into
        // one that is read back. Resident means after that.
        let mut ts = None;
        for i in 0..40 {
            c.query(&format!("INSERT INTO t VALUES ({i}, 0)")).unwrap();
            c.begin(Isolation::Serializable).unwrap();
            c.query(&format!("UPDATE t SET v = 1 WHERE id = {i}"))
                .unwrap();
            ts = Some(c.commit().unwrap());
        }
        let ts = ts.unwrap();
        let (requests, inline, misses) = (
            stat(&db, "server.requests"),
            stat(&db, "server.requests_inline"),
            stat(&db, "buffer.misses"),
        );
        let before = handoffs(&db);
        for i in 0..40 {
            c.query(&format!("UPDATE t SET v = 2 WHERE id = {i}"))
                .unwrap();
            let now = c.query(&format!("SELECT v FROM t WHERE id = {i}"));
            assert_eq!(now.unwrap().rows, vec![vec![Value::Int(2)]]);
            let then = c.query_as_of(ts, &format!("SELECT v FROM t WHERE id = {i}"));
            assert_eq!(then.unwrap().rows, vec![vec![Value::Int(1)]]);
        }
        assert_eq!(stat(&db, "buffer.misses"), misses, "the run left the pool");
        assert_eq!(
            handoffs(&db),
            before,
            "a resident point statement moved the loop"
        );
        assert_eq!(
            stat(&db, "server.requests_inline") - inline,
            stat(&db, "server.requests") - requests
        );

        // One full-table AS OF scan: long.
        assert_eq!(c.query_as_of(ts, "SELECT * FROM t").unwrap().rows.len(), 40);
        let after = handoffs(&db);
        assert_eq!((after.0, after.1), (before.0, before.1 + 1));
        drop(c);
        stop(db, server, dir);

        // A table many times the pool, whose pages the OS page cache
        // holds: a cold point read is a read, not a wait, and stays on
        // the loop.
        let reads = cold_point_reads(&format!("cached-{workers}"), workers, |db| db);
        let mut served = 0;
        for read in reads.iter().filter(|r| r.misses > 0 && r.writes == 0) {
            assert_eq!(
                read.cached, read.misses,
                "read {}: the page cache held the table, yet a miss waited",
                read.id
            );
            assert!(
                read.inline && read.waits == 0,
                "{read:?}: a miss the page cache served moved the loop"
            );
            served += 1;
        }
        assert!(served > 0, "every cold read also wrote a page back");
    }
}

/// (iii, cont.) A miss that needs the device still hands the loop on:
/// behind a VFS whose `read_cached_at` always declines (`FaultVfs`, with
/// no fault set), every miss is a wait, and a read that waited on the
/// disk did not finish on the loop. The leader hands the loop on before
/// it waits; a follower that took the read from the ready queue never
/// held it.
#[test]
fn a_miss_that_needs_the_device_moves_the_loop() {
    for workers in [1, 4] {
        let vfs = Arc::new(FaultVfs::wrap_std(workers as u64));
        let reads = cold_point_reads(&format!("device-{workers}"), workers, |db| db.vfs(vfs));
        for read in reads.iter().filter(|r| r.misses > 0) {
            assert_eq!(read.cached, 0, "read {}: {read:?}", read.id);
            assert!(
                !read.inline,
                "read {}: waited on the disk and finished on the loop",
                read.id
            );
        }
    }
}

/// A checkpoint leaves dirty no page it dirtied itself: the timestamp
/// table's collection runs after the checkpoint's flush, and the leaves
/// it changes are written back before the checkpoint returns. So none of
/// the point reads after it writes a page back (a read whose eviction
/// did would wait for the write and hand the loop on).
#[test]
fn reads_after_a_checkpoint_write_no_page_back() {
    for workers in [1, 4] {
        let reads = cold_point_reads(&format!("after-ckpt-{workers}"), workers, |db| db);
        assert_eq!(reads.len(), 21);
        for read in &reads {
            assert_eq!(read.writes, 0, "{read:?} wrote a page back");
            assert_eq!(read.waits, 0, "{read:?} handed the loop on for a wait");
        }
    }
}

/// What one point read did: the pool misses it took, how many of them
/// the OS page cache answered, whether it ran start to finish on the
/// thread holding the loop, the loop hand-offs it caused for a wait, and
/// the pages written back meanwhile (`disk.writes`; a write-back waits).
#[derive(Debug)]
struct ColdRead {
    id: i32,
    misses: u64,
    cached: u64,
    inline: bool,
    waits: u64,
    writes: u64,
}

/// Point reads, one at a time, over a table many times a 16-page pool,
/// loaded over the wire and checkpointed, so that every page is clean;
/// what each of the 21 reads did. Asserts that some missed the pool.
fn cold_point_reads(
    name: &str,
    workers: usize,
    db_cfg: impl FnOnce(DbConfig) -> DbConfig,
) -> Vec<ColdRead> {
    let (db, server, dir) = start_on(
        name,
        ServerConfig::new("127.0.0.1:0").workers(workers),
        |db| db_cfg(db.durability(Durability::Buffered).pool_pages(16)),
    );
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v VARCHAR(200))")
        .unwrap();
    let filler = "x".repeat(200);
    for i in 0..2_000 {
        c.query(&format!("INSERT INTO t VALUES ({i}, '{filler}')"))
            .unwrap();
    }
    c.query("CHECKPOINT").unwrap();
    // The CHECKPOINT ran long and handed the loop on. Until the thread
    // that ran it parks again, a request that arrives is queued for that
    // thread and runs off the loop (the ready queue, reactor.rs): a race
    // with the scheduler, not the reads' doing. Measure from the first
    // probe read (of a key not measured) that runs on the loop again.
    let settled = (0..100).any(|_| {
        let inline = stat(&db, "server.requests_inline");
        c.query("SELECT id FROM t WHERE id = 1999").unwrap();
        stat(&db, "server.requests_inline") > inline
    });
    assert!(settled, "no request ran on the loop after the checkpoint");
    let counters = |db: &Database| {
        [
            "buffer.misses",
            "buffer.misses_cached",
            "server.requests_inline",
            "server.loop_handoffs_wait",
            "disk.writes",
        ]
        .map(|name| stat(db, name))
    };
    let mut reads = Vec::new();
    for id in (0..2_000).step_by(97) {
        let before = counters(&db);
        let rows = c.query(&format!("SELECT id FROM t WHERE id = {id}"));
        assert_eq!(rows.unwrap().rows, vec![vec![Value::Int(id)]]);
        let after = counters(&db);
        let [misses, cached, inline, waits, writes] = [0, 1, 2, 3, 4].map(|i| after[i] - before[i]);
        reads.push(ColdRead {
            id,
            misses,
            cached,
            inline: inline == 1,
            waits,
            writes,
        });
    }
    assert!(
        reads.iter().any(|r| r.misses > 0),
        "the reads never left the pool"
    );
    drop(c);
    stop(db, server, dir);
    reads
}

/// (iv) `workers` requests may block at once and the loop stays alive:
/// below that, other connections are served; at it, the next request
/// queues; past `max_inflight`, the loop itself answers SERVER_BUSY.
#[test]
fn blocked_requests_queue_then_shed_and_the_loop_stays_alive() {
    for workers in [1, 4] {
        let (db, server, dir) = start_on(
            &format!("blocked-{workers}"),
            ServerConfig::new("127.0.0.1:0")
                .workers(workers)
                .max_inflight(workers + 1),
            |db| db.durability(Durability::Buffered),
        );
        let addr = server.local_addr();
        let mut reader = Client::connect(addr).unwrap();
        reader
            .query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        reader.query("INSERT INTO t VALUES (2, 0)").unwrap();
        // Connect everyone first: a handshake is a request like any other.
        let mut waiters: Vec<Client> = (0..workers)
            .map(|_| Client::connect(addr).unwrap())
            .collect();
        let mut extra = Client::connect(addr).unwrap();

        // The holder is in-process: it needs no server thread to commit.
        // A row per waiter, so the waiters conflict with it and not with
        // each other.
        let mut holder = Session::new(&db);
        holder.begin(Isolation::Serializable).unwrap();
        for row in 0..workers {
            let sql = format!("INSERT INTO t VALUES ({}, 0)", 10 + row);
            holder.execute(&sql).unwrap();
        }

        // `workers - 1` requests parked in the lock manager: a thread is
        // still free beside the leader, so point reads are served.
        let parked = stat(&db, "locks.waits");
        let park = |c: &mut Client, row: usize| {
            c.send_query(&format!("UPDATE t SET v = 5 WHERE id = {}", 10 + row))
                .unwrap();
            wait_for("a waiter to park", || {
                stat(&db, "locks.waits") > parked + row as u64
            });
        };
        let (last, rest) = waiters.split_last_mut().unwrap();
        for (row, w) in rest.iter_mut().enumerate() {
            park(w, row);
        }
        for _ in 0..50 {
            assert_eq!(
                reader.query("SELECT v FROM t WHERE id = 2").unwrap().rows,
                vec![vec![Value::Int(0)]]
            );
        }

        // One more: `workers` blocked, only the leader is left. It does
        // not execute; the next request waits on the ready queue…
        park(last, workers - 1);
        reader.send_query("SELECT v FROM t WHERE id = 2").unwrap();
        wait_for("the read to queue", || {
            stat(&db, "server.ready_queue_depth") == 1
        });
        assert_eq!(stat(&db, "server.active_sessions"), workers as u64 + 1);

        // …and past `max_inflight` the loop answers by itself, at once.
        let shed = stat(&db, "server.shed_requests");
        match extra.query("SELECT v FROM t WHERE id = 2") {
            Err(Error::ServerBusy { retry_after_ms }) => {
                assert_eq!(retry_after_ms, Some(SHED_RETRY_MS))
            }
            other => panic!("expected SERVER_BUSY from the loop, got {other:?}"),
        }
        assert_eq!(stat(&db, "server.shed_requests"), shed + 1);

        // The holder lets go: every waiter gets the lock in turn, the
        // queued read is served, and the shed client is welcome again.
        holder.commit().unwrap();
        for w in &mut waiters {
            assert_eq!(w.recv_response().expect("waiter's update").affected, 1);
        }
        assert_eq!(
            reader.recv_response().unwrap().rows,
            vec![vec![Value::Int(0)]]
        );
        assert_eq!(
            extra
                .query_with_backoff("SELECT v FROM t WHERE id = 2", 8)
                .unwrap()
                .rows
                .len(),
            1
        );
        wait_for("the queue to drain", || {
            stat(&db, "server.active_sessions") == 0
        });
        assert_eq!(stat(&db, "server.ready_queue_depth"), 0);

        drop((reader, waiters, extra, holder));
        stop(db, server, dir);
    }
}

// ---------------------------------------------------------------------
// Result sets in chunks.
// ---------------------------------------------------------------------

/// A raw connection past its handshake, with the buffer its frames are
/// read through (one reply may be many frames, read back to back).
fn raw_session(addr: std::net::SocketAddr) -> (TcpStream, FrameBuffer) {
    let mut raw = TcpStream::connect(addr).unwrap();
    write_request(&mut raw, &Request::Hello { version: VERSION });
    read_reply(&mut raw).unwrap();
    (raw, FrameBuffer::new())
}

/// A result of any size crosses the wire: no frame of it is larger than
/// a chunk and a row, whatever the whole comes to.
#[test]
fn a_result_larger_than_max_frame_arrives_in_bounded_frames() {
    let (db, server, dir) = start_on("huge", ServerConfig::new("127.0.0.1:0"), |db| db);
    let addr = server.local_addr();
    load_wide(&db, HUGE);

    // Frame by frame, on a raw connection.
    let (mut raw, mut frames) = raw_session(addr);
    write_request(&mut raw, &Request::Query("SELECT * FROM wide".into()));
    let (mut total, mut next_id, mut row) = (0usize, 0, Vec::new());
    let message = loop {
        let message = frames
            .read_frame(&mut raw, |opcode, payload| {
                assert_eq!(opcode, op::ROWS);
                assert!(
                    payload.len() <= 64 * 1024 + WIDE + 64,
                    "a frame of {} bytes",
                    payload.len()
                );
                total += payload.len();
                let mut frame = RowsFrame::decode(payload).unwrap();
                assert_eq!(frame.columns.is_some(), next_id == 0);
                while frame.next_row(&mut row).unwrap() {
                    assert!(is_wide_row(&row, next_id), "row {next_id}: {:?}", row[0]);
                    next_id += 1;
                }
                frame.end().unwrap().map(|(message, _)| message)
            })
            .unwrap();
        if let Some(message) = message {
            break message;
        }
    };
    assert_eq!((next_id, message.as_str()), (HUGE, "9500 rows"));
    assert!(total > MAX_FRAME as usize, "only {total} bytes");

    // Through the client: rows as they arrive, nothing collected…
    let mut c = Client::connect(addr).unwrap();
    let mut next_id = 0;
    let streamed = c
        .query_rows("SELECT * FROM wide", |row| {
            assert!(is_wide_row(row, next_id));
            next_id += 1;
        })
        .unwrap();
    assert_eq!(next_id, HUGE);
    assert_eq!(streamed.columns, ["id", "pad"]);
    assert!(streamed.rows.is_empty());
    // …and collected, against the in-process answer.
    let sql = "SELECT pad, id FROM wide WHERE id >= 4000 AND id < 4100";
    let collected = c.query(sql).unwrap();
    let local = Session::new(&db).execute(sql).unwrap();
    assert_eq!(collected.rows.len(), 100);
    assert_eq!(
        (collected.rows, collected.columns),
        (local.rows, local.columns)
    );
    assert!(stat(&db, "server.rows_streamed") >= 2 * HUGE as u64 + 100);
    assert!(stat(&db, "server.row_chunks") > 2 * (total / (64 * 1024 + WIDE)) as u64);

    drop(c);
    stop(db, server, dir);
}

/// A connection that asks for all of `wide` and reads none of it, holding
/// a row lock in an open transaction of its own. Returns once the result
/// has stalled against the output cap.
fn stall_a_scan(db: &Database, addr: std::net::SocketAddr) -> (TcpStream, FrameBuffer) {
    let (mut raw, frames) = raw_session(addr);
    for req in [
        Request::Begin(Isolation::Serializable),
        Request::Query("UPDATE held SET v = 1 WHERE id = 1".into()),
    ] {
        write_request(&mut raw, &req);
        read_reply(&mut raw).unwrap();
    }
    write_request(&mut raw, &Request::Query("SELECT * FROM wide".into()));
    wait_for("the result to stall", || {
        stat(db, "server.stream_stalls") > 0
    });
    (raw, frames)
}

fn start_stalling(name: &str, idle: Duration) -> (Arc<Database>, Server, PathBuf, Client) {
    let cfg = ServerConfig::new("127.0.0.1:0")
        .workers(2)
        .idle_timeout(idle)
        .tick(Duration::from_millis(20));
    let (db, server, dir) = start_on(name, cfg, |db| db);
    load_wide(&db, HUGE);
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.query("CREATE IMMORTAL TABLE held (id INT PRIMARY KEY, v INT)")
        .unwrap();
    c.query("INSERT INTO held VALUES (1, 0)").unwrap();
    (db, server, dir, c)
}

/// Backpressure: a reader that stops reading stops the scan — the server
/// holds a bounded part of the result, not the rest of the table — and
/// an idle timeout later it is gone: thread freed, transaction rolled
/// back, locks released.
#[test]
fn a_reader_that_stops_is_dropped_at_the_idle_timeout() {
    let idle = Duration::from_millis(600);
    let (db, server, dir, c) = start_stalling("stalled", idle);
    let (raw, _frames) = stall_a_scan(&db, server.local_addr());
    // At the first stall the socket may still be taking bytes (on
    // loopback the last window update comes some 45 ms later, a delayed
    // ACK): wait until the stream holds for five ticks, and count from its
    // last move, as the server's idle clock restarts on progress.
    let (streamed, stalled) = held_still("the stream", Duration::from_millis(5 * 20), || {
        stat(&db, "server.rows_streamed")
    });

    // Paused, not finished: most of the table is still unread, and no
    // more of it is being read.
    assert!(streamed < HUGE as u64 * 2 / 3, "{streamed} rows buffered");
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(stat(&db, "server.rows_streamed"), streamed);
    assert_eq!(stat(&db, "server.active_sessions"), 1);
    // The loop is with another thread: other connections are served. A
    // fresh one, as the setup's may have idled out while the scan
    // stalled.
    drop(c);
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        c.query("SELECT pad FROM wide WHERE id = 9000")
            .unwrap()
            .rows,
        vec![vec![Value::Varchar(wide_pad(9000))]]
    );

    wait_for("the stalled session to be dropped", || {
        stat(&db, "server.active_sessions") == 0
    });
    let waited = stalled.elapsed();
    assert!(
        waited + Duration::from_millis(150) >= idle && waited < idle * 3,
        "dropped after {waited:?} of a {idle:?} timeout"
    );
    // Its lock went with it: no waiting for the row it had updated.
    let waits = stat(&db, "locks.waits");
    assert_eq!(
        c.query("UPDATE held SET v = 2 WHERE id = 1")
            .unwrap()
            .affected,
        1
    );
    assert_eq!(stat(&db, "locks.waits"), waits);
    assert_eq!(
        c.query("SELECT v FROM held").unwrap().rows,
        vec![vec![Value::Int(2)]]
    );
    wait_for("the connection to be closed", || {
        stat(&db, "server.open_connections") == 1
    });

    drop((raw, c));
    stop(db, server, dir);
}

/// A reader that disappears in mid-result gets the same, at once.
#[test]
fn a_reader_that_disconnects_mid_result_is_dropped_at_once() {
    let idle = Duration::from_secs(120);
    let (db, server, dir, mut c) = start_stalling("vanished", idle);
    let (raw, _frames) = stall_a_scan(&db, server.local_addr());
    let vanished = Instant::now();
    drop(raw);
    wait_for("the session of the vanished reader to end", || {
        stat(&db, "server.active_sessions") == 0
    });
    assert_eq!(
        c.query("UPDATE held SET v = 2 WHERE id = 1")
            .unwrap()
            .affected,
        1
    );
    assert!(
        vanished.elapsed() < Duration::from_secs(5),
        "took {:?}",
        vanished.elapsed()
    );
    assert!(stat(&db, "server.rows_streamed") < HUGE as u64);
    drop(c);
    stop(db, server, dir);
}

/// An engine error after part of the result has left: the chunks sent
/// stand, one ERROR frame ends the result, and the connection goes on.
#[test]
fn an_error_in_mid_result_ends_it_with_one_error_frame() {
    let vfs = Arc::new(FaultVfs::wrap_std(7));
    let faults = vfs.state();
    // A pool far smaller than the table: the scan reads as it goes.
    let cfg = ServerConfig::new("127.0.0.1:0").workers(2);
    let (db, server, dir) = start_on("mid-error", cfg, |db| db.vfs(vfs).pool_pages(64));
    load_wide(&db, HUGE);
    let (mut raw, mut frames) = raw_session(server.local_addr());
    write_request(&mut raw, &Request::Query("SELECT * FROM wide".into()));
    wait_for("the result to stall", || {
        stat(&db, "server.stream_stalls") > 0
    });
    // From here on every page read fails; reading lets the scan resume.
    faults.set_error_rates(1.0, 0.0);
    let (mut chunks, mut rows, mut row) = (0, 0, Vec::new());
    let error = loop {
        let end = frames
            .read_frame(&mut raw, |opcode, payload| {
                if opcode != op::ROWS {
                    return Some(Reply::decode(opcode, payload).unwrap());
                }
                let mut frame = RowsFrame::decode(payload).unwrap();
                assert!(frame.more, "the result cannot have completed");
                while frame.next_row(&mut row).unwrap() {
                    assert!(is_wide_row(&row, rows));
                    rows += 1;
                }
                chunks += 1;
                None
            })
            .unwrap();
        if let Some(end) = end {
            break end;
        }
    };
    assert!(chunks > 0 && rows < HUGE, "{chunks} chunks, {rows} rows");
    match error {
        Reply::Error { code, txn_open, .. } => {
            assert_eq!((code, txn_open), (ErrorCode::Io, false))
        }
        other => panic!("expected an ERROR frame, got {other:?}"),
    }
    // The same connection, with the disk back: a whole result.
    faults.set_error_rates(0.0, 0.0);
    write_request(
        &mut raw,
        &Request::Query("SELECT id FROM wide WHERE id = 9499".into()),
    );
    let answer = frames
        .read_frame(&mut raw, |opcode, payload| {
            assert_eq!(opcode, op::ROWS);
            let mut frame = RowsFrame::decode(payload).unwrap();
            assert!(frame.next_row(&mut row).unwrap());
            frame.end().unwrap()
        })
        .unwrap();
    assert_eq!(row, [Value::Int(9499)]);
    assert_eq!(answer, Some(("1 rows".into(), None)));
    stop(db, server, dir);
}

/// One whole result read from a raw connection, frame by frame: its rows
/// and its message.
fn read_result(raw: &mut TcpStream, frames: &mut FrameBuffer) -> (Vec<Vec<Value>>, String) {
    let (mut rows, mut row) = (Vec::new(), Vec::new());
    loop {
        let end = frames
            .read_frame(raw, |opcode, payload| {
                assert_eq!(opcode, op::ROWS);
                let mut frame = RowsFrame::decode(payload).unwrap();
                while frame.next_row(&mut row).unwrap() {
                    rows.push(row.clone());
                }
                frame.end().unwrap()
            })
            .unwrap();
        if let Some((message, _)) = end {
            return (rows, message);
        }
    }
}

/// Readers that stop reading hold paused statements, not threads: with
/// one to `2 × workers + 1` of them stalled — past every serving thread —
/// a fresh client is answered at once, and each reader, once it reads,
/// gets its whole result in key order.
#[test]
fn stalled_readers_stop_no_one() {
    let workers = 2;
    let cfg = ServerConfig::new("127.0.0.1:0")
        .workers(workers)
        .idle_timeout(Duration::from_secs(60))
        .tick(Duration::from_millis(20));
    let (db, server, dir) = start_on("stalled-readers", cfg, |db| db);
    let addr = server.local_addr();
    load_wide(&db, HUGE);
    let mut stalled = Vec::new();
    for n in 1..=2 * workers + 1 {
        let stalls = stat(&db, "server.stream_stalls");
        let (mut raw, frames) = raw_session(addr);
        write_request(&mut raw, &Request::Query("SELECT * FROM wide".into()));
        wait_for("the result to stall", || {
            stat(&db, "server.stream_stalls") > stalls
        });
        held_still("the streams", Duration::from_millis(100), || {
            stat(&db, "server.rows_streamed")
        });
        stalled.push((raw, frames));
        // On a thread of its own, so that a client left waiting fails
        // the test instead of hanging it.
        let (answered, answer) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let asked = Instant::now();
            let mut c = Client::connect(addr).unwrap();
            let rows = c
                .query("SELECT pad FROM wide WHERE id = 9000")
                .unwrap()
                .rows;
            answered.send((rows, asked.elapsed()))
        });
        let (rows, took) = answer
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("{n} stalled readers: a fresh client was not answered"));
        assert_eq!(rows, vec![vec![Value::Varchar(wide_pad(9000))]]);
        assert!(
            took < Duration::from_millis(100),
            "{n} stalled readers: a fresh client was answered after {took:?}"
        );
    }
    let one_shot = Session::new(&db).execute("SELECT * FROM wide").unwrap();
    for (i, (mut raw, mut frames)) in stalled.into_iter().enumerate() {
        let (rows, message) = read_result(&mut raw, &mut frames);
        assert_eq!(message, "9500 rows", "reader {i}");
        assert!(rows == one_shot.rows, "reader {i}: not the one-shot rows");
    }
    stop(db, server, dir);
}

/// Shutdown with a reader stopped in mid-result: no thread waits for the
/// reader, so it returns within a few ticks, rolls back the reader's
/// transaction and leaves a store that reopens without crash recovery.
#[test]
fn shutdown_does_not_wait_for_a_stalled_reader() {
    let (db, server, dir, mut c) = start_stalling("stalled-shutdown", Duration::from_secs(120));
    // Nothing left for the close to write back but the stall's own.
    c.query("CHECKPOINT").unwrap();
    drop(c);
    let (raw, _frames) = stall_a_scan(&db, server.local_addr());
    let asked = Instant::now();
    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.shutdown()));
    stopped
        .recv_timeout(Duration::from_secs(2))
        .expect("shutdown waited on the stalled reader")
        .unwrap();
    let took = asked.elapsed();
    assert!(
        took < Duration::from_millis(10 * 20),
        "shutdown took {took:?}"
    );
    drop((raw, db));

    let db = Database::open(DbConfig::new(&dir)).unwrap();
    assert_eq!(
        db.metrics_snapshot().get("recovery.crash_recoveries"),
        Some(0)
    );
    let mut s = Session::new(&db);
    let held = s.execute("SELECT v FROM held").unwrap().rows;
    assert_eq!(
        held,
        vec![vec![Value::Int(0)]],
        "the reader's update was rolled back"
    );
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request pipelined behind a result that paused for its reader waits
/// in the frame buffer: it is answered after the result's last frame.
#[test]
fn a_request_behind_a_paused_result_is_answered_after_it() {
    let cfg = ServerConfig::new("127.0.0.1:0").workers(2);
    let (db, server, dir) = start_on("behind-paused", cfg, |db| db);
    load_wide(&db, HUGE);
    let (mut raw, mut frames) = raw_session(server.local_addr());
    let mut burst = Vec::new();
    Request::Query("SELECT * FROM wide".into()).encode_into(&mut burst);
    Request::Query("SELECT id FROM wide WHERE id = 7".into()).encode_into(&mut burst);
    raw.write_all(&burst).unwrap();
    wait_for("the result to pause", || {
        stat(&db, "server.stream_stalls") > 0
    });
    let (rows, message) = read_result(&mut raw, &mut frames);
    assert_eq!((rows.len(), message.as_str()), (HUGE as usize, "9500 rows"));
    assert!(rows.iter().zip(0..).all(|(r, i)| is_wide_row(r, i)));
    let (rows, message) = read_result(&mut raw, &mut frames);
    assert_eq!(
        (rows, message.as_str()),
        (vec![vec![Value::Int(7)]], "1 rows")
    );
    stop(db, server, dir);
}

/// A split installs the pages it allocates without reading them back:
/// a resident update stream that splits leaves never goes to disk and
/// never gives the loop away.
#[test]
fn splits_of_resident_pages_read_nothing_and_stay_inline() {
    let cfg = ServerConfig::new("127.0.0.1:0").workers(2);
    let (db, server, dir) = start_on("resident-splits", cfg, |db| db);
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.query("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v VARCHAR(210))")
        .unwrap();
    // Warm up: the first statements read the root and the timestamp
    // table; the first splits grow the tree.
    let filler = "x".repeat(200);
    for i in 0..200 {
        c.query(&format!("INSERT INTO t VALUES ({i}, '{filler}')"))
            .unwrap();
    }
    let before = |name| stat(&db, name);
    let (reads, requests, inline) = (
        before("disk.reads"),
        before("server.requests"),
        before("server.requests_inline"),
    );
    let (time_splits, key_splits) = db.split_counts();
    for round in 0..20 {
        for i in 0..200 {
            c.query(&format!(
                "UPDATE t SET v = '{round}{filler}' WHERE id = {i}"
            ))
            .unwrap();
        }
    }
    let (time_splits, key_splits) = (
        db.split_counts().0 - time_splits,
        db.split_counts().1 - key_splits,
    );
    assert!(
        time_splits + key_splits > 50,
        "{time_splits} + {key_splits}"
    );
    assert_eq!(stat(&db, "disk.reads"), reads, "a split read a page back");
    assert_eq!(
        stat(&db, "server.requests_inline") - inline,
        stat(&db, "server.requests") - requests
    );
    drop(c);
    stop(db, server, dir);
}

// ---------------------------------------------------------------------
// WAL subscriptions.
// ---------------------------------------------------------------------

/// A raw connection past its handshake that has asked for the log from
/// `from_lsn`.
fn raw_subscription(addr: std::net::SocketAddr, from_lsn: u64) -> (TcpStream, FrameBuffer) {
    let (mut raw, frames) = raw_session(addr);
    write_request(&mut raw, &Request::SubscribeWal { from_lsn });
    (raw, frames)
}

fn next_batch(raw: &mut TcpStream, frames: &mut FrameBuffer) -> std::io::Result<WalBatch> {
    frames
        .read_frame(raw, WalBatch::decode)
        .map(|batch| batch.unwrap())
}

/// The batches a subscriber is sent for one commit at `ts`, acking each,
/// up to the empty "caught up" batch whose horizon covers it.
fn batches_for(raw: &mut TcpStream, frames: &mut FrameBuffer, ts: Timestamp) -> Vec<WalBatch> {
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut batches: Vec<WalBatch> = Vec::new();
    while batches
        .last()
        .is_none_or(|b| !b.bytes.is_empty() || b.horizon < ts)
    {
        let batch = next_batch(raw, frames).unwrap();
        let applied_lsn = batch.next_lsn();
        write_request(raw, &Request::ReplAck { applied_lsn });
        batches.push(batch);
    }
    batches
}

/// Nothing arrives on `raw` for `quiet`.
fn assert_silent(raw: &mut TcpStream, frames: &mut FrameBuffer, quiet: Duration) {
    raw.set_read_timeout(Some(quiet)).unwrap();
    match next_batch(raw, frames) {
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{e}"
        ),
        Ok(batch) => panic!("unexpected batch {batch:?}"),
    }
}

fn commit_one(s: &mut Session<'_>, id: i32) -> Timestamp {
    s.begin(Isolation::Serializable).unwrap();
    s.execute(&format!("INSERT INTO t VALUES ({id}, {id})"))
        .unwrap();
    s.commit().unwrap()
}

/// The protocol, served on the loop: the log up to one empty "caught up"
/// batch, then per commit its records and one empty batch whose horizon
/// covers it, and nothing while the primary is idle; acks are taken, any
/// other request ends the stream; and the connection is counted like any
/// other.
#[test]
fn a_subscription_ships_each_commit_and_takes_only_acks() {
    let tick = Duration::from_millis(20);
    let cfg = ServerConfig::new("127.0.0.1:0").workers(2).tick(tick);
    let (db, server, dir) = start_on("subscription", cfg, |db| db);
    let addr = server.local_addr();
    let mut s = Session::new(&db);
    s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    let ts = commit_one(&mut s, 0);

    let (mut raw, mut frames) = raw_subscription(addr, 0);
    let mut next_lsn: Option<u64> = None;
    let next_lsn = loop {
        let batch = next_batch(&mut raw, &mut frames).unwrap();
        // Each batch starts where the last ended, the first at the log's
        // first record.
        assert_eq!(batch.start_lsn, next_lsn.unwrap_or(8));
        next_lsn = Some(batch.next_lsn());
        if batch.bytes.is_empty() {
            assert!(batch.horizon >= ts);
            break batch.next_lsn();
        }
    };
    assert_eq!(next_lsn, db.wal().end_lsn().0, "caught up short of the end");
    assert_silent(&mut raw, &mut frames, 3 * tick);
    assert_eq!(stat(&db, "server.open_connections"), 1);

    let mut next_lsn = next_lsn;
    for id in 1..=3 {
        let ts = commit_one(&mut s, id);
        // Its records, then one empty batch. The records may come in two
        // batches and the horizon may lag a batch behind them if a step
        // falls between two of the commit's appends or before it is
        // visible; either way every byte comes once, in order.
        let batches = batches_for(&mut raw, &mut frames, ts);
        assert!(batches.len() <= 4, "{batches:?}");
        assert!(!batches[0].bytes.is_empty());
        for batch in batches.iter().filter(|b| !b.bytes.is_empty()) {
            assert_eq!(batch.start_lsn, next_lsn);
            next_lsn = batch.next_lsn();
        }
        assert_eq!(next_lsn, db.wal().end_lsn().0);
        assert_silent(&mut raw, &mut frames, 3 * tick);
    }

    // Anything but an ack ends the subscription, without a reply.
    let closed = db.metrics().server.connections_closed.get();
    write_request(&mut raw, &Request::Query("SELECT * FROM t".into()));
    wait_for("the subscription to close", || {
        db.metrics().server.connections_closed.get() == closed + 1
    });
    assert_eq!(stat(&db, "server.open_connections"), 0);
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert!(next_batch(&mut raw, &mut frames).is_err());

    // A subscriber that hangs up is closed, once.
    let (mut raw, mut frames) = raw_subscription(addr, next_lsn);
    assert!(next_batch(&mut raw, &mut frames).unwrap().bytes.is_empty());
    assert_eq!(stat(&db, "server.open_connections"), 1);
    drop(raw);
    wait_for("the hung-up subscription to close", || {
        db.metrics().server.connections_closed.get() == closed + 2
    });
    assert_eq!(stat(&db, "server.open_connections"), 0);
    drop(s);
    stop(db, server, dir);
}

/// A caught-up subscription is never idle; one whose batch stops moving
/// is closed an idle timeout after it stopped.
#[test]
fn subscriptions_meet_the_idle_rule() {
    let idle = Duration::from_millis(200);
    let cfg = ServerConfig::new("127.0.0.1:0")
        .workers(2)
        .idle_timeout(idle)
        .tick(Duration::from_millis(20));
    let (db, server, dir) = start_on("subscription-idle", cfg, |db| db);
    let addr = server.local_addr();
    load_wide(&db, HUGE);
    let mut s = Session::new(&db);
    s.execute("CREATE IMMORTAL TABLE t (id INT PRIMARY KEY, v INT)")
        .unwrap();
    let subscribed = Instant::now();
    let (mut caught_up, mut frames) = raw_subscription(addr, db.wal().end_lsn().0);
    assert!(next_batch(&mut caught_up, &mut frames)
        .unwrap()
        .bytes
        .is_empty());

    // A subscriber of the whole log that reads none of it.
    let (stalled_raw, _) = raw_subscription(addr, 0);
    wait_for("shipping to start", || stat(&db, "repl.bytes_shipped") > 0);
    let (_, stalled) = held_still("the shipping", Duration::from_millis(100), || {
        stat(&db, "repl.bytes_shipped")
    });
    wait_for("the stalled subscriber to be closed", || {
        stat(&db, "server.open_connections") == 1
    });
    let waited = stalled.elapsed();
    assert!(
        waited + Duration::from_millis(150) >= idle && waited < idle * 3,
        "closed after {waited:?} of a {idle:?} timeout"
    );

    // Three idle timeouts on, the caught-up one is still there.
    std::thread::sleep((idle * 3).saturating_sub(subscribed.elapsed()));
    let ts = commit_one(&mut s, 1);
    assert!(!batches_for(&mut caught_up, &mut frames, ts)[0]
        .bytes
        .is_empty());
    assert_eq!(stat(&db, "server.open_connections"), 1);
    drop((stalled_raw, caught_up, s));
    stop(db, server, dir);
}

/// A subscriber that stops reading holds one batch of the primary's and
/// nothing else: the log stops shipping to it, other clients are served,
/// and shutdown closes it like any other connection.
#[test]
fn a_stalled_subscriber_stops_no_one() {
    let cfg = ServerConfig::new("127.0.0.1:0").workers(2);
    let (db, server, dir) = start_on("stalled-subscriber", cfg, |db| db);
    let addr = server.local_addr();
    load_wide(&db, HUGE);
    let (raw, _frames) = raw_subscription(addr, 0);
    wait_for("shipping to start", || stat(&db, "repl.bytes_shipped") > 0);
    let (shipped, _) = held_still("the shipping", Duration::from_millis(100), || {
        stat(&db, "repl.bytes_shipped")
    });
    assert!(shipped < db.wal().end_lsn().0, "{shipped} bytes shipped");

    let mut c = Client::connect(addr).unwrap();
    assert_eq!(
        c.query("SELECT pad FROM wide WHERE id = 9000")
            .unwrap()
            .rows,
        vec![vec![Value::Varchar(wide_pad(9000))]]
    );
    drop(c);

    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.shutdown()));
    stopped
        .recv_timeout(Duration::from_secs(2))
        .expect("shutdown waited on the stalled subscriber")
        .unwrap();
    drop((raw, db));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mix`: one column of each type, text empty, ASCII or multi-byte
/// UTF-8, `n` rows loaded in-process.
fn load_mix(db: &Database, n: i32) -> Timestamp {
    let ddl = "CREATE IMMORTAL TABLE mix \
               (id INT PRIMARY KEY, s SMALLINT, b BIGINT, txt VARCHAR(64))";
    Session::new(db).execute(ddl).unwrap();
    let mut txn = db.begin(Isolation::Serializable);
    let rows = (0..n)
        .map(|id| {
            let txt = match id % 3 {
                0 => String::new(),
                1 => format!("żółć-{id}-日本語"),
                _ => format!("{id:0>40}"),
            };
            vec![
                Value::Int(id),
                Value::SmallInt((id % 7) as i16),
                Value::BigInt(i64::from(id) * -1_000_000_007),
                Value::Varchar(txt),
            ]
        })
        .collect();
    db.insert_rows(&mut txn, "mix", rows).unwrap();
    db.commit(&mut txn).unwrap()
}

/// Every row-returning statement answers over the wire exactly what
/// `Session::execute` answers in process — now that the server ships a
/// `SELECT *` row as the bytes it found on the page, a temporal row as
/// its lead columns followed by the stored image, and decodes only to
/// test a residual or to project — current and `AS OF`, for a result
/// well past one chunk.
#[test]
fn rows_leave_as_stored_bytes() {
    let (db, server, dir) = start_on("stored-bytes", ServerConfig::new("127.0.0.1:0"), |db| db);
    let n = 3_000;
    load_mix(&db, n);
    // Ticks are 20 ms: `mid` lies between the load and the changes.
    std::thread::sleep(Duration::from_millis(25));
    let mid = db.now_ms();
    std::thread::sleep(Duration::from_millis(25));
    let mut s = Session::new(&db);
    s.execute("UPDATE mix SET txt = 'ünïcode-ändert', b = 7 WHERE id < 300")
        .unwrap();
    s.execute("DELETE FROM mix WHERE id >= 2900").unwrap();
    s.execute("INSERT INTO mix VALUES (5000, 3, -1, '')")
        .unwrap();
    std::thread::sleep(Duration::from_millis(25));
    let end = db.now_ms();
    let at = Timestamp::as_of_clock(mid);

    let mut c = Client::connect(server.local_addr()).unwrap();
    let versions = format!("SELECT * FROM mix VERSIONS BETWEEN ms(0) AND ms({end})");
    let statements = [
        "SELECT * FROM mix".to_string(),
        "SELECT * FROM mix WHERE id = 42".to_string(),
        "SELECT * FROM mix WHERE id >= 100 AND id < 2950".to_string(),
        "SELECT * FROM mix WHERE s = 3".to_string(),
        "SELECT txt, id, b FROM mix WHERE id < 2000".to_string(),
        versions.clone(),
        format!("{versions} WHERE s = 3"),
        format!("SELECT b, id FROM mix VERSIONS BETWEEN ms({mid}) AND ms({end}) WHERE id > 2800"),
        format!("DIFF TABLE mix BETWEEN ms({mid}) AND ms({end})"),
        "HISTORY OF mix WHERE id = 7".to_string(),
        "HISTORY OF mix WHERE id = 2950".to_string(),
    ];
    let big = 64 * 1024;
    let mut chunked = 0;
    for sql in &statements {
        for as_of in [false, true] {
            let before = stat(&db, "server.row_chunks");
            let (wire, local) = if as_of {
                let wire = c.query_as_of(at, sql).unwrap();
                s.begin_as_of_ts(at).unwrap();
                let local = s.execute(sql).unwrap();
                s.commit().unwrap();
                (wire, local)
            } else {
                (c.query(sql).unwrap(), s.execute(sql).unwrap())
            };
            assert!(
                !local.rows.is_empty(),
                "{sql} (as of: {as_of}) answers nothing"
            );
            assert_eq!(wire.columns, local.columns, "{sql} (as of: {as_of})");
            assert_eq!(wire.rows, local.rows, "{sql} (as of: {as_of})");
            assert_eq!(wire.message, local.message, "{sql} (as of: {as_of})");
            let bytes: usize = local
                .rows
                .iter()
                .flatten()
                .map(|v| 5 + v.to_string().len())
                .sum();
            if bytes > big {
                assert!(
                    stat(&db, "server.row_chunks") - before > 1,
                    "{sql}: one chunk"
                );
                chunked += 1;
            }
        }
    }
    assert!(chunked >= 6, "only {chunked} results spanned chunks");
    drop(c);
    stop(db, server, dir);
}

/// `sql.rows_decoded` counts the stored rows turned into values: none
/// for a `SELECT *` the primary-key bounds answer whole — a full scan, a
/// point, a range — shipped over the wire, one per row a residual
/// predicate tests, and one per row `Session::execute` collects.
#[test]
fn a_wire_select_star_decodes_no_row() {
    let (db, server, dir) = start_on("rows-decoded", ServerConfig::new("127.0.0.1:0"), |db| db);
    let n = 1_000;
    load_mix(&db, n);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let decoded = |sql: &str, c: &mut Client| {
        let before = stat(&db, "sql.rows_decoded");
        let rows = c.query(sql).unwrap().rows.len();
        (rows, stat(&db, "sql.rows_decoded") - before)
    };
    assert_eq!(decoded("SELECT * FROM mix", &mut c), (1_000, 0));
    assert_eq!(decoded("SELECT * FROM mix WHERE id = 500", &mut c), (1, 0));
    assert_eq!(
        decoded("SELECT * FROM mix WHERE id >= 100 AND id < 300", &mut c),
        (200, 0)
    );
    let at = Timestamp::MAX;
    let before = stat(&db, "sql.rows_decoded");
    assert_eq!(
        c.query_as_of(at, "SELECT * FROM mix").unwrap().rows.len(),
        1_000
    );
    assert_eq!(stat(&db, "sql.rows_decoded"), before);
    // A residual is tested on every row the bounds let through.
    assert_eq!(
        decoded("SELECT * FROM mix WHERE s = 3", &mut c),
        (143, 1_000)
    );
    assert_eq!(
        decoded("SELECT * FROM mix WHERE id < 70 AND s = 3", &mut c),
        (10, 70)
    );
    // In process, the collector decodes what it returns.
    let before = stat(&db, "sql.rows_decoded");
    let rows = Session::new(&db).execute("SELECT * FROM mix").unwrap().rows;
    assert_eq!(rows.len(), 1_000);
    assert_eq!(stat(&db, "sql.rows_decoded") - before, 1_000);
    drop(c);
    stop(db, server, dir);
}
