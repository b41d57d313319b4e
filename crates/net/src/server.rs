//! What the serving runtime ([`crate::reactor`]) is configured with and
//! what it runs: [`ServerConfig`], request execution against a session
//! ([`handle_request`]), the WAL-subscription shipper ([`ship_wal`]) and
//! the one-frame refusal ([`shed`]).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use immortaldb::{Database, Session};
use immortaldb_common::{Error, Lsn, Result};

use crate::proto::{self, FrameBuffer, Reply, Request, WalBatch};

/// Upper bound on the WAL bytes in one replication batch. Record
/// boundaries are respected, so a single oversized record still ships
/// alone.
const SHIP_BATCH_BYTES: usize = 256 * 1024;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Requests that may execute (and so block) at once. The server runs
    /// `workers + 1` threads: one always holds the poll loop.
    /// Connections can far exceed it.
    pub workers: usize,
    /// Open-connection cap; accepts beyond it are shed with one
    /// SERVER_BUSY frame (`server.shed_connections`).
    pub max_connections: usize,
    /// Cap on connections with requests executing or queued; buffered
    /// requests beyond it are answered SERVER_BUSY without being decoded
    /// (`server.shed_requests`). `0` = auto (`workers * 16`).
    pub max_inflight: usize,
    /// Back-off hint carried in SERVER_BUSY replies (`retry_after_ms`).
    pub shed_retry_ms: u32,
    /// Sessions idle longer than this are rolled back and disconnected.
    pub idle_timeout: Duration,
    /// Granularity of the idle-session timer wheel.
    pub tick: Duration,
}

impl ServerConfig {
    pub fn new(addr: impl Into<String>) -> ServerConfig {
        ServerConfig {
            addr: addr.into(),
            workers: 8,
            max_connections: 4096,
            max_inflight: 0,
            shed_retry_ms: 25,
            idle_timeout: Duration::from_secs(300),
            tick: Duration::from_millis(25),
        }
    }

    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n.max(1);
        self
    }

    pub fn max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n;
        self
    }

    pub fn shed_retry_ms(mut self, ms: u32) -> Self {
        self.shed_retry_ms = ms;
        self
    }

    pub fn idle_timeout(mut self, d: Duration) -> Self {
        self.idle_timeout = d;
        self
    }

    pub fn tick(mut self, d: Duration) -> Self {
        self.tick = d.max(Duration::from_millis(1));
        self
    }
}

/// Tell an overflowing connection to go away, politely and in one frame
/// carrying the back-off hint.
pub(crate) fn shed(stream: TcpStream, retry_after_ms: Option<u32>) {
    let mut frame = Vec::new();
    Reply::from_error(&Error::ServerBusy { retry_after_ms }, false).encode_into(&mut frame);
    let _ = (&stream).write_all(&frame);
    // Dropping the stream closes it.
}

/// Stream WAL batches to a subscribed replica until it disconnects or
/// the server shuts down.
///
/// Ordering is the whole correctness story: the visibility horizon is
/// sampled *before* the log bytes. Commit records land in the log before
/// `CommitHorizon::retire` makes their timestamp visible, so every
/// commit at or below a horizon sampled first is already inside the
/// bytes read afterwards — the follower may safely serve `AS OF ts` for
/// any `ts ≤` that horizon once the batch is applied. An empty batch is
/// still sent when only the horizon moved (the idle-primary heartbeat).
/// Runs on a shipper thread of its own, on a blocking socket.
pub(crate) fn ship_wal(db: &Database, shutdown: &AtomicBool, stream: &TcpStream, from_lsn: u64) {
    let m = &db.metrics().repl;
    let mut from = from_lsn;
    let mut last_horizon = None;
    // An empty batch is the explicit "caught up" signal (bootstrap stops
    // on it); send exactly one per catch-up, then only when the horizon
    // moves again.
    let mut caught_up_signalled = false;
    let mut acks = FrameBuffer::new();
    let mut chunk = [0u8; 4 * 1024];
    let mut frame = Vec::new();
    let mut reader = stream;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let horizon = db.visible_horizon();
        let (bytes, next) = match db.wal().read_raw(Lsn(from), SHIP_BATCH_BYTES) {
            Ok(r) => r,
            Err(_) => return,
        };
        let send_now = if bytes.is_empty() {
            let due = last_horizon != Some(horizon) || !caught_up_signalled;
            caught_up_signalled = true;
            due
        } else {
            caught_up_signalled = false;
            true
        };
        if send_now {
            let batch = WalBatch {
                start_lsn: from,
                horizon,
                bytes,
            };
            frame.clear();
            batch.encode_into(&mut frame);
            if (&*stream).write_all(&frame).is_err() {
                return;
            }
            m.batches_shipped.inc();
            // The payload: the frame less its length and opcode.
            m.bytes_shipped.add(frame.len() as u64 - 5);
            last_horizon = Some(horizon);
            from = next.0;
        }
        // One tick on the socket: pick up acks, notice disconnects, and
        // pace the catch-up loop when there is nothing new to ship.
        match reader.read(&mut chunk) {
            Ok(0) => return, // subscriber went away
            Ok(n) => {
                acks.extend(&chunk[..n]);
                // Acks are informational; anything else on a subscribed
                // connection is a protocol error.
                loop {
                    match acks.take_frame(|opcode, payload| {
                        matches!(
                            Request::decode(opcode, payload),
                            Ok(Request::ReplAck { .. })
                        )
                    }) {
                        Ok(Some(true)) => {}
                        Ok(None) => break,
                        Ok(Some(false)) | Err(_) => return,
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Execute one request against the connection's session.
pub(crate) fn handle_request(db: &Database, session: &mut Session<'_>, req: Request<'_>) -> Reply {
    let m = &db.metrics().server;
    let result: Result<Reply> = (|| match req {
        Request::Hello { .. } => Err(Error::Sql("unexpected HELLO".into())),
        Request::Query(sql) => {
            let is_commit = session.in_transaction()
                && sql
                    .trim_start()
                    .get(..6)
                    .is_some_and(|p| p.eq_ignore_ascii_case("COMMIT"));
            let timer = is_commit.then(|| m.commit_ns.start_timer());
            let res = session.execute(&sql);
            drop(timer);
            let res = res?;
            let txn_open = session.in_transaction();
            if res.columns.is_empty() {
                Ok(Reply::Ok {
                    txn_open,
                    ts: None,
                    affected: res.affected as u64,
                    message: res.message.into(),
                })
            } else {
                Ok(Reply::Rows {
                    txn_open,
                    columns: res.columns,
                    rows: res.rows,
                    message: res.message.into(),
                })
            }
        }
        Request::Begin(iso) => {
            let snapshot = session.begin(iso)?;
            Ok(Reply::Ok {
                txn_open: true,
                ts: Some(snapshot),
                affected: 0,
                message: "transaction started".into(),
            })
        }
        Request::BeginAsOf(target) => {
            let effective = match target {
                proto::AsOfTarget::ClockMs(ms) => session.begin_as_of_ms(ms)?,
                proto::AsOfTarget::Exact(ts) => session.begin_as_of_ts(ts)?,
            };
            Ok(Reply::Ok {
                txn_open: true,
                ts: Some(effective),
                affected: 0,
                message: "historical transaction started".into(),
            })
        }
        Request::Commit => {
            let timer = m.commit_ns.start_timer();
            let ts = session.commit();
            drop(timer);
            let ts = ts?;
            Ok(Reply::Ok {
                txn_open: false,
                ts: Some(ts),
                affected: 0,
                message: format!("committed at {}.{}", ts.ttime, ts.sn).into(),
            })
        }
        Request::Rollback => {
            session.rollback()?;
            Ok(Reply::Ok {
                txn_open: false,
                ts: None,
                affected: 0,
                message: "rolled back".into(),
            })
        }
        // Subscriptions are intercepted by the serving loop (they take
        // over the whole connection); an ack outside one is a protocol
        // error.
        Request::SubscribeWal { .. } | Request::ReplAck { .. } => Err(Error::Sql(
            "replication frame outside a WAL subscription".into(),
        )),
    })();
    match result {
        Ok(reply) => reply,
        Err(e) => Reply::from_error(&e, session.in_transaction()),
    }
}
