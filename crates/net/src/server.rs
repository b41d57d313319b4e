//! What the serving runtime ([`crate::reactor`]) is configured with and
//! what it runs: [`ServerConfig`], request execution against a session
//! ([`handle_request`]) with its result rows encoded into the
//! connection's output buffer as they are read ([`RowStream`]), a WAL
//! subscription's shipping step ([`Subscription::ship`]) and the
//! SERVER_BUSY refusal ([`busy`]). None of it knows about threads, and
//! none of it writes to a socket but through [`flush_out`].

use std::io::{self, ErrorKind};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use immortaldb::{Database, Flow, RowSink, Session};
use immortaldb_common::{blocking, Error, Lsn, Result, Timestamp};
use immortaldb_obs::ServerMetrics;

use crate::proto::{self, FrameBuffer, Reply, Request, RowsEncoder, WalBatch};
use crate::reactor::{flush_out, OUT_CAP, ROW_CHUNK};
use crate::sys;

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
    /// `workers + 1` threads, whatever the number of connections and
    /// replicas: one always holds the poll loop.
    pub workers: usize,
    /// Open-connection cap; accepts beyond it are shed with one
    /// SERVER_BUSY frame (`server.shed_connections`).
    pub max_connections: usize,
    /// Cap on connections with requests executing or queued; buffered
    /// requests beyond it are answered SERVER_BUSY without being decoded
    /// (`server.shed_requests`). `0` = auto (`workers * 16`).
    pub max_inflight: usize,
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

    pub fn idle_timeout(mut self, d: Duration) -> Self {
        self.idle_timeout = d;
        self
    }

    pub fn tick(mut self, d: Duration) -> Self {
        self.tick = d.max(Duration::from_millis(1));
        self
    }
}

/// The back-off hint every SERVER_BUSY reply carries (`retry_after_ms`).
pub const SHED_RETRY_MS: u32 = 25;

/// The SERVER_BUSY reply, with the back-off hint.
pub(crate) fn busy(txn_open: bool) -> Reply {
    let retry_after_ms = Some(SHED_RETRY_MS);
    Reply::from_error(&Error::ServerBusy { retry_after_ms }, txn_open)
}

/// Where a WAL subscription stands: a connection whose result never ends,
/// served on the loop one [`Self::ship`] step at a time.
pub(crate) struct Subscription {
    /// The next LSN to ship.
    from: u64,
    /// The horizon of the last batch if it was empty, `None` while log is
    /// left to ship. An empty batch is the explicit "caught up" signal
    /// (bootstrap stops on it): one is sent per catch-up, then one only
    /// when the horizon moves again.
    caught_up_at: Option<Timestamp>,
}

impl Subscription {
    pub fn new(from: u64) -> Subscription {
        Subscription {
            from,
            caught_up_at: None,
        }
    }

    /// All of the log has shipped and been announced: only a tick or an
    /// ack brings the subscription back to [`Self::ship`].
    pub fn caught_up(&self) -> bool {
        self.caught_up_at.is_some()
    }

    /// One shipping step: take the subscriber's acks from `frames`, then,
    /// if the last batch has left `out`, encode the next one into it.
    /// An error closes the connection.
    ///
    /// Ordering is the whole correctness story: the visibility horizon is
    /// sampled *before* the log bytes. Commit records land in the log
    /// before `TimestampAuthority::retire` makes their timestamp visible,
    /// so every commit at or below a horizon sampled first is already
    /// inside the bytes read afterwards — the follower may safely serve
    /// `AS OF ts` for any `ts ≤` that horizon once the batch is applied.
    /// An empty batch is still sent when only the horizon moved (the
    /// idle-primary heartbeat).
    pub fn ship(
        &mut self,
        db: &Database,
        frames: &mut FrameBuffer,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        // Acks are informational; anything else on a subscribed
        // connection is a protocol error.
        while let Some(ack) = frames.take_frame(|opcode, payload| {
            matches!(
                Request::decode(opcode, payload),
                Ok(Request::ReplAck { .. })
            )
        })? {
            if !ack {
                return Err(Error::Sql("only REPL_ACK may follow SUBSCRIBE_WAL".into()));
            }
        }
        // One batch in hand at a time: the subscriber's pace is the
        // shipper's.
        if !out.is_empty() {
            return Ok(());
        }
        let horizon = db.visible_horizon();
        let (bytes, next) = db.wal().read_raw(Lsn(self.from), SHIP_BATCH_BYTES)?;
        if bytes.is_empty() && self.caught_up_at == Some(horizon) {
            return Ok(());
        }
        self.caught_up_at = bytes.is_empty().then_some(horizon);
        WalBatch {
            // Not `from`: the log's first record may lie past it.
            start_lsn: next.0 - bytes.len() as u64,
            horizon,
            bytes,
        }
        .encode_into(out);
        let m = &db.metrics().repl;
        m.batches_shipped.inc();
        // The payload: the frame less its length and opcode.
        m.bytes_shipped.add(out.len() as u64 - 5);
        self.from = next.0;
        Ok(())
    }
}

/// The connection a reply is written to: its output buffer and, for a
/// result that outgrows the buffer's cap, the socket to drain it into.
pub(crate) struct Wire<'a> {
    pub out: &'a mut Vec<u8>,
    pub stream: &'a TcpStream,
    pub shutdown: &'a AtomicBool,
    pub cfg: &'a ServerConfig,
    /// The socket failed, or its peer stopped reading, in the middle of a
    /// result: nothing more can be said on this connection.
    pub broken: bool,
}

impl Wire<'_> {
    /// Between two chunks of a result: send what the socket takes, and
    /// while the backlog is at [`OUT_CAP`], wait for it to take more —
    /// for as long as an idle session is suffered, no longer. The caller
    /// holds no latch; the loop is told before the first wait.
    fn drain(&mut self, m: &ServerMetrics) -> Result<()> {
        let drained = self.try_drain(m);
        self.broken = drained.is_err();
        Ok(drained?)
    }

    fn try_drain(&mut self, m: &ServerMetrics) -> io::Result<()> {
        let mut waiting_since = None;
        loop {
            let before = self.out.len();
            flush_out(self.stream, self.out)?;
            if self.out.len() < OUT_CAP {
                return Ok(());
            }
            let now = Instant::now();
            if self.out.len() < before {
                waiting_since = Some(now); // the peer is reading, slowly
            }
            let since = *waiting_since.get_or_insert_with(|| {
                m.stream_stalls.inc();
                blocking::about_to_block();
                now
            });
            if now.duration_since(since) >= self.cfg.idle_timeout
                || self.shutdown.load(Ordering::SeqCst)
            {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    "the client stopped reading a result in mid-stream",
                ));
            }
            // A tick at a time, to notice a shutdown.
            sys::wait_writable(self.stream.as_raw_fd(), self.cfg.tick)?;
        }
    }
}

/// The sink a statement's rows go into on their way to a client: each
/// row's image — for a whole stored row, the bytes the cursor found on
/// the page — is appended to the connection's output buffer as the
/// cursor visits it,
/// and every [`ROW_CHUNK`] bytes the frame is closed and the scan asked
/// to pause while the buffer is drained. A result that fits one chunk is
/// one frame, sent with whatever else the burst produced.
struct RowStream<'a, 'w> {
    wire: &'a mut Wire<'w>,
    m: &'a ServerMetrics,
    /// The session's state as the statement begins, for the frames that
    /// leave before it ends.
    txn_open: bool,
    /// `None` until the statement names its columns: one that never does
    /// returns no rows and is answered OK.
    enc: Option<RowsEncoder>,
    /// Rows encoded and not yet counted in `server.rows_streamed`.
    rows: u64,
}

impl RowStream<'_, '_> {
    /// Account for a frame about to be closed.
    fn count_chunk(&mut self) {
        self.m.row_chunks.inc();
        self.m.rows_streamed.add(std::mem::take(&mut self.rows));
    }
}

impl RowSink for RowStream<'_, '_> {
    fn columns(&mut self, names: Vec<String>) -> Result<()> {
        self.enc = Some(RowsEncoder::begin(self.wire.out, self.txn_open, &names));
        Ok(())
    }

    fn row(&mut self, image: &[u8]) -> Result<Flow> {
        let enc = self.enc.as_mut().expect("columns come before rows");
        enc.row(self.wire.out, image);
        self.rows += 1;
        Ok(if enc.frame_len(self.wire.out) < ROW_CHUNK {
            Flow::Continue
        } else {
            Flow::Stop
        })
    }

    fn flush(&mut self) -> Result<()> {
        if let Some(enc) = &mut self.enc {
            enc.end_chunk(self.wire.out);
            self.count_chunk();
        }
        self.wire.drain(self.m)
    }
}

/// Execute one request against the connection's session. Returns the
/// reply, or `None` once a result set has gone into `wire` as the reply.
pub(crate) fn handle_request(
    db: &Database,
    session: &mut Session<'_>,
    req: Request<'_>,
    wire: &mut Wire<'_>,
) -> Option<Reply> {
    let m = &db.metrics().server;
    let result: Result<Option<Reply>> = (|| match req {
        Request::Hello { .. } => Err(Error::Sql("unexpected HELLO".into())),
        // Sent behind a BEGIN that was shed or refused: running it would
        // make it autocommit.
        Request::QueryInTxn(_) if !session.in_transaction() => Err(Error::Sql(
            "no open transaction: a statement sent for one was not run".into(),
        )),
        Request::Query(sql) | Request::QueryInTxn(sql) => statement(session, &sql, None, wire, m),
        // The client holds the AS OF transaction: each statement gets a
        // read-only one of its own at the target (refused if the session
        // holds one already), ended once it is answered.
        Request::QueryAsOf(target, sql) => {
            let at = match target {
                proto::AsOfTarget::ClockMs(ms) => session.begin_as_of_ms(ms)?,
                proto::AsOfTarget::Exact(ts) => session.begin_as_of_ts(ts)?,
            };
            let reply = statement(session, &sql, Some(at), wire, m);
            if session.in_transaction() {
                // Read-only: nothing to log, so nothing that can fail.
                let _ = session.commit();
            }
            reply
        }
        Request::Begin(iso) => {
            let snapshot = session.begin(iso)?;
            Ok(Some(Reply::Ok {
                txn_open: true,
                ts: Some(snapshot),
                affected: 0,
                message: "transaction started".into(),
            }))
        }
        Request::Commit => {
            let timer = m.commit_ns.start_timer();
            let ts = session.commit();
            drop(timer);
            let ts = ts?;
            Ok(Some(Reply::Ok {
                txn_open: false,
                ts: Some(ts),
                affected: 0,
                message: format!("committed at {}.{}", ts.ttime, ts.sn).into(),
            }))
        }
        Request::Rollback => {
            session.rollback()?;
            Ok(Some(Reply::Ok {
                txn_open: false,
                ts: None,
                affected: 0,
                message: "rolled back".into(),
            }))
        }
        // Subscriptions are intercepted by the serving loop (they take
        // over the whole connection); an ack outside one is a protocol
        // error.
        Request::SubscribeWal { .. } | Request::ReplAck { .. } => Err(Error::Sql(
            "replication frame outside a WAL subscription".into(),
        )),
    })();
    result.unwrap_or_else(|e| Some(Reply::from_error(&e, session.in_transaction())))
}

/// Run one SQL statement, its rows streamed into `wire` as the reply;
/// otherwise the reply is returned. `at`, the instant a QUERY_AS_OF runs
/// at, goes back with the answer.
fn statement(
    session: &mut Session<'_>,
    sql: &str,
    at: Option<Timestamp>,
    wire: &mut Wire<'_>,
    m: &ServerMetrics,
) -> Result<Option<Reply>> {
    let is_commit = session.in_transaction()
        && sql
            .trim_start()
            .get(..6)
            .is_some_and(|p| p.eq_ignore_ascii_case("COMMIT"));
    let timer = is_commit.then(|| m.commit_ns.start_timer());
    let mut rows = RowStream {
        txn_open: session.in_transaction(),
        wire,
        m,
        enc: None,
        rows: 0,
    };
    let res = session.execute_into(sql, &mut rows);
    drop(timer);
    let txn_open = session.in_transaction();
    match (res, rows.enc.take()) {
        (Ok(done), Some(enc)) => {
            rows.count_chunk();
            enc.finish(rows.wire.out, txn_open, at, &done.message);
            Ok(None) // the reply is in the buffer already
        }
        (Ok(done), None) => Ok(Some(Reply::Ok {
            txn_open,
            ts: at,
            affected: done.affected as u64,
            message: done.message.into(),
        })),
        // The error goes where the open frame stood; the chunks sent
        // before it are the client's to discard.
        (Err(e), enc) => {
            if let Some(enc) = enc {
                enc.abandon(rows.wire.out);
            }
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use immortaldb::row::encode_values;
    use immortaldb::Value;
    use std::net::TcpListener;

    /// A result streamed at a peer that never reads: the backlog stops at
    /// the cap plus the chunk being closed, the producer is held in
    /// `flush`, and after an idle timeout without progress it is told the
    /// connection is gone.
    #[test]
    fn the_backlog_of_an_unread_result_stops_at_the_cap_plus_one_chunk() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_peer, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let cfg = ServerConfig::new("unused")
            .idle_timeout(Duration::from_millis(150))
            .tick(Duration::from_millis(10));
        let (shutdown, m) = (AtomicBool::new(false), ServerMetrics::default());
        let mut out = Vec::new();
        let mut wire = Wire {
            out: &mut out,
            stream: &stream,
            shutdown: &shutdown,
            cfg: &cfg,
            broken: false,
        };
        let mut sink = RowStream {
            wire: &mut wire,
            m: &m,
            txn_open: false,
            enc: None,
            rows: 0,
        };
        sink.columns(vec!["id".into(), "pad".into()]).unwrap();
        let pad = "x".repeat(1_000);
        let row_bytes = 5 + 5 + pad.len();
        let (mut backlog, mut frames) = (0, 0);
        let stopped = (0..).find_map(|i| {
            let mut image = Vec::new();
            encode_values(&mut image, &[Value::Int(i), Value::Varchar(pad.clone())]);
            match sink.row(&image) {
                Ok(Flow::Stop) => {
                    frames += 1;
                    backlog = backlog.max(sink.wire.out.len());
                    sink.flush().err()
                }
                Ok(_) => None,
                Err(e) => Some(e),
            }
        });
        match stopped {
            Some(Error::Io(e)) => assert_eq!(e.kind(), ErrorKind::TimedOut),
            other => panic!("expected the stall to time out, got {other:?}"),
        }
        // What the kernel took is gone from the backlog, so the stream ran
        // well past the cap before it stalled — and never above this:
        assert!(frames * ROW_CHUNK > 2 * OUT_CAP, "{frames} frames");
        assert!(
            backlog >= OUT_CAP && backlog <= OUT_CAP + ROW_CHUNK + row_bytes,
            "backlog peaked at {backlog}"
        );
        assert!(wire.broken);
        assert!(m.stream_stalls.get() >= 1);
        assert_eq!(m.row_chunks.get(), frames as u64);
    }
}
