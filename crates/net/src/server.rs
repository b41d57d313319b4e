//! What the serving runtime ([`crate::reactor`]) is configured with and
//! what it runs: [`ServerConfig`], request execution against a session
//! (`handle_request`) with its result rows encoded into the
//! connection's output buffer as they are read (`RowStream`) and taken
//! in steps while the socket takes them (`stream`), a WAL subscription's
//! shipping step (`Subscription::ship`) and the SERVER_BUSY refusal
//! (`busy`). None of it knows about threads or waits for a socket, and
//! none of it writes to one but through `flush_out`.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

use immortaldb::{Database, Flow, Paused, RowSink, Session, Step};
use immortaldb_common::{Error, Lsn, Result, Timestamp};
use immortaldb_obs::ServerMetrics;

use crate::proto::{self, FrameBuffer, Reply, Request, RowsEncoder, WalBatch};
use crate::reactor::{flush_out, OUT_CAP, ROW_CHUNK};

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

/// A result set in mid-stream: its statement, paused after a chunk, and
/// its frames. The connection holds it from one step to the next, and
/// reads no request behind it until it has ended.
pub(crate) struct Streaming {
    pub paused: Paused,
    frames: Frames,
}

/// What a result set's frames are encoded with, from its statement's
/// first step to its last.
struct Frames {
    /// The session's state as the statement began, for every frame.
    txn_open: bool,
    /// The instant a QUERY_AS_OF runs at, for the last frame.
    at: Option<Timestamp>,
    /// `None` until the statement names its columns: one that never does
    /// returns no rows and is answered OK.
    enc: Option<RowsEncoder>,
}

/// Take a result's steps on this thread while the socket takes them:
/// returns the result, paused, once its reader is behind (the connection
/// holds it until the socket has room; no thread waits for that), `None`
/// once it has ended. A socket that fails ends it.
pub(crate) fn stream(
    db: &Database,
    session: &mut Session<'_>,
    socket: &TcpStream,
    out: &mut Vec<u8>,
    mut result: Streaming,
) -> io::Result<Option<Streaming>> {
    let m = &db.metrics().server;
    loop {
        if let Err(e) = flush_out(socket, out) {
            result.paused.abandon(db);
            return Err(e);
        }
        if out.len() >= OUT_CAP {
            m.stream_stalls.inc();
            return Ok(Some(result));
        }
        let (Streaming { paused, frames }, mut next) = (result, None);
        let resumed = step(session, out, m, frames, &mut next, |s, sink| {
            s.resume(paused, sink)
        });
        if let Err(e) = resumed {
            m.errors.inc();
            Reply::from_error(&e, session.in_transaction()).encode_into(out);
        }
        let Some(next) = next else {
            return Ok(None);
        };
        result = next;
    }
}

/// The sink a statement's rows go into on their way to a client: each
/// row's image — for a whole stored row, the bytes the cursor found on
/// the page — is appended to the connection's output buffer as the
/// cursor visits it, and every [`ROW_CHUNK`] bytes the frame is closed
/// and the statement's step ended. A result that fits one chunk is one
/// frame, sent with whatever else the burst produced.
struct RowStream<'a> {
    out: &'a mut Vec<u8>,
    m: &'a ServerMetrics,
    frames: &'a mut Frames,
    /// Rows encoded and not yet counted in `server.rows_streamed`.
    rows: u64,
}

impl RowStream<'_> {
    /// Account for a frame about to be closed.
    fn count_chunk(&mut self) {
        self.m.row_chunks.inc();
        self.m.rows_streamed.add(std::mem::take(&mut self.rows));
    }
}

impl RowSink for RowStream<'_> {
    fn columns(&mut self, names: Vec<String>) -> Result<()> {
        self.frames.enc = Some(RowsEncoder::begin(self.out, self.frames.txn_open, &names));
        Ok(())
    }

    fn row(&mut self, image: &[u8]) -> Result<Flow> {
        let enc = self.frames.enc.as_mut().expect("columns come before rows");
        enc.row(self.out, image);
        self.rows += 1;
        if enc.frame_len(self.out) < ROW_CHUNK {
            return Ok(Flow::Continue);
        }
        enc.end_chunk(self.out);
        self.count_chunk();
        Ok(Flow::Stop)
    }
}

/// One step of a statement: `run` it into a sink that encodes its rows
/// into `out` as `frames`. Returns the reply of a statement that returned
/// no rows; the reply of one that did is in `out`, whole or, if it
/// paused, in part, the rest to come from `result`.
fn step<'s>(
    session: &mut Session<'s>,
    out: &mut Vec<u8>,
    m: &ServerMetrics,
    mut frames: Frames,
    result: &mut Option<Streaming>,
    run: impl FnOnce(&mut Session<'s>, &mut dyn RowSink) -> Result<Step>,
) -> Result<Option<Reply>> {
    let mut rows = RowStream {
        out,
        m,
        frames: &mut frames,
        rows: 0,
    };
    match run(session, &mut rows) {
        Ok(Step::Paused(paused)) => {
            *result = Some(Streaming { paused, frames });
            Ok(None)
        }
        Ok(Step::Done(done)) => match rows.frames.enc.take() {
            Some(enc) => {
                rows.count_chunk();
                let Frames { txn_open, at, .. } = *rows.frames;
                enc.finish(rows.out, txn_open, at, &done.message);
                Ok(None)
            }
            None => Ok(Some(Reply::Ok {
                txn_open: session.in_transaction(),
                ts: frames.at,
                affected: done.affected as u64,
                message: done.message.into(),
            })),
        },
        // The error goes where the open frame stood; the chunks sent
        // before it are the client's to discard.
        Err(e) => {
            if let Some(enc) = rows.frames.enc.take() {
                enc.abandon(rows.out);
            }
            Err(e)
        }
    }
}

/// Execute one request against the connection's session. Returns the
/// reply, or `None` once a result set has gone into `out` as the reply —
/// whole, or in part with the rest to come from `result`.
pub(crate) fn handle_request(
    db: &Database,
    session: &mut Session<'_>,
    req: Request<'_>,
    out: &mut Vec<u8>,
    result: &mut Option<Streaming>,
) -> Option<Reply> {
    let m = &db.metrics().server;
    let reply: Result<Option<Reply>> = (|| match req {
        Request::Hello { .. } => Err(Error::Sql("unexpected HELLO".into())),
        // Sent behind a BEGIN that was shed or refused: running it would
        // make it autocommit.
        Request::QueryInTxn(_) if !session.in_transaction() => Err(Error::Sql(
            "no open transaction: a statement sent for one was not run".into(),
        )),
        Request::Query(sql) | Request::QueryInTxn(sql) => {
            statement(session, &sql, None, out, m, result)
        }
        // The client holds the AS OF transaction: each statement gets a
        // read-only one of its own at the target (refused if the session
        // holds one already), ended once it is answered.
        Request::QueryAsOf(target, sql) => {
            let at = match target {
                proto::AsOfTarget::ClockMs(ms) => session.begin_as_of_ms(ms)?,
                proto::AsOfTarget::Exact(ts) => session.begin_as_of_ts(ts)?,
            };
            let reply = statement(session, &sql, Some(at), out, m, result);
            if let Some(result) = result {
                // A result in mid-stream takes it along.
                session.hand_txn_to(&mut result.paused);
            } else if session.in_transaction() {
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
    reply.unwrap_or_else(|e| Some(Reply::from_error(&e, session.in_transaction())))
}

/// Run one SQL statement's first step, its rows streamed into `out`.
/// `at`, the instant a QUERY_AS_OF runs at, goes back with the answer.
fn statement(
    session: &mut Session<'_>,
    sql: &str,
    at: Option<Timestamp>,
    out: &mut Vec<u8>,
    m: &ServerMetrics,
    result: &mut Option<Streaming>,
) -> Result<Option<Reply>> {
    let is_commit = session.in_transaction()
        && sql
            .trim_start()
            .get(..6)
            .is_some_and(|p| p.eq_ignore_ascii_case("COMMIT"));
    let _timer = is_commit.then(|| m.commit_ns.start_timer());
    let txn_open = session.in_transaction();
    let frames = Frames {
        txn_open,
        at,
        enc: None,
    };
    step(session, out, m, frames, result, |s, sink| {
        s.execute_into(sql, sink)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use immortaldb::{DbConfig, Isolation, Value};
    use immortaldb_chaos::TempDir;
    use std::net::TcpListener;

    /// A result streamed at a peer that never reads: the backlog stops at
    /// the cap plus the chunk being closed, and there the statement
    /// pauses and the thread returns, the paused result in hand — turn
    /// after turn.
    #[test]
    fn the_backlog_of_an_unread_result_stops_at_the_cap_plus_one_chunk() {
        let dir = TempDir::new("unread-result");
        let db = Database::open(DbConfig::new(&dir)).unwrap();
        let pad = "x".repeat(1_000);
        let row_bytes = 5 + 5 + pad.len();
        // 32 MB: the cap and what the kernel buffers, several times over.
        Session::new(&db)
            .execute("CREATE TABLE t (id INT PRIMARY KEY, pad VARCHAR(1000))")
            .unwrap();
        for ids in (0..32_000).collect::<Vec<_>>().chunks(1_000) {
            let mut txn = db.begin(Isolation::Serializable);
            let rows = ids
                .iter()
                .map(|&id| vec![Value::Int(id), Value::Varchar(pad.clone())])
                .collect();
            db.insert_rows(&mut txn, "t", rows).unwrap();
            db.commit(&mut txn).unwrap();
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let socket = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_peer, _) = listener.accept().unwrap();
        socket.set_nonblocking(true).unwrap();
        let m = &db.metrics().server;
        let (mut session, mut out) = (Session::new(&db), Vec::new());
        let mut result = None;
        statement(
            &mut session,
            "SELECT * FROM t",
            None,
            &mut out,
            m,
            &mut result,
        )
        .unwrap();
        let result = result.expect("a result larger than its first chunk");
        // Turn after turn, as the loop would take them once the socket
        // has room, until the kernel takes no more: each returns at once,
        // the result paused again.
        let (mut result, mut backlog, mut frames) = (result, 0, 0);
        let mut still = 0;
        while still < 5 {
            result = stream(&db, &mut session, &socket, &mut out, result)
                .unwrap()
                .expect("the result paused");
            backlog = backlog.max(out.len());
            let moved = m.row_chunks.get() as usize;
            still = if moved == frames { still + 1 } else { 0 };
            frames = moved;
            std::thread::sleep(Duration::from_millis(20));
        }
        // What the kernel took is gone from the backlog, so the stream ran
        // well past the cap — and never above this:
        assert!(frames * ROW_CHUNK > 2 * OUT_CAP, "{frames} frames");
        assert!(
            backlog >= OUT_CAP && backlog <= OUT_CAP + ROW_CHUNK + row_bytes,
            "backlog peaked at {backlog}"
        );
        assert!(m.stream_stalls.get() >= 1);
        result.paused.abandon(&db);
        db.close().unwrap();
    }
}
