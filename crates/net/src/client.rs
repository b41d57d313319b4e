//! Blocking client for the Immortal DB wire protocol.
//!
//! [`Client::connect`] performs the HELLO handshake; after that,
//! [`Client::query`] runs one statement per round trip — or
//! [`Client::query_rows`], which hands each row of the result over as it
//! is decoded instead of collecting them — and the typed
//! [`Client::commit`] returns the real commit timestamp instead of a
//! message to parse.
//!
//! BEGIN is deferred, as pgjdbc does it: [`Client::begin`] sends
//! nothing, and the BEGIN frame leaves in the same `write` as the
//! transaction's first request, so a transaction costs one round trip
//! less. Its reply is read first: a BEGIN that failed is the error the
//! first request returns, and [`Client::snapshot`] holds the begin
//! snapshot once it succeeded. Every statement sent while a transaction
//! is open, or begun here, goes out as QUERY_IN_TXN, which the server
//! refuses unless the session holds a transaction: a statement behind a
//! BEGIN that was shed never runs as autocommit.
//!
//! A read-only AS OF transaction is held here, not by the server: an
//! `AS OF t` answer never changes, so the transaction is its timestamp.
//! [`Client::begin_as_of_ts`] and [`Client::begin_as_of_ms`] record the
//! target, each statement leaves as one self-contained QUERY_AS_OF
//! frame, and [`Client::commit`] and [`Client::rollback`] send nothing.
//! The first answer says the instant the target came to (the server
//! clamps a target past its visibility horizon), and every later
//! statement asks for that instant exactly; until it is known, a second
//! statement is refused here rather than sent. [`Client::query_as_of`]
//! is a whole historical read in one frame. The server holds nothing for
//! such a transaction, so its idle reaper may close the connection while
//! the client still holds the instant: a statement of it that finds the
//! connection closed before any row arrived is sent once more on a new
//! connection, if no other reply is owed. It answers the same, read-only
//! at a fixed instant. No other statement is ever sent twice. For pipelining,
//! [`Client::send_query`] writes a request without waiting and
//! [`Client::recv_response`] collects the replies in order — the server
//! executes pipelined requests back-to-back, letting group commit batch
//! across connections.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use immortaldb::{Isolation, Value};
use immortaldb_common::{Error, ErrorCode, Result, Timestamp};

use crate::proto::{op, AsOfTarget, FrameBuffer, Reply, Request, RowsFrame, WalBatch, VERSION};

/// A decoded non-error server response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    pub affected: u64,
    pub message: String,
    /// Commit timestamp (COMMIT), or the instant a statement of an AS OF
    /// transaction ran at.
    pub ts: Option<Timestamp>,
}

/// Where the rows of a reply go as they are decoded.
trait RowTarget {
    /// Decode the rows left in `frame` and take them, each decoded over
    /// `row` unless the target keeps rows of its own.
    fn take(&mut self, frame: &mut RowsFrame<'_>, row: &mut Vec<Value>) -> Result<()>;
}

/// Handing on: every row is decoded over the one `row` and lent.
impl<F: FnMut(&[Value])> RowTarget for F {
    fn take(&mut self, frame: &mut RowsFrame<'_>, row: &mut Vec<Value>) -> Result<()> {
        while frame.next_row(row)? {
            self(row);
        }
        Ok(())
    }
}

/// Counting: the rows the target inside took.
struct Counted<'a, T> {
    target: &'a mut T,
    rows: usize,
}

impl<T: RowTarget> RowTarget for Counted<'_, T> {
    fn take(&mut self, frame: &mut RowsFrame<'_>, row: &mut Vec<Value>) -> Result<()> {
        let before = frame.rows_left;
        let taken = self.target.take(frame, row);
        self.rows += before - frame.rows_left;
        taken
    }
}

/// Collecting: room is reserved a frame ahead, and each row is decoded
/// straight into its own allocation, made at its exact size.
impl RowTarget for Vec<Vec<Value>> {
    fn take(&mut self, frame: &mut RowsFrame<'_>, _: &mut Vec<Value>) -> Result<()> {
        self.reserve(frame.rows_left);
        while frame.rows_left > 0 {
            let mut row = Vec::with_capacity(frame.ncols());
            frame.next_row(&mut row)?;
            self.push(row);
        }
        Ok(())
    }
}

/// What a reply still owed answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owed {
    /// A BEGIN that left with the request behind it: its reply comes
    /// first and is part of that request's response.
    Begin,
    /// A request of the session: its reply says whether the session
    /// holds a transaction.
    Session,
    /// A statement of an AS OF transaction: its reply says the instant it
    /// ran at.
    AsOf,
}

/// One connection to an `immortaldb-server`.
pub struct Client {
    stream: TcpStream,
    /// The server's address, for a reconnect.
    peer: SocketAddr,
    /// Bytes received and not yet decoded; reused across replies.
    inbox: FrameBuffer,
    /// The row a result is decoded over for a target that keeps no rows;
    /// reused across rows.
    row: Vec<Value>,
    /// The frames of the call in hand, encoded here and sent in one
    /// `write`; reused across requests.
    outbox: Vec<u8>,
    /// The session holds a transaction, or one was begun here whose
    /// BEGIN has not been answered: statements go out as QUERY_IN_TXN.
    txn_open: bool,
    /// A BEGIN not yet sent: it leaves with the next request.
    deferred_begin: Option<Isolation>,
    /// The AS OF transaction held here: what its statements ask for —
    /// the target it was begun at, then the instant the first answer
    /// named, exactly.
    as_of: Option<AsOfTarget>,
    /// The last BEGIN's snapshot, or the instant of the AS OF
    /// transaction, once a reply has said it.
    snapshot: Option<Timestamp>,
    /// The replies owed, oldest first (pipelining depth).
    owed: VecDeque<Owed>,
}

impl Client {
    /// Connect and handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            peer: stream.peer_addr()?,
            stream,
            inbox: FrameBuffer::new(),
            row: Vec::new(),
            outbox: Vec::new(),
            txn_open: false,
            deferred_begin: None,
            as_of: None,
            snapshot: None,
            owed: VecDeque::new(),
        };
        client.send(&Request::Hello { version: VERSION }, Owed::Session)?;
        client.recv_response()?;
        Ok(client)
    }

    /// Whether a transaction is open: the server reports one on this
    /// session, one was begun here whose BEGIN has not been answered, or
    /// an AS OF transaction is held here.
    pub fn in_transaction(&self) -> bool {
        self.txn_open || self.as_of.is_some()
    }

    /// The begin snapshot of the last transaction begun here, once the
    /// server has answered its BEGIN; for an AS OF transaction, the
    /// instant its statements read at (the target, clamped to the
    /// server's visibility horizon), once one has been answered. `None`
    /// before that.
    pub fn snapshot(&self) -> Option<Timestamp> {
        self.snapshot
    }

    /// Execute one SQL statement and wait for its result.
    pub fn query(&mut self, sql: &str) -> Result<Response> {
        let mut rows = Vec::new();
        let mut resp = self.exchange(sql, &mut rows)?;
        resp.rows = rows;
        Ok(resp)
    }

    /// Execute one SQL statement, handing `on_row` each row of its result
    /// as it arrives: a result of any size passes through one frame's
    /// worth of memory. The returned [`Response`] has everything but the
    /// rows. If the statement fails after rows have been handed over, the
    /// error is returned all the same.
    pub fn query_rows(&mut self, sql: &str, mut on_row: impl FnMut(&[Value])) -> Result<Response> {
        self.exchange(sql, &mut on_row)
    }

    /// Send `sql` and receive its reply. A statement of the AS OF
    /// transaction held here, sent with no other reply owed, that finds
    /// the connection closed before a row of its answer arrived is sent
    /// once more on a new connection: the server held nothing for it.
    fn exchange(&mut self, sql: &str, rows: &mut impl RowTarget) -> Result<Response> {
        let resendable = self.as_of.is_some() && self.owed.is_empty();
        let mut counted = Counted {
            target: &mut *rows,
            rows: 0,
        };
        let first = self
            .send_query(sql)
            .and_then(|()| self.recv_into(&mut counted));
        match first {
            Err(Error::Io(e)) if resendable && counted.rows == 0 && closed(&e) => {
                self.reconnect()?;
                self.send_query(sql)?;
                self.recv_into(rows)
            }
            other => other,
        }
    }

    /// A new connection and HELLO in place of one the server closed. The
    /// AS OF transaction held here goes on over it.
    fn reconnect(&mut self) -> Result<()> {
        let stream = TcpStream::connect(self.peer)?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        self.inbox = FrameBuffer::new();
        self.owed.clear();
        self.send(&Request::Hello { version: VERSION }, Owed::Session)?;
        self.recv_response().map(|_| ())
    }

    /// Begin an explicit transaction. Nothing is sent: the BEGIN leaves
    /// with the next request, and [`Client::snapshot`] holds the begin
    /// snapshot once that request has been answered.
    pub fn begin(&mut self, isolation: Isolation) -> Result<()> {
        self.refuse_if_open()?;
        self.deferred_begin = Some(isolation);
        self.txn_open = true;
        self.snapshot = None;
        Ok(())
    }

    /// Begin a read-only AS OF transaction from epoch milliseconds, held
    /// here: nothing is sent. [`Client::snapshot`] gives the effective
    /// (horizon-clamped) timestamp once a statement has been answered.
    pub fn begin_as_of_ms(&mut self, ms: u64) -> Result<()> {
        self.begin_as_of(AsOfTarget::ClockMs(ms))
    }

    /// Begin a read-only AS OF transaction at an exact timestamp, e.g.
    /// one returned by [`Client::commit`], held here like
    /// [`Client::begin_as_of_ms`].
    pub fn begin_as_of_ts(&mut self, ts: Timestamp) -> Result<()> {
        self.begin_as_of(AsOfTarget::Exact(ts))
    }

    fn begin_as_of(&mut self, target: AsOfTarget) -> Result<()> {
        self.refuse_if_open()?;
        // Its answer would name the instant of this one.
        if self.owed.contains(&Owed::AsOf) {
            return Err(Error::Sql(
                "a statement of the last AS OF transaction is still unanswered".into(),
            ));
        }
        self.as_of = Some(target);
        self.snapshot = None;
        Ok(())
    }

    fn refuse_if_open(&self) -> Result<()> {
        if self.in_transaction() {
            return Err(Error::Sql("transaction already open".into()));
        }
        Ok(())
    }

    /// Commit the open transaction; returns its commit timestamp. An AS
    /// OF transaction sends nothing and returns its instant — unless no
    /// statement has been answered yet, when one round trip asks the
    /// server what the target comes to.
    pub fn commit(&mut self) -> Result<Timestamp> {
        let ts = if self.as_of.is_some() {
            if self.snapshot.is_none() {
                self.query("COMMIT")?;
            }
            self.as_of = None;
            self.snapshot
        } else {
            self.send(&Request::Commit, Owed::Session)?;
            self.recv_response()?.ts
        };
        ts.ok_or_else(|| Error::Corruption("server reply missing timestamp".into()))
    }

    /// Run one statement `AS OF ts` as a read-only transaction of its own:
    /// one QUERY_AS_OF frame, one reply. Returns the statement's result
    /// with `ts` set to the effective timestamp (`ts` clamped to the
    /// server's visibility horizon); either way no transaction is left
    /// open. Refused while a transaction is open.
    pub fn query_as_of(&mut self, ts: Timestamp, sql: &str) -> Result<Response> {
        self.begin_as_of_ts(ts)?;
        let rows = self.query(sql);
        self.as_of = None;
        rows
    }

    /// Roll back the open transaction. An AS OF transaction, or one whose
    /// BEGIN was never sent, is dropped here, with nothing sent.
    pub fn rollback(&mut self) -> Result<()> {
        if self.as_of.take().is_some() {
            return Ok(());
        }
        if self.deferred_begin.take().is_some() {
            self.txn_open = false;
            return Ok(());
        }
        self.send(&Request::Rollback, Owed::Session)?;
        self.recv_response().map(|_| ())
    }

    /// Send a statement without waiting for the reply (pipelining). Pair
    /// each call with one [`Client::recv_response`]; replies arrive in
    /// request order. Inside a transaction it goes as QUERY_IN_TXN, inside
    /// an AS OF transaction as QUERY_AS_OF — refused while the first
    /// statement of one is unanswered, since until then its instant is
    /// not known and a second statement could run at another.
    pub fn send_query(&mut self, sql: &str) -> Result<()> {
        if let Some(target) = self.as_of {
            if self.snapshot.is_none() && self.owed.contains(&Owed::AsOf) {
                return Err(Error::Sql(
                    "an AS OF transaction's first statement is unanswered: \
                     its instant is not known yet"
                        .into(),
                ));
            }
            self.send(&Request::QueryAsOf(target, sql.into()), Owed::AsOf)
        } else if self.txn_open {
            self.send(&Request::QueryInTxn(sql.into()), Owed::Session)
        } else {
            self.send(&Request::Query(sql.into()), Owed::Session)
        }
    }

    /// Receive the next pending response, its rows collected. Error
    /// frames are surfaced as [`Error::ServerBusy`] or [`Error::Remote`]
    /// (with the typed code and, for parse errors, the byte offset).
    pub fn recv_response(&mut self) -> Result<Response> {
        let mut rows = Vec::new();
        let mut resp = self.recv_into(&mut rows)?;
        resp.rows = rows;
        Ok(resp)
    }

    /// Receive the next pending response, passing the rows of a result
    /// set to `rows` frame by frame as its chunks arrive. The reply of a
    /// BEGIN that left with the request comes first: if the BEGIN
    /// failed, its error is returned in place of the request's result,
    /// which is read and dropped (the server refused or shed it).
    fn recv_into(&mut self, rows: &mut impl RowTarget) -> Result<Response> {
        if self.owed.front() == Some(&Owed::Begin) {
            match self.recv_reply(&mut Vec::new()) {
                Ok(begun) => self.snapshot = begun.ts,
                Err(e) => {
                    self.recv_reply(&mut |_: &[Value]| {}).ok();
                    return Err(e);
                }
            }
        }
        self.recv_reply(rows)
    }

    /// Receive one reply.
    fn recv_reply(&mut self, rows: &mut impl RowTarget) -> Result<Response> {
        // The column names, once the first frame of a result has come.
        let mut columns: Option<Vec<String>> = None;
        let row = &mut self.row;
        let reply = loop {
            let frame = self
                .inbox
                .read_frame(&mut self.stream, |opcode, payload| {
                    if opcode != op::ROWS {
                        // An ERROR may cut a result short; nothing else may.
                        return match Reply::decode(opcode, payload)? {
                            Reply::Ok { .. } if columns.is_some() => {
                                Err(Error::Corruption("OK frame inside a result".into()))
                            }
                            reply => Ok(Some(reply)),
                        };
                    }
                    let mut frame = RowsFrame::decode(payload)?;
                    match (frame.columns.take(), &columns) {
                        (Some(names), None) => columns = Some(names),
                        (None, Some(_)) => {}
                        _ => return Err(Error::Corruption("ROWS frame out of sequence".into())),
                    }
                    rows.take(&mut frame, row)?;
                    // The last frame ends the reply the way an OK does.
                    let txn_open = frame.txn_open;
                    Ok(frame.end()?.map(|(message, ts)| Reply::Ok {
                        txn_open,
                        ts,
                        affected: 0,
                        message: message.into(),
                    }))
                })??;
            if let Some(reply) = frame {
                break reply;
            }
        };
        let as_of = self.owed.pop_front() == Some(Owed::AsOf);
        match reply {
            Reply::Ok {
                txn_open,
                ts,
                affected,
                message,
            } => {
                if !as_of {
                    self.txn_open = txn_open;
                } else if self.as_of.is_some() {
                    // Later statements read at this instant, exactly; a
                    // COMMIT or ROLLBACK sent as SQL text ended it.
                    self.snapshot = ts;
                    self.as_of = ts.filter(|_| txn_open).map(AsOfTarget::Exact);
                }
                Ok(Response {
                    columns: columns.unwrap_or_default(),
                    rows: Vec::new(),
                    affected,
                    message: message.into_owned(),
                    ts,
                })
            }
            Reply::Error {
                txn_open,
                code,
                offset,
                message,
                retry_after_ms,
            } => {
                // A failed AS OF statement ends nothing: the transaction
                // is held here.
                if !as_of {
                    self.txn_open = txn_open;
                }
                if code == ErrorCode::Busy {
                    Err(Error::ServerBusy { retry_after_ms })
                } else {
                    Err(Error::Remote {
                        code,
                        offset,
                        message: message.into_owned(),
                    })
                }
            }
        }
    }

    /// Run `query`, backing off and retrying on SERVER_BUSY responses.
    /// The wait honors the server's `retry_after_ms` hint when present
    /// (falling back to a doubling schedule from 10 ms) and gives up
    /// with the last busy error after `max_retries` sheds.
    pub fn query_with_backoff(&mut self, sql: &str, max_retries: u32) -> Result<Response> {
        let mut fallback_ms = 10u64;
        let mut attempt = 0;
        loop {
            // A shed BEGIN is sent again with the statement.
            let begin = self.deferred_begin;
            match self.query(sql) {
                Err(Error::ServerBusy { retry_after_ms }) if attempt < max_retries => {
                    attempt += 1;
                    if begin.is_some() && !self.txn_open {
                        self.deferred_begin = begin;
                        self.txn_open = true;
                    }
                    let wait = match retry_after_ms {
                        Some(ms) => u64::from(ms),
                        None => {
                            let w = fallback_ms;
                            fallback_ms = (fallback_ms * 2).min(1000);
                            w
                        }
                    };
                    std::thread::sleep(Duration::from_millis(wait));
                }
                other => return other,
            }
        }
    }

    /// Responses still owed by the server (sent-but-unreceived queries;
    /// a BEGIN sent with one is part of its response).
    pub fn pending(&self) -> usize {
        self.owed.iter().filter(|o| **o != Owed::Begin).count()
    }

    /// Send `req` in one `write`, behind a deferred BEGIN if there is
    /// one; each is owed one reply, in order.
    fn send(&mut self, req: &Request<'_>, owed: Owed) -> Result<()> {
        self.outbox.clear();
        let begin = self.deferred_begin.take();
        if let Some(isolation) = begin {
            Request::Begin(isolation).encode_into(&mut self.outbox);
        }
        req.encode_into(&mut self.outbox);
        self.stream.write_all(&self.outbox)?;
        if begin.is_some() {
            self.owed.push_back(Owed::Begin);
        }
        self.owed.push_back(owed);
        Ok(())
    }

    /// Switch this connection into a WAL subscription starting at
    /// `from_lsn` (byte offset into the primary's log). From here on the
    /// server pushes [`WalBatch`] frames; ordinary requests are no longer
    /// possible, so the `Client` is consumed.
    pub fn subscribe_wal(mut self, from_lsn: u64) -> Result<WalSubscription> {
        self.send(&Request::SubscribeWal { from_lsn }, Owed::Session)?;
        Ok(WalSubscription {
            stream: self.stream,
            inbox: self.inbox,
        })
    }
}

/// Whether `e` says the peer closed the connection.
fn closed(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe
    )
}

/// The receiving end of a WAL subscription (see [`Client::subscribe_wal`]).
pub struct WalSubscription {
    stream: TcpStream,
    inbox: FrameBuffer,
}

impl WalSubscription {
    /// Block until the next pushed batch arrives (or the read timeout
    /// expires, surfacing the I/O error).
    pub fn next_batch(&mut self) -> Result<WalBatch> {
        self.inbox.read_frame(&mut self.stream, WalBatch::decode)?
    }

    /// Report how far this follower has applied (informational; the
    /// primary uses it for observability, not retention).
    pub fn ack(&mut self, applied_lsn: u64) -> Result<()> {
        let mut frame = Vec::new();
        Request::ReplAck { applied_lsn }.encode_into(&mut frame);
        self.stream.write_all(&frame)?;
        Ok(())
    }

    /// Bound how long [`WalSubscription::next_batch`] blocks; reconnect
    /// loops use this to notice shutdown between batches.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(d)?;
        Ok(())
    }
}
