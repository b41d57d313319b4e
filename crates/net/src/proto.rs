//! The wire protocol: framing, opcodes and payload codecs.
//!
//! Every frame is `u32 len (LE) | u8 opcode | payload`, where `len`
//! counts the opcode byte plus the payload. Integers are little-endian;
//! strings and byte blobs are `u32 len + bytes` (the engine's standard
//! [`Writer`]/[`Reader`] codec). The layout is versioned by the HELLO
//! handshake: a client opens with `HELLO{magic "IMDB", version}` and the
//! server refuses mismatches, so both sides always agree on the frame
//! grammar below.
//!
//! Requests:
//!
//! | op | name        | payload |
//! |----|-------------|---------|
//! | 01 | HELLO       | `"IMDB"` + `u16 version` |
//! | 02 | QUERY       | SQL text (raw UTF-8, rest of frame) |
//! | 03 | BEGIN       | `u8` isolation (0 = serializable, 1 = snapshot) |
//! | 04 | QUERY_AS_OF | `u8` kind (0 = clock ms, 1 = exact) + `u64` ms/ttime + `u32` sn + SQL text, as QUERY |
//! | 05 | COMMIT      | empty |
//! | 06 | ROLLBACK    | empty |
//! | 07 | QUERY_IN_TXN | SQL text, as QUERY |
//!
//! QUERY_IN_TXN (version 3) is a QUERY that expects the session to hold a
//! transaction: on a session with none, the server refuses it without
//! running it. A client sends every statement it believes runs inside a
//! transaction this way, so a statement pipelined behind a BEGIN that was
//! shed or refused never runs as autocommit — also when TCP delivers the
//! two frames in separate reads.
//!
//! QUERY_AS_OF (version 4) is one statement of a read-only AS OF
//! transaction, self-contained: the server runs it in a read-only
//! transaction of its own at the target (clamped to the visibility
//! horizon) and keeps nothing once it is answered. An `AS OF t` answer
//! never changes, so the transaction is the target, which the client
//! holds. Its reply carries the effective timestamp — an OK through
//! `has_ts`, a result set in its last ROWS frame — and `txn_open` says
//! whether the statement left the transaction going (a `COMMIT` or
//! `ROLLBACK` sent as its SQL text ends it). A session holding a
//! transaction refuses it.
//!
//! Replication (a SUBSCRIBE_WAL upgrades the connection into a one-way
//! log stream; only REPL_ACK frames flow back):
//!
//! | op | name          | payload |
//! |----|---------------|---------|
//! | 10 | SUBSCRIBE_WAL | `u64 from_lsn` (end of the follower's local log prefix) |
//! | 11 | REPL_ACK      | `u64 applied_lsn` |
//! | 90 | WAL_BATCH     | `u64 start_lsn` + `u64 horizon_ttime` + `u32 horizon_sn` + `bytes` raw frame-aligned log bytes |
//!
//! Responses (every response starts with `u8 txn_open` so the client can
//! mirror the session's transaction state without guessing):
//!
//! | op | name  | payload |
//! |----|-------|---------|
//! | 80 | OK    | `u8 txn_open` + `u8 has_ts` \[+ `u64 ttime` + `u32 sn`\] + `u64 affected` + `str message` |
//! | 81 | ROWS  | `u8 txn_open` + `u8 flags` + `u16 ncols` \[+ cols\] + `u32 nrows` + rows \[+ `str message` + `u8 has_ts` \[+ `u64 ttime` + `u32 sn`\]\] |
//! | 82 | ERROR | `u8 txn_open` + `u8 code` + `u8 has_offset` \[+ `u32 offset`\] + `str message` \[+ `u8 has_retry` + `u32 retry_after_ms`\] |
//!
//! A result set is one or more ROWS frames (version 2). `flags` bit 0
//! ([`ROWS_MORE`]) says another frame of the same result follows; bit 1
//! ([`ROWS_CONT`]) says this frame continues one. The first frame (no
//! `ROWS_CONT`) carries the column names, the last (no `ROWS_MORE`) the
//! message, the session's final `txn_open` and (version 4) the instant a
//! QUERY_AS_OF ran at; a result that fits one chunk is one frame with
//! `flags = 0`. The server closes a frame once it holds a chunk's worth
//! of rows, so no frame outgrows a chunk by more than a row and a result
//! of any size stays under [`MAX_FRAME`]. A
//! statement that fails after frames have left ends its result with an
//! ERROR frame where the next ROWS frame would have been.
//!
//! The trailing retry-hint on ERROR is a protocol-compatible extension:
//! strings are length-prefixed, so a version-1 decoder stops after
//! `message` and ignores the extra bytes, while the extended decoder
//! treats a missing tail as "no hint".
//!
//! Row values are tagged ([`Value::encode`]): `1` SMALLINT (`i16`),
//! `2` INT (`i32`), `3` BIGINT (`i64`), `4` VARCHAR (`u32 len + bytes`).
//! That is also the form the engine stores a row in, so a row the server
//! sends whole is its stored image, copied from the page into the frame.

use std::borrow::Cow;
use std::io::{self, Read};

use immortaldb::row::decode_values_into;
use immortaldb::{Isolation, Value};
use immortaldb_common::codec::{Reader, Writer};
use immortaldb_common::{Error, ErrorCode, Result, Timestamp};

/// Handshake magic: first bytes of every HELLO payload.
pub const MAGIC: &[u8; 4] = b"IMDB";
/// Protocol version spoken by this build.
pub const VERSION: u16 = 4;
/// Upper bound on a frame's `len` field; anything larger is a corrupt or
/// hostile stream and the connection is dropped.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Request and response opcodes.
pub mod op {
    pub const HELLO: u8 = 0x01;
    pub const QUERY: u8 = 0x02;
    pub const BEGIN: u8 = 0x03;
    pub const QUERY_AS_OF: u8 = 0x04;
    pub const COMMIT: u8 = 0x05;
    pub const ROLLBACK: u8 = 0x06;
    pub const QUERY_IN_TXN: u8 = 0x07;

    pub const SUBSCRIBE_WAL: u8 = 0x10;
    pub const REPL_ACK: u8 = 0x11;

    pub const OK: u8 = 0x80;
    pub const ROWS: u8 = 0x81;
    pub const ERROR: u8 = 0x82;

    pub const WAL_BATCH: u8 = 0x90;
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Append one frame to `out`: the length, `opcode`, then whatever `body`
/// writes. Every encoder goes through here, so a message is built once,
/// in the buffer it is sent from; several frames appended to one buffer
/// leave in one `write`.
pub fn put_frame(out: &mut Vec<u8>, opcode: u8, body: impl FnOnce(&mut Writer)) {
    let start = out.len();
    let mut w = Writer::from(std::mem::take(out));
    w.u32(0).u8(opcode);
    body(&mut w);
    *out = w.finish();
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Incremental frame parser for the server's polled reads: bytes arrive
/// in arbitrary chunks (with read timeouts between them) and complete
/// frames are peeled off the front. This is what makes pipelining work —
/// a burst of requests parses into frames one `take_frame` call at a
/// time with no further socket reads.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Feed raw bytes received from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Consume the next complete frame, if one is buffered, handing `f`
    /// its opcode and payload in place — no copy of the payload is made.
    pub fn take_frame<R>(&mut self, f: impl FnOnce(u8, &[u8]) -> R) -> io::Result<Option<R>> {
        let Some(total) = self.frame_len()?.filter(|&total| self.buf.len() >= total) else {
            return Ok(None);
        };
        let out = f(self.buf[4], &self.buf[5..total]);
        self.buf.drain(..total);
        Ok(Some(out))
    }

    /// Block until a whole frame is buffered, then consume it like
    /// [`Self::take_frame`] (client side). Reads go straight into the
    /// buffer, sized to what the frame still lacks: a reply that arrives
    /// in one segment costs one `read`, and anything read past it stays
    /// buffered for the next call.
    pub fn read_frame<R>(
        &mut self,
        r: &mut impl Read,
        f: impl FnOnce(u8, &[u8]) -> R,
    ) -> io::Result<R> {
        const CHUNK: usize = 4096;
        loop {
            let want = match self.frame_len()? {
                Some(total) if self.buf.len() >= total => break,
                Some(total) => (total - self.buf.len()).max(CHUNK),
                None => CHUNK,
            };
            let filled = self.buf.len();
            self.buf.resize(filled + want, 0);
            let read = r.read(&mut self.buf[filled..]);
            // Keep exactly what arrived, also when the read failed (a
            // timeout must not lose the part of a frame already here).
            self.buf.truncate(filled + *read.as_ref().unwrap_or(&0));
            match read {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self.take_frame(f)?.expect("a whole frame is buffered"))
    }

    /// Total length (header included) of the frame at the front of the
    /// buffer, once its length field has arrived. A zero or oversized
    /// length is a corrupt or hostile stream.
    fn frame_len(&self) -> io::Result<Option<usize>> {
        let Some(hdr) = self.buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*hdr);
        if len == 0 || len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad frame length {len}"),
            ));
        }
        Ok(Some(4 + len as usize))
    }

    /// Whether at least one complete frame is buffered, without consuming
    /// it. Surfaces the same hostile-length error as
    /// [`FrameBuffer::take_frame`], so the server can reject a bad
    /// connection before scheduling any work for it.
    pub fn has_complete_frame(&self) -> io::Result<bool> {
        Ok(self
            .frame_len()?
            .is_some_and(|total| self.buf.len() >= total))
    }

    /// Bytes buffered but not yet consumed (partial-frame residue).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// The AS OF target of a `QUERY_AS_OF` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsOfTarget {
    /// Wall-clock milliseconds; the server quantizes to the 20 ms tick
    /// (everything committed within or before the tick is visible).
    ClockMs(u64),
    /// An exact `(ttime, sn)` timestamp, e.g. one returned by COMMIT.
    Exact(Timestamp),
}

/// A decoded request frame. The SQL text of a QUERY is borrowed from the
/// frame it was decoded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<'a> {
    Hello {
        version: u16,
    },
    Query(Cow<'a, str>),
    /// A QUERY refused unless the session holds a transaction.
    QueryInTxn(Cow<'a, str>),
    Begin(Isolation),
    /// One statement of a read-only AS OF transaction, run at the target
    /// in a read-only transaction of its own.
    QueryAsOf(AsOfTarget, Cow<'a, str>),
    Commit,
    Rollback,
    /// Upgrade this connection into a WAL-shipping stream starting at
    /// `from_lsn` (the end of the follower's locally valid log prefix).
    SubscribeWal {
        from_lsn: u64,
    },
    /// Follower progress report: everything below `applied_lsn` has been
    /// appended locally and replayed.
    ReplAck {
        applied_lsn: u64,
    },
}

impl<'a> Request<'a> {
    /// Append this request to `out` as one frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Hello { version } => put_frame(out, op::HELLO, |w| {
                w.raw(MAGIC).u16(*version);
            }),
            Request::Query(sql) => put_frame(out, op::QUERY, |w| {
                w.raw(sql.as_bytes());
            }),
            Request::QueryInTxn(sql) => put_frame(out, op::QUERY_IN_TXN, |w| {
                w.raw(sql.as_bytes());
            }),
            Request::Begin(iso) => put_frame(out, op::BEGIN, |w| {
                w.u8(match iso {
                    Isolation::Serializable => 0,
                    Isolation::Snapshot => 1,
                });
            }),
            Request::QueryAsOf(target, sql) => put_frame(out, op::QUERY_AS_OF, |w| {
                match target {
                    AsOfTarget::ClockMs(ms) => w.u8(0).u64(*ms).u32(0),
                    AsOfTarget::Exact(ts) => w.u8(1).u64(ts.ttime).u32(ts.sn),
                };
                w.raw(sql.as_bytes());
            }),
            Request::Commit => put_frame(out, op::COMMIT, |_| {}),
            Request::Rollback => put_frame(out, op::ROLLBACK, |_| {}),
            Request::SubscribeWal { from_lsn } => put_frame(out, op::SUBSCRIBE_WAL, |w| {
                w.u64(*from_lsn);
            }),
            Request::ReplAck { applied_lsn } => put_frame(out, op::REPL_ACK, |w| {
                w.u64(*applied_lsn);
            }),
        }
    }

    /// Decode from `(opcode, payload)`. Malformed payloads surface as
    /// [`Error::Corruption`] (the server answers with an ERROR frame and
    /// drops the connection).
    pub fn decode(opcode: u8, payload: &'a [u8]) -> Result<Request<'a>> {
        match opcode {
            op::HELLO => {
                let mut r = Reader::new(payload);
                let magic = r.raw(4)?;
                if magic != MAGIC {
                    return Err(Error::Corruption("bad HELLO magic".into()));
                }
                let version = r.u16()?;
                Ok(Request::Hello { version })
            }
            op::QUERY => Ok(Request::Query(sql(payload)?)),
            op::QUERY_IN_TXN => Ok(Request::QueryInTxn(sql(payload)?)),
            op::BEGIN => {
                let mut r = Reader::new(payload);
                let iso = match r.u8()? {
                    0 => Isolation::Serializable,
                    1 => Isolation::Snapshot,
                    other => return Err(Error::Corruption(format!("bad isolation byte {other}"))),
                };
                Ok(Request::Begin(iso))
            }
            op::QUERY_AS_OF => {
                let mut r = Reader::new(payload);
                let kind = r.u8()?;
                let t = r.u64()?;
                let sn = r.u32()?;
                let target = match kind {
                    0 => AsOfTarget::ClockMs(t),
                    1 => AsOfTarget::Exact(Timestamp::new(t, sn)),
                    other => return Err(Error::Corruption(format!("bad AS OF kind {other}"))),
                };
                let text = r.raw(r.remaining())?;
                Ok(Request::QueryAsOf(target, sql(text)?))
            }
            op::COMMIT => Ok(Request::Commit),
            op::ROLLBACK => Ok(Request::Rollback),
            op::SUBSCRIBE_WAL => {
                let mut r = Reader::new(payload);
                Ok(Request::SubscribeWal { from_lsn: r.u64()? })
            }
            op::REPL_ACK => {
                let mut r = Reader::new(payload);
                Ok(Request::ReplAck {
                    applied_lsn: r.u64()?,
                })
            }
            other => Err(Error::Corruption(format!(
                "unknown request opcode {other:#x}"
            ))),
        }
    }
}

/// The SQL text of a statement frame: the rest of it, borrowed.
fn sql(payload: &[u8]) -> Result<Cow<'_, str>> {
    std::str::from_utf8(payload)
        .map(Cow::Borrowed)
        .map_err(|_| Error::Corruption("statement is not UTF-8".into()))
}

// ---------------------------------------------------------------------
// Replication push frames
// ---------------------------------------------------------------------

/// One shipped chunk of raw WAL bytes (server → follower push frame).
///
/// `horizon` is the primary's visible commit horizon sampled *before* the
/// byte range was: every transaction with commit timestamp ≤ `horizon`
/// has all its log records at LSNs below `next_lsn()`, so a follower that
/// has applied this batch may safely serve `AS OF ts` reads for any
/// `ts ≤ horizon`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatch {
    /// File offset (LSN) of the first shipped byte; must equal the end of
    /// the follower's local log.
    pub start_lsn: u64,
    /// Safe read horizon covered by this batch.
    pub horizon: Timestamp,
    /// Raw frame-aligned log bytes (may be empty: a pure horizon bump).
    pub bytes: Vec<u8>,
}

impl WalBatch {
    /// LSN one past the shipped bytes.
    pub fn next_lsn(&self) -> u64 {
        self.start_lsn + self.bytes.len() as u64
    }

    /// Append this batch to `out` as one frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_frame(out, op::WAL_BATCH, |w| {
            w.u64(self.start_lsn)
                .u64(self.horizon.ttime)
                .u32(self.horizon.sn)
                .bytes(&self.bytes);
        });
    }

    pub fn decode(opcode: u8, payload: &[u8]) -> Result<WalBatch> {
        if opcode != op::WAL_BATCH {
            return Err(Error::Corruption(format!(
                "expected WAL_BATCH, got opcode {opcode:#x}"
            )));
        }
        let mut r = Reader::new(payload);
        let start_lsn = r.u64()?;
        let horizon = Timestamp::new(r.u64()?, r.u32()?);
        let bytes = r.bytes()?.to_vec();
        Ok(WalBatch {
            start_lsn,
            horizon,
            bytes,
        })
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// A decoded OK or ERROR response frame. Result sets do not pass through
/// here: they are written by a [`RowsEncoder`] and read frame by frame
/// as [`RowsFrame`]s, so that neither side holds one whole.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Ok {
        txn_open: bool,
        /// Commit timestamp (COMMIT), begin snapshot (BEGIN) or the
        /// instant a QUERY_AS_OF ran at.
        ts: Option<Timestamp>,
        affected: u64,
        /// Constant for most replies, so not a `String` built per reply.
        message: Cow<'static, str>,
    },
    Error {
        txn_open: bool,
        code: ErrorCode,
        /// Byte offset into the statement for parse errors.
        offset: Option<u32>,
        message: Cow<'static, str>,
        /// Back-off hint for `Busy`-coded sheds: how long the client
        /// should wait before retrying. Encoded as a trailing extension
        /// so old peers interoperate.
        retry_after_ms: Option<u32>,
    },
}

fn put_str(w: &mut Writer, s: &str) {
    w.bytes(s.as_bytes());
}

fn get_str(r: &mut Reader<'_>) -> Result<String> {
    let b = r.bytes()?;
    String::from_utf8(b.to_vec()).map_err(|_| Error::Corruption("non-UTF8 string".into()))
}

/// `u8 has_ts` [+ `u64 ttime` + `u32 sn`].
fn put_ts(w: &mut Writer, ts: Option<Timestamp>) {
    match ts {
        Some(ts) => w.u8(1).u64(ts.ttime).u32(ts.sn),
        None => w.u8(0),
    };
}

fn get_ts(r: &mut Reader<'_>) -> Result<Option<Timestamp>> {
    Ok(if r.u8()? != 0 {
        Some(Timestamp::new(r.u64()?, r.u32()?))
    } else {
        None
    })
}

impl Reply {
    /// Append this reply to `out` as one frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Ok {
                txn_open,
                ts,
                affected,
                message,
            } => put_frame(out, op::OK, |w| {
                w.u8(*txn_open as u8);
                put_ts(w, *ts);
                w.u64(*affected);
                put_str(w, message);
            }),
            Reply::Error {
                txn_open,
                code,
                offset,
                message,
                retry_after_ms,
            } => put_frame(out, op::ERROR, |w| {
                w.u8(*txn_open as u8).u8(*code as u8);
                match offset {
                    Some(o) => w.u8(1).u32(*o),
                    None => w.u8(0),
                };
                put_str(w, message);
                match retry_after_ms {
                    Some(ms) => w.u8(1).u32(*ms),
                    None => w.u8(0),
                };
            }),
        }
    }

    /// Decode from `(opcode, payload)`.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Reply> {
        let mut r = Reader::new(payload);
        match opcode {
            op::OK => {
                let txn_open = r.u8()? != 0;
                let ts = get_ts(&mut r)?;
                let affected = r.u64()?;
                let message = get_str(&mut r)?.into();
                Ok(Reply::Ok {
                    txn_open,
                    ts,
                    affected,
                    message,
                })
            }
            op::ERROR => {
                let txn_open = r.u8()? != 0;
                let code = ErrorCode::from_u8(r.u8()?);
                let offset = if r.u8()? != 0 { Some(r.u32()?) } else { None };
                let message = get_str(&mut r)?.into();
                // Trailing retry-hint extension: absent entirely in
                // frames from older peers.
                let retry_after_ms = if r.remaining() > 0 && r.u8()? != 0 {
                    Some(r.u32()?)
                } else {
                    None
                };
                Ok(Reply::Error {
                    txn_open,
                    code,
                    offset,
                    message,
                    retry_after_ms,
                })
            }
            other => Err(Error::Corruption(format!(
                "unknown response opcode {other:#x}"
            ))),
        }
    }

    /// Build the ERROR reply for an engine error.
    pub fn from_error(e: &Error, txn_open: bool) -> Reply {
        Reply::Error {
            txn_open,
            code: e.code(),
            offset: e.parse_offset(),
            message: e.to_string().into(),
            retry_after_ms: match e {
                Error::ServerBusy { retry_after_ms } => *retry_after_ms,
                _ => None,
            },
        }
    }
}

// ---------------------------------------------------------------------
// Result sets
// ---------------------------------------------------------------------

/// `ROWS` flag: another frame of the same result follows.
pub const ROWS_MORE: u8 = 0x01;
/// `ROWS` flag: this frame continues a result (no column names).
pub const ROWS_CONT: u8 = 0x02;

/// Offsets into a `ROWS` frame, from its length field.
const AT_TXN_OPEN: usize = 5;
const AT_FLAGS: usize = 6;

/// Writes one result set as `ROWS` frames, each built in place in the
/// buffer it is sent from: rows are appended as they are produced, and
/// the frame's length, row count and flags are patched in when it is
/// closed — [`RowsEncoder::end_chunk`] with more to come,
/// [`RowsEncoder::finish`] for good. The caller decides when a frame has
/// grown enough ([`RowsEncoder::frame_len`]) and may send and drain the
/// closed frames between chunks; nothing here remembers an offset across
/// `end_chunk`.
pub struct RowsEncoder {
    ncols: u16,
    /// What frames closed before the statement ends say of the session:
    /// its state when the statement began.
    txn_open: bool,
    /// The open frame: where it starts in the buffer, where its row
    /// count goes, and the count so far.
    open: Option<(usize, usize, u32)>,
}

impl RowsEncoder {
    /// Open a result's first frame at the end of `out`.
    pub fn begin(out: &mut Vec<u8>, txn_open: bool, columns: &[String]) -> RowsEncoder {
        let mut enc = RowsEncoder {
            ncols: columns.len() as u16,
            txn_open,
            open: None,
        };
        enc.open_frame(out, Some(columns));
        enc
    }

    fn open_frame(&mut self, out: &mut Vec<u8>, columns: Option<&[String]>) {
        let frame = out.len();
        let mut w = Writer::from(std::mem::take(out));
        let flags = if columns.is_some() { 0 } else { ROWS_CONT };
        w.u32(0).u8(op::ROWS).u8(self.txn_open as u8).u8(flags);
        w.u16(self.ncols);
        for c in columns.unwrap_or_default() {
            put_str(&mut w, c);
        }
        let count_at = w.len();
        w.u32(0);
        *out = w.finish();
        self.open = Some((frame, count_at, 0));
    }

    /// Append one row's image — its values' tagged forms, back to back
    /// ([`immortaldb::RowSink::row`]) — opening a continuation frame if
    /// the last one was closed by [`Self::end_chunk`].
    pub fn row(&mut self, out: &mut Vec<u8>, image: &[u8]) {
        if self.open.is_none() {
            self.open_frame(out, None);
        }
        out.extend_from_slice(image);
        if let Some((_, _, nrows)) = &mut self.open {
            *nrows += 1;
        }
    }

    /// Bytes of the open frame so far (0 when none is open).
    pub fn frame_len(&self, out: &[u8]) -> usize {
        self.open.map_or(0, |(frame, _, _)| out.len() - frame)
    }

    /// Close the open frame as a chunk with more to follow.
    pub fn end_chunk(&mut self, out: &mut [u8]) {
        if let Some((frame, _, _)) = self.open {
            out[frame + AT_FLAGS] |= ROWS_MORE;
            self.close(out);
        }
    }

    /// Close the result: the last frame carries `message`, `ts` (the
    /// instant a QUERY_AS_OF ran at) and the session's final `txn_open`.
    pub fn finish(
        mut self,
        out: &mut Vec<u8>,
        txn_open: bool,
        ts: Option<Timestamp>,
        message: &str,
    ) {
        if self.open.is_none() {
            self.open_frame(out, None);
        }
        let mut w = Writer::from(std::mem::take(out));
        put_str(&mut w, message);
        put_ts(&mut w, ts);
        *out = w.finish();
        let (frame, _, _) = self.open.expect("a frame is open");
        out[frame + AT_TXN_OPEN] = txn_open as u8;
        self.close(out);
    }

    /// Drop the open frame: the statement failed, and an ERROR frame
    /// goes where it stood. Frames already closed stay.
    pub fn abandon(self, out: &mut Vec<u8>) {
        if let Some((frame, _, _)) = self.open {
            out.truncate(frame);
        }
    }

    fn close(&mut self, out: &mut [u8]) {
        let (frame, count_at, nrows) = self.open.take().expect("a frame is open");
        let len = (out.len() - frame - 4) as u32;
        out[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
        out[count_at..count_at + 4].copy_from_slice(&nrows.to_le_bytes());
    }
}

/// One `ROWS` frame being decoded: its envelope, then its rows one at a
/// time into a row the caller reuses, then the message and timestamp if
/// it is the result's last frame.
pub struct RowsFrame<'a> {
    pub txn_open: bool,
    /// Another frame of this result follows (this one has no message).
    pub more: bool,
    /// The column names, on the first frame of a result; `None` on a
    /// continuation.
    pub columns: Option<Vec<String>>,
    ncols: usize,
    /// Rows of this frame not yet read.
    pub rows_left: usize,
    r: Reader<'a>,
}

impl<'a> RowsFrame<'a> {
    pub fn decode(payload: &'a [u8]) -> Result<RowsFrame<'a>> {
        let mut r = Reader::new(payload);
        let txn_open = r.u8()? != 0;
        let flags = r.u8()?;
        let ncols = r.u16()? as usize;
        let columns = if flags & ROWS_CONT == 0 {
            Some((0..ncols).map(|_| get_str(&mut r)).collect::<Result<_>>()?)
        } else {
            None
        };
        let rows_left = r.u32()? as usize;
        Ok(RowsFrame {
            txn_open,
            more: flags & ROWS_MORE != 0,
            columns,
            ncols,
            rows_left,
            r,
        })
    }

    /// Decode the next row over `row`; `false` once the frame has none
    /// left.
    pub fn next_row(&mut self, row: &mut Vec<Value>) -> Result<bool> {
        if self.rows_left == 0 {
            return Ok(false);
        }
        self.rows_left -= 1;
        decode_values_into(&mut self.r, self.ncols, row)?;
        Ok(true)
    }

    /// What follows the rows: the result's message and timestamp on its
    /// last frame, `None` on a frame with more to come.
    pub fn end(mut self) -> Result<Option<(String, Option<Timestamp>)>> {
        if self.rows_left != 0 {
            return Err(Error::Corruption("ROWS frame has unread rows".into()));
        }
        if self.more {
            return Ok(None);
        }
        let message = get_str(&mut self.r)?;
        Ok(Some((message, get_ts(&mut self.r)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(op: u8, payload: &[u8]) -> (u8, Vec<u8>) {
        (op, payload.to_vec())
    }

    /// The one frame `wire` holds, whole.
    fn sole_frame(wire: &[u8]) -> (u8, Vec<u8>) {
        let mut fb = FrameBuffer::new();
        fb.extend(wire);
        let frame = fb.take_frame(owned).unwrap().expect("a whole frame");
        assert_eq!(fb.buffered(), 0);
        frame
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Hello { version: VERSION },
            Request::Query("SELECT * FROM t WHERE a = 'x y'".into()),
            Request::QueryInTxn("UPDATE t SET v = 1 WHERE id = 2".into()),
            Request::Begin(Isolation::Serializable),
            Request::Begin(Isolation::Snapshot),
            Request::QueryAsOf(AsOfTarget::ClockMs(123_456), "SELECT v FROM t".into()),
            Request::QueryAsOf(
                AsOfTarget::Exact(Timestamp::new(1000, 7)),
                "SELECT * FROM t WHERE a = 'é'".into(),
            ),
            Request::QueryAsOf(AsOfTarget::Exact(Timestamp::new(1, 0)), "".into()),
            Request::Commit,
            Request::Rollback,
            Request::SubscribeWal { from_lsn: 8 },
            Request::ReplAck {
                applied_lsn: 1 << 40,
            },
        ] {
            let mut wire = Vec::new();
            req.encode_into(&mut wire);
            let (op, payload) = sole_frame(&wire);
            assert_eq!(Request::decode(op, &payload).unwrap(), req);
        }
    }

    /// A QUERY_AS_OF whose kind byte is unknown, whose payload stops
    /// inside the 13-byte target, or whose SQL is not UTF-8 is corrupt.
    #[test]
    fn a_malformed_query_as_of_is_corruption() {
        let payload = |kind: u8, sql: &[u8]| {
            let mut w = Writer::new();
            w.u8(kind).u64(1000).u32(7).raw(sql);
            w.finish()
        };
        let good = payload(1, b"SELECT 1");
        assert!(Request::decode(op::QUERY_AS_OF, &good).is_ok());
        for bad in [
            payload(2, b"SELECT 1"),
            good[..12].to_vec(),
            Vec::new(),
            payload(0, &[b'S', 0xff, 0xfe]),
        ] {
            match Request::decode(op::QUERY_AS_OF, &bad) {
                Err(Error::Corruption(_)) => {}
                other => panic!("{bad:?} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn wal_batch_roundtrip() {
        for batch in [
            WalBatch {
                start_lsn: 8,
                horizon: Timestamp::new(1234, 5),
                bytes: vec![1, 2, 3, 4, 5],
            },
            // Pure horizon bump: no bytes.
            WalBatch {
                start_lsn: 99,
                horizon: Timestamp::new(40, 0),
                bytes: Vec::new(),
            },
        ] {
            let mut wire = Vec::new();
            batch.encode_into(&mut wire);
            let (op, payload) = sole_frame(&wire);
            assert_eq!(op, super::op::WAL_BATCH);
            let got = WalBatch::decode(op, &payload).unwrap();
            assert_eq!(got, batch);
            assert_eq!(got.next_lsn(), batch.start_lsn + batch.bytes.len() as u64);
        }
        assert!(WalBatch::decode(super::op::OK, &[]).is_err());
    }

    #[test]
    fn reply_roundtrip() {
        for reply in [
            Reply::Ok {
                txn_open: true,
                ts: Some(Timestamp::new(2000, 3)),
                affected: 42,
                message: "committed".into(),
            },
            Reply::Ok {
                txn_open: false,
                ts: None,
                affected: 0,
                message: "".into(),
            },
            Reply::Error {
                txn_open: true,
                code: ErrorCode::Parse,
                offset: Some(9),
                message: "expected FROM".into(),
                retry_after_ms: None,
            },
            Reply::Error {
                txn_open: false,
                code: ErrorCode::Busy,
                offset: None,
                message: "server busy".into(),
                retry_after_ms: Some(40),
            },
        ] {
            let mut wire = Vec::new();
            reply.encode_into(&mut wire);
            let (op, payload) = sole_frame(&wire);
            assert_eq!(Reply::decode(op, &payload).unwrap(), reply);
        }
    }

    #[test]
    fn error_retry_hint_is_a_compatible_extension() {
        // A version-1 ERROR payload ends at the message; the extended
        // decoder must read it as "no hint".
        let mut w = Writer::new();
        w.u8(0).u8(ErrorCode::Busy as u8).u8(0);
        put_str(&mut w, "server busy");
        let legacy = w.finish();
        match Reply::decode(op::ERROR, &legacy).unwrap() {
            Reply::Error { retry_after_ms, .. } => assert_eq!(retry_after_ms, None),
            other => panic!("unexpected decode: {other:?}"),
        }
        // And an old decoder (which stops after the message) stays
        // correct on extended frames because the tail is appended.
        let mut wire = Vec::new();
        Reply::Error {
            txn_open: false,
            code: ErrorCode::Busy,
            offset: None,
            message: "server busy".into(),
            retry_after_ms: Some(25),
        }
        .encode_into(&mut wire);
        let (op, extended) = sole_frame(&wire);
        assert_eq!(op, op::ERROR);
        assert!(extended.len() == legacy.len() + 5);
        assert_eq!(&extended[..legacy.len()], &legacy[..]);
    }

    fn image(row: &[Value]) -> Vec<u8> {
        let mut out = Vec::new();
        immortaldb::row::encode_values(&mut out, row);
        out
    }

    /// Every frame of `wire`, decoded: (flags-derived envelope, rows,
    /// message and timestamp).
    #[allow(clippy::type_complexity)]
    fn rows_frames(
        wire: &[u8],
    ) -> Vec<(
        bool,
        bool,
        Option<Vec<String>>,
        Vec<Vec<Value>>,
        Option<(String, Option<Timestamp>)>,
    )> {
        let mut fb = FrameBuffer::new();
        fb.extend(wire);
        let mut out = Vec::new();
        while let Some((op, payload)) = fb.take_frame(owned).unwrap() {
            assert_eq!(op, op::ROWS);
            let mut f = RowsFrame::decode(&payload).unwrap();
            let (txn_open, more, columns) = (f.txn_open, f.more, f.columns.take());
            let (mut row, mut rows) = (Vec::new(), Vec::new());
            while f.next_row(&mut row).unwrap() {
                rows.push(row.clone());
            }
            out.push((txn_open, more, columns, rows, f.end().unwrap()));
        }
        out
    }

    #[test]
    fn a_small_result_is_one_frame() {
        let columns = vec!["id".to_string(), "v".to_string()];
        let rows = [
            vec![Value::Int(1), Value::Varchar("a".into())],
            vec![Value::Int(-7), Value::Varchar(String::new())],
            vec![Value::BigInt(i64::MIN), Value::SmallInt(-5)],
        ];
        let mut wire = vec![0xEE]; // bytes of an earlier reply stay put
        let mut enc = RowsEncoder::begin(&mut wire, false, &columns);
        for row in &rows {
            enc.row(&mut wire, &image(row));
        }
        let ts = Timestamp::new(2000, 3);
        enc.finish(&mut wire, true, Some(ts), "3 rows");
        assert_eq!(wire[0], 0xEE);
        assert_eq!(
            rows_frames(&wire[1..]),
            vec![(
                true,
                false,
                Some(columns),
                rows.to_vec(),
                Some(("3 rows".into(), Some(ts)))
            )]
        );
    }

    #[test]
    fn chunks_carry_names_first_and_the_message_last() {
        let columns = vec!["n".to_string()];
        let mut wire = Vec::new();
        let mut enc = RowsEncoder::begin(&mut wire, true, &columns);
        enc.row(&mut wire, &image(&[Value::Int(1)]));
        enc.row(&mut wire, &image(&[Value::Int(2)]));
        assert!(enc.frame_len(&wire) > 0);
        enc.end_chunk(&mut wire);
        assert_eq!(enc.frame_len(&wire), 0);
        // The sender may drain closed frames between chunks.
        let first = std::mem::take(&mut wire);
        enc.row(&mut wire, &image(&[Value::Int(3)]));
        enc.end_chunk(&mut wire);
        // A result that ends on a chunk boundary closes with an empty
        // frame for the message.
        enc.finish(&mut wire, false, None, "3 rows");
        let frames = [rows_frames(&first), rows_frames(&wire)].concat();
        assert_eq!(
            frames,
            vec![
                (
                    true,
                    true,
                    Some(columns),
                    vec![vec![Value::Int(1)], vec![Value::Int(2)]],
                    None
                ),
                (true, true, None, vec![vec![Value::Int(3)]], None),
                (false, false, None, vec![], Some(("3 rows".into(), None))),
            ]
        );
    }

    #[test]
    fn an_abandoned_result_keeps_only_its_closed_frames() {
        let mut wire = Vec::new();
        let enc = RowsEncoder::begin(&mut wire, false, &["n".to_string()]);
        enc.abandon(&mut wire);
        assert!(wire.is_empty());
        let mut enc = RowsEncoder::begin(&mut wire, false, &["n".to_string()]);
        enc.row(&mut wire, &image(&[Value::Int(1)]));
        enc.end_chunk(&mut wire);
        let closed = wire.len();
        enc.row(&mut wire, &image(&[Value::Int(2)]));
        enc.abandon(&mut wire);
        assert_eq!(wire.len(), closed);
        assert_eq!(rows_frames(&wire).len(), 1);
    }

    #[test]
    fn frame_buffer_reassembles_split_and_pipelined_frames() {
        let mut wire = Vec::new();
        Request::Query("SELECT 1".into()).encode_into(&mut wire);
        Request::Commit.encode_into(&mut wire);

        // Feed a byte at a time: frames pop exactly when complete.
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for b in &wire {
            fb.extend(std::slice::from_ref(b));
            while let Some(f) = fb.take_frame(owned).unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, op::QUERY);
        assert_eq!(got[1].0, op::COMMIT);
        assert_eq!(
            Request::decode(got[0].0, &got[0].1).unwrap(),
            Request::Query("SELECT 1".into())
        );

        // Feeding everything at once pipelines both frames.
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        assert!(fb.take_frame(owned).unwrap().is_some());
        assert!(fb.take_frame(owned).unwrap().is_some());
        assert!(fb.take_frame(owned).unwrap().is_none());
    }

    /// A reader that hands out at most `step` bytes per `read`.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(self.1).min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_frame_blocks_for_whole_frames_and_keeps_what_it_over_reads() {
        let big = vec![7u8; 20_000];
        let mut wire = Vec::new();
        put_frame(&mut wire, op::OK, |w| {
            w.raw(b"first");
        });
        put_frame(&mut wire, op::ROWS, |w| {
            w.raw(&big);
        });
        put_frame(&mut wire, op::OK, |_| {});
        for step in [1, 7, 4096, usize::MAX] {
            let mut r = Trickle(&wire, step);
            let mut fb = FrameBuffer::new();
            assert_eq!(
                fb.read_frame(&mut r, owned).unwrap(),
                (op::OK, b"first".to_vec())
            );
            assert_eq!(
                fb.read_frame(&mut r, owned).unwrap(),
                (op::ROWS, big.clone())
            );
            assert_eq!(fb.read_frame(&mut r, owned).unwrap(), (op::OK, vec![]));
            assert_eq!(fb.buffered(), 0);
            // End of stream, also in the middle of a frame, is an error.
            let eof = fb.read_frame(&mut r, owned).unwrap_err();
            assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
        }
        let mut fb = FrameBuffer::new();
        let cut = fb
            .read_frame(&mut Trickle(&wire[..7], 2), owned)
            .unwrap_err();
        assert_eq!(cut.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_buffer_rejects_hostile_lengths() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(MAX_FRAME + 1).to_le_bytes());
        assert!(fb.take_frame(owned).is_err());
        let mut fb = FrameBuffer::new();
        fb.extend(&0u32.to_le_bytes());
        assert!(fb.take_frame(owned).is_err());
    }
}
