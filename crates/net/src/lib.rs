//! Wire-protocol front door for Immortal DB.
//!
//! The paper's engine lived inside SQL Server, which clients reached over
//! a wire protocol; this crate gives the reproduction the same shape. It
//! provides:
//!
//! * [`proto`] — a small length-prefixed binary protocol: every frame is
//!   `u32 len | u8 opcode | payload`, with request opcodes for HELLO,
//!   QUERY, QUERY_IN_TXN (refused outside a transaction), QUERY_AS_OF (a
//!   statement with its AS OF target), BEGIN, COMMIT and ROLLBACK and
//!   response opcodes OK, ROWS and ERROR. ERROR frames carry the engine's stable
//!   [`ErrorCode`](immortaldb_common::ErrorCode) plus the byte offset of
//!   parse errors, never matched-on strings.
//! * [`reactor`] — [`Server`]: a TCP server owning one
//!   [`Database`](immortaldb::Database), on Linux. Each connection gets
//!   a session wrapping the SQL [`Session`](immortaldb::Session) (one
//!   open transaction, explicit or autocommit; a QUERY_AS_OF runs in a
//!   read-only transaction of its own, through
//!   `Database::begin_as_of_ts`).
//!   `workers + 1` threads share one readiness loop ([`sys`]) in the
//!   leader/followers pattern: a request executes on the thread that
//!   read it, and the loop moves to a parked thread when that request is
//!   about to wait — idle connections cost no thread. Overload is shed
//!   with a typed SERVER_BUSY error carrying a `retry_after_ms` back-off
//!   hint (per connection and per request). Idle sessions are rolled
//!   back from timer-wheel ticks; shutdown drains in-flight commits
//!   before the final WAL force. Requests are read through a streaming
//!   frame buffer, so pipelined clients are served back-to-back and
//!   group commit batches across connections. [`server`] holds the
//!   configuration and the request execution the loop calls.
//! * [`client`] — [`Client`]: connect/handshake, `query()` with typed row
//!   decoding, native BEGIN (deferred: it leaves with the transaction's
//!   first request) / COMMIT / ROLLBACK with real
//!   [`Timestamp`](immortaldb_common::Timestamp)s, AS OF transactions
//!   held as a timestamp on the client (each statement one QUERY_AS_OF
//!   frame), and a split `send_query()`/`recv_response()` pair for
//!   pipelining.
//! * Replication frames — SUBSCRIBE_WAL flips a connection into a
//!   server-push stream of WAL_BATCH frames (raw log bytes plus the
//!   primary's visibility horizon); `crates/repl` builds read replicas
//!   on top ([`Client::subscribe_wal`] / [`WalSubscription`]).
//!
//! Server-side traffic is observable via the engine registry's `server.*`
//! metrics (`SHOW STATS` works over the wire, too).

#[cfg(not(target_os = "linux"))]
compile_error!("immortaldb-net runs on Linux only: its serving loop is built on epoll");

pub mod client;
pub mod proto;
pub mod reactor;
pub mod server;
pub mod sys;

pub use client::{Client, Response, WalSubscription};
pub use reactor::Server;
pub use server::{ServerConfig, SHED_RETRY_MS};
