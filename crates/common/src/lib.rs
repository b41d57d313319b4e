//! Shared vocabulary types for the Immortal DB engine.
//!
//! This crate has no dependencies and defines the identifiers, timestamp
//! representation, error type and little byte-codec helpers that every
//! other crate in the workspace builds on.
//!
//! The timestamp design follows §2.1 of the paper: an 8-byte "clock time"
//! with deliberately coarse 20 ms resolution (mirroring the SQL Server
//! date/time type) extended by a 4-byte sequence number so that every
//! transaction committing within the same 20 ms tick still receives a
//! unique, correctly ordered timestamp.

pub mod blocking;
pub mod codec;
pub mod error;
pub mod ids;
pub mod time;

pub use error::{Error, ErrorCode, Result};
pub use ids::{Lsn, PageId, Tid, TreeId, INVALID_PAGE, NULL_LSN};
pub use time::{Clock, SimClock, SystemClock, Timestamp, TICK_MS};

/// Size of every on-disk page, in bytes (the paper's experiments use 8 KB
/// SQL Server pages).
pub const PAGE_SIZE: usize = 8192;

/// Number of trailing bytes appended to each record version for
/// timestamping and version chaining (Fig. 1b of the paper):
/// `VP:u16 | Ttime:u64 | SN:u32`.
pub const VERSION_TAIL: usize = 14;
