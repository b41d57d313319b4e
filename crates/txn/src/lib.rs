//! Transaction-time machinery: the paper's §2 contribution.
//!
//! * [`clock`] — the timestamp authority: commit-time timestamps with
//!   20 ms clock resolution extended by a sequence number, issued under a
//!   mutex so timestamp order equals commit (serialization) order. The
//!   same mutex tracks issued-but-not-yet-visible timestamps, so
//!   snapshots never straddle an in-flight (group-committed) transaction,
//!   time splits never cut above one, and a commit is acknowledged only
//!   once every later snapshot sees it.
//! * [`vtt`] — the volatile timestamp table: TID → timestamp cache with
//!   the reference counts that track how many record versions still await
//!   their timestamp.
//! * [`ptt`] — the persistent timestamp table: a B-tree table keyed by
//!   TID (ascending TIDs keep the active tail clustered), written once per
//!   committing transaction, garbage-collected incrementally.
//! * [`resolver`] — the [`immortaldb_storage::TimestampResolver`]
//!   implementation (VTT first, PTT fallback with cache-back) plus the
//!   buffer-pool flush hook and the PTT GC pass.
//! * [`locks`] — a key-level S/X lock manager with wait-for-graph deadlock
//!   detection, backing serializable two-phase locking and snapshot
//!   isolation write locks.

pub mod clock;
pub mod locks;
pub mod ptt;
pub mod resolver;
pub mod vtt;

pub use clock::TimestampAuthority;
pub use locks::{LockManager, LockMode, LockTarget};
pub use ptt::Ptt;
pub use resolver::{PttGc, StampingFlushHook, TxnResolver};
pub use vtt::{TxnState, Vtt};
