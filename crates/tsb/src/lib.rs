//! # Time-Split B-tree (TSB-tree)
//!
//! The temporal index of Lomet & Salzberg ("Access Methods for
//! Multiversion Data", SIGMOD 1989), which the Immortal DB paper names as
//! its next step (§3.4, §7.2): instead of sequentially scanning the
//! time-split page chain from the current page, the TSB-tree indexes the
//! collection of time-split and key-split data pages by **key-time
//! rectangles**, so an AS OF query descends directly to the one page that
//! must contain the version of interest — making historical queries
//! "equal [to] current time queries".
//!
//! ## Structure
//!
//! Data pages are the same versioned leaf pages as the main B-tree
//! (version chains, delete stubs, the four-case time split). Index nodes
//! hold entries `(key_low, [t_low, t_high), child)`, sorted by
//! `(key_low, t_low)`:
//!
//! * searching `(key, t)` picks, among entries whose time range contains
//!   `t`, the one with the greatest `key_low ≤ key`;
//! * a **data-page time split** at `ts` rewrites the child's entry to
//!   `[ts, ∞)` and posts `(key_low, [old t_low, ts), hist)`;
//! * a **data-page key split** at `sep` posts `(sep, [start_ts, ∞), right)`;
//! * a full **index node** first tries its own time split (moving entries
//!   whose ranges end before the split time to a historical index node,
//!   duplicating spanning entries — they are immutable), and otherwise
//!   key-splits, conservatively duplicating historical entries that may
//!   span the separator (a data page reachable from both halves is
//!   harmless: it simply covers a wider key range than the index rectangle
//!   that led to it).
//!
//! Writes, the leaf phase of splits, stamping and logging are the main
//! tree's, written once in [`immortaldb_btree::TreeCore`] and
//! [`immortaldb_btree::TemporalIndex`]; this crate supplies the
//! [`immortaldb_btree::Routing`] (temporal descent and rectangle
//! posting), the cursor's rectangle walk, and in-place compaction. So
//! TSB structure modifications log and recover exactly like the main
//! tree's.

mod tree;

pub use tree::TsbTree;

#[cfg(test)]
mod tests;
