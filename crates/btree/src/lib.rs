//! Versioned B+tree: the integrated storage structure of Immortal DB.
//!
//! Leaf pages are the versioned data pages of [`immortaldb_storage`]:
//! current and historical versions initially share a page, chained by the
//! VP field; full pages **time-split** (historical versions move to a
//! history page reachable through the page's history pointer) and, when
//! still over the utilization threshold *T*, **key-split** like a
//! conventional B+tree (§3.3 of the paper).
//!
//! The write half of that protocol — versioned writes, leaf splits,
//! stamping, logging — is [`TreeCore`] plus [`TemporalIndex`], written
//! once over a [`Routing`]; the chain B-tree ([`BTree`]) and the TSB-tree
//! (crate `immortaldb-tsb`) supply only how current leaves are found and
//! how splits are posted above them. Reads are the one key × time
//! [`VersionCursor`] each index implements.
//!
//! The same tree type also serves unversioned (conventional) tables — the
//! persistent timestamp table and the catalog included — with in-place
//! updates and key splits only.
//!
//! Concurrency model: a tree-level structure latch (read for descents and
//! page operations, write for splits) plus per-page latches from the
//! buffer pool. This favours simplicity and matches the single-writer
//! experiments of the paper; latch crabbing would be the next step.

mod chain_dir;
mod compact;
mod cursor;
mod read;
mod split;
mod tree;
mod tree_core;

pub use compact::{walk_history, CompactionStats, HistoryStats, HistoryWalk};
pub use cursor::{
    visit_page, Flow, HeadVersion, HistoryVersion, KeyRange, KeyVisitor, Query, RecordVisitor,
    ScanItem, Stamp, TemporalVersion, Version, VersionBuffer, VersionCursor, Visitor,
};
pub use read::StorageStats;
pub use tree::BTree;
pub use tree_core::{
    FixedSplitTime, LeafSplit, Routing, SplitTimeSource, TemporalIndex, TreeCore, MAX_RECORD,
};

#[cfg(test)]
mod tests;
