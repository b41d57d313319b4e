//! Versioned B+tree: the integrated storage structure of Immortal DB.
//!
//! Leaf pages are the versioned data pages of [`immortaldb_storage`]:
//! current and historical versions initially share a page, chained by the
//! VP field; full pages **time-split** (historical versions move to a
//! history page reachable through the page's history pointer) and, when
//! still over the utilization threshold *T*, **key-split** like a
//! conventional B+tree (§3.3 of the paper).
//!
//! Every table is one [`BTree`]. Its write half — versioned writes, leaf
//! splits, stamping, logging — is in `write.rs`; its reads are one
//! key × time cursor ([`BTree::cursor`]) and adapters over it. An `AS OF` read descends the current tree by key, then the chain
//! directory names the history page that answers (§4.2).
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
mod write;

pub use compact::{CompactionStats, HistoryStats};
pub use cursor::{
    Flow, HeadVersion, HistoryVersion, KeyRange, KeyVisitor, Query, RecordVisitor, ScanItem, Stamp,
    TemporalVersion, Version, Visitor,
};
pub use read::StorageStats;
pub use tree::BTree;
pub use write::{FixedSplitTime, SplitTimeSource, MAX_RECORD};

#[cfg(test)]
mod tests;
