//! Temporal query subsystem: the window-bound semantics shared by
//! `VERSIONS BETWEEN` and `DIFF TABLE`, and the fold that turns one key's
//! versions in a window into its net change.
//!
//! Both query shapes execute as a **single** walk of the index's key ×
//! time cursor ([`immortaldb_btree::BTree::versions_by_key`]), lent one
//! key's versions at a time: for the leaves covering the keys, the
//! page-chain B+tree reads the chain pages whose time range meets the
//! window. Neither replays per-timestamp `AS OF` point lookups, nor holds
//! more than one key region's versions.
//!
//! Window semantics (DESIGN.md §10):
//!
//! * `VERSIONS BETWEEN a AND b` is **interval**-shaped: a clock bound's
//!   whole 20 ms tick is inside the window — the lower bound resolves to
//!   the start of its tick ([`window_lo`]), the upper to the end of its
//!   tick ([`window_hi`]); both ends are inclusive. A named-snapshot
//!   bound contributes its exact pinned timestamp.
//! * `DIFF TABLE … BETWEEN a AND b` is **point**-shaped: it compares the
//!   states *at* the two instants (each resolved like `BEGIN TRAN AS
//!   OF`), so a row changed and changed back reports nothing.

use immortaldb_btree::{Version, VersionBuf};
use immortaldb_common::time::quantize;
use immortaldb_common::Timestamp;

/// Lower bound of a `VERSIONS BETWEEN` window from a wall-clock
/// millisecond operand: the start of its 20 ms tick, so every commit
/// within the named tick is inside the window.
pub fn window_lo(ms: u64) -> Timestamp {
    Timestamp::new(quantize(ms), 0)
}

/// Upper bound of a temporal window from a wall-clock millisecond
/// operand: the end of its tick — identical to how `BEGIN TRAN AS OF`
/// resolves its operand.
pub fn window_hi(ms: u64) -> Timestamp {
    Timestamp::as_of_clock(ms)
}

/// Net effect of a window on one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffOp {
    Insert,
    Update,
    Delete,
}

impl DiffOp {
    pub fn name(self) -> &'static str {
        match self {
            DiffOp::Insert => "INSERT",
            DiffOp::Update => "UPDATE",
            DiffOp::Delete => "DELETE",
        }
    }
}

/// One row of a `DIFF TABLE` result: a key whose state at `t2` differs
/// from its state at `t1`, with both states attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    pub key: Vec<u8>,
    pub op: DiffOp,
    /// Commit timestamp of the version that put the key into its `t2`
    /// state (the tombstone's timestamp for a delete).
    pub ts: Timestamp,
    /// Encoded row at `t1` (`None` — absent or deleted).
    pub before: Option<Vec<u8>>,
    /// Encoded row at `t2` (`None` — deleted).
    pub after: Option<Vec<u8>>,
}

/// One committed version, copied out of the walk: an item of
/// [`Database::versions_between`](crate::Database::versions_between), the
/// collecting form of `VERSIONS BETWEEN`. Every other temporal read lends
/// its versions instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalVersion {
    pub key: Vec<u8>,
    /// Commit timestamp of this version.
    pub ts: Timestamp,
    /// `None` marks a delete tombstone.
    pub data: Option<Vec<u8>>,
}

impl TemporalVersion {
    /// A copy of `v` when it committed at or after `lo`.
    pub fn within(v: &Version<'_>, lo: Timestamp) -> Option<TemporalVersion> {
        let ts = v.ts().filter(|&ts| ts >= lo)?;
        Some(TemporalVersion {
            key: v.key.to_vec(),
            ts,
            data: v.data.map(<[u8]>::to_vec),
        })
    }
}

/// Fold one key's group of a `versions_by_key(t1, t2)` walk — oldest
/// first, the key's base version (its state at `t1`) included — into the
/// key's net change between its states at `t1` and `t2`: `None` when the
/// two are byte-identical.
pub fn fold_diff(group: &VersionBuf, t1: Timestamp) -> Option<DiffRow> {
    // State at t2: the group's last version (the walk returns nothing
    // above t2). State at t1: the newest version at or below it.
    let after = group.iter().next_back()?;
    let ts = after.ts().filter(|&ts| ts > t1)?; // none in the window: unchanged
    let before = group
        .iter()
        .rev()
        .find(|v| v.ts().is_some_and(|ts| ts <= t1))
        .and_then(|v| v.data);
    let op = match (before, after.data) {
        (None, Some(_)) => DiffOp::Insert,
        (Some(_), None) => DiffOp::Delete,
        (Some(b), Some(a)) if b != a => DiffOp::Update,
        // Changed and changed back, or absent at both points (e.g.
        // inserted and deleted inside the window): no net change.
        _ => return None,
    };
    Some(DiffRow {
        key: after.key.to_vec(),
        op,
        ts,
        before: before.map(<[u8]>::to_vec),
        after: after.data.map(<[u8]>::to_vec),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use immortaldb_btree::Stamp;

    fn v(key: &'static [u8], ms: u64, data: Option<&'static str>) -> Version<'static> {
        Version {
            key,
            stamp: Stamp::Committed(Timestamp::new(ms, 0)),
            data: data.map(str::as_bytes),
        }
    }

    #[test]
    fn window_bounds_cover_the_whole_tick() {
        let lo = window_lo(47); // tick [40, 60)
        let hi = window_hi(47);
        assert_eq!(lo, Timestamp::new(40, 0));
        assert_eq!(hi.ttime, 40);
        assert!(lo <= hi);
        // Every serial number within the tick is inside the window.
        assert!(Timestamp::new(40, 123) > lo && Timestamp::new(40, 123) < hi);
    }

    /// The walk's versions, cut into key groups and folded one by one.
    fn diff(versions: Vec<Version<'_>>, t1: Timestamp) -> Vec<DiffRow> {
        let (mut out, mut group) = (Vec::new(), VersionBuf::default());
        for (i, v) in versions.iter().enumerate() {
            group.push(v);
            if versions.get(i + 1).is_none_or(|next| next.key != v.key) {
                out.extend(fold_diff(&group, t1));
                group.clear();
            }
        }
        out
    }

    #[test]
    fn diff_classifies_insert_update_delete() {
        let t1 = Timestamp::new(100, 0);
        let versions = vec![
            // key 1: existed at t1, updated twice in the window → UPDATE
            v(b"1", 80, Some("a")),
            v(b"1", 120, Some("b")),
            v(b"1", 140, Some("c")),
            // key 2: born in the window → INSERT
            v(b"2", 130, Some("x")),
            // key 3: existed at t1, deleted in the window → DELETE
            v(b"3", 90, Some("y")),
            v(b"3", 150, None),
            // key 4: unchanged (base only) → omitted
            v(b"4", 70, Some("z")),
            // key 5: inserted and deleted inside the window → omitted
            v(b"5", 110, Some("w")),
            v(b"5", 160, None),
        ];
        let diff = diff(versions, t1);
        assert_eq!(diff.len(), 3);
        assert_eq!(diff[0].op, DiffOp::Update);
        assert_eq!(diff[0].before.as_deref(), Some(b"a".as_ref()));
        assert_eq!(diff[0].after.as_deref(), Some(b"c".as_ref()));
        assert_eq!(diff[0].ts, Timestamp::new(140, 0));
        assert_eq!(diff[1].op, DiffOp::Insert);
        assert_eq!(diff[1].before, None);
        assert_eq!(diff[2].op, DiffOp::Delete);
        assert_eq!(diff[2].after, None);
    }

    #[test]
    fn diff_omits_change_and_change_back() {
        let t1 = Timestamp::new(100, 0);
        let versions = vec![
            v(b"1", 80, Some("a")),
            v(b"1", 120, Some("b")),
            v(b"1", 140, Some("a")),
        ];
        assert!(diff(versions, t1).is_empty());
    }

    #[test]
    fn diff_sees_redelete_of_a_dead_key_as_nothing() {
        // Dead at t1 (tombstone base), still dead at t2.
        let t1 = Timestamp::new(100, 0);
        let versions = vec![
            v(b"1", 80, None),
            v(b"1", 120, Some("a")),
            v(b"1", 140, None),
        ];
        assert!(diff(versions, t1).is_empty());
    }
}
