//! Temporal query subsystem: the window-bound semantics shared by
//! `VERSIONS BETWEEN` and `DIFF TABLE`, and the fold that turns one key's
//! versions in a window into its net change.
//!
//! Both query shapes execute as a **single** walk of the index's key ×
//! time cursor ([`immortaldb_btree::BTree::versions_by_key`]), handed one
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

use immortaldb_btree::TemporalVersion;
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

/// Fold one key's group of a `versions_by_key(t1, t2)` walk — oldest
/// first, the key's base version (its state at `t1`) included — into the
/// key's net change between its states at `t1` and `t2`: `None` when the
/// two are byte-identical.
pub fn fold_diff(mut group: Vec<TemporalVersion>, t1: Timestamp) -> Option<DiffRow> {
    // State at t2: the group's last version (the walk returns nothing
    // above t2). State at t1: the newest version at or below it.
    let after = group.pop()?;
    if after.ts <= t1 {
        return None; // no version in the window: unchanged
    }
    let before = group
        .into_iter()
        .rev()
        .find(|v| v.ts <= t1)
        .and_then(|v| v.data);
    let op = match (&before, &after.data) {
        (None, Some(_)) => DiffOp::Insert,
        (Some(_), None) => DiffOp::Delete,
        (Some(b), Some(a)) if b != a => DiffOp::Update,
        // Changed and changed back, or absent at both points (e.g.
        // inserted and deleted inside the window): no net change.
        _ => return None,
    };
    Some(DiffRow {
        key: after.key,
        op,
        ts: after.ts,
        before,
        after: after.data,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(key: u8, ms: u64, data: Option<&str>) -> TemporalVersion {
        TemporalVersion {
            key: vec![key],
            ts: Timestamp::new(ms, 0),
            data: data.map(|s| s.as_bytes().to_vec()),
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
    fn diff(versions: Vec<TemporalVersion>, t1: Timestamp) -> Vec<DiffRow> {
        let mut groups: Vec<Vec<TemporalVersion>> = Vec::new();
        for v in versions {
            match groups.last_mut() {
                Some(g) if g[0].key == v.key => g.push(v),
                _ => groups.push(vec![v]),
            }
        }
        groups
            .into_iter()
            .filter_map(|g| fold_diff(g, t1))
            .collect()
    }

    #[test]
    fn diff_classifies_insert_update_delete() {
        let t1 = Timestamp::new(100, 0);
        let versions = vec![
            // key 1: existed at t1, updated twice in the window → UPDATE
            v(1, 80, Some("a")),
            v(1, 120, Some("b")),
            v(1, 140, Some("c")),
            // key 2: born in the window → INSERT
            v(2, 130, Some("x")),
            // key 3: existed at t1, deleted in the window → DELETE
            v(3, 90, Some("y")),
            v(3, 150, None),
            // key 4: unchanged (base only) → omitted
            v(4, 70, Some("z")),
            // key 5: inserted and deleted inside the window → omitted
            v(5, 110, Some("w")),
            v(5, 160, None),
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
            v(1, 80, Some("a")),
            v(1, 120, Some("b")),
            v(1, 140, Some("a")),
        ];
        assert!(diff(versions, t1).is_empty());
    }

    #[test]
    fn diff_sees_redelete_of_a_dead_key_as_nothing() {
        // Dead at t1 (tombstone base), still dead at t2.
        let t1 = Timestamp::new(100, 0);
        let versions = vec![v(1, 80, None), v(1, 120, Some("a")), v(1, 140, None)];
        assert!(diff(versions, t1).is_empty());
    }
}
