//! The shadow model every answer is checked against: for each key, the
//! commit timestamp of each of its versions, filled from the generator
//! and the commit timestamps the engine handed back. The value of a
//! version is a pure function of `(key, version number)`
//! ([`row_value`]), so the map stores timestamps only.

use std::collections::BTreeMap;

use immortaldb::{Timestamp, Value};

use crate::gen::row_value;

/// Largest sequence number a commit timestamp can carry; `ms(N)` bounds
/// resolve to it on their upper side (the whole tick is inside).
const SN_TOP: u32 = u32::MAX - 1;

#[derive(Default)]
pub struct Oracle {
    /// `versions[key][n]` is the commit timestamp of the key's `n`-th
    /// version; ascending.
    versions: BTreeMap<i32, Vec<Timestamp>>,
    /// Every commit timestamp recorded, ascending.
    commits: Vec<Timestamp>,
}

/// The `(Oid, LocationX, LocationY)` row of `key`'s `n`-th version.
pub fn expected_row(key: i32, n: u32) -> Vec<Value> {
    let (x, y) = row_value(key, n);
    vec![Value::Int(key), Value::Int(x), Value::Int(y)]
}

impl Oracle {
    /// Record one acknowledged transaction: it wrote one new version of
    /// each of `keys` at `ts`.
    pub fn record_commit(&mut self, ts: Timestamp, keys: &[i32]) {
        assert!(
            self.commits.last().is_none_or(|last| *last < ts),
            "commit timestamps must ascend"
        );
        self.commits.push(ts);
        for key in keys {
            self.versions.entry(*key).or_default().push(ts);
        }
    }

    /// Versions `key` has so far: the number of its next version.
    pub fn next_version(&self, key: i32) -> u32 {
        self.versions.get(&key).map_or(0, |v| v.len() as u32)
    }

    pub fn keys(&self) -> impl Iterator<Item = i32> + '_ {
        self.versions.keys().copied()
    }

    pub fn versions_total(&self) -> usize {
        self.versions.values().map(Vec::len).sum()
    }

    /// The commit a fraction of the way through the history.
    pub fn commit_at(&self, when: u32) -> Timestamp {
        self.commits[((u64::from(when) * self.commits.len() as u64) >> 32) as usize]
    }

    /// A window of whole clock ticks covering about `1 / divisor` of the
    /// history, as the `ms(lo)`, `ms(hi)` operands of `VERSIONS BETWEEN`.
    /// The newest tick is never inside: a writer may still be adding
    /// commits to it that this oracle has not been told of.
    pub fn window(&self, when: u32, divisor: usize) -> (u64, u64) {
        let newest = self.commits.last().map_or(0, |c| c.ttime);
        let closed = self.commits.partition_point(|c| c.ttime < newest);
        if closed == 0 {
            // No closed tick yet: an empty window before all history.
            return (0, 0);
        }
        let span = (closed / divisor).max(1);
        let lo = ((u64::from(when) * (closed - span.min(closed - 1)) as u64) >> 32) as usize;
        let hi = (lo + span).min(closed - 1);
        (self.commits[lo].ttime, self.commits[hi].ttime)
    }

    /// Version number of `key` visible at `ts`.
    fn version_as_of(&self, key: i32, ts: Timestamp) -> Option<u32> {
        let n = self.versions.get(&key)?.partition_point(|c| *c <= ts);
        n.checked_sub(1).map(|n| n as u32)
    }

    /// A point `AS OF ts` read of `key` must return exactly the version
    /// visible then, or nothing if the key did not exist yet.
    pub fn check_point(&self, rows: &[Vec<Value>], key: i32, ts: Timestamp) -> bool {
        match self.version_as_of(key, ts) {
            Some(n) => rows.len() == 1 && rows[0] == expected_row(key, n),
            None => rows.is_empty(),
        }
    }

    /// The newest acknowledged state of `key`.
    pub fn check_current(&self, rows: &[Vec<Value>], key: i32) -> bool {
        self.check_point(
            rows,
            key,
            Timestamp {
                ttime: u64::MAX,
                sn: SN_TOP,
            },
        )
    }

    /// An `AS OF ts` scan of the keys in `lo..hi`, in key order.
    pub fn check_scan(&self, rows: &[Vec<Value>], lo: i32, hi: i32, ts: Timestamp) -> bool {
        let mut got = rows.iter();
        for (key, _) in self.versions.range(lo..hi) {
            if let Some(n) = self.version_as_of(*key, ts) {
                if got.next() != Some(&expected_row(*key, n)) {
                    return false;
                }
            }
        }
        got.next().is_none()
    }

    /// `SELECT * … VERSIONS BETWEEN ms(lo) AND ms(hi) WHERE Oid = key`:
    /// every version committed in the ticks `lo..=hi`, oldest first, each
    /// led by `_commit_ms, _commit_sn, _op`.
    pub fn check_versions(&self, rows: &[Vec<Value>], key: i32, lo_ms: u64, hi_ms: u64) -> bool {
        let Some(all) = self.versions.get(&key) else {
            return rows.is_empty();
        };
        let lo = all.partition_point(|c| c.ttime < lo_ms);
        let hi = all.partition_point(|c| c.ttime <= hi_ms);
        let mut got = rows.iter();
        for (n, ts) in all.iter().enumerate().take(hi).skip(lo) {
            let mut want = vec![
                Value::BigInt(ts.ttime as i64),
                Value::Int(ts.sn as i32),
                Value::Varchar("WRITE".into()),
            ];
            want.extend(expected_row(key, n as u32));
            if got.next() != Some(&want) {
                return false;
            }
        }
        got.next().is_none()
    }

    /// `HISTORY OF … WHERE Oid = key` (newest first): checks count, order
    /// and values against `want` acknowledged versions and returns the
    /// timestamps the engine reports, oldest first.
    pub fn check_history(rows: &[Vec<Value>], key: i32, want: u32) -> Option<Vec<Timestamp>> {
        if rows.len() != want as usize {
            return None;
        }
        let mut out = Vec::with_capacity(rows.len());
        for (n, row) in rows.iter().rev().enumerate() {
            let (Value::BigInt(ms), Value::Int(sn)) = (&row[0], &row[1]) else {
                return None;
            };
            if row[2] != Value::Varchar("WRITE".into())
                || row[3..] != expected_row(key, n as u32)[..]
            {
                return None;
            }
            let ts = Timestamp {
                ttime: *ms as u64,
                sn: *sn as u32,
            };
            if out.last().is_some_and(|prev| *prev >= ts) {
                return None;
            }
            out.push(ts);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ttime: u64, sn: u32) -> Timestamp {
        Timestamp { ttime, sn }
    }

    /// Keys 1 and 2 written at tick 20, key 1 again at ticks 40 and 60.
    fn small() -> Oracle {
        let mut o = Oracle::default();
        o.record_commit(ts(20, 1), &[1, 2]);
        o.record_commit(ts(40, 1), &[1]);
        o.record_commit(ts(60, 1), &[1]);
        o.record_commit(ts(80, 1), &[2]);
        o
    }

    #[test]
    fn point_reads_see_the_version_current_at_the_target() {
        let o = small();
        assert!(o.check_point(&[], 1, ts(20, 0)));
        assert!(o.check_point(&[expected_row(1, 0)], 1, ts(20, 1)));
        assert!(o.check_point(&[expected_row(1, 1)], 1, ts(59, 7)));
        assert!(o.check_current(&[expected_row(1, 2)], 1));
        assert!(o.check_current(&[], 9));
    }

    #[test]
    fn a_planted_wrong_answer_is_rejected() {
        let o = small();
        // The right row one version too new, one too old, with a changed
        // column, duplicated, and missing.
        assert!(!o.check_point(&[expected_row(1, 2)], 1, ts(40, 1)));
        assert!(!o.check_point(&[expected_row(1, 0)], 1, ts(40, 1)));
        let mut bent = expected_row(1, 1);
        bent[2] = Value::Int(-1);
        assert!(!o.check_point(&[bent], 1, ts(40, 1)));
        assert!(!o.check_point(&[expected_row(1, 1), expected_row(1, 1)], 1, ts(40, 1)));
        assert!(!o.check_point(&[], 1, ts(40, 1)));
        // A row for a key that did not exist yet.
        assert!(!o.check_point(&[expected_row(1, 0)], 1, ts(0, 0)));
    }

    #[test]
    fn scans_are_checked_row_by_row_in_key_order() {
        let o = small();
        let at = ts(40, 5);
        let good = vec![expected_row(1, 1), expected_row(2, 0)];
        assert!(o.check_scan(&good, 0, 10, at));
        assert!(o.check_scan(&good[..1], 0, 2, at));
        assert!(!o.check_scan(&good[..1], 0, 10, at), "a missing row");
        let swapped = vec![good[1].clone(), good[0].clone()];
        assert!(!o.check_scan(&swapped, 0, 10, at), "out of key order");
        let stale = vec![expected_row(1, 0), expected_row(2, 0)];
        assert!(!o.check_scan(&stale, 0, 10, at), "a stale version");
    }

    #[test]
    fn version_windows_cover_whole_ticks_and_reject_gaps() {
        let o = small();
        let row = |n: u32, ms: i64| {
            let mut r = vec![
                Value::BigInt(ms),
                Value::Int(1),
                Value::Varchar("WRITE".into()),
            ];
            r.extend(expected_row(1, n));
            r
        };
        assert!(o.check_versions(&[row(1, 40), row(2, 60)], 1, 40, 60));
        assert!(o.check_versions(&[row(0, 20)], 1, 0, 20));
        assert!(o.check_versions(&[], 1, 100, 120));
        assert!(
            !o.check_versions(&[row(2, 60)], 1, 40, 60),
            "a dropped version"
        );
        assert!(
            !o.check_versions(&[row(1, 40), row(2, 40)], 1, 40, 60),
            "a wrong timestamp"
        );
    }

    #[test]
    fn history_listing_must_match_the_acknowledged_versions() {
        let listing = |ns: &[(u32, i64)]| -> Vec<Vec<Value>> {
            ns.iter()
                .map(|(n, ms)| {
                    let mut r = vec![
                        Value::BigInt(*ms),
                        Value::Int(1),
                        Value::Varchar("WRITE".into()),
                    ];
                    r.extend(expected_row(1, *n));
                    r
                })
                .collect()
        };
        let good = listing(&[(2, 60), (1, 40), (0, 20)]);
        assert_eq!(
            Oracle::check_history(&good, 1, 3),
            Some(vec![ts(20, 1), ts(40, 1), ts(60, 1)])
        );
        assert_eq!(
            Oracle::check_history(&good, 1, 4),
            None,
            "a lost acknowledged write"
        );
        assert_eq!(
            Oracle::check_history(&good[..2], 1, 2),
            None,
            "values shifted by one"
        );
        let unordered = listing(&[(2, 40), (1, 40), (0, 20)]);
        assert_eq!(
            Oracle::check_history(&unordered, 1, 3),
            None,
            "timestamps must ascend"
        );
    }

    #[test]
    fn windows_stay_out_of_the_newest_tick() {
        let mut o = Oracle::default();
        for i in 0..100u64 {
            o.record_commit(ts(20 * (1 + i / 4), (i % 4) as u32 + 1), &[1]);
        }
        for when in [0, u32::MAX / 3, u32::MAX] {
            let (lo, hi) = o.window(when, 10);
            assert!(lo <= hi);
            assert!(hi < 20 * 25, "newest tick {hi} is still open");
        }
        assert_eq!(o.commit_at(0), ts(20, 1));
        assert_eq!(o.commit_at(u32::MAX), ts(20 * 25, 4));
    }
}
