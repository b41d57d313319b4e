//! Commit-visibility horizon: the boundary below which every issued
//! commit timestamp is actually *visible* (its transaction entered the
//! VTT/PTT, or aborted).
//!
//! The timestamp authority issues commit timestamps strictly before the
//! commit becomes durable and visible; with group commit the gap between
//! "timestamp issued" and "transaction visible" spans a whole batch
//! fsync. A snapshot taken from `TimestampAuthority::latest()` during
//! that gap could include a timestamp whose versions appear only later —
//! the same key read twice inside one snapshot transaction would change,
//! breaking snapshot isolation. The horizon closes that gap: snapshots
//! are taken at the newest timestamp `t` such that every commit
//! timestamp ≤ `t` has been retired (made visible or abandoned). Nothing
//! at or below the horizon can ever change visibility, because the
//! authority issues timestamps monotonically.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use immortaldb_btree::SplitTimeSource;
use immortaldb_common::Timestamp;

use crate::clock::TimestampAuthority;

#[derive(Default)]
struct HorizonInner {
    /// Issued-but-not-yet-retired commit timestamps, in issue order
    /// (issue order == timestamp order, the authority is monotone).
    in_flight: VecDeque<(Timestamp, bool)>,
    /// Newest timestamp with no older in-flight commit below it.
    stable: Timestamp,
}

/// Tracks in-flight commit timestamps and exposes the stable snapshot
/// boundary. One per engine, shared by all committers.
#[derive(Default)]
pub struct CommitHorizon {
    inner: Mutex<HorizonInner>,
}

impl CommitHorizon {
    pub fn new() -> CommitHorizon {
        CommitHorizon::default()
    }

    /// Issue the next commit timestamp through `authority` and register
    /// it as in-flight, atomically with respect to other issuers (so the
    /// in-flight queue is ordered like the timestamps themselves).
    pub fn issue(&self, authority: &TimestampAuthority) -> Timestamp {
        let mut g = self.inner.lock();
        if g.in_flight.is_empty() {
            // Everything issued before this point is visible; pin the
            // boundary so `snapshot()` stays current while we're the
            // only in-flight commit.
            g.stable = authority.latest();
        }
        let ts = authority.issue_commit_ts();
        g.in_flight.push_back((ts, false));
        ts
    }

    /// Retire `ts`: its transaction is now visible (committed into the
    /// VTT after the group fsync) or abandoned (commit failed and rolled
    /// back). Advances the stable boundary past every leading retired
    /// entry. Unknown timestamps are ignored (idempotent).
    pub fn retire(&self, ts: Timestamp) {
        let mut g = self.inner.lock();
        if let Some(slot) = g.in_flight.iter_mut().find(|(t, _)| *t == ts) {
            slot.1 = true;
        }
        while matches!(g.in_flight.front(), Some((_, true))) {
            let (t, _) = g.in_flight.pop_front().unwrap();
            g.stable = t;
        }
    }

    /// The snapshot timestamp a beginning transaction should read at:
    /// every commit at or below it is visible, and nothing newer can
    /// become visible at or below it later.
    pub fn snapshot(&self, authority: &TimestampAuthority) -> Timestamp {
        let g = self.inner.lock();
        if g.in_flight.is_empty() {
            authority.latest()
        } else {
            g.stable
        }
    }

    /// Number of issued-but-unretired commit timestamps (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.inner.lock().in_flight.len()
    }

    /// Oldest issued-but-unretired commit timestamp, if any. The queue is
    /// issue-ordered, so this is the minimum.
    pub fn min_in_flight(&self) -> Option<Timestamp> {
        self.inner.lock().in_flight.front().map(|(t, _)| *t)
    }

    /// Time-split boundary that no commit timestamp — issued or future —
    /// can undercut: the oldest in-flight commit timestamp, or the
    /// authority's next-timestamp lower bound when the pipeline is empty.
    ///
    /// The two reads must be one atomic sample: checking `min_in_flight`
    /// and *then* consulting the authority leaves a window where a commit
    /// issues its timestamp in between, so the authority's bound lands
    /// *above* that in-flight commit. A time split using such a boundary
    /// keeps the commit's TID-marked versions in the current page (split
    /// case 4) while pushing the page's start time past their eventual
    /// commit timestamp — stranding them from every future AS OF read at
    /// that time. Holding the horizon lock here closes the window, because
    /// `issue` registers new commits under the same lock.
    pub fn safe_split_ts(&self, authority: &TimestampAuthority) -> Timestamp {
        let g = self.inner.lock();
        match g.in_flight.front() {
            Some((t, _)) => *t,
            None => authority.current_split_ts(),
        }
    }
}

/// Split-time source that respects the commit pipeline: a time split must
/// never use a boundary above a commit timestamp that is already issued
/// but not yet visible — that transaction's TID-marked versions stay in
/// the current page (split case 4), and once it becomes visible its
/// timestamp would sit *below* the page's new start, routing snapshot
/// readers between the two into stale history. While commits are in
/// flight the safe boundary is the oldest in-flight timestamp (that
/// transaction's own versions end up exactly at the boundary, which case
/// 3 keeps current); when the pipeline is empty it is the authority's
/// next-timestamp lower bound, which no future commit can undercut.
pub struct HorizonSplitSource {
    authority: Arc<TimestampAuthority>,
    horizon: Arc<CommitHorizon>,
}

impl HorizonSplitSource {
    pub fn new(authority: Arc<TimestampAuthority>, horizon: Arc<CommitHorizon>) -> Self {
        HorizonSplitSource { authority, horizon }
    }
}

impl SplitTimeSource for HorizonSplitSource {
    /// If a page's start has already reached this bound, its time split
    /// is skipped, never pushed above it.
    fn current_split_ts(&self) -> Timestamp {
        self.horizon.safe_split_ts(&self.authority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use immortaldb_common::SimClock;
    use std::sync::Arc;

    fn authority() -> TimestampAuthority {
        TimestampAuthority::new(Arc::new(SimClock::new(1_000)))
    }

    #[test]
    fn snapshot_tracks_latest_when_idle() {
        let auth = authority();
        let h = CommitHorizon::new();
        let t1 = h.issue(&auth);
        h.retire(t1);
        assert_eq!(h.snapshot(&auth), auth.latest());
        assert_eq!(h.in_flight(), 0);
    }

    #[test]
    fn snapshot_excludes_in_flight_commits() {
        let auth = authority();
        let h = CommitHorizon::new();
        let before = auth.latest();
        let t1 = h.issue(&auth);
        let t2 = h.issue(&auth);
        // Neither retired yet: the snapshot must predate both.
        let snap = h.snapshot(&auth);
        assert_eq!(snap, before);
        assert!(snap < t1 && snap < t2);
        // Retiring out of order only advances past the contiguous prefix.
        h.retire(t2);
        assert_eq!(h.snapshot(&auth), before);
        h.retire(t1);
        assert_eq!(h.snapshot(&auth), auth.latest());
    }

    #[test]
    fn split_source_clamps_to_oldest_in_flight_commit() {
        let auth = Arc::new(authority());
        let h = Arc::new(CommitHorizon::new());
        let src = HorizonSplitSource::new(Arc::clone(&auth), Arc::clone(&h));
        // Idle: the bound is the authority's own split time, above latest.
        assert!(src.current_split_ts() > auth.latest());
        let t1 = h.issue(&auth);
        let t2 = h.issue(&auth);
        // In flight: clamped to the oldest issued-but-unretired commit.
        assert_eq!(h.min_in_flight(), Some(t1));
        assert_eq!(src.current_split_ts(), t1);
        h.retire(t1);
        assert_eq!(src.current_split_ts(), t2);
        h.retire(t2);
        assert_eq!(h.min_in_flight(), None);
        assert!(src.current_split_ts() > t2);
    }

    #[test]
    fn safe_split_ts_pins_to_oldest_in_flight() {
        let auth = authority();
        let h = CommitHorizon::new();
        // Empty pipeline: the authority's bound, above everything issued.
        let t1 = h.issue(&auth);
        h.retire(t1);
        assert!(h.safe_split_ts(&auth) > t1);
        // In flight: clamped to the oldest unretired commit, in one
        // atomic sample (issue shares the lock, so no commit can slip
        // between the emptiness check and the authority read).
        let t2 = h.issue(&auth);
        let t3 = h.issue(&auth);
        assert_eq!(h.safe_split_ts(&auth), t2);
        h.retire(t2);
        assert_eq!(h.safe_split_ts(&auth), t3);
        h.retire(t3);
        assert!(h.safe_split_ts(&auth) > t3);
    }

    #[test]
    fn retire_is_idempotent_and_ignores_unknown() {
        let auth = authority();
        let h = CommitHorizon::new();
        let t1 = h.issue(&auth);
        h.retire(t1);
        h.retire(t1);
        h.retire(Timestamp::new(999_999, 0));
        assert_eq!(h.in_flight(), 0);
    }
}
