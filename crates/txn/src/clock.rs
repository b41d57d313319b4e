//! The timestamp authority (§2.1).
//!
//! Immortal DB chooses a transaction's timestamp **as late as possible**
//! — at commit — so the timestamp can be made consistent with the
//! serialization order that is only known then. The authority serializes
//! issuance under a mutex: the clock time is quantized to 20 ms ticks
//! (the SQL Server date/time resolution) and a 4-byte sequence number
//! distinguishes up to 2^32 transactions per tick, "more than enough for
//! any conceivable transaction processing system".
//!
//! A timestamp is issued before its commit is durable and visible; with
//! group commit the gap spans a whole batch fsync. The same mutex
//! therefore also holds the issued-but-unretired timestamps, in issue
//! (= timestamp) order, and the *stable boundary*: the newest timestamp
//! at or below which every issued one is retired — made visible, or
//! abandoned by a failed commit. Three rules read that one sample:
//!
//! * a snapshot is taken at the boundary, so nothing at or below it can
//!   change visibility later;
//! * a time split never cuts above the oldest unretired timestamp;
//! * a commit is acknowledged only once the boundary covers it, so every
//!   later snapshot, on any connection, sees it.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use immortaldb_btree::SplitTimeSource;
use immortaldb_common::time::{quantize, SN_TID_MARK};
use immortaldb_common::{blocking, Clock, Timestamp, TICK_MS};
use immortaldb_obs::MetricsRegistry;

struct State {
    /// Newest issued timestamp.
    last: Timestamp,
    /// Issued timestamps not yet popped, oldest first, each with whether
    /// it has retired.
    in_flight: VecDeque<(Timestamp, bool)>,
    /// Every issued timestamp at or below this one has retired. Equal to
    /// `last` whenever `in_flight` is empty.
    stable: Timestamp,
    /// Acknowledgements blocked until `stable` covers them. A retire
    /// signals only when there are some: a wake-up is a system call.
    waiting: usize,
}

/// Issues commit timestamps that are strictly monotone and consistent
/// with commit order, and says which of them every reader may see.
pub struct TimestampAuthority {
    clock: Arc<dyn Clock>,
    state: Mutex<State>,
    /// Signalled whenever `stable` advances.
    advanced: Condvar,
    metrics: MetricsRegistry,
}

impl TimestampAuthority {
    pub fn new(clock: Arc<dyn Clock>, metrics: MetricsRegistry) -> TimestampAuthority {
        TimestampAuthority {
            clock,
            state: Mutex::new(State {
                last: Timestamp::ZERO,
                in_flight: VecDeque::new(),
                stable: Timestamp::ZERO,
                waiting: 0,
            }),
            advanced: Condvar::new(),
            metrics,
        }
    }

    /// Restore the high-water mark after a restart (from the meta page)
    /// so new timestamps never collide with pre-crash ones even if the
    /// wall clock regressed. Called before the first issue, or on a
    /// replica, which never issues: nothing is in flight.
    pub fn restore(&self, ts: Timestamp) {
        let mut s = self.state.lock();
        debug_assert!(s.in_flight.is_empty());
        if ts > s.last {
            s.last = ts;
            s.stable = ts;
        }
    }

    /// Issue the commit timestamp for a transaction committing now,
    /// strictly greater than every previously issued one, and register it
    /// in flight. The caller must [`Self::retire`] or
    /// [`Self::acknowledge`] it, or the boundary stops there for good.
    pub fn issue(&self) -> Timestamp {
        let now = quantize(self.clock.now_ms());
        let mut s = self.state.lock();
        let ts = if now > s.last.ttime {
            Timestamp::new(now, 0)
        } else if s.last.sn + 1 < SN_TID_MARK {
            Timestamp::new(s.last.ttime, s.last.sn + 1)
        } else {
            // Sequence space of the tick exhausted (2^32 commits in 20 ms —
            // unreachable in practice, handled for completeness).
            Timestamp::new(s.last.ttime + TICK_MS, 0)
        };
        s.last = ts;
        s.in_flight.push_back((ts, false));
        ts
    }

    /// Retire `ts`: its transaction is visible (committed into the VTT
    /// after the group fsync) or abandoned (its commit failed and rolled
    /// back). Advances the boundary past every leading retired timestamp
    /// and returns whether it now covers `ts` — `false` while a lower one
    /// is still in flight. Unknown timestamps are ignored (idempotent).
    pub fn retire(&self, ts: Timestamp) -> bool {
        let mut s = self.state.lock();
        if let Some(slot) = s.in_flight.iter_mut().find(|(t, _)| *t == ts) {
            slot.1 = true;
        }
        let before = s.stable;
        while let Some(&(t, true)) = s.in_flight.front() {
            s.in_flight.pop_front();
            s.stable = t;
        }
        if s.stable > before && s.waiting > 0 {
            self.advanced.notify_all();
        }
        s.stable >= ts
    }

    /// Retire the committed `ts` and return only once the boundary covers
    /// it, so whoever is told of the commit next sees it in any snapshot.
    /// The wait lasts until every lower timestamp in flight retires: at
    /// most one group-commit batch.
    pub fn acknowledge(&self, ts: Timestamp) {
        if self.retire(ts) {
            return;
        }
        blocking::about_to_block();
        self.metrics.ts.visibility_waits.inc();
        let mut s = self.state.lock();
        s.waiting += 1;
        while s.stable < ts {
            self.advanced.wait(&mut s);
        }
        s.waiting -= 1;
    }

    /// The snapshot a beginning transaction reads at: every commit at or
    /// below it is visible, and nothing newer can become visible at or
    /// below it later.
    pub fn snapshot(&self) -> Timestamp {
        self.state.lock().stable
    }

    /// The newest issued timestamp, which may still be in flight: the
    /// high-water mark a checkpoint persists, never a snapshot.
    pub fn latest(&self) -> Timestamp {
        self.state.lock().last
    }

    /// Raw clock access (for AS OF parsing and experiments).
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }
}

impl SplitTimeSource for TimestampAuthority {
    /// A time split must never cut above an issued but unretired commit
    /// timestamp: that transaction's TID-marked versions stay in the
    /// current page (split case 4), and once it becomes visible its
    /// timestamp would sit *below* the page's new start, routing readers
    /// between the two into stale history. So the bound is the oldest
    /// in-flight timestamp (its own versions then sit exactly at the
    /// boundary, which case 3 keeps current), or, with nothing in flight,
    /// the next-timestamp lower bound, which no future commit undercuts.
    /// Both come from one sample: `issue` registers under the same lock,
    /// so no commit can slip between the two reads.
    fn current_split_ts(&self) -> Timestamp {
        let now = quantize(self.clock.now_ms());
        let s = self.state.lock();
        match s.in_flight.front() {
            Some(&(t, _)) => t,
            None if now > s.last.ttime => Timestamp::new(now, 0),
            None => Timestamp::new(s.last.ttime, s.last.sn + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use immortaldb_common::SimClock;
    use std::time::Duration;

    fn authority(clock: Arc<SimClock>) -> TimestampAuthority {
        TimestampAuthority::new(clock, MetricsRegistry::new())
    }

    #[test]
    fn issues_monotone_within_tick() {
        let auth = authority(Arc::new(SimClock::new(1000)));
        let a = auth.issue();
        let b = auth.issue();
        let c = auth.issue();
        assert!(a < b && b < c);
        assert_eq!(a.ttime, b.ttime);
        assert_eq!(b.sn, a.sn + 1);
    }

    #[test]
    fn new_tick_resets_sequence() {
        let clock = Arc::new(SimClock::new(1000));
        let auth = authority(Arc::clone(&clock));
        let a = auth.issue();
        clock.advance(TICK_MS);
        let b = auth.issue();
        assert!(b > a);
        assert_eq!(b.sn, 0);
        assert_eq!(b.ttime, a.ttime + TICK_MS);
    }

    #[test]
    fn survives_clock_regression_via_restore() {
        let auth = authority(Arc::new(SimClock::new(10_000)));
        auth.restore(Timestamp::new(50_000, 7));
        assert_eq!(auth.snapshot(), Timestamp::new(50_000, 7));
        let ts = auth.issue();
        assert!(ts > Timestamp::new(50_000, 7));
        assert_eq!(ts.ttime, 50_000); // stays in the restored tick
    }

    #[test]
    fn snapshot_excludes_in_flight_commits() {
        let auth = authority(Arc::new(SimClock::new(1000)));
        let t0 = auth.issue();
        assert!(auth.retire(t0));
        assert_eq!(auth.snapshot(), t0);
        let t1 = auth.issue();
        let t2 = auth.issue();
        assert_eq!(auth.latest(), t2);
        // Neither retired yet: the snapshot predates both.
        assert_eq!(auth.snapshot(), t0);
        // Retiring out of order only advances past the contiguous prefix.
        assert!(!auth.retire(t2));
        assert_eq!(auth.snapshot(), t0);
        assert!(auth.retire(t1));
        assert_eq!(auth.snapshot(), t2);
        // Idempotent, and unknown timestamps are ignored.
        assert!(auth.retire(t2));
        auth.retire(Timestamp::new(999_999, 0));
        assert_eq!(auth.snapshot(), t2);
    }

    #[test]
    fn split_bound_is_the_oldest_in_flight_commit() {
        let auth = authority(Arc::new(SimClock::new(1000)));
        // Idle: the next-timestamp bound, above everything issued.
        let t0 = auth.issue();
        auth.retire(t0);
        assert!(auth.current_split_ts() > t0);
        let t1 = auth.issue();
        let t2 = auth.issue();
        assert_eq!(auth.current_split_ts(), t1);
        auth.retire(t1);
        assert_eq!(auth.current_split_ts(), t2);
        auth.retire(t2);
        let bound = auth.current_split_ts();
        assert!(bound > t2);
        // A commit issued after the bound is at or above it.
        assert!(auth.issue() >= bound);
    }

    /// Issue t1 then t2 and commit t2 first. Acknowledging t2 must wait
    /// until t1 retires, and the next snapshot then covers t2. t1 retires
    /// the same way whether its commit succeeds (`acknowledge`) or fails
    /// and rolls back (`retire`); both are driven here.
    #[test]
    fn a_commit_is_acknowledged_only_once_every_lower_one_retires() {
        for t1_commits in [true, false] {
            let metrics = MetricsRegistry::new();
            let auth = Arc::new(TimestampAuthority::new(
                Arc::new(SimClock::new(1000)),
                metrics.clone(),
            ));
            let t1 = auth.issue();
            let t2 = auth.issue();
            let committer = {
                let auth = Arc::clone(&auth);
                std::thread::spawn(move || {
                    auth.acknowledge(t2);
                    auth.snapshot()
                })
            };
            while metrics.ts.visibility_waits.get() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(20));
            assert!(
                !committer.is_finished(),
                "t2 acknowledged with t1 in flight"
            );
            assert!(auth.snapshot() < t1);
            if t1_commits {
                auth.acknowledge(t1);
            } else {
                auth.retire(t1);
            }
            assert!(committer.join().unwrap() >= t2);
            assert!(auth.snapshot() >= t2);
            assert_eq!(metrics.ts.visibility_waits.get(), 1);
        }
    }

    #[test]
    fn an_uncontended_commit_never_waits() {
        let metrics = MetricsRegistry::new();
        let auth = TimestampAuthority::new(Arc::new(SimClock::new(1000)), metrics.clone());
        let t = auth.issue();
        auth.acknowledge(t);
        assert_eq!(auth.snapshot(), t);
        assert_eq!(metrics.ts.visibility_waits.get(), 0);
    }
}
