//! The incremental checker thread behind the [`EventTap`].
//!
//! State is a per-key fold of the committed history since arming:
//!
//! * `versions` — committed `(ts, value hash, tombstone)` triples,
//!   ascending, pruned to "newest at or below the watermark plus
//!   everything above it" (exactly what any live snapshot can observe);
//! * `intervals` — committed snapshot-isolation writers' `(snapshot,
//!   commit)` windows, kept until the watermark passes the commit so a
//!   late-arriving sibling commit can still be checked against them;
//! * `aborted` — value hashes of rolled-back writes (observing one is a
//!   dirty read), cleared on each watermark advance;
//! * `sessions` — per session, the newest of its commits and snapshots
//!   so far, dropped once the watermark passes it.
//!
//! Every rule errs on the side of *no false alarms*: reads that land
//! where the checker has no committed knowledge (pre-arm rows, pruned
//! history, anything after a ring overflow) count as `unverifiable`, not
//! violations. First-committer-wins overlaps are the exception — they
//! are positive evidence of two commits in the same window and stay
//! violations even in degraded mode.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use immortaldb_common::Timestamp;
use immortaldb_obs::MetricsRegistry;
use parking_lot::Mutex;

use crate::{EventTap, Op, TxnEvent};

/// What went wrong, in checker terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A snapshot/AS OF read observed something other than the newest
    /// committed version at or below its snapshot.
    SnapshotRead,
    /// A transaction failed to observe its own earlier write.
    OwnWrite,
    /// Two committed writers of the same key with overlapping
    /// `(snapshot, commit)` windows — first-committer-wins broken.
    FirstCommitterWins,
    /// A read observed a value hash recorded by a rolled-back write.
    DirtyRead,
    /// A snapshot transaction's snapshot is below its session's previous
    /// commit or previous snapshot (the session axiom of timestamp-based
    /// SI, arXiv 2504.01477).
    Session,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ViolationKind::SnapshotRead => "snapshot-read",
            ViolationKind::OwnWrite => "own-write",
            ViolationKind::FirstCommitterWins => "first-committer-wins",
            ViolationKind::DirtyRead => "dirty-read",
            ViolationKind::Session => "session",
        })
    }
}

/// One confirmed isolation violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub kind: ViolationKind,
    /// Transaction the violating observation/commit belongs to.
    pub tid: u64,
    /// Key hash involved.
    pub key: u64,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] txn {} key {:#018x}: {}",
            self.kind, self.tid, self.key, self.detail
        )
    }
}

/// Final (or point-in-time) accounting of a sentinel run.
#[derive(Debug, Clone, Default)]
pub struct SentinelReport {
    /// Transaction events processed.
    pub events: u64,
    /// Events lost to ring overflow (from the tap's counter).
    pub dropped: u64,
    /// Individual reads validated against the version map.
    pub reads_checked: u64,
    /// Committed writer events folded into the version map.
    pub commits_checked: u64,
    /// Reads the checker had no committed knowledge to judge.
    pub unverifiable: u64,
    /// Total violations found (the list below is capped).
    pub violation_count: u64,
    /// First violations, capped at [`MAX_VIOLATIONS`].
    pub violations: Vec<Violation>,
    /// True once any event was dropped: read mismatches after that point
    /// are reported as unverifiable, not violations.
    pub degraded: bool,
}

/// Cap on retained violation details (the counter keeps exact totals).
pub const MAX_VIOLATIONS: usize = 64;

/// Bound on remembered aborted-write hashes per key between prunes.
const MAX_ABORTED_PER_KEY: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Version {
    ts: Timestamp,
    value: u64,
    tombstone: bool,
}

#[derive(Debug, Default)]
struct KeyState {
    /// Committed versions, ascending by timestamp.
    versions: Vec<Version>,
    /// Committed SI writers' (snapshot, commit) windows.
    intervals: Vec<(Timestamp, Timestamp)>,
    /// Rolled-back write hashes (dirty-read bait).
    aborted: Vec<u64>,
}

impl KeyState {
    /// Newest committed version at or below `snapshot`.
    fn visible_at(&self, snapshot: Timestamp) -> Option<Version> {
        self.versions
            .iter()
            .rev()
            .find(|v| v.ts <= snapshot)
            .copied()
    }

    fn insert_version(&mut self, v: Version) {
        // Commit events arrive near timestamp order but not exactly (the
        // push precedes retire, and siblings race); insert sorted.
        let at = self.versions.partition_point(|x| x.ts <= v.ts);
        self.versions.insert(at, v);
    }
}

/// The checker core, separable from the thread for unit tests.
#[derive(Default)]
pub struct Checker {
    keys: HashMap<u64, KeyState>,
    /// Per session: the newest of its previous commits and snapshots.
    sessions: HashMap<u64, Timestamp>,
    report: SentinelReport,
}

impl Checker {
    pub fn new() -> Checker {
        Checker::default()
    }

    fn violation(&mut self, kind: ViolationKind, tid: u64, key: u64, detail: String) {
        self.report.violation_count += 1;
        if self.report.violations.len() < MAX_VIOLATIONS {
            self.report.violations.push(Violation {
                kind,
                tid,
                key,
                detail,
            });
        }
    }

    /// Fold one transaction event into the state, checking as we go.
    pub fn process(&mut self, event: &TxnEvent) {
        self.report.events += 1;
        self.check_session(event);

        // 1. Validate reads in execution order (snapshot/AS OF readers
        // only; serializable transactions read the locked current state,
        // which the snapshot argument says nothing about). Rolled-back
        // readers still took real snapshot reads, so they are checked
        // identically.
        if event.si {
            self.check_reads(event);
        }

        match (event.commit, event.aborted) {
            (Some(ts), false) => self.apply_commit(event, ts),
            _ if event.aborted => self.apply_abort(event),
            _ => {} // read-only commit: nothing to fold
        }
    }

    /// The session rule: what a session committed or read at is never
    /// out of sight of its next snapshot.
    fn check_session(&mut self, event: &TxnEvent) {
        if event.session == 0 {
            return;
        }
        let prev = self.sessions.entry(event.session).or_default();
        let seen = *prev;
        if event.si {
            *prev = (*prev).max(event.snapshot);
        }
        if let Some(ts) = event.commit {
            *prev = (*prev).max(ts);
        }
        if event.si && event.snapshot < seen {
            let s = event.snapshot;
            self.violation(
                ViolationKind::Session,
                event.tid,
                0,
                format!(
                    "snapshot {}.{} of session {} is below its previous commit or snapshot {}.{}",
                    s.ttime, s.sn, event.session, seen.ttime, seen.sn
                ),
            );
        }
    }

    fn check_reads(&mut self, event: &TxnEvent) {
        let mut own: HashMap<u64, Option<u64>> = HashMap::new(); // None = deleted
        for op in &event.ops {
            match *op {
                Op::Write { key, value } => {
                    own.insert(key, Some(value));
                }
                Op::Delete { key } => {
                    own.insert(key, None);
                }
                Op::Read { key, value } => {
                    if let Some(own_state) = own.get(&key) {
                        self.report.reads_checked += 1;
                        match own_state {
                            Some(v) if *v == value => {}
                            Some(_) => self.violation(
                                ViolationKind::OwnWrite,
                                event.tid,
                                key,
                                "read returned a different value than the \
                                 transaction's own latest write"
                                    .into(),
                            ),
                            None => self.violation(
                                ViolationKind::OwnWrite,
                                event.tid,
                                key,
                                "read returned a row the transaction itself deleted".into(),
                            ),
                        }
                        continue;
                    }
                    let snapshot = event.snapshot;
                    let (visible, dirty) = match self.keys.get(&key) {
                        Some(ks) => (ks.visible_at(snapshot), ks.aborted.contains(&value)),
                        None => (None, false),
                    };
                    if dirty {
                        // Positive evidence regardless of degraded mode:
                        // that exact hash was recorded by a rollback.
                        self.report.reads_checked += 1;
                        self.violation(
                            ViolationKind::DirtyRead,
                            event.tid,
                            key,
                            "observed value hash matches a rolled-back write".into(),
                        );
                        continue;
                    }
                    match visible {
                        Some(v) if !v.tombstone && v.value == value => {
                            self.report.reads_checked += 1;
                        }
                        Some(v) => {
                            if self.report.degraded {
                                self.report.unverifiable += 1;
                            } else {
                                self.report.reads_checked += 1;
                                let what = if v.tombstone {
                                    "a row its snapshot says was deleted"
                                } else {
                                    "a value other than the newest committed \
                                     version at its snapshot"
                                };
                                self.violation(
                                    ViolationKind::SnapshotRead,
                                    event.tid,
                                    key,
                                    format!(
                                        "snapshot {}.{} observed {what} (expected ts {}.{})",
                                        snapshot.ttime, snapshot.sn, v.ts.ttime, v.ts.sn
                                    ),
                                );
                            }
                        }
                        // No committed knowledge at or below the
                        // snapshot: pre-arm data or pruned history.
                        None => self.report.unverifiable += 1,
                    }
                }
                Op::ReadMiss { key } => {
                    if let Some(own_state) = own.get(&key) {
                        self.report.reads_checked += 1;
                        if own_state.is_some() {
                            self.violation(
                                ViolationKind::OwnWrite,
                                event.tid,
                                key,
                                "read missed a row the transaction itself wrote".into(),
                            );
                        }
                        continue;
                    }
                    match self
                        .keys
                        .get(&key)
                        .and_then(|ks| ks.visible_at(event.snapshot))
                    {
                        Some(v) if v.tombstone => self.report.reads_checked += 1,
                        Some(v) => {
                            if self.report.degraded {
                                self.report.unverifiable += 1;
                            } else {
                                self.report.reads_checked += 1;
                                self.violation(
                                    ViolationKind::SnapshotRead,
                                    event.tid,
                                    key,
                                    format!(
                                        "read missed the version committed at {}.{} \
                                         below its snapshot",
                                        v.ts.ttime, v.ts.sn
                                    ),
                                );
                            }
                        }
                        // Nothing known at or below the snapshot: a miss
                        // is the consistent outcome for every post-arm
                        // history we have seen (pre-arm rows would make
                        // it wrong, but that is unknowable — accept).
                        None => self.report.reads_checked += 1,
                    }
                }
            }
        }
    }

    fn apply_commit(&mut self, event: &TxnEvent, commit: Timestamp) {
        // Final write per key wins (the version visible at ts >= commit).
        let mut finals: HashMap<u64, Option<u64>> = HashMap::new();
        let mut wrote_any = false;
        for op in &event.ops {
            match *op {
                Op::Write { key, value } => {
                    finals.insert(key, Some(value));
                    wrote_any = true;
                }
                Op::Delete { key } => {
                    finals.insert(key, None);
                    wrote_any = true;
                }
                _ => {}
            }
        }
        if wrote_any {
            self.report.commits_checked += 1;
        }
        for (key, value) in finals {
            let mut fcw: Vec<String> = Vec::new();
            {
                let ks = self.keys.entry(key).or_default();
                // First-committer-wins, both arrival orders. (a) An
                // earlier processed commit whose timestamp falls inside
                // this SI writer's window: this writer read a snapshot, a
                // sibling committed the same key after it, and this
                // writer committed anyway.
                if event.si {
                    if let Some(v) = ks
                        .versions
                        .iter()
                        .find(|v| v.ts > event.snapshot && v.ts < commit)
                    {
                        fcw.push(format!(
                            "foreign commit {}.{} inside ({}.{}, {}.{})",
                            v.ts.ttime,
                            v.ts.sn,
                            event.snapshot.ttime,
                            event.snapshot.sn,
                            commit.ttime,
                            commit.sn
                        ));
                    }
                }
                // (b) This commit lands inside an already-recorded SI
                // writer's window (the sibling's event arrived first).
                if let Some((s0, c0)) = ks
                    .intervals
                    .iter()
                    .find(|(s0, c0)| commit > *s0 && commit < *c0)
                    .copied()
                {
                    fcw.push(format!(
                        "commit {}.{} inside a sibling SI writer's window ({}.{}, {}.{})",
                        commit.ttime, commit.sn, s0.ttime, s0.sn, c0.ttime, c0.sn
                    ));
                }
                if event.si {
                    ks.intervals.push((event.snapshot, commit));
                }
                ks.insert_version(Version {
                    ts: commit,
                    value: value.unwrap_or(0),
                    tombstone: value.is_none(),
                });
            }
            for detail in fcw {
                self.violation(ViolationKind::FirstCommitterWins, event.tid, key, detail);
            }
        }
    }

    fn apply_abort(&mut self, event: &TxnEvent) {
        for op in &event.ops {
            if let Op::Write { key, value } = *op {
                let ks = self.keys.entry(key).or_default();
                if ks.aborted.len() < MAX_ABORTED_PER_KEY {
                    ks.aborted.push(value);
                }
            }
        }
    }

    /// Drop state no live snapshot can observe: everything strictly below
    /// the newest version at or below `watermark`, SI windows that closed
    /// below it, and remembered aborted hashes (their concurrent readers
    /// are gone once the watermark passed them).
    pub fn prune(&mut self, watermark: Timestamp) {
        if watermark == Timestamp::ZERO {
            return;
        }
        self.keys.retain(|_, ks| {
            if let Some(keep_from) = ks.versions.iter().rposition(|v| v.ts <= watermark) {
                ks.versions.drain(..keep_from);
            }
            ks.intervals.retain(|(_, c)| *c > watermark);
            ks.aborted.clear();
            !ks.versions.is_empty() || !ks.intervals.is_empty()
        });
        // A session whose newest commit and snapshot are at or below the
        // watermark cannot begin a snapshot below them any more.
        self.sessions.retain(|_, last| *last > watermark);
    }

    /// Note that the tap dropped events: the committed-version map may be
    /// missing history, so read mismatches stop being provable.
    pub fn mark_degraded(&mut self, dropped: u64) {
        self.report.dropped = dropped;
        if dropped > 0 {
            self.report.degraded = true;
        }
    }

    pub fn report(&self) -> SentinelReport {
        self.report.clone()
    }

    /// Number of keys currently tracked (state-bound tests).
    pub fn tracked_keys(&self) -> usize {
        self.keys.len()
    }
}

// ---------------------------------------------------------------------
// The sentinel thread
// ---------------------------------------------------------------------

struct Inner {
    tap: Arc<EventTap>,
    checker: Mutex<Checker>,
    stop: std::sync::atomic::AtomicBool,
}

/// Handle to a running sentinel. Spawn with [`Sentinel::spawn`]; call
/// [`Sentinel::stop`] to drain the ring and collect the final report, or
/// [`Sentinel::report`] for a live snapshot while it keeps running.
pub struct Sentinel {
    inner: Arc<Inner>,
    handle: Option<JoinHandle<()>>,
}

impl Sentinel {
    /// Start the checker thread over `tap`, mirroring progress into the
    /// `check.*` instruments of `metrics`.
    pub fn spawn(tap: Arc<EventTap>, metrics: MetricsRegistry) -> Sentinel {
        let inner = Arc::new(Inner {
            tap,
            checker: Mutex::new(Checker::new()),
            stop: std::sync::atomic::AtomicBool::new(false),
        });
        let inner2 = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("imdb-sentinel".into())
            .spawn(move || run(&inner2, &metrics))
            .expect("spawn sentinel thread");
        Sentinel {
            inner,
            handle: Some(handle),
        }
    }

    /// Live snapshot of the report (the thread keeps running).
    pub fn report(&self) -> SentinelReport {
        let mut c = self.inner.checker.lock();
        c.mark_degraded(self.inner.tap.dropped());
        c.report()
    }

    /// Stop the thread, drain every remaining event, and return the
    /// final report.
    pub fn stop(mut self) -> SentinelReport {
        self.inner
            .stop
            .store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let mut c = self.inner.checker.lock();
        c.mark_degraded(self.inner.tap.dropped());
        c.report()
    }
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        self.inner
            .stop
            .store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn run(inner: &Inner, metrics: &MetricsRegistry) {
    // Pruning walks the whole key map, so it must be amortized over many
    // events: under trickle arrival (one commit per poll) a prune per
    // batch degenerates to a prune per event — O(events x keys) — which
    // on a loaded host costs more than the checking itself.
    const PRUNE_EVERY: usize = 4096;
    let mut since_prune = 0usize;
    loop {
        let stopping = inner.stop.load(std::sync::atomic::Ordering::SeqCst);
        let mut processed = 0usize;
        {
            let mut checker = inner.checker.lock();
            // Bounded batch per lock hold so report() never starves.
            while processed < 256 {
                match inner.tap.pop() {
                    Some(event) => {
                        checker.process(&event);
                        processed += 1;
                    }
                    None => break,
                }
            }
            if processed > 0 {
                since_prune += processed;
                if since_prune >= PRUNE_EVERY {
                    checker.prune(inner.tap.watermark());
                    since_prune = 0;
                }
                checker.mark_degraded(inner.tap.dropped());
                let r = &checker.report;
                metrics.check.events.add(processed as u64);
                metrics.check.violations_gauge.set(r.violation_count);
                metrics.check.reads_checked_gauge.set(r.reads_checked);
                metrics.check.commits_checked_gauge.set(r.commits_checked);
                metrics.check.unverifiable_gauge.set(r.unverifiable);
            }
            metrics.check.dropped_gauge.set(inner.tap.dropped());
            metrics.check.backlog.set(inner.tap.backlog() as u64);
        }
        if processed == 0 {
            if stopping {
                return;
            }
            // Plain sleep, never a yield loop: yielding on a loaded
            // single-core host re-runs the checker immediately and taxes
            // the threads doing real work; 0.5 ms of check latency is
            // irrelevant for an online monitor.
            std::thread::sleep(Duration::from_micros(500));
        } else if since_prune >= PRUNE_EVERY / 4 && inner.tap.backlog() == 0 {
            // Caught up: take the map walk now, off the hot path.
            inner.checker.lock().prune(inner.tap.watermark());
            since_prune = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64, sn: u32) -> Timestamp {
        Timestamp::new(t, sn)
    }

    fn commit_write(
        tid: u64,
        snap: Timestamp,
        commit: Timestamp,
        key: u64,
        value: u64,
    ) -> TxnEvent {
        TxnEvent {
            tid,
            session: 0,
            si: true,
            snapshot: snap,
            commit: Some(commit),
            aborted: false,
            ops: vec![Op::Write { key, value }],
        }
    }

    fn reader(tid: u64, snap: Timestamp, ops: Vec<Op>) -> TxnEvent {
        TxnEvent {
            tid,
            session: 0,
            si: true,
            snapshot: snap,
            commit: None,
            aborted: false,
            ops,
        }
    }

    #[test]
    fn clean_history_passes() {
        let mut c = Checker::new();
        c.process(&commit_write(1, ts(0, 0), ts(20, 0), 7, 100));
        c.process(&commit_write(2, ts(20, 0), ts(40, 0), 7, 200));
        // Reader at 20 sees version 100; reader at 40 sees 200.
        c.process(&reader(3, ts(20, 0), vec![Op::Read { key: 7, value: 100 }]));
        c.process(&reader(4, ts(40, 0), vec![Op::Read { key: 7, value: 200 }]));
        let r = c.report();
        assert_eq!(r.violation_count, 0, "{:?}", r.violations);
        assert_eq!(r.reads_checked, 2);
        assert_eq!(r.commits_checked, 2);
    }

    #[test]
    fn stale_read_is_flagged() {
        let mut c = Checker::new();
        c.process(&commit_write(1, ts(0, 0), ts(20, 0), 7, 100));
        c.process(&commit_write(2, ts(20, 0), ts(40, 0), 7, 200));
        // Snapshot 40 must see 200, observed 100.
        c.process(&reader(3, ts(40, 0), vec![Op::Read { key: 7, value: 100 }]));
        let r = c.report();
        assert_eq!(r.violation_count, 1);
        assert_eq!(r.violations[0].kind, ViolationKind::SnapshotRead);
    }

    #[test]
    fn missed_row_is_flagged() {
        let mut c = Checker::new();
        c.process(&commit_write(1, ts(0, 0), ts(20, 0), 7, 100));
        c.process(&reader(2, ts(20, 0), vec![Op::ReadMiss { key: 7 }]));
        let r = c.report();
        assert_eq!(r.violation_count, 1);
        assert_eq!(r.violations[0].kind, ViolationKind::SnapshotRead);
    }

    #[test]
    fn tombstones_make_misses_legal() {
        let mut c = Checker::new();
        c.process(&commit_write(1, ts(0, 0), ts(20, 0), 7, 100));
        c.process(&TxnEvent {
            tid: 2,
            session: 0,
            si: true,
            snapshot: ts(20, 0),
            commit: Some(ts(40, 0)),
            aborted: false,
            ops: vec![Op::Delete { key: 7 }],
        });
        c.process(&reader(3, ts(40, 0), vec![Op::ReadMiss { key: 7 }]));
        c.process(&reader(4, ts(20, 0), vec![Op::Read { key: 7, value: 100 }]));
        let r = c.report();
        assert_eq!(r.violation_count, 0, "{:?}", r.violations);
    }

    #[test]
    fn fcw_overlap_detected_in_both_arrival_orders() {
        // W1 (snap 0, commit 20) and W2 (snap 0, commit 40) both write
        // key 7 and both commit: W2's window contains W1's commit.
        let mut c = Checker::new();
        c.process(&commit_write(1, ts(0, 0), ts(20, 0), 7, 100));
        c.process(&commit_write(2, ts(0, 0), ts(40, 0), 7, 200));
        assert_eq!(c.report().violation_count, 1);
        assert_eq!(
            c.report().violations[0].kind,
            ViolationKind::FirstCommitterWins
        );

        // Reverse arrival: the later-committing writer's event first.
        let mut c = Checker::new();
        c.process(&commit_write(2, ts(0, 0), ts(40, 0), 7, 200));
        c.process(&commit_write(1, ts(0, 0), ts(20, 0), 7, 100));
        assert_eq!(c.report().violation_count, 1);
        assert_eq!(
            c.report().violations[0].kind,
            ViolationKind::FirstCommitterWins
        );
    }

    #[test]
    fn serial_si_writers_do_not_trip_fcw() {
        let mut c = Checker::new();
        c.process(&commit_write(1, ts(0, 0), ts(20, 0), 7, 100));
        c.process(&commit_write(2, ts(20, 0), ts(40, 0), 7, 200));
        c.process(&commit_write(3, ts(40, 0), ts(60, 0), 7, 300));
        assert_eq!(c.report().violation_count, 0);
    }

    #[test]
    fn own_writes_must_be_visible() {
        let mut c = Checker::new();
        c.process(&reader(
            1,
            ts(0, 0),
            vec![
                Op::Write { key: 7, value: 50 },
                Op::Read { key: 7, value: 50 },  // ok
                Op::Read { key: 7, value: 999 }, // wrong
            ],
        ));
        let r = c.report();
        assert_eq!(r.violation_count, 1);
        assert_eq!(r.violations[0].kind, ViolationKind::OwnWrite);
    }

    #[test]
    fn dirty_read_of_aborted_write_detected() {
        let mut c = Checker::new();
        c.process(&TxnEvent {
            tid: 1,
            session: 0,
            si: true,
            snapshot: ts(0, 0),
            commit: None,
            aborted: true,
            ops: vec![Op::Write { key: 7, value: 666 }],
        });
        c.process(&reader(2, ts(20, 0), vec![Op::Read { key: 7, value: 666 }]));
        let r = c.report();
        assert_eq!(r.violation_count, 1);
        assert_eq!(r.violations[0].kind, ViolationKind::DirtyRead);
    }

    #[test]
    fn pre_arm_reads_are_unverifiable_not_violations() {
        let mut c = Checker::new();
        // No commit knowledge for key 7 at all: observed value can't be
        // judged.
        c.process(&reader(1, ts(20, 0), vec![Op::Read { key: 7, value: 42 }]));
        // Knowledge exists but only above the snapshot.
        c.process(&commit_write(2, ts(20, 0), ts(40, 0), 9, 100));
        c.process(&reader(3, ts(20, 0), vec![Op::Read { key: 9, value: 7 }]));
        let r = c.report();
        assert_eq!(r.violation_count, 0, "{:?}", r.violations);
        assert_eq!(r.unverifiable, 2);
    }

    #[test]
    fn degraded_mode_downgrades_mismatches_but_not_fcw() {
        let mut c = Checker::new();
        c.mark_degraded(3);
        c.process(&commit_write(1, ts(0, 0), ts(20, 0), 7, 100));
        c.process(&reader(2, ts(20, 0), vec![Op::Read { key: 7, value: 999 }]));
        let r = c.report();
        assert_eq!(r.violation_count, 0);
        assert_eq!(r.unverifiable, 1);
        assert!(r.degraded);
        // FCW is positive evidence and survives degraded mode.
        c.process(&commit_write(3, ts(0, 0), ts(40, 0), 7, 200));
        assert_eq!(c.report().violation_count, 1);
    }

    #[test]
    fn prune_keeps_exactly_what_live_snapshots_can_see() {
        let mut c = Checker::new();
        for i in 1..=5u64 {
            c.process(&commit_write(
                i,
                ts(20 * (i - 1), 0),
                ts(20 * i, 0),
                7,
                i * 100,
            ));
        }
        c.prune(ts(60, 0));
        // Versions at 60 (newest <= watermark), 80, 100 survive.
        let ks = &c.keys[&7];
        assert_eq!(ks.versions.len(), 3);
        assert_eq!(ks.versions[0].ts, ts(60, 0));
        // A reader at the watermark still validates.
        c.process(&reader(9, ts(60, 0), vec![Op::Read { key: 7, value: 300 }]));
        assert_eq!(c.report().violation_count, 0);
        // Reads below the watermark degrade to unverifiable, never false
        // violations.
        c.process(&reader(
            10,
            ts(40, 0),
            vec![Op::Read { key: 7, value: 200 }],
        ));
        let r = c.report();
        assert_eq!(r.violation_count, 0);
        assert_eq!(r.unverifiable, 1);
        // Fully-pruned keys disappear.
        c.prune(ts(200, 0));
        assert_eq!(c.tracked_keys(), 1); // newest version is always kept
    }

    #[test]
    fn a_snapshot_behind_its_own_session_is_flagged() {
        let in_session = |session: u64, mut e: TxnEvent| {
            e.session = session;
            e
        };
        let mut c = Checker::new();
        // Session 1 commits at 40 (serializable autocommit), then begins a
        // snapshot at 20: below its own acknowledged commit.
        let mut autocommit = commit_write(1, ts(0, 0), ts(40, 0), 7, 100);
        autocommit.si = false;
        c.process(&in_session(1, autocommit));
        c.process(&in_session(
            1,
            reader(2, ts(20, 0), vec![Op::ReadMiss { key: 7 }]),
        ));
        let r = c.report();
        assert_eq!(r.violation_count, 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].kind, ViolationKind::Session);
        // Snapshots run forwards within a session too.
        c.process(&in_session(3, reader(3, ts(60, 0), vec![])));
        c.process(&in_session(3, reader(4, ts(40, 0), vec![])));
        assert_eq!(c.report().violation_count, 2);
        // Another session, or none, may read wherever its snapshot lies.
        c.process(&in_session(2, reader(5, ts(20, 0), vec![])));
        c.process(&reader(6, ts(20, 0), vec![]));
        assert_eq!(c.report().violation_count, 2);
        // A session that keeps up passes, and the watermark forgets it.
        c.process(&in_session(4, commit_write(7, ts(40, 0), ts(80, 0), 9, 1)));
        c.process(&in_session(4, reader(8, ts(80, 0), vec![])));
        assert_eq!(c.report().violation_count, 2);
        c.prune(ts(80, 0));
        assert!(c.sessions.is_empty());
    }

    #[test]
    fn sentinel_thread_end_to_end() {
        let tap = EventTap::new(1024);
        let metrics = MetricsRegistry::new();
        let s = Sentinel::spawn(Arc::clone(&tap), metrics.clone());
        tap.push(commit_write(1, ts(0, 0), ts(20, 0), 7, 100));
        tap.push(reader(2, ts(20, 0), vec![Op::Read { key: 7, value: 100 }]));
        tap.push(reader(3, ts(20, 0), vec![Op::Read { key: 7, value: 42 }]));
        let r = s.stop();
        assert_eq!(r.events, 3);
        assert_eq!(r.violation_count, 1);
        assert_eq!(metrics.check.events.get(), 3);
        assert_eq!(metrics.check.violations_gauge.get(), 1);
    }
}
