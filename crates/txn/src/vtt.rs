//! The volatile timestamp table (VTT, §2.2).
//!
//! An in-memory hash table `TID → (state, RefCount, stable LSN)`. It
//! caches the recent — and hence likely to be used — entries of the
//! persistent table, and carries the *volatile reference counts*: how many
//! record versions of each transaction still hold a TID instead of a
//! timestamp. When a count reaches zero the current end-of-log LSN is
//! recorded; once a checkpoint pushes the redo-scan-start past that LSN,
//! every stamped page is provably on disk and the transaction's PTT entry
//! can be garbage collected — all without ever logging the stamping.

use std::collections::HashMap;

use parking_lot::Mutex;

use immortaldb_common::{Lsn, Tid, Timestamp};

/// Lifecycle state of a transaction as the VTT sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Stage I–III: running; its versions are invisible to others.
    Active,
    /// Committed with this timestamp; TID-marked versions resolve to it.
    Committed(Timestamp),
    /// Rolled back; its versions are being (or have been) popped.
    Aborted,
}

#[derive(Debug, Clone)]
struct VttEntry {
    state: TxnState,
    /// Number of record versions still TID-marked. `None` = "undefined":
    /// the entry was cached back from the PTT after the counter was lost
    /// (e.g. across a crash), so the PTT entry must be kept.
    refcount: Option<u64>,
    /// End-of-log LSN at the moment refcount hit zero.
    stable_lsn: Option<Lsn>,
    /// Whether a PTT entry exists (immortal-table writers only; snapshot
    /// transactions keep their timestamp in the VTT alone).
    in_ptt: bool,
}

/// The volatile timestamp table.
#[derive(Default)]
pub struct Vtt {
    entries: Mutex<HashMap<Tid, VttEntry>>,
}

impl Vtt {
    pub fn new() -> Vtt {
        Vtt::default()
    }

    /// Stage I: transaction begin.
    pub fn begin(&self, tid: Tid) {
        self.entries.lock().insert(
            tid,
            VttEntry {
                state: TxnState::Active,
                refcount: Some(0),
                stable_lsn: None,
                in_ptt: false,
            },
        );
    }

    /// Stage II: a version was marked with the TID.
    pub fn add_pending(&self, tid: Tid, n: u64) {
        let mut entries = self.entries.lock();
        if let Some(e) = entries.get_mut(&tid) {
            if let Some(rc) = e.refcount.as_mut() {
                *rc += n;
            }
        }
    }

    /// A version was popped during rollback before it was ever stamped.
    pub fn sub_pending(&self, tid: Tid, n: u64) {
        let mut entries = self.entries.lock();
        if let Some(e) = entries.get_mut(&tid) {
            if let Some(rc) = e.refcount.as_mut() {
                *rc = rc.saturating_sub(n);
            }
        }
    }

    /// Stage III: commit. `in_ptt` says whether a persistent entry was
    /// written (immortal tables). If the refcount is already zero (e.g. a
    /// read-only or snapshot transaction), the stable LSN is set at once.
    pub fn commit(&self, tid: Tid, ts: Timestamp, in_ptt: bool, end_lsn: Lsn) {
        let mut entries = self.entries.lock();
        let e = entries.entry(tid).or_insert(VttEntry {
            state: TxnState::Active,
            refcount: Some(0),
            stable_lsn: None,
            in_ptt,
        });
        e.state = TxnState::Committed(ts);
        e.in_ptt = in_ptt;
        if e.refcount == Some(0) {
            e.stable_lsn = Some(end_lsn);
        }
    }

    pub fn abort(&self, tid: Tid) {
        if let Some(e) = self.entries.lock().get_mut(&tid) {
            e.state = TxnState::Aborted;
        }
    }

    /// Remove an aborted transaction's entry once rollback completed.
    pub fn remove(&self, tid: Tid) {
        self.entries.lock().remove(&tid);
    }

    pub fn state(&self, tid: Tid) -> Option<TxnState> {
        self.entries.lock().get(&tid).map(|e| e.state)
    }

    /// Fast-path resolution. `None` = no entry (consult the PTT);
    /// `Some(None)` = known active/aborted (not committed);
    /// `Some(Some(ts))` = committed.
    pub fn resolve(&self, tid: Tid) -> Option<Option<Timestamp>> {
        self.entries.lock().get(&tid).map(|e| match e.state {
            TxnState::Committed(ts) => Some(ts),
            _ => None,
        })
    }

    /// Cache a PTT hit back into the VTT with an *undefined* refcount so
    /// its PTT entry is never garbage collected (we cannot know how many
    /// TID-marked versions remain).
    pub fn cache_from_ptt(&self, tid: Tid, ts: Timestamp) {
        self.entries.lock().entry(tid).or_insert(VttEntry {
            state: TxnState::Committed(ts),
            refcount: None,
            stable_lsn: None,
            in_ptt: true,
        });
    }

    /// Stage IV bookkeeping: `n` versions of `tid` were just stamped.
    /// `end_lsn` is the current end of log, recorded when the count hits
    /// zero.
    pub fn note_stamped(&self, tid: Tid, n: u64, end_lsn: Lsn) {
        let mut entries = self.entries.lock();
        if let Some(e) = entries.get_mut(&tid) {
            if let Some(rc) = e.refcount.as_mut() {
                *rc = rc.saturating_sub(n);
                if *rc == 0 && e.stable_lsn.is_none() {
                    e.stable_lsn = Some(end_lsn);
                }
            }
        }
    }

    /// Transactions whose timestamping is complete *and* provably durable:
    /// refcount zero and stable LSN at or before the redo-scan-start.
    /// (`stable_lsn` is the end-of-log position when the count hit zero —
    /// the LSN the *next* record would get — so equality means stamping
    /// completed before the record at `redo_scan_start` existed, and the
    /// checkpoint that produced that scan-start has flushed the stamped
    /// pages.) Returns `(tid, had PTT entry)` pairs in TID order, so the
    /// PTT deletes the caller logs do not follow hash order; the caller
    /// deletes the PTT rows and then calls [`Self::remove`].
    pub fn gc_candidates(&self, redo_scan_start: Lsn) -> Vec<(Tid, bool)> {
        let mut out: Vec<(Tid, bool)> = self
            .entries
            .lock()
            .iter()
            .filter(|(_, e)| {
                matches!(e.state, TxnState::Committed(_))
                    && e.refcount == Some(0)
                    && e.stable_lsn.map(|l| l <= redo_scan_start).unwrap_or(false)
            })
            .map(|(tid, e)| (*tid, e.in_ptt))
            .collect();
        out.sort_unstable();
        out
    }

    /// Snapshot transactions can be dropped as soon as their count hits
    /// zero (no PTT entry, no crash-survival requirement). Returns the
    /// dropped TIDs.
    pub fn drop_completed_snapshot_entries(&self) -> Vec<Tid> {
        let mut entries = self.entries.lock();
        let victims: Vec<Tid> = entries
            .iter()
            .filter(|(_, e)| {
                matches!(e.state, TxnState::Committed(_)) && !e.in_ptt && e.refcount == Some(0)
            })
            .map(|(t, _)| *t)
            .collect();
        for t in &victims {
            entries.remove(t);
        }
        victims
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Remaining unstamped versions for `tid` (tests / metrics).
    pub fn pending(&self, tid: Tid) -> Option<u64> {
        self.entries.lock().get(&tid).and_then(|e| e.refcount)
    }

    /// Whether `tid`'s entry was cached back from the PTT (undefined
    /// refcount). True exactly for transactions whose volatile state was
    /// lost in a crash — stamping one of their versions is post-crash
    /// timestamp *repair*.
    pub fn is_ptt_cached(&self, tid: Tid) -> bool {
        self.entries
            .lock()
            .get(&tid)
            .map(|e| e.refcount.is_none())
            .unwrap_or(false)
    }
}

impl Vtt {
    /// Test-only: debug dump of one entry.
    #[doc(hidden)]
    pub fn debug_entry(&self, tid: Tid) -> String {
        format!("{:?}", self.entries.lock().get(&tid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64) -> Timestamp {
        Timestamp::new(t * 20, 0)
    }

    #[test]
    fn lifecycle_active_commit_resolve() {
        let vtt = Vtt::new();
        vtt.begin(Tid(1));
        assert_eq!(vtt.resolve(Tid(1)), Some(None)); // known, not committed
        assert_eq!(vtt.resolve(Tid(2)), None); // unknown -> PTT
        vtt.add_pending(Tid(1), 3);
        vtt.commit(Tid(1), ts(5), true, Lsn(100));
        assert_eq!(vtt.resolve(Tid(1)), Some(Some(ts(5))));
        assert_eq!(vtt.pending(Tid(1)), Some(3));
    }

    #[test]
    fn refcount_reaches_zero_records_stable_lsn() {
        let vtt = Vtt::new();
        vtt.begin(Tid(1));
        vtt.add_pending(Tid(1), 2);
        vtt.commit(Tid(1), ts(5), true, Lsn(100));
        vtt.note_stamped(Tid(1), 1, Lsn(200));
        assert!(
            vtt.gc_candidates(Lsn(10_000)).is_empty(),
            "count not yet zero"
        );
        vtt.note_stamped(Tid(1), 1, Lsn(300));
        // Stable at end-of-log 300: GC-able once the redo scan start
        // reaches it (equality = nothing logged since stamping finished).
        assert!(vtt.gc_candidates(Lsn(299)).is_empty());
        assert_eq!(vtt.gc_candidates(Lsn(300)), vec![(Tid(1), true)]);
    }

    #[test]
    fn zero_write_commit_is_immediately_stable() {
        let vtt = Vtt::new();
        vtt.begin(Tid(1));
        vtt.commit(Tid(1), ts(5), true, Lsn(50));
        assert_eq!(vtt.gc_candidates(Lsn(51)), vec![(Tid(1), true)]);
    }

    #[test]
    fn ptt_cached_entries_are_never_gc_candidates() {
        let vtt = Vtt::new();
        vtt.cache_from_ptt(Tid(7), ts(3));
        assert_eq!(vtt.resolve(Tid(7)), Some(Some(ts(3))));
        // Undefined refcount -> never collected.
        vtt.note_stamped(Tid(7), 100, Lsn(1));
        assert!(vtt.gc_candidates(Lsn(u64::MAX)).is_empty());
    }

    #[test]
    fn snapshot_entries_drop_at_zero() {
        let vtt = Vtt::new();
        vtt.begin(Tid(1));
        vtt.add_pending(Tid(1), 1);
        vtt.commit(Tid(1), ts(5), false, Lsn(10)); // snapshot: no PTT
        assert!(vtt.drop_completed_snapshot_entries().is_empty());
        vtt.note_stamped(Tid(1), 1, Lsn(20));
        assert_eq!(vtt.drop_completed_snapshot_entries(), vec![Tid(1)]);
        assert_eq!(vtt.resolve(Tid(1)), None);
    }

    #[test]
    fn abort_state_and_removal() {
        let vtt = Vtt::new();
        vtt.begin(Tid(1));
        vtt.abort(Tid(1));
        assert_eq!(vtt.state(Tid(1)), Some(TxnState::Aborted));
        assert_eq!(vtt.resolve(Tid(1)), Some(None));
        vtt.remove(Tid(1));
        assert_eq!(vtt.state(Tid(1)), None);
    }

    #[test]
    fn rollback_pending_adjustment() {
        let vtt = Vtt::new();
        vtt.begin(Tid(1));
        vtt.add_pending(Tid(1), 5);
        vtt.sub_pending(Tid(1), 2);
        assert_eq!(vtt.pending(Tid(1)), Some(3));
    }
}
