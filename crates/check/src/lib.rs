//! Always-on streaming isolation sentinel.
//!
//! This crate checks snapshot isolation *online*, while the engine serves
//! traffic — the approach of "Online Timestamp-based Transactional
//! Isolation Checking" (PAPERS.md, arXiv 2504.01477). The engine already
//! exposes everything the check needs: begin snapshots, commit
//! timestamps, and the bytes each operation read or wrote. Its rule
//! engine, [`sentinel::Checker`], is also the only offline checker: a
//! test that logged a run replays it as [`TxnEvent`]s through the same
//! `Checker` (`immortaldb_chaos::replay`).
//!
//! Two halves:
//!
//! * [`EventTap`] — a lock-free bounded MPSC ring the engine's commit and
//!   rollback paths push one [`TxnEvent`] into per finished transaction.
//!   Pushing never blocks and never allocates beyond the event itself;
//!   when the ring is full the event is *dropped and counted* rather than
//!   stalling the hot path.
//! * [`Sentinel`] — a consumer thread that folds the event stream into
//!   per-key committed-version state and verifies, incrementally:
//!   snapshot-read consistency (every snapshot/AS OF read observed its
//!   own latest write, else the newest committed version at or below its
//!   snapshot), first-committer-wins (no foreign commit lands inside a
//!   committed snapshot writer's `(snapshot, commit)` window for a key it
//!   wrote), no dirty reads (an observed value hash matching a rolled
//!   back write is flagged), and the session rule (a snapshot never runs
//!   behind its session's previous commit or snapshot).
//!
//! The ordering contract that makes online checking sound: the engine
//! pushes a writer's commit event *before* `TimestampAuthority::retire`
//! makes its timestamp visible. Any reader whose snapshot covers that commit
//! therefore sampled its snapshot after the push, and (because ring slots
//! are claimed with a single atomic ticket) enqueues its own event at a
//! later ring position — so the checker, consuming in ring order, always
//! knows every commit a read could have observed before it validates the
//! read.
//!
//! What the sentinel can NOT catch (see DESIGN.md §14): reads of state
//! written before the tap was armed (counted `unverifiable`, never
//! violations), anything after ring overflow (the checker *degrades* —
//! mismatches become `unverifiable` — because a dropped commit event
//! could explain them), and dirty reads whose reader finishes before the
//! aborting writer's rollback event is pushed.

pub mod sentinel;

pub use sentinel::{Sentinel, SentinelReport, Violation, ViolationKind};

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use immortaldb_common::Timestamp;
use parking_lot::Mutex;

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// One operation of a transaction, in execution order. Keys and values
/// are 64-bit FNV-1a hashes of the raw key / encoded-row bytes — the
/// checker compares identities, never contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A row version was written (insert or update): `value` hashes the
    /// encoded row bytes.
    Write { key: u64, value: u64 },
    /// A row was deleted (a tombstone version).
    Delete { key: u64 },
    /// A snapshot/AS OF read observed a row with this value hash.
    Read { key: u64, value: u64 },
    /// A snapshot/AS OF read observed no row for this key.
    ReadMiss { key: u64 },
}

impl Op {
    pub fn key(&self) -> u64 {
        match *self {
            Op::Write { key, .. }
            | Op::Delete { key }
            | Op::Read { key, .. }
            | Op::ReadMiss { key } => key,
        }
    }
}

/// Everything the checker needs to know about one finished transaction,
/// pushed exactly once at commit (before the commit timestamp becomes
/// visible) or rollback.
#[derive(Debug, Clone)]
pub struct TxnEvent {
    pub tid: u64,
    /// The session that ran it, 0 for none. A session's events reach the
    /// checker in the order it ran them.
    pub session: u64,
    /// True for snapshot-isolation and AS OF transactions: reads were
    /// taken against `snapshot` and are validated; writes participate in
    /// first-committer-wins. Serializable transactions read the *current*
    /// locked state, so only their committed writes feed the version map.
    pub si: bool,
    /// Begin snapshot (the AS OF timestamp for historical readers).
    pub snapshot: Timestamp,
    /// `Some(ts)` for a committed writer; `None` for read-only commits
    /// and aborts.
    pub commit: Option<Timestamp>,
    /// True when the transaction rolled back (its writes must never be
    /// observed by anyone).
    pub aborted: bool,
    pub ops: Vec<Op>,
}

// ---------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

#[inline]
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Identity hash of a row: the owning tree id plus the encoded key bytes.
#[inline]
pub fn hash_key(tree: u32, key: &[u8]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, &tree.to_le_bytes()), key)
}

/// Content hash of an encoded row image.
#[inline]
pub fn hash_value(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

// ---------------------------------------------------------------------
// The tap: a bounded lock-free MPSC ring
// ---------------------------------------------------------------------

struct Slot {
    /// Vyukov sequence: `pos` = free for ticket `pos`; `pos + 1` =
    /// published for ticket `pos`; `pos + capacity` = consumed, free for
    /// ticket `pos + capacity`.
    seq: AtomicUsize,
    value: UnsafeCell<Option<TxnEvent>>,
}

/// Lock-free bounded multi-producer single-consumer event ring, plus the
/// shared knobs the engine and the checker exchange out of band (drop
/// count, prune watermark, armed flag).
///
/// The producer side is wait-free apart from a bounded CAS loop; a full
/// ring drops the event and bumps [`EventTap::dropped`] instead of ever
/// blocking a commit.
pub struct EventTap {
    slots: Box<[Slot]>,
    mask: usize,
    /// Next ticket to claim (producers).
    tail: AtomicUsize,
    /// Next ticket to consume (single consumer; atomic only so backlog
    /// can be observed cheaply from other threads).
    head: AtomicUsize,
    dropped: AtomicU64,
    /// Oldest snapshot any in-flight transaction may still read;
    /// everything strictly older is safe to prune (the engine refreshes
    /// this from its snapshot/AS OF registries on the commit path).
    watermark: Mutex<Timestamp>,
}

// SAFETY: a slot's `UnsafeCell` is written only by the producer whose
// ticket claim owns it and read only by the single consumer after the
// slot's `seq` published it (`push`, `pop`).
unsafe impl Send for EventTap {}
// SAFETY: as for `Send`.
unsafe impl Sync for EventTap {}

impl EventTap {
    /// Create a tap with capacity rounded up to a power of two (min 64).
    pub fn new(capacity: usize) -> Arc<EventTap> {
        let cap = capacity.max(64).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(None),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Arc::new(EventTap {
            slots,
            mask: cap - 1,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            watermark: Mutex::new(Timestamp::ZERO),
        })
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Push one event; on a full ring the event is dropped and counted.
    /// Returns whether the event was enqueued.
    pub fn push(&self, event: TxnEvent) -> bool {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // Claim the ticket. AcqRel so that a push that
                // happens-after another push (via engine synchronization,
                // e.g. timestamp retire → snapshot sample) always claims a
                // later ticket — the ordering contract in the crate docs.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Safety: the ticket claim gives this thread
                        // exclusive ownership of the slot until the seq
                        // store publishes it.
                        unsafe { *slot.value.get() = Some(event) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(now) => pos = now,
                }
            } else if dif < 0 {
                // Full: the consumer has not freed this slot yet.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the next event in ticket order (single consumer only).
    /// Returns `None` when the ring is empty *or* the next ticket's
    /// producer has claimed but not yet published its slot — order is
    /// never reshuffled around a slow producer.
    pub fn pop(&self) -> Option<TxnEvent> {
        let pos = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[pos & self.mask];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == pos + 1 {
            // Safety: published and not yet consumed; single consumer.
            let v = unsafe { (*slot.value.get()).take() };
            slot.seq.store(pos + self.slots.len(), Ordering::Release);
            self.head.store(pos + 1, Ordering::Relaxed);
            v
        } else {
            None
        }
    }

    /// Events lost to a full ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Approximate number of events waiting in the ring.
    pub fn backlog(&self) -> usize {
        self.tail
            .load(Ordering::Relaxed)
            .saturating_sub(self.head.load(Ordering::Relaxed))
    }

    /// Engine-side: publish the oldest snapshot any in-flight transaction
    /// may still read. Monotonic (regressions are ignored).
    pub fn set_watermark(&self, ts: Timestamp) {
        let mut w = self.watermark.lock();
        if ts > *w {
            *w = ts;
        }
    }

    /// Checker-side: current prune watermark.
    pub fn watermark(&self) -> Timestamp {
        *self.watermark.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(tid: u64) -> TxnEvent {
        TxnEvent {
            tid,
            session: 0,
            si: true,
            snapshot: Timestamp::ZERO,
            commit: None,
            aborted: false,
            ops: Vec::new(),
        }
    }

    #[test]
    fn ring_preserves_fifo_and_counts_drops() {
        let tap = EventTap::new(64);
        for i in 0..64 {
            assert!(tap.push(ev(i)));
        }
        // Full: further pushes drop.
        assert!(!tap.push(ev(999)));
        assert_eq!(tap.dropped(), 1);
        assert_eq!(tap.backlog(), 64);
        for i in 0..64 {
            assert_eq!(tap.pop().unwrap().tid, i);
        }
        assert!(tap.pop().is_none());
        // Freed slots accept new events again.
        assert!(tap.push(ev(1000)));
        assert_eq!(tap.pop().unwrap().tid, 1000);
    }

    #[test]
    fn concurrent_producers_deliver_every_event_once() {
        let tap = EventTap::new(4096);
        let producers = 8;
        let per = 400;
        let mut handles = Vec::new();
        for p in 0..producers {
            let t = Arc::clone(&tap);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    while !t.push(ev((p * per + i) as u64)) {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let consumer = {
            let t = Arc::clone(&tap);
            std::thread::spawn(move || {
                let mut seen = vec![false; producers * per];
                let mut n = 0;
                while n < producers * per {
                    if let Some(e) = t.pop() {
                        assert!(!seen[e.tid as usize], "duplicate event {}", e.tid);
                        seen[e.tid as usize] = true;
                        n += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        consumer.join().unwrap();
        assert_eq!(tap.dropped(), 0);
    }

    #[test]
    fn watermark_is_monotonic() {
        let tap = EventTap::new(64);
        tap.set_watermark(Timestamp::new(100, 0));
        tap.set_watermark(Timestamp::new(40, 0)); // ignored
        assert_eq!(tap.watermark(), Timestamp::new(100, 0));
        tap.set_watermark(Timestamp::new(100, 5));
        assert_eq!(tap.watermark(), Timestamp::new(100, 5));
    }

    #[test]
    fn hashes_separate_trees_and_contents() {
        assert_ne!(hash_key(1, b"k"), hash_key(2, b"k"));
        assert_ne!(hash_key(1, b"k1"), hash_key(1, b"k2"));
        assert_ne!(hash_value(b"row-a"), hash_value(b"row-b"));
        assert_eq!(hash_value(b"row-a"), hash_value(b"row-a"));
    }
}
