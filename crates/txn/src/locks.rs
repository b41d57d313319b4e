//! Multi-granularity lock manager with wait-for-graph deadlock detection.
//!
//! Two granularities: a table (tree) and a key within it. Serializable
//! transactions use two-phase locking — IS + S(key) on point reads,
//! IX + X(key) on writes, S(table) on scans (phantom protection);
//! snapshot-isolation transactions take IX + X(key) on writes only, reads
//! go to versions. Locks are held to transaction end.
//!
//! A blocked request first checks the wait-for graph for a cycle (the
//! requester aborts as the victim) and otherwise waits with a timeout
//! backstop.
//!
//! The lock table is split into [`LOCK_SHARDS`] independently-latched
//! shards (fibonacci-hashed by target) so concurrent transactions
//! touching different keys do not serialize on one mutex; contended
//! shard acquisitions are counted in `locks.shard_conflicts`. Deadlock
//! detection is the one cross-shard operation: the would-be waiter
//! releases its shard, takes every shard in index order, and walks the
//! combined wait-for graph. Release is not: the manager remembers which
//! shards a transaction touched and visits only those.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use immortaldb_common::{Error, Result, Tid, TreeId};
use immortaldb_obs::MetricsRegistry;

/// Lock modes with the standard multi-granularity compatibility matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockMode {
    /// Intention shared (table level, under point reads).
    IntentionShared,
    /// Intention exclusive (table level, under writes).
    IntentionExclusive,
    /// Shared.
    Shared,
    /// Exclusive.
    Exclusive,
}

impl LockMode {
    /// Standard compatibility: IS/IS, IS/IX, IS/S yes; IX/IX yes; S/S yes;
    /// everything with X no; S/IX no.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        !matches!(
            (self, other),
            (Exclusive, _)
                | (_, Exclusive)
                | (Shared, IntentionExclusive)
                | (IntentionExclusive, Shared)
        )
    }
}

/// What a lock names: a whole table or one key in it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LockTarget {
    Table(TreeId),
    Key(TreeId, Vec<u8>),
}

#[derive(Default)]
struct Granted {
    /// Modes held per transaction (a transaction may hold several).
    holders: HashMap<Tid, HashSet<LockMode>>,
}

impl Granted {
    fn is_free(&self) -> bool {
        self.holders.is_empty()
    }

    fn compatible(&self, tid: Tid, mode: LockMode) -> bool {
        self.holders
            .iter()
            .filter(|(t, _)| **t != tid)
            .all(|(_, modes)| modes.iter().all(|m| m.compatible(mode)))
    }

    /// Grant `mode` to `tid`; false if it already held it.
    fn grant(&mut self, tid: Tid, mode: LockMode) -> bool {
        self.holders.entry(tid).or_default().insert(mode)
    }

    fn blockers(&self, tid: Tid, mode: LockMode) -> Vec<Tid> {
        self.holders
            .iter()
            .filter(|(t, modes)| **t != tid && modes.iter().any(|m| !m.compatible(mode)))
            .map(|(t, _)| *t)
            .collect()
    }
}

#[derive(Default)]
struct LockTable {
    granted: HashMap<LockTarget, Granted>,
    /// What each blocked transaction is waiting for.
    waiting: HashMap<Tid, (LockTarget, LockMode)>,
    /// Targets held per transaction (for release-all).
    held: HashMap<Tid, HashSet<LockTarget>>,
}

/// Number of lock-table shards (power of two).
pub const LOCK_SHARDS: usize = 16;

#[derive(Default)]
struct Shard {
    table: Mutex<LockTable>,
    cond: Condvar,
}

/// The lock manager.
pub struct LockManager {
    shards: Vec<Shard>,
    /// Per transaction, a bit for every shard it holds a lock or waits
    /// in, so release visits only those. Split by TID like the lock
    /// table is by target: a transaction only ever meets its own entry.
    touched: Vec<Mutex<HashMap<Tid, u16>>>,
    timeout: Duration,
    metrics: MetricsRegistry,
}

const _: () = assert!(LOCK_SHARDS <= u16::BITS as usize);

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new(Duration::from_secs(5))
    }
}

impl LockManager {
    /// Manager with a private metrics registry (tests, standalone use).
    pub fn new(timeout: Duration) -> LockManager {
        Self::with_metrics(timeout, MetricsRegistry::new())
    }

    /// Manager recording into a shared engine-wide registry.
    pub fn with_metrics(timeout: Duration, metrics: MetricsRegistry) -> LockManager {
        LockManager {
            shards: (0..LOCK_SHARDS).map(|_| Shard::default()).collect(),
            touched: (0..LOCK_SHARDS).map(|_| Mutex::default()).collect(),
            timeout,
            metrics,
        }
    }

    fn touched_by(&self, tid: Tid) -> &Mutex<HashMap<Tid, u16>> {
        &self.touched[tid.0 as usize & (LOCK_SHARDS - 1)]
    }

    /// Shard index of a target: fibonacci-spread hash, top bits.
    fn shard_of(target: &LockTarget) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        target.hash(&mut h);
        (h.finish().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize & (LOCK_SHARDS - 1)
    }

    /// Walk the combined wait-for graph for a cycle through `tid`. Takes
    /// every shard in index order (the caller must hold none) so the
    /// graph is a consistent snapshot even when the cycle spans shards.
    fn detect_deadlock(&self, tid: Tid) -> bool {
        let guards: Vec<_> = self.shards.iter().map(|s| s.table.lock()).collect();
        let Some((target, mode)) = guards.iter().find_map(|g| g.waiting.get(&tid)) else {
            return false;
        };
        let blockers = |t: Tid, target: &LockTarget, mode: LockMode| -> Vec<Tid> {
            guards[Self::shard_of(target)]
                .granted
                .get(target)
                .map(|g| g.blockers(t, mode))
                .unwrap_or_default()
        };
        let mut stack = blockers(tid, target, *mode);
        let mut seen: HashSet<Tid> = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == tid {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some((wt, wm)) = guards.iter().find_map(|g| g.waiting.get(&t)) {
                stack.extend(blockers(t, wt, *wm));
            }
        }
        false
    }

    /// Acquire `mode` on `target` for `tid`, blocking if necessary.
    /// Returns [`Error::Deadlock`] (requester as victim) on a wait-for
    /// cycle or timeout.
    pub fn lock(&self, tid: Tid, target: LockTarget, mode: LockMode) -> Result<()> {
        let mut wait_start: Option<Instant> = None;
        let observe_wait = |start: Option<Instant>| {
            if let Some(t0) = start {
                self.metrics
                    .locks
                    .wait_ns
                    .observe(t0.elapsed().as_nanos() as u64);
            }
        };
        let shard_idx = Self::shard_of(&target);
        *self.touched_by(tid).lock().entry(tid).or_default() |= 1 << shard_idx;
        let shard = &self.shards[shard_idx];
        let mut table = match shard.table.try_lock() {
            Some(g) => g,
            None => {
                self.metrics.locks.shard_conflicts.inc();
                shard.table.lock()
            }
        };
        loop {
            let granted = table.granted.entry(target.clone()).or_default();
            if granted.compatible(tid, mode) {
                // A re-request of a lock already held (a resumed scan's
                // table lock) is no new acquisition.
                if granted.grant(tid, mode) {
                    let m = &self.metrics.locks;
                    match mode {
                        LockMode::IntentionShared => m.acquired_is.inc(),
                        LockMode::IntentionExclusive => m.acquired_ix.inc(),
                        LockMode::Shared => m.acquired_s.inc(),
                        LockMode::Exclusive => m.acquired_x.inc(),
                    }
                }
                table.waiting.remove(&tid);
                table.held.entry(tid).or_default().insert(target);
                observe_wait(wait_start);
                return Ok(());
            }
            // Blocked. Publish the wait edge, then detect with the shard
            // released (detection takes every shard in index order).
            table.waiting.insert(tid, (target.clone(), mode));
            drop(table);
            if self.detect_deadlock(tid) {
                shard.table.lock().waiting.remove(&tid);
                self.metrics.locks.deadlocks.inc();
                observe_wait(wait_start);
                return Err(Error::Deadlock(tid));
            }
            table = shard.table.lock();
            // The holder may have released while we were detecting — the
            // loop head re-checks under the re-taken shard latch before
            // the condvar wait, so the wakeup cannot be lost.
            if table
                .granted
                .get(&target)
                .is_none_or(|g| g.compatible(tid, mode))
            {
                continue;
            }
            if wait_start.is_none() {
                wait_start = Some(Instant::now());
                self.metrics.locks.waits.inc();
                immortaldb_common::blocking::about_to_block();
            }
            let timed_out = shard.cond.wait_for(&mut table, self.timeout).timed_out();
            if timed_out {
                table.waiting.remove(&tid);
                self.metrics.locks.timeouts.inc();
                observe_wait(wait_start);
                return Err(Error::Deadlock(tid));
            }
        }
    }

    /// IS(table) + S(key): serializable point read.
    pub fn lock_read(&self, tid: Tid, tree: TreeId, key: &[u8]) -> Result<()> {
        self.lock(tid, LockTarget::Table(tree), LockMode::IntentionShared)?;
        self.lock(tid, LockTarget::Key(tree, key.to_vec()), LockMode::Shared)
    }

    /// IX(table) + X(key): any write.
    pub fn lock_write(&self, tid: Tid, tree: TreeId, key: &[u8]) -> Result<()> {
        self.lock(tid, LockTarget::Table(tree), LockMode::IntentionExclusive)?;
        self.lock(
            tid,
            LockTarget::Key(tree, key.to_vec()),
            LockMode::Exclusive,
        )
    }

    /// S(table): serializable scan (phantom protection).
    pub fn lock_scan(&self, tid: Tid, tree: TreeId) -> Result<()> {
        self.lock(tid, LockTarget::Table(tree), LockMode::Shared)
    }

    /// Release every lock of `tid` and wake who waits for them. Visits
    /// only the shards the transaction holds or waits in, and notifies a
    /// shard only when someone is parked there: a transaction that never
    /// took a lock (every AS OF read) touches no shard and makes no
    /// system call.
    pub fn release_all(&self, tid: Tid) {
        let mut mask = self.touched_by(tid).lock().remove(&tid).unwrap_or(0);
        while mask != 0 {
            let shard = &self.shards[mask.trailing_zeros() as usize];
            mask &= mask - 1;
            let mut table = shard.table.lock();
            if let Some(targets) = table.held.remove(&tid) {
                for target in targets {
                    if let Some(g) = table.granted.get_mut(&target) {
                        g.holders.remove(&tid);
                        if g.is_free() {
                            table.granted.remove(&target);
                        }
                    }
                }
            }
            table.waiting.remove(&tid);
            // A parked waiter published its wait edge under this latch
            // before parking, so an empty map means nobody to wake.
            let parked = !table.waiting.is_empty();
            drop(table);
            if parked {
                shard.cond.notify_all();
            }
        }
    }

    /// Number of targets currently locked (tests/metrics).
    pub fn locked_targets(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.table.lock().granted.len())
            .sum()
    }

    /// Number of lock-table shards (diagnostics).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// Shared handle type used across the engine.
pub type SharedLockManager = Arc<LockManager>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    fn t(id: u64) -> Tid {
        Tid(id)
    }

    const TREE: TreeId = TreeId(42);

    fn key(k: &[u8]) -> LockTarget {
        LockTarget::Key(TREE, k.to_vec())
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(IntentionShared.compatible(IntentionExclusive));
        assert!(IntentionExclusive.compatible(IntentionExclusive));
        assert!(IntentionShared.compatible(Shared));
        assert!(Shared.compatible(Shared));
        assert!(!Shared.compatible(IntentionExclusive));
        assert!(!Exclusive.compatible(IntentionShared));
        assert!(!Exclusive.compatible(Exclusive));
        assert!(!Shared.compatible(Exclusive));
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::default();
        lm.lock(t(1), key(b"k"), LockMode::Shared).unwrap();
        lm.lock(t(2), key(b"k"), LockMode::Shared).unwrap();
        assert_eq!(lm.locked_targets(), 1);
        lm.release_all(t(1));
        lm.release_all(t(2));
        assert_eq!(lm.locked_targets(), 0);
    }

    #[test]
    fn writers_do_not_block_each_other_at_table_level() {
        let lm = LockManager::default();
        lm.lock_write(t(1), TREE, b"a").unwrap();
        lm.lock_write(t(2), TREE, b"b").unwrap(); // IX+IX compatible
        lm.release_all(t(1));
        lm.release_all(t(2));
    }

    #[test]
    fn scan_blocks_writers_and_vice_versa() {
        let lm = Arc::new(LockManager::new(Duration::from_millis(80)));
        lm.lock_scan(t(1), TREE).unwrap();
        // IX on the table is incompatible with the scan's S.
        assert!(matches!(
            lm.lock_write(t(2), TREE, b"k"),
            Err(Error::Deadlock(_))
        ));
        lm.release_all(t(1));
        lm.release_all(t(2));
        // And the other direction.
        lm.lock_write(t(3), TREE, b"k").unwrap();
        assert!(matches!(lm.lock_scan(t(4), TREE), Err(Error::Deadlock(_))));
        lm.release_all(t(3));
        lm.release_all(t(4));
    }

    #[test]
    fn point_read_coexists_with_writer_on_other_key() {
        let lm = LockManager::default();
        lm.lock_write(t(1), TREE, b"a").unwrap();
        lm.lock_read(t(2), TREE, b"b").unwrap(); // IS+IX at table, keys differ
        lm.release_all(t(1));
        lm.release_all(t(2));
    }

    #[test]
    fn exclusive_excludes_and_releases() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(10)));
        lm.lock(t(1), key(b"k"), LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let acquired = Arc::new(AtomicBool::new(false));
        let acq2 = Arc::clone(&acquired);
        let h = thread::spawn(move || {
            lm2.lock(t(2), key(b"k"), LockMode::Exclusive).unwrap();
            acq2.store(true, Ordering::SeqCst);
            lm2.release_all(t(2));
        });
        thread::sleep(Duration::from_millis(50));
        assert!(!acquired.load(Ordering::SeqCst), "must block while held");
        lm.release_all(t(1));
        h.join().unwrap();
        assert!(acquired.load(Ordering::SeqCst));
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = LockManager::default();
        lm.lock(t(1), key(b"k"), LockMode::Shared).unwrap();
        lm.lock(t(1), key(b"k"), LockMode::Shared).unwrap();
        lm.lock(t(1), key(b"k"), LockMode::Exclusive).unwrap();
        lm.lock(t(1), key(b"k"), LockMode::Shared).unwrap();
        lm.release_all(t(1));
        assert_eq!(lm.locked_targets(), 0);
    }

    #[test]
    fn deadlock_detected() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(30)));
        lm.lock(t(1), key(b"a"), LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = thread::spawn(move || {
            lm2.lock(t(2), key(b"b"), LockMode::Exclusive).unwrap();
            let r = lm2.lock(t(2), key(b"a"), LockMode::Exclusive);
            lm2.release_all(t(2));
            r
        });
        thread::sleep(Duration::from_millis(100));
        let r1 = lm.lock(t(1), key(b"b"), LockMode::Exclusive);
        lm.release_all(t(1));
        let r2 = h.join().unwrap();
        let deadlocks =
            matches!(r1, Err(Error::Deadlock(_))) || matches!(r2, Err(Error::Deadlock(_)));
        assert!(deadlocks, "one transaction must be chosen as victim");
    }

    #[test]
    fn timeout_backstop() {
        let lm = Arc::new(LockManager::new(Duration::from_millis(80)));
        lm.lock(t(1), key(b"k"), LockMode::Exclusive).unwrap();
        let r = lm.lock(t(2), key(b"k"), LockMode::Exclusive);
        assert!(matches!(r, Err(Error::Deadlock(_))));
        lm.release_all(t(1));
    }

    #[test]
    fn shards_spread_targets_and_release_visits_all() {
        let lm = LockManager::default();
        for i in 0..64u32 {
            let k = format!("k{i}");
            lm.lock(t(1), key(k.as_bytes()), LockMode::Shared).unwrap();
        }
        assert_eq!(lm.locked_targets(), 64);
        let used: HashSet<usize> = (0..64u32)
            .map(|i| LockManager::shard_of(&key(format!("k{i}").as_bytes())))
            .collect();
        assert!(used.len() > 1, "hash must spread targets across shards");
        lm.release_all(t(1));
        assert_eq!(lm.locked_targets(), 0);
    }

    #[test]
    fn release_wakes_a_parked_waiter_and_a_lock_free_release_touches_no_shard() {
        use std::sync::mpsc;
        let lm = Arc::new(LockManager::new(Duration::from_secs(30)));
        lm.lock(t(1), key(b"k"), LockMode::Exclusive).unwrap();
        let (lm2, (tx, rx)) = (Arc::clone(&lm), mpsc::channel());
        let waiter = thread::spawn(move || {
            lm2.lock(t(2), key(b"k"), LockMode::Exclusive).unwrap();
            tx.send(()).unwrap();
            lm2.release_all(t(2));
        });
        // The waiter publishes its wait edge before it parks.
        let shard = &lm.shards[LockManager::shard_of(&key(b"k"))];
        while !shard.table.lock().waiting.contains_key(&t(2)) {
            thread::yield_now();
        }
        lm.release_all(t(1));
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the holder's release wakes the parked waiter");
        waiter.join().unwrap();
        assert_eq!(lm.locked_targets(), 0);

        // With every shard latched by this thread, a release that visited
        // any shard would block; a lock-free transaction's must return.
        let guards: Vec<_> = lm.shards.iter().map(|s| s.table.lock()).collect();
        let (lm2, (tx, rx)) = (Arc::clone(&lm), mpsc::channel());
        let releaser = thread::spawn(move || {
            lm2.release_all(t(9));
            tx.send(()).unwrap();
        });
        let returned = rx.recv_timeout(Duration::from_secs(10));
        drop(guards);
        releaser.join().unwrap();
        returned.expect("a lock-free release touches no shard");
    }

    #[test]
    fn cross_shard_deadlock_detected() {
        // Force the two keys onto different shards so the wait-for cycle
        // spans them.
        let a = b"a".to_vec();
        let b = (0..1000u32)
            .map(|i| format!("x{i}").into_bytes())
            .find(|k| {
                LockManager::shard_of(&LockTarget::Key(TREE, k.clone()))
                    != LockManager::shard_of(&LockTarget::Key(TREE, a.clone()))
            })
            .expect("some key must hash to a different shard");
        let lm = Arc::new(LockManager::new(Duration::from_secs(30)));
        lm.lock(t(1), key(&a), LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let (a2, b2) = (a.clone(), b.clone());
        let h = thread::spawn(move || {
            lm2.lock(t(2), key(&b2), LockMode::Exclusive).unwrap();
            let r = lm2.lock(t(2), key(&a2), LockMode::Exclusive);
            lm2.release_all(t(2));
            r
        });
        thread::sleep(Duration::from_millis(100));
        let r1 = lm.lock(t(1), key(&b), LockMode::Exclusive);
        lm.release_all(t(1));
        let r2 = h.join().unwrap();
        let deadlocks =
            matches!(r1, Err(Error::Deadlock(_))) || matches!(r2, Err(Error::Deadlock(_)));
        assert!(deadlocks, "cross-shard cycle must be detected");
    }

    #[test]
    fn different_targets_do_not_conflict() {
        let lm = LockManager::default();
        lm.lock(t(1), key(b"a"), LockMode::Exclusive).unwrap();
        lm.lock(t(2), key(b"b"), LockMode::Exclusive).unwrap();
        lm.lock(
            t(3),
            LockTarget::Key(TreeId(7), b"a".to_vec()),
            LockMode::Exclusive,
        )
        .unwrap();
        lm.release_all(t(1));
        lm.release_all(t(2));
        lm.release_all(t(3));
    }
}
