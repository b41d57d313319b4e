//! Multi-granularity lock manager with wait-for-graph deadlock detection.
//!
//! Two granularities: a table (tree) and a key within it. Serializable
//! transactions use two-phase locking — IS + S(key) on point reads,
//! IX + X(key) on writes, S(table) on scans (phantom protection);
//! snapshot-isolation transactions take IX + X(key) on writes only, reads
//! go to versions. Locks are held to transaction end.
//!
//! A request hashes its target once: the top bits pick one of
//! [`LOCK_SHARDS`] latched shards (contended latches count in
//! `locks.shard_conflicts`), whose table the hash keys, with a short
//! `(holder, mode)` list per target. A transaction lists what it asked
//! for, which release visits shard by shard, and its table modes, whose
//! re-request (a write's IX after its first) skips the shard. A blocked
//! request checks the wait-for graph over every shard — the one
//! cross-shard operation — for a cycle (the requester aborts as the
//! victim), and otherwise waits with a timeout backstop.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::sync::{Arc, OnceLock};
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

/// A target (tree, key or `None` for the table) and its hash, computed
/// once per request; the shard tables hash it as that one word.
#[derive(Clone, PartialEq, Eq)]
struct Hashed(u64, TreeId, Option<Arc<[u8]>>);

/// Hash keys drawn once per process: clients must not aim the hashes.
static TARGET_HASH: OnceLock<RandomState> = OnceLock::new();

impl Hashed {
    fn new(tree: TreeId, key: Option<Arc<[u8]>>) -> Hashed {
        let state = TARGET_HASH.get_or_init(RandomState::new);
        Hashed(state.hash_one((tree, key.as_deref())), tree, key)
    }

    /// Its shard: the hash's top bits.
    fn shard(&self) -> usize {
        (self.0 >> (u64::BITS - LOCK_SHARDS.trailing_zeros())) as usize
    }
}

impl Hash for Hashed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0);
    }
}

/// Hasher of one-word keys (a target's hash, a TID): a fibonacci spread.
#[derive(Default)]
struct Spread(u64);

impl Hasher for Spread {
    fn finish(&self) -> u64 {
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0 = u64::from_ne_bytes(bytes.try_into().expect("keys hash as one u64"));
    }
}

type SpreadMap<K, V> = HashMap<K, V, BuildHasherDefault<Spread>>;

/// Does a holder other than `tid` hold a mode that conflicts with `mode`?
fn blocked(holders: &[(Tid, LockMode)], tid: Tid, mode: LockMode) -> bool {
    holders
        .iter()
        .any(|&(t, m)| t != tid && !m.compatible(mode))
}

#[derive(Default)]
struct LockTable {
    /// Per locked target, each mode each holder holds.
    granted: SpreadMap<Hashed, Vec<(Tid, LockMode)>>,
    /// What each blocked transaction is waiting for.
    waiting: SpreadMap<Tid, (Hashed, LockMode)>,
}

/// Number of lock-table shards (power of two).
pub const LOCK_SHARDS: usize = 16;

#[derive(Default)]
struct Shard {
    table: Mutex<LockTable>,
    cond: Condvar,
}

/// What one transaction asked for: every target it locked or waited for
/// (release visits these), and the table modes it holds.
#[derive(Default)]
struct Held(Vec<Hashed>, Vec<(TreeId, LockMode)>);

/// The lock manager.
pub struct LockManager {
    shards: Vec<Shard>,
    /// Each transaction's [`Held`], split by TID like the lock table is
    /// by target: a transaction only ever meets its own entry.
    held: Vec<Mutex<SpreadMap<Tid, Held>>>,
    timeout: Duration,
    metrics: MetricsRegistry,
}

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
            held: (0..LOCK_SHARDS).map(|_| Mutex::default()).collect(),
            timeout,
            metrics,
        }
    }

    fn held_by(&self, tid: Tid) -> &Mutex<SpreadMap<Tid, Held>> {
        &self.held[tid.0 as usize & (LOCK_SHARDS - 1)]
    }

    /// Walk the combined wait-for graph for a cycle through `tid`. Takes
    /// every shard in index order (the caller must hold none) so the
    /// graph is a consistent snapshot even when the cycle spans shards.
    fn detect_deadlock(&self, tid: Tid) -> bool {
        let guards: Vec<_> = self.shards.iter().map(|s| s.table.lock()).collect();
        let (mut stack, mut seen) = (vec![tid], HashSet::new());
        while let Some(t) = stack.pop() {
            // Who blocks `t`, if it waits.
            let Some((target, mode)) = guards.iter().find_map(|g| g.waiting.get(&t)) else {
                continue;
            };
            let holders = guards[target.shard()].granted.get(target);
            for &(b, m) in holders.into_iter().flatten() {
                if b == t || m.compatible(*mode) {
                    continue;
                }
                if b == tid {
                    return true;
                }
                if seen.insert(b) {
                    stack.push(b);
                }
            }
        }
        false
    }

    /// Acquire `mode` on `target` for `tid`, blocking if necessary.
    /// Returns [`Error::Deadlock`] (requester as victim) on a wait-for
    /// cycle or timeout.
    pub fn lock(&self, tid: Tid, target: LockTarget, mode: LockMode) -> Result<()> {
        match target {
            LockTarget::Table(tree) => self.acquire(tid, tree, None, mode),
            LockTarget::Key(tree, key) => self.acquire(tid, tree, Some(key.into()), mode),
        }
    }

    fn acquire(
        &self,
        tid: Tid,
        tree: TreeId,
        key: Option<Arc<[u8]>>,
        mode: LockMode,
    ) -> Result<()> {
        let mut held = self.held_by(tid).lock();
        let mine = held.entry(tid).or_default();
        if key.is_none() && mine.1.contains(&(tree, mode)) {
            return Ok(());
        }
        let target = Hashed::new(tree, key);
        mine.0.push(target.clone());
        drop(held);
        let mut wait_start: Option<Instant> = None;
        let observe_wait = |start: Option<Instant>| {
            if let Some(ns) = start.map(|t0| t0.elapsed().as_nanos() as u64) {
                self.metrics.locks.wait_ns.observe(ns);
            }
        };
        let shard = &self.shards[target.shard()];
        let mut table = shard.table.try_lock().unwrap_or_else(|| {
            self.metrics.locks.shard_conflicts.inc();
            shard.table.lock()
        });
        let mut detected = false;
        loop {
            let holders = table.granted.entry(target.clone()).or_default();
            if !blocked(holders, tid, mode) {
                // A re-request of a lock already held (a key read twice)
                // is no new acquisition.
                let new = !holders.contains(&(tid, mode));
                if new {
                    holders.push((tid, mode));
                    let m = &self.metrics.locks;
                    [&m.acquired_is, &m.acquired_ix, &m.acquired_s, &m.acquired_x][mode as usize]
                        .inc();
                }
                table.waiting.remove(&tid);
                drop(table);
                if new && target.2.is_none() {
                    let mut held = self.held_by(tid).lock();
                    held.entry(tid).or_default().1.push((tree, mode));
                }
                observe_wait(wait_start);
                return Ok(());
            }
            if !detected {
                // Blocked. Publish the wait edge and detect with the shard
                // released. A release meanwhile is not lost: the loop head
                // re-checks under the re-taken latch before it waits.
                table.waiting.insert(tid, (target.clone(), mode));
                drop(table);
                if self.detect_deadlock(tid) {
                    shard.table.lock().waiting.remove(&tid);
                    self.metrics.locks.deadlocks.inc();
                    observe_wait(wait_start);
                    return Err(Error::Deadlock(tid));
                }
                table = shard.table.lock();
                detected = true;
                continue;
            }
            detected = false;
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
        self.acquire(tid, tree, None, LockMode::IntentionShared)?;
        self.acquire(tid, tree, Some(key.into()), LockMode::Shared)
    }

    /// IX(table) + X(key): any write. The lock table keeps `key`: a
    /// writer that builds its key as an `Arc` shares it, and the request
    /// copies nothing.
    pub fn lock_write(&self, tid: Tid, tree: TreeId, key: Arc<[u8]>) -> Result<()> {
        self.acquire(tid, tree, None, LockMode::IntentionExclusive)?;
        self.acquire(tid, tree, Some(key), LockMode::Exclusive)
    }

    /// S(table): serializable scan (phantom protection).
    pub fn lock_scan(&self, tid: Tid, tree: TreeId) -> Result<()> {
        self.acquire(tid, tree, None, LockMode::Shared)
    }

    /// Release every lock of `tid` and wake who waits for them. Visits
    /// each shard it locked or waited in once, notifying only one where
    /// someone is parked: a transaction that never took a lock (every AS
    /// OF read) touches no shard and makes no system call.
    pub fn release_all(&self, tid: Tid) {
        let Some(mut held) = self.held_by(tid).lock().remove(&tid) else {
            return;
        };
        // Sorted by hash, the targets group by shard.
        held.0.sort_unstable_by_key(|t| t.0);
        for run in held.0.chunk_by(|a, b| a.shard() == b.shard()) {
            let shard = &self.shards[run[0].shard()];
            let mut table = shard.table.lock();
            for target in run {
                if let Some(holders) = table.granted.get_mut(target) {
                    holders.retain(|h| h.0 != tid);
                    if holders.is_empty() {
                        table.granted.remove(target);
                    }
                }
            }
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

    impl LockManager {
        fn shard_of(target: &LockTarget) -> usize {
            let (tree, key) = match target {
                LockTarget::Table(tree) => (*tree, None),
                LockTarget::Key(tree, key) => (*tree, Some(key[..].into())),
            };
            Hashed::new(tree, key).shard()
        }
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
        lm.lock_write(t(1), TREE, b"a"[..].into()).unwrap();
        lm.lock_write(t(2), TREE, b"b"[..].into()).unwrap(); // IX+IX compatible
        lm.release_all(t(1));
        lm.release_all(t(2));
    }

    #[test]
    fn scan_blocks_writers_and_vice_versa() {
        let lm = Arc::new(LockManager::new(Duration::from_millis(80)));
        lm.lock_scan(t(1), TREE).unwrap();
        // IX on the table is incompatible with the scan's S.
        assert!(matches!(
            lm.lock_write(t(2), TREE, b"k"[..].into()),
            Err(Error::Deadlock(_))
        ));
        lm.release_all(t(1));
        lm.release_all(t(2));
        // And the other direction.
        lm.lock_write(t(3), TREE, b"k"[..].into()).unwrap();
        assert!(matches!(lm.lock_scan(t(4), TREE), Err(Error::Deadlock(_))));
        lm.release_all(t(3));
        lm.release_all(t(4));
    }

    #[test]
    fn point_read_coexists_with_writer_on_other_key() {
        let lm = LockManager::default();
        lm.lock_write(t(1), TREE, b"a"[..].into()).unwrap();
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

    /// A small deterministic generator for the model test.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Seeded random `lock` / `release_all` sequences over 8 TIDs, 2 trees
    /// and 6 keys against a plain model of the table: a request is granted
    /// exactly when every other holder's modes are compatible with it, a
    /// re-request of a held mode is no new acquisition, a refused request
    /// leaves nothing behind, and `locked_targets()` always counts the
    /// model's locked targets, back to 0 once every TID released.
    #[test]
    fn random_sequences_match_a_reference_model() {
        use LockMode::*;
        let modes = [IntentionShared, IntentionExclusive, Shared, Exclusive];
        for seed in 1..=25u64 {
            // Refused requests time out at once: one thread cannot wait
            // for itself.
            let lm = LockManager::new(Duration::ZERO);
            let mut model: HashMap<LockTarget, HashSet<(Tid, LockMode)>> = HashMap::new();
            let (mut acquired, mut refused) = ([0u64; 4], 0u64);
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..400 {
                let tid = t(1 + next(&mut rng) % 8);
                if next(&mut rng).is_multiple_of(8) {
                    lm.release_all(tid);
                    for grants in model.values_mut() {
                        grants.retain(|g| g.0 != tid);
                    }
                } else {
                    let tree = TreeId(1 + (next(&mut rng) % 2) as u32);
                    let target = match next(&mut rng) % 7 {
                        6 => LockTarget::Table(tree),
                        k => LockTarget::Key(tree, vec![k as u8]),
                    };
                    let mode = modes[(next(&mut rng) % 4) as usize];
                    let grants = model.entry(target.clone()).or_default();
                    let ok = grants.iter().all(|&(h, m)| h == tid || m.compatible(mode));
                    let r = lm.lock(tid, target, mode);
                    assert_eq!(r.is_ok(), ok, "seed {seed}: {tid:?} {mode:?}");
                    if !ok {
                        refused += 1;
                    } else if grants.insert((tid, mode)) {
                        acquired[mode as usize] += 1;
                    }
                }
                model.retain(|_, grants| !grants.is_empty());
                assert_eq!(lm.locked_targets(), model.len(), "seed {seed}");
            }
            for tid in 1..=8 {
                lm.release_all(t(tid));
            }
            assert_eq!(lm.locked_targets(), 0);
            let m = &lm.metrics.locks;
            let counted = [&m.acquired_is, &m.acquired_ix, &m.acquired_s, &m.acquired_x];
            assert_eq!(counted.map(|c| c.get()), acquired, "seed {seed}");
            assert_eq!(m.timeouts.get(), refused);
            assert_eq!(m.waits.get(), refused);
            assert_eq!(m.deadlocks.get(), 0);
        }
    }

    /// Six threads on overlapping keys. First each pair locks two keys of
    /// its own in opposite orders (a barrier between the two requests
    /// makes the cycle certain), then, once every pair is done, every
    /// thread runs transactions over the same six keys in random orders
    /// and modes. The wait-for check
    /// must pick victims, no request may run into the timeout backstop (a
    /// lost wake-up would), and X must exclude every other holder.
    #[test]
    fn overlapping_writers_find_victims_and_lose_no_wakeup() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Barrier;
        const THREADS: u64 = 6;
        const WRITER: u64 = 1_000;
        let lm = Arc::new(LockManager::new(Duration::from_secs(30)));
        // Per key: 1,000 per X holder plus 1 per S holder.
        let inside: Vec<AtomicU64> = (0..6).map(|_| AtomicU64::new(0)).collect();
        let pairs: Vec<Barrier> = (0..THREADS / 2).map(|_| Barrier::new(2)).collect();
        // No one starts the shared phase while a pair still waits at its
        // barrier, a wait the lock manager cannot see.
        let all = Barrier::new(THREADS as usize);
        let victims = AtomicU64::new(0);
        thread::scope(|s| {
            for i in 0..THREADS {
                let (lm, inside, pairs, all, victims) = (&lm, &inside, &pairs, &all, &victims);
                s.spawn(move || {
                    let pair = i / 2;
                    let (first, second) = (key(&[2 * pair as u8]), key(&[2 * pair as u8 + 1]));
                    let (first, second) = if i % 2 == 0 {
                        (first, second)
                    } else {
                        (second, first)
                    };
                    let tid = t(1 + i);
                    lm.lock(tid, first, LockMode::Exclusive).unwrap();
                    pairs[pair as usize].wait();
                    if lm.lock(tid, second, LockMode::Exclusive).is_err() {
                        victims.fetch_add(1, Ordering::SeqCst);
                    }
                    lm.release_all(tid);
                    all.wait();

                    let mut rng = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for n in 1..=300u64 {
                        let tid = t(n * THREADS + 1 + i);
                        let mut order: Vec<u8> = (0..6).collect();
                        for j in (1..order.len()).rev() {
                            order.swap(j, (next(&mut rng) % (j as u64 + 1)) as usize);
                        }
                        let mut mine = Vec::new();
                        for &k in &order[..2 + (next(&mut rng) % 2) as usize] {
                            let (mode, weight) = match next(&mut rng) % 2 {
                                0 => (LockMode::Shared, 1),
                                _ => (LockMode::Exclusive, WRITER),
                            };
                            if lm.lock(tid, key(&[k]), mode).is_err() {
                                victims.fetch_add(1, Ordering::SeqCst);
                                break;
                            }
                            let before = inside[k as usize].fetch_add(weight, Ordering::SeqCst);
                            assert!(
                                before == 0 || (weight == 1 && before < WRITER),
                                "key {k}: {mode:?} granted beside {before}"
                            );
                            mine.push((k, weight));
                        }
                        for (k, weight) in mine {
                            inside[k as usize].fetch_sub(weight, Ordering::SeqCst);
                        }
                        lm.release_all(tid);
                    }
                });
            }
        });
        let m = &lm.metrics.locks;
        assert_eq!(m.timeouts.get(), 0, "a waiter missed its wake-up");
        assert!(victims.load(Ordering::SeqCst) >= THREADS / 2);
        assert_eq!(m.deadlocks.get(), victims.load(Ordering::SeqCst));
        assert_eq!(lm.locked_targets(), 0);
    }
}
