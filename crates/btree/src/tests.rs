//! Unit tests for the versioned B+tree.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

use immortaldb_common::{Lsn, PageId, Result, Tid, Timestamp, TreeId, NULL_LSN};
use immortaldb_storage::buffer::BufferPool;
use immortaldb_storage::disk::DiskManager;
use immortaldb_storage::logrec::LogRecord;
use immortaldb_storage::page::{Page, PageType};
use immortaldb_storage::wal::Wal;
use immortaldb_storage::TimestampResolver;

use crate::cursor::{Flow, HeadVersion, KeyRange, Query};
use crate::tree::BTree;
use crate::write::SplitTimeSource;

/// Resolver + split-time source for tests: commits are registered
/// explicitly; the split time is always greater than any registered
/// commit.
#[derive(Default)]
pub(crate) struct TestAuthority {
    committed: Mutex<HashMap<Tid, Timestamp>>,
    stamped: Mutex<HashMap<Tid, u32>>,
    max_ts: Mutex<Timestamp>,
}

impl TestAuthority {
    pub fn commit(&self, tid: Tid, ts: Timestamp) {
        self.committed.lock().insert(tid, ts);
        let mut m = self.max_ts.lock();
        if ts > *m {
            *m = ts;
        }
    }

    pub fn stamped_count(&self, tid: Tid) -> u32 {
        self.stamped.lock().get(&tid).copied().unwrap_or(0)
    }
}

impl TimestampResolver for TestAuthority {
    fn resolve(&self, tid: Tid) -> Option<Timestamp> {
        self.committed.lock().get(&tid).copied()
    }
    fn note_stamped(&self, tid: Tid, n: u32) {
        *self.stamped.lock().entry(tid).or_insert(0) += n;
    }
}

impl SplitTimeSource for TestAuthority {
    fn current_split_ts(&self) -> Timestamp {
        let m = *self.max_ts.lock();
        Timestamp::new(m.ttime + immortaldb_common::TICK_MS, 0)
    }
}

pub(crate) struct Env {
    pub pool: Arc<BufferPool>,
    pub wal: Arc<Wal>,
    pub auth: Arc<TestAuthority>,
    db: PathBuf,
    wal_path: PathBuf,
}

impl Env {
    pub fn new(name: &str) -> Env {
        Self::with_pool(name, 256)
    }

    pub fn with_pool(name: &str, pages: usize) -> Env {
        let mut db = std::env::temp_dir();
        db.push(format!("immortal-bt-{name}-{}.db", std::process::id()));
        let mut wal_path = std::env::temp_dir();
        wal_path.push(format!("immortal-bt-{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(&wal_path);
        let (disk, _) = DiskManager::open(&db).unwrap();
        let wal = Arc::new(Wal::open(&wal_path).unwrap());
        let pool = Arc::new(BufferPool::new(Arc::new(disk), Arc::clone(&wal), pages));
        Env {
            pool,
            wal,
            auth: Arc::new(TestAuthority::default()),
            db,
            wal_path,
        }
    }

    pub fn tree(&self, id: u32, versioned: bool) -> BTree {
        BTree::create(
            Arc::clone(&self.pool),
            Arc::clone(&self.wal),
            TreeId(id),
            versioned,
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

/// A record a read found, copied out of the page.
struct Row {
    key: Vec<u8>,
    data: Vec<u8>,
}

/// The rows of `keys` as they stand at `at` for `own`, copied.
fn scan_as_of(
    t: &BTree,
    keys: KeyRange<'_>,
    at: Timestamp,
    own: Option<Tid>,
    resolver: &dyn TimestampResolver,
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    t.rows_at(keys, at, own, resolver, &mut |key, data| {
        out.push(Row {
            key: key.to_vec(),
            data: data.to_vec(),
        });
        Ok(Flow::Continue)
    })?;
    Ok(out)
}

fn scan_current(
    t: &BTree,
    keys: KeyRange<'_>,
    own: Option<Tid>,
    resolver: &dyn TimestampResolver,
) -> Result<Vec<Row>> {
    scan_as_of(t, keys, Timestamp::MAX, own, resolver)
}

fn get_as_of(
    t: &BTree,
    key: &[u8],
    at: Timestamp,
    own: Option<Tid>,
    resolver: &dyn TimestampResolver,
) -> Result<Option<Vec<u8>>> {
    let rows = scan_as_of(t, KeyRange::point(key), at, own, resolver)?;
    Ok(rows.into_iter().next().map(|r| r.data))
}

/// The current image of `key` as `own` sees it, copied.
fn get_current(
    t: &BTree,
    key: &[u8],
    own: Option<Tid>,
    resolver: &dyn TimestampResolver,
) -> Result<Option<Vec<u8>>> {
    let mut out = None;
    t.visit_current(key, own, resolver, &mut |_, data| {
        out = Some(data.to_vec());
        Ok(Flow::Stop)
    })?;
    Ok(out)
}

/// Every record of an unversioned tree, copied.
fn u_scan(t: &BTree) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    t.u_scan_in(&KeyRange::ALL, &mut |key, data| {
        out.push(Row {
            key: key.to_vec(),
            data: data.to_vec(),
        });
        Ok(Flow::Continue)
    })?;
    Ok(out)
}

/// One version of a key's history, copied.
struct Past {
    ts: Option<Timestamp>,
    data: Option<Vec<u8>>,
}

/// Every version of `key`, newest first, uncommitted ones included.
fn history_of(t: &BTree, key: &[u8], resolver: &dyn TimestampResolver) -> Result<Vec<Past>> {
    let mut out = Vec::new();
    let q = Query {
        keys: KeyRange::point(key),
        lo: Timestamp::ZERO,
        hi: Timestamp::MAX,
        uncommitted: true,
    };
    t.cursor(&q, resolver, &mut |v| {
        out.push(Past {
            ts: v.ts(),
            data: v.data.map(<[u8]>::to_vec),
        });
        Ok(Flow::Continue)
    })?;
    Ok(out)
}

fn ts(t: u64, sn: u32) -> Timestamp {
    Timestamp::new(t * immortaldb_common::TICK_MS, sn)
}

/// Insert + commit a single-op transaction.
fn put(tree: &BTree, env: &Env, tid: u64, key: &[u8], val: &[u8], at: Timestamp) -> Result<()> {
    tree.insert(Tid(tid), NULL_LSN, key, val, env.auth.as_ref())?;
    env.auth.commit(Tid(tid), at);
    Ok(())
}

fn upd(tree: &BTree, env: &Env, tid: u64, key: &[u8], val: &[u8], at: Timestamp) -> Result<()> {
    tree.update(Tid(tid), NULL_LSN, key, val, env.auth.as_ref())?;
    env.auth.commit(Tid(tid), at);
    Ok(())
}

#[test]
fn create_open_roundtrip() {
    let env = Env::new("createopen");
    let t = env.tree(20, true);
    let root = t.root();
    drop(t);
    let t2 = BTree::open(
        Arc::clone(&env.pool),
        Arc::clone(&env.wal),
        TreeId(20),
        true,
        Arc::clone(&env.auth) as Arc<dyn SplitTimeSource>,
    )
    .unwrap();
    assert_eq!(t2.root(), root);
    assert!(BTree::open(
        Arc::clone(&env.pool),
        Arc::clone(&env.wal),
        TreeId(999),
        true,
        Arc::clone(&env.auth) as Arc<dyn SplitTimeSource>,
    )
    .is_err());
}

#[test]
fn insert_get_update_delete_cycle() {
    let env = Env::new("cycle");
    let t = env.tree(20, true);
    put(&t, &env, 1, b"k", b"v1", ts(1, 0)).unwrap();
    assert_eq!(
        get_current(&t, b"k", None, env.auth.as_ref()).unwrap(),
        Some(b"v1".to_vec())
    );
    upd(&t, &env, 2, b"k", b"v2", ts(2, 0)).unwrap();
    assert_eq!(
        get_current(&t, b"k", None, env.auth.as_ref()).unwrap(),
        Some(b"v2".to_vec())
    );
    t.delete(Tid(3), NULL_LSN, b"k", env.auth.as_ref()).unwrap();
    env.auth.commit(Tid(3), ts(3, 0));
    assert_eq!(
        get_current(&t, b"k", None, env.auth.as_ref()).unwrap(),
        None
    );
    // AS OF still sees every state.
    assert_eq!(
        get_as_of(&t, b"k", ts(1, 5), None, env.auth.as_ref()).unwrap(),
        Some(b"v1".to_vec())
    );
    assert_eq!(
        get_as_of(&t, b"k", ts(2, 5), None, env.auth.as_ref()).unwrap(),
        Some(b"v2".to_vec())
    );
    assert_eq!(
        get_as_of(&t, b"k", ts(3, 5), None, env.auth.as_ref()).unwrap(),
        None
    );
    assert_eq!(
        get_as_of(&t, b"k", ts(0, 5), None, env.auth.as_ref()).unwrap(),
        None
    );
    // Re-insert after delete chains onto the stub.
    put(&t, &env, 4, b"k", b"v3", ts(4, 0)).unwrap();
    assert_eq!(
        get_current(&t, b"k", None, env.auth.as_ref()).unwrap(),
        Some(b"v3".to_vec())
    );
    assert_eq!(
        get_as_of(&t, b"k", ts(3, 5), None, env.auth.as_ref()).unwrap(),
        None
    );
}

#[test]
fn duplicate_insert_and_missing_update_rejected() {
    let env = Env::new("dup");
    let t = env.tree(20, true);
    put(&t, &env, 1, b"k", b"v", ts(1, 0)).unwrap();
    assert!(matches!(
        t.insert(Tid(2), NULL_LSN, b"k", b"v2", env.auth.as_ref()),
        Err(immortaldb_common::Error::DuplicateKey)
    ));
    assert!(matches!(
        t.update(Tid(2), NULL_LSN, b"missing", b"v", env.auth.as_ref()),
        Err(immortaldb_common::Error::KeyNotFound)
    ));
    assert!(matches!(
        t.delete(Tid(2), NULL_LSN, b"missing", env.auth.as_ref()),
        Err(immortaldb_common::Error::KeyNotFound)
    ));
}

#[test]
fn own_uncommitted_writes_visible_only_to_owner() {
    let env = Env::new("ownwrites");
    let t = env.tree(20, true);
    t.insert(Tid(7), NULL_LSN, b"k", b"mine", env.auth.as_ref())
        .unwrap();
    assert_eq!(
        get_current(&t, b"k", Some(Tid(7)), env.auth.as_ref()).unwrap(),
        Some(b"mine".to_vec())
    );
    assert_eq!(
        get_current(&t, b"k", None, env.auth.as_ref()).unwrap(),
        None
    );
    assert_eq!(
        get_current(&t, b"k", Some(Tid(9)), env.auth.as_ref()).unwrap(),
        None
    );
}

#[test]
fn head_version_reports_states() {
    let env = Env::new("head");
    let t = env.tree(20, true);
    assert_eq!(
        t.head_version(b"k", env.auth.as_ref()).unwrap(),
        HeadVersion::NotFound
    );
    t.insert(Tid(5), NULL_LSN, b"k", b"v", env.auth.as_ref())
        .unwrap();
    assert_eq!(
        t.head_version(b"k", env.auth.as_ref()).unwrap(),
        HeadVersion::Uncommitted {
            tid: Tid(5),
            stub: false
        }
    );
    env.auth.commit(Tid(5), ts(2, 0));
    assert_eq!(
        t.head_version(b"k", env.auth.as_ref()).unwrap(),
        HeadVersion::Committed {
            ts: ts(2, 0),
            stub: false
        }
    );
}

#[test]
fn key_splits_preserve_order_and_content() {
    let env = Env::new("keysplit");
    let t = env.tree(20, true);
    let val = vec![7u8; 300];
    let n = 300u64;
    for i in 0..n {
        let key = immortaldb_common::codec::key_from_u64(i * 7919 % n);
        put(&t, &env, i + 1, &key, &val, ts(i + 1, 0)).unwrap();
    }
    let (_, key_splits) = t.split_counts();
    assert!(key_splits > 0, "expected key splits for 300 x 300B records");
    let items = scan_current(&t, KeyRange::ALL, None, env.auth.as_ref()).unwrap();
    assert_eq!(items.len(), n as usize);
    for w in items.windows(2) {
        assert!(w[0].key < w[1].key, "scan must be key-ordered");
    }
    for i in 0..n {
        let key = immortaldb_common::codec::key_from_u64(i);
        assert_eq!(
            get_current(&t, &key, None, env.auth.as_ref()).unwrap(),
            Some(val.clone())
        );
    }
}

#[test]
fn time_splits_keep_full_history_queryable() {
    let env = Env::new("timesplit");
    let t = env.tree(20, true);
    let key = b"hot";
    // Version v0 at t=1, then 400 updates. Values are distinguishable.
    put(&t, &env, 1, key, b"v0", ts(1, 0)).unwrap();
    let rounds = 400u64;
    for r in 1..=rounds {
        let val = format!("v{r}");
        upd(&t, &env, r + 1, key, val.as_bytes(), ts(r + 1, 0)).unwrap();
    }
    let (time_splits, _) = t.split_counts();
    assert!(time_splits > 0, "400 versions of one key must time-split");
    // Every historical state is still reachable.
    for r in [0u64, 1, 5, 50, 137, 399, 400] {
        let expect = format!("v{r}");
        let got = get_as_of(&t, key, ts(r + 1, 5), None, env.auth.as_ref()).unwrap();
        assert_eq!(got, Some(expect.into_bytes()), "as of round {r}");
    }
    assert_eq!(
        get_as_of(&t, key, ts(0, 5), None, env.auth.as_ref()).unwrap(),
        None
    );
}

#[test]
fn scan_as_of_reconstructs_past_states() {
    let env = Env::new("scanasof");
    let t = env.tree(20, true);
    // 30 keys inserted at time 1..30, each updated at time 100+i.
    for i in 0..30u64 {
        let key = immortaldb_common::codec::key_from_u64(i);
        put(
            &t,
            &env,
            i + 1,
            &key,
            format!("a{i}").as_bytes(),
            ts(i + 1, 0),
        )
        .unwrap();
    }
    for i in 0..30u64 {
        let key = immortaldb_common::codec::key_from_u64(i);
        upd(
            &t,
            &env,
            100 + i,
            &key,
            format!("b{i}").as_bytes(),
            ts(100 + i, 0),
        )
        .unwrap();
    }
    // As of time 15.5: keys 0..=14 exist with "a" values.
    let items = scan_as_of(&t, KeyRange::ALL, ts(15, 5), None, env.auth.as_ref()).unwrap();
    assert_eq!(items.len(), 15);
    for (i, item) in items.iter().enumerate() {
        assert_eq!(item.data, format!("a{i}").into_bytes());
    }
    // As of time 114.5: all 30 keys, first 15 updated.
    let items = scan_as_of(&t, KeyRange::ALL, ts(114, 5), None, env.auth.as_ref()).unwrap();
    assert_eq!(items.len(), 30);
    assert_eq!(items[14].data, b"b14".to_vec());
    assert_eq!(items[15].data, b"a15".to_vec());
    // Current state: all "b".
    let items = scan_current(&t, KeyRange::ALL, None, env.auth.as_ref()).unwrap();
    assert_eq!(items.len(), 30);
    assert!(items
        .iter()
        .enumerate()
        .all(|(i, it)| it.data == format!("b{i}").into_bytes()));
}

#[test]
fn scan_as_of_with_shared_history_after_key_splits() {
    // Build enough versions that pages both time-split and key-split,
    // then verify old states scan without duplicates or losses.
    let env = Env::new("sharedhist");
    let t = env.tree(20, true);
    let pad = "x".repeat(90);
    let n = 120u64;
    let mut tid = 0u64;
    let mut clock = 0u64;
    let stamp = |tid: &mut u64, clock: &mut u64| {
        *tid += 1;
        *clock += 1;
        (Tid(*tid), ts(*clock, 0))
    };
    for i in 0..n {
        let key = immortaldb_common::codec::key_from_u64(i);
        let (td, at) = stamp(&mut tid, &mut clock);
        t.insert(
            td,
            NULL_LSN,
            &key,
            format!("i{i}-{pad}").as_bytes(),
            env.auth.as_ref(),
        )
        .unwrap();
        env.auth.commit(td, at);
    }
    let t_after_insert = clock;
    for round in 0..6u64 {
        for i in 0..n {
            let key = immortaldb_common::codec::key_from_u64(i);
            let (td, at) = stamp(&mut tid, &mut clock);
            t.update(
                td,
                NULL_LSN,
                &key,
                format!("u{round}-{i}-{pad}").as_bytes(),
                env.auth.as_ref(),
            )
            .unwrap();
            env.auth.commit(td, at);
        }
    }
    let (tsplits, ksplits) = t.split_counts();
    assert!(
        tsplits > 0 && ksplits > 0,
        "want both split kinds: {tsplits}/{ksplits}"
    );
    // As of the end of the insert phase: every key with its "i" value,
    // exactly once.
    let items = scan_as_of(
        &t,
        KeyRange::ALL,
        ts(t_after_insert, 5),
        None,
        env.auth.as_ref(),
    )
    .unwrap();
    assert_eq!(items.len(), n as usize);
    let mut seen = std::collections::HashSet::new();
    for (i, item) in items.iter().enumerate() {
        assert!(seen.insert(item.key.clone()), "duplicate key in scan");
        assert_eq!(item.data, format!("i{i}-{pad}").into_bytes());
    }
    // As of round-3 completion.
    let t_round3 = t_after_insert + 4 * n;
    let items = scan_as_of(&t, KeyRange::ALL, ts(t_round3, 5), None, env.auth.as_ref()).unwrap();
    assert_eq!(items.len(), n as usize);
    for (i, item) in items.iter().enumerate() {
        assert_eq!(item.data, format!("u3-{i}-{pad}").into_bytes());
    }
}

#[test]
fn history_of_lists_all_versions_newest_first() {
    let env = Env::new("history");
    let t = env.tree(20, true);
    put(&t, &env, 1, b"k", b"v1", ts(1, 0)).unwrap();
    upd(&t, &env, 2, b"k", b"v2", ts(2, 0)).unwrap();
    t.delete(Tid(3), NULL_LSN, b"k", env.auth.as_ref()).unwrap();
    env.auth.commit(Tid(3), ts(3, 0));
    let h = history_of(&t, b"k", env.auth.as_ref()).unwrap();
    assert_eq!(h.len(), 3);
    assert_eq!(h[0].data, None); // stub
    assert_eq!(h[1].data, Some(b"v2".to_vec()));
    assert_eq!(h[2].data, Some(b"v1".to_vec()));
    assert!(h[0].ts.unwrap() > h[1].ts.unwrap());
}

#[test]
fn history_of_dedups_spanning_versions_across_splits() {
    let env = Env::new("histdedup");
    let t = env.tree(20, true);
    let pad = "y".repeat(48);
    put(&t, &env, 1, b"k", b"v0", ts(1, 0)).unwrap();
    for r in 1..=600u64 {
        upd(
            &t,
            &env,
            r + 1,
            b"k",
            format!("v{r}-{pad}").as_bytes(),
            ts(r + 1, 0),
        )
        .unwrap();
    }
    let (tsplits, _) = t.split_counts();
    assert!(tsplits >= 2, "got {tsplits} time splits");
    let h = history_of(&t, b"k", env.auth.as_ref()).unwrap();
    assert_eq!(
        h.len(),
        601,
        "each version exactly once despite redundant copies"
    );
    for w in h.windows(2) {
        assert!(w[0].ts.unwrap() > w[1].ts.unwrap());
    }
}

#[test]
fn update_trigger_stamps_prior_versions() {
    let env = Env::new("stamptrigger");
    let t = env.tree(20, true);
    t.insert(Tid(1), NULL_LSN, b"k", b"v1", env.auth.as_ref())
        .unwrap();
    env.auth.commit(Tid(1), ts(1, 0));
    assert_eq!(env.auth.stamped_count(Tid(1)), 0);
    // The update visits the chain and stamps the committed prior version.
    t.update(Tid(2), NULL_LSN, b"k", b"v2", env.auth.as_ref())
        .unwrap();
    assert_eq!(env.auth.stamped_count(Tid(1)), 1);
}

#[test]
fn read_trigger_stamps_chain_head() {
    let env = Env::new("readtrigger");
    let t = env.tree(20, true);
    t.insert(Tid(1), NULL_LSN, b"k", b"v1", env.auth.as_ref())
        .unwrap();
    env.auth.commit(Tid(1), ts(1, 0));
    let _ = get_current(&t, b"k", None, env.auth.as_ref()).unwrap();
    assert_eq!(env.auth.stamped_count(Tid(1)), 1);
    // Second read does not re-stamp.
    let _ = get_current(&t, b"k", None, env.auth.as_ref()).unwrap();
    assert_eq!(env.auth.stamped_count(Tid(1)), 1);
}

#[test]
fn unversioned_crud_and_splits() {
    let env = Env::new("unversioned");
    let t = env.tree(21, false);
    let val = vec![3u8; 200];
    for i in 0..400u64 {
        let key = immortaldb_common::codec::key_from_u64(i);
        t.u_insert(Tid(1), NULL_LSN, &key, &val).unwrap();
    }
    assert_eq!(t.u_count().unwrap(), 400);
    let key = immortaldb_common::codec::key_from_u64(123);
    assert_eq!(t.u_get(&key).unwrap(), Some(val.clone()));
    t.u_update(Tid(1), NULL_LSN, &key, b"new").unwrap();
    assert_eq!(t.u_get(&key).unwrap(), Some(b"new".to_vec()));
    t.u_delete(Tid(1), NULL_LSN, &key).unwrap();
    assert_eq!(t.u_get(&key).unwrap(), None);
    assert_eq!(t.u_count().unwrap(), 399);
    let items = u_scan(&t).unwrap();
    assert_eq!(items.len(), 399);
    for w in items.windows(2) {
        assert!(w[0].key < w[1].key);
    }
    assert!(matches!(
        t.u_insert(
            Tid(1),
            NULL_LSN,
            &immortaldb_common::codec::key_from_u64(0),
            &val
        ),
        Err(immortaldb_common::Error::DuplicateKey)
    ));
}

#[test]
fn record_size_limit_enforced() {
    let env = Env::new("toolarge");
    let t = env.tree(20, true);
    let huge = vec![0u8; crate::MAX_RECORD + 1];
    assert!(matches!(
        t.insert(Tid(1), NULL_LSN, b"k", &huge, env.auth.as_ref()),
        Err(immortaldb_common::Error::RecordTooLarge(_))
    ));
}

#[test]
fn leaves_with_bounds_are_ordered_separators() {
    let env = Env::new("bounds");
    let t = env.tree(20, true);
    let val = vec![9u8; 400];
    for i in 0..200u64 {
        let key = immortaldb_common::codec::key_from_u64(i);
        put(&t, &env, i + 1, &key, &val, ts(i + 1, 0)).unwrap();
    }
    let leaves = t.leaves_with_bounds().unwrap();
    assert!(leaves.len() > 1);
    assert!(leaves[0].low.is_empty(), "first leaf unbounded below");
    assert!(
        leaves.last().unwrap().upper.is_none(),
        "last unbounded above"
    );
    for w in leaves.windows(2) {
        assert!(w[0].low < w[1].low, "separators strictly increasing");
        assert_eq!(w[0].upper.as_ref(), Some(&w[1].low), "regions tile");
    }
    // Each leaf's first key >= its separator.
    for leaf in &leaves {
        let frame = env.pool.fetch(leaf.id).unwrap();
        let g = frame.read();
        if g.slot_count() > 0 {
            assert!(g.rec_key(g.slot(0)) >= leaf.low.as_slice());
        }
    }
}

/// Model-based check: random inserts/updates/deletes with a commit per
/// operation; AS OF answers must match an in-memory model at every
/// historical instant.
#[test]
fn model_check_as_of_queries() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let env = Env::new("model");
    let t = env.tree(20, true);
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    // model[time] = state after the operation at `time`.
    let mut state: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut snapshots: Vec<(u64, HashMap<u64, Vec<u8>>)> = Vec::new();
    let keyspace = 40u64;
    for step in 1..=1200u64 {
        let k = rng.gen_range(0..keyspace);
        let key = immortaldb_common::codec::key_from_u64(k);
        let tid = Tid(step);
        let at = ts(step, 0);
        match state.get(&k) {
            None => {
                let val = format!("v{step}").into_bytes();
                t.insert(tid, NULL_LSN, &key, &val, env.auth.as_ref())
                    .unwrap();
                state.insert(k, val);
            }
            Some(_) if rng.gen_bool(0.25) => {
                t.delete(tid, NULL_LSN, &key, env.auth.as_ref()).unwrap();
                state.remove(&k);
            }
            Some(_) => {
                let val = format!("v{step}").into_bytes();
                t.update(tid, NULL_LSN, &key, &val, env.auth.as_ref())
                    .unwrap();
                state.insert(k, val);
            }
        }
        env.auth.commit(tid, at);
        if step % 150 == 0 {
            snapshots.push((step, state.clone()));
        }
    }
    let (tsplits, ksplits) = t.split_counts();
    assert!(tsplits > 0, "model run must exercise time splits");
    let _ = ksplits;
    for (step, snap) in &snapshots {
        let as_of = ts(*step, 5);
        // Point queries for every key in the keyspace.
        for k in 0..keyspace {
            let key = immortaldb_common::codec::key_from_u64(k);
            let got = get_as_of(&t, &key, as_of, None, env.auth.as_ref()).unwrap();
            assert_eq!(got.as_ref(), snap.get(&k), "key {k} as of step {step}");
        }
        // Full scan must equal the model exactly.
        let items = scan_as_of(&t, KeyRange::ALL, as_of, None, env.auth.as_ref()).unwrap();
        assert_eq!(items.len(), snap.len(), "scan size as of step {step}");
        for item in items {
            let k = immortaldb_common::codec::u64_from_key(&item.key).unwrap();
            assert_eq!(Some(&item.data), snap.get(&k));
        }
    }
}

#[test]
fn own_writes_survive_concurrent_time_split() {
    // A transaction's own uncommitted write must stay visible to its
    // snapshot reads even after another writer forces a time split that
    // pushes the page's start time past the reader's snapshot.
    let env = Env::new("ownsplit");
    let t = env.tree(20, true);
    let pad = "z".repeat(60);
    // Established data + a snapshot point.
    for k in 0..20u64 {
        put(&t, &env, k + 1, &key_b(k), b"base", ts(k + 1, 0)).unwrap();
    }
    let snapshot = ts(20, 5);
    // Transaction 500 (snapshot = `snapshot`) writes key 3, uncommitted.
    t.update(Tid(500), NULL_LSN, &key_b(3), b"mine", env.auth.as_ref())
        .unwrap();
    // Other transactions hammer the same key range until a time split
    // happens (split time will exceed `snapshot`).
    let mut r = 0u64;
    loop {
        r += 1;
        let tid = 1000 + r;
        for k in 0..20u64 {
            if k == 3 {
                continue; // locked by txn 500 in a real engine
            }
            t.update(
                Tid(tid * 100 + k),
                NULL_LSN,
                &key_b(k),
                format!("v{r}-{pad}").as_bytes(),
                env.auth.as_ref(),
            )
            .unwrap();
            env.auth.commit(Tid(tid * 100 + k), ts(100 + r * 20 + k, 0));
        }
        let (tsplits, _) = t.split_counts();
        if tsplits > 0 || r > 50 {
            break;
        }
    }
    let (tsplits, _) = t.split_counts();
    assert!(tsplits > 0, "workload must force a time split");
    // Read-your-own-writes at the old snapshot.
    let got = get_as_of(&t, &key_b(3), snapshot, Some(Tid(500)), env.auth.as_ref()).unwrap();
    assert_eq!(got, Some(b"mine".to_vec()), "own write visible after split");
    // And through a scan.
    let items = scan_as_of(
        &t,
        KeyRange::ALL,
        snapshot,
        Some(Tid(500)),
        env.auth.as_ref(),
    )
    .unwrap();
    let mine = items
        .iter()
        .find(|i| i.key == key_b(3))
        .expect("key present");
    assert_eq!(mine.data, b"mine".to_vec());
    // Other keys still resolve to the snapshot-time state.
    let other = items.iter().find(|i| i.key == key_b(4)).expect("key 4");
    assert_eq!(other.data, b"base".to_vec());
}

fn key_b(k: u64) -> [u8; 8] {
    immortaldb_common::codec::key_from_u64(k)
}

/// A split logs its page images and then installs them one by one; the
/// first install, of the new history page, can evict. Were the split
/// leaf's old frame the victim, its write-back would log (page-image
/// logging is on) the image the split's record supersedes, after that
/// record, and redo would end on the full pre-split leaf. The pool is
/// kept over capacity and every other frame pinned, so every install of
/// a new page evicts and the old leaf is the only possible victim.
#[test]
fn a_split_never_logs_the_image_it_supersedes() {
    let env = Env::with_pool("splitpin", 8);
    env.pool.set_page_image_logging(true);
    let t = env.tree(31, true);
    let leaf = t.root();
    let _filler: Vec<_> = (0..8)
        .map(|_| env.pool.new_page(PageType::Leaf, 0, 0).unwrap())
        .collect();
    let val = [7u8; 200];
    let mut tid = 1;
    put(&t, &env, tid, b"k", &val, ts(1, 0)).unwrap();
    while t.split_counts() == (0, 0) {
        let pins: Vec<_> = (0..env.pool.disk().num_pages())
            .map(PageId)
            .filter(|id| *id != leaf)
            .filter_map(|id| env.pool.resident(id))
            .collect();
        tid += 1;
        upd(&t, &env, tid, b"k", &val, ts(tid, 0)).unwrap();
        drop(pins);
    }
    // No logged image may be older than a record already logged for its
    // page (a split's fresh images carry page LSN 0 and are exempt).
    let mut newest: HashMap<PageId, Lsn> = HashMap::new();
    for e in env.wal.iter_from(Lsn(0)).unwrap() {
        let e = e.unwrap();
        match &e.record {
            LogRecord::PageImages { pages } => {
                for (id, bytes) in pages {
                    let image = Page::from_bytes(bytes).unwrap();
                    let before = newest.get(id).copied().unwrap_or(NULL_LSN);
                    assert!(
                        image.page_lsn() == NULL_LSN || image.page_lsn() >= before,
                        "{id:?} logged at {:?} with page LSN {:?}, older than {before:?}",
                        e.lsn,
                        image.page_lsn()
                    );
                    newest.insert(*id, e.lsn);
                }
            }
            rec => {
                if let Some(id) = rec.target_page() {
                    newest.insert(id, e.lsn);
                }
            }
        }
    }
}
