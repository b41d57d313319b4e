//! The chain directory answers what the header walk answers.
//!
//! A chain-indexed table's `AS OF` reads seek the history page that
//! answers through a per-leaf directory of `(start_ts, page)` pairs
//! instead of walking the chain page by page. Each test drives a table
//! through time splits, key splits, compaction passes and page-id reuse
//! while a `History` records every commit, and holds every answer — point
//! reads, full and range scans, `VERSIONS BETWEEN` — against it. The last
//! test prices the seek: after one warming read per leaf, a resident
//! point read fetches at most one history page.

use std::sync::Arc;
use std::time::{Duration, Instant};

use immortaldb::temporal::{window_hi, window_lo};
use immortaldb::{Database, DbConfig, Durability, Isolation, Session, SimClock, Timestamp, Value};
use immortaldb_chaos::{History, TempDir, Version};
use immortaldb_net::{Server, ServerConfig};
use immortaldb_repl::{Replica, ReplicaConfig};

/// The row of `oid` written in round `seq`: a mostly-stable payload, so
/// history pages delta-pack and compaction has pages to merge.
fn row(oid: i32, seq: i32) -> Vec<Value> {
    let pad = format!("{seq:06}-{oid:03}-{}", "p".repeat(120));
    vec![Value::Int(oid), Value::Int(seq), Value::Varchar(pad)]
}

struct Table {
    db: Arc<Database>,
    clock: Arc<SimClock>,
    history: History,
    seq: i32,
    dir: TempDir,
}

fn open(dir: &TempDir, clock: &Arc<SimClock>) -> Arc<Database> {
    let cfg = DbConfig::new(dir.path())
        .durability(Durability::Buffered)
        .clock(Arc::clone(clock) as _);
    Arc::new(Database::open(cfg).unwrap())
}

impl Table {
    fn new(tag: &str) -> Table {
        let dir = TempDir::new(&format!("chain-directory-{tag}"));
        let clock = Arc::new(SimClock::new(7_000_000));
        let db = open(&dir, &clock);
        Session::new(&db)
            .execute("CREATE IMMORTAL TABLE deep (Oid INT PRIMARY KEY, Seq INT, Pad VARCHAR(160))")
            .unwrap();
        Table {
            db,
            clock,
            history: History::default(),
            seq: 0,
            dir,
        }
    }

    /// Close and recover: the directory starts empty, and reads walk.
    fn reopen(&mut self) {
        self.db.close().unwrap();
        self.db = open(&self.dir, &self.clock);
    }

    /// Insert `oids` in one transaction.
    fn insert(&mut self, oids: impl IntoIterator<Item = i32>) {
        self.clock.advance(20);
        let mut txn = self.db.begin(Isolation::Serializable);
        let rows: Vec<_> = oids.into_iter().map(|oid| (oid, row(oid, 0))).collect();
        for (_, r) in &rows {
            self.db.insert_row(&mut txn, "deep", r.clone()).unwrap();
        }
        let ts = self.db.commit(&mut txn).unwrap();
        for (oid, r) in rows {
            self.history.record(ts, oid, Some(r));
        }
    }

    /// One committed update of `oid`.
    fn update(&mut self, oid: i32) {
        self.clock.advance(20);
        self.seq += 1;
        let r = row(oid, self.seq);
        let mut txn = self.db.begin(Isolation::Serializable);
        self.db.update_row(&mut txn, "deep", r.clone()).unwrap();
        let ts = self.db.commit(&mut txn).unwrap();
        self.history.record(ts, oid, Some(r));
    }

    /// Update `oids` round-robin until the tree has taken `n` more time
    /// splits.
    fn update_until_time_splits(&mut self, oids: &[i32], n: u32) {
        let want = self.db.split_counts().0 + n;
        let mut i = 0;
        while self.db.split_counts().0 < want {
            self.update(oids[i % oids.len()]);
            i += 1;
            assert!(i < 100_000, "no time split after {i} updates");
        }
    }

    fn time_splits(&self) -> u32 {
        self.db.split_counts().0
    }
}

fn stat(db: &Database, name: &str) -> u64 {
    db.metrics_snapshot().get(name).unwrap_or(0)
}

/// Every `step`-th commit, and the last.
fn sampled(h: &History, step: usize) -> Vec<Timestamp> {
    let commits = h.commits();
    let mut ts: Vec<_> = commits.iter().step_by(step.max(1)).copied().collect();
    ts.extend(commits.last());
    ts
}

/// Point reads of `oids` at `times`.
fn check_points(db: &Database, h: &History, oids: &[i32], times: &[Timestamp], label: &str) {
    for &ts in times {
        let mut txn = db.begin_as_of_ts(ts);
        for &oid in oids {
            let got = db.get_row(&mut txn, "deep", &Value::Int(oid)).unwrap();
            h.check_point(oid, ts, got.as_deref()).expect(label);
        }
        db.rollback(&mut txn).unwrap();
    }
}

/// A full scan and the key range `[lo, hi)` as of `ts`.
fn check_scans(db: &Database, h: &History, ts: Timestamp, (lo, hi): (i32, i32), label: &str) {
    let mut s = Session::new(db);
    s.begin_as_of_ts(ts).unwrap();
    let all = s.execute("SELECT * FROM deep").unwrap().rows;
    h.check_scan(ts, |_| true, &all).expect(label);
    let sql = format!("SELECT * FROM deep WHERE Oid >= {lo} AND Oid < {hi}");
    let range = s.execute(&sql).unwrap().rows;
    h.check_scan(ts, |k| lo <= k && k < hi, &range)
        .expect(label);
    s.rollback().unwrap();
}

/// `VERSIONS BETWEEN` the ticks of `lo` and `hi`.
fn check_window(db: &Database, h: &History, lo: Timestamp, hi: Timestamp, label: &str) {
    let sql = format!(
        "SELECT * FROM deep VERSIONS BETWEEN ms({}) AND ms({})",
        lo.ttime, hi.ttime
    );
    let rows = Session::new(db).execute(&sql).unwrap().rows;
    let got: Vec<Version> = rows.iter().map(|r| Version::from_sql(r)).collect();
    h.check_versions(window_lo(lo.ttime), window_hi(hi.ttime), |_| true, &got)
        .expect(label);
}

/// Every kind of read over the whole history.
fn check_everything(t: &Table, label: &str) {
    let (db, h) = (&t.db, &t.history);
    let oids: Vec<i32> = h.keys().collect();
    let times = sampled(h, h.commits().len() / 60);
    check_points(db, h, &oids, &times, label);
    for &ts in times.iter().step_by(6) {
        let mid = oids[oids.len() / 2];
        check_scans(db, h, ts, (mid - 7, mid + 5), label);
    }
    let commits = h.commits();
    let n = commits.len();
    check_window(db, h, commits[0], commits[n - 1], label);
    check_window(db, h, commits[n / 3], commits[2 * n / 3], label);
}

/// Reads interleaved with the time splits of the leaf they read: each
/// round updates one key, then reads it and its neighbours at an earlier
/// commit, so each split heads the leaf's entry with its page over and
/// over; scans and windows come every few rounds. Half way, a reopen
/// empties the directory: from there reads walk, splits extend the
/// partial entries the walks leave, and later reads resume below them.
#[test]
fn reads_interleaved_with_time_splits_match_the_history() {
    let mut t = Table::new("interleaved");
    t.insert(0..12);
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |n: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % n as u64) as usize
    };
    let splits = t.time_splits();
    for round in 0..1_200 {
        if round == 600 {
            assert_eq!(
                stat(&t.db, "tree.chain_dir_builds"),
                0,
                "splits built it all"
            );
            t.reopen();
        }
        let oid = next(12) as i32;
        t.update(oid);
        let commits = t.history.commits();
        let ts = commits[next(commits.len())];
        let label = format!("round {round}");
        check_points(&t.db, &t.history, &[oid, (oid + 1) % 12], &[ts], &label);
        if round % 37 == 0 {
            check_scans(&t.db, &t.history, ts, (3, 9), &label);
            let lo = commits[next(commits.len())];
            check_window(&t.db, &t.history, lo.min(ts), lo.max(ts), &label);
        }
    }
    assert!(
        t.time_splits() > splits + 10,
        "the rounds must time-split the leaf they read"
    );
    // Each leaf's chain is walked about once: most reads walk nothing.
    let builds = stat(&t.db, "tree.chain_dir_builds");
    assert!(builds > 0 && builds < 200, "{builds} walks for 1,200 reads");
    check_everything(&t, "after the rounds");
}

/// A key split hands part of a leaf's keys to a new right leaf that
/// shares the history chain. The split copies the leaf's entry to it;
/// after a reopen there is none to copy, and its first read walks.
#[test]
fn the_first_read_of_a_key_split_right_leaf_finds_its_chain() {
    let mut t = Table::new("key-split");
    t.insert(0..20);
    let oids: Vec<i32> = (0..20).collect();
    t.update_until_time_splits(&oids, 4);
    assert_eq!(t.db.split_counts().1, 0, "one leaf so far");
    check_everything(&t, "one leaf");

    // Ascending inserts key-split the one leaf; the keys that move right
    // keep the history they had.
    let mut next_oid = 20;
    let mut key_split = |t: &mut Table| {
        let splits = t.db.split_counts().1;
        while t.db.split_counts().1 == splits {
            t.insert(next_oid..next_oid + 5);
            next_oid += 5;
        }
    };
    key_split(&mut t);
    check_everything(&t, "after the key split");
    assert_eq!(stat(&t.db, "tree.chain_dir_builds"), 0, "the split copied");

    t.reopen();
    key_split(&mut t);
    check_everything(&t, "after a key split on a cold directory");
    assert!(stat(&t.db, "tree.chain_dir_builds") > 0, "the reads walked");
}

/// Compaction rewrites and frees history pages, and a time split that
/// follows takes a freed id again: the directory is cleared, so no read
/// finds the merged-away page through an old entry, nor another leaf's
/// page under its id.
#[test]
fn compaction_and_page_reuse_leave_no_stale_entry() {
    let mut t = Table::new("reuse");
    // Forty keys fill one leaf: its first split sheds the history and
    // key-splits it. Left and right leaf start at the same time and
    // share the chain below.
    t.insert(0..40);
    let all: Vec<i32> = (0..40).collect();
    while t.db.split_counts().1 == 0 {
        t.update(all[t.seq as usize % all.len()]);
    }
    // Only the left leaf's keys change: it alone time-splits, twice. The
    // older of its two new pages starts where the right leaf starts, and
    // the pass merges it into the newer one.
    let left: Vec<i32> = (0..8).collect();
    t.update_until_time_splits(&left, 2);
    check_everything(&t, "before compaction");

    let stats = t.db.compact_history().unwrap();
    assert!(stats.pages_freed > 0, "nothing merged: {stats:?}");
    let free = t.db.history_stats().unwrap();

    // Reads that do not touch the left leaf's rewritten pages.
    let right: Vec<i32> = (32..40).collect();
    let times = sampled(&t.history, 7);
    check_points(&t.db, &t.history, &right, &times, "after compaction");
    let last = *t.history.commits().last().unwrap();
    check_scans(&t.db, &t.history, last, (30, 36), "after compaction");

    // The right leaf's time split takes the freed ids back.
    t.update_until_time_splits(&right, 1);
    let reused = t.db.history_stats().unwrap();
    assert!(
        reused.history_pages <= free.history_pages + 1,
        "the split should reuse a freed page: {free:?} -> {reused:?}"
    );
    check_everything(&t, "after reuse");
}

/// A replica clears its directory with every applied batch, so a
/// compaction it applies cannot leave it reading merged-away pages.
#[test]
fn a_replica_applying_a_compaction_reads_what_the_primary_committed() {
    let mut t = Table::new("replica-primary");
    t.insert(0..40);
    let all: Vec<i32> = (0..40).collect();
    t.update_until_time_splits(&all, 2);
    let left: Vec<i32> = (0..8).collect();
    t.update_until_time_splits(&left, 4);

    let server = Server::start(
        Arc::clone(&t.db),
        ServerConfig::new("127.0.0.1:0").workers(2),
    )
    .unwrap();
    let follower = TempDir::new("chain-directory-replica");
    let replica = Replica::start(ReplicaConfig::new(
        follower.path(),
        server.local_addr().to_string(),
    ))
    .unwrap();
    let caught_up = |t: &Table| {
        let last = *t.history.commits().last().unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while replica.db().visible_horizon() < last {
            assert!(Instant::now() < deadline, "replica never reached {last:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    let oids: Vec<i32> = t.history.keys().collect();
    caught_up(&t);
    // Warm the replica's directory over the whole history.
    check_points(
        replica.db(),
        &t.history,
        &oids,
        &sampled(&t.history, 5),
        "replica before",
    );

    let stats = t.db.compact_history().unwrap();
    assert!(stats.pages_freed > 0, "nothing merged: {stats:?}");
    t.update(39); // a commit behind the compaction, to wait for
    caught_up(&t);
    check_points(
        replica.db(),
        &t.history,
        &oids,
        &sampled(&t.history, 5),
        "replica after compaction",
    );
    let right: Vec<i32> = (32..40).collect();
    t.update_until_time_splits(&right, 1);
    caught_up(&t);
    check_points(
        replica.db(),
        &t.history,
        &oids,
        &sampled(&t.history, 5),
        "replica after reuse",
    );

    replica.stop();
    server.shutdown().unwrap();
}

/// At depth 1,000 a warm, resident point read fetches at most one
/// history page: the directory names it, the walk is gone. The reopen
/// empties the directory, so the warming read walks the whole chain.
#[test]
fn a_warm_point_read_fetches_at_most_one_history_page_at_depth_1000() {
    const KEYS: i32 = 4;
    let mut t = Table::new("depth");
    t.insert(0..KEYS);
    for _ in 0..1_000 {
        for oid in 0..KEYS {
            t.update(oid);
        }
    }
    t.reopen();
    let times = sampled(&t.history, 13);
    let oldest = [t.history.commits()[0]];
    // One warming read per leaf (every key lives on the one leaf here;
    // reading each is no more than that).
    let oids: Vec<i32> = (0..KEYS).collect();
    check_points(&t.db, &t.history, &oids, &oldest, "warming");
    let (hops, builds) = (
        stat(&t.db, "tree.asof_hops"),
        stat(&t.db, "tree.chain_dir_builds"),
    );
    check_points(&t.db, &t.history, &oids, &times, "warm");
    let reads = (times.len() * oids.len()) as u64;
    let fetched = stat(&t.db, "tree.asof_hops") - hops;
    assert!(
        fetched <= reads,
        "{fetched} history pages fetched for {reads} warm reads"
    );
    assert_eq!(stat(&t.db, "tree.chain_dir_builds"), builds, "no rebuilds");
    assert!(
        t.db.history_stats().unwrap().history_pages > 20,
        "the chain must be deep for this to say anything"
    );
}
