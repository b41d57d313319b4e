//! The key × time cursor against brute force.
//!
//! A deterministic history with deletes and re-inserts
//! (`mobgen::temporal_history`, rows padded so pages fill) is replayed
//! until leaves have time-split and key-split — sibling leaves then share
//! the history pages carved off before their split. Random key × time
//! boxes are checked three ways: the bounded read must equal (a) the
//! answer of the `History` every commit is recorded in and (b) the
//! unbounded walk filtered afterwards; and (c) it must *cost what it
//! touches* — `buffer.fetches` proportional to the covering leaves'
//! chains, with the push-down visible in `temporal.pushdown_*`. The
//! boxes are re-checked after `compact_history` has merged history pages,
//! and inside a snapshot transaction holding uncommitted writes of its
//! own; before any box, every committed version must be readable at its
//! own timestamp.
//!
//! A second battery checks that a scan is *resumable*: forced to stop
//! every `k` rows and re-enter the cursor after the last key it sent — as
//! a result streamed to a client in chunks does — it yields exactly the
//! one-shot sequence, also when a writer splits the scanned leaves in
//! time and by key between two chunks. That holds for `SELECT`, `VERSIONS
//! BETWEEN`, `DIFF` and `HISTORY OF` alike, and the two window
//! statements *stream*: their first pause comes before they have spent
//! the `buffer.fetches` of the whole run. Resuming is also cheap: over 25
//! chunks a window costs at most twice the fetches of one walk.
//!
//! A third replays a shape with many keys and many commits to a clock
//! tick: every version must be readable at its own timestamp there too,
//! and `AS OF` scans must resume where they stopped.

use std::cmp::Ordering;
use std::sync::Arc;

use immortaldb::row::{decode_image_into, encode_key};
use immortaldb::temporal::fold_diff;
use immortaldb::{
    Database, DbConfig, DiffRow, Flow, Isolation, PkBounds, RowSink, Session, SimClock,
    TemporalVersion, Transaction, Value,
};
use immortaldb_chaos::{Change, History, TempDir, Version};
use immortaldb_common::{Error, Result, Timestamp};
use immortaldb_mobgen::{temporal_history, TemporalOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OBJECTS: u32 = 60;
const STEPS: u32 = 2_400;
const TABLE: &str = "obj";

struct Fixture {
    db: Arc<Database>,
    clock: Arc<SimClock>,
    history: History,
    _dir: TempDir,
}

fn row(oid: i32, x: i32, y: i32) -> Vec<Value> {
    // The padding makes a version ~200 bytes, so a leaf holds a few
    // dozen and the history splits pages in both dimensions.
    let pad = format!("{:0>170}", x as i64 * 31 + y as i64);
    vec![
        Value::Int(oid),
        Value::Int(x),
        Value::Int(y),
        Value::Varchar(pad),
    ]
}

fn oid(row: &[Value]) -> i32 {
    match row[0] {
        Value::Int(oid) => oid,
        ref other => panic!("unexpected key {other:?}"),
    }
}

fn build(tag: &str, seed: u64, objects: u32, steps: u32) -> Fixture {
    let dir = TempDir::new(&format!("cursor-eq-{tag}"));
    let clock = Arc::new(SimClock::new(7_000_000));
    let mut cfg = DbConfig::new(&dir).clock(clock.clone());
    // Nothing here waits for a lock it can get: a writer held off by a
    // scan's table lock should find out soon.
    cfg.lock_timeout = std::time::Duration::from_millis(40);
    let db = Arc::new(Database::open(cfg).unwrap());
    let ddl = format!(
        "CREATE IMMORTAL TABLE {TABLE} (Oid INT PRIMARY KEY, X INT, Y INT, Pad VARCHAR(200))"
    );
    Session::new(&db).execute(&ddl).unwrap();
    let mut fx = Fixture {
        db,
        clock,
        history: History::default(),
        _dir: dir,
    };
    // Transactions of up to five operations on distinct oids.
    let ops = temporal_history(seed, objects, steps);
    let mut i = 0;
    while i < ops.len() {
        let mut batch: Vec<TemporalOp> = Vec::new();
        while i < ops.len() && batch.len() < 5 && !batch.iter().any(|o| o.oid() == ops[i].oid()) {
            batch.push(ops[i]);
            i += 1;
        }
        fx.commit(&batch);
    }
    let (time_splits, key_splits) = fx.db.split_counts();
    assert!(time_splits > 10, "history must time-split ({time_splits})");
    assert!(key_splits > 2, "history must key-split ({key_splits})");
    fx
}

impl Fixture {
    fn commit(&mut self, batch: &[TemporalOp]) {
        let db = &self.db;
        let mut txn = db.begin(Isolation::Serializable);
        apply(db, &mut txn, batch);
        let ts = db.commit(&mut txn).unwrap();
        for op in batch {
            match *op {
                TemporalOp::Insert { oid, x, y } | TemporalOp::Update { oid, x, y } => {
                    let oid = oid as i32;
                    self.history.record(ts, oid, Some(row(oid, x, y)))
                }
                TemporalOp::Delete { oid } => self.history.record(ts, oid as i32, None),
            }
        }
        self.clock.advance(20);
    }

    /// A random box: key bounds of every shape, a window between two
    /// commit timestamps (sometimes one instant, sometimes off a commit).
    fn random_box(&self, rng: &mut StdRng) -> (Keys, Timestamp, Timestamp) {
        let schema = &self.db.table(TABLE).unwrap().schema;
        let keys = Keys::random(schema, rng);
        let pick = |rng: &mut StdRng| {
            let commits = self.history.commits();
            let ts = commits[rng.gen_range(0..commits.len())];
            match rng.gen_range(0..4) {
                0 => Timestamp::new(ts.ttime, ts.sn + 1),
                1 if ts.sn > 0 => Timestamp::new(ts.ttime, ts.sn - 1),
                _ => ts,
            }
        };
        let (a, b) = (pick(rng), pick(rng));
        (
            keys,
            a.min(b),
            if rng.gen_range(0..5) == 0 {
                a.min(b)
            } else {
                a.max(b)
            },
        )
    }
}

fn apply(db: &Database, txn: &mut Transaction, batch: &[TemporalOp]) {
    for op in batch {
        match *op {
            TemporalOp::Insert { oid, x, y } => db.insert_row(txn, TABLE, row(oid as i32, x, y)),
            TemporalOp::Update { oid, x, y } => db.update_row(txn, TABLE, row(oid as i32, x, y)),
            TemporalOp::Delete { oid } => db.delete_row(txn, TABLE, &Value::Int(oid as i32)),
        }
        .unwrap();
    }
}

/// Primary-key bounds plus a way to test an oid against them.
struct Keys(PkBounds);

impl Keys {
    fn random(schema: &immortaldb::Schema, rng: &mut StdRng) -> Keys {
        let mut b = PkBounds::all();
        let oid = |rng: &mut StdRng| Value::Int(rng.gen_range(-3..OBJECTS as i32 + 3));
        match rng.gen_range(0..6) {
            0 => b = PkBounds::point(schema, &oid(rng)).unwrap(),
            1 => {}
            shape => {
                let (lo, width) = (rng.gen_range(-3..OBJECTS as i32), rng.gen_range(0..25));
                if shape != 2 {
                    let incl = rng.gen_range(0..2) == 0;
                    b.tighten(schema, Ordering::Greater, incl, &Value::Int(lo))
                        .unwrap();
                }
                if shape != 3 {
                    let incl = rng.gen_range(0..2) == 0;
                    b.tighten(schema, Ordering::Less, incl, &Value::Int(lo + width))
                        .unwrap();
                }
            }
        }
        Keys(b)
    }

    fn holds(&self, oid: i32) -> bool {
        let key = encode_key(&Value::Int(oid)).unwrap();
        self.0.as_range().contains(&key)
    }

    fn holds_key(&self, key: &[u8]) -> bool {
        self.0.as_range().contains(key)
    }
}

fn rows_in(db: &Database, txn: &mut Transaction, keys: &Keys) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    let def = db.table(TABLE).unwrap();
    db.visit_rows(txn, &def, &keys.0, |_, image| {
        rows.push(def.schema.decode_row(image)?);
        Ok(Flow::Continue)
    })
    .unwrap();
    rows
}

/// The window `[lo, hi]` of `keys` as `VERSIONS BETWEEN` and `DIFF` see
/// it, from one walk of the engine's temporal cursor: the versions inside
/// the window, and each key's group folded into its net change.
fn window_in(
    db: &Database,
    keys: &PkBounds,
    lo: Timestamp,
    hi: Timestamp,
) -> (Vec<TemporalVersion>, Vec<DiffRow>) {
    let (def, lo, hi) = db.temporal_window(TABLE, lo, hi).unwrap();
    let (mut versions, mut diff) = (Vec::new(), Vec::new());
    db.visit_versions(&def, keys, lo, hi, &mut |group| {
        versions.extend(group.iter().filter_map(|v| TemporalVersion::within(&v, lo)));
        diff.extend(fold_diff(group, lo));
        Ok(Flow::Continue)
    })
    .unwrap();
    (versions, diff)
}

/// One box, three oracles.
fn check_box(fx: &Fixture, keys: &Keys, lo: Timestamp, hi: Timestamp, ctx: &str) {
    let (db, h) = (&fx.db, &fx.history);
    let holds = |oid| keys.holds(oid);
    // -- the window: VERSIONS BETWEEN and DIFF ------------------------------
    let (versions, diff) = window_in(db, &keys.0, lo, hi);
    let (mut all_versions, mut all_diff) = window_in(db, &PkBounds::all(), lo, hi);
    assert_eq!(
        all_versions,
        db.versions_between(TABLE, lo, hi).unwrap(),
        "{ctx}: the walk vs the collected window"
    );
    all_versions.retain(|v| keys.holds_key(&v.key));
    assert_eq!(
        versions, all_versions,
        "{ctx}: versions vs filtered full walk"
    );
    let schema = &db.table(TABLE).unwrap().schema;
    let got: Vec<Version> = versions
        .iter()
        .map(|v| Version::decode(schema, v))
        .collect();
    h.check_versions(lo, hi, holds, &got).expect(ctx);

    all_diff.retain(|d| keys.holds_key(&d.key));
    assert_eq!(diff, all_diff, "{ctx}: diff vs filtered full fold");
    let got: Vec<Change> = diff.iter().map(|d| Change::decode(schema, d)).collect();
    h.check_diff(lo, hi, holds, &got).expect(ctx);

    // -- the instant: AS OF scans and point reads ---------------------------
    let mut txn = db.begin_as_of_ts(lo);
    let bounded = rows_in(db, &mut txn, keys);
    let mut filtered = rows_in(db, &mut txn, &Keys(PkBounds::all()));
    filtered.retain(|r| keys.holds(oid(r)));
    assert_eq!(bounded, filtered, "{ctx}: AS OF scan vs filtered full scan");
    h.check_scan(lo, holds, &bounded).expect(ctx);
    db.commit(&mut txn).unwrap();

    // -- one key, all time: HISTORY OF ---------------------------------------
    let oid = (lo.ttime % (OBJECTS as u64 + 2)) as i32 - 1;
    let listing = db.history_rows(TABLE, &Value::Int(oid)).unwrap();
    h.check_history(oid, &listing).expect(ctx);
}

fn check_boxes(fx: &Fixture, seed: u64, rounds: usize, phase: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..rounds {
        let (keys, lo, hi) = fx.random_box(&mut rng);
        let ctx = format!("{phase} box {round}: {:?} × [{lo:?}, {hi:?}]", keys.0);
        check_box(fx, &keys, lo, hi, &ctx);
    }
}

/// A snapshot transaction with uncommitted writes of its own, whose
/// leaves time-split under it (its snapshot then predates their start,
/// while its writes stay in them): bounded reads must still equal the
/// filtered full scan and the committed state overlaid with its writes.
fn check_own_writes(fx: &mut Fixture, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = fx.db.clone();
    let mut snap = db.begin(Isolation::Snapshot);
    let mut expect = fx.history.state_at(Timestamp::MAX);
    let mut mine = Vec::new();
    for oid in (0..OBJECTS as i32).step_by(3) {
        let op = match (expect.contains_key(&oid), rng.gen_range(0..3)) {
            (false, _) => TemporalOp::Insert {
                oid: oid as u32,
                x: -oid,
                y: 1,
            },
            (true, 0) => TemporalOp::Delete { oid: oid as u32 },
            (true, _) => TemporalOp::Update {
                oid: oid as u32,
                x: -oid,
                y: 2,
            },
        };
        match op {
            TemporalOp::Delete { .. } => expect.remove(&oid),
            TemporalOp::Insert { x, y, .. } | TemporalOp::Update { x, y, .. } => {
                expect.insert(oid, row(oid, x, y))
            }
        };
        mine.push(op);
    }
    apply(&db, &mut snap, &mine);
    // Other transactions churn the keys in between until leaves split.
    let (splits_before, _) = db.split_counts();
    let mut x = 0;
    while db.split_counts().0 < splits_before + 6 {
        let others: Vec<TemporalOp> = (0..OBJECTS)
            .filter(|oid| {
                let alive = fx.history.row_at(*oid as i32, Timestamp::MAX).is_some();
                oid % 3 == 1 && alive
            })
            .take(5)
            .map(|oid| TemporalOp::Update { oid, x, y: 9 })
            .collect();
        fx.commit(&others);
        x += 1;
    }
    for round in 0..40 {
        let keys = Keys::random(&db.table(TABLE).unwrap().schema, &mut rng);
        let bounded = rows_in(&db, &mut snap, &keys);
        let mut filtered = rows_in(&db, &mut snap, &Keys(PkBounds::all()));
        filtered.retain(|r| keys.holds(oid(r)));
        assert_eq!(bounded, filtered, "own writes, box {round} {:?}", keys.0);
        let want: Vec<_> = expect
            .iter()
            .filter(|(oid, _)| keys.holds(**oid))
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(
            bounded, want,
            "own writes vs the model, box {round} {:?}",
            keys.0
        );
    }
    db.rollback(&mut snap).unwrap();
}

fn battery(tag: &str, seed: u64) {
    let mut fx = build(tag, seed, OBJECTS, STEPS);
    fx.history
        .check_own_timestamps(&fx.db, TABLE)
        .expect("every version at its own commit timestamp");
    check_boxes(&fx, seed ^ 1, 60, "after splits");
    merge_history(&mut fx);
    check_boxes(&fx, seed ^ 2, 60, "after compact_history");
    check_own_writes(&mut fx, seed ^ 3);
}

/// Rewrite one object's row unchanged until its leaf has time-split a
/// few times: the versions delta-pack to a few bytes each, so the history
/// pages carved off hold a fraction of a page, and one compaction pass
/// must merge them.
fn merge_history(fx: &mut Fixture) {
    let hot = (0..OBJECTS)
        .find(|oid| fx.history.row_at(*oid as i32, Timestamp::MAX).is_some())
        .expect("a live object");
    let (splits_before, _) = fx.db.split_counts();
    while fx.db.split_counts().0 < splits_before + 4 {
        fx.commit(&[TemporalOp::Update {
            oid: hot,
            x: 7,
            y: 7,
        }]);
    }
    let stats = fx.db.compact_history().unwrap();
    assert!(
        stats.pages_freed > 0,
        "compaction must merge pages: {stats:?}"
    );
}

#[test]
fn chain_cursor_equals_brute_force() {
    battery("chain-a", 11);
    battery("chain-b", 12);
}

// -- cost what you touch ------------------------------------------------------

fn fetches(db: &Database) -> u64 {
    db.metrics().buffer.fetches.get()
}

/// `buffer.fetches` spent by `f`.
fn fetch_cost<R>(db: &Database, f: impl FnOnce() -> R) -> (u64, R) {
    let before = fetches(db);
    let out = f();
    (fetches(db) - before, out)
}

#[test]
fn keyed_temporal_reads_cost_what_they_touch() {
    let fx = build("cost", 21, 4 * OBJECTS, 3 * STEPS);
    let db = &fx.db;
    // Stamp everything so no read resolves a timestamp through PTT pages.
    db.vacuum().unwrap();
    let schema = db.table(TABLE).unwrap().schema.clone();
    let commits = fx.history.commits();
    let oldest = commits[0];
    let (lo, hi) = (commits[commits.len() / 2], *commits.last().unwrap());
    let point_read = |oid: i32, ts: Timestamp| {
        let mut txn = db.begin_as_of_ts(ts);
        let cost = fetch_cost(db, || {
            db.get_row(&mut txn, TABLE, &Value::Int(oid)).unwrap()
        })
        .0;
        db.commit(&mut txn).unwrap();
        cost
    };
    let pushed = |name: &str| db.metrics_snapshot().get(name).unwrap();

    // A single-key window over all of history reads its leaf's whole
    // chain: the descent plus one fetch per chain page.
    let oid = 17;
    let key = PkBounds::point(&schema, &Value::Int(oid)).unwrap();
    let (whole_chain, _) = fetch_cost(db, || window_in(db, &key, oldest, hi));
    assert!(whole_chain > 8, "deep history expected, got {whole_chain}");
    // A point read at the oldest time fetches only the page the chain
    // directory names, not the chain above it.
    let oldest_point = point_read(oid, oldest);
    assert!(
        oldest_point * 2 < whole_chain,
        "point read at the oldest time: {oldest_point} fetches, chain {whole_chain}"
    );

    // Single-key VERSIONS BETWEEN over half the history: within that.
    let (points, nones) = (
        pushed("temporal.pushdown_point"),
        pushed("temporal.pushdown_none"),
    );
    let (keyed, (versions, _)) = fetch_cost(db, || window_in(db, &key, lo, hi));
    assert!(!versions.is_empty());
    assert!(
        keyed <= whole_chain,
        "single-key window: {keyed} fetches > chain + height {whole_chain}"
    );
    let (unkeyed, _) = fetch_cost(db, || db.versions_between(TABLE, lo, hi).unwrap());
    assert!(
        keyed * 4 < unkeyed,
        "keyed {keyed} vs whole-table {unkeyed}"
    );
    assert_eq!(pushed("temporal.pushdown_point"), points + 1);
    assert_eq!(pushed("temporal.pushdown_none"), nones + 1);

    // The same through SQL: the planner must push `Oid = k` down.
    let mut s = Session::new(db);
    let sql = format!(
        "SELECT * FROM {TABLE} VERSIONS BETWEEN ms({}) AND ms({}) WHERE Oid = {oid} AND X >= 0",
        lo.ttime, hi.ttime
    );
    let (via_sql, r) = fetch_cost(db, || s.execute(&sql).unwrap());
    assert!(!r.rows.is_empty());
    assert!(via_sql <= whole_chain, "SQL window: {via_sql} fetches");
    assert_eq!(pushed("temporal.pushdown_point"), points + 2);

    // A keyed AS OF range touches only the covering leaves' chains: no
    // more than reading each of its keys alone, far less than the table.
    let range = 10..22;
    s.begin_as_of_ts(lo).unwrap();
    let ranges = pushed("temporal.pushdown_range");
    let sql = format!(
        "SELECT * FROM {TABLE} WHERE Oid >= {} AND Oid < {}",
        range.start, range.end
    );
    let (ranged, r) = fetch_cost(db, || s.execute(&sql).unwrap());
    assert_eq!(pushed("temporal.pushdown_range"), ranges + 1);
    let (full, all) = fetch_cost(db, || s.execute(&format!("SELECT * FROM {TABLE}")).unwrap());
    s.commit().unwrap();
    let alive = fx.history.state_at(lo);
    assert_eq!(
        r.rows.len(),
        range.clone().filter(|o| alive.contains_key(o)).count()
    );
    assert_eq!(all.rows.len(), alive.len());
    let one_by_one: u64 = range.map(|oid| point_read(oid, lo)).sum();
    assert!(
        ranged <= one_by_one,
        "range {ranged} vs point reads {one_by_one}"
    );
    assert!(ranged * 4 < full, "range {ranged} vs full scan {full}");

    // UPDATE and DELETE find their rows through the same bounds.
    let (ranges, nones) = (
        pushed("temporal.pushdown_range"),
        pushed("temporal.pushdown_none"),
    );
    s.execute(&format!(
        "UPDATE {TABLE} SET Y = 5 WHERE Oid > 40 AND Oid <= 44"
    ))
    .unwrap();
    s.execute(&format!("DELETE FROM {TABLE} WHERE Oid >= 238"))
        .unwrap();
    assert_eq!(pushed("temporal.pushdown_range"), ranges + 2);
    s.execute(&format!("UPDATE {TABLE} SET Y = 6 WHERE X = 123456"))
        .unwrap();
    assert_eq!(pushed("temporal.pushdown_none"), nones + 1);
}

// -- resumable scans ------------------------------------------------------------

/// A sink that is full after every `k` rows, and runs `between` while the
/// scan is paused — where the server writes a chunk to its socket.
struct EveryK<'a> {
    k: usize,
    /// Rows until it is full again.
    room: usize,
    ncols: usize,
    rows: Vec<Vec<Value>>,
    flushes: usize,
    between: &'a mut dyn FnMut(),
}

impl RowSink for EveryK<'_> {
    fn columns(&mut self, names: Vec<String>) -> Result<()> {
        self.ncols = names.len();
        Ok(())
    }

    fn row(&mut self, image: &[u8]) -> Result<Flow> {
        let mut row = Vec::new();
        decode_image_into(image, self.ncols, &mut row)?;
        self.rows.push(row);
        self.room -= 1;
        Ok(if self.room == 0 {
            self.room = self.k;
            Flow::Stop
        } else {
            Flow::Continue
        })
    }

    fn flush(&mut self) -> Result<()> {
        self.flushes += 1;
        (self.between)();
        Ok(())
    }
}

/// `sql` run to the end in one go, then again stopping every `k` rows
/// with `between` run at every stop: the same rows in the same order.
fn resumed_equals_one_shot(s: &mut Session<'_>, sql: &str, k: usize, between: &mut dyn FnMut()) {
    let one_shot = s.execute(sql).unwrap();
    let mut sink = EveryK {
        k,
        room: k,
        ncols: 0,
        rows: Vec::new(),
        flushes: 0,
        between,
    };
    let done = s.execute_into(sql, &mut sink).unwrap();
    assert_eq!(sink.rows, one_shot.rows, "{sql}, stopping every {k}");
    assert_eq!(done.message, one_shot.message);
    assert_eq!(sink.flushes, one_shot.rows.len() / k, "{sql}");
}

/// Run `sql` whole, then again stopping every `k` rows: the first pause
/// must come before the statement has spent the `buffer.fetches` of the
/// whole run — it sends rows as its walk finds them instead of reading
/// its whole result first.
fn pauses_before_reading_everything(s: &mut Session<'_>, db: &Database, sql: &str, k: usize) {
    let (whole, one_shot) = fetch_cost(db, || s.execute(sql).unwrap());
    assert!(one_shot.rows.len() > 2 * k, "{sql}: too few rows to pause");
    let first_pause = std::cell::Cell::new(None);
    let mut between = || {
        if first_pause.get().is_none() {
            first_pause.set(Some(fetches(db)));
        }
    };
    let mut sink = EveryK {
        k,
        room: k,
        ncols: 0,
        rows: Vec::new(),
        flushes: 0,
        between: &mut between,
    };
    let start = fetches(db);
    s.execute_into(sql, &mut sink).unwrap();
    assert_eq!(sink.rows, one_shot.rows, "{sql}");
    let before_pause = first_pause.get().expect("the sink filled up") - start;
    assert!(
        before_pause < whole,
        "{sql}: {before_pause} fetches before the first pause, {whole} for the whole run"
    );
}

/// A random primary-key predicate of every shape `Keys::random` has.
fn random_predicate(rng: &mut StdRng) -> String {
    let (lo, width) = (rng.gen_range(-3..OBJECTS as i32), rng.gen_range(0..25));
    let (ge, le) = (
        if rng.gen_range(0..2) == 0 { ">=" } else { ">" },
        if rng.gen_range(0..2) == 0 { "<=" } else { "<" },
    );
    match rng.gen_range(0..6) {
        0 => format!(" WHERE Oid = {lo}"),
        1 => String::new(),
        2 => format!(" WHERE Oid {le} {}", lo + width),
        3 => format!(" WHERE Oid {ge} {lo}"),
        // A bound the index cannot take goes along for the ride.
        4 => format!(
            " WHERE Oid {ge} {lo} AND Oid {le} {} AND X >= 0",
            lo + width
        ),
        _ => format!(" WHERE Oid {ge} {lo} AND Oid {le} {}", lo + width),
    }
}

fn resume_battery(tag: &str, seed: u64) {
    let mut fx = build(tag, seed, OBJECTS, STEPS);
    let db = fx.db.clone();
    let mut s = Session::new(&db);
    let mut rng = StdRng::seed_from_u64(seed ^ 5);
    let splits_before = db.split_counts();
    // The writer: between two chunks it revives dead objects, moves live
    // ones and adds new ones past the right edge, five to a commit, so
    // the leaves under the scan fill up and split both ways.
    let mut fresh = 1_000;
    let mut write = |fx: &mut Fixture| {
        let now = fx.history.state_at(Timestamp::MAX);
        let dead = (0..OBJECTS).filter(|o| !now.contains_key(&(*o as i32)));
        let mut batch: Vec<TemporalOp> = dead
            .take(2)
            .map(|oid| TemporalOp::Insert { oid, x: 1, y: 1 })
            .collect();
        batch.push(TemporalOp::Insert {
            oid: fresh,
            x: 2,
            y: 2,
        });
        fresh += 1;
        let moved = now.keys().skip(fresh as usize % 7).step_by(9).take(2);
        batch.extend(moved.map(|&oid| TemporalOp::Update {
            oid: oid as u32,
            x: fresh as i32,
            y: 3,
        }));
        fx.commit(&batch);
    };
    // HISTORY OF pauses on a key with more versions than the largest k.
    let deep = 7;
    while fx.history.history_of(deep).len() <= 64 {
        let n = fx.history.history_of(deep).len() as i32;
        let (x, y) = (n, -n);
        let alive = fx.history.state_at(Timestamp::MAX).contains_key(&deep);
        let oid = deep as u32;
        fx.commit(&[if alive {
            TemporalOp::Update { oid, x, y }
        } else {
            TemporalOp::Insert { oid, x, y }
        }]);
    }
    let history = format!("HISTORY OF {TABLE} WHERE Oid = {deep}");
    for round in 0..24 {
        let predicate = random_predicate(&mut rng);
        let (_, lo, hi) = fx.random_box(&mut rng);
        let select = format!("SELECT * FROM {TABLE}{predicate}");
        // Every third round the scans run undisturbed; in the others the
        // writer commits in the first few pauses of each scan.
        let writing = round % 3 != 0;
        for k in [1, 7, 64] {
            let pauses = std::cell::Cell::new(0);
            let mut between = || {
                pauses.set(pauses.get() + 1);
                if writing && pauses.get() <= 4 {
                    write(&mut fx)
                }
            };
            // The state at one instant.
            s.begin_as_of_ts(lo).unwrap();
            resumed_equals_one_shot(&mut s, &select, k, &mut between);
            s.commit().unwrap();
            // A snapshot, with a write of its own in it.
            pauses.set(0);
            s.begin(Isolation::Snapshot).unwrap();
            let own = format!("UPDATE {TABLE} SET Y = -1 WHERE Oid = 30");
            s.execute(&own).unwrap();
            resumed_equals_one_shot(&mut s, &select, k, &mut between);
            s.rollback().unwrap();
            // A window of history.
            pauses.set(0);
            let window = format!(
                "SELECT Oid, X FROM {TABLE} VERSIONS BETWEEN ms({}) AND ms({}){predicate}",
                lo.ttime, hi.ttime
            );
            resumed_equals_one_shot(&mut s, &window, k, &mut between);
            // The net change between two instants, which takes only
            // primary-key conditions.
            pauses.set(0);
            let diff = format!(
                "DIFF TABLE {TABLE} BETWEEN ms({}) AND ms({}){}",
                lo.ttime,
                hi.ttime,
                predicate.replace(" AND X >= 0", "")
            );
            resumed_equals_one_shot(&mut s, &diff, k, &mut between);
            // One key's every version, newest first.
            pauses.set(0);
            resumed_equals_one_shot(&mut s, &history, k, &mut between);
        }
    }
    // Both temporal statements stream: over a window that changes keys
    // everywhere, the first chunk leaves before the whole walk is read.
    let commits = fx.history.commits();
    let (lo, hi) = (commits[commits.len() / 4], *commits.last().unwrap());
    for sql in [
        format!(
            "DIFF TABLE {TABLE} BETWEEN ms({}) AND ms({})",
            lo.ttime, hi.ttime
        ),
        format!(
            "SELECT * FROM {TABLE} VERSIONS BETWEEN ms({}) AND ms({})",
            lo.ttime, hi.ttime
        ),
    ] {
        pauses_before_reading_everything(&mut s, &db, &sql, 7);
    }
    let (time_splits, key_splits) = db.split_counts();
    assert!(
        time_splits > splits_before.0 + 10 && key_splits > splits_before.1,
        "the writer split too little: {splits_before:?} -> {:?}",
        (time_splits, key_splits)
    );

    // Serializable: the scan's table lock is held from chunk to chunk, so
    // a writer gets nowhere while the scan is paused — and through once
    // it is over.
    let select = format!("SELECT * FROM {TABLE}");
    for k in [1, 7, 64] {
        let mut refused = 0;
        let mut between = || {
            if refused == 0 {
                let mut writer = db.begin(Isolation::Serializable);
                let blocked = db.update_row(&mut writer, TABLE, row(1_000, 0, 0));
                assert!(matches!(blocked, Err(Error::Deadlock(_))), "{blocked:?}");
                db.rollback(&mut writer).unwrap();
                refused += 1;
            }
        };
        s.begin(Isolation::Serializable).unwrap();
        resumed_equals_one_shot(&mut s, &select, k, &mut between);
        s.commit().unwrap();
        assert_eq!(refused, 1);
    }
    let mut writer = db.begin(Isolation::Serializable);
    db.update_row(&mut writer, TABLE, row(1_000, 0, 0)).unwrap();
    db.commit(&mut writer).unwrap();
}

#[test]
fn chain_scans_resume_where_they_stopped() {
    resume_battery("chain-resume", 31);
}

// -- the cost of resuming -------------------------------------------------------

/// A window statement stopped every 64 rows costs at most twice the
/// `buffer.fetches` of one uninterrupted walk: a resumed walk re-reads
/// the key region it stopped in, not the rest of the box. 1,600 padded
/// keys, inserted and then updated four times, 50 keys to a commit and
/// a tick per commit; `VERSIONS BETWEEN` covers one update round and
/// `DIFF` two, so each returns 1,600 rows — 25 chunks.
fn resume_cost_battery(tag: &str) {
    const T: &str = "T";
    const KEYS: i32 = 1_600;
    let dir = TempDir::new(&format!("cursor-eq-{tag}"));
    let clock = Arc::new(SimClock::new(1_700_000_000_000));
    let db = Database::open(DbConfig::new(&dir).clock(clock.clone())).unwrap();
    let ddl = format!("CREATE IMMORTAL TABLE {T} (Oid INT PRIMARY KEY, V INT, Pad VARCHAR(200))");
    Session::new(&db).execute(&ddl).unwrap();
    let keys: Vec<i32> = (0..KEYS).collect();
    let mut rounds = Vec::new();
    for v in 0..5 {
        let mut commits = Vec::new();
        for batch in keys.chunks(50) {
            let mut txn = db.begin(Isolation::Serializable);
            for &k in batch {
                let row = vec![
                    Value::Int(k),
                    Value::Int(v),
                    Value::Varchar(format!("{k:0>150}")),
                ];
                if v == 0 {
                    db.insert_row(&mut txn, T, row).unwrap();
                } else {
                    db.update_row(&mut txn, T, row).unwrap();
                }
            }
            commits.push(db.commit(&mut txn).unwrap());
            clock.advance(20);
        }
        rounds.push(commits);
    }
    let end = |round: &Vec<Timestamp>| round.last().unwrap().ttime;
    let (v_lo, v_hi) = (rounds[3][0].ttime, end(&rounds[3]));
    let (d_lo, d_hi) = (end(&rounds[2]), end(&rounds[4]));
    let mut s = Session::new(&db);
    for sql in [
        format!("SELECT * FROM {T} VERSIONS BETWEEN ms({v_lo}) AND ms({v_hi})"),
        format!("DIFF TABLE {T} BETWEEN ms({d_lo}) AND ms({d_hi})"),
    ] {
        let (whole, one_shot) = fetch_cost(&db, || s.execute(&sql).unwrap());
        let mut sink = EveryK {
            k: 64,
            room: 64,
            ncols: 0,
            rows: Vec::new(),
            flushes: 0,
            between: &mut || {},
        };
        let (resumed, _) = fetch_cost(&db, || s.execute_into(&sql, &mut sink).unwrap());
        assert_eq!(sink.rows, one_shot.rows, "{sql}");
        assert!(sink.flushes >= 20, "{sql}: only {} chunks", sink.flushes);
        let ratio = resumed as f64 / whole as f64;
        eprintln!(
            "{tag}: {sql}: {} chunks, {resumed} fetches resumed vs {whole} in one walk ({ratio:.2}x)",
            sink.flushes + 1
        );
        assert!(
            resumed <= 2 * whole,
            "{sql}: {resumed} fetches over {} chunks vs {whole} in one walk",
            sink.flushes + 1
        );
    }
}

#[test]
fn chain_resumed_windows_cost_at_most_twice_one_walk() {
    resume_cost_battery("chain-resume-cost");
}

// -- index-node splits ----------------------------------------------------------

/// 1,000 keys × 30 versions, 25 keys to a commit, the clock moving 20 ms
/// every 64 commits (so most commits share a tick and differ in `sn`).
/// The first version of each row carries a 150-byte pad, so the 1,000
/// keys spread over many current leaves.
fn index_split_battery(tag: &str) {
    const T: &str = "T";
    let dir = TempDir::new(&format!("cursor-eq-{tag}"));
    let clock = Arc::new(SimClock::new(1_700_000_000_000));
    let db = Database::open(DbConfig::new(&dir).clock(clock.clone())).unwrap();
    let ddl =
        format!("CREATE IMMORTAL TABLE {T} (Oid INT PRIMARY KEY, X INT, Y INT, Pad VARCHAR(400))");
    Session::new(&db).execute(&ddl).unwrap();
    let row = |k: i32, v: i32| {
        let pad = if v == 0 {
            format!("{k:0>150}")
        } else {
            String::new()
        };
        vec![
            Value::Int(k),
            Value::Int(v),
            Value::Int(v),
            Value::Varchar(pad),
        ]
    };
    let keys: Vec<i32> = (0..1_000).collect();
    let mut history = History::default();
    let mut commit = |version: i32, batch: &[i32]| {
        let mut txn = db.begin(Isolation::Serializable);
        for &k in batch {
            if version == 0 {
                db.insert_row(&mut txn, T, row(k, version)).unwrap();
            } else {
                db.update_row(&mut txn, T, row(k, version)).unwrap();
            }
        }
        let ts = db.commit(&mut txn).unwrap();
        for &k in batch {
            history.record(ts, k, Some(row(k, version)));
        }
    };
    commit(0, &keys);
    clock.advance(20);
    for (i, (version, batch)) in (1..=30)
        .flat_map(|v| keys.chunks(25).map(move |b| (v, b)))
        .enumerate()
    {
        commit(version, batch);
        if (i + 1) % 64 == 0 {
            clock.advance(20);
        }
    }
    history
        .check_own_timestamps(&db, T)
        .expect("every version at its own commit timestamp");
    let mut s = Session::new(&db);
    for &ts in history.commits().iter().step_by(97) {
        for k in [1, 7, 64] {
            s.begin_as_of_ts(ts).unwrap();
            resumed_equals_one_shot(&mut s, &format!("SELECT * FROM {T}"), k, &mut || {});
            s.commit().unwrap();
        }
    }
}

#[test]
fn chain_index_split_shape_reads_every_version() {
    index_split_battery("chain-index-split");
}
