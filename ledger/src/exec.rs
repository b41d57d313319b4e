//! From abstract op to calls at a boundary: the plan of an op, the
//! boundaries a plan can be run at (wire client, SQL session, `Database`
//! API), the judging of what came back, and the closed loop that drives
//! a stream of ops.

use std::time::Instant;

use immortaldb::{Database, Isolation, Session, SimClock, Timestamp, Value};
use immortaldb_net::Client;

use crate::gen::{row_value, Op, Stream, RANGE_KEYS};
use crate::spans::Recorder;
use crate::workloads::{s, Class, Model, COMMITS_PER_TICK, TABLE, TICK_MS};

/// A `VERSIONS BETWEEN` window covers this fraction of the history.
const WINDOW_DIVISOR: usize = 10;

#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    Insert { key: i32, x: i32, y: i32 },
    Update { key: i32, x: i32, y: i32 },
    SelectKey { key: i32 },
    SelectAll,
    SelectRange { lo: i32, hi: i32 },
    Versions { key: i32, lo_ms: u64, hi_ms: u64 },
}

impl Action {
    pub fn sql(&self) -> String {
        match self {
            Action::Insert { key, x, y } => format!("INSERT INTO {TABLE} VALUES ({key}, {x}, {y})"),
            Action::Update { key, x, y } => {
                format!("UPDATE {TABLE} SET LocationX = {x}, LocationY = {y} WHERE Oid = {key}")
            }
            Action::SelectKey { key } => format!("SELECT * FROM {TABLE} WHERE Oid = {key}"),
            Action::SelectAll => format!("SELECT * FROM {TABLE}"),
            Action::SelectRange { lo, hi } => {
                format!("SELECT * FROM {TABLE} WHERE Oid >= {lo} AND Oid < {hi}")
            }
            Action::Versions { key, lo_ms, hi_ms } => format!(
                "SELECT * FROM {TABLE} VERSIONS BETWEEN ms({lo_ms}) AND ms({hi_ms}) WHERE Oid = {key}"
            ),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Begin,
    BeginAsOf(Timestamp),
    /// The action and its SQL text, rendered before the clock starts.
    Do(Action, String),
    Commit,
}

/// How the reply of an op is judged.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// A write transaction: on success each key gained one version.
    Wrote(Vec<i32>),
    Point {
        key: i32,
        ts: Timestamp,
    },
    Scan {
        lo: i32,
        hi: i32,
        ts: Timestamp,
    },
    Versions {
        key: i32,
        lo_ms: u64,
        hi_ms: u64,
    },
}

pub struct Plan {
    pub class: Class,
    pub steps: Vec<Step>,
    pub check: Check,
}

fn act(a: Action) -> Step {
    let sql = a.sql();
    Step::Do(a, sql)
}

/// Resolve an abstract op against the model: version numbers become
/// values, history fractions become timestamps.
pub fn plan(op: &Op, model: &Model) -> Plan {
    let update = |key: i32| {
        let (x, y) = row_value(key, model.next_version(key));
        act(Action::Update { key, x, y })
    };
    let oracle = || match model {
        Model::History(o) => o.read().expect("oracle lock"),
        Model::Acked(_) => unreachable!("historical reads need a history"),
    };
    match op {
        Op::Insert { key } => {
            let (x, y) = row_value(*key, 0);
            Plan {
                class: Class::Insert,
                steps: vec![act(Action::Insert { key: *key, x, y })],
                check: Check::Wrote(vec![*key]),
            }
        }
        Op::Update { key } => Plan {
            class: Class::Update,
            steps: vec![update(*key)],
            check: Check::Wrote(vec![*key]),
        },
        Op::WriteTxn { keys } => {
            let mut steps = vec![Step::Begin];
            steps.extend(keys.iter().map(|k| update(*k)));
            steps.push(Step::Commit);
            Plan {
                class: Class::WriteTxn,
                steps,
                check: Check::Wrote(keys.to_vec()),
            }
        }
        Op::AsOfPoint { key, when } => {
            let ts = oracle().commit_at(*when);
            Plan {
                class: Class::AsOfPoint,
                steps: vec![
                    Step::BeginAsOf(ts),
                    act(Action::SelectKey { key: *key }),
                    Step::Commit,
                ],
                check: Check::Point { key: *key, ts },
            }
        }
        Op::Versions { key, when } => {
            let (lo_ms, hi_ms) = oracle().window(*when, WINDOW_DIVISOR);
            Plan {
                class: Class::Versions,
                steps: vec![act(Action::Versions {
                    key: *key,
                    lo_ms,
                    hi_ms,
                })],
                check: Check::Versions {
                    key: *key,
                    lo_ms,
                    hi_ms,
                },
            }
        }
        Op::Scan { when } => {
            let ts = oracle().commit_at(*when);
            Plan {
                class: Class::Scan,
                steps: vec![Step::BeginAsOf(ts), act(Action::SelectAll), Step::Commit],
                check: Check::Scan {
                    lo: i32::MIN,
                    hi: i32::MAX,
                    ts,
                },
            }
        }
        Op::Range { key, when } => {
            let ts = oracle().commit_at(*when);
            let (lo, hi) = (*key, *key + RANGE_KEYS);
            Plan {
                class: Class::Range,
                steps: vec![
                    Step::BeginAsOf(ts),
                    act(Action::SelectRange { lo, hi }),
                    Step::Commit,
                ],
                check: Check::Scan { lo, hi, ts },
            }
        }
    }
}

/// What came back from running a plan.
pub struct Outcome {
    /// Rows of the plan's (single) query.
    pub rows: Vec<Vec<Value>>,
    /// Timestamp of the plan's explicit `commit`, if it has one.
    pub commit_ts: Option<Timestamp>,
    pub error: Option<String>,
}

/// A boundary plans can be run at: the wire client (pass A and every
/// untraced run) and the in-process SQL session (pass B) have the same
/// four calls.
pub trait Backend {
    /// Span names of `query`, `begin`, `begin_as_of`, `commit`.
    const SPANS: [&'static str; 4];
    fn query(&mut self, sql: &str) -> Result<Vec<Vec<Value>>, String>;
    fn begin(&mut self) -> Result<(), String>;
    fn begin_as_of(&mut self, ts: Timestamp) -> Result<(), String>;
    fn commit(&mut self) -> Result<Timestamp, String>;
    fn rollback(&mut self);
}

impl Backend for Client {
    const SPANS: [&'static str; 4] = ["net.query", "net.begin", "net.begin_as_of", "net.commit"];
    fn query(&mut self, sql: &str) -> Result<Vec<Vec<Value>>, String> {
        Client::query(self, sql).map(|r| r.rows).map_err(s)
    }
    fn begin(&mut self) -> Result<(), String> {
        Client::begin(self, Isolation::Serializable)
            .map(drop)
            .map_err(s)
    }
    fn begin_as_of(&mut self, ts: Timestamp) -> Result<(), String> {
        self.begin_as_of_ts(ts).map(drop).map_err(s)
    }
    fn commit(&mut self) -> Result<Timestamp, String> {
        Client::commit(self).map_err(s)
    }
    fn rollback(&mut self) {
        if self.in_transaction() {
            let _ = Client::rollback(self);
        }
    }
}

impl Backend for Session<'_> {
    const SPANS: [&'static str; 4] = [
        "sql.execute",
        "session.begin",
        "session.begin_as_of",
        "session.commit",
    ];
    fn query(&mut self, sql: &str) -> Result<Vec<Vec<Value>>, String> {
        self.execute(sql).map(|r| r.rows).map_err(s)
    }
    fn begin(&mut self) -> Result<(), String> {
        Session::begin(self, Isolation::Serializable)
            .map(drop)
            .map_err(s)
    }
    fn begin_as_of(&mut self, ts: Timestamp) -> Result<(), String> {
        self.begin_as_of_ts(ts).map(drop).map_err(s)
    }
    fn commit(&mut self) -> Result<Timestamp, String> {
        Session::commit(self).map_err(s)
    }
    fn rollback(&mut self) {
        self.reset();
    }
}

/// Run a plan's steps on a backend, one child span per call. Stops at
/// the first error and rolls back whatever transaction was open.
pub fn execute<B: Backend>(backend: &mut B, plan: &Plan, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome {
        rows: Vec::new(),
        commit_ts: None,
        error: None,
    };
    for step in &plan.steps {
        let done = match step {
            Step::Do(_, sql) => rec
                .child(B::SPANS[0], || backend.query(sql))
                .map(|rows| out.rows = rows),
            Step::Begin => rec.child(B::SPANS[1], || backend.begin()),
            Step::BeginAsOf(ts) => rec.child(B::SPANS[2], || backend.begin_as_of(*ts)),
            Step::Commit => rec
                .child(B::SPANS[3], || backend.commit())
                .map(|ts| out.commit_ts = Some(ts)),
        };
        if let Err(e) = done {
            out.error = Some(e);
            backend.rollback();
            break;
        }
    }
    out
}

/// Pass C: the same plan as calls on the `Database` API. A plan without
/// its own `begin` is wrapped in the implicit transaction the SQL session
/// would have opened; an `UPDATE` is the point read plus the write the
/// session turns it into.
pub fn execute_direct(db: &Database, plan: &Plan, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome {
        rows: Vec::new(),
        commit_ts: None,
        error: None,
    };
    let write = plan.class.is_write();
    let implicit = !matches!(plan.steps[0], Step::Begin | Step::BeginAsOf(_));
    let mut txn = match plan.steps[0] {
        Step::BeginAsOf(ts) => rec.child("core.begin_as_of_ts", || db.begin_as_of_ts(ts)),
        _ => rec.child("core.begin", || db.begin(Isolation::Serializable)),
    };
    let commit_span = if write {
        "core.commit"
    } else {
        "core.end_read"
    };
    let row = |key: i32, x: i32, y: i32| vec![Value::Int(key), Value::Int(x), Value::Int(y)];
    let tick_lo = |ms: u64| Timestamp { ttime: ms, sn: 0 };
    let tick_hi = |ms: u64| Timestamp {
        ttime: ms,
        sn: u32::MAX - 1,
    };
    let asof = matches!(plan.steps[0], Step::BeginAsOf(_));
    for step in &plan.steps {
        let done: Result<(), String> = match step {
            Step::Begin | Step::BeginAsOf(_) => Ok(()),
            Step::Commit => rec
                .child(commit_span, || db.commit(&mut txn))
                .map(|ts| out.commit_ts = Some(ts))
                .map_err(s),
            Step::Do(action, _) => match action {
                Action::Insert { key, x, y } => rec
                    .child("core.insert_row", || {
                        db.insert_row(&mut txn, TABLE, row(*key, *x, *y))
                    })
                    .map_err(s),
                Action::Update { key, x, y } => rec
                    .child("core.get_row", || {
                        db.get_row(&mut txn, TABLE, &Value::Int(*key))
                    })
                    .and_then(|_| {
                        rec.child("core.update_row", || {
                            db.update_row(&mut txn, TABLE, row(*key, *x, *y))
                        })
                    })
                    .map_err(s),
                Action::SelectKey { key } => {
                    let name = if asof {
                        "core.get_row_as_of"
                    } else {
                        "core.get_row"
                    };
                    rec.child(name, || db.get_row(&mut txn, TABLE, &Value::Int(*key)))
                        .map(|r| out.rows = r.into_iter().collect())
                        .map_err(s)
                }
                Action::SelectAll | Action::SelectRange { .. } => rec
                    .child("core.scan_rows", || db.scan_rows(&mut txn, TABLE))
                    .map(|rows| out.rows = rows)
                    .map_err(s),
                Action::Versions { lo_ms, hi_ms, .. } => rec
                    .child("core.versions_between", || {
                        db.versions_between(TABLE, tick_lo(*lo_ms), tick_hi(*hi_ms))
                    })
                    .map(|v| {
                        std::hint::black_box(v);
                    })
                    .map_err(s),
            },
        };
        if let Err(e) = done {
            out.error = Some(e);
            let _ = db.rollback(&mut txn);
            return out;
        }
    }
    if implicit {
        match rec.child(commit_span, || db.commit(&mut txn)) {
            Ok(_) => {}
            Err(e) => out.error = Some(s(e)),
        }
    }
    out
}

/// Judge an outcome and fold an acknowledged write into the model.
/// `filtered` is false for pass C, whose scans and version walks return
/// what the index returns, before the SQL layer's predicate.
pub fn settle(plan: &Plan, out: &Outcome, model: &mut Model, filtered: bool) -> bool {
    if out.error.is_some() {
        return false;
    }
    match model {
        Model::Acked(acked) => match &plan.check {
            Check::Wrote(keys) => {
                for key in keys {
                    *acked.entry(*key).or_insert(0) += 1;
                }
                true
            }
            _ => false,
        },
        Model::History(oracle) => match &plan.check {
            Check::Wrote(keys) => match out.commit_ts {
                Some(ts) => {
                    oracle.write().expect("oracle lock").record_commit(ts, keys);
                    true
                }
                None => false,
            },
            check => {
                let o = oracle.read().expect("oracle lock");
                match check {
                    Check::Point { key, ts } => o.check_point(&out.rows, *key, *ts),
                    Check::Scan { lo, hi, ts } if filtered || *lo == i32::MIN => {
                        o.check_scan(&out.rows, *lo, *hi, *ts)
                    }
                    Check::Versions { key, lo_ms, hi_ms } if filtered => {
                        o.check_versions(&out.rows, *key, *lo_ms, *hi_ms)
                    }
                    _ => true,
                }
            }
        },
    }
}

// -- driving a stream ---------------------------------------------------------

/// Latencies and counts of one client (or one traced pass).
pub struct Tally {
    /// Nanoseconds per op, by `Class::ALL` position.
    pub lat_ns: Vec<Vec<u64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Acknowledged write transactions, and the rows they wrote.
    pub commits: u64,
    pub rows_written: u64,
    pub reads: u64,
    /// First error or rejected answer, for the report.
    pub first_failure: Option<String>,
    /// Measured window of this client: first sampled op's start to last
    /// op's end.
    pub window_s: f64,
}

impl Tally {
    pub fn new() -> Tally {
        Tally {
            lat_ns: vec![Vec::new(); Class::ALL.len()],
            attempted: 0,
            failed: 0,
            commits: 0,
            rows_written: 0,
            reads: 0,
            first_failure: None,
            window_s: 0.0,
        }
    }

    pub fn of(&self, class: Class) -> &[u64] {
        &self.lat_ns[class as usize]
    }

    pub fn absorb(&mut self, other: Tally) {
        for (mine, theirs) in self.lat_ns.iter_mut().zip(other.lat_ns) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.commits += other.commits;
        self.rows_written += other.rows_written;
        self.reads += other.reads;
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }
}

/// When a drive stops, and what it samples.
pub enum Limit {
    /// Closed loop until `end`; ops started before `warm_until` run but
    /// are not sampled.
    Until { warm_until: Instant, end: Instant },
    /// Exactly this many ops, all sampled.
    Ops(u64),
}

/// What a drive needs besides the boundary it runs plans at.
pub struct DriveCtx<'a> {
    pub db: &'a Database,
    pub clock: &'a SimClock,
    /// `mixed.spill`: checkpoint after this many write transactions
    /// (0 = never).
    pub checkpoint_every: u64,
    /// False for pass C, whose scans and version walks return what the
    /// index returns, before the SQL layer's predicate.
    pub filtered: bool,
}

/// Closed loop over `streams`, taken in turn: plan, run, time, judge.
/// `run` executes one plan at some boundary ([`execute`] on a backend,
/// or [`execute_direct`]). Every op counts as attempted and is sampled
/// whether or not it failed.
pub fn drive(
    mut run: impl FnMut(&Plan, &mut Recorder) -> Outcome,
    streams: &mut [Stream],
    model: &mut Model,
    ctx: &DriveCtx,
    limit: &Limit,
    rec: &mut Recorder,
) -> Tally {
    let mut tally = Tally::new();
    let mut first_sample: Option<Instant> = None;
    let mut last_end = Instant::now();
    let mut turn = 0usize;
    let mut op_id = 0u64;
    loop {
        match limit {
            Limit::Until { end, .. } if Instant::now() >= *end => break,
            Limit::Ops(n) if op_id >= *n => break,
            _ => {}
        }
        let op = streams[turn % streams.len()].next_op();
        turn += 1;
        let plan = plan(&op, model);
        rec.begin_op(plan.class.name(), op_id);
        let start = Instant::now();
        let out = run(&plan, rec);
        let end = Instant::now();
        rec.end_op();
        op_id += 1;

        let ok = settle(&plan, &out, model, ctx.filtered);
        let sampled = match limit {
            Limit::Until { warm_until, .. } => start >= *warm_until,
            Limit::Ops(_) => true,
        };
        let mut due = false;
        if ok && plan.class.is_write() {
            tally.commits += 1;
            if tally.commits.is_multiple_of(COMMITS_PER_TICK) {
                ctx.clock.advance(TICK_MS);
            }
            due = ctx.checkpoint_every > 0 && tally.commits.is_multiple_of(ctx.checkpoint_every);
            if let Check::Wrote(keys) = &plan.check {
                tally.rows_written += keys.len() as u64;
            }
        }
        if sampled {
            first_sample.get_or_insert(start);
            last_end = end;
            tally.attempted += 1;
            tally.lat_ns[plan.class as usize].push((end - start).as_nanos() as u64);
            if !plan.class.is_write() {
                tally.reads += 1;
            }
            if !ok {
                tally.failed += 1;
                tally.first_failure.get_or_insert_with(|| match &out.error {
                    Some(e) => format!("{op:?}: {e}"),
                    None => format!(
                        "{op:?}: the oracle rejects the answer ({} rows, first {:?}) to {:?}",
                        out.rows.len(),
                        out.rows.first(),
                        plan.check
                    ),
                });
            }
        }
        if due {
            // Timed as an op of its own; the writer's loop stalls for it,
            // which is what a checkpoint costs a client.
            rec.begin_op(Class::Checkpoint.name(), op_id);
            let start = Instant::now();
            let res = rec.child("core.checkpoint", || ctx.db.checkpoint());
            let end = Instant::now();
            rec.end_op();
            op_id += 1;
            if sampled {
                last_end = end;
                tally.attempted += 1;
                tally.lat_ns[Class::Checkpoint as usize].push((end - start).as_nanos() as u64);
                if let Err(e) = res {
                    tally.failed += 1;
                    tally
                        .first_failure
                        .get_or_insert(format!("checkpoint: {e}"));
                }
            }
        }
    }
    if let Some(first) = first_sample {
        tally.window_s = (last_end - first).as_secs_f64();
    }
    tally
}
