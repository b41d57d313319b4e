//! The one commit-history model the test suite checks the engine against,
//! and the offline form of the isolation sentinel.
//!
//! A test records what each committed transaction left behind —
//! `(commit ts, key, Some(row) | None)` — and [`History`] answers what the
//! paper promises the engine will answer, forever: the state at an
//! instant, a key's row at an instant, the `VERSIONS BETWEEN` window, the
//! `DIFF` between two instants and `HISTORY OF`, newest first. Each
//! `check_*` method holds one engine answer against the model's and says
//! where the two part. Tables are keyed by an `INT` primary key in column
//! 0, and a recorded row is the whole row as written.
//!
//! [`replay`] checks a logged concurrent run for snapshot isolation by
//! feeding it, as [`TxnEvent`]s, through
//! [`immortaldb_check::sentinel::Checker`] — the rule engine the sentinel
//! runs online — and hands back the run's committed [`History`].

use std::collections::BTreeMap;
use std::fmt::Debug;

use immortaldb::row::decode_key;
use immortaldb::{Database, DiffOp, DiffRow, Schema, TemporalVersion, Timestamp, Value};
use immortaldb_check::sentinel::Checker;
use immortaldb_check::{hash_key, hash_value, Op, TxnEvent};
use immortaldb_common::codec::Writer;

/// A row as written; `None` for a delete.
pub type Row = Option<Vec<Value>>;

/// One version of one key, as `VERSIONS BETWEEN` and `HISTORY OF` list it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    pub key: i32,
    pub ts: Timestamp,
    pub row: Row,
}

impl Version {
    /// A version from the engine's key × time cursor.
    pub fn decode(schema: &Schema, v: &TemporalVersion) -> Version {
        Version {
            key: int_key(&v.key),
            ts: v.ts,
            row: v.data.as_ref().map(|d| schema.decode_row(d).unwrap()),
        }
    }

    /// A row of `SELECT * … VERSIONS BETWEEN`: `_commit_ms, _commit_sn,
    /// _op`, then the row; a tombstone keeps only its key.
    pub fn from_sql(row: &[Value]) -> Version {
        let cols = &row[3..];
        let written = match &row[2] {
            Value::Varchar(op) if op == "WRITE" => Some(cols.to_vec()),
            Value::Varchar(op) if op == "DELETE" && cols[1..].iter().all(is_blank) => None,
            _ => panic!("bad VERSIONS row {row:?}"),
        };
        Version {
            key: int(&cols[0]),
            ts: sql_ts(&row[0], &row[1]),
            row: written,
        }
    }
}

/// One key's net change between two instants: a `DIFF TABLE` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Change {
    pub key: i32,
    pub op: DiffOp,
    /// Commit timestamp of the version that put the key in its later state.
    pub ts: Timestamp,
    pub before: Row,
    pub after: Row,
}

impl Change {
    /// A change from the engine's `DIFF` fold.
    pub fn decode(schema: &Schema, d: &DiffRow) -> Change {
        let row = |data: &Option<Vec<u8>>| data.as_ref().map(|d| schema.decode_row(d).unwrap());
        Change {
            key: int_key(&d.key),
            op: d.op,
            ts: d.ts,
            before: row(&d.before),
            after: row(&d.after),
        }
    }

    /// A row of `DIFF TABLE`: `_op, _commit_ms, _commit_sn`, the row
    /// before, the row after; an absent side is all empty strings.
    pub fn from_sql(row: &[Value]) -> Change {
        let op = match &row[0] {
            Value::Varchar(op) if op == "INSERT" => DiffOp::Insert,
            Value::Varchar(op) if op == "UPDATE" => DiffOp::Update,
            Value::Varchar(op) if op == "DELETE" => DiffOp::Delete,
            _ => panic!("bad DIFF row {row:?}"),
        };
        let (old, new) = row[3..].split_at((row.len() - 3) / 2);
        let side = |cells: &[Value]| (!cells.iter().all(is_blank)).then(|| cells.to_vec());
        let (before, after) = (side(old), side(new));
        let key = before
            .as_ref()
            .or(after.as_ref())
            .expect("a DIFF row has a side")[0]
            .clone();
        Change {
            key: int(&key),
            op,
            ts: sql_ts(&row[1], &row[2]),
            before,
            after,
        }
    }
}

/// What `history_rows` lists for one key: `(commit ts | None while
/// unstamped, row | None for a delete)`, newest first.
pub type Listing = [(Option<Timestamp>, Row)];

/// The committed history of one table.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct History {
    /// Per key, its versions in commit order.
    keys: BTreeMap<i32, Vec<(Timestamp, Row)>>,
    /// Every commit timestamp recorded, ascending, each once.
    commits: Vec<Timestamp>,
}

impl History {
    /// Record that the transaction committed at `ts` left `key` as `row`
    /// (`None`: deleted). Commits may arrive in any order; recording the
    /// same key at the same `ts` again replaces the row, so a transaction's
    /// last write to a key is the version it leaves.
    pub fn record(&mut self, ts: Timestamp, key: i32, row: Row) {
        let versions = self.keys.entry(key).or_default();
        match versions.binary_search_by_key(&ts, |v| v.0) {
            Ok(i) => versions[i].1 = row,
            Err(i) => versions.insert(i, (ts, row)),
        }
        if let Err(i) = self.commits.binary_search(&ts) {
            self.commits.insert(i, ts);
        }
    }

    /// Every commit timestamp recorded, ascending.
    pub fn commits(&self) -> &[Timestamp] {
        &self.commits
    }

    /// Every key ever written, ascending.
    pub fn keys(&self) -> impl Iterator<Item = i32> + '_ {
        self.keys.keys().copied()
    }

    /// `key`'s row at `ts`: its newest version at or below `ts`, unless
    /// that is a delete.
    pub fn row_at(&self, key: i32, ts: Timestamp) -> Option<&[Value]> {
        let versions = self.keys.get(&key)?;
        versions[..versions.partition_point(|v| v.0 <= ts)]
            .last()?
            .1
            .as_deref()
    }

    /// The table at `ts`, by key.
    pub fn state_at(&self, ts: Timestamp) -> BTreeMap<i32, Vec<Value>> {
        self.keys()
            .filter_map(|key| Some((key, self.row_at(key, ts)?.to_vec())))
            .collect()
    }

    /// `VERSIONS BETWEEN lo AND hi` (both inclusive): every version
    /// committed in the window, by key, then oldest first.
    pub fn versions(&self, lo: Timestamp, hi: Timestamp) -> Vec<Version> {
        let mut out = Vec::new();
        for (&key, versions) in &self.keys {
            for (ts, row) in versions.iter().filter(|v| lo <= v.0 && v.0 <= hi) {
                out.push(Version {
                    key,
                    ts: *ts,
                    row: row.clone(),
                });
            }
        }
        out
    }

    /// `DIFF` between the states at `t1` and `t2`, by key; a key changed
    /// and changed back is not listed.
    pub fn diff(&self, t1: Timestamp, t2: Timestamp) -> Vec<Change> {
        let mut out = Vec::new();
        for (&key, versions) in &self.keys {
            let (before, after) = (self.row_at(key, t1), self.row_at(key, t2));
            let op = match (before, after) {
                (None, Some(_)) => DiffOp::Insert,
                (Some(_), None) => DiffOp::Delete,
                (Some(b), Some(a)) if b != a => DiffOp::Update,
                _ => continue,
            };
            let newest = versions[..versions.partition_point(|v| v.0 <= t2)].last();
            out.push(Change {
                key,
                op,
                ts: newest.expect("a changed key has a version by t2").0,
                before: before.map(<[Value]>::to_vec),
                after: after.map(<[Value]>::to_vec),
            });
        }
        out
    }

    /// `HISTORY OF key`: all its versions, newest first.
    pub fn history_of(&self, key: i32) -> Vec<Version> {
        let versions = self.keys.get(&key).map_or(&[][..], Vec::as_slice);
        let newest_first = versions.iter().rev();
        newest_first
            .map(|(ts, row)| Version {
                key,
                ts: *ts,
                row: row.clone(),
            })
            .collect()
    }

    /// A point read of `key` as of `ts`.
    pub fn check_point(
        &self,
        key: i32,
        ts: Timestamp,
        got: Option<&[Value]>,
    ) -> Result<(), Mismatch> {
        let want = self.row_at(key, ts);
        if got == want {
            return Ok(());
        }
        Err(Mismatch(format!(
            "key {key} AS OF {ts:?}: got {got:?}, want {want:?}"
        )))
    }

    /// A scan as of `ts` over the keys `keys` admits, in key order.
    pub fn check_scan(
        &self,
        ts: Timestamp,
        keys: impl Fn(i32) -> bool,
        got: &[Vec<Value>],
    ) -> Result<(), Mismatch> {
        let state = self.state_at(ts).into_iter();
        let want: Vec<_> = state.filter(|(k, _)| keys(*k)).map(|(_, r)| r).collect();
        same(&format!("scan AS OF {ts:?}"), got, &want)
    }

    /// A `VERSIONS BETWEEN lo AND hi` window over the keys `keys` admits.
    pub fn check_versions(
        &self,
        lo: Timestamp,
        hi: Timestamp,
        keys: impl Fn(i32) -> bool,
        got: &[Version],
    ) -> Result<(), Mismatch> {
        let mut want = self.versions(lo, hi);
        want.retain(|v| keys(v.key));
        same(&format!("VERSIONS BETWEEN {lo:?} AND {hi:?}"), got, &want)
    }

    /// A `DIFF` between `t1` and `t2` over the keys `keys` admits.
    pub fn check_diff(
        &self,
        t1: Timestamp,
        t2: Timestamp,
        keys: impl Fn(i32) -> bool,
        got: &[Change],
    ) -> Result<(), Mismatch> {
        let mut want = self.diff(t1, t2);
        want.retain(|c| keys(c.key));
        same(&format!("DIFF {t1:?} -> {t2:?}"), got, &want)
    }

    /// The engine's version listing of `key`: exactly the recorded
    /// versions, every one stamped, timestamps strictly descending.
    pub fn check_history(&self, key: i32, got: &Listing) -> Result<(), Mismatch> {
        let mut listed: Vec<Version> = Vec::with_capacity(got.len());
        for (i, (ts, row)) in got.iter().enumerate() {
            let ts = ts.ok_or_else(|| Mismatch(format!("key {key}: version {i} is unstamped")))?;
            if listed.last().is_some_and(|newer| newer.ts <= ts) {
                return Err(Mismatch(format!(
                    "key {key}: timestamps not strictly descending at version {i}"
                )));
            }
            listed.push(Version {
                key,
                ts,
                row: row.clone(),
            });
        }
        same(
            &format!("history of key {key}"),
            &listed,
            &self.history_of(key),
        )
    }

    /// Every committed version of `table` is readable at exactly its own
    /// commit timestamp: by a point `AS OF ts` read, in an `AS OF ts`
    /// scan, and in the `VERSIONS BETWEEN ts AND ts` window.
    pub fn check_own_timestamps(&self, db: &Database, table: &str) -> Result<(), Mismatch> {
        let engine = |e: immortaldb::Error| Mismatch(format!("{table}: {e}"));
        let def = db.table(table).map_err(engine)?;
        for &ts in &self.commits {
            let mut txn = db.begin_as_of_ts(ts);
            for (&key, versions) in &self.keys {
                if versions.binary_search_by_key(&ts, |v| v.0).is_ok() {
                    let got = db.get_row(&mut txn, table, &Value::Int(key));
                    self.check_point(key, ts, got.map_err(engine)?.as_deref())?;
                }
            }
            let scan = db.scan_rows(&mut txn, table).map_err(engine)?;
            db.rollback(&mut txn).map_err(engine)?;
            self.check_scan(ts, |_| true, &scan)?;
            let window = db.versions_between(table, ts, ts).map_err(engine)?;
            let window: Vec<_> = window
                .iter()
                .map(|v| Version::decode(&def.schema, v))
                .collect();
            self.check_versions(ts, ts, |_| true, &window)?;
        }
        Ok(())
    }
}

/// Where an engine answer and the model part. Its `Debug` is the plain
/// message, so `.expect(context)` reads well.
pub struct Mismatch(pub String);

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Debug for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// `Ok` when `got == want`, else where the two first differ.
fn same<T: PartialEq + Debug>(what: &str, got: &[T], want: &[T]) -> Result<(), Mismatch> {
    if got == want {
        return Ok(());
    }
    let i = got.iter().zip(want).take_while(|(g, w)| g == w).count();
    Err(Mismatch(format!(
        "{what}: {} rows, want {}; first difference at row {i}: got {:?}, want {:?}",
        got.len(),
        want.len(),
        got.get(i),
        want.get(i)
    )))
}

fn int(v: &Value) -> i32 {
    match v {
        Value::Int(k) => *k,
        other => panic!("not an INT key: {other:?}"),
    }
}

fn int_key(key: &[u8]) -> i32 {
    int(&decode_key(key).unwrap())
}

fn is_blank(v: &Value) -> bool {
    matches!(v, Value::Varchar(s) if s.is_empty())
}

fn sql_ts(ms: &Value, sn: &Value) -> Timestamp {
    match (ms, sn) {
        (Value::BigInt(ms), Value::Int(sn)) => Timestamp::new(*ms as u64, *sn as u32),
        other => panic!("bad commit time {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Offline isolation checking
// ---------------------------------------------------------------------

/// One operation of a logged transaction, in execution order.
#[derive(Debug, Clone)]
pub enum Access {
    /// A read of `key` that returned `value` (`None`: no row).
    Read(i32, Option<Value>),
    /// A write of `value` to `key`.
    Write(i32, Value),
}

/// One finished transaction of a concurrent run on a table of `(key INT,
/// value)` rows, as its client logged it.
#[derive(Debug, Clone)]
pub struct TxnLog {
    /// Who ran it, for reports (the engine's tid where the client has it).
    pub tid: u64,
    /// The client session that ran it, 0 for none (`AS OF` readers, whose
    /// instant is their own choice). A session's logs must appear in the
    /// order it ran them.
    pub session: u64,
    /// The snapshot it read (the pinned instant of an `AS OF` reader).
    pub snapshot: Timestamp,
    /// Its commit timestamp; unused when it wrote nothing.
    pub commit: Timestamp,
    pub ops: Vec<Access>,
}

impl TxnLog {
    /// The value each key it wrote was left with: its last write there.
    fn writes(&self) -> BTreeMap<i32, &Value> {
        let mut out = BTreeMap::new();
        for op in &self.ops {
            if let Access::Write(key, value) = op {
                out.insert(*key, value);
            }
        }
        out
    }

    fn event(&self, si: bool) -> TxnEvent {
        let key = |k: &i32| hash_key(0, &k.to_be_bytes());
        let value = |v: &Value| {
            let mut w = Writer::new();
            v.encode(&mut w);
            hash_value(&w.finish())
        };
        let ops = self.ops.iter().map(|op| match op {
            Access::Read(k, Some(v)) => Op::Read {
                key: key(k),
                value: value(v),
            },
            Access::Read(k, None) => Op::ReadMiss { key: key(k) },
            Access::Write(k, v) => Op::Write {
                key: key(k),
                value: value(v),
            },
        });
        TxnEvent {
            tid: self.tid,
            session: self.session,
            si,
            snapshot: self.snapshot,
            commit: (!self.writes().is_empty()).then_some(self.commit),
            aborted: false,
            ops: ops.collect(),
        }
    }
}

/// Check a logged run for snapshot isolation with the sentinel's own
/// rules — every read sees its transaction's own last write or else the
/// newest version committed at or below its snapshot, and no committed
/// snapshot writer had a foreign commit of a key it wrote land inside its
/// `(snapshot, commit)` window — and return the run's committed history.
///
/// `seed` (typically the transaction that loaded every key) goes first,
/// as a serializable commit; then the writers in commit order, each
/// read-only transaction at its snapshot after any writer of that
/// timestamp — but never ahead of an earlier transaction of its own
/// session, so a snapshot that ran behind its session meets the session
/// rule. The run passes only with no violation, no read the checker could
/// not judge, and every logged read judged.
pub fn replay(seed: &TxnLog, logs: &[TxnLog]) -> Result<History, Mismatch> {
    let mut session_at = BTreeMap::new();
    let mut order: Vec<_> = logs
        .iter()
        .map(|t| {
            let mut at = if t.writes().is_empty() {
                (t.snapshot, 1)
            } else {
                (t.commit, 0)
            };
            if t.session != 0 {
                let prev = session_at.entry(t.session).or_insert(at);
                at = at.max(*prev);
                *prev = at;
            }
            (at, t)
        })
        .collect();
    order.sort_by_key(|(at, _)| *at);
    let mut checker = Checker::new();
    let mut history = History::default();
    let order = order.into_iter().map(|(_, t)| t);
    for (i, t) in std::iter::once(seed).chain(order).enumerate() {
        checker.process(&t.event(i > 0));
        for (key, value) in t.writes() {
            history.record(t.commit, key, Some(vec![Value::Int(key), value.clone()]));
        }
    }
    let r = checker.report();
    let all = std::iter::once(seed).chain(logs).flat_map(|t| &t.ops);
    let reads = all.filter(|op| matches!(op, Access::Read(..))).count() as u64;
    if r.violation_count == 0 && r.unverifiable == 0 && r.reads_checked == reads {
        return Ok(history);
    }
    let found: Vec<String> = r.violations.iter().map(ToString::to_string).collect();
    Err(Mismatch(format!(
        "{} violations, {} reads unverifiable, {} of {reads} reads judged:\n{}",
        r.violation_count,
        r.unverifiable,
        r.reads_checked,
        found.join("\n")
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::new(ms, 1)
    }

    fn row(key: i32, v: i64) -> Vec<Value> {
        vec![Value::Int(key), Value::BigInt(v)]
    }

    /// Keys 1 and 2 written at 20, key 1 again at 40 and deleted at 60,
    /// key 2 again at 80.
    fn small() -> History {
        let mut h = History::default();
        h.record(ts(40), 1, Some(row(1, 11)));
        h.record(ts(20), 1, Some(row(1, 10)));
        h.record(ts(20), 2, Some(row(2, 20)));
        h.record(ts(60), 1, None);
        h.record(ts(80), 2, Some(row(2, 99)));
        h.record(ts(80), 2, Some(row(2, 21)));
        h
    }

    #[test]
    fn answers_follow_the_record() {
        let h = small();
        assert_eq!(h.commits(), [ts(20), ts(40), ts(60), ts(80)]);
        assert_eq!(h.row_at(1, ts(39)), Some(&row(1, 10)[..]));
        assert_eq!(h.row_at(1, ts(60)), None);
        assert_eq!(
            h.row_at(2, ts(80)),
            Some(&row(2, 21)[..]),
            "last write wins"
        );
        assert_eq!(h.row_at(3, ts(80)), None);
        let at40: Vec<_> = h.state_at(ts(40)).into_values().collect();
        assert_eq!(at40, [row(1, 11), row(2, 20)]);
        let window: Vec<_> = h
            .versions(ts(40), ts(80))
            .iter()
            .map(|v| (v.key, v.ts))
            .collect();
        assert_eq!(window, [(1, ts(40)), (1, ts(60)), (2, ts(80))]);
        let diff: Vec<_> = h
            .diff(ts(20), ts(80))
            .iter()
            .map(|c| (c.key, c.op, c.ts))
            .collect();
        assert_eq!(
            diff,
            [(1, DiffOp::Delete, ts(60)), (2, DiffOp::Update, ts(80))]
        );
        let newest_first: Vec<_> = h.history_of(1).iter().map(|v| v.ts).collect();
        assert_eq!(newest_first, [ts(60), ts(40), ts(20)]);
    }

    #[test]
    fn planted_wrong_answers_are_rejected() {
        let h = small();
        let at = ts(40);
        let good = [row(1, 11), row(2, 20)];
        h.check_point(1, at, Some(&row(1, 11))).unwrap();
        h.check_scan(at, |_| true, &good).unwrap();
        h.check_scan(at, |k| k == 2, &good[1..]).unwrap();
        assert!(h.check_point(1, at, Some(&row(1, 10))).is_err(), "stale");
        let stale = [row(1, 10), row(2, 20)];
        assert!(
            h.check_scan(at, |_| true, &stale).is_err(),
            "a stale version"
        );
        assert!(
            h.check_scan(at, |_| true, &good[..1]).is_err(),
            "a missing row"
        );
        let extra = [row(1, 11), row(2, 20), row(3, 0)];
        assert!(h.check_scan(at, |_| true, &extra).is_err(), "an extra row");
        let swapped = [row(2, 20), row(1, 11)];
        assert!(h.check_scan(at, |_| true, &swapped).is_err(), "key order");

        let window = h.versions(ts(40), ts(80));
        h.check_versions(ts(40), ts(80), |_| true, &window).unwrap();
        let live: Vec<_> = window.iter().filter(|v| v.row.is_some()).cloned().collect();
        let dropped = h.check_versions(ts(40), ts(80), |_| true, &live);
        assert!(dropped.is_err(), "a dropped tombstone");

        let diff = h.diff(ts(20), ts(80));
        h.check_diff(ts(20), ts(80), |_| true, &diff).unwrap();
        let mut bent = diff.clone();
        bent[1].op = DiffOp::Insert;
        assert!(
            h.check_diff(ts(20), ts(80), |_| true, &bent).is_err(),
            "wrong op"
        );

        let good = [
            (Some(ts(60)), None),
            (Some(ts(40)), Some(row(1, 11))),
            (Some(ts(20)), Some(row(1, 10))),
        ];
        h.check_history(1, &good).unwrap();
        let mut unordered = good.clone();
        unordered[1].0 = Some(ts(60));
        let err = h.check_history(1, &unordered).unwrap_err();
        assert!(err.0.contains("strictly descending"), "{err}");
        let mut unstamped = good.clone();
        unstamped[0].0 = None;
        assert!(
            h.check_history(1, &unstamped).is_err(),
            "an unstamped version"
        );
        assert!(h.check_history(1, &good[1..]).is_err(), "a lost version");
    }

    #[test]
    fn engine_rows_decode_into_the_model_shapes() {
        let v = Version::from_sql(&[
            Value::BigInt(60),
            Value::Int(1),
            Value::Varchar("DELETE".into()),
            Value::Int(1),
            Value::Varchar(String::new()),
        ]);
        assert_eq!((v.key, v.ts, v.row), (1, ts(60), None));
        let c = Change::from_sql(&[
            Value::Varchar("INSERT".into()),
            Value::BigInt(20),
            Value::Int(1),
            Value::Varchar(String::new()),
            Value::Varchar(String::new()),
            Value::Int(2),
            Value::BigInt(20),
        ]);
        assert_eq!(c, small().diff(ts(0), ts(20))[1]);
    }

    fn log(tid: u64, snapshot: u64, commit: u64, ops: Vec<Access>) -> TxnLog {
        TxnLog {
            tid,
            session: 0,
            snapshot: ts(snapshot),
            commit: ts(commit),
            ops,
        }
    }

    fn read(key: i32, v: i64) -> Access {
        Access::Read(key, Some(Value::BigInt(v)))
    }

    fn write(key: i32, v: i64) -> Access {
        Access::Write(key, Value::BigInt(v))
    }

    #[test]
    fn the_replay_judges_every_read_and_rejects_anomalies() {
        let seed = log(0, 0, 20, vec![write(1, 0), write(2, 0)]);
        let w1 = log(1, 20, 40, vec![read(1, 0), write(1, 5), read(1, 5)]);
        let reader = log(2, 40, 45, vec![read(1, 5), read(2, 0)]);
        // Read-only transactions replay at their snapshot, whatever order
        // they were logged in.
        let h = replay(&seed, &[reader.clone(), w1.clone()]).unwrap();
        assert_eq!(h.row_at(1, ts(40)), Some(&row(1, 5)[..]));
        assert_eq!(h.commits(), [ts(20), ts(40)]);

        // A lost update: w2 read the seed state and committed over w1,
        // which committed inside w2's (snapshot, commit).
        let w2 = log(3, 20, 60, vec![write(1, 7)]);
        let err = replay(&seed, &[w2, w1.clone()]).unwrap_err();
        assert!(err.0.contains("first-committer-wins"), "{err}");
        // A read of a value nobody had committed at the reader's snapshot.
        let early = log(4, 20, 25, vec![read(1, 5)]);
        let err = replay(&seed, &[w1.clone(), early]).unwrap_err();
        assert!(err.0.contains("snapshot-read"), "{err}");
        // A read the checker cannot judge fails the run too.
        let unknown = log(5, 40, 45, vec![read(9, 1)]);
        assert!(replay(&seed, &[w1.clone(), unknown]).is_err());
        // A session that commits at 40 and then reads at 20: each read is
        // right for its snapshot, but the snapshot ran behind the session.
        let (mut w, mut behind) = (w1, log(6, 20, 20, vec![read(1, 0)]));
        (w.session, behind.session) = (7, 7);
        let err = replay(&seed, &[w.clone(), behind.clone()]).unwrap_err();
        assert!(err.0.contains("[session]"), "{err}");
        behind.session = 8;
        replay(&seed, &[w, behind]).unwrap();
    }
}
