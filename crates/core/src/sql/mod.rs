//! SQL front end: lexer, parser, and the session executor implementing
//! the paper's dialect extensions (`CREATE IMMORTAL TABLE`,
//! `BEGIN TRAN AS OF "…"`).

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod plan;

use immortaldb_btree::{Flow, Stamp, Version, VersionBuf};
use immortaldb_common::{blocking, Error, Result, Timestamp};

use crate::catalog::TableDef;
use crate::db::{Database, RowDecoder, WRITE_CHUNK};
use crate::row::{
    decode_image_into, decode_key, encode_values, Column, PkBounds, Pushdown, RowSink, Schema,
    Value,
};
use crate::temporal;
use crate::txn::{Isolation, Transaction};

use ast::{AsOfSpec, Predicate, Statement};
use parser::Parser;
use plan::Filter;

/// Result of executing one statement, collected: what
/// [`Session::execute`] returns. As a [`RowSink`] it keeps every row,
/// decoded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    /// Rows inserted/updated/deleted.
    pub affected: usize,
    /// Human-readable outcome for non-query statements.
    pub message: String,
}

impl RowSink for QueryResult {
    fn columns(&mut self, names: Vec<String>) -> Result<()> {
        self.columns = names;
        Ok(())
    }

    fn row(&mut self, image: &[u8]) -> Result<Flow> {
        let mut row = Vec::new();
        decode_image_into(image, self.columns.len(), &mut row)?;
        self.rows.push(row);
        Ok(Flow::Continue)
    }
}

/// What a statement leaves behind besides the rows it wrote to its sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Rows inserted/updated/deleted.
    pub affected: usize,
    /// Human-readable outcome (`"3 rows"`, `"committed at …"`).
    pub message: String,
}

impl Outcome {
    fn message(msg: impl Into<String>) -> Outcome {
        Outcome::affected(0, msg)
    }

    fn affected(n: usize, msg: impl Into<String>) -> Outcome {
        Outcome {
            affected: n,
            message: msg.into(),
        }
    }
}

/// Hand a sink one row of a result that is already in memory: a sink that
/// fills up is flushed on the spot, the caller holding no latch.
fn put(sink: &mut dyn RowSink, image: &[u8]) -> Result<()> {
    if sink.row(image)? == Flow::Stop {
        sink.flush()?;
    }
    Ok(())
}

/// [`put`] of a row of values.
fn put_values(sink: &mut dyn RowSink, row: &[Value]) -> Result<()> {
    let mut image = Vec::new();
    encode_values(&mut image, row);
    put(sink, &image)
}

fn names(columns: &[&str]) -> Vec<String> {
    columns.iter().map(|c| c.to_string()).collect()
}

/// A SQL session: owns the current explicit transaction, autocommits
/// statements outside one, and rolls the transaction back when it becomes
/// doomed (deadlock victim, write-write conflict).
pub struct Session<'a> {
    db: &'a Database,
    /// From [`Database::new_session_id`]; tags the transactions it begins.
    id: u64,
    current: Option<Transaction>,
}

impl<'a> Session<'a> {
    pub fn new(db: &'a Database) -> Session<'a> {
        Session::attach(db, db.new_session_id(), None)
    }

    /// Rebuild session `id` around a previously detached transaction (see
    /// [`Session::into_txn`]). The reactor server keeps each connection's
    /// session id and open transaction in the connection state machine
    /// and materializes a `Session` only for the duration of one request
    /// dispatch.
    pub fn attach(db: &'a Database, id: u64, current: Option<Transaction>) -> Session<'a> {
        Session { db, id, current }
    }

    /// Begin a read-write transaction tagged with this session, so the
    /// sentinel can check that its snapshot never runs behind the
    /// session's previous commit. AS OF readers stay untagged: their
    /// instant is the client's to choose.
    fn begin_tagged(&self, isolation: Isolation) -> Transaction {
        let mut txn = self.db.begin(isolation);
        txn.session = self.id;
        txn
    }

    /// Detach the open transaction (if any) from this session without
    /// finishing it, for storage across request dispatches. The caller
    /// owns cleanup: a transaction never re-attached must be rolled back
    /// through [`Database::rollback`] or it leaks its locks.
    pub fn into_txn(mut self) -> Option<Transaction> {
        self.current.take()
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.current.is_some()
    }

    // -- typed transaction surface (the wire protocol's BEGIN / COMMIT /
    // -- ROLLBACK opcodes call these instead of round-tripping through
    // -- SQL text, so they can return real timestamps) -------------------

    /// Begin an explicit read-write transaction; returns its begin
    /// snapshot (the newest timestamp its reads observe).
    pub fn begin(&mut self, isolation: Isolation) -> Result<Timestamp> {
        if self.current.is_some() {
            return Err(Error::Sql("transaction already open".into()));
        }
        let txn = self.begin_tagged(isolation);
        let snapshot = txn.snapshot();
        self.current = Some(txn);
        Ok(snapshot)
    }

    /// Begin a read-only historical transaction at an exact timestamp
    /// (routed through [`Database::begin_as_of_ts`]; the engine clamps to
    /// the visibility horizon). Returns the effective AS OF timestamp.
    pub fn begin_as_of_ts(&mut self, as_of: Timestamp) -> Result<Timestamp> {
        if self.current.is_some() {
            return Err(Error::Sql("transaction already open".into()));
        }
        let txn = self.db.begin_as_of_ts(as_of);
        let snapshot = txn.snapshot();
        self.current = Some(txn);
        Ok(snapshot)
    }

    /// Begin a read-only historical transaction from a wall-clock
    /// millisecond value (`BEGIN TRAN AS OF ms(N)` equivalent).
    pub fn begin_as_of_ms(&mut self, as_of_ms: u64) -> Result<Timestamp> {
        self.begin_as_of_ts(Timestamp::as_of_clock(as_of_ms))
    }

    /// Commit the open explicit transaction; returns its commit timestamp
    /// (the begin snapshot for read-only transactions).
    pub fn commit(&mut self) -> Result<Timestamp> {
        let mut txn = self
            .current
            .take()
            .ok_or_else(|| Error::Sql("no open transaction".into()))?;
        self.db.commit(&mut txn)
    }

    /// Roll back the open explicit transaction.
    pub fn rollback(&mut self) -> Result<()> {
        let mut txn = self
            .current
            .take()
            .ok_or_else(|| Error::Sql("no open transaction".into()))?;
        self.db.rollback(&mut txn)
    }

    /// Abandon the session: roll back any open transaction, releasing its
    /// locks and versions. Used by the server for disconnects, idle
    /// timeouts and shutdown; a no-op outside a transaction.
    pub fn reset(&mut self) {
        if let Some(mut txn) = self.current.take() {
            let _ = self.db.rollback(&mut txn);
        }
    }

    // -- temporal bound resolution ---------------------------------------

    /// Resolve an AS OF operand to a point in time: a named snapshot's
    /// exact pinned timestamp, or the end of a clock operand's 20 ms
    /// tick (what `BEGIN TRAN AS OF` has always meant).
    fn point_ts(&self, spec: &AsOfSpec) -> Result<Timestamp> {
        match spec {
            AsOfSpec::Snapshot(name) => Ok(self.db.resolve_snapshot(name)?.ts),
            other => Ok(Timestamp::as_of_clock(resolve_as_of(other)?)),
        }
    }

    /// Resolve the lower bound of a `VERSIONS BETWEEN` window: the
    /// *start* of a clock operand's tick (the window covers the whole
    /// tick), a named snapshot's exact timestamp otherwise.
    fn window_lo_ts(&self, spec: &AsOfSpec) -> Result<Timestamp> {
        match spec {
            AsOfSpec::Snapshot(name) => Ok(self.db.resolve_snapshot(name)?.ts),
            other => Ok(crate::temporal::window_lo(resolve_as_of(other)?)),
        }
    }

    /// Execute one statement and collect its result: the adapter over
    /// [`Session::execute_into`] for callers that want the rows in hand.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let mut result = QueryResult::default();
        let Outcome { affected, message } = self.execute_into(sql, &mut result)?;
        let decoded = &self.db.metrics().sql.rows_decoded;
        decoded.add(result.rows.len() as u64);
        result.affected = affected;
        result.message = message;
        Ok(result)
    }

    /// Execute one statement, writing the rows it returns (if it returns
    /// any: then `sink` is given the column names first) to `sink` as
    /// they are read. A scan the sink stops is picked up after a
    /// [`RowSink::flush`] made with no latch held, at the key after the
    /// last one sent, so neither side holds the result whole.
    pub fn execute_into(&mut self, sql: &str, sink: &mut dyn RowSink) -> Result<Outcome> {
        let stmt = Parser::parse(sql)?;
        match stmt {
            Statement::Begin { as_of, isolation } => {
                match as_of {
                    Some(spec) => {
                        let ts = self.point_ts(&spec)?;
                        self.begin_as_of_ts(ts)?
                    }
                    None => self.begin(isolation)?,
                };
                Ok(Outcome::message("transaction started"))
            }
            Statement::Commit => {
                let ts = self.commit()?;
                Ok(Outcome::message(format!(
                    "committed at {}.{}",
                    ts.ttime, ts.sn
                )))
            }
            Statement::Rollback => {
                self.rollback()?;
                Ok(Outcome::message("rolled back"))
            }
            Statement::CreateTable {
                name,
                kind,
                columns,
                pk,
            } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|(name, ctype)| Column { name, ctype })
                        .collect(),
                    pk,
                )?;
                self.db.create_table(&name, schema, kind)?;
                Ok(Outcome::message(format!("table {name} created")))
            }
            Statement::AlterEnableSnapshot { table } => {
                self.db.enable_snapshot(&table)?;
                Ok(Outcome::message(format!(
                    "snapshot versioning enabled on {table}"
                )))
            }
            Statement::RestoreTable { table, as_of } => {
                if self.current.is_some() {
                    return Err(Error::Sql(
                        "RESTORE TABLE runs as its own transaction; COMMIT or ROLLBACK first"
                            .into(),
                    ));
                }
                let restore_ts = self.point_ts(&as_of)?;
                let (n, ts) = self.db.restore_table_as_of(&table, restore_ts)?;
                Ok(Outcome::affected(
                    n,
                    format!(
                        "restored {table} to {}.{} ({n} rows changed)",
                        ts.ttime, ts.sn
                    ),
                ))
            }
            Statement::Checkpoint => {
                let reclaimed = self.db.checkpoint()?;
                Ok(Outcome::message(format!(
                    "checkpoint complete, {reclaimed} PTT entries reclaimed"
                )))
            }
            Statement::Vacuum => {
                let reclaimed = self.db.vacuum()?;
                Ok(Outcome::message(format!(
                    "vacuum complete, {reclaimed} PTT entries reclaimed"
                )))
            }
            Statement::CreateSnapshot { name, as_of } => {
                let ts = as_of.map(|s| self.point_ts(&s)).transpose()?;
                let def = self.db.create_named_snapshot(&name, ts)?;
                Ok(Outcome::message(format!(
                    "snapshot {name} created at {}.{}",
                    def.ts.ttime, def.ts.sn
                )))
            }
            Statement::DropSnapshot { name } => {
                self.db.drop_named_snapshot(&name)?;
                Ok(Outcome::message(format!("snapshot {name} dropped")))
            }
            Statement::ShowSnapshots => {
                let snapshots = self.db.list_snapshots();
                sink.columns(names(&["name", "_ts_ms", "_ts_sn", "created_ms"]))?;
                for s in &snapshots {
                    let row = [
                        Value::Varchar(s.name.clone()),
                        Value::BigInt(s.ts.ttime as i64),
                        Value::Int(s.ts.sn as i32),
                        Value::BigInt(s.created_ms as i64),
                    ];
                    put_values(sink, &row)?;
                }
                Ok(Outcome::message(format!("{} snapshots", snapshots.len())))
            }
            Statement::ShowStats => {
                let entries = self.db.metrics_snapshot().entries();
                sink.columns(names(&["metric", "value"]))?;
                let n = entries.len();
                for (name, value) in entries {
                    put_values(sink, &[Value::Varchar(name), Value::BigInt(value as i64)])?;
                }
                Ok(Outcome::message(format!("{n} metrics")))
            }
            dml => self.run_dml(dml, sink),
        }
    }

    /// Run a DML/query statement, autocommitting when no explicit
    /// transaction is open, and rolling back doomed transactions.
    fn run_dml(&mut self, stmt: Statement, sink: &mut dyn RowSink) -> Result<Outcome> {
        let implicit = self.current.is_none();
        if implicit {
            self.current = Some(self.begin_tagged(Isolation::Serializable));
        }
        let mut txn = self.current.take().expect("transaction present");
        let result = self.exec_stmt(&mut txn, stmt, sink);
        match result {
            Ok(res) => {
                if implicit {
                    self.db.commit(&mut txn)?;
                } else {
                    self.current = Some(txn);
                }
                Ok(res)
            }
            Err(e) => {
                // A transient failure dooms the transaction; roll it back
                // so its locks and versions disappear. Other errors keep
                // an explicit transaction open.
                if implicit || e.is_transient() {
                    let _ = self.db.rollback(&mut txn);
                } else {
                    self.current = Some(txn);
                }
                Err(e)
            }
        }
    }

    fn exec_stmt(
        &self,
        txn: &mut Transaction,
        stmt: Statement,
        sink: &mut dyn RowSink,
    ) -> Result<Outcome> {
        match stmt {
            Statement::Insert { table, rows } => {
                let n = rows.len();
                for row in rows {
                    self.db.insert_row(txn, &table, row)?;
                }
                Ok(Outcome::affected(n, format!("{n} rows inserted")))
            }
            Statement::Update {
                table,
                sets,
                predicate,
            } => {
                let def = self.db.table(&table)?;
                let n = self.write_matching(txn, &def, &predicate, |txn, mut row| {
                    for (col, val) in &sets {
                        let idx = def.schema.col_index(col)?;
                        if idx == def.schema.pk {
                            return Err(Error::Sql("cannot update the primary key".into()));
                        }
                        row[idx] = val.coerce(def.schema.columns[idx].ctype)?;
                    }
                    self.db.update_row(txn, &table, row)
                })?;
                Ok(Outcome::affected(n, format!("{n} rows updated")))
            }
            Statement::Delete { table, predicate } => {
                let def = self.db.table(&table)?;
                let n = self.write_matching(txn, &def, &predicate, |txn, row| {
                    self.db.delete_row(txn, &table, &row[def.schema.pk])
                })?;
                Ok(Outcome::affected(n, format!("{n} rows deleted")))
            }
            Statement::Select {
                table,
                columns,
                predicate,
            } => {
                let def = self.db.table(&table)?;
                let (bounds, residual) =
                    Filter::compile(&def.schema, &predicate)?.plan(&def.schema)?;
                let bounds = read_bounds(bounds);
                let (names, idxs) = projection(&def.schema, columns)?;
                sink.columns(names)?;
                // A row the bounds answer whole leaves as it is stored,
                // checked to be a row of the table; only a residual test
                // or a projection needs its values.
                let decode = !residual.is_empty() || idxs.is_some();
                let mut decoder = self.db.row_decoder(&def.schema);
                let mut n = 0usize;
                let (mut row, mut projected) = (Vec::new(), Vec::new());
                bounds.chunked(|bounds| {
                    let mut stopped = None;
                    self.db.visit_rows(txn, &def, bounds, |key, image| {
                        if decode {
                            decoder.decode_into(image, &mut row)?;
                            if !residual.matches(&row) {
                                return Ok(Flow::Continue);
                            }
                        } else {
                            def.schema.check_image(image)?;
                        }
                        n += 1;
                        let flow = match &idxs {
                            None => sink.row(image)?,
                            Some(idxs) => {
                                projected.clear();
                                encode_values(&mut projected, idxs.iter().map(|&i| &row[i]));
                                sink.row(&projected)?
                            }
                        };
                        if flow == Flow::Stop {
                            stopped = Some(key.to_vec());
                        }
                        Ok(flow)
                    })?;
                    if stopped.is_some() {
                        sink.flush()?;
                    }
                    Ok(stopped)
                })?;
                Ok(Outcome::message(format!("{n} rows")))
            }
            Statement::History { table, pk } => {
                let mut history = VersionBuf::default();
                let def = self.db.history_into(&table, &pk, &mut history)?;
                let mut columns = names(&["_commit_ms", "_commit_sn", "_op"]);
                columns.extend(def.schema.columns.iter().map(|c| c.name.clone()));
                sink.columns(columns)?;
                let nothing = vec![empty(); def.schema.columns.len()];
                let ops = ops();
                let mut out = Vec::new();
                for v in history.iter() {
                    out.clear();
                    version_lead(&mut out, &v, &ops);
                    match v.data {
                        Some(image) => append_image(&mut out, &def.schema, image)?,
                        None => encode_values(&mut out, &nothing),
                    }
                    put(sink, &out)?;
                }
                Ok(Outcome::message(format!("{} versions", history.len())))
            }
            Statement::VersionsBetween {
                table,
                columns,
                t1,
                t2,
                predicate,
            } => {
                let lo = self.window_lo_ts(&t1)?;
                let hi = self.point_ts(&t2)?;
                // Clamped to the horizon once: the chunks of one result
                // must not see it move.
                let (def, lo, hi) = self.db.temporal_window(&table, lo, hi)?;
                let (bounds, residual) =
                    Filter::compile(&def.schema, &predicate)?.plan(&def.schema)?;
                let bounds = read_bounds(bounds);
                let (selected, idxs) = projection(&def.schema, columns)?;
                let mut cols = names(&["_commit_ms", "_commit_sn", "_op"]);
                cols.extend(selected);
                sink.columns(cols)?;
                let returned = &self.db.metrics().temporal.versions_returned;
                let mut n = 0usize;
                let (mut row, mut out) = (Vec::new(), Vec::new());
                let mut projector = self.db.row_decoder(&def.schema);
                let ops = ops();
                let mut send = |sink: &mut dyn RowSink, v: &Version<'_>| -> Result<Flow> {
                    n += 1;
                    out.clear();
                    version_lead(&mut out, v, &ops);
                    version_row(&mut out, &mut projector, idxs.as_deref(), v, &mut row)?;
                    sink.row(&out)
                };
                let (mut tested, mut tester) = (Vec::new(), self.db.row_decoder(&def.schema));
                // The versions of a key the sink filled up in the middle
                // of, to be sent once the cursor has returned.
                let mut rest = VersionBuf::default();
                bounds.chunked(|bounds| {
                    let mut stopped = None;
                    self.db.visit_versions(&def, bounds, lo, hi, &mut |group| {
                        // The key's base is in the window only if it
                        // committed at `lo`.
                        let in_window = || group.iter().filter(|v| v.ts() >= Some(lo));
                        // A key matches when any live version of it
                        // inside the window satisfies the residual; every
                        // version of a matching key (tombstones included)
                        // is then returned.
                        let mut matched = residual.is_empty();
                        for image in in_window().filter_map(|v| v.data) {
                            if matched {
                                break;
                            }
                            tester.decode_into(image, &mut tested)?;
                            matched = residual.matches(&tested);
                        }
                        if !matched {
                            return Ok(Flow::Continue);
                        }
                        returned.add(in_window().count() as u64);
                        let mut versions = in_window();
                        while let Some(v) = versions.next() {
                            if send(sink, &v)? == Flow::Stop {
                                rest.clear();
                                versions.for_each(|v| rest.push(&v));
                                stopped = Some(v.key.to_vec());
                                return Ok(Flow::Stop);
                            }
                        }
                        Ok(Flow::Continue)
                    })?;
                    if stopped.is_some() {
                        sink.flush()?;
                        for v in rest.iter() {
                            if send(sink, &v)? == Flow::Stop {
                                sink.flush()?;
                            }
                        }
                    }
                    Ok(stopped)
                })?;
                Ok(Outcome::message(format!("{n} versions")))
            }
            Statement::DiffTable {
                table,
                t1,
                t2,
                predicate,
            } => {
                let a = self.point_ts(&t1)?;
                let b = self.point_ts(&t2)?;
                let (def, a, b) = self.db.temporal_window(&table, a, b)?;
                let bounds = read_bounds(
                    Filter::compile(&def.schema, &predicate)?.pk_bounds_only(&def.schema)?,
                );
                let mut cols = names(&["_op", "_commit_ms", "_commit_sn"]);
                for c in &def.schema.columns {
                    cols.push(format!("old_{}", c.name));
                }
                for c in &def.schema.columns {
                    cols.push(format!("new_{}", c.name));
                }
                sink.columns(cols)?;
                let nothing = vec![empty(); def.schema.columns.len()];
                let mut n = 0usize;
                let mut out = Vec::new();
                bounds.chunked(|bounds| {
                    // Each key's group, base included, folds into at most
                    // one change where the cursor stands on it.
                    let mut stopped = None;
                    self.db.visit_versions(&def, bounds, a, b, &mut |group| {
                        let Some(d) = temporal::fold_diff(group, a) else {
                            return Ok(Flow::Continue);
                        };
                        n += 1;
                        out.clear();
                        let lead = [
                            Value::Varchar(d.op.name().into()),
                            Value::BigInt(d.ts.ttime as i64),
                            Value::Int(d.ts.sn as i32),
                        ];
                        encode_values(&mut out, &lead);
                        for side in [&d.before, &d.after] {
                            match side {
                                Some(image) => append_image(&mut out, &def.schema, image)?,
                                None => encode_values(&mut out, &nothing),
                            }
                        }
                        let flow = sink.row(&out)?;
                        if flow == Flow::Stop {
                            stopped = Some(d.key);
                        }
                        Ok(flow)
                    })?;
                    if stopped.is_some() {
                        sink.flush()?;
                    }
                    Ok(stopped)
                })?;
                self.db.metrics().temporal.diff_rows.add(n as u64);
                Ok(Outcome::message(format!("{n} changes")))
            }
            other => Err(Error::Sql(format!("not a DML statement: {other:?}"))),
        }
    }

    /// Apply `write` to every row of `def` visible to `txn` that satisfies
    /// `predicate`, [`WRITE_CHUNK`] rows at a time: the predicate's
    /// primary-key bounds go to the index cursor, the residual is
    /// evaluated on each row, decoded for the write, and the rows one
    /// walk gathered are written once it has returned. The next walk
    /// resumes after the last of them, so a row is never met twice.
    /// Returns the rows written.
    fn write_matching(
        &self,
        txn: &mut Transaction,
        def: &TableDef,
        predicate: &Predicate,
        mut write: impl FnMut(&mut Transaction, Vec<Value>) -> Result<()>,
    ) -> Result<usize> {
        let (bounds, residual) = Filter::compile(&def.schema, predicate)?.plan(&def.schema)?;
        let mut n = 0;
        let (mut rows, mut decoder) = (Vec::new(), self.db.row_decoder(&def.schema));
        read_bounds(bounds).chunked(|bounds| {
            let mut last = None;
            self.db.visit_rows(txn, def, bounds, |key, image| {
                let row = decoder.decode(image)?;
                if !residual.matches(&row) {
                    return Ok(Flow::Continue);
                }
                rows.push(row);
                if rows.len() < WRITE_CHUNK {
                    return Ok(Flow::Continue);
                }
                last = Some(key.to_vec());
                Ok(Flow::Stop)
            })?;
            n += rows.len();
            for row in rows.drain(..) {
                write(txn, row)?;
            }
            Ok(last)
        })?;
        Ok(n)
    }
}

/// The `_op` values of a version row, `WRITE`, `DELETE` and
/// `UNCOMMITTED`, made once per statement so that a row makes none.
fn ops() -> [Value; 3] {
    ["WRITE", "DELETE", "UNCOMMITTED"].map(|op| Value::Varchar(op.into()))
}

/// Append the three columns that lead a `VERSIONS BETWEEN` / `HISTORY
/// OF` row: commit time (`-1`s for an uncommitted version) and operation.
fn version_lead(out: &mut Vec<u8>, v: &Version<'_>, [write, delete, uncommitted]: &[Value; 3]) {
    let (ms, sn, op) = match (v.stamp, v.data) {
        (Stamp::Uncommitted(_), _) => (-1, -1, uncommitted),
        (Stamp::Committed(t), Some(_)) => (t.ttime as i64, t.sn as i32, write),
        (Stamp::Committed(t), None) => (t.ttime as i64, t.sn as i32, delete),
    };
    encode_values(out, [&Value::BigInt(ms), &Value::Int(sn), op]);
}

/// A stored image appended to a result row: checked to be a row of the
/// table ([`Schema::check_image`]), then copied as it is.
fn append_image(out: &mut Vec<u8>, schema: &Schema, image: &[u8]) -> Result<()> {
    schema.check_image(image)?;
    out.extend_from_slice(image);
    Ok(())
}

/// What a result row holds for a column with no value: the delete side
/// of a `DIFF`, a tombstone in a history.
fn empty() -> Value {
    Value::Varchar(String::new())
}

/// Append the columns `idxs` of a `VERSIONS BETWEEN` row — all of them,
/// as stored, for `None`; a projection decodes the image into `row`
/// first. A tombstone has no image, so its primary key comes from the
/// index key and every other column is empty: the row still says *what*
/// was deleted.
fn version_row(
    out: &mut Vec<u8>,
    decoder: &mut RowDecoder<'_>,
    idxs: Option<&[usize]>,
    v: &Version<'_>,
    row: &mut Vec<Value>,
) -> Result<()> {
    match (v.data, idxs) {
        (Some(image), None) => append_image(out, decoder.schema(), image)?,
        (Some(image), Some(idxs)) => {
            decoder.decode_into(image, row)?;
            encode_values(out, idxs.iter().map(|&k| &row[k]));
        }
        (None, idxs) => {
            let schema = decoder.schema();
            let (pk, empty) = (decode_key(v.key)?, empty());
            let value = |k: usize| if k == schema.pk { &pk } else { &empty };
            match idxs {
                Some(idxs) => encode_values(out, idxs.iter().map(|&k| value(k))),
                None => encode_values(out, (0..schema.columns.len()).map(value)),
            }
        }
    }
    Ok(())
}

/// The bounds a statement is about to read under. Anything wider than a
/// single key costs what the table holds, not what the statement says, so
/// a thread with other work to look after is told first.
fn read_bounds(bounds: PkBounds) -> PkBounds {
    if bounds.pushdown() != Pushdown::Point {
        blocking::about_to_run_long();
    }
    bounds
}

/// Output column names of a select list, and the schema positions to
/// project (`None` for `*`: rows pass through whole).
fn projection(
    schema: &Schema,
    columns: Option<Vec<String>>,
) -> Result<(Vec<String>, Option<Vec<usize>>)> {
    match columns {
        None => Ok((
            schema.columns.iter().map(|c| c.name.clone()).collect(),
            None,
        )),
        Some(cols) => {
            let idxs = cols
                .iter()
                .map(|c| schema.col_index(c))
                .collect::<Result<_>>()?;
            Ok((cols, Some(idxs)))
        }
    }
}

/// Convert a clock-valued AS OF spec to milliseconds since the UNIX
/// epoch. Snapshot names carry an exact timestamp, not a clock value —
/// they resolve through [`Session::point_ts`] instead.
fn resolve_as_of(spec: &AsOfSpec) -> Result<u64> {
    match spec {
        AsOfSpec::Millis(ms) => Ok(*ms),
        AsOfSpec::DateTime(s) => parse_datetime_ms(s),
        AsOfSpec::Snapshot(name) => Err(Error::Internal(format!(
            "snapshot bound {name} must resolve through the session"
        ))),
    }
}

/// Parse `"M/D/YYYY HH:MM:SS"` (the paper's format, interpreted as UTC)
/// into epoch milliseconds. Uses the days-from-civil algorithm.
pub fn parse_datetime_ms(s: &str) -> Result<u64> {
    let bad = || Error::Sql(format!("bad datetime {s:?}; expected M/D/YYYY HH:MM:SS"));
    let (date, time) = s.split_once(' ').ok_or_else(bad)?;
    let mut dparts = date.split('/');
    let month: i64 = dparts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let day: i64 = dparts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let year: i64 = dparts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if dparts.next().is_some() {
        return Err(bad());
    }
    let mut tparts = time.split(':');
    let hour: i64 = tparts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let minute: i64 = tparts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let second: i64 = tparts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if tparts.next().is_some() {
        return Err(bad());
    }
    if !(1..=12).contains(&month)
        || !(1..=31).contains(&day)
        || !(0..24).contains(&hour)
        || !(0..60).contains(&minute)
        || !(0..60).contains(&second)
    {
        return Err(bad());
    }
    // Days from civil (Howard Hinnant): valid for all Gregorian dates.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (month + 9) % 12;
    let doy = (153 * mp + 2) / 5 + day - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146_097 + doe - 719_468;
    let secs = days * 86_400 + hour * 3_600 + minute * 60 + second;
    if secs < 0 {
        return Err(Error::Sql("datetimes before 1970 are not supported".into()));
    }
    Ok(secs as u64 * 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datetime_parsing_known_values() {
        // 1/1/1970 00:00:00 = epoch.
        assert_eq!(parse_datetime_ms("1/1/1970 00:00:00").unwrap(), 0);
        // 1/2/1970 = one day.
        assert_eq!(parse_datetime_ms("1/2/1970 00:00:00").unwrap(), 86_400_000);
        // 8/12/2004 10:15:20 UTC = 1092305720 seconds (verified against
        // `date -u -d "2004-08-12 10:15:20" +%s`).
        assert_eq!(
            parse_datetime_ms("8/12/2004 10:15:20").unwrap(),
            1_092_305_720_000
        );
        // Leap-year handling: 2/29/2000 is valid.
        assert_eq!(
            parse_datetime_ms("2/29/2000 00:00:00").unwrap(),
            951_782_400_000
        );
    }

    #[test]
    fn datetime_rejects_malformed() {
        assert!(parse_datetime_ms("13/1/2000 00:00:00").is_err());
        assert!(parse_datetime_ms("1/1/2000").is_err());
        assert!(parse_datetime_ms("garbage").is_err());
        assert!(parse_datetime_ms("1/1/2000 25:00:00").is_err());
        assert!(parse_datetime_ms("1/1/1960 00:00:00").is_err());
    }
}
