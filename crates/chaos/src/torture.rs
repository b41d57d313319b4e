//! Crash-recovery torture harness.
//!
//! Drives a randomized multi-transaction workload from one or more
//! writer threads against a real engine whose every byte of I/O flows
//! through a [`FaultVfs`], crashes it at deterministic cut-points (plain
//! kills, kills mid-transaction, torn page writes, failed fsyncs),
//! reopens it — running full ARIES recovery — and asserts after every
//! crash that:
//!
//! * every committed transaction's data is durable and every
//!   uncommitted ("loser") transaction is fully rolled back;
//! * each key's version history exactly matches the committed
//!   [`History`](crate::History), with strictly descending timestamps
//!   and no unstamped committed version (post-crash timestamp repair
//!   through the PTT must converge);
//! * `AS OF` queries at sampled commit timestamps return the same rows
//!   before and after the crash;
//! * the persistent timestamp table contains no entry for a transaction
//!   known to have aborted;
//! * each writer's commit timestamps strictly increase in the order they
//!   were acknowledged, no two commits share one, and no TID is handed
//!   out twice — also across crashes.
//!
//! A transaction whose `commit()` call returned an error while the fault
//! layer was active is *indeterminate* — the commit record may or may
//! not have reached the log (exactly the real-world fsync-failure
//! ambiguity). The harness resolves it after recovery from the database
//! itself, requiring all-or-nothing: either every staged write is
//! present at one shared timestamp or none is.
//!
//! With `threads > 1` the writers work on disjoint slices of the key
//! space, so every interleaving is serializable and each writer's
//! commits fold into the one [`History`] after it joins, while their
//! log records share group-commit batches — and a crash lands mid-batch.
//! The fault schedule stays deterministic per seed; the interleaving
//! does not, and every check holds for any interleaving.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use immortaldb::{
    Clock, Database, DbConfig, Durability, Isolation, SimClock, TableKind, Timestamp, Value,
};
use immortaldb_obs::MetricsRegistry;
use immortaldb_storage::vfs::Vfs;

use crate::fault::{FaultState, FaultVfs};
use crate::history::{History, Mismatch, Row};
use crate::TempDir;

const TABLE: &str = "torture_kv";

/// Torture run parameters. With one writer everything is deterministic
/// per `seed`.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    pub seed: u64,
    /// Total workload operations (insert/update/delete) across the run.
    pub ops: u64,
    /// Crash/recover cycles spread across the run.
    pub crashes: u32,
    /// Key space size (small, so version chains grow deep).
    pub keys: i32,
    /// Buffer pool pages (small, so evictions flush mid-transaction and
    /// lazy timestamping happens on the flush path).
    pub pool_pages: usize,
    /// Probability a read fails transiently while faults are enabled.
    pub read_error_rate: f64,
    /// Probability an fsync fails while faults are enabled.
    pub fsync_error_rate: f64,
    /// Log full page images on write-back so torn page writes are
    /// repairable; torn-write crashes are only scheduled when on.
    pub page_image_logging: bool,
    pub verbose: bool,
    /// Concurrent writers, each on its own slice of the key space.
    pub threads: usize,
}

impl TortureConfig {
    pub fn new(seed: u64) -> TortureConfig {
        TortureConfig {
            seed,
            ops: 500,
            crashes: 5,
            keys: 24,
            pool_pages: 16,
            read_error_rate: 0.001,
            fsync_error_rate: 0.002,
            page_image_logging: true,
            verbose: false,
            threads: 1,
        }
    }
}

/// What a torture run did and found. `violations` empty = pass.
#[derive(Debug, Default, Clone)]
pub struct TortureReport {
    pub ops_done: u64,
    pub txns: u64,
    pub commits: u64,
    pub aborts: u64,
    pub indeterminate_commits: u64,
    /// Transactions that died before commit and recovery had to roll back.
    pub losers: u64,
    pub crashes: u64,
    pub torn_writes: u64,
    pub fsync_errors: u64,
    pub read_errors: u64,
    pub crash_recoveries: u64,
    pub versions_restamped: u64,
    pub torn_pages_repaired: u64,
    /// Mean committers per group-commit fsync: above 1, crashes could
    /// land mid-batch.
    pub commits_per_group_fsync: f64,
    pub violations: Vec<String>,
}

impl TortureReport {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for TortureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ops={} txns={} commits={} aborts={} indeterminate_commits={} losers={}",
            self.ops_done,
            self.txns,
            self.commits,
            self.aborts,
            self.indeterminate_commits,
            self.losers
        )?;
        writeln!(
            f,
            "crashes={} recoveries={} torn_writes={} fsync_errors={} read_errors={}",
            self.crashes,
            self.crash_recoveries,
            self.torn_writes,
            self.fsync_errors,
            self.read_errors
        )?;
        write!(
            f,
            "versions_restamped={} torn_pages_repaired={} commits_per_group_fsync={:.2} \
             violations={}",
            self.versions_restamped,
            self.torn_pages_repaired,
            self.commits_per_group_fsync,
            self.violations.len()
        )?;
        for v in &self.violations {
            write!(f, "\n  VIOLATION: {v}")?;
        }
        Ok(())
    }
}

/// Why a transaction's effects are unresolved at crash time.
enum PendingKind {
    /// Never reached commit: recovery must roll it back entirely.
    MustAbort,
    /// `commit()` returned an error: either outcome is legal, but it
    /// must be all-or-nothing.
    CommitAmbiguous,
}

/// A transaction's writes in order.
type Staged = Vec<(i32, Row)>;

struct Pending {
    writer: usize,
    tid: u64,
    staged: Staged,
    kind: PendingKind,
}

/// What one writer brought back from a stretch of work between crashes.
#[derive(Default)]
struct Outcome {
    ops: u64,
    txns: u64,
    /// Acknowledged commits, in acknowledgement order.
    commits: Vec<(Timestamp, Staged)>,
    aborted_tids: Vec<u64>,
    /// Every TID `begin` handed this writer.
    tids: Vec<u64>,
    indeterminate_commits: u64,
    /// The transaction the crash caught, if any.
    pending: Option<Pending>,
}

/// What the writers share while they run: read-only, folded into after
/// they join.
struct Ctx<'a> {
    db: &'a Database,
    model: &'a History,
    clock: &'a SimClock,
    state: &'a FaultState,
}

/// One writer thread's lasting state: its own seeded RNG, its slice of
/// the key space and its own prefix for unique values.
struct Writer {
    id: usize,
    rng: StdRng,
    keys: Range<i32>,
    val_seq: u64,
    /// Its newest commit timestamp, acknowledged or resolved.
    last_ts: Option<Timestamp>,
}

impl Writer {
    /// A fresh row for `key`: every value written is unique.
    fn next_row(&mut self, key: i32) -> Vec<Value> {
        self.val_seq += 1;
        vec![
            Value::Int(key),
            Value::Varchar(format!("w{}v{}", self.id, self.val_seq)),
        ]
    }

    /// Whether `key` has a row, counting the writes staged so far and this
    /// stretch's commits.
    fn exists(cx: &Ctx, out: &Outcome, staged: &Staged, key: i32) -> bool {
        let committed = out.commits.iter().rev().flat_map(|(_, s)| s);
        match staged.iter().chain(committed).find(|(k, _)| *k == key) {
            Some((_, row)) => row.is_some(),
            None => cx.model.row_at(key, Timestamp::MAX).is_some(),
        }
    }

    /// Run transactions until `ops` operations or `max_txns` transactions
    /// are done, or the file system dies.
    fn run(&mut self, cx: &Ctx, ops: u64, max_txns: u64) -> Outcome {
        let mut out = Outcome::default();
        while out.ops < ops && out.txns < max_txns && !cx.state.crashed() {
            let budget = ops - out.ops;
            out.pending = self.run_txn(cx, &mut out, budget);
            if out.pending.is_some() {
                break;
            }
        }
        out
    }

    /// One randomized transaction: 1–4 ops on distinct keys, then commit
    /// or (10%) deliberate rollback. Any error while the fault layer
    /// reports a crash — or any rollback failure — leaves it pending.
    fn run_txn(&mut self, cx: &Ctx, out: &mut Outcome, budget: u64) -> Option<Pending> {
        let db = cx.db;
        cx.clock.advance(20); // one timestamp tick per transaction
        out.txns += 1;
        let mut txn = db.begin(Isolation::Serializable);
        let (writer, tid) = (self.id, txn.tid().0);
        out.tids.push(tid);
        let pending = |staged, kind| {
            Some(Pending {
                writer,
                tid,
                staged,
                kind,
            })
        };
        let n_ops = (self.rng.gen_range(1..5u64)).min(budget);
        let mut staged = Staged::new();
        let mut failed = false;
        for _ in 0..n_ops {
            // Distinct keys per transaction keep the model one-version-
            // per-key-per-commit.
            let mut key = self.rng.gen_range(self.keys.clone());
            let mut tries = 0;
            while staged.iter().any(|(k, _)| *k == key) && tries < 16 {
                key = self.rng.gen_range(self.keys.clone());
                tries += 1;
            }
            if staged.iter().any(|(k, _)| *k == key) {
                break;
            }
            let exists = Self::exists(cx, out, &staged, key);
            let (val, res) = if exists && self.rng.gen_bool(0.25) {
                (None, db.delete_row(&mut txn, TABLE, &Value::Int(key)))
            } else {
                let row = self.next_row(key);
                let r = if exists {
                    db.update_row(&mut txn, TABLE, row.clone())
                } else {
                    db.insert_row(&mut txn, TABLE, row.clone())
                };
                (Some(row), r)
            };
            out.ops += 1;
            staged.push((key, val)); // attempted: absent unless committed
            if res.is_err() {
                if cx.state.crashed() {
                    return pending(staged, PendingKind::MustAbort);
                }
                // Transient fault (e.g. injected read error): the whole
                // transaction rolls back.
                failed = true;
                break;
            }
        }
        if failed || staged.is_empty() || self.rng.gen_bool(0.1) {
            return match db.rollback(&mut txn) {
                Ok(()) => {
                    out.aborted_tids.push(tid);
                    None
                }
                Err(_) => {
                    // A failed rollback leaves unknown state — treat it
                    // as a crash.
                    if !cx.state.crashed() {
                        cx.state.force_crash();
                    }
                    pending(staged, PendingKind::MustAbort)
                }
            };
        }
        match db.commit(&mut txn) {
            Ok(ts) => {
                out.commits.push((ts, staged));
                None
            }
            Err(_) => {
                // The commit record may or may not be durable (fsync
                // failure semantics). Crash now and let recovery decide.
                if !cx.state.crashed() {
                    cx.state.force_crash();
                }
                out.indeterminate_commits += 1;
                pending(staged, PendingKind::CommitAmbiguous)
            }
        }
    }

    /// Stage some writes and abandon the transaction, neither committed
    /// nor rolled back: a loser for the coming crash.
    fn stage_loser(&mut self, cx: &Ctx) -> Outcome {
        let db = cx.db;
        cx.clock.advance(20);
        let mut out = Outcome {
            txns: 1,
            ..Outcome::default()
        };
        let mut txn = db.begin(Isolation::Serializable);
        let tid = txn.tid().0;
        out.tids.push(tid);
        let mut staged = Staged::new();
        for _ in 0..self.rng.gen_range(1..4u32) {
            let key = self.rng.gen_range(self.keys.clone());
            if staged.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let row = self.next_row(key);
            let res = if Self::exists(cx, &out, &staged, key) {
                db.update_row(&mut txn, TABLE, row.clone())
            } else {
                db.insert_row(&mut txn, TABLE, row.clone())
            };
            out.ops += 1;
            staged.push((key, Some(row)));
            if res.is_err() {
                break;
            }
        }
        drop(txn);
        out.pending = Some(Pending {
            writer: self.id,
            tid,
            staged,
            kind: PendingKind::MustAbort,
        });
        out
    }
}

struct Harness {
    cfg: TortureConfig,
    dir: TempDir,
    clock: Arc<SimClock>,
    metrics: MetricsRegistry,
    vfs: Arc<FaultVfs>,
    state: Arc<FaultState>,
    /// The crash schedule and the audit's samples.
    rng: StdRng,
    writers: Vec<Writer>,
    /// Every committed version.
    model: History,
    aborted_tids: HashSet<u64>,
    issued_tids: HashSet<u64>,
    report: TortureReport,
}

/// Run a torture workload; the returned report lists every invariant
/// violation found (none = the engine survived).
pub fn run(cfg: TortureConfig) -> TortureReport {
    assert!(
        cfg.threads >= 1 && cfg.keys >= cfg.threads as i32,
        "{} writers cannot share {} keys",
        cfg.threads,
        cfg.keys
    );
    let vfs = Arc::new(FaultVfs::wrap_std(cfg.seed));
    let state = vfs.state();
    let metrics = MetricsRegistry::new();
    state.set_metrics(metrics.clone());
    state.set_error_rates(cfg.read_error_rate, cfg.fsync_error_rate);
    state.disable(); // initial open is fault-free

    let n = cfg.threads as i32;
    let writers = (0..n)
        .map(|w| Writer {
            id: w as usize,
            rng: StdRng::seed_from_u64(cfg.seed ^ ((w as u64 + 1) << 32)),
            keys: w * cfg.keys / n..(w + 1) * cfg.keys / n,
            val_seq: 0,
            last_ts: None,
        })
        .collect();
    let mut h = Harness {
        rng: StdRng::seed_from_u64(cfg.seed),
        dir: TempDir::new(&format!("torture-{}", cfg.seed)),
        cfg,
        clock: Arc::new(SimClock::new(1_000_000)),
        metrics,
        vfs,
        state,
        writers,
        model: History::default(),
        aborted_tids: HashSet::new(),
        issued_tids: HashSet::new(),
        report: TortureReport::default(),
    };
    h.drive();
    h.finish_report()
}

impl Harness {
    fn open_db(&self) -> immortaldb::Result<Database> {
        let clock: Arc<dyn Clock> = self.clock.clone();
        let vfs: Arc<dyn Vfs> = self.vfs.clone();
        let mut config = DbConfig::new(&self.dir)
            .clock(clock)
            .pool_pages(self.cfg.pool_pages)
            .durability(Durability::Fsync)
            .vfs(vfs)
            .page_image_logging(self.cfg.page_image_logging)
            .metrics(self.metrics.clone());
        config.lock_timeout = Duration::from_millis(250);
        Database::open(config)
    }

    fn violation(&mut self, msg: String) {
        if self.cfg.verbose {
            eprintln!("VIOLATION: {msg}");
        }
        self.report.violations.push(msg);
    }

    fn drive(&mut self) {
        let mut db = match self.open_db() {
            Ok(db) => db,
            Err(e) => {
                self.violation(format!("initial open failed: {e}"));
                return;
            }
        };
        if let Err(e) = db.create_table(TABLE, crate::kv_schema(), TableKind::Immortal) {
            self.violation(format!("create table failed: {e}"));
            return;
        }
        self.state.enable();

        let total = self.cfg.ops;
        let crashes = self.cfg.crashes as u64;
        let mut crashes_done: u64 = 0;
        while self.report.ops_done < total || crashes_done < crashes {
            // Crash boundaries are spread evenly over the op budget.
            let next_boundary = if crashes_done < crashes {
                (crashes_done + 1) * total / (crashes + 1)
            } else {
                total
            };
            if self.report.ops_done >= next_boundary {
                crashes_done += 1;
                db = match self.crash_episode(db) {
                    Some(db) => db,
                    None => return, // recovery failed: fatal violation
                };
                continue;
            }
            // The writers share the ops up to the boundary.
            let ops = next_boundary - self.report.ops_done;
            let n = self.writers.len() as u64;
            let pending = self.run_writers(&db, |w, cx| {
                let share = ops / n + u64::from((w.id as u64) < ops % n);
                w.run(cx, share, u64::MAX)
            });
            if self.state.crashed() {
                // An injected fault escalated to a crash outside the
                // planned schedule (e.g. a failed commit fsync).
                db = match self.recover(db, pending) {
                    Some(db) => db,
                    None => return,
                };
            }
        }

        // Clean shutdown, fault-free reopen, final audit.
        self.state.disable();
        if let Err(e) = db.close() {
            self.violation(format!("clean close failed: {e}"));
        }
        drop(db);
        match self.open_db() {
            Ok(db) => self.check_invariants(&db, "final"),
            Err(e) => self.violation(format!("final reopen failed: {e}")),
        }
    }

    /// Run `work` for every writer, each on its own thread, then fold
    /// what they bring back into the model. Returns the transactions the
    /// crash caught.
    fn run_writers<F>(&mut self, db: &Database, work: F) -> Vec<Pending>
    where
        F: Fn(&mut Writer, &Ctx) -> Outcome + Sync,
    {
        let cx = Ctx {
            db,
            model: &self.model,
            clock: &self.clock,
            state: &self.state,
        };
        let outcomes: Vec<Outcome> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .writers
                .iter_mut()
                .map(|w| {
                    let (cx, work) = (&cx, &work);
                    s.spawn(move || work(w, cx))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("writer thread panicked"))
                .collect()
        });
        self.fold(outcomes)
    }

    /// Fold the writers' outcomes into the model and the report, in
    /// writer order; returns their pending transactions.
    fn fold(&mut self, outcomes: Vec<Outcome>) -> Vec<Pending> {
        let mut pending = Vec::new();
        for (w, out) in outcomes.into_iter().enumerate() {
            self.report.ops_done += out.ops;
            self.report.txns += out.txns;
            self.report.aborts += out.aborted_tids.len() as u64;
            self.report.indeterminate_commits += out.indeterminate_commits;
            self.aborted_tids.extend(out.aborted_tids);
            for tid in out.tids {
                if !self.issued_tids.insert(tid) {
                    self.violation(format!("TID {tid} handed out twice"));
                }
            }
            for (ts, staged) in out.commits {
                self.apply_commit(w, ts, staged);
            }
            pending.extend(out.pending);
        }
        pending
    }

    /// Record a commit of writer `w`. Its timestamps must strictly
    /// increase in acknowledgement order, and no other commit may share
    /// one.
    fn apply_commit(&mut self, w: usize, ts: Timestamp, staged: Staged) {
        if let Some(last) = self.writers[w].last_ts {
            if ts <= last {
                self.violation(format!(
                    "writer {w}: commit timestamp not monotone: {ts:?} after {last:?}"
                ));
            }
        }
        if self.model.commits().binary_search(&ts).is_ok() {
            self.violation(format!("commit timestamp {ts:?} acknowledged twice"));
        }
        self.writers[w].last_ts = Some(ts);
        for (key, row) in staged {
            self.model.record(ts, key, row);
        }
        self.report.commits += 1;
    }

    /// A scheduled crash: pick a flavour, make the engine die, recover.
    fn crash_episode(&mut self, db: Database) -> Option<Database> {
        match self.rng.gen_range(0..3u32) {
            0 => {
                // Cut-point: the file system dies after a few more
                // mutating ops — whichever engine call is unlucky; every
                // writer runs into it. Half of them also tear the
                // interrupted write.
                let tear = self.cfg.page_image_logging && self.rng.gen_bool(0.5);
                let delta = self.rng.gen_range(1..30u64);
                self.state.arm_crash_in(delta, tear);
                let pending = self.run_writers(&db, |w, cx| w.run(cx, u64::MAX, 60));
                if !self.state.crashed() {
                    self.state.force_crash();
                }
                self.recover(db, pending)
            }
            1 => {
                // Kill mid-transaction: every writer stages some writes,
                // the log is optionally forced so recovery has losers to
                // undo, and the engine dies.
                let pending = self.run_writers(&db, |w, cx| w.stage_loser(cx));
                if self.rng.gen_bool(0.5) {
                    let _ = db.force_log(); // loser records reach disk
                }
                self.state.force_crash();
                self.recover(db, pending)
            }
            _ => {
                // Plain kill at a transaction boundary.
                self.state.force_crash();
                self.recover(db, Vec::new())
            }
        }
    }

    /// Drop the dead engine, bring the file system back, run recovery,
    /// resolve every pending transaction, audit all invariants.
    fn recover(&mut self, db: Database, pending: Vec<Pending>) -> Option<Database> {
        drop(db); // abandon every cached page and the WAL buffer
        self.report.crashes += 1;
        self.state.disable();
        self.state.clear_crash();
        let db = match self.open_db() {
            Ok(db) => db,
            Err(e) => {
                self.violation(format!("recovery after crash failed: {e}"));
                return None;
            }
        };
        for p in pending {
            self.resolve_pending(&db, p);
        }
        self.check_invariants(&db, "post-crash");
        self.state.enable();
        if self.cfg.verbose {
            eprintln!(
                "crash {} recovered: ops={} commits={} aborts={}",
                self.report.crashes, self.report.ops_done, self.report.commits, self.report.aborts
            );
        }
        Some(db)
    }

    /// Per staged key, the versions recovery left that the model does not
    /// know about (at most one expected: the pending transaction's).
    fn new_versions(&mut self, db: &Database, key: i32) -> Option<Vec<(Timestamp, Row)>> {
        let hist = match db.history_rows(TABLE, &Value::Int(key)) {
            Ok(h) => h,
            Err(e) => {
                self.violation(format!("history({key}) failed during resolution: {e}"));
                return None;
            }
        };
        let known: HashSet<Timestamp> = self.model.history_of(key).iter().map(|v| v.ts).collect();
        let mut out = Vec::new();
        for (ts, row) in hist {
            match ts {
                None => {
                    self.violation(format!("key {key}: unstamped version survived recovery"));
                    return None;
                }
                Some(ts) if !known.contains(&ts) => out.push((ts, row)),
                Some(_) => {}
            }
        }
        Some(out)
    }

    fn resolve_pending(&mut self, db: &Database, p: Pending) {
        let mut per_key = Vec::new();
        for (key, staged_row) in p.staged {
            match self.new_versions(db, key) {
                Some(new) => per_key.push((key, staged_row, new)),
                None => return, // violation already recorded
            }
        }
        let survivors = per_key.iter().filter(|(_, _, n)| !n.is_empty()).count();
        match p.kind {
            PendingKind::MustAbort => {
                self.report.losers += 1;
                if survivors > 0 {
                    self.violation(format!(
                        "tid {}: {survivors} write(s) of an uncommitted transaction \
                         survived recovery",
                        p.tid
                    ));
                } else {
                    self.aborted_tids.insert(p.tid);
                }
            }
            PendingKind::CommitAmbiguous => {
                if survivors == 0 {
                    // Resolved as aborted. The commit record (and thus a
                    // PTT row) may still be durable with every update
                    // CLR-undone, so the tid is NOT added to the aborted
                    // set used for the PTT check.
                    return;
                }
                if survivors != per_key.len() {
                    self.violation(format!(
                        "tid {}: atomicity broken — {survivors}/{} writes survived",
                        p.tid,
                        per_key.len()
                    ));
                    return;
                }
                // Committed: all keys must share one timestamp and carry
                // the staged rows.
                let ts = per_key[0].2[0].0;
                for (key, staged_row, new) in &per_key {
                    if new.len() != 1 || new[0].0 != ts {
                        self.violation(format!(
                            "tid {}: key {key} resolved to {new:?}, expected one \
                             version at {ts:?}",
                            p.tid
                        ));
                        return;
                    }
                    if &new[0].1 != staged_row {
                        self.violation(format!(
                            "tid {}: key {key} committed row {:?} != staged {:?}",
                            p.tid, new[0].1, staged_row
                        ));
                        return;
                    }
                }
                let staged = per_key.into_iter().map(|(k, row, _)| (k, row)).collect();
                self.apply_commit(p.writer, ts, staged);
            }
        }
    }

    /// Full audit against the model (fault layer disabled).
    fn check_invariants(&mut self, db: &Database, label: &str) {
        // Current state and complete history of every key.
        for key in 0..self.cfg.keys {
            let mut txn = db.begin(Isolation::Serializable);
            let current = db.get_row(&mut txn, TABLE, &Value::Int(key));
            let _ = db.rollback(&mut txn);
            let checked = match current {
                Ok(row) => self.model.check_point(key, Timestamp::MAX, row.as_deref()),
                Err(e) => Err(Mismatch(format!("get({key}) failed: {e}"))),
            };
            let listed = match db.history_rows(TABLE, &Value::Int(key)) {
                Ok(hist) => self.model.check_history(key, &hist),
                Err(e) => Err(Mismatch(format!("history({key}) failed: {e}"))),
            };
            for e in [checked, listed].into_iter().filter_map(Result::err) {
                self.violation(format!("[{label}] {e}"));
            }
        }

        // AS OF queries at sampled commit timestamps reconstruct the
        // model state of that moment.
        let commits = self.model.commits().len();
        if commits > 0 {
            for _ in 0..8usize {
                let ts = self.model.commits()[self.rng.gen_range(0..commits)];
                let mut txn = db.begin_as_of_ts(ts);
                for key in 0..self.cfg.keys {
                    let checked = match db.get_row(&mut txn, TABLE, &Value::Int(key)) {
                        Ok(row) => self.model.check_point(key, ts, row.as_deref()),
                        Err(e) => Err(Mismatch(format!("AS OF {ts:?} get({key}) failed: {e}"))),
                    };
                    if let Err(e) = checked {
                        self.violation(format!("[{label}] {e}"));
                    }
                }
                let _ = db.rollback(&mut txn);
            }
        }

        // The PTT must not remember a transaction known to have aborted.
        match db.ptt_entries() {
            Ok(entries) => {
                for (tid, _) in entries {
                    if self.aborted_tids.contains(&tid.0) {
                        self.violation(format!(
                            "[{label}] PTT contains aborted transaction {tid:?}"
                        ));
                    }
                }
            }
            Err(e) => self.violation(format!("[{label}] PTT scan failed: {e}")),
        }
    }

    fn finish_report(mut self) -> TortureReport {
        let snap = self.metrics.snapshot();
        let get = |name: &str| snap.get(name).unwrap_or(0);
        self.report.crash_recoveries = get("recovery.crash_recoveries");
        self.report.versions_restamped = get("recovery.versions_restamped");
        self.report.torn_pages_repaired = get("recovery.torn_pages_repaired");
        self.report.commits_per_group_fsync =
            get("wal.batch_size.sum") as f64 / get("wal.batch_size.count").max(1) as f64;
        let count = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::SeqCst);
        self.report.torn_writes = count(&self.state.torn_writes);
        self.report.fsync_errors = count(&self.state.fsync_errors);
        self.report.read_errors = count(&self.state.read_errors);
        self.report
    }
}
