//! Multi-writer crash torture: crash cut-points in the middle of a
//! group-commit batch.
//!
//! `N` writer threads hammer disjoint key ranges of one table through
//! the leader/follower commit pipeline while the fault layer arms a
//! crash a few I/O operations ahead — so the file system dies while a
//! batch fsync is in flight and some committers have been acknowledged
//! but others are still parked on the barrier. After each crash the
//! engine is reopened (full ARIES recovery) and the harness asserts the
//! two promises group commit must keep under fire:
//!
//! * **acked ⇒ durable** — every commit whose `commit()` call returned
//!   `Ok(ts)` before the crash is present after recovery: each of its
//!   keys has a version at exactly `ts` carrying the committed value;
//! * **unacked ⇒ all-or-nothing** — a commit that was submitted but
//!   never acknowledged (its `commit()` returned an error, e.g. the
//!   batch leader's fsync died) may have won or lost the race to the
//!   log, but never partially: either every key it wrote has a version
//!   with its (globally unique) value at one shared timestamp, or none
//!   does. Writes of transactions that never reached `commit()` must
//!   all be gone.
//!
//! Keys are partitioned per thread so writers never conflict — every
//! interleaving is serializable and the shadow bookkeeping needs no
//! cross-thread ordering, while the *log* still interleaves all
//! writers' records inside shared batches (the interesting part).

use std::collections::HashSet;
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
use crate::TempDir;

const TABLE: &str = "mt_torture_kv";

/// Multi-writer torture parameters. The fault schedule is deterministic
/// per `seed`; the thread interleaving is not, so the checks are
/// property-based (they hold for every interleaving).
#[derive(Debug, Clone)]
pub struct MtTortureConfig {
    pub seed: u64,
    /// Concurrent writer threads (each owns a disjoint key range).
    pub threads: usize,
    /// Crash/recover rounds.
    pub rounds: u32,
    /// Commit attempts per thread per round.
    pub txns_per_round: u32,
    /// Keys owned by each thread.
    pub keys_per_thread: i32,
    pub verbose: bool,
}

impl MtTortureConfig {
    pub fn new(seed: u64) -> MtTortureConfig {
        MtTortureConfig {
            seed,
            threads: 4,
            rounds: 6,
            txns_per_round: 60,
            keys_per_thread: 4,
            verbose: false,
        }
    }
}

/// What a multi-writer run did and found. `violations` empty = pass.
#[derive(Debug, Default, Clone)]
pub struct MtTortureReport {
    pub rounds: u64,
    pub crashes: u64,
    pub commits_acked: u64,
    pub commits_unacked: u64,
    pub unacked_survived: u64,
    pub must_abort: u64,
    pub violations: Vec<String>,
}

impl MtTortureReport {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for MtTortureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rounds={} crashes={} acked={} unacked={} unacked_survived={} \
             must_abort={} violations={}",
            self.rounds,
            self.crashes,
            self.commits_acked,
            self.commits_unacked,
            self.unacked_survived,
            self.must_abort,
            self.violations.len()
        )?;
        for v in &self.violations {
            write!(f, "\n  VIOLATION: {v}")?;
        }
        Ok(())
    }
}

/// A commit the engine acknowledged before the crash.
struct Acked {
    keys: Vec<i32>,
    val: String,
    ts: Timestamp,
}

/// A commit submitted but never acknowledged (all-or-nothing), or a
/// transaction that died before `commit()` (must be fully absent).
struct Unresolved {
    keys: Vec<i32>,
    val: String,
    reached_commit: bool,
}

/// What one writer thread brings home from a round.
struct WriterResult {
    acked: Vec<Acked>,
    unresolved: Vec<Unresolved>,
}

/// Run the multi-writer torture workload; the returned report lists
/// every invariant violation found (none = the pipeline survived).
pub fn run_mt(cfg: MtTortureConfig) -> MtTortureReport {
    let vfs = Arc::new(FaultVfs::wrap_std(cfg.seed));
    let state = vfs.state();
    let metrics = MetricsRegistry::new();
    state.set_metrics(metrics.clone());
    state.set_error_rates(0.0, 0.0); // crashes only: cut-points do the work
    state.disable();

    let mut h = MtHarness {
        rng: StdRng::seed_from_u64(cfg.seed ^ 0x6d74), // distinct stream from single-writer mode
        dir: TempDir::new(&format!("mt-torture-{}", cfg.seed)),
        cfg,
        clock: Arc::new(SimClock::new(1_000_000)),
        metrics,
        vfs,
        state,
        expected: Vec::new(),
        report: MtTortureReport::default(),
    };
    h.drive();
    h.report
}

struct MtHarness {
    cfg: MtTortureConfig,
    dir: TempDir,
    clock: Arc<SimClock>,
    metrics: MetricsRegistry,
    vfs: Arc<FaultVfs>,
    state: Arc<FaultState>,
    rng: StdRng,
    /// Every commit known durable: carried across rounds so later audits
    /// can tell a resurrected old value from a genuinely new one.
    expected: Vec<Acked>,
    report: MtTortureReport,
}

impl MtHarness {
    fn open_db(&self) -> immortaldb::Result<Database> {
        let clock: Arc<dyn Clock> = self.clock.clone();
        let vfs: Arc<dyn Vfs> = self.vfs.clone();
        let mut config = DbConfig::new(&self.dir)
            .clock(clock)
            .pool_pages(32)
            .durability(Durability::Fsync)
            .vfs(vfs)
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

    fn total_keys(&self) -> i32 {
        self.cfg.threads as i32 * self.cfg.keys_per_thread
    }

    fn drive(&mut self) {
        // Fault-free bootstrap: create the table and seed every key so
        // writers only ever update (a thread never needs to know whether
        // an indeterminate insert survived).
        let db = match self.open_db() {
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
        {
            let mut txn = db.begin(Isolation::Serializable);
            for key in 0..self.total_keys() {
                let row = vec![Value::Int(key), Value::Varchar("seed".into())];
                if let Err(e) = db.insert_row(&mut txn, TABLE, row) {
                    self.violation(format!("seeding key {key} failed: {e}"));
                    return;
                }
            }
            match db.commit(&mut txn) {
                Ok(ts) => self.expected.push(Acked {
                    keys: (0..self.total_keys()).collect(),
                    val: "seed".into(),
                    ts,
                }),
                Err(e) => {
                    self.violation(format!("seed commit failed: {e}"));
                    return;
                }
            }
        }

        let mut db = db;
        for round in 0..self.cfg.rounds {
            self.report.rounds += 1;
            db = match self.crash_round(db, round) {
                Some(db) => db,
                None => return, // recovery failed: fatal violation recorded
            };
        }
        self.state.disable();
        let _ = db.close();
    }

    /// One round: arm a crash a few mutating I/O ops ahead, let all
    /// writers run into it, recover, audit.
    fn crash_round(&mut self, db: Database, round: u32) -> Option<Database> {
        self.state.enable();
        // Small deltas cut early (often inside the first batches); larger
        // ones let the pipeline reach a steady state first.
        let delta = self.rng.gen_range(5..120u64);
        self.state.arm_crash_in(delta, false);

        let db = Arc::new(db);
        let results: Vec<WriterResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.cfg.threads)
                .map(|t| {
                    let db = Arc::clone(&db);
                    let clock = Arc::clone(&self.clock);
                    let state = Arc::clone(&self.state);
                    let base = t as i32 * self.cfg.keys_per_thread;
                    let span = self.cfg.keys_per_thread;
                    let quota = self.cfg.txns_per_round;
                    let seed = self.cfg.seed;
                    s.spawn(move || {
                        writer_thread(&db, &clock, &state, t, base, span, quota, seed, round)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let db = Arc::into_inner(db).expect("writers joined: sole owner");

        let crashed = self.state.crashed();
        if !crashed {
            // All writers finished before the cut-point tripped; force
            // the crash so every round still exercises recovery.
            self.state.force_crash();
        }
        self.report.crashes += 1;
        drop(db); // abandon cached pages and the WAL buffer
        self.state.disable();
        self.state.clear_crash();
        let db = match self.open_db() {
            Ok(db) => db,
            Err(e) => {
                self.violation(format!("round {round}: recovery failed: {e}"));
                return None;
            }
        };
        self.audit_round(&db, results, round);
        Some(db)
    }

    /// Post-recovery audit of one round's writer results.
    fn audit_round(&mut self, db: &Database, results: Vec<WriterResult>, round: u32) {
        // Gather the full history of every key once.
        let mut hist: Vec<Vec<(Timestamp, String)>> = Vec::new();
        for key in 0..self.total_keys() {
            match db.history_rows(TABLE, &Value::Int(key)) {
                Ok(h) => {
                    let mut versions = Vec::new();
                    let mut prev: Option<Timestamp> = None;
                    for (i, (ts, row)) in h.iter().enumerate() {
                        let Some(ts) = ts else {
                            self.violation(format!(
                                "round {round}: key {key} version {i} unstamped after recovery"
                            ));
                            continue;
                        };
                        if let Some(p) = prev {
                            if *ts >= p {
                                self.violation(format!(
                                    "round {round}: key {key} timestamps not strictly \
                                     descending"
                                ));
                            }
                        }
                        prev = Some(*ts);
                        let Some(row) = row else {
                            self.violation(format!(
                                "round {round}: key {key} has a deletion stub (none issued)"
                            ));
                            continue;
                        };
                        versions.push((*ts, row[1].to_string()));
                    }
                    hist.push(versions);
                }
                Err(e) => {
                    self.violation(format!("round {round}: history({key}) failed: {e}"));
                    hist.push(Vec::new());
                }
            }
        }
        let find = |key: i32, val: &str| -> Option<Timestamp> {
            hist[key as usize]
                .iter()
                .find(|(_, v)| v == val)
                .map(|(ts, _)| *ts)
        };

        for r in results {
            // Acked ⇒ durable, at exactly the acknowledged timestamp.
            for a in r.acked {
                self.report.commits_acked += 1;
                for &key in &a.keys {
                    match find(key, &a.val) {
                        Some(ts) if ts == a.ts => {}
                        Some(ts) => self.violation(format!(
                            "round {round}: acked commit {} on key {key} recovered at \
                             {ts:?}, acknowledged at {:?}",
                            a.val, a.ts
                        )),
                        None => self.violation(format!(
                            "round {round}: acked commit {} lost on key {key} \
                             (ts {:?})",
                            a.val, a.ts
                        )),
                    }
                }
                self.expected.push(a);
            }
            // Unacked ⇒ all-or-nothing at one shared timestamp; writes
            // that never reached commit() must be fully absent.
            for u in r.unresolved {
                let found: Vec<(i32, Option<Timestamp>)> =
                    u.keys.iter().map(|&k| (k, find(k, &u.val))).collect();
                let present = found.iter().filter(|(_, ts)| ts.is_some()).count();
                if !u.reached_commit {
                    self.report.must_abort += 1;
                    if present > 0 {
                        self.violation(format!(
                            "round {round}: {present} write(s) of uncommitted txn {} \
                             survived recovery",
                            u.val
                        ));
                    }
                    continue;
                }
                self.report.commits_unacked += 1;
                if present == 0 {
                    continue; // resolved as aborted: legal
                }
                if present != u.keys.len() {
                    self.violation(format!(
                        "round {round}: unacked commit {} atomicity broken — \
                         {present}/{} keys survived",
                        u.val,
                        u.keys.len()
                    ));
                    continue;
                }
                let ts0 = found[0].1.unwrap();
                if found.iter().any(|(_, ts)| *ts != Some(ts0)) {
                    self.violation(format!(
                        "round {round}: unacked commit {} recovered at differing \
                         timestamps: {found:?}",
                        u.val
                    ));
                    continue;
                }
                self.report.unacked_survived += 1;
                self.expected.push(Acked {
                    keys: u.keys,
                    val: u.val,
                    ts: ts0,
                });
            }
        }

        // No stowaways: every surviving version must be accounted for by
        // some known-durable commit (seed, acked, or resolved unacked).
        let known: HashSet<String> = self.expected.iter().map(|a| a.val.clone()).collect();
        for key in 0..self.total_keys() {
            for (ts, val) in hist[key as usize].clone() {
                if !known.contains(&val) {
                    self.violation(format!(
                        "round {round}: key {key} carries unaccounted version \
                         {val:?} at {ts:?}"
                    ));
                }
            }
        }
        if self.cfg.verbose {
            eprintln!(
                "round {round} recovered: acked={} unacked={} (survived {}) must_abort={}",
                self.report.commits_acked,
                self.report.commits_unacked,
                self.report.unacked_survived,
                self.report.must_abort
            );
        }
    }
}

/// One writer's round: update 1–3 of its own keys per transaction with
/// a globally unique value, commit, record the outcome. Stops at the
/// first sign of the crash (every later call would only error too).
#[allow(clippy::too_many_arguments)]
fn writer_thread(
    db: &Database,
    clock: &SimClock,
    state: &FaultState,
    t: usize,
    base: i32,
    span: i32,
    quota: u32,
    seed: u64,
    round: u32,
) -> WriterResult {
    let mut rng = StdRng::seed_from_u64(seed ^ (round as u64) << 16 ^ t as u64);
    let mut out = WriterResult {
        acked: Vec::new(),
        unresolved: Vec::new(),
    };
    for seq in 0..quota {
        if state.crashed() {
            break;
        }
        clock.advance(20);
        let val = format!("t{t}r{round}s{seq}");
        let n = rng.gen_range(1..span.min(3) + 1) as usize;
        let mut keys: Vec<i32> = (base..base + span).collect();
        // Ascending order within the thread's own range: no deadlocks.
        for i in 0..n {
            let j = rng.gen_range(i..keys.len());
            keys.swap(i, j);
        }
        keys.truncate(n);
        keys.sort_unstable();

        let mut txn = db.begin(Isolation::Serializable);
        let mut failed_early = false;
        for &key in &keys {
            let row = vec![Value::Int(key), Value::Varchar(val.clone())];
            if db.update_row(&mut txn, TABLE, row).is_err() {
                failed_early = true;
                break;
            }
        }
        if failed_early {
            // Crash (or lock timeout) before commit: whatever was staged
            // must be rolled back by recovery. A failed rollback here is
            // fine — the crash already owns the transaction's fate.
            let _ = db.rollback(&mut txn);
            out.unresolved.push(Unresolved {
                keys,
                val,
                reached_commit: false,
            });
            continue;
        }
        match db.commit(&mut txn) {
            Ok(ts) => out.acked.push(Acked { keys, val, ts }),
            Err(_) => out.unresolved.push(Unresolved {
                keys,
                val,
                reached_commit: true,
            }),
        }
    }
    out
}
