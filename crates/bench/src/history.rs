//! **History sweep** — bytes/version and deep `AS OF` latency of the
//! version store, as time splits write it and after a history-compaction
//! pass, at several chain depths.
//!
//! Each depth builds a chain-indexed table whose keys are updated
//! `depth` times with a mostly-stable ~120-byte payload. Time splits
//! write each history page once, as delta chains (anchor every 8
//! versions); one [`immortaldb::Database::compact_history`] pass then
//! merges single-referrer chain pages. The baseline is the same versions
//! as full records, the way a current page holds them
//! ([`immortaldb::HistoryStats::full_record_bytes`]) — what the store
//! would take without delta chains.
//!
//! The artifact records, per depth, the bytes/version of the version
//! store, and the median per-read latency and history pages fetched
//! (`tree.asof_hops`) of point-in-time lookups sampled across the whole
//! history, before and after the merge pass. The history is built twice,
//! identically, and only the second copy is compacted; the timed passes
//! alternate between the two copies, so a slow spell of a shared host
//! falls on both sides of the ratio alike. Each copy is warmed by one
//! read of every key first, so a leaf's chain directory entry exists
//! before it is timed (the pass clears the directory). Acceptance
//! ([`check`], the run's exit status): at depth 100, the merged store
//! must take ≤ half the full-record bytes/version, the pass must rewrite
//! pages, and it must not regress AS OF latency; at every depth, a warm
//! read fetches at most 2 history pages, before and after the pass.

use immortaldb::{Database, DbConfig, Timestamp, Value};
use immortaldb_chaos::TempDir;

use crate::harness::sim_clock_db;
use crate::json::Json;
use crate::report::{Cell, Report, Table};

pub struct DepthRow {
    pub depth: u32,
    pub keys: u32,
    /// Versions on history pages after the merge pass.
    pub versions: u64,
    /// Bytes/version of the history as full records.
    pub full_bpv: f64,
    /// Bytes/version as time splits wrote it, before the merge pass.
    pub split_bpv: f64,
    pub merged_bpv: f64,
    pub split_pages: u64,
    pub merged_pages: u64,
    pub pages_rewritten: u64,
    pub pages_freed: u64,
    pub split_asof_us: f64,
    pub merged_asof_us: f64,
    /// History pages fetched per warm AS OF read, before and after the
    /// merge pass.
    pub split_pages_per_read: f64,
    pub merged_pages_per_read: f64,
}

impl DepthRow {
    pub fn reduction(&self) -> f64 {
        self.full_bpv / self.merged_bpv.max(f64::EPSILON)
    }

    pub fn latency_ratio(&self) -> f64 {
        self.merged_asof_us / self.split_asof_us.max(f64::EPSILON)
    }
}

pub struct HistoryResult {
    pub rows: Vec<DepthRow>,
}

/// Key `oid`'s row at version `seq`. Mostly-stable payload: only the
/// leading counter changes between versions, so consecutive versions
/// share a long common suffix.
fn row(seq: u32, oid: u32) -> Vec<Value> {
    let pad = format!("{seq:06}-{oid:02}-{}", "p".repeat(120));
    vec![
        Value::Int(oid as i32),
        Value::Int(seq as i32),
        Value::Varchar(pad),
    ]
}

fn asof_read(db: &Database, ts: Timestamp, oid: u32) {
    let mut txn = db.begin_as_of_ts(ts);
    let row = db
        .get_row(&mut txn, "Hist", &Value::Int(oid as i32))
        .expect("as of read");
    db.rollback(&mut txn).expect("rollback");
    assert!(row.is_some(), "AS OF read at {ts:?} found nothing");
}

/// Timed passes over the sampled reads, per copy of the history. A read
/// takes a microsecond or two, so one pass lasts a fraction of a
/// millisecond, which a slow spell of a shared host can cover whole;
/// many passes, alternating between the copies, span milliseconds.
const PASSES: usize = 25;

/// One copy of a depth's history: its database and the `(commit,
/// key)` of every version written.
struct Copy {
    _dir: TempDir,
    db: Database,
    commits: Vec<(Timestamp, u32)>,
}

impl Copy {
    /// Every key updated `depth` times, one commit per update.
    fn build(depth: u32, keys: u32) -> Copy {
        let dir = TempDir::new("bench-history");
        // Small pool: deep history does not stay resident, so both read
        // sweeps pay real page fetches.
        let (db, clock) = sim_clock_db(
            DbConfig::new(dir.path()).pool_pages(64),
            "CREATE IMMORTAL TABLE Hist (Oid INT PRIMARY KEY, Seq INT, Pad VARCHAR(160))",
        );
        let mut txn = db.begin(immortaldb::Isolation::Serializable);
        let rows = (0..keys).map(|oid| row(0, oid)).collect();
        db.insert_rows(&mut txn, "Hist", rows).expect("seed rows");
        let seed_ts = db.commit(&mut txn).expect("commit seed");
        clock.advance(20);

        let mut commits: Vec<(Timestamp, u32)> = (0..keys).map(|oid| (seed_ts, oid)).collect();
        for seq in 1..=depth {
            for oid in 0..keys {
                let mut txn = db.begin(immortaldb::Isolation::Serializable);
                db.update_row(&mut txn, "Hist", row(seq, oid))
                    .expect("update");
                commits.push((db.commit(&mut txn).expect("commit"), oid));
                clock.advance(20);
            }
        }
        // Stamp everything so the version store holds no TID-marked
        // records (compaction skips pages with in-flight versions).
        db.vacuum().expect("vacuum");
        Copy {
            _dir: dir,
            db,
            commits,
        }
    }

    /// One warming read of every key at the oldest commit.
    fn warm(&self, keys: u32) {
        for oid in 0..keys {
            asof_read(&self.db, self.commits[0].0, oid);
        }
    }

    fn hops(&self) -> u64 {
        self.db
            .metrics_snapshot()
            .get("tree.asof_hops")
            .unwrap_or(0)
    }

    /// One pass of `reads` point-in-time reads sampled uniformly across
    /// the commit history, each timed on its own into `us`: one
    /// preemption would move a mean of them many times over, and the
    /// median does not see it.
    fn pass(&self, reads: usize, us: &mut Vec<f64>) {
        for i in 0..reads {
            let (ts, oid) = self.commits[i * (self.commits.len() - 1) / (reads - 1).max(1)];
            let t0 = std::time::Instant::now();
            asof_read(&self.db, ts, oid);
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
}

/// [`PASSES`] timed passes over each copy, alternating which goes first;
/// returns, per copy, the median µs/read and history pages fetched per
/// read.
fn asof_sweeps(copies: [&Copy; 2], keys: u32, reads: usize) -> [(f64, f64); 2] {
    for c in copies {
        c.warm(keys);
    }
    let hops = copies.map(Copy::hops);
    let mut us = [Vec::new(), Vec::new()];
    for pass in 0..PASSES {
        for side in [pass % 2, 1 - pass % 2] {
            copies[side].pass(reads, &mut us[side]);
        }
    }
    [0, 1].map(|side| {
        let us = &mut us[side];
        us.sort_by(f64::total_cmp);
        let pages = (copies[side].hops() - hops[side]) as f64 / us.len() as f64;
        (us[us.len() / 2], pages)
    })
}

fn run_depth(depth: u32, keys: u32, reads: usize) -> DepthRow {
    let (split, merged) = (Copy::build(depth, keys), Copy::build(depth, keys));
    let before = split.db.history_stats().expect("history stats");
    let stats = merged.db.compact_history().expect("compact");
    let after = merged.db.history_stats().expect("history stats");
    let [(split_asof_us, split_pages_per_read), (merged_asof_us, merged_pages_per_read)] =
        asof_sweeps([&split, &merged], keys, reads);

    DepthRow {
        depth,
        keys,
        versions: after.versions,
        full_bpv: before.full_record_bytes as f64 / before.versions.max(1) as f64,
        split_bpv: before.bytes_per_version(),
        merged_bpv: after.bytes_per_version(),
        split_pages: before.history_pages,
        merged_pages: after.history_pages,
        pages_rewritten: stats.pages_rewritten,
        pages_freed: stats.pages_freed,
        split_asof_us,
        merged_asof_us,
        split_pages_per_read,
        merged_pages_per_read,
    }
}

pub fn run(quick: bool) -> HistoryResult {
    let depths: &[u32] = if quick { &[10, 100] } else { &[10, 100, 500] };
    let keys = if quick { 6 } else { 8 };
    let reads = if quick { 60 } else { 120 };
    let rows = depths.iter().map(|&d| run_depth(d, keys, reads)).collect();
    HistoryResult { rows }
}

pub fn report(r: &HistoryResult) -> Report {
    let rows = r
        .rows
        .iter()
        .map(|d| {
            vec![
                d.depth.into(),
                d.versions.into(),
                Cell::fixed(d.full_bpv, 1),
                Cell::fixed(d.split_bpv, 1),
                Cell::fixed(d.merged_bpv, 1),
                Cell::new(format!("{:.2}x", d.reduction()), d.reduction()),
                Cell::new(
                    format!("{} -> {}", d.split_pages, d.merged_pages),
                    Json::arr([d.split_pages, d.merged_pages]),
                ),
                Cell::fixed(d.split_asof_us, 1),
                Cell::fixed(d.merged_asof_us, 1),
                Cell::fixed(d.split_pages_per_read, 2),
                Cell::fixed(d.merged_pages_per_read, 2),
            ]
        })
        .collect();
    let mut table = Table::new(
        "History sweep: version-store size and deep AS OF reads, before/after compaction",
        [
            "depth",
            "versions",
            "full b/v",
            "split b/v",
            "merged b/v",
            "reduction",
            "hist pages",
            "as-of us",
            "merged us",
            "pages/read",
            "merged pages/read",
        ],
        rows,
    );
    for d in &r.rows {
        table = table.note(format!(
            "depth {:>4}: {} pages rewritten, {} freed; latency ratio {:.2} \
             (acceptance at depth>=100: full/merged >= 2x, no AS OF regression)",
            d.depth,
            d.pages_rewritten,
            d.pages_freed,
            d.latency_ratio()
        ));
    }
    Report::default()
        .param("keys", r.rows.first().map(|d| d.keys))
        .table(table)
        .floor(check(r))
}

/// Most history pages a warm point read may fetch: the one the chain
/// directory names, and one more for slack.
const MAX_PAGES_PER_READ: f64 = 2.0;

/// The acceptance floor at depth 100: the merged store takes at most
/// half the full-record bytes/version, the merge pass rewrites pages,
/// and it slows the median deep AS OF read by at most 1.5x (generous,
/// because sub-10 µs reads on shared CI runners are noisy). At every
/// depth, before and after the pass, a warm read fetches at most
/// [`MAX_PAGES_PER_READ`] history pages.
pub fn check(r: &HistoryResult) -> Result<String, String> {
    for d in &r.rows {
        let pages = d.split_pages_per_read.max(d.merged_pages_per_read);
        if pages > MAX_PAGES_PER_READ {
            return Err(format!(
                "depth {}: warm AS OF reads fetch {pages:.2} history pages each \
                 (ceiling {MAX_PAGES_PER_READ})",
                d.depth
            ));
        }
    }
    let d = r
        .rows
        .iter()
        .find(|d| d.depth == 100)
        .ok_or("history sweep has no depth-100 row")?;
    let (reduction, latency) = (d.reduction(), d.latency_ratio());
    if d.versions == 0 {
        Err("history sweep stored no versions".into())
    } else if reduction < 2.0 {
        Err(format!(
            "history only {reduction:.2}x below full records at depth 100 (floor 2x)"
        ))
    } else if d.pages_rewritten == 0 {
        Err("compaction pass rewrote nothing".into())
    } else if latency > 1.5 {
        Err(format!(
            "deep AS OF reads {latency:.2}x slower after compaction"
        ))
    } else {
        Ok(format!(
            "history: {:.0} full-record -> {:.0} merged bytes/version ({reduction:.2}x, \
             floor 2x); AS OF latency ratio {latency:.2}; {:.2} / {:.2} history pages \
             per warm read (ceiling {MAX_PAGES_PER_READ})",
            d.full_bpv, d.merged_bpv, d.split_pages_per_read, d.merged_pages_per_read
        ))
    }
}
