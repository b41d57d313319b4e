//! What one commit sync costs by where its bytes land: a log write of a
//! one-row commit's size and one `fdatasync`, appended at the end of a
//! growing file, written over zeros the file already holds, and through
//! the WAL's own commit sync, which keeps zeros written ahead of the log
//! (DESIGN.md §7). The first grows the file on every sync, so the file
//! system commits its journal too; the other two only overwrite.

use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::time::Instant;

use immortaldb_chaos::TempDir;
use immortaldb_common::{Lsn, PageId, Tid, TreeId, NULL_LSN};
use immortaldb_storage::logrec::LogRecord;
use immortaldb_storage::wal::{Durability, Wal};

use crate::report::{Cell, Report, Table};

/// One way of syncing and its per-sync latencies.
pub struct SyncRow {
    pub mode: &'static str,
    /// Log bytes written per sync.
    pub bytes: u64,
    pub syncs: usize,
    pub median_us: f64,
    pub p90_us: f64,
    /// Chunks of zeros the WAL wrote ahead (0 for the raw file modes).
    pub extensions: u64,
}

/// The payload of the WAL's record: its frame then measures 366 bytes,
/// what a one-row `UPDATE` commit logs on an immortal table.
const DATA: usize = 316;
/// Rounds of every mode, alternating, so drift in the device's latency
/// falls on all of them alike.
const ROUNDS: usize = 3;

fn time(us: &mut Vec<f64>, f: impl FnOnce()) {
    let t0 = Instant::now();
    f();
    us.push(t0.elapsed().as_secs_f64() * 1e6);
}

/// `syncs` timed write + `fdatasync` pairs of `bytes` each on a fresh
/// file: at its growing end, or over zeros written and synced first.
fn raw(syncs: usize, bytes: usize, over_zeros: bool, us: &mut Vec<f64>) {
    let dir = TempDir::new("bench-logsync");
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(dir.path().join("log"))
        .expect("open scratch log");
    if over_zeros {
        file.write_all_at(&vec![0; syncs * bytes], 0).unwrap();
        file.sync_all().unwrap();
    }
    let record = vec![0x5A; bytes];
    for i in 0..syncs {
        time(us, || {
            file.write_all_at(&record, (i * bytes) as u64).unwrap();
            file.sync_data().unwrap();
        });
    }
}

/// `syncs` records appended to a fresh WAL, each followed by its commit
/// sync; returns the log bytes per record and the extensions written.
fn wal(syncs: usize, us: &mut Vec<f64>) -> (u64, u64) {
    let dir = TempDir::new("bench-logsync");
    let wal = Wal::open(dir.path().join("wal.log")).expect("open scratch WAL");
    let data = [0x5A; DATA];
    let start = wal.end_lsn();
    for i in 0..syncs {
        let record = LogRecord::AddVersion {
            tree: TreeId(1),
            page: PageId(1),
            key: &(i as u64).to_be_bytes()[..],
            data: &data[..],
            stub: false,
        };
        let lsn = wal.append(Tid(i as u64 + 1), NULL_LSN, &record);
        time(us, || {
            wal.commit_durable(Lsn(lsn.0 + 1), Durability::Fsync)
                .unwrap()
        });
    }
    let bytes = (wal.end_lsn().0 - start.0) / syncs as u64;
    (bytes, wal.metrics().wal.extensions.get())
}

fn row(mode: &'static str, bytes: u64, mut us: Vec<f64>, extensions: u64) -> SyncRow {
    us.sort_by(f64::total_cmp);
    SyncRow {
        mode,
        bytes,
        syncs: us.len(),
        median_us: us[us.len() / 2],
        p90_us: us[us.len() * 9 / 10],
        extensions,
    }
}

pub fn run(quick: bool) -> Vec<SyncRow> {
    let per_round = if quick { 200 } else { 1_000 };
    let (mut append, mut zeros, mut commit) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bytes, mut extensions) = (0, 0);
    for _ in 0..ROUNDS {
        let (b, e) = wal(per_round, &mut commit);
        (bytes, extensions) = (b, extensions + e);
        raw(per_round, b as usize, false, &mut append);
        raw(per_round, b as usize, true, &mut zeros);
    }
    vec![
        row("append (the file grows)", bytes, append, 0),
        row("over zeros", bytes, zeros, 0),
        row("WAL commit sync", bytes, commit, extensions),
    ]
}

pub fn report(rows: &[SyncRow]) -> Report {
    let cells = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.into(),
                r.bytes.into(),
                r.syncs.into(),
                Cell::fixed(r.median_us, 1),
                Cell::fixed(r.p90_us, 1),
                r.extensions.into(),
            ]
        })
        .collect();
    Report::default().table(Table::new(
        "log sync — one commit's log write + fdatasync, by where the bytes land",
        [
            "mode",
            "bytes/sync",
            "syncs",
            "median us",
            "p90 us",
            "extensions",
        ],
        cells,
    ))
}
