//! The five workloads: what each is for, its sizes, its op streams, and
//! how its database is set up and served.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use immortaldb::{Database, DbConfig, Durability, Isolation, Session, SimClock, Value};
use immortaldb_net::{Client, Server, ServerConfig};

use crate::gen::{row_value, SplitMix64, Stream, Zipf, KEY_STRIDE};
use crate::oracle::Oracle;

/// Client connections and threads of every workload: one request
/// outstanding per connection, never more than the box has cores.
pub const CLIENTS: usize = 2;

/// The injected clock starts here and moves one 20 ms tick per
/// `COMMITS_PER_TICK` acknowledged write transactions of a client, so
/// histories have the same shape however fast the box is.
pub const EPOCH_MS: u64 = 1_700_000_000_000;
pub const COMMITS_PER_TICK: u64 = 64;
pub const TICK_MS: u64 = 20;

/// User payload of one row: three `INT`s.
pub const ROW_PAYLOAD_BYTES: u64 = 12;

/// The one table of every workload (chain-indexed, the paper's design).
pub const TABLE: &str = "MovingObjects";
const COLUMNS: &str = "(Oid INT PRIMARY KEY, LocationX INT, LocationY INT)";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Commit { immortal: bool, fsync: bool },
    AsOfDeep,
    MixedSpill,
}

/// Operation classes latencies are kept by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Update,
    Insert,
    WriteTxn,
    AsOfPoint,
    Versions,
    Scan,
    Range,
    Checkpoint,
}

impl Class {
    pub const ALL: [Class; 8] = [
        Class::Update,
        Class::Insert,
        Class::WriteTxn,
        Class::AsOfPoint,
        Class::Versions,
        Class::Scan,
        Class::Range,
        Class::Checkpoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Update => "update",
            Class::Insert => "insert",
            Class::WriteTxn => "write_txn",
            Class::AsOfPoint => "asof_point",
            Class::Versions => "versions_between",
            Class::Scan => "asof_scan",
            Class::Range => "asof_range",
            Class::Checkpoint => "checkpoint",
        }
    }

    pub fn is_write(self) -> bool {
        matches!(self, Class::Update | Class::Insert | Class::WriteTxn)
    }
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Buffer pool capacity in 8 KiB pages.
    pub pool_pages: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Ops per pass of the traced run, per second of `--seconds`. A
    /// count, not a time, so the traced run's counters repeat exactly.
    pub trace_ops_per_s: u64,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "commit.durable",
        why: "One-row commits with fsync and group commit: the paper's Fig. 5 regime, WAL and net bound; CPU-path changes must not move it.",
        kind: Kind::Commit { immortal: true, fsync: true },
        pool_pages: 16_384,
        setup_reps: 9,
        trace_ops_per_s: 400,
    },
    Spec {
        name: "commit.cpu",
        why: "The same stream with buffered durability: parse, locks, PTT/VTT stamping, tree version ops and WAL append do all the work.",
        kind: Kind::Commit { immortal: true, fsync: false },
        pool_pages: 16_384,
        setup_reps: 9,
        trace_ops_per_s: 6000,
    },
    Spec {
        name: "commit.conv",
        why: "The same stream on a conventional table: the Fig. 5 baseline; immortal-only changes bypass it, shared-path changes must not slow it.",
        kind: Kind::Commit { immortal: false, fsync: false },
        pool_pages: 16_384,
        setup_reps: 9,
        trace_ops_per_s: 6000,
    },
    Spec {
        name: "asof.deep",
        why: "Read-only point AS OF, scans and VERSIONS BETWEEN over 100-deep resident history (Fig. 6): descent, chain walk, delta folds; bypasses the write path.",
        kind: Kind::AsOfDeep,
        pool_pages: 16_384,
        setup_reps: 3,
        trace_ops_per_s: 400,
    },
    Spec {
        name: "mixed.spill",
        why: "A Zipf writer beside a historical reader on one tree eight times larger than the buffer pool: evictions, disk reads, checkpoints.",
        kind: Kind::MixedSpill,
        pool_pages: 256,
        setup_reps: 3,
        trace_ops_per_s: 300,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Input sizes of a workload. `--smoke` divides the data by 100.
pub struct Sizes {
    /// Preloaded keys.
    pub keys: u64,
    /// Update rounds over all keys the set-up builds as history.
    pub depth: u64,
    /// `mixed.spill`: write transactions between two checkpoints.
    pub checkpoint_every: u64,
}

/// Keys one set-up transaction updates.
const SETUP_BATCH: usize = 25;

impl Spec {
    pub fn sizes(&self, smoke: bool) -> Sizes {
        let (keys, depth, checkpoint_every) = match self.kind {
            Kind::Commit { .. } => (20_000, 0, 0),
            Kind::AsOfDeep => (2_000, 100, 0),
            Kind::MixedSpill => (4_000, 50, 1_000),
        };
        if smoke {
            Sizes {
                keys: keys / 10,
                depth: depth / 10,
                checkpoint_every: checkpoint_every / 20,
            }
        } else {
            Sizes {
                keys,
                depth,
                checkpoint_every,
            }
        }
    }

    /// The two op classes whose medians are the end-to-end latencies.
    pub fn primary_secondary(&self) -> (Class, Class) {
        match self.kind {
            Kind::Commit { .. } => (Class::Update, Class::Insert),
            Kind::AsOfDeep => (Class::AsOfPoint, Class::Scan),
            Kind::MixedSpill => (Class::WriteTxn, Class::AsOfPoint),
        }
    }

    pub fn config(&self, dir: &Path, clock: &Arc<SimClock>) -> DbConfig {
        let durability = match self.kind {
            Kind::Commit { fsync: true, .. } => Durability::Fsync,
            _ => Durability::Buffered,
        };
        DbConfig::new(dir)
            .pool_pages(self.pool_pages)
            .durability(durability)
            .clock(clock.clone())
    }

    /// The op stream of one client.
    pub fn stream(&self, seed: u64, client: usize, smoke: bool) -> Stream {
        let rng = SplitMix64::new(Stream::seed_for(seed, self.name, client as u64));
        let keys = self.sizes(smoke).keys;
        match self.kind {
            Kind::Commit { .. } => Stream::Commit {
                rng,
                client: client as u64,
                owned: keys / CLIENTS as u64,
                n: 0,
                inserts: 0,
            },
            Kind::AsOfDeep => Stream::AsOfDeep {
                rng,
                keys,
                client: client as u64,
                n: 0,
            },
            Kind::MixedSpill if client == 0 => Stream::SpillWriter {
                rng,
                zipf: Zipf::new(keys, 0.99),
            },
            Kind::MixedSpill => Stream::SpillReader { rng, keys, n: 0 },
        }
    }
}

/// What the benchmark knows the database must hold.
pub enum Model {
    /// `commit.*`: versions acknowledged per key. Autocommit replies carry
    /// no timestamp; the engine's own `HISTORY OF` supplies them when the
    /// reopened database is verified.
    Acked(BTreeMap<i32, u32>),
    /// Everything else: full history with commit timestamps, shared
    /// between the writer that extends it and the reader that checks
    /// against it.
    History(Arc<RwLock<Oracle>>),
}

impl Model {
    pub fn next_version(&self, key: i32) -> u32 {
        match self {
            Model::Acked(m) => m.get(&key).copied().unwrap_or(0),
            Model::History(o) => o.read().expect("oracle lock").next_version(key),
        }
    }

    /// A copy for another client or pass: the same shared oracle, or the
    /// same acknowledged counts.
    pub fn share(&self) -> Model {
        match self {
            Model::Acked(m) => Model::Acked(m.clone()),
            Model::History(o) => Model::History(o.clone()),
        }
    }
}

/// A database set up and ready to be measured.
pub struct Bed {
    pub dir: PathBuf,
    pub db: Arc<Database>,
    pub clock: Arc<SimClock>,
    pub model: Model,
    /// Rows written by the set-up (payload bytes = rows × 12).
    pub rows_written: u64,
}

/// Engine errors cross the benchmark as text.
pub fn s<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Empty directory → open database with its tables, preloaded rows and
/// history, checkpointed.
pub fn set_up(spec: &Spec, dir: &Path, smoke: bool) -> Result<Bed, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(s)?;
    let clock = Arc::new(SimClock::new(EPOCH_MS));
    let db = Database::open(spec.config(dir, &clock)).map_err(s)?;
    let sizes = spec.sizes(smoke);
    let immortal = !matches!(
        spec.kind,
        Kind::Commit {
            immortal: false,
            ..
        }
    );
    let ddl = format!(
        "CREATE {}TABLE {TABLE} {COLUMNS}",
        if immortal { "IMMORTAL " } else { "" }
    );
    Session::new(&db).execute(&ddl).map_err(s)?;

    let stride = if matches!(spec.kind, Kind::Commit { .. }) {
        KEY_STRIDE
    } else {
        1
    };
    let keys: Vec<i32> = (0..sizes.keys as i32).map(|i| i * stride).collect();
    let row = |key: i32, n: u32| {
        let (x, y) = row_value(key, n);
        vec![Value::Int(key), Value::Int(x), Value::Int(y)]
    };

    let mut oracle = Oracle::default();
    let mut commits = 0u64;
    let mut txn = db.begin(Isolation::Serializable);
    db.insert_rows(&mut txn, TABLE, keys.iter().map(|k| row(*k, 0)).collect())
        .map_err(s)?;
    oracle.record_commit(db.commit(&mut txn).map_err(s)?, &keys);
    clock.advance(TICK_MS);
    for _ in 0..sizes.depth {
        for batch in keys.chunks(SETUP_BATCH) {
            let mut txn = db.begin(Isolation::Serializable);
            for key in batch {
                db.update_row(&mut txn, TABLE, row(*key, oracle.next_version(*key)))
                    .map_err(s)?;
            }
            oracle.record_commit(db.commit(&mut txn).map_err(s)?, batch);
            commits += 1;
            if commits.is_multiple_of(COMMITS_PER_TICK) {
                clock.advance(TICK_MS);
            }
        }
    }
    // Close the set-up's last tick, and leave the pool clean and every
    // preloaded version stamped, so the first measured op finds the
    // steady state.
    clock.advance(TICK_MS);
    db.checkpoint().map_err(s)?;

    let rows_written = oracle.versions_total() as u64;
    let model = match spec.kind {
        Kind::Commit { .. } => Model::Acked(keys.iter().map(|k| (*k, 1)).collect()),
        _ => Model::History(Arc::new(RwLock::new(oracle))),
    };
    Ok(Bed {
        dir: dir.to_path_buf(),
        db: Arc::new(db),
        clock,
        model,
        rows_written,
    })
}

/// Start the server on an ephemeral loopback port and connect `n`
/// clients to it.
pub fn serve(bed: &Bed, n: usize) -> Result<(Server, Vec<Client>), String> {
    let server =
        Server::start(bed.db.clone(), ServerConfig::new("127.0.0.1:0").workers(2)).map_err(s)?;
    let clients = (0..n)
        .map(|_| Client::connect(server.local_addr()).map_err(s))
        .collect::<Result<_, _>>()?;
    Ok((server, clients))
}

/// Bytes of the data file (the WAL is not part of the store's size).
pub fn data_file_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("data.idb")).map_or(0, |m| m.len())
}
