//! **AS OF scan, layer by layer** — where the microseconds of one
//! full-table `AS OF` scan go, from the cursor's walk over the page
//! chain to a wire client holding the rows as values.
//!
//! The table is the ledger's `asof.deep` one, built the same way: 2,000
//! keys of `(Oid INT PRIMARY KEY, LocationX INT, LocationY INT)`, then
//! 100 rounds of 25-key update transactions on a simulated clock, so
//! every key has 101 versions spread over the time-split chains. The
//! scan reads all 2,000 rows at the instant half-way through that
//! history, and each layer adds one stage of what a collected wire scan
//! does:
//!
//! | layer | what is timed |
//! |---|---|
//! | walk | `Database::visit_rows` with a visitor that keeps nothing |
//! | check | `Schema::check_image` on the 2,000 images, already in memory |
//! | execute_into | `Session::execute_into` into a sink that drops every row |
//! | wire, rows not kept | `Client::query_rows` with a callback that keeps nothing |
//! | wire, collected | `Client::query`, the ledger's scan (the reply is dropped untimed) |
//! | client decode | `RowsFrame::next_row` over the result's frames, already in memory |
//!
//! The layers run round-robin, one scan each per round, and each reports
//! its median: a host that changes speed mid-run moves every layer, not
//! one. The process is pinned to one CPU while the experiment runs, as
//! the ledger pins itself, so the server's threads and the client's
//! share it; the mask is restored afterwards. Run it from a release
//! build (`cargo run --release -p immortaldb-bench -- --quick scan`):
//! the report says when it was not.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use immortaldb::row::PkBounds;
use immortaldb::{
    Database, DbConfig, Durability, Flow, Isolation, Result, RowSink, Session, SimClock, Step,
    Timestamp, Value,
};
use immortaldb_chaos::TempDir;
use immortaldb_net::proto::{RowsEncoder, RowsFrame};
use immortaldb_net::{Client, Server, ServerConfig};

use crate::harness::{pin_to_one_cpu, MOVING_OBJECTS};
use crate::report::{Cell, Report, Table};

const TABLE: &str = "MovingObjects";
const SCAN: &str = "SELECT * FROM MovingObjects";
/// The ledger's `asof.deep` shape.
const KEYS: i32 = 2_000;
const DEPTH: u32 = 100;
const BATCH: usize = 25;
const COMMITS_PER_TICK: u64 = 64;
const TICK_MS: u64 = 20;
/// The server's row chunk: a result frame closes once it is this long.
const ROW_CHUNK: usize = 64 * 1024;

/// One layer's median and the spread of its scans.
pub struct Layer {
    pub name: &'static str,
    pub p25_us: f64,
    pub median_us: f64,
    pub p75_us: f64,
}

pub struct ScanLayers {
    pub rows: usize,
    pub rounds: usize,
    pub setup_s: f64,
    pub pinned: bool,
    pub release: bool,
    pub layers: Vec<Layer>,
}

/// A sink that counts every row and keeps none.
struct Discard(usize);

impl RowSink for Discard {
    fn columns(&mut self, _: Vec<String>) -> Result<()> {
        Ok(())
    }

    fn row(&mut self, image: &[u8]) -> Result<Flow> {
        black_box(image);
        self.0 += 1;
        Ok(Flow::Continue)
    }
}

pub fn run(quick: bool) -> ScanLayers {
    let rounds = if quick { 101 } else { 501 };
    let pin = pin_to_one_cpu();
    let dir = TempDir::new("bench-scan");
    let t0 = Instant::now();
    let (db, at) = build(dir.path());
    let setup_s = t0.elapsed().as_secs_f64();

    let def = db.table(TABLE).expect("table");
    let mut txn = db.begin_as_of_ts(at);
    let mut images: Vec<Vec<u8>> = Vec::new();
    db.visit_rows(&mut txn, &def, &PkBounds::all(), |_, image| {
        images.push(image.to_vec());
        Ok(Flow::Continue)
    })
    .expect("scan");
    let rows = images.len();
    assert_eq!(rows, KEYS as usize, "every key has a row at the instant");
    let frames = encode_result(&images);

    let mut session = Session::new(&db);
    session.begin_as_of_ts(at).expect("session AS OF");
    let server = Server::start(db.clone(), ServerConfig::new("127.0.0.1:0").workers(2))
        .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.begin_as_of_ts(at).expect("client AS OF");

    let mut layers: Vec<(&'static str, Vec<f64>)> = [
        "walk",
        "check_image x rows",
        "execute_into, discarding sink",
        "wire query_rows, rows not kept",
        "wire query, collected",
        "client decode alone",
    ]
    .into_iter()
    .map(|name| (name, Vec::with_capacity(rounds)))
    .collect();
    let mut row = Vec::new();
    // One untimed round warms every path.
    for round in 0..=rounds {
        let mut times = [0f64; 6];
        let mut timed = |i: usize, f: &mut dyn FnMut() -> usize| {
            let t = Instant::now();
            let n = f();
            times[i] = t.elapsed().as_secs_f64() * 1e6;
            assert_eq!(n, rows, "layer {i} saw {n} rows");
        };
        timed(0, &mut || {
            let mut n = 0;
            db.visit_rows(&mut txn, &def, &PkBounds::all(), |_, image| {
                black_box(image);
                n += 1;
                Ok(Flow::Continue)
            })
            .expect("walk");
            n
        });
        timed(1, &mut || {
            for image in &images {
                def.schema.check_image(black_box(image)).expect("a row");
            }
            images.len()
        });
        timed(2, &mut || {
            let mut sink = Discard(0);
            let Ok(Step::Done(_)) = session.execute_into(SCAN, &mut sink) else {
                panic!("execute_into");
            };
            sink.0
        });
        timed(3, &mut || {
            let mut n = 0;
            client
                .query_rows(SCAN, |row| {
                    black_box(row);
                    n += 1;
                })
                .expect("query_rows");
            n
        });
        let mut kept = None;
        timed(4, &mut || {
            let resp = client.query(SCAN).expect("query");
            let n = resp.rows.len();
            kept = Some(resp);
            n
        });
        drop(kept);
        timed(5, &mut || {
            let mut n = 0;
            for payload in &frames {
                let mut frame = RowsFrame::decode(payload).expect("frame");
                while frame.next_row(&mut row).expect("row") {
                    black_box(&row);
                    n += 1;
                }
                frame.end().expect("frame end");
            }
            n
        });
        if round > 0 {
            for (layer, t) in layers.iter_mut().zip(times) {
                layer.1.push(t);
            }
        }
    }
    drop(client);
    server.shutdown().expect("server shutdown");
    db.commit(&mut txn).expect("end AS OF");
    let pinned = pin.is_some();
    drop(pin);
    ScanLayers {
        rows,
        rounds,
        setup_s,
        pinned,
        release: !cfg!(debug_assertions),
        layers: layers
            .into_iter()
            .map(|(name, mut us)| {
                us.sort_by(f64::total_cmp);
                let at = |p: f64| us[((us.len() - 1) as f64 * p).round() as usize];
                Layer {
                    name,
                    p25_us: at(0.25),
                    median_us: at(0.5),
                    p75_us: at(0.75),
                }
            })
            .collect(),
    }
}

/// The `asof.deep` table and the instant half-way through its history.
fn build(dir: &std::path::Path) -> (Arc<Database>, Timestamp) {
    let clock = Arc::new(SimClock::new(1_700_000_000_000));
    let db = Database::open(
        DbConfig::new(dir)
            .pool_pages(16_384)
            .durability(Durability::Buffered)
            .clock(clock.clone()),
    )
    .expect("open bench db");
    Session::new(&db)
        .execute(&format!("CREATE IMMORTAL TABLE {MOVING_OBJECTS}"))
        .expect("create table");
    let row = |key: i32, n: u32| {
        let (x, y) = (key.wrapping_mul(7) ^ n as i32, n as i32);
        vec![Value::Int(key), Value::Int(x), Value::Int(y)]
    };
    let keys: Vec<i32> = (0..KEYS).collect();
    let mut txn = db.begin(Isolation::Serializable);
    db.insert_rows(&mut txn, TABLE, keys.iter().map(|k| row(*k, 0)).collect())
        .expect("insert");
    db.commit(&mut txn).expect("commit");
    clock.advance(TICK_MS);
    let mut commits = 0u64;
    let mut middle = None;
    for n in 1..=DEPTH {
        for batch in keys.chunks(BATCH) {
            let mut txn = db.begin(Isolation::Serializable);
            for key in batch {
                db.update_row(&mut txn, TABLE, row(*key, n))
                    .expect("update");
            }
            db.commit(&mut txn).expect("commit");
            commits += 1;
            if commits.is_multiple_of(COMMITS_PER_TICK) {
                clock.advance(TICK_MS);
            }
        }
        if n == DEPTH / 2 {
            middle = Some(db.visible_horizon());
        }
    }
    clock.advance(TICK_MS);
    db.checkpoint().expect("checkpoint");
    (Arc::new(db), middle.expect("a middle instant"))
}

/// The result frames a server sends for `images`, each frame's payload
/// (opcode and length stripped) as the client decodes it.
fn encode_result(images: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let columns = ["Oid", "LocationX", "LocationY"].map(String::from);
    let mut wire = Vec::new();
    let mut enc = RowsEncoder::begin(&mut wire, true, &columns);
    for image in images {
        enc.row(&mut wire, image);
        if enc.frame_len(&wire) >= ROW_CHUNK {
            enc.end_chunk(&mut wire);
        }
    }
    enc.finish(&mut wire, true, None, "");
    let mut frames = Vec::new();
    let mut rest = wire.as_slice();
    while let Some((len, tail)) = rest.split_first_chunk::<4>() {
        let len = u32::from_le_bytes(*len) as usize;
        frames.push(tail[1..len].to_vec());
        rest = &tail[len..];
    }
    frames
}

pub fn report(r: &ScanLayers) -> Report {
    let collected = r.layers[4].median_us;
    let rows = r
        .layers
        .iter()
        .map(|l| {
            vec![
                Cell::from(l.name),
                Cell::fixed(l.median_us, 1),
                Cell::new(
                    format!("{:.1}-{:.1}", l.p25_us, l.p75_us),
                    crate::json::Json::arr([l.p25_us, l.p75_us]),
                ),
                Cell::fixed(l.median_us * 1e3 / r.rows as f64, 1),
                Cell::fixed(l.median_us / collected, 2),
            ]
        })
        .collect();
    let mut table = Table::new(
        format!(
            "AS OF scan, layer by layer: {} rows at the middle of {}-deep history, \
             median of {} rounds",
            r.rows,
            DEPTH + 1,
            r.rounds
        ),
        [
            "layer",
            "median (us)",
            "p25-p75 (us)",
            "ns/row",
            "of collected",
        ],
        rows,
    )
    .note(format!(
        "set-up {:.1} s; {}",
        r.setup_s,
        if r.pinned {
            "pinned to one CPU"
        } else {
            "NOT pinned: numbers spread wider"
        }
    ));
    if !r.release {
        table = table.note("debug build: run with --release for numbers that mean anything");
    }
    let mut report = Report::default()
        .param("rows", r.rows)
        .param("rounds", r.rounds)
        .param("setup_s", r.setup_s)
        .param("pinned", r.pinned)
        .param("release", r.release)
        .table(table);
    for l in &r.layers {
        report = report.param(l.name, l.median_us);
    }
    report
}
