//! Moving objects on a road network — the paper's §5 scenario.
//!
//! Drives the Brinkhoff-style network generator against an IMMORTAL
//! table: objects appear (insert transactions) and report positions as
//! they move (update transactions). Afterwards we reconstruct complete
//! trajectories with AS OF queries and per-record time travel — the
//! "tracing the trajectory of moving objects" application from §1.1.
//!
//! ```text
//! cargo run --release --example moving_objects
//! ```

use immortaldb::{Database, DbConfig, Isolation, Session, Value};
use immortaldb_mobgen::{Generator, Op};

fn main() -> immortaldb::Result<()> {
    let dir = std::env::temp_dir().join(format!("immortal-mobjs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(DbConfig::new(&dir))?;
    let mut session = Session::new(&db);
    session.execute(
        "CREATE IMMORTAL TABLE MovingObjects \
         (Oid INT PRIMARY KEY, LocationX INT, LocationY INT)",
    )?;

    // 50 vehicles, each reporting 40 position updates.
    let events = Generator::events_exact(2026, 50, 40);
    println!(
        "applying {} transactions from the generator...",
        events.len()
    );
    let mut mid_run = None;
    for (i, e) in events.iter().enumerate() {
        let mut txn = db.begin(Isolation::Serializable);
        match e.op {
            Op::Insert { oid, x, y } => db.insert_row(
                &mut txn,
                "MovingObjects",
                vec![Value::Int(oid as i32), Value::Int(x), Value::Int(y)],
            )?,
            Op::Update { oid, x, y } => db.update_row(
                &mut txn,
                "MovingObjects",
                vec![Value::Int(oid as i32), Value::Int(x), Value::Int(y)],
            )?,
        }
        db.commit(&mut txn)?;
        if i == events.len() / 2 {
            mid_run = Some(db.visible_horizon());
        }
    }
    let mid_run = mid_run.expect("events applied");

    // Where was the whole fleet halfway through?
    let mut txn = db.begin_as_of_ts(mid_run);
    let rows = db.scan_rows(&mut txn, "MovingObjects")?;
    db.commit(&mut txn)?;
    println!(
        "fleet snapshot halfway through the run: {} vehicles",
        rows.len()
    );
    for row in rows.iter().take(5) {
        println!("  vehicle {} was at ({}, {})", row[0], row[1], row[2]);
    }

    // Full trajectory of vehicle 7, reconstructed from its versions.
    let trajectory = db.history_rows("MovingObjects", &Value::Int(7))?;
    println!(
        "\ntrajectory of vehicle 7: {} recorded positions (newest first)",
        trajectory.len()
    );
    for (ts, row) in trajectory.iter().take(8) {
        let at = ts.map(|t| t.ttime).unwrap_or(0);
        match row {
            Some(r) => println!("  @{at}: ({}, {})", r[1], r[2]),
            None => println!("  @{at}: <deleted>"),
        }
    }
    assert_eq!(trajectory.len(), 41, "insert + 40 updates");

    // The same question in SQL.
    let res = session.execute("HISTORY OF MovingObjects WHERE Oid = 7")?;
    assert_eq!(res.rows.len(), 41);

    let (time_splits, key_splits) = db.split_counts();
    println!("\nstorage: {time_splits} time splits, {key_splits} key splits");
    println!("persistent timestamp table entries: {}", db.ptt_len()?);
    db.close()?;
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok");
    Ok(())
}
