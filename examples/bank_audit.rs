//! Data auditing — the paper's §1.1 banking scenario.
//!
//! "For auditing purposes, a bank finds it useful to keep previous states
//! of the database to check that account balances are correct and to
//! provide customers with a detailed history of their account."
//!
//! An IMMORTAL accounts table records every balance change forever; the
//! auditor replays end-of-"day" snapshots with AS OF queries and verifies
//! conservation of money across transfers — including one the teller
//! rolled back, which correctly leaves no trace.
//!
//! ```text
//! cargo run --example bank_audit
//! ```

use immortaldb::{Database, DbConfig, Session, Value};

fn balance_at(db: &Database, ts: immortaldb::Timestamp) -> immortaldb::Result<i64> {
    let mut txn = db.begin_as_of_ts(ts);
    let rows = db.scan_rows(&mut txn, "accounts")?;
    db.commit(&mut txn)?;
    Ok(rows.iter().map(|r| r[1].as_i64().unwrap()).sum())
}

fn main() -> immortaldb::Result<()> {
    let dir = std::env::temp_dir().join(format!("immortal-bank-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(DbConfig::new(&dir))?;
    let mut s = Session::new(&db);

    s.execute(
        "CREATE IMMORTAL TABLE accounts (id INT PRIMARY KEY, balance BIGINT, owner VARCHAR(32))",
    )?;
    s.execute(
        "INSERT INTO accounts VALUES (1, 1000, 'alice'), (2, 500, 'bob'), (3, 250, 'carol')",
    )?;
    let day0 = db.visible_horizon();
    println!("day 0: opened 3 accounts, total = 1750");

    // Day 1: alice pays bob 300 — atomically.
    s.execute("BEGIN TRAN")?;
    s.execute("UPDATE accounts SET balance = 700 WHERE id = 1")?;
    s.execute("UPDATE accounts SET balance = 800 WHERE id = 2")?;
    s.execute("COMMIT TRAN")?;
    let day1 = db.visible_horizon();
    println!("day 1: alice -> bob 300");

    // Day 2: a mistaken transfer, rolled back before commit. Because the
    // transaction never committed, it must be invisible to every audit.
    s.execute("BEGIN TRAN")?;
    s.execute("UPDATE accounts SET balance = 0 WHERE id = 3")?;
    s.execute("ROLLBACK TRAN")?;
    // ...and the real day-2 business: carol deposits 50.
    s.execute("UPDATE accounts SET balance = 300 WHERE id = 3")?;
    let day2 = db.visible_horizon();
    println!("day 2: bad transfer rolled back; carol deposited 50");

    // The audit: total balances at each end-of-day snapshot.
    println!("\naudit (AS OF each day-end):");
    for (day, ts, expect) in [(0u32, day0, 1750i64), (1, day1, 1750), (2, day2, 1800)] {
        let total = balance_at(&db, ts)?;
        println!("  day {day}: total = {total}");
        assert_eq!(total, expect, "day {day} audit");
    }

    // Per-account statement for alice, from the version history.
    println!("\nstatement for account 1 (alice), oldest first:");
    let mut history = db.history_rows("accounts", &Value::Int(1))?;
    history.reverse();
    for (ts, row) in &history {
        let at = ts.map(|t| t.ttime).unwrap_or(0);
        match row {
            Some(r) => println!("  @{at}: balance {}", r[1]),
            None => println!("  @{at}: account closed"),
        }
    }
    assert_eq!(
        history.len(),
        2,
        "open + one transfer; the rollback left no trace"
    );

    db.close()?;
    let _ = std::fs::remove_dir_all(&dir);
    println!("\nok");
    Ok(())
}
