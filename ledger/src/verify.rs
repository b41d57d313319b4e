//! After the run: reopen the database and re-verify what was
//! acknowledged.

use std::path::Path;
use std::sync::Arc;

use immortaldb::{Database, Session, SimClock, Timestamp, Value};

use crate::gen::{SplitMix64, Stream};
use crate::oracle::{expected_row, Oracle};
use crate::workloads::{s, Kind, Model, Spec, TABLE};

/// Sampled `AS OF` answers re-verified after the reopen.
pub const VERIFY_SAMPLES: u64 = 1_000;

/// Reopen the (closed) database and check, through a SQL session, every
/// key's last acknowledged value and `VERIFY_SAMPLES` historical answers.
/// Returns `(checks made, checks failed, first failure)`.
pub fn verify_reopened(
    spec: &Spec,
    dir: &Path,
    clock: &Arc<SimClock>,
    model: &Model,
    seed: u64,
) -> Result<(u64, u64, Option<String>), String> {
    let db = Database::open(spec.config(dir, clock)).map_err(s)?;
    let mut session = Session::new(&db);
    let mut rng = SplitMix64::new(Stream::seed_for(seed, spec.name, 99));
    let (mut checked, mut failed, mut first) = (0u64, 0u64, None);
    let mut judge = |ok: bool, what: String| {
        checked += 1;
        if !ok {
            failed += 1;
            first.get_or_insert(what);
        }
    };
    let select = |session: &mut Session, key: i32| {
        session
            .execute(&format!("SELECT * FROM {TABLE} WHERE Oid = {key}"))
            .map(|r| r.rows)
            .unwrap_or_else(|e| vec![vec![Value::Varchar(s(e))]])
    };
    let as_of = |session: &mut Session, key: i32, ts: Timestamp| {
        if let Err(e) = session.begin_as_of_ts(ts) {
            return vec![vec![Value::Varchar(s(e))]];
        }
        let rows = select(session, key);
        let _ = Session::commit(session);
        rows
    };
    match model {
        Model::Acked(acked) => {
            for (key, n) in acked {
                let want = vec![expected_row(*key, n - 1)];
                judge(
                    select(&mut session, *key) == want,
                    format!("current row of {key}"),
                );
            }
            if matches!(spec.kind, Kind::Commit { immortal: true, .. }) {
                let keys: Vec<_> = acked.iter().collect();
                for _ in 0..VERIFY_SAMPLES {
                    let (key, n) = keys[rng.below(keys.len() as u64) as usize];
                    let listing = session
                        .execute(&format!("HISTORY OF {TABLE} WHERE Oid = {key}"))
                        .map(|r| r.rows)
                        .unwrap_or_default();
                    let ok = Oracle::check_history(&listing, *key, *n).is_some_and(|stamps| {
                        let v = rng.below(stamps.len() as u64) as usize;
                        as_of(&mut session, *key, stamps[v]) == vec![expected_row(*key, v as u32)]
                    });
                    judge(ok, format!("history of {key} ({n} acknowledged versions)"));
                }
            }
        }
        Model::History(oracle) => {
            let oracle = oracle.read().expect("oracle lock");
            let keys: Vec<i32> = oracle.keys().collect();
            for key in &keys {
                judge(
                    oracle.check_current(&select(&mut session, *key), *key),
                    format!("current row of {key}"),
                );
            }
            for _ in 0..VERIFY_SAMPLES {
                let key = keys[rng.below(keys.len() as u64) as usize];
                let ts = oracle.commit_at(rng.next_u64() as u32);
                judge(
                    oracle.check_point(&as_of(&mut session, key, ts), key, ts),
                    format!("key {key} AS OF {}.{}", ts.ttime, ts.sn),
                );
            }
        }
    }
    drop(session);
    db.close().map_err(s)?;
    Ok((checked, failed, first))
}
