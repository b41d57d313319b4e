//! Result rows, the files they are kept in, `BENCHMARK.json`, and the
//! comparison of two sets of runs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::stats::{median, spread};

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// `None` prints as `null`: a counter the engine no longer has.
    pub value: Option<f64>,
    pub samples: u64,
}

impl Row {
    pub fn new(workload: &str, metric: &str, unit: &str, value: Option<f64>, samples: u64) -> Row {
        Row {
            workload: workload.into(),
            metric: metric.into(),
            unit: unit.into(),
            value,
            samples,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("metric", Json::str(&self.metric)),
            ("unit", Json::str(&self.unit)),
            ("value", self.value.map_or(Json::Null, Json::Num)),
            ("samples", Json::Num(self.samples as f64)),
        ])
    }

    fn from_json(j: &Json) -> Option<Row> {
        Some(Row {
            workload: j.get("workload")?.as_str()?.into(),
            metric: j.get("metric")?.as_str()?.into(),
            unit: j.get("unit")?.as_str()?.into(),
            value: j.get("value")?.as_f64(),
            samples: j.get("samples")?.as_f64()? as u64,
        })
    }
}

/// What one workload's run — untraced or traced — comes back with.
pub struct Measured {
    pub rows: Vec<Row>,
    /// Operations attempted and failed (errored, shed, or answered
    /// wrongly), the re-verification after the reopen included.
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

pub fn print_rows(rows: &[Row]) {
    let w = rows.iter().map(|r| r.metric.len()).max().unwrap_or(0);
    for r in rows {
        let value = r.value.map_or("null".to_string(), |v| format!("{v:.4}"));
        println!(
            "{:<14} {:<w$} {:>16} {:<6} n={}",
            r.workload, r.metric, value, r.unit, r.samples
        );
    }
}

/// Where and on what the numbers were taken. Commands that are missing
/// (a checkout that is not a git repository) read as "unknown".
pub fn fingerprint(seed: u64, scratch: &Path) -> Json {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    // This process is pinned, so its own parallelism is what it uses, not
    // what the box has.
    let used = std::thread::available_parallelism().map_or(0, |n| n.get());
    let nproc = run("nproc", &["--all"]).parse().unwrap_or(used as f64);
    Json::obj([
        ("commit", Json::str(run("git", &["rev-parse", "HEAD"]))),
        ("nproc", Json::Num(nproc)),
        ("cpus_used", Json::Num(used as f64)),
        ("rustc", Json::str(run("rustc", &["--version"]))),
        ("scratch_fs", Json::str(filesystem_of(scratch))),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split(' ');
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

pub fn write_results(path: &Path, fingerprint: Json, rows: &[Row]) -> Result<(), String> {
    let doc = Json::obj([
        ("fingerprint", fingerprint),
        ("rows", Json::Arr(rows.iter().map(Row::to_json).collect())),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_results(path: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = doc
        .get("rows")
        .ok_or_else(|| format!("{}: no rows", path.display()))?;
    Ok(rows.as_arr().iter().filter_map(Row::from_json).collect())
}

/// A side of a comparison: one result file, or every `result-*.json`
/// in a directory.
pub fn read_side(path: &Path) -> Result<Vec<Vec<Row>>, String> {
    if !path.is_dir() {
        return Ok(vec![read_results(path)?]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("result-") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no result-*.json files", path.display()));
    }
    files.iter().map(|f| read_results(f)).collect()
}

// -- BENCHMARK.json -----------------------------------------------------------

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn read_gates(benchmark_json: &Path) -> Result<Vec<Gate>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let doc = Json::parse(&text)?;
    doc.get("end_to_end")
        .ok_or("BENCHMARK.json: no end_to_end")?
        .as_arr()
        .iter()
        .map(|m| {
            Some(Gate {
                name: m.get("name")?.as_str()?.into(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".into())
}

/// Rewrite the `bound` of each end-to-end metric named in `bounds`.
pub fn write_bounds(benchmark_json: &Path, bounds: &BTreeMap<String, f64>) -> Result<(), String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let mut doc = Json::parse(&text)?;
    let metrics = doc
        .get_mut("end_to_end")
        .and_then(Json::as_arr_mut)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    for m in metrics {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        if let (Some(b), Some(slot)) = (bounds.get(&name), m.get_mut("bound")) {
            *slot = Json::Num(*b);
        }
    }
    std::fs::write(benchmark_json, doc.pretty()).map_err(|e| e.to_string())
}

// -- compare ------------------------------------------------------------------

/// Values of every `(workload, metric)` across the runs of one side.
pub fn collect(runs: &[Vec<Row>]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for row in runs.iter().flatten() {
        if let Some(v) = row.value {
            out.entry((row.workload.clone(), row.metric.clone()))
                .or_default()
                .push(v);
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    /// The run-to-run spread of a side is wider than the bound: the runs
    /// cannot tell a change of that size from noise.
    Unresolved,
}

/// Judge side `b` against side `a` (the base) for one gated metric.
pub fn judge(gate: &Gate, a: &[f64], b: &[f64]) -> Verdict {
    if spread(a).max(spread(b)) > gate.bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if gate.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    if worse_by > gate.bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Print one row per `(workload, metric)`; returns how many gated rows
/// are `worse` and how many `unresolved`.
pub fn compare(gates: &[Gate], a: &[Vec<Row>], b: &[Vec<Row>]) -> (usize, usize) {
    let (a, b) = (collect(a), collect(b));
    let (mut worse, mut unresolved) = (0, 0);
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>22} {:>7} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "b/a (base a)", "spread", "bound"
    );
    for ((workload, metric), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let ratio = if ma == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4} (a={ma:.4})", mb / ma)
        };
        let noise = spread(va).max(spread(vb));
        let (bound, verdict) = match gates.iter().find(|g| g.name == *metric) {
            Some(g) => {
                let v = judge(g, va, vb);
                worse += usize::from(v == Verdict::Worse);
                unresolved += usize::from(v == Verdict::Unresolved);
                let word = match v {
                    Verdict::Within => "within",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                };
                (format!("{:.3}", g.bound), word)
            }
            None => ("-".to_string(), "diagnostic"),
        };
        println!(
            "{workload:<14} {metric:<26} {ma:>14.4} {mb:>14.4} {ratio:>22} {noise:>7.3} {bound:>7}  {verdict}"
        );
    }
    (worse, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(higher: bool) -> Gate {
        Gate {
            name: "m".into(),
            higher_is_better: higher,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        // Lower is better: 20 % more is worse, 20 % less is within.
        assert_eq!(judge(&gate(false), &steady, &slower), Verdict::Worse);
        assert_eq!(judge(&gate(false), &slower, &steady), Verdict::Within);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(judge(&gate(true), &steady, &slower), Verdict::Within);
        assert_eq!(judge(&gate(true), &slower, &steady), Verdict::Worse);
        // A side that cannot resolve the bound is not called unchanged.
        assert_eq!(judge(&gate(false), &steady, &noisy), Verdict::Unresolved);
        assert_eq!(judge(&gate(false), &steady, &steady), Verdict::Within);
    }

    #[test]
    fn rows_survive_the_result_file() {
        let dir = std::env::temp_dir().join(format!("ledger-report-{}", std::process::id()));
        let path = dir.join("result-1.json");
        let rows = vec![
            Row::new(
                "commit.cpu",
                "ops_per_s",
                "1/s",
                Some(15_234.567_891),
                120_000,
            ),
            Row::new("commit.cpu", "bytes_per_version", "B", None, 0),
        ];
        write_results(&path, Json::obj([("seed", Json::Num(1.0))]), &rows).unwrap();
        assert_eq!(read_side(&path).unwrap(), vec![rows.clone()]);
        assert_eq!(read_side(&dir).unwrap(), vec![rows]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"value\": null"),
            "a missing counter prints null"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
