//! The perf ledger: this repository's benchmark.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one workload; last stdout line is the result object
//! ledger run   --seed N [--seconds S] [--smoke]          every workload, tracing off → out/result-N.json
//! ledger trace --seed N [--seconds S] [--smoke]          the traced run → out/trace-N.json, out/trace-<workload>.json
//! ledger compare A B                                     two result files or directories of them
//! ledger calibrate [--runs R] [--seed N] [--seconds S]   R full sets → baseline/, bounds → BENCHMARK.json
//! ```
//!
//! Run from the repository root: `BENCHMARK.json`, the scratch
//! directory (`ledger/out/`) and `ledger/baseline/` are found relative
//! to the working directory.

mod exec;
mod gen;
mod json;
mod oracle;
mod report;
mod run;
mod spans;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use report::{Measured, Row};
use workloads::{Spec, SPECS};

/// Measured window when `--seconds` is not given; `run_seconds` in
/// `BENCHMARK.json` says the same.
const DEFAULT_SECONDS: f64 = 10.0;
/// Window of a `--smoke` run: all five workloads in well under 15 s.
const SMOKE_SECONDS: f64 = 0.4;

const OUT_DIR: &str = "ledger/out";
const BASELINE_DIR: &str = "ledger/baseline";
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// The end-to-end metrics: name, unit, better. Every workload reports
/// every one of them, and none is ever 0.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("ops_per_s", "1/s", "higher"),
    ("primary_p50_us", "us", "lower"),
    ("secondary_p50_us", "us", "lower"),
    ("space_amp", "x", "lower"),
    ("setup_s", "s", "lower"),
];

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        flags: BTreeMap::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if name == "smoke" {
                args.flags.insert(name.into(), "1".into());
            } else {
                let value = it.next().ok_or(format!("--{name} needs a value"))?;
                args.flags.insert(name.into(), value);
            }
        } else if args.command.is_none() && args.flags.is_empty() {
            args.command = Some(a);
        } else {
            args.positional.push(a);
        }
    }
    Ok(args)
}

impl Args {
    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
            None => Ok(default),
        }
    }

    fn smoke(&self) -> bool {
        self.flags.contains_key("smoke")
    }

    fn seconds(&self) -> Result<f64, String> {
        let default = if self.smoke() {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
        let s: f64 = self.num("seconds", default)?;
        if s > 0.0 && s <= 60.0 {
            Ok(s)
        } else {
            Err(format!("--seconds {s}: out of range"))
        }
    }

    /// The workloads to run: the one named, or all five.
    fn specs(&self) -> Result<Vec<&'static Spec>, String> {
        match self.flags.get("workload") {
            Some(name) => workloads::spec(name)
                .map(|s| vec![s])
                .ok_or(format!("--workload {name}: no such workload")),
            None => Ok(SPECS.iter().collect()),
        }
    }
}

/// The scratch directory for databases: made on entry, removed on exit.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = Path::new(OUT_DIR).join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(
    spec: &Spec,
    traced: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Measured, String> {
    let scratch = Scratch::new()?;
    eprintln!("{}: {}", spec.name, spec.why);
    if traced {
        trace::trace_workload(spec, seed, seconds, smoke, &scratch.0, Path::new(OUT_DIR))
    } else {
        run::run_workload(spec, seed, seconds, smoke, &scratch.0)
    }
}

/// The selected workloads in one mode, rows printed as they come. One
/// workload runs here; several run each in a child process of its own, as
/// the driver runs them — a set-up in a process that has already run
/// another workload is 15–40 % slower. Returns the rows and the names of
/// the workloads on which an operation failed.
fn run_all(args: &Args, traced: bool, seed: u64) -> Result<(Vec<Row>, Vec<&'static str>), String> {
    let seconds = args.seconds()?;
    let specs = args.specs()?;
    let mut rows = Vec::new();
    let mut failed = Vec::new();
    for spec in &specs {
        if specs.len() == 1 {
            let out = run_one(spec, traced, seed, seconds, args.smoke())?;
            report::print_rows(&out.rows);
            if let Some(f) = &out.first_failure {
                eprintln!(
                    "{}: {} of {} failed, first: {f}",
                    spec.name, out.failed, out.attempted
                );
                failed.push(spec.name);
            }
            rows.extend(out.rows);
            continue;
        }
        let file =
            Path::new(OUT_DIR).join(format!("part-{}-{}.json", std::process::id(), spec.name));
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = std::process::Command::new(exe);
        child
            .arg(if traced { "trace" } else { "run" })
            .args(["--workload", spec.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .arg("--result")
            .arg(&file);
        if args.smoke() {
            child.arg("--smoke");
        }
        if !child.status().map_err(|e| e.to_string())?.success() {
            failed.push(spec.name);
        }
        rows.extend(report::read_side(&file)?.into_iter().flatten());
        let _ = std::fs::remove_file(&file);
    }
    Ok((rows, failed))
}

/// `run` and `trace`: the selected workloads, then the result file;
/// fails if any operation did.
fn run_set(args: &Args, traced: bool) -> Result<(), String> {
    let seed: u64 = args.num("seed", 1)?;
    let kind = if traced { "trace" } else { "result" };
    let default = Path::new(OUT_DIR).join(format!("{kind}-{seed}.json"));
    let path = args.flags.get("result").map_or(default, PathBuf::from);
    let (rows, failed) = run_all(args, traced, seed)?;
    report::write_results(&path, report::fingerprint(seed, Path::new(OUT_DIR)), &rows)?;
    println!("wrote {}", path.display());
    if !failed.is_empty() {
        return Err(format!("operations failed on {}", failed.join(", ")));
    }
    Ok(())
}

/// The driver's contract: one workload, and as the last line of stdout
/// one object with `correct`, `attempted`, `failed` and the end-to-end
/// (`--trace 0`) or per-layer (`--trace 1`) metrics.
fn driver(args: &Args) -> Result<(), String> {
    let name = args.flags.get("workload").ok_or("--workload is required")?;
    let spec = workloads::spec(name).ok_or(format!("--workload {name}: no such workload"))?;
    let seed: u64 = args.num("seed", 1)?;
    let traced = match args.flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let out = run_one(spec, traced, seed, args.seconds()?, args.smoke())?;
    report::print_rows(&out.rows);
    if let Some(f) = &out.first_failure {
        eprintln!("{}: first failure: {f}", spec.name);
    }
    let listed: Vec<&str> = if traced {
        trace::LAYER_METRICS.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let metrics = listed.iter().map(|name| {
        let row = out
            .rows
            .iter()
            .find(|r| r.metric == *name)
            .expect("every listed metric has a row");
        // A counter the engine no longer has is `null` in the result
        // files; the result line carries numbers only, so it reads -1.
        let value = row.value.unwrap_or(-1.0);
        (
            *name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(&row.unit))]),
        )
    });
    let line = Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.compact());
    Ok(())
}

fn compare(args: &Args) -> Result<(), String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: ledger compare A B".into());
    };
    let gates = report::read_gates(Path::new(BENCHMARK_JSON))?;
    let (worse, unresolved) = report::compare(
        &gates,
        &report::read_side(Path::new(a))?,
        &report::read_side(Path::new(b))?,
    );
    println!("{worse} worse, {unresolved} unresolved");
    if worse + unresolved > 0 {
        return Err("the two sides do not agree".into());
    }
    Ok(())
}

/// Run the whole set `--runs` times on consecutive seeds, keep the result
/// files as the baseline, and set each end-to-end metric's bound to three
/// times its widest run-to-run spread (at least 5 %, at most 25 %).
fn calibrate(args: &Args) -> Result<(), String> {
    let runs: u64 = args.num("runs", 5)?;
    let seed0: u64 = args.num("seed", 1)?;
    // Before the minutes of measuring, not after.
    report::read_gates(Path::new(BENCHMARK_JSON))?;
    let mut sets = Vec::new();
    for seed in seed0..seed0 + runs {
        let (rows, failed) = run_all(args, false, seed)?;
        if !failed.is_empty() {
            return Err(format!(
                "seed {seed}: operations failed on {}",
                failed.join(", ")
            ));
        }
        let path = Path::new(BASELINE_DIR).join(format!("result-{seed}.json"));
        report::write_results(&path, report::fingerprint(seed, Path::new(OUT_DIR)), &rows)?;
        println!("wrote {}", path.display());
        sets.push(rows);
    }
    let values = report::collect(&sets);
    let mut bounds = BTreeMap::new();
    for (name, _, _) in END_TO_END {
        let widest = values
            .iter()
            .filter(|((_, metric), _)| metric == name)
            .map(|((workload, _), v)| {
                let sp = stats::spread(v);
                println!(
                    "{workload:<14} {name:<18} median {:>14.4} spread {sp:.4}",
                    stats::median(v)
                );
                sp
            })
            .fold(0.0, f64::max);
        let bound = ((3.0 * widest * 100.0).ceil() / 100.0).clamp(0.05, 0.25);
        if 3.0 * widest > 0.25 {
            println!("{name}: spread {widest:.4} is too wide for any allowed bound; lengthen the run or demote the metric");
        }
        bounds.insert(name.to_string(), bound);
    }
    report::write_bounds(Path::new(BENCHMARK_JSON), &bounds)?;
    println!("bounds written to {BENCHMARK_JSON}: {bounds:?}");
    Ok(())
}

/// Confine this process — the clients and the in-process server alike —
/// to the first CPU it is allowed on. On the two-vCPU sandbox a request
/// that hops between CPUs pays more for the wake-up than for the work,
/// and how often it hops drifts from second to second: the same commit
/// measured 20.7 k ops/s ± 6 % across both CPUs and 29.2 k ± 1.2 % on one.
/// One CPU measures the program; see the README for what that gives up.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls get a pointer to `mask` and its exact size in
    // bytes; pid 0 names the calling thread. The kernel reads or writes
    // at most `size` bytes.
    let pinned = unsafe {
        sched_getaffinity(0, size, mask.as_mut_ptr()) == 0 && {
            if let Some(word) = mask.iter().position(|w| *w != 0) {
                let bit = mask[word].trailing_zeros();
                mask = [0u64; 16];
                mask[word] = 1 << bit;
            }
            sched_setaffinity(0, size, mask.as_ptr()) == 0
        }
    };
    if !pinned {
        eprintln!("ledger: could not pin to one CPU; numbers will be noisier");
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

fn main() -> ExitCode {
    // Before any thread is spawned: threads inherit the mask.
    pin_to_one_cpu();
    let result = parse_args().and_then(|args| match args.command.as_deref() {
        None => driver(&args),
        Some("run") => run_set(&args, false),
        Some("trace") => run_set(&args, true),
        Some("compare") => compare(&args),
        Some("calibrate") => calibrate(&args),
        Some(other) => Err(format!("unknown command {other:?}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code must name the same workloads and
    /// metrics, or the driver would look for numbers nobody prints.
    #[test]
    fn benchmark_json_agrees_with_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(BENCHMARK_JSON);
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(&END_TO_END));
        assert_eq!(names("per_layer"), owned(&trace::LAYER_METRICS));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| {
                (
                    w.get("name").unwrap().as_str().unwrap().to_string(),
                    w.get("why").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        let specs: Vec<(String, String)> = SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, specs);
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
    }
}
