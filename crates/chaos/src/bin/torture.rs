//! Crash-recovery torture harness CLI.
//!
//! ```text
//! cargo run -p immortaldb-chaos --bin torture -- --seed 42 --ops 2000 --crashes 25
//! cargo run -p immortaldb-chaos --bin torture -- --threads 4 --seed 42 --keys 16
//! ```
//!
//! With `--threads N`, N writers on disjoint key ranges share
//! group-commit batches, so crashes cut mid-batch; the crash schedule and
//! the audit are the same as for one writer. Exits non-zero if any
//! recovery invariant was violated.

use std::process::ExitCode;

use immortaldb_chaos::{run, TortureConfig};

const USAGE: &str = "\
torture — deterministic crash-recovery torture harness for Immortal DB

USAGE:
    torture [OPTIONS]

OPTIONS:
    --seed <u64>              RNG seed for workload and fault schedule [default: 42]
    --ops <n>                 workload operations across the run [default: 500]
    --crashes <n>             scheduled crash/recover episodes [default: 5]
    --keys <n>                distinct primary keys in play [default: 24]
    --pool-pages <n>          buffer pool capacity in pages [default: 16]
    --threads <n>             concurrent writers on disjoint key ranges [default: 1]
    --read-error-rate <f64>   transient read fault probability [default: 0.001]
    --fsync-error-rate <f64>  fsync fault probability [default: 0.002]
    --no-page-images          disable page-image logging (also disables torn writes)
    --verbose                 narrate episodes as they happen
    -h, --help                print this help
";

fn parse<T: std::str::FromStr>(flag: &str, val: Option<String>) -> Result<T, String> {
    let raw = val.ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: invalid value {raw:?}"))
}

fn parse_args() -> Result<Option<TortureConfig>, String> {
    let mut args = std::env::args().skip(1);
    let mut cfg = TortureConfig::new(42);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => cfg.seed = parse("--seed", args.next())?,
            "--ops" => cfg.ops = parse("--ops", args.next())?,
            "--crashes" => cfg.crashes = parse("--crashes", args.next())?,
            "--keys" => cfg.keys = parse("--keys", args.next())?,
            "--pool-pages" => cfg.pool_pages = parse("--pool-pages", args.next())?,
            "--threads" => cfg.threads = parse("--threads", args.next())?,
            "--read-error-rate" => cfg.read_error_rate = parse("--read-error-rate", args.next())?,
            "--fsync-error-rate" => {
                cfg.fsync_error_rate = parse("--fsync-error-rate", args.next())?
            }
            "--no-page-images" => cfg.page_image_logging = false,
            "--verbose" => cfg.verbose = true,
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cfg.threads == 0 || cfg.keys < cfg.threads as i32 {
        return Err("--threads must be at least 1 and at most --keys".into());
    }
    Ok(Some(cfg))
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "torture: seed={} ops={} crashes={} keys={} pool_pages={} threads={} page_images={}",
        cfg.seed,
        cfg.ops,
        cfg.crashes,
        cfg.keys,
        cfg.pool_pages,
        cfg.threads,
        cfg.page_image_logging
    );
    let report = run(cfg);
    println!("{report}");
    if report.passed() {
        println!("RESULT: PASS (zero invariant violations)");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "RESULT: FAIL ({} invariant violations)",
            report.violations.len()
        );
        ExitCode::FAILURE
    }
}
