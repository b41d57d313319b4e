//! The benchmark end to end at 1/100 size: every workload runs, every
//! answer checks out, and the driver's result line has the agreed shape.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

fn ledger(args: &[&str]) -> std::process::Output {
    // The benchmark finds `BENCHMARK.json` and `ledger/out/` relative to
    // the repository root.
    Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .output()
        .expect("the ledger binary runs")
}

#[test]
fn smoke_run_of_all_five_workloads_exits_zero_in_time() {
    let started = Instant::now();
    let out = ledger(&["run", "--smoke", "--seed", "7"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "smoke took {:?}",
        started.elapsed()
    );
    for workload in [
        "commit.durable",
        "commit.cpu",
        "commit.conv",
        "asof.deep",
        "mixed.spill",
    ] {
        let failed = stdout
            .lines()
            .find(|l| l.starts_with(workload) && l.contains(" failed_ops "))
            .unwrap_or_else(|| panic!("{workload} printed no failed_ops"));
        assert!(failed.contains(" 0.0000 "), "{failed}");
    }
}

#[test]
fn driver_modes_print_every_listed_metric_on_the_last_line() {
    for (trace, listed) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = ledger(&[
            "--workload",
            "mixed.spill",
            "--seed",
            "3",
            "--seconds",
            "0.4",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        let spec = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .unwrap();
        // Every name BENCHMARK.json lists under this mode is a key of
        // the line's metrics object.
        let section = &spec[spec.find(&format!("\"{listed}\"")).unwrap()..];
        let section = &section[..section.find(']').unwrap()];
        let names: Vec<&str> = section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').unwrap()])
            .collect();
        assert!(!names.is_empty());
        for name in names {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing: {last}"
            );
        }
    }
}

#[test]
fn an_unknown_workload_is_an_error_not_a_result() {
    let out = ledger(&[
        "--workload",
        "no.such",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
