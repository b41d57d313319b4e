//! Benchmark driver: regenerates every figure of the paper's evaluation
//! plus the ablations.
//!
//! ```text
//! immortaldb-bench [--quick] [fig5|fig6|gc|logsync|net|connections|repl|temporal|history|read-scaling|a1|a2|a3|a4|a5|scan|all]...
//! ```
//!
//! No experiment named means `all`. Each experiment prints its report and
//! writes it as `BENCH_<name>.json` to the working directory. `temporal`,
//! `history` and `read-scaling` also check their acceptance floors: the
//! run exits non-zero if one is missed. An argument that is neither
//! `--quick` nor an experiment fails the run before anything starts.

use immortaldb_bench::{
    ablations, connections, fig5, fig6, group_commit, history, log_sync, netbench, read_scaling,
    replbench, scan, temporal, Report,
};

type Experiment = (&'static str, fn(bool) -> Report);

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("fig5", |q| fig5::report(&fig5::run(q))),
    ("fig6", |q| fig6::report(&fig6::run(q))),
    ("gc", |q| group_commit::report(&group_commit::run(q))),
    ("logsync", |q| log_sync::report(&log_sync::run(q))),
    ("net", |q| netbench::report(&netbench::run(q))),
    ("connections", |q| {
        connections::report(&connections::run(q), &connections::idle_tax(q))
    }),
    ("repl", |q| replbench::report(&replbench::run(q))),
    ("temporal", |q| temporal::report(&temporal::run(q))),
    ("history", |q| history::report(&history::run(q))),
    ("read-scaling", |q| {
        read_scaling::report(&read_scaling::run(q))
    }),
    ("a1", |q| {
        ablations::report_eager_vs_lazy(&ablations::eager_vs_lazy(q))
    }),
    ("a2", |q| ablations::report_a2(&ablations::chain_as_of(q))),
    ("a3", |q| {
        ablations::report_utilization(&ablations::utilization_vs_threshold(q))
    }),
    ("a4", |q| ablations::report_ptt_gc(&ablations::ptt_gc(q))),
    ("a5", |q| {
        ablations::report_snapshot_reads(&ablations::snapshot_reads(q))
    }),
    ("scan", |q| scan::report(&scan::run(q))),
];

/// `--quick`, and the experiments the arguments name, in registry order.
fn select(args: &[String]) -> Result<(bool, Vec<&'static Experiment>), String> {
    let mut quick = false;
    let mut names: Vec<&str> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            "all" => names.extend(EXPERIMENTS.iter().map(|e| e.0)),
            name if EXPERIMENTS.iter().any(|e| e.0 == name) => names.push(name),
            other => {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
                return Err(format!(
                    "unknown argument `{other}`: expected --quick, all or one of {}",
                    valid.join(" ")
                ));
            }
        }
    }
    let selected = EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.contains(&e.0))
        .collect();
    Ok((quick, selected))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, selected) = select(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!(
        "Immortal DB benchmark harness ({} mode)",
        if quick { "quick" } else { "full" }
    );
    let mut missed = false;
    for &(name, run) in selected {
        let report = run(quick);
        print!("{}", report.text());
        // Reported, not fatal: the tables are out already on a read-only FS.
        let path = format!("BENCH_{name}.json");
        match std::fs::write(&path, format!("{}\n", report.json(name, quick))) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        match report.floor {
            Some(Ok(line)) => println!("{line}"),
            Some(Err(e)) => {
                eprintln!("floor missed: {e}");
                missed = true;
            }
            None => {}
        }
    }
    if missed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    fn names(selected: &[&Experiment]) -> Vec<&'static str> {
        selected.iter().map(|e| e.0).collect()
    }

    #[test]
    fn an_unknown_name_is_rejected_with_the_valid_ones() {
        for bad in [&["--quick", "tempral"][..], &["fig5", "Fig6"], &["--quikc"]] {
            let err = select(&args(bad)).unwrap_err();
            assert!(
                err.contains("temporal") && err.contains("read-scaling"),
                "{err}"
            );
        }
    }

    #[test]
    fn all_and_no_name_select_every_experiment() {
        let every: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        for a in [&["all"][..], &[], &["--quick"], &["a1", "all"]] {
            assert_eq!(names(&select(&args(a)).unwrap().1), every);
        }
    }

    #[test]
    fn named_experiments_run_once_in_registry_order() {
        let (quick, selected) =
            select(&args(&["temporal", "--quick", "fig5", "temporal"])).unwrap();
        assert!(quick);
        assert_eq!(names(&selected), ["fig5", "temporal"]);
        assert!(!select(&args(&["history"])).unwrap().0);
    }

    #[test]
    fn registry_names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        assert!(EXPERIMENTS.iter().all(|e| seen.insert(e.0)));
    }
}
