//! Benchmark driver: regenerates every figure of the paper's evaluation
//! plus the ablations.
//!
//! ```text
//! immortaldb-bench [--quick] [fig5|fig6|gc|net|connections|repl|temporal|history|read-scaling|a1|a2|a3|a4|a5|all]
//! ```
//!
//! Figure runs additionally write machine-readable `BENCH_<figure>.json`
//! artifacts (rows plus an engine metrics snapshot) to the working
//! directory. `temporal`, `history` and `read-scaling` also check their
//! acceptance floors: the run exits non-zero if one is missed.

use immortaldb_bench::{
    ablations, connections, fig5, fig6, group_commit, history, netbench, read_scaling, replbench,
    temporal,
};
use immortaldb_obs::MetricsSnapshot;

/// Write a `BENCH_*.json` artifact, reporting rather than aborting on
/// failure (benchmarks should still print their tables on a read-only FS).
fn write_artifact(path: &str, body: &str) {
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn metrics_json(m: &Option<MetricsSnapshot>) -> String {
    m.as_ref()
        .map(|s| s.to_json())
        .unwrap_or_else(|| "null".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let what = if what.is_empty() { vec!["all"] } else { what };
    let wants = |name: &str| what.iter().any(|w| *w == name || *w == "all");
    let mut missed: Vec<String> = Vec::new();
    let mut floor = |verdict: Result<String, String>| match verdict {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("floor missed: {e}");
            missed.push(e);
        }
    };

    println!(
        "Immortal DB benchmark harness ({} mode)",
        if quick { "quick" } else { "full" }
    );

    if wants("fig5") {
        // Two regimes: the paper's times were disk-bound (fsync on every
        // commit); the buffered run exposes the raw CPU-path overhead.
        let fsync = fig5::run(quick, immortaldb::Durability::Fsync);
        fig5::report("fsync/commit — paper's regime", &fsync.rows);
        let buffered = fig5::run(quick, immortaldb::Durability::Buffered);
        fig5::report("buffered — CPU-bound", &buffered.rows);
        let (conv_s, imm_s) = fig5::run_single_txn_case(if quick { 8_000 } else { 32_000 });
        println!(
            "lowest-overhead case (all records in ONE txn): conventional {conv_s:.3}s, \
             immortal {imm_s:.3}s ({:+.1}%) — paper: \"indistinguishable\"",
            (imm_s / conv_s - 1.0) * 100.0
        );
        let body = format!(
            "{{\"figure\":\"fig5\",\"quick\":{quick},\
             \"fsync\":{{\"rows\":{},\"metrics\":{}}},\
             \"buffered\":{{\"rows\":{},\"metrics\":{}}},\
             \"single_txn\":{{\"conventional_s\":{conv_s:.6},\"immortal_s\":{imm_s:.6}}}}}\n",
            fig5::rows_json(&fsync.rows),
            metrics_json(&fsync.metrics),
            fig5::rows_json(&buffered.rows),
            metrics_json(&buffered.metrics),
        );
        write_artifact("BENCH_fig5.json", &body);
    }
    if wants("fig6") {
        let series = fig6::run(quick);
        fig6::report(&series);
        let items: Vec<String> = series.iter().map(fig6::series_json).collect();
        let body = format!(
            "{{\"figure\":\"fig6\",\"quick\":{quick},\"series\":[{}]}}\n",
            items.join(",")
        );
        write_artifact("BENCH_fig6.json", &body);
    }
    if wants("gc") || wants("group_commit") {
        let rows = group_commit::run(quick);
        group_commit::report(&rows);
        let body = format!(
            "{{\"figure\":\"group_commit\",\"quick\":{quick},\"rows\":{}}}\n",
            group_commit::rows_json(&rows)
        );
        write_artifact("BENCH_group_commit.json", &body);
    }
    if wants("net") || wants("server") {
        let rows = netbench::run(quick);
        netbench::report(&rows);
        let body = format!(
            "{{\"figure\":\"server\",\"quick\":{quick},\"rows\":{}}}\n",
            netbench::rows_json(&rows)
        );
        write_artifact("BENCH_server.json", &body);
    }
    if wants("connections") {
        let rows = connections::run(quick);
        connections::report(&rows);
        let tax = connections::idle_tax(quick);
        connections::report_idle_tax(&tax);
        let body = format!(
            "{{\"figure\":\"connections\",\"quick\":{quick},\"rows\":{},\"idle_tax\":{}}}\n",
            connections::rows_json(&rows),
            connections::idle_tax_json(&tax)
        );
        write_artifact("BENCH_connections.json", &body);
    }
    if wants("repl") {
        let rows = replbench::run(quick);
        replbench::report(&rows);
        let body = format!(
            "{{\"figure\":\"repl\",\"quick\":{quick},\"rows\":{}}}\n",
            replbench::rows_json(&rows)
        );
        write_artifact("BENCH_repl.json", &body);
    }
    if wants("temporal") {
        let r = temporal::run(quick);
        temporal::report(&r);
        write_artifact("BENCH_temporal.json", &temporal::result_json(&r, quick));
        floor(temporal::check(&r));
    }
    if wants("history") {
        let r = history::run(quick);
        history::report(&r);
        write_artifact("BENCH_history.json", &history::result_json(&r, quick));
        floor(history::check(&r));
    }
    if wants("read-scaling") || wants("read_scaling") {
        let r = read_scaling::run(quick);
        read_scaling::report(&r);
        write_artifact(
            "BENCH_read_scaling.json",
            &read_scaling::result_json(&r, quick),
        );
        floor(read_scaling::check(&r));
    }
    if wants("a1") {
        let rows = ablations::eager_vs_lazy(quick);
        ablations::report_eager_vs_lazy(&rows);
    }
    if wants("a2") {
        let r = ablations::tsb_index(quick);
        ablations::report_tsb(&r);
    }
    if wants("a3") {
        let rows = ablations::utilization_vs_threshold(quick);
        ablations::report_utilization(&rows);
    }
    if wants("a4") {
        let r = ablations::ptt_gc(quick);
        ablations::report_ptt_gc(&r);
    }
    if wants("a5") {
        let r = ablations::snapshot_reads(quick);
        ablations::report_snapshot_reads(&r);
    }
    if !missed.is_empty() {
        std::process::exit(1);
    }
}
