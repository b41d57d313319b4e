//! Benchmark harness reproducing the Immortal DB paper's evaluation
//! (Figures 5 and 6) plus the ablations catalogued in DESIGN.md §4.
//!
//! Each experiment module runs its workload into a typed result and
//! builds one [`Report`] from it. The binary (`cargo run -p
//! immortaldb-bench --release -- all`) prints each report as the tables
//! the paper reports and writes it as `BENCH_<name>.json`; EXPERIMENTS.md
//! records paper-vs-measured.

pub mod ablations;
pub mod connections;
pub mod fig5;
pub mod fig6;
pub mod group_commit;
pub mod harness;
pub mod history;
pub mod json;
pub mod log_sync;
pub mod netbench;
pub mod read_scaling;
pub mod replbench;
pub mod report;
pub mod scan;
pub mod temporal;

pub use harness::{BenchDb, Mode};
pub use report::Report;
