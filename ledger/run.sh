#!/usr/bin/env bash
# Build the benchmark, then run the whole set untraced and traced for one
# seed. Run from anywhere; results land in ledger/out/ (git-ignored):
#   result-<seed>.json      end-to-end and diagnostic rows, tracing off
#   trace-<seed>.json       per-layer rows of the traced run
#   trace-<workload>.json   the spans of the traced run
# Usage: ledger/run.sh [seed] [extra ledger flags, e.g. --smoke or --workload commit.cpu]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
shift || true
export CARGO_NET_OFFLINE=true
cargo build --release --manifest-path ledger/Cargo.toml
bin="${CARGO_TARGET_DIR:-ledger/target}/release/ledger"
# Scratch databases live under ledger/out/scratch-<pid>/ and are removed
# by the binary on exit; sweep what a killed run left behind.
trap 'rm -rf ledger/out/scratch-*' EXIT
"$bin" run --seed "$seed" "$@"
"$bin" trace --seed "$seed" "$@"
