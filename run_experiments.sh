#!/usr/bin/env bash
# Regenerates every experiment artifact of the reproduction (E1-E24),
# then appends the run to the perf-trajectory ledger.
# Usage: ./run_experiments.sh [--quick] [--skip-verify] [outdir]
# (default outdir: results)
set -euo pipefail
quick=""
skip_verify=""
out="results"
for arg in "$@"; do
  case "$arg" in
    --quick) quick="--quick" ;;
    --skip-verify) skip_verify=1 ;;
    *) out="$arg" ;;
  esac
done
if [[ -z "$skip_verify" ]]; then
  echo "### verify"
  scripts/verify.sh
  echo
fi
exps=(exp_fig1 exp_fig2 exp_bounds exp_waf_ratio exp_greedy_ratio exp_compare
      exp_distributed exp_conjecture exp_lemmas exp_area exp_root_ablation
      exp_broadcast exp_routing exp_mobility exp_election exp_anatomy
      exp_churn exp_profile exp_fault exp_serve)
for e in "${exps[@]}"; do
  echo "### $e"
  cargo run --quiet --release -p mcds-bench --bin "$e" -- $quick --out "$out"
  echo
done
echo "### trajectory"
cargo run --quiet --release -p mcds-bench --bin trajectory -- record \
  --dir "$out" --out "$out/BENCH_trajectory.jsonl"
cargo run --quiet --release -p mcds-bench --bin trajectory -- check \
  --file "$out/BENCH_trajectory.jsonl"
echo
echo "All experiments completed; CSVs and figures in $out/"
