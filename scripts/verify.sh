#!/usr/bin/env bash
# Tier-1 verification gate: build, test, format, lint, docs, plus the
# behavioral stages (determinism, tracing, serve, bench).
# Usage: scripts/verify.sh [--no-clippy] [STAGE...]
#
# With no STAGE arguments every stage runs.  Naming stages runs just
# those (e.g. `scripts/verify.sh build serve bench`); stage names:
#   build test fmt clippy doc check fuzz pool tracing serve grid kernel
#   bench
#
# The `build` stage also compiles the benchmark harness, `perfbench/`: a
# cargo workspace of its own that builds this repository's crates by path
# (into `.bench_build`, as `perfbench/run.py` does), so an API change that
# breaks the benchmark fails here.  It also prints the non-test line count
# per crate (`scripts/nontest_lines.sh`), with no gate.
#
# The `doc` stage builds the workspace docs with rustdoc warnings denied,
# so a link to a deleted or private item fails the gate.
#
# The `pool` stage diffs sweep and exp_compare CSVs across pool widths,
# and the exp_churn/exp_fault JSON of two runs, and probes the thread
# bound: `--threads` and `serve --bench --clients`
# above mcds_pool::MAX_THREADS (1024) must exit 1 naming the flag, before
# any worker or client thread starts.
#
# The `grid` stage times the cell-grid UDG build against the naive one at
# n = 20k, then runs `stats` and `analyze` on a connected 100 000-node
# instance (120 s each) and checks that both print the same diameter.
#
# Hermetic by design — no network, no external dependencies.  The
# `kernel` stage runs the three differential suites of the production
# kernels, `bfs_equiv` (phase 1's BFS tree and first-fit MIS against the
# FIFO search and sort they replaced), `kernel_equiv` (m = 1, greedy
# growth against its per-step rescan, and the churn maintainer's
# confined connector patch) and `fault_equiv` (the fault-tolerant (k, m)
# family), plus the maintainer's tests with its 10k-node report digest,
# in release.
set -euo pipefail
cd "$(dirname "$0")/.."

all_stages="build test fmt clippy doc check fuzz pool tracing serve grid kernel bench"
no_clippy=""
stages=()
for arg in "$@"; do
  case "$arg" in
    --no-clippy) no_clippy=1 ;;
    -*) echo "usage: scripts/verify.sh [--no-clippy] [STAGE...]" >&2; exit 1 ;;
    *)
      case " $all_stages " in
        *" $arg "*) stages+=("$arg") ;;
        *) echo "unknown stage \`$arg\` (want: $all_stages)" >&2; exit 1 ;;
      esac ;;
  esac
done

# want STAGE — does this run include STAGE?
want() {
  [[ ${#stages[@]} -eq 0 ]] && return 0
  local s
  for s in "${stages[@]}"; do [[ "$s" == "$1" ]] && return 0; done
  return 1
}

det_dir=$(mktemp -d)
# A failing `serve` stage must not leave its daemon listening.
serve_pid=""
trap 'rm -rf "$det_dir"; [[ -z "$serve_pid" ]] || kill "$serve_pid" 2> /dev/null || true' EXIT

if want build; then
  echo "== cargo build --release =="
  cargo build --release --workspace
  echo "== cargo build --release (perfbench harness) =="
  CARGO_TARGET_DIR=.bench_build cargo build --release --offline \
    --manifest-path perfbench/Cargo.toml
  echo "== non-test lines (ROADMAP item 6; reported, not gated) =="
  scripts/nontest_lines.sh
fi

if want test; then
  echo "== cargo test =="
  cargo test --workspace -q
fi

if want fmt; then
  echo "== cargo fmt --check =="
  cargo fmt --all -- --check
fi

if want clippy && [[ -z "$no_clippy" ]]; then
  # Probe first: clippy is a rustup component, not part of a bare cargo
  # install, and the gate must stay runnable on toolchains without it.
  if cargo clippy --version > /dev/null 2>&1; then
    echo "== cargo clippy =="
    cargo clippy --workspace --all-targets -- -D warnings
  else
    echo "== cargo clippy == (skipped: clippy not installed)"
  fi
fi

if want doc; then
  echo "== cargo doc (rustdoc warnings denied) =="
  RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps
fi

if want check; then
  echo "== check: corpus replay + differential oracle (mcds-check) =="
  # Replays tests/corpus/*.case first, then >= 500 fresh random instances
  # against the exact solver; also diffs corpus replay at 1 vs 4 threads.
  cargo test --quiet --release -p mcds --test differential
fi

if want fuzz; then
  echo "== check: bounded fuzz smoke (${MCDS_CHECK_FUZZ_SECS:-30}s, fixed seed) =="
  cargo test --quiet --release -p mcds --test differential -- \
    --ignored fuzz_smoke_bounded
  # Hostile headers: a declared count no text could hold must be reported
  # as a count mismatch, not sized into an allocation (capacity overflow,
  # or an abort on a 16 TB request).
  for count in 18446744073709551615 1000000000000; do
    printf 'udg %s 1.0\n0 0\n' "$count" > "$det_dir/probe_header.udg"
    status=0
    cargo run --quiet --release -p mcds-cli -- solve "$det_dir/probe_header.udg" \
      > /dev/null 2> "$det_dir/probe_header.err" || status=$?
    [[ $status -eq 2 ]] && grep -q 'declared' "$det_dir/probe_header.err" || {
      echo "solve exited $status on the header count $count (want 2, declared):" >&2
      cat "$det_dir/probe_header.err" >&2; exit 1; }
  done
  echo "hostile headers rejected: huge declared counts exit 2"
fi

if want pool; then
  echo "== pool determinism: sweep + exp_compare CSVs at --threads 1 vs 4, E17/E22 JSON =="
  cargo run --quiet --release -p mcds-cli -- sweep --n 60 --side 4.5 --trials 5 \
    --seed 11 --threads 1 --out "$det_dir/sweep_t1.csv" > /dev/null
  cargo run --quiet --release -p mcds-cli -- sweep --n 60 --side 4.5 --trials 5 \
    --seed 11 --threads 4 --out "$det_dir/sweep_t4.csv" > /dev/null
  diff "$det_dir/sweep_t1.csv" "$det_dir/sweep_t4.csv"
  cargo run --quiet --release -p mcds-bench --bin exp_compare -- --quick \
    --threads 1 --out "$det_dir/t1" > /dev/null
  cargo run --quiet --release -p mcds-bench --bin exp_compare -- --quick \
    --threads 4 --out "$det_dir/t4" > /dev/null
  diff "$det_dir/t1/exp_compare.csv" "$det_dir/t4/exp_compare.csv"
  echo "CSVs byte-identical at both widths"
  # E17's and E22's JSON carry counts only (their wall times go to the
  # *_timings.csv files), so two runs of the same code must match.
  for exp in churn fault; do
    for run in a b; do
      width=1; [[ $run == b ]] && width=4
      cargo run --quiet --release -p mcds-bench --bin "exp_$exp" -- --quick \
        --threads "$width" --out "$det_dir/$exp$run" > /dev/null
    done
    diff "$det_dir/${exp}a/exp_$exp.json" "$det_dir/${exp}b/exp_$exp.json"
  done
  echo "exp_churn.json and exp_fault.json byte-identical across two runs"
  # Each worker and each load-generator client is an OS thread: a count
  # past MAX_THREADS is a usage error, rejected while parsing (the
  # timeout only bounds a regression that would start the threads).
  cargo run --quiet --release -p mcds-cli -- gen --n 20 --side 3 --seed 1 \
    --connected -o "$det_dir/pool.udg" > /dev/null
  for probe in "sweep --threads 1025" "serve $det_dir/pool.udg --threads 1025" \
    "serve --bench 127.0.0.1:9 --clients 1025"; do
    read -r -a words <<< "$probe"
    flag=${words[${#words[@]}-2]}
    status=0
    timeout 60 cargo run --quiet --release -p mcds-cli -- "${words[@]}" \
      > /dev/null 2> "$det_dir/probe_threads.err" || status=$?
    [[ $status -eq 1 ]] && grep -q -- "$flag" "$det_dir/probe_threads.err" || {
      echo "\`$probe\` exited $status (want 1, naming $flag):" >&2
      cat "$det_dir/probe_threads.err" >&2; exit 1; }
  done
  echo "thread counts past 1024 rejected: sweep/serve --threads, serve --bench --clients"
fi

if want tracing; then
  echo "== tracing: schema-valid JSONL, identical solve output on vs off =="
  # One build, then the binary itself: a `cargo run` per solve puts
  # cargo's own checks of the target dir right before each traced
  # process, and the first solve's uncovered time moved with the size of
  # that dir.
  cargo build --quiet --release -p mcds-cli
  cli="${CARGO_TARGET_DIR:-target}/release/mcds-cli"
  # n=1500 makes the prune's local searches and pass refreshes (and
  # their counters) run under tracing too.
  for spec in "200 7.9 7" "1500 21.7 32"; do
    read -r tn tside tseed <<< "$spec"
    "$cli" gen --n "$tn" --side "$tside" --seed "$tseed" --connected \
      -o "$det_dir/trace_$tn.udg" > /dev/null
    "$cli" solve "$det_dir/trace_$tn.udg" --alg all --prune > "$det_dir/solve_plain_$tn.txt"
    "$cli" solve "$det_dir/trace_$tn.udg" --alg all --prune \
      --trace "$det_dir/trace_$tn.jsonl" --quiet > "$det_dir/solve_traced_$tn.txt"
    diff "$det_dir/solve_plain_$tn.txt" "$det_dir/solve_traced_$tn.txt"
    "$cli" trace check "$det_dir/trace_$tn.jsonl"
  done
  # The phase spans must account for >= 95% of root-span wall time on
  # the n = 1500 solve trace and the churn trace.  coverage_of prints a
  # trace's coverage, its uncovered time in µs and that time per root
  # span, read off the summary: the root rows (unindented) give the root
  # span count, the last line ("root spans total T ms; depth-1 children
  # cover C%") the uncovered time T x (100 - C) / 100.
  coverage_of() {
    "$cli" trace summarize "$1" | awk '
      /^-+$/ { table = 1; next }
      table && /^[^ ]/ && !/^root spans / { roots += $2 }
      END { gsub(/%/, "", $NF); u = $4 * 10 * (100 - $NF)
            printf "%s %.1f %.2f\n", $NF, u, u / roots }'
  }
  gate_coverage() {  # gate_coverage PERCENT WHAT
    awk -v c="$1" 'BEGIN { exit !(c >= 95.0) }' || {
      echo "$2 span coverage $1% < 95%" >&2; exit 1; }
  }
  # The n = 200 solves take 0.07-0.3 ms each, so a percentage there moves
  # with the speed of the covered work: gate instead what the root spans
  # do outside their phases, the uncovered µs per solve (span
  # bookkeeping, counters, and the first solve's first-use costs spread
  # over the five), median of five traces of that instance.  Working
  # code reads 4-7.5 µs; 10 µs of work outside every phase span in
  # `Solver::solve` read 14-17 µs.
  max_uncovered_us=11
  for i in 2 3 4 5; do
    "$cli" solve "$det_dir/trace_200.udg" --alg all --prune \
      --trace "$det_dir/trace_200_$i.jsonl" --quiet > /dev/null
  done
  for f in "$det_dir"/trace_200.jsonl "$det_dir"/trace_200_{2..5}.jsonl; do
    coverage_of "$f"
  done > "$det_dir/coverage_200.txt"
  coverage=$(awk '{ print $1 }' "$det_dir/coverage_200.txt" | sort -n | sed -n 3p)
  per_root=$(awk '{ print $3 }' "$det_dir/coverage_200.txt" | sort -n | sed -n 3p)
  awk -v u="$per_root" -v max="$max_uncovered_us" 'BEGIN { exit !(u <= max) }' || {
    echo "n = 200 uncovered time $per_root µs per solve > $max_uncovered_us µs" \
      "(median of 5)" >&2; exit 1; }
  trace_1500=$(coverage_of "$det_dir/trace_1500.jsonl")
  read -r coverage_1500 uncovered_1500 _ <<< "$trace_1500"
  gate_coverage "$coverage_1500" "n = 1500"
  echo "solve output identical with tracing on; traces valid; n = 200 uncovered" \
    "$per_root µs per solve (median of 5, gate <= $max_uncovered_us µs)," \
    "coverage $coverage% (median, not gated); n = 1500 coverage $coverage_1500%" \
    "(uncovered $uncovered_1500 µs)"
  # The maintainer's steps (patch, snapshot, baseline solve, repair,
  # verify) must cover >= 95% of its events too: a churn trace at
  # n = 2000, average degree ~10.
  "$cli" churn --n 2000 --side 25.1 --seed 5 --events 60 \
    --trace "$det_dir/churn.jsonl" --quiet > /dev/null
  "$cli" trace check "$det_dir/churn.jsonl"
  "$cli" trace summarize "$det_dir/churn.jsonl" > "$det_dir/churn_summary.txt"
  grep -q '^maintain.apply ' "$det_dir/churn_summary.txt" || {
    echo "churn trace has no maintain.apply spans" >&2; exit 1; }
  churn_coverage=$(awk 'END { gsub(/%/, "", $NF); print $NF }' "$det_dir/churn_summary.txt")
  gate_coverage "$churn_coverage" "churn"
  echo "churn trace valid, coverage $churn_coverage%"
  # Flame attribution: per-label self times must reconstruct >= 99% of
  # root-span wall time (the folding identity), and both the collapsed
  # stacks and the SVG must materialize.
  "$cli" trace flame "$det_dir/trace_200.jsonl" \
    --folded "$det_dir/trace.folded" --svg "$det_dir/trace.svg" \
    > "$det_dir/flame.txt"
  [[ -s "$det_dir/trace.folded" && -s "$det_dir/trace.svg" ]] || {
    echo "trace flame did not write folded/SVG outputs" >&2; exit 1; }
  attributed=$(awk '/^attributed /{ gsub(/[()%]/, "", $NF); print $NF }' \
    "$det_dir/flame.txt")
  awk -v a="$attributed" 'BEGIN { exit !(a >= 99.0) }' || {
    echo "flame attribution $attributed% < 99%" >&2; exit 1; }
  echo "flame attribution $attributed% of root wall; folded + SVG written"
  # Hostile traces: a line nested far past the parser's depth cap and a
  # span with a negative duration must be rejected with exit 2 and a
  # line-numbered message, not crash the checker or pass it.
  meta='{"type":"meta","version":1,"clock":"monotonic-ns"}'
  { echo "$meta"; head -c 100000 /dev/zero | tr '\0' '['
    head -c 100000 /dev/zero | tr '\0' ']'; echo; } > "$det_dir/probe_deep.jsonl"
  { echo "$meta"
    echo '{"type":"span","seq":0,"thread":0,"depth":0,"name":"s","path":"s","dur_ns":-5}'
  } > "$det_dir/probe_negative.jsonl"
  for probe in deep negative; do
    status=0
    "$cli" trace check "$det_dir/probe_$probe.jsonl" > /dev/null \
      2> "$det_dir/probe_$probe.err" || status=$?
    [[ $status -eq 2 ]] && grep -q ': line 2: ' "$det_dir/probe_$probe.err" || {
      echo "trace check exited $status on the $probe probe (want 2, line 2):" >&2
      cat "$det_dir/probe_$probe.err" >&2; exit 1; }
  done
  echo "hostile traces rejected: over-deep nesting and a negative duration exit 2"
fi

if want serve; then
  echo "== serve: JSONL solve byte-identical to batch, HTTP /metrics shim =="
  cargo run --quiet --release -p mcds-cli -- gen --n 80 --side 5.0 --seed 21 \
    --connected -o "$det_dir/serve.udg" > /dev/null
  cargo run --quiet --release -p mcds-cli -- solve "$det_dir/serve.udg" \
    --alg greedy --json > "$det_dir/solve_batch.json"
  cargo run --quiet --release -p mcds-cli -- solve "$det_dir/serve.udg" \
    --alg greedy --m 2 --prune --weights degree --weight-seed 3 --json \
    > "$det_dir/solve_batch_fields.json"
  cargo run --quiet --release -p mcds-cli -- serve "$det_dir/serve.udg" \
    --addr 127.0.0.1:0 > "$det_dir/serve_out.txt" &
  serve_pid=$!
  # The daemon prints exactly one `listening on HOST:PORT` line once bound;
  # poll for it rather than racing the ephemeral-port assignment.
  addr=""
  for _ in $(seq 1 100); do
    addr=$(awk '/^listening on /{print $3; exit}' "$det_dir/serve_out.txt")
    [[ -n "$addr" ]] && break
    sleep 0.1
  done
  [[ -n "$addr" ]] || { echo "daemon never reported its address" >&2; exit 1; }
  # Session 1: JSONL solves before any HTTP traffic: the default request,
  # and one whose every field goes into the daemon's solver.
  printf '%s\n' '{"op":"solve","alg":"greedy"}' \
    '{"op":"solve","alg":"greedy","m":2,"prune":true,"weights":"degree","weight_seed":3}' \
    | cargo run --quiet --release -p mcds-cli -- serve --connect "$addr" \
    > "$det_dir/solve_daemon_pre.txt"
  head -n 1 "$det_dir/solve_daemon_pre.txt" > "$det_dir/solve_daemon_pre.json"
  diff "$det_dir/solve_batch.json" "$det_dir/solve_daemon_pre.json"
  sed -n 2p "$det_dir/solve_daemon_pre.txt" > "$det_dir/solve_daemon_fields.json"
  diff "$det_dir/solve_batch_fields.json" "$det_dir/solve_daemon_fields.json"
  # Curl-style raw HTTP against the same port (no curl in the image:
  # bash /dev/tcp gives us a plain TCP file descriptor).
  host=${addr%:*}; port=${addr##*:}
  exec 3<>"/dev/tcp/$host/$port"
  printf 'GET /metrics HTTP/1.1\r\nHost: %s\r\nAccept: */*\r\n\r\n' "$addr" >&3
  metrics_response=$(cat <&3)
  exec 3<&- 3>&-
  grep -q $'^HTTP/1.1 200 OK\r$' <<< "$metrics_response" || {
    echo "GET /metrics did not return 200" >&2; exit 1; }
  grep -q '^# TYPE mcds_serve_connections_total counter$' <<< "${metrics_response//$'\r'/}" || {
    echo "/metrics body lacks Prometheus exposition" >&2; exit 1; }
  exec 3<>"/dev/tcp/$host/$port"
  printf 'GET /nope HTTP/1.1\r\nHost: %s\r\n\r\n' "$addr" >&3
  notfound_response=$(cat <&3)
  exec 3<&- 3>&-
  grep -q $'^HTTP/1.1 404 Not Found\r$' <<< "$notfound_response" || {
    echo "GET /nope did not return 404" >&2; exit 1; }
  # Session 2: JSONL solve after the HTTP scrapes must stay
  # byte-identical, then a clean shutdown.
  printf '%s\n%s\n' \
    '{"op":"solve","alg":"greedy"}' \
    '{"op":"shutdown"}' \
    | cargo run --quiet --release -p mcds-cli -- serve --connect "$addr" \
    > "$det_dir/serve_session.txt"
  head -n 1 "$det_dir/serve_session.txt" > "$det_dir/solve_daemon_post.json"
  diff "$det_dir/solve_batch.json" "$det_dir/solve_daemon_post.json"
  wait "$serve_pid"
  echo "JSONL solves (default, and m = 2 + prune + degree weights) byte-identical;" \
    "identical after /metrics scrapes; clean shutdown"
fi

if want grid; then
  echo "== grid vs naive speedup smoke (n=20k, release) =="
  cargo test --quiet --release -p mcds-udg --test grid_equivalence -- \
    --ignored grid_beats_naive_5x_at_20k
  echo "== stats and analyze at n = 100 000 (release, 120 s each) =="
  cargo build --quiet --release -p mcds-cli
  cli="${CARGO_TARGET_DIR:-target}/release/mcds-cli"
  "$cli" gen --n 100000 --side 100 --seed 1 --connected -o "$det_dir/big.udg" > /dev/null
  for cmd in stats analyze; do
    timeout 120 "$cli" "$cmd" "$det_dir/big.udg" > "$det_dir/big_$cmd.txt" || {
      echo "$cmd on the n = 100000 instance failed or ran past 120 s" >&2; exit 1; }
  done
  big_diameter=$(awk '$1 == "diameter" { print $2 }' "$det_dir/big_stats.txt")
  [[ -n "$big_diameter" ]] \
    && [[ "$big_diameter" == $(awk '$1 == "diameter" { print $2 }' "$det_dir/big_analyze.txt") ]] || {
    echo "stats and analyze disagree on the n = 100000 diameter" >&2; exit 1; }
  echo "stats and analyze at n = 100000: diameter $big_diameter in both"
fi

if want kernel; then
  echo "== kernel: production kernels identical to the oracles they replaced =="
  # The differential suites (DESIGN.md §5, §11, §14) in release,
  # including the ignored at-scale cases.  bfs_equiv: the BFS tree (order,
  # parents, levels, depth) and the first-fit MIS and ranks at every root
  # of the oracle cases, on seeded deployments, structured and
  # disconnected graphs, against the FIFO search, parent pass and
  # (level, id) sort they replaced.  kernel_equiv: every algorithm with prune
  # on, on the oracle cases, 200+ deployments, the uniform n=200/1500,
  # chain and grid instances `gen` builds, and E19's n=5k/10k rungs
  # (greedy and greedy growth), with growth's election queue diffed
  # against the per-step rescan it replaced; and the maintainer's
  # confined connector patch against the zoned rescan on 400+ giants.  fault_equiv: the (k, m) family at m = 1..3,
  # biconnect on and off, under six weightings, on the oracle cases, 200+
  # deployments, structured, hostile and disconnected inputs, and E19's
  # n=5k/10k rungs.  mcds-maintain: every maintainer test, including the
  # ignored report digest of 400 one-move events on a 10k-node giant at
  # m = 1 and 2.
  cargo test --quiet --release -p mcds-cds --test bfs_equiv
  cargo test --quiet --release -p mcds-cds --test kernel_equiv -- --include-ignored
  cargo test --quiet --release -p mcds-cds --test fault_equiv -- --include-ignored
  cargo test --quiet --release -p mcds-maintain -- --include-ignored
fi

if want bench; then
  echo "== bench: perf-trajectory record/compare regression gate =="
  # A quick profile ladder produces a real BENCH_profile.json; recording
  # it twice yields ~1.0x ratios (pass), and a --scale-wall 2.0 fixture
  # entry must trip the gate.
  cargo run --quiet --release -p mcds-bench --bin exp_profile -- --quick \
    --out "$det_dir/bench" > /dev/null
  traj="$det_dir/bench/BENCH_trajectory.jsonl"
  cargo run --quiet --release -p mcds-bench --bin trajectory -- record \
    --dir "$det_dir/bench" --out "$traj" > /dev/null
  grep -q '"profile"' "$traj" || {
    echo "recorded trajectory line lacks the profile bench" >&2; exit 1; }
  cargo run --quiet --release -p mcds-bench --bin trajectory -- record \
    --dir "$det_dir/bench" --out "$traj" > /dev/null
  cargo run --quiet --release -p mcds-bench --bin trajectory -- check \
    --file "$traj"
  cargo run --quiet --release -p mcds-bench --bin trajectory -- compare \
    --file "$traj"
  cargo run --quiet --release -p mcds-bench --bin trajectory -- record \
    --dir "$det_dir/bench" --out "$traj" --scale-wall 2.0 > /dev/null
  if cargo run --quiet --release -p mcds-bench --bin trajectory -- compare \
    --file "$traj" > /dev/null 2>&1; then
    echo "trajectory compare failed to flag a synthetic 2x slowdown" >&2
    exit 1
  fi
  echo "trajectory gate passes on a steady run and flags the 2x fixture"
  # Every committed artifact must record: a BENCH_*.json whose bench has
  # no field map in the ledger is an error, not a guess.
  cargo run --quiet --release -p mcds-bench --bin trajectory -- record \
    --dir results --out "$det_dir/committed.jsonl" --rev committed > /dev/null
  for b in churn fault profile serve; do
    grep -q "\"$b\"" "$det_dir/committed.jsonl" || {
      echo "recorded committed artifacts lack the $b bench" >&2; exit 1; }
  done
  echo "committed BENCH_*.json artifacts record: churn, fault, profile, serve"
  # The committed ledger (appended after full experiment runs; see
  # EXPERIMENTS.md E24) must stay schema-valid.
  if [[ -f results/BENCH_trajectory.jsonl ]]; then
    cargo run --quiet --release -p mcds-bench --bin trajectory -- check \
      --file results/BENCH_trajectory.jsonl
  fi
fi

echo "verify: all requested stages passed"
