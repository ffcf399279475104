#!/usr/bin/env python3
"""A/A report: how far two sets of runs of the same build disagree.

    python3 perfbench/aa_report.py [--log FILE] [--report-only]

Runs `perfbench/run.py` on every workload of `BENCHMARK.json` twice per
seed, once for set A and once for set B, interleaving the sets (A B, then
B A, ...).  Run i of either set uses seed 1000 + i, i < 10, so the two
sets see the same inputs.  Then prints for every (workload, metric) pair:

- each set's median and quartiles over its seeds, and the spread
  (interquartile range over median) against a third of the metric's bound.
  Each run of the benchmark may be given a new seed, so this spread mixes
  seed-to-seed input differences with run-to-run noise, and the bound
  must cover it;
- how much worse set B's median is than set A's, against the bound;
- the same-seed drift: the median over seeds of B's relative change from A
  on that seed, i.e. run-to-run noise alone.  Exact counts show 0 here.

Besides the end-to-end metrics it reports the per-class latencies from the
`note` lines.  Every run is appended to the log as it finishes, so
`--report-only` can print the report of an earlier invocation.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NOTE = re.compile(r"^note (\w+) p([\d.]+) = ([\d.]+) ms \(n = (\d+)\)$")
FIRST_SEED = 1000
RUNS = 10


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"error": f"exit {out.returncode}"}
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines[:-1]:
        m = NOTE.match(line)
        if m:
            name, level, value, _n = m.groups()
            key = f"{name.removesuffix('_ms')}_p{level}_ms"
            values.setdefault(key, float(value))
    return {"correct": result["correct"], "failed": result["failed"], "values": values}


def worse_by(old, new, better):
    """How much worse `new` is than `old`, as a share of `old`."""
    change = (new - old) / old
    return -change if better == "higher" else change


def report(records, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in sorted({r["workload"] for r in records}):
        rows = [r for r in records if r["workload"] == workload and "values" in r]
        bad = [r for r in records if r["workload"] == workload and "values" not in r]
        wrong = sum(1 for r in rows if not r["correct"])
        print(f"\n== {workload}: {len(rows)} runs, {len(bad)} errors, {wrong} incorrect")
        names = list(dict.fromkeys(k for r in rows for k in r["values"]))
        print(f"{'metric':<14} {'set':<3} {'n':>2} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>7} {'limit':>6}  verdict")
        for name in names:
            m = bounds.get(name)
            better = m["better"] if m else "lower"
            by_set = {s: {r["seed"]: r["values"][name] for r in rows
                          if r["set"] == s and name in r["values"]} for s in "AB"}
            medians = {}
            for s, by_seed in by_set.items():
                vals = list(by_seed.values())
                if len(vals) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                medians[s] = med
                spread = (q3 - q1) / med if med else 0.0
                if m is None:
                    limit, verdict = "", "(note, no bound)"
                elif name == "setup_s":
                    limit, verdict = f"{m['bound']:.3f}", "spread not gated"
                else:
                    limit = f"{m['bound'] / 3:.3f}"
                    verdict = "ok" if spread <= m["bound"] / 3 else "SPREAD"
                print(f"{name:<14} {s:<3} {len(vals):>2} {q1:>12.4f} {med:>12.4f} {q3:>12.4f} "
                      f"{spread:>7.4f} {limit:>6}  {verdict}")
            if len(medians) < 2 or not medians["A"]:
                continue
            worse = worse_by(medians["A"], medians["B"], better)
            paired = [worse_by(a, by_set["B"][seed], better)
                      for seed, a in by_set["A"].items() if seed in by_set["B"] and a]
            same_seed = statistics.median(paired) if paired else float("nan")
            line = f"{name:<14} B vs A: {worse:+.4f}, same-seed drift {same_seed:+.4f}"
            if m is not None:
                line += f" against bound {m['bound']:.3f}  " + (
                    "ok" if worse <= m["bound"] else "WORSE")
            print(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--log", default=os.path.join(ROOT, ".perfbench", "aa_runs.jsonl"))
    ap.add_argument("--report-only", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    if not args.report_only:
        os.makedirs(os.path.dirname(args.log), exist_ok=True)
        open(args.log, "w").close()
        for i in range(RUNS):
            for s in ("AB" if i % 2 == 0 else "BA"):
                for w in workloads:
                    seed = FIRST_SEED + i
                    rec = {"workload": w, "set": s, "seed": seed,
                           **run_once(w, seed, spec["run_seconds"])}
                    print(json.dumps(rec), flush=True)
                    with open(args.log, "a") as f:
                        f.write(json.dumps(rec) + "\n")
    with open(args.log) as f:
        records = [json.loads(line) for line in f if line.strip()]
    report(records, spec)


if __name__ == "__main__":
    main()
