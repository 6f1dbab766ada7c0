#!/usr/bin/env python3
"""Steadiness check: do two sets of benchmark runs agree within the bounds?

    python3 perfbench/steady.py --seeds 10 [--workloads decompose-1d,nae-1d]

Runs `run.py --trace 0` once per seed and workload for BENCHMARK.json's
`run_seconds`, in two sets that use disjoint seeds (1..n, then n+1..2n), one
run at a time. For each end-to-end metric and workload it reports each set's
median and spread (quartile distance over median), whether each spread is
within the metric's bound from BENCHMARK.json, and whether the two medians
differ by no more than the bound, in either direction. The spread of setup_s
is reported but not held to its bound: set-up time drifts with the host
between runs, so only its medians must agree. It then runs `--trace 1` twice
on seed 1 and checks that every per-layer count (every metric whose unit is
not seconds) repeats exactly. The summary is printed and written to
`perfbench/out/steady.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
SETS = 2
FIRST_SEED = 1
TRACE_REPEATS = 2


def bench(workload: str, seed: int, seconds: int, traced: int) -> dict:
    """One benchmark run's result line, plus its wall time as `wall_s`."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(traced)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {"args": vars(args), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(SETS):
            seeds = range(FIRST_SEED + k * args.seeds, FIRST_SEED + (k + 1) * args.seeds)
            runs = [bench(workload, seed, seconds, 0) for seed in seeds]
            for seed, r in zip(seeds, runs):
                values = " ".join(f"{n}={m['value']:.5g}" for n, m in r["metrics"].items())
                print(f"{workload} set {k} seed {seed}: wall {r['wall_s']:.1f}s "
                      f"failed {r['failed']}/{r['attempted']} {values}", flush=True)
            sets.append(runs)
        rows = {}
        for name, m in bounds.items():
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [stats.spread(v) if len(v) > 1 else 0.0 for v in per_set]
            worse = [stats.worse_by(medians[0], med, m["better"]) for med in medians[1:]]
            row = {"medians": medians, "spreads": spreads, "worse_than_first": worse,
                   "bound": m["bound"],
                   "spread_ok": name == "setup_s" or all(s <= m["bound"] for s in spreads),
                   "medians_agree": all(abs(w) <= m["bound"] for w in worse)}
            ok &= row["spread_ok"] and row["medians_agree"]
            rows[name] = row
            print(f"{workload:13s} {name:16s} medians {' '.join(f'{v:.5g}' for v in medians)}"
                  f"  spreads {' '.join(f'{s:.3f}' for s in spreads)} (bound {m['bound']})"
                  f"  worse {' '.join(f'{w:+.3f}' for w in worse)}"
                  f"  {'ok' if row['spread_ok'] and row['medians_agree'] else 'FAIL'}",
                  flush=True)
        failed = sum(r["failed"] for runs in sets for r in runs)
        attempted = sum(r["attempted"] for runs in sets for r in runs)
        traced = [bench(workload, FIRST_SEED, seconds, 1) for _ in range(TRACE_REPEATS)]
        counts = [{n: m["value"] for n, m in t["metrics"].items()
                   if m["unit"] not in ("s", "1/s")} for t in traced]
        counts_repeat = all(c == counts[0] for c in counts)
        ok &= counts_repeat and failed == 0 and all(t["failed"] == 0 for t in traced)
        walls = " ".join(f"{t['wall_s']:.1f}s" for t in traced)
        print(f"{workload}: ops_failed/ops_attempted {failed}/{attempted}; traced counts repeat "
              f"exactly over {len(traced)} runs: {counts_repeat}; traced run wall {walls}",
              flush=True)
        summary["workloads"][workload] = {
            "metrics": rows, "ops_failed": failed, "ops_attempted": attempted,
            "runs": [[r["metrics"] for r in runs] for runs in sets],
            "traced_counts_repeat": counts_repeat,
            "traced": [t["metrics"] for t in traced]}
    summary["ok"] = ok
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
