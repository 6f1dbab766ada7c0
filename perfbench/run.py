#!/usr/bin/env python3
"""geopursuit benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload decompose-1d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src` directory. With `--trace 0` the run prints the end-to-end metrics
(setup time, throughput, latency, memory, quality) of a closed loop that
runs the workload's operation, one call after another, for `--seconds`.
With `--trace 1` it replays the first inputs untraced and then traced, and
prints per-layer metrics from the spans. Outputs are checked after the timed
window; the last line of standard output is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Details (environment, tail
percentile, failures) go to the lines before it and to `perfbench/out/`.
"""

from __future__ import annotations

import os

# Plain single-threaded baseline: pin native thread pools before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(SRC))
try:
    import geopursuit  # noqa: E402
except ImportError as exc:
    sys.exit(f"error: cannot import geopursuit from {SRC}: {exc}")
if Path(geopursuit.__file__).resolve().parent.parent != SRC:
    sys.exit(f"error: geopursuit resolved to {geopursuit.__file__}, not under {SRC}")

import numpy  # noqa: E402
import scipy  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def probe_env() -> dict:
    """Environment of a fresh interpreter: absolute `src`, pinned threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_time(workload: str) -> float:
    """Fresh interpreter to ready-for-the-first-operation, in seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload],
                            stdout=subprocess.PIPE, text=True, env=probe_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe for {workload} failed (exit {code})")
    return elapsed


def environment(args) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "threads": 1,
            "thread_env": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def run_op(workload, x):
    """One timed operation: (latency, output or None, traceback or None)."""
    t0 = time.perf_counter()
    try:
        out, err = workload.op(x), None
    except Exception:  # an operation that raises counts as failed; keep going
        out, err = None, traceback.format_exc()
    return time.perf_counter() - t0, out, err


def closed_loop(workload, xs, seconds: float):
    """Whole passes over the input pool, back to back, until `seconds` have passed.

    The window ends on a pass boundary, so every run times each input of the
    pool equally often and a faster commit is timed on the same mix of inputs
    as a slower one. Returns latencies, outputs, input indices, errors and the
    throughput: operations per second of the passes' wall time.
    """
    latencies, outs, indices, errors = [], [], [], []
    start = time.perf_counter()
    while not indices or time.perf_counter() - start < seconds:
        for i, x in enumerate(xs):
            lat, out, err = run_op(workload, x)
            latencies.append(lat)
            outs.append(out)
            indices.append(i)
            errors += [err] if err else []
    elapsed = time.perf_counter() - start
    return latencies, outs, indices, errors, len(latencies) / elapsed


def check_all(workload, xs, indices, outs) -> list[list[str]]:
    failures = []
    for i, out in zip(indices, outs):
        if out is None:
            failures.append(["operation raised"])
            continue
        try:
            failures.append(workload.check(i, xs[i], out))
        except Exception:  # a check that raises fails its operation
            failures.append(["check raised: " + traceback.format_exc()])
    return failures


def run_e2e(args, workload, xs, report):
    setups = [setup_time(args.workload) for _ in range(SETUP_PROBES)]
    workload.warm(xs[0])
    latencies, outs, indices, errors, ops_per_s = closed_loop(workload, xs, args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_all(workload, xs, indices, outs)
    # The first pass holds one output per pool input, in pool order; an
    # operation that raised has no output and is left out.
    done = [(x, out) for x, out in zip(xs, outs) if out is not None]
    if not done:
        raise SystemExit("error: every operation of the first pass raised:\n" + errors[0])
    atoms, psnr_db = workload.quality(*map(list, zip(*done)))
    tail = stats.tail(latencies)
    report.update(setup_probes_s=setups, latencies_s=latencies, inputs=indices,
                  passes=len(latencies) // len(xs), tail=tail, op_errors=errors)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail["value"], "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "atoms_to_target": (atoms, "count"),
        "psnr_db": (psnr_db, "dB"),
    }
    return metrics, failures


def run_traced(args, workload, xs, report):
    """Each input once untraced, then once traced, so both see the same warmth."""
    indices = list(range(workload.traced_ops))
    workload.warm(xs[0])
    tracer = spans.Tracer()
    plain_lat, plain_outs, traced_lat, traced_outs, errors = [], [], [], [], []
    for op_id, i in enumerate(indices):
        lat, out, err = run_op(workload, xs[i])
        plain_lat.append(lat)
        plain_outs.append(out)
        tracer.install()
        try:
            with tracer.operation(op_id):
                lat, out, traced_err = run_op(workload, xs[i])
        finally:
            tracer.uninstall()
        traced_lat.append(lat)
        traced_outs.append(out)
        errors += [e for e in (err, traced_err) if e]
    failures = check_all(workload, xs, indices * 2, plain_outs + traced_outs)
    for k, (a, b) in enumerate(zip(plain_outs, traced_outs)):
        if a is not None and b is not None and not workload.same(a, b):
            failures[len(indices) + k].append("traced output differs from untraced output")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path)
    layer = tracer.layer_metrics(len(indices))
    plain_p50, traced_p50 = statistics.median(plain_lat), statistics.median(traced_lat)
    layer.update({"trace.untraced_op_p50_s": plain_p50, "trace.traced_op_p50_s": traced_p50,
                  "trace.overhead_s": traced_p50 - plain_p50})
    report.update(untraced_latencies_s=plain_lat, traced_latencies_s=traced_lat,
                  spans_file=str(spans_path.relative_to(ROOT)), op_errors=errors,
                  computed=list(spans.COMPUTED))
    units = dict(spans.LAYER_METRICS)
    return {name: (layer[name], units[name]) for name, _ in spans.LAYER_METRICS}, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup()
    xs = workload.inputs(args.seed)
    report = {"environment": environment(args)}
    run = run_traced if args.trace else run_e2e
    metrics, failures = run(args, workload, xs, report)

    failed = sum(1 for f in failures if f)
    report["ops_attempted"] = len(failures)
    report["ops_failed"] = failed
    report["failures"] = [{"op": k, "why": f} for k, f in enumerate(failures) if f]
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")

    print("environment " + json.dumps(report["environment"]))
    if "tail" in report:
        t = report["tail"]
        print(f"op_tail_s is p{t['percentile']:g} of {t['samples']} operations "
              f"({t['beyond']} beyond it; ten-beyond rule met: {t['rule_met']})")
    if args.trace:
        print("computed, not measured: " + ", ".join(spans.COMPUTED))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"ops_failed/ops_attempted = {failed}/{len(failures)}")
    for item in report["failures"]:
        print(f"failed op {item['op']}: {'; '.join(item['why'])}", file=sys.stderr)
    for err in report["op_errors"]:
        print(err, file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(failures), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
