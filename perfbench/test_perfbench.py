"""Tests of the benchmark harness: tail rule, self time, closed loop, tracer, BENCHMARK.json."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import geopursuit as gp  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from geopursuit import pursuit  # noqa: E402


@pytest.mark.parametrize("n, value, percentile, beyond", [
    (20, 10, 50.0, 10),      # smallest n with a qualifying rung
    (39, 20, 50.0, 19),      # p75 would leave only 9 beyond
    (40, 30, 75.0, 10),
    (100, 90, 90.0, 10),
    (199, 180, 90.0, 19),    # p95 would leave only 9 beyond
    (1000, 990, 99.0, 10),
    (10000, 9990, 99.9, 10),
])
def test_tail_picks_highest_rung_with_ten_beyond(n, value, percentile, beyond):
    t = stats.tail(list(range(n, 0, -1)))  # order must not matter
    assert (t["value"], t["percentile"], t["beyond"]) == (value, percentile, beyond)
    assert t["rule_met"] and t["samples"] == n
    assert sum(1 for x in range(1, n + 1) if x > t["value"]) == beyond


def test_tail_falls_back_to_median_below_twenty_samples():
    t = stats.tail([5.0, 1.0, 3.0, 2.0])
    assert t == {"value": 2.5, "percentile": 50.0, "beyond": 2, "samples": 4,
                 "rule_met": False}


def test_self_times_subtract_direct_children_only():
    # op [0,10] -> a [1,4], b [5,9] -> c [6,7]; d [11,12] is a second root
    start = [0.0, 1.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 9.0, 7.0, 12.0]
    parent = [-1, 0, 0, 2, -1]
    got = spans.self_times(start, end, parent)
    assert np.allclose(got, [3.0, 3.0, 3.0, 1.0, 1.0])
    # self times of one tree add up to its root's duration
    assert np.isclose(got[:4].sum(), 10.0)


def test_spread_and_direction():
    assert stats.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    # exclusive quartiles, as statistics.quantiles(n=4) gives them: 8.5 and 11.5
    assert stats.spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)
    assert stats.worse_by(2.0, 2.2, "lower") == pytest.approx(0.1)
    assert stats.worse_by(2.0, 2.2, "higher") == pytest.approx(-0.1)


def test_closed_loop_times_whole_passes_over_the_pool():
    class Echo:
        def op(self, x):
            return x

    xs = ["a", "b", "c"]
    latencies, outs, indices, errors, ops_per_s = run.closed_loop(Echo(), xs, 0.01)
    passes = len(indices) // len(xs)
    assert passes >= 1 and indices == [0, 1, 2] * passes
    assert outs == xs * passes and len(latencies) == len(indices)
    assert errors == [] and ops_per_s > 0


def _small_gmp():
    n = 256
    d = gp.Affine1DDictionary(n)
    grid = gp.tau_grid_for_signal(n, b0=1.5, log2_tau=0.5)
    f = gp.BurstSignalSpec(n=n, n_bursts=6, envelope=16.0).sample(3)
    config = gp.PursuitConfig(mode="gmp", kappa=4, max_iterations=4)
    return d, grid, f, config


def test_tracer_spans_nest_and_outputs_match_untraced():
    d, grid, f, config = _small_gmp()
    originals = {name: getattr(pursuit, name) for name in ("run", "full_search", "score")}
    plain = pursuit.run(f, d, grid, config)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.operation(0):
            traced = pursuit.run(f, d, grid, config)
    finally:
        tracer.uninstall()
    assert all(getattr(pursuit, k) is v for k, v in originals.items())
    assert workloads._steps_equal(plain, traced)

    arr = tracer.arrays()
    labels = list(arr["labels"])
    selfs = spans.self_times(arr["start"], arr["end"], arr["parent"])
    root = labels.index(spans.OP)
    assert arr["parent"][0] == -1 and arr["name"][0] == root and (arr["op"] == 0).all()
    assert np.isclose(selfs.sum(), arr["end"][0] - arr["start"][0])
    assert (selfs > -1e-9).all()

    m = tracer.layer_metrics(1)
    assert len(traced) == config.max_iterations
    assert m["pursuit.full_search.calls"] == m["pursuit.gradient_ascent.calls"] == len(traced)
    reasons = sum(m[f"pursuit.gradient_ascent.reason.{r}"] for r in spans.ASCENT_REASONS)
    assert reasons == m["pursuit.gradient_ascent.calls"]
    assert m["pursuit.gradient_ascent.steps"] == sum(s.ascent_steps for s in traced.steps)
    per_search = spans.search_counts(grid)
    assert sum(per_search.values()) - per_search["direct_madds"] == grid.count
    assert (m["pursuit.search.direct_atoms"]
            == per_search["direct_atoms"] * m["pursuit.full_search.calls"])
    assert m["dictionaries.partials.per_gradient"] == 2.0


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mib",
                   "atoms_to_target", "psnr_db"}
