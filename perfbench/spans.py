"""Spans around geopursuit's public calls, recorded from the benchmark's side.

`Tracer.install()` rebinds public names in the modules that call them and
wraps a few class methods, so every call records a span: name, start, end,
parent span and operation id. Spans live in compact arrays in memory and are
written out once, when the run ends. Self time is a span's duration minus the
time its direct children cover.

Counts made at the same boundaries: ascent steps and stop reasons from each
`AscentResult`, and computed work sizes (atoms per search path, direct-path
multiply-adds, samples per synthesis) derived from the grids' public
`levels()`/`slabs()` and from array shapes, not measured.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from geopursuit import affine1d, aniso2d, core, dictionaries, experiments, geometry, pursuit

# Module-level names rebound in each module that calls them. `pursuit.run` is
# called by the benchmark itself; the other names are called inside the
# library as well.
SITES = (
    (pursuit, ("run", "full_search", "gradient_ascent", "gradient", "score", "metric",
               "inner_product", "reconstruct")),
    (experiments, ("run", "reconstruct", "full_search", "gradient_ascent", "selection_score",
                   "beta_surrogate", "image_harness")),
    (geometry, ("metric", "path_length", "curvature_bracket", "christoffel",
                "condition_bound", "density_radius")),
)
METHODS = (
    (dictionaries.Dictionary, "synthesize", "dictionaries.synthesize"),
    (dictionaries.Dictionary, "partials", "dictionaries.partials"),
    (dictionaries.Dictionary, "second_partials", "dictionaries.second_partials"),
    (dictionaries.ParamPoint, "__init__", "dictionaries.ParamPoint"),
    (core.SignalBuffer, "__init__", "core.SignalBuffer"),
)
GENERATORS = ((aniso2d.Grid2DSpec, "points", "aniso2d.Grid2DSpec.points"),)
OP = "op"

# The search's lattice test: a level takes the FFT path when its step and all
# its translations are integers to within this tolerance.
LATTICE_TOL = 1e-10

# Per-layer metrics, in the order BENCHMARK.json lists them; all are per
# operation unless the name says otherwise.
LAYER_METRICS = (
    ("pursuit.full_search.calls", "count"),
    ("pursuit.full_search.self_s", "s"),
    ("pursuit.full_search.atoms_per_s", "1/s"),
    ("pursuit.search.fft_atoms", "count"),
    ("pursuit.search.direct_atoms", "count"),
    ("pursuit.search.slab_atoms", "count"),
    ("pursuit.search.direct_madds", "count"),
    ("pursuit.gradient_ascent.calls", "count"),
    ("pursuit.gradient_ascent.self_s", "s"),
    ("pursuit.gradient_ascent.steps", "count"),
    ("pursuit.gradient_ascent.reason.kappa", "count"),
    ("pursuit.gradient_ascent.reason.gradient", "count"),
    ("pursuit.gradient_ascent.reason.halvings", "count"),
    ("pursuit.gradient_ascent.reason.degenerate", "count"),
    ("pursuit.gradient_ascent.win_ratio", "ratio"),
    ("pursuit.gradient.calls", "count"),
    ("pursuit.gradient.self_s", "s"),
    ("pursuit.score.calls", "count"),
    ("pursuit.score.self_s", "s"),
    ("pursuit.score.per_accepted_step", "ratio"),
    ("pursuit.run.self_s", "s"),
    ("pursuit.reconstruct.self_s", "s"),
    ("dictionaries.synthesize.calls", "count"),
    ("dictionaries.synthesize.self_s", "s"),
    ("dictionaries.synthesize.samples", "count"),
    ("dictionaries.synthesize.bytes", "B"),
    ("dictionaries.partials.calls", "count"),
    ("dictionaries.partials.self_s", "s"),
    ("dictionaries.partials.samples", "count"),
    ("dictionaries.partials.bytes", "B"),
    ("dictionaries.partials.per_gradient", "ratio"),
    ("dictionaries.second_partials.calls", "count"),
    ("dictionaries.second_partials.self_s", "s"),
    ("dictionaries.ParamPoint.constructed", "count"),
    ("geometry.metric.calls", "count"),
    ("geometry.metric.self_s", "s"),
    ("geometry.christoffel.self_s", "s"),
    ("geometry.curvature_bracket.self_s", "s"),
    ("geometry.condition_bound.self_s", "s"),
    ("geometry.density_radius.self_s", "s"),
    ("geometry.path_length.calls", "count"),
    ("geometry.path_length.self_s", "s"),
    ("aniso2d.Grid2DSpec.points.yielded", "count"),
    ("aniso2d.Grid2DSpec.points.self_s", "s"),
    ("experiments.selection_score.self_s", "s"),
    ("experiments.beta_surrogate.self_s", "s"),
    ("experiments.image_harness.self_s", "s"),
    ("core.inner_product.calls", "count"),
    ("core.inner_product.self_s", "s"),
    ("core.SignalBuffer.constructed", "count"),
    ("core.SignalBuffer.bytes", "B"),
    ("trace.op_self_s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_op_p50_s", "s"),
    ("trace.traced_op_p50_s", "s"),
    ("trace.overhead_s", "s"),
)
COMPUTED = ("pursuit.search.fft_atoms", "pursuit.search.direct_atoms",
            "pursuit.search.slab_atoms", "pursuit.search.direct_madds",
            "pursuit.full_search.atoms_per_s",
            "dictionaries.synthesize.samples", "dictionaries.synthesize.bytes",
            "dictionaries.partials.samples", "dictionaries.partials.bytes",
            "core.SignalBuffer.bytes")
ASCENT_REASONS = ("kappa", "gradient", "halvings", "degenerate")


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    `parent[i]` is the index of span i's parent, or -1 for a root. Spans of
    one thread nest, so direct children never overlap each other.
    """
    start = np.asarray(start, dtype=np.float64)
    dur = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(covered, parent[has], dur[has])
    return dur - covered


def search_counts(grid) -> Counter:
    """Computed atoms per search path and direct-path multiply-adds for one search."""
    out = Counter()
    if isinstance(grid, affine1d.TauAdicGrid):
        for _, a, step, n_lo, n_hi in grid.levels():
            atoms = n_hi - n_lo + 1
            bs = np.arange(n_lo, n_hi + 1, dtype=np.float64) * step
            if (abs(step - round(step)) < LATTICE_TOL
                    and np.max(np.abs(bs - np.rint(bs))) < LATTICE_TOL):
                out["fft_atoms"] += atoms
            else:
                width = 2 * math.ceil(pursuit.KERNEL_RADIUS * a) + 2
                out["direct_atoms"] += atoms
                out["direct_madds"] += atoms * width
    elif isinstance(grid, aniso2d.Grid2DSpec):
        out["slab_atoms"] += sum(grid.nx * grid.ny for _ in grid.slabs())
    return out


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._op_id = -1
        self._restore = []
        self._grid_counts = {}
        self._last_search_score = None

    # -- span recording -----------------------------------------------------
    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _call(self, nid, fn, args, kwargs):
        idx = self._open(nid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, t0)

    @contextmanager
    def operation(self, op_id: int):
        """Root span for one benchmark operation; its spans share `op_id`."""
        self._op_id = op_id
        idx = self._open(self._id(OP))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0)
            self._op_id = -1

    # -- wrappers -------------------------------------------------------------
    def _wrap(self, label, fn, after=None):
        nid = self._id(label)
        call = self._call

        def wrapper(*args, **kwargs):
            result = call(nid, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, label, fn):
        nid = self._id(label)
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer._open(nid)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx, t0)
                tracer.counts[label + ".yielded"] += 1
                yield item

        return wrapper

    def _after_search(self, args, kwargs, result):
        grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
        key = id(grid)
        if key not in self._grid_counts:  # keeps the grid alive, so its id stays unique
            self._grid_counts[key] = (grid, search_counts(grid))
        self.counts.update(self._grid_counts[key][1])
        self._last_search_score = result[1]

    def _after_ascent(self, args, kwargs, result):
        self.counts["ascent.steps"] += result.steps
        self.counts["ascent.reason." + result.reason] += 1
        # A win needs an accepted step: the ascent re-scores its seed, which can
        # differ from the search's score by rounding alone.
        if (result.steps > 0 and self._last_search_score is not None
                and result.score > self._last_search_score):
            self.counts["ascent.wins"] += 1

    def _after_synthesize(self, args, kwargs, result):
        self.counts["synthesize.samples"] += result.size

    def _after_partials(self, args, kwargs, result):
        self.counts["partials.samples"] += sum(p.size for p in result)

    def _after_buffer(self, args, kwargs, result):
        self.counts["SignalBuffer.bytes"] += args[0].data.nbytes

    def install(self) -> None:
        after = {"full_search": self._after_search, "gradient_ascent": self._after_ascent}
        for module, names in SITES:
            for attr in names:
                fn = getattr(module, attr)
                label = fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__
                self._rebind(module, attr, self._wrap(label, fn, after.get(attr)))
        after = {"dictionaries.synthesize": self._after_synthesize,
                 "dictionaries.partials": self._after_partials,
                 "core.SignalBuffer": self._after_buffer}
        for cls, attr, label in METHODS:
            self._rebind(cls, attr, self._wrap(label, cls.__dict__[attr], after.get(label)))
        for cls, attr, label in GENERATORS:
            self._rebind(cls, attr, self._wrap_generator(label, cls.__dict__[attr]))

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------
    def arrays(self) -> dict:
        return {"labels": np.array(self.labels), "name": np.asarray(self.name),
                "parent": np.asarray(self.parent), "op": np.asarray(self.op),
                "start": np.asarray(self.start), "end": np.asarray(self.end)}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation layer metrics (without the trace.* timing rows)."""
        arr = self.arrays()
        selfs = self_times(arr["start"], arr["end"], arr["parent"])
        n_labels = len(self.labels)
        calls = np.bincount(arr["name"], minlength=n_labels)
        busy = np.bincount(arr["name"], weights=selfs, minlength=n_labels)

        def c(label):
            i = self._ids.get(label)
            return float(calls[i]) if i is not None else 0.0

        def s(label):
            i = self._ids.get(label)
            return float(busy[i]) if i is not None else 0.0

        k = self.counts
        search_atoms = k["fft_atoms"] + k["direct_atoms"] + k["slab_atoms"]
        ascents = c("pursuit.gradient_ascent")
        gradients = c("pursuit.gradient")
        totals = {
            "pursuit.full_search.calls": c("pursuit.full_search"),
            "pursuit.full_search.self_s": s("pursuit.full_search"),
            "pursuit.search.fft_atoms": k["fft_atoms"],
            "pursuit.search.direct_atoms": k["direct_atoms"],
            "pursuit.search.slab_atoms": k["slab_atoms"],
            "pursuit.search.direct_madds": k["direct_madds"],
            "pursuit.gradient_ascent.calls": ascents,
            "pursuit.gradient_ascent.self_s": s("pursuit.gradient_ascent"),
            "pursuit.gradient_ascent.steps": k["ascent.steps"],
            "pursuit.gradient.calls": gradients,
            "pursuit.gradient.self_s": s("pursuit.gradient"),
            "pursuit.score.calls": c("pursuit.score"),
            "pursuit.score.self_s": s("pursuit.score"),
            "pursuit.run.self_s": s("pursuit.run"),
            "pursuit.reconstruct.self_s": s("pursuit.reconstruct"),
            "dictionaries.synthesize.calls": c("dictionaries.synthesize"),
            "dictionaries.synthesize.self_s": s("dictionaries.synthesize"),
            "dictionaries.synthesize.samples": k["synthesize.samples"],
            "dictionaries.synthesize.bytes": 8 * k["synthesize.samples"],
            "dictionaries.partials.calls": c("dictionaries.partials"),
            "dictionaries.partials.self_s": s("dictionaries.partials"),
            "dictionaries.partials.samples": k["partials.samples"],
            "dictionaries.partials.bytes": 8 * k["partials.samples"],
            "dictionaries.second_partials.calls": c("dictionaries.second_partials"),
            "dictionaries.second_partials.self_s": s("dictionaries.second_partials"),
            "dictionaries.ParamPoint.constructed": c("dictionaries.ParamPoint"),
            "geometry.metric.calls": c("geometry.metric"),
            "geometry.metric.self_s": s("geometry.metric"),
            "geometry.christoffel.self_s": s("geometry.christoffel"),
            "geometry.curvature_bracket.self_s": s("geometry.curvature_bracket"),
            "geometry.condition_bound.self_s": s("geometry.condition_bound"),
            "geometry.density_radius.self_s": s("geometry.density_radius"),
            "geometry.path_length.calls": c("geometry.path_length"),
            "geometry.path_length.self_s": s("geometry.path_length"),
            "aniso2d.Grid2DSpec.points.yielded": k["aniso2d.Grid2DSpec.points.yielded"],
            "aniso2d.Grid2DSpec.points.self_s": s("aniso2d.Grid2DSpec.points"),
            "experiments.selection_score.self_s": s("experiments.selection_score"),
            "experiments.beta_surrogate.self_s": s("experiments.beta_surrogate"),
            "experiments.image_harness.self_s": s("experiments.image_harness"),
            "core.inner_product.calls": c("core.inner_product"),
            "core.inner_product.self_s": s("core.inner_product"),
            "core.SignalBuffer.constructed": c("core.SignalBuffer"),
            "core.SignalBuffer.bytes": k["SignalBuffer.bytes"],
            "trace.op_self_s": s(OP),
            "trace.spans": float(len(self.name)),
        }
        for reason in ASCENT_REASONS:
            totals["pursuit.gradient_ascent.reason." + reason] = k["ascent.reason." + reason]
        out = {name: float(v) / n_ops for name, v in totals.items()}
        search_s = s("pursuit.full_search")
        out["pursuit.full_search.atoms_per_s"] = search_atoms / search_s if search_s else 0.0
        out["pursuit.gradient_ascent.win_ratio"] = k["ascent.wins"] / ascents if ascents else 0.0
        steps = k["ascent.steps"]
        out["pursuit.score.per_accepted_step"] = c("pursuit.score") / steps if steps else 0.0
        out["dictionaries.partials.per_gradient"] = (c("dictionaries.partials") / gradients
                                                     if gradients else 0.0)
        return out
