"""Command-line front end.

Subcommands: gen-signal, decompose, reconstruct, geometry, curve, nae,
image. Every run writes a JSON manifest recording every parsed option,
inputs, outputs, and wall time; rerunning the same command
reproduces data outputs byte-identically (wall time lives only in the
manifest). Numeric CSV output uses 17 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .affine1d import Affine1DDictionary, TauAdicGrid
from .aniso2d import Aniso2DDictionary, Grid2DSpec
from .core import SignalBuffer, load_signal, save_signal
from .dictionaries import ParamPoint
from .experiments import (BurstSignalSpec, beta_surrogate, convergence_curve,
                          image_harness, make_test_image, nae)
from .geometry import (christoffel, condition_bound, density_radius, metric,
                       weakness_factors)
from .pursuit import Decomposition, PursuitConfig, jsonl_steps, run


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _load_grid(path):
    """(grid, dictionary) of a grid spec file: the dictionary of the grid's
    family, on the grid's sample shape. Every refusal names the file."""
    text = Path(path).read_text()
    try:
        spec = json.loads(text)
        if not isinstance(spec, dict):
            raise ValueError("grid spec must be a JSON object")
        if "b0" in spec:
            grid = TauAdicGrid.from_json(text)
            return grid, Affine1DDictionary(grid.n)
        if "Nx" in spec:
            grid = Grid2DSpec.from_json(text)
            return grid, Aniso2DDictionary(grid.shape)
    except KeyError as exc:
        raise ValueError(f"{path}: grid spec has no {exc.args[0]!r} key") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    raise ValueError(f"{path}: unrecognized grid spec (expected tau-adic or 2-D keys)")


def _load_signal(path, dictionary):
    """The signal in `path`, refused unless its shape is the dictionary's:
    a signal of another shape belongs to another grid."""
    signal = load_signal(path)
    try:
        dictionary.check_shape(signal.shape)
    except ValueError as exc:
        raise ValueError(f"{path}: signal {exc}") from None
    return signal


def _reconstruct_steps(path, dictionary) -> tuple[Decomposition, SignalBuffer]:
    """The decomposition in the steps file `path` and its `reconstruct`, in
    one pass that builds each atom once. A step the dictionary refuses (a
    lambda of another length, a scale out of range, an atom with no support
    in the buffer) is refused naming the file and the line."""
    steps, acc = [], np.zeros(dictionary.shape)
    for number, step in jsonl_steps(path):
        try:
            acc += step.coeff * dictionary.synthesize(ParamPoint(step.lam)).data
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None
        steps.append(step)
    return Decomposition.from_steps(steps), SignalBuffer(acc)


# side of the generated test image when `image` is given no --image file
TEST_IMAGE_SIZE = 64

# not options, or keys of their own; cmd_* return what parsing cannot know
_NOT_CONFIG = ("func", "command", "manifest", "seed")


def _write_manifest(args, argv: list, extras: dict, inputs: list, outputs: list,
                    wall_time: float) -> None:
    manifest = {
        "command": args.command,
        "argv": argv,
        "config": {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG},
        **extras,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "wall_time_s": wall_time,
    }
    path = args.manifest
    if path is None:
        path = (str(outputs[0]) + ".manifest.json") if outputs else "run-manifest.json"
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n")


def _grid_spec(grid) -> dict:
    return {"grid_spec": json.loads(grid.to_json())}


def _add_common(sub):
    sub.add_argument("--manifest", default=None, help="manifest output path")


def _pursuit_config(args, **overrides) -> PursuitConfig:
    return PursuitConfig(mode=args.mode, kappa=args.kappa, chi=args.chi, **overrides)


def _add_pursuit_flags(sub):
    sub.add_argument("--mode", choices=("dmp", "gmp"), default="dmp")
    sub.add_argument("--kappa", type=int, default=10)
    sub.add_argument("--chi", type=float, default=0.1)


def cmd_gen_signal(args) -> tuple[dict, list, list]:
    spec = BurstSignalSpec(n=args.n, n_bursts=args.bursts, kind=args.signal_class)
    buf = spec.sample(args.seed)
    save_signal(buf, args.out)
    return {}, [], [args.out]


def cmd_decompose(args) -> tuple[dict, list, list]:
    grid, dictionary = _load_grid(args.grid)
    signal = _load_signal(args.infile, dictionary)
    config = _pursuit_config(args, max_iterations=args.max_iters)
    decomposition = run(signal, dictionary, grid, config)
    decomposition.to_jsonl(args.out)
    outputs = [args.out]
    if args.csv:
        decomposition.to_csv(args.csv)
        outputs.append(args.csv)
    if args.residual_out:
        save_signal(decomposition.final_residual, args.residual_out)
        outputs.append(args.residual_out)
    return _grid_spec(grid), [args.grid, args.infile], outputs


def cmd_reconstruct(args) -> tuple[dict, list, list]:
    grid, dictionary = _load_grid(args.grid)
    decomposition, approx = _reconstruct_steps(args.steps, dictionary)
    inputs = [args.grid, args.steps]
    if args.infile is not None:
        original = _load_signal(args.infile, dictionary)
        residual = _load_signal(args.residual, dictionary)
        inputs += [args.infile, args.residual]
    save_signal(approx, args.out)
    if args.infile is not None:
        gap = original.data - approx.data - residual.data
        rel = float(np.linalg.norm(gap)) / max(original.norm(), 1e-300)
        print(f"reconstruction_gap_rel={_fmt(rel)}")
    return {**_grid_spec(grid), "atoms": len(decomposition)}, inputs, [args.out]


def cmd_geometry(args) -> tuple[dict, list, list]:
    grid, dictionary = _load_grid(args.grid)
    for name, value in (("alpha", args.alpha), ("beta", args.beta)):
        if value is not None and not 0 < value <= 1:
            raise ValueError(f"--{name} must lie in (0, 1], got {value}")
    for name in ("samples", "probes", "segments"):
        if getattr(args, name) < 1:
            raise ValueError(f"--{name} must be at least 1, got {getattr(args, name)}")
    if args.beta is None and args.beta_corpus < 1:
        raise ValueError(f"--beta-corpus must be at least 1 without --beta, "
                         f"got {args.beta_corpus}")
    at = None
    if args.at:
        try:
            at = [float(v) for v in args.at.split(",")]
        except ValueError:
            raise ValueError(f"--at takes comma-separated numbers, got {args.at!r}") from None
        if len(at) != dictionary.P:
            raise ValueError(f"--at takes {dictionary.P} comma-separated coordinates "
                             f"on the grid in {args.grid}, got {len(at)}")
    rng = np.random.default_rng(args.seed)
    a_lo, a_hi = grid.scale_span()
    a_mid = math.sqrt(a_lo * a_hi)
    shape = grid.shape

    # scales 5% inside the grid's span, or anywhere in a span too narrow for that
    log_lo, log_hi = math.log(a_lo * 1.05), math.log(a_hi * 0.95)
    if log_lo > log_hi:
        log_lo, log_hi = math.log(a_lo), math.log(a_hi)

    def _scale():
        return math.exp(rng.uniform(log_lo, log_hi))

    if isinstance(grid, TauAdicGrid):
        (n,) = shape
        center = (n / 2, a_mid)
        samples = [dictionary.point(rng.uniform(0.3 * n, 0.7 * n), _scale())
                   for _ in range(args.samples)]
        probes = [dictionary.point(rng.uniform(0, n - 1), _scale()) for _ in range(args.probes)]

        def _beta_input(s):
            return BurstSignalSpec(n=n, kind="gaussian", envelope=min(256.0, n / 4)).sample(s)
    else:
        nx, ny = shape
        center = (nx / 2, ny / 2, 0.0, a_mid, a_mid)

        def _rand_point():
            return dictionary.point(
                rng.uniform(0.3 * nx, 0.7 * nx), rng.uniform(0.3 * ny, 0.7 * ny),
                rng.uniform(0, math.pi), _scale(), _scale())

        samples = [_rand_point() for _ in range(args.samples)]
        probes = [_rand_point() for _ in range(args.probes)]

        def _beta_input(s):
            return make_test_image(nx, ny, seed=int(s.generate_state(1)[0]))
    lam0 = dictionary.point(*(center if at is None else at))
    g = metric(dictionary, lam0)
    gamma = christoffel(dictionary, lam0)
    k_hat = condition_bound(dictionary, samples)
    rho = density_radius(dictionary, grid, probes, segments=args.segments)
    beta = args.beta
    if beta is None:
        corpus = [_beta_input(s)
                  for s in np.random.SeedSequence(args.seed).spawn(args.beta_corpus)]
        beta = beta_surrogate(dictionary, grid, corpus)
    report = weakness_factors(args.alpha, beta, k_hat, rho)
    payload = {
        "at": [float(v) for v in lam0.coords],
        "metric": g.matrix.tolist(),
        "metric_inverse": g.inverse.tolist(),
        "christoffel": gamma.tolist(),
        "condition_bound": k_hat,
        "density_radius": rho,
        "weakness": dataclasses.asdict(report),
    }
    text = json.dumps(payload, indent=2) + "\n"
    outputs = []
    if args.out:
        Path(args.out).write_text(text)
        outputs.append(args.out)
    else:
        sys.stdout.write(text)
    return _grid_spec(grid), [args.grid], outputs


def cmd_curve(args) -> tuple[dict, list, list]:
    grid, dictionary = _load_grid(args.grid)
    if not isinstance(grid, TauAdicGrid):
        raise ValueError("curve runs on 1-D tau-adic grids")
    spec = BurstSignalSpec(n=grid.n, n_bursts=args.bursts, kind=args.signal_class)
    config = _pursuit_config(args)
    result = convergence_curve(spec.sample, dictionary, grid, config,
                               trials=args.trials, m_max=args.m_max,
                               master_seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write(f"# grid={grid.to_json()} mode={config.mode} kappa={config.kappa} "
                 f"class={args.signal_class} trials={args.trials} seed={args.seed}\n")
        fh.write("m,mean_residual_energy\n")
        for m, e in enumerate(result.mean_energy):
            fh.write(f"{m},{_fmt(e)}\n")
    return _grid_spec(grid), [args.grid], [args.out]


def cmd_nae(args) -> tuple[dict, list, list]:
    grid, dictionary = _load_grid(args.grid)
    if not isinstance(grid, TauAdicGrid):
        raise ValueError("nae runs on 1-D tau-adic grids")
    spec = BurstSignalSpec(n=grid.n, n_bursts=args.bursts, kind=args.signal_class)
    config = _pursuit_config(args)
    result = nae(spec.sample, dictionary, grid, config, trials=args.trials,
                 at_iteration=args.at_iteration, master_seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write("b0,a0,tau,jmin,jmax,N,mode,at_iteration,trials,mean_nae,stderr\n")
        fh.write(",".join([_fmt(grid.b0), _fmt(grid.a0), _fmt(grid.tau),
                           str(grid.j_min), str(grid.j_max), str(grid.n),
                           config.mode, str(args.at_iteration), str(args.trials),
                           _fmt(result.mean), _fmt(result.stderr)]) + "\n")
    return _grid_spec(grid), [args.grid], [args.out]


def cmd_image(args) -> tuple[dict, list, list]:
    inputs = []
    if args.image is not None:
        image = load_signal(args.image)
        if image.ndim != 2:
            raise ValueError(f"{args.image}: --image must be a 2-D image, got shape {image.shape}")
        inputs.append(args.image)
    else:
        image = make_test_image(args.nx, args.ny, seed=args.seed)
    grid = Grid2DSpec(nx=image.shape[0], ny=image.shape[1],
                      j_scales=args.j, k_orients=args.k)
    configs = [PursuitConfig(mode=m, kappa=args.kappa) for m in args.modes.split(",")]
    rows = image_harness(image, grid, configs, n_atoms=args.atoms)
    with open(args.out, "w") as fh:
        fh.write(f"# grid={grid.to_json()} atoms={args.atoms} kappa={args.kappa}\n")
        fh.write("label,mode,kappa,atoms,psnr_db\n")
        for row in rows:
            fh.write(",".join([row["label"], row["mode"], str(row["kappa"]),
                               str(row["atoms"]), _fmt(row["psnr_db"])]) + "\n")
    return {**_grid_spec(grid), "timings_s": [r["wall_time_s"] for r in rows]}, inputs, [args.out]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geopursuit",
        description="Matching pursuit over parametrized dictionaries with "
                    "geometric refinement and discretization diagnostics.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-signal", help="generate a random burst signal")
    p.add_argument("--class", dest="signal_class",
                   choices=("gaussian", "rectangular"), default="gaussian")
    p.add_argument("--n", type=int, default=2 ** 12)
    p.add_argument("--bursts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gen_signal)

    p = subs.add_parser("decompose", help="run a pursuit decomposition")
    p.add_argument("--grid", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="steps as JSON-lines")
    p.add_argument("--csv", default=None, help="also write steps as CSV")
    p.add_argument("--residual-out", default=None)
    _add_pursuit_flags(p)
    p.add_argument("--max-iters", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("reconstruct", help="sum the atoms of a decomposition")
    p.add_argument("--grid", required=True)
    p.add_argument("--steps", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--in", dest="infile", default=None,
                   help="original signal, for the consistency check")
    p.add_argument("--residual", default=None,
                   help="final residual, for the consistency check")
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = subs.add_parser("geometry", help="geometry diagnostics for a grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--at", default=None, help="comma-separated evaluation point")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=None,
                   help="greedy-factor value; estimated from a corpus if omitted")
    p.add_argument("--beta-corpus", type=int, default=8)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--probes", type=int, default=50)
    p.add_argument("--segments", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_geometry)

    p = subs.add_parser("curve", help="residual-energy decay curve")
    p.add_argument("--class", dest="signal_class",
                   choices=("gaussian", "rectangular"), default="gaussian")
    p.add_argument("--bursts", type=int, default=100)
    p.add_argument("--grid", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--m-max", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_pursuit_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_curve)

    p = subs.add_parser("nae", help="normalized atom energy of a signal class")
    p.add_argument("--class", dest="signal_class",
                   choices=("gaussian", "rectangular"), default="gaussian")
    p.add_argument("--bursts", type=int, default=100)
    p.add_argument("--grid", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--at-iteration", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_pursuit_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_nae)

    p = subs.add_parser("image", help="image PSNR harness")
    p.add_argument("--image", default=None, help="grayscale input (PGM or raw)")
    p.add_argument("--nx", type=int, default=None,
                   help=f"test image size (default {TEST_IMAGE_SIZE}); not with --image")
    p.add_argument("--ny", type=int, default=None,
                   help=f"test image size (default {TEST_IMAGE_SIZE}); not with --image")
    p.add_argument("--j", type=int, default=3)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--atoms", type=int, default=100)
    p.add_argument("--kappa", type=int, default=10)
    p.add_argument("--modes", default="dmp,gmp")
    p.add_argument("--seed", type=int, default=None,
                   help="test image seed (default 0); not with --image")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_image)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "image":
        if args.image is None:
            args.nx, args.ny = (TEST_IMAGE_SIZE if v is None else v for v in (args.nx, args.ny))
            args.seed = 0 if args.seed is None else args.seed
        elif (args.nx, args.ny) != (None, None):
            parser.error("image: --nx and --ny size the generated test image; "
                         "an --image file has its own size")
        elif args.seed is not None:
            parser.error("image: --seed draws the generated test image; "
                         "an --image file is not drawn")
    if args.command == "reconstruct" and (args.infile is None) != (args.residual is None):
        parser.error("reconstruct: --in and --residual are given together, "
                     "for the consistency check")
    start = time.perf_counter()
    try:
        extras, inputs, outputs = args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(args, argv, extras, inputs, outputs, time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
