import json

import numpy as np
import pytest

import geopursuit as gp
from geopursuit import cli
from geopursuit.cli import build_parser, main
from conftest import run_cli


@pytest.fixture
def grid_file(tmp_path):
    grid = gp.tau_grid_for_signal(512, b0=2, log2_tau=0.5)
    path = tmp_path / "grid.json"
    path.write_text(grid.to_json())
    return path


def test_pipeline_gen_decompose_reconstruct(tmp_path, grid_file):
    assert main(["gen-signal", "--class", "gaussian", "--n", "512", "--seed", "7",
                 "--out", str(tmp_path / "s.bin")]) == 0
    assert main(["decompose", "--mode", "gmp", "--kappa", "10", "--max-iters", "15",
                 "--grid", str(grid_file), "--in", str(tmp_path / "s.bin"),
                 "--out", str(tmp_path / "steps.jsonl"),
                 "--residual-out", str(tmp_path / "r.bin")]) == 0
    records = [json.loads(line) for line
               in (tmp_path / "steps.jsonl").read_text().splitlines()]
    energies = [r["residual_energy"] for r in records]
    assert all(b < a for a, b in zip(energies, energies[1:]))

    out = run_cli(["reconstruct", "--grid", str(grid_file),
                   "--steps", str(tmp_path / "steps.jsonl"),
                   "--out", str(tmp_path / "recon.bin"),
                   "--in", str(tmp_path / "s.bin"),
                   "--residual", str(tmp_path / "r.bin")], cwd=tmp_path)
    assert out.returncode == 0
    gap = float(out.stdout.split("reconstruction_gap_rel=")[1].split()[0])
    assert gap < 1e-9


def test_geometry_emits_condition_bound(tmp_path, grid_file):
    out_path = tmp_path / "geom.json"
    assert main(["geometry", "--grid", str(grid_file),
                 "--samples", "4", "--probes", "10", "--beta-corpus", "3",
                 "--seed", "1", "--out", str(out_path),
                 "--manifest", str(tmp_path / "m.json")]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["condition_bound"] >= 1.0 - 1e-3
    assert payload["density_radius"] >= 0.0
    assert set(payload["weakness"]) == {"alpha", "beta", "curvature", "rho_d",
                                        "alpha_prime", "alpha_dprime", "density_ok"}
    G = np.array(payload["metric"])
    assert G.shape == (2, 2)


def test_manifest_written_and_reproducible(tmp_path, grid_file):
    sig = tmp_path / "s.bin"
    main(["gen-signal", "--n", "512", "--seed", "3", "--out", str(sig)])
    manifest_path = sig.parent / "s.bin.manifest.json"
    assert manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == "gen-signal"
    assert manifest["seed"] == 3
    assert manifest["outputs"] == [str(sig)]
    first = sig.read_bytes()
    main(["gen-signal", "--n", "512", "--seed", "3", "--out", str(sig)])
    assert sig.read_bytes() == first


def test_manifest_config_is_every_parsed_option(tmp_path, grid_file):
    # config is vars() of the parsed argv, less the attributes with their own
    # key; beside it sit only what parsing cannot know
    grid2 = tmp_path / "grid2.json"
    grid2.write_text(gp.Grid2DSpec(8, 8, 2, 2).to_json())
    sig, steps = str(tmp_path / "s.bin"), str(tmp_path / "steps.jsonl")
    grid, out = str(grid_file), str(tmp_path / "out")
    runs = [
        (["gen-signal", "--n", "512", "--bursts", "5", "--seed", "2", "--out", sig], set()),
        (["decompose", "--grid", grid, "--in", sig, "--out", steps, "--max-iters", "2",
          "--mode", "gmp", "--chi", "0.2"], {"grid_spec"}),
        (["reconstruct", "--grid", grid, "--steps", steps, "--out", out], {"grid_spec", "atoms"}),
        (["geometry", "--grid", str(grid2), "--samples", "2", "--probes", "3", "--segments", "2",
          "--beta-corpus", "1", "--out", out], {"grid_spec"}),
        (["curve", "--grid", grid, "--trials", "1", "--m-max", "1", "--bursts", "3",
          "--chi", "0.3", "--out", out], {"grid_spec"}),
        (["nae", "--grid", grid, "--trials", "1", "--bursts", "3", "--kappa", "2",
          "--out", out], {"grid_spec"}),
        (["image", "--nx", "8", "--ny", "9", "--j", "1", "--k", "1", "--atoms", "1",
          "--modes", "dmp", "--out", out], {"grid_spec", "timings_s"}),
    ]
    base = {"command", "argv", "config", "seed", "version", "inputs", "outputs", "wall_time_s"}
    for argv, extras in runs:
        manifest_path = tmp_path / f"{argv[0]}.manifest.json"
        argv = argv + ["--manifest", str(manifest_path)]
        assert main(argv) == 0
        manifest = json.loads(manifest_path.read_text())
        parsed = vars(build_parser().parse_args(argv))
        for key in ("func", "command", "manifest", "seed"):
            parsed.pop(key, None)
        assert manifest["config"] == parsed
        assert set(manifest) == base | extras
        assert manifest["command"] == argv[0] and manifest["argv"] == argv
    assert manifest["grid_spec"] == {"Nx": 8, "Ny": 9, "J": 1, "K": 1}
    assert len(manifest["timings_s"]) == 1


def test_curve_and_nae_csv(tmp_path, grid_file):
    curve_csv = tmp_path / "curve.csv"
    assert main(["curve", "--grid", str(grid_file), "--trials", "2", "--m-max", "4",
                 "--mode", "dmp", "--bursts", "20", "--out", str(curve_csv)]) == 0
    lines = curve_csv.read_text().splitlines()
    assert lines[0].startswith("# grid=")
    assert lines[1] == "m,mean_residual_energy"
    assert len(lines) == 7

    nae_csv = tmp_path / "nae.csv"
    assert main(["nae", "--grid", str(grid_file), "--trials", "3", "--mode", "gmp",
                 "--bursts", "20", "--out", str(nae_csv)]) == 0
    header, row = nae_csv.read_text().splitlines()
    assert header.split(",")[:3] == ["b0", "a0", "tau"]
    mean = float(row.split(",")[9])
    assert 0.0 <= mean <= 1.0


@pytest.mark.parametrize("command", ["curve", "nae"])
def test_curve_and_nae_take_no_max_iters(tmp_path, grid_file, command):
    # both run their own iteration count (--m-max, --at-iteration)
    with pytest.raises(SystemExit) as exc:
        main([command, "--grid", str(grid_file), "--max-iters", "3",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [["curve", "--trials", "0"], ["curve", "--m-max", "-1"],
                                  ["nae", "--at-iteration", "0"], ["nae", "--trials", "0"]],
                         ids=["curve-trials", "curve-m-max", "nae-at-iteration", "nae-trials"])
def test_experiment_counts_are_runtime_errors(tmp_path, grid_file, capsys, args):
    out_csv = tmp_path / "x.csv"
    assert main(args + ["--grid", str(grid_file), "--bursts", "5", "--out", str(out_csv)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_csv.exists()


@pytest.mark.parametrize("bounds", ['"min_scale": 0', '"max_scale": NaN',
                                    '"min_scale": 4, "max_scale": 1'],
                         ids=["min-zero", "max-nan", "descending"])
def test_bad_grid_scale_bounds_are_runtime_errors(tmp_path, capsys, bounds):
    path = tmp_path / "grid.json"
    path.write_text('{"Nx": 8, "Ny": 8, "J": 2, "K": 2, %s}' % bounds)
    assert main(["decompose", "--grid", str(path), "--in", str(tmp_path / "x.bin"),
                 "--out", str(tmp_path / "steps.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "scale bounds must satisfy" in err


def test_image_subcommand(tmp_path):
    out_csv = tmp_path / "img.csv"
    assert main(["image", "--nx", "20", "--ny", "20", "--j", "2", "--k", "2",
                 "--atoms", "4", "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[1] == "label,mode,kappa,atoms,psnr_db"
    assert len(lines) == 4  # comment + header + dmp + gmp


def test_image_size_options_are_refused_with_an_image_file(tmp_path):
    # --nx/--ny size only the generated test image: beside an --image file
    # they are a usage error, and without them the manifest records no size
    pgm = tmp_path / "x.pgm"
    gp.save_signal(gp.make_test_image(12, 10, seed=1), pgm)
    base = ["image", "--image", str(pgm), "--j", "1", "--k", "1", "--atoms", "1",
            "--modes", "dmp", "--out", str(tmp_path / "img.csv")]
    for size in (["--nx", "12"], ["--ny", "10"], ["--nx", "64", "--ny", "64"]):
        with pytest.raises(SystemExit) as exc:
            main(base + size)
        assert exc.value.code == 2
    manifest_path = tmp_path / "img.manifest.json"
    assert main(base + ["--manifest", str(manifest_path)]) == 0
    manifest = json.loads(manifest_path.read_text())
    assert (manifest["config"]["nx"], manifest["config"]["ny"]) == (None, None)
    assert manifest["grid_spec"] == {"Nx": 12, "Ny": 10, "J": 1, "K": 1}
    # the generated image's size is recorded, its default resolved
    assert main(["image", "--ny", "9", "--j", "1", "--k", "1", "--atoms", "1",
                 "--modes", "dmp", "--out", str(tmp_path / "gen.csv"),
                 "--manifest", str(manifest_path)]) == 0
    manifest = json.loads(manifest_path.read_text())
    assert (manifest["config"]["nx"], manifest["config"]["ny"]) == (64, 9)
    assert manifest["grid_spec"] == {"Nx": 64, "Ny": 9, "J": 1, "K": 1}


def test_image_refuses_a_1d_signal_file(tmp_path, capsys):
    # a 1-D signal is no image: refused naming the file and its shape,
    # before any grid is built or output written
    sig = tmp_path / "s1.bin"
    assert main(["gen-signal", "--n", "512", "--seed", "1", "--out", str(sig)]) == 0
    capsys.readouterr()
    out_csv = tmp_path / "x.csv"
    assert main(["image", "--image", str(sig), "--j", "1", "--k", "1", "--atoms", "1",
                 "--out", str(out_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(sig) in err and "(512,)" in err
    assert not out_csv.exists()


def test_image_seed_is_refused_with_an_image_file(tmp_path):
    # --seed draws only the generated test image: beside an --image file it
    # is a usage error, and the manifest records no seed for such a run
    pgm = tmp_path / "x.pgm"
    gp.save_signal(gp.make_test_image(8, 8, seed=1), pgm)
    manifest_path = tmp_path / "img.manifest.json"
    base = ["image", "--j", "1", "--k", "1", "--atoms", "1", "--modes", "dmp",
            "--out", str(tmp_path / "img.csv"), "--manifest", str(manifest_path)]
    with pytest.raises(SystemExit) as exc:
        main(base + ["--image", str(pgm), "--seed", "5"])
    assert exc.value.code == 2
    assert main(base + ["--image", str(pgm)]) == 0
    assert json.loads(manifest_path.read_text())["seed"] is None
    # the generated image's seed defaults to 0, and is recorded
    assert main(base + ["--nx", "8", "--ny", "8"]) == 0
    assert json.loads(manifest_path.read_text())["seed"] == 0


@pytest.mark.parametrize("given", [["--in", "s.bin"], ["--residual", "r.bin"]])
def test_reconstruct_check_inputs_come_together(tmp_path, grid_file, capsys, given):
    # one of the two alone would skip the consistency check without a word
    steps = tmp_path / "steps.jsonl"
    steps.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--grid", str(grid_file), "--steps", str(steps),
              "--out", str(tmp_path / "r.bin"), *given])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--in" in err and "--residual" in err
    assert not (tmp_path / "r.bin").exists()


def test_usage_error_exit_code(tmp_path):
    out = run_cli(["decompose", "--grid"], cwd=tmp_path)
    assert out.returncode == 2


def test_runtime_error_exit_code(tmp_path):
    out = run_cli(["decompose", "--grid", "missing.json", "--in", "x.bin",
                   "--out", "y.jsonl"], cwd=tmp_path)
    assert out.returncode == 1
    assert "error:" in out.stderr


def _without(key):
    return lambda rec: {k: v for k, v in rec.items() if k != key}


@pytest.mark.parametrize("malform, message", [
    (_without("coeff"), "missing key 'coeff'"),
    (_without("seed_lambda"), "missing key 'seed_lambda'"),
    (_without("ascent_steps"), "missing key 'ascent_steps'"),
    (lambda rec: {**rec, "coeff": None}, "malformed 'coeff'"),
    (lambda rec: {**rec, "lambda": [[100.0], 8.0]}, "malformed 'lambda'"),
    (lambda rec: {**rec, "seed_lambda": "12"}, "malformed 'seed_lambda'"),
    (lambda rec: [1, 2], "expected a JSON object"),
    (lambda rec: {**rec, "m": 1.5}, "malformed 'm'"),
    (lambda rec: {**rec, "m": True}, "malformed 'm'"),
    (lambda rec: {**rec, "ascent_steps": "3"}, "malformed 'ascent_steps'"),
    (lambda rec: {**rec, "coeff": "0.5"}, "malformed 'coeff'"),
    (lambda rec: {**rec, "coeff": float("nan")}, "malformed 'coeff'"),
    (lambda rec: {**rec, "residual_energy": float("inf")}, "malformed 'residual_energy'"),
    (lambda rec: {**rec, "lambda": [True, 2]}, "malformed 'lambda'"),
    (lambda rec: {**rec, "seed_lambda": [100.0, float("nan")]}, "malformed 'seed_lambda'"),
    (lambda rec: {**rec, "m": -3}, "malformed 'm'"),
    (lambda rec: {**rec, "ascent_steps": -2}, "malformed 'ascent_steps'"),
    (lambda rec: {**rec, "residual_energy": -1.0}, "malformed 'residual_energy'"),
    (lambda rec: {**rec, "score": -4.0}, "malformed 'score'"),
], ids=["no-coeff", "no-seed", "no-ascent-steps", "null-coeff", "ragged-lambda", "string-seed",
        "list", "fractional-m", "bool-m", "string-ascent-steps", "string-coeff", "nan-coeff",
        "infinite-energy", "bool-lambda", "nan-seed", "negative-m", "negative-ascent-steps",
        "negative-energy", "negative-score"])
def test_reconstruct_reports_malformed_steps(tmp_path, grid_file, capsys, malform, message):
    # a bad line is a runtime error naming the file, the line and the key
    rec = gp.DecompositionStep(m=0, lam=np.array([100.0, 8.0]), coeff=0.5, score=0.25,
                               residual_energy=0.75).to_record()
    steps = tmp_path / "steps.jsonl"
    steps.write_text(json.dumps(rec) + "\n" + json.dumps(malform(rec)) + "\n")
    assert main(["reconstruct", "--grid", str(grid_file), "--steps", str(steps),
                 "--out", str(tmp_path / "r.bin")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {steps}, line 2: {message}")


def test_reconstruct_of_2d_steps_on_a_tau_adic_grid_is_runtime_error(tmp_path, grid_file,
                                                                     capsys):
    # a lambda of another length than the dictionary's is refused like a
    # malformed key: naming the file and the line, blank lines counted
    good = gp.DecompositionStep(m=0, lam=np.array([100.0, 8.0]), coeff=0.5, score=0.25,
                                residual_energy=0.75).to_record()
    bad = gp.DecompositionStep(m=1, lam=np.array([4.0, 4.0, 0.5, 2.0, 2.0]), coeff=0.5,
                               score=0.25, residual_energy=0.5).to_record()
    steps = tmp_path / "steps.jsonl"
    steps.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n")
    out = tmp_path / "r.bin"
    assert main(["reconstruct", "--grid", str(grid_file), "--steps", str(steps),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {steps}, line 3: ")
    assert "5 coordinates" in err and "2 parameters" in err
    assert not out.exists()


def test_reconstruct_of_a_step_outside_the_domain_is_runtime_error(tmp_path, grid_file,
                                                                   capsys):
    # a scale outside the dictionary's range is refused naming the line too
    rec = gp.DecompositionStep(m=0, lam=np.array([100.0, 1000.0]), coeff=0.5, score=0.25,
                               residual_energy=0.75).to_record()
    steps = tmp_path / "steps.jsonl"
    steps.write_text(json.dumps(rec) + "\n")
    assert main(["reconstruct", "--grid", str(grid_file), "--steps", str(steps),
                 "--out", str(tmp_path / "r.bin")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {steps}, line 1: scale 1000.0 outside")


def test_reconstruct_sums_the_steps_it_checked(tmp_path, grid_file, monkeypatch):
    # the steps file is read once: a file rewritten after its steps were
    # checked (here with a scale out of range) is not read again
    rec = gp.DecompositionStep(m=0, lam=np.array([100.0, 8.0]), coeff=0.5, score=0.25,
                               residual_energy=0.75).to_record()
    steps = tmp_path / "steps.jsonl"
    steps.write_text(json.dumps(rec) + "\n")
    read = cli.jsonl_steps

    def read_then_rewrite(path):
        yield from read(path)
        steps.write_text(json.dumps({**rec, "lambda": [100.0, 1000.0]}) + "\n")

    monkeypatch.setattr(cli, "jsonl_steps", read_then_rewrite)
    out = tmp_path / "r.bin"
    assert main(["reconstruct", "--grid", str(grid_file), "--steps", str(steps),
                 "--out", str(out)]) == 0
    atom = gp.Affine1DDictionary(512).synthesize(gp.ParamPoint([100.0, 8.0]))
    assert np.array_equal(gp.load_signal(out).data, 0.5 * atom.data)


def test_reconstruct_builds_each_atom_once(tmp_path, grid_file, monkeypatch):
    # each step is checked and summed in one pass that builds its atom
    # once, so a 30-step file costs 30 atom evaluations, not 60
    steps = tmp_path / "steps.jsonl"
    steps.write_text("".join(
        json.dumps(gp.DecompositionStep(m=m, lam=np.array([10.0 + 16 * m, 8.0]), coeff=0.5,
                                        score=0.25, residual_energy=0.75).to_record()) + "\n"
        for m in range(30)))
    calls = []
    jet = gp.Affine1DDictionary._jet

    def counted(self, *args):
        calls.append(args)
        return jet(self, *args)

    monkeypatch.setattr(gp.Affine1DDictionary, "_jet", counted)
    assert main(["reconstruct", "--grid", str(grid_file), "--steps", str(steps),
                 "--out", str(tmp_path / "r.bin")]) == 0
    assert len(calls) == 30


def test_reconstruct_of_a_step_without_support_is_runtime_error(tmp_path, grid_file, capsys):
    # an atom with no samples in the buffer passes the domain check and is
    # refused when its atom is built, naming the file and the line like
    # every other malformed step, before anything is written
    recs = [gp.DecompositionStep(m=m, lam=np.array([b, 8.0]), coeff=0.5, score=0.25,
                                 residual_energy=0.75).to_record()
            for m, b in enumerate((100.0, 1e6))]
    steps = tmp_path / "steps.jsonl"
    steps.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    out = tmp_path / "r.bin"
    assert main(["reconstruct", "--grid", str(grid_file), "--steps", str(steps),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {steps}, line 2: atom has no effective support")
    assert not out.exists()


def test_decompose_refuses_an_infinite_chi(tmp_path, grid_file):
    sig = tmp_path / "s.bin"
    assert main(["gen-signal", "--n", "512", "--bursts", "3", "--out", str(sig)]) == 0
    out = run_cli(["decompose", "--grid", str(grid_file), "--in", str(sig), "--mode", "gmp",
                   "--chi", "inf", "--out", "steps.jsonl"], cwd=tmp_path)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "chi" in out.stderr
    assert not (tmp_path / "steps.jsonl").exists()


@pytest.mark.parametrize("command", ["decompose", "image"])
def test_negative_iteration_counts_are_runtime_errors(tmp_path, grid_file, capsys, command):
    if command == "decompose":
        sig = tmp_path / "s.bin"
        main(["gen-signal", "--n", "512", "--out", str(sig)])
        args = ["decompose", "--grid", str(grid_file), "--in", str(sig), "--max-iters", "-1"]
    else:
        args = ["image", "--nx", "16", "--ny", "16", "--atoms", "-2"]
    out = tmp_path / "out.txt"
    capsys.readouterr()
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


_TAU = {"b0": 2, "a0": 1, "tau": 2, "jmin": 0, "jmax": 2, "N": 64}
_2D = {"Nx": 8, "Ny": 8, "J": 2, "K": 2}
_GRID_SPEC_ERRORS = {
    "tau-adic": ('{"b0": 2}', "no 'a0' key"),
    "not-json": ('{"b0": 2, a0: 1}', "Expecting property name"),
    "2-d": ('{"Nx": 8, "Ny": 8}', "no 'J' key"),
    "not-object": ("3", "must be a JSON object"),
    "b0-string": (json.dumps({**_TAU, "b0": "x"}), "'b0' must be a number"),
    "tau-one": (json.dumps({**_TAU, "tau": 1}), "tau must be finite and exceed 1"),
    "b0-null": (json.dumps({**_TAU, "b0": None}), "'b0' must be a number"),
    "jmin-fraction": (json.dumps({**_TAU, "jmin": 1.5}), "'jmin' must be an integer"),
    "N-fraction": (json.dumps({**_TAU, "N": 64.7}), "'N' must be an integer"),
    "tau-infinite": (json.dumps({**_TAU, "tau": float("inf")}), "tau must be finite"),
    "Nx-fraction": (json.dumps({**_2D, "Nx": 8.5}), "'Nx' must be an integer"),
    "Ny-string": (json.dumps({**_2D, "Ny": "8"}), "'Ny' must be an integer"),
    "min-scale-bool": (json.dumps({**_2D, "min_scale": True}), "'min_scale' must be a number"),
    # a key the grid family does not read is refused, not ignored
    "tau-adic-with-2-d-keys": (json.dumps({**_TAU, **_2D}), "unknown key 'Nx'"),
    "max-scale-misspelt": (json.dumps({**_2D, "max_scal": 3.0}), "unknown key 'max_scal'"),
}


# both commands load grids through one loader: the wrong-type cases run once
@pytest.mark.parametrize("command, spec, message", [
    pytest.param(command, *_GRID_SPEC_ERRORS[case], id=f"{case}-{command}")
    for case in _GRID_SPEC_ERRORS
    for command in (("decompose", "geometry") if case in ("tau-adic", "2-d") else ("decompose",))])
def test_grid_spec_missing_key_is_runtime_error(tmp_path, command, spec, message):
    # a missing key, or a value of the wrong type, is an error line naming
    # the file, not a traceback
    (tmp_path / "grid.json").write_text(spec)
    args = ["--in", "s.bin", "--out", "steps.jsonl"] if command == "decompose" else []
    out = run_cli([command, "--grid", "grid.json", *args], cwd=tmp_path)
    assert out.returncode == 1
    assert out.stderr.startswith("error: grid.json: ") and message in out.stderr
    assert "grid.json" not in out.stderr[len("error: grid.json: "):]
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("command, option, n", [("decompose", "--in", 32),
                                               ("reconstruct", "--in", 32),
                                               ("reconstruct", "--residual", 1)])
def test_signal_of_another_shape_than_the_grid_is_runtime_error(tmp_path, capsys,
                                                                 command, option, n):
    # a signal belongs to the grid's sample shape: any other is refused, with
    # the file and both shapes named, before an output is written
    (tmp_path / "grid.json").write_text(json.dumps(_TAU))
    gp.save_signal(gp.SignalBuffer(np.ones(64)), tmp_path / "good.bin")
    bad = tmp_path / "bad.bin"
    gp.save_signal(gp.SignalBuffer(np.ones(n)), bad)
    (tmp_path / "steps.jsonl").write_text("")
    signals = {"--in": str(tmp_path / "good.bin"), "--residual": str(tmp_path / "good.bin"),
               option: str(bad)}
    out = tmp_path / "out.bin"
    if command == "decompose":
        args = ["--in", signals["--in"], "--out", str(out)]
    else:
        args = ["--steps", str(tmp_path / "steps.jsonl"), "--out", str(out),
                "--in", signals["--in"], "--residual", signals["--residual"]]
    assert main([command, "--grid", str(tmp_path / "grid.json"), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert f"({n},)" in err and "(64,)" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["s.csv", "s.bin"])
def test_non_finite_signal_file_is_runtime_error(tmp_path, capsys, name):
    # the file's samples are refused by SignalBuffer, naming the file
    (tmp_path / "grid.json").write_text(json.dumps(_TAU))
    signal = tmp_path / name
    if name.endswith(".csv"):
        signal.write_text(",".join(["1.0"] * 63 + ["nan"]) + "\n")
    else:
        gp.save_signal(gp.SignalBuffer(np.ones(64)), signal)
        # the raw payload's last sample becomes +inf
        signal.write_bytes(signal.read_bytes()[:-8] + np.array([np.inf], "<f8").tobytes())
    out = tmp_path / "steps.jsonl"
    assert main(["decompose", "--grid", str(tmp_path / "grid.json"), "--in", str(signal),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {signal}: samples must be finite (no NaN/Inf)\n"
    assert not out.exists()


@pytest.mark.parametrize("grid", [gp.tau_grid_for_signal(64, b0=2, log2_tau=0.5),
                                  gp.Grid2DSpec(12, 12, 2, 2)], ids=["tau-adic", "2-d"])
def test_geometry_at_wrong_count_is_runtime_error(tmp_path, grid):
    path = tmp_path / "grid.json"
    path.write_text(grid.to_json())
    out = run_cli(["geometry", "--grid", str(path), "--at", "1,2,3",
                   "--beta-corpus", "1", "--out", "g.json"], cwd=tmp_path)
    assert out.returncode == 1
    assert "error: --at takes" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("bursts", ["0", "-3"])
@pytest.mark.parametrize("command", ["gen-signal", "curve", "nae"])
def test_burst_counts_below_one_are_runtime_errors(tmp_path, grid_file, capsys, command,
                                                   bursts):
    out = tmp_path / "x.out"
    args = [command, "--bursts", bursts, "--out", str(out)]
    args += ["--n", "512"] if command == "gen-signal" else ["--grid", str(grid_file),
                                                             "--trials", "1"]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: n_bursts must be an integer >= 1, got {bursts}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--at", "10,x"], "--at takes comma-separated numbers, got '10,x'"),
    (["--beta-corpus", "-1"], "--beta-corpus must be at least 1 without --beta, got -1"),
    (["--beta-corpus", "0"], "--beta-corpus must be at least 1 without --beta, got 0"),
    (["--alpha", "0"], "--alpha must lie in (0, 1], got 0.0"),
    (["--alpha", "1.5"], "--alpha must lie in (0, 1], got 1.5"),
    (["--alpha", "nan"], "--alpha must lie in (0, 1], got nan"),
    (["--beta", "2"], "--beta must lie in (0, 1], got 2.0"),
    (["--beta", "-0.5"], "--beta must lie in (0, 1], got -0.5"),
    (["--samples", "0"], "--samples must be at least 1, got 0"),
    (["--probes", "0"], "--probes must be at least 1, got 0"),
    (["--segments", "-2"], "--segments must be at least 1, got -2")],
    ids=["at", "corpus-negative", "corpus-empty", "alpha-zero", "alpha-above-one", "alpha-nan",
         "beta-above-one", "beta-negative", "samples", "probes", "segments"])
def test_geometry_refuses_bad_option_values_up_front(tmp_path, grid_file, capsys, monkeypatch,
                                                     args, message):
    # refused by name before any part of the report is computed
    def computed(*_):
        raise AssertionError("the report was computed")

    for name in ("metric", "condition_bound", "density_radius", "beta_surrogate"):
        monkeypatch.setattr(cli, name, computed)
    out = tmp_path / "g.json"
    assert main(["geometry", "--grid", str(grid_file), *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_geometry_with_beta_takes_any_corpus_size(tmp_path, grid_file):
    # the corpus only estimates beta, so a given --beta makes its size moot
    out = tmp_path / "g.json"
    assert main(["geometry", "--grid", str(grid_file), "--beta", "0.5", "--beta-corpus", "0",
                 "--samples", "2", "--probes", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["weakness"]["beta"] == 0.5


def test_image_subcommand_on_small_image(tmp_path):
    # blob centres and scales of the test image fit images below 10 px
    out_csv = tmp_path / "img.csv"
    assert main(["image", "--nx", "8", "--ny", "8", "--j", "2", "--k", "2",
                 "--atoms", "3", "--out", str(out_csv)]) == 0
    assert len(out_csv.read_text().splitlines()) == 4


@pytest.mark.parametrize("beta", [None, "0.5"], ids=["estimated", "given"])
def test_geometry_on_small_2d_grid(tmp_path, beta):
    path = tmp_path / "grid.json"
    path.write_text(gp.Grid2DSpec(8, 8, 2, 2).to_json())
    out_path = tmp_path / "geom.json"
    args = ["geometry", "--grid", str(path), "--samples", "2", "--probes", "3",
            "--beta-corpus", "2", "--out", str(out_path)]
    assert main(args + (["--beta", beta] if beta else [])) == 0
    payload = json.loads(out_path.read_text())
    assert np.array(payload["metric"]).shape == (5, 5)
    if beta:
        assert payload["weakness"]["beta"] == 0.5


@pytest.mark.parametrize("spec", [_TAU, {**_TAU, "b0": 1.0, "a0": 2.0, "tau": 2.0, "jmax": 0},
                                  {**_TAU, "b0": 1.0, "a0": 2.0, "tau": 1.05, "jmax": 1},
                                  {"Nx": 16, "Ny": 16, "J": 1, "K": 2, "min_scale": 2.0}],
                         ids=["integers", "one-scale", "narrow-span", "2-d-one-scale"])
def test_geometry_on_integer_and_narrow_grids(tmp_path, spec):
    # a tau-adic spec written with integers, and a scale span too narrow for
    # the 5% margin the draws keep inside it, both give a report
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(spec))
    out_path = tmp_path / "geom.json"
    assert main(["geometry", "--grid", str(path), "--samples", "2", "--probes", "5",
                 "--beta", "0.5", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    P = 5 if "Nx" in spec else 2
    assert np.array(payload["metric"]).shape == (P, P)
    assert payload["weakness"]["beta"] == 0.5
