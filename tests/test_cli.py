import json

import numpy as np
import pytest

import geopursuit as gp
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
    assert "scale bounds must satisfy" in capsys.readouterr().err


def test_image_subcommand(tmp_path):
    out_csv = tmp_path / "img.csv"
    assert main(["image", "--nx", "20", "--ny", "20", "--j", "2", "--k", "2",
                 "--atoms", "4", "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[1] == "label,mode,kappa,atoms,psnr_db"
    assert len(lines) == 4  # comment + header + dmp + gmp


def test_usage_error_exit_code(tmp_path):
    out = run_cli(["decompose", "--grid"], cwd=tmp_path)
    assert out.returncode == 2


def test_runtime_error_exit_code(tmp_path):
    out = run_cli(["decompose", "--grid", "missing.json", "--in", "x.bin",
                   "--out", "y.jsonl"], cwd=tmp_path)
    assert out.returncode == 1
    assert "error:" in out.stderr


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
    "2-d": ('{"Nx": 8, "Ny": 8}', "no 'J' key"),
    "not-object": ("3", "must be a JSON object"),
    "b0-string": (json.dumps({**_TAU, "b0": "x"}), "'b0' must be a number"),
    "b0-null": (json.dumps({**_TAU, "b0": None}), "'b0' must be a number"),
    "jmin-fraction": (json.dumps({**_TAU, "jmin": 1.5}), "'jmin' must be an integer"),
    "N-fraction": (json.dumps({**_TAU, "N": 64.7}), "'N' must be an integer"),
    "tau-infinite": (json.dumps({**_TAU, "tau": float("inf")}), "tau must be finite"),
    "Nx-fraction": (json.dumps({**_2D, "Nx": 8.5}), "'Nx' must be an integer"),
    "Ny-string": (json.dumps({**_2D, "Ny": "8"}), "'Ny' must be an integer"),
    "min-scale-bool": (json.dumps({**_2D, "min_scale": True}), "'min_scale' must be a number"),
}


# both commands load grids through one loader: the wrong-type cases run once
@pytest.mark.parametrize("command, spec, message", [
    pytest.param(command, *_GRID_SPEC_ERRORS[case], id=f"{case}-{command}")
    for case in _GRID_SPEC_ERRORS
    for command in (("decompose", "geometry") if case in ("tau-adic", "2-d") else ("decompose",))])
def test_grid_spec_missing_key_is_runtime_error(tmp_path, command, spec, message):
    # a missing key, or a value of the wrong type, is an error line, not a traceback
    (tmp_path / "grid.json").write_text(spec)
    args = ["--in", "s.bin", "--out", "steps.jsonl"] if command == "decompose" else []
    out = run_cli([command, "--grid", "grid.json", *args], cwd=tmp_path)
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and message in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("grid", [gp.tau_grid_for_signal(64, b0=2, log2_tau=0.5),
                                  gp.Grid2DSpec(12, 12, 2, 2)], ids=["tau-adic", "2-d"])
def test_geometry_at_wrong_count_is_runtime_error(tmp_path, grid):
    path = tmp_path / "grid.json"
    path.write_text(grid.to_json())
    out = run_cli(["geometry", "--grid", str(path), "--at", "1,2,3",
                   "--beta-corpus", "1", "--out", "g.json"], cwd=tmp_path)
    assert out.returncode == 1
    assert "error: --at takes" in out.stderr and "Traceback" not in out.stderr


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
