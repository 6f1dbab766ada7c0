"""The Tier-1 suite's own pytest configuration, and the benchmark's tracer
as the suite sees it."""

import importlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

# per-layer metrics that the benchmark reads from a span label: the name
# less this suffix
_TRACED_SUFFIXES = (".calls", ".self_s", ".constructed", ".yielded")


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # on a failure, hypothesis imports a module that warns a third-party
    # DeprecationWarning; the suite's warning filters must not turn that
    # into an INTERNALERROR that skips every later test
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings
        from hypothesis import strategies as st


        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    out = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "-p", "no:cacheprovider", "-q", str(tmp_path)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout


def test_every_traced_benchmark_metric_has_its_span_label(monkeypatch):
    # a metric whose label no span carries reads 0, so moving or renaming a
    # traced function (say `ParamPoint.__init__`) must fail here instead
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    wanted = {name.rsplit(".", 1)[0] for name in names
              if name.endswith(_TRACED_SUFFIXES) and not name.startswith("trace.")}
    tracer = spans.Tracer()
    tracer.install()
    try:
        labels = set(tracer.labels)
    finally:
        tracer.uninstall()
    assert wanted
    assert not wanted - labels, f"no span carries {sorted(wanted - labels)}"
