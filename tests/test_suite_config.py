"""The Tier-1 suite's own pytest configuration."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
