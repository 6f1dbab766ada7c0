"""Smoke test: the narrative demos run to completion against the package.

Each demo runs in a child interpreter that imports the same geopursuit
package as this session (`conftest.child_env`). `04_image_pursuit.py` is
left out because it takes ~40 s; demos 01-03 take a few seconds each.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_atoms_and_signals.py", "02_pursuit_1d.py",
                                  "03_dictionary_geometry.py"])
def test_demo_runs(name, tmp_path):
    out = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                         env=child_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
