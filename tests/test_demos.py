"""Smoke test: the narrative demos run to completion against the package.

Each demo runs in a child interpreter that imports the same geopursuit
package as this session (`conftest.child_env`), with the pytest temp
directory as its working directory and as TMPDIR, so that the files demo 04
writes through `tempfile.mkdtemp()` stay there. Demos 01-03 take under a
second each and 04 about 3 s on a 2-core host.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_atoms_and_signals.py", "02_pursuit_1d.py",
                                  "03_dictionary_geometry.py", "04_image_pursuit.py"])
def test_demo_runs(name, tmp_path):
    out = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                         env=child_env({"TMPDIR": str(tmp_path)}),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    if name == "04_image_pursuit.py":
        assert len(list(tmp_path.glob("*/recon_*.pgm"))) == 2
