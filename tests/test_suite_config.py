"""The Tier-1 suite's own pytest configuration, the benchmark's tracer as
the suite sees it, and the package's imports."""

import ast
import importlib
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import PACKAGE_ROOT, child_env

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "geopursuit"

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


def _unused_imports(path: Path) -> list:
    """Names an import binds in the module at `path` that the module never
    reads and its `__all__` does not list: the check of a linter's F401,
    which an import marked `# noqa: F401` on its name's line opts out of."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


def test_the_package_imports_only_what_it_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, f"imported and never used: {unused}"


def test_the_unused_import_check_sees_an_unused_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import math\n"
                     "import os.path\n"
                     "from json import dumps, loads  # noqa: F401\n"
                     "from sys import (argv,\n"
                     "                 path as sys_path)\n"
                     "__all__ = ['argv']\n"
                     "x = os.path.sep\n")
    assert _unused_imports(probe) == ["probe.py:2: math", "probe.py:6: sys_path"]


def _unread_private_names(path: Path) -> list:
    """Private names (one leading underscore) that a module-level function,
    class or assignment of the module at `path` defines and the module never
    loads: a helper left behind when its last caller goes."""
    tree = ast.parse(path.read_text())
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node.lineno) for target in targets for t in ast.walk(target)
                        if isinstance(t, ast.Name)]
    return [f"{path.name}:{line}: {name}" for name, line in defined
            if name.startswith("_") and not name.startswith("__") and name not in loaded]


def test_every_private_module_name_is_read_in_its_module():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    unread = [entry for path in modules for entry in _unread_private_names(path)]
    assert not unread, f"private and never read in its module: {unread}"


def test_the_private_name_check_sees_an_unread_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import math\n"
                     "__version__ = '1'\n"
                     "_USED, _LEFT = 1, 2\n"
                     "_TYPED: int = 3\n"
                     "PUBLIC = _USED\n"
                     "def _helper():\n"
                     "    return math.pi\n"
                     "class _Kept:\n"
                     "    pass\n"
                     "def public():\n"
                     "    _local = _Kept()\n"
                     "    return _local\n")
    assert _unread_private_names(probe) == ["probe.py:3: _LEFT", "probe.py:4: _TYPED",
                                            "probe.py:6: _helper"]


def _private_imports(path: Path) -> list:
    """Private names (one leading underscore) that the module at `path`
    imports from a sibling module: another module's internals, which that
    module is free to change."""
    entries = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            entries += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names
                        if alias.name.startswith("_") and not alias.name.startswith("__")]
    return entries


def test_no_module_imports_another_modules_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    private = [entry for path in modules for entry in _private_imports(path)]
    assert not private, f"private names imported from another module: {private}"


def test_the_private_import_check_sees_a_private_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "from os import _exit\n"
                     "from . import __version__, _helper\n"
                     "from .core import (PUBLIC,\n"
                     "                   _internal as alias)\n"
                     "def f():\n"
                     "    from ..pkg import _nested\n"
                     "    return _nested\n")
    assert _private_imports(probe) == ["probe.py:3: _helper", "probe.py:4: _internal",
                                       "probe.py:7: _nested"]


# the grid and dictionary classes whose pairing picks a search plan's kind
_FAMILIES = {"TauAdicGrid", "Grid2DSpec", "Affine1DDictionary", "Aniso2DDictionary"}


def _family_tests(path: Path, allowed: str) -> list:
    """`isinstance` calls on a grid or dictionary family in the module at
    `path` outside its function `allowed`, by line and enclosing scope: the
    family decided a second time."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2 and scope != allowed):
            types = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1]) if isinstance(n, (ast.Name, ast.Attribute))}
            if types & _FAMILIES:
                found.append(f"{path.name}:{node.lineno}: {scope or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_only_the_plan_choice_tests_the_grid_family():
    # `_search_plan` picks the plan kind from the grid and dictionary types;
    # no plan, block or helper of the search asks again
    assert _family_tests(PACKAGE / "pursuit.py", "_search_plan") == []


def test_the_family_check_sees_a_second_decision(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import geopursuit as gp\n"
                     "from geopursuit import Grid2DSpec, TauAdicGrid\n"
                     "def _search_plan(d, grid):\n"
                     "    return isinstance(grid, TauAdicGrid)\n"
                     "class Plan:\n"
                     "    def argmax(self, grid):\n"
                     "        return isinstance(grid, (int, Grid2DSpec))\n"
                     "def build(d):\n"
                     "    return isinstance(d, dict) or isinstance(d, gp.Aniso2DDictionary)\n"
                     "FLAT = isinstance(None, gp.Affine1DDictionary)\n")
    assert _family_tests(probe, "_search_plan") == [
        "probe.py:7: Plan.argmax", "probe.py:9: build", "probe.py:10: <module>"]


def _third_party_imports(package: Path) -> set:
    """Top-level modules that the modules of `package` import, less the
    standard library and the package's own relative imports."""
    names = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def _declared_dependencies(pyproject: Path) -> set:
    """The distribution names of `[project] dependencies`, as import names."""
    tomllib = pytest.importorskip("tomllib")  # the standard library's from Python 3.11
    requirements = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_the_declared_dependencies_are_the_imported_ones():
    # a dependency that the package stops importing must leave pyproject.toml
    # with it, and one it starts importing must be declared there
    assert _third_party_imports(PACKAGE) == _declared_dependencies(PYPROJECT) != set()


def test_the_dependency_check_sees_an_undeclared_import(tmp_path):
    (tmp_path / "probe.py").write_text("from __future__ import annotations\n"
                                       "import os.path\n"
                                       "import numpy as np\n"
                                       "from yaml import safe_load\n"
                                       "from . import sibling\n"
                                       "from .core import x\n")
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[project]\nname = "probe"\ndependencies = '
                         '["numpy>=1.24", "Typing-Extensions; python_version < \'3.11\'"]\n')
    assert _third_party_imports(tmp_path) == {"numpy", "yaml"}
    assert _declared_dependencies(pyproject) == {"numpy", "typing_extensions"}


def test_importing_the_package_and_its_cli_loads_no_scipy(tmp_path):
    # the search's FFTs are numpy's: a fresh interpreter that imports the
    # library and the CLI has no scipy module loaded, whatever is installed
    probe = ("import sys\n"
             "import geopursuit, geopursuit.cli\n"
             "assert geopursuit.__file__.startswith(sys.argv[1]), geopursuit.__file__\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", probe, str(PACKAGE_ROOT)], cwd=tmp_path,
                         env=child_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
