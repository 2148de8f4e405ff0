"""The import graph: the oracles stay independent of the optical route.

Equality of the two routes is the correctness argument only while they
share no code but ``core``. This parses every module of the package and
reads every ``import`` and ``from`` statement, those inside functions
too, so the graph holds what any call could import.
"""

import ast
from pathlib import Path

import pytest

import splitbeam
import splitbeam.oracle

PACKAGE = Path(splitbeam.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def splitbeam_imports(source):
    """The package modules ``source`` imports, at any depth. An import of
    the package itself (``import splitbeam``, or ``from . import name`` of
    a name that is not a module) counts as ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "splitbeam":
                    found.add(rest.partition(".")[0] or "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                target = node.module or ""
            elif node.level == 0 and (node.module == "splitbeam" or node.module.startswith("splitbeam.")):
                target = node.module[len("splitbeam.") :]
            else:
                continue
            if target:
                found.add(target.partition(".")[0])
            else:
                found.update(alias.name if alias.name in MODULES else "__init__" for alias in node.names)
    return found


GRAPH = {module: splitbeam_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) for module in MODULES}


def reachable(start):
    """``start`` and every package module it imports, directly or not."""
    seen, todo = {start}, [start]
    while todo:
        for module in GRAPH[todo.pop()] - seen:
            seen.add(module)
            todo.append(module)
    return seen


def test_oracle_imports_only_core():
    assert GRAPH["oracle"] == {"core"}


def test_core_imports_no_other_module():
    assert GRAPH["core"] == set()


def test_no_module_reachable_from_solver_imports_oracle():
    optical = reachable("solver")
    assert {"core", "device", "moments", "sim"} < optical
    assert sorted(module for module in optical if "oracle" in GRAPH[module]) == []


def test_the_package_reaches_both_routes():
    # so a module that imports the package would reach the oracle too
    assert {"oracle", "solver"} <= reachable("__init__")
    assert splitbeam.solve_oracle is splitbeam.oracle.solve_oracle
    assert splitbeam.subset_sum_oracle is splitbeam.oracle.subset_sum_oracle


@pytest.mark.parametrize(
    "source, modules",
    [
        ("from .sim import _path_delays", {"sim"}),
        ("def f():\n    from .sim import _path_delays", {"sim"}),
        ("class C:\n    def m(self):\n        if self:\n            import splitbeam.device", {"device"}),
        ("import splitbeam.sim as s", {"sim"}),
        ("from splitbeam.moments import MomentSet", {"moments"}),
        ("from splitbeam import sim", {"sim"}),
        ("from . import sim, solve_optical", {"sim", "__init__"}),
        ("import splitbeam", {"__init__"}),
        ("import numpy as np\nfrom typing import Iterator\nfrom splitbeams import x", set()),
    ],
)
def test_reader_finds_every_package_import(source, modules):
    assert splitbeam_imports(source) == modules
