"""The exactness contract: no float in any decision.

The modules checked are the ones the routes reach: ``solver`` and
``oracle`` and every package module either imports, directly or not,
read from the import graph. They hold integer moments and dyadic
intensities only. This reads each whole file and refuses every way a
float gets in: a float literal, true division, ``float``, the ``math``
module and float dtypes. A module a decision comes to import is checked
without editing a list. The physical envelope and the trace use floats
on purpose; they live in ``feasibility``, which neither route reaches.
"""

import ast
import re
from pathlib import Path

import pytest

import splitbeam
from test_imports import MODULES, reachable

DECISION_MODULES = sorted(f"{module}.py" for module in reachable("solver") | reachable("oracle"))

_FLOAT_NAME = re.compile(r"float\d*")
_FLOAT_DTYPE = re.compile(r"[<>=|]?(float\d*|f\d+)")


def module_tree(module):
    return ast.parse((Path(splitbeam.__file__).parent / module).read_text(encoding="utf-8"))


def float_uses(tree):
    """(line, construct) for every float construct in the parsed ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _FLOAT_DTYPE.fullmatch(node.value):
            found.append((node.lineno, f"dtype {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Name) and _FLOAT_NAME.fullmatch(node.id):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and _FLOAT_NAME.fullmatch(node.attr):
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
            found.append((node.lineno, f"math.{node.attr}"))
    return found


def test_the_routes_reach_every_decision_module():
    # so the derived list cannot shrink unnoticed
    assert DECISION_MODULES == ["core.py", "device.py", "moments.py", "oracle.py", "sim.py", "solver.py"]
    # every float is in the float module or the command line
    assert [f"{m}.py" for m in MODULES if float_uses(module_tree(f"{m}.py"))] == ["cli.py", "feasibility.py"]


@pytest.mark.parametrize("module", DECISION_MODULES)
def test_decision_modules_hold_no_float(module):
    assert float_uses(module_tree(module)) == []


@pytest.mark.parametrize(
    "snippet, construct",
    [
        ("x = 0.5", "float literal"),
        ("x = a / b", "true division"),
        ("x /= 2", "true division"),
        ("x = float(k)", "float"),
        ("x = np.zeros(4, dtype=float)", "float"),
        ("x = np.zeros(4, dtype=np.float64)", ".float64"),
        ("x = np.zeros(4, dtype='<f8')", "dtype '<f8'"),
        ("x = a.astype('float32')", "dtype 'float32'"),
        ("x = math.log2(k)", "math.log2"),
    ],
)
def test_checker_catches_a_planted_float(snippet, construct):
    source = f"def decide(a, b, k):\n    '''k // 2 stays an int.'''\n    {snippet}\n    return a // b\n"
    assert float_uses(ast.parse(source)) == [(3, construct)]
