"""The exactness contract: no float in any decision.

The modules a decision runs through (instances, devices, the simulator,
moment sets, the optical pipelines and the oracles) hold integer moments
and dyadic intensities only. This reads their source and refuses every
way a float gets in: a float literal, true division, ``float``, the
``math`` module and float dtypes. The simulator's trace rendering (``Trace`` and
``synthesize_trace``) and the physical envelope use floats on purpose
and are not checked.
"""

import ast
import re
from pathlib import Path

import pytest

import splitbeam

DECISION_MODULES = ("core.py", "device.py", "sim.py", "moments.py", "solver.py", "oracle.py")
# the float rendering of a timeline, skipped by name
RENDERING = {"sim.py": {"Trace", "synthesize_trace"}}

_FLOAT_NAME = re.compile(r"float\d*")
_FLOAT_DTYPE = re.compile(r"[<>=|]?(float\d*|f\d+)")


def module_tree(module):
    return ast.parse((Path(splitbeam.__file__).parent / module).read_text(encoding="utf-8"))


def decision_code(module):
    """The parsed source of ``module`` without its top-level rendering definitions."""
    tree = module_tree(module)
    skipped = RENDERING.get(module, set())
    kept = [node for node in tree.body if getattr(node, "name", None) not in skipped]
    assert len(tree.body) - len(kept) == len(skipped)
    tree.body = kept
    return tree


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


@pytest.mark.parametrize("module", DECISION_MODULES)
def test_decision_modules_hold_no_float(module):
    assert float_uses(decision_code(module)) == []


def test_only_the_rendering_is_skipped():
    # the trace rendering is exactly where sim.py's floats are
    whole = module_tree("sim.py")
    rendering = ast.Module([node for node in whole.body if getattr(node, "name", None) in RENDERING["sim.py"]], [])
    assert float_uses(whole) == float_uses(rendering) != []


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
