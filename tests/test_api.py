"""The package's public names."""

import re
import types
from pathlib import Path

import splitbeam

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in splitbeam.__all__ if not hasattr(splitbeam, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(set(splitbeam.__all__)) == len(splitbeam.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from splitbeam import *", namespace)
    assert set(splitbeam.__all__) <= namespace.keys()


def test_every_public_name_is_exported():
    public = {
        name
        for name, value in vars(splitbeam).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(splitbeam.__all__)


def test_readme_library_example_runs():
    # the first python block under "## Library", run as a reader would
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert example is not None
    exec(example.group(1), {})
