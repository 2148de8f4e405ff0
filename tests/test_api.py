"""The package's public names."""

import splitbeam


def test_every_exported_name_resolves():
    missing = [name for name in splitbeam.__all__ if not hasattr(splitbeam, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(set(splitbeam.__all__)) == len(splitbeam.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from splitbeam import *", namespace)
    assert set(splitbeam.__all__) <= namespace.keys()
