"""Run the docstring examples of every cmscan module."""
import doctest
import importlib
import pkgutil

import pytest

import cmscan

MODULES = sorted(info.name for info in pkgutil.iter_modules(
    cmscan.__path__, prefix="cmscan."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} failed"


def test_examples_are_collected():
    # A module whose examples stop being found would pass silently.
    for name in ("cmscan.partitions", "cmscan.polycore"):
        assert doctest.testmod(importlib.import_module(name)).attempted > 0
