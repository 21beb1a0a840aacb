"""Package-level checks: the public names each module declares exist."""

import importlib

import pytest

import atomris

MODULES = ("channel", "config", "detect", "modem", "risopt", "sim")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"atomris.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"atomris.{name}.__all__ names undefined {missing}"


def test_version_exported():
    assert isinstance(atomris.__version__, str)
