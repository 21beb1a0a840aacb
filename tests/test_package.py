"""Package-level checks: the public names each module declares exist."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_pool_imported_only_when_made():
    """A serial campaign never imports ``concurrent.futures`` (nor the
    ``logging`` it pulls in); a run with a draw pool does.  Run in a fresh
    interpreter, since another test may have imported it here."""
    code = (
        "import sys\n"
        "from atomris import cli, sim\n"
        "cfg = sim.SimConfig(num_cells=4, num_elements=3, num_users=2,\n"
        "                    eb_n0_grid_db=(-20.0,), trials_per_point=2, symbols_per_trial=5)\n"
        "sim.run_ber(cfg)\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "sim.run_ber(cfg, threads=2)\n"
        "assert 'concurrent.futures' in sys.modules\n"
    )
    src = str(Path(atomris.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
