"""The package's public surface: each module's ``__all__``, and what ``import chargecast`` loads."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import chargecast
from conftest import child_env

# every module but __main__, which runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(chargecast.__path__) if m.name != "__main__")

# what ``import chargecast`` loads: the library modules, not cli
LOADED = [
    "autodiff", "bands", "channels", "config", "domain", "emd", "entropy", "errors", "granulate", "io",
    "losses", "model", "quantize", "relieff", "seeds", "synth", "training", "vmd",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"chargecast.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_import_loads_the_library_modules_and_binds_nothing_else():
    code = (
        "import sys, chargecast\n"
        "print(*sorted(m for m in sys.modules if m.startswith('chargecast')))\n"
        "print(*sorted(n for n in vars(chargecast) if not n.startswith('__')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
    modules, names = out.stdout.splitlines()
    assert modules.split() == ["chargecast", *(f"chargecast.{name}" for name in LOADED)]
    assert names.split() == LOADED
