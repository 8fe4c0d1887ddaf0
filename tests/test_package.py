"""The package's public surface: each module's ``__all__``, and what ``import chargecast`` loads."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import chargecast
from conftest import child_env

# every module but __main__, which runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(chargecast.__path__) if m.name != "__main__")

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# names bench/layers.py patches in cli although cli no longer imports them;
# CI's traced cli-light step expects exactly these
DEAD_TRACE_TARGETS = {
    "chargecast.cli:multi_frequency_pipeline",
    "chargecast.cli:granule_channels",
    "chargecast.cli:relieff",
}

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


def test_every_benchmark_patch_target_resolves_but_the_known_dead_ones(monkeypatch):
    # a renamed target would leave its layer's traced figures at zero
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH)
    layers = importlib.import_module("layers")
    patches = layers.Patches()
    for targets in layers.LAYERS.values():
        for target in targets:
            patches.apply(target, lambda original: original)
    patches.restore()
    assert set(patches.missing) == DEAD_TRACE_TARGETS
