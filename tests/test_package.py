"""The package surface: module exports, a bare root, and the traced names."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import starwaves

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
MODULES = sorted(m.name for m in pkgutil.iter_modules(starwaves.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"starwaves.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_root_import_loads_no_submodule():
    code = ("import sys, starwaves; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('starwaves.') or m.split('.')[0] == 'numpy')); "
            "print(sorted(n for n in vars(starwaves) if not n.startswith('__')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    assert r.stdout.split() == ["[]", "[]"]


def test_package_ships_no_test_oracle():
    # the Bessel kernels and the quadrature of the layer oracle live in the
    # tests, so the CLI does not import scipy.integrate (scipy.special still
    # comes in with scipy.interpolate)
    code = ("import sys, starwaves.cli, starwaves.errors, starwaves.kernels; "
            "print('scipy.integrate' in sys.modules); "
            "print(starwaves.kernels.__all__); "
            "print([n for n in ('KernelRangeError', 'ExpansionOrderError') "
            "if hasattr(starwaves.errors, n)])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    assert r.stdout.splitlines() == ["False", "['cs', 'sn']", "[]"]


def test_traced_names_are_the_home_functions(monkeypatch):
    # the benchmark tracer swaps these names in the calling modules; a
    # renamed import would leave calls untraced with only a stderr note
    monkeypatch.syspath_prepend(str(BENCHMARK))
    from tracing import TARGETS
    for _, home, attr, callers in TARGETS:
        fn = getattr(importlib.import_module(f"starwaves.{home}"), attr)
        for c in callers:
            assert getattr(importlib.import_module(f"starwaves.{c}"), attr) is fn, \
                f"starwaves.{c}.{attr}"
