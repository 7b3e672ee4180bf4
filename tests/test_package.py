"""The package surface: module exports, a bare root, the scipy modules each
command loads, and the traced names."""

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import starwaves
from starwaves.grid import make_direct_grid, make_expansion_grids
from starwaves.harness import load_config, validate_config

from .helpers import REFERENCE_CONFIG

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
    # tests, so the CLI does not import scipy.integrate
    code = ("import sys, starwaves.cli, starwaves.errors, starwaves.kernels; "
            "print('scipy.integrate' in sys.modules); "
            "print(starwaves.kernels.__all__); "
            "print([n for n in ('KernelRangeError', 'ExpansionOrderError') "
            "if hasattr(starwaves.errors, n)])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    assert r.stdout.splitlines() == ["False", "['cs', 'sn']", "[]"]


def test_config_check_loads_no_thread_pool():
    # concurrent.futures (and the logging it pulls in) is imported where the
    # convolution's pool runs, not by importing the package and reading a
    # config
    code = ("import sys; from starwaves.harness import load_config, validate_config; "
            f"validate_config(load_config({str(REFERENCE_CONFIG)!r})); "
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    assert r.stdout.split() == ["[]"]


# cli.main on argv in a fresh interpreter; its last line of output is the
# exit code and the scipy modules loaded, as JSON
_RUN_CLI = ("import json, sys; from starwaves import cli; rc = cli.main(sys.argv[1:]); "
            "print(json.dumps([rc, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy')]))")


def _run_cli(*argv):
    r = subprocess.run([sys.executable, "-c", _RUN_CLI, *argv], capture_output=True,
                       text=True, check=True)
    *out, last = r.stdout.splitlines()
    return (*json.loads(last), out)


def test_scipy_loads_only_when_a_term_is_sampled(tmp_path):
    # check, expand and solve build no spline, so they run on numpy alone
    config = str(BENCHMARK / "smoke_config.json")
    out = str(tmp_path)
    for argv in (["check", config], ["expand", config, "--p", "1", "--out", out],
                 ["solve", config, "--eps", "0.2", "--out", out]):
        rc, loaded, _ = _run_cli(*argv)
        assert (rc, loaded) == (0, []), argv


@pytest.mark.parametrize("times", ["other", "own"])
def test_sweep_loads_no_scipy_interpolate(tmp_path, times):
    # the sweep samples every term through the numpy B-spline basis: it
    # loads LAPACK's band routines and the sparse product, and no module
    # of scipy.interpolate.  The smoke grids' times differ from the
    # series', so each spline's t factor runs too; at 200 cells per edge
    # they are the series' own, as on the reference config
    cfg = json.loads((BENCHMARK / "smoke_config.json").read_text())
    if times == "own":
        cfg["grid"]["n_per_edge"] = 200
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    run = validate_config(load_config(config))
    series = make_expansion_grids(run.spec, run.n_per_edge, run.cfl).times
    same = [np.array_equal(make_direct_grid(run.spec, eps, run.n_per_edge, run.cfl).times(),
                           series) for eps in run.epsilons]
    assert same == [times == "own"] * len(run.epsilons)
    rc, loaded, lines = _run_cli("verify", str(config), "--out", str(tmp_path / "out"))
    assert rc == 1 and any(line.startswith("inconclusive") for line in lines)
    assert {"scipy.linalg", "scipy.sparse"} <= set(loaded)
    assert [m for m in loaded if m.startswith("scipy.interpolate")] == []


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
