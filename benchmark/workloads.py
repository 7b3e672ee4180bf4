"""The benchmark's workloads: what one iteration runs, and its output check.

Every workload uses one config (``configs/reference.json`` unless the
caller names another) and is a deterministic function of it.  An
iteration returns the outputs the check compares against the values
recorded in ``expected.json``; a mismatch makes the iteration a failed
operation.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path

from starwaves import cli, expansion, harness
from starwaves.grid import make_expansion_grids

# Relative tolerance of the output check.  Roundoff-level changes (another
# summation order, another interpolation of the same spline) move these
# values by far less; anything that changes a printed digit fails.
RTOL = 1e-9
ATOL = 1e-15

SMALL_EPS = (0.1, 0.05, 0.03, 0.02)
EXPAND_ORDER = 4
CSV_SAMPLES = 17


class CountingCache(dict):
    """Solve cache that counts the eps levels requested and served.

    ``convergence_sweep`` asks ``cache.get`` once per eps level and once
    for the coarse companion of the smallest eps.
    """

    def __init__(self):
        super().__init__()
        self.requests = 0
        self.hits = 0

    def get(self, key, default=None):
        self.requests += 1
        if key in self:
            self.hits += 1
        return super().get(key, default)


class Context:
    """Per-run state: the config, its validated form and a scratch directory."""

    def __init__(self, config: Path, rc, scratch: Path):
        self.config = config
        self.rc = rc
        self.scratch = scratch
        self.cache: CountingCache | None = None
        self.bytes_written = 0

    def new_cache(self, counting: bool) -> dict:
        self.cache = CountingCache() if counting else None
        return self.cache if counting else {}


def _sweep_outputs(rep) -> dict:
    return {
        "fitted_order": rep.fitted_order,
        "nu_fitted_order": rep.nu_fitted_order,
        "conclusive": rep.conclusive,
        "passed": rep.passed,
        "refine_estimate": rep.refine_estimate,
        "min_l2": min(t.l2 for t in rep.errors),
        "epsilons": list(rep.epsilons),
        "linf": [t.linf for t in rep.errors],
        "l2": [t.l2 for t in rep.errors],
        "h1x": [t.h1x for t in rep.errors],
    }


# -- reference-sweep ---------------------------------------------------------

def run_reference_sweep(ctx: Context, counting: bool):
    """The acceptance fixture: p=0 then p=1, one shared solve cache."""
    rc = ctx.rc
    cache = ctx.new_cache(counting)
    reports = {}
    for p in (0, 1):
        grids = make_expansion_grids(rc.spec, rc.n_per_edge, rc.cfl)
        es = expansion.build_expansion(rc.spec, p, grids)
        reports[p] = harness.convergence_sweep(
            rc.spec, p, rc.epsilons, rc.n_per_edge, rc.cfl, rc.margin,
            cache=cache, expansion=es)
    return reports


def outputs_reference_sweep(ctx: Context, reports) -> dict:
    return {f"p{p}": _sweep_outputs(rep) for p, rep in reports.items()}


# -- small-eps-sweep ---------------------------------------------------------

def run_small_eps_sweep(ctx: Context, counting: bool):
    rc = ctx.rc
    return harness.convergence_sweep(rc.spec, 1, SMALL_EPS, rc.n_per_edge,
                                     rc.cfl, rc.margin,
                                     cache=ctx.new_cache(counting))


def outputs_small_eps_sweep(ctx: Context, rep) -> dict:
    return {"p1": _sweep_outputs(rep)}


# -- expand-p4 ---------------------------------------------------------------

def run_expand_p4(ctx: Context, counting: bool):
    ctx.new_cache(counting)
    n = 0
    while (ctx.scratch / f"expand-{n}").exists():
        n += 1
    out = ctx.scratch / f"expand-{n}"
    rc = cli.main(["expand", str(ctx.config), "--p", str(EXPAND_ORDER),
                   "--out", str(out)])
    return rc, out


def _csv_samples(path: Path) -> dict:
    lines = path.read_bytes().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    rows = len(lines) - 1
    picks = sorted({1 + round(i * (rows - 1) / (CSV_SAMPLES - 1))
                    for i in range(CSV_SAMPLES)}) if rows > 0 else []
    return {"header": lines[0].decode() if lines else "",
            "rows": rows,
            "samples": [[float(v) for v in lines[i].split(b",")] for i in picks]}


def outputs_expand_p4(ctx: Context, result) -> dict:
    """Exit code and sampled rows of every term CSV; removes the directory."""
    rc, out = result
    try:
        files = sorted(out.glob("*.csv"))
        ctx.bytes_written = sum(f.stat().st_size for f in files)
        return {"exit_code": rc,
                "files": {f.name: _csv_samples(f) for f in files}}
    finally:
        shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {
    "reference-sweep": (run_reference_sweep, outputs_reference_sweep),
    "expand-p4": (run_expand_p4, outputs_expand_p4),
    "small-eps-sweep": (run_small_eps_sweep, outputs_small_eps_sweep),
}


# -- output check ------------------------------------------------------------

def compare(got, want, path: str = "") -> list[str]:
    """Mismatches between an output tree and its recorded values.

    Floats match within RTOL (plus ATOL for values near zero); booleans,
    integers, strings and the shape of lists and dicts match exactly.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or '/'}: keys differ"]
        out = []
        for k in sorted(want):
            out += compare(got[k], want[k], f"{path}/{k}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{path}[{i}]")
        return out
    if isinstance(want, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{path}: {got!r} != recorded {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != recorded {want!r}"]
    return []
