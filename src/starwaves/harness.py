"""Norms, convergence sweeps, config validation, and CSV report writers.

The sweep measures L-infinity, L2 over the space-time cylinder, and an
H1-in-x surrogate.  The underlying estimate controls a stronger norm whose
second derivatives are only locally bounded for weak solutions, so the
report header states the surrogate explicitly.

expansion builds the series and samples it; this module measures it.
Once per sweep it measures what the recursion leaves: each u_s term's
residual in its own equation, on its own grid (term_residuals), and the
truncation leftover on the degenerate edges, whose eps-dependence is a
power (truncation_leftover).  The direct field of every eps is solved
first and kept whole (a solve cache, keyed by direct_solve's arguments,
may share it); the sweep then streams the series against all of them in
one loop over time slabs (_slab_norms): for each slab, each eps, each
edge, it assembles the partial sum on the slab's columns and adds the
slab's share to the norm sums (_EdgeNorms).  The assembled field never
exists whole, and a term's spline needs its coefficients for one slab
at a time; norms() runs the same slab loop over two whole fields.

validate_config reads each field, then runs every other rule where it is
defined, before any field or term is made: all subcommands refuse alike.
"""

from __future__ import annotations

import ctypes
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .direct import Field, direct_solve
from .errors import ExprSyntaxError, GraphConfigError, NonFiniteError
from .expr import Expr, parse
from .graph import Edge, ProblemSpec, StarGraph
from .grid import (TIME_SLAB, Grid, Term, coarsen, make_direct_grid,
                   make_expansion_grids, time_slabs, trapezoid_weights)
from .expansion import (MAX_ORDER, ExpansionSet, build_expansion,
                        partial_sum_columns, require_layer_room, residuals)
# not called here: benchmark/tracing.py wraps this name in this namespace
from .expansion import assemble_partial_sum  # noqa: F401
from .kernels import require_in_range
from .limit import _dxx

__all__ = [
    "NormTriple",
    "norms",
    "TermResidual",
    "term_residuals",
    "truncation_leftover",
    "ResidualReport",
    "FitResult",
    "fit_order",
    "ConvergenceReport",
    "convergence_sweep",
    "RunConfig",
    "load_config",
    "validate_config",
    "write_report_csv",
    "write_residuals_csv",
    "write_term_residuals_csv",
    "write_grid_csv",
    "write_field_csvs",
    "write_trace_csv",
    "write_plot_csv",
]

NORM_NOTE = ("norms are L-infinity, L2 and an H1-in-x surrogate over the "
             "space-time cylinder; the underlying estimate bounds a stronger "
             "norm that is not grid-measurable for weak solutions")
DEFECT_NOTE = ("sup_trunc is the sup of what truncating the series at order p "
               "leaves in the degenerate edges' equations; the flux remainder's "
               "floor is its change under a stride-2 stencil over 3")


@dataclass(frozen=True)
class NormTriple:
    linf: float
    l2: float
    h1x: float


def _gradient(d: np.ndarray, h: float, out: np.ndarray) -> None:
    """np.gradient(d, h, axis=0, edge_order=2), bit for bit, written into out."""
    np.subtract(d[2:], d[:-2], out=out[1:-1])
    np.divide(out[1:-1], 2.0 * h, out=out[1:-1])
    out[0] = -1.5 / h * d[0] + 2.0 / h * d[1] + -0.5 / h * d[2]
    out[-1] = 0.5 / h * d[-3] + -2.0 / h * d[-2] + 1.5 / h * d[-1]


class _EdgeNorms:
    """Trapezoid-weighted norm sums of a difference on one edge of a grid.

    It is fed the difference at the columns of every slab of
    time_slabs(grid.steps), in order, so it counts each column once.  The
    maximum is reduced with np.max, a nan included; the L2 and H1 sums are
    per-slab products wx @ d^2 @ wt added up.  The x-gradient goes to grad,
    a buffer of TIME_SLAB columns and at least as many rows as the edge has
    nodes, which the sums of other edges may share; the difference is
    squared in place.
    """

    def __init__(self, grid: Grid, e: int, grad: np.ndarray):
        self.h = grid.h(e)
        self.wx = trapezoid_weights(grid.n_cells[e], self.h)
        self.wt = trapezoid_weights(grid.steps, grid.dt)
        self.grad = grad
        self.linf: list = []
        self.l2sq = 0.0
        self.h1sq = 0.0

    def add(self, d: np.ndarray, cols: slice) -> None:
        """d is the difference at columns cols; it is overwritten."""
        g = self.grad[:len(d), :d.shape[1]]
        _gradient(d, self.h, g)
        wt = self.wt[cols]
        np.abs(d, out=d)
        self.linf.append(np.max(d))
        np.multiply(d, d, out=d)
        self.l2sq += float(self.wx @ d @ wt)
        np.multiply(g, g, out=g)
        self.h1sq += float(self.wx @ g @ wt)


def _slab_norms(measures: list) -> list[NormTriple]:
    """The norms of differences handed over one time slab at a time.

    measures holds, for each difference, its grid and, for each edge e in
    turn, diff(cols, out): the difference on e at the columns cols of a
    slab of time_slabs(grid.steps), written into the corner of out.  The
    loop is slab-major: for each slab k, each difference in order, each
    edge.  Every edge's sums still get their slabs in ascending order, as
    a loop over one difference at a time feeds them, so each sum is built
    in the same order, to the bit; a grid with fewer slabs skips the slabs
    it lacks.  The sums use each diff before the next is asked for, so one
    difference and one gradient buffer, as tall as the tallest edge, serve.
    """
    shape = (max(n for grid, _ in measures for n in grid.n_cells) + 1, TIME_SLAB)
    buf, grad = np.empty(shape), np.empty(shape)
    runs = [(time_slabs(grid.steps),
             [(diff, _EdgeNorms(grid, e, grad)) for e, diff in enumerate(diffs)])
            for grid, diffs in measures]
    for k in range(max(len(slabs) for slabs, _ in runs)):
        for slabs, edges in runs:
            if k < len(slabs):
                for diff, acc in edges:
                    acc.add(diff(slabs[k], buf), slabs[k])
    out = []
    for _, edges in runs:
        parts = [acc for _, acc in edges]
        linf = float(np.max([np.max(p.linf) for p in parts]))
        l2sq = sum(p.l2sq for p in parts)
        h1sq = sum(p.h1sq for p in parts)
        out.append(NormTriple(linf, math.sqrt(l2sq), math.sqrt(l2sq + h1sq)))
    return out


def norms(f1: Field, f2: Field) -> NormTriple:
    """Trapezoid-weighted discrete norms of f1 - f2 over all edges and time."""
    g1, g2 = f1.grid, f2.grid
    if (g1.lengths != g2.lengths or g1.n_cells != g2.n_cells
            or g1.dt != g2.dt or g1.steps != g2.steps):
        raise ValueError("fields live on different grids")

    def diff(u1: np.ndarray, u2: np.ndarray):
        return lambda cols, out: np.subtract(u1[:, cols], u2[:, cols],
                                             out=out[:len(u1), :cols.stop - cols.start])
    return _slab_norms([(g1, list(map(diff, f1.edges, f2.edges)))])[0]


def _series_errors(es: ExpansionSet, epsilons: tuple[float, ...], refs: list[Field]
                   ) -> list[NormTriple]:
    """The norms of each ref minus the series at its eps, the series
    assembled on ref's grid one edge's time slab at a time, in place of
    the slab's sum.

    The slabs are walked slab-major (_slab_norms), so every eps reads a
    spline's coefficient block of slab k before the next block is made.
    Each eps's terms are sampled (partial_sum_columns) in eps order, first.
    """
    def diff(u: np.ndarray, columns):
        def at(cols: slice, out: np.ndarray) -> np.ndarray:
            V = columns(cols, out)
            return np.subtract(u[:, cols], V, out=V)
        return at
    return _slab_norms([(ref.grid, list(map(diff, ref.edges,
                                            partial_sum_columns(es, eps, ref.grid))))
                        for eps, ref in zip(epsilons, refs)])


# -- what the recursion leaves, once per sweep --------------------------------

@dataclass(frozen=True)
class TermResidual:
    """Sup of a u_s term's residual in its own equation, and of the term.

    key is the term's build_log key.  u_s is checked against
    d_t^2 u_s + q u_s = its source, where the three-point d_t^2 leaves
    O(dt^2).  U terms and layers have no row: the stored values are their
    march's own update, which the tests check once against whole-array
    oracles, not on every run.
    """

    key: tuple
    residual: float
    scale: float


def _ode_residual(term: Term, q: Expr, src: np.ndarray) -> float:
    """max |d_t^2 u + q u - src| over the interior times, d_t^2 on three points."""
    u = term.values
    dt = term.times[1] - term.times[0]
    utt = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / (dt * dt)
    Q = q.evaluate(term.x_nodes, 0.0)[:, None]
    return float(np.max(np.abs(utt + Q * u[:, 1:-1] - src[:, 1:-1])))


def term_residuals(es: ExpansionSet) -> tuple[TermResidual, ...]:
    """Each u_s term's residual in its own equation, in build_log order."""
    spec, times = es.spec, es.grids.times
    out = []
    for key, _ in es.build_log:
        family, k, i = key
        if family != "u":
            continue
        term = es.term(key)
        if not term.values.size:
            # a zero term stores no rows: u_1, which solves the homogeneous
            # equation, or a term above a zero one, whose source d_x^2 is
            # zero too
            res = scale = 0.0
        else:
            src = (spec.f[i].evaluate(term.x_nodes[:, None], times[None, :]) if k == 0
                   else _dxx(es.edge_terms[(k - 2, i)].values, term.x_nodes[1]))
            res = _ode_residual(term, spec.q[i], src)
            scale = float(np.max(np.abs(term.values)))
        out.append(TermResidual(key, res, scale))
    return tuple(out)


def truncation_leftover(es: ExpansionSet, epsilons: tuple[float, ...]
                        ) -> tuple[float, ...]:
    """Sup over the degenerate edges of what truncation leaves, per eps.

    With u_s solving u_s'' + q u_s = d_x^2 u_{s-2}, the edge series
    sum_{s<=p} eps^(sm) u_s leaves
    eps^(2m) (eps^((p-1)m) d_x^2 u_{p-1} + eps^(pm) d_x^2 u_p) in the edge
    equation.  The d_x^2 (limit._dxx on the u nodes) are taken once; each
    eps only scales them.
    """
    p = es.order
    g = es.spec.graph
    curv = []
    for e in g.gstar_edges():
        terms = [(s, es.edge_terms[(s, e)]) for s in (p - 1, p) if s >= 0]
        curv.append((g.m(e), [(s, _dxx(t.values, t.x_nodes[1]))
                              for s, t in terms if not t.is_zero]))
    out = []
    for eps in epsilons:
        sup = 0.0
        for m, parts in curv:
            if parts:
                left = sum(eps ** ((2 + s) * m) * d for s, d in parts)
                sup = max(sup, float(np.max(np.abs(left))))
        out.append(sup)
    return tuple(out)


@dataclass(frozen=True)
class ResidualReport:
    """The flux remainder with its floor and the truncation leftover at one eps."""

    eps: float
    order: int
    nu_samples: np.ndarray
    sup_nu: float
    nu_floor: float
    sup_trunc: float
    note: str = DEFECT_NOTE


def _require_finite(eps: float, triple: NormTriple, rep: ResidualReport) -> None:
    for name, v in (("L-infinity error", triple.linf), ("L2 error", triple.l2),
                    ("H1x error", triple.h1x), ("flux remainder", rep.sup_nu),
                    ("truncation leftover", rep.sup_trunc)):
        if not math.isfinite(v):
            raise NonFiniteError(f"{name} at eps={eps:g} is {v:g}")


@dataclass(frozen=True)
class FitResult:
    order: float
    constant: float
    residual: float


def fit_order(eps: tuple[float, ...], err: tuple[float, ...]) -> FitResult:
    """Least-squares slope of log err against log eps.

    Exact (to roundoff) when err is a pure power law.
    """
    if len(eps) < 3:
        raise ValueError("need at least 3 points for an order fit")
    if any(x <= 0 for x in eps) or any(x <= 0 for x in err):
        raise ValueError("eps and errors must be positive for a log-log fit")
    le = np.log(np.asarray(eps, dtype=float))
    lr = np.log(np.asarray(err, dtype=float))
    A = np.column_stack([le, np.ones_like(le)])
    coef, *_ = np.linalg.lstsq(A, lr, rcond=None)
    resid = float(np.max(np.abs(A @ coef - lr)))
    return FitResult(float(coef[0]), float(math.exp(coef[1])), resid)


@dataclass(frozen=True)
class ConvergenceReport:
    p: int
    epsilons: tuple[float, ...]
    errors: tuple[NormTriple, ...]
    fitted_order: float
    fit_constant: float
    fit_residual: float
    theoretical_order: float
    margin: float
    conclusive: bool
    refine_estimate: float
    passed: bool
    residual_reports: tuple[ResidualReport, ...]
    nu_fitted_order: float
    trunc_fitted_order: float  # nan when the leftover vanishes at some eps
    term_residuals: tuple[TermResidual, ...]
    note: str = NORM_NOTE


try:  # glibc; elsewhere the heap keeps its free pages
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def _trim_heap() -> None:
    """Give the heap's free pages back to the system, where glibc allows it.

    Otherwise the freed series stays resident under the coarse field, and
    the sweep's peak RSS carries both.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def _solve(cache: dict, key: tuple) -> Field:
    """cache[key], solved by direct_solve(*key) and stored if it is missing;
    cache.get is asked once."""
    ref = cache.get(key)
    if ref is None:
        ref = cache[key] = direct_solve(*key)
    return ref


def _require_sweep_epsilons(spec: ProblemSpec, epsilons: tuple[float, ...]) -> None:
    """The rules of a sweep's eps list, each naming the entry that breaks
    it: at least 3 values for the order fit, strictly decreasing, and each
    leaving the layers room (require_layer_room)."""
    if len(epsilons) < 3:
        raise GraphConfigError("epsilons: need at least 3 values for a sweep")
    for i, eps in enumerate(epsilons):
        if i and not eps < epsilons[i - 1]:
            raise GraphConfigError(f"epsilons[{i}]: values must be strictly decreasing")
        require_layer_room(spec, eps, f"epsilons[{i}]")


def convergence_sweep(spec: ProblemSpec, p: int, epsilons: tuple[float, ...],
                      n_per_edge: int = 640, cfl: float = 0.9,
                      margin: float = 0.3, cache: dict | None = None,
                      expansion: ExpansionSet | None = None) -> ConvergenceReport:
    """Direct solve vs assembled series for each eps, with an order fit.

    The eps list is checked first (_require_sweep_epsilons), before any
    grid is made, term built or field solved.  A nested-grid refinement
    estimate at the smallest eps guards the measurement: if the direct
    solver's own error is not well below the smallest asymptotic error,
    the sweep is declared inconclusive and the pass flag stays false
    regardless of the fitted order.  Its coarse grid is built first, so
    an n_per_edge too small for it fails before any solve.  Each u_s
    term's own-equation residual and the truncation leftover's d_x^2 are
    measured once.  Then every fine solve runs, and
    every eps is measured in one loop over time slabs (_series_errors):
    for each slab, each eps in order, each edge, the series is assembled
    on the slab and measured against the direct field, so each spline
    solves and holds one coefficient block at a time.  The flux remainder
    follows, eps by eps; a non-finite error or remainder raises
    NonFiniteError naming the first such eps.

    The cache is a memo: cache[(spec, eps, grid)] = direct_solve(spec,
    eps, grid), for each eps's grid and the coarse grid at the smallest.
    The solves it lacks run before any eps is measured, in eps order; the
    coarse solve runs last, after the series is released.  A passed-in
    expansion of another spec, order or grids raises GraphConfigError
    before any solve.
    """
    eps_list = tuple(float(x) for x in epsilons)
    _require_sweep_epsilons(spec, eps_list)
    if len(spec.graph.exponents) < 2:
        raise GraphConfigError(
            "graph has no degenerate subgraph: there is no rate to verify")
    keys = [(spec, eps, make_direct_grid(spec, eps, n_per_edge, cfl)) for eps in eps_list]
    # the refinement estimate's coarse grid, checked before any solve
    eps_min = eps_list[-1]
    try:
        grid_c = coarsen(keys[-1][2])
    except GraphConfigError as exc:
        raise GraphConfigError(
            f"grid.n_per_edge: {n_per_edge} is too small for the 2x-coarse grid "
            f"of the refinement estimate at eps={eps_min:g} ({exc}); 15 or "
            "more works") from exc
    if cache is None:
        cache = {}
    grids = make_expansion_grids(spec, n_per_edge, cfl)
    if expansion is not None:
        if expansion.spec != spec:
            raise GraphConfigError("expansion: built for another problem than this sweep's")
        if expansion.order != p:
            raise GraphConfigError(
                f"expansion: built to order {expansion.order}, this sweep asks for p={p}")
        if expansion.grids.g0 != grids.g0 or expansion.grids.layer != grids.layer:
            raise GraphConfigError(
                f"expansion: built on other grids than n_per_edge={n_per_edge}, "
                f"cfl={cfl} give")
    else:
        expansion = build_expansion(spec, p, grids)
    measured = term_residuals(expansion)
    sup_trunc = truncation_leftover(expansion, eps_list)
    refs = [_solve(cache, key) for key in keys]
    triples = _series_errors(expansion, eps_list, refs)
    res_reports: list[ResidualReport] = []
    for eps, triple, trunc in zip(eps_list, triples, sup_trunc):
        rep = ResidualReport(eps, p, *residuals(expansion, eps), trunc)
        _require_finite(eps, triple, rep)
        res_reports.append(rep)

    # nothing below reads the series: unless the caller holds it, its terms
    # and splines are freed before the coarse solve, the sweep's last peak,
    # and the heap's free pages go back to the system
    del expansion
    _trim_heap()
    ref_f = refs[-1]  # eps_min's
    ref_c = _solve(cache, (spec, eps_min, grid_c))
    sub = Field(grid_c, [u[::2, ::2] for u in ref_f.edges], ref_f.sigma[::2])
    refine_est = norms(sub, ref_c).l2 / 3.0
    l2 = tuple(t.l2 for t in triples)
    conclusive = refine_est <= 0.1 * min(l2)

    sup_nu = tuple(r.sup_nu for r in res_reports)
    for name, vals in (("L2 error", l2), ("flux remainder", sup_nu)):
        for eps, v in zip(eps_list, vals):
            if not v > 0:
                raise GraphConfigError(f"{name} at eps={eps:g} is {v:g}, not "
                                       "positive: there is no rate to verify")
    fit = fit_order(eps_list, l2)
    nu_fit = fit_order(eps_list, sup_nu)
    trunc_order = (fit_order(eps_list, sup_trunc).order
                   if all(v > 0 for v in sup_trunc) else math.nan)
    m1 = spec.graph.exponents[1]
    theo = (p + 0.5) * m1
    passed = conclusive and fit.order >= theo - margin
    return ConvergenceReport(p, eps_list, tuple(triples), fit.order,
                             fit.constant, fit.residual, theo, margin,
                             conclusive, refine_est, passed,
                             tuple(res_reports), nu_fit.order, trunc_order,
                             measured)


# -- configuration ----------------------------------------------------------

_TOP_KEYS = {"graph", "q", "f", "phi", "psi", "mu", "T", "epsilons", "p",
             "grid", "margin"}
_GRAPH_KEYS = {"edges", "exponents"}
_EDGE_KEYS = {"length", "subgraph"}
_GRID_KEYS = {"n_per_edge", "cfl"}


@dataclass(frozen=True)
class RunConfig:
    spec: ProblemSpec
    epsilons: tuple[float, ...]
    p: int
    n_per_edge: int
    cfl: float
    margin: float


def load_config(path: str | Path) -> dict:
    """The JSON object in a UTF-8 config file; GraphConfigError if it cannot be read."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise GraphConfigError("config: top level must be an object")
    return cfg


def _reject_unknown(d: dict, allowed: set, path: str) -> None:
    for k in d:
        if k not in allowed:
            raise GraphConfigError(f"{path}{k}: unknown key")


_REQUIRED = object()


def _field(d: dict, key: str, path: str, read, *args, default=_REQUIRED):
    """read(d[key], its path, *args), or default where key is absent; a
    field with no default is required."""
    if key not in d:
        if default is _REQUIRED:
            raise GraphConfigError(f"{path}{key}: missing")
        return default
    return read(d[key], f"{path}{key}", *args)


def _finite(v, name: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise GraphConfigError(f"{name}: expected a number")
    if not abs(v) <= sys.float_info.max:  # nan, +-inf, or an int beyond float
        raise GraphConfigError(f"{name}: expected a finite number")
    return float(v)


def _integer(v, name: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise GraphConfigError(f"{name}: expected an integer")
    _finite(v, name)  # every count and exponent meets floats
    return v


def _exprs(v, name: str, forbid: str | None = None) -> tuple[Expr, ...]:
    if not isinstance(v, list):
        raise GraphConfigError(f"{name}: expected a list of strings")
    out = []
    for i, s in enumerate(v):
        if not isinstance(s, str):
            raise GraphConfigError(f"{name}[{i}]: expected a string")
        try:
            ast = parse(s)
        except ExprSyntaxError as exc:
            raise GraphConfigError(f"{name}[{i}]: {exc}") from exc
        if forbid in ast.free_vars():
            raise GraphConfigError(f"{name}[{i}]: must not depend on {forbid}")
        out.append(ast)
    return tuple(out)


def validate_config(cfg: dict) -> RunConfig:
    """Typed view of a config dict; any violation names the exact field."""
    _reject_unknown(cfg, _TOP_KEYS, "")
    if "graph" not in cfg or not isinstance(cfg["graph"], dict):
        raise GraphConfigError("graph: missing or not an object")
    gd = cfg["graph"]
    _reject_unknown(gd, _GRAPH_KEYS, "graph.")
    if not isinstance(gd.get("edges"), list):
        raise GraphConfigError("graph.edges: expected a list of objects")
    edges = []
    for i, ed in enumerate(gd["edges"]):
        if not isinstance(ed, dict):
            raise GraphConfigError(f"graph.edges[{i}]: expected an object")
        _reject_unknown(ed, _EDGE_KEYS, f"graph.edges[{i}].")
        edges.append(Edge(_field(ed, "length", f"graph.edges[{i}].", _finite),
                          _field(ed, "subgraph", f"graph.edges[{i}].", _integer)))
    if not isinstance(gd.get("exponents"), list):
        raise GraphConfigError("graph.exponents: expected a list of integers")
    expo = [_integer(m, f"graph.exponents[{i}]") for i, m in enumerate(gd["exponents"])]
    graph = StarGraph(tuple(edges), tuple(expo))

    q = _field(cfg, "q", "", _exprs, "t")
    f = _field(cfg, "f", "", _exprs)
    phi = _field(cfg, "phi", "", _exprs, "t")
    psi = _field(cfg, "psi", "", _exprs, "t")
    mu = _field(cfg, "mu", "", _exprs, "x")
    T = _field(cfg, "T", "", _finite)
    spec = ProblemSpec(graph, q, f, phi, psi, mu, T)

    eps_raw = cfg.get("epsilons", [0.4, 0.2, 0.1, 0.05])
    if not isinstance(eps_raw, list):
        raise GraphConfigError("epsilons: expected a list of numbers")
    eps = []
    for i, x in enumerate(eps_raw):
        x = _finite(x, f"epsilons[{i}]")
        if not (0.0 < x < 1.0):
            raise GraphConfigError(f"epsilons[{i}]: must lie in (0,1)")
        eps.append(x)

    p = _field(cfg, "p", "", _integer, default=1)
    if not (0 <= p <= MAX_ORDER):
        raise GraphConfigError(f"p: must be >= 0 and <= {MAX_ORDER}")
    grid_d = cfg.get("grid", {})
    if not isinstance(grid_d, dict):
        raise GraphConfigError("grid: expected an object")
    _reject_unknown(grid_d, _GRID_KEYS, "grid.")
    n_per_edge = _field(grid_d, "n_per_edge", "grid.", _integer, default=640)
    if n_per_edge < 8:
        raise GraphConfigError("grid.n_per_edge: must be >= 8")
    cfl = _field(grid_d, "cfl", "grid.", _finite, default=0.9)
    margin = _field(cfg, "margin", "", _finite, default=0.3)
    if margin < 0:
        raise GraphConfigError("margin: must be >= 0")

    # the degenerate edges' kernels run up to T at the nodes of their u terms
    for e, x in make_expansion_grids(spec, n_per_edge, cfl).u_nodes.items():
        require_in_range(q[e].evaluate(x, 0.0), T, f"q[{e}]")
    # last, the rules at each eps: the sweep's, and its direct grid's
    _require_sweep_epsilons(spec, tuple(eps))
    for x in eps:
        make_direct_grid(spec, x, n_per_edge, cfl)
    return RunConfig(spec, tuple(eps), p, n_per_edge, cfl, margin)


# -- CSV writers -------------------------------------------------------------

def _write_rows(path: str | Path, header: str, rows) -> None:
    """The header, then one comma-separated line per row: a str as it is,
    any number as %.17g."""
    lines = [header] + [",".join(v if isinstance(v, str) else format(float(v), ".17g")
                                 for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_report_csv(path: str | Path, rep: ConvergenceReport) -> None:
    flag = "true" if rep.passed else "false"
    _write_rows(path, "epsilon,err_linf,err_l2,err_h1x,fitted_order,theoretical_order,pass",
                ((eps, t.linf, t.l2, t.h1x, rep.fitted_order, rep.theoretical_order, flag)
                 for eps, t in zip(rep.epsilons, rep.errors)))


def write_residuals_csv(path: str | Path, reports: tuple[ResidualReport, ...]) -> None:
    _write_rows(path, "epsilon,sup_trunc,sup_nu,nu_floor",
                ((r.eps, r.sup_trunc, r.sup_nu, r.nu_floor) for r in reports))


def write_term_residuals_csv(path: str | Path,
                             measured: tuple[TermResidual, ...]) -> None:
    """One row per term: its build_log key, residual and sup |term|."""
    _write_rows(path, "family,k,i,residual,scale",
                ((*map(str, r.key), r.residual, r.scale) for r in measured))


def write_grid_csv(path: str | Path, header: str, x: np.ndarray,
                   t: np.ndarray, u: np.ndarray) -> None:
    """One row per node, x-major: ``x,t,u[i, j]``, every number as %.17g.

    The bytes are those of np.savetxt(fmt="%.17g", delimiter=",") on the
    stacked columns.  Each t is formatted once into a row template whose
    value slots are filled by one %-operation per x row, and once into a
    template with the value 0: a row's leading run of +0.0 values (a
    layer ahead of its front) is written from those, without formatting.
    The run is found from the sign bits too, so a -0.0 still prints -0.
    u must be (len(x), len(t)): a banded term is zero-padded by the caller.
    """
    if u.shape != (len(x), len(t)):
        raise ValueError(f"values of shape {u.shape} do not match "
                         f"{len(x)} x nodes and {len(t)} times")
    stamps = ["%.17g," % v for v in t.tolist()]
    cells = [s + "%.17g\n" for s in stamps]
    zeros = [s + "0\n" for s in stamps]
    nonzero = (u != 0.0) | np.signbit(u)
    lead = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), len(t)).tolist()
    del nonzero
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for xv, row, k in zip(x.tolist(), u.tolist(), lead):
            xs = "%.17g," % xv
            head = xs + xs.join(zeros[:k]) if k else ""
            if k < len(t):
                head += (xs + xs.join(cells[k:])) % tuple(row[k:])
            fh.write(head)


def write_field_csvs(outdir: str | Path, fld: Field) -> list[Path]:
    outdir = Path(outdir)
    paths = []
    times = fld.grid.times()
    for e in range(len(fld.grid.lengths)):
        path = outdir / f"field_{e}.csv"
        write_grid_csv(path, "tau,t,u", fld.grid.x_nodes(e), times, fld.edges[e])
        paths.append(path)
    return paths


def write_trace_csv(path: str | Path, times: np.ndarray, sigma: np.ndarray) -> None:
    _write_rows(path, "t,sigma", zip(times, sigma))


def write_plot_csv(path: str | Path, rep: ConvergenceReport) -> None:
    c10 = math.log10(rep.fit_constant)
    _write_rows(path, "log10_eps,log10_err_l2,fitted_log10_err_l2",
                ((math.log10(eps), math.log10(t.l2), c10 + rep.fitted_order * math.log10(eps))
                 for eps, t in zip(rep.epsilons, rep.errors)))
