"""Recursion orchestration and assembly of the truncated series.

Terms are produced in increasing eps-power phases.  Within one phase the
unit-speed corrections are built before the center layers, because the
layer traces read the corrections' vertex values; the whole order is
recorded in a build log and replayed by an assertion pass.  One recorder
stores every term under its build log key and refuses it there if it is
not finite; one layer builder makes every vertex and boundary layer.

Center layers are indexed by the eps power P they carry rather than by the
per-subgraph step index.  For a single degenerate subgraph the two
indexings coincide.  With several subgraphs the unit-speed side contains
correction powers that are not multiples of every subgraph's exponent; a
power-indexed layer with the matching trace is built on each degenerate
edge for every such power, so the assembled sum stays continuous at the
central vertex to roundoff instead of only asymptotically.  Traces sum the
corrections truncated at the requested order, for the same reason.

Every term is a grid.Term, and each edge's series is one list of them
(ExpansionSet.series): assembly samples each with layers.sample_physical,
and the flux remainder takes each one's Term.flux.

This module builds the series and samples it: partial_sum_columns at any
run of an evaluation grid's time columns, residuals at the vertex.
harness measures the sum against a direct solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .direct import Field
from .errors import ExpansionOrderError, GraphConfigError, NonFiniteError
from .expr import Const, Expr
from .graph import ProblemSpec, require_compatibility_C1, restrict_to_g0
from .grid import ExpansionGrids, Grid, Term
from .layers import QuarterPlaneProblem, qp_solve, sample_physical
from .limit import solve_cauchy_recursive, solve_degenerate_edge, solve_g0

__all__ = [
    "lambda_set",
    "ExpansionSet",
    "build_expansion",
    "partial_sum_columns",
    "assemble_partial_sum",
    "residuals",
    "verify_schedule",
]

MAX_ORDER = 4
# the ExpansionSet field that stores each build_log family, U_0 aside (g0_base)
_STORE = {"U": "g0_corr", "u": "edge_terms", "v": "vertex_layers", "w": "boundary_layers"}


def lambda_set(m: tuple[int, ...], p: int) -> tuple[tuple[int, int], ...]:
    """Pairs (n, i) with n * m_i = p for the exponent list m_1..m_k, ordered by i."""
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    return tuple((p // mi, i) for i, mi in enumerate(m, start=1) if p % mi == 0)


@dataclass
class ExpansionSet:
    """Every term of one build, write-once, indexed by family and key."""

    spec: ProblemSpec
    order: int
    grids: ExpansionGrids
    g0_base: Field
    g0_corr: dict[tuple[int, int], Field]
    edge_terms: dict[tuple[int, int], Term]
    vertex_layers: dict[tuple[int, int], Term]
    boundary_layers: dict[tuple[int, int], Term]
    powers: tuple[int, ...]
    build_log: tuple[tuple, ...]
    # each layer's problem, keyed by its build_log key
    layer_problems: dict[tuple, QuarterPlaneProblem]

    def term(self, key: tuple) -> Field | Term:
        """The term a build_log key names: a Field for U, else a Term."""
        if key == ("U", 0, 0):
            return self.g0_base
        return getattr(self, _STORE[key[0]])[key[1:]]

    @cached_property
    def series(self) -> dict[int, list[tuple[int, int, bool, Term]]]:
        """Each edge's nonzero terms (P, k, folded, term), in summation order.

        A term carries eps^P and is sampled in x / eps^k, or (L - x) / eps^k
        when folded: k = 0 for U and u terms, the edge's m for layers.
        Unit-speed edges come first with U_0, then the corrections by key;
        degenerate edges list u_s, then v_P by P, then w_s.
        """
        g = self.spec.graph
        t, s_range = self.grids.times, range(self.order + 1)
        out: dict[int, list[tuple[int, int, bool, Term]]] = {}
        for loc, e in enumerate(self.grids.g0_edge_ids):
            x = self.grids.g0.x_nodes(loc)
            out[e] = [(r * g.exponents[l], 0, False, Term(fld.edges[loc], x, t))
                      for (r, l), fld in [((0, 0), self.g0_base), *sorted(self.g0_corr.items())]]
        for e in g.gstar_edges():
            m = g.m(e)
            out[e] = ([(s * m, 0, False, self.edge_terms[(s, e)]) for s in s_range]
                      + [(P, m, False, v) for (P, ee), v in sorted(self.vertex_layers.items())
                         if ee == e]
                      + [(s * m, m, True, self.boundary_layers[(s, e)]) for s in s_range])
        return {e: [tm for tm in terms if not tm[3].is_zero] for e, terms in out.items()}


def verify_schedule(log: tuple[tuple, ...]) -> None:
    """Replay a build log; every dependency must precede its consumer."""
    seen: set = set()
    for key, deps in log:
        for d in deps:
            if d not in seen:
                raise RuntimeError(f"schedule violation: {key} consumed unbuilt {d}")
        if key in seen:
            raise RuntimeError(f"schedule violation: {key} built twice")
        seen.add(key)


def _taylor_sources(q: Expr, x0: float, lower: list, folded: bool
                    ) -> tuple[tuple, list[tuple]]:
    """Layer sources from the Taylor series of q around the vertex x0.

    lower[r - 1] is the layer r steps down the chain as (build_log key,
    Term), or None where none was built.  Returns the sources
    (c_r, r, layer) with c_r = -(+-1)^r q^(r)(x0) / r!, the sign being -1
    on the folded family, and the dep keys of the layers used.
    """
    sign = -1.0 if folded else 1.0
    sources: list[tuple] = []
    deps: list[tuple] = []
    dq = q
    fac = 1.0
    for r, low in enumerate(lower, start=1):
        dq = dq.diff("x")
        d = dq.evaluate(x0, 0.0)
        fac *= r
        if low is not None:
            sources.append((-(sign ** r) * d / fac, r, low[1]))
            deps.append(low[0])
    return tuple(sources), deps


def _zero_g0_spec(spec_g0: ProblemSpec) -> ProblemSpec:
    z = Const(0.0)
    n = spec_g0.graph.n_edges
    return ProblemSpec(spec_g0.graph, spec_g0.q, (z,) * n, (z,) * n, (z,) * n,
                       (z,) * n, spec_g0.T)


def build_expansion(spec: ProblemSpec, p: int, grids: ExpansionGrids) -> ExpansionSet:
    """Compute all terms up to order p in dependency order.

    Raises when C1 compatibility fails or p exceeds the practical bound
    (grid differentiation error compounds through the edge recursion),
    and NonFiniteError naming the first term that holds a nan or inf, as
    soon as it is made: no later term is built on it.
    """
    if not (0 <= p <= MAX_ORDER):
        raise ExpansionOrderError(f"order must lie in 0..{MAX_ORDER}, got {p}")
    require_compatibility_C1(spec)

    g = spec.graph
    mlist = g.exponents[1:]
    times = grids.times
    stores: dict[str, dict] = {family: {} for family in _STORE}
    U, u, v = stores["U"], stores["u"], stores["v"]
    log: list[tuple] = []
    problems: dict[tuple, QuarterPlaneProblem] = {}

    def record(key: tuple, deps: list, term: Field | Term) -> None:
        """Store a term under its build_log key and log it; stop at a non-finite one."""
        # min and max propagate a nan and reach an inf, with no array-sized temporary
        if not all(np.isfinite(a.min()) and np.isfinite(a.max())
                   for a in (term.edges if isinstance(term, Field) else [term.values])):
            raise NonFiniteError(f"term {key} is not finite")
        stores[key[0]][key[1:]] = term
        log.append((key, tuple(deps)))

    def layer(key: tuple, x0: float, trace: np.ndarray, lower: list, deps: list) -> None:
        """Solve and record the layer key at x0 on its edge: a vertex layer
        (v) at 0, or a boundary layer (w, folded) at the far end.  lower
        holds the keys 1, 2, ... steps down its chain, built or not."""
        family, k, e = key
        built = stores[family]
        sources, sdeps = _taylor_sources(
            spec.q[e], x0, [(d, built[d[1:]]) if d[1:] in built else None for d in lower],
            folded=family == "w")
        prob = QuarterPlaneProblem(spec.q[e].evaluate(x0, 0.0), trace, sources,
                                   f"{family}[{'P' if family == 'v' else 's'}={k},e={e}]")
        problems[key] = prob
        record(key, deps + sdeps, qp_solve(prob, grids.layer))

    spec_g0 = restrict_to_g0(spec)
    record(("U", 0, 0), [], solve_g0(spec_g0, grids.g0))
    corr_spec = _zero_g0_spec(spec_g0)

    for e in g.gstar_edges():
        u0 = solve_degenerate_edge(spec.q[e], spec.f[e], spec.phi[e], spec.psi[e],
                                   grids.u_nodes[e], times)
        record(("u", 0, e), [], u0)
        for s in range(1, p + 1):
            record(("u", s, e), [("u", s - 2, e)] if s >= 2 else [],
                   Term(np.zeros(u0.values.shape), u0.x_nodes, times) if s % 2
                   else solve_cauchy_recursive(spec.q[e], u[(s - 2, e)]))

    p_plus = tuple(sorted({r * mi for r in range(1, p + 1) for mi in mlist}))

    def vertex_layer(P: int, e: int) -> None:
        m = g.m(e)
        if P == 0:
            trace = U[(0, 0)].sigma - u[(0, e)].values[0, :]
            deps = [("U", 0, 0), ("u", 0, e)]
        else:
            trace, deps = np.zeros(len(times)), []
            for r, l in lambda_set(mlist, P):
                if r <= p:
                    trace = trace + U[(r, l)].sigma
                    deps.append(("U", r, l))
            if P % m == 0 and P // m <= p:
                trace = trace - u[(P // m, e)].values[0, :]
                deps.append(("u", P // m, e))
        layer(("v", P, e), 0.0, trace, [("v", P - r * m, e) for r in range(1, P // m + 1)],
              deps)

    for e in g.gstar_edges():
        vertex_layer(0, e)

    for P in p_plus:
        for r, l in lambda_set(mlist, P):
            if r > p:
                continue
            nu = np.zeros(len(times))
            deps = []
            for e in g.edges_in(l):
                if r >= 2:
                    nu -= u[(r - 2, e)].flux()
                    deps.append(("u", r - 2, e))
                nu -= v[((r - 1) * mlist[l - 1], e)].flux()
                deps.append(("v", (r - 1) * mlist[l - 1], e))
            record(("U", r, l), deps, solve_g0(corr_spec, grids.g0, nu))
        for e in g.gstar_edges():
            vertex_layer(P, e)

    for e in g.gstar_edges():
        for s in range(0, p + 1):
            if s == 0:
                trace = spec.mu[e].evaluate(0.0, times) - u[(0, e)].values[-1, :]
            else:
                trace = -u[(s, e)].values[-1, :]
            layer(("w", s, e), g.edges[e].length, trace,
                  [("w", s - r, e) for r in range(1, s + 1)], [("u", s, e)])

    verify_schedule(tuple(log))
    U0 = U.pop((0, 0))
    return ExpansionSet(spec, p, grids, U0, powers=p_plus, build_log=tuple(log),
                        layer_problems=problems,
                        **{_STORE[family]: store for family, store in stores.items()})


def partial_sum_columns(es: ExpansionSet, eps: float, grid: Grid
                        ) -> list[Callable[[slice], np.ndarray]]:
    """The truncated series on an evaluation grid, one function per edge.

    columns(cols) is edge e's partial sum at (grid.x_nodes(e),
    grid.times()[cols]).  Each term is sampled once here (sample_physical
    does its checks, rows and x basis) and a call only adds the terms'
    column products, every term on the rows it reaches; the spline
    interpolates in x, and in t only when grid.times() is not the
    expansion's time array.  The sum is written into one buffer that the
    next call of the same columns function reuses, so a caller walking
    the slabs allocates no slab-sized sum.
    """
    spec = es.spec
    g = spec.graph
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    if len(grid.lengths) != g.n_edges:
        raise GraphConfigError("evaluation grid does not match the graph")
    for e in g.gstar_edges():
        m = g.m(e)
        if grid.h(e) > eps ** m / 8.0 * (1.0 + 1e-12):
            raise GraphConfigError(
                f"grid too coarse on edge {e}: h={grid.h(e):.3e} > eps^{m}/8")
        if g.edges[e].length / eps ** m <= spec.T:
            raise GraphConfigError(
                f"eps={eps} too large: layers overlap across edge {e}")
    t_eval = grid.times()
    return [_edge_columns(es, eps, e, grid.x_nodes(e), t_eval)
            for e in range(g.n_edges)]


def _edge_columns(es: ExpansionSet, eps: float, e: int, x: np.ndarray,
                  t_eval: np.ndarray) -> Callable[[slice], np.ndarray]:
    L = es.spec.graph.edges[e].length
    parts = [(*sample_physical(term, eps, k, L, x, t_eval, folded), eps ** P)
             for P, k, folded, term in es.series[e]]

    buf = np.empty((len(x), 0))

    def columns(cols: slice) -> np.ndarray:
        nonlocal buf
        n = len(t_eval[cols])
        if buf.shape[1] < n:
            buf = np.empty((len(x), n))
        V = buf[:, :n]
        V.fill(0.0)
        for rows, at, scale in parts:
            vals = at(cols)
            vals *= scale
            V[rows] += vals
        return V
    return columns


def assemble_partial_sum(es: ExpansionSet, eps: float, grid: Grid) -> Field:
    """The truncated series on an evaluation grid as a whole Field.

    Every edge is partial_sum_columns at all of its time columns.  The
    vertex trace and the Dirichlet rows agree with the per-edge values at
    grid nodes to roundoff by construction; this is a node contract, not a
    continuum one.
    """
    every = slice(None)
    edges = [columns(every) for columns in partial_sum_columns(es, eps, grid)]
    vertex = _edge_columns(es, eps, es.grids.g0_edge_ids[0], np.array([0.0]), grid.times())
    return Field(grid, edges, vertex(every)[0])


def residuals(es: ExpansionSet, eps: float) -> tuple[np.ndarray, float, float]:
    """Defect of the truncated series in the vertex flux balance.

    Returns the remainder at every time of the expansion, its sup, and the
    sup of its change under a stride-2 stencil over 3, the measurement's
    floor.  It is measured semi-analytically: each stored term contributes
    through a one-sided stencil on its own grid, weighted by its eps power,
    so the floor is set by the term solvers and not by an extra
    interpolation step.
    """
    g = es.spec.graph

    def flux_sum(stride: int) -> np.ndarray:
        # eps^(2m) d_x on edge e, and d_x = eps^-k d_xi for a term sampled
        # in x / eps^k; folded layers sit at the far vertex
        nu = np.zeros(len(es.grids.times))
        for e, terms in es.series.items():
            m = g.m(e)
            for P, k, folded, term in terms:
                if not folded:
                    nu = nu + eps ** (2 * m - k) * eps ** P * term.flux(stride)
        return nu

    nu = flux_sum(1)
    sup_nu = float(np.max(np.abs(nu)))
    nu_floor = float(np.max(np.abs(flux_sum(2) - nu))) / 3.0
    return nu, sup_nu, nu_floor
