"""Quarter-plane solvers for the boundary layer hierarchies.

Layers live in fast coordinates where the wave speed is 1.  The grid puts
the leapfrog exactly on characteristics (spatial step equals dt), which
buys two exact properties: the zero-order-free scheme reproduces
d'Alembert solutions to roundoff, and the numerical support never runs
ahead of the physical front, so values stay identically zero for xi > t.

The same support bounds the work and the storage: the march is time-major
and each step updates only the nodes that can be nonzero yet, and a layer
is a grid.Term that keeps only the xi-nodes out to its widest reach plus
BAND_PAD (see qp_solve).  Zero-padded to the grid, that is the full-width
march to the bit.

Both layer families use this module; the family attached to the far
vertices is solved in the folded coordinate xi = -z >= 0, with the odd
powers of the Taylor sources sign-flipped by the caller.

sample_physical is the one sampler of every series term on an edge: a
layer in its fast coordinate, and a U or u term, with m = 0, in its own.
It does the per-term work once and hands back a column evaluator, so a
caller that walks the time axis slab by slab pays only the products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import GraphConfigError
from .grid import BAND_PAD, LAYER_MARGIN, LayerGrid, Term
from .kernels import dt_kernel, phi_entire

__all__ = [
    "QuarterPlaneProblem",
    "qp_solve",
    "qp_oracle_below_characteristic",
    "sample_physical",
]

TRACE_START_TOL = 1e-6


@dataclass(frozen=True)
class QuarterPlaneProblem:
    """One layer problem: d^2_t v - d^2_xi v + theta v = sources, trace g.

    sources collects (coefficient, power, lower-order layer) triples and is
    evaluated as sum_r c_r xi^r rho_r(xi, t) on the shared grid.  g is the
    Dirichlet trace at xi = 0, sampled on the time grid; all layers start
    from rest.
    """

    theta: float
    trace: np.ndarray | None
    sources: tuple[tuple[float, int, Term], ...] = ()
    label: str = ""


def _source_matrix(prob: QuarterPlaneProblem, grid: LayerGrid) -> np.ndarray | None:
    """sum_r c_r xi^r rho_r, time-major: shape (steps + 1, rows), where rows
    is the widest source's; the sum is zero past it."""
    xi, times = grid.xi_nodes(), grid.times()
    terms = []
    for c, r, rho in prob.sources:
        if not (np.array_equal(rho.x_nodes, xi) and np.array_equal(rho.times, times)):
            raise GraphConfigError("source layers must share the target grid")
        if r < 1:
            raise GraphConfigError("Taylor source powers start at 1")
        if c != 0.0 and not rho.is_zero:
            terms.append((c, r, rho.values))
    if not terms:
        return None
    S = np.zeros((len(times), max(len(v) for _, _, v in terms)))
    for c, r, v in terms:
        S[:, :len(v)] += (c * xi[:len(v)] ** r) * v.T
    return S if S.any() else None


def _last_nonzero(rows: np.ndarray) -> np.ndarray:
    """Index of the last nonzero entry of each row, 0 for an all-zero row."""
    nz = rows != 0.0
    last = rows.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1)
    return np.where(nz.any(axis=1), last, 0)


def qp_solve(prob: QuarterPlaneProblem, grid: LayerGrid,
             initial: tuple[np.ndarray, np.ndarray] | None = None) -> Term:
    """Leapfrog at unit Courant number with Dirichlet trace at xi = 0.

    The far boundary carries homogeneous Dirichlet data; the true solution
    vanishes there because the grid is built with L >= T + margin, so the
    condition is exact rather than artificial.  The nonnegative part of
    theta is integrated by time averaging, which keeps the scheme stable
    without shrinking the step; a negative part stays explicit (growth is
    then physical).

    The march runs time-major, in an array whose rows are time levels, so
    every step reads and writes contiguous memory.  A step updates only the
    nodes 1..reach.  reach starts at the last nonzero node of the two start
    levels and grows by at least one node per step, and to the last nonzero
    node of the step's source; it never shrinks.  Every node past it has zero
    neighbours and zero source, so the full update would write +0.0 there,
    which the array already holds.  The reaches are worked out before the
    march, and the array stores only the nodes 0..band, band = widest reach
    + 1 + BAND_PAD (at most n_xi): zero-padded to the grid, the result is the
    full-width march to the bit.  values is the transposed view,
    (band + 1, steps + 1) like every other layer array.

    initial is a test-only mode: rows (v(., 0), v_t(., 0)) for comparison
    against the integral-representation oracle.
    """
    if grid.L + 1e-9 < grid.steps * grid.dt + LAYER_MARGIN:
        raise GraphConfigError("layer grid too short: support could reach the far end")
    n, M = grid.n_xi, grid.steps
    dt = grid.dt
    g = prob.trace
    if g is not None:
        g = np.asarray(g, dtype=float)
        if g.shape != (M + 1,):
            raise GraphConfigError("trace must be sampled on the layer time grid")
        if abs(g[0]) > TRACE_START_TOL:
            raise GraphConfigError(
                f"layer trace {prob.label or '?'} does not vanish at t=0: {g[0]:.3e}")
    S = _source_matrix(prob, grid)
    s0 = np.zeros(n + 1)
    if S is not None:
        s0[:S.shape[1]] = S[0]

    th_p = max(prob.theta, 0.0)
    th_m = min(prob.theta, 0.0)
    a = 0.5 * dt * dt * th_p

    start = np.zeros((2, n + 1))
    if initial is not None:
        alpha, beta = (np.asarray(r, dtype=float) for r in initial)
        start[0] = alpha
        lap = np.zeros_like(alpha)
        lap[1:-1] = (alpha[2:] - 2.0 * alpha[1:-1] + alpha[:-2]) / (dt * dt)
        start[1, 1:-1] = (alpha + dt * beta + 0.5 * dt * dt * (
            lap - prob.theta * alpha + s0))[1:-1]
    elif S is not None:
        start[1, 1:-1] = 0.5 * dt * dt * s0[1:-1]
    if g is not None:
        start[:, 0] = g[:2]

    reach = [int(_last_nonzero(start).max())]
    src_reach = _last_nonzero(S).tolist() if S is not None else [0] * (M + 1)
    for m in range(1, M):
        reach.append(min(max(reach[-1] + 1, src_reach[m]), n - 1))
    band = min(n, max(reach) + 1 + BAND_PAD)
    W = np.zeros((M + 1, band + 1))
    W[:2] = start[:, :band + 1]
    if S is not None and S.shape[1] < band + 1:
        # the march can outrun a source's stored band, where it reads zero
        S = np.pad(S, ((0, 0), (0, band + 1 - S.shape[1])))

    # the update W[m + 1] = (((W[m, 2:] + W[m, :-2]) - (1 + a) W[m - 1])
    # - dt^2 th_m W[m] + dt^2 S[m]) / (1 + a), in that order, written
    # straight into its row; z is the one work row
    c, dt2, d = 1.0 + a, dt * dt, dt * dt * th_m
    z = np.empty(band)
    for m in range(1, M):
        k = reach[m] + 1
        out, w = W[m + 1, 1:k], z[:k - 1]
        np.add(W[m, 2:k + 1], W[m, :k - 1], out=out)
        np.multiply(W[m - 1, 1:k], c, out=w)
        np.subtract(out, w, out=out)
        np.multiply(W[m, 1:k], d, out=w)
        np.subtract(out, w, out=out)
        if S is not None:
            np.multiply(S[m, 1:k], dt2, out=w)
            np.add(out, w, out=out)
        np.divide(out, c, out=out)
        if g is not None:
            W[m + 1, 0] = g[m + 1]
    return Term(W.T, grid.xi_nodes(), grid.times(), prob.label)


def qp_oracle_below_characteristic(theta: float, alpha: Callable[[float], float],
                                   beta: Callable[[float], float],
                                   s: float, t: float, tol: float = 1e-10) -> float:
    """Closed-form solution value strictly below the leading characteristic.

    Valid for s - t > 0, where the trace at xi = 0 has no influence and
    v(s,t) = (alpha(s+t) + alpha(s-t))/2
            + 1/2 int_{s-t}^{s+t} (k beta + d_t k alpha) dy.
    The tabulated kernel is written for the opposite sign convention of the
    zero-order term, so it is evaluated at -theta here.
    """
    if s - t <= 0:
        raise ValueError(f"representation requires s - t > 0, got s={s}, t={t}")
    half = 0.5 * (alpha(s + t) + alpha(s - t))
    if t == 0:
        return half

    def integrand(y: float) -> float:
        k = phi_entire(-theta * ((s - y) ** 2 - t * t))
        dk = dt_kernel(-theta, t, s, y)
        return k * beta(y) + dk * alpha(y)

    val, _ = quad(integrand, s - t, s + t, epsabs=tol, epsrel=tol, limit=200)
    return half + 0.5 * val


def sample_physical(term: Term, eps: float, m: int, edge_length: float,
                    taus: np.ndarray, times: np.ndarray, folded: bool = False
                    ) -> tuple[slice, Callable[[slice], np.ndarray]]:
    """A term's values at (taus[rows], times[cols]) on an edge of exponent m.

    The coordinate is eps^-m tau, or eps^-m (edge_length - tau) for folded
    (far-vertex) layers; m = 0 samples a U or u term in its own.  taus must
    be ascending, so the points within the stored rows are a prefix of
    them, or a suffix when folded: rows is that slice, and the term is zero
    at every other tau.  A coordinate below 0 (a tau off the edge on the
    term's side) or a time outside the term's [0, T] raises ValueError,
    beyond a roundoff tolerance.

    The checks, the rows and the spline's x basis are worked out here, once;
    the returned columns(cols) is then one product per slice cols of times,
    and columns(slice(None)) is every time.
    """
    taus = np.asarray(taus, dtype=float)
    times = np.asarray(times, dtype=float)
    if np.any(taus[1:] < taus[:-1]):
        raise ValueError("taus must be ascending")
    xi = (edge_length - taus if folded else taus) / eps ** m
    dt, T = term.times[1], term.times[-1]
    tol = 1e-9 * dt
    if not np.all(xi >= -tol):
        raise ValueError(f"taus off the edge: coordinate down to {np.min(xi):.6g}")
    if not np.all((times >= -tol) & (times <= T + tol)):
        raise ValueError(f"times must lie in [0, {T:.6g}], "
                         f"got [{np.min(times):.6g}, {np.max(times):.6g}]")
    k = int(np.count_nonzero(xi <= term.x_nodes[len(term.values) - 1]))
    rows = slice(len(taus) - k, len(taus)) if folded else slice(0, k)
    at = term.interp.at(xi[rows])
    return rows, lambda cols: at(times[cols])
