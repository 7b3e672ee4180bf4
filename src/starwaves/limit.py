"""Solvers for the eps-independent subproblems.

Two families: the hyperbolic problem on the unit-speed subgraph with an
optional Kirchhoff source (shared marcher with the reference solver), and
the per-edge ODE hierarchy on the degenerate edges, solved in closed form
through the extended trigonometric kernels plus a Simpson convolution.
Each term of the hierarchy is a grid.Term on the edge's nodes.

The convolution is an ODE in t at each x separately, so its x rows run in
one contiguous block per usable CPU, at the same time and bit for bit the
one-block loop (see _convolve_sn).
"""

from __future__ import annotations

import os

import numpy as np

from .direct import Field, _march
from .errors import CompatibilityError
from .expr import Expr
from .graph import ProblemSpec
from .grid import Grid, SlabBlocks, Term, check_cfl
from .kernels import cs, sn

__all__ = [
    "solve_g0",
    "solve_degenerate_edge",
    "solve_cauchy_recursive",
    "simpson_weights",
]

KIRCHHOFF_C1_TOL = 1e-6


def solve_g0(spec: ProblemSpec, grid: Grid, nu: np.ndarray | None = None) -> Field:
    """March the unit-speed subgraph; the vertex equation carries nu.

    spec must already be restricted to that subgraph (see restrict_to_g0).
    nu is the Kirchhoff right-hand side sampled on the time grid; None
    means the homogeneous condition, the same code path as direct_solve at
    b = 1, producing machine-identical values.
    """
    slopes = sum(spec.phi[e].diff("x").evaluate(0.0, 0.0) for e in range(spec.graph.n_edges))
    nu0 = 0.0 if nu is None else float(nu[0])
    if abs(slopes - nu0) > KIRCHHOFF_C1_TOL:
        raise CompatibilityError(
            f"slope sum {slopes:.3e} does not match nu(0)={nu0:.3e}")
    check_cfl(spec, 0.5, grid)  # eps is irrelevant at b = 1
    return _march(spec, grid, np.ones(spec.graph.n_edges), nu)


def simpson_weights(n: int, dt: float) -> np.ndarray:
    """Quadrature weights for int_0^{t_n} on nodes 0..n.

    Composite Simpson for even n; for odd n >= 3 the last three intervals
    use the 3/8 rule; n = 1 falls back to the trapezoid.  n = 0 gives an
    empty integral.
    """
    if n < 0:
        raise ValueError("negative interval count")
    w = np.zeros(n + 1)
    if n == 0:
        return w
    if n == 1:
        w[:2] = 0.5 * dt
        return w
    m = n if n % 2 == 0 else n - 3
    if m > 0:
        w[0] += dt / 3.0
        w[m] += dt / 3.0
        w[1:m:2] += 4.0 * dt / 3.0
        w[2:m:2] += 2.0 * dt / 3.0
    if n % 2:
        w[m:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * dt / 8.0)
    return w


def _convolve_rows(src: np.ndarray, SN: np.ndarray, dt: float,
                   out: np.ndarray, rows: slice) -> None:
    """_convolve_sn on one block of rows, written into out[rows]."""
    src, SN = src[rows], SN[rows]
    for n in range(1, src.shape[1]):
        w = simpson_weights(n, dt)
        out[rows, n] = np.einsum("xj,xj,j->x", src[:, :n + 1], SN[:, n::-1], w)


def _convolve_sn(src: np.ndarray, SN: np.ndarray, dt: float) -> np.ndarray:
    """out[:, n] = int_0^{t_n} src(x, tau) sn(q(x), t_n - tau) dtau.

    src and SN share the (x, time) grid; uniform steps let SN be reused as
    SN[:, n - j] with no interpolation.

    Each row is an ODE in t of its own, so the rows are cut into one
    contiguous block per usable CPU (counted at each call).  The calling
    thread runs the first block and a pool made for the call the rest; the
    einsum releases the GIL, so the blocks run at the same time.  Each
    row's sum runs over j in the serial order, so the values are bit for
    bit the one-block loop's.  No thread outlives the call, and an error in
    any block is raised here.
    """
    # imported here, where the pool runs: importing the package does not
    # load concurrent.futures and the logging it pulls in
    from concurrent.futures import ThreadPoolExecutor

    nx, nt = src.shape
    out = np.zeros((nx, nt))
    # the CPUs this process may use, where the OS says (Linux); else all
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    k = max(1, min(nx, cpus))
    blocks = [slice(nx * i // k, nx * (i + 1) // k) for i in range(k)]
    with ThreadPoolExecutor(max_workers=max(1, k - 1)) as pool:  # idle at k = 1
        rest = [pool.submit(_convolve_rows, src, SN, dt, out, b) for b in blocks[1:]]
        _convolve_rows(src, SN, dt, out, blocks[0])
        for fut in rest:
            fut.result()
    return out


def solve_degenerate_edge(q: Expr, f: Expr, phi: Expr, psi: Expr,
                          x_nodes: np.ndarray, times: np.ndarray) -> Term:
    """Leading term on a degenerate edge, pointwise in x.

    u0 = phi cs(q, t) + psi sn(q, t) + int_0^t f(x, tau) sn(q, t - tau) dtau.
    """
    dt = float(times[1] - times[0])
    Q = q.evaluate(x_nodes, 0.0)[:, None]
    tt = np.asarray(times, dtype=float)[None, :]
    SN = sn(Q, tt)
    vals = (phi.evaluate(x_nodes, 0.0)[:, None] * cs(Q, tt)
            + psi.evaluate(x_nodes, 0.0)[:, None] * SN)
    F = f.evaluate(x_nodes[:, None], times[None, :])
    if F.any():
        vals = vals + _convolve_sn(F, SN, dt)
    return Term(vals, x_nodes, times)


def _dxx(values: np.ndarray, h: float) -> np.ndarray:
    """Second x-derivative: centered inside, fourth-order one-sided ends."""
    if values.shape[0] < 6:
        raise ValueError("need at least 6 spatial nodes for the end stencils")
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (h * h)
    c = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / (12.0 * h * h)
    out[0] = np.tensordot(c, values[:6], axes=1)
    out[-1] = np.tensordot(c, values[:-7:-1], axes=1)
    return out


def solve_cauchy_recursive(q: Expr, prev: Term) -> Term:
    """Term two orders above prev, from the source d^2_x prev.

    A zero prev gives a zero term without computation, which stores no
    rows.  Odd orders are identically zero, and the caller makes them so,
    without a call.
    """
    if prev.is_zero:
        return Term(SlabBlocks.zeros(prev.values.shape), prev.x_nodes, prev.times)
    dt = float(prev.times[1] - prev.times[0])
    h = float(prev.x_nodes[1] - prev.x_nodes[0])
    Q = q.evaluate(prev.x_nodes, 0.0)[:, None]
    SN = sn(Q, prev.times[None, :])
    src = _dxx(prev.values, h)
    return Term(_convolve_sn(src, SN, dt), prev.x_nodes, prev.times)
