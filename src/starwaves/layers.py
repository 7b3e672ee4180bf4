"""Quarter-plane solvers for the boundary layer hierarchies.

Layers live in fast coordinates where the wave speed is 1.  The grid puts
the leapfrog exactly on characteristics (spatial step equals dt), which
buys two exact properties: the zero-order-free scheme reproduces
d'Alembert solutions to roundoff, and the numerical support never runs
ahead of the physical front, so values stay identically zero for xi > t.

The same support bounds the work and the storage: the march is time-major
and each step updates only the nodes that can be nonzero yet.  It runs one
time slab at a time, with the sources summed a slab at a time
(source_slabs), and cuts each slab's block as soon as the slab is marched
(see qp_solve): nothing band-wide is ever allocated.  A layer is a
grid.Term whose values are grid.SlabBlocks, each block down to the last
row nonzero in its slab, so about half of its band rectangle, which runs
out to the widest reach plus BAND_PAD.  Zero-padded to the grid, that is
the full-width march to the bit.

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
from typing import Callable, Iterator

import numpy as np

from .errors import GraphConfigError
from .grid import (BAND_PAD, LAYER_MARGIN, TIME_SLAB, LayerGrid, SlabBlocks, Term,
                   cut_block, slabs, time_slabs)

__all__ = [
    "QuarterPlaneProblem",
    "qp_solve",
    "sample_physical",
    "source_slabs",
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
    trace: np.ndarray
    sources: tuple[tuple[float, int, Term], ...] = ()
    label: str = ""


def source_slabs(prob: QuarterPlaneProblem, grid: LayerGrid) -> Iterator[np.ndarray] | None:
    """sum_r c_r xi^r rho_r, one time slab (time_slabs) at a time.

    Each slab's sum is time-major, (slab width, rows): rows is the tallest
    block the sources store in that slab, and the sum is zero past it.
    None when no source term is nonzero; the sums may still all be zero.
    The sources are checked here, the sums made as they are read.
    """
    xi, times = grid.xi_nodes(), grid.times()
    terms = []
    for c, r, rho in prob.sources:
        if not (np.array_equal(rho.x_nodes, xi) and np.array_equal(rho.times, times)):
            raise GraphConfigError("source layers must share the target grid")
        if r < 1:
            raise GraphConfigError("Taylor source powers start at 1")
        if c != 0.0 and not rho.is_zero:
            terms.append((c * xi[:rho.values.shape[0]] ** r,
                          [b for _, b in slabs(rho.values)]))
    if not terms:
        return None

    def sums() -> Iterator[np.ndarray]:
        for k, cols in enumerate(time_slabs(grid.steps)):
            parts = [(w, blocks[k]) for w, blocks in terms]
            S = np.zeros((cols.stop - cols.start, max(len(b) for _, b in parts)))
            for w, b in parts:
                S[:, :len(b)] += w[:len(b)] * b.T
            yield S
    return sums()


def _last_nonzero(rows: np.ndarray) -> np.ndarray:
    """Index of the last nonzero entry of each row, 0 for an all-zero row."""
    if rows.shape[1] == 0:
        return np.zeros(len(rows), dtype=int)
    nz = rows != 0.0
    last = rows.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1)
    return np.where(nz.any(axis=1), last, 0)


def qp_solve(prob: QuarterPlaneProblem, grid: LayerGrid) -> Term:
    """Leapfrog at unit Courant number with Dirichlet trace at xi = 0.

    The far boundary carries homogeneous Dirichlet data; the true solution
    vanishes there because the grid is built with L >= T + margin, so the
    condition is exact rather than artificial.  The nonnegative part of
    theta is integrated by time averaging, which keeps the scheme stable
    without shrinking the step; a negative part stays explicit (growth is
    then physical).

    The march runs time-major, one time slab (time_slabs) at a time, in a
    buffer of TIME_SLAB + 2 time levels: the two before the slab, carried
    over, and the slab's own.  A step updates only the nodes 1..reach.
    reach starts at the last nonzero node of the two start levels and grows
    by at least one node per step, and to the last nonzero node of the
    step's source; it never shrinks.  Every node past it has zero
    neighbours and zero source, so the full update would write +0.0 there,
    which the buffer already holds.  The sources are summed a slab at a time
    (source_slabs).  As soon as a slab is marched, its block is cut down to
    its last nonzero row (grid.cut_block); the Term's values are those
    SlabBlocks, of shape (band + 1, steps + 1), band = widest reach + 1 +
    BAND_PAD (at most n_xi).  Zero-padded to the grid, they are the
    full-width march to the bit.

    Sources that sum to zero at every node and time are no source: the
    march adds none, as adding +0.0 would turn a -0.0 into +0.0.  That is
    known only once every slab is summed, so such a problem is marched
    again without them.
    """
    if grid.L + 1e-9 < grid.steps * grid.dt + LAYER_MARGIN:
        raise GraphConfigError("layer grid too short: support could reach the far end")
    g = np.asarray(prob.trace, dtype=float)
    if g.shape != (grid.steps + 1,):
        raise GraphConfigError("trace must be sampled on the layer time grid")
    if abs(g[0]) > TRACE_START_TOL:
        raise GraphConfigError(
            f"layer trace {prob.label or '?'} does not vanish at t=0: {g[0]:.3e}")
    sources = source_slabs(prob, grid)
    blocks, widest, sourced = _march(prob.theta, g, grid, sources)
    if sources is not None and not sourced:
        blocks, widest, _ = _march(prob.theta, g, grid, None)
    band = min(grid.n_xi, widest + 1 + BAND_PAD)
    return Term(SlabBlocks(tuple(blocks), band + 1), grid.xi_nodes(), grid.times())


def _march(theta: float, g: np.ndarray, grid: LayerGrid,
           sources: Iterator[np.ndarray] | None) -> tuple[list[np.ndarray], int, bool]:
    """qp_solve's march: each slab's block, the widest reach, and whether
    any source was nonzero."""
    n, M, dt = grid.n_xi, grid.steps, grid.dt
    th_p = max(theta, 0.0)
    th_m = min(theta, 0.0)
    a = 0.5 * dt * dt * th_p
    # the update W[m + 1] = (((W[m, 2:] + W[m, :-2]) - (1 + a) W[m - 1])
    # - dt^2 th_m W[m] + dt^2 S[m]) / (1 + a), in that order, written
    # straight into its row; z is the one work row
    c, dt2, d = 1.0 + a, dt * dt, dt * dt * th_m
    z = np.empty(n)
    # row i holds the time cols.start - 2 + i of the slab cols being marched
    W = np.zeros((TIME_SLAB + 2, n + 1))
    blocks = []
    sourced = False
    S_before = np.zeros(0)  # the source at the time before the slab
    for cols in time_slabs(M):
        S = next(sources) if sources is not None else None
        if S is not None:
            sourced = sourced or bool(S.any())
            S_reach = _last_nonzero(S)
        if cols.start == 0:
            if S is not None:
                k = min(S.shape[1], n)  # past the source, W[3] holds its +0.0
                W[3, 1:k] = 0.5 * dt * dt * S[0, 1:k]
            W[2:4, 0] = g[:2]
            reach = widest = int(_last_nonzero(W[2:4]).max())
            first = 2  # the first time the slab's steps reach
        else:
            W[:2] = W[width:width + 2]
            if cols.start == TIME_SLAB:
                # the start level at t_1, 0.5 dt^2 S[0], may hold a -0.0 past
                # every reach: the product of a negative subnormal source
                # underflows to it.  The rows of the later steps must hold
                # +0.0 there, as the full-width march does
                W[2:4] = 0.0
            first = cols.start
        for m in range(first - 1, cols.stop - 1):
            i = m - cols.start + 2
            if S is not None:
                j = m - cols.start  # -1: the time before the slab
                s, s_reach = (S[j], S_reach[j]) if j >= 0 else (S_before, reach_before)
                reach = min(max(reach + 1, int(s_reach)), n - 1)
            else:
                reach = min(reach + 1, n - 1)
            widest = max(widest, reach)
            k = reach + 1
            out, w = W[i + 1, 1:k], z[:k - 1]
            np.add(W[i, 2:k + 1], W[i, :k - 1], out=out)
            np.multiply(W[i - 1, 1:k], c, out=w)
            np.subtract(out, w, out=out)
            np.multiply(W[i, 1:k], d, out=w)
            np.subtract(out, w, out=out)
            if S is not None:
                # the source zero-padded to the step's nodes
                r = max(min(k, len(s)), 1)
                np.multiply(s[1:r], dt2, out=w[:r - 1])
                w[r - 1:] = 0.0
                np.add(out, w, out=out)
            np.divide(out, c, out=out)
            W[i + 1, 0] = g[m + 1]
        width = cols.stop - cols.start
        # the slab's levels are nonzero at no node past the widest reach
        blocks.append(cut_block(W[2:width + 2, :widest + 1].T))
        if S is not None:
            S_before, reach_before = S[-1].copy(), S_reach[-1]
        del S  # freed before the next slab's sum is made
    return blocks, widest, sourced


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

    The checks, the rows, the spline's x basis and its match of times are
    worked out here, once; the returned columns(cols) is then one product
    per coefficient block in a slice cols of times, and
    columns(slice(None)) is every time.
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
    k = int(np.count_nonzero(xi <= term.x_nodes[term.values.shape[0] - 1]))
    rows = slice(len(taus) - k, len(taus)) if folded else slice(0, k)
    return rows, term.interp.at(xi[rows], times)
