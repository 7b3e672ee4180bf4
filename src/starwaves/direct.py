"""Reference solver for the full problem on the graph at fixed eps.

Mass-lumped piecewise-linear elements with explicit leapfrog time stepping.
Continuity at the central vertex and the Dirichlet data at the boundary
vertices are enforced exactly at every step: all edges share one trace
array sigma, and the boundary row is written from mu up front.

The same marcher serves the limit solver (unit stiffness plus a Kirchhoff
source), which keeps the two paths machine-identical where they overlap.
It stores each edge time-major, (steps + 1, n_cells + 1), so a step touches
contiguous rows only; Field.edges[e] is the transposed view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphConfigError
from .graph import ProblemSpec, b_eps, require_compatibility_C1
from .grid import TIME_SLAB, Grid, check_cfl, one_sided_diff, trapezoid_weights

__all__ = ["Field", "direct_solve", "energy"]


@dataclass
class Field:
    """Per-edge space-time values with a shared vertex trace.

    edges[e] has shape (n_cells[e] + 1, steps + 1); row 0 mirrors sigma.
    Solver fields hold transposed views of time-major arrays, so edges[e]
    is F-contiguous there; other fields may be laid out either way.
    """

    grid: Grid
    edges: list[np.ndarray]
    sigma: np.ndarray


def _march(spec: ProblemSpec, grid: Grid, b: np.ndarray,
           nu: np.ndarray | None) -> Field:
    """Leapfrog march with stiffness b[e] per edge and Kirchhoff source nu.

    The lumped vertex equation reads
        M_a sigma'' = sum_e b_e (u_{e,1} - sigma)/h_e - q_a sigma + f_a - nu
    with M_a = sum_e h_e/2 and q_a, f_a lumped the same way.  The first
    step is a Taylor start built from the discrete spatial operator, which
    keeps the march self-consistent.

    Each edge is marched time-major, in a (steps + 1, n_cells + 1) array,
    so every step reads and writes contiguous rows; the Field holds the
    transposed views.  f is evaluated one block of TIME_SLAB time rows at
    a time: step n reads row n % TIME_SLAB of its block.  The lumped f_a
    needs f(0, t) at every time, so it reads f on the vertex node alone.
    """
    g = spec.graph
    ne = g.n_edges
    M = grid.steps
    dt = grid.dt
    times = grid.times()

    xs = [grid.x_nodes(e) for e in range(ne)]
    hs = [grid.h(e) for e in range(ne)]
    Q = [spec.q[e].evaluate(xs[e], 0.0) for e in range(ne)]

    def f_block(n0: int) -> list[np.ndarray]:
        return [spec.f[e].evaluate(xs[e][None, :], times[n0:n0 + TIME_SLAB, None])
                for e in range(ne)]

    F = f_block(0)
    U = [np.empty((M + 1, grid.n_cells[e] + 1)) for e in range(ne)]

    phi = [spec.phi[e].evaluate(xs[e], 0.0) for e in range(ne)]
    psi = [spec.psi[e].evaluate(xs[e], 0.0) for e in range(ne)]
    mu = [spec.mu[e].evaluate(0.0, times) for e in range(ne)]

    mass_a = sum(hs[e] / 2.0 for e in range(ne))
    q_a = sum(hs[e] / 2.0 * Q[e][0] for e in range(ne))
    f_a = sum(hs[e] / 2.0 * spec.f[e].evaluate(xs[e][None, :1], times[:, None])[:, 0]
              for e in range(ne))
    nu_arr = np.zeros(M + 1) if nu is None else np.asarray(nu, dtype=float)
    if nu_arr.shape != (M + 1,):
        raise GraphConfigError("Kirchhoff source must be sampled on the time grid")

    sigma = np.empty(M + 1)
    sigma[0] = phi[0][0]

    def vertex_accel(n: int) -> float:
        flux = sum(b[e] * (U[e][n, 1] - sigma[n]) / hs[e] for e in range(ne))
        return (flux - q_a * sigma[n] + f_a[n] - nu_arr[n]) / mass_a

    # t = 0 rows and the Taylor start
    for e in range(ne):
        U[e][0, :] = phi[e]
        U[e][:, -1] = mu[e]
        lap = np.empty_like(phi[e])
        lap[1:-1] = (phi[e][2:] - 2.0 * phi[e][1:-1] + phi[e][:-2]) / hs[e] ** 2
        lap[0] = lap[-1] = 0.0  # vertex and boundary rows are overwritten below
        interior = phi[e] + dt * psi[e] + 0.5 * dt * dt * (
            b[e] * lap - Q[e] * phi[e] + F[e][0, :])
        U[e][1, 1:-1] = interior[1:-1]
    sigma[1] = sigma[0] + dt * psi[0][0] + 0.5 * dt * dt * vertex_accel(0)
    for e in range(ne):
        U[e][0, 0] = sigma[0]
        U[e][1, 0] = sigma[1]
        U[e][1, -1] = mu[e][1]

    # the update u[n + 1] = (2 u[n] - u[n - 1]) + dt^2 (b lap - Q u[n] + F),
    # lap = (u[n, 2:] - 2 u[n]) + u[n, :-2] over h^2, in that order, on the
    # interior; w and z are an edge's two work rows
    dt2 = dt * dt
    work = [(np.empty(nc - 1), np.empty(nc - 1), Q[e][1:-1], hs[e] ** 2)
            for e, nc in enumerate(grid.n_cells)]
    for n in range(1, M):
        if n % TIME_SLAB == 0:
            del F  # the last block goes first: the heap holds one, not two
            F = f_block(n)
        sigma[n + 1] = 2.0 * sigma[n] - sigma[n - 1] + dt2 * vertex_accel(n)
        for e in range(ne):
            u = U[e]
            w, z, q, h2 = work[e]
            un, out = u[n, 1:-1], u[n + 1, 1:-1]
            np.multiply(un, 2.0, out=out)
            np.subtract(u[n, 2:], out, out=w)
            np.add(w, u[n, :-2], out=w)
            np.divide(w, h2, out=w)
            np.multiply(w, b[e], out=w)
            np.multiply(q, un, out=z)
            np.subtract(w, z, out=w)
            np.add(w, F[e][n % TIME_SLAB, 1:-1], out=w)
            np.multiply(w, dt2, out=w)
            np.subtract(out, u[n - 1, 1:-1], out=out)
            np.add(out, w, out=out)
            u[n + 1, 0] = sigma[n + 1]
    return Field(grid, [u.T for u in U], sigma)


def direct_solve(spec: ProblemSpec, eps: float, grid: Grid) -> Field:
    """Solve the perturbed problem at fixed eps on the given grid.

    Refuses to run when the C1 compatibility check fails or when dt
    exceeds the stability bound.
    """
    require_compatibility_C1(spec)
    check_cfl(spec, eps, grid)
    b = np.array([b_eps(spec, eps, e) for e in range(spec.graph.n_edges)])
    return _march(spec, grid, b, None)


def energy(fld: Field, spec: ProblemSpec, eps: float, n: int) -> float:
    """Discrete energy 1/2 sum_e int (u_t^2 + b u_x^2 + q u^2) at step n.

    Trapezoid weights in space; derivatives are centered second order with
    one-sided ends (np.gradient with edge_order=2).
    """
    grid = fld.grid
    M = grid.steps
    if not (0 <= n <= M):
        raise ValueError(f"time index {n} outside 0..{M}")
    total = 0.0
    for e in range(len(fld.edges)):
        u = fld.edges[e]
        h = grid.h(e)
        x = grid.x_nodes(e)
        b = b_eps(spec, eps, e)
        q = spec.q[e].evaluate(x, 0.0)
        if n == 0:
            ut = one_sided_diff(u, grid.dt, axis=1)
        elif n == M:
            ut = -one_sided_diff(u[:, ::-1], grid.dt, axis=1)
        else:
            ut = (u[:, n + 1] - u[:, n - 1]) / (2.0 * grid.dt)
        ux = np.gradient(u[:, n], h, edge_order=2)
        dens = ut * ut + b * ux * ux + q * u[:, n] ** 2
        total += float(trapezoid_weights(grid.n_cells[e], h) @ dens)
    return 0.5 * total
