"""Shared builders for the test suite."""

import math
from pathlib import Path

import numpy as np
from scipy.interpolate import BSpline, RectBivariateSpline, make_interp_spline

from starwaves.direct import Field
from starwaves.expr import parse
from starwaves.graph import Edge, ProblemSpec, StarGraph
from starwaves.harness import NormTriple
from starwaves.grid import (TIME_SLAB, Grid, SeparableSpline, one_sided_diff, time_slabs,
                            trapezoid_weights)
from starwaves.layers import sample_physical
from starwaves.limit import simpson_weights

REPO = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = REPO / "configs" / "reference.json"


def single_edge_spec(q="0", f="0", phi="0", psi="0", mu="0", T=1.5,
                     length=1.0) -> ProblemSpec:
    g = StarGraph((Edge(length, 0),), (0,))
    return ProblemSpec(g, (parse(q),), (parse(f),), (parse(phi),),
                       (parse(psi),), (parse(mu),), T)


def star_spec(q="1 + x", f="sin(t)*(1 + x)", phi="cos(pi*x/2)", psi="0",
              mu="0", T=1.5, exponents=(0, 1, 2), subgraphs=(0, 1, 2),
              lengths=(1.0, 1.0, 1.0)) -> ProblemSpec:
    """Reference-shaped star; every per-edge function gets the same string."""
    edges = tuple(Edge(L, s) for L, s in zip(lengths, subgraphs))
    g = StarGraph(edges, tuple(exponents))
    n = len(edges)
    return ProblemSpec(g, (parse(q),) * n, (parse(f),) * n, (parse(phi),) * n,
                       (parse(psi),) * n, (parse(mu),) * n, T)


def two_edge_g0_spec(q="0", f="0", phi="0", psi="0", mu="0", T=1.5) -> ProblemSpec:
    g = StarGraph((Edge(1.0, 0), Edge(1.0, 0)), (0,))
    return ProblemSpec(g, (parse(q),) * 2, (parse(f),) * 2, (parse(phi),) * 2,
                       (parse(psi),) * 2, (parse(mu),) * 2, T)


def spline_oracle(x_nodes, t_nodes, values, x, t):
    """2-D cubic interpolating spline (FITPACK, s=0) at every (x[i], t[j]).

    x may come in any order; FITPACK wants it ascending.
    """
    sp = RectBivariateSpline(x_nodes, t_nodes, values, kx=3, ky=3, s=0)
    x = np.asarray(x, dtype=float)
    order = np.argsort(x)
    out = np.empty((len(x), len(t)))
    out[order] = sp(x[order], t, grid=True)
    return out


def spline_blocks_reference(x_nodes, values):
    """One make_interp_spline per slab of columns, full height: the
    reference for the coefficient blocks of grid.SeparableSpline."""
    return [make_interp_spline(x_nodes, values[:, cols], k=3, axis=0).c
            for cols in time_slabs(values.shape[1] - 1)]


def full_height_spline(x_nodes, t_nodes, values, x, t):
    """The separable spline with every coefficient row kept, at every
    (x[i], t[j]): the reference for the banded sampling of
    grid.SeparableSpline.  At t_nodes the x factor alone acts; elsewhere
    a not-a-knot spline in t of its coefficients comes first.  The same
    products as the spline's, so a sample row inside a coefficient block
    reads the same bits."""
    coef = np.concatenate(spline_blocks_reference(x_nodes, values), axis=1)
    j0 = int(np.searchsorted(t_nodes, t[0]))
    if np.array_equal(t_nodes[j0:j0 + len(t)], t):
        coef = coef[:, j0:j0 + len(t)]
    else:
        coef = make_interp_spline(t_nodes, coef, k=3, axis=1)(t)
    knots = make_interp_spline(x_nodes, values[:, :1], k=3, axis=0).t
    return BSpline.design_matrix(x, knots, 3, extrapolate=True) @ coef


def zero_padded(fld):
    """A term's values on its whole grid, (len(x_nodes), len(times)): the
    stored rows, then zero rows."""
    out = np.zeros((len(fld.x_nodes), len(fld.times)))
    out[:len(fld.values)] = fld.values
    return out


def sampled(term, eps, m, edge_length, taus, times, folded=False):
    """layers.sample_physical scattered onto every tau: zero off its rows."""
    rows, at = sample_physical(term, eps, m, edge_length, taus, times, folded)
    out = np.zeros((len(taus), len(times)))
    out[rows] = at(slice(None))
    return out


def assemble_reference(es, eps, grid):
    """Three-family assembly, (edges, sigma): the reference for
    expansion.assemble_partial_sum.

    The U terms on each unit-speed edge, then u_s, v_P and w_s on each
    degenerate edge, every term through a SeparableSpline of its own and
    added over the whole edge; a layer is zero past its stored band.
    """
    g = es.spec.graph
    tn, t = es.grids.times, grid.times()

    def spline(x_nodes, values, x):
        return SeparableSpline(x_nodes[:len(values)], tn, values)(x, t)

    def layer(fld, xi):
        out = np.zeros((len(xi), len(t)))
        inside = xi <= fld.x_nodes[len(fld.values) - 1]
        if inside.any():
            out[inside] = spline(fld.x_nodes, fld.values, xi[inside])
        return out

    def g0_sum(e, x):
        loc = es.grids.g0_edge_ids.index(e)
        xg = es.grids.g0.x_nodes(loc)
        V = spline(xg, es.g0_base.edges[loc], x)
        for r, l in sorted(es.g0_corr):
            V += eps ** (r * g.exponents[l]) * spline(xg, es.g0_corr[(r, l)].edges[loc], x)
        return V

    edges = []
    for e in range(g.n_edges):
        x = grid.x_nodes(e)
        if g.edges[e].subgraph == 0:
            edges.append(g0_sum(e, x))
            continue
        m, L = g.m(e), g.edges[e].length
        V = np.zeros((len(x), len(t)))
        for s in range(es.order + 1):
            u = es.edge_terms[(s, e)]
            if u.values.any():
                V += eps ** (s * m) * spline(u.x_nodes, u.values, x)
        for P in sorted(P for P, ee in es.vertex_layers if ee == e):
            V += eps ** P * layer(es.vertex_layers[(P, e)], x / eps ** m)
        for s in range(es.order + 1):
            w = es.boundary_layers[(s, e)]
            if w.values.any():
                V += eps ** (s * m) * layer(w, (L - x) / eps ** m)
        edges.append(V)
    return edges, g0_sum(es.grids.g0_edge_ids[0], np.array([0.0]))[0]


def flux_sum_reference(es, eps, stride):
    """Three-family Kirchhoff remainder: the reference for the flux sum of
    expansion.residuals.

    The U terms of each unit-speed edge in build order, then u_s and v_P on
    each degenerate edge, each through one_sided_diff with its own h.
    """
    g = es.spec.graph
    nu = np.zeros(len(es.grids.times))
    for loc in range(len(es.g0_base.edges)):
        h = es.grids.g0.h(loc)
        nu = nu + one_sided_diff(es.g0_base.edges[loc], h, stride)
        for (r, l), fld in es.g0_corr.items():
            nu = nu + eps ** (r * g.exponents[l]) * one_sided_diff(fld.edges[loc], h, stride)
    for e in g.gstar_edges():
        m = g.m(e)
        for s in range(es.order + 1):
            u = es.edge_terms[(s, e)]
            if u.values.any():
                h = float(u.x_nodes[1] - u.x_nodes[0])
                nu = nu + eps ** (2 * m) * eps ** (s * m) * one_sided_diff(u.values, h, stride)
        for P in sorted(P for P, ee in es.vertex_layers if ee == e):
            v = es.vertex_layers[(P, e)]
            if v.values.any():
                nu = nu + eps ** m * eps ** P * one_sided_diff(v.values, es.grids.layer.dt,
                                                              stride)
    return nu


def convolve_sn_reference(src, SN, dt):
    """One block of every row, column by column: the reference for the
    row-split limit._convolve_sn."""
    nx, nt = src.shape
    out = np.zeros((nx, nt))
    for n in range(1, nt):
        w = simpson_weights(n, dt)
        out[:, n] = np.einsum("xj,xj,j->x", src[:, :n + 1], SN[:, n::-1], w)
    return out


def qp_march_reference(prob, grid, initial=None):
    """Full-width, x-major leapfrog: the reference for layers.qp_solve.

    Same scheme and the same floating-point expressions, node for node, but
    every step updates every interior node of a (n_xi + 1, steps + 1)
    array, and reads its source layers zero-padded to the grid.  Input
    checks are left to qp_solve.
    """
    n, M, dt = grid.n_xi, grid.steps, grid.dt
    xi = grid.xi_nodes()
    S = np.zeros((n + 1, M + 1))
    for c, r, rho in prob.sources:
        if c != 0.0 and rho.values.any():
            S += (c * xi ** r)[:, None] * zero_padded(rho)
    if not S.any():
        S = None
    g = None if prob.trace is None else np.asarray(prob.trace, dtype=float)
    th_p = max(prob.theta, 0.0)
    th_m = min(prob.theta, 0.0)
    a = 0.5 * dt * dt * th_p
    V = np.zeros((n + 1, M + 1))
    if initial is not None:
        alpha, beta = (np.asarray(r, dtype=float) for r in initial)
        V[:, 0] = alpha
        lap = np.zeros_like(alpha)
        lap[1:-1] = (alpha[2:] - 2.0 * alpha[1:-1] + alpha[:-2]) / (dt * dt)
        s0 = S[:, 0] if S is not None else 0.0
        V[1:-1, 1] = (alpha + dt * beta + 0.5 * dt * dt * (
            lap - prob.theta * alpha + s0))[1:-1]
    elif S is not None:
        V[1:-1, 1] = 0.5 * dt * dt * S[1:-1, 0]
    if g is not None:
        V[0, 0] = g[0]
        V[0, 1] = g[1]
    for m in range(1, M):
        rhs = V[2:, m] + V[:-2, m] - (1.0 + a) * V[1:-1, m - 1] \
            - dt * dt * th_m * V[1:-1, m]
        if S is not None:
            rhs = rhs + dt * dt * S[1:-1, m]
        V[1:-1, m + 1] = rhs / (1.0 + a)
        if g is not None:
            V[0, m + 1] = g[m + 1]
    return V


def direct_march_reference(spec, grid, b, nu):
    """x-major leapfrog: the reference for direct._march.

    Same scheme and the same floating-point expressions, node for node, but
    each edge lives in a (n_cells + 1, steps + 1) array and every step
    reads and writes its columns.  Input checks are left to _march.
    """
    ne = spec.graph.n_edges
    M = grid.steps
    dt = grid.dt
    times = grid.times()

    xs = [grid.x_nodes(e) for e in range(ne)]
    hs = [grid.h(e) for e in range(ne)]
    Q = [spec.q[e].evaluate(xs[e], 0.0) for e in range(ne)]
    F = [spec.f[e].evaluate(xs[e][:, None], times[None, :]) for e in range(ne)]
    U = [np.empty((grid.n_cells[e] + 1, M + 1)) for e in range(ne)]

    phi = [spec.phi[e].evaluate(xs[e], 0.0) for e in range(ne)]
    psi = [spec.psi[e].evaluate(xs[e], 0.0) for e in range(ne)]
    mu = [np.broadcast_to(np.asarray(spec.mu[e].evaluate(0.0, times), dtype=float),
                          times.shape) for e in range(ne)]

    mass_a = sum(hs[e] / 2.0 for e in range(ne))
    q_a = sum(hs[e] / 2.0 * Q[e][0] for e in range(ne))
    f_a = sum(hs[e] / 2.0 * F[e][0, :] for e in range(ne))
    nu_arr = np.zeros(M + 1) if nu is None else np.asarray(nu, dtype=float)

    sigma = np.empty(M + 1)
    sigma[0] = phi[0][0]

    def vertex_accel(n):
        flux = sum(b[e] * (U[e][1, n] - sigma[n]) / hs[e] for e in range(ne))
        return (flux - q_a * sigma[n] + f_a[n] - nu_arr[n]) / mass_a

    for e in range(ne):
        U[e][:, 0] = phi[e]
        U[e][-1, :] = mu[e]
        lap = np.empty_like(phi[e])
        lap[1:-1] = (phi[e][2:] - 2.0 * phi[e][1:-1] + phi[e][:-2]) / hs[e] ** 2
        lap[0] = lap[-1] = 0.0
        interior = phi[e] + dt * psi[e] + 0.5 * dt * dt * (
            b[e] * lap - Q[e] * phi[e] + F[e][:, 0])
        U[e][1:-1, 1] = interior[1:-1]
    sigma[1] = sigma[0] + dt * psi[0][0] + 0.5 * dt * dt * vertex_accel(0)
    for e in range(ne):
        U[e][0, 0] = sigma[0]
        U[e][0, 1] = sigma[1]
        U[e][-1, 1] = mu[e][1]

    for n in range(1, M):
        sigma[n + 1] = 2.0 * sigma[n] - sigma[n - 1] + dt * dt * vertex_accel(n)
        for e in range(ne):
            u = U[e]
            lap = (u[2:, n] - 2.0 * u[1:-1, n] + u[:-2, n]) / hs[e] ** 2
            u[1:-1, n + 1] = (2.0 * u[1:-1, n] - u[1:-1, n - 1] + dt * dt * (
                b[e] * lap - Q[e][1:-1] * u[1:-1, n] + F[e][1:-1, n]))
            u[0, n + 1] = sigma[n + 1]
    return Field(grid, U, sigma)


# (n_cells, steps, nan) of fields that meet the slab partition's edge cases;
# at TIME_SLAB = 64 the literal step counts are the cases named
SLAB_CASES = [
    ((40, 40, 40), TIME_SLAB // 2 + 1, False),  # odd steps, part of a slab
    ((40, 41, 40), 100, False),                 # odd cells on one edge
    ((40, 40, 40), 20, False),                  # fewer steps than a slab
    ((40, 40, 40), TIME_SLAB + 2, False),       # last slab three columns wide
    ((40, 40, 40), TIME_SLAB, False),           # last slab one column wide
    ((40, 40, 40), TIME_SLAB, True),            # a nan in the first slab
]


def slab_case_field(n_cells, steps, nan, lengths=(1.0, 1.0, 1.0), T=1.5):
    """Random field on a grid of one SLAB_CASES case; seeded by steps."""
    grid = Grid(tuple(lengths), tuple(n_cells), T / steps, steps)
    rng = np.random.default_rng(steps)
    edges = [rng.standard_normal((n + 1, steps + 1)) for n in n_cells]
    if nan:  # edge 1 is the largest: a max that passes over its nan reads finite
        edges[1] *= 10.0
        edges[1][5, TIME_SLAB // 2 + 3] = np.nan
    return Field(grid, edges, edges[0][0])


def norms_reference(f1, f2):
    """Whole-field norms of f1 - f2: the reference for harness.norms.

    One C-ordered difference per edge, one einsum per sum; the maxima are
    reduced with np.max, so a nan anywhere makes linf nan.
    """
    grid = f1.grid
    wt = trapezoid_weights(grid.steps, grid.dt)
    maxima = []
    l2sq = 0.0
    h1sq = 0.0
    for e in range(len(grid.lengths)):
        d = np.subtract(f1.edges[e], f2.edges[e], order="C")
        h = grid.h(e)
        wx = trapezoid_weights(grid.n_cells[e], h)
        maxima.append(np.max(np.abs(d)))
        l2sq += float(np.einsum("x,t,xt->", wx, wt, d * d))
        dx = np.gradient(d, h, axis=0, edge_order=2)
        h1sq += float(np.einsum("x,t,xt->", wx, wt, dx * dx))
    return NormTriple(float(np.max(maxima)), math.sqrt(l2sq), math.sqrt(l2sq + h1sq))


def savetxt_grid_csv(path, header, x, t, u):
    """The grid CSV as np.savetxt writes it: the byte reference for
    harness.write_grid_csv."""
    data = np.column_stack([np.repeat(x, len(t)), np.tile(t, len(x)), u.ravel()])
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, data, fmt="%.17g", delimiter=",", newline="\n")
