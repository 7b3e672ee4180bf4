"""Shared builders and oracles for the test suite."""

import math
import operator
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special
from scipy.integrate import quad
from scipy.interpolate import BSpline, RectBivariateSpline, make_interp_spline

from starwaves.direct import Field
from starwaves.expr import (Add, Call, Const, Div, Mul, Neg, Pow, Sub, Var, add, call, div,
                            mul, neg, parse, pow_int, sub)
from starwaves.graph import Edge, ProblemSpec, StarGraph
from starwaves.harness import NormTriple
from starwaves.grid import (TIME_SLAB, Grid, SeparableSpline, one_sided_diff, slabs,
                            time_slabs, trapezoid_weights)
from starwaves.kernels import _as_array
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


# The oracle of Expr.diff and Expr.evaluate, which memoise each node they
# reach twice: the same rules and arithmetic as a plain recursion, which
# walks a shared subtree again each time it is reached.
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_DIFF_OUTER = {"sin": lambda a: call("cos", a), "cos": lambda a: neg(call("sin", a)),
               "exp": lambda a: call("exp", a), "cosh": lambda a: call("sinh", a),
               "sinh": lambda a: call("cosh", a),
               "sqrt": lambda a: div(Const(0.5), call("sqrt", a))}


def diff_unmemoised(e, wrt):
    def d(c):
        return diff_unmemoised(c, wrt)

    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if wrt == e.name else 0.0)
    if isinstance(e, (Add, Sub)):
        return (add if isinstance(e, Add) else sub)(d(e.a), d(e.b))
    if isinstance(e, Mul):
        return add(mul(d(e.a), e.b), mul(e.a, d(e.b)))
    if isinstance(e, Div):
        return div(sub(mul(d(e.a), e.b), mul(e.a, d(e.b))), mul(e.b, e.b))
    if isinstance(e, Pow):
        return mul(mul(Const(float(e.exponent)), pow_int(e.base, e.exponent - 1)), d(e.base))
    if isinstance(e, Neg):
        return neg(d(e.a))
    return mul(_DIFF_OUTER[e.func](e.arg), d(e.arg))


def evaluate_unmemoised(e, x, t):
    """e at (x, t) without the domain checks: a float from two scalars, else
    an array of the broadcast shape."""
    def walk(e):
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Var):
            return x if e.name == "x" else t
        if type(e) in _BINARY:
            return _BINARY[type(e)](walk(e.a), walk(e.b))
        if isinstance(e, Pow):
            return walk(e.base) ** e.exponent
        if isinstance(e, Neg):
            return -walk(e.a)
        assert isinstance(e, Call)
        return getattr(np, e.func)(walk(e.arg))

    if np.ndim(x) == 0 and np.ndim(t) == 0:
        x, t = float(x), float(t)
        return float(walk(e))
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    return np.broadcast_to(walk(e), np.broadcast_shapes(x.shape, t.shape))


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


def design_matrix_basis(x, knots):
    """BSpline.design_matrix(x, knots, 3, extrapolate=True) as grid's
    _cubic_basis gives it: each row's 4 values, (len(x), 4), and its first
    column: the bit-for-bit reference for that basis."""
    A = BSpline.design_matrix(x, knots, 3, extrapolate=True)
    return A.data.reshape(-1, 4), A.indices.reshape(-1, 4)[:, 0]


def make_interp_spline_at(sp, x, t):
    """columns(cols) of sp.at(x, t) at times other than sp.t_nodes, as
    scipy.interpolate evaluates them: make_interp_spline in t of the blocks
    side by side, then the x design matrix in CSC, its columns up to the
    coefficients' height.  The bit-for-bit reference for the t path."""
    rows = max(len(b) for b in sp.blocks)
    coef = np.zeros((rows, len(sp.t_nodes)))
    for cols, b in zip(time_slabs(len(sp.t_nodes) - 1), sp.blocks):
        coef[:len(b), cols] = b
    in_t = make_interp_spline(sp.t_nodes, coef, k=3, axis=1)
    basis = BSpline.design_matrix(x, sp.knots, 3, extrapolate=True).tocsc()
    return lambda cols: basis[:, :rows] @ in_t(t[cols])


def dense(values):
    """A term's stored values as one array, values.shape: the blocks of
    SlabBlocks side by side, each zero-padded to the stored rows."""
    out = np.zeros(values.shape)
    for cols, b in slabs(values):
        out[:len(b), cols] = b
    return out


def same_bits(a, b):
    """a and b hold the same floats bit for bit, signs of zeros included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def zero_padded(fld):
    """A term's values on its whole grid, (len(x_nodes), len(times)): the
    stored rows, then zero rows."""
    out = np.zeros((len(fld.x_nodes), len(fld.times)))
    out[:fld.values.shape[0]] = dense(fld.values)
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
        return SeparableSpline(x_nodes[:len(values)], tn, values).at(x, t)(slice(None))

    def layer(fld, xi):
        out = np.zeros((len(xi), len(t)))
        inside = xi <= fld.x_nodes[fld.values.shape[0] - 1]
        if inside.any():
            out[inside] = spline(fld.x_nodes, dense(fld.values), xi[inside])
        return out

    def g0_sum(e, x):
        loc = es.grids.g0_edge_ids.index(e)
        xg = es.grids.g0.x_nodes(loc)
        V = spline(xg, es.g0_base.edges[loc], x)
        for r, l in sorted(es.g0_corr):
            V += eps ** (r * g.exponents[l]) * spline(xg, dense(es.g0_corr[(r, l)].edges[loc]),
                                                      x)
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
            u = dense(es.edge_terms[(s, e)].values)
            if u.any():
                V += eps ** (s * m) * spline(es.edge_terms[(s, e)].x_nodes, u, x)
        for P in sorted(P for P, ee in es.vertex_layers if ee == e):
            V += eps ** P * layer(es.vertex_layers[(P, e)], x / eps ** m)
        for s in range(es.order + 1):
            w = es.boundary_layers[(s, e)]
            if dense(w.values).any():
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
            nu = nu + eps ** (r * g.exponents[l]) * one_sided_diff(dense(fld.edges[loc]), h,
                                                                   stride)
    for e in g.gstar_edges():
        m = g.m(e)
        for s in range(es.order + 1):
            u = es.edge_terms[(s, e)]
            values = dense(u.values)
            if values.any():
                h = float(u.x_nodes[1] - u.x_nodes[0])
                nu = nu + eps ** (2 * m) * eps ** (s * m) * one_sided_diff(values, h, stride)
        for P in sorted(P for P, ee in es.vertex_layers if ee == e):
            v = dense(es.vertex_layers[(P, e)].values)
            if v.any():
                nu = nu + eps ** m * eps ** P * one_sided_diff(v, es.grids.layer.dt, stride)
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


def source_matrix_reference(prob, grid):
    """sum_r c_r xi^r rho_r on the whole grid, x-major (n_xi + 1, steps + 1),
    or None when it is zero everywhere: the reference for
    layers.source_slabs."""
    xi = grid.xi_nodes()
    S = np.zeros((grid.n_xi + 1, grid.steps + 1))
    for c, r, rho in prob.sources:
        if c != 0.0 and dense(rho.values).any():
            S += (c * xi ** r)[:, None] * zero_padded(rho)
    return S if S.any() else None


def qp_march_reference(prob, grid, initial=None):
    """Full-width, x-major leapfrog: the reference for layers.qp_solve.

    Same scheme and the same floating-point expressions, node for node, but
    every step updates every interior node of a (n_xi + 1, steps + 1)
    array, and reads its source layers zero-padded to the grid.  Input
    checks are left to qp_solve.
    """
    n, M, dt = grid.n_xi, grid.steps, grid.dt
    S = source_matrix_reference(prob, grid)
    g = np.asarray(prob.trace, dtype=float)
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
    V[0, :2] = g[:2]
    for m in range(1, M):
        rhs = V[2:, m] + V[:-2, m] - (1.0 + a) * V[1:-1, m - 1] \
            - dt * dt * th_m * V[1:-1, m]
        if S is not None:
            rhs = rhs + dt * dt * S[1:-1, m]
        V[1:-1, m + 1] = rhs / (1.0 + a)
        V[0, m + 1] = g[m + 1]
    return V


def march_residual_reference(u, grid, e, q, f):
    """The residual of direct._march's unit-stiffness update on edge e's
    interior, over a whole time-major array u, in the equation's units (the
    update's miss over dt^2).  f is evaluated in blocks of TIME_SLAB time
    rows, as the march evaluates it."""
    M, dt, h = grid.steps, grid.dt, grid.h(e)
    x, times = grid.x_nodes(e), grid.times()
    worst = []
    for n0 in range(0, M, TIME_SLAB):
        n = slice(max(n0, 1), min(n0 + TIME_SLAB, M))  # the steps n -> n + 1
        un = u[n]
        lap = (un[:, 2:] - 2.0 * un[:, 1:-1] + un[:, :-2]) / h ** 2
        F = 0.0 if f is None else f.evaluate(
            x[None, :], times[n0:n0 + TIME_SLAB, None])[n.start - n0:n.stop - n0, 1:-1]
        step = 2.0 * un[:, 1:-1] - u[n.start - 1:n.stop - 1, 1:-1] + dt * dt * (
            lap - q[1:-1] * un[:, 1:-1] + F)
        worst.append(np.max(np.abs(u[n.start + 1:n.stop + 1, 1:-1] - step)))
    return float(np.max(worst)) / (dt * dt)


def layer_residual_reference(prob, term, grid):
    """The band-wide residual check, in the equation's units.  The leapfrog
    of layers.qp_solve, recomputed over the layer's zero-padded band in
    slabs of the steps m -> m + 1, against the whole grid's source matrix
    cut to the band."""
    W = dense(term.values).T
    width = W.shape[1]
    dt = grid.dt
    th_m = min(prob.theta, 0.0)
    a = 0.5 * dt * dt * max(prob.theta, 0.0)
    S = source_matrix_reference(prob, grid)
    if S is not None:
        S = S.T[:, :width]
    worst = []
    for prev in time_slabs(grid.steps - 2):  # the steps m -> m + 1, m >= 1
        m = slice(prev.start + 1, prev.stop + 1)
        rhs = W[m, 2:] + W[m, :-2] - (1.0 + a) * W[prev, 1:-1] \
            - dt * dt * th_m * W[m, 1:-1]
        if S is not None:
            rhs = rhs + dt * dt * S[m, 1:-1]
        nxt = slice(prev.start + 2, prev.stop + 2)
        worst.append(np.max(np.abs(W[nxt, 1:-1] - rhs / (1.0 + a))))
    return float(np.max(worst)) * (1.0 + a) / (dt * dt)


def stored_march_residuals(es):
    """(key, residual, scale) for each U term and layer of es, in build_log
    order: the residual of the march that stored it, recomputed over whole
    arrays (march_residual_reference over every edge of a U term,
    layer_residual_reference), and the sup of the term.  A layer that
    stores no rows reads 0 and 0."""
    spec, grids = es.spec, es.grids
    g0 = grids.g0
    out = []
    for key, _ in es.build_log:
        family, k, _ = key
        if family == "u":
            continue
        term = es.term(key)
        if family == "U":
            res = max(march_residual_reference(
                dense(u).T, g0, loc, spec.q[e].evaluate(g0.x_nodes(loc), 0.0),
                spec.f[e] if k == 0 else None)
                for loc, (e, u) in enumerate(zip(grids.g0_edge_ids, term.edges)))
            scale = max(float(np.max(np.abs(dense(u)))) for u in term.edges)
        elif term.values.size:
            res = layer_residual_reference(es.layer_problems[key], term, grids.layer)
            scale = float(np.max(np.abs(dense(term.values))))
        else:
            res = scale = 0.0
        out.append((key, res, scale))
    return out


# The oracle of the layer solves (acceptance gates 4 and 8): the Bessel
# kernel Phi(z) = sum_n (-z/4)^n / (n!)^2, which equals J0(sqrt(z)) for
# z >= 0 and I0(sqrt(-z)) for z < 0, its derivative, and the quarter-plane
# integral representation built on them.  A plain double series loses too
# many digits to cancellation for large positive z (the largest term at
# z = 400 is about 8e6 while the value is below 1e-1), so the branches are
# evaluated with the scipy Bessel routines, which hold relative error near
# machine precision on the whole supported range.
MAX_ABS_Z = 1.0e6
_SMALL_Z = 1.0e-8


def _check_range(z: np.ndarray) -> None:
    if np.any(np.abs(z) > MAX_ABS_Z):
        raise ValueError(f"kernel argument exceeds |z| <= {MAX_ABS_Z:g}")
    if np.any(~np.isfinite(z)):
        raise ValueError("kernel argument must be finite")


def phi_entire(z):
    """Phi(z) = J0(sqrt(z)) for z >= 0, I0(sqrt(-z)) for z < 0.

    Supported for |z| <= 1e6.  Note I0 overflows double precision near
    z = -5e5 and the result is inf there; the acceptance range [-100, 400]
    is far from overflow.
    """
    za, scalar = _as_array(z)
    _check_range(za)
    out = np.empty(za.shape)
    pos = za >= 0.0
    out[pos] = special.j0(np.sqrt(za[pos]))
    out[~pos] = special.i0(np.sqrt(-za[~pos]))
    return float(out) if scalar else out


def phi_entire_deriv(z):
    """Derivative of phi_entire; equals -1/4 at z = 0.

    -J1(sqrt(z))/(2 sqrt(z)) for z > 0 and -I1(sqrt(-z))/(2 sqrt(-z)) for
    z < 0; a series bridges the removable singularity at 0.
    """
    za, scalar = _as_array(z)
    _check_range(za)
    out = np.empty(za.shape)
    small = np.abs(za) <= _SMALL_Z
    pos = za > _SMALL_Z
    neg = za < -_SMALL_Z
    zs = za[small]
    out[small] = -0.25 * (1.0 - zs / 8.0 + zs * zs / 192.0)
    rp = np.sqrt(za[pos])
    out[pos] = -special.j1(rp) / (2.0 * rp)
    rn = np.sqrt(-za[neg])
    out[neg] = -special.i1(rn) / (2.0 * rn)
    return float(out) if scalar else out


def dt_kernel(theta, t, s, y):
    """Time derivative of the quarter-plane kernel Phi(theta((s-y)^2 - t^2)).

    Returns -2 theta t Phi'(theta ((s-y)^2 - t^2)).  Identically zero for
    theta = 0 (the d'Alembert reduction) and for t = 0 (even in t).
    """
    th, s1 = _as_array(theta)
    ta, s2 = _as_array(t)
    sa, s3 = _as_array(s)
    ya, s4 = _as_array(y)
    arg = th * ((sa - ya) ** 2 - ta * ta)
    out = -2.0 * th * ta * phi_entire_deriv(arg)
    if s1 and s2 and s3 and s4:
        return float(out)
    return out


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
