import os
import threading

import numpy as np
import pytest

from starwaves import limit

from starwaves.direct import direct_solve
from starwaves.errors import CompatibilityError
from starwaves.expr import parse
from starwaves.grid import Term, make_direct_grid
from starwaves.kernels import sn
from starwaves.limit import (simpson_weights, solve_cauchy_recursive,
                             solve_degenerate_edge, solve_g0)

from .helpers import convolve_sn_reference, two_edge_g0_spec

X = np.linspace(0.0, 1.0, 321)
T = np.linspace(0.0, 1.5, 1001)
ZERO = parse("0")


def test_simpson_weights_shapes_and_values():
    dt = 0.1
    assert np.array_equal(simpson_weights(0, dt), np.zeros(1))
    np.testing.assert_allclose(simpson_weights(1, dt), [0.05, 0.05])
    np.testing.assert_allclose(simpson_weights(4, dt),
                               np.array([1, 4, 2, 4, 1]) * dt / 3)
    # odd prefix: Simpson up to n-3 plus a 3/8 tail keeps O(dt^4)
    w5 = simpson_weights(5, dt)
    grid = np.arange(6) * dt
    assert w5 @ grid ** 3 == pytest.approx((5 * dt) ** 4 / 4, rel=1e-13)
    w9 = simpson_weights(9, dt)
    assert w9 @ (np.arange(10.0) * dt) ** 3 == pytest.approx(
        (9 * dt) ** 4 / 4, rel=1e-12)


def test_degenerate_edge_closed_forms():
    # q=1, f=0, phi=x, psi=0  ->  u = x cos t
    u = solve_degenerate_edge(parse("1"), ZERO, parse("x"), ZERO, X, T)
    exact = X[:, None] * np.cos(T[None, :])
    assert np.max(np.abs(u.values - exact)) < 1e-12
    # q=0, f=1, zero data  ->  u = t^2/2
    u = solve_degenerate_edge(ZERO, parse("1"), ZERO, ZERO, X, T)
    assert np.max(np.abs(u.values - T[None, :] ** 2 / 2)) < 1e-12
    # psi drives the sn term: q=0, psi=1 -> u = t
    u = solve_degenerate_edge(ZERO, ZERO, ZERO, parse("1"), X, T)
    assert np.max(np.abs(u.values - T[None, :])) < 1e-12


def test_degenerate_edge_ode_residual():
    """Pointwise second time difference satisfies u_tt + q u = f."""
    q = parse("1 + x")
    f = parse("sin(t)*(1 + x)")
    u = solve_degenerate_edge(q, f, parse("cos(pi*x/2)"), ZERO, X, T)
    dt = T[1] - T[0]
    utt = (u.values[:, 2:] - 2 * u.values[:, 1:-1] + u.values[:, :-2]) / dt ** 2
    qv = q.evaluate(X, 0.0)[:, None]
    fv = np.asarray(f.evaluate(X[:, None], T[None, 1:-1]))
    resid = utt + qv * u.values[:, 1:-1] - fv
    # the check itself is a second difference, so O(dt^2) away from t=0;
    # the first two columns see the quadrature start-up, one order lower
    assert np.max(np.abs(resid[:, 2:])) < 2e-6
    assert np.max(np.abs(resid[:, :2])) < 2e-3


def test_recursion_oracle_t4_over_6():
    # u0 = x^2 t^2 from f = 2x^2; then u2 = int sn(0,t-s) * 2s^2 ds = t^4/6
    u0 = solve_degenerate_edge(ZERO, parse("2*x^2"), ZERO, ZERO, X, T)
    u2 = solve_cauchy_recursive(ZERO, u0)
    assert np.max(np.abs(u2.values - T[None, :] ** 4 / 6)) < 1e-8


K = np.pi / 2


def _cos_hierarchy():
    """q=1, phi=cos(k x), psi=f=0: u_0, u_2 and u_4 of the recursion, and
    the closed forms of u_2 and u_4 from d_x^2 phi = -k^2 phi."""
    u0 = solve_degenerate_edge(parse("1"), ZERO, parse("cos(pi*x/2)"), ZERO, X, T)
    u2 = solve_cauchy_recursive(parse("1"), u0)
    u4 = solve_cauchy_recursive(parse("1"), u2)
    phi, t = np.cos(K * X)[:, None], T[None, :]
    exact2 = -K ** 2 * phi * t * np.sin(t) / 2
    exact4 = K ** 4 * phi * (t * np.sin(t) - t ** 2 * np.cos(t)) / 8
    return u2.values - exact2, u4.values - exact4


def test_degenerate_hierarchy_closed_form():
    err2, err4 = _cos_hierarchy()
    assert np.max(np.abs(err2)) < 1e-5  # scale 1.85
    assert np.max(np.abs(err4[2:])) < 1e-5  # scale 1.02, rows 2 to the end


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: _dxx is fourth order at its end rows and second order "
    "inside, and the second _dxx turns that jump into an O(1) error of u_4 "
    "at rows 0 and 1"))
def test_degenerate_hierarchy_u4_end_rows():
    _, err4 = _cos_hierarchy()
    assert np.max(np.abs(err4[:2])) < 1e-5


# (nx, nt) of the row-split convolution: fewer rows than blocks, blocks of
# one row, and the shapes of the reference p=1 and p=4 builds
CONVOLVE_SHAPES = [(1, 50), (2, 33), (3, 64), (201, 334), (321, 1069)]


def _convolve_case(nx, nt):
    rng = np.random.default_rng(nx * nt)
    t = np.linspace(0.0, 1.5, nt)
    Q = rng.uniform(-3.0, 3.0, (nx, 1))
    return rng.standard_normal((nx, nt)), sn(Q, t[None, :]), float(t[1])


@pytest.mark.parametrize("cpus", [1, 2, 7])
@pytest.mark.parametrize("shape", CONVOLVE_SHAPES)
def test_convolve_split_is_bit_equal_to_one_block(monkeypatch, shape, cpus):
    # one row block per usable CPU, each row summed over j in the serial
    # order: every value is the serial loop's, sign bits included
    src, SN, dt = _convolve_case(*shape)
    want = convolve_sn_reference(src, SN, dt)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    got = limit._convolve_sn(src, SN, dt)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("cpus", [None, 1, 2, 7])
def test_convolve_split_counts_cpus_without_affinity(monkeypatch, cpus):
    # an OS without sched_getaffinity (macOS, Windows): os.cpu_count()
    # blocks, one where it knows no count, and the same bits
    src, SN, dt = _convolve_case(201, 334)
    want = convolve_sn_reference(src, SN, dt)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    got = limit._convolve_sn(src, SN, dt)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("bad", [0, 2])
def test_convolve_block_error_surfaces_and_no_thread_outlives(monkeypatch, bad):
    # a block that raises, on the calling thread (0) or in the pool (2):
    # the error comes back with its own type, and every thread is gone
    src, SN, dt = _convolve_case(7, 40)
    rows_of = limit._convolve_rows

    def faulty(src, SN, dt, out, rows):
        if rows.start == bad:
            raise FloatingPointError(f"block at row {bad}")
        rows_of(src, SN, dt, out, rows)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(7)))
    monkeypatch.setattr(limit, "_convolve_rows", faulty)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"block at row {bad}"):
        limit._convolve_sn(src, SN, dt)
    assert threading.active_count() == before


def test_recursion_zero_for_flat_profile():
    # x-independent u0 has no second x-derivative.  The centered stencil
    # cancels exactly; the one-sided end stencils leave rounding scaled
    # by 1/h^2.
    u0 = solve_degenerate_edge(ZERO, parse("1"), ZERO, ZERO, X, T)
    u2 = solve_cauchy_recursive(ZERO, u0)
    assert np.all(u2.values[1:-1] == 0.0)
    assert np.max(np.abs(u2.values)) < 1e-9


def test_recursion_of_zero_term_is_zero():
    # a zero predecessor gives a zero term on the same node and time arrays
    z = Term(np.zeros((len(X), len(T))), X, T)
    u = solve_cauchy_recursive(parse("1 + x"), z)
    assert u.is_zero and u.values.shape == (len(X), len(T))
    assert u.x_nodes is X and u.times is T


def test_g0_matches_direct_on_undegenerate_graph():
    """With every edge in the base subgraph the two solvers are the same march."""
    spec = two_edge_g0_spec(q="1", f="sin(t)*(1 + x)", phi="cos(pi*x/2)")
    grid = make_direct_grid(spec, 0.5, 64, 0.9)
    ref = direct_solve(spec, 0.5, grid)
    g0 = solve_g0(spec, grid)
    for a, b in zip(ref.edges, g0.edges):
        assert np.array_equal(a, b)
    assert np.array_equal(g0.sigma, ref.sigma)


def test_g0_kirchhoff_source_closed_form():
    """Two edges, q=0, zero data, nu(t) = t: u_e = -(t - x)_+^2 / 4."""
    spec = two_edge_g0_spec()
    grid = make_direct_grid(spec, 0.5, 400, 0.95)
    nu = grid.times().copy()
    nu0 = nu.copy()
    fld = solve_g0(spec, grid, nu)
    t = grid.times()
    x = grid.x_nodes(0)
    # valid until the front reaches the far end at t = 1; after that the
    # Dirichlet reflection takes over
    cut = np.searchsorted(t, 1.0, side="right")
    exact = -np.maximum(t[None, :cut] - x[:, None], 0.0) ** 2 / 4
    err = max(np.max(np.abs(fld.edges[e][:, :cut] - exact)) for e in range(2))
    assert err < 5e-3  # front kink limits local order
    coarse = solve_g0(spec, type(grid)(
        grid.lengths, (200, 200), 2 * grid.dt, grid.steps // 2), nu0[::2])
    xc = np.linspace(0, 1, 201)
    tc = t[::2]
    cutc = np.searchsorted(tc, 1.0, side="right")
    exc = -np.maximum(tc[None, :cutc] - xc[:, None], 0.0) ** 2 / 4
    errc = np.max(np.abs(coarse.edges[0][:, :cutc] - exc))
    assert err < errc  # refining helps despite the kink


def test_g0_slope_sum_consistency_guard():
    # nu(0) != 0 against flat initial data violates the first-order fit
    spec = two_edge_g0_spec()
    grid = make_direct_grid(spec, 0.5, 64, 0.9)
    nu = np.ones(grid.steps + 1)
    with pytest.raises(CompatibilityError):
        solve_g0(spec, grid, nu)
