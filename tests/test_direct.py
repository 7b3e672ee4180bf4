import math

import numpy as np
import pytest

from starwaves.direct import _march, direct_solve, energy
from starwaves.errors import GraphConfigError, StabilityError
from starwaves.expr import Expr, parse
from starwaves.graph import Edge, ProblemSpec, StarGraph, b_eps
from starwaves.grid import TIME_SLAB, Grid, make_direct_grid
from starwaves.harness import load_config, validate_config
from starwaves.limit import solve_g0

from .helpers import (REFERENCE_CONFIG, direct_march_reference,
                      single_edge_spec, star_spec, two_edge_g0_spec)


def test_zero_data_stays_zero():
    spec = star_spec(q="1 + x", f="0", phi="0", psi="0", mu="0")
    grid = make_direct_grid(spec, 0.3, 32, 0.9)
    fld = direct_solve(spec, 0.3, grid)
    for u in fld.edges:
        assert np.all(u == 0.0)
    assert np.all(fld.sigma == 0.0)


def test_vertex_row_mirrors_sigma():
    spec = star_spec()
    grid = make_direct_grid(spec, 0.3, 48, 0.9)
    fld = direct_solve(spec, 0.3, grid)
    for u in fld.edges:
        assert np.array_equal(u[0, :], fld.sigma)


def _eigenmode_error(n):
    spec = single_edge_spec(phi="cos(pi*x/2)")
    grid = make_direct_grid(spec, 0.5, n, 0.9)
    fld = direct_solve(spec, 0.5, grid)
    x = grid.x_nodes(0)
    t = grid.times()
    exact = np.cos(np.pi * x[:, None] / 2) * np.cos(np.pi * t[None, :] / 2)
    return float(np.max(np.abs(fld.edges[0] - exact))), fld, grid, spec


def test_eigenmode_second_order():
    e1, *_ = _eigenmode_error(100)
    e2, *_ = _eigenmode_error(200)
    assert e1 / e2 >= 3.5


def test_eigenmode_energy_drift():
    _, fld, grid, spec = _eigenmode_error(400)
    e0 = energy(fld, spec, 0.5, 0)
    assert e0 == pytest.approx(np.pi ** 2 / 16, rel=1e-3)
    drift = max(abs(energy(fld, spec, 0.5, n) - e0)
                for n in (grid.steps // 2, grid.steps))
    assert drift / e0 <= 1e-3


def manufactured_spec(eps):
    """u* = x^2 (1-x)^2 t^2 on every edge of the 3-edge star.

    Center: value 0, slope 0 per edge, so continuity and the weighted flux
    sum hold exactly; far ends sit at 0 = mu.  The source has b_e inlined
    numerically because the solved problem is at fixed eps.
    """
    g = StarGraph((Edge(1.0, 0), Edge(1.0, 1), Edge(1.0, 2)), (0, 1, 2))
    z = parse("0")
    q = parse("1 + x")
    fs = []
    for m in (0, 1, 2):
        b = eps ** (2 * m)
        fs.append(parse(f"2*x^2*(1-x)^2 - {b!r}*(2 - 12*x + 12*x^2)*t^2"
                        f" + (1+x)*x^2*(1-x)^2*t^2"))
    return ProblemSpec(g, (q,) * 3, tuple(fs), (z,) * 3, (z,) * 3, (z,) * 3, 1.0)


def _manufactured_error(spec, eps, n):
    grid = make_direct_grid(spec, eps, n, 0.9)
    fld = direct_solve(spec, eps, grid)
    t = grid.times()
    worst = 0.0
    for e in range(3):
        x = grid.x_nodes(e)
        exact = x[:, None] ** 2 * (1 - x[:, None]) ** 2 * t[None, :] ** 2
        worst = max(worst, float(np.max(np.abs(fld.edges[e] - exact))))
    return worst


def test_manufactured_convergence_order():
    spec = manufactured_spec(0.5)
    e1 = _manufactured_error(spec, 0.5, 64)
    e2 = _manufactured_error(spec, 0.5, 128)
    assert e1 / e2 >= 3.5


def test_discrete_kirchhoff_residual_shrinks():
    spec = star_spec()
    res = []
    for n in (64, 128):
        grid = make_direct_grid(spec, 0.3, n, 0.9)
        fld = direct_solve(spec, 0.3, grid)
        total = np.zeros(grid.steps + 1)
        for e in range(3):
            u = fld.edges[e]
            h = grid.h(e)
            b = [1.0, 0.3 ** 2, 0.3 ** 4][e]
            total += b * (-3 * u[0, :] + 4 * u[1, :] - u[2, :]) / (2 * h)
        res.append(float(np.max(np.abs(total))))
    assert res[1] < res[0]
    assert res[0] / res[1] > 1.6  # roughly first order or better at the vertex


def test_cfl_violation_raises():
    # with no cfl of its own, the solve runs up to dt = min_e h_e / sqrt(b_e)
    spec, eps = star_spec(), 0.3
    grid = make_direct_grid(spec, eps, 32, 0.9)
    bound = min(grid.h(e) / math.sqrt(b_eps(spec, eps, e)) for e in range(3))
    near = [Grid(grid.lengths, grid.n_cells, frac * bound, grid.steps)
            for frac in (0.99, 1.01)]
    assert all(np.isfinite(u).all() for u in direct_solve(spec, eps, near[0]).edges)
    with pytest.raises(StabilityError, match="exceeds the stability bound"):
        direct_solve(spec, eps, near[1])


def test_incompatible_data_refused():
    spec = star_spec(mu="1")
    grid = make_direct_grid(spec, 0.3, 32, 0.9)
    with pytest.raises(GraphConfigError) as ei:
        direct_solve(spec, 0.3, grid)
    assert "value_match" in str(ei.value)


def test_solution_independent_of_eps_on_g0_only_graph():
    spec = two_edge_g0_spec(q="1", f="sin(t)*(1 + x)", phi="cos(pi*x/2)")
    grid = make_direct_grid(spec, 0.3, 64, 0.9)
    a = direct_solve(spec, 0.3, grid)
    b = direct_solve(spec, 0.7, grid)
    for ua, ub in zip(a.edges, b.edges):
        assert np.array_equal(ua, ub)


def _direct_case(spec, eps, n_per_edge, cfl):
    grid = make_direct_grid(spec, eps, n_per_edge, cfl)
    b = [b_eps(spec, eps, e) for e in range(spec.graph.n_edges)]
    return (direct_solve(spec, eps, grid),
            direct_march_reference(spec, grid, b, None))


def _g0_case():
    spec = two_edge_g0_spec(q="1 + x", f="sin(t)*(1 + x)", phi="cos(pi*x/2)")
    grid = make_direct_grid(spec, 0.5, 64, 0.9)
    nu = 0.3 * np.sin(3.0 * grid.times())
    return (solve_g0(spec, grid, nu),
            direct_march_reference(spec, grid, [1.0, 1.0], nu))


@pytest.mark.parametrize("case", ["reference", "coarse_cfl1", "g0_nu",
                                  "psi_const_f", "one_block", "odd_cells"])
def test_march_matches_x_major_reference(case):
    # the reference evaluates f on the whole space-time rectangle, the
    # march one block of time rows at a time, into its work rows
    if case == "one_block":
        fld, ref = _direct_case(star_spec(T=0.3), 0.3, 64, 0.9)
        assert fld.grid.steps < TIME_SLAB
    elif case == "reference":
        spec = validate_config(load_config(REFERENCE_CONFIG)).spec
        fld, ref = _direct_case(spec, 0.2, 640, 0.9)
    elif case == "coarse_cfl1":
        fld, ref = _direct_case(star_spec(), 0.3, 48, 1.0)
    elif case == "g0_nu":
        fld, ref = _g0_case()
    elif case == "odd_cells":
        spec = star_spec()
        grid = Grid((1.0, 1.0, 1.0), (41, 43, 45), 1.5 / 101, 101)
        assert grid.steps > TIME_SLAB
        b = [b_eps(spec, 0.5, e) for e in range(3)]
        fld = _march(spec, grid, np.array(b), None)
        ref = direct_march_reference(spec, grid, b, None)
        assert all(u.flags.f_contiguous and u.base is not None for u in fld.edges)
    else:
        spec = star_spec(f="0.5", psi="sin(pi*x)", mu="0")
        fld, ref = _direct_case(spec, 0.4, 64, 0.9)
    grid = fld.grid
    assert np.any(ref.sigma != 0.0)
    assert np.array_equal(fld.sigma, ref.sigma)
    assert np.array_equal(np.signbit(fld.sigma), np.signbit(ref.sigma))
    for e, (u, v) in enumerate(zip(fld.edges, ref.edges)):
        assert u.shape == (grid.n_cells[e] + 1, grid.steps + 1)
        assert np.array_equal(u, v)
        assert np.array_equal(np.signbit(u), np.signbit(v))


def test_march_asks_f_for_one_slab_of_time_rows_at_a_time(monkeypatch):
    spec = star_spec(f="sin(t)*(1 + x)")
    grid = make_direct_grid(spec, 0.3, 96, 0.9)
    assert grid.steps > 2 * TIME_SLAB
    shapes = []
    evaluate = Expr.evaluate

    def recording(self, x, t):
        if self is spec.f[0]:  # star_spec gives every edge the same f
            shapes.append(np.broadcast_shapes(np.shape(x), np.shape(t)))
        return evaluate(self, x, t)
    monkeypatch.setattr(Expr, "evaluate", recording)
    direct_solve(spec, 0.3, grid)
    widths = {n + 1 for n in grid.n_cells}
    rows = [s[0] for s in shapes if len(s) == 2 and s[1] in widths]
    assert max(rows) == TIME_SLAB
    assert sum(rows) == spec.graph.n_edges * (grid.steps + 1)
    # the lumped vertex source reads f(0, t) on the vertex node alone
    assert all(s[1] == 1 for s in shapes if len(s) == 2 and s[1] not in widths)
