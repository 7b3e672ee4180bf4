import numpy as np
import pytest

from starwaves.direct import Field, direct_solve
from starwaves.errors import (CompatibilityError, ExpansionOrderError,
                              GraphConfigError)
from starwaves import expansion
from starwaves.expansion import (assemble_partial_sum, build_expansion,
                                 lambda_set, residuals, verify_schedule)
from starwaves.expr import parse
from starwaves.graph import ProblemSpec, restrict_to_g0
from starwaves.grid import Grid, make_direct_grid, make_expansion_grids
from starwaves.layers import BAND_PAD, QuarterPlaneProblem, qp_solve, sample_physical
from starwaves.harness import DEFECT_NOTE, convergence_sweep, truncation_leftover
from starwaves.limit import solve_degenerate_edge, solve_g0

from .helpers import (assemble_reference, flux_sum_reference, qp_march_reference,
                      spline_oracle, star_spec, two_edge_g0_spec, zero_padded)


def test_lambda_set_examples():
    assert lambda_set((1, 2), 2) == ((2, 1), (1, 2))
    assert lambda_set((2,), 3) == ()
    assert lambda_set((2, 3), 6) == ((3, 1), (2, 2))
    assert lambda_set((1,), 1) == ((1, 1),)
    with pytest.raises(ValueError):
        lambda_set((1, 2), 0)


def test_order_gate():
    spec = star_spec()
    grids = make_expansion_grids(spec, 64, 0.9)
    with pytest.raises(ExpansionOrderError, match="0..4"):
        build_expansion(spec, 5, grids)
    with pytest.raises(ExpansionOrderError):
        build_expansion(spec, -1, grids)


def test_compatibility_gate():
    spec = star_spec(mu="1")
    grids = make_expansion_grids(spec, 64, 0.9)
    with pytest.raises(CompatibilityError, match="value_match"):
        build_expansion(spec, 0, grids)


def test_term_inventory_p0_and_p1():
    spec = star_spec()
    grids = make_expansion_grids(spec, 64, 0.9)
    es0 = build_expansion(spec, 0, grids)
    assert es0.powers == ()
    assert set(es0.edge_terms) == {(0, 1), (0, 2)}
    assert es0.g0_corr == {}
    assert set(es0.vertex_layers) == {(0, 1), (0, 2)}
    assert set(es0.boundary_layers) == {(0, 1), (0, 2)}

    es1 = build_expansion(spec, 1, grids)
    assert es1.powers == (1, 2)
    assert set(es1.edge_terms) == {(s, e) for s in (0, 1) for e in (1, 2)}
    assert set(es1.g0_corr) == {(1, 1), (1, 2)}
    assert set(es1.vertex_layers) == {(P, e) for P in (0, 1, 2) for e in (1, 2)}
    assert set(es1.boundary_layers) == {(s, e) for s in (0, 1) for e in (1, 2)}
    # the replayable log covers every term exactly once
    verify_schedule(es1.build_log)
    assert len(es1.build_log) == len(set(k for k, _ in es1.build_log))


def test_odd_edge_terms_vanish():
    spec = star_spec()
    grids = make_expansion_grids(spec, 64, 0.9)
    es = build_expansion(spec, 3, grids)
    for e in (1, 2):
        assert es.edge_terms[(1, e)].is_zero
        assert es.edge_terms[(3, e)].is_zero
        assert not es.edge_terms[(0, e)].is_zero
        assert not es.edge_terms[(2, e)].is_zero


def test_vertex_layer_trace_is_correction_trace():
    # at P = 1 the only contribution is the first correction's vertex value:
    # the odd interior term is zero, so the layer trace equals sigma_U1
    spec = star_spec()
    grids = make_expansion_grids(spec, 64, 0.9)
    es = build_expansion(spec, 1, grids)
    for e in (1, 2):
        assert np.array_equal(es.vertex_layers[(1, e)].values[0, :],
                              es.g0_corr[(1, 1)].sigma)


def test_layers_stored_to_band_match_full_width_march(monkeypatch):
    # every layer of a build stores at most steps + BAND_PAD + 2 xi-nodes,
    # not the whole grid; zero-padded to the grid it is the full-width march
    # of its own problem, Taylor sources included, to the bit
    solved = []

    def recording_qp_solve(prob, grid):
        fld = qp_solve(prob, grid)
        solved.append((prob, fld))
        return fld

    monkeypatch.setattr(expansion, "qp_solve", recording_qp_solve)
    spec = star_spec()
    grids = make_expansion_grids(spec, 64, 0.9)
    es = build_expansion(spec, 2, grids)
    layers = [*es.vertex_layers.values(), *es.boundary_layers.values()]
    assert sorted(map(id, layers)) == sorted(id(fld) for _, fld in solved)
    assert any(prob.sources for prob, _ in solved)
    lg = grids.layer
    for prob, fld in solved:
        assert len(fld.values) <= lg.steps + BAND_PAD + 2 < lg.n_xi + 1
        got = zero_padded(fld)
        want = qp_march_reference(prob, lg)
        assert np.array_equal(got, want), prob.label
        assert np.array_equal(np.signbit(got), np.signbit(want)), prob.label


def test_schedule_tampering_detected():
    spec = star_spec()
    grids = make_expansion_grids(spec, 64, 0.9)
    es = build_expansion(spec, 1, grids)
    with pytest.raises(RuntimeError, match="consumed unbuilt"):
        verify_schedule(tuple(reversed(es.build_log)))
    with pytest.raises(RuntimeError, match="built twice"):
        verify_schedule(es.build_log + es.build_log[:1])


def test_homogeneous_data_gives_zero_expansion():
    spec = star_spec(f="0", phi="0", psi="0", mu="0")
    grids = make_expansion_grids(spec, 64, 0.9)
    es = build_expansion(spec, 2, grids)
    assert not es.g0_base.sigma.any()
    assert all(not f.edges[0].any() for f in es.g0_corr.values())
    assert all(t.is_zero for t in es.edge_terms.values())
    assert all(v.is_zero for v in es.vertex_layers.values())
    assert all(w.is_zero for w in es.boundary_layers.values())
    fld = assemble_partial_sum(es, 0.3, make_direct_grid(spec, 0.3, 64, 0.9))
    assert not fld.sigma.any()
    assert all(not u.any() for u in fld.edges)
    nu, sup_nu, nu_floor = residuals(es, 0.3)
    assert not nu.any() and sup_nu == 0.0 and nu_floor == 0.0


def test_manual_chain_two_edge_single_exponent():
    """Hand-rolled recursion on the smallest degenerate star, p = 1, m = (2,).

    Only one correction exists (power 2 = 1 * m_1) and every build step can
    be written out with the public solvers; the orchestrated build must
    reproduce it bit for bit.
    """
    spec = star_spec(exponents=(0, 2), subgraphs=(0, 1), lengths=(1.0, 1.0))
    grids = make_expansion_grids(spec, 64, 0.9)
    es = build_expansion(spec, 1, grids)
    assert es.powers == (2,)
    assert set(es.vertex_layers) == {(0, 1), (2, 1)}

    spec0 = restrict_to_g0(spec)
    assert grids.g0_edge_ids == spec.graph.g0_edges() == (0,)
    assert spec0.graph.n_edges == 1 and spec0.q[0] is spec.q[0]
    U0 = solve_g0(spec0, grids.g0)
    assert np.array_equal(es.g0_base.sigma, U0.sigma)
    assert np.array_equal(es.g0_base.edges[0], U0.edges[0])

    u0 = solve_degenerate_edge(spec.q[1], spec.f[1], spec.phi[1], spec.psi[1],
                               grids.u_nodes[1], grids.times)
    assert np.array_equal(es.edge_terms[(0, 1)].values, u0.values)
    assert es.edge_terms[(1, 1)].is_zero

    theta_a = float(spec.q[1].evaluate(0.0, 0.0))
    v0 = qp_solve(QuarterPlaneProblem(theta_a, U0.sigma - u0.values[0, :]),
                  grids.layer)
    assert np.array_equal(es.vertex_layers[(0, 1)].values, v0.values)

    zero = parse("0")
    zspec = ProblemSpec(spec0.graph, spec0.q, (zero,), (zero,), (zero,),
                        (zero,), spec0.T)
    U1 = solve_g0(zspec, grids.g0, -v0.flux())
    assert np.array_equal(es.g0_corr[(1, 1)].sigma, U1.sigma)

    # q = 1 + x: theta = q(0), the single Taylor source carries -q'(0) = -1
    v2 = qp_solve(QuarterPlaneProblem(theta_a, U1.sigma - 0.0,
                                      ((-1.0, 1, v0),)), grids.layer)
    assert np.array_equal(es.vertex_layers[(2, 1)].values, v2.values)

    theta_b = float(spec.q[1].evaluate(1.0, 0.0))
    w0 = qp_solve(QuarterPlaneProblem(theta_b, 0.0 - u0.values[-1, :]),
                  grids.layer)
    assert np.array_equal(es.boundary_layers[(0, 1)].values, w0.values)
    # s = 1: trace of the zero interior term, source +q'(L) w0
    w1 = qp_solve(QuarterPlaneProblem(theta_b, np.zeros(len(grids.times)),
                                      ((1.0, 1, w0),)), grids.layer)
    assert np.array_equal(es.boundary_layers[(1, 1)].values, w1.values)


def test_assembled_node_contracts():
    spec = star_spec()
    grids = make_expansion_grids(spec, 96, 0.9)
    es = build_expansion(spec, 1, grids)
    grid = make_direct_grid(spec, 0.3, 96, 0.9)
    fld = assemble_partial_sum(es, 0.3, grid)
    for e in range(3):
        assert np.max(np.abs(fld.edges[e][0, :] - fld.sigma)) <= 1e-12
        mu = np.broadcast_to(np.asarray(
            spec.mu[e].evaluate(0.0, grid.times()), dtype=float),
            fld.sigma.shape)
        assert np.max(np.abs(fld.edges[e][-1, :] - mu)) <= 1e-12
    # the interpolant cache must not change values on a second pass
    again = assemble_partial_sum(es, 0.3, grid)
    for e in range(3):
        assert np.array_equal(fld.edges[e], again.edges[e])


def test_assembly_matches_2d_spline_oracle():
    # below MIN_EXPANSION_CELLS the direct grid has its own time steps, so
    # every term passes through both interpolation factors; the oracle
    # evaluates each term with the 2-D interpolating spline instead
    spec = star_spec()
    grids = make_expansion_grids(spec, 64, 0.9)
    es = build_expansion(spec, 1, grids)
    eps = 0.3
    grid = make_direct_grid(spec, eps, 64, 0.9)
    t, tn = grid.times(), grids.times
    assert not np.array_equal(t, tn)
    fld = assemble_partial_sum(es, eps, grid)
    g = spec.graph

    def g0_oracle(e, x):
        loc = grids.g0_edge_ids.index(e)
        xg = grids.g0.x_nodes(loc)
        out = spline_oracle(xg, tn, es.g0_base.edges[loc], x, t)
        for (r, l), U in es.g0_corr.items():
            out += eps ** (r * g.exponents[l]) * spline_oracle(
                xg, tn, U.edges[loc], x, t)
        return out

    for e in range(g.n_edges):
        x = grid.x_nodes(e)
        if g.edges[e].subgraph == 0:
            want = g0_oracle(e, x)
        else:
            m, L = g.m(e), g.edges[e].length
            want = np.zeros((len(x), len(t)))
            for (s, ee), u in es.edge_terms.items():
                if ee == e:
                    want += eps ** (s * m) * spline_oracle(u.x_nodes, tn,
                                                           u.values, x, t)
            layers = [(P, x / eps ** m, v) for (P, ee), v
                      in es.vertex_layers.items() if ee == e]
            layers += [(s * m, (L - x) / eps ** m, w) for (s, ee), w
                       in es.boundary_layers.items() if ee == e]
            for P, xi, v in layers:
                inside = xi <= grids.layer.L
                want[inside] += eps ** P * spline_oracle(
                    grids.layer.xi_nodes(), tn, zero_padded(v), xi[inside], t)
        assert np.max(np.abs(fld.edges[e] - want)) <= 1e-12
    want = g0_oracle(grids.g0_edge_ids[0], np.array([0.0]))[0]
    assert np.max(np.abs(fld.sigma - want)) <= 1e-12


@pytest.mark.parametrize("p", [0, 1, 2])
def test_series_loops_match_three_family_reference(p):
    # one loop over each edge's series gives the bits of the per-family
    # loops, sign bits included.  At p = 2 the flux sum adds the U
    # corrections by key where the family loop added them in build order,
    # (1,1), (2,1), (1,2), (2,2); that moves only the last bits
    spec = star_spec()
    es = build_expansion(spec, p, make_expansion_grids(spec, 64, 0.9))
    for eps in (0.3, 0.2):
        grid = make_direct_grid(spec, eps, 64, 0.9)
        fld = assemble_partial_sum(es, eps, grid)
        edges, sigma = assemble_reference(es, eps, grid)
        for got, want in [*zip(fld.edges, edges), (fld.sigma, sigma)]:
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        nu_samples, _, nu_floor = residuals(es, eps)
        nu = flux_sum_reference(es, eps, 1)
        if p < 2:
            assert np.array_equal(nu_samples, nu)
            assert np.array_equal(np.signbit(nu_samples), np.signbit(nu))
            floor = float(np.max(np.abs(flux_sum_reference(es, eps, 2) - nu))) / 3.0
            assert nu_floor == floor
        else:
            assert np.max(np.abs(nu_samples - nu)) <= 1e-13 * np.max(np.abs(nu))


def test_sampler_rows_of_series_terms():
    # U and u terms cover their whole edge; at eps = 0.05 the layers on the
    # m = 2 edge reach only the first rows (v) or the last rows (w, folded)
    spec = star_spec()
    es = build_expansion(spec, 0, make_expansion_grids(spec, 64, 0.9))
    eps = 0.05
    grid = make_direct_grid(spec, eps, 64, 0.9)
    t = grid.times()
    layers = []
    for e, terms in es.series.items():
        x = grid.x_nodes(e)
        for P, k, folded, term in terms:
            rows, at = sample_physical(term, eps, k, 1.0, x, t, folded)
            vals = at(slice(None))
            assert vals.shape == (rows.stop - rows.start, len(t))
            if k == 0:
                assert rows == slice(0, len(x))
            elif e == 2:
                layers.append((folded, rows, len(x)))
    assert sorted(f for f, _, _ in layers) == [False, True]
    for folded, rows, n in layers:
        assert 0 < rows.stop - rows.start < 20 < n
        assert (rows.stop == n) if folded else (rows.start == 0)


def test_assemble_guards():
    spec = star_spec()
    grids = make_expansion_grids(spec, 64, 0.9)
    es = build_expansion(spec, 0, grids)
    coarse = Grid((1.0, 1.0, 1.0), (16, 16, 16), 1.5 / 100, 100)
    with pytest.raises(GraphConfigError, match="too coarse"):
        assemble_partial_sum(es, 0.3, coarse)
    fine = Grid((1.0, 1.0, 1.0), (64, 64, 64), 1.5 / 200, 200)
    with pytest.raises(GraphConfigError, match="layers overlap"):
        assemble_partial_sum(es, 0.8, fine)
    with pytest.raises(ValueError, match="eps"):
        assemble_partial_sum(es, 1.2, fine)
    two = Grid((1.0, 1.0), (64, 64), 1.5 / 200, 200)
    with pytest.raises(GraphConfigError, match="does not match"):
        assemble_partial_sum(es, 0.3, two)


def test_all_unit_speed_graph_expansion():
    # no degenerate edges: the expansion is its own leading term and the
    # assembly must not depend on eps at all
    spec = two_edge_g0_spec(q="1", f="sin(t)*(1 + x)", phi="cos(pi*x/2)")
    grids = make_expansion_grids(spec, 64, 0.9)
    es = build_expansion(spec, 0, grids)
    assert es.powers == () and es.vertex_layers == {}
    grid = make_direct_grid(spec, 0.5, 64, 0.9)
    a = assemble_partial_sum(es, 0.3, grid)
    b = assemble_partial_sum(es, 0.6, grid)
    for e in range(2):
        assert np.array_equal(a.edges[e], b.edges[e])
    ref = direct_solve(spec, 0.5, grid)
    err = max(np.max(np.abs(a.edges[e] - ref.edges[e])) for e in range(2))
    assert err < 5e-3  # two independent discretizations of the same problem


def test_residual_report_fields():
    spec = star_spec()
    grids = make_expansion_grids(spec, 64, 0.9)
    es = build_expansion(spec, 1, grids)
    nu, sup_nu, nu_floor = residuals(es, 0.2)
    assert nu.shape == grids.times.shape
    assert type(sup_nu) is float and sup_nu == np.max(np.abs(nu))
    assert type(nu_floor) is float and sup_nu > 0.0 and nu_floor >= 0.0
    # a sweep's reports carry the flux remainder and the truncation leftover
    eps = (0.5, 0.4, 0.3)
    rep = convergence_sweep(spec, 1, eps, n_per_edge=64, expansion=es)
    trunc = truncation_leftover(es, eps)
    for x, r, want in zip(eps, rep.residual_reports, trunc):
        assert r.eps == x and r.order == 1
        nu, sup_nu, nu_floor = residuals(es, x)
        assert np.array_equal(r.nu_samples, nu)
        assert (r.sup_nu, r.nu_floor) == (sup_nu, nu_floor)
        assert type(r.sup_trunc) is float and r.sup_trunc == want > 0.0
        assert r.note == DEFECT_NOTE and "floor" in r.note
