import copy
import json
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from starwaves import expansion, harness
from starwaves.direct import Field, direct_solve
from starwaves.errors import GraphConfigError, NonFiniteError, StabilityError
from starwaves.expansion import build_expansion
from starwaves.grid import (TIME_SLAB, Grid, coarsen, make_direct_grid,
                            make_expansion_grids)
from starwaves.harness import (NORM_NOTE, ConvergenceReport, NormTriple,
                               ResidualReport, TermResidual, _layer_residual,
                               _require_finite, _series_errors, convergence_sweep, fit_order,
                               load_config, norms, term_residuals,
                               truncation_leftover, validate_config,
                               write_field_csvs, write_grid_csv, write_plot_csv,
                               write_report_csv, write_residuals_csv,
                               write_term_residuals_csv, write_trace_csv)
from starwaves.layers import qp_solve

from .helpers import (REFERENCE_CONFIG, REPO, SLAB_CASES, assemble_reference, dense,
                      flux_sum_reference, layer_residual_reference,
                      march_residual_reference, norms_reference,
                      savetxt_grid_csv, slab_case_field, star_spec, two_edge_g0_spec)
from .test_layers import MARCH_CASES, _march_case


def flat_field(lengths, n, dt, steps, value=0.0):
    grid = Grid(tuple(lengths), (n,) * len(lengths), dt, steps)
    edges = [np.full((n + 1, steps + 1), value) for _ in lengths]
    return Field(grid, edges, edges[0][0, :])


def test_norms_zero_and_constant_offset():
    f1 = flat_field((1.0, 1.0), 16, 0.05, 30, value=0.7)
    same = flat_field((1.0, 1.0), 16, 0.05, 30, value=0.7)
    z = norms(f1, same)
    assert z.linf == 0.0 and z.l2 == 0.0 and z.h1x == 0.0
    # constant offset c: linf = c, l2 = c sqrt(sum_e len_e * T), h1x = l2
    c = 0.25
    f2 = flat_field((1.0, 1.0), 16, 0.05, 30, value=0.7 + c)
    t = norms(f1, f2)
    assert t.linf == pytest.approx(c, rel=1e-14)
    assert t.l2 == pytest.approx(c * math.sqrt(2.0 * 1.5), rel=1e-13)
    assert t.h1x == pytest.approx(t.l2, rel=1e-13)


def test_norms_grid_mismatch():
    f1 = flat_field((1.0,), 16, 0.05, 30)
    f2 = flat_field((1.0,), 32, 0.05, 30)
    with pytest.raises(ValueError, match="different grids"):
        norms(f1, f2)


def interp_error(n: int) -> NormTriple:
    # smooth mode against the linear interpolant of its 2x-coarser sampling
    dt, steps = 0.05, 20
    grid = Grid((1.0,), (n,), dt, steps)
    x = grid.x_nodes(0)
    t = grid.times()
    u = np.sin(np.pi * x)[:, None] * np.cos(t)[None, :]
    xc = x[::2]
    ui = np.empty_like(u)
    for j in range(len(t)):
        ui[:, j] = np.interp(x, xc, u[::2, j])
    return norms(Field(grid, [u], u[0, :]), Field(grid, [ui], ui[0, :]))


def test_norms_resolve_interpolation_order():
    e1, e2 = interp_error(64), interp_error(128)
    assert 3.4 < e1.l2 / e2.l2 < 4.6
    assert 3.4 < e1.linf / e2.linf < 4.6
    assert e1.h1x >= e1.l2


def test_norms_see_gradient_content():
    # difference c*x: the h1x surrogate picks up the pure gradient part
    dt, steps, n = 0.05, 30, 64
    grid = Grid((1.0,), (n,), dt, steps)
    x = grid.x_nodes(0)
    base = np.zeros((n + 1, steps + 1))
    lin = 0.5 * np.broadcast_to(x[:, None], base.shape)
    t = norms(Field(grid, [base], base[0, :]), Field(grid, [lin], lin[0, :]))
    T = dt * steps
    assert t.linf == pytest.approx(0.5, rel=1e-13)
    # trapezoid quadrature of x^2 carries an h^2/6 bias, so compare loosely
    assert t.l2 == pytest.approx(0.5 * math.sqrt(T / 3), rel=3e-3)
    # the gradient of 0.5*x is exact for the second-order stencil
    assert t.h1x ** 2 - t.l2 ** 2 == pytest.approx(0.25 * T, rel=1e-12)


def test_norms_ignore_memory_layout():
    # solver fields are transposed views of time-major arrays; the norms
    # must not depend on that, bit for bit
    grid = Grid((1.0, 1.0), (40, 40), 0.025, 60)
    rng = np.random.default_rng(3)
    a, b = ([rng.standard_normal((41, 61)) for _ in range(2)] for _ in range(2))
    c_order = norms(Field(grid, a, a[0][0]), Field(grid, b, b[0][0]))
    f_order = norms(Field(grid, [np.asfortranarray(u) for u in a], a[0][0]),
                    Field(grid, [np.asfortranarray(u) for u in b], b[0][0]))
    assert f_order == c_order


def assert_norms_match(got: NormTriple, want: NormTriple) -> None:
    """Maxima bit for bit, a nan matching a nan; the slab-summed L2 and H1
    sums to 1e-13."""
    assert got.linf == want.linf or (math.isnan(got.linf) and math.isnan(want.linf))
    for a, b in ((got.l2, want.l2), (got.h1x, want.h1x)):
        if math.isnan(b):
            assert math.isnan(a)
        else:
            assert a == pytest.approx(b, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n_cells, steps, nan", SLAB_CASES)
def test_norms_match_whole_field_reference(n_cells, steps, nan):
    f1 = slab_case_field(n_cells, steps, nan)
    rng = np.random.default_rng(steps + 1)
    # F-ordered, like the solver fields
    other = [np.asfortranarray(rng.standard_normal(u.shape)) for u in f1.edges]
    f2 = Field(f1.grid, other, other[0][0])
    got = norms(f1, f2)
    want = norms_reference(f1, f2)
    assert_norms_match(got, want)
    assert math.isnan(want.l2) == nan
    # the nan edge is the largest: a max that passed over it would read finite
    assert math.isnan(got.linf) == nan


def test_fit_order_exact_power_law():
    eps = (0.4, 0.2, 0.1, 0.05)
    err = tuple(2.0 * x ** 1.5 for x in eps)
    fit = fit_order(eps, err)
    assert fit.order == pytest.approx(1.5, abs=1e-12)
    assert fit.constant == pytest.approx(2.0, rel=1e-12)
    assert fit.residual < 1e-13
    with pytest.raises(ValueError, match="at least 3"):
        fit_order((0.4, 0.2), (1.0, 0.5))
    with pytest.raises(ValueError, match="positive"):
        fit_order((0.4, 0.2, 0.1), (1.0, 0.0, 0.1))


def test_sweep_input_validation():
    spec = star_spec()
    with pytest.raises(GraphConfigError, match="at least 3"):
        convergence_sweep(spec, 0, (0.4, 0.2))
    with pytest.raises(GraphConfigError, match="decreasing"):
        convergence_sweep(spec, 0, (0.2, 0.4, 0.1))
    flat = two_edge_g0_spec()
    with pytest.raises(GraphConfigError, match="no degenerate subgraph"):
        convergence_sweep(flat, 0, (0.4, 0.2, 0.1))


SMALL_EPS = (0.6, 0.45, 0.3)


def small_spec():
    return star_spec(exponents=(0, 1), subgraphs=(0, 1, 1))


def small_sweep(cache=None, n_per_edge=48, cfl=0.9, expansion=None):
    return convergence_sweep(small_spec(), 0, SMALL_EPS, n_per_edge=n_per_edge,
                             cfl=cfl, cache=cache, expansion=expansion)


def small_key(eps, n_per_edge=48):
    """The solve cache key of small_sweep's direct solve at eps."""
    spec = small_spec()
    return (spec, eps, make_direct_grid(spec, eps, n_per_edge, 0.9))


def test_sweep_report_structure_and_determinism(tmp_path):
    rep1 = small_sweep()
    rep2 = small_sweep()
    assert rep1.p == 0 and rep1.theoretical_order == 0.5
    assert len(rep1.errors) == 3 == len(rep1.residual_reports)
    assert rep1.note == NORM_NOTE
    assert rep1.refine_estimate > 0.0
    assert rep1.fitted_order == rep2.fitted_order
    assert rep1.errors == rep2.errors
    for a, b in [(tmp_path / "r1.csv", tmp_path / "r2.csv")]:
        write_report_csv(a, rep1)
        write_report_csv(b, rep2)
        assert a.read_bytes() == b.read_bytes()
    p1 = tmp_path / "p1.csv"
    write_plot_csv(p1, rep1)
    first = p1.read_text().splitlines()
    assert first[0] == "log10_eps,log10_err_l2,fitted_log10_err_l2"
    assert len(first) == 4


def test_sweep_cache_reuse():
    # the cache is a memo of direct_solve on its arguments (spec, eps, grid):
    # all three eps share one grid, so eps alone tells their entries apart
    cache: dict = {}
    rep1 = small_sweep(cache)
    fine = [small_key(eps) for eps in SMALL_EPS]
    spec, eps_min, grid = fine[-1]
    assert set(cache) == {*fine, (spec, eps_min, coarsen(grid))}
    assert len({key[2] for key in fine}) == 1
    for key in fine:
        got, want = cache[key], direct_solve(*key)
        assert got.grid == key[2]
        assert np.array_equal(got.sigma, want.sigma)
        for u, v in zip(got.edges, want.edges):
            assert np.array_equal(u, v)
    rep2 = small_sweep(cache)
    assert rep1.errors == rep2.errors
    assert rep1.refine_estimate == rep2.refine_estimate


@pytest.mark.parametrize("foreign", ["grid", "problem"])
def test_foreign_cache_entries_are_misses(foreign):
    # entries of another grid or problem are other keys: the sweep solves
    # its own, reports as on a fresh cache and leaves the others in place
    cache: dict = {}
    if foreign == "grid":
        small_sweep(cache, n_per_edge=64)
    else:
        other = star_spec(f="cos(t)*(1 + x)", exponents=(0, 1), subgraphs=(0, 1, 1))
        convergence_sweep(other, 0, SMALL_EPS, n_per_edge=48, cache=cache)
    before = dict(cache)
    assert repr(small_sweep(cache)) == repr(small_sweep())
    assert len(cache) == 2 * len(before) == 8
    assert all(cache[key] is fld for key, fld in before.items())


def test_prefetched_sweep_equals_the_sweep_on_a_filled_cache():
    # solved on the worker thread, or on this one before the sweep: the
    # same report, bit for bit
    filled = {key: direct_solve(*key) for key in map(small_key, SMALL_EPS)}
    fresh: dict = {}
    assert repr(small_sweep(fresh)) == repr(small_sweep(filled))
    for key in map(small_key, SMALL_EPS):
        for u, v in zip(fresh[key].edges, filled[key].edges):
            assert np.array_equal(u, v)


def test_sweep_trims_the_heap_once_before_the_coarse_solve(monkeypatch):
    # the trim sits between the series' release and the coarse solve; where
    # the C library has no malloc_trim the report is the same
    calls = []
    solve = harness.direct_solve

    def recording_solve(spec, eps, grid):
        calls.append(("solve", grid))
        return solve(spec, eps, grid)
    monkeypatch.setattr(harness, "direct_solve", recording_solve)
    monkeypatch.setattr(harness, "_malloc_trim", lambda pad: calls.append(("trim", pad)))
    rep = small_sweep()
    coarse = coarsen(small_key(SMALL_EPS[-1])[2])
    assert calls[-2:] == [("trim", 0), ("solve", coarse)]
    assert [c for c in calls if c[0] == "trim"] == [("trim", 0)]
    monkeypatch.setattr(harness, "_malloc_trim", None)
    assert repr(small_sweep()) == repr(rep)


@pytest.mark.parametrize("where", ["worker", "here"])
def test_sweep_error_surfaces_with_its_type_and_leaves_no_thread(monkeypatch, where):
    # a solve failing at the second eps on the worker thread, or the build
    # failing on this one while the worker solves
    solve = harness.direct_solve

    def failing_solve(spec, eps, grid):
        if eps == 0.45:
            raise StabilityError("solve failed at eps=0.45")
        return solve(spec, eps, grid)

    def failing_build(*args, **kwargs):
        raise NonFiniteError("build failed")
    if where == "worker":
        monkeypatch.setattr(harness, "direct_solve", failing_solve)
        want = (StabilityError, "solve failed at eps=0.45")
    else:
        monkeypatch.setattr(harness, "build_expansion", failing_build)
        want = (NonFiniteError, "build failed")
    before = threading.active_count()
    cache: dict = {}
    with pytest.raises(want[0], match=want[1]):
        small_sweep(cache)
    assert threading.active_count() == before
    assert set(cache) <= {small_key(0.6)}


def test_sweep_rejects_expansion_of_another_problem():
    # an expansion carries the spec it was built for; one built for
    # another f, or to another order, must not be reused
    eps = SMALL_EPS
    a = small_spec()
    b = star_spec(f="cos(t)*(1 + x)", exponents=(0, 1), subgraphs=(0, 1, 1))
    es = build_expansion(a, 0, make_expansion_grids(a, 48, 0.9))
    with pytest.raises(GraphConfigError, match="expansion: built for another problem"):
        convergence_sweep(b, 0, eps, n_per_edge=48, expansion=es)
    with pytest.raises(GraphConfigError, match="expansion: built to order 0.*p=1"):
        convergence_sweep(a, 1, eps, n_per_edge=48, expansion=es)


def test_sweep_rejects_vanishing_errors():
    # all-zero data: series and reference agree exactly, so no rate exists
    spec = star_spec(f="0", phi="0", exponents=(0, 1), subgraphs=(0, 1, 1))
    with pytest.raises(GraphConfigError,
                       match="L2 error at eps=0.6 is 0.*no rate to verify"):
        convergence_sweep(spec, 0, (0.6, 0.45, 0.3), n_per_edge=48)


def test_sweep_rejects_expansion_on_other_grids():
    spec = star_spec(exponents=(0, 1), subgraphs=(0, 1, 1))
    es = build_expansion(spec, 0, make_expansion_grids(spec, 48, 0.8))
    with pytest.raises(GraphConfigError, match="expansion: built on other grids"):
        small_sweep(expansion=es)


def test_sweep_never_assembles_a_whole_field(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep assembled a whole field")
    monkeypatch.setattr(expansion, "assemble_partial_sum", refuse)
    monkeypatch.setattr(harness, "assemble_partial_sum", refuse)
    rep = small_sweep()
    assert rep.refine_estimate > 0.0
    assert all(r.sup_trunc > 0.0 for r in rep.residual_reports)


def test_sweep_raises_on_a_nan_error_naming_eps_and_norm():
    # np.max reduces the edge maxima, so a nan node reaches the report, and
    # the sweep stops there rather than at the positivity check
    cache: dict = {}
    small_sweep(cache)
    cache[small_key(0.45)].edges[1][5, 3] = np.nan
    with pytest.raises(NonFiniteError, match=r"^L-infinity error at eps=0.45 is nan$"):
        small_sweep(cache)


def test_term_residual_orders_in_dt():
    # doubling the cells halves dt.  u_2 misses its own equation by the
    # three-point d_t^2 error, O(dt^2).  u_0 carries f through the Simpson
    # convolution, whose first interval is a trapezoid: its O(dt^3) error,
    # over dt^2, leaves O(dt) at the first interior times (measured order
    # 1.00).  U terms and layers meet their march's update up to roundoff.
    spec = star_spec()
    got = {}
    for n in (200, 400):
        es = build_expansion(spec, 2, make_expansion_grids(spec, n, 0.9))
        got[n] = {r.key: r for r in term_residuals(es)}
        assert [r.key for r in got[n].values()] == [k for k, _ in es.build_log]
    for key, r in got[200].items():
        fine = got[400][key]
        if key[0] == "u" and key[1] % 2 == 0:
            order = np.log2(r.residual / fine.residual)
            assert (order >= 1.8) if key[1] >= 2 else (0.9 <= order <= 1.1), key
            assert fine.residual <= 2e-3 * fine.scale, key
        elif key[0] == "u":
            assert r.residual == fine.residual == 0.0 == r.scale
        else:
            assert fine.residual <= 1e-10 * fine.scale, key
            assert fine.scale > 0.0


@pytest.mark.parametrize("q", ["1 + x", "2"])
def test_layer_residuals_from_blocks_match_the_band_wide_check(q):
    # the slab-by-slab check over a layer's blocks gives the band-wide
    # check's residual to the bit, and its scale; with q = 2 the odd w_s
    # store no rows, and read 0 and 0
    spec = star_spec(q=q)
    es = build_expansion(spec, 3, make_expansion_grids(spec, 64, 0.9))
    layers = [r for r in term_residuals(es) if r.key[0] in "vw"]
    assert len(layers) == len(es.layer_problems)
    for r in layers:
        term = es.term(r.key)
        assert r.residual == layer_residual_reference(es.layer_problems[r.key], term,
                                                      es.grids.layer), r.key
        assert r.scale == float(np.max(np.abs(dense(term.values)))), r.key
    empty = [r for r in layers if es.term(r.key).values.nbytes == 0]
    assert (len(empty) > 0) == (q == "2")
    assert all(r.residual == r.scale == 0.0 for r in empty)


@pytest.mark.parametrize("n_per_edge", [64, 230])
def test_march_residuals_from_blocks_match_the_whole_array_check(n_per_edge):
    # U_0 is one array per edge, the corrections are SlabBlocks; over either
    # the slab-by-slab check gives the whole-array check's residual to the
    # bit, f read in the march's blocks, and the sup of the term.  At 230
    # cells the steps are a multiple of TIME_SLAB: the last slab is one
    # column wide
    spec = star_spec()
    grids = make_expansion_grids(spec, n_per_edge, 0.9)
    assert (grids.g0.steps % TIME_SLAB == 0) == (n_per_edge == 230)
    es = build_expansion(spec, 2, grids)
    g0 = grids.g0
    rows = [r for r in term_residuals(es) if r.key[0] == "U"]
    assert len(rows) == 1 + len(es.g0_corr) == 5
    for r in rows:
        fld = es.term(r.key)
        want = max(march_residual_reference(
            dense(u).T, g0, loc, spec.q[e].evaluate(g0.x_nodes(loc), 0.0),
            spec.f[e] if r.key[1] == 0 else None)
            for loc, (e, u) in enumerate(zip(grids.g0_edge_ids, fld.edges)))
        assert r.residual == want, r.key
        assert r.scale == max(float(np.max(np.abs(dense(u)))) for u in fld.edges) > 0.0


@pytest.mark.parametrize("name", MARCH_CASES)
def test_layer_residual_matches_the_band_wide_check_on_march_cases(name):
    # sources nonzero inside from the first step on (global-source), far
    # ahead of the front, narrower than the band, or summing to zero: the
    # slab-by-slab check, its sources summed per slab, gives the band-wide
    # check's residual to the bit
    prob, grid, initial = _march_case(name)
    term = qp_solve(prob, grid, initial=initial)
    assert _layer_residual(prob, term, grid) == layer_residual_reference(prob, term, grid)


def test_truncation_leftover_scales_one_curvature():
    # at p = 1, u_1 = 0, so the leftover is eps^(2m) d_x^2 u_0 on each
    # degenerate edge: its sup is one number times eps^2 (m = 1 dominates)
    spec = star_spec()
    es = build_expansion(spec, 1, make_expansion_grids(spec, 64, 0.9))
    eps = (0.5, 0.25, 0.125)
    got = truncation_leftover(es, eps)
    assert got[0] == pytest.approx(4.0 * got[1], rel=1e-12)
    assert got[1] == pytest.approx(4.0 * got[2], rel=1e-12)
    assert fit_order(eps, got).order == pytest.approx(2.0, abs=1e-12)


class Reached(Exception):
    pass


@pytest.mark.parametrize("n_per_edge", [8, 10, 14, 15])
def test_sweep_checks_the_coarse_grid_before_any_solve(monkeypatch, n_per_edge):
    # the refinement estimate halves the smallest eps's grid; below 15 cells
    # on the unit-speed edge its half has fewer than 8, and that must fail
    # before the first solve, naming the field to change
    def reached(*args, **kwargs):
        raise Reached
    monkeypatch.setattr(harness, "direct_solve", reached)
    monkeypatch.setattr(harness, "build_expansion", reached)
    # parity makes 15 into 16 cells, and 8 after halving
    want = (GraphConfigError, r"^grid\.n_per_edge: .*15 or more") if n_per_edge < 15 \
        else (Reached, None)
    with pytest.raises(want[0], match=want[1]):
        convergence_sweep(star_spec(), 0, (0.4, 0.3, 0.2), n_per_edge=n_per_edge)


def _assert_streamed_sweep_matches_oracles(spec, eps_list, n_per_edge, matched):
    es = build_expansion(spec, 1, make_expansion_grids(spec, n_per_edge, 0.9))
    cache: dict = {}
    rep = convergence_sweep(spec, 1, eps_list, n_per_edge, cache=cache, expansion=es)
    trunc = truncation_leftover(es, eps_list)
    keys = [(spec, eps, make_direct_grid(spec, eps, n_per_edge, 0.9)) for eps in eps_list]
    for (_, eps, grid), triple, res, sup_trunc in zip(keys, rep.errors,
                                                      rep.residual_reports, trunc):
        ref = cache[(spec, eps, grid)]
        assert np.array_equal(grid.times(), es.grids.times) == matched
        edges, sigma = assemble_reference(es, eps, grid)
        asm = Field(grid, edges, sigma)
        assert_norms_match(triple, norms_reference(ref, asm))
        assert res.sup_trunc == sup_trunc
        nu = flux_sum_reference(es, eps, 1)
        assert res.sup_nu == float(np.max(np.abs(nu)))
        assert res.nu_floor == float(np.max(np.abs(flux_sum_reference(es, eps, 2) - nu))) / 3.0
    spec, eps_min, grid_f = keys[-1]
    grid_c = coarsen(grid_f)
    ref_c, ref_f = cache[(spec, eps_min, grid_c)], cache[keys[-1]]
    sub = Field(grid_c, [u[::2, ::2] for u in ref_f.edges], ref_f.sigma[::2])
    assert rep.refine_estimate == pytest.approx(norms_reference(sub, ref_c).l2 / 3.0,
                                                rel=1e-13, abs=0.0)
    return rep


@pytest.mark.parametrize("T, n_per_edge, last", [
    (1.5, 200, 14),  # six slabs, the last one 15 columns wide
    (0.25, 200, 56),  # fewer steps than a slab
    (0.5, 227, 0),    # last slab one column wide
], ids=["several-slabs", "short", "last-one-column"])
def test_streamed_sweep_matches_whole_field_oracles_on_matched_times(T, n_per_edge, last):
    # from 200 cells per edge on, the direct grids share the expansion's
    # time array, so the terms need no t factor
    spec = star_spec(T=T)
    steps = make_expansion_grids(spec, n_per_edge, 0.9).g0.steps
    assert steps % TIME_SLAB == last
    _assert_streamed_sweep_matches_oracles(spec, (0.5, 0.4, 0.3), n_per_edge, True)


def test_streamed_sweep_matches_whole_field_oracles_on_other_times():
    rep = _assert_streamed_sweep_matches_oracles(star_spec(), (0.5, 0.4, 0.3), 64, False)
    assert rep.conclusive


@pytest.fixture(scope="module")
def series_64():
    spec = star_spec()
    return build_expansion(spec, 1, make_expansion_grids(spec, 64, 0.9))


@pytest.mark.parametrize("n_cells, steps, nan", SLAB_CASES)
def test_streamed_errors_match_whole_field_oracles_on_slab_cases(series_64, n_cells,
                                                                   steps, nan):
    # the slab partition's edge cases, on grids whose times differ from the
    # expansion's; the reference is random, with a nan in one case
    es, eps = series_64, 0.6
    ref = slab_case_field(n_cells, steps, nan)
    triple = _series_errors(es, eps, ref)
    edges, sigma = assemble_reference(es, eps, ref.grid)
    asm = Field(ref.grid, edges, sigma)
    assert_norms_match(triple, norms_reference(ref, asm))
    rep = ResidualReport(eps, 1, *expansion.residuals(es, eps), 1.0)
    if nan:
        # the nan field's errors are nan, and the sweep's check names them
        assert all(math.isnan(v) for v in (triple.linf, triple.l2, triple.h1x))
        with pytest.raises(NonFiniteError, match="L-infinity error at eps=0.6 is nan"):
            _require_finite(eps, triple, rep)
    else:
        _require_finite(eps, triple, rep)


def synthetic_report() -> ConvergenceReport:
    eps = (0.4, 0.2, 0.1)
    errors = tuple(NormTriple(2 * x, x, 1.5 * x) for x in eps)
    res = tuple(ResidualReport(x, 1, np.array([0.0, x]), x, x / 30, 2 * x)
                for x in eps)
    terms = (TermResidual(("U", 0, 0), 0.0, 1.0), TermResidual(("u", 0, 1), 1e-3, 0.5),
             TermResidual(("v", 2, 1), 2.5e-17, 1.0 / 3.0))
    return ConvergenceReport(1, eps, errors, 1.5, 2.0, 1e-15, 1.5, 0.3,
                             True, 1e-5, True, res, 2.0, 2.0, terms)


def test_report_csv_format(tmp_path):
    rep = synthetic_report()
    path = tmp_path / "report.csv"
    write_report_csv(path, rep)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "epsilon,err_linf,err_l2,err_h1x,fitted_order,theoretical_order,pass"
    assert len(lines) == 4
    cells = lines[1].split(",")
    # .17g round-trips doubles exactly
    assert float(cells[0]) == 0.4 and cells[0] == "0.40000000000000002"
    assert cells[-1] == "true"
    assert float(cells[4]) == 1.5


def test_residuals_csv_format(tmp_path):
    rep = synthetic_report()
    path = tmp_path / "residuals.csv"
    write_residuals_csv(path, rep.residual_reports)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "epsilon,sup_trunc,sup_nu,nu_floor"
    assert len(lines) == 4
    for x, line in zip(rep.epsilons, lines[1:]):
        # .17g round-trips doubles exactly
        assert [float(c) for c in line.split(",")] == [x, 2 * x, x, x / 30]
    assert lines[1].split(",")[0] == "0.40000000000000002"


def test_term_residuals_csv_format(tmp_path):
    rep = synthetic_report()
    path = tmp_path / "term_residuals.csv"
    write_term_residuals_csv(path, rep.term_residuals)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "family,k,i,residual,scale"
    assert lines[1:] == ["U,0,0,0,1", "u,0,1,0.001,0.5",
                         "v,2,1,2.4999999999999999e-17,0.33333333333333331"]


@pytest.mark.parametrize("name, write", [("residuals.csv", write_residuals_csv),
                                         ("term_residuals.csv", write_term_residuals_csv)])
def test_readme_states_the_residual_csv_headers(tmp_path, name, write):
    # the verify bullet of the README gives each header in backticks right
    # after the file name; it must be the header the writer writes
    rep = synthetic_report()
    readme = (REPO / "README.md").read_text()
    stated = re.search(rf"`{re.escape(name)}`\s*\(`([^`]+)`", readme)
    assert stated, f"README states no header for {name}"
    arg = rep.residual_reports if name == "residuals.csv" else rep.term_residuals
    write(tmp_path / name, arg)
    assert (tmp_path / name).read_text().splitlines()[0] == stated.group(1)


def test_field_and_trace_csvs(tmp_path):
    spec = two_edge_g0_spec(q="1", phi="cos(pi*x/2)")
    grid = make_direct_grid(spec, 0.5, 8, 0.9)
    fld = direct_solve(spec, 0.5, grid)
    paths = write_field_csvs(tmp_path, fld)
    assert [p.name for p in paths] == ["field_0.csv", "field_1.csv"]
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "tau,t,u"
    assert len(lines) == 1 + fld.edges[0].size
    tau0, t0, u0 = (float(c) for c in lines[1].split(","))
    assert tau0 == 0.0 and t0 == 0.0 and u0 == pytest.approx(1.0)
    trace = tmp_path / "trace.csv"
    write_trace_csv(trace, grid.times(), fld.sigma)
    tl = trace.read_text().splitlines()
    assert tl[0] == "t,sigma"
    assert len(tl) == grid.steps + 2


def test_report_csvs_golden_bytes(tmp_path):
    # the five row-written CSVs of a hand-made report and trace, byte for
    # byte: %.17g digits, -0 and subnormals, the pass flag, the key columns
    eps = (0.4, 0.2, 0.1)
    errors = (NormTriple(1.0 / 3.0, 2.5e-17, 1e300), NormTriple(-0.0, 0.1, 7.0),
              NormTriple(5e-324, 1e-3, 2.0 / 3.0))
    res = (ResidualReport(0.4, 2, np.zeros(2), 1e-300, 0.0, 1.0 / 7.0),
           ResidualReport(0.2, 2, np.zeros(2), -0.0, 3e-20, 123456789.0),
           ResidualReport(0.1, 2, np.zeros(2), 6.02e23, 1.0 / 3.0, 0.0))
    terms = (TermResidual(("U", 1, 2), 1.0 / 3.0, 0.0),
             TermResidual(("w", 4, 12), -0.0, 1e-310))
    rep = ConvergenceReport(2, eps, errors, 2.4999, 0.7, 1e-15, 2.5, 0.3, True, 1e-5,
                            False, res, 3.25, math.nan, terms)
    write_report_csv(tmp_path / "report.csv", rep)
    write_residuals_csv(tmp_path / "residuals.csv", rep.residual_reports)
    write_term_residuals_csv(tmp_path / "term_residuals.csv", rep.term_residuals)
    write_plot_csv(tmp_path / "plot.csv", rep)
    write_trace_csv(tmp_path / "trace.csv", np.array([0.0, 0.1, 1.0 / 3.0]),
                    np.array([-0.0, 1e-17, -2.5]))
    want = {
        "report.csv":
            b"epsilon,err_linf,err_l2,err_h1x,fitted_order,theoretical_order,pass\n"
            b"0.40000000000000002,0.33333333333333331,2.4999999999999999e-17,"
            b"1.0000000000000001e+300,2.4998999999999998,2.5,false\n"
            b"0.20000000000000001,-0,0.10000000000000001,7,2.4998999999999998,2.5,false\n"
            b"0.10000000000000001,4.9406564584124654e-324,0.001,0.66666666666666663,"
            b"2.4998999999999998,2.5,false\n",
        "residuals.csv":
            b"epsilon,sup_trunc,sup_nu,nu_floor\n"
            b"0.40000000000000002,0.14285714285714285,1e-300,0\n"
            b"0.20000000000000001,123456789,-0,3.0000000000000003e-20\n"
            b"0.10000000000000001,0,6.02e+23,0.33333333333333331\n",
        "term_residuals.csv":
            b"family,k,i,residual,scale\n"
            b"U,1,2,0.33333333333333331,0\n"
            b"w,4,12,-0,9.9999999999999694e-311\n",
        "plot.csv":
            b"log10_eps,log10_err_l2,fitted_log10_err_l2\n"
            b"-0.3979400086720376,-16.602059991327963,-1.1497121876649699\n"
            b"-0.69897000433601875,-1,-1.9022570738253561\n"
            b"-1,-3,-2.6548019599857429\n",
        "trace.csv":
            b"t,sigma\n0,-0\n0.10000000000000001,1.0000000000000001e-17\n"
            b"0.33333333333333331,-2.5\n",
    }
    for name, raw in want.items():
        assert (tmp_path / name).read_bytes() == raw, name


def test_grid_csv_rejects_mismatched_shapes(tmp_path):
    # rows are zipped with x, so a short or long u, or one with another
    # number of times, would write a truncated or misaligned CSV
    x, t = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 3)
    for shape in ((3, 3), (7, 3), (5, 2), (5, 4)):
        with pytest.raises(ValueError, match="do not match"):
            write_grid_csv(tmp_path / "g.csv", "x,t,u", x, t, np.zeros(shape))
    write_grid_csv(tmp_path / "g.csv", "x,t,u", x, t, np.zeros((5, 3)))
    assert len((tmp_path / "g.csv").read_text().splitlines()) == 1 + 15


def test_grid_csv_matches_savetxt_bytes(tmp_path):
    # a layer-sized array decimated the way expand writes it, with values
    # whose %.17g forms are unusual
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 4.5, 1070)
    t = np.linspace(0.0, 1.5, 2494)
    u = rng.standard_normal((len(x), len(t)))
    u *= 10.0 ** rng.integers(-300, 300, u.shape)
    special = [-0.0, 5e-324, 1.0, 1e300, np.nan, -np.inf]
    u[0, 0:60:10] = special
    u[:, 70] = 0.0
    xs, ts, us = x[::5], t[::10], u[::5, ::10]
    write_grid_csv(tmp_path / "new.csv", "xi,t,value", xs, ts, us)
    savetxt_grid_csv(tmp_path / "old.csv", "xi,t,value", xs, ts, us)
    got = (tmp_path / "new.csv").read_bytes()
    assert got == (tmp_path / "old.csv").read_bytes()
    lines = got.split(b"\n")
    assert lines[:2] == [b"xi,t,value", b"0,0,-0"]
    np.testing.assert_array_equal([float(ln.split(b",")[2]) for ln in lines[1:7]],
                                  special)


@pytest.mark.parametrize("case", ["zero prefix", "-0 in the prefix", "all zero",
                                  "no zeros", "one time"])
def test_grid_csv_zero_runs_match_savetxt_bytes(tmp_path, case):
    # a row's leading +0.0 run comes from a template; the bytes are savetxt's
    x = np.linspace(0.0, 1.0, 4)
    t = np.linspace(0.0, 0.3, 1 if case == "one time" else 7)
    u = np.arange(1.0, 1.0 + len(x) * len(t)).reshape(len(x), len(t)) / 3.0
    if case == "zero prefix":
        u[0, :3] = u[1, :1] = u[2, :6] = 0.0
        u[3, 2:4] = 0.0  # zeros after a value are formatted
    elif case == "-0 in the prefix":
        u[:, :5] = 0.0
        u[1, 2] = u[2, 0] = u[3, 4] = -0.0
    elif case == "all zero":
        u[1:3] = 0.0
        u[3, -1] = -0.0
    elif case == "one time":
        u[1:3] = 0.0
        u[2, 0] = -0.0
    write_grid_csv(tmp_path / "new.csv", "x,t,u", x, t, u)
    savetxt_grid_csv(tmp_path / "old.csv", "x,t,u", x, t, u)
    got = (tmp_path / "new.csv").read_bytes()
    assert got == (tmp_path / "old.csv").read_bytes()
    if case == "-0 in the prefix":
        assert got.count(b",-0\n") == 3


def test_field_csv_matches_savetxt_bytes(tmp_path):
    # a full direct-solve field, as solve writes it
    spec = two_edge_g0_spec(q="1", phi="cos(pi*x/2)")
    grid = make_direct_grid(spec, 0.5, 16, 0.9)
    fld = direct_solve(spec, 0.5, grid)
    for e, path in enumerate(write_field_csvs(tmp_path, fld)):
        savetxt_grid_csv(tmp_path / "old.csv", "tau,t,u", grid.x_nodes(e),
                         grid.times(), fld.edges[e])
        assert path.read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_reference_config_loads_and_validates():
    cfg = load_config(REFERENCE_CONFIG)
    run = validate_config(cfg)
    assert run.p == 1 and run.n_per_edge == 640
    assert run.cfl == 0.9 and run.margin == 0.3
    assert run.epsilons == (0.4, 0.2, 0.1, 0.05)
    assert run.spec.T == 1.5
    assert run.spec.graph.exponents == (0, 1, 2)


def test_load_config_errors(tmp_path):
    with pytest.raises(GraphConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GraphConfigError, match="not valid JSON"):
        load_config(bad)
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(GraphConfigError, match="top level"):
        load_config(lst)


@pytest.fixture()
def base_cfg():
    return json.loads(REFERENCE_CONFIG.read_text())


def reject(cfg, pattern):
    with pytest.raises(GraphConfigError, match=pattern):
        validate_config(cfg)


def test_validate_config_rejections(base_cfg):
    cases = [
        (lambda c: c.__setitem__("extra", 1), "extra: unknown key"),
        (lambda c: c["grid"].__setitem__("foo", 1), r"grid\.foo: unknown key"),
        (lambda c: c["graph"]["edges"][0].__setitem__("x", 1),
         r"graph\.edges\[0\]\.x: unknown key"),
        (lambda c: c["graph"]["edges"][0].__setitem__("length", -1),
         r"length: must be positive"),
        (lambda c: c["graph"]["edges"][1].__setitem__("subgraph", -2),
         r"subgraph: must be >= 0"),
        (lambda c: c["graph"].__setitem__("exponents", [0, 1, True]),
         r"exponents\[2\]: expected an integer"),
        (lambda c: c["graph"].__setitem__("exponents", [1, 2, 3]), "^graph: "),
        (lambda c: c["q"].__setitem__(1, "1 +"), r"q\[1\]:"),
        (lambda c: c["q"].__setitem__(0, "1 + t"), r"q\[0\]: must not depend on t"),
        (lambda c: c["phi"].__setitem__(0, "sin(t)"),
         r"phi\[0\]: must not depend on t"),
        (lambda c: c["mu"].__setitem__(2, "x"), r"mu\[2\]: must not depend on x"),
        (lambda c: c.__setitem__("mu", ["0", "0"]), r"mu: expected a list of 3"),
        (lambda c: c.__setitem__("T", -1.0), "T: must be positive"),
        (lambda c: c.__setitem__("T", math.inf), "T: expected a finite number"),
        (lambda c: c.__setitem__("T", 10 ** 400), "T: expected a finite number"),
        (lambda c: c["graph"]["edges"][1].__setitem__("length", math.inf),
         r"graph\.edges\[1\]\.length: expected a finite number"),
        (lambda c: c.__setitem__("margin", math.nan),
         "margin: expected a finite number"),
        (lambda c: c.pop("T"), "T: missing"),
        (lambda c: c.__setitem__("epsilons", [0.4, 1.5, 0.1]),
         r"epsilons\[1\]: must lie in \(0,1\)"),
        (lambda c: c.__setitem__("epsilons", "0.4"), "epsilons: expected"),
        (lambda c: c.__setitem__("epsilons", [0.4, 10 ** 400, 0.1]),
         r"epsilons\[1\]: expected a finite number"),
        (lambda c: c.__setitem__("epsilons", [0.4, "0.2", 0.1]),
         r"epsilons\[1\]: expected a number"),
        (lambda c: c.__setitem__("p", -1), "p: must be >= 0"),
        (lambda c: c.__setitem__("p", 5), "p: must be >= 0 and <= 4"),
        (lambda c: c.__setitem__("p", 1.5), "p: expected an integer"),
        (lambda c: c["grid"].__setitem__("n_per_edge", 4),
         r"n_per_edge: must be >= 8"),
        (lambda c: c["grid"].__setitem__("cfl", 1.5), r"cfl: must lie in \(0,1\]"),
        (lambda c: c.__setitem__("margin", -0.1), "margin: must be >= 0"),
        (lambda c: c.__setitem__("f", ["0", True, "0"]),
         r"f\[1\]: expected a string"),
    ]
    for mutate, pattern in cases:
        cfg = copy.deepcopy(base_cfg)
        mutate(cfg)
        reject(cfg, pattern)


# every leaf field of the reference config: its keys, the path its errors
# start with, and what kind of value it holds
CONFIG_FIELDS = (
    [(("graph", "edges", i, "length"), f"graph.edges[{i}].length", "number")
     for i in range(3)]
    + [(("graph", "edges", i, "subgraph"), f"graph.edges[{i}].subgraph", "integer")
       for i in range(3)]
    + [(("graph", "exponents", i), f"graph.exponents[{i}]", "integer") for i in range(3)]
    + [((key, i), f"{key}[{i}]", "expr")
       for key in ("q", "f", "phi", "psi", "mu") for i in range(3)]
    + [(("epsilons", i), f"epsilons[{i}]", "number") for i in range(4)]
    + [(("T",), "T", "number"), (("margin",), "margin", "number"),
       (("grid", "cfl"), "grid.cfl", "number"), (("p",), "p", "integer"),
       (("grid", "n_per_edge"), "grid.n_per_edge", "integer")]
)
_NOT_A_VALUE = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                         st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
BROKEN_VALUES = {
    "number": st.one_of(_NOT_A_VALUE, st.sampled_from([math.nan, math.inf, -math.inf,
                                                       10 ** 400])),
    "integer": st.one_of(_NOT_A_VALUE, st.floats()),
    "expr": st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                      st.lists(st.text(max_size=2), max_size=2),
                      st.sampled_from(["", "1 +", "(x", "sin(", "x $ 2", "2 * * x"])),
}


@given(st.sampled_from(CONFIG_FIELDS).flatmap(
    lambda fld: st.tuples(st.just(fld), BROKEN_VALUES[fld[2]])))
def test_validate_config_names_the_broken_field(case):
    # one field of the reference config gets a value of the wrong kind; the
    # error is a GraphConfigError whose message starts with that field's path
    (keys, path, _), value = case
    cfg = json.loads(REFERENCE_CONFIG.read_text())
    node = cfg
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    with pytest.raises(GraphConfigError) as info:
        validate_config(cfg)
    assert str(info.value).startswith(path + ": "), (path, value, str(info.value))


def test_validate_config_defaults(base_cfg):
    for key in ("epsilons", "p", "grid", "margin"):
        base_cfg.pop(key, None)
    run = validate_config(base_cfg)
    assert run.epsilons == (0.4, 0.2, 0.1, 0.05)
    assert run.p == 1 and run.n_per_edge == 640
    assert run.cfl == 0.9 and run.margin == 0.3
