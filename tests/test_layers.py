import numpy as np
import pytest

from starwaves.errors import GraphConfigError
from starwaves.grid import LayerGrid, SeparableSpline, Term
from starwaves.layers import (BAND_PAD, QuarterPlaneProblem,
                              qp_oracle_below_characteristic, qp_solve,
                              sample_physical)

from .helpers import qp_march_reference, sampled, spline_oracle, zero_padded


def wave_grid(dt: float, T: float, pad: float = 2.0) -> LayerGrid:
    steps = round(T / dt)
    return LayerGrid(n_xi=steps + round(pad / dt), dt=dt, steps=steps)


def test_zero_problem_gives_zero_field():
    grid = wave_grid(0.05, 1.0)
    fld = qp_solve(QuarterPlaneProblem(theta=3.0, trace=None), grid)
    assert fld.is_zero
    assert zero_padded(fld).shape == (grid.n_xi + 1, grid.steps + 1)


def test_unit_courant_transport_is_exact():
    # theta = 0: the scheme reproduces v = g(t - xi) to roundoff and the
    # numerical support never runs ahead of the front
    grid = wave_grid(0.01, 2.0)
    t = grid.times()
    g = np.sin(t) ** 2
    fld = qp_solve(QuarterPlaneProblem(theta=0.0, trace=g), grid)
    n, M = grid.n_xi, grid.steps
    diff = np.arange(M + 1)[None, :] - np.arange(n + 1)[:, None]
    exact = np.where(diff >= 0, g[diff.clip(0, M)], 0.0)
    vals = zero_padded(fld)
    assert np.max(np.abs(vals - exact)) < 1e-13
    ahead = diff < 0
    assert np.all(vals[ahead] == 0.0)


def test_source_term_closed_form():
    # S = xi with theta = 0 and rest data: v = xi t^2 / 2, exact for the
    # scheme including its startup half-step
    grid = wave_grid(0.02, 2.0)
    ones = Term(np.ones((grid.n_xi + 1, grid.steps + 1)), grid.xi_nodes(), grid.times())
    prob = QuarterPlaneProblem(theta=0.0, trace=None, sources=((1.0, 1, ones),))
    fld = qp_solve(prob, grid)
    exact = grid.xi_nodes()[:, None] * grid.times()[None, :] ** 2 / 2
    # this synthetic source is global, so the homogeneous far end disturbs
    # its own domain of influence; compare outside it
    mask = grid.xi_nodes()[:, None] + grid.times()[None, :] <= grid.L - 1e-9
    assert np.max(np.abs((fld.values - exact)[mask])) < 1e-12


def _march_case(name):
    grid = wave_grid(0.02, 2.0)
    t, xi = grid.times(), grid.xi_nodes()
    g = np.sin(t) ** 2
    if name == "trace":
        return QuarterPlaneProblem(3.0, g), grid, None
    if name == "negative-theta":
        return QuarterPlaneProblem(-2.5, -g), grid, None
    if name == "taylor-sources":
        # solved lower-order layers as Taylor sources, chained the way
        # build_expansion chains them
        v0 = qp_solve(QuarterPlaneProblem(1.0, g), grid)
        v1 = qp_solve(QuarterPlaneProblem(1.0, np.sin(t) * t,
                                          sources=((-0.5, 1, v0),)), grid)
        prob = QuarterPlaneProblem(1.0, None, sources=((-1.0, 1, v1), (0.25, 2, v0),
                                                        (0.0, 3, v0)))
        return prob, grid, None
    if name == "global-source":
        ones = Term(np.ones((grid.n_xi + 1, grid.steps + 1)), grid.xi_nodes(), grid.times())
        return QuarterPlaneProblem(0.0, None, sources=((1.0, 1, ones),)), grid, None
    if name == "initial":
        return QuarterPlaneProblem(4.0, None), grid, (np.sin(xi), 0.5 * np.cos(xi))
    if name == "source-ahead":
        # nonzero far ahead of the front, and only for the first steps: the
        # updated width has to jump out to it and must not shrink back
        far = np.zeros((grid.n_xi + 1, grid.steps + 1))
        far[(xi > 2.0) & (xi < 2.5), 1:6] = -1.0
        rho = Term(far, grid.xi_nodes(), grid.times())
        return QuarterPlaneProblem(-1.0, g, sources=((1.0, 1, rho),)), grid, None
    if name == "narrow-source":
        # a source stored on 11 xi-nodes only: the front of the trace runs
        # past its stored band, and the source must read as zero there
        near = np.zeros((11, grid.steps + 1))
        near[1:10, 1:] = np.cos(t[1:])
        rho = Term(near, grid.xi_nodes(), grid.times())
        return QuarterPlaneProblem(1.0, g, sources=((0.5, 1, rho),)), grid, None
    if name == "odd-band":
        # odd steps and odd n_xi, and a source stored on 7 xi-nodes under a
        # trace with a negative theta: every term of the update, odd widths
        grid = wave_grid(0.02, 1.98)
        t = grid.times()
        near = np.zeros((7, grid.steps + 1))
        near[1:6, 1:] = np.sin(3.0 * t[1:])
        rho = Term(near, grid.xi_nodes(), t)
        return QuarterPlaneProblem(-1.5, np.sin(t) ** 2,
                                   sources=((0.75, 1, rho),)), grid, None
    raise ValueError(name)


@pytest.mark.parametrize("name", ["trace", "negative-theta", "taylor-sources",
                                  "global-source", "initial", "source-ahead",
                                  "narrow-source", "odd-band"])
def test_march_matches_full_width_reference(name):
    # the support-bounded, time-major march gives the full-width x-major
    # march to the bit, signs of zeros included, once its band is
    # zero-padded to the grid
    prob, grid, initial = _march_case(name)
    fld = qp_solve(prob, grid, initial=initial)
    if name in ("global-source", "initial", "source-ahead"):
        # data nonzero across the grid, or a source far ahead of the front
        # whose own front then runs on: the band is the whole grid
        assert len(fld.values) == grid.n_xi + 1
    elif name in ("narrow-source", "odd-band"):
        assert len(prob.sources[0][2].values) < len(fld.values) < grid.n_xi + 1
    else:
        assert len(fld.values) <= grid.steps + BAND_PAD + 2 < grid.n_xi + 1
    got = zero_padded(fld)
    want = qp_march_reference(prob, grid, initial=initial)
    assert got.shape == want.shape == (grid.n_xi + 1, grid.steps + 1)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.any(want != 0.0)


def test_source_validation():
    grid = wave_grid(0.05, 1.0)
    other = wave_grid(0.025, 1.0)
    ones = Term(np.ones((other.n_xi + 1, other.steps + 1)), other.xi_nodes(), other.times())
    with pytest.raises(GraphConfigError, match="share the target grid"):
        qp_solve(QuarterPlaneProblem(0.0, None, sources=((1.0, 1, ones),)), grid)
    ok = Term(np.ones((grid.n_xi + 1, grid.steps + 1)), grid.xi_nodes(), grid.times())
    with pytest.raises(GraphConfigError, match="powers start at 1"):
        qp_solve(QuarterPlaneProblem(0.0, None, sources=((1.0, 0, ok),)), grid)


def test_trace_checks():
    grid = wave_grid(0.05, 1.0)
    bad = np.ones(grid.steps + 1)
    with pytest.raises(GraphConfigError, match="does not vanish at t=0"):
        qp_solve(QuarterPlaneProblem(1.0, bad, label="w0"), grid)
    short = np.zeros(grid.steps)
    with pytest.raises(GraphConfigError, match="layer time grid"):
        qp_solve(QuarterPlaneProblem(1.0, short), grid)


def test_grid_too_short_rejected():
    grid = LayerGrid(n_xi=100, dt=0.01, steps=100)  # L = 1 < T + 2
    with pytest.raises(GraphConfigError, match="too short"):
        qp_solve(QuarterPlaneProblem(0.0, None), grid)


def test_positive_theta_stays_bounded():
    # stiff zero-order term, long run: time averaging keeps it stable at
    # unit Courant
    grid = wave_grid(0.02, 4.0)
    g = np.sin(grid.times()) ** 2
    fld = qp_solve(QuarterPlaneProblem(theta=400.0, trace=g), grid)
    assert np.max(np.abs(fld.values)) < 5.0


def test_self_convergence_second_order():
    errs = []
    solves = []
    for k in range(3):
        dt = 0.01 / 2 ** k
        grid = wave_grid(dt, 1.0)
        g = np.sin(grid.times()) ** 2
        solves.append(zero_padded(qp_solve(QuarterPlaneProblem(2.0, g), grid)))
    # successive differences on the common coarse nodes drop ~4x
    for k in range(2):
        a, b = solves[k], solves[k + 1]
        errs.append(np.max(np.abs(a[:200, :] - b[::2, ::2][:200, :])))
    assert 3.3 < errs[0] / errs[1] < 4.8


def test_boundary_flux_quadratic_exact():
    grid = wave_grid(0.02, 2.0)
    xi = grid.xi_nodes()[:, None]
    t = grid.times()[None, :]
    fld = Term(np.maximum(t - xi, 0.0) ** 2, grid.xi_nodes(), grid.times())
    flux = fld.flux()
    tv = grid.times()
    # the stencil spans [0, 2h]; exact once the kink has cleared it
    sl = tv >= 2 * grid.dt
    assert np.max(np.abs(flux[sl] + 2 * tv[sl])) < 1e-10
    flux2 = fld.flux(stride=2)
    sl2 = tv >= 4 * grid.dt
    assert np.max(np.abs(flux2[sl2] + 2 * tv[sl2])) < 1e-10
    tiny_grid = LayerGrid(n_xi=2, dt=0.1, steps=3)
    tiny = Term(np.zeros((3, 4)), tiny_grid.xi_nodes(), tiny_grid.times())
    with pytest.raises(ValueError):
        tiny.flux(stride=2)


def test_oracle_closed_forms():
    # theta = 0, alpha = sin: plain d'Alembert
    val = qp_oracle_below_characteristic(0.0, np.sin, lambda y: 0.0, 2.0, 0.7)
    assert val == pytest.approx(np.sin(2.0) * np.cos(0.7), abs=1e-10)
    # theta = 0, beta = 1: v = t
    val = qp_oracle_below_characteristic(0.0, lambda y: 0.0, lambda y: 1.0, 2.0, 0.7)
    assert val == pytest.approx(0.7, abs=1e-10)
    # constant profile reduces to the oscillator v = 3 cos(sqrt(2) t)
    val = qp_oracle_below_characteristic(2.0, lambda y: 3.0, lambda y: 0.0, 2.0, 0.9)
    assert val == pytest.approx(3.0 * np.cos(np.sqrt(2.0) * 0.9), abs=1e-8)
    # sin profile shifts the frequency: v = sin(s) cos(sqrt(2) t)
    val = qp_oracle_below_characteristic(1.0, np.sin, lambda y: 0.0, 2.0, 0.8)
    assert val == pytest.approx(np.sin(2.0) * np.cos(np.sqrt(2.0) * 0.8), abs=1e-8)
    # theta = -1 cancels the sin profile's dispersion: v stays sin(s)
    val = qp_oracle_below_characteristic(-1.0, np.sin, lambda y: 0.0, 1.5, 0.7)
    assert val == pytest.approx(np.sin(1.5), abs=1e-8)
    with pytest.raises(ValueError, match="s - t > 0"):
        qp_oracle_below_characteristic(1.0, np.sin, np.cos, 0.5, 0.5)


def test_scheme_matches_oracle_initial_mode():
    theta = 4.0
    dt = 1.0 / 1600.0
    # probe points go out to s = 3, so pad well past the qp_solve minimum
    grid = wave_grid(dt, 0.5, pad=3.5)
    xi = grid.xi_nodes()
    fld = qp_solve(QuarterPlaneProblem(theta, None), grid,
                   initial=(np.sin(xi), 0.5 * np.cos(xi)))
    for s, t in [(1.0, 0.25), (2.0, 0.5), (3.0, 0.4)]:
        want = qp_oracle_below_characteristic(
            theta, np.sin, lambda y: 0.5 * np.cos(y), s, t)
        # m = 0 makes the fast coordinate the arclength itself
        got = sampled(fld, 0.5, 0, grid.L, [s], [t])[0, 0]
        assert got == pytest.approx(want, abs=1e-4)


def analytic_field() -> Term:
    grid = LayerGrid(n_xi=200, dt=0.02, steps=100)  # L = 4, T = 2
    vals = np.exp(-grid.xi_nodes())[:, None] * np.sin(grid.times())[None, :]
    return Term(vals, grid.xi_nodes(), grid.times())


def test_sample_physical_center_and_folded():
    fld = analytic_field()
    got = sampled(fld, eps=0.5, m=1, edge_length=1.0, taus=[0.3], times=[0.77])
    assert got[0, 0] == pytest.approx(np.exp(-0.6) * np.sin(0.77), abs=1e-5)
    got = sampled(fld, 0.5, 1, 1.0, [0.3], [0.77], folded=True)
    assert got[0, 0] == pytest.approx(np.exp(-1.4) * np.sin(0.77), abs=1e-5)
    # eps^-m stretches past the grid: support property gives zero
    assert sampled(fld, 0.5, 2, 2.0, [1.5], [0.5])[0, 0] == 0.0


def test_sample_physical_out_of_range_raises():
    # a tau off the edge on the layer's side, or a time outside [0, T], used
    # to come back as a spline extrapolation (0.850 and -1.463 here)
    fld = analytic_field()  # T = 2
    with pytest.raises(ValueError, match="off the edge"):
        sample_physical(fld, 0.5, 1, 1.0, [-0.1], [0.77])
    with pytest.raises(ValueError, match="off the edge"):
        sample_physical(fld, 0.5, 1, 1.0, [1.1], [0.77], folded=True)
    with pytest.raises(ValueError, match="off the edge"):
        sample_physical(fld, 0.5, 1, 1.0, [0.3, np.nan], [0.77])
    for t in (5.0, -0.01, np.nan):
        with pytest.raises(ValueError, match="times must lie in"):
            sample_physical(fld, 0.5, 1, 1.0, [0.3], [0.77, t])
    # roundoff at the ends is not misuse
    T = fld.times[-1]
    rows, at = sample_physical(fld, 0.5, 1, 1.0, [-1e-14, 0.0], [0.0, T * (1 + 1e-15)])
    got = at(slice(None))
    assert rows == slice(0, 2) and np.all(np.isfinite(got))


def test_sample_physical_rejects_descending_taus():
    # the points within a term's rows are a prefix of ascending taus, or a
    # suffix when folded; any other order has no such slice
    fld = analytic_field()
    for folded in (False, True):
        with pytest.raises(ValueError, match="ascending"):
            sample_physical(fld, 0.5, 1, 1.0, [0.5, 0.3], [0.77], folded)
    rows, at = sample_physical(fld, 0.5, 1, 1.0, [0.3, 0.3, 0.5], [0.77])
    got = at(slice(None))
    assert rows == slice(0, 3) and got[0, 0] == got[1, 0]


def test_sample_physical_matches_pointwise():
    fld = analytic_field()
    taus = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    times = np.array([0.3, 0.9, 1.4])
    for folded in (False, True):
        got = sampled(fld, 0.5, 2, 2.0, taus, times, folded=folded)
        want = np.array([[sampled(fld, 0.5, 2, 2.0, [tau], [t], folded)[0, 0]
                          for t in times] for tau in taus])
        np.testing.assert_allclose(got, want, atol=1e-12)
    # folded: taus near the center map past L and must come back zero
    rows, at = sample_physical(fld, 0.5, 2, 2.0, taus, times, folded=True)
    got = at(slice(None))
    assert rows == slice(2, 5) and np.all(got != 0.0)


def test_sample_physical_all_outside():
    fld = analytic_field()
    rows, at = sample_physical(fld, 0.5, 2, 8.0, np.array([7.5, 8.0]),
                               np.array([0.5]), folded=False)
    got = at(slice(None))
    assert rows == slice(0, 0) and got.shape == (0, 1)


@pytest.mark.parametrize("folded", [False, True])
@pytest.mark.parametrize("axis", ["shared", "differing"])
def test_sample_physical_matches_2d_spline_oracle(folded, axis):
    # a solved layer, sampled the way assembly samples it; the 2-D
    # interpolating spline is the oracle for the separable evaluation
    grid = wave_grid(0.02, 2.0)
    g = np.sin(grid.times()) ** 2
    fld = qp_solve(QuarterPlaneProblem(theta=2.0, trace=g), grid)
    eps, m, length = 0.5, 1, 3.0
    taus = np.linspace(0.0, length, 97)
    times = grid.times() if axis == "shared" else np.linspace(0.0, 2.0, 37)
    got = sampled(fld, eps, m, length, taus, times, folded=folded)
    xi = (length - taus if folded else taus) / eps ** m
    inside = xi <= grid.L
    assert 0 < inside.sum() < len(taus)
    want = np.zeros_like(got)
    want[inside] = spline_oracle(grid.xi_nodes(), grid.times(), zero_padded(fld),
                                 xi[inside], times)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(got)) > 0.1


@pytest.mark.parametrize("axis", ["shared", "differing"])
def test_band_spline_matches_whole_grid_spline(axis):
    """The spline on a layer's band is the spline on the whole layer grid.

    Past its front a layer is zero, and a cubic spline's response to the
    jump at the front decays by 2 - sqrt(3) per node (de Boor, A Practical
    Guide to Splines, 1978).  So where the band is cut, BAND_PAD nodes past
    the widest reach, the whole-grid spline is down to about 1e-36 of the
    layer's scale, and cutting there moves nothing within half a pad of the
    front: those samples are the same bits.  Further out both splines are
    below 1e-30 of the scale, and past the band the sample is exactly zero.
    """
    grid = wave_grid(0.02, 2.0)
    g = np.sin(grid.times()) ** 2
    fld = qp_solve(QuarterPlaneProblem(theta=2.0, trace=g), grid)
    rows = len(fld.values)
    assert rows < grid.n_xi + 1
    whole = SeparableSpline(grid.xi_nodes(), grid.times(), zero_padded(fld))
    eps = 0.5
    xi = np.linspace(0.0, grid.L, 1601)
    times = grid.times() if axis == "shared" else np.linspace(0.0, 2.0, 37)
    got = sampled(fld, eps, 1, 0.0, eps * xi, times)
    want = whole(xi, times)
    near = xi <= grid.steps * grid.dt + BAND_PAD // 2 * grid.dt
    assert np.array_equal(got[near], want[near])
    assert np.array_equal(np.signbit(got[near]), np.signbit(want[near]))
    scale = np.max(np.abs(want))
    assert scale > 0.1
    assert np.max(np.abs(got - want)) <= 1e-30 * scale
    assert not got[xi > grid.dt * (rows - 1)].any()
