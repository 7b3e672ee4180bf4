import tracemalloc

import numpy as np
import pytest

from starwaves.errors import GraphConfigError
from starwaves.grid import (TIME_SLAB, LayerGrid, SeparableSpline, Term, one_sided_diff, slabs,
                            time_slabs)
from starwaves.layers import (BAND_PAD, QuarterPlaneProblem, qp_solve, sample_physical,
                              source_slabs)

from .helpers import (dense, qp_march_reference, qp_oracle_below_characteristic, same_bits,
                      sampled, spline_oracle, zero_padded)


def wave_grid(dt: float, T: float, pad: float = 2.0) -> LayerGrid:
    steps = round(T / dt)
    return LayerGrid(n_xi=steps + round(pad / dt), dt=dt, steps=steps)


def zero_trace(grid: LayerGrid) -> np.ndarray:
    """A homogeneous Dirichlet trace on the layer time grid."""
    return np.zeros(grid.steps + 1)


def test_zero_problem_gives_zero_field():
    grid = wave_grid(0.05, 1.0)
    fld = qp_solve(QuarterPlaneProblem(theta=3.0, trace=zero_trace(grid)), grid)
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
    prob = QuarterPlaneProblem(theta=0.0, trace=zero_trace(grid), sources=((1.0, 1, ones),))
    fld = qp_solve(prob, grid)
    exact = grid.xi_nodes()[:, None] * grid.times()[None, :] ** 2 / 2
    # this synthetic source is global, so the homogeneous far end disturbs
    # its own domain of influence; compare outside it
    mask = grid.xi_nodes()[:, None] + grid.times()[None, :] <= grid.L - 1e-9
    assert np.max(np.abs((dense(fld.values) - exact)[mask])) < 1e-12


def _march_case(name):
    grid = wave_grid(0.02, 2.0)
    t, xi = grid.times(), grid.xi_nodes()
    g = np.sin(t) ** 2
    if name == "trace":
        return QuarterPlaneProblem(3.0, g), grid
    if name == "negative-theta":
        return QuarterPlaneProblem(-2.5, -g), grid
    if name == "taylor-sources":
        # solved lower-order layers as Taylor sources, chained the way
        # build_expansion chains them
        v0 = qp_solve(QuarterPlaneProblem(1.0, g), grid)
        v1 = qp_solve(QuarterPlaneProblem(1.0, np.sin(t) * t,
                                          sources=((-0.5, 1, v0),)), grid)
        prob = QuarterPlaneProblem(1.0, zero_trace(grid),
                                   sources=((-1.0, 1, v1), (0.25, 2, v0), (0.0, 3, v0)))
        return prob, grid
    if name == "global-source":
        ones = Term(np.ones((grid.n_xi + 1, grid.steps + 1)), grid.xi_nodes(), grid.times())
        prob = QuarterPlaneProblem(0.0, zero_trace(grid), sources=((1.0, 1, ones),))
        return prob, grid
    if name == "stiff-trace":
        # the largest theta acceptance gate 4 probes, driven by a trace
        return QuarterPlaneProblem(4.0, np.sin(2.0 * t) ** 2), grid
    if name == "source-ahead":
        # nonzero far ahead of the front, and only for the first steps: the
        # updated width has to jump out to it and must not shrink back
        far = np.zeros((grid.n_xi + 1, grid.steps + 1))
        far[(xi > 2.0) & (xi < 2.5), 1:6] = -1.0
        rho = Term(far, grid.xi_nodes(), grid.times())
        return QuarterPlaneProblem(-1.0, g, sources=((1.0, 1, rho),)), grid
    if name == "narrow-source":
        # a source stored on 11 xi-nodes only: the front of the trace runs
        # past its stored band, and the source must read as zero there
        near = np.zeros((11, grid.steps + 1))
        near[1:10, 1:] = np.cos(t[1:])
        rho = Term(near, grid.xi_nodes(), grid.times())
        return QuarterPlaneProblem(1.0, g, sources=((0.5, 1, rho),)), grid
    if name in ("late-trace", "late-source"):
        # a trace that starts at step 2 * TIME_SLAB - 2: the layer stores no
        # rows in slab 0 and two rows in slab 1, fewer than a flux stencil
        # needs; as a Taylor source it gives a layer empty in both
        grid = wave_grid(0.01, 2.0)
        t = grid.times()
        t0 = t[2 * TIME_SLAB - 3]
        late = QuarterPlaneProblem(1.0, np.where(t > t0, np.sin(t - t0) ** 2, 0.0))
        if name == "late-trace":
            return late, grid
        rho = qp_solve(late, grid)
        return QuarterPlaneProblem(-1.0, zero_trace(grid),
                                   sources=((0.5, 1, rho), (-0.25, 2, rho))), grid
    if name == "odd-band":
        # odd steps and odd n_xi, and a source stored on 7 xi-nodes under a
        # trace with a negative theta: every term of the update, odd widths
        grid = wave_grid(0.02, 1.98)
        t = grid.times()
        near = np.zeros((7, grid.steps + 1))
        near[1:6, 1:] = np.sin(3.0 * t[1:])
        rho = Term(near, grid.xi_nodes(), t)
        return QuarterPlaneProblem(-1.5, np.sin(t) ** 2,
                                   sources=((0.75, 1, rho),)), grid
    if name == "zero-sum-sources":
        # two sources whose blocks are nonzero only at xi = 0, where xi^r
        # makes them zero: they sum to exactly 0, so the march adds none.
        # Under a stiff theta, a trace of subnormal steps leaves -0.0 inside,
        # which an added +0.0 would turn into +0.0
        at_vertex = np.zeros((3, grid.steps + 1))
        at_vertex[0, 1:] = np.sin(t[1:])
        rho = Term(at_vertex, grid.xi_nodes(), t)
        tiny = -5e-324 * np.abs(np.random.default_rng(1).standard_normal(grid.steps + 1))
        tiny[0] = 0.0
        return QuarterPlaneProblem(1e4, tiny, sources=((1.0, 1, rho), (-2.0, 2, rho))), grid
    if name == "negative-zero-trace":
        return QuarterPlaneProblem(1.0, np.where(t > 0.5, -np.sin(t - 0.5) ** 2, -0.0)), grid
    if name in ("one-column-slab", "short"):
        # steps a multiple of TIME_SLAB, so the last slab is one column wide;
        # or fewer steps than one slab
        grid = wave_grid(0.02, 0.02 * (2 * TIME_SLAB if name == "one-column-slab" else 40))
        return QuarterPlaneProblem(2.0, np.sin(grid.times()) ** 2), grid
    if name == "subnormal-source":
        # a source that is one negative subnormal, at xi = 3 and t = 0: the
        # start level at t_1, 0.5 dt^2 S[0], holds -0.0 there, past the
        # march's first reach, which the later levels written into its row
        # must not.  Slab 0 keeps none of that -0.0: its block stops at its
        # last nonzero row, and below a block reads +0.0
        grid = wave_grid(0.02, 4.0)
        t = grid.times()
        tiny = np.zeros((grid.n_xi + 1, grid.steps + 1))
        tiny[150, 0] = -5e-324
        rho = Term(tiny, grid.xi_nodes(), t)
        return QuarterPlaneProblem(1.0, np.sin(t) ** 2, sources=((1.0, 1, rho),)), grid
    raise ValueError(name)


MARCH_CASES = ["trace", "negative-theta", "taylor-sources", "global-source", "stiff-trace",
               "source-ahead", "narrow-source", "odd-band", "late-trace", "late-source",
               "zero-sum-sources", "negative-zero-trace", "one-column-slab", "short"]


@pytest.mark.parametrize("name", MARCH_CASES)
def test_march_matches_full_width_reference(name):
    # the support-bounded, time-major march gives the full-width x-major
    # march to the bit, signs of zeros included, once its blocks are
    # zero-padded to the grid
    prob, grid = _march_case(name)
    fld = qp_solve(prob, grid)
    if name in ("global-source", "source-ahead"):
        # data nonzero across the grid, or a source far ahead of the front
        # whose own front then runs on: the band is the whole grid
        assert fld.values.shape[0] == grid.n_xi + 1
    elif name in ("narrow-source", "odd-band"):
        assert prob.sources[0][2].values.shape[0] < fld.values.shape[0] < grid.n_xi + 1
    else:
        assert fld.values.shape[0] <= grid.steps + BAND_PAD + 2 < grid.n_xi + 1
    got = zero_padded(fld)
    want = qp_march_reference(prob, grid)
    assert got.shape == want.shape == (grid.n_xi + 1, grid.steps + 1)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert same_bits(got, want)
    assert np.any(want != 0.0)


@pytest.mark.parametrize("name", [*MARCH_CASES, "subnormal-source"])
def test_blocks_stop_at_each_slab_last_nonzero_row(name):
    # one block per time slab, as tall as the slab's last nonzero row + 1
    # of the full-width march, holding its rows to the bit; what the blocks
    # hold is what is counted
    prob, grid = _march_case(name)
    fld = qp_solve(prob, grid)
    want = qp_march_reference(prob, grid)
    pairs = slabs(fld.values)
    assert [cols for cols, _ in pairs] == time_slabs(grid.steps)
    heights = []
    for cols, b in pairs:
        nonzero = np.flatnonzero(want[:, cols].any(axis=1))
        heights.append(len(b))
        assert len(b) == (nonzero[-1] + 1 if len(nonzero) else 0), cols
        assert same_bits(b, want[:len(b), cols]), cols
    assert fld.values.shape == (fld.values.rows, grid.steps + 1)
    assert fld.values.nbytes == 8 * fld.values.size == 8 * sum(heights[k] * (c.stop - c.start)
                                                              for k, (c, _) in enumerate(pairs))
    if name == "late-trace":
        assert heights[:2] == [0, 2] and heights[2] > 2
    if name == "late-source":
        assert heights[:2] == [0, 0] and heights[2] > 0


def test_empty_and_short_blocks_read_as_their_rectangle():
    # the late trace's layer: no rows in slab 0 and two in slab 1, short of
    # the 3 and 5 rows of the flux stencils.  Its flux, is_zero and source
    # sum are those of its zero-padded rectangle, to the bit
    prob, grid = _march_case("late-trace")
    fld = qp_solve(prob, grid)
    rect = dense(fld.values)
    assert [len(b) for _, b in slabs(fld.values)][:2] == [0, 2]
    assert not fld.is_zero
    for stride in (1, 2):
        assert same_bits(fld.flux(stride), one_sided_diff(rect, grid.dt, stride))
    src = QuarterPlaneProblem(0.0, zero_trace(grid), ((0.5, 1, fld), (-0.25, 2, fld)))
    xi = grid.xi_nodes()[:len(rect)]
    want = np.zeros((grid.steps + 1, len(rect)))
    for c, r, _ in src.sources:
        want += (c * xi ** r) * rect.T
    got = np.zeros_like(want)
    sums = list(source_slabs(src, grid))
    assert [len(S[0]) for S in sums[:3]] == [0, 2, len(slabs(fld.values)[2][1])]
    for cols, S in zip(time_slabs(grid.steps), sums, strict=True):
        got[cols, :S.shape[1]] = S
    assert same_bits(got, want)
    # a layer with no rows in any slab
    zero = qp_solve(QuarterPlaneProblem(1.0, zero_trace(grid)), grid)
    assert all(len(b) == 0 for _, b in slabs(zero.values))
    assert zero.is_zero and zero.values.nbytes == 0 and zero.values.shape[0] > 5
    for stride in (1, 2):
        assert same_bits(zero.flux(stride), one_sided_diff(dense(zero.values), grid.dt, stride))
    assert source_slabs(QuarterPlaneProblem(0.0, zero_trace(grid), ((1.0, 1, zero),)),
                        grid) is None


def test_march_holds_one_slab_buffer_beyond_its_blocks():
    # a trace-driven layer whose band is 8.2 buffers of TIME_SLAB + 2 time
    # levels; the march allocates nothing band-wide, so its tracemalloc
    # peak is the blocks it returns plus about one buffer (1.03 buffers
    # measured).  A global source would add its per-slab sums
    grid = wave_grid(1.0 / 800.0, 1.5)
    buffer = 8 * (TIME_SLAB + 2) * (grid.n_xi + 1)
    trace = np.sin(3.0 * grid.times()) ** 2
    tracemalloc.start()
    try:
        fld = qp_solve(QuarterPlaneProblem(4.0, trace), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, cols = fld.values.shape
    assert cols == grid.steps + 1 and rows < grid.n_xi + 1
    assert 8 * rows * cols >= 4 * buffer
    assert peak - fld.values.nbytes <= 2 * buffer


def test_source_validation():
    grid = wave_grid(0.05, 1.0)
    other = wave_grid(0.025, 1.0)
    ones = Term(np.ones((other.n_xi + 1, other.steps + 1)), other.xi_nodes(), other.times())
    with pytest.raises(GraphConfigError, match="share the target grid"):
        qp_solve(QuarterPlaneProblem(0.0, zero_trace(grid), sources=((1.0, 1, ones),)), grid)
    ok = Term(np.ones((grid.n_xi + 1, grid.steps + 1)), grid.xi_nodes(), grid.times())
    with pytest.raises(GraphConfigError, match="powers start at 1"):
        qp_solve(QuarterPlaneProblem(0.0, zero_trace(grid), sources=((1.0, 0, ok),)), grid)


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
        qp_solve(QuarterPlaneProblem(0.0, zero_trace(grid)), grid)


def test_positive_theta_stays_bounded():
    # stiff zero-order term, long run: time averaging keeps it stable at
    # unit Courant
    grid = wave_grid(0.02, 4.0)
    g = np.sin(grid.times()) ** 2
    fld = qp_solve(QuarterPlaneProblem(theta=400.0, trace=g), grid)
    assert np.max(np.abs(dense(fld.values))) < 5.0


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
    # probe points go out to s = 3, so pad well past the layer grid's minimum
    grid = wave_grid(dt, 0.5, pad=3.5)
    xi = grid.xi_nodes()
    fld = Term(qp_march_reference(QuarterPlaneProblem(theta, zero_trace(grid)), grid,
                                  initial=(np.sin(xi), 0.5 * np.cos(xi))),
               xi, grid.times())
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
    rows = fld.values.shape[0]
    assert rows < grid.n_xi + 1
    whole = SeparableSpline(grid.xi_nodes(), grid.times(), zero_padded(fld))
    eps = 0.5
    xi = np.linspace(0.0, grid.L, 1601)
    times = grid.times() if axis == "shared" else np.linspace(0.0, 2.0, 37)
    got = sampled(fld, eps, 1, 0.0, eps * xi, times)
    want = whole.at(xi, times)(slice(None))
    near = xi <= grid.steps * grid.dt + BAND_PAD // 2 * grid.dt
    assert np.array_equal(got[near], want[near])
    assert np.array_equal(np.signbit(got[near]), np.signbit(want[near]))
    scale = np.max(np.abs(want))
    assert scale > 0.1
    assert np.max(np.abs(got - want)) <= 1e-30 * scale
    assert not got[xi > grid.dt * (rows - 1)].any()
