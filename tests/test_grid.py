import numpy as np
import pytest
from scipy.interpolate import BSpline
from scipy.linalg import LinAlgError

from starwaves.errors import GraphConfigError, StabilityError
from starwaves.grid import (BAND_PAD, TIME_SLAB, LayerGrid, SeparableSpline, Term,
                            check_cfl, coarsen, make_direct_grid, make_expansion_grids,
                            time_slabs)

from .helpers import (full_height_spline, single_edge_spec, spline_blocks_reference,
                      spline_oracle, star_spec)


def test_direct_grid_even_and_cfl():
    spec = star_spec()
    grid = make_direct_grid(spec, 0.2, 100, 0.9)
    assert all(n % 2 == 0 for n in grid.n_cells)
    assert grid.steps % 2 == 0
    # dt respects the fastest-wave bound with speed sqrt(b_e)
    bounds = [grid.h(e) / s for e, s in zip(range(3), (1.0, 0.2, 0.04))]
    assert grid.dt <= 0.9 * min(bounds) * (1 + 1e-12)
    assert grid.T == pytest.approx(spec.T, rel=1e-15)


@pytest.mark.parametrize("stride", [1, 2])
def test_term_flux_needs_two_strides_of_nodes(stride):
    # the stencil reads nodes 0, s and 2 s: 2 s + 1 nodes are enough, one
    # fewer is refused with the stride and the real minimum named
    need = 2 * stride + 1
    x, t = np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 5)
    line = Term(np.outer(x[:need], 1.0 + t), x, t)  # slope 1 + t, exact
    np.testing.assert_allclose(line.flux(stride), 1.0 + t, rtol=1e-12)
    short = Term(line.values[:need - 1], x, t)
    with pytest.raises(ValueError, match=f"stride {stride} needs at least {need} "
                                         f"spatial nodes, got {need - 1}"):
        short.flux(stride)


def test_direct_grid_refines_degenerate_edges():
    spec = star_spec()
    grid = make_direct_grid(spec, 0.05, 640, 0.9)
    # h <= eps^m / 8 on the m=2 edge forces at least 3200 cells
    assert grid.n_cells[2] >= 3200
    assert grid.h(2) <= 0.05 ** 2 / 8 * (1 + 1e-12)
    assert grid.n_cells[0] == 640


def test_coarsen():
    spec = single_edge_spec()
    grid = make_direct_grid(spec, 0.5, 64, 0.9)
    c = coarsen(grid)
    assert c.n_cells[0] == grid.n_cells[0] // 2
    assert c.steps == grid.steps // 2
    assert c.dt == pytest.approx(2 * grid.dt, rel=1e-15)
    odd = type(grid)(grid.lengths, (grid.n_cells[0] - 1,), grid.dt, grid.steps)
    with pytest.raises(GraphConfigError):
        coarsen(odd)


def test_check_cfl_raises():
    spec = single_edge_spec()
    grid = make_direct_grid(spec, 0.5, 64, 0.9)
    bad = type(grid)(grid.lengths, grid.n_cells, grid.dt * 4, grid.steps)
    with pytest.raises(StabilityError):
        check_cfl(spec, 0.5, bad, 1.0)


def test_layer_grid_geometry():
    g = LayerGrid(n_xi=700, dt=0.005, steps=300)
    assert g.L == pytest.approx(3.5)
    xi = g.xi_nodes()
    assert len(xi) == 701
    assert xi[1] - xi[0] == pytest.approx(g.dt)  # unit Courant grid
    assert len(g.times()) == 301


def test_expansion_grids_share_master_time_axis():
    spec = star_spec()
    grids = make_expansion_grids(spec, 160, 0.9)
    t = grids.times
    assert np.array_equal(grids.g0.times(), t)
    assert np.array_equal(grids.layer.times(), t)
    # layer domain long enough that support never reaches the far end
    assert grids.layer.L >= spec.T + 2.0 - 1e-12
    # u-term nodes span each degenerate edge
    for e in spec.graph.gstar_edges():
        x = grids.u_nodes[e]
        assert x[0] == 0.0 and x[-1] == pytest.approx(spec.graph.edges[e].length)


def _spline_case():
    # a smooth part, and a layer-like block of exact zeros
    x_nodes = np.linspace(0.0, 1.0, 41)
    t_nodes = 0.0125 * np.arange(TIME_SLAB * 2 + 11)
    values = np.sin(3.0 * x_nodes)[:, None] * np.cos(t_nodes)[None, :]
    values[25:, :40] = 0.0
    x = np.concatenate([x_nodes[::3], np.linspace(0.0, 1.0, 57)[1:-1]])
    return SeparableSpline(x_nodes, t_nodes, values), x_nodes, t_nodes, values, np.sort(x)


def _x_factor(sp, x):
    # the x factor alone at every time node: the blocks side by side
    return BSpline(sp.knots, np.concatenate(sp.blocks, axis=1), 3)(x)


def test_spline_contiguous_time_runs_give_the_whole_columns():
    sp, _, t_nodes, _, x = _spline_case()
    whole = _x_factor(sp, x)
    at = sp.at(x)
    assert np.array_equal(at(t_nodes), whole)
    for j0, n in [(0, 1), (0, TIME_SLAB), (5, 3), (TIME_SLAB - 1, TIME_SLAB + 3),
                  (len(t_nodes) - 2, 2)]:
        got = at(t_nodes[j0:j0 + n])
        assert np.array_equal(got, whole[:, j0:j0 + n])
        assert np.array_equal(np.signbit(got), np.signbit(whole[:, j0:j0 + n]))
    assert (whole == 0.0).any() and (whole < 0.0).any()


def test_spline_slab_coefficients_are_the_stored_blocks():
    # a slab of the spline's own times reads its coefficient block in place:
    # C-contiguous, so the sparse product makes no copy of it
    sp, _, t_nodes, values, _ = _spline_case()
    slabs = time_slabs(len(t_nodes) - 1)
    assert len(sp.blocks) == len(slabs)
    for block, cols in zip(sp.blocks, slabs):
        assert block.flags.c_contiguous
        assert block.shape == (values.shape[0], cols.stop - cols.start)
        got = sp._coefficients(t_nodes[cols])
        assert got is block and np.shares_memory(got, block)
        assert np.shares_memory(got.ravel(), block)
    # a run across a block boundary is a copy of the same columns
    run = sp._coefficients(t_nodes[TIME_SLAB - 1:TIME_SLAB + 1])
    assert not any(np.shares_memory(run, b) for b in sp.blocks)
    assert np.array_equal(run, np.concatenate(sp.blocks[:2], axis=1)[:, TIME_SLAB - 1:TIME_SLAB + 1])


def test_spline_off_node_slabs_match_whole_and_fitpack():
    sp, x_nodes, t_nodes, values, x = _spline_case()
    t = np.linspace(0.0, t_nodes[-1], 150)
    assert not np.isin(t[1:-1], t_nodes).all()
    whole = sp(x, t)
    at = sp.at(x)
    for cols in time_slabs(len(t) - 1):
        got = at(t[cols])
        assert np.array_equal(got, whole[:, cols])
        assert np.array_equal(np.signbit(got), np.signbit(whole[:, cols]))
    assert np.max(np.abs(whole - spline_oracle(x_nodes, t_nodes, values, x, t))) <= 1e-12


@pytest.mark.parametrize("steps", [2, 3, 20, TIME_SLAB - 1, TIME_SLAB, TIME_SLAB + 1,
                                   TIME_SLAB + 2, 3 * TIME_SLAB + 7])
def test_time_slabs_partition_the_columns(steps):
    # plain slices [k TIME_SLAB, min((k + 1) TIME_SLAB, steps + 1)), which
    # count every column 0..steps once
    slabs = time_slabs(steps)
    assert slabs == [slice(j, min(j + TIME_SLAB, steps + 1))
                     for j in range(0, steps + 1, TIME_SLAB)]
    counted = np.zeros(steps + 1, dtype=int)
    for cols in slabs:
        assert cols.start % TIME_SLAB == 0 and 0 < cols.stop - cols.start <= TIME_SLAB
        counted[cols] += 1
    assert np.all(counted == 1)


def _front_case(n_x):
    # a front moving into zeros, one node per time step, stored like a
    # layer: the transposed view of a time-major array, Fortran-ordered
    x_nodes = np.linspace(0.0, 1.0, n_x)
    t_nodes = np.linspace(0.0, 1.0, 3 * TIME_SLAB + 11)
    W = np.zeros((len(t_nodes), n_x))
    for j in range(1, len(t_nodes)):
        W[j, :j] = np.sin(7.0 * (t_nodes[j] - x_nodes[:j])) + 0.5
    return x_nodes, t_nodes, W.T


@pytest.mark.parametrize("n_x", [41, 201, 321, 641])
def test_spline_blocks_are_make_interp_spline_cut_per_slab(n_x):
    x_nodes, t_nodes, values = _front_case(n_x)
    sp = SeparableSpline(x_nodes, t_nodes, values)
    refs = spline_blocks_reference(x_nodes, values)
    assert len(sp.blocks) == len(refs)
    cut = False
    for block, ref, cols in zip(sp.blocks, refs, time_slabs(len(t_nodes) - 1)):
        rows = np.flatnonzero(values[:, cols].any(axis=1))
        assert len(block) == min(n_x, rows[-1] + 1 + BAND_PAD)
        assert block.flags.c_contiguous
        assert np.array_equal(block, ref[:len(block)])
        if len(block) < n_x:
            cut = True
            assert np.max(np.abs(ref[len(block):])) <= 1e-30 * np.max(np.abs(ref))
    # the first slab's values end at row TIME_SLAB - 2
    assert cut == (n_x > TIME_SLAB - 1 + BAND_PAD)


def test_spline_leaves_a_layers_values_unchanged():
    # a layer's values[:, cols] is already Fortran-ordered, and the solve
    # overwrites its right-hand side
    x_nodes, t_nodes, values = _front_case(201)
    assert values.flags.f_contiguous and values[:, :TIME_SLAB].flags.f_contiguous
    before = values.copy()
    sp = SeparableSpline(x_nodes, t_nodes, values)
    assert np.array_equal(values, before)
    assert not any(np.shares_memory(b, values) for b in sp.blocks)


def test_spline_rejects_a_singular_matrix():
    # values are not checked here: every array fitted was checked where it
    # was made (build_expansion's recorder, the sweep's finite norms)
    x_nodes, t_nodes, _ = _front_case(41)
    twice = np.r_[x_nodes[:20], x_nodes[20], x_nodes[20:]]  # a node repeated
    with pytest.raises(LinAlgError, match="singular"):
        SeparableSpline(twice, t_nodes, np.ones((len(twice), len(t_nodes))))


@pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
def test_banded_sampling_matches_full_height_sampling(descending):
    # rows whose basis reaches past a block are 0, where the full spline
    # holds the decayed tail; everywhere else the products are the same
    x_nodes, t_nodes, values = _front_case(641)
    sp = SeparableSpline(x_nodes, t_nodes, values)
    x = np.linspace(0.0, 1.0, 1001)[::-1 if descending else 1]
    at = sp.at(x)
    scale = np.max(np.abs(values))
    zeroed = 0
    runs = [t_nodes[cols] for cols in time_slabs(len(t_nodes) - 1)]
    runs += [t_nodes[TIME_SLAB - 3:2 * TIME_SLAB + 5],
             np.linspace(0.0, t_nodes[-1], 150)]
    for t in runs:
        got = at(t)
        want = full_height_spline(x_nodes, t_nodes, values, x, t)
        assert np.max(np.abs(got - want)) <= 1e-30 * scale
        zeroed += np.count_nonzero((got == 0.0) & (want != 0.0))
    assert zeroed > 0
