import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline, make_interp_spline
from scipy.linalg import LinAlgError

from starwaves import grid as grid_module
from starwaves.errors import GraphConfigError, StabilityError
from starwaves.expansion import build_expansion, partial_sum_columns
from starwaves.grid import (BAND_PAD, TIME_SLAB, LayerGrid, SeparableSpline, SlabBlocks, Term,
                            check_cfl, coarsen, make_direct_grid, make_expansion_grids,
                            physical_memory, slabs, time_slabs)
from starwaves.harness import load_config, validate_config

from .helpers import (REFERENCE_CONFIG, design_matrix_basis, full_height_spline,
                      make_interp_spline_at, same_bits, single_edge_spec,
                      spline_blocks_reference, spline_oracle, star_spec)


def test_direct_grid_even_and_cfl():
    spec = star_spec()
    grid = make_direct_grid(spec, 0.2, 100, 0.9)
    assert all(n % 2 == 0 for n in grid.n_cells)
    assert grid.steps % 2 == 0
    # dt respects the fastest-wave bound with speed sqrt(b_e)
    bounds = [grid.h(e) / s for e, s in zip(range(3), (1.0, 0.2, 0.04))]
    assert grid.dt <= 0.9 * min(bounds) * (1 + 1e-12)
    assert grid.dt * grid.steps == pytest.approx(spec.T, rel=1e-15)
    # both grid builders refuse a Courant number outside (0, 1] alike
    for cfl in (0.0, 1.5, float("nan")):
        for build in (lambda: make_direct_grid(spec, 0.2, 100, cfl),
                      lambda: make_expansion_grids(spec, 100, cfl)):
            with pytest.raises(GraphConfigError, match=r"^grid\.cfl: must lie in \(0,1\]$"):
                build()


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


def test_term_rows_and_zero_blocks_read_as_their_rectangle():
    # Term.row reads a row slab by slab, zero where a block stops above it,
    # as an array's row; SlabBlocks.zeros, a zero term, stores no rows
    x, t = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 2.0, 2 * TIME_SLAB + 2)
    a = np.random.default_rng(3).standard_normal((9, len(t)))
    a[5:, :TIME_SLAB] = 0.0
    a[2:, TIME_SLAB:] = 0.0
    a[:, 2 * TIME_SLAB:] = 0.0
    cut = Term(SlabBlocks.cut(a), x, t)
    assert [len(b) for _, b in slabs(cut.values)] == [5, 2, 0]
    for i in (0, 1, 2, 4, 5, 8, -1, -9):
        assert same_bits(cut.row(i), a[i]) and same_bits(Term(a, x, t).row(i), a[i])
    for i in (9, -10):
        with pytest.raises(IndexError):
            cut.row(i)
    zero = Term(SlabBlocks.zeros((9, len(t))), x, t)
    assert zero.values.shape == (9, len(t)) and zero.values.nbytes == zero.values.size == 0
    assert [cols for cols, _ in slabs(zero.values)] == time_slabs(len(t) - 1)
    assert zero.is_zero
    assert same_bits(-zero.row(-1), np.full(len(t), -0.0))
    assert same_bits(zero.flux(), np.zeros(len(t)))


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


def test_grids_past_physical_memory_are_refused(monkeypatch):
    # the memory probe is patched: no test builds a grid that large.  A
    # grid one of whose arrays would not fit is refused, naming the
    # resolution field, before any array is made; one that fits to the
    # byte is built as before
    assert physical_memory() > 0
    spec = star_spec()
    grid = make_direct_grid(spec, 0.2, 64, 0.9)
    field = 8 * (grid.steps + 1) * sum(n + 1 for n in grid.n_cells)
    grids = make_expansion_grids(spec, 64, 0.9)
    rect = 8 * (grids.layer.steps + 1) * (grids.layer.n_xi + 1)
    unit = 8 * (grids.g0.steps + 1) * (grids.g0.n_cells[0] + 1)
    assert field < unit < rect
    for mem in (field - 1, field, unit - 1, unit, rect - 1, rect, None):
        monkeypatch.setattr(grid_module, "physical_memory", lambda: mem)
        if mem is None or mem >= field:
            assert make_direct_grid(spec, 0.2, 64, 0.9) == grid
        else:
            with pytest.raises(GraphConfigError, match=(
                    r"^grid.n_per_edge: a field of the direct grid at eps=0.2 has "
                    rf"{field // 8} nodes, [0-9.e-]+ GiB, more than the [0-9.e-]+ GiB "
                    r"of physical memory$")):
                make_direct_grid(spec, 0.2, 64, 0.9)
        if mem is None or mem >= rect:
            again = make_expansion_grids(spec, 64, 0.9)
            assert (again.g0, again.layer) == (grids.g0, grids.layer)
        else:
            what = "the unit-speed field of the series" if mem < unit else \
                "a layer's band rectangle"
            with pytest.raises(GraphConfigError, match=rf"^grid.n_per_edge: {what} has "):
                make_expansion_grids(spec, 64, 0.9)


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
    columns = sp.at(x, t_nodes)
    assert np.array_equal(columns(slice(None)), whole)
    for j0, n in [(0, 1), (0, TIME_SLAB), (5, 3), (TIME_SLAB - 1, TIME_SLAB + 3),
                  (len(t_nodes) - 2, 2)]:
        got = columns(slice(j0, j0 + n))
        assert np.array_equal(got, whole[:, j0:j0 + n])
        assert np.array_equal(np.signbit(got), np.signbit(whole[:, j0:j0 + n]))
    assert (whole == 0.0).any() and (whole < 0.0).any()
    with pytest.raises(ValueError, match="step 1"):
        columns(slice(0, TIME_SLAB, 2))


def test_spline_slab_coefficients_are_the_stored_blocks():
    # a slab of the spline's own times reads its C-contiguous coefficient
    # block, and the CSC product keeps the CSR product's bits in every row
    sp, _, t_nodes, values, x = _spline_case()
    slabs = time_slabs(len(t_nodes) - 1)
    assert len(sp.blocks) == len(slabs)
    columns = sp.at(x, t_nodes)
    csr = BSpline.design_matrix(x, sp.knots, 3, extrapolate=True)
    assert csr.format == "csr"
    for block, cols in zip(sp.blocks, slabs):
        assert block.flags.c_contiguous
        assert block.shape == (values.shape[0], cols.stop - cols.start)
        got = columns(cols)
        assert np.array_equal(got, csr @ block)
        assert np.array_equal(np.signbit(got), np.signbit(csr @ block))


def test_spline_multi_slab_run_is_its_slabs_side_by_side():
    # a run of several slabs, or of parts of them, is bit for bit the
    # columns of each slab asked for alone
    x_nodes, t_nodes, values = _front_case(641)
    sp = SeparableSpline(x_nodes, t_nodes, values)
    x = np.linspace(0.0, 1.0, 1001)
    columns = sp.at(x, t_nodes)
    slabs = time_slabs(len(t_nodes) - 1)
    assert len({len(b) for b in sp.blocks}) == len(slabs)  # every block its own height
    side_by_side = np.concatenate([columns(cols) for cols in slabs], axis=1)
    for cols in [slice(None), slice(0, 2 * TIME_SLAB), slice(TIME_SLAB, None),
                 slice(TIME_SLAB - 3, 2 * TIME_SLAB + 5)]:
        got = columns(cols)
        assert np.array_equal(got, side_by_side[:, cols])
        assert np.array_equal(np.signbit(got), np.signbit(side_by_side[:, cols]))


def test_spline_off_node_slabs_match_whole_and_fitpack():
    sp, x_nodes, t_nodes, values, x = _spline_case()
    t = np.linspace(0.0, t_nodes[-1], 150)
    assert not np.isin(t[1:-1], t_nodes).all()
    columns = sp.at(x, t)
    whole = columns(slice(None))
    for cols in time_slabs(len(t) - 1):
        got = columns(cols)
        assert np.array_equal(got, whole[:, cols])
        assert np.array_equal(np.signbit(got), np.signbit(whole[:, cols]))
    assert np.max(np.abs(whole - spline_oracle(x_nodes, t_nodes, values, x, t))) <= 1e-12


def _not_a_knot(nodes):
    return np.r_[(nodes[0],) * 4, nodes[2:-2], (nodes[-1],) * 4]


def _basis_is_the_design_matrix(x, knots):
    values, first = grid_module._cubic_basis(x, knots)
    want_values, want_first = design_matrix_basis(x, knots)
    return same_bits(values, want_values) and np.array_equal(first, want_first)


def test_cubic_basis_is_the_design_matrix_on_the_series_grids(monkeypatch):
    # every node set and every sampling point of a reference p=1 build,
    # from eps 0.4 down to 0.02: what the spline is handed, recorded
    run = validate_config(load_config(REFERENCE_CONFIG))
    es = build_expansion(run.spec, 1, make_expansion_grids(run.spec, run.n_per_edge, run.cfl))
    basis, seen = grid_module._cubic_basis, []

    def recorded(x, knots):
        seen.append((np.array(x), knots))
        return basis(x, knots)
    monkeypatch.setattr(grid_module, "_cubic_basis", recorded)
    for eps in (0.4, 0.2, 0.1, 0.05, 0.03, 0.02):
        partial_sum_columns(es, eps, make_direct_grid(run.spec, eps, run.n_per_edge, run.cfl))
    monkeypatch.undo()
    grids = es.grids
    node_sets = [grids.layer.xi_nodes(), *grids.u_nodes.values(),
                 *(grids.g0.x_nodes(k) for k in range(len(grids.g0_edge_ids)))]
    fitted = [x for x, knots in seen if np.array_equal(knots, _not_a_knot(x))]
    for nodes in node_sets:  # each fitted on a prefix of its nodes
        assert any(np.array_equal(x, nodes[:len(x)]) for x in fitted)
    assert any(np.any(np.diff(x) < 0.0) for x, _ in seen)  # folded layers
    assert len(seen) > 100
    bad = [i for i, (x, knots) in enumerate(seen) if not _basis_is_the_design_matrix(x, knots)]
    assert bad == []


@pytest.mark.parametrize("n", [4, 5, 41])
def test_cubic_basis_on_knots_at_the_ends_and_past_them(n):
    # the sampler lets a coordinate fall 1e-9 of a step past either end
    nodes = np.linspace(0.0, 1.0, n) ** 1.5
    knots = _not_a_knot(nodes)
    tol = 1e-9 * nodes[1]
    x = np.r_[knots, nodes, nodes[::-1], -tol, -tol / 7.0, -0.0, 1.0 + tol,
              np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0), 1.0, 0.0]
    assert _basis_is_the_design_matrix(x, knots)
    values, first = grid_module._cubic_basis(np.zeros(0), knots)
    assert values.shape == (0, 4) and first.shape == (0,)
    assert _basis_is_the_design_matrix(np.zeros(0), knots)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.floats(1e-3, 10.0), min_size=3, max_size=60),
       start=st.floats(-10.0, 10.0),
       where=st.lists(st.floats(-1e-9, 1.0 + 1e-9), max_size=80))
def test_cubic_basis_is_the_design_matrix_on_random_grids(steps, start, where):
    nodes = start + np.cumsum(np.r_[0.0, steps])
    assume(np.all(np.diff(nodes) > 0.0))  # no step lost to roundoff
    knots = _not_a_knot(nodes)
    x = nodes[0] + np.array(where) * (nodes[-1] - nodes[0])
    assert _basis_is_the_design_matrix(np.r_[x, nodes], knots)


def test_spline_at_other_times_is_make_interp_spline_in_t():
    # the t path, bit for bit: make_interp_spline in t of the blocks side
    # by side, then the x design matrix, at times off the nodes and within
    # the sampler's tolerance past [0, T]
    front = _front_case(321)
    for sp, _, t_nodes, _, x in [_spline_case(),
                                 (SeparableSpline(*front), *front, np.linspace(0.0, 1.0, 501))]:
        tol = 1e-9 * t_nodes[1]
        t = np.r_[-tol, np.linspace(0.0, t_nodes[-1], 150)[1:-1], t_nodes[-1] + tol]
        columns, want = sp.at(x, t), make_interp_spline_at(sp, x, t)
        for cols in time_slabs(len(t) - 1) + [slice(None), slice(3, 70)]:
            assert same_bits(columns(cols), want(cols))
        side_by_side = grid_module._side_by_side(sp.blocks)
        assert same_bits(sp.t_factor(t), make_interp_spline(t_nodes, side_by_side, k=3, axis=1)(t))


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


def test_spline_block_asked_out_of_order_is_the_reference():
    # a block is solved when it is asked for, alone: in any order it has
    # the bits of make_interp_spline on its slab, cut at its height, and
    # the spline keeps only the last one asked for
    x_nodes, t_nodes, values = _front_case(321)
    sp = SeparableSpline(x_nodes, t_nodes, values)
    refs = spline_blocks_reference(x_nodes, values)
    for k in (1, 2, 1, 0, 3, 3):
        block = sp.block(k)
        assert block.flags.c_contiguous
        assert same_bits(block, refs[k][:len(block)])
        assert sp.block(k) is block
    assert all(same_bits(a, b) for a, b in zip(sp.blocks, [sp.block(k) for k in range(4)]))


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
    # against the spline with every coefficient row kept, within 1e-30 of
    # the scale.  At the spline's own times a row whose basis lies inside
    # a column's block is the same bits, a row that straddles the block's
    # cut reads the block's part of it, and a row past the cut is 0, where
    # the full spline holds the decayed tail
    x_nodes, t_nodes, values = _front_case(641)
    sp = SeparableSpline(x_nodes, t_nodes, values)
    x = np.linspace(0.0, 1.0, 1001)[::-1 if descending else 1]
    scale = np.max(np.abs(values))
    off_node = np.linspace(0.0, t_nodes[-1], 150)
    got = sp.at(x, off_node)(slice(None))
    want = full_height_spline(x_nodes, t_nodes, values, x, off_node)
    assert np.max(np.abs(got - want)) <= 1e-30 * scale

    basis = BSpline.design_matrix(x, sp.knots, 3, extrapolate=True)
    first = basis.indices[basis.indptr[:-1]][:, None]
    last = basis.indices[basis.indptr[1:] - 1][:, None]
    heights = np.concatenate([np.full(b.shape[1], len(b)) for b in sp.blocks])
    zeroed = straddled = 0
    columns = sp.at(x, t_nodes)
    for cols in time_slabs(len(t_nodes) - 1) + [slice(TIME_SLAB - 3, 2 * TIME_SLAB + 5)]:
        got = columns(cols)
        want = full_height_spline(x_nodes, t_nodes, values, x, t_nodes[cols])
        assert np.max(np.abs(got - want)) <= 1e-30 * scale
        inside, past = last < heights[cols], first >= heights[cols]
        assert np.array_equal(got[inside], want[inside])
        assert not got[past].any()
        straddle = ~inside & ~past & (want != 0.0)
        straddled += np.count_nonzero(straddle)
        zeroed += np.count_nonzero(straddle & (got == 0.0))
    assert straddled > 0 and zeroed == 0
