"""Space-time grids for the graph solvers and the expansion pipeline.

All solvers on one graph share a single time step.  Expansion terms
additionally share the exact time array (the same float values), which is
what lets vertex traces of different term families cancel to roundoff when
the partial sum is assembled.

Every term of the series is one Term: values on uniform nodes from 0,
zero past its stored rows.  Its SeparableSpline moves it to other grids:
in x always, in t only where the time arrays differ (they match at every
reference-configuration eps).

Work over a whole space-time grid runs one time slab of TIME_SLAB columns
at a time (time_slabs): the direct march evaluates f a slab of time rows
at a time, the layer march marches and stores a slab at a time, and the
sweep assembles and measures the series slab by slab.  A term that is
zero ahead of a front stores SlabBlocks, one block per slab cut at the
slab's last nonzero row: a layer, a U correction's edge, and a zero term,
which stores no rows.  U_0's edges and the nonzero u terms are one array
each.  slabs(values) reads either, slab by slab, and every reader that may
be handed SlabBlocks goes through it.  A spline keeps its x coefficients
as one C-contiguous block per slab, cut BAND_PAD rows past the slab's
last nonzero row, so a slab of a term's own times is one block, read
without a copy.

A grid one of whose arrays could not fit in physical memory is refused
when it is made (make_direct_grid, make_expansion_grids).

The spline's cubic B-splines are computed here in numpy (_cubic_basis),
with the bits of scipy's BSpline, whose module is never imported.  scipy
is imported only where a spline is built or sampled, and only its LAPACK
band routines (scipy.linalg) and its sparse product (scipy.sparse).  A
command that samples no term onto another grid (check, expand, solve)
runs on numpy alone and never loads scipy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import GraphConfigError, StabilityError
from .graph import ProblemSpec, b_eps

__all__ = [
    "Grid",
    "LayerGrid",
    "ExpansionGrids",
    "make_direct_grid",
    "physical_memory",
    "coarsen",
    "make_expansion_grids",
    "check_cfl",
    "SeparableSpline",
    "SlabBlocks",
    "Term",
    "cut_block",
    "slabs",
    "time_slabs",
    "one_sided_diff",
    "trapezoid_weights",
]

MIN_CELLS = 8
MIN_EXPANSION_CELLS = 200
LAYER_MARGIN = 2.0
TIME_SLAB = 64  # time columns per slab and per spline-coefficient block
# Zero rows kept past a term's last nonzero one: by a layer's band, and by a
# spline's coefficient block past the last row nonzero in its slab.  A cubic
# spline's response to a jump decays by 2 - sqrt(3) per node, so 64 nodes
# leave about 1e-36 of it at the cut: the spline on the band is the spline
# on the whole grid.
BAND_PAD = 64


@dataclass(frozen=True)
class Grid:
    """Uniform per-edge spatial grids with one shared time step."""

    lengths: tuple[float, ...]
    n_cells: tuple[int, ...]
    dt: float
    steps: int

    def __post_init__(self) -> None:
        if len(self.lengths) != len(self.n_cells):
            raise GraphConfigError("lengths and n_cells must align")
        for n in self.n_cells:
            if n < MIN_CELLS:
                raise GraphConfigError(f"need at least {MIN_CELLS} cells per edge, got {n}")
        if self.dt <= 0 or self.steps < 2:
            raise GraphConfigError("need a positive dt and at least 2 steps")

    def h(self, e: int) -> float:
        return self.lengths[e] / self.n_cells[e]

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)

    def x_nodes(self, e: int) -> np.ndarray:
        return np.linspace(0.0, self.lengths[e], self.n_cells[e] + 1)


@dataclass(frozen=True)
class LayerGrid:
    """Fast-coordinate grid at unit Courant number: the spatial step is dt."""

    n_xi: int
    dt: float
    steps: int

    @property
    def L(self) -> float:
        return self.dt * self.n_xi

    def xi_nodes(self) -> np.ndarray:
        return self.dt * np.arange(self.n_xi + 1)

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)


def check_cfl(spec: ProblemSpec, eps: float, grid: Grid, cfl: float = 1.0) -> None:
    """Raise unless dt <= cfl * min_e h_e / sqrt(b_e)."""
    bound = min(grid.h(e) / math.sqrt(b_eps(spec, eps, e))
                for e in range(spec.graph.n_edges))
    if grid.dt > cfl * bound * (1.0 + 1e-12):
        raise StabilityError(
            f"dt={grid.dt:.6e} exceeds the stability bound {cfl * bound:.6e}")


def _even_ceil(x: float, field: str) -> int:
    """The even integer at or above x, a grid count that the config field sets."""
    if not math.isfinite(x):
        raise GraphConfigError(f"{field}: the grid count it gives is not finite")
    n = math.ceil(x - 1e-12)
    return n + (n % 2)


def physical_memory() -> int | None:
    """Bytes of physical memory, as os.sysconf gives them; None where it cannot."""
    try:
        mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return mem if mem > 0 else None


def _require_fits(nodes: int, what: str) -> None:
    """Refuse a grid one of whose arrays of doubles, nodes long, could not
    fit in physical memory: numpy would fail, or the host would, as it is
    filled.  The config field named is the resolution; T and cfl scale the
    same counts."""
    mem = physical_memory()
    if mem is not None and 8 * nodes > mem:
        raise GraphConfigError(
            f"grid.n_per_edge: {what} has {nodes} nodes, {8 * nodes / 2 ** 30:.4g} GiB, "
            f"more than the {mem / 2 ** 30:.4g} GiB of physical memory")


def make_direct_grid(spec: ProblemSpec, eps: float, n_per_edge: int, cfl: float) -> Grid:
    """Grid for a reference solve at fixed eps.

    Degenerate edges are refined so that h resolves the thinnest layer
    probed there (h <= eps^m / 8); cell counts and the step count are kept
    even so a 2x-coarse companion grid shares every other node.  A grid
    whose field could not fit in physical memory is refused.
    """
    if not (0 < cfl <= 1):
        raise GraphConfigError(f"cfl must lie in (0, 1], got {cfl}")
    g = spec.graph
    n_cells = []
    for e in range(g.n_edges):
        n = n_per_edge
        m = g.m(e)
        if m > 0:
            field = f"graph.exponents[{g.edges[e].subgraph}]"
            # the stiffness eps^(2m) divides the step bound below
            if b_eps(spec, eps, e) == 0.0:
                raise GraphConfigError(f"{field}: eps^(2m) underflows to 0 at eps={eps}")
            n = max(n, _even_ceil(8.0 * g.edges[e].length / eps ** m, field))
        n_cells.append(n + (n % 2))
    lengths = tuple(g.edges[e].length for e in range(g.n_edges))
    bound = min(lengths[e] / n_cells[e] / math.sqrt(b_eps(spec, eps, e))
                for e in range(g.n_edges))
    steps = _even_ceil(spec.T / (cfl * bound), "T")
    _require_fits((steps + 1) * sum(n + 1 for n in n_cells),
                  f"a field of the direct grid at eps={eps:g}")
    grid = Grid(lengths, tuple(n_cells), spec.T / steps, steps)
    check_cfl(spec, eps, grid, cfl)
    return grid


def coarsen(grid: Grid) -> Grid:
    """Companion grid with half the resolution; nodes nest exactly."""
    for n in grid.n_cells:
        if n % 2:
            raise GraphConfigError("cell counts must be even to coarsen")
    if grid.steps % 2:
        raise GraphConfigError("step count must be even to coarsen")
    return Grid(grid.lengths, tuple(n // 2 for n in grid.n_cells),
                2.0 * grid.dt, grid.steps // 2)


@dataclass(frozen=True)
class ExpansionGrids:
    """Shared grids for every term of one expansion build.

    The layer grid reuses the master dt as its spatial step, putting the
    leapfrog exactly on characteristics; its time axis is the master one.
    """

    g0: Grid
    g0_edge_ids: tuple[int, ...]
    u_nodes: dict[int, np.ndarray]
    layer: LayerGrid
    times: np.ndarray = field(repr=False)


def make_expansion_grids(spec: ProblemSpec, n_per_edge: int, cfl: float) -> ExpansionGrids:
    if not (0 < cfl <= 1):
        raise GraphConfigError(f"cfl must lie in (0, 1], got {cfl}")
    g = spec.graph
    g0_ids = g.g0_edges()
    if not g0_ids:
        raise GraphConfigError("the expansion needs at least one unit-speed edge")
    n0 = max(n_per_edge, MIN_EXPANSION_CELLS)
    n0 += n0 % 2
    lengths = tuple(g.edges[e].length for e in g0_ids)
    h_min = min(L / n0 for L in lengths)
    steps = _even_ceil(spec.T / (cfl * h_min), "T")
    dt = spec.T / steps
    n_xi = math.ceil((spec.T + LAYER_MARGIN) / dt)
    _require_fits((steps + 1) * (n0 + 1) * len(g0_ids), "the unit-speed field of the series")
    _require_fits((steps + 1) * (n_xi + 1), "a layer's band rectangle")
    g0_grid = Grid(lengths, (n0,) * len(g0_ids), dt, steps)
    # the degenerate edges' u nodes are half as fine: they need no time axis
    n_star = max(MIN_EXPANSION_CELLS, -(-n_per_edge // 2))
    u_nodes = {e: np.linspace(0.0, g.edges[e].length, n_star + 1) for e in g.gstar_edges()}
    return ExpansionGrids(g0_grid, g0_ids, u_nodes, LayerGrid(n_xi, dt, steps),
                          dt * np.arange(steps + 1))


class SeparableSpline:
    """Cubic not-a-knot interpolant on (x_nodes, t_nodes), one axis at a time.

    The x factor is one LU of the not-a-knot collocation matrix (LAPACK
    dgbtrf), against which each slab of values (slabs), zero-padded to
    len(x_nodes) rows, is solved (dgbtrs): block for block the bits of
    make_interp_spline.  Its coefficients are held
    as blocks of TIME_SLAB columns: blocks[k] belongs to
    t_nodes[k * TIME_SLAB:][:TIME_SLAB], is C-contiguous, and stops
    BAND_PAD rows past the last row of values nonzero in its slab; below
    that the coefficients are taken as zero.  At t_nodes a slab's
    coefficients are its block; at other times they come from t_factor,
    the same LU path in t applied to the coefficients (see at).  FITPACK
    with s=0 uses the same knots, so this is the 2-D interpolating spline
    up to roundoff.

    Every B-spline value, in the collocation matrices and at the points
    sampled, comes from _cubic_basis, de Boor's recurrence in numpy with
    the bits of scipy's BSpline, whose module is never loaded.
    The LAPACK band routines (scipy.linalg) and the sparse product
    (scipy.sparse) are imported where they run.
    """

    def __init__(self, x_nodes: np.ndarray, t_nodes: np.ndarray,
                 values: np.ndarray | SlabBlocks):
        from scipy.linalg.lapack import dgbtrs

        self.t_nodes = t_nodes
        n = len(x_nodes)
        self.knots, lu, piv = _collocation(x_nodes)
        self.blocks = []
        for _, b in slabs(values):
            # the slab zero-padded to the spline's height, Fortran-ordered:
            # the solve overwrites its right-hand side
            rhs = np.zeros((n, b.shape[1]), order="F")
            rhs[:len(b)] = b
            nonzero = np.flatnonzero(b.any(axis=1))
            height = min(n, (nonzero[-1] if len(nonzero) else 0) + 1 + BAND_PAD)
            c, _ = dgbtrs(lu, 3, 3, rhs, piv, overwrite_b=True)
            self.blocks.append(np.ascontiguousarray(c[:height]))

    @cached_property
    def t_factor(self) -> Callable[[np.ndarray], np.ndarray]:
        """x coefficients as a spline in t: t_factor(t)[:, j] belong to t[j].

        The blocks side by side are fitted in t as make_interp_spline(
        t_nodes, ..., k=3, axis=1) fits them, one dgbtrs against the LU of
        the collocation matrix in t, and evaluated at t by the product that
        at uses in x: the bits of that spline at t.
        """
        from scipy.linalg.lapack import dgbtrs

        knots, lu, piv = _collocation(self.t_nodes)
        # time-major, Fortran-ordered: the right-hand side make_interp_spline solves
        rhs = np.asfortranarray(_side_by_side(self.blocks).T)
        c, _ = dgbtrs(lu, 3, 3, rhs, piv, overwrite_b=True)
        c = np.ascontiguousarray(c)
        return lambda t: _basis_product(t, knots)(c).T

    def at(self, x: np.ndarray, t: np.ndarray) -> Callable[[slice], np.ndarray]:
        """columns(cols): the values at (x[i], t[cols][j]), shape
        (len(x), len(t[cols])), for a slice cols of t with step 1.

        The x basis (CSC) and the match of t against t_nodes are found once.
        At the spline's own times a slab of time_slabs is its block, and a
        run of slabs the products of its blocks side by side; elsewhere
        t_factor gives the coefficients.  Each product reads the basis
        columns up to the coefficients' height, and accumulates every row
        in the CSR product's order.  A column does not depend on the other
        times asked for, so a slab of times gives the columns of the whole
        evaluation, bit for bit.
        """
        product = _basis_product(x, self.knots)
        own = np.array_equal(t, self.t_nodes)

        def columns(cols: slice) -> np.ndarray:
            j0, j1, step = cols.indices(len(t))
            if step != 1:
                raise ValueError(f"cols must have step 1, got {step}")
            if not own:
                return product(self.t_factor(t[j0:j1]))
            k0 = j0 // TIME_SLAB
            run = [product(c) for c in self.blocks[k0:max(-(-j1 // TIME_SLAB), k0 + 1)]]
            out = run[0] if len(run) == 1 else np.concatenate(run, axis=1)
            return out[:, j0 - k0 * TIME_SLAB:j1 - k0 * TIME_SLAB]
        return columns


def _cubic_basis(x: np.ndarray, knots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 4 cubic B-splines on knots nonzero at each x, (len(x), 4), and
    the index of the first of them, (len(x),).

    knots are a not-a-knot vector: 4 copies of each end around strictly
    increasing interior knots.  x lies in the interval knots[l] <= x <
    knots[l+1] with 3 <= l < len(knots) - 4, the end intervals taking any
    x beyond them (scipy's extrapolation), and its B-splines l-3..l come
    from de Boor's recurrence (C. de Boor, A Practical Guide to Splines,
    1978) in scipy's operation order, so every value has the bits of
    BSpline.design_matrix(x, knots, 3, extrapolate=True).  No interval of
    the recurrence is empty: the knots it divides by are distinct.
    """
    x = np.asarray(x, dtype=float)
    ell = np.clip(np.searchsorted(knots, x, side="right") - 1, 3, len(knots) - 5)
    t = {d: knots[ell + d] for d in range(-2, 4)}  # t[d] = knots[l + d] at each x
    h = np.zeros((4, len(x)))
    h[0] = 1.0
    for j in range(1, 4):
        prev = h[:j].copy()
        h[0] = 0.0
        for m in range(1, j + 1):
            w = prev[m - 1] / (t[m] - t[m - j])
            h[m - 1] += w * (t[m] - x)
            h[m] = w * (x - t[m - j])
    return h.T, ell - 3


def _collocation(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The not-a-knot knots on nodes, and the LU (LAPACK dgbtrf) and pivots
    of the collocation matrix, the cubic B-splines at the nodes: the system
    make_interp_spline(nodes, ..., k=3) solves."""
    from scipy.linalg.lapack import dgbtrf

    n = len(nodes)
    knots = np.r_[(nodes[0],) * 4, nodes[2:-2], (nodes[-1],) * 4]
    values, first = _cubic_basis(nodes, knots)
    # band storage: row kl + ku + i - j holds A[i, j], kl = ku = 3
    j = first[:, None] + np.arange(4)
    ab = np.zeros((10, n), order="F")
    ab[6 + np.arange(n)[:, None] - j, j] = values
    lu, piv, info = dgbtrf(ab, 3, 3, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError("collocation matrix is singular")
    return knots, lu, piv


def _basis_product(x: np.ndarray, knots: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """product(c): the cubic spline on knots with coefficient rows c at
    every x, (len(x), c.shape[1]), the B-splines past len(c) taken as zero.

    The basis at x is one CSC matrix, its rows ascending in each column as
    BSpline.design_matrix(...).tocsc() holds them; the product reads the
    columns below len(c) as a prefix of its arrays, and adds each row's 4
    terms in column order, as the CSR product does.
    """
    from scipy.sparse import csc_array

    values, first = _cubic_basis(x, knots)
    col = (first[:, None] + np.arange(4)).ravel()
    order = np.argsort(col, kind="stable")
    data = values.ravel()[order]
    index = np.int32 if len(data) < np.iinfo(np.int32).max else np.int64  # as scipy picks
    rows = (order // 4).astype(index)
    indptr = np.searchsorted(col[order], np.arange(len(knots) - 3)).astype(index)

    def product(c: np.ndarray) -> np.ndarray:
        m = len(c)
        p = indptr[m]
        return csc_array((data[:p], rows[:p], indptr[:m + 1]), shape=(len(x), m)) @ c
    return product


def _side_by_side(blocks: list[np.ndarray]) -> np.ndarray:
    """Coefficient blocks next to each other, zero below the shorter ones."""
    out = np.zeros((max(len(b) for b in blocks), sum(b.shape[1] for b in blocks)))
    j = 0
    for b in blocks:
        out[:len(b), j:j + b.shape[1]] = b
        j += b.shape[1]
    return out


def one_sided_diff(u: np.ndarray, h: float, stride: int = 1) -> np.ndarray:
    """One-sided (-3 u_0 + 4 u_s - u_2s) / (2 s h) along the first axis,
    s = stride."""
    return (-3.0 * u[0] + 4.0 * u[stride] - u[2 * stride]) / (2.0 * h * stride)


@dataclass(frozen=True, eq=False)
class SlabBlocks:
    """An array of shape (rows, steps + 1) held as one block per time slab.

    blocks[k] holds the columns time_slabs(steps)[k] down to the last row
    nonzero in that slab, so it is (height_k, width_k) with height_k <=
    rows, and every entry below it is zero: zero-padded to rows and put
    side by side, the blocks are the array.  shape is that array's; size
    and nbytes count what is stored.  cut makes them from an array,
    layers.qp_solve one slab at a time as it marches (cut_block), and
    zeros stores no rows at all.
    """

    blocks: tuple[np.ndarray, ...]
    rows: int

    @classmethod
    def cut(cls, a: np.ndarray) -> SlabBlocks:
        """a's slabs, each a Fortran-ordered copy down to its last nonzero row."""
        return cls(tuple(cut_block(a[:, cols]) for cols in time_slabs(a.shape[1] - 1)),
                   a.shape[0])

    @classmethod
    def zeros(cls, shape: tuple[int, int]) -> SlabBlocks:
        """An array of zeros of shape (rows, steps + 1): every block stores no rows."""
        return cls(tuple(np.zeros((0, c.stop - c.start)) for c in time_slabs(shape[1] - 1)),
                   shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, sum(b.shape[1] for b in self.blocks)

    @property
    def size(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self.blocks)


def cut_block(a: np.ndarray) -> np.ndarray:
    """a down to its last nonzero row, as a Fortran-ordered copy: a block
    of SlabBlocks when a is one slab's columns."""
    nonzero = np.flatnonzero(a.any(axis=1))
    return np.array(a[:nonzero[-1] + 1 if len(nonzero) else 0], order="F")


def slabs(values: np.ndarray | SlabBlocks) -> list[tuple[slice, np.ndarray]]:
    """(cols, block) for each time slab of values (time_slabs): every row
    below a block is zero.  A SlabBlocks gives its blocks, an array views
    of its slabs at full height."""
    cols = time_slabs(values.shape[1] - 1)
    if isinstance(values, SlabBlocks):
        return list(zip(cols, values.blocks))
    return [(c, values[:, c]) for c in cols]


@dataclass
class Term:
    """One series term on uniform x_nodes from 0 and times.

    values holds the nodes x_nodes[:values.shape[0]], and the term is zero
    at every node past them.  A term zero ahead of a front stores
    SlabBlocks, each slab down to the last row nonzero in it: a layer (its
    band), a U correction's edge, and a zero u term (no rows).  U_0's edges
    and the nonzero u terms store every node as one array.  A reader that
    may be handed SlabBlocks goes through slabs(values), or row, which
    serve both.
    """

    values: np.ndarray | SlabBlocks  # (rows <= len(x_nodes), len(times))
    x_nodes: np.ndarray
    times: np.ndarray

    @cached_property
    def interp(self) -> SeparableSpline:
        return SeparableSpline(self.x_nodes[:self.values.shape[0]], self.times, self.values)

    @property
    def is_zero(self) -> bool:
        return not any(b.any() for _, b in slabs(self.values))

    def row(self, i: int) -> np.ndarray:
        """values[i] at every time, i counted as a sequence index over the
        values' rows: zero in a slab whose block stops above it."""
        i = range(self.values.shape[0])[i]
        out = np.zeros(len(self.times))
        for cols, b in slabs(self.values):
            if i < len(b):
                out[cols] = b[i]
        return out

    def flux(self, stride: int = 1) -> np.ndarray:
        """One-sided d_x at x = 0 per time level; stride widens the stencil."""
        k = 2 * stride + 1
        if self.values.shape[0] < k:
            raise ValueError(f"flux at stride {stride} needs at least {k} "
                             f"spatial nodes, got {self.values.shape[0]}")
        head = np.zeros((k, len(self.times)))
        for cols, b in slabs(self.values):
            head[:len(b), cols] = b[:k]
        return one_sided_diff(head, self.x_nodes[1], stride)


def time_slabs(steps: int) -> list[slice]:
    """The columns 0..steps in slabs of TIME_SLAB: [k TIME_SLAB, (k + 1) TIME_SLAB)."""
    return [slice(j, min(j + TIME_SLAB, steps + 1))
            for j in range(0, steps + 1, TIME_SLAB)]


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2.0
    return w
