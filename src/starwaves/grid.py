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
at a time, and the sweep assembles and measures the series slab by slab.
A spline keeps its x coefficients as one C-contiguous block per slab, cut
BAND_PAD rows past the slab's last nonzero row, so a slab of a term's own
times is one block, read without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.interpolate import BSpline, make_interp_spline
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import GraphConfigError, StabilityError
from .graph import ProblemSpec, b_eps

__all__ = [
    "Grid",
    "LayerGrid",
    "ExpansionGrids",
    "make_direct_grid",
    "coarsen",
    "make_expansion_grids",
    "check_cfl",
    "SeparableSpline",
    "Term",
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

    @property
    def T(self) -> float:
        return self.dt * self.steps

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


def _even_ceil(x: float) -> int:
    n = math.ceil(x - 1e-12)
    return n + (n % 2)


def make_direct_grid(spec: ProblemSpec, eps: float, n_per_edge: int, cfl: float) -> Grid:
    """Grid for a reference solve at fixed eps.

    Degenerate edges are refined so that h resolves the thinnest layer
    probed there (h <= eps^m / 8); cell counts and the step count are kept
    even so a 2x-coarse companion grid shares every other node.
    """
    if not (0 < cfl <= 1):
        raise GraphConfigError(f"cfl must lie in (0, 1], got {cfl}")
    g = spec.graph
    n_cells = []
    for e in range(g.n_edges):
        n = n_per_edge
        m = g.m(e)
        if m > 0:
            n = max(n, _even_ceil(8.0 * g.edges[e].length / eps ** m))
        n_cells.append(n + (n % 2))
    lengths = tuple(g.edges[e].length for e in range(g.n_edges))
    bound = min(lengths[e] / n_cells[e] / math.sqrt(b_eps(spec, eps, e))
                for e in range(g.n_edges))
    steps = _even_ceil(spec.T / (cfl * bound))
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
    steps = _even_ceil(spec.T / (cfl * h_min))
    dt = spec.T / steps
    g0_grid = Grid(lengths, (n0,) * len(g0_ids), dt, steps)

    u_nodes: dict[int, np.ndarray] = {}
    n_star = max(MIN_EXPANSION_CELLS, n0 // 2)
    for e in g.gstar_edges():
        u_nodes[e] = np.linspace(0.0, g.edges[e].length, n_star + 1)

    n_xi = math.ceil((spec.T + LAYER_MARGIN) / dt)
    layer = LayerGrid(n_xi, dt, steps)
    return ExpansionGrids(g0_grid, g0_ids, u_nodes, layer, dt * np.arange(steps + 1))


class SeparableSpline:
    """Cubic not-a-knot interpolant on (x_nodes, t_nodes), one axis at a time.

    The x factor is one LU of the not-a-knot collocation matrix (LAPACK
    dgbtrf), against which each slab of values is solved (dgbtrs): block
    for block the bits of make_interp_spline.  Its coefficients are held
    as blocks of TIME_SLAB columns: blocks[k] belongs to
    t_nodes[k * TIME_SLAB:][:TIME_SLAB], is C-contiguous, and stops
    BAND_PAD rows past the last row of values nonzero in its slab; below
    that the coefficients are taken as zero.  The coefficients at a
    contiguous run of t_nodes are the matching columns, the block itself
    for a slab of time_slabs; at other times they come from t_factor, the
    t factor applied to the coefficients.  FITPACK with s=0 uses the same
    knots, so this is the 2-D interpolating spline up to roundoff.
    """

    def __init__(self, x_nodes: np.ndarray, t_nodes: np.ndarray,
                 values: np.ndarray):
        self.t_nodes = t_nodes
        n = len(x_nodes)
        self.knots = np.r_[(x_nodes[0],) * 4, x_nodes[2:-2], (x_nodes[-1],) * 4]
        # band storage of the collocation matrix: row kl + ku + i - j holds
        # A[i, j], kl = ku = 3
        A = BSpline.design_matrix(x_nodes, self.knots, 3)
        i = np.repeat(np.arange(n), np.diff(A.indptr))
        ab = np.zeros((10, n), order="F")
        ab[6 + i - A.indices, A.indices] = A.data
        lu, piv, info = dgbtrf(ab, 3, 3, overwrite_ab=True)
        if info > 0:
            raise LinAlgError("collocation matrix is singular")
        self.blocks = []
        for cols in time_slabs(values.shape[1] - 1):
            # a copy: a layer's values[:, cols] is already Fortran-ordered,
            # and the solve overwrites its right-hand side
            rhs = np.array(values[:, cols], order="F")
            nonzero = np.flatnonzero(rhs.any(axis=1))
            height = min(n, (nonzero[-1] if len(nonzero) else 0) + 1 + BAND_PAD)
            c, _ = dgbtrs(lu, 3, 3, rhs, piv, overwrite_b=True)
            self.blocks.append(np.ascontiguousarray(c[:height]))

    @cached_property
    def t_factor(self) -> BSpline:
        """x coefficients as a spline in t: t_factor(t)[:, j] belong to t[j]."""
        return make_interp_spline(self.t_nodes, _side_by_side(self.blocks), k=3, axis=1)

    def _coefficients(self, t: np.ndarray) -> np.ndarray:
        j0 = int(np.searchsorted(self.t_nodes, t[0])) if len(t) else 0
        j1 = j0 + len(t)
        if not np.array_equal(self.t_nodes[j0:j1], t):
            return self.t_factor(t)
        k0 = j0 // TIME_SLAB
        if j0 % TIME_SLAB == 0 and len(t) == self.blocks[k0].shape[1]:
            return self.blocks[k0]
        run = _side_by_side(self.blocks[k0:max(-(-j1 // TIME_SLAB), k0 + 1)])
        return run[:, j0 - k0 * TIME_SLAB:j1 - k0 * TIME_SLAB]

    def at(self, x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Values at (x[i], t[j]) for any t, shape (len(x), len(t)).

        The x basis is found once; each call is one product with the
        coefficient columns of t.  Where those stop short of the whole
        height, the product fills only the rows whose basis lies inside
        them, and the rest are 0.  A column does not depend on the other
        times asked for, so a slab of times gives the columns of the whole
        evaluation, bit for bit.
        """
        if len(x) == 0:
            return lambda t: np.zeros((0, len(t)))
        basis = BSpline.design_matrix(x, self.knots, 3, extrapolate=True)
        last = basis.indices[basis.indptr[1:] - 1]  # each row's last coefficient
        n_coef = len(self.knots) - 4

        def columns(t: np.ndarray) -> np.ndarray:
            c = self._coefficients(t)
            if len(c) == n_coef:
                return basis @ c
            inside = last < len(c)
            out = np.zeros((len(x), c.shape[1]))
            out[inside] = basis[inside][:, :len(c)] @ c
            return out
        return columns

    def __call__(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Values at every (x[i], t[j]), shape (len(x), len(t))."""
        return self.at(x)(t)


def _side_by_side(blocks: list[np.ndarray]) -> np.ndarray:
    """Coefficient blocks next to each other, zero below the shorter ones."""
    out = np.zeros((max(len(b) for b in blocks), sum(b.shape[1] for b in blocks)))
    j = 0
    for b in blocks:
        out[:len(b), j:j + b.shape[1]] = b
        j += b.shape[1]
    return out


def one_sided_diff(u: np.ndarray, h: float, stride: int = 1,
                   axis: int = 0) -> np.ndarray:
    """One-sided (-3 u_0 + 4 u_s - u_2s) / (2 s h) along axis, s = stride."""
    v = np.moveaxis(u, axis, 0)
    return (-3.0 * v[0] + 4.0 * v[stride] - v[2 * stride]) / (2.0 * h * stride)


@dataclass
class Term:
    """One series term on uniform x_nodes from 0 and times.

    values holds the nodes x_nodes[:len(values)], and the term is zero at
    every node past them: U and u terms store every node, layers their band.
    """

    values: np.ndarray  # (rows <= len(x_nodes), len(times))
    x_nodes: np.ndarray
    times: np.ndarray
    label: str = ""

    @cached_property
    def interp(self) -> SeparableSpline:
        return SeparableSpline(self.x_nodes[:len(self.values)], self.times, self.values)

    @property
    def is_zero(self) -> bool:
        return not self.values.any()

    def flux(self, stride: int = 1) -> np.ndarray:
        """One-sided d_x at x = 0 per time level; stride widens the stencil."""
        if len(self.values) < 2 * stride + 1:
            raise ValueError(f"flux at stride {stride} needs at least {2 * stride + 1} "
                             f"spatial nodes, got {len(self.values)}")
        return one_sided_diff(self.values, self.x_nodes[1], stride)


def time_slabs(steps: int) -> list[slice]:
    """The columns 0..steps in slabs of TIME_SLAB: [k TIME_SLAB, (k + 1) TIME_SLAB)."""
    return [slice(j, min(j + TIME_SLAB, steps + 1))
            for j in range(0, steps + 1, TIME_SLAB)]


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n + 1, h)
    w[0] = w[-1] = h / 2.0
    return w
