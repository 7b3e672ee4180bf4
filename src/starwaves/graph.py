"""Star-shaped metric graphs, problem data, and compatibility checks.

An edge is an interval [0, length] parametrized by arclength, with tau = 0
at the central vertex and tau = length at the edge's own boundary vertex.
Edges are partitioned into subgraphs 0..k; subgraph i carries the stiffness
exponent ``exponents[i]``, so the wave speed on its edges is eps^exponents[i].
Subgraph 0 has exponent 0 and unit speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CompatibilityError, GraphConfigError
from .expr import Expr

__all__ = [
    "Edge",
    "StarGraph",
    "ProblemSpec",
    "CompatibilityItem",
    "CompatibilityReport",
    "b_eps",
    "check_compatibility_C1",
    "check_compatibility_C2",
    "require_compatibility_C1",
    "restrict_to_g0",
]

VERTEX_CONTINUITY_TOL = 1e-9
DEFAULT_C_TOL = 1e-8


@dataclass(frozen=True)
class Edge:
    length: float
    subgraph: int


@dataclass(frozen=True)
class StarGraph:
    edges: tuple[Edge, ...]
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.edges:
            raise GraphConfigError("graph.edges: needs at least one edge")
        k = len(self.exponents) - 1
        if k < 0 or self.exponents[0] != 0:
            raise GraphConfigError("graph.exponents[0]: must be 0 (the unit-speed subgraph)")
        for i in range(1, k + 1):
            m = self.exponents[i]
            if not isinstance(m, int) or m < 1:
                raise GraphConfigError(f"graph.exponents[{i}]: must be an integer >= 1")
            if m <= self.exponents[i - 1]:
                raise GraphConfigError(f"graph.exponents[{i}]: must be greater than "
                                       f"graph.exponents[{i - 1}]")
        for j, e in enumerate(self.edges):
            if not (e.length > 0):
                raise GraphConfigError(f"graph.edges[{j}].length: must be positive")
            if e.subgraph not in range(k + 1):
                raise GraphConfigError(
                    f"graph.edges[{j}].subgraph: must lie in 0..{k}, got {e.subgraph!r}")
        used = {e.subgraph for e in self.edges}
        for i in range(k + 1):
            if i not in used:
                raise GraphConfigError(f"graph.exponents[{i}]: subgraph {i} has no edges")

    @property
    def k(self) -> int:
        return len(self.exponents) - 1

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def m(self, e: int) -> int:
        """Stiffness exponent of edge e's subgraph."""
        return self.exponents[self.edges[e].subgraph]

    def edges_in(self, i: int) -> tuple[int, ...]:
        return tuple(j for j, e in enumerate(self.edges) if e.subgraph == i)

    def g0_edges(self) -> tuple[int, ...]:
        return self.edges_in(0)

    def gstar_edges(self) -> tuple[int, ...]:
        return tuple(j for j, e in enumerate(self.edges) if e.subgraph != 0)


def b_eps(spec: "ProblemSpec", eps: float, e: int) -> float:
    """Stiffness eps^(2 m_i) of edge e; exactly 1.0 on subgraph 0."""
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    if not (0 <= e < spec.graph.n_edges):
        raise ValueError(f"unknown edge id {e}")
    m = spec.graph.m(e)
    if m == 0:
        return 1.0
    # 2.0 * m is inf past the float range, and the power 0: the int 2 * m
    # would overflow converting to float
    return eps ** (2.0 * m)


@dataclass(frozen=True)
class ProblemSpec:
    """Graph plus per-edge data.

    q and phi, psi are functions of x; f of x and t; mu is the Dirichlet
    trace at edge e's boundary vertex, a function of t.
    """

    graph: StarGraph
    q: tuple[Expr, ...]
    f: tuple[Expr, ...]
    phi: tuple[Expr, ...]
    psi: tuple[Expr, ...]
    mu: tuple[Expr, ...]
    T: float

    def __post_init__(self) -> None:
        n = self.graph.n_edges
        for name, seq in (("q", self.q), ("f", self.f), ("phi", self.phi),
                          ("psi", self.psi), ("mu", self.mu)):
            if len(seq) != n:
                raise GraphConfigError(f"{name}: needs one expression per edge ({n}), got {len(seq)}")
        if not (self.T > 0):
            raise GraphConfigError("T: must be positive")
        for name, seq in (("phi", self.phi), ("psi", self.psi)):
            vals = [seq[e].evaluate(0.0, 0.0) for e in range(n)]
            spread = max(vals) - min(vals)
            if spread > VERTEX_CONTINUITY_TOL * (1.0 + max(abs(v) for v in vals)):
                raise GraphConfigError(
                    f"{name} is discontinuous at the central vertex (spread {spread:.3e})")


def restrict_to_g0(spec: ProblemSpec) -> ProblemSpec:
    """ProblemSpec over the unit-speed subgraph only, its edges in g0_edges() order."""
    ids = spec.graph.g0_edges()
    graph = StarGraph(tuple(Edge(spec.graph.edges[e].length, 0) for e in ids), (0,))

    def pick(seq):
        return tuple(seq[e] for e in ids)

    return ProblemSpec(graph, pick(spec.q), pick(spec.f), pick(spec.phi),
                       pick(spec.psi), pick(spec.mu), spec.T)


@dataclass(frozen=True)
class CompatibilityItem:
    name: str
    residual: float
    tol: float = DEFAULT_C_TOL

    @property
    def passed(self) -> bool:
        return abs(self.residual) <= self.tol


@dataclass(frozen=True)
class CompatibilityReport:
    items: tuple[CompatibilityItem, ...]

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items)

    def failures(self) -> tuple[CompatibilityItem, ...]:
        return tuple(it for it in self.items if not it.passed)

    def lines(self) -> list[str]:
        out = []
        for it in self.items:
            tag = "ok" if it.passed else "FAIL"
            out.append(f"{it.name}: residual={it.residual:.6e} tol={it.tol:.1e} {tag}")
        return out


def check_compatibility_C1(spec: ProblemSpec) -> CompatibilityReport:
    """First-order matching of initial and boundary data.

    Checks phi(a_j) = mu_j(0) and psi(a_j) = mu_j'(0) at every boundary
    vertex, and that the phi-slopes at the center sum to zero within each
    subgraph. Violations are reported, never raised.
    """
    g = spec.graph
    items: list[CompatibilityItem] = []
    for e in range(g.n_edges):
        L = g.edges[e].length
        r = spec.phi[e].evaluate(L, 0.0) - spec.mu[e].evaluate(0.0, 0.0)
        items.append(CompatibilityItem(f"value_match[a_{e}]", r))
        r = spec.psi[e].evaluate(L, 0.0) - spec.mu[e].diff("t").evaluate(0.0, 0.0)
        items.append(CompatibilityItem(f"velocity_match[a_{e}]", r))
    for i in range(g.k + 1):
        s = sum(spec.phi[e].diff("x").evaluate(0.0, 0.0) for e in g.edges_in(i))
        items.append(CompatibilityItem(f"flux_sum[G_{i}]", s))
    return CompatibilityReport(tuple(items))


def require_compatibility_C1(spec: ProblemSpec) -> None:
    """Raise CompatibilityError naming every failed first-order condition."""
    report = check_compatibility_C1(spec)
    if not report.passed:
        names = ", ".join(it.name for it in report.failures())
        raise CompatibilityError(f"C1 compatibility failed: {names}")


def check_compatibility_C2(spec: ProblemSpec) -> CompatibilityReport:
    """Second-order matching conditions. Informational; the solvers need C1 only."""
    g = spec.graph
    items: list[CompatibilityItem] = []
    for e in range(g.n_edges):
        L = g.edges[e].length
        mu_tt = spec.mu[e].diff_n("t", 2).evaluate(0.0, 0.0)
        phi_v = spec.phi[e].evaluate(L, 0.0)
        phi_dd = spec.phi[e].diff_n("x", 2).evaluate(L, 0.0)
        q_v = spec.q[e].evaluate(L, 0.0)
        f_v = spec.f[e].evaluate(L, 0.0)
        if g.edges[e].subgraph == 0:
            r = mu_tt - phi_dd + q_v * phi_v - f_v
            items.append(CompatibilityItem(f"accel_match[a_{e}]", r))
        else:
            r = mu_tt + q_v * phi_v - f_v
            items.append(CompatibilityItem(f"accel_match[a_{e}]", r))
            items.append(CompatibilityItem(f"phi_dd_boundary[a_{e}]", phi_dd))
    for i in range(g.k + 1):
        s = sum(spec.psi[e].diff("x").evaluate(0.0, 0.0) for e in g.edges_in(i))
        items.append(CompatibilityItem(f"psi_flux_sum[G_{i}]", s))
    for e in range(g.n_edges):
        phi_dd0 = spec.phi[e].diff_n("x", 2).evaluate(0.0, 0.0)
        items.append(CompatibilityItem(f"phi_dd_vertex[e_{e}]", phi_dd0))
    vals = [spec.q[e].evaluate(0.0, 0.0) * spec.phi[e].evaluate(0.0, 0.0)
            - spec.f[e].evaluate(0.0, 0.0) for e in range(g.n_edges)]
    spread = max(vals) - min(vals) if vals else 0.0
    items.append(CompatibilityItem("qphi_f_continuity[a]", spread))
    return CompatibilityReport(tuple(items))
