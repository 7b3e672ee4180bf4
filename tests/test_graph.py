import numpy as np
import pytest

from starwaves.errors import GraphConfigError
from starwaves.expr import parse
from starwaves.graph import (Edge, ProblemSpec, StarGraph, b_eps,
                             check_compatibility_C1, check_compatibility_C2,
                             restrict_to_g0)

from .helpers import single_edge_spec, star_spec


def test_star_graph_validation():
    # each rule names the config field it reads; an edge's subgraph index
    # is checked before a subgraph's edges are counted
    StarGraph((Edge(1.0, 0), Edge(2.0, 1)), (0, 2))
    cases = [
        (((), (0,)), r"^graph\.edges: needs at least one edge$"),
        (((Edge(1.0, 0),), (1,)), r"^graph\.exponents\[0\]: must be 0 "),
        (((Edge(1.0, 0),), ()), r"^graph\.exponents\[0\]: must be 0 "),
        (((Edge(1.0, 0),), (0, 2, 2)),
         r"^graph\.exponents\[2\]: must be greater than graph\.exponents\[1\]$"),
        (((Edge(1.0, 0),), (0, 1)), r"^graph\.exponents\[1\]: subgraph 1 has no edges$"),
        (((Edge(1.0, 0), Edge(1.0, 3)), (0, 1)),
         r"^graph\.edges\[1\]\.subgraph: must lie in 0\.\.1, got 3$"),
        (((Edge(-1.0, 0),), (0,)), r"^graph\.edges\[0\]\.length: must be positive$"),
        (((Edge(1.0, 1),), (0, 1)), r"^graph\.exponents\[0\]: subgraph 0 has no edges$"),
    ]
    for (edges, exponents), pattern in cases:
        with pytest.raises(GraphConfigError, match=pattern):
            StarGraph(edges, exponents)


def test_star_graph_queries():
    g = StarGraph((Edge(1.0, 0), Edge(0.5, 1), Edge(2.0, 2), Edge(1.0, 1)),
                  (0, 1, 3))
    assert g.k == 2
    assert g.n_edges == 4
    assert g.m(0) == 0 and g.m(1) == 1 and g.m(2) == 3 and g.m(3) == 1
    assert g.g0_edges() == (0,)
    assert g.gstar_edges() == (1, 2, 3)
    assert g.edges_in(1) == (1, 3)


def test_b_eps():
    spec = star_spec()
    assert b_eps(spec, 0.3, 0) == 1.0  # m=0 exactly
    assert b_eps(spec, 0.3, 1) == pytest.approx(0.3 ** 2, rel=1e-15)
    assert b_eps(spec, 0.3, 2) == pytest.approx(0.3 ** 4, rel=1e-15)
    with pytest.raises(ValueError):
        b_eps(spec, 0.0, 1)
    with pytest.raises(ValueError):
        b_eps(spec, 1.0, 1)
    with pytest.raises(ValueError):
        b_eps(spec, 0.3, 9)
    # monotone in eps on degenerate edges
    assert b_eps(spec, 0.2, 2) < b_eps(spec, 0.4, 2)


def test_problem_spec_validation():
    g = StarGraph((Edge(1.0, 0), Edge(1.0, 1)), (0, 1))
    z = parse("0")
    with pytest.raises(GraphConfigError):
        ProblemSpec(g, (z,), (z,) * 2, (z,) * 2, (z,) * 2, (z,) * 2, 1.0)
    with pytest.raises(GraphConfigError, match=r"^T: must be positive$"):
        ProblemSpec(g, (z,) * 2, (z,) * 2, (z,) * 2, (z,) * 2, (z,) * 2, 0.0)
    # initial data must agree at the center vertex
    phi_bad = (parse("1 + x"), parse("2 + x"))
    with pytest.raises(GraphConfigError):
        ProblemSpec(g, (z,) * 2, (z,) * 2, phi_bad, (z,) * 2, (z,) * 2, 1.0)


def test_restrict_to_g0():
    spec = star_spec()
    sub = restrict_to_g0(spec)
    assert spec.graph.g0_edges() == (0,)
    assert sub.graph.n_edges == 1
    assert sub.graph.exponents == (0,)
    assert sub.q[0] is spec.q[0]


def test_c1_reference_passes():
    rep = check_compatibility_C1(star_spec())
    assert rep.passed
    names = {it.name for it in rep.items}
    assert "value_match[a_1]" in names
    assert "flux_sum[G_2]" in names


def test_c1_dirichlet_mismatch():
    rep = check_compatibility_C1(star_spec(mu="1"))
    assert not rep.passed
    bad = {it.name for it in rep.failures()}
    assert any(n.startswith("value_match") for n in bad)


def test_c1_velocity_mismatch():
    rep = check_compatibility_C1(star_spec(mu="t"))
    bad = {it.name for it in rep.failures()}
    assert any(n.startswith("velocity_match") for n in bad)
    assert not any(n.startswith("value_match") for n in bad)


def test_c1_flux_sum():
    # phi = x has slope 1 at the center on a single-edge subgraph
    rep = check_compatibility_C1(star_spec(phi="x", mu="1"))
    bad = {it.name for it in rep.failures()}
    assert any(n.startswith("flux_sum") for n in bad)


def test_c2_acceleration_mismatch_value():
    """mu = t^2/2 forces u_tt(a_j, 0) = 1 against a zero right side."""
    spec = single_edge_spec(mu="t^2/2")
    rep = check_compatibility_C2(spec)
    item = {it.name: it for it in rep.items}["accel_match[a_0]"]
    assert abs(item.residual) == pytest.approx(1.0, rel=1e-12)
    assert not item.passed


def test_c2_reference_vertex_defect():
    """cos(pi x/2) initial data leave a (pi/2)^2 second-derivative defect at a."""
    rep = check_compatibility_C2(star_spec())
    items = {it.name: it for it in rep.items}
    defect = (np.pi / 2) ** 2
    for e in range(3):
        it = items[f"phi_dd_vertex[e_{e}]"]
        assert abs(it.residual) == pytest.approx(defect, rel=1e-12)
        assert not it.passed
    # everything else is clean
    others = [it for it in rep.items if not it.name.startswith("phi_dd_vertex")]
    assert all(it.passed for it in others)


def test_c2_passes_for_fitted_data():
    # quadratic-free initial data: everything vanishes at the vertex
    spec = star_spec(q="1", f="0", phi="0", psi="0", mu="0")
    assert check_compatibility_C2(spec).passed


def test_checks_invariant_under_relabeling():
    a = star_spec(subgraphs=(0, 1, 2))
    b = star_spec(subgraphs=(2, 1, 0))
    ra = check_compatibility_C1(a)
    rb = check_compatibility_C1(b)
    assert ra.passed == rb.passed
    assert sorted(round(it.residual, 14) for it in ra.items) == \
        sorted(round(it.residual, 14) for it in rb.items)


def test_report_lines_format():
    rep = check_compatibility_C1(star_spec())
    lines = rep.lines()
    assert len(lines) == len(rep.items)
    assert all("residual=" in ln and "tol=" in ln for ln in lines)
