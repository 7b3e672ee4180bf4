"""Shared builders for the test suite."""

from pathlib import Path

import numpy as np
from scipy.interpolate import RectBivariateSpline

from starwaves.expr import parse
from starwaves.graph import Edge, ProblemSpec, StarGraph

REPO = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = REPO / "configs" / "reference.json"


def single_edge_spec(q="0", f="0", phi="0", psi="0", mu="0", T=1.5,
                     length=1.0) -> ProblemSpec:
    g = StarGraph((Edge(length, 0),), (0,))
    return ProblemSpec(g, (parse(q),), (parse(f),), (parse(phi),),
                       (parse(psi),), (parse(mu),), T)


def star_spec(q="1 + x", f="sin(t)*(1 + x)", phi="cos(pi*x/2)", psi="0",
              mu="0", T=1.5, exponents=(0, 1, 2), subgraphs=(0, 1, 2),
              lengths=(1.0, 1.0, 1.0)) -> ProblemSpec:
    """Reference-shaped star; every per-edge function gets the same string."""
    edges = tuple(Edge(L, s) for L, s in zip(lengths, subgraphs))
    g = StarGraph(edges, tuple(exponents))
    n = len(edges)
    return ProblemSpec(g, (parse(q),) * n, (parse(f),) * n, (parse(phi),) * n,
                       (parse(psi),) * n, (parse(mu),) * n, T)


def two_edge_g0_spec(q="0", f="0", phi="0", psi="0", mu="0", T=1.5) -> ProblemSpec:
    g = StarGraph((Edge(1.0, 0), Edge(1.0, 0)), (0,))
    return ProblemSpec(g, (parse(q),) * 2, (parse(f),) * 2, (parse(phi),) * 2,
                       (parse(psi),) * 2, (parse(mu),) * 2, T)


def spline_oracle(x_nodes, t_nodes, values, x, t):
    """2-D cubic interpolating spline (FITPACK, s=0) at every (x[i], t[j]).

    x may come in any order; FITPACK wants it ascending.
    """
    sp = RectBivariateSpline(x_nodes, t_nodes, values, kx=3, ky=3, s=0)
    x = np.asarray(x, dtype=float)
    order = np.argsort(x)
    out = np.empty((len(x), len(t)))
    out[order] = sp(x[order], t, grid=True)
    return out
