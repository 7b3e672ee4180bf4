"""End-to-end acceptance gates at the reference configuration's scale.

Each test prints one unbuffered line so every verdict is visible in the
pytest output, capture or not.  Failures still fail the test.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from starwaves.expansion import assemble_partial_sum, build_expansion
from starwaves.grid import LayerGrid, make_direct_grid, make_expansion_grids
from starwaves.harness import convergence_sweep, load_config, validate_config
from starwaves.kernels import cs, sn
from starwaves.layers import QuarterPlaneProblem

from .helpers import (REFERENCE_CONFIG, build_with_layer_problems, dense, energy,
                      phi_entire, qp_march_reference, qp_oracle_below_characteristic,
                      star_spec, stored_march_residuals, zero_padded)
from .test_direct import (_eigenmode_error, _manufactured_error,
                          manufactured_spec)
from .test_kernels import phi_series_decimal


@pytest.fixture()
def announce(capsys):
    def _announce(num: int, name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} ({name}): "
                  f"{'PASS' if ok else 'FAIL'} -- {detail}")
        assert ok, f"criterion {num} ({name}): {detail}"
    return _announce


@pytest.fixture(scope="module")
def reference_run():
    run = validate_config(load_config(REFERENCE_CONFIG))
    cache: dict = {}
    expansions = {}
    problems = {}
    reports = {}
    t0 = time.perf_counter()
    for p in (0, 1):
        grids = make_expansion_grids(run.spec, run.n_per_edge, run.cfl)
        expansions[p], problems[p] = build_with_layer_problems(run.spec, p, grids)
        reports[p] = convergence_sweep(run.spec, p, run.epsilons,
                                       run.n_per_edge, run.cfl, run.margin,
                                       cache=cache, expansion=expansions[p])
    elapsed = time.perf_counter() - t0
    return run, reports, expansions, problems, cache, elapsed


def test_criterion_1_rate_theorem(reference_run, announce):
    _, reports, _, _, _, elapsed = reference_run
    parts = []
    ok = elapsed <= 600.0
    for p in (0, 1):
        rep = reports[p]
        ok = ok and rep.conclusive and rep.passed
        parts.append(f"p={p} fitted {rep.fitted_order:.4f} "
                     f"(needs >= {rep.theoretical_order - rep.margin:.2f})")
    parts.append(f"runtime {elapsed:.1f}s (cap 600s)")
    announce(1, "L2 rate vs (p+1/2)m1", ok, "; ".join(parts))


# Variants of the reference config under configs/, in the paper's wider
# setting, each gated at p=0 and n_per_edge 160 by criterion 1's rule: the
# fitted L2 order against (p+1/2) m1 - margin = 0.2, and a conclusive
# refinement estimate.  What each gate had to spare when it was added:
# its fitted order, and how many times below 10% of the smallest L2 error
# its estimate sat.  Their p=1 sweeps are conclusive only on finer grids.
RATE_VARIANTS = {
    "variant-branches.json": "two edges per subgraph, lengths 0.7-1.2",  # 0.9513, 3.69x
    "variant-negative-q.json": "q < 0 on both degenerate edges",         # 1.0919, 3.63x
    "variant-velocity.json": "initial velocity psi = x(1 - x)",          # 1.0426, 4.16x
    "variant-three-rates.json": "exponents 0, 1, 2, 3",                  # 1.0152, 3.44x
}


@pytest.mark.parametrize("name", RATE_VARIANTS)
def test_p0_rate_gate_on_a_variant(name):
    cfg = load_config(REFERENCE_CONFIG.parent / name)
    cfg["p"] = 0
    cfg["grid"]["n_per_edge"] = 160
    run = validate_config(cfg)
    rep = convergence_sweep(run.spec, 0, run.epsilons, run.n_per_edge, run.cfl, run.margin)
    assert rep.conclusive, (rep.refine_estimate, min(t.l2 for t in rep.errors))
    assert rep.fitted_order >= rep.theoretical_order - rep.margin, rep.fitted_order
    assert rep.passed


def test_criterion_2_flux_remainder_rate(reference_run, announce):
    run, reports, _, _, _, _ = reference_run
    m1 = run.spec.graph.exponents[1]
    parts = []
    ok = True
    for p in (0, 1):
        need = (p + 1) * m1 - 0.3
        got = reports[p].nu_fitted_order
        ok = ok and got >= need
        parts.append(f"p={p} flux order {got:.4f} (needs >= {need:.2f})")
    announce(2, "Kirchhoff remainder rate", ok, "; ".join(parts))


def test_reference_term_residuals_and_truncation_order(reference_run):
    # not an acceptance line: what the recursion leaves on the reference.
    # The report has a row for each u term; U terms and layers meet their
    # march's own update (they read 0 here); the truncation leftover is
    # eps^2 d_x^2 u_0 on the m = 1 edge at both orders, since u_1 = 0, so
    # it fits order 2 (measured 2.0000)
    _, reports, expansions, problems, _, _ = reference_run
    for p in (0, 1):
        rep = reports[p]
        log = [k for k, _ in expansions[p].build_log]
        assert [r.key for r in rep.term_residuals] == [k for k in log if k[0] == "u"]
        marched = stored_march_residuals(expansions[p], problems[p])
        assert [m[0] for m in marched] == [k for k in log if k[0] != "u"]
        for key, res, scale in marched:
            assert res <= 1e-10 * scale, key
        assert abs(rep.trunc_fitted_order - 2.0) <= 0.1
        assert all(r.sup_trunc > 0.0 for r in rep.residual_reports)


def _support_excess(es) -> float:
    worst = 0.0
    for fld in list(es.vertex_layers.values()) + list(es.boundary_layers.values()):
        xi = fld.x_nodes
        t = fld.times
        mask = xi[:, None] > t[None, :] + 2.0 * t[1]
        if mask.any():
            worst = max(worst, float(np.max(np.abs(zero_padded(fld)[mask]))))
    return worst


def test_criterion_3_layer_support(reference_run, announce):
    _, _, expansions, _, _, _ = reference_run
    worst = max(_support_excess(expansions[p]) for p in (0, 1))
    announce(3, "layer support ahead of front", worst <= 1e-8,
             f"max |v| past xi = t + 2h over all layers: {worst:.3e} (cap 1e-8)")


def test_criterion_4_integral_representation(announce):
    dt = 2.5e-4
    grid = LayerGrid(n_xi=10000, dt=dt, steps=2000)
    xi = grid.xi_nodes()
    beta = lambda y: 0.5 * np.cos(y)
    probes = [(0.4, 0.2), (0.7, 0.5), (1.2, 0.5), (1.7, 0.5)]
    parts = []
    ok = True
    for theta in (-1.0, 0.0, 1.0, 4.0):
        vals = qp_march_reference(QuarterPlaneProblem(theta, np.zeros(grid.steps + 1)), grid,
                                  initial=(np.sin(xi), beta(xi)))
        w = 0.0
        for s, t in probes:
            j, m = round(s / dt), round(t / dt)
            want = qp_oracle_below_characteristic(theta, np.sin, beta,
                                                  xi[j], m * dt)
            w = max(w, abs(float(vals[j, m]) - want))
            if theta == 0.0:
                # oracle and scheme must both land on d'Alembert
                sa, ta = xi[j], m * dt
                dal = (0.5 * (np.sin(sa + ta) + np.sin(sa - ta))
                       + 0.25 * (np.sin(sa + ta) - np.sin(sa - ta)))
                w = max(w, abs(want - dal),
                        abs(float(vals[j, m]) - dal))
        ok = ok and w <= 1e-4
        parts.append(f"theta={theta:g}: {w:.2e}")
    announce(4, "quarter-plane oracle", ok,
             "max |scheme - closed form| " + ", ".join(parts) + " (cap 1e-4)")


def test_criterion_5_odd_terms_null(announce):
    specs = [star_spec(),
             star_spec(exponents=(0, 2), subgraphs=(0, 1), lengths=(1.0, 1.0))]
    ok = True
    checked = 0
    for spec in specs:
        grids = make_expansion_grids(spec, 64, 0.9)
        es = build_expansion(spec, 3, grids)
        for e in spec.graph.gstar_edges():
            for s in (1, 3):
                term = es.edge_terms[(s, e)]
                ok = ok and term.is_zero and not dense(term.values).any()
                checked += 1
    announce(5, "odd interior terms vanish", ok,
             f"{checked} odd terms across 2 graphs, all identically zero")


def test_criterion_6_node_constraints(reference_run, announce):
    run, _, expansions, _, cache, _ = reference_run
    worst = 0.0
    for p in (0, 1):
        for eps in (0.4, 0.05):
            grid = make_direct_grid(run.spec, eps, run.n_per_edge, run.cfl)
            assert cache[(run.spec, eps, grid)].grid == grid
            fld = assemble_partial_sum(expansions[p], eps, grid)
            t = grid.times()
            for e in range(run.spec.graph.n_edges):
                worst = max(worst, float(np.max(np.abs(
                    fld.edges[e][0, :] - fld.sigma))))
                mu = np.broadcast_to(np.asarray(
                    run.spec.mu[e].evaluate(0.0, t), dtype=float), t.shape)
                worst = max(worst, float(np.max(np.abs(
                    fld.edges[e][-1, :] - mu))))
    announce(6, "assembled node constraints", worst <= 1e-12,
             f"max continuity/Dirichlet defect {worst:.3e} (cap 1e-12)")


def test_criterion_7_direct_solver_gates(announce):
    spec = manufactured_spec(0.5)
    e1 = _manufactured_error(spec, 0.5, 64)
    e2 = _manufactured_error(spec, 0.5, 128)
    ratio = e1 / e2
    _, fld, grid, mode_spec = _eigenmode_error(400)
    e0 = energy(fld, mode_spec, 0.5, 0)
    drift = max(abs(energy(fld, mode_spec, 0.5, n) - e0)
                for n in (grid.steps // 2, grid.steps)) / e0
    ok = ratio >= 3.5 and drift <= 1e-3
    announce(7, "direct solver gates", ok,
             f"manufactured reduction {ratio:.2f}x (needs >= 3.5); "
             f"energy drift {drift:.2e} (cap 1e-3)")


def test_criterion_8_kernel_accuracy(announce):
    zs = np.linspace(-100.0, 400.0, 126)
    got = phi_entire(zs)
    want = np.array([phi_series_decimal(float(z)) for z in zs])
    rel = float(np.max(np.abs(got - want) / np.abs(want)))
    thetas = np.linspace(-5.0, 5.0, 41)[:, None]
    ts = np.linspace(0.0, 3.0, 61)[None, :]
    ident = float(np.max(np.abs(cs(thetas, ts) ** 2
                                + thetas * sn(thetas, ts) ** 2 - 1.0)))
    ok = rel <= 1e-12 and ident <= 1e-10
    announce(8, "kernel accuracy", ok,
             f"series oracle rel err {rel:.2e} (cap 1e-12); "
             f"Pythagorean defect {ident:.2e} (cap 1e-10)")


def test_criterion_9_compatibility_gate(tmp_path, announce):
    r0 = subprocess.run([sys.executable, "-m", "starwaves.cli", "check",
                         str(REFERENCE_CONFIG)], capture_output=True, text=True)
    cfg = json.loads(REFERENCE_CONFIG.read_text())
    cfg["mu"][1] = "1"
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(cfg))
    r1 = subprocess.run([sys.executable, "-m", "starwaves.cli", "check",
                         str(bad)], capture_output=True, text=True)
    ok = (r0.returncode == 0 and r1.returncode == 1
          and "value_match" in r1.stdout)
    announce(9, "compatibility gate", ok,
             f"reference exit {r0.returncode} (wants 0); perturbed exit "
             f"{r1.returncode} (wants 1, names value_match)")
