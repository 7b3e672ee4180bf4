import json
import subprocess
import sys
import threading

import numpy as np
import pytest

from starwaves import cli, expansion, harness
from starwaves import grid as grid_module
from starwaves.errors import NonFiniteError, StabilityError
from starwaves.expansion import build_expansion
from starwaves.grid import make_expansion_grids
from starwaves.harness import load_config, validate_config, write_grid_csv

from .helpers import REFERENCE_CONFIG, star_spec, zero_padded


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "starwaves.cli", *args],
                          capture_output=True, text=True)


def small_cfg(**over):
    cfg = {
        "graph": {"edges": [{"length": 1.0, "subgraph": 0},
                            {"length": 1.0, "subgraph": 1}],
                  "exponents": [0, 1]},
        "q": ["1 + x", "1 + x"],
        "f": ["sin(t)*(1 + x)", "sin(t)*(1 + x)"],
        "phi": ["cos(pi*x/2)", "cos(pi*x/2)"],
        "psi": ["0", "0"],
        "mu": ["0", "0"],
        "T": 1.5,
        "epsilons": [0.6, 0.45, 0.3],
        "p": 0,
        "grid": {"n_per_edge": 48, "cfl": 0.9},
        "margin": 0.3,
    }
    cfg.update(over)
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_check_reference_passes():
    r = run_cli("check", str(REFERENCE_CONFIG))
    assert r.returncode == 0
    assert "first-order fit: PASS" in r.stdout
    # the reference initial profile misses the second-order fit on purpose;
    # that is reported but does not gate
    assert "second-order fit: FAIL (informational)" in r.stdout
    assert "(informational)" in r.stdout


def test_check_incompatible_boundary_data(tmp_path):
    cfg = json.loads(REFERENCE_CONFIG.read_text())
    cfg["mu"] = ["1", "1", "1"]
    r = run_cli("check", write_cfg(tmp_path, cfg))
    assert r.returncode == 1
    assert "value_match" in r.stdout
    assert "first-order fit: FAIL" in r.stdout


def test_solve_writes_fields(tmp_path):
    cfg = write_cfg(tmp_path, small_cfg())
    out = tmp_path / "out"
    r = run_cli("solve", cfg, "--eps", "0.5", "--out", str(out))
    assert r.returncode == 0, r.stderr
    for name in ("field_0.csv", "field_1.csv", "trace.csv"):
        assert (out / name).exists()
        assert f"wrote {out / name}" in r.stdout
    assert (out / "field_0.csv").read_text().splitlines()[0] == "tau,t,u"
    assert (out / "trace.csv").read_text().splitlines()[0] == "t,sigma"


def test_solve_eps_out_of_range(tmp_path):
    cfg = write_cfg(tmp_path, small_cfg())
    r = run_cli("solve", cfg, "--eps", "1.5", "--out", str(tmp_path))
    assert r.returncode == 2
    assert "eps" in r.stderr


def test_expand_writes_terms(tmp_path):
    cfg = write_cfg(tmp_path, small_cfg(p=1,
                                        graph={"edges": [{"length": 1.0, "subgraph": 0},
                                                         {"length": 1.0, "subgraph": 1}],
                                               "exponents": [0, 2]}))
    out = tmp_path / "terms"
    r = run_cli("expand", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    names = sorted(p.name for p in out.glob("*.csv"))
    assert names == [
        "term_U_s0_edge0.csv",
        "term_U_s1_sub1_edge0.csv",
        "term_u_s0_edge1.csv",
        "term_u_s1_edge1.csv",
        "term_v_P0_edge1.csv",
        "term_v_P2_edge1.csv",
        "term_w_s0_edge1.csv",
        "term_w_s1_edge1.csv",
    ]
    lines = (out / "term_U_s0_edge0.csv").read_text().splitlines()
    assert lines[0] == "x,t,value"
    assert len(lines) <= 1 + 257 * 257
    assert "wrote 8 term CSVs" in r.stdout


def test_expand_layer_csvs_cover_the_grid(tmp_path):
    # layers are stored up to their band; their CSVs still run over the
    # whole decimated xi axis, zero rows past the band, with the bytes of a
    # full-width rendering of the same term
    cfg = write_cfg(tmp_path, small_cfg(p=1,
                                        graph={"edges": [{"length": 1.0, "subgraph": 0},
                                                         {"length": 1.0, "subgraph": 1}],
                                               "exponents": [0, 2]}))
    out = tmp_path / "terms"
    assert cli.main(["expand", cfg, "--out", str(out)]) == 0
    rc = validate_config(load_config(cfg))
    grids = make_expansion_grids(rc.spec, rc.n_per_edge, rc.cfl)
    es = build_expansion(rc.spec, rc.p, grids)
    xi, t = grids.layer.xi_nodes(), grids.times
    sx = -((len(xi) - 1) // -256)
    st = -((len(t) - 1) // -256)
    layers = {f"term_v_P{P}_edge{e}.csv": fld for (P, e), fld in es.vertex_layers.items()}
    layers.update({f"term_w_s{s}_edge{e}.csv": fld
                   for (s, e), fld in es.boundary_layers.items()})
    assert len(layers) == 4
    for name, fld in layers.items():
        assert fld.values.shape[0] < len(xi)
        lines = (out / name).read_text().splitlines()
        assert len(lines) - 1 == len(xi[::sx]) * len(t[::st])
        assert all(float(line.rsplit(",", 1)[1]) == 0.0 for line in lines[-len(t[::st]):])
        full = tmp_path / "full.csv"
        write_grid_csv(full, "xi,t,value", xi[::sx], t[::st],
                       zero_padded(fld)[::sx, ::st])
        assert (out / name).read_bytes() == full.read_bytes(), name


def test_expand_order_too_high(tmp_path):
    cfg = write_cfg(tmp_path, small_cfg())
    r = run_cli("expand", cfg, "--p", "9", "--out", str(tmp_path))
    assert r.returncode == 2
    assert "config error" in r.stderr


@pytest.mark.parametrize("cmd", ["expand", "verify"])
@pytest.mark.parametrize("flag,p", [(True, -1), (False, 7)])
def test_order_out_of_range_exit_code(tmp_path, cmd, flag, p):
    # one check of the order, whether it comes from --p or from the config
    cfg = json.loads(REFERENCE_CONFIG.read_text())
    if not flag:
        cfg["p"] = p
    r = run_cli(cmd, write_cfg(tmp_path, cfg), *(["--p", str(p)] if flag else []),
                "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert "config error: p: must be >= 0 and <= 4" in r.stderr


def test_verify_small_sweep(tmp_path):
    cfg = write_cfg(tmp_path, small_cfg())
    out = tmp_path / "rep"
    r = run_cli("verify", cfg, "--out", str(out))
    assert r.returncode in (0, 1), r.stderr
    for name in ("report.csv", "residuals.csv", "term_residuals.csv", "plot.csv"):
        assert (out / name).exists()
    assert r.stdout.startswith("note: norms are")
    assert "fitted order" in r.stdout
    assert "result: " in r.stdout
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "epsilon,err_linf,err_l2,err_h1x,fitted_order,theoretical_order,pass"


def test_config_error_paths(tmp_path):
    r = run_cli("check", str(tmp_path / "missing.json"))
    assert r.returncode == 2 and "cannot read" in r.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    r = run_cli("check", str(bad))
    assert r.returncode == 2 and "not valid JSON" in r.stderr

    cfg = small_cfg()
    cfg["grid"]["bogus"] = 1
    r = run_cli("check", write_cfg(tmp_path, cfg))
    assert r.returncode == 2 and "grid.bogus: unknown key" in r.stderr

    cfg = small_cfg(T=float("inf"))  # json writes Infinity
    r = run_cli("solve", write_cfg(tmp_path, cfg), "--eps", "0.2",
                "--out", str(tmp_path / "out"))
    assert r.returncode == 2 and "config error: T:" in r.stderr


def test_verify_too_few_cells_for_the_refinement_grid(tmp_path):
    # 10 cells give a 2x-coarse grid of 5, below the 8 a grid needs
    cfg = json.loads(REFERENCE_CONFIG.read_text())
    cfg["grid"]["n_per_edge"] = 10
    cfg["epsilons"] = [0.4, 0.3, 0.2]
    r = run_cli("verify", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "rep"))
    assert r.returncode == 2
    assert "config error: grid.n_per_edge: 10 is too small" in r.stderr
    assert "15 or more works" in r.stderr


def test_verify_zero_data_exit_code(tmp_path):
    zero = ["0", "0"]
    cfg = write_cfg(tmp_path, small_cfg(f=zero, phi=zero, psi=zero, mu=zero))
    r = run_cli("verify", cfg, "--out", str(tmp_path / "rep"))
    assert r.returncode == 2
    assert "config error: L2 error at eps=0.6 is 0" in r.stderr


def test_usage_errors():
    r = run_cli()
    assert r.returncode == 2
    assert "usage" in r.stderr
    r = run_cli("solve", "whatever.json")  # --eps is required
    assert r.returncode == 2


@pytest.mark.parametrize("cmd", [("solve", "--eps", "0.1"), ("expand",),
                                 ("verify",)])
def test_compatibility_failure_exit_code(tmp_path, cmd):
    # one C1 failure, one exception type and one exit code in every
    # subcommand that refuses incompatible data
    cfg = json.loads(REFERENCE_CONFIG.read_text())
    cfg["mu"][0] = "0.5"
    r = run_cli(cmd[0], write_cfg(tmp_path, cfg), *cmd[1:],
                "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert "config error: C1 compatibility failed: value_match[a_0]" in r.stderr


@pytest.mark.parametrize("q", ["1e200^2 + x", "cosh(1000) + x", "1/0 + x"])
@pytest.mark.parametrize("cmd", [("check",), ("solve", "--eps", "0.1")])
def test_expression_overflow_exit_code(tmp_path, cmd, q):
    # an overflowing constant is a domain error like a division by zero
    cfg = json.loads(REFERENCE_CONFIG.read_text())
    cfg["q"][2] = q
    out = ["--out", str(tmp_path / "out")] if cmd[0] == "solve" else []
    r = run_cli(cmd[0], write_cfg(tmp_path, cfg), *cmd[1:], *out)
    assert r.returncode == 3
    assert "numerical failure: " in r.stderr


@pytest.mark.parametrize("cmd", [("solve", "--eps", "0.5"), ("expand",),
                                 ("verify",)])
def test_out_not_a_directory_exit_code(tmp_path, cmd):
    # a bad output path is bad configuration, not a failed check
    cfg = write_cfg(tmp_path, small_cfg())
    taken = tmp_path / "taken"
    taken.write_text("")
    r = run_cli(cmd[0], cfg, *cmd[1:], "--out", str(taken))
    assert r.returncode == 2
    assert "config error: --out: " in r.stderr
    assert "Traceback" not in r.stderr


def overflowing_cfg(q: str) -> dict:
    # the reference data with q on every edge, on a coarse grid
    cfg = json.loads(REFERENCE_CONFIG.read_text())
    cfg.update(q=[q] * 3, epsilons=[0.4, 0.2, 0.1])
    cfg["grid"]["n_per_edge"] = 64
    return cfg


def test_overflowing_series_term_exits_3_in_expand_and_verify(tmp_path):
    # q = -2.2e5 keeps the kernels finite (sqrt(2.2e5) T = 703.6), so check
    # and solve pass; the unit-speed correction marched on the vertex
    # layer's flux overflows, and it is refused where it is built, naming
    # its build_log key, before any layer is solved on it
    path = write_cfg(tmp_path, overflowing_cfg("-220000 + x"))
    out = ["--out", str(tmp_path / "out")]
    for cmd, want in ((["check"], 0), (["solve", "--eps", "0.1", *out], 0),
                      (["expand", "--p", "1", *out], 3), (["verify", *out], 3)):
        r = run_cli(cmd[0], path, *cmd[1:])
        assert r.returncode == want, (cmd, r.stderr)
        assert "Traceback" not in r.stderr, cmd
        if want == 3:
            lines = r.stderr.splitlines()
            assert lines[-1] == "numerical failure: term ('U', 1, 1) is not finite"
            assert not [ln for ln in lines if "layers.py" in ln], cmd


def test_build_stops_at_the_first_non_finite_term(tmp_path, monkeypatch):
    # in-process, on a spec that validate_config refuses (q = -3e5 takes
    # the kernels past their range): after the bad u_0 no layer is solved
    # and no unit-speed correction is marched
    calls = []
    for name in ("solve_g0", "solve_degenerate_edge", "qp_solve"):
        def traced(*args, fn=getattr(expansion, name), name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(expansion, name, traced)
    spec = star_spec(q="-300000 + x")
    grids = make_expansion_grids(spec, 64, 0.9)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match=r"^term \('u', 0, 1\) is not finite$"):
            build_expansion(spec, 1, grids)
    assert calls == ["solve_g0", "solve_degenerate_edge"]


def test_non_ascii_digit_in_an_expression_is_a_config_error(tmp_path):
    cfg = small_cfg()
    cfg["q"][0] = "1 + x*\u00b2"
    r = run_cli("check", write_cfg(tmp_path, cfg))
    assert r.returncode == 2, r.stderr
    assert "config error: q[0]: unexpected character '\u00b2' (at offset 6)" in r.stderr
    assert "Traceback" not in r.stderr


SUBCOMMANDS = [("check",), ("solve", "--eps", "0.1"), ("expand",), ("verify",)]


def run_subcommand(tmp_path, cmd, cfg_path):
    out = [] if cmd[0] == "check" else ["--out", str(tmp_path / "out")]
    return run_cli(cmd[0], cfg_path, *cmd[1:], *out)


@pytest.mark.parametrize("cmd", SUBCOMMANDS, ids=lambda c: c[0])
def test_kernel_overflow_is_a_config_error(tmp_path, cmd):
    # sqrt(3e5) T = 821.6 is past 710.48, where cosh and sinh overflow:
    # every subcommand refuses the config the same way, with no warning
    r = run_subcommand(tmp_path, cmd, write_cfg(tmp_path, overflowing_cfg("-300000 + x")))
    assert r.returncode == 2, r.stderr
    assert r.stderr.splitlines() == [
        "config error: q[1]: sqrt(-q) T reaches 821.584, past 710.476, "
        "where cosh and sinh overflow"]


@pytest.mark.parametrize("over,field,refused", [
    ({"T": 1e308}, "T", {"solve", "expand", "verify"}),
    # eps^(2m) is 0 at every eps of the sweep and at the solve's
    ({"graph": {"edges": [{"length": 1.0, "subgraph": 0}, {"length": 1.0, "subgraph": 1}],
                "exponents": [0, 1000]}}, "graph.exponents[1]", {"solve", "verify"}),
], ids=["T", "exponent"])
@pytest.mark.parametrize("cmd", SUBCOMMANDS, ids=lambda c: c[0])
def test_grid_count_not_finite_exit_code(tmp_path, cmd, over, field, refused):
    # a subcommand that builds the grid refuses it, naming the field; the
    # others build no such grid and pass
    r = run_subcommand(tmp_path, cmd, write_cfg(tmp_path, small_cfg(**over)))
    assert "Traceback" not in r.stderr
    if cmd[0] in refused:
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith(f"config error: {field}: ")
    else:
        assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("cmd", SUBCOMMANDS, ids=lambda c: c[0])
def test_grid_past_physical_memory_exit_code(tmp_path, monkeypatch, capsys, cmd):
    # with the memory probe patched to 1000 bytes, every subcommand that
    # builds a grid refuses the config, naming the field, before it makes
    # an array; check builds none and passes
    monkeypatch.setattr(grid_module, "physical_memory", lambda: 1000)
    out = [] if cmd[0] == "check" else ["--out", str(tmp_path / "out")]
    rc = cli.main([cmd[0], write_cfg(tmp_path, small_cfg()), *cmd[1:], *out])
    err = capsys.readouterr().err
    if cmd[0] == "check":
        assert rc == 0, err
    else:
        assert rc == cli.EXIT_CONFIG == 2
        assert err.startswith("config error: grid.n_per_edge: ")
        assert "GiB of physical memory" in err


@pytest.mark.parametrize("cmd", SUBCOMMANDS, ids=lambda c: c[0])
def test_config_not_utf8_exit_code(tmp_path, cmd):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"graph": "\xff\xfe"}')
    r = run_subcommand(tmp_path, cmd, str(path))
    assert r.returncode == 2, r.stderr
    assert "config error: cannot read config: 'utf-8' codec can't decode" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("field,i,src,offset", [
    ("q", 0, "+".join(["x"] * 2000), 201),
    ("phi", 1, "(" * 600 + "cos(pi*x/2)" + ")" * 600, 100)], ids=["sum", "parentheses"])
@pytest.mark.parametrize("cmd", SUBCOMMANDS, ids=lambda c: c[0])
def test_deeply_nested_expression_exit_code(tmp_path, cmd, field, i, src, offset):
    # a tree past the parser's depth limit is refused before anything
    # recurses through it
    cfg = json.loads(REFERENCE_CONFIG.read_text())
    cfg[field][i] = src
    r = run_subcommand(tmp_path, cmd, write_cfg(tmp_path, cfg))
    assert r.returncode == 2, r.stderr
    assert (f"config error: {field}[{i}]: expression nested deeper than 100 levels "
            f"(at offset {offset})") in r.stderr
    assert "Traceback" not in r.stderr


def test_verify_exits_3_on_a_nan_error(tmp_path, monkeypatch, capsys):
    # one nan node in a direct field: verify reports a numerical failure
    # naming the eps and the norm, not a config error
    solve = harness.direct_solve

    def nan_solve(spec, eps, grid):
        fld = solve(spec, eps, grid)
        if eps == 0.45:
            fld.edges[1][5, 3] = np.nan
        return fld
    monkeypatch.setattr(harness, "direct_solve", nan_solve)
    cfg = write_cfg(tmp_path, small_cfg())
    rc = cli.main(["verify", cfg, "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_NUMERICAL == 3
    assert "numerical failure: L-infinity error at eps=0.45 is nan" in err


def test_verify_exits_3_on_a_failing_solve(tmp_path, monkeypatch, capsys):
    # a solve of the sweep fails: the error comes back with its own type,
    # and no thread is left behind
    solve = harness.direct_solve

    def failing_solve(spec, eps, grid):
        if eps == 0.45:
            raise StabilityError("dt exceeds the stability bound")
        return solve(spec, eps, grid)
    monkeypatch.setattr(harness, "direct_solve", failing_solve)
    cfg = write_cfg(tmp_path, small_cfg())
    before = threading.active_count()
    rc = cli.main(["verify", cfg, "--out", str(tmp_path / "rep")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_NUMERICAL == 3
    assert "dt exceeds the stability bound" in err
    assert threading.active_count() == before
