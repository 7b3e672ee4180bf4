"""Command line front end.

Exit codes: 0 success, 1 failed check or failed verification, 2 bad
configuration (message names the offending field or the failed
compatibility condition), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .direct import direct_solve
from .errors import (ExprDomainError, ExprSyntaxError, GraphConfigError,
                     NonFiniteError, StabilityError)
from .expansion import ExpansionSet, build_expansion
from .graph import check_compatibility_C1, check_compatibility_C2
from .grid import make_direct_grid, make_expansion_grids, slabs
from .harness import (NORM_NOTE, RunConfig, convergence_sweep, load_config,
                      validate_config, write_field_csvs, write_grid_csv,
                      write_plot_csv, write_report_csv, write_residuals_csv,
                      write_term_residuals_csv, write_trace_csv)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _out_dir(arg: str) -> Path:
    """The --out directory, made if missing; a path that cannot be one is a config error."""
    out = Path(arg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise GraphConfigError(f"--out: {exc}") from exc
    return out


def _run_config(args) -> RunConfig:
    """The validated config, with a --p override checked like the config's p."""
    cfg = load_config(args.config)
    if args.p is not None:
        cfg["p"] = args.p
    return validate_config(cfg)


def _cmd_check(args) -> int:
    rc = validate_config(load_config(args.config))
    r1 = check_compatibility_C1(rc.spec)
    r2 = check_compatibility_C2(rc.spec)
    for line in r1.lines():
        print("C1 " + line)
    for line in r2.lines():
        print("C2 " + line + ("" if "FAIL" not in line else " (informational)"))
    print(f"first-order fit: {'PASS' if r1.passed else 'FAIL'}; "
          f"second-order fit: {'PASS' if r2.passed else 'FAIL'} (informational)")
    return EXIT_OK if r1.passed else EXIT_CHECK_FAILED


def _cmd_solve(args) -> int:
    rc = validate_config(load_config(args.config))
    if not (0.0 < args.eps < 1.0):
        raise GraphConfigError("eps: must lie in (0,1)")
    out = _out_dir(args.out)
    grid = make_direct_grid(rc.spec, args.eps, rc.n_per_edge, rc.cfl)
    fld = direct_solve(rc.spec, args.eps, grid)
    paths = write_field_csvs(out, fld)
    write_trace_csv(out / "trace.csv", grid.times(), fld.sigma)
    for p in paths:
        print(f"wrote {p}")
    print(f"wrote {out / 'trace.csv'}")
    return EXIT_OK


def _term_tables(es: ExpansionSet) -> list[tuple[str, np.ndarray, np.ndarray, str]]:
    """(file name, x nodes, values, x column name) for every series term,
    in build_log order, the name made from the term's key.

    values is an array, or SlabBlocks (a layer, an edge of a U correction,
    a zero u term), which stop short of its x nodes in each time slab; read
    through grid.slabs, the rest is zero.
    """
    tables = []
    for key, _ in es.build_log:
        family, k, i = key
        term = es.term(key)
        if family == "U":
            tables += [(f"term_U_s{k}{f'_sub{i}' if k else ''}_edge{e}.csv",
                        es.grids.g0.x_nodes(loc), term.edges[loc], "x")
                       for loc, e in enumerate(es.grids.g0_edge_ids)]
        else:
            tables.append((f"term_{family}_{'P' if family == 'v' else 's'}{k}_edge{i}.csv",
                           term.x_nodes, term.values, "x" if family == "u" else "xi"))
    return tables


def _cmd_expand(args) -> int:
    rc = _run_config(args)
    out = _out_dir(args.out)
    grids = make_expansion_grids(rc.spec, rc.n_per_edge, rc.cfl)
    es = build_expansion(rc.spec, rc.p, grids)
    t = grids.times
    st = max(1, -((len(t) - 1) // -256))
    kept = np.arange(0, len(t), st)
    tables = _term_tables(es)
    for name, x, u, xname in tables:
        sx = max(1, -((len(x) - 1) // -256))
        xs = x[::sx]
        # every node past a stored block is zero
        us = np.zeros((len(xs), len(kept)))
        for cols, b in slabs(u):
            js = kept[(kept >= cols.start) & (kept < cols.stop)]
            us[:-(-len(b) // sx), js // st] = b[::sx, js - cols.start]
        write_grid_csv(out / name, f"{xname},t,value", xs, t[kept], us)
    print(f"wrote {len(tables)} term CSVs to {out} (decimated to <=257 samples per axis)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    rc = _run_config(args)
    out = _out_dir(args.out)
    print(f"note: {NORM_NOTE}")
    rep = convergence_sweep(rc.spec, rc.p, rc.epsilons, rc.n_per_edge, rc.cfl,
                            rc.margin)
    write_report_csv(out / "report.csv", rep)
    write_residuals_csv(out / "residuals.csv", rep.residual_reports)
    write_term_residuals_csv(out / "term_residuals.csv", rep.term_residuals)
    write_plot_csv(out / "plot.csv", rep)
    for eps, tr in zip(rep.epsilons, rep.errors):
        print(f"eps={eps:g}: linf={tr.linf:.6e} l2={tr.l2:.6e} h1x={tr.h1x:.6e}")
    print(f"fitted order {rep.fitted_order:.4f} vs theoretical "
          f"{rep.theoretical_order:.4f} (margin {rep.margin:g}); "
          f"flux remainder order {rep.nu_fitted_order:.4f}; "
          f"truncation leftover order {rep.trunc_fitted_order:.4f}")
    if not rep.conclusive:
        print(f"inconclusive: refinement estimate {rep.refine_estimate:.3e} "
              f"exceeds 10% of the smallest error")
    print(f"result: {'PASS' if rep.passed else 'FAIL'}")
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="starwaves",
        description="Wave propagation on a star graph with degenerating "
                    "edge stiffness: direct solver, boundary-layer series, "
                    "and convergence verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run data compatibility checks")
    c.add_argument("config")
    c.set_defaults(func=_cmd_check)

    s = sub.add_parser("solve", help="direct finite-difference solve")
    s.add_argument("config")
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--out", default=".")
    s.set_defaults(func=_cmd_solve)

    e = sub.add_parser("expand", help="build the series terms, write CSVs")
    e.add_argument("config")
    e.add_argument("--p", type=int, default=None)
    e.add_argument("--out", default=".")
    e.set_defaults(func=_cmd_expand)

    v = sub.add_parser("verify", help="convergence sweep against the "
                                      "predicted rate")
    v.add_argument("config")
    v.add_argument("--p", type=int, default=None)
    v.add_argument("--out", default=".")
    v.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphConfigError, ExprSyntaxError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StabilityError, ExprDomainError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
