"""One workload run in its own process, started by run.py.

The worker times its own set-up (importing starwaves, load_config and
validate_config), then runs iterations of one workload until the next one,
if it took as long as the slowest so far, would end past the time budget, checks every iteration's outputs against
the recorded values, and writes everything it measured to a JSON file.
Its peak RSS is therefore the workload's alone.

    python3 benchmark/worker.py --workload NAME --seconds S --trace 0|1 \\
        --seed N --config CFG --expected EXP --scratch DIR --result OUT
    python3 benchmark/worker.py --setup-only --config CFG --result OUT
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
MAX_MISMATCHES = 10


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--expected", type=Path)
    ap.add_argument("--scratch", type=Path)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="return the first iteration's outputs, check nothing")
    return ap.parse_args(argv)


def _expected_for(path: Path, workload: str, config: Path):
    """Recorded outputs of the workload, or a reason they cannot be used."""
    rec = json.loads(path.read_text())
    digest = hashlib.sha256(config.read_bytes()).hexdigest()
    if rec.get("config_sha256") != digest:
        return None, f"{config} is not the config recorded in {path}"
    if workload not in rec.get("workloads", {}):
        return None, f"no recorded outputs for {workload} in {path}"
    return rec["workloads"][workload], None


def main(argv=None) -> int:
    args = _parse(argv)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT_DIR / "src"))
    import starwaves
    from starwaves import harness
    rc = harness.validate_config(harness.load_config(args.config))
    setup_s = time.perf_counter() - t0
    src = Path(starwaves.__file__).resolve().parent
    if src != (ROOT_DIR / "src" / "starwaves").resolve():
        raise SystemExit(f"imported starwaves from {src}, not from this tree")
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy

    import tracing
    import workloads

    run, outputs = workloads.WORKLOADS[args.workload]
    expected, why_not = (None, None)
    if not args.record:
        expected, why_not = _expected_for(args.expected, args.workload,
                                          args.config)
    args.scratch.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(args.config, rc, args.scratch)
    tracer = tracing.Tracer(args.workload)
    # the seed decides whether a traced run starts traced or untraced
    traced_first = random.Random(args.seed).random() < 0.5

    iterations = []
    recorded = None
    durations = []
    loop_t0 = time.perf_counter()
    while True:
        it = len(iterations)
        traced = bool(args.trace) and ((it % 2 == 0) == traced_first)
        gc.collect()
        start = time.perf_counter()
        rec = {"iteration": it, "traced": traced, "ok": False}
        try:
            if traced:
                with tracer.installed(), tracer.iteration_span(it) as root:
                    c0 = time.process_time()
                    result = run(ctx, True)
                    c1 = time.process_time()
                rec["wall_s"] = root.duration
            else:
                w0 = time.perf_counter()
                c0 = time.process_time()
                result = run(ctx, False)
                c1 = time.process_time()
                rec["wall_s"] = time.perf_counter() - w0
            rec["cpu_s"] = c1 - c0
            got = outputs(ctx, result)
            del result
            if args.record:
                recorded = got
                rec["ok"] = True
            elif expected is None:
                rec["mismatches"] = [why_not]
            else:
                bad = workloads.compare(got, expected)
                rec["ok"] = not bad
                rec["mismatches"] = bad[:MAX_MISMATCHES]
            if traced:
                spans = tracer.spans_of(it)
                rec["layers"] = tracing.layer_metrics(spans, ctx.cache,
                                                      ctx.bytes_written)
                rec["accounting"] = tracing.accounting(spans)
        except Exception:
            rec["error"] = traceback.format_exc()
            print(rec["error"], file=sys.stderr)
        iterations.append(rec)
        durations.append(time.perf_counter() - start)
        if args.record:
            break
        kinds = {r["traced"] for r in iterations}
        if args.trace and len(kinds) < 2:
            continue
        elapsed = time.perf_counter() - loop_t0
        if elapsed + max(durations) > args.seconds:
            break

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "measured_s": time.perf_counter() - loop_t0,
        "iterations": iterations,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "untraced_targets": tracer.missing,
    }
    if args.trace:
        out["spans"] = [s.record(tracer.t0) for s in tracer.spans]
    if args.record:
        out["outputs"] = recorded
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
