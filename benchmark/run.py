"""starwaves benchmark: end-to-end metrics, or per-layer metrics from a trace.

    python3 benchmark/run.py --workload reference-sweep --seed 1 \\
        --seconds 40 --trace 0

runs one workload in a child process (benchmark/worker.py) with BLAS
threads pinned to one, measures set-up in further fresh processes, checks
every iteration's outputs against benchmark/expected.json, writes the full
record to benchmark/results/BENCH_<workload>_seed<n>_trace<t>.json and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  ``--workload all`` runs every
workload in an order the seed shuffles.

    python3 benchmark/run.py --record

re-records the expected outputs (one iteration of each workload).

Exit codes: 0 a result was printed (failed operations included), 2 the
tree or the arguments are unusable, 3 a worker process failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("reference-sweep", "expand-p4", "small-eps-sweep")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_PROBES = 4
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def _parse(argv):
    ap = argparse.ArgumentParser(description="starwaves benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--config", type=Path,
                    default=ROOT_DIR / "configs" / "reference.json")
    ap.add_argument("--expected", type=Path, default=BENCH_DIR / "expected.json")
    ap.add_argument("--results", type=Path, default=BENCH_DIR / "results")
    ap.add_argument("--record", action="store_true",
                    help="re-record the expected outputs and exit")
    return ap.parse_args(argv)


def _commit() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the tree."""
    git = ROOT_DIR / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT_DIR / "src" / "starwaves").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _environment() -> dict:
    return {"commit": _commit(), "source_sha256": _source_digest(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "platform": platform.platform()}


def _run_worker(extra: list[str], args, deadline: float | None) -> dict:
    """Run the worker to completion and return what it wrote."""
    args.results.mkdir(parents=True, exist_ok=True)
    result = args.results / f".worker-{os.getpid()}.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(WORKER), "--config", str(args.config),
           "--result", str(result), *extra]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.exists():
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink()


def run_workload(name: str, args, deadline: float | None) -> dict:
    """One run of one workload: the worker, between set-up probes.

    Half the probes run before the worker and half after it, so the set-up
    samples come from moments tens of seconds apart.
    """
    probes = [] if args.trace else ["probe"] * (SETUP_PROBES // 2)
    steps = probes + ["worker"] + probes
    setup = []
    work = None
    for step in steps:
        if step == "probe":
            setup.append(_run_worker(["--setup-only"], args, deadline)["setup_s"])
            continue
        scratch = args.results / f"scratch-{os.getpid()}"
        try:
            work = _run_worker(
                ["--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--expected", str(args.expected), "--scratch", str(scratch)],
                args, deadline)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        setup.append(work["setup_s"])
    its = work["iterations"]
    plain = [r["wall_s"] for r in its if not r["traced"] and "wall_s" in r]
    traced = [r for r in its if r["traced"] and "layers" in r]
    if args.trace:
        if not traced:
            raise WorkerFailed(f"{name}: no traced iteration completed")
        metrics = {k: statistics.median(r["layers"][k] for r in traced)
                   for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(plain)
                                       if plain else 0.0)
    else:
        if not plain:
            raise WorkerFailed(f"{name}: no iteration completed")
        metrics = {
            "wall_s": statistics.median(plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in its if "cpu_s" in r),
            "peak_rss_mb": work["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
    work.update({"setup_samples": setup, "metrics": metrics,
                 "attempted": len(its),
                 "failed": sum(not r["ok"] for r in its)})
    return work


def _report(name: str, res: dict, units: dict) -> None:
    its = res["iterations"]
    for k, v in res["metrics"].items():
        print(f"{name} {k} = {v:.6g} {units[k]}")
    print(f"{name}: {len(its)} iterations ({sum(r['traced'] for r in its)} "
          f"traced), {res['failed']} failed the output check; set-up "
          f"median of {len(res['setup_samples'])}")
    for r in its:
        for m in r.get("mismatches", []):
            print(f"{name} iteration {r['iteration']}: {m}")


def _record(args) -> int:
    outputs = {}
    scratch = args.results / f"scratch-{os.getpid()}"
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            res = _run_worker(["--workload", name, "--record",
                               "--scratch", str(scratch)], args, None)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if res["outputs"] is None:
            raise WorkerFailed(f"{name}: the iteration to record failed")
        outputs[name] = res["outputs"]
        versions = res["versions"]
    old = {}
    if args.expected.exists():
        old = json.loads(args.expected.read_text()).get("workloads", {})
    doc = {"config_sha256": hashlib.sha256(args.config.read_bytes()).hexdigest(),
           "recorded_with": {**_environment(), **versions},
           "workloads": {**old, **outputs}}
    args.expected.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"recorded {', '.join(outputs)} in {args.expected}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    for need in (ROOT_DIR / "src" / "starwaves" / "__init__.py", args.config,
                 *(() if args.record else (args.expected,))):
        if not need.is_file():
            print(f"benchmark: missing {need}", file=sys.stderr)
            return 2
    if args.seconds < 1:
        print("benchmark: --seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        if args.record:
            return _record(args)
        names = [args.workload] if args.workload != "all" else list(WORKLOADS)
        random.Random(args.seed).shuffle(names)
        deadline = (time.monotonic() + DEADLINE_S
                    if args.workload != "all" else None)
        units = LAYER_UNITS if args.trace else END_TO_END
        env = _environment()
        results = {}
        for name in names:
            res = run_workload(name, args, deadline)
            res["environment"] = env
            res["seconds"] = args.seconds
            out = args.results / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
            out.write_text(json.dumps(res, indent=1) + "\n")
            _report(name, res, units)
            results[name] = res
    except WorkerFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3

    def key(name, metric):
        return metric if len(results) == 1 else f"{name}.{metric}"

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {key(n, k): {"value": v, "unit": units[k]}
               for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
