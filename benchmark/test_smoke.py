"""Smoke test of the benchmark itself, on a tiny config.

    python3 -m pytest benchmark/test_smoke.py

Records expected outputs for benchmark/smoke_config.json into a temporary
file, then checks that every run prints every metric BENCHMARK.json names
with its unit, that the trace accounts for the traced wall time, and that
a corrupted recorded value is reported as a failed operation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(*args, expected, results, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"),
         "--config", str(BENCH / "smoke_config.json"),
         "--expected", str(expected), "--results", str(results), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    expected = tmp / "expected.json"
    proc = _run("--record", expected=expected, results=tmp / "results")
    assert proc.returncode == 0, proc.stderr
    return expected, tmp / "results"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(recorded, workload, trace):
    expected, results = recorded
    res = _result(_run("--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), expected=expected,
                       results=results))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1 + trace
    want = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    for v in res["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace:
        rec = json.loads((results / f"BENCH_{workload}_seed7_trace1.json")
                         .read_text())
        for it in rec["iterations"]:
            if it["traced"]:
                acc = it["accounting"]
                assert acc["sum_self_s"] == pytest.approx(acc["wall_s"],
                                                          abs=1e-9)
        names = {s["name"] for s in rec["spans"]}
        if workload == "expand-p4":
            assert not names & {"layers.sample_physical",
                                "direct.direct_solve", "harness.norms"}
            terms = next(s for s in rec["spans"]
                         if s["name"] == "expansion.build_expansion")
            assert all(t["seconds"] is not None for t in terms["attrs"]["terms"]
                       if t["key"][0] in "Uvw")


def test_corrupted_record_fails(recorded, tmp_path):
    expected, results = recorded
    doc = json.loads(expected.read_text())
    doc["workloads"]["reference-sweep"]["p0"]["fitted_order"] *= 1.001
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(doc))
    res = _result(_run("--workload", "reference-sweep", "--seconds", "1",
                       expected=bad, results=results))
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] >= 1


def test_refuses_tree_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [*CONTRACT["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
