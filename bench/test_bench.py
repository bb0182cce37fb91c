"""Smoke tests for the benchmark itself, at tiny sizes (--smoke).

    python3 -m pytest -q bench/test_bench.py

Each workload runs once untraced and once traced on a 4x2 (ingest-wide)
or 3x5 (train-diurnal, elastic-loop) fabric for a few simulated hours or
days, so the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--smoke"],
                          cwd=root, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def traced_reports():
    out = {}
    for workload in WORKLOADS:
        done = run_bench(workload, 1)
        assert done.returncode == 0, done.stderr
        out[workload] = json.loads(done.stdout.splitlines()[-1])
        report = ROOT / ".bench_work" / "reports" / f"{workload}-seed3-smoke-trace1.json"
        out[workload]["report"] = json.loads(report.read_text(encoding="utf-8"))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_result_has_every_end_to_end_metric(workload):
    done = run_bench(workload, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_results_cover_every_per_layer_metric(traced_reports):
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    measured = {"trace.run_s", "trace.untraced_run_s", "trace.overhead_s"}
    for result in traced_reports.values():
        assert result["correct"], result["report"]["failures"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for it in result["report"]["iterations"]:
            measured |= set(it["layers"])
    # every declared name is something a traced iteration measures
    assert set(declared) <= measured


def test_layer_self_times_add_up_to_traced_run(traced_reports):
    layers = ("fabric", "telemetry", "windows", "nn", "forecaster", "policy", "pipeline")
    for result in traced_reports.values():
        for it in result["report"]["iterations"]:
            if it["mode"] == "trace":
                # the region around the timed call is a few microseconds wider
                total = sum(it["layers"][f"{layer}.self_s"] for layer in layers)
                assert total == pytest.approx(it["run_s"], abs=1e-3)


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("ingest-wide", 0, root=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
