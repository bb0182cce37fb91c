#!/usr/bin/env python3
"""spinescale benchmark: run one workload on one seed and report its metrics.

    python3 bench/run.py --workload ingest-wide --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout; it imports the program from
`src/` and nothing else. Each workload is one sequential caller (a closed
loop with one client). The seed makes the workload's config and inputs,
which are all the program is given. Every iteration runs in a fresh worker
process (bench/worker.py) with the BLAS pinned to one thread; iterations
repeat while the next should end within --seconds, and the metrics are
medians over them, each time first scaled for the host's speed measured
around its worker (see "Speed correction" in BENCHMARK.md). The first
iteration of each mode runs every output check; later ones must reproduce
its digests and actions.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it has the per-layer metrics of traced
iterations, which alternate with untraced ones to measure the tracing
overhead. Lines before it give every figure with its unit, the determinism
digests and the environment. A report with everything, raw iterations and
spans included, is written under .bench_work/reports/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
DEADLINE_S = 170      # the whole run must end within 180 s

# Speed correction (BENCHMARK.md): the host's speed drifts for seconds and
# for minutes at a time, so every time a worker reports is scaled by
# (REFERENCE_S / mean time of the reference reps timed just before and just
# after that worker) ** SENSITIVITY, the reference rep being fixed work
# timed in this process. Regressed over ten runs each (log against log),
# ingest-wide's and train-diurnal's run and decision times moved 0.46-0.49
# times as much as the reference's, hence 0.5.
REFERENCE_S = 0.0170  # one rep at this host's usual speed
REFERENCE_REPS = 5    # reps per sample; one sample before and after each worker
SENSITIVITY = 0.5
_REFERENCE_W = np.linspace(-1.0, 1.0, 32 * 128).reshape(32, 128) / 32.0


def workload_spec(workload: str, seed: int, smoke: bool) -> tuple[dict, dict]:
    """(program config, benchmark parameters) for a workload and seed."""
    if workload == "ingest-wide":
        leaves, spines, hours = (4, 2, 3) if smoke else (16, 8, 12)
        cfg = {
            "topology": {"n_leaf": leaves, "n_spine": spines, "capacity_bps": 10_000_000_000,
                         "base_latency_us": 3.0, "min_spines": 2, "max_spines": 8},
            "latency": {"queue_factor": 1.0, "noise_us": 0.2},
            "traffic": {"base_bps": 1_000_000_000, "diurnal_amp_bps": 400_000_000,
                        "burst_rate_per_hour": 0.3, "burst_size_bps": 600_000_000,
                        "noise_bps": 50_000_000, "flows_per_pair": 2},
            "training": {"lookback_hours": 1 if smoke else 4, "horizon_steps": 1,
                         "val_fraction": 0.2},
        }
        params = {"hours": hours}
    elif workload == "train-diurnal":
        cfg = {
            "topology": {"n_leaf": 3, "n_spine": 5, "capacity_bps": 10_000_000_000,
                         "base_latency_us": 3.0},
            "latency": {"queue_factor": 1.0, "noise_us": 0.2},
            "traffic": {"base_bps": 12_500_000_000, "diurnal_amp_bps": 5_000_000_000,
                        "noise_bps": 300_000_000, "flows_per_pair": 2 if smoke else 8},
            "training": ({"lookback_hours": 12, "epochs": 1, "hidden_size": 8,
                          "conv_channels": 4, "dropout": 0.2} if smoke else
                         {"lookback_hours": 48, "epochs": 2, "batch_size": 32,
                          "hidden_size": 32, "conv_channels": 8, "dropout": 0.2}),
            "policy": {"remove_threshold_us": 6.0, "add_threshold_us": 48.0,
                       "cooldown_cycles": 0},
            "run": {"hours_per_cycle": 48 if smoke else 168,
                    "horizon_hours": 24 if smoke else 120},
        }
        params = {"days": 3 if smoke else 14}
    elif workload == "elastic-loop":
        cfg = {
            "topology": {"n_leaf": 3, "n_spine": 5, "capacity_bps": 10_000_000_000,
                         "base_latency_us": 3.0, "min_spines": 3, "max_spines": 5,
                         "spine_slots": [1, 3, 3, 3, 1]},
            "latency": {"queue_factor": 1.0, "noise_us": 0.15},
            "traffic": {"base_bps": 12_500_000_000, "diurnal_amp_bps": 1_250_000_000,
                        "noise_bps": 150_000_000, "flows_per_pair": 2 if smoke else 16},
            "training": ({"lookback_hours": 12, "epochs": 2, "hidden_size": 8,
                          "conv_channels": 4, "dropout": 0.2} if smoke else
                         {"lookback_hours": 12, "epochs": 25, "dropout": 0.2}),
            "policy": {"remove_threshold_us": 7.0, "add_threshold_us": 9.0,
                       "cooldown_cycles": 1, "horizon_fraction": 0.5},
            "run": ({"cycles": 2, "hours_per_cycle": 24, "horizon_hours": 24} if smoke else
                    {"cycles": 4, "hours_per_cycle": 36, "horizon_hours": 36}),
        }
        params = {}
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return {"seed": seed, **cfg}, params


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(mode: str, spec_path: Path, result_path: Path, deadline: float,
           checks: str = "full") -> tuple[dict | None, float, float]:
    """Run one worker; returns (its result or None, spawn time, wall seconds)."""
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    try:
        done = subprocess.run([sys.executable, str(WORKER), mode, str(spec_path),
                               str(result_path), checks], env=worker_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        return None, spawned, time.monotonic() - spawned
    wall = time.monotonic() - spawned
    if done.returncode != 0 or not result_path.exists():
        sys.stderr.write(done.stderr)
        return None, spawned, wall
    return json.loads(result_path.read_text(encoding="utf-8")), spawned, wall


def reference_rep() -> None:
    """Fixed work of the program's two kinds: interpreter bookkeeping (dict
    updates, tuple appends) and small numpy calls in a Python loop, as in
    a recursive batch-1 LSTM step. It never changes with the program."""
    totals: dict[tuple[int, int], int] = {}
    records = []
    for i in range(15000):
        key = (i % 13, i % 5)
        totals[key] = totals.get(key, 0) + (i * 7) % 11
        if i % 3 == 0:
            records.append((i, key, totals[key] * 0.5))
    h = np.zeros((1, 32))
    for _ in range(1200):
        z = h @ _REFERENCE_W
        h = np.tanh(z[:, :32]) / (1.0 + np.exp(-z[:, 32:64]))


def reference_sample() -> list[float]:
    """Seconds of REFERENCE_REPS reference reps, timed now."""
    times = []
    for _ in range(REFERENCE_REPS):
        t0 = time.perf_counter()
        reference_rep()
        times.append(time.perf_counter() - t0)
    return times


def is_time(name: str) -> bool:
    return name.endswith(("_s", ".s", "_us", "s_p50"))


def speed_factor(before: list[float], after: list[float]) -> float:
    """Scale for the times of the worker run between two reference samples."""
    return (REFERENCE_S / statistics.fmean(before + after)) ** SENSITIVITY


def correct_speed(it: dict, speed: float) -> None:
    """Scale an iteration's times by `speed`, keeping the raw ones."""
    it["speed"] = speed
    it["raw_run_s"], it["run_s"] = it["run_s"], it["run_s"] * speed
    it["raw_decisions_s"], it["decisions_s"] = it["decisions_s"], [
        d * speed for d in it["decisions_s"]]
    it["layers"] = {name: value * speed if is_time(name) else value
                    for name, value in it["layers"].items()}


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(why))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # Part of the drift is per CPU: the reference and every worker (which
    # inherits this) run on the same one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "spinescale" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'spinescale'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    cfg, params = workload_spec(args.workload, args.seed, args.smoke)
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    work = WORK / tag
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    src_sha = source_digest()
    spec = {"workload": args.workload, "config_path": str(config_path),
            "out_dir": str(work / "out"), **params}
    if args.workload == "train-diurnal":
        key = hashlib.sha256((json.dumps(spec | cfg, sort_keys=True) + src_sha).encode())
        spec["input_path"] = str(WORK / "cache" / f"{tag}-{key.hexdigest()[:16]}.npy")
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    result_path = work / "result.json"

    attempted = failed = 0
    failures: list[str] = []

    def record(result: dict | None, what: str) -> bool:
        nonlocal attempted, failed
        if result is None:
            attempted, failed = attempted + 1, failed + 1
            failures.append(f"{what}: worker died")
            return False
        attempted += result["attempted"]
        failed += len(result["failures"])
        failures.extend(f"{what}: {f}" for f in result["failures"])
        return not result["failures"]

    if "input_path" in spec and not Path(spec["input_path"]).exists():
        Path(spec["input_path"]).parent.mkdir(parents=True, exist_ok=True)
        launch("generate", spec_path, result_path, deadline)
        if not Path(spec["input_path"]).exists():
            print("bench: input generation failed", file=sys.stderr)
            return 1

    setups: list[float] = []
    raw_setups: list[float] = []
    before = reference_sample()
    references = list(before)
    env = None
    for i in range(SETUP_PROBES):
        result, spawned, _ = launch("setup", spec_path, result_path, deadline)
        after = reference_sample()
        references += after
        if record(result, f"setup probe {i}"):
            raw_setups.append(result["ready"] - spawned)
            setups.append(raw_setups[-1] * speed_factor(before, after))
            env = result["env"]
        before = after

    modes = ["run", "trace"] if args.trace else ["run"]
    iterations: list[dict] = []
    began = time.monotonic()
    wall = 0.0
    # start an iteration only if it should end within --seconds, as the last did
    while len(iterations) < len(modes) or (time.monotonic() + wall - began < args.seconds
                                           and time.monotonic() + wall < deadline):
        mode = modes[len(iterations) % len(modes)]
        # the first iteration of each mode is checked in full; later ones
        # must reproduce its digests and actions (checked below)
        checked = any(it["mode"] == mode and it["ok"] for it in iterations)
        result, spawned, wall = launch(mode, spec_path, result_path, deadline,
                                       "digests" if checked else "full")
        after = reference_sample()
        references += after
        ok = record(result, f"iteration {len(iterations)} ({mode})")
        iterations.append({"mode": mode, "ok": ok, "wall_s": wall, **(result or {})})
        if ok:
            speed = speed_factor(before, after)
            raw_setups.append(result["ready"] - spawned)
            setups.append(raw_setups[-1] * speed)
            correct_speed(iterations[-1], speed)
        before = after

    valid = [it for it in iterations if it["ok"]]
    plain = [it for it in valid if it["mode"] == "run"]
    traced = [it for it in valid if it["mode"] == "trace"]

    # every repeat of one seed must produce the same artifacts and actions
    signatures = {json.dumps([it["digests"], it["actions"]], sort_keys=True) for it in valid}
    attempted += 1
    if len(signatures) > 1:
        failed += 1
        failures.append("digests or actions differ between repeats of one seed")

    first = valid[0] if valid else {}
    skills = [it["forecast_skill"] for it in valid if "forecast_skill" in it]
    skill = statistics.median(skills) if skills else None
    metrics: dict[str, tuple[float, str]] = {}
    raw: dict[str, float] = {}
    if plain:
        decisions = [d for it in plain for d in it["decisions_s"]]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(it["run_s"] for it in plain),
            "decision_s_p50": statistics.median(decisions),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain),
        }
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared["end_to_end"]}
        raw = {"setup_s": statistics.median(raw_setups),
               "run_s": statistics.median(it["raw_run_s"] for it in plain),
               "decision_s_p50": statistics.median(d for it in plain
                                                   for d in it["raw_decisions_s"])}
    layers: dict[str, tuple[float, str]] = {}
    if traced and plain:
        traced_run = statistics.median(it["run_s"] for it in traced)
        values = {"trace.run_s": traced_run, "trace.untraced_run_s": metrics["run_s"][0],
                  "trace.overhead_s": traced_run - metrics["run_s"][0], "forecast_skill": skill}
        for m in declared["per_layer"]:
            value = values.get(m["name"])
            if value is None:
                value = statistics.median(it["layers"].get(m["name"], 0) for it in traced)
            layers[m["name"]] = (value, m["unit"])

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "why": why[args.workload],
        "config": cfg, "params": params,
        "env": {**(env or {}), "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                "git_commit": git_commit(), "source_sha256": src_sha},
        "attempted": attempted, "failed": failed, "failures": failures,
        "references_s": references, "raw": raw, "setups_s": setups,
        "raw_setups_s": raw_setups, "decisions": len(decisions) if plain else 0,
        "forecast_skill": skill, "digests": first.get("digests"),
        "actions": first.get("actions"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "iterations": [{k: v for k, v in it.items() if k != "spans"} for it in iterations],
    }
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stem = f"{tag}-trace{args.trace}"
    (reports / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if traced:
        spans = [{"iteration": i, "spans": it["spans"]}
                 for i, it in enumerate(iterations) if it.get("spans")]
        (reports / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(iterations)} ({len(plain)} untraced, {len(traced)} traced valid)")
    print(f"  why: {why[args.workload]}")
    counts = {"setup_s": len(setups), "run_s": len(plain),
              "decision_s_p50": report["decisions"], "peak_rss_mb": len(plain)}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:12.6f} {unit:<6} median of {counts[name]}"
              + (f", {raw[name]:.6f} before the speed correction" if name in raw else ""))
    speeds = [it["speed"] for it in valid]
    if speeds:
        print(f"  {'speed':<16} {statistics.median(speeds):12.6f} ratio  median of the "
              f"iterations' (reference {REFERENCE_S} s / measured) ** {SENSITIVITY}")
    print(f"  {'failed_frac':<16} {failed / max(attempted, 1):12.6f} ratio  "
          f"{failed} of {attempted} operations")
    if skill is not None:
        print(f"  {'forecast_skill':<16} {skill:12.6f} ratio  deterministic per seed")
    for name, (value, unit) in layers.items():
        print(f"  {name:<40} {value:16.6f} {unit}")
    if first.get("cycle_decisions_s"):
        print(f"  per-cycle decisions (s): {[round(d, 4) for d in first['cycle_decisions_s']]}")
    print(f"  digests: {json.dumps(report['digests'])}")
    print(f"  actions: {report['actions']}")
    print(f"  env: {json.dumps(report['env'])}")
    for failure in failures:
        print(f"  FAILED {failure}")

    chosen = layers if args.trace else metrics
    correct = failed == 0 and bool(chosen)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}}))
    return 0 if chosen else 1


if __name__ == "__main__":
    sys.exit(main())
