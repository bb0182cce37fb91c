#!/usr/bin/env python3
"""Summarize benchmark reports, and compare two sets of them.

    python3 bench/summarize.py .bench_work/reports
    python3 bench/summarize.py NEW_REPORTS --against OLD_REPORTS
    python3 bench/summarize.py .bench_work/reports --write bench/baseline.json

For each workload it prints every end-to-end metric's median, quartiles
and spread (interquartile distance over the median) across the untraced
reports, one report per seed, and the median of each per-layer metric
across the traced reports. With --against it also prints the ratio of the
two medians against the bound in BENCHMARK.json, and flags every seed
whose digests or action sequence differ between the two sets: there run_s
measures a different trajectory, so the comparison does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(directory.glob("*-trace[01].json"))]


def stats(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    median = statistics.median(values)
    return {"median": median, "q1": q[0], "q3": q[2], "n": len(values),
            "spread": (q[2] - q[0]) / median if median else 0.0}


def summarize(reports: list[dict]) -> dict:
    out: dict = {}
    for workload in sorted({r["workload"] for r in reports}):
        plain = [r for r in reports if r["workload"] == workload and not r["trace"]
                 and not r["smoke"] and r["metrics"]]
        traced = [r for r in reports if r["workload"] == workload and r["trace"]
                  and not r["smoke"] and r["layers"]]
        entry: dict = {"seeds": sorted(r["seed"] for r in plain), "end_to_end": {},
                       "per_layer": {}, "trajectories": {}}
        for name in (plain[0]["metrics"] if plain else {}):
            entry["end_to_end"][name] = stats([r["metrics"][name]["value"] for r in plain])
        for name in (traced[0]["layers"] if traced else {}):
            entry["per_layer"][name] = statistics.median(r["layers"][name]["value"]
                                                         for r in traced)
        for r in plain:
            entry["trajectories"][str(r["seed"])] = {
                "digests": r["digests"], "actions": r["actions"],
                "forecast_skill": r["forecast_skill"], "failed": r["failed"]}
        if plain:
            entry["env"] = plain[0]["env"]
        out[workload] = entry
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("reports", type=Path)
    ap.add_argument("--against", type=Path, help="reports of the parent commit")
    ap.add_argument("--write", type=Path, help="write the summary as JSON here")
    args = ap.parse_args()

    new = summarize(load(args.reports))
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    old = summarize(load(args.against)) if args.against else {}
    worst = 0
    for workload, entry in new.items():
        print(f"{workload}: {len(entry['seeds'])} seeds {entry['seeds']}")
        for name, s in entry["end_to_end"].items():
            line = (f"  {name:<16} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                    f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}  bound {bounds.get(name)}")
            if name in bounds and s["spread"] > bounds[name]:
                line += "  SPREAD OVER BOUND"
            base = old.get(workload, {}).get("end_to_end", {}).get(name)
            if base:
                ratio = s["median"] / base["median"]
                line += f"  vs parent x{ratio:.3f}"
                if ratio - 1 > bounds[name]:
                    line += "  WORSE THAN BOUND"
                    worst = 1
            print(line)
        for seed, traj in entry["trajectories"].items():
            parent = old.get(workload, {}).get("trajectories", {}).get(seed)
            if parent and (parent["digests"] != traj["digests"]
                           or parent["actions"] != traj["actions"]):
                print(f"  seed {seed}: digests or actions differ from the parent; "
                      f"run_s compares different trajectories")
    if args.write:
        args.write.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    return worst


if __name__ == "__main__":
    sys.exit(main())
