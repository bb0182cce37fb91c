"""Multi-step forecast skill by lead hour, against seasonal-naive.

Run with `python tests/lead_skill.py` (pytest does not collect this file;
a full run trains six models and takes a few minutes).

For each of criterion 3's scenarios and seeds 11, 12 and 13 it trains
criterion 3's model with `skill_model` from test_acceptance.py. It then
simulates 7 more days with the same seed and forecasts 120 h with
`forecast_horizon` from origins 504, 506, ..., 552 (25 origins x 5 spines),
each from the hours before its origin. Seasonal-naive predicts hour o + k
by hour o - 24 + k mod 24, the same hour of the last observed day. The
table holds model MSE / seasonal-naive MSE over each lead bucket, in
microseconds; below 1 the model wins.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from test_acceptance import BURSTY, DIURNAL, SKILL_HOURS, skill_model

from spinescale.config import TrafficConfig
from spinescale.forecaster import forecast_horizon
from spinescale.pipeline import METRICS_TOPIC, series_from_bus, simulate_hours
from spinescale.windows import SEASONAL_LAG_HOURS, SwitchSeries

SCENARIOS = {"diurnal": DIURNAL, "bursty": BURSTY}
SEEDS = (11, 12, 13)
TEST_HOURS, HORIZON = 7 * 24, 120
ORIGINS = range(SKILL_HOURS, SKILL_HOURS + 49, 2)
BUCKETS = ((1, 1), (2, 6), (7, 12), (13, 24), (25, 48), (49, 120), (1, 120))


def lead_errors(traffic: TrafficConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared errors of the model and of seasonal-naive, [origin x spine, lead]."""
    cfg, topo, bus, model, _, _ = skill_model(traffic, seed)
    simulate_hours(cfg, topo, bus, METRICS_TOPIC, SKILL_HOURS, TEST_HOURS, seed=seed)
    full = series_from_bus(bus, METRICS_TOPIC, topo)
    lead = np.arange(HORIZON)
    model_sq, naive_sq = [], []
    for origin in ORIGINS:
        fc = forecast_horizon(model, [SwitchSeries(s.spine_id, 0, s.data[:origin])
                                      for s in full], HORIZON)
        for s in full:
            truth = s.data[origin + lead, 0]
            naive = s.data[origin - SEASONAL_LAG_HOURS + lead % SEASONAL_LAG_HOURS, 0]
            model_sq.append((fc.per_spine[s.spine_id] - truth) ** 2)
            naive_sq.append((naive - truth) ** 2)
    return np.array(model_sq), np.array(naive_sq)


def main() -> None:
    print("| scenario, seed | " + " | ".join(
        str(lo) if lo == hi else f"{lo}–{hi}" for lo, hi in BUCKETS) + " |")
    print("| --- " * (len(BUCKETS) + 1) + "|")
    for name, traffic in SCENARIOS.items():
        for seed in SEEDS:
            model_sq, naive_sq = lead_errors(traffic, seed)
            ratios = [model_sq[:, lo - 1:hi].mean() / naive_sq[:, lo - 1:hi].mean()
                      for lo, hi in BUCKETS]
            print(f"| {name} {seed} | " + " | ".join(f"{r:.3f}" for r in ratios) + " |",
                  flush=True)


if __name__ == "__main__":
    main()
