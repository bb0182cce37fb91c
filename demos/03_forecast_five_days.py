#!/usr/bin/env python3
# 120-hour (5-day) latency forecast for every spine: the first day recursive,
# then repeated. Exported as a plot-ready CSV. If matplotlib is installed,
# also renders the curves.

import tempfile
import time
from pathlib import Path

import numpy as np

from spinescale.config import (LatencyConfig, SimConfig, TopologyConfig, TrafficConfig,
                               TrainingConfig)
from spinescale.forecaster import forecast_horizon, init_model, save_forecast_csv, train
from spinescale.pipeline import (METRICS_TOPIC, build_datasets, recent_history,
                                 series_from_bus, simulate_hours, topology_from_config)
from spinescale.telemetry import TopicBus

HORIZON = 120

cfg = SimConfig(seed=17)
cfg.topology = TopologyConfig(n_leaf=3, n_spine=5, capacity_bps=10_000_000_000,
                              base_latency_us=3.0)
cfg.latency = LatencyConfig(queue_factor=1.0, noise_us=0.15)
cfg.traffic = TrafficConfig(base_bps=12_000_000_000, diurnal_amp_bps=4_000_000_000,
                            noise_bps=250_000_000, flows_per_pair=64)
cfg.training = TrainingConfig(lookback_hours=48, epochs=25, dropout=0.2)

print("simulating 14 days, then training...")
topology = topology_from_config(cfg)
bus = TopicBus()
simulate_hours(cfg, topology, bus, METRICS_TOPIC, 0, 14 * 24, seed=cfg.seed)
series = series_from_bus(bus, METRICS_TOPIC, topology)
scaler, train_ds, val_ds = build_datasets(series, 0.2, 48, 1)
model = init_model(cfg.training, seed=cfg.seed, scaler=scaler)
t0 = time.time()
model, _ = train(model, train_ds, seed=cfg.seed + 1, val_ds=val_ds)
print(f"trained in {time.time() - t0:.0f}s")

# Recursion: each predicted latency becomes input for the next hour; the
# speed channels repeat their value from 24 h earlier (seasonal-naive).
histories = recent_history(series, 14 * 24)
forecast = forecast_horizon(model, histories, HORIZON)

out = Path(tempfile.mkdtemp(prefix="spinescale-demo-")) / "forecast.csv"
save_forecast_csv(forecast, out)
print(f"wrote {HORIZON} hourly predictions per spine to {out}")

for sid in forecast.spine_ids():
    preds = forecast.per_spine[sid]
    print(f"spine {sid}: next 5 days latency "
          f"min {preds.min():.2f}  mean {preds.mean():.2f}  max {preds.max():.2f} us")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    hours = np.arange(1, HORIZON + 1)
    fig, ax = plt.subplots(figsize=(9, 4))
    for sid in forecast.spine_ids():
        ax.plot(hours, forecast.per_spine[sid], label=f"spine {sid}")
    ax.set_xlabel("hours ahead")
    ax.set_ylabel("predicted latency (us)")
    ax.set_title("5-day hourly latency forecast per spine")
    ax.legend()
    png = out.with_suffix(".png")
    fig.tight_layout()
    fig.savefig(png)
    print(f"plot saved to {png}")
except ImportError:
    print("matplotlib not installed; skipping the plot")
