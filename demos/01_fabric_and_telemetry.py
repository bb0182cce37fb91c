#!/usr/bin/env python3
# Simulate one day of a 3-leaf / 5-spine fabric and stream every per-link
# sample through the file-backed topic bus, then read the stream back and
# summarize what each spine saw.

import tempfile
from pathlib import Path

import numpy as np

from spinescale.config import SimConfig, TopologyConfig, TrafficConfig, LatencyConfig
from spinescale.pipeline import METRICS_TOPIC, simulate_hours, topology_from_config
from spinescale.telemetry import TopicBus
from spinescale.windows import aggregate_hourly

cfg = SimConfig(seed=7)
cfg.topology = TopologyConfig(n_leaf=3, n_spine=5, capacity_bps=10_000_000_000,
                              base_latency_us=3.0)
cfg.latency = LatencyConfig(queue_factor=1.0, noise_us=0.1)
# diurnal load: ~9 Gb/s per leaf pair at the evening peak, ~4 Gb/s at night
cfg.traffic = TrafficConfig(base_bps=6_500_000_000, diurnal_amp_bps=2_500_000_000,
                            noise_bps=200_000_000, flows_per_pair=32)

topology = topology_from_config(cfg)
n_links = topology.n_leaf * len(topology.active_spine_ids)   # complete bipartite
print(f"topology: {topology.n_leaf} leaves x {len(topology.active_spine_ids)} spines, "
      f"{n_links} links")

workdir = Path(tempfile.mkdtemp(prefix="spinescale-demo-"))
log_path = workdir / "telemetry.log"

with TopicBus() as bus:
    bus.attach(METRICS_TOPIC, log_path)
    published = simulate_hours(cfg, topology, bus, METRICS_TOPIC,
                               start_hour=0, hours=24, seed=cfg.seed)
print(f"published {published} samples (24 h x 60 min x {n_links} links)")
print(f"log on disk: {log_path} ({log_path.stat().st_size / 1e6:.1f} MB)")

# A fresh bus replays the persisted log exactly; consumers address records
# by offset, so re-reading is cheap and repeatable.
with TopicBus() as reader:
    restored = reader.attach(METRICS_TOPIC, log_path)
    print(f"reopened log, {restored} records restored")
    last_offset, last = reader.consume(METRICS_TOPIC, restored - 1)[0]
    print(f"last record (offset {last_offset}): {last}")
    # the whole stream as columns: no per-record objects
    samples = reader.consume(METRICS_TOPIC, 0, columns=True)

# Hourly per-spine aggregation is the forecaster's input format.
hourly = aggregate_hourly(samples, topology)
for series in hourly:
    lat = series.data[:, 0]
    print(f"spine {series.spine_id}: hourly latency "
          f"min {lat.min():.2f}  mean {lat.mean():.2f}  max {lat.max():.2f} us, "
          f"peak fabric load {series.data[:, 1].max() / 1e9:.2f} Gb/s per link")

peak_hour = int(np.argmax(hourly[0].data[:, 0]))
print(f"latency peaks around simulated hour {peak_hour} (diurnal load curve)")
