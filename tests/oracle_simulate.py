"""The simulator as it was when the hour was its unit of work, used as a
test oracle.

`reference_simulate_hours` is `pipeline.simulate_hours`' per-hour loop,
copied verbatim: per hour, `generate_demands`, `hour_loads` of that one
matrix (its flows placed anew) and one `simulate_tick` call of 60
minutes, published as one batch. Those one-hour calls are themselves
pinned, flow by flow and minute by minute, by `reference_flows` and
`reference_tick` in test_fabric.py. `pipeline.simulate_hours`, which
simulates blocks of hours, must publish the same bytes and columns.
"""

from __future__ import annotations

from spinescale.config import SimConfig
from spinescale.fabric import Topology, generate_demands, hour_loads, simulate_tick
from spinescale.telemetry import TopicBus


def reference_simulate_hours(cfg: SimConfig, topology: Topology, bus: TopicBus, topic: str,
                             start_hour: int, hours: int, seed: int) -> int:
    published = 0
    for hour in range(start_hour, start_hour + hours):
        demands = generate_demands(cfg.traffic, topology.n_leaf, hour, seed)
        loads = hour_loads(topology, demands, seed, flows_per_pair=cfg.traffic.flows_per_pair,
                           queue_factor=cfg.latency.queue_factor)
        samples = simulate_tick(loads, seed, hour * 60, cfg.latency.noise_us, minutes=60)
        bus.publish(topic, samples)
        published += len(samples)
    return published
