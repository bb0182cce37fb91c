"""Stage orchestration: simulate -> stream -> train -> forecast -> decide -> apply.

Every stage talks to the next only through file artifacts (telemetry log,
checkpoint, forecast CSV, journal), so single stages can be re-run from
disk and a full closed loop is just the stages chained in memory. One root
seed fans out per stage, making whole runs bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import SimConfig, derive_seed, policy_from_config
from .errors import InsufficientDataError, InvalidConfigError
from .fabric import Topology, apply_action, build_topology, generate_demands, simulate_tick
from .forecaster import (LstmModel, TrainReport, digest_forecast, forecast_horizon,
                         init_model, save_checkpoint, save_forecast_csv, train)
from .policy import PolicyJournal, evaluate
from .telemetry import TopicBus
from .windows import (Scaler, SwitchSeries, WindowedDataset, aggregate_hourly, make_windows,
                      split_train_val)

METRICS_TOPIC = "fabric.metrics"

TELEMETRY_FILE = "telemetry.log"
CHECKPOINT_FILE = "model.ckpt"
FORECAST_FILE = "forecast.csv"
JOURNAL_FILE = "journal.log"
MANIFEST_FILE = "manifest"


def topology_from_config(cfg: SimConfig) -> Topology:
    t = cfg.topology
    return build_topology(t.n_leaf, t.n_spine, t.capacity_bps, t.base_latency_us,
                          min_spines=t.min_spines, max_spines=t.max_spines,
                          spine_slots=t.spine_slots)


def simulate_hours(cfg: SimConfig, topology: Topology, bus: TopicBus, topic: str,
                   start_hour: int, hours: int, seed: int) -> int:
    """Run the fabric for `hours` simulated hours (1-minute ticks),
    publishing every link sample. Returns the number of records published."""
    published = 0
    for hour in range(start_hour, start_hour + hours):
        demands = generate_demands(cfg.traffic, topology.n_leaf, hour, seed)
        for minute in range(60):
            samples = simulate_tick(topology, demands, seed, hour * 60 + minute,
                                    flows_per_pair=cfg.traffic.flows_per_pair,
                                    queue_factor=cfg.latency.queue_factor,
                                    noise_us=cfg.latency.noise_us)
            for sample in samples:
                bus.publish(topic, sample)
                published += 1
    return published


def series_from_bus(bus: TopicBus, topic: str, topology: Topology | None = None,
                    from_offset: int = 0) -> list[SwitchSeries]:
    samples = [s for _, s in bus.consume(topic, from_offset)]
    return aggregate_hourly(samples, topology)


def build_datasets(series_list: list[SwitchSeries], val_fraction: float,
                   lookback: int, horizon: int
                   ) -> tuple[Scaler, WindowedDataset, WindowedDataset | None]:
    """Time-split, fit the scaler on the training side only, window both.

    If the validation side is too short to hold a single window the split
    is skipped and validation is disabled (val dataset None).
    """
    train_series, val_series = split_train_val(series_list, val_fraction)
    if min(len(s) for s in val_series) < lookback + horizon:
        train_series, val_series = series_list, None
    scaler = Scaler.fit(train_series)
    train_ds = make_windows([scaler.transform_series(s) for s in train_series],
                            lookback, horizon)
    val_ds = None
    if val_series is not None:
        val_ds = make_windows([scaler.transform_series(s) for s in val_series],
                              lookback, horizon)
    return scaler, train_ds, val_ds


def train_from_series(cfg: SimConfig, series_list: list[SwitchSeries], seed: int,
                      final_grad_check: bool = False) -> tuple[LstmModel, TrainReport]:
    tr = cfg.training
    scaler, train_ds, val_ds = build_datasets(series_list, tr.val_fraction,
                                              tr.lookback_hours, tr.horizon_steps)
    model = init_model(tr, seed=seed, scaler=scaler)
    return train(model, train_ds, seed=derive_seed(seed, "train"), val_ds=val_ds,
                 hyper=tr, final_grad_check=final_grad_check)


def recent_history(series_list: list[SwitchSeries], hours: int) -> list[SwitchSeries]:
    """Last `hours` hours of each series (all of it if shorter)."""
    out = []
    for s in series_list:
        data = s.channels()[-hours:]
        start = s.start_hour + max(0, len(s) - hours)
        out.append(SwitchSeries.from_channels(s.spine_id, start, data))
    return out


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    config_path: str | None
    seed: int
    out_dir: str
    stage_timings_s: dict[str, float] = field(default_factory=dict)
    artifacts: dict[str, str] = field(default_factory=dict)
    cycles: list[dict] = field(default_factory=list)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(dataclasses.asdict(self), indent=2) + "\n",
                        encoding="utf-8")


def _append_history(history: dict[int, SwitchSeries], series: SwitchSeries) -> None:
    prev = history.get(series.spine_id)
    if prev is not None and prev.start_hour + len(prev) == series.start_hour:
        merged = np.concatenate([prev.channels(), series.channels()], axis=0)
        history[series.spine_id] = SwitchSeries.from_channels(
            series.spine_id, prev.start_hour, merged)
    else:
        # first sight of this spine, or non-contiguous (re-added): start over
        history[series.spine_id] = series


def run_closed_loop(cfg: SimConfig, out_dir: str | Path,
                    config_path: str | None = None) -> RunManifest:
    """The full elastic loop: per decision cycle, simulate one window,
    train (first cycle, or every cycle if configured), forecast the
    horizon, evaluate the policy, apply its actions to the live topology,
    and journal every decision. The manifest is written last."""
    run_cfg = cfg.run
    if run_cfg.hours_per_cycle < cfg.training.lookback_hours + cfg.training.horizon_steps:
        raise InvalidConfigError(
            f"hours_per_cycle={run_cfg.hours_per_cycle} must cover lookback "
            f"{cfg.training.lookback_hours} + horizon {cfg.training.horizon_steps}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in (TELEMETRY_FILE, CHECKPOINT_FILE, FORECAST_FILE, JOURNAL_FILE, MANIFEST_FILE):
        (out / name).unlink(missing_ok=True)

    manifest = RunManifest(config_path=config_path, seed=cfg.seed, out_dir=str(out))
    topology = topology_from_config(cfg)
    policy_cfg = policy_from_config(cfg)
    sim_seed = derive_seed(cfg.seed, "simulate")
    min_train_hours = cfg.training.lookback_hours + cfg.training.horizon_steps

    bus = TopicBus()
    bus.attach(METRICS_TOPIC, out / TELEMETRY_FILE)
    journal = PolicyJournal(out / JOURNAL_FILE)
    history: dict[int, SwitchSeries] = {}
    model: LstmModel | None = None
    cycles_since_action = policy_cfg.cooldown_cycles   # first cycle may act
    start_hour = 0
    try:
        for cycle in range(run_cfg.cycles):
            t0 = time.perf_counter()
            offset_before = bus.length(METRICS_TOPIC)
            simulate_hours(cfg, topology, bus, METRICS_TOPIC,
                           start_hour, run_cfg.hours_per_cycle, sim_seed)
            start_hour += run_cfg.hours_per_cycle
            manifest.stage_timings_s[f"cycle{cycle}.simulate"] = time.perf_counter() - t0

            window_series = series_from_bus(bus, METRICS_TOPIC, topology, offset_before)
            for s in window_series:
                _append_history(history, s)
            for sid in list(history):
                if sid not in topology.active_spine_ids:
                    del history[sid]

            if model is None or run_cfg.retrain_each_cycle:
                t0 = time.perf_counter()
                trainable = [history[sid] for sid in sorted(history)
                             if len(history[sid]) >= min_train_hours]
                if not trainable:
                    raise InsufficientDataError(
                        f"cycle {cycle}: no spine has {min_train_hours} h of history yet")
                model, _ = train_from_series(cfg, trainable, seed=cfg.seed)
                manifest.stage_timings_s[f"cycle{cycle}.train"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            histories = recent_history([history[sid] for sid in topology.active_spine_ids],
                                       run_cfg.hours_per_cycle)
            forecast = forecast_horizon(model, histories, run_cfg.horizon_hours)
            save_forecast_csv(forecast, out / FORECAST_FILE)
            manifest.stage_timings_s[f"cycle{cycle}.forecast"] = time.perf_counter() - t0

            actions = evaluate(forecast, policy_cfg, topology.active_spine_ids,
                               cycles_since_action, decision_cycle=cycle)
            digest = digest_forecast(forecast)
            for action in actions:
                journal.append(action, policy_cfg, digest)
                topology = apply_action(topology, action)
            cycles_since_action = 0 if actions else cycles_since_action + 1
            manifest.cycles.append({
                "cycle": cycle,
                "actions": [f"{a.kind}:{a.spine_id}" for a in actions],
                "active_spines": topology.active_spine_ids,
            })
    finally:
        bus.close()
        journal.close()

    save_checkpoint(model, out / CHECKPOINT_FILE)
    manifest.artifacts = {
        "telemetry": str(out / TELEMETRY_FILE),
        "checkpoint": str(out / CHECKPOINT_FILE),
        "forecast": str(out / FORECAST_FILE),
        "journal": str(out / JOURNAL_FILE),
    }
    manifest.write(out / MANIFEST_FILE)
    return manifest
