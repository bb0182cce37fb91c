"""Stage orchestration: simulate -> stream -> train -> forecast -> decide -> apply.

Every stage talks to the next only through file artifacts (telemetry log,
checkpoint, forecast CSV, journal), so single stages can be re-run from
disk and a full closed loop is just the stages chained in memory. Each
stage is one function here (`simulate_hours`, `train_from_series`,
`forecast_horizon`, `decide`) that both `run_closed_loop` and the CLI
call. One root seed fans out per stage, making whole runs bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import PolicyConfig, SimConfig, derive_seed, policy_from_config
from .errors import DataError, InsufficientDataError, InvalidConfigError
from .fabric import (SampleColumns, Topology, apply_action, build_topology, generate_demands,
                     hour_loads, simulate_tick)
from .forecaster import (Forecast, LstmModel, TrainReport, digest_forecast, forecast_horizon,
                         init_model, save_checkpoint, save_forecast_csv, train)
from .policy import PolicyAction, PolicyJournal, evaluate
from .telemetry import TopicBus, write_atomic
from .windows import (Scaler, SwitchSeries, WindowedDataset, aggregate_hourly, make_windows,
                      split_train_val)

METRICS_TOPIC = "fabric.metrics"

TELEMETRY_FILE = "telemetry.log"
CHECKPOINT_FILE = "model.ckpt"
FORECAST_FILE = "forecast.csv"
JOURNAL_FILE = "journal.log"
MANIFEST_FILE = "manifest"


def topology_from_config(cfg: SimConfig) -> Topology:
    return build_topology(cfg.topology)


# The most samples one block of hours computes at once (a block is at least
# one hour). At 2**15 an elastic-loop cycle, 36 h of 15 links, is one block,
# and a block's arrays in flight stay under 4 MiB however many hours a call runs.
_BLOCK_SAMPLES = 2**15


def simulate_hours(cfg: SimConfig, topology: Topology, bus: TopicBus, topic: str,
                   start_hour: int, hours: int, seed: int) -> int:
    """Run the fabric for `hours` simulated hours of 1-minute ticks and
    publish each hour as one batch, so the log only ever holds whole
    hours. Returns the number of samples published; a negative `hours` is
    an InvalidConfigError, raised before anything is published.

    The hours are simulated in blocks of consecutive hours of at most
    _BLOCK_SAMPLES samples: per block, each hour's `generate_demands`,
    one `hour_loads` (each flow placed once) and one `simulate_tick` for
    all its minutes, whose hours are then published one by one. If some
    hour's demands cannot be routed (a DataError), the block is redone an
    hour at a time, so the hours before that one are published before it
    raises."""
    if hours < 0:
        raise InvalidConfigError(f"hours must be >= 0, got {hours}")
    hour_samples = 60 * len(topology.active_spine_ids) * topology.n_leaf
    block = max(1, _BLOCK_SAMPLES // max(hour_samples, 1))
    first, stop = start_hour, start_hour + hours
    published = 0
    while first < stop:
        last = min(first + block, stop)
        demands = [generate_demands(cfg.traffic, topology.n_leaf, hour, seed)
                   for hour in range(first, last)]
        try:
            loads = hour_loads(topology, demands, seed, flows_per_pair=cfg.traffic.flows_per_pair,
                               queue_factor=cfg.latency.queue_factor)
        except DataError:
            if block == 1:
                raise
            block = 1
            continue
        samples = simulate_tick(loads, seed, first * 60, cfg.latency.noise_us,
                                minutes=60 * (last - first))
        for i in range(last - first):
            bus.publish(topic, samples.slice(i * hour_samples, (i + 1) * hour_samples))
        published += len(samples)
        first = last
    return published


def series_from_bus(bus: TopicBus, topic: str, topology: Topology | None = None,
                    from_offset: int = 0) -> list[SwitchSeries]:
    return aggregate_hourly(bus.consume(topic, from_offset, columns=True), topology)


def extend_history(history: dict[int, SwitchSeries], latest: list[SwitchSeries]
                   ) -> dict[int, SwitchSeries]:
    """Each spine's last unbroken run of hours once the hours of `latest`
    are in, by spine id. A spine in `latest` extends its history if the
    hours meet and starts over if they do not (first seen, or re-added
    after a gap); a spine missing from `latest` is dropped."""
    extended = {}
    for s in latest:
        prev = history.get(s.spine_id)
        if prev is not None and prev.start_hour + len(prev) == s.start_hour:
            s = SwitchSeries(s.spine_id, prev.start_hour, np.concatenate([prev.data, s.data]))
        extended[s.spine_id] = s
    return extended


def history_from_bus(bus: TopicBus, topic: str) -> list[SwitchSeries]:
    """The history `run_closed_loop` holds after the topic's last hour,
    sorted by spine id: the topic's hours, ascending, folded through
    extend_history one at a time. Unlike series_from_bus, a spine that
    misses hours is no GapError: it is read from its return on, or not at
    all if the last hour lacks it."""
    samples = bus.consume(topic, columns=True)
    hours = samples.ts // 60
    order = np.argsort(hours, kind="stable")
    history: dict[int, SwitchSeries] = {}
    for rows in np.split(order, np.flatnonzero(np.diff(hours[order])) + 1):
        hour = SampleColumns(*(c[rows] for c in samples.columns()))
        history = extend_history(history, aggregate_hourly(hour))
    return [history[sid] for sid in sorted(history)]


def build_datasets(series_list: list[SwitchSeries], val_fraction: float,
                   lookback: int, horizon: int
                   ) -> tuple[Scaler, WindowedDataset, WindowedDataset | None]:
    """Time-split, fit the scaler on the training side only, window both.

    If either side of any series is too short to hold a single window the
    split is skipped and validation is disabled (val dataset None). No
    series at all is an InsufficientDataError, raised by Scaler.fit.
    """
    train_series, val_series = split_train_val(series_list, val_fraction)
    if min((len(s) for s in train_series + val_series), default=0) < lookback + horizon:
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
    """Train a fresh model on the series that hold at least one lookback +
    horizon window; raises InsufficientDataError if none does."""
    tr = cfg.training
    min_hours = tr.lookback_hours + tr.horizon_steps
    series_list = [s for s in series_list if len(s) >= min_hours]
    if not series_list:
        raise InsufficientDataError(f"no spine has {min_hours} h of history yet")
    scaler, train_ds, val_ds = build_datasets(series_list, tr.val_fraction,
                                              tr.lookback_hours, tr.horizon_steps)
    model = init_model(tr, seed=seed, scaler=scaler)
    return train(model, train_ds, seed=derive_seed(seed, "train"), val_ds=val_ds,
                 final_grad_check=final_grad_check)


def recent_history(series_list: list[SwitchSeries], hours: int) -> list[SwitchSeries]:
    """Last `hours` hours of each series (all of it if shorter, none if
    `hours` <= 0)."""
    trimmed = []
    for s in series_list:
        keep = min(max(hours, 0), len(s))
        trimmed.append(SwitchSeries(s.spine_id, s.start_hour + len(s) - keep,
                                    s.data[len(s) - keep:]))
    return trimmed


def decide(forecast: Forecast, policy_cfg: PolicyConfig, active: list[int], cycles_since: int,
           cycle: int, journal: PolicyJournal) -> list[PolicyAction]:
    """Evaluate the policy on one forecast and journal each action under
    the forecast's digest. Returns the actions for the caller to apply."""
    actions = evaluate(forecast, policy_cfg, active, cycles_since, decision_cycle=cycle)
    digest = digest_forecast(forecast)
    for action in actions:
        journal.append(action, policy_cfg, digest)
    return actions


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
    status: str = "ok"           # "failed" if the run raised
    error: str | None = None     # "<ExcType>: <msg>" of what it raised

    def write(self, path: Path) -> None:
        write_atomic(path, json.dumps(dataclasses.asdict(self), indent=2) + "\n")


def run_closed_loop(cfg: SimConfig, out_dir: str | Path,
                    config_path: str | None = None) -> RunManifest:
    """The full elastic loop: per decision cycle, simulate one window,
    train (first cycle, or every cycle if configured), forecast the
    horizon, evaluate the policy, apply its actions to the live topology,
    and journal every decision. The manifest is written last, also when a
    cycle raises: it then says "failed", names the error and holds the
    cycles completed, and the exception propagates."""
    cfg.validate()
    cfg.training.validate_model()
    run_cfg = cfg.run
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in (TELEMETRY_FILE, CHECKPOINT_FILE, FORECAST_FILE, JOURNAL_FILE, MANIFEST_FILE):
        (out / name).unlink(missing_ok=True)

    manifest = RunManifest(config_path=config_path, seed=cfg.seed, out_dir=str(out))
    topology = topology_from_config(cfg)
    policy_cfg = policy_from_config(cfg)
    sim_seed = derive_seed(cfg.seed, "simulate")

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

            history = extend_history(history, series_from_bus(bus, METRICS_TOPIC, topology,
                                                              offset_before))

            if model is None or run_cfg.retrain_each_cycle:
                t0 = time.perf_counter()
                model, _ = train_from_series(cfg, [history[sid] for sid in sorted(history)],
                                             seed=cfg.seed)
                manifest.stage_timings_s[f"cycle{cycle}.train"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            forecast = forecast_horizon(model, [history[sid] for sid in topology.active_spine_ids],
                                        run_cfg.horizon_hours)
            save_forecast_csv(forecast, out / FORECAST_FILE)
            manifest.stage_timings_s[f"cycle{cycle}.forecast"] = time.perf_counter() - t0

            actions = decide(forecast, policy_cfg, topology.active_spine_ids,
                             cycles_since_action, cycle, journal)
            for action in actions:
                topology = apply_action(topology, action)
            cycles_since_action = 0 if actions else cycles_since_action + 1
            manifest.cycles.append({
                "cycle": cycle,
                "actions": [f"{a.kind}:{a.spine_id}" for a in actions],
                "active_spines": topology.active_spine_ids,
            })
    except BaseException as exc:
        manifest.status, manifest.error = "failed", f"{type(exc).__name__}: {exc}"
        raise
    finally:
        bus.close()
        journal.close()
        if model is not None:
            save_checkpoint(model, out / CHECKPOINT_FILE)
        artifacts = {"telemetry": TELEMETRY_FILE, "checkpoint": CHECKPOINT_FILE,
                     "forecast": FORECAST_FILE, "journal": JOURNAL_FILE}
        manifest.artifacts = {key: str(out / name) for key, name in artifacts.items()
                              if (out / name).exists()}
        manifest.write(out / MANIFEST_FILE)
    return manifest
