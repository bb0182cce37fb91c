"""Stage orchestration: simulate -> stream -> train -> forecast -> decide -> apply.

Every stage talks to the next only through file artifacts (telemetry log,
checkpoint, forecast CSV, journal) and is one function here that both the
CLI and `run_cycle` call. The closed loop is a fold of `run_cycle` over a
`LoopState`, which `loop_state_from_dir` rebuilds from a run's files. One
root seed fans out per stage, making whole runs bit-reproducible.
"""
from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import PolicyConfig, SimConfig, derive_seed, policy_from_config
from .errors import (ConsistencyError, DataError, DecodeError, InsufficientDataError,
                     InvalidConfigError, NotFoundError, SpinescaleError)
from .fabric import (SampleColumns, Topology, apply_action, build_topology, generate_demands,
                     hour_loads, simulate_tick)
from .forecaster import (Forecast, LstmModel, TrainReport, digest_forecast, forecast_horizon,
                         init_model, load_checkpoint, save_checkpoint, save_forecast_csv, train)
from .policy import PolicyAction, PolicyJournal, evaluate, replay_journal
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


def bus_from_log(path: Path) -> TopicBus:
    """A bus whose METRICS_TOPIC replays the existing log at `path`."""
    if not path.exists():
        raise NotFoundError(f"telemetry log not found: {path}")
    bus = TopicBus()
    bus.attach(METRICS_TOPIC, path)
    return bus


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


@dataclass(frozen=True)
class LoopState:
    """What the closed loop carries from one cycle to the next."""
    topology: Topology                  # the active spines the next cycle simulates
    history: dict[int, SwitchSeries]    # extend_history's runs, by spine id
    model: LstmModel | None             # None until a cycle trains
    cycles_since_action: int
    cycle: int                          # the next cycle's; it starts at hours_per_cycle × cycle


def run_cycle(cfg: SimConfig, state: LoopState, bus: TopicBus, journal: PolicyJournal,
              out: Path, timings: dict[str, float]) -> tuple[LoopState, dict]:
    """One cycle from `state`; returns the next state and the cycle's manifest
    entry. Each stage's time goes into `timings` as it ends, and a model
    trained here is saved to out/model.ckpt also if a later stage raises."""
    run_cfg, cycle, topology = cfg.run, state.cycle, state.topology
    t0, offset = time.perf_counter(), bus.length(METRICS_TOPIC)
    simulate_hours(cfg, topology, bus, METRICS_TOPIC, cycle * run_cfg.hours_per_cycle,
                   run_cfg.hours_per_cycle, derive_seed(cfg.seed, "simulate"))
    timings[f"cycle{cycle}.simulate"] = time.perf_counter() - t0
    history = extend_history(state.history, series_from_bus(bus, METRICS_TOPIC, topology, offset))
    model = state.model
    if model is None or run_cfg.retrain_each_cycle:
        t0 = time.perf_counter()
        model, _ = train_from_series(cfg, [history[sid] for sid in sorted(history)], seed=cfg.seed)
        timings[f"cycle{cycle}.train"] = time.perf_counter() - t0
    try:
        t0 = time.perf_counter()
        forecast = forecast_horizon(model, [history[sid] for sid in topology.active_spine_ids],
                                    run_cfg.horizon_hours)
        save_forecast_csv(forecast, out / FORECAST_FILE)
        timings[f"cycle{cycle}.forecast"] = time.perf_counter() - t0
        actions = decide(forecast, policy_from_config(cfg), topology.active_spine_ids,
                         state.cycles_since_action, cycle, journal)
    finally:
        if model is not state.model:
            save_checkpoint(model, out / CHECKPOINT_FILE)
    for action in actions:
        topology = apply_action(topology, action)
    entry = {"cycle": cycle, "actions": [f"{a.kind}:{a.spine_id}" for a in actions],
             "active_spines": topology.active_spine_ids}
    return LoopState(topology, history, model, 0 if actions else state.cycles_since_action + 1,
                     cycle + 1), entry


def run_closed_loop(cfg: SimConfig, out_dir: str | Path,
                    config_path: str | None = None) -> RunManifest:
    """The elastic loop: `run_cycle` folded over `run.cycles` cycles from the
    configured topology, with the cooldown elapsed. The manifest is written
    last, also when a cycle raises: it then says "failed", names the error
    and holds the cycles completed, and the exception propagates."""
    cfg.validate()
    cfg.training.validate_model()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in (TELEMETRY_FILE, CHECKPOINT_FILE, FORECAST_FILE, JOURNAL_FILE, MANIFEST_FILE):
        (out / name).unlink(missing_ok=True)

    manifest = RunManifest(config_path=config_path, seed=cfg.seed, out_dir=str(out))
    state = LoopState(topology_from_config(cfg), {}, None, cfg.policy.cooldown_cycles, 0)
    bus = TopicBus()
    bus.attach(METRICS_TOPIC, out / TELEMETRY_FILE)
    journal = PolicyJournal(out / JOURNAL_FILE)
    try:
        while state.cycle < cfg.run.cycles:
            state, entry = run_cycle(cfg, state, bus, journal, out, manifest.stage_timings_s)
            manifest.cycles.append(entry)
    except BaseException as exc:
        manifest.status, manifest.error = "failed", f"{type(exc).__name__}: {exc}"
        raise
    finally:
        bus.close()
        journal.close()
        artifacts = {"telemetry": TELEMETRY_FILE, "checkpoint": CHECKPOINT_FILE,
                     "forecast": FORECAST_FILE, "journal": JOURNAL_FILE}
        manifest.artifacts = {key: str(out / name) for key, name in artifacts.items()
                              if (out / name).exists()}
        manifest.write(out / MANIFEST_FILE)
    return manifest


def _manifest_cycles(path: Path) -> int:
    """How many cycles a RunManifest file lists; a DecodeError names it
    unless it is UTF-8 JSON with a list under "cycles"."""
    try:
        cycles = json.loads(path.read_text(encoding="utf-8"))["cycles"]
    except (ValueError, TypeError, KeyError) as exc:    # not UTF-8, not JSON, or no "cycles"
        raise DecodeError(f"{path}: not a run manifest: {exc!r}") from exc
    if not isinstance(cycles, list):
        raise DecodeError(f"{path}: not a run manifest: its cycles are a {type(cycles).__name__}")
    return len(cycles)


def loop_state_from_dir(cfg: SimConfig, out: str | Path) -> LoopState:
    """The state `run_closed_loop` holds after the cycles whose hours the
    telemetry.log in `out` holds, rebuilt from the run's files: the
    configured topology with the journal's actions applied through
    apply_action, history_from_bus of the log, the model in model.ckpt (none
    before the first cycle), the cycles since the journal's last cycle (the
    cooldown plus the cycles run if it is empty), and the next cycle's index.
    A ConsistencyError names the file, and no state is built, if the log
    does not end at a cycle's last hour, the journal holds a cycle the log
    does not, model.ckpt is missing after a cycle, apply_action refuses a
    journal action, or a manifest counts other cycles than the log (a run
    that failed after logging a cycle's hours); a DecodeError if the
    manifest is not one. A run killed with no manifest written is taken at
    its log's word, so its last cycle's journal lines may be cut short, and
    with run.retrain_each_cycle its model.ckpt may be the previous cycle's."""
    out, hours = Path(out), cfg.run.hours_per_cycle
    log, journal, checkpoint = out / TELEMETRY_FILE, out / JOURNAL_FILE, out / CHECKPOINT_FILE
    with bus_from_log(log) as bus:
        series = history_from_bus(bus, METRICS_TOPIC) if bus.length(METRICS_TOPIC) else []
    end = series[0].start_hour + len(series[0]) if series else 0   # all end at the last hour
    if end % hours:
        raise ConsistencyError(f"{log}: its last hour, {end - 1}, ends no {hours} h cycle")
    cycles = end // hours
    entries = replay_journal(journal)
    last = max((e.cycle for e in entries), default=None)
    if last is not None and last >= cycles:
        raise ConsistencyError(f"{journal}: cycle {last} is past the {cycles} cycle(s) in {log}")
    if cycles and not checkpoint.exists():
        raise ConsistencyError(f"{checkpoint} is missing after {cycles} cycle(s)")
    topology = topology_from_config(cfg)
    for e in entries:
        try:
            topology = apply_action(topology, e)
        except SpinescaleError as exc:
            raise ConsistencyError(f"{journal} offset {e.offset}: {exc}") from exc
    manifest = out / MANIFEST_FILE
    done = _manifest_cycles(manifest) if manifest.exists() else cycles
    if done != cycles:
        raise ConsistencyError(f"{manifest}: {done} cycle(s) completed, {cycles} in {log}")
    since = cfg.policy.cooldown_cycles + cycles if last is None else cycles - 1 - last
    model = load_checkpoint(checkpoint) if cycles else None
    return LoopState(topology, {s.spine_id: s for s in series}, model, since, cycles)
