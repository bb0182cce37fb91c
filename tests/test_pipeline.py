import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HalfWriteHandle, add_action, remove_action
from oracle_simulate import reference_simulate_hours
from spinescale import fabric, pipeline
from spinescale.config import (LatencyConfig, PolicySection, RunSection, SimConfig,
                               TopologyConfig, TrafficConfig, TrainingConfig)
from spinescale.errors import (DataError, GapError, InsufficientDataError, InvalidConfigError,
                               PersistenceError)
from spinescale.forecaster import forecast_horizon
from spinescale.fabric import SampleColumns, apply_action, build_flows, simulate_tick
from spinescale.pipeline import (_BLOCK_SAMPLES, METRICS_TOPIC, build_datasets, extend_history,
                                 history_from_bus, recent_history, run_closed_loop,
                                 series_from_bus, simulate_hours, topology_from_config)
from spinescale.policy import replay_journal
from spinescale.telemetry import TopicBus
from spinescale.windows import SwitchSeries


def small_cfg(**run_over) -> SimConfig:
    cfg = SimConfig(seed=5)
    cfg.topology = TopologyConfig(n_leaf=2, n_spine=3, capacity_bps=1_000_000_000,
                                  base_latency_us=3.0, min_spines=2, max_spines=5)
    cfg.traffic = TrafficConfig(base_bps=300_000_000, diurnal_amp_bps=100_000_000,
                                noise_bps=0, flows_per_pair=8)
    cfg.training = TrainingConfig(lookback_hours=12, epochs=3, batch_size=16,
                                  hidden_size=8, conv_channels=4, dropout=0.1)
    for k, v in run_over.items():
        setattr(cfg.run, k, v)
    return cfg


def series(spine_id, start, values):
    v = np.asarray(values, dtype=float)
    return SwitchSeries(spine_id=spine_id, start_hour=start,
                        data=np.column_stack([v, v * 10, v * 20]))


def test_simulate_hours_record_count():
    cfg = small_cfg()
    topo = topology_from_config(cfg)
    bus = TopicBus()
    n = simulate_hours(cfg, topo, bus, METRICS_TOPIC, 0, 2, seed=1)
    assert n == 2 * 60 * 6 == bus.length(METRICS_TOPIC)


class FailsOnWrite(HalfWriteHandle):
    """Passes writes through to `real` until write number `failing`, which
    lands half its data and raises."""

    def __init__(self, real, failing: int) -> None:
        super().__init__(real)
        self.writes, self.failing = 0, failing

    def write(self, data: bytes) -> int:
        self.writes += 1
        return self.real.write(data) if self.writes < self.failing else super().write(data)


def test_failed_write_mid_simulation_leaves_whole_hours(tmp_path):
    cfg = small_cfg()
    cfg.latency = LatencyConfig(noise_us=0.05)
    topo = topology_from_config(cfg)
    with TopicBus() as bus:
        bus.attach(METRICS_TOPIC, tmp_path / "whole.log")
        simulate_hours(cfg, topo, bus, METRICS_TOPIC, 0, 4, seed=1)
    for failing in (1, 3):
        path = tmp_path / f"cut-{failing}.log"
        with TopicBus() as bus:
            bus.attach(METRICS_TOPIC, path)
            file = bus._topics[METRICS_TOPIC].file
            file._handle = FailsOnWrite(file._handle, failing)
            with pytest.raises(PersistenceError):
                simulate_hours(cfg, topo, bus, METRICS_TOPIC, 0, 4, seed=1)
        hours = failing - 1
        with TopicBus() as bus:
            assert bus.attach(METRICS_TOPIC, path) == hours * 60 * 6
            ts = bus.consume(METRICS_TOPIC, columns=True).ts
            assert np.array_equal(ts, np.repeat(np.arange(hours * 60), 6))
            simulate_hours(cfg, topo, bus, METRICS_TOPIC, hours, 4 - hours, seed=1)
        assert path.read_bytes() == (tmp_path / "whole.log").read_bytes()


# ---------------------------------------------------------------------------
# simulate_hours in blocks of hours, against the per-hour oracle
# ---------------------------------------------------------------------------

def block_hours(topology) -> int:
    """The hours in one of simulate_hours' blocks on `topology`."""
    return _BLOCK_SAMPLES // (60 * len(topology.active_spine_ids) * topology.n_leaf)


def simulated(simulate, cfg, topology, runs, directory) -> tuple[bytes, SampleColumns]:
    """The log bytes and consumed columns of `simulate` over each
    (start_hour, hours) of `runs` in turn, on one file-backed bus."""
    path = directory / f"{len(list(directory.iterdir()))}.log"
    with TopicBus() as bus:
        bus.attach(METRICS_TOPIC, path)
        for start_hour, hours in runs:
            simulate(cfg, topology, bus, METRICS_TOPIC, start_hour, hours, seed=3)
        columns = bus.consume(METRICS_TOPIC, columns=True)
    return path.read_bytes(), columns


def assert_same_columns(got: SampleColumns, want: SampleColumns) -> None:
    for a, b in zip(got.columns(), want.columns()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def simulations(draw):
    """A config, a topology (maybe less a spine) and a (start_hour, hours)
    whose hours reach past one block, or stop at, or short of, its end."""
    n_leaf, n_spine = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    bursts = draw(st.booleans())
    cfg = SimConfig(seed=5)
    cfg.topology = TopologyConfig(
        n_leaf=n_leaf, n_spine=n_spine, capacity_bps=10_000_000_000, base_latency_us=3.0,
        min_spines=1, max_spines=5,
        spine_slots=draw(st.lists(st.integers(1, 3), min_size=n_spine, max_size=n_spine)))
    cfg.latency = LatencyConfig(queue_factor=1.0, noise_us=draw(st.sampled_from([0.0, 0.2])))
    cfg.traffic = TrafficConfig(base_bps=draw(st.integers(0, 8_000_000_000)),
                                diurnal_amp_bps=2_000_000_000,
                                burst_rate_per_hour=1.5 if bursts else 0.0,
                                burst_size_bps=3e9 if bursts else 0.0,
                                noise_bps=draw(st.sampled_from([0, 200_000_000])),
                                flows_per_pair=draw(st.integers(1, 12)))
    topology = topology_from_config(cfg)
    removed = draw(st.none() | st.integers(0, n_spine - 1))
    if removed is not None:
        topology = apply_action(topology, remove_action(removed))
    block = block_hours(topology)
    hours = draw(st.sampled_from([1, block - 1, block, block + 1, 2 * block + 5]))
    return cfg, topology, draw(st.integers(0, 500)), hours


@settings(derandomize=True, deadline=None, max_examples=40)
@given(simulations())
def test_block_simulation_publishes_the_per_hour_oracle_byte_for_byte(case):
    cfg, topology, start_hour, hours = case
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        got = simulated(simulate_hours, cfg, topology, [(start_hour, hours)], directory)
        want = simulated(reference_simulate_hours, cfg, topology, [(start_hour, hours)],
                         directory)
    assert got[0] == want[0]
    assert_same_columns(got[1], want[1])
    assert len(got[1]) == hours * 60 * len(topology.active_spine_ids) * topology.n_leaf


@pytest.mark.parametrize("n_leaf, n_spine, hours", [(2, 3, 200), (2, 3, 182), (16, 8, 9),
                                                    (3, 5, 36), (2, 2, 1)])
def test_each_block_is_one_placement_and_one_tick_call_within_the_bound(monkeypatch, n_leaf,
                                                                         n_spine, hours):
    cfg = small_cfg()
    cfg.topology = TopologyConfig(n_leaf=n_leaf, n_spine=n_spine, min_spines=1, max_spines=8)
    cfg.latency = LatencyConfig(noise_us=0.1)
    topology = topology_from_config(cfg)
    ticks, placements = [], []

    def traced_tick(*args, **kwargs):
        samples = simulate_tick(*args, **kwargs)
        ticks.append((args[2], kwargs["minutes"], len(samples)))
        return samples

    def traced_flows(*args, **kwargs):
        placements.append(build_flows(*args, **kwargs))
        return placements[-1]

    monkeypatch.setattr(pipeline, "simulate_tick", traced_tick)
    monkeypatch.setattr(fabric, "build_flows", traced_flows)
    published = simulate_hours(cfg, topology, TopicBus(), METRICS_TOPIC, 7, hours, seed=1)
    block = block_hours(topology)
    assert [minutes for _, minutes, _ in ticks] == \
        [60 * min(block, hours - start) for start in range(0, hours, block)]
    assert [t for t, _, _ in ticks] == [60 * (7 + start) for start in range(0, hours, block)]
    assert all(n <= _BLOCK_SAMPLES for _, _, n in ticks)
    assert sum(n for _, _, n in ticks) == published == hours * 60 * n_spine * n_leaf
    assert len(placements) == len(ticks)      # each block's flows placed once
    assert all(flows.shape[1] == 3 + minutes // 60
               for flows, (_, minutes, _) in zip(placements, ticks))


def test_a_call_split_inside_a_block_publishes_the_bytes_of_one_call(tmp_path):
    cfg = small_cfg()
    cfg.latency = LatencyConfig(noise_us=0.05)
    topology = topology_from_config(cfg)
    block = block_hours(topology)
    first = 40                             # ends inside the first block
    assert 0 < first < block < first + 150
    whole = simulated(simulate_hours, cfg, topology, [(5, first + 150)], tmp_path)
    split = simulated(simulate_hours, cfg, topology, [(5, first), (5 + first, 150)], tmp_path)
    assert split[0] == whole[0]
    assert_same_columns(split[1], whole[1])


def test_an_hour_whose_demand_sums_past_int64_raises_after_the_hours_before_it(tmp_path):
    # six pairs of 1.5e18 + 1e17 * sin(2 pi t / 24): hours 0 and 1 sum below
    # 2**63, hour 2 (6 * 1.55e18) past it; all ten hours fit one block
    cfg = SimConfig(seed=5)
    cfg.topology = TopologyConfig(n_leaf=3, n_spine=5)
    cfg.traffic = TrafficConfig(base_bps=1.5e18, diurnal_amp_bps=1e17, flows_per_pair=4)
    cfg.latency = LatencyConfig(noise_us=0.2)
    topology = topology_from_config(cfg)
    assert block_hours(topology) > 10
    logs = []
    for simulate in (simulate_hours, reference_simulate_hours):
        path = tmp_path / f"{simulate.__name__}.log"
        with TopicBus() as bus:
            bus.attach(METRICS_TOPIC, path)
            with pytest.raises(DataError, match="hour 2's demand sums past the int64 range"):
                simulate(cfg, topology, bus, METRICS_TOPIC, 0, 10, seed=1)
            assert bus.length(METRICS_TOPIC) == 2 * 60 * 15
        logs.append(path.read_bytes())
    assert logs[0] == logs[1]


@pytest.mark.parametrize("start_hour, hours, match", [(0, -2, "hours must be >= 0"),
                                                      (-1, 3, "hour must be >= 0")])
def test_a_negative_hour_count_or_start_hour_is_refused_before_anything_is_published(
        tmp_path, start_hour, hours, match):
    cfg = small_cfg()
    topology = topology_from_config(cfg)
    with TopicBus() as bus:
        bus.attach(METRICS_TOPIC, tmp_path / "t.log")
        with pytest.raises(InvalidConfigError, match=match):
            simulate_hours(cfg, topology, bus, METRICS_TOPIC, start_hour, hours, seed=1)
        assert simulate_hours(cfg, topology, bus, METRICS_TOPIC, 4, 0, seed=1) == 0
        assert bus.length(METRICS_TOPIC) == 0
    assert (tmp_path / "t.log").read_bytes() == b""

def test_series_from_bus_offset_window():
    cfg = small_cfg()
    topo = topology_from_config(cfg)
    bus = TopicBus()
    simulate_hours(cfg, topo, bus, METRICS_TOPIC, 0, 2, seed=1)
    mark = bus.length(METRICS_TOPIC)
    simulate_hours(cfg, topo, bus, METRICS_TOPIC, 2, 3, seed=1)
    recent = series_from_bus(bus, METRICS_TOPIC, topo, from_offset=mark)
    assert all(len(s) == 3 and s.start_hour == 2 for s in recent)
    full = series_from_bus(bus, METRICS_TOPIC, topo)
    assert all(len(s) == 5 and s.start_hour == 0 for s in full)


def test_build_datasets_val_fallback_when_short():
    short = [series(0, 0, np.linspace(3, 4, 20))]
    scaler, train_ds, val_ds = build_datasets(short, 0.2, lookback=12, horizon=1)
    assert val_ds is None
    assert len(train_ds) == 8
    long = [series(0, 0, np.linspace(3, 4, 200))]
    scaler, train_ds, val_ds = build_datasets(long, 0.2, lookback=12, horizon=1)
    assert val_ds is not None and len(val_ds) == 40 - 12


@pytest.mark.parametrize("hours, lookback, val_fraction", [(100, 30, 0.8), (7, 3, 0.5),
                                                          (2, 1, 0.6)])
def test_build_datasets_val_fallback_when_the_training_side_is_short(hours, lookback,
                                                                    val_fraction):
    whole = [series(0, 0, np.linspace(3, 4, hours))]
    scaler, train_ds, val_ds = build_datasets(whole, val_fraction, lookback, horizon=1)
    assert val_ds is None
    assert len(train_ds) == hours - lookback


def test_build_datasets_of_no_series_is_insufficient_data():
    with pytest.raises(InsufficientDataError):
        build_datasets([], val_fraction=0.2, lookback=4, horizon=1)


def test_append_history_contiguous_merge_and_reset():
    history = extend_history({}, [series(0, 0, [1, 2, 3]), series(1, 0, [7, 8, 9])])
    history = extend_history(history, [series(0, 3, [4, 5])])
    assert list(history) == [0]                     # spine 1 missing: dropped
    assert history[0].data[:, 0].tolist() == [1, 2, 3, 4, 5]
    assert history[0].start_hour == 0
    history = extend_history(history, [series(0, 10, [9])])    # gap: start over
    assert history[0].data[:, 0].tolist() == [9]
    assert history[0].start_hour == 10


def test_history_from_bus_is_the_history_the_loop_holds():
    # spine 0 is removed for hours 3-4 and back for hours 5-6, as a loop
    # that acted would publish it; the loop extends its history per cycle
    cfg = small_cfg()
    topo = topology_from_config(cfg)
    removed = apply_action(topo, remove_action(0))
    bus, loop = TopicBus(), {}
    bus.publish(METRICS_TOPIC, [])
    with pytest.raises(InsufficientDataError):
        history_from_bus(bus, METRICS_TOPIC)
    for start, hours, active in [(0, 3, topo), (3, 2, removed),
                                 (5, 2, apply_action(removed, add_action()))]:
        offset = bus.length(METRICS_TOPIC)
        simulate_hours(cfg, active, bus, METRICS_TOPIC, start, hours, seed=1)
        loop = extend_history(loop, series_from_bus(bus, METRICS_TOPIC, active, offset))
        rebuilt = history_from_bus(bus, METRICS_TOPIC)
        assert [(s.spine_id, s.start_hour, len(s)) for s in rebuilt] == \
            [(sid, s.start_hour, len(s)) for sid, s in sorted(loop.items())]
        assert all(np.array_equal(s.data, loop[s.spine_id].data) for s in rebuilt)
    assert [(s.spine_id, s.start_hour) for s in rebuilt] == [(0, 5), (1, 0), (2, 0)]
    with pytest.raises(GapError):       # the strict contract is unchanged
        series_from_bus(bus, METRICS_TOPIC)


def test_recent_history_trims_from_the_end():
    s = series(0, 5, np.arange(30, dtype=float))
    (trimmed,) = recent_history([s], 10)
    assert len(trimmed) == 10
    assert trimmed.start_hour == 25
    assert trimmed.data[:, 0].tolist() == list(np.arange(20, 30, dtype=float))


@pytest.mark.parametrize("hours", [0, 1, 30, 35])
def test_recent_history_equals_a_slice_of_the_last_hours(hours):
    s = series(0, 5, np.arange(30, dtype=float))
    (trimmed,) = recent_history([s], hours)
    kept = s.data[30 - min(hours, 30):]
    assert np.array_equal(trimmed.data, kept)
    assert trimmed.start_hour + len(trimmed) == s.start_hour + len(s) == 35


def test_run_rejects_cycle_shorter_than_lookback(tmp_path):
    cfg = small_cfg(hours_per_cycle=6)
    with pytest.raises(InvalidConfigError):
        run_closed_loop(cfg, tmp_path)


def test_run_rejects_lookback_shorter_than_conv_before_simulating(tmp_path):
    cfg = small_cfg(cycles=1, hours_per_cycle=16, horizon_hours=6)
    cfg.training.lookback_hours = 2          # conv_width is 3
    with pytest.raises(InvalidConfigError, match="conv_width"):
        run_closed_loop(cfg, tmp_path)
    assert not (tmp_path / "telemetry.log").exists()


def test_closed_loop_idle_policy_keeps_topology(tmp_path):
    cfg = small_cfg(cycles=2, hours_per_cycle=16, horizon_hours=12)
    # thresholds far from the operating point: nothing ever triggers
    cfg.policy.remove_threshold_us = 0.5
    cfg.policy.add_threshold_us = 500.0
    cfg.policy.cooldown_cycles = 0
    manifest = run_closed_loop(cfg, tmp_path)
    assert [c["active_spines"] for c in manifest.cycles] == [[0, 1, 2], [0, 1, 2]]
    assert (tmp_path / "journal.log").read_text() == ""
    assert (tmp_path / "manifest").exists()
    for name in ("telemetry.log", "model.ckpt", "forecast.csv"):
        assert (tmp_path / name).stat().st_size > 0


def idle_cfg() -> SimConfig:
    cfg = small_cfg(cycles=2, hours_per_cycle=16, horizon_hours=12)
    cfg.policy.remove_threshold_us = 0.5
    cfg.policy.add_threshold_us = 500.0
    return cfg


def test_a_good_run_writes_an_ok_manifest(tmp_path):
    run_closed_loop(idle_cfg(), tmp_path)
    written = json.loads((tmp_path / "manifest").read_text())
    assert (written["status"], written["error"]) == ("ok", None)
    assert len(written["cycles"]) == 2
    assert sorted(written["artifacts"]) == ["checkpoint", "forecast", "journal", "telemetry"]


def test_a_failing_cycle_still_writes_the_manifest_and_raises(tmp_path, monkeypatch):
    calls = []

    def forecast_or_fail(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("forecast broke in cycle 1")
        return forecast_horizon(*args, **kwargs)

    monkeypatch.setattr(pipeline, "forecast_horizon", forecast_or_fail)
    with pytest.raises(RuntimeError, match="forecast broke in cycle 1"):
        run_closed_loop(idle_cfg(), tmp_path)
    written = json.loads((tmp_path / "manifest").read_text())
    assert written["status"] == "failed"
    assert written["error"] == "RuntimeError: forecast broke in cycle 1"
    assert [c["cycle"] for c in written["cycles"]] == [0]
    assert (tmp_path / "model.ckpt").stat().st_size > 0
    assert written["artifacts"]["checkpoint"] == str(tmp_path / "model.ckpt")


def test_closed_loop_floor_blocks_all_removals(tmp_path):
    cfg = small_cfg(cycles=2, hours_per_cycle=16, horizon_hours=12)
    # every spine idles below the remove threshold, but the floor binds
    cfg.topology.min_spines = 3
    cfg.policy.remove_threshold_us = 50.0
    cfg.policy.add_threshold_us = 500.0
    cfg.policy.cooldown_cycles = 0
    manifest = run_closed_loop(cfg, tmp_path)
    assert (tmp_path / "journal.log").read_text() == ""
    assert manifest.cycles[-1]["active_spines"] == [0, 1, 2]


def test_closed_loop_insufficient_data_raises(tmp_path):
    cfg = small_cfg(cycles=1, hours_per_cycle=13, horizon_hours=6)
    cfg.training.lookback_hours = 12
    # 13h window trains (13 = lookback + horizon) but leaves nothing to spare;
    # shrink below that and the loop must refuse
    cfg.run.hours_per_cycle = 12
    with pytest.raises((InvalidConfigError, InsufficientDataError)):
        run_closed_loop(cfg, tmp_path)


def acting_cfg() -> SimConfig:
    """A loop that acts: the light one-slot spines 0 and 4 are removed in
    cycle 0, and once the cooldown has passed the loaded three-spine
    fabric gets spine 0 back in cycle 2. Every decision clears its
    threshold by a wide margin, so BLAS rounding cannot flip one."""
    cfg = SimConfig(seed=4)
    cfg.topology = TopologyConfig(n_leaf=3, n_spine=5, capacity_bps=10_000_000_000,
                                  base_latency_us=3.0, min_spines=3, max_spines=5,
                                  spine_slots=[1, 3, 3, 3, 1])
    cfg.latency = LatencyConfig(queue_factor=1.0, noise_us=0.15)
    cfg.traffic = TrafficConfig(base_bps=12_500_000_000, diurnal_amp_bps=1_250_000_000,
                                noise_bps=150_000_000, flows_per_pair=8)
    cfg.training = TrainingConfig(lookback_hours=12, epochs=25, dropout=0.2)
    cfg.policy = PolicySection(remove_threshold_us=7.0, add_threshold_us=9.0,
                               cooldown_cycles=1, horizon_fraction=0.5)
    cfg.run = RunSection(cycles=4, hours_per_cycle=36, horizon_hours=24)
    return cfg


ACTING_ACTIONS = [(0, "remove_spine", 0), (0, "remove_spine", 4), (2, "add_spine", None)]
# the telemetry depends on the actions only through the active spine set,
# and its arithmetic is pure Python plus PCG64, so it holds on every platform
ACTING_TELEMETRY_SHA256 = "0a59828abbf986144a31154bcb0b1c714536a7828fc392f29cb4316ec0b926fd"


def test_acting_closed_loop_golden(tmp_path):
    manifest = run_closed_loop(acting_cfg(), tmp_path)
    entries = replay_journal(tmp_path / "journal.log")
    assert [(e.cycle, e.kind, e.spine_id) for e in entries] == ACTING_ACTIONS
    assert [c["active_spines"] for c in manifest.cycles] == \
        [[1, 2, 3], [1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3]]
    digest = hashlib.sha256((tmp_path / "telemetry.log").read_bytes()).hexdigest()
    assert digest == ACTING_TELEMETRY_SHA256


def test_closed_loop_retrain_each_cycle(tmp_path):
    cfg = acting_cfg()
    cfg.run.retrain_each_cycle = True
    manifest = run_closed_loop(cfg, tmp_path)
    timings = json.loads((tmp_path / "manifest").read_text())["stage_timings_s"]
    assert sorted(k for k in timings if k.endswith(".train")) == \
        [f"cycle{n}.train" for n in range(cfg.run.cycles)]
    entries = replay_journal(tmp_path / "journal.log")
    assert entries
    assert [f"{e.kind}:{e.spine_id}" for e in entries] == \
        [a for c in manifest.cycles for a in c["actions"]]
    assert [e.cycle for e in entries] == \
        [c["cycle"] for c in manifest.cycles for _ in c["actions"]]
