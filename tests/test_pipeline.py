import hashlib
import json

import numpy as np
import pytest

from conftest import HalfWriteHandle
from spinescale import pipeline
from spinescale.config import (LatencyConfig, PolicySection, RunSection, SimConfig,
                               TopologyConfig, TrafficConfig, TrainingConfig)
from spinescale.errors import InsufficientDataError, InvalidConfigError, PersistenceError
from spinescale.forecaster import forecast_horizon
from spinescale.pipeline import (METRICS_TOPIC, _append_history, build_datasets, recent_history,
                                 run_closed_loop, series_from_bus, simulate_hours,
                                 topology_from_config)
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
    history = {}
    _append_history(history, series(0, 0, [1, 2, 3]))
    _append_history(history, series(0, 3, [4, 5]))
    assert history[0].data[:, 0].tolist() == [1, 2, 3, 4, 5]
    assert history[0].start_hour == 0
    _append_history(history, series(0, 10, [9]))    # gap: start over
    assert history[0].data[:, 0].tolist() == [9]
    assert history[0].start_hour == 10


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
