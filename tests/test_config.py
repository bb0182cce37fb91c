import json

import numpy as np
import pytest

from spinescale.config import (RHO_MAX, LatencyConfig, SimConfig, TopologyConfig, TrafficConfig,
                               derive_seed, load_config, save_config)
from spinescale.errors import InvalidConfigError
from spinescale.fabric import link_latency_us, round6
from spinescale.pipeline import simulate_hours, topology_from_config
from spinescale.telemetry import TopicBus


def test_defaults_validate():
    cfg = SimConfig().validate()
    assert cfg.topology.n_leaf == 3
    assert cfg.topology.n_spine == 5
    assert cfg.policy.remove_threshold_us == 6.0
    assert cfg.run.horizon_hours == 120


def test_save_load_roundtrip(tmp_path):
    cfg = SimConfig(seed=123)
    cfg.topology.n_leaf = 2
    cfg.topology.spine_slots = [1, 3, 3, 3, 1]
    cfg.traffic.burst_rate_per_hour = 0.7
    cfg.training.epochs = 17
    path = tmp_path / "config.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg


def test_partial_config_fills_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 4, "topology": {"n_leaf": 2}}))
    cfg = load_config(path)
    assert cfg.seed == 4
    assert cfg.topology.n_leaf == 2
    assert cfg.topology.n_spine == 5          # default preserved
    assert cfg.training.lookback_hours == 48


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topolgy": {"n_leaf": 2}}))
    with pytest.raises(InvalidConfigError, match="topolgy"):
        load_config(path)
    path.write_text(json.dumps({"topology": {"n_leafs": 2}}))
    with pytest.raises(InvalidConfigError, match="n_leafs"):
        load_config(path)


def test_invalid_values_rejected(tmp_path):
    path = tmp_path / "config.json"
    for section, payload in [
        ("topology", {"n_leaf": 0}),
        ("topology", {"min_spines": 9}),
        ("topology", {"n_spine": 9}),
        ("topology", {"spine_slots": [1, 1]}),
        # a float64 holds no speed past 2**53 exactly
        ("topology", {"capacity_bps": 2**53 + 1}),
        ("latency", {"noise_us": -1}),
        # a noise_us at or past base_latency_us could make a latency negative
        ("latency", {"noise_us": 1e308}),
        ("latency", {"noise_us": 10**400}),
        ("traffic", {"flows_per_pair": 0}),
        ("training", {"dropout": 1.5}),
        ("training", {"val_fraction": 0.0}),
        ("run", {"cycles": 0}),
        ("policy", {"remove_threshold_us": 20, "add_threshold_us": 1}),
        ("policy", {"add_aggregate": "median"}),
        ("policy", {"horizon_fraction": 0}),
        ("policy", {"cooldown_cycles": -1}),
        # non-finite numbers (JSON NaN / Infinity) and wrong types
        ("policy", {"remove_threshold_us": float("nan")}),
        ("topology", {"base_latency_us": float("nan")}),
        ("traffic", {"base_bps": float("inf")}),
        ("latency", {"noise_us": float("-inf")}),
        ("topology", {"n_leaf": "3"}),
        ("topology", {"n_leaf": 3.0}),
        ("topology", {"spine_slots": [1, 1, "1", 1, 1]}),
        ("training", {"epochs": True}),
        ("run", {"retrain_each_cycle": 1}),
        ("policy", {"add_aggregate": None}),
        # a decision cycle must hold one training window
        ("training", {"lookback_hours": 200}),
        ("run", {"hours_per_cycle": 48}),
    ]:
        path.write_text(json.dumps({section: payload}))
        with pytest.raises(InvalidConfigError):
            load_config(path)
    for seed in ("abc", 7.5, None):
        path.write_text(json.dumps({"seed": seed}))
        with pytest.raises(InvalidConfigError, match="seed"):
            load_config(path)


def test_horizon_steps_other_than_one_rejected_at_load(tmp_path):
    # forecast_horizon feeds each prediction back in as the next hour, so a
    # model trained k > 1 hours ahead would forecast shifted in time
    path = tmp_path / "config.json"
    for steps in (0, 2):
        path.write_text(json.dumps({"training": {"horizon_steps": steps}}))
        with pytest.raises(InvalidConfigError, match="horizon_steps"):
            load_config(path)


def test_model_rules_apply_only_to_a_model():
    # a config that only simulates and windows may look back less than the
    # convolution is wide; building a model from it may not
    cfg = SimConfig()
    cfg.training.lookback_hours = 2
    cfg.validate()
    with pytest.raises(InvalidConfigError, match="conv_width"):
        cfg.training.validate_model()


def test_missing_or_malformed_file(tmp_path):
    with pytest.raises(InvalidConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidConfigError, match="JSON"):
        load_config(bad)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(InvalidConfigError, match="UTF-8"):
        load_config(latin1)
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]")
    with pytest.raises(InvalidConfigError, match="object"):
        load_config(arr)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "simulate") == derive_seed(7, "simulate")
    assert derive_seed(7, "simulate") != derive_seed(7, "train")
    assert derive_seed(7, "simulate") != derive_seed(8, "simulate")
    assert 0 <= derive_seed(0, "x") < 2 ** 64


def worst_simulated_latency(queue_factor: float) -> float:
    """The latency curve at RHO_MAX as the simulator computes it, base 3.0,
    plus a noise of 0.2 at its bound, rounded as simulate_tick rounds."""
    return float(round6(link_latency_us(3.0, np.array([RHO_MAX]), queue_factor) + 0.2)[0])


def largest_queue_factor_below_1e9() -> float:
    """By bisection over the floats: the largest queue_factor whose worst
    simulated latency stays below 1e9 us."""
    low, high = 0.0, 1e9
    while np.nextafter(low, high) < high:
        mid = max(low + (high - low) / 2, float(np.nextafter(low, high)))
        low, high = (mid, high) if worst_simulated_latency(mid) < 1e9 else (low, mid)
    return low


def test_a_latency_that_could_leave_the_wire_domain_is_refused_at_load(tmp_path):
    # the telemetry log carries latencies in [0, 1e9) us: the noise may not
    # take one below 0, nor the queueing curve one to 1e9
    largest = largest_queue_factor_below_1e9()
    past = float(np.nextafter(largest, np.inf))
    assert worst_simulated_latency(past) == 1e9
    path = tmp_path / "config.json"
    for latency, accepted in [({"noise_us": 3.0}, False), ({"noise_us": 2.999999}, True),
                              ({"queue_factor": largest, "noise_us": 0.2}, True),
                              ({"queue_factor": past, "noise_us": 0.2}, False)]:
        path.write_text(json.dumps({"topology": {"base_latency_us": 3.0}, "latency": latency}))
        if accepted:
            assert load_config(path).latency == LatencyConfig(**latency)
        else:
            with pytest.raises(InvalidConfigError, match="latency"):
                load_config(path)


def test_the_largest_accepted_queue_factor_simulates_a_log_that_replays(tmp_path):
    cfg = SimConfig(seed=3)
    cfg.topology = TopologyConfig(n_leaf=2, n_spine=2, capacity_bps=1_000_000_000,
                                  base_latency_us=3.0, min_spines=1, max_spines=2)
    cfg.latency = LatencyConfig(queue_factor=largest_queue_factor_below_1e9(), noise_us=0.2)
    cfg.traffic = TrafficConfig(base_bps=5_000_000_000, diurnal_amp_bps=0, flows_per_pair=2)
    cfg.validate()
    path = tmp_path / "telemetry.log"
    with TopicBus() as bus:
        bus.attach("fabric.metrics", path)
        simulate_hours(cfg, topology_from_config(cfg), bus, "fabric.metrics", 0, 1, seed=5)
        published = bus.consume("fabric.metrics")
    assert 1e9 - 1 < max(s.latency_us for _, s in published) < 1e9     # saturated links
    with TopicBus() as bus:
        assert bus.attach("fabric.metrics", path) == len(published) == 60 * 4
        assert bus.consume("fabric.metrics") == published
