import json

import pytest

from spinescale.config import SimConfig, derive_seed, load_config, save_config
from spinescale.errors import InvalidConfigError


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
        # numpy's uniform needs a finite width, 2 * noise_us
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
