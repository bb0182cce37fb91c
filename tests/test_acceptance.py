"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy criteria
(forecast skill, scenario reproduction) train real models and take a few
minutes combined; every budgeted criterion asserts its own wall-clock cap.
"""

import functools
import hashlib
import platform
import time

import numpy as np
import pytest

from conftest import models_equal
from oracle_policy import brute_force_actions, brute_force_candidates
from test_nn import ORACLE_CASES, scalar_cell_oracle, scalar_params

from spinescale.baselines import mse, persistence_predictions, seasonal_naive_predictions
from spinescale.config import (LatencyConfig, PolicySection, RunSection, SimConfig,
                               TopologyConfig, TrafficConfig, TrainingConfig)
from spinescale.fabric import (DemandMatrix, build_topology, ecmp_assign, hour_loads,
                              simulate_tick)
from spinescale.forecaster import (Forecast, backward_batch, forecast_horizon, forward_batch,
                                   gradient_check, init_model, load_checkpoint,
                                   load_forecast_csv, mse_loss, save_checkpoint, train)
from spinescale.nn import lstm_cell_forward
from spinescale.pipeline import (METRICS_TOPIC, build_datasets, run_closed_loop,
                                 series_from_bus, simulate_hours, topology_from_config)
from spinescale.policy import PolicyConfig, evaluate, replay_journal
from spinescale.telemetry import TopicBus, decode_sample, encode_sample


def criterion(num: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {num} ({title}): FAIL "
                      f"({time.time() - t0:.1f}s)", flush=True)
                raise
            print(f"\n[acceptance] criterion {num} ({title}): PASS "
                  f"({time.time() - t0:.1f}s)", flush=True)
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# shared small end-to-end run (criteria 7 and 8)
# ---------------------------------------------------------------------------

def small_cfg() -> SimConfig:
    cfg = SimConfig(seed=9)
    cfg.topology = TopologyConfig(n_leaf=2, n_spine=3, capacity_bps=1_000_000_000,
                                  base_latency_us=3.0, min_spines=2, max_spines=5)
    cfg.latency = LatencyConfig(queue_factor=1.0, noise_us=0.05)
    cfg.traffic = TrafficConfig(base_bps=300_000_000, diurnal_amp_bps=100_000_000,
                                noise_bps=5_000_000, flows_per_pair=8)
    cfg.training = TrainingConfig(lookback_hours=12, epochs=4, batch_size=16,
                                  hidden_size=8, conv_channels=4, dropout=0.1)
    cfg.policy = PolicySection(remove_threshold_us=0.5, add_threshold_us=500.0,
                               cooldown_cycles=0)
    cfg.run = RunSection(cycles=2, hours_per_cycle=24, horizon_hours=24)
    return cfg


@pytest.fixture(scope="module")
def small_run_pair(tmp_path_factory):
    out1 = tmp_path_factory.mktemp("run1")
    out2 = tmp_path_factory.mktemp("run2")
    run_closed_loop(small_cfg(), out1)
    run_closed_loop(small_cfg(), out2)
    return out1, out2


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------

@criterion(1, "gradient correctness")
def test_criterion_1_gradient_correctness():
    t0 = time.time()
    hyper = TrainingConfig(lookback_hours=48, conv_width=3, conv_channels=8,
                           hidden_size=32, dropout=0.2)
    model = init_model(hyper, seed=101)
    n_arrays = len(model.parameters())
    rng = np.random.default_rng(102)
    inputs = rng.uniform(0, 1, size=(6, 48, 3))
    targets = rng.uniform(0, 1, size=6)

    # at least 100 sampled parameters, every layer's arrays represented
    per_array = max(2, -(-100 // n_arrays))
    sampled = sum(min(per_array, arr.size) for arr in model.parameters().values())
    assert sampled >= 100

    err = gradient_check(model, inputs, targets, eps=1e-5, num_params=100, seed=103)
    assert err < 1e-4, f"max relative gradient error {err:.3e}"

    # fault injection: a doubled dense gradient must be caught
    preds, cache = forward_batch(model, inputs)
    _, d_preds = mse_loss(preds, targets)
    grads = backward_batch(model, cache, d_preds)
    grads["dense.w"] = grads["dense.w"] * 2.0
    err_fault = gradient_check(model, inputs, targets, grads=grads, seed=103)
    assert err_fault > 1e-4, "fault-injected gradient went undetected"

    assert time.time() - t0 < 60.0, "gradient check exceeded 1 minute"


# ---------------------------------------------------------------------------
# criterion 2: LSTM cell oracle
# ---------------------------------------------------------------------------

@criterion(2, "LSTM cell scalar oracle")
def test_criterion_2_cell_oracle():
    assert len(ORACLE_CASES) >= 5
    assert any(all(v == 0.0 for v in case[4].values()) for case in ORACLE_CASES)
    for name, x, h0, c0, params, want_h, want_c in ORACLE_CASES:
        oh, oc = scalar_cell_oracle(x, h0, c0, params)
        assert abs(oh - want_h) <= 1e-12 and abs(oc - want_c) <= 1e-12, name
        h_t, c_t = lstm_cell_forward(np.array([x]), np.array([h0]), np.array([c0]),
                                     scalar_params(params))
        assert abs(float(h_t[0]) - want_h) <= 1e-12, name
        assert abs(float(c_t[0]) - want_c) <= 1e-12, name


# ---------------------------------------------------------------------------
# criterion 3: forecast skill vs baselines
# ---------------------------------------------------------------------------

def _skill_run(traffic: TrafficConfig, seed: int, days: int = 21, epochs: int = 40):
    cfg = SimConfig(seed=seed)
    cfg.topology = TopologyConfig(n_leaf=3, n_spine=5, capacity_bps=10_000_000_000,
                                  base_latency_us=3.0)
    cfg.latency = LatencyConfig(queue_factor=1.0, noise_us=0.2)
    cfg.traffic = traffic
    cfg.training = TrainingConfig(lookback_hours=48, epochs=epochs, dropout=0.2)
    topo = topology_from_config(cfg)
    bus = TopicBus()
    simulate_hours(cfg, topo, bus, METRICS_TOPIC, 0, days * 24, seed=seed)
    series = series_from_bus(bus, METRICS_TOPIC, topo)
    scaler, train_ds, val_ds = build_datasets(series, 0.2, 48, 1)
    model = init_model(cfg.training, seed=seed, scaler=scaler)
    t0 = time.time()
    model, _ = train(model, train_ds, seed=seed + 1, val_ds=val_ds)
    train_seconds = time.time() - t0
    from spinescale.forecaster import evaluate_mse
    return (evaluate_mse(model, val_ds),
            mse(persistence_predictions(val_ds), val_ds.targets),
            mse(seasonal_naive_predictions(val_ds), val_ds.targets),
            train_seconds)


@criterion(3, "forecast skill vs persistence and seasonal-naive")
def test_criterion_3_forecast_skill():
    # diurnal scenario; demand noise = 6% of the sinusoid amplitude (<= 10%)
    diurnal = TrafficConfig(base_bps=12_500_000_000, diurnal_amp_bps=5_000_000_000,
                            diurnal_phase_h=0.0, burst_rate_per_hour=0.0,
                            burst_size_bps=0.0, noise_bps=300_000_000, flows_per_pair=64)
    model_mse, pers_mse, _, t_train = _skill_run(diurnal, seed=11)
    assert t_train < 600.0, "training exceeded 10 minutes"
    assert model_mse <= 0.8 * pers_mse, \
        f"diurnal: model {model_mse:.3e} vs persistence {pers_mse:.3e}"

    # non-seasonal burst scenario: seasonal-naive echoes yesterday's bursts
    bursty = TrafficConfig(base_bps=12_500_000_000, diurnal_amp_bps=1_500_000_000,
                           diurnal_phase_h=0.0, burst_rate_per_hour=0.7,
                           burst_size_bps=3_000_000_000, noise_bps=300_000_000,
                           flows_per_pair=64)
    model_mse_b, pers_mse_b, seas_mse_b, t_train_b = _skill_run(bursty, seed=11)
    assert t_train_b < 600.0, "training exceeded 10 minutes"
    assert model_mse_b < seas_mse_b, \
        f"bursty: model {model_mse_b:.3e} vs seasonal {seas_mse_b:.3e}"
    assert model_mse_b <= 0.8 * pers_mse_b, \
        f"bursty: model {model_mse_b:.3e} vs persistence {pers_mse_b:.3e}"


# ---------------------------------------------------------------------------
# criterion 4: two-low-spines scenario reproduction
# ---------------------------------------------------------------------------

@criterion(4, "two low spines removed (ids 0 and 4), final count 3")
def test_criterion_4_scenario_reproduction(tmp_path):
    t0 = time.time()
    cfg = SimConfig(seed=23)
    # hash slots bias the ECMP spread so spines 0 and 4 carry light load
    cfg.topology = TopologyConfig(n_leaf=3, n_spine=5, capacity_bps=10_000_000_000,
                                  base_latency_us=3.0, min_spines=2, max_spines=8,
                                  spine_slots=[1, 3, 3, 3, 1])
    cfg.latency = LatencyConfig(queue_factor=1.0, noise_us=0.15)
    cfg.traffic = TrafficConfig(base_bps=12_500_000_000, diurnal_amp_bps=1_250_000_000,
                                diurnal_phase_h=0.0, burst_rate_per_hour=0.0,
                                burst_size_bps=0.0, noise_bps=150_000_000,
                                flows_per_pair=64)
    cfg.training = TrainingConfig(lookback_hours=48, epochs=35, dropout=0.2)
    cfg.policy = PolicySection(remove_threshold_us=6.0, add_threshold_us=48.0,
                               cooldown_cycles=0, horizon_fraction=1.0)
    cfg.run = RunSection(cycles=1, hours_per_cycle=336, horizon_hours=120)

    manifest = run_closed_loop(cfg, tmp_path)
    entries = replay_journal(tmp_path / "journal.log")
    forecast = load_forecast_csv(tmp_path / "forecast.csv")

    # exactly the two low-load spines are removed
    assert [e.kind for e in entries] == ["remove_spine", "remove_spine"]
    assert {e.spine_id for e in entries} == {0, 4}
    # emission order is ascending mean predicted latency
    means = {sid: float(np.mean(forecast.per_spine[sid])) for sid in (0, 4)}
    assert means[entries[0].spine_id] <= means[entries[1].spine_id]

    # the pipeline forecast both below 6 us for every one of the 120 hours
    assert forecast.horizon == 120
    for sid in (0, 4):
        assert np.all(forecast.per_spine[sid] < 6.0)
    for sid in (1, 2, 3):
        assert np.any(forecast.per_spine[sid] >= 6.0)

    # decision matches the brute-force oracle on the same forecast
    policy_cfg = PolicyConfig(remove_threshold_us=6.0, add_threshold_us=48.0,
                              min_spines=2, max_spines=8, cooldown_cycles=0,
                              horizon_fraction=1.0, add_aggregate="mean")
    want = brute_force_actions(forecast, policy_cfg, [0, 1, 2, 3, 4], 0)
    assert [(e.kind, e.spine_id) for e in entries] == want

    # final topology: 3 active spines (>= min_spines 2)
    assert manifest.cycles[-1]["active_spines"] == [1, 2, 3]
    assert time.time() - t0 < 900.0, "scenario exceeded 15 minutes"


# ---------------------------------------------------------------------------
# criterion 5: policy safety property suite
# ---------------------------------------------------------------------------

@criterion(5, "policy safety over 1,000 randomized instances")
def test_criterion_5_policy_properties():
    rng = np.random.default_rng(555)
    for trial in range(1000):
        n_spines = int(rng.integers(2, 9))
        active = sorted(rng.choice(24, size=n_spines, replace=False).tolist())
        horizon = int(rng.integers(1, 121))
        forecast = Forecast(horizon=horizon, per_spine={
            sid: rng.uniform(0.0, 18.0, size=horizon) for sid in active})
        config = PolicyConfig(
            remove_threshold_us=float(rng.uniform(1.5, 8.0)),
            add_threshold_us=float(rng.uniform(8.5, 16.0)),
            min_spines=int(rng.integers(1, n_spines + 1)),
            max_spines=int(rng.integers(n_spines, n_spines + 5)),
            cooldown_cycles=int(rng.integers(0, 5)),
            horizon_fraction=float(rng.uniform(0.05, 1.0)),
            add_aggregate="max" if rng.random() < 0.25 else "mean",
        )
        since = int(rng.integers(0, 7))
        actions = evaluate(forecast, config, active, since)

        # exact oracle match
        got = [(a.kind, a.spine_id) for a in actions]
        assert got == brute_force_actions(forecast, config, active, since), f"trial {trial}"

        # min/max bounds always respected
        removed = sum(1 for a in actions if a.kind == "remove_spine")
        added = sum(1 for a in actions if a.kind == "add_spine")
        assert n_spines - removed >= config.min_spines
        assert n_spines + added <= config.max_spines
        assert not (removed and added)

        # dead zone: clamping all predictions into [remove, add] silences it
        clamped = Forecast(horizon=horizon, per_spine={
            sid: np.clip(v, config.remove_threshold_us, config.add_threshold_us)
            for sid, v in forecast.per_spine.items()})
        assert evaluate(clamped, config, active, since) == []

        # monotonicity: a higher removal threshold never shrinks the candidates
        lower = brute_force_candidates(forecast, config, active)
        raised = PolicyConfig(
            remove_threshold_us=config.remove_threshold_us + 1.5,
            add_threshold_us=config.add_threshold_us + 1.5,
            min_spines=config.min_spines, max_spines=config.max_spines,
            cooldown_cycles=config.cooldown_cycles,
            horizon_fraction=config.horizon_fraction,
            add_aggregate=config.add_aggregate)
        assert set(lower) <= set(brute_force_candidates(forecast, raised, active))


# ---------------------------------------------------------------------------
# criterion 6: simulator conservation + ECMP spread
# ---------------------------------------------------------------------------

@criterion(6, "conservation, latency floor, ECMP uniformity")
def test_criterion_6_simulator_conservation():
    rng = np.random.default_rng(66)
    for tick in range(500):
        n_leaf = int(rng.integers(2, 5))
        n_spine = int(rng.integers(2, 7))
        cap = 1_000_000_000
        topo = build_topology(TopologyConfig(n_leaf, n_spine, cap, 3.0, min_spines=1))
        # cap/(2*(n_leaf-1)) per pair: even a degenerate all-to-one-spine
        # hash cannot overload a link, so no clamping can occur
        max_pair = cap // (2 * (n_leaf - 1))
        entries = {}
        for src in range(n_leaf):
            for dst in range(n_leaf):
                if src != dst and rng.random() > 0.2:
                    entries[(src, dst)] = int(rng.integers(0, max_pair))
        demands = DemandMatrix(t=tick, entries=entries)
        seed = int(rng.integers(1 << 31))
        loads = hour_loads(topo, demands, seed, flows_per_pair=int(rng.integers(1, 16)))
        samples = simulate_tick(loads, seed, t=tick).rows()
        total = sum(s.fabric_bps for s in samples)
        routed = demands.total_bps()
        assert total == routed                       # exact integer conservation
        if routed:
            assert abs(total - routed) / routed <= 1e-9
        for s in samples:
            assert s.latency_us >= 3.0
            assert s.fabric_bps <= cap

    # ECMP spread: 10,000 flows over 5 spines within +-5% each
    for seed in (0, 7, 42):
        counts = {s: 0 for s in range(5)}
        for fid in range(10_000):
            counts[ecmp_assign(fid, [0, 1, 2, 3, 4], seed)] += 1
        for s, n in counts.items():
            assert abs(n - 2000) <= 100, f"spine {s}: {n} flows (seed {seed})"


# ---------------------------------------------------------------------------
# criterion 7: determinism & persistence round-trips
# ---------------------------------------------------------------------------

# sha256 of the small_cfg run's artifacts that come from pure-Python
# arithmetic plus PCG64, so they hold on every platform. model.ckpt and
# forecast.csv depend on BLAS: see BLAS_GOLDEN_SHA256. The journal is
# empty: the thresholds put every spine in the dead zone.
GOLDEN_SHA256 = {
    "telemetry.log": "43c7fd15060f30cb27f2ee548ad9f4254dfe8f4b88511b451aa3b16532b8d15e",
    "journal.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

# The same run's trained artifacts, whose last bits depend on the BLAS
# kernels; recorded with numpy 2.4.6, the same with 1 and 2 BLAS threads.
# Compared only where np.show_config reports this BLAS on this machine type.
GOLDEN_BLAS = "scipy-openblas 0.3.31.188.0 on x86_64"
BLAS_GOLDEN_SHA256 = {
    "model.ckpt": "3d1d08faabf397dfdfe141716fb4a2df80c302e752b1812d512d7ceac498ac35",
    "forecast.csv": "c870a4d20bb8a73e0c89a824dbaf95a94ec36ca34a3f892f80baa7c42063dcc8",
}


def blas_name() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')} on {platform.machine()}"


@criterion(7, "bit-identical reruns and exact round-trips")
def test_criterion_7_determinism(small_run_pair):
    out1, out2 = small_run_pair
    for name in ("telemetry.log", "model.ckpt", "forecast.csv", "journal.log"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((out1 / name).read_bytes()).hexdigest() == digest, name

    # checkpoint round-trip is exact
    model = load_checkpoint(out1 / "model.ckpt")
    resaved = out1 / "resaved.ckpt"
    save_checkpoint(model, resaved)
    assert resaved.read_bytes() == (out1 / "model.ckpt").read_bytes()
    assert models_equal(load_checkpoint(resaved), model)

    # telemetry round-trip is exact, line by line
    lines = (out1 / "telemetry.log").read_text().splitlines()
    assert lines
    for offset, line in enumerate(lines):
        assert encode_sample(decode_sample(line, offset)) == line


def test_trained_artifact_goldens_on_the_recording_blas(small_run_pair):
    if blas_name() != GOLDEN_BLAS:
        pytest.skip(f"BLAS is {blas_name()}; the digests were recorded with {GOLDEN_BLAS}")
    out1, _ = small_run_pair
    for name, digest in BLAS_GOLDEN_SHA256.items():
        assert hashlib.sha256((out1 / name).read_bytes()).hexdigest() == digest, name


# ---------------------------------------------------------------------------
# criterion 8: forecast horizon contract
# ---------------------------------------------------------------------------

@criterion(8, "120 finite non-negative hourly values per active spine")
def test_criterion_8_horizon_contract(small_run_pair):
    out1, _ = small_run_pair
    model = load_checkpoint(out1 / "model.ckpt")
    bus = TopicBus()
    bus.attach(METRICS_TOPIC, out1 / "telemetry.log")
    series = series_from_bus(bus, METRICS_TOPIC)
    forecast = forecast_horizon(model, series, 120)
    assert forecast.spine_ids() == [0, 1, 2]
    for sid in forecast.spine_ids():
        preds = forecast.per_spine[sid]
        assert preds.shape == (120,)
        assert np.isfinite(preds).all()
        assert np.all(preds >= 0.0)
