import copy
import functools
import hashlib
import json
import pickle
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_forecast
import oracle_lstm
from conftest import models_equal
from spinescale import forecaster
from spinescale.baselines import mse, persistence_predictions, seasonal_naive_predictions
from spinescale.config import TrainingConfig
from spinescale.errors import (DataError, DecodeError, InsufficientHistoryError,
                               InvalidConfigError, NumericError, ShapeError, TrainingDivergedError)
from spinescale.forecaster import (Forecast, backward_batch, digest_forecast, forecast_horizon,
                                   forward, forward_batch, gradient_check, init_model,
                                   load_checkpoint, load_forecast_csv, mse_loss, parameter_shapes,
                                   save_checkpoint, save_forecast_csv, train)
from spinescale.pipeline import recent_history
from spinescale.windows import (Scaler, SwitchSeries, WindowedDataset, make_windows,
                                split_train_val)

SMALL = TrainingConfig(lookback_hours=12, conv_width=3, conv_channels=4,
                       hidden_size=12, dropout=0.2, epochs=20, batch_size=8,
                       learning_rate=5e-3)


def toy_dataset(n=8, lookback=12, seed=0):
    rng = np.random.default_rng(seed)
    return WindowedDataset(inputs=rng.uniform(0, 1, size=(n, lookback, 3)),
                           targets=rng.uniform(0, 1, size=n),
                           spine_ids=np.zeros(n, dtype=np.int64),
                           lookback=lookback, horizon=1)


def constant_series(spine_id=0, T=60, lat=5.0, fab=100.0, edg=200.0):
    return SwitchSeries(spine_id=spine_id, start_hour=0,
                        data=np.column_stack([np.full(T, lat), np.full(T, fab), np.full(T, edg)]))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_eval_forward_deterministic():
    model = init_model(SMALL, seed=1)
    window = np.random.default_rng(2).uniform(0, 1, size=(12, 3))
    assert forward(model, window) == forward(model, window)


def test_dropout_zero_train_equals_eval():
    hyper = TrainingConfig(**{**SMALL.__dict__, "dropout": 0.0})
    model = init_model(hyper, seed=1)
    window = np.random.default_rng(2).uniform(0, 1, size=(12, 3))
    rng = np.random.default_rng(3)
    assert forward(model, window, train_mode=True, rng=rng) == forward(model, window)


def test_dropout_one_zeroes_layer_outputs():
    # p=1 blanks everything entering layer 2; with layer-2 params zero its
    # state stays zero, so the output is exactly the dense bias.
    hyper = TrainingConfig(**{**SMALL.__dict__, "dropout": 1.0})
    model = init_model(hyper, seed=1)
    for name in model.layer2.array_names():
        getattr(model.layer2, name)[...] = 0.0
    model.dense_b[...] = -0.7341
    window = np.random.default_rng(2).uniform(0, 1, size=(12, 3))
    out = forward(model, window, train_mode=True, rng=np.random.default_rng(0))
    assert out == pytest.approx(-0.7341, abs=1e-15)


def test_forward_rejects_bad_shapes():
    model = init_model(SMALL, seed=1)
    with pytest.raises(ShapeError):
        forward(model, np.zeros((12, 2)))
    with pytest.raises(ShapeError):
        forward(model, np.zeros((2, 12, 3)))   # batch passed to single-window op


def test_forward_names_layer_on_non_finite():
    model = init_model(SMALL, seed=1)
    window = np.full((12, 3), np.nan)
    with pytest.raises(NumericError, match="conv"):
        forward(model, window)


def peak_bytes(call) -> int:
    """The most memory numpy and Python held at once during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluation_frees_layer_one_before_layer_two_runs():
    # train-diurnal's shapes: 100 validation windows of 48 h, hidden 32
    hyper = TrainingConfig(lookback_hours=48, conv_width=3, conv_channels=8, hidden_size=32)
    model = init_model(hyper, seed=1)
    ds = toy_dataset(n=100, lookback=48, seed=5)
    preds, _ = forward_batch(model, ds.inputs)
    diff = preds - ds.targets
    assert forecaster.evaluate_mse(model, ds) == float(np.sum(diff * diff)) / len(ds)
    gates = (48 - 3 + 1) * 100 * 4 * 32 * 8          # layer 1's [T, B, 4H] float64
    with_caches = peak_bytes(lambda: forward_batch(model, ds.inputs))
    assert peak_bytes(lambda: forecaster.evaluate_mse(model, ds)) < with_caches - 0.9 * gates


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------

def test_gradient_check_below_tolerance():
    model = init_model(SMALL, seed=3)
    ds = toy_dataset(seed=4)
    err = gradient_check(model, ds.inputs[:4], ds.targets[:4], eps=1e-5,
                         num_params=120, seed=0)
    assert err < 1e-4


def test_gradient_check_detects_scaled_dense_gradient():
    model = init_model(SMALL, seed=3)
    ds = toy_dataset(seed=4)
    preds, cache = forward_batch(model, ds.inputs[:4])
    _, d_preds = mse_loss(preds, ds.targets[:4])
    grads = backward_batch(model, cache, d_preds)
    grads["dense.w"] = grads["dense.w"] * 2.0
    err = gradient_check(model, ds.inputs[:4], ds.targets[:4], grads=grads)
    assert err > 1e-4


def test_gradient_check_zero_parameter_model():
    model = init_model(SMALL, seed=3)
    for arr in model.parameters().values():
        arr[...] = 0.0
    ds = toy_dataset(seed=4)
    err = gradient_check(model, ds.inputs[:4], ds.targets[:4])
    assert np.isfinite(err) and err < 1e-4


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_overfit_toy_dataset():
    hyper = TrainingConfig(**{**SMALL.__dict__, "dropout": 0.0, "epochs": 300})
    model = init_model(hyper, seed=1)
    ds = toy_dataset(seed=0)
    model, report = train(model, ds, seed=2)
    assert report.train_losses[-1] < 1e-3
    assert len(report.train_losses) == 300


def test_zero_learning_rate_changes_nothing():
    hyper = TrainingConfig(**{**SMALL.__dict__, "dropout": 0.0,
                              "learning_rate": 0.0, "epochs": 5})
    model = init_model(hyper, seed=1)
    before = {k: v.copy() for k, v in model.parameters().items()}
    model, report = train(model, toy_dataset(), seed=2)
    for k, v in model.parameters().items():
        assert np.array_equal(v, before[k])
    assert np.allclose(report.train_losses, report.train_losses[0], rtol=1e-9)


def test_train_deterministic_per_seed():
    ds = toy_dataset()
    runs = []
    for _ in range(2):
        model = init_model(SMALL, seed=7)
        model, report = train(model, ds, seed=9)
        runs.append((model, report))
    m1, r1 = runs[0]
    m2, r2 = runs[1]
    assert r1.train_losses == r2.train_losses
    assert r1.best_epoch == r2.best_epoch
    assert models_equal(m1, m2)
    model3 = init_model(SMALL, seed=7)
    model3, r3 = train(model3, ds, seed=10)
    assert r1.train_losses != r3.train_losses


def test_training_divergence_reports_epoch():
    hyper = TrainingConfig(**{**SMALL.__dict__, "dropout": 0.0,
                              "learning_rate": 1e160, "epochs": 10})
    model = init_model(hyper, seed=5)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(model, toy_dataset(), seed=6)


def test_final_grad_check_recorded_in_report():
    hyper = TrainingConfig(**{**SMALL.__dict__, "epochs": 2})
    model = init_model(hyper, seed=1)
    model, report = train(model, toy_dataset(), seed=2, final_grad_check=True)
    assert report.grad_check_error is not None
    assert report.grad_check_error < 1e-4
    model2 = init_model(hyper, seed=1)
    _, report2 = train(model2, toy_dataset(), seed=2)
    assert report2.grad_check_error is None


def test_best_validation_epoch_retained():
    hyper = TrainingConfig(**{**SMALL.__dict__, "dropout": 0.0, "epochs": 40})
    model = init_model(hyper, seed=1)
    train_ds = toy_dataset(n=16, seed=0)
    val_ds = toy_dataset(n=8, seed=1)
    model, report = train(model, train_ds, seed=2, val_ds=val_ds)
    assert len(report.val_losses) == 40
    assert report.best_epoch == int(np.argmin(report.val_losses))


def test_train_returns_the_best_epochs_parameters_not_the_last():
    # the best validation epoch is neither the first nor the last, and the
    # returned parameters are those of a run stopped after that epoch
    hyper = TrainingConfig(**{**SMALL.__dict__, "dropout": 0.0, "epochs": 20})
    train_ds, val_ds = toy_dataset(n=16, seed=0), toy_dataset(n=8, seed=10)
    model, report = train(init_model(hyper, seed=1), train_ds, seed=2, val_ds=val_ds)
    best = report.best_epoch
    assert 0 < best < hyper.epochs - 1
    assert report.val_losses[best] < report.val_losses[-1]
    assert forecaster.evaluate_mse(model, val_ds) == report.val_losses[best]
    stopped = TrainingConfig(**{**hyper.__dict__, "epochs": best + 1})
    at_best, _ = train(init_model(stopped, seed=1), train_ds, seed=2, val_ds=val_ds)
    assert np.array_equal(model.theta, at_best.theta)


# ---------------------------------------------------------------------------
# forecast_horizon
# ---------------------------------------------------------------------------

from functools import lru_cache


@lru_cache(maxsize=None)
def trained_constant_model(lookback=24, lat=5.0):
    hyper = TrainingConfig(lookback_hours=lookback, conv_width=3, conv_channels=4,
                           hidden_size=8, dropout=0.0, epochs=150, batch_size=16,
                           learning_rate=5e-3)
    series = constant_series(T=3 * lookback, lat=lat)
    scaler = Scaler.fit([series])
    normed = scaler.transform_series(series)
    ds = make_windows([normed], lookback, 1)
    model = init_model(hyper, seed=1, scaler=scaler)
    model, _ = train(model, ds, seed=2)
    return model, series


def test_forecast_horizon_counts_and_bounds():
    model, series = trained_constant_model()
    histories = [constant_series(spine_id=s, T=30) for s in (0, 1, 4)]
    fc = forecast_horizon(model, histories, 120)
    assert fc.spine_ids() == [0, 1, 4]
    for sid in fc.spine_ids():
        preds = fc.per_spine[sid]
        assert preds.shape == (120,)
        assert np.isfinite(preds).all()
        assert (preds >= 0).all()


def test_forecast_single_step_equals_forward_on_last_window():
    model, series = trained_constant_model()
    fc = forecast_horizon(model, [series], 1)
    n = model.hyper.lookback_hours
    window = model.scaler.transform(series.data)[-n:]
    expected = max(model.scaler.invert_latency(forward(model, window)), 0.0)
    assert fc.per_spine[0][0] == pytest.approx(expected, abs=1e-12)


def test_forecast_constant_signal_within_5_percent():
    model, series = trained_constant_model(lat=5.0)
    fc = forecast_horizon(model, [series], 48)
    assert np.all(np.abs(fc.per_spine[0] - 5.0) <= 0.25)


def test_forecast_batch_matches_per_spine_calls():
    rng = np.random.default_rng(4)
    # 12 h = lookback and 20 h (< 24 h) run the last-value fallback first
    histories = [SwitchSeries(spine_id=sid, start_hour=0,
                              data=np.column_stack([rng.uniform(3.0, 9.0, T),
                                                    rng.uniform(1e9, 5e9, T),
                                                    rng.uniform(1e9, 5e9, T)]))
                 for sid, T in ((3, 20), (0, 50), (7, 12), (1, 31))]
    model = init_model(SMALL, seed=5, scaler=Scaler.fit(histories))
    fc = forecast_horizon(model, histories, 30)
    assert fc.spine_ids() == [0, 1, 3, 7]
    for series in histories:
        one = forecast_horizon(model, [series], 30).per_spine[series.spine_id]
        assert np.allclose(fc.per_spine[series.spine_id], one, rtol=0, atol=1e-12)
        assert np.allclose(one, oracle_forecast.per_spine_recursion(model, series, 30),
                           rtol=0, atol=1e-12)

    empty = forecast_horizon(model, [], 30)
    assert empty.horizon == 30 and empty.per_spine == {}


def test_forecast_insufficient_history():
    model, _ = trained_constant_model(lookback=24)
    short = constant_series(T=10)
    with pytest.raises(InsufficientHistoryError):
        forecast_horizon(model, [short], 5)


def test_forecast_reads_only_the_last_max_lookback_or_lag_hours():
    # diurnal speed channels, so the value 24 h back is not the last value
    rng = np.random.default_rng(8)
    histories = []
    for sid, T in ((0, 80), (1, 61)):
        day = np.sin(2 * np.pi * np.arange(T) / 24)
        histories.append(SwitchSeries(spine_id=sid, start_hour=0, data=np.column_stack([
            rng.uniform(3.0, 9.0, T),
            3e9 + 1e9 * day + rng.uniform(0, 1e8, T),
            3e9 - 1e9 * day + rng.uniform(0, 1e8, T)])))
    model = init_model(SMALL, seed=3, scaler=Scaler.fit(histories))
    want = forecast_horizon(model, histories, 30)
    read = max(SMALL.lookback_hours, forecaster.SEASONAL_LAG_HOURS)

    def differs(k):
        got = forecast_horizon(model, recent_history(histories, k), 30)
        return any(not np.array_equal(got.per_spine[s], want.per_spine[s]) for s in (0, 1))

    assert not any(differs(k) for k in range(read, 81))
    assert any(differs(k) for k in range(SMALL.lookback_hours, read))


# ---------------------------------------------------------------------------
# wavefront forecast against the per-hour loop (tests/oracle_forecast.py)
# ---------------------------------------------------------------------------

def random_histories(rng, lengths):
    return [SwitchSeries(spine_id=sid, start_hour=0,
                         data=np.column_stack([rng.uniform(3.0, 9.0, T), rng.uniform(1e9, 5e9, T),
                                               rng.uniform(1e9, 5e9, T)]))
            for sid, T in enumerate(lengths)]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), S=st.integers(1, 6), width=st.integers(1, 3),
       steps=st.integers(1, 30), hidden=st.sampled_from([1, 3, 8, 16]),
       channels=st.sampled_from([1, 2, 5]), seed=st.integers(0, 2 ** 32 - 1))
def test_wavefront_forecast_equals_per_hour_loop(data, S, width, steps, hidden, channels, seed):
    # steps = m, the LSTM steps per window: lookback = width + m - 1, down to
    # lookback == width; histories from the lookback (often < 24 h, the
    # last-value speed fallback) to past the seasonal lag; horizons from 1 to
    # past the lookback
    lookback = width + steps - 1
    lengths = data.draw(st.lists(st.integers(lookback, lookback + 40), min_size=S, max_size=S))
    horizon = data.draw(st.integers(1, lookback + 8))
    histories = random_histories(np.random.default_rng(seed), lengths)
    hyper = TrainingConfig(lookback_hours=lookback, conv_width=width, conv_channels=channels,
                           hidden_size=hidden, dropout=0.0, epochs=1, batch_size=8)
    model = init_model(hyper, seed=seed, scaler=Scaler.fit(histories))

    got = forecast_horizon(model, histories, horizon)
    want = oracle_forecast.forecast_horizon(model, histories, horizon)
    assert got.horizon == want.horizon and got.spine_ids() == want.spine_ids()
    for sid in want.spine_ids():
        if S >= 2 and steps >= 2:
            assert np.array_equal(got.per_spine[sid], want.per_spine[sid]), sid
        else:   # the per-hour loop's 1-row products took BLAS's matrix-vector path
            assert np.allclose(got.per_spine[sid], want.per_spine[sid], rtol=0, atol=1e-12)


@pytest.mark.parametrize("horizon", [25, 30, 47, 48, 49, 120])
def test_forecast_past_a_day_repeats_the_first_day(horizon):
    # hour 24 + i is hour i, bit for bit; histories shorter and longer than
    # the seasonal lag (hours 1-24 against the per-hour loop: the test above)
    histories = random_histories(np.random.default_rng(9), (12, 20, 30, 61))
    model = init_model(SMALL, seed=7, scaler=Scaler.fit(histories))
    day = forecast_horizon(model, histories, 24)
    got = forecast_horizon(model, histories, horizon)
    assert got.horizon == horizon and got.spine_ids() == day.spine_ids() == [0, 1, 2, 3]
    for sid in got.spine_ids():
        assert np.array_equal(got.per_spine[sid],
                              np.tile(day.per_spine[sid], 5)[:horizon]), sid


def outcome(fn, *args):
    """What a forecast call returns or raises, in comparable form."""
    try:
        fc = fn(*args)
    except Exception as exc:    # the exception is the outcome
        return type(exc), str(exc)
    return fc.horizon, {sid: fc.per_spine[sid].tolist() for sid in fc.spine_ids()}


@pytest.mark.parametrize("name", list(init_model(SMALL, seed=5).parameters()))
def test_forecast_names_the_non_finite_layer_as_forward_batch_does(name):
    histories = random_histories(np.random.default_rng(6), (30, 14, 40))
    model = init_model(SMALL, seed=5, scaler=Scaler.fit(histories))
    model.parameters()[name].reshape(-1)[-1] = np.nan
    message = f"non-finite activations in layer '{name.split('.')[0]}'"
    with pytest.raises(NumericError, match=message):
        forward_batch(model, np.zeros((2, SMALL.lookback_hours, 3)))
    got = outcome(forecast_horizon, model, histories, 7)
    assert got == outcome(oracle_forecast.forecast_horizon, model, histories, 7)
    assert got == (NumericError, message)


def test_forecast_names_conv_for_a_non_finite_scaled_history():
    # a scaler with a nan minimum passes its finite-input check but gives
    # nan inputs, which the conv layer reports first
    histories = random_histories(np.random.default_rng(6), (30, 14))
    model = init_model(SMALL, seed=5, scaler=Scaler.fit(histories))
    model.scaler.mins[2] = np.nan
    got = outcome(forecast_horizon, model, histories, 4)
    assert got == outcome(oracle_forecast.forecast_horizon, model, histories, 4)
    assert got == (NumericError, "non-finite activations in layer 'conv'")


def test_forecast_short_history_raises_before_any_compute(monkeypatch):
    histories = random_histories(np.random.default_rng(6), (30, 11, 40))
    model = init_model(SMALL, seed=5, scaler=Scaler.fit(histories))

    def no_compute(*args, **kwargs):
        raise AssertionError("computed before checking every history's length")

    monkeypatch.setattr(Scaler, "transform", no_compute)
    monkeypatch.setattr(forecaster, "conv1d_forward", no_compute)
    with pytest.raises(InsufficientHistoryError, match="spine 1: history 11 h < lookback 12 h"):
        forecast_horizon(model, histories, 5)


def test_forecast_argument_errors_and_empty_histories_match_the_loop():
    histories = random_histories(np.random.default_rng(6), (30, 14))
    model = init_model(SMALL, seed=5, scaler=Scaler.fit(histories))
    unscaled = init_model(SMALL, seed=5)
    cases = [(model, histories, 0), (model, histories, -3), (unscaled, histories, 5),
             (unscaled, histories, 0), (unscaled, [], 5), (model, [], 5), (model, [], 0)]
    for args in cases:
        assert outcome(forecast_horizon, *args) == outcome(oracle_forecast.forecast_horizon, *args)
    assert outcome(forecast_horizon, model, histories, 0)[0] is InvalidConfigError
    assert outcome(forecast_horizon, unscaled, histories, 5)[0] is DataError
    assert outcome(forecast_horizon, model, [], 5) == (5, {})


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_exact(tmp_path):
    model, _ = trained_constant_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert models_equal(loaded, model)


def test_checkpoint_roundtrip_without_scaler(tmp_path):
    model = init_model(SMALL, seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert models_equal(loaded, model)
    assert loaded.scaler is None


def test_checkpoint_save_is_stable_bytes(tmp_path):
    model = init_model(SMALL, seed=3)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, a)
    save_checkpoint(model, b)
    assert a.read_bytes() == b.read_bytes()


# init_model uses only PCG64 draws and repr'd floats, no BLAS, so its
# checkpoint bytes are the same on every machine; they pin the draw order
@pytest.mark.parametrize("hyper, seed, digest", [
    (TrainingConfig(lookback_hours=12, conv_width=3, conv_channels=4, hidden_size=12,
                    dropout=0.2), 3,
     "7449c4dc0bc8cb4ce765b8dc3e1bfb39a6e79774a4e44b0ce10f77db0c8dc0a8"),
    (TrainingConfig(lookback_hours=6, conv_width=1, conv_channels=2, hidden_size=5,
                    dropout=0.0), 11,
     "03047b617cdf8bc76e7cc1f2094c8989e2a58eb09192886fd68d1448c9bf73b6"),
    (TrainingConfig(), 7, "8cf0eb6eceff9e0d901f375bce5dd1a77efbb1b9688df6b7dd7016406c2b26c4"),
])
def test_init_model_checkpoint_bytes_are_pinned(tmp_path, hyper, seed, digest):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_model(hyper, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_parameter_shapes_lists_the_model_arrays_in_order():
    model = init_model(SMALL, seed=3)
    assert list(parameter_shapes(SMALL).items()) == \
        [(name, arr.shape) for name, arr in model.parameters().items()]


@pytest.mark.parametrize("source", ["init_model", "load_checkpoint", "deepcopy", "pickle"])
def test_every_parameter_is_a_contiguous_view_of_theta_in_table_order(tmp_path, source):
    model = init_model(SMALL, seed=3)
    if source == "load_checkpoint":
        save_checkpoint(model, tmp_path / "model.ckpt")
        model = load_checkpoint(tmp_path / "model.ckpt")
    elif source == "deepcopy":
        model = copy.deepcopy(model)
    elif source == "pickle":
        model = pickle.loads(pickle.dumps(model))
    params = model.parameters()
    assert list(params) == list(parameter_shapes(SMALL))
    assert sum(arr.size for arr in params.values()) == model.theta.size
    start = 0
    for name, arr in params.items():
        assert arr.flags.c_contiguous and np.shares_memory(arr, model.theta), name
        for k in (0, arr.size - 1):     # a write through reshape(-1) lands in theta, in order
            arr.reshape(-1)[k] = -(start + k + 1.5)
            assert model.theta[start + k] == -(start + k + 1.5), name
        start += arr.size
    # the arrays forward_batch reads are the same views
    held = {"conv.w": model.conv_w, "conv.b": model.conv_b,
            "dense.w": model.dense_w, "dense.b": model.dense_b}
    for prefix, layer in (("lstm1", model.layer1), ("lstm2", model.layer2)):
        held.update({f"{prefix}.{name}": getattr(layer, name) for name in layer.array_names()})
    assert held.keys() == params.keys()
    for name, arr in held.items():
        assert arr.flags.c_contiguous and np.shares_memory(arr, params[name]), name


def shrink_param(lines, name, shape):
    """Rewrite one param record to a smaller, self-consistent shape."""
    k = lines.index(next(ln for ln in lines if ln.startswith(f"param {name} ")))
    values = lines[k + 1].split()[:int(np.prod(shape))]
    return (lines[:k] + [f"param {name} " + " ".join(map(str, shape)), " ".join(values)]
            + lines[k + 2:])


def set_record(lines, key, value):
    return [f"{key} {value}" if ln.startswith(f"{key} ") else ln for ln in lines]


def set_hyper(lines, **fields):
    hyper = json.loads(next(ln for ln in lines if ln.startswith("hyper "))[len("hyper "):])
    return set_record(lines, "hyper", json.dumps({**hyper, **fields}, sort_keys=True))


def add_records(lines, *records):
    """Insert records after the dropout line (the model has no scaler)."""
    k = lines.index(next(ln for ln in lines if ln.startswith("dropout "))) + 1
    return lines[:k] + list(records) + lines[k:]


def param_record(lines, name):
    """The index of a param record's header line; its values are the next line."""
    return lines.index(next(ln for ln in lines if ln.startswith(f"param {name} ")))


def set_first_value(lines, name, value):
    k = param_record(lines, name) + 1
    return lines[:k] + [f"{value} " + lines[k].split(" ", 1)[1]] + lines[k + 1:]


def repeat_param(lines, name):
    k = param_record(lines, name)
    return lines[:k + 2] + lines[k:k + 2] + lines[k + 2:]


# a checkpoint of init_model(SMALL, seed=3), malformed in one record each
MALFORMED_RECORDS = [
    lambda lines: set_record(lines, "hyper", "{not json"),
    lambda lines: set_record(lines, "hyper", "[1, 2]"),
    lambda lines: set_hyper(lines, bogus=1),
    lambda lines: set_hyper(lines, lookback_hours=0),                  # fails validate()
    lambda lines: set_hyper(lines, hidden_size=99),                    # arrays are hidden 12
    lambda lines: set_hyper(lines, conv_width=4),                      # conv.w is width 3
    lambda lines: set_record(lines, "dropout", "0.5"),                 # hyper says 0.2
    lambda lines: set_record(lines, "dropout", "high"),
    lambda lines: add_records(lines, "scaler_min 0.0 x 1.0", "scaler_max 1.0 1.0 1.0"),
    lambda lines: add_records(lines, "scaler_min 0.0 0.0 0.0"),        # no scaler_max
    lambda lines: add_records(lines, "scaler_min 0.0 0.0", "scaler_max 1.0 1.0"),
    lambda lines: [ln.replace("param dense.b 1", "param dense.b 1.0") for ln in lines],
    lambda lines: set_first_value(lines, "dense.w", "nan"),             # non-finite weight
    lambda lines: add_records(lines, "scaler_min 0.0 0.0 0.0", "scaler_max inf 1.0 1.0"),
    lambda lines: repeat_param(lines, "dense.w"),                      # one array given twice
    lambda lines: set_hyper(lines, horizon_steps=2),                   # fails validate()
]


@pytest.mark.parametrize("mutate", [
    lambda lines: ["garbage"] + lines[1:],                  # bad magic
    lambda lines: lines[:-2],                               # missing end / param data
    lambda lines: [ln for ln in lines if not ln.startswith("param dense.b")],
    lambda lines: shrink_param(lines, "lstm2.u_f", (4, 3)),    # loads, wrong shape
    lambda lines: shrink_param(lines, "dense.w", (5, 1)),      # does not fit lstm2's hidden 12
    lambda lines: functools.reduce(                            # lstm2 input 11 != lstm1 hidden 12
        lambda ls, gate: shrink_param(ls, f"lstm2.w_{gate}", (11, 12)), "ifgo", lines),
    *MALFORMED_RECORDS,
])
def test_checkpoint_corruption_detected(tmp_path, mutate):
    model = init_model(SMALL, seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    lines = path.read_text().splitlines()
    bad = tmp_path / "bad.ckpt"
    mutated = mutate(lines)
    if mutated == lines:  # param line filter drops data line too
        mutated = lines
    bad.write_text("\n".join(mutated) + "\n")
    with pytest.raises(DecodeError):
        load_checkpoint(bad)


def swap_dense_records(text):
    lines = text.splitlines(keepends=True)
    k = param_record(lines, "dense.w")
    return "".join(lines[:k] + lines[k + 2:k + 4] + lines[k:k + 2] + lines[k + 4:])


def pad_first_weight(text):
    """conv.w's first value written with a trailing 0: the same float, but
    not its repr."""
    lines = text.splitlines(keepends=True)
    k = param_record(lines, "conv.w") + 1
    first, rest = lines[k].split(" ", 1)
    assert "." in first and "e" not in first
    return "".join(lines[:k] + [f"{first}0 {rest}"] + lines[k + 1:])


# files no saver writes, each of which loaded before the loader re-encoded
@pytest.mark.parametrize("mutate", [
    lambda text: text.replace("\n", "\r\n"),
    lambda text: text + "end\n",                  # a line after "end"
    lambda text: text[:-1],                        # no final newline
    pad_first_weight,
    swap_dense_records,
], ids=["crlf", "line-after-end", "no-final-newline", "weight-not-repr", "dense-swapped"])
def test_checkpoint_that_does_not_reencode_to_its_bytes_is_refused(tmp_path, mutate):
    model = init_model(SMALL, seed=3, scaler=Scaler(np.zeros(3), np.array([10.0, 5.0, 2.0])))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(mutate(path.read_bytes().decode()).encode())
    assert bad.read_bytes() != path.read_bytes()
    with pytest.raises(DecodeError, match=re.escape(str(bad))):
        load_checkpoint(bad)


TINY = TrainingConfig(lookback_hours=2, conv_width=1, conv_channels=1, hidden_size=1,
                      dropout=0.0)


def test_every_proper_prefix_of_a_checkpoint_is_refused(tmp_path):
    model = init_model(TINY, seed=5, scaler=Scaler(np.zeros(3), np.array([10.0, 5.0, 2.0])))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    data = path.read_bytes()
    assert models_equal(load_checkpoint(path), model)
    cut = tmp_path / "cut.ckpt"
    for k in range(len(data)):
        cut.write_bytes(data[:k])
        with pytest.raises(DecodeError):
            load_checkpoint(cut)


# ---------------------------------------------------------------------------
# forecast CSV + digest
# ---------------------------------------------------------------------------

def test_forecast_csv_roundtrip(tmp_path):
    fc = Forecast(horizon=3, per_spine={0: np.array([3.1, 3.2, 3.3]),
                                        4: np.array([5.950000000001, 6.0, 7e-12])})
    path = tmp_path / "forecast.csv"
    save_forecast_csv(fc, path)
    loaded = load_forecast_csv(path)
    assert loaded.horizon == 3
    assert loaded.spine_ids() == [0, 4]
    for sid in (0, 4):
        assert np.array_equal(loaded.per_spine[sid], fc.per_spine[sid])


def test_failed_forecast_save_leaves_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "forecast.csv"
    save_forecast_csv(Forecast(horizon=2, per_spine={0: np.array([3.0, 4.0]),
                                                     1: np.array([5.0, 10.987654321])}), path)
    before = path.read_bytes()

    def half_write(self, data, *args, **kwargs):
        with self.open("w", encoding="utf-8") as fh:
            fh.write(data[:len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", half_write)
    with pytest.raises(OSError, match="disk full"):
        save_forecast_csv(Forecast(horizon=3, per_spine={2: np.array([6.0, 7.0, 8.0])}), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["forecast.csv"]


def test_forecast_csv_empty(tmp_path):
    path = tmp_path / "forecast.csv"
    save_forecast_csv(Forecast(horizon=0, per_spine={}), path)
    assert path.read_text() == "hour,spine_id,predicted_latency_us\n"
    loaded = load_forecast_csv(path)
    assert loaded.per_spine == {}


def test_forecast_csv_malformed(tmp_path):
    path = tmp_path / "forecast.csv"
    path.write_text("hour,spine_id,predicted_latency_us\n1,0,3.0\n3,0,4.0\n")
    with pytest.raises(DecodeError):
        load_forecast_csv(path)
    path.write_text("wrong,header\n")
    with pytest.raises(DecodeError):
        load_forecast_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_forecast_of_a_non_finite_latency_is_refused_naming_its_line(tmp_path, value):
    path = tmp_path / "forecast.csv"
    path.write_text(f"hour,spine_id,predicted_latency_us\n1,0,3.0\n2,0,{value}\n")
    with pytest.raises(DecodeError, match=rf"{re.escape(str(path))}: line 3: '{value}'"):
        load_forecast_csv(path)


TWO_SPINES = ("hour,spine_id,predicted_latency_us\n"
              "1,0,3.1\n2,0,4.0\n1,1,5.0\n2,1,10.987654321\n")


@pytest.mark.parametrize("text", [
    TWO_SPINES.replace("1,1,", "\n1,1,"),                                   # a blank line
    "hour,spine_id,predicted_latency_us\n1,0,3.1\n1,1,5.0\n2,0,4.0\n2,1,10.987654321\n",
    "hour,spine_id,predicted_latency_us\n1,1,5.0\n2,1,10.987654321\n1,0,3.1\n2,0,4.0\n",
    TWO_SPINES.replace("3.1", "3.10"),
    TWO_SPINES.replace("\n", "\r\n"),
], ids=["blank-line", "interleaved", "spines-out-of-order", "float-not-repr", "crlf"])
def test_forecast_that_does_not_reencode_to_its_bytes_is_refused(tmp_path, text):
    path = tmp_path / "forecast.csv"
    save_forecast_csv(Forecast(horizon=2, per_spine={0: np.array([3.1, 4.0]),
                                                     1: np.array([5.0, 10.987654321])}), path)
    assert path.read_text() == TWO_SPINES
    assert load_forecast_csv(path).horizon == 2
    path.write_bytes(text.encode())
    with pytest.raises(DecodeError, match=re.escape(str(path))):
        load_forecast_csv(path)


def test_a_forecast_prefix_loads_only_as_the_forecast_of_its_whole_lines(tmp_path):
    """The file has no trailer, so a cut at a line end that leaves the
    spines on equal horizons still loads; no cut number ever does."""
    data = TWO_SPINES.encode()
    path = tmp_path / "forecast.csv"
    loaded_at = []
    for k in range(len(data) + 1):
        path.write_bytes(data[:k])
        try:
            forecast = load_forecast_csv(path)
        except DecodeError:
            continue
        loaded_at.append(k)
        assert data[:k].endswith(b"\n")
        rows: dict[int, list[float]] = {}
        for line in data[:k].decode().splitlines()[1:]:
            _, sid, value = line.split(",")
            rows.setdefault(int(sid), []).append(float(value))
        assert forecast.per_spine.keys() == rows.keys()
        for sid, values in rows.items():
            assert forecast.per_spine[sid].tolist() == values
            assert forecast.horizon == len(values)
    line_ends = [k + 1 for k, byte in enumerate(data) if byte == ord("\n")]
    # every whole-line cut but the one after "1,1,5.0", where the horizons differ
    assert loaded_at == line_ends[:3] + line_ends[4:]


def test_digest_sensitive_to_content():
    a = Forecast(horizon=2, per_spine={0: np.array([1.0, 2.0])})
    b = Forecast(horizon=2, per_spine={0: np.array([1.0, 2.0000001])})
    assert digest_forecast(a) == digest_forecast(a)
    assert digest_forecast(a) != digest_forecast(b)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_persistence_baseline_reads_last_value():
    ds = toy_dataset(n=5, lookback=30, seed=8)
    assert np.array_equal(persistence_predictions(ds), ds.inputs[:, -1, 0])


def test_seasonal_naive_reads_period_before_target():
    # lookback 30, horizon 1: target is at step 30; 24 earlier is step 6
    ds = toy_dataset(n=5, lookback=30, seed=8)
    assert np.array_equal(seasonal_naive_predictions(ds), ds.inputs[:, 6, 0])


def test_seasonal_naive_requires_long_lookback():
    ds = toy_dataset(n=5, lookback=12, seed=8)
    from spinescale.errors import InsufficientDataError
    with pytest.raises(InsufficientDataError):
        seasonal_naive_predictions(ds)


def test_seasonal_naive_perfect_on_periodic_signal():
    t = np.arange(200, dtype=float)
    wave = np.sin(2 * np.pi * t / 24.0)
    series = SwitchSeries(spine_id=0, start_hour=0,
                          data=np.column_stack([wave, np.zeros(200), np.zeros(200)]))
    ds = make_windows([series], lookback=48, horizon=1)
    preds = seasonal_naive_predictions(ds)
    assert mse(preds, ds.targets) < 1e-25


# ---------------------------------------------------------------------------
# time-major LSTM layer against the batch-major oracle, through the model
# ---------------------------------------------------------------------------

def test_train_and_forecast_bit_identical_to_batch_major_layer(monkeypatch):
    # 2 epochs with dropout and a validation set, then forecasts of several
    # spines and of one (batch 1): every parameter, loss and forecast value
    # must be the same bits whichever layer implementation runs
    rng = np.random.default_rng(11)
    histories = [SwitchSeries(spine_id=sid, start_hour=0,
                              data=np.column_stack([rng.uniform(3.0, 9.0, T),
                                                    rng.uniform(1e9, 5e9, T),
                                                    rng.uniform(1e9, 5e9, T)]))
                 for sid, T in ((0, 64), (2, 56), (5, 52))]
    train_series, val_series = split_train_val(histories, 0.25)
    scaler = Scaler.fit(train_series)
    train_ds, val_ds = (make_windows([scaler.transform_series(s) for s in part], 12, 1)
                        for part in (train_series, val_series))
    assert len(val_ds) > 0
    hyper = TrainingConfig(**{**SMALL.__dict__, "epochs": 2, "dropout": 0.2})

    def run():
        model = init_model(hyper, seed=3, scaler=scaler)
        model, report = train(model, train_ds, seed=4, val_ds=val_ds)
        return (model, report, forecast_horizon(model, histories, 30),
                forecast_horizon(model, histories[:1], 30))

    model, report, fc_all, fc_one = run()
    monkeypatch.setattr(forecaster, "lstm_layer_forward", oracle_lstm.lstm_layer_forward)
    monkeypatch.setattr(forecaster, "lstm_layer_backward", oracle_lstm.lstm_layer_backward)
    ref_model, ref_report, ref_all, ref_one = run()
    # forecast_horizon steps its own wavefront and no longer calls the layer,
    # so the per-hour loop on the batch-major layer is its reference
    ref_loop = oracle_forecast.forecast_horizon(ref_model, histories, 30)

    params, ref_params = model.parameters(), ref_model.parameters()
    assert params.keys() == ref_params.keys()
    for name in params:
        assert np.array_equal(params[name], ref_params[name]), name
    assert np.array_equal(report.train_losses, ref_report.train_losses)
    assert np.array_equal(report.val_losses, ref_report.val_losses)
    assert len(report.val_losses) == 2 and report.best_epoch == ref_report.best_epoch
    for got, want in ((fc_all, ref_all), (fc_one, ref_one), (fc_all, ref_loop)):
        assert got.spine_ids() == want.spine_ids()
        for sid in got.spine_ids():
            assert np.array_equal(got.per_spine[sid], want.per_spine[sid])
