"""Conv + stacked-LSTM latency forecaster, trained from scratch.

Architecture (one normalized [lookback, 3] window in, one scalar out):

    1-D conv (valid, linear) -> LSTM layer 1 -> dropout -> LSTM layer 2
    -> dense head on the final hidden state -> normalized latency

Training minimizes MSE on normalized latency with Adam and full
backpropagation through time; all arithmetic is float64 so gradient
checks against central differences are meaningful at 1e-4.

Multi-step forecasts are recursive: each predicted latency is appended to
the latency channel, while the speed channels are extended seasonal-naively
(the value from 24 hours earlier).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import TrainingConfig, derive_seed
from .errors import (DataError, DecodeError, InsufficientDataError, InsufficientHistoryError,
                     InvalidConfigError, NumericError, ShapeError, TrainingDivergedError)
from .nn import (Adam, LstmCellParams, conv1d_backward, conv1d_forward, dropout_mask,
                 lstm_layer_backward, lstm_layer_forward)
from .windows import N_CHANNELS, Scaler, SwitchSeries, WindowedDataset

SEASONAL_LAG_HOURS = 24

__all__ = [
    "LstmModel", "TrainReport", "Forecast", "init_model", "forward", "train",
    "gradient_check", "forecast_horizon", "save_checkpoint", "load_checkpoint",
    "models_equal", "save_forecast_csv", "load_forecast_csv", "digest_forecast",
]


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------

@dataclass
class LstmModel:
    conv_w: np.ndarray            # [width, 3, conv_channels]
    conv_b: np.ndarray            # [conv_channels]
    layer1: LstmCellParams        # conv_channels -> hidden
    layer2: LstmCellParams        # hidden -> hidden
    dense_w: np.ndarray           # [hidden, 1]
    dense_b: np.ndarray           # [1]
    dropout: float
    scaler: Scaler | None
    hyper: TrainingConfig

    def parameters(self) -> dict[str, np.ndarray]:
        """All trainable arrays under canonical names, stable order."""
        out = {"conv.w": self.conv_w, "conv.b": self.conv_b}
        for prefix, layer in (("lstm1", self.layer1), ("lstm2", self.layer2)):
            for name in layer.array_names():
                out[f"{prefix}.{name}"] = getattr(layer, name)
        out["dense.w"] = self.dense_w
        out["dense.b"] = self.dense_b
        return out


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = 0
    grad_check_error: float | None = None


@dataclass
class Forecast:
    """Per-spine hourly latency predictions, de-normalized to microseconds."""
    horizon: int
    per_spine: dict[int, np.ndarray]

    def spine_ids(self) -> list[int]:
        return sorted(self.per_spine)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _init_lstm(rng: np.random.Generator, input_size: int, hidden: int) -> LstmCellParams:
    def w() -> np.ndarray:
        return _xavier(rng, input_size, hidden, (input_size, hidden))

    def u() -> np.ndarray:
        return _xavier(rng, hidden, hidden, (hidden, hidden))

    # forget-gate bias starts at 1 so early memory is retained
    return LstmCellParams(
        w_i=w(), u_i=u(), b_i=np.zeros(hidden),
        w_f=w(), u_f=u(), b_f=np.ones(hidden),
        w_g=w(), u_g=u(), b_g=np.zeros(hidden),
        w_o=w(), u_o=u(), b_o=np.zeros(hidden),
    )


def init_model(hyper: TrainingConfig, seed: int, scaler: Scaler | None = None) -> LstmModel:
    """Fresh model with Xavier-uniform weights, deterministic per seed."""
    hyper.validate()
    if hyper.lookback_hours < hyper.conv_width:
        raise InvalidConfigError(
            f"lookback_hours={hyper.lookback_hours} < conv_width={hyper.conv_width}")
    rng = np.random.default_rng(derive_seed(seed, "model-init"))
    width, c_out, hidden = hyper.conv_width, hyper.conv_channels, hyper.hidden_size
    return LstmModel(
        conv_w=_xavier(rng, width * N_CHANNELS, c_out, (width, N_CHANNELS, c_out)),
        conv_b=np.zeros(c_out),
        layer1=_init_lstm(rng, c_out, hidden),
        layer2=_init_lstm(rng, hidden, hidden),
        dense_w=_xavier(rng, hidden, 1, (hidden, 1)),
        dense_b=np.zeros(1),
        dropout=hyper.dropout,
        scaler=scaler,
        hyper=hyper,
    )


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _check_finite(arr: np.ndarray, layer: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite activations in layer '{layer}'")


def forward_batch(model: LstmModel, windows: np.ndarray, train_mode: bool = False,
                  rng: np.random.Generator | None = None) -> tuple[np.ndarray, dict]:
    """Predictions [B] plus the cache backward_batch needs."""
    if windows.ndim != 3 or windows.shape[2] != N_CHANNELS:
        raise ShapeError(f"expected [B, lookback, {N_CHANNELS}] windows, got {windows.shape}")
    conv_out = conv1d_forward(windows, model.conv_w, model.conv_b)
    _check_finite(conv_out, "conv")
    hs1, cache1 = lstm_layer_forward(conv_out, model.layer1)
    _check_finite(hs1, "lstm1")
    if train_mode and model.dropout > 0.0:
        if rng is None:
            raise ValueError("train_mode with dropout > 0 requires an rng")
        mask = dropout_mask(hs1.shape, model.dropout, rng)
    else:
        mask = None
    dropped = hs1 if mask is None else hs1 * mask
    hs2, cache2 = lstm_layer_forward(dropped, model.layer2)
    _check_finite(hs2, "lstm2")
    h_last = hs2[:, -1]
    preds = (h_last @ model.dense_w + model.dense_b).ravel()
    _check_finite(preds, "dense")
    cache = {"windows": windows, "conv_out": conv_out, "cache1": cache1,
             "mask": mask, "cache2": cache2, "h_last": h_last}
    return preds, cache


def backward_batch(model: LstmModel, cache: dict, d_preds: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient of the loss w.r.t. every parameter, given dL/dpredictions."""
    d_col = d_preds[:, None]
    h_last = cache["h_last"]
    grads: dict[str, np.ndarray] = {
        "dense.w": h_last.T @ d_col,
        "dense.b": d_col.sum(axis=0),
    }
    d_h_last = d_col @ model.dense_w.T

    hs2_shape = cache["cache2"]["h"].shape
    d_hs2 = np.zeros(hs2_shape)
    d_hs2[:, -1] = d_h_last
    d_dropped, grads2 = lstm_layer_backward(d_hs2, cache["cache2"], model.layer2)
    for name, g in grads2.items():
        grads[f"lstm2.{name}"] = g

    d_hs1 = d_dropped if cache["mask"] is None else d_dropped * cache["mask"]
    d_conv_out, grads1 = lstm_layer_backward(d_hs1, cache["cache1"], model.layer1)
    for name, g in grads1.items():
        grads[f"lstm1.{name}"] = g

    _, d_kernel, d_bias = conv1d_backward(d_conv_out, cache["windows"], model.conv_w)
    grads["conv.w"] = d_kernel
    grads["conv.b"] = d_bias
    return grads


def forward(model: LstmModel, window: np.ndarray, train_mode: bool = False,
            rng: np.random.Generator | None = None) -> float:
    """Normalized latency prediction for one [lookback, 3] window.

    Deterministic when train_mode is False (dropout inactive).
    """
    if window.ndim != 2:
        raise ShapeError(f"expected a single [lookback, {N_CHANNELS}] window, got {window.shape}")
    preds, _ = forward_batch(model, window[None], train_mode=train_mode, rng=rng)
    return float(preds[0])


def mse_loss(preds: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. the predictions."""
    diff = preds - targets
    return float(np.mean(diff * diff)), 2.0 * diff / len(diff)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def evaluate_mse(model: LstmModel, dataset: WindowedDataset, batch_size: int = 256) -> float:
    """Eval-mode MSE over a dataset, fixed reduction order."""
    total = 0.0
    for start in range(0, len(dataset), batch_size):
        chunk = slice(start, start + batch_size)
        preds, _ = forward_batch(model, dataset.inputs[chunk])
        diff = preds - dataset.targets[chunk]
        total += float(np.sum(diff * diff))
    return total / len(dataset)


def train(model: LstmModel, train_ds: WindowedDataset, seed: int,
          val_ds: WindowedDataset | None = None,
          hyper: TrainingConfig | None = None,
          final_grad_check: bool = False) -> tuple[LstmModel, TrainReport]:
    """Adam + BPTT on MSE over normalized latency targets.

    Deterministic for a fixed (datasets, hyper, seed). The parameters from
    the best-validation epoch (best-train if no val set) are restored into
    the returned model. With final_grad_check the report carries a
    finite-difference verification of the trained model's gradients.
    """
    hyper = hyper or model.hyper
    if len(train_ds) == 0:
        raise InsufficientDataError("training dataset is empty")
    params = model.parameters()
    optimizer = Adam(params, lr=hyper.learning_rate)
    shuffle_rng = np.random.default_rng(derive_seed(seed, "shuffle"))
    dropout_rng = np.random.default_rng(derive_seed(seed, "dropout"))

    report = TrainReport()
    best_loss = math.inf
    best_params = {k: v.copy() for k, v in params.items()}
    n = len(train_ds)
    for epoch in range(hyper.epochs):
        order = shuffle_rng.permutation(n)
        sq_sum = 0.0
        try:
            for start in range(0, n, hyper.batch_size):
                idx = order[start:start + hyper.batch_size]
                preds, cache = forward_batch(model, train_ds.inputs[idx],
                                             train_mode=True, rng=dropout_rng)
                loss, d_preds = mse_loss(preds, train_ds.targets[idx])
                sq_sum += loss * len(idx)
                grads = backward_batch(model, cache, d_preds)
                optimizer.step(grads)
        except NumericError as exc:
            raise TrainingDivergedError(f"training diverged at epoch {epoch}: {exc}") from exc
        train_loss = sq_sum / n
        if not math.isfinite(train_loss):
            raise TrainingDivergedError(f"training diverged at epoch {epoch}: loss={train_loss}")
        report.train_losses.append(train_loss)

        if val_ds is not None and len(val_ds) > 0:
            val_loss = evaluate_mse(model, val_ds)
            report.val_losses.append(val_loss)
            select = val_loss
        else:
            select = train_loss
        if select < best_loss:
            best_loss = select
            report.best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}

    for name, arr in params.items():
        arr[...] = best_params[name]
    if final_grad_check:
        k = min(len(train_ds), 4)
        report.grad_check_error = gradient_check(
            model, train_ds.inputs[:k], train_ds.targets[:k], num_params=60,
            seed=derive_seed(seed, "grad-check"))
    return model, report


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def gradient_check(model: LstmModel, inputs: np.ndarray, targets: np.ndarray,
                   eps: float = 1e-5, num_params: int = 120, seed: int = 0,
                   grads: dict[str, np.ndarray] | None = None) -> float:
    """Max relative error of analytic gradients vs central differences.

    Samples at least `num_params` parameters with every array represented
    (so all layers are covered); dropout is off. `grads` lets a caller
    supply (possibly fault-injected) analytic gradients.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise InvalidConfigError(f"eps must be in [1e-7, 1e-3], got {eps}")
    if grads is None:
        preds, cache = forward_batch(model, inputs)
        _, d_preds = mse_loss(preds, targets)
        grads = backward_batch(model, cache, d_preds)

    def loss_at() -> float:
        preds, _ = forward_batch(model, inputs)
        return mse_loss(preds, targets)[0]

    params = model.parameters()
    rng = np.random.default_rng(seed)
    per_array = max(2, math.ceil(num_params / len(params)))
    max_rel = 0.0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        k = min(flat.size, per_array)
        for idx in rng.choice(flat.size, size=k, replace=False):
            original = flat[idx]
            flat[idx] = original + eps
            j_plus = loss_at()
            flat[idx] = original - eps
            j_minus = loss_at()
            flat[idx] = original
            numeric = (j_plus - j_minus) / (2.0 * eps)
            analytic = float(grads[name].reshape(-1)[idx])
            rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel


# ---------------------------------------------------------------------------
# Recursive multi-step forecasting
# ---------------------------------------------------------------------------

def forecast_horizon(model: LstmModel, histories: list[SwitchSeries], horizon: int) -> Forecast:
    """Hourly latency forecast per spine over `horizon` hours.

    Predicted latency feeds the next window's latency channel; the speed
    channels repeat their value from SEASONAL_LAG_HOURS earlier (last value
    if the series is still shorter than the lag). Output is de-normalized
    and clamped at zero.
    """
    if horizon < 1:
        raise InvalidConfigError(f"horizon must be >= 1, got {horizon}")
    if model.scaler is None:
        raise DataError("model has no scaler attached; cannot forecast raw history")
    n = model.hyper.lookback_hours
    per_spine: dict[int, np.ndarray] = {}
    for series in histories:
        if len(series) < n:
            raise InsufficientHistoryError(
                f"spine {series.spine_id}: history {len(series)} h < lookback {n} h")
        norm = model.scaler.transform(series.channels())
        lat = list(norm[:, 0])
        fab = list(norm[:, 1])
        edg = list(norm[:, 2])
        preds_norm = np.empty(horizon)
        for step in range(horizon):
            window = np.stack([lat[-n:], fab[-n:], edg[-n:]], axis=1)
            y = forward(model, window)
            preds_norm[step] = y
            lat.append(y)
            fab.append(fab[-SEASONAL_LAG_HOURS] if len(fab) >= SEASONAL_LAG_HOURS else fab[-1])
            edg.append(edg[-SEASONAL_LAG_HOURS] if len(edg) >= SEASONAL_LAG_HOURS else edg[-1])
        preds_us = np.maximum(model.scaler.invert_latency(preds_norm), 0.0)
        per_spine[series.spine_id] = preds_us
    return Forecast(horizon=horizon, per_spine=per_spine)


# ---------------------------------------------------------------------------
# Forecast file (CSV artifact shared with the CLI)
# ---------------------------------------------------------------------------

FORECAST_HEADER = "hour,spine_id,predicted_latency_us"


def save_forecast_csv(forecast: Forecast, path: str | Path) -> None:
    """hour,spine_id,predicted_latency_us; horizon rows per spine, spine-major.

    Floats use repr so the file round-trips bit-exactly.
    """
    lines = [FORECAST_HEADER]
    for sid in forecast.spine_ids():
        for hour, value in enumerate(forecast.per_spine[sid], start=1):
            lines.append(f"{hour},{sid},{float(value)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_forecast_csv(path: str | Path) -> Forecast:
    path = Path(path)
    if not path.exists():
        raise DecodeError(f"forecast file not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != FORECAST_HEADER:
        raise DecodeError(f"forecast file {path}: bad or missing header")
    per_spine: dict[int, list[float]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DecodeError(f"forecast file {path}: line {lineno} has {len(parts)} fields")
        try:
            hour, sid, value = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DecodeError(f"forecast file {path}: line {lineno}: {exc}") from exc
        rows = per_spine.setdefault(sid, [])
        if hour != len(rows) + 1:
            raise DecodeError(f"forecast file {path}: line {lineno}: expected hour "
                              f"{len(rows) + 1} for spine {sid}, got {hour}")
        rows.append(value)
    if not per_spine:
        return Forecast(horizon=0, per_spine={})
    horizons = {len(rows) for rows in per_spine.values()}
    if len(horizons) != 1:
        raise DecodeError(f"forecast file {path}: spines disagree on horizon: {sorted(horizons)}")
    return Forecast(horizon=horizons.pop(),
                    per_spine={sid: np.asarray(rows) for sid, rows in per_spine.items()})


def digest_forecast(forecast: Forecast) -> str:
    """Short stable digest of a forecast's content, for journal entries."""
    h = hashlib.sha256()
    for sid in forecast.spine_ids():
        h.update(f"{sid}:".encode())
        h.update(" ".join(repr(float(v)) for v in forecast.per_spine[sid]).encode())
        h.update(b"\n")
    return h.hexdigest()[:12]


# ---------------------------------------------------------------------------
# Checkpoint (self-describing text, exact round-trip)
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "spinescale-checkpoint v1"


def save_checkpoint(model: LstmModel, path: str | Path) -> None:
    """Single text document: hyperparameters, scaler stats, then every
    weight array with explicit shape. Floats use repr, so load(save(m))
    reproduces m exactly."""
    lines = [_CKPT_MAGIC]
    lines.append("hyper " + json.dumps(dataclasses.asdict(model.hyper), sort_keys=True))
    lines.append(f"dropout {model.dropout!r}")
    if model.scaler is not None:
        lines.append("scaler_min " + " ".join(repr(float(v)) for v in model.scaler.mins))
        lines.append("scaler_max " + " ".join(repr(float(v)) for v in model.scaler.maxs))
    for name, arr in model.parameters().items():
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"param {name} {dims}")
        lines.append(" ".join(repr(float(v)) for v in arr.reshape(-1)))
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> LstmModel:
    path = Path(path)
    if not path.exists():
        raise DecodeError(f"checkpoint not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != _CKPT_MAGIC:
        raise DecodeError(f"checkpoint {path}: bad or missing magic line")

    hyper: TrainingConfig | None = None
    dropout: float | None = None
    scaler_min: np.ndarray | None = None
    scaler_max: np.ndarray | None = None
    arrays: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        line = lines[i]
        if line == "end":
            break
        if line.startswith("hyper "):
            hyper = TrainingConfig(**json.loads(line[len("hyper "):]))
        elif line.startswith("dropout "):
            dropout = float(line[len("dropout "):])
        elif line.startswith("scaler_min "):
            scaler_min = np.array([float(v) for v in line.split()[1:]])
        elif line.startswith("scaler_max "):
            scaler_max = np.array([float(v) for v in line.split()[1:]])
        elif line.startswith("param "):
            parts = line.split()
            name = parts[1]
            shape = tuple(int(d) for d in parts[2:])
            i += 1
            if i >= len(lines):
                raise DecodeError(f"checkpoint {path}: missing values for param {name}")
            values = np.array([float(v) for v in lines[i].split()])
            if values.size != int(np.prod(shape)):
                raise DecodeError(f"checkpoint {path}: param {name} has {values.size} values "
                                  f"for shape {shape}")
            arrays[name] = values.reshape(shape)
        else:
            raise DecodeError(f"checkpoint {path}: unrecognized line {i + 1}: {line!r}")
        i += 1
    else:
        raise DecodeError(f"checkpoint {path}: missing 'end' line")

    if hyper is None or dropout is None:
        raise DecodeError(f"checkpoint {path}: missing hyper or dropout record")
    expected = {"conv.w", "conv.b", "dense.w", "dense.b"}
    expected |= {f"lstm{n}.{f.name}" for n in (1, 2) for f in dataclasses.fields(LstmCellParams)}
    if set(arrays) != expected:
        raise DecodeError(f"checkpoint {path}: parameter set mismatch "
                          f"(missing {sorted(expected - set(arrays))}, "
                          f"unexpected {sorted(set(arrays) - expected)})")

    scaler = None
    if scaler_min is not None and scaler_max is not None:
        scaler = Scaler(mins=scaler_min, maxs=scaler_max)

    def layer(prefix: str) -> LstmCellParams:
        kwargs = {f.name: arrays[f"{prefix}.{f.name}"]
                  for f in dataclasses.fields(LstmCellParams)}
        return LstmCellParams(**kwargs)

    return LstmModel(conv_w=arrays["conv.w"], conv_b=arrays["conv.b"],
                     layer1=layer("lstm1"), layer2=layer("lstm2"),
                     dense_w=arrays["dense.w"], dense_b=arrays["dense.b"],
                     dropout=dropout, scaler=scaler, hyper=hyper)


def models_equal(a: LstmModel, b: LstmModel) -> bool:
    """Exact equality of parameters, scaler, dropout, and hyperparameters."""
    pa, pb = a.parameters(), b.parameters()
    if set(pa) != set(pb):
        return False
    if any(not np.array_equal(pa[k], pb[k]) for k in pa):
        return False
    if (a.scaler is None) != (b.scaler is None):
        return False
    if a.scaler is not None and b.scaler is not None:
        if not (np.array_equal(a.scaler.mins, b.scaler.mins)
                and np.array_equal(a.scaler.maxs, b.scaler.maxs)):
            return False
    return a.dropout == b.dropout and a.hyper == b.hyper
