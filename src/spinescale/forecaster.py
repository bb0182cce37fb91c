"""Conv + stacked-LSTM latency forecaster, trained from scratch.

Architecture (one normalized [lookback, 3] window in, one scalar out):

    1-D conv (valid, linear) -> LSTM layer 1 -> dropout -> LSTM layer 2
    -> dense head on the final hidden state -> normalized latency

Training minimizes MSE on normalized latency with Adam and full
backpropagation through time; all arithmetic is float64 so gradient
checks against central differences are meaningful at 1e-4.

Multi-step forecasts are recursive over one day: each predicted latency is
appended to the latency channel, while the speed channels are extended
seasonal-naively (the value from 24 hours earlier). Past the first day the
forecast repeats that day, as the speed channels do. `forecast_horizon` does
not call the model once per hour; it steps the day's windows through both
LSTM layers along one diagonal (wavefront) schedule, with the same result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import TrainingConfig, _build_section, derive_seed
from .errors import (DataError, DecodeError, InsufficientDataError, InsufficientHistoryError,
                     InvalidConfigError, NumericError, ShapeError, TrainingDivergedError)
from .nn import (Adam, LstmCellParams, _finish_step, _fuse_for_forward, conv1d_backward,
                 conv1d_forward, dropout_mask, lstm_layer_backward, lstm_layer_forward)
from .telemetry import write_atomic
from .windows import N_CHANNELS, SEASONAL_LAG_HOURS, Scaler, SwitchSeries, WindowedDataset

__all__ = [
    "LstmModel", "TrainReport", "Forecast", "parameter_shapes", "init_model", "forward", "train",
    "gradient_check", "forecast_horizon", "save_checkpoint", "load_checkpoint",
    "save_forecast_csv", "load_forecast_csv", "digest_forecast",
]


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------

@dataclass
class LstmModel:
    """Every trainable value lives in `theta`, in parameter_shapes(hyper) order.
    Each array below is a contiguous view of it, and so is its reshape(-1)."""
    theta: np.ndarray
    scaler: Scaler | None
    hyper: TrainingConfig
    conv_w: np.ndarray = field(init=False, repr=False)          # [width, 3, conv_channels]
    conv_b: np.ndarray = field(init=False, repr=False)          # [conv_channels]
    layer1: LstmCellParams = field(init=False, repr=False)      # conv_channels -> hidden
    layer2: LstmCellParams = field(init=False, repr=False)      # hidden -> hidden
    dense_w: np.ndarray = field(init=False, repr=False)         # [hidden, 1]
    dense_b: np.ndarray = field(init=False, repr=False)         # [1]

    def __post_init__(self) -> None:
        arrays = self.parameters()
        self.conv_w, self.conv_b = arrays["conv.w"], arrays["conv.b"]
        self.layer1, self.layer2 = (
            LstmCellParams(**{f.name: arrays[f"{prefix}.{f.name}"]
                              for f in dataclasses.fields(LstmCellParams)})
            for prefix in ("lstm1", "lstm2"))
        self.dense_w, self.dense_b = arrays["dense.w"], arrays["dense.b"]

    def __reduce__(self):       # a copy or unpickled model rebuilds its views of its theta
        return LstmModel, (self.theta, self.scaler, self.hyper)

    def parameters(self) -> dict[str, np.ndarray]:
        """All trainable arrays by name, in parameter_shapes order, as views of theta."""
        shapes = parameter_shapes(self.hyper)
        parts = np.split(self.theta, np.cumsum([math.prod(s) for s in shapes.values()])[:-1])
        return {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}


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


def parameter_shapes(hyper: TrainingConfig) -> dict[str, tuple[int, ...]]:
    """Every trainable array's name and shape, in parameters() order: the
    one statement of the model's layout, read by init_model and
    load_checkpoint."""
    width, c_out, hidden = hyper.conv_width, hyper.conv_channels, hyper.hidden_size
    shapes = {"conv.w": (width, N_CHANNELS, c_out), "conv.b": (c_out,)}
    for prefix, d_in in (("lstm1", c_out), ("lstm2", hidden)):
        for gate in "ifgo":
            shapes[f"{prefix}.w_{gate}"] = (d_in, hidden)
            shapes[f"{prefix}.u_{gate}"] = (hidden, hidden)
            shapes[f"{prefix}.b_{gate}"] = (hidden,)
    shapes["dense.w"] = (hidden, 1)
    shapes["dense.b"] = (1,)
    return shapes


def init_model(hyper: TrainingConfig, seed: int, scaler: Scaler | None = None) -> LstmModel:
    """Fresh model, deterministic per seed: Xavier-uniform weights drawn in
    parameters() order, zero biases except the forget gate's, which start
    at 1 so early memory is retained."""
    hyper.validate()
    hyper.validate_model()
    rng = np.random.default_rng(derive_seed(seed, "model-init"))
    model = LstmModel(np.empty(sum(map(math.prod, parameter_shapes(hyper).values()))),
                      scaler, hyper)
    for name, arr in model.parameters().items():
        if arr.ndim == 1:
            arr[...] = 1.0 if name.endswith(".b_f") else 0.0
        else:
            limit = math.sqrt(6.0 / (math.prod(arr.shape[:-1]) + arr.shape[-1]))
            arr[...] = rng.uniform(-limit, limit, size=arr.shape)
    return model


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _check_finite(arr: np.ndarray, layer: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite activations in layer '{layer}'")


def forward_batch(model: LstmModel, windows: np.ndarray, train_mode: bool = False,
                  rng: np.random.Generator | None = None) -> tuple[np.ndarray, dict]:
    """Predictions [B] plus the cache backward_batch needs."""
    cache: dict = {"windows": windows}
    return _forward(model, windows, train_mode, rng, cache), cache


def _forward(model: LstmModel, windows: np.ndarray, train_mode: bool,
             rng: np.random.Generator | None, cache: dict | None) -> np.ndarray:
    """Predictions [B], filling `cache`, if there is one, with what
    backward_batch needs; without one, layer 1's cache (its gates) is freed
    before layer 2 runs."""
    if windows.ndim != 3 or windows.shape[2] != N_CHANNELS:
        raise ShapeError(f"expected [B, lookback, {N_CHANNELS}] windows, got {windows.shape}")
    conv_out = conv1d_forward(windows, model.conv_w, model.conv_b)
    _check_finite(conv_out, "conv")
    hs1, cache1 = lstm_layer_forward(conv_out, model.layer1)
    _check_finite(hs1, "lstm1")
    if train_mode and model.hyper.dropout > 0.0:
        if rng is None:
            raise ValueError("train_mode with dropout > 0 requires an rng")
        mask = dropout_mask(hs1.shape, model.hyper.dropout, rng)
    else:
        mask = None
    if cache is not None:
        cache.update(conv_out=conv_out, cache1=cache1, mask=mask)
    del cache1
    dropped = hs1 if mask is None else hs1 * mask
    hs2, cache2 = lstm_layer_forward(dropped, model.layer2)
    _check_finite(hs2, "lstm2")
    h_last = hs2[:, -1]
    preds = (h_last @ model.dense_w + model.dense_b).ravel()
    _check_finite(preds, "dense")
    if cache is not None:
        cache.update(cache2=cache2, h_last=h_last)
    return preds


def backward_batch(model: LstmModel, cache: dict, d_preds: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient of the loss w.r.t. every parameter, given dL/dpredictions."""
    d_col = d_preds[:, None]
    h_last = cache["h_last"]
    grads: dict[str, np.ndarray] = {
        "dense.w": h_last.T @ d_col,
        "dense.b": d_col.sum(axis=0),
    }
    d_h_last = d_col @ model.dense_w.T

    d_hs2 = np.zeros((*cache["conv_out"].shape[:2], model.layer2.hidden_size))
    d_hs2[:, -1] = d_h_last
    d_dropped, grads2 = lstm_layer_backward(d_hs2, cache["cache2"], model.layer2)
    for name, g in grads2.items():
        grads[f"lstm2.{name}"] = g

    d_hs1 = d_dropped if cache["mask"] is None else d_dropped * cache["mask"]
    d_conv_out, grads1 = lstm_layer_backward(d_hs1, cache["cache1"], model.layer1)
    for name, g in grads1.items():
        grads[f"lstm1.{name}"] = g

    grads["conv.w"], grads["conv.b"] = conv1d_backward(d_conv_out, cache["windows"],
                                                         model.conv_w)
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
        diff = _forward(model, dataset.inputs[chunk], False, None, None) - dataset.targets[chunk]
        total += float(np.sum(diff * diff))
    return total / len(dataset)


def train(model: LstmModel, train_ds: WindowedDataset, seed: int,
          val_ds: WindowedDataset | None = None,
          final_grad_check: bool = False) -> tuple[LstmModel, TrainReport]:
    """Adam + BPTT on MSE over normalized latency targets.

    Deterministic for a fixed (datasets, model.hyper, seed). The parameters from
    the best-validation epoch (best-train if no val set) are restored into
    the returned model. With final_grad_check the report carries a
    finite-difference verification of the trained model's gradients.
    """
    hyper = model.hyper
    if len(train_ds) == 0:
        raise InsufficientDataError("training dataset is empty")
    names = list(parameter_shapes(hyper))
    optimizer = Adam(model.theta, lr=hyper.learning_rate)
    shuffle_rng = np.random.default_rng(derive_seed(seed, "shuffle"))
    dropout_rng = np.random.default_rng(derive_seed(seed, "dropout"))

    report = TrainReport()
    best_loss = math.inf
    best = model.theta.copy()
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
                optimizer.step(np.concatenate([grads[name].reshape(-1) for name in names]))
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
            best = model.theta.copy()

    model.theta[...] = best
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

def _diagonal(t: int, m: int, windows: int) -> tuple[int, int]:
    """First and last window w with 0 <= t - 2w < m: the windows whose step
    t - 2w a layer runs at wavefront tick t (empty when first > last)."""
    return max(0, (t - m + 2) // 2), min(windows - 1, t // 2)


def forecast_horizon(model: LstmModel, histories: list[SwitchSeries], horizon: int) -> Forecast:
    """Hourly latency forecast per spine over `horizon` hours.

    Predicted latency feeds the next window's latency channel; the speed
    channels repeat their value from SEASONAL_LAG_HOURS earlier (last value
    if the series is still shorter than the lag). Output is de-normalized
    and clamped at zero. Only the last max(lookback, SEASONAL_LAG_HOURS)
    hours of each history are read, so a longer history gives the same
    forecast bit for bit.

    The simulator's traffic has one period, the day, so only the first
    min(horizon, SEASONAL_LAG_HOURS) hours are predicted and hour
    SEASONAL_LAG_HOURS + i repeats hour i, as the speed channels do; past
    the day every input latency would be a prediction, and errors compound.
    Those hours are those of one eval-mode forward_batch call per hour,
    computed as one wavefront. Window w (predicting hour w) reads
    conv positions w .. w+m-1 (m LSTM steps), so each position's conv
    output and layer-1 input projection is computed once, position m + w
    as soon as window w's prediction is in. Layer 1 runs window w's step j
    at tick 2w + j and layer 2 at tick 2w + j + 1, so window w predicts at
    tick 2w + m, just before window w + 1's last step needs it. Each tick
    steps all its windows and spines with one matmul per layer, layer 2
    first, since both update per-window states in place. Products keep the
    per-hour operation order, and a BLAS row rounds the same in any product
    of two or more rows; with one spine or m = 1 the per-hour calls made
    1-row products (BLAS's matrix-vector path), so the last bits can differ.

    Each new conv column is checked for finiteness when it is computed, and
    window w's layer-1 then layer-2 states when it predicts, before its
    dense output: h = o * tanh(c) is never +-inf, and a NaN in a row stays
    NaN at every later step of that row, so a window's last states show
    whether any of its steps held a non-finite value, and the layer named
    is the one forward_batch would name.
    """
    if horizon < 1:
        raise InvalidConfigError(f"horizon must be >= 1, got {horizon}")
    if model.scaler is None:
        raise DataError("model has no scaler attached; cannot forecast raw history")
    n = model.hyper.lookback_hours
    if not histories:
        return Forecast(horizon=horizon, per_spine={})
    for series in histories:
        if len(series) < n:
            raise InsufficientHistoryError(
                f"spine {series.spine_id}: history {len(series)} h < lookback {n} h")
    # per spine: the last lookback hours, then the hours predicted, whose
    # speed channels never depend on the forecast and are filled in up front
    S = len(histories)
    day = min(horizon, SEASONAL_LAG_HOURS)     # hours predicted; later hours repeat them
    buf = np.empty((S, n + day, N_CHANNELS))
    for row, series in zip(buf, histories):
        norm = model.scaler.transform(series.data[-max(n, SEASONAL_LAG_HOURS):])
        speeds = list(norm[:, 1:])
        for _ in range(day):
            speeds.append(speeds[-SEASONAL_LAG_HOURS] if len(speeds) >= SEASONAL_LAG_HOURS
                          else speeds[-1])
        row[:n, 0] = norm[-n:, 0]
        row[:, 1:] = speeds[-(n + day):]

    width = model.conv_w.shape[0]
    m = n - width + 1
    W1, U1, b1, offset1, scale1 = _fuse_for_forward(model.layer1)
    W2, U2, b2, offset2, scale2 = _fuse_for_forward(model.layer2)
    # layer-1 input projection per conv position, time-major [position, S, 4H];
    # the first window's positions come from one conv call, as in forward_batch
    x1 = np.empty((m + day - 1, S, W1.shape[1]))
    conv_out = conv1d_forward(buf[:, :n], model.conv_w, model.conv_b)
    _check_finite(conv_out, "conv")
    np.matmul(conv_out, W1, out=x1[:m].transpose(1, 0, 2))
    x1[:m] += b1
    # per-window states, window-major: window w's spines are rows w*S .. w*S+S-1
    h1, c1 = np.zeros((2, day * S, model.layer1.hidden_size))
    h2, c2 = np.zeros((2, day * S, model.layer2.hidden_size))
    for t in range(2 * day + m - 1):
        # layer 2 first: it reads layer 1's outputs of tick t - 1
        lo, hi = _diagonal(t - 1, m, day)
        if lo <= hi:
            rows = slice(lo * S, (hi + 1) * S)
            z = h1[rows] @ W2
            z += b2
            z += h2[rows] @ U2
            _finish_step(z, c2[rows], offset2, scale2, c2[rows], h2[rows])
        if t >= m and (t - m) % 2 == 0:        # window w has run its last step
            w = (t - m) // 2
            window = slice(w * S, (w + 1) * S)
            _check_finite(h1[window], "lstm1")
            _check_finite(h2[window], "lstm2")
            preds = (h2[window] @ model.dense_w + model.dense_b).ravel()
            _check_finite(preds, "dense")
            buf[:, n + w, 0] = preds
            if w + 1 < day:                    # conv position m + w now has its input
                # as [S, 3] products: conv1d_forward on it would make 1-row ones
                col = buf[:, m + w] @ model.conv_w[0]
                col += model.conv_b                # b + p: IEEE addition commutes
                for dt in range(1, width):
                    col += buf[:, m + w + dt] @ model.conv_w[dt]
                _check_finite(col, "conv")
                np.matmul(col, W1, out=x1[m + w])
                x1[m + w] += b1
        lo, hi = _diagonal(t, m, day)
        if lo <= hi:
            rows = slice(lo * S, (hi + 1) * S)
            z = h1[rows] @ U1                  # h @ U + x: IEEE addition commutes
            z_windows = z.reshape(hi - lo + 1, S, -1)
            z_windows += x1[t - hi:t - lo + 1][::-1]    # window w is at position t - w
            _finish_step(z, c1[rows], offset1, scale1, c1[rows], h1[rows])
    return Forecast(horizon=horizon, per_spine={
        series.spine_id: np.resize(np.maximum(model.scaler.invert_latency(row[n:, 0]), 0.0),
                                   horizon)
        for series, row in zip(histories, buf)})


# ---------------------------------------------------------------------------
# Read-back artifacts: each loader reads what its saver writes, then refuses
# the file unless re-encoding what it read gives back the file's bytes
# ---------------------------------------------------------------------------

def _read_text(path: Path, what: str) -> str:
    """The file's bytes decoded as UTF-8, line ends untranslated; a missing
    or non-UTF-8 file is a DecodeError naming it."""
    try:
        return path.read_bytes().decode("utf-8")
    except FileNotFoundError as exc:
        raise DecodeError(f"{what} not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{what} {path} is not UTF-8: {exc}") from exc


def _require_reencodes(path: Path, what: str, text: str, saved: str) -> None:
    """DecodeError naming the path and the first line where `text`, the
    file, differs from `saved`, what the saver writes for what was read."""
    if text != saved:
        at = len(os.path.commonprefix([text, saved]))
        line = text.count("\n", 0, at) + 1
        raise DecodeError(f"{what} {path}: line {line} is not as its saver writes it: found "
                          f"{text[at:at + 24]!r}, expected {saved[at:at + 24]!r}")


FORECAST_HEADER = "hour,spine_id,predicted_latency_us"


def _forecast_text(forecast: Forecast) -> str:
    """hour,spine_id,predicted_latency_us; horizon rows per spine, spine-major.

    Floats use repr so the file round-trips bit-exactly.
    """
    lines = [FORECAST_HEADER]
    for sid in forecast.spine_ids():
        for hour, value in enumerate(forecast.per_spine[sid], start=1):
            lines.append(f"{hour},{sid},{float(value)!r}")
    return "\n".join(lines) + "\n"


def save_forecast_csv(forecast: Forecast, path: str | Path) -> None:
    """Write _forecast_text(forecast) in one atomic step."""
    write_atomic(path, _forecast_text(forecast))


def load_forecast_csv(path: str | Path) -> Forecast:
    """The forecast save_forecast_csv wrote. Each row after the header is
    read as hour,spine,value, the value finite (forecast_horizon writes no
    other); the spines must agree on the horizon, and the file must be
    exactly _forecast_text of the forecast read. Anything else (a blank
    line, a row out of order, a float not in repr form, CRLF line ends, a
    `nan` or `inf`) is a DecodeError naming the path. The file has no
    trailer, so a copy cut short after a whole line still loads, as the
    forecast of the lines it kept."""
    path = Path(path)
    text = _read_text(path, "forecast file")
    per_spine: dict[int, list[float]] = {}
    for lineno, line in enumerate(text.splitlines()[1:], start=2):
        try:
            _, sid, value = line.split(",")
            if not math.isfinite(latency := float(value)):
                raise ValueError(f"{value!r} is not a finite latency")
            per_spine.setdefault(int(sid), []).append(latency)
        except ValueError as exc:
            raise DecodeError(f"forecast file {path}: line {lineno}: {exc}") from exc
    horizons = {len(rows) for rows in per_spine.values()}
    if len(horizons) > 1:
        raise DecodeError(f"forecast file {path}: spines disagree on horizon: {sorted(horizons)}")
    forecast = Forecast(horizon=horizons.pop() if horizons else 0,
                        per_spine={sid: np.asarray(rows) for sid, rows in per_spine.items()})
    _require_reencodes(path, "forecast file", text, _forecast_text(forecast))
    return forecast


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


def _checkpoint_text(model: LstmModel) -> str:
    """Single text document: hyperparameters, scaler stats, then every
    weight array with explicit shape. Floats use repr, so the model read
    back is this one exactly."""
    lines = [_CKPT_MAGIC]
    lines.append("hyper " + json.dumps(dataclasses.asdict(model.hyper), sort_keys=True))
    lines.append(f"dropout {model.hyper.dropout!r}")
    if model.scaler is not None:
        lines.append("scaler_min " + " ".join(repr(float(v)) for v in model.scaler.mins))
        lines.append("scaler_max " + " ".join(repr(float(v)) for v in model.scaler.maxs))
    for name, arr in model.parameters().items():
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"param {name} {dims}")
        lines.append(" ".join(repr(float(v)) for v in arr.reshape(-1)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_checkpoint(model: LstmModel, path: str | Path) -> None:
    """Write _checkpoint_text(model) in one atomic step."""
    write_atomic(path, _checkpoint_text(model))


def load_checkpoint(path: str | Path) -> LstmModel:
    """The model save_checkpoint wrote. The records are read in the order
    the saver writes them: the magic line, the hyperparameters (which must
    pass validation), the dropout line (skipped), an optional scaler of
    N_CHANNELS finite values per record, then one line of values per
    parameter_shapes(hyper) entry, which must be finite. The file must then
    be exactly _checkpoint_text of the model read, so a record repeated,
    missing, reordered or cut short, a float not in repr form or a CRLF
    line end is refused too. Each refusal is a DecodeError naming the path."""
    path = Path(path)
    text = _read_text(path, "checkpoint")
    lines = text.splitlines()
    if lines[:1] != [_CKPT_MAGIC]:
        raise DecodeError(f"checkpoint {path}: bad or missing magic line")
    i = 1
    try:
        data = json.loads(lines[i].partition(" ")[2])
        if not isinstance(data, dict):
            raise ValueError("hyper is not a JSON object")
        hyper = _build_section(TrainingConfig, data, "hyper")
        hyper.validate()
        hyper.validate_model()
        i = 3                                   # past the dropout line: re-encoding checks it
        scaler = None
        if lines[i].startswith("scaler_min "):
            stats = [np.array([float(v) for v in lines[k].split()[1:]]) for k in (i, i + 1)]
            if any(v.shape != (N_CHANNELS,) or not np.isfinite(v).all() for v in stats):
                raise ValueError(f"a scaler needs {N_CHANNELS} finite values per record")
            scaler = Scaler(*stats)
            i += 2
        arrays = []
        for shape in parameter_shapes(hyper).values():
            i += 1
            arrays.append(np.array([float(v) for v in lines[i].split()]).reshape(shape))
            i += 1
    except (ValueError, InvalidConfigError) as exc:
        raise DecodeError(f"checkpoint {path}: line {i + 1}: {exc}") from exc
    except IndexError:
        raise DecodeError(f"checkpoint {path}: cut short after line {len(lines)}") from None
    theta = np.concatenate([arr.reshape(-1) for arr in arrays])
    if not np.isfinite(theta).all():
        raise DecodeError(f"checkpoint {path}: non-finite parameter values")
    model = LstmModel(theta, scaler, hyper)
    _require_reencodes(path, "checkpoint", text, _checkpoint_text(model))
    return model
