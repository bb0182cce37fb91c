"""The recursive forecast as it was before its wavefront rewrite, used as a
test oracle.

`forecast_horizon` below is the per-hour loop, copied verbatim except that
it reaches `forward_batch` through the `forecaster` module: one eval-mode
`forward_batch` call over all spines per horizon hour, each rerunning conv
and both LSTM layers over its whole window from zero state.
`per_spine_recursion` goes further back: one spine at a time, one `forward`
call per hour, with the speed channels extended as the forecast goes.
`spinescale.forecaster.forecast_horizon` must reproduce the per-hour loop
bit for bit when it has at least two spines and two LSTM steps per window
(see test_forecaster.py).

Both look `forward_batch` and `forward` up in `spinescale.forecaster` at
call time, so a test that monkeypatches the forecaster's LSTM layer runs
this oracle on that layer.
"""

from __future__ import annotations

import numpy as np

from spinescale import forecaster
from spinescale.errors import DataError, InsufficientHistoryError, InvalidConfigError
from spinescale.forecaster import SEASONAL_LAG_HOURS, Forecast, LstmModel
from spinescale.windows import N_CHANNELS, SwitchSeries


def forecast_horizon(model: LstmModel, histories: list[SwitchSeries], horizon: int) -> Forecast:
    """Hourly latency forecast per spine over `horizon` hours.

    Predicted latency feeds the next window's latency channel; the speed
    channels repeat their value from SEASONAL_LAG_HOURS earlier (last value
    if the series is still shorter than the lag). Output is de-normalized
    and clamped at zero. All spines are stepped as one batch: one
    forward_batch call per horizon hour.
    """
    if horizon < 1:
        raise InvalidConfigError(f"horizon must be >= 1, got {horizon}")
    if model.scaler is None:
        raise DataError("model has no scaler attached; cannot forecast raw history")
    n = model.hyper.lookback_hours
    if not histories:
        return Forecast(horizon=horizon, per_spine={})
    # per spine: the last lookback hours, then the horizon, whose speed
    # channels never depend on the forecast and are filled in up front
    buf = np.empty((len(histories), n + horizon, N_CHANNELS))
    for row, series in zip(buf, histories):
        if len(series) < n:
            raise InsufficientHistoryError(
                f"spine {series.spine_id}: history {len(series)} h < lookback {n} h")
        norm = model.scaler.transform(series.data)
        speeds = list(norm[:, 1:])
        for _ in range(horizon):
            speeds.append(speeds[-SEASONAL_LAG_HOURS] if len(speeds) >= SEASONAL_LAG_HOURS
                          else speeds[-1])
        row[:n, 0] = norm[-n:, 0]
        row[:, 1:] = speeds[-(n + horizon):]
    for step in range(horizon):
        preds, _ = forecaster.forward_batch(model, buf[:, step:step + n])
        buf[:, n + step, 0] = preds
    return Forecast(horizon=horizon, per_spine={
        series.spine_id: np.maximum(model.scaler.invert_latency(row[n:, 0]), 0.0)
        for series, row in zip(histories, buf)})


def per_spine_recursion(model: LstmModel, series: SwitchSeries, horizon: int) -> np.ndarray:
    """One spine at a time, one forward call per hour, speed channels
    extended as the forecast goes."""
    n = model.hyper.lookback_hours
    norm = model.scaler.transform(series.data)
    lat, fab, edg = list(norm[:, 0]), list(norm[:, 1]), list(norm[:, 2])
    for _ in range(horizon):
        lat.append(forecaster.forward(model, np.stack([lat[-n:], fab[-n:], edg[-n:]], axis=1)))
        fab.append(fab[-24] if len(fab) >= 24 else fab[-1])
        edg.append(edg[-24] if len(edg) >= 24 else edg[-1])
    return np.maximum(model.scaler.invert_latency(np.array(lat[-horizon:])), 0.0)
