"""Turn minute-level link samples into normalized per-switch training windows.

Pipeline: aggregate_hourly -> split_train_val -> Scaler.fit on the training
split only -> make_windows. Each window is [lookback hours x 3 channels]
(latency, fabric speed, edge speed) with a next-step normalized-latency
target; windows from all switches are stacked into one dataset with the
switch id carried as metadata, not as an input channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, GapError, InsufficientDataError, InvalidConfigError
from .fabric import LinkMetricSample, SampleColumns, Topology

N_CHANNELS = 3  # latency, fabric speed, edge speed
SEASONAL_LAG_HOURS = 24  # the diurnal period the seasonal-naive forecasts repeat


@dataclass
class SwitchSeries:
    """Hourly (latency, fabric speed, edge speed) means of one spine switch:
    row t of `data` [T, N_CHANNELS] is hour start_hour + t. `data` is kept
    as a read-only view of the array given, so stages slice it, not copy."""
    spine_id: int
    start_hour: int
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64).view()
        if data.ndim != 2 or data.shape[1] != N_CHANNELS:
            raise DataError(f"spine {self.spine_id}: shape {data.shape} is not [T, {N_CHANNELS}]")
        data.flags.writeable = False
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    # bench/worker.py's names for `data` and the constructor
    def channels(self) -> np.ndarray:
        return self.data

    @classmethod
    def from_channels(cls, spine_id: int, start_hour: int, data: np.ndarray) -> "SwitchSeries":
        return cls(spine_id, start_hour, data)


def aggregate_hourly(samples: SampleColumns | list[LinkMetricSample],
                     topology: Topology | None = None) -> list[SwitchSeries]:
    """Per-spine hourly means of the three channels, sorted by spine id.

    Latency and fabric speed are averaged over the spine's links; edge
    speed is averaged over the same samples, which (one sample per link)
    equals the mean over the spine's leaves. An hour with no samples for
    an active spine is a gap error, never imputed. Order-insensitive.

    With topology=None (replaying a log with no live topology) the spine
    set is taken from the samples themselves.
    """
    if not isinstance(samples, SampleColumns):
        samples = SampleColumns.from_rows(samples)
    n = len(samples)
    if not n:
        raise InsufficientDataError("no samples to aggregate")
    # canonical accumulation order so the result is bit-identical for any
    # input permutation; bincount adds in that order, starting from 0.0.
    # Rows already in (ts, link) order, as the bus holds them, need only
    # a stable sort by spine for the same permutation
    ts, link = samples.ts, samples.link_id
    if ((ts[1:] > ts[:-1]) | ((ts[1:] == ts[:-1]) & (link[1:] >= link[:-1]))).all():
        order = np.argsort(samples.spine_id, kind="stable")
    else:
        order = np.lexsort((link, ts, samples.spine_id))
    spine, hour = samples.spine_id[order], ts[order] // 60
    first = np.ones(n, dtype=bool)          # first sample of each (spine, hour) group
    first[1:] = (spine[1:] != spine[:-1]) | (hour[1:] != hour[:-1])
    group = np.cumsum(first) - 1
    means = np.stack([np.bincount(group, column.astype(np.float64)[order])
                      for column in (samples.latency_us, samples.fabric_bps, samples.edge_bps)],
                     axis=1)
    means /= np.bincount(group)[:, None]
    group_spine, group_hour = spine[first], hour[first]
    h_min = int(hour.min())
    n_hours = int(hour.max()) - h_min + 1
    # the distinct spines, in order; np.unique's first call in a process takes ~10 ms
    active = (topology.active_spine_ids if topology is not None
              else list(dict.fromkeys(group_spine.tolist())))

    series: list[SwitchSeries] = []
    for spine_id in active:
        lo, hi = np.searchsorted(group_spine, (spine_id, spine_id + 1))
        if hi - lo < n_hours:
            wrong = np.flatnonzero(group_hour[lo:hi] - h_min != np.arange(hi - lo))
            gap = h_min + int(wrong[0] if len(wrong) else hi - lo)
            raise GapError(f"spine {spine_id} has no samples for hour {gap}")
        if not np.isfinite(means[lo:hi]).all():
            raise DataError(f"non-finite aggregate for spine {spine_id}")
        series.append(SwitchSeries(spine_id, h_min, means[lo:hi]))
    return series


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scaler:
    """Per-channel min-max map onto [0, 1], fitted on the training split.

    A constant channel (max == min) maps every value to 0; inverting then
    returns the original constant, so invert(apply(x)) == x still holds.
    """
    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, series_list: list[SwitchSeries]) -> "Scaler":
        if not series_list:
            raise InsufficientDataError("cannot fit a scaler on an empty training split")
        stacked = np.concatenate([s.data for s in series_list], axis=0)
        if not np.isfinite(stacked).all():
            raise DataError("non-finite values in scaler training data")
        return cls(mins=stacked.min(axis=0), maxs=stacked.max(axis=0))

    def _span(self) -> np.ndarray:
        span = self.maxs - self.mins
        return np.where(span == 0.0, 1.0, span)

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Normalize a [T, 3] (or [3]) channel array."""
        if not np.isfinite(data).all():
            raise DataError("non-finite values passed to scaler")
        return (data - self.mins) / self._span()

    def invert(self, data: np.ndarray) -> np.ndarray:
        return data * self._span() + self.mins

    def transform_series(self, series: SwitchSeries) -> SwitchSeries:
        return SwitchSeries(series.spine_id, series.start_hour, self.transform(series.data))

    def invert_latency(self, values: np.ndarray | float) -> np.ndarray | float:
        span = float(self._span()[0])
        return values * span + float(self.mins[0])


def split_train_val(series_list: list[SwitchSeries], val_fraction: float
                    ) -> tuple[list[SwitchSeries], list[SwitchSeries]]:
    """Split each series by time, earliest (1-val_fraction) for training;
    either side of a short series may be empty.

    Windows are built per split afterwards, so none straddles the boundary.
    """
    if not 0.0 < val_fraction < 1.0:
        raise InvalidConfigError(f"val_fraction must be in (0,1), got {val_fraction}")
    train, val = [], []
    for s in series_list:
        cut = int(len(s) * (1.0 - val_fraction))
        train.append(SwitchSeries(s.spine_id, s.start_hour, s.data[:cut]))
        val.append(SwitchSeries(s.spine_id, s.start_hour + cut, s.data[cut:]))
    return train, val


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------

@dataclass
class WindowedDataset:
    """Stacked lookback windows over all switches.

    inputs:  [num_samples, lookback, 3] normalized channels
    targets: [num_samples] normalized latency `horizon` steps after each
             window's last input hour
    spine_ids: [num_samples] switch label per sample (metadata)
    """
    inputs: np.ndarray
    targets: np.ndarray
    spine_ids: np.ndarray
    lookback: int
    horizon: int

    def __len__(self) -> int:
        return len(self.targets)


def make_windows(series_list: list[SwitchSeries], lookback: int, horizon: int = 1
                 ) -> WindowedDataset:
    """Slide a lookback window over each normalized series.

    Sample i of a length-T series takes hours [i, i+lookback) as input and
    the latency at hour i+lookback+horizon-1 as target, giving
    T - lookback - horizon + 1 samples per switch.
    """
    if lookback < 1 or horizon < 1:
        raise InvalidConfigError("lookback and horizon must be >= 1")
    counts = [len(s) - lookback - horizon + 1 for s in series_list]
    for s, count in zip(series_list, counts):
        if count < 1:
            raise InsufficientDataError(f"spine {s.spine_id}: series length {len(s)} < "
                                        f"lookback {lookback} + horizon {horizon}")
    return WindowedDataset(
        # the leading empty arrays shape the result of no series; a window
        # view's window axis is last, and the last window ends `horizon`
        # hours before its series does
        inputs=np.concatenate([np.empty((0, lookback, N_CHANNELS)), *(
            sliding_window_view(s.data[:len(s) - horizon], lookback, axis=0).transpose(0, 2, 1)
            for s in series_list)]),
        targets=np.concatenate([np.empty(0), *(s.data[lookback + horizon - 1:, 0]
                                               for s in series_list)]),
        spine_ids=np.repeat(np.array([s.spine_id for s in series_list], dtype=np.int64), counts),
        lookback=lookback,
        horizon=horizon,
    )
