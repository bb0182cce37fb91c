"""Reference forecasters the trained model has to beat.

Both read their prediction straight out of each window's latency channel,
so they see exactly the same inputs as the model.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError
from .windows import SEASONAL_LAG_HOURS, WindowedDataset


def persistence_predictions(dataset: WindowedDataset) -> np.ndarray:
    """Predict the last observed latency in each window."""
    return dataset.inputs[:, -1, 0].copy()


def seasonal_naive_predictions(dataset: WindowedDataset,
                               period: int = SEASONAL_LAG_HOURS) -> np.ndarray:
    """Predict the latency observed one period before each target.

    The target sits `horizon` steps after the window, so the seasonal value
    is at window index lookback + horizon - 1 - period; the lookback must
    be long enough to contain it.
    """
    idx = dataset.lookback + dataset.horizon - 1 - period
    if not 0 <= idx < dataset.lookback:
        raise InsufficientDataError(
            f"lookback {dataset.lookback} too short for a {period}-step seasonal baseline "
            f"at horizon {dataset.horizon}")
    return dataset.inputs[:, idx, 0].copy()


def mse(predictions: np.ndarray, targets: np.ndarray) -> float:
    diff = np.asarray(predictions) - np.asarray(targets)
    return float(np.mean(diff * diff))
