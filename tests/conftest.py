import numpy as np
import pytest

from spinescale.config import TopologyConfig
from spinescale.fabric import DemandMatrix, build_topology, hour_loads
from spinescale.policy import PolicyAction


def remove_action(spine_id: int, cycle: int = 0) -> PolicyAction:
    return PolicyAction(cycle, "remove_spine", spine_id, "test", 0.0)


def add_action(cycle: int = 0) -> PolicyAction:
    return PolicyAction(cycle, "add_spine", None, "test", 0.0)


def link_table(topology) -> list[tuple[int, int, int]]:
    """(link id, leaf id, spine id) of each active link, in the order of
    hour_loads' columns; the leaf id is link id - spine id * n_leaf."""
    hour = hour_loads(topology, DemandMatrix(t=0, entries={}), seed=0)
    return [(link, link - spine * topology.n_leaf, spine)
            for link, spine in zip(hour.link_id.tolist(), hour.spine_id.tolist())]


@pytest.fixture
def topo_3x5():
    return build_topology(TopologyConfig(3, 5, capacity_bps=10_000_000_000,
                                         base_latency_us=3.0, min_spines=2, max_spines=8))


class HalfWriteHandle:
    """Stands in for an append handle whose write stops halfway: the first
    half of the data reaches the file through `real`, then the write raises
    OSError or, with raises=False, reports the short count."""

    def __init__(self, real, raises: bool = True) -> None:
        self.real, self.raises = real, raises

    def write(self, data: bytes) -> int:
        written = self.real.write(data[:len(data) // 2])
        if self.raises:
            raise OSError("disk full")
        return written

    def flush(self) -> None:
        self.real.flush()

    def close(self) -> None:
        self.real.close()


def models_equal(a, b) -> bool:
    """Exact equality of two LstmModels' parameters, scaler, dropout and
    hyperparameters."""
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
    return a.hyper == b.hyper
