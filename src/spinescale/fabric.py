"""Discrete-time leaf-spine fabric simulator.

The fabric is a complete bipartite graph between leaf switches and the
currently active spine switches. Each simulated hour (`hour_loads`):

  1. the offered load for the hour is split into a fixed number of flows
     per leaf pair (integer bits/second each, so totals are exact),
  2. every flow is hashed onto an active spine (ECMP over hash slots), all
     at once as one int64 array (`build_flows`); a pair that is not two
     distinct leaves, or demand summing past int64, is a DataError,
  3. per-link metrics are derived from the carried upstream load with a
     queueing-shaped latency curve:

         latency = base * (1 + k * rho / (1 - rho)) + noise,
         rho     = min(carried / capacity, 0.99)

with the noise drawn anew each simulated minute ("tick"). `simulate_tick`
turns an hour's loads into the samples of a run of minutes, a whole hour
in one call.

Link load accounting is upstream only (leaf -> spine): a flow contributes
its rate to the link leaving its source leaf, so summing fabric_speed over
all links recovers the routed demand exactly. The spine -> destination hop
shows up in the destination leaf's edge_speed instead.

Samples quantize latency to 6 decimal places and speeds to whole bits per
second at construction time, matching the telemetry wire format exactly so
serialization round-trips are bit-identical. Samples are carried as
columns (`SampleColumns`), not as one object per link: an hour's link
columns are computed once and tiled over its minutes, minute-major, and
each minute adds only its `ts` and noisy latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from .config import _MASK64, TopologyConfig, TrafficConfig, derive_seed
from .errors import (DataError, InvalidConfigError, NoCapacityError, NotFoundError,
                     PolicyViolationError)

if TYPE_CHECKING:
    from .policy import PolicyAction

RHO_MAX = 0.99


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Link:
    """One leaf<->spine cable. id = spine_id * n_leaf + leaf_id, stable
    across activations so telemetry streams stay joinable."""
    id: int
    leaf_id: int
    spine_id: int


@dataclass(frozen=True, slots=True)
class LinkMetricSample:
    """One per-link observation for one simulated minute.

    latency_us carries the link latency, fabric_bps the leaf->spine link
    speed, and edge_bps the leaf's aggregate host-facing speed.
    """
    ts: int                # simulation minute
    link_id: int
    spine_id: int
    latency_us: float      # quantized to 6 decimal places
    fabric_bps: int
    edge_bps: int


def _int64_column(values) -> np.ndarray:
    """An int64 array of `values`; a value outside int64 is a DataError,
    since neither the columns nor the wire format can carry it."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError as exc:
        raise DataError(f"value outside the int64 range: {exc}") from exc


@dataclass(frozen=True, eq=False)
class SampleColumns:
    """A batch of samples as parallel columns, one entry per sample.

    This is how telemetry travels from `simulate_tick` through the bus to
    `aggregate_hourly`; `rows()` builds LinkMetricSample objects only for
    callers that want them. Integer columns are int64 and latency is
    float64, already quantized to 6 decimal places. A batch from
    `simulate_tick` is minute-major: all links of one minute, then the
    next minute's. The bus keeps the batches it is given, so columns are
    never written to once published.
    """
    ts: np.ndarray
    link_id: np.ndarray
    spine_id: np.ndarray
    latency_us: np.ndarray
    fabric_bps: np.ndarray
    edge_bps: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)

    def columns(self) -> list[np.ndarray]:
        """The six columns in LinkMetricSample field order."""
        return [self.ts, self.link_id, self.spine_id, self.latency_us, self.fabric_bps,
                self.edge_bps]

    def rows(self) -> list[LinkMetricSample]:
        return list(map(LinkMetricSample, *(c.tolist() for c in self.columns())))

    def slice(self, start: int, stop: int) -> "SampleColumns":
        return SampleColumns(*(c[start:stop] for c in self.columns()))

    @classmethod
    def from_rows(cls, samples: list[LinkMetricSample]) -> "SampleColumns":
        def column(name: str) -> list:
            return list(map(attrgetter(name), samples))
        return cls(_int64_column(column("ts")), _int64_column(column("link_id")),
                   _int64_column(column("spine_id")),
                   np.array(column("latency_us"), dtype=np.float64),
                   _int64_column(column("fabric_bps")), _int64_column(column("edge_bps")))

    @classmethod
    def concat(cls, parts: list["SampleColumns"]) -> "SampleColumns":
        if not parts:
            return cls.from_rows([])
        return cls(*(np.concatenate(c) for c in zip(*(p.columns() for p in parts))))


@dataclass(frozen=True)
class DemandMatrix:
    """Offered load per ordered leaf pair for one simulation hour."""
    t: int
    entries: dict[tuple[int, int], int]

    def total_bps(self) -> int:
        return sum(self.entries.values())


@dataclass
class Topology:
    """The fabric's configuration plus the one thing that changes while it
    runs: which spines are active. Every link has the same capacity and
    base latency."""
    n_leaf: int
    capacity_bps: int
    base_latency_us: float
    min_spines: int
    max_spines: int
    spine_slots: dict[int, int]   # ECMP hash slots per spine id
    active_spine_ids: list[int]   # ascending

    @property
    def links(self) -> list[Link]:
        """Complete bipartite links of the active spines, sorted by link id."""
        return [Link(id=s * self.n_leaf + l, leaf_id=l, spine_id=s)
                for s in self.active_spine_ids for l in range(self.n_leaf)]


# ---------------------------------------------------------------------------
# Topology construction and reconfiguration
# ---------------------------------------------------------------------------

def build_topology(cfg: TopologyConfig) -> Topology:
    """Build a complete bipartite leaf-spine fabric with all spines active."""
    cfg.validate()
    return Topology(n_leaf=cfg.n_leaf, capacity_bps=cfg.capacity_bps,
                    base_latency_us=float(cfg.base_latency_us),
                    min_spines=cfg.min_spines, max_spines=cfg.max_spines,
                    spine_slots=dict(enumerate(cfg.spine_slots or [1] * cfg.n_spine)),
                    active_spine_ids=list(range(cfg.n_spine)))


def apply_action(topology: Topology, action: "PolicyAction") -> Topology:
    """Apply an add/remove decision, returning a new topology.

    Flow placement is stateless (re-hashed over the active set every hour),
    so changing the active set re-places every flow automatically. An added
    spine takes the lowest id not active: a removed spine comes back with
    its hash slots, and a new id gets one slot.
    """
    active = topology.active_spine_ids
    if action.kind == "remove_spine":
        sid = action.spine_id
        if sid not in active:
            raise NotFoundError(f"spine {sid} is not an active spine")
        if len(active) - 1 < topology.min_spines:
            raise PolicyViolationError(
                f"removing spine {sid} would leave {len(active) - 1} active "
                f"(< min_spines={topology.min_spines})")
        return replace(topology, active_spine_ids=[s for s in active if s != sid])

    if action.kind == "add_spine":
        if len(active) + 1 > topology.max_spines:
            raise PolicyViolationError(
                f"adding a spine would exceed max_spines={topology.max_spines}")
        sid = next(s for s in range(len(active) + 1) if s not in active)
        return replace(topology, active_spine_ids=sorted(active + [sid]),
                       spine_slots={**topology.spine_slots,
                                    sid: topology.spine_slots.get(sid, 1)})

    raise InvalidConfigError(f"unknown action kind: {action.kind!r}")


# ---------------------------------------------------------------------------
# Demand generation
# ---------------------------------------------------------------------------

def generate_demands(config: TrafficConfig, n_leaf: int, t: int, seed: int) -> DemandMatrix:
    """Offered load for hour t: base + diurnal sinusoid + bursts + noise.

    The sinusoid argument is reduced mod 24 before calling sin so that
    d(t) == d(t+24) holds exactly when bursts and noise are off. Entries
    are rounded to whole bits/second and clamped at zero.
    """
    if t < 0:
        raise InvalidConfigError(f"hour must be >= 0, got {t}")
    rng = np.random.default_rng(derive_seed(seed, f"demand:{t}"))
    phase_frac = (t - config.diurnal_phase_h) % 24.0
    diurnal = config.diurnal_amp_bps * math.sin(2.0 * math.pi * phase_frac / 24.0)

    entries: dict[tuple[int, int], int] = {}
    for src in range(n_leaf):
        for dst in range(n_leaf):
            if src == dst:
                continue
            load = config.base_bps + diurnal
            if config.burst_rate_per_hour > 0 and config.burst_size_bps > 0:
                load += rng.poisson(config.burst_rate_per_hour) * config.burst_size_bps
            if config.noise_bps > 0:
                load += rng.uniform(-config.noise_bps, config.noise_bps)
            entries[(src, dst)] = max(0, int(round(load)))
    return DemandMatrix(t=t, entries=entries)


# ---------------------------------------------------------------------------
# ECMP placement
# ---------------------------------------------------------------------------

def _splitmix64(x):
    """splitmix64 of a Python int, or of each element of a uint64 array."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def ecmp_assign(flow_id: int, active_spines: list[int], seed: int) -> int:
    """Hash a flow onto one of the active spines.

    h = splitmix64(splitmix64(seed) ^ flow_id); the spine is
    active_spines[h mod len(active_spines)]. Deterministic in
    (flow_id, active_spines, seed). The reference for `build_flows`.
    """
    if not active_spines:
        raise NoCapacityError("no active spine to place the flow on")
    h = _splitmix64(_splitmix64(seed & _MASK64) ^ (flow_id & _MASK64))
    return active_spines[h % len(active_spines)]


def build_flows(demands: DemandMatrix, topology: Topology, flows_per_pair: int,
                seed: int) -> np.ndarray:
    """Split each pair's demand into flows_per_pair integer-rate flows and
    place each as ecmp_assign would over the active hash slots. Flow ids
    are stable across hours so a flow's spine only changes when the active
    set changes. Returns one int64 row (src, dst, rate, spine) per flow of
    nonzero rate, pairs ascending. A pair that is not two distinct leaves,
    or demand summing past int64 (link and leaf sums would wrap), is a
    DataError."""
    n_leaf = topology.n_leaf
    pairs = _int64_column([(src, dst, max(bps, 0))
                           for (src, dst), bps in sorted(demands.entries.items())]).reshape(-1, 3)
    src, dst, demand = pairs.T
    bad = np.flatnonzero((src < 0) | (src >= n_leaf) | (dst < 0) | (dst >= n_leaf) | (src == dst))
    if len(bad):
        raise DataError(f"demand pair {pairs[bad[0], :2].tolist()} is not two distinct leaves")
    if sum(demand.tolist()) > np.iinfo(np.int64).max:
        raise DataError("the hour's demand sums past the int64 range")
    q, r = np.divmod(demand, flows_per_pair)
    rate = q[:, None] + (np.arange(flows_per_pair) < r[:, None])
    pair, k = np.nonzero(rate)
    flow_id = (src[pair] * n_leaf + dst[pair]) * flows_per_pair + k
    active = topology.active_spine_ids
    ring = np.repeat(np.array(active, dtype=np.int64), [topology.spine_slots[s] for s in active])
    if len(flow_id) and not len(ring):
        raise NoCapacityError("no active spine to place the flow on")
    h = _splitmix64(_splitmix64(np.array([seed & _MASK64], dtype=np.uint64))
                    ^ flow_id.astype(np.uint64))
    return np.stack([src[pair], dst[pair], rate[pair, k], ring[h % len(ring)]], axis=1)


# ---------------------------------------------------------------------------
# Tick simulation
# ---------------------------------------------------------------------------

def link_latency_us(base_latency_us: float, rho, queue_factor: float):
    """Queueing-shaped latency curve, elementwise; rho is clamped to [0, RHO_MAX]."""
    rho = np.clip(rho, 0.0, RHO_MAX)
    return base_latency_us * (1.0 + queue_factor * rho / (1.0 - rho))


@dataclass(frozen=True)
class HourLoads:
    """Hour-constant columns of the active links, in `Topology.links` order."""
    link_id: np.ndarray
    spine_id: np.ndarray
    fabric_bps: np.ndarray     # capped at the link capacity
    edge_bps: np.ndarray
    latency_us: np.ndarray     # noise-free, not yet rounded


def hour_loads(topology: Topology, demands: DemandMatrix, seed: int,
               flows_per_pair: int = 8, queue_factor: float = 1.0) -> HourLoads:
    """Place the hour's flows once and derive every active link's load.

    Overload never raises: utilization is clamped at RHO_MAX, which shows
    up as high latency, and fabric_bps is capped at the link capacity.
    """
    src, dst, rate, spine = build_flows(demands, topology, flows_per_pair, seed).T
    n_leaf = topology.n_leaf
    active = np.array(topology.active_spine_ids, dtype=np.int64)
    carried = np.zeros((len(active), n_leaf), dtype=np.int64)
    np.add.at(carried, (np.searchsorted(active, spine), src), rate)
    edge = np.zeros(n_leaf, dtype=np.int64)
    np.add.at(edge, src, rate)
    np.add.at(edge, dst, rate)
    loads = carried.ravel()
    # Python's exact load / cap: cap <= 2**53, and a load past it clamps either way
    cap = topology.capacity_bps
    return HourLoads((active[:, None] * n_leaf + np.arange(n_leaf)).ravel(),
                     np.repeat(active, n_leaf), np.minimum(loads, cap),
                     np.tile(edge, len(active)),
                     link_latency_us(topology.base_latency_us, loads / cap, queue_factor))


def round6(x: np.ndarray) -> np.ndarray:
    """Python's round(v, 6) of every element of a float64 array, as a new
    array, bit for bit (np.round rounds differently).

    rint(x * 1e6) / 1e6 is that value wherever the exact x * 10**6 lies
    clearly off a half-integer: the product is off by at most half an ulp,
    so rint picks the correctly rounded integer, and one correctly rounded
    division turns it into the double nearest the decimal, as round does.
    Elements near a half-integer, past 2**52 (where the product has no
    fraction left) or not finite go through round itself.
    """
    with np.errstate(over="ignore"):       # past 1.8e302 the product is inf: slow path
        scaled = x * 1e6
    out = np.rint(scaled) / 1e6
    size = np.abs(scaled)
    clear = (np.abs(np.modf(size)[0] - 0.5) > 2 * np.spacing(size)) & (size < 2.0**52)
    slow = np.flatnonzero(~clear)
    if len(slow):
        out[slow] = [round(v, 6) for v in x[slow].tolist()]
    return out


def simulate_tick(hour: HourLoads, seed: int, t: int, noise_us: float = 0.0,
                  minutes: int = 1) -> SampleColumns:
    """One sample per active link for each minute t ... t + minutes - 1, minute
    by minute in `Topology.links` order: the hour's latency plus that
    minute's uniform noise, rounded to 6 places as round does. Each minute
    draws from its own generator, so a run of minutes equals the single
    minutes concatenated."""
    n = len(hour.latency_us)
    latency = np.broadcast_to(hour.latency_us, (minutes, n))
    if noise_us > 0:
        noise = np.empty((minutes, n))
        for i in range(minutes):
            rng = np.random.default_rng(derive_seed(seed, f"latency-noise:{t + i}"))
            noise[i] = rng.uniform(-noise_us, noise_us, size=n)
        latency = latency + noise
    return SampleColumns(np.repeat(np.arange(t, t + minutes, dtype=np.int64), n),
                         np.tile(hour.link_id, minutes), np.tile(hour.spine_id, minutes),
                         round6(latency.ravel()), np.tile(hour.fabric_bps, minutes),
                         np.tile(hour.edge_bps, minutes))
