"""Discrete-time leaf-spine fabric simulator.

The fabric is a complete bipartite graph between leaf switches and the
currently active spine switches. Each simulated minute ("tick"):

  1. the offered load for the current hour is split into a fixed number of
     flows per leaf pair (integer bits/second each, so totals are exact),
  2. every flow is hashed onto an active spine (ECMP over hash slots),
  3. per-link metrics are derived from the carried upstream load with a
     queueing-shaped latency curve:

         latency = base * (1 + k * rho / (1 - rho)) + noise,
         rho     = min(carried / capacity, 0.99)

Link load accounting is upstream only (leaf -> spine): a flow contributes
its rate to the link leaving its source leaf, so summing fabric_speed over
all links recovers the routed demand exactly. The spine -> destination hop
shows up in the destination leaf's edge_speed instead.

Samples quantize latency to 6 decimal places and speeds to whole bits per
second at construction time, matching the telemetry wire format exactly so
serialization round-trips are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .config import TrafficConfig, derive_seed
from .errors import InvalidConfigError, NoCapacityError, NotFoundError, PolicyViolationError

if TYPE_CHECKING:
    from .policy import PolicyAction

RHO_MAX = 0.99

_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpineNode:
    id: int
    active: bool = True


@dataclass(frozen=True)
class LeafNode:
    id: int


@dataclass(frozen=True)
class Link:
    """One leaf<->spine cable. id = spine_id * n_leaf + leaf_id, stable
    across activations so telemetry streams stay joinable."""
    id: int
    leaf_id: int
    spine_id: int
    capacity_bps: int
    base_latency_us: float


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Flow:
    flow_id: int
    src_leaf: int
    dst_leaf: int
    rate_bps: int
    assigned_spine: int


@dataclass(frozen=True)
class DemandMatrix:
    """Offered load per ordered leaf pair for one simulation hour."""
    t: int
    entries: dict[tuple[int, int], int]

    def total_bps(self) -> int:
        return sum(self.entries.values())


@dataclass
class Topology:
    spines: list[SpineNode]
    leaves: list[LeafNode]
    links: list[Link]      # links of ACTIVE spines only, sorted by link id
    capacity_bps: int
    base_latency_us: float
    min_spines: int
    max_spines: int
    spine_slots: dict[int, int]   # ECMP hash slots per spine id (default 1)

    @property
    def n_leaf(self) -> int:
        return len(self.leaves)

    @property
    def active_spine_ids(self) -> list[int]:
        return sorted(s.id for s in self.spines if s.active)

    def ecmp_slots(self) -> list[int]:
        """Active spine ids repeated per their hash-slot weight, ascending."""
        out: list[int] = []
        for sid in self.active_spine_ids:
            out.extend([sid] * self.spine_slots.get(sid, 1))
        return out


# ---------------------------------------------------------------------------
# Topology construction and reconfiguration
# ---------------------------------------------------------------------------

def _links_for_spines(spine_ids, n_leaf: int, capacity_bps: int, base_latency_us: float) -> list[Link]:
    links = [
        Link(id=s * n_leaf + l, leaf_id=l, spine_id=s,
             capacity_bps=capacity_bps, base_latency_us=base_latency_us)
        for s in spine_ids
        for l in range(n_leaf)
    ]
    return sorted(links, key=lambda lk: lk.id)


def build_topology(n_leaf: int, n_spine: int, capacity_bps: int, base_latency_us: float,
                   min_spines: int = 2, max_spines: int | None = None,
                   spine_slots: list[int] | None = None) -> Topology:
    """Build a complete bipartite leaf-spine fabric with all spines active."""
    if n_leaf < 1 or n_spine < 1:
        raise InvalidConfigError(f"node counts must be >= 1 (n_leaf={n_leaf}, n_spine={n_spine})")
    if capacity_bps <= 0:
        raise InvalidConfigError(f"capacity_bps must be > 0, got {capacity_bps}")
    if base_latency_us <= 0:
        raise InvalidConfigError(f"base_latency_us must be > 0, got {base_latency_us}")
    min_spines = min(min_spines, n_spine)
    if max_spines is None:
        max_spines = max(n_spine, 8)
    if max_spines < n_spine:
        raise InvalidConfigError(f"max_spines={max_spines} below initial spine count {n_spine}")
    if spine_slots is not None and len(spine_slots) != n_spine:
        raise InvalidConfigError(
            f"spine_slots has {len(spine_slots)} entries for {n_spine} spines")

    spines = [SpineNode(id=s, active=True) for s in range(n_spine)]
    leaves = [LeafNode(id=l) for l in range(n_leaf)]
    links = _links_for_spines(range(n_spine), n_leaf, int(capacity_bps), float(base_latency_us))
    slots = {s: (spine_slots[s] if spine_slots else 1) for s in range(n_spine)}
    return Topology(spines=spines, leaves=leaves, links=links,
                    capacity_bps=int(capacity_bps), base_latency_us=float(base_latency_us),
                    min_spines=min_spines, max_spines=max_spines, spine_slots=slots)


def apply_action(topology: Topology, action: "PolicyAction") -> Topology:
    """Apply an add/remove decision, returning a new topology.

    Flow placement is stateless (re-hashed over the active set every tick),
    so changing the active set re-places every flow automatically.
    """
    active = topology.active_spine_ids
    if action.kind == "remove_spine":
        sid = action.spine_id
        existing = {s.id: s for s in topology.spines}
        if sid not in existing or not existing[sid].active:
            raise NotFoundError(f"spine {sid} is not an active spine")
        if len(active) - 1 < topology.min_spines:
            raise PolicyViolationError(
                f"removing spine {sid} would leave {len(active) - 1} active "
                f"(< min_spines={topology.min_spines})")
        spines = [replace(s, active=False) if s.id == sid else s for s in topology.spines]
        links = [lk for lk in topology.links if lk.spine_id != sid]
        return replace(topology, spines=spines, links=links)

    if action.kind == "add_spine":
        if len(active) + 1 > topology.max_spines:
            raise PolicyViolationError(
                f"adding a spine would exceed max_spines={topology.max_spines}")
        inactive = sorted(s.id for s in topology.spines if not s.active)
        if inactive:
            sid = inactive[0]
            spines = [replace(s, active=True) if s.id == sid else s for s in topology.spines]
        else:
            sid = len(topology.spines)
            spines = topology.spines + [SpineNode(id=sid, active=True)]
        new_links = _links_for_spines([sid], topology.n_leaf,
                                      topology.capacity_bps, topology.base_latency_us)
        links = sorted(topology.links + new_links, key=lambda lk: lk.id)
        slots = dict(topology.spine_slots)
        slots.setdefault(sid, 1)
        return replace(topology, spines=spines, links=links, spine_slots=slots)

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

def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def ecmp_assign(flow_id: int, active_spines: list[int], seed: int) -> int:
    """Hash a flow onto one of the active spines.

    h = splitmix64(splitmix64(seed) ^ flow_id); the spine is
    active_spines[h mod len(active_spines)]. Deterministic in
    (flow_id, active_spines, seed).
    """
    if not active_spines:
        raise NoCapacityError("no active spine to place the flow on")
    h = _splitmix64(_splitmix64(seed & _MASK64) ^ (flow_id & _MASK64))
    return active_spines[h % len(active_spines)]


def build_flows(demands: DemandMatrix, topology: Topology, flows_per_pair: int, seed: int) -> list[Flow]:
    """Split each pair's demand into flows_per_pair integer-rate flows and
    place each with ecmp_assign. Flow ids are stable across ticks so a
    flow's spine only changes when the active set changes."""
    slots = topology.ecmp_slots()
    n_leaf = topology.n_leaf
    flows: list[Flow] = []
    for (src, dst), demand in sorted(demands.entries.items()):
        if demand <= 0:
            continue
        q, r = divmod(demand, flows_per_pair)
        for k in range(flows_per_pair):
            rate = q + 1 if k < r else q
            if rate == 0:
                continue
            fid = (src * n_leaf + dst) * flows_per_pair + k
            flows.append(Flow(flow_id=fid, src_leaf=src, dst_leaf=dst,
                              rate_bps=rate, assigned_spine=ecmp_assign(fid, slots, seed)))
    return flows


# ---------------------------------------------------------------------------
# Tick simulation
# ---------------------------------------------------------------------------

def link_latency_us(base_latency_us: float, rho: float, queue_factor: float) -> float:
    """Queueing-shaped latency curve; rho is clamped to [0, RHO_MAX]."""
    rho = min(max(rho, 0.0), RHO_MAX)
    return base_latency_us * (1.0 + queue_factor * rho / (1.0 - rho))


def simulate_tick(topology: Topology, demands: DemandMatrix, seed: int, t: int,
                  flows_per_pair: int = 8, queue_factor: float = 1.0,
                  noise_us: float = 0.0) -> list[LinkMetricSample]:
    """Produce one LinkMetricSample per active link for minute t.

    Overload never raises: utilization is clamped at RHO_MAX, which shows
    up as high latency, and fabric_bps is capped at the link capacity.
    """
    flows = build_flows(demands, topology, flows_per_pair, seed)

    carried: dict[int, int] = {}      # link id -> upstream bits/second
    edge: dict[int, int] = {}         # leaf id -> host-facing bits/second
    n_leaf = topology.n_leaf
    for f in flows:
        up_link = f.assigned_spine * n_leaf + f.src_leaf
        carried[up_link] = carried.get(up_link, 0) + f.rate_bps
        edge[f.src_leaf] = edge.get(f.src_leaf, 0) + f.rate_bps
        edge[f.dst_leaf] = edge.get(f.dst_leaf, 0) + f.rate_bps

    noise = None
    if noise_us > 0:
        rng = np.random.default_rng(derive_seed(seed, f"latency-noise:{t}"))
        noise = rng.uniform(-noise_us, noise_us, size=len(topology.links))

    samples: list[LinkMetricSample] = []
    for idx, link in enumerate(topology.links):
        load = carried.get(link.id, 0)
        rho = load / link.capacity_bps
        latency = link_latency_us(link.base_latency_us, rho, queue_factor)
        if noise is not None:
            latency += float(noise[idx])
        samples.append(LinkMetricSample(
            ts=int(t),
            link_id=link.id,
            spine_id=link.spine_id,
            latency_us=round(latency, 6),
            fabric_bps=min(load, link.capacity_bps),
            edge_bps=int(edge.get(link.leaf_id, 0)),
        ))
    return samples
