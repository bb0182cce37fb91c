"""Discrete-time leaf-spine fabric simulator.

The fabric is a complete bipartite graph between leaf switches and the
currently active spine switches. Link spine_id * n_leaf + leaf_id joins a
leaf and a spine; ids are stable across activations so telemetry streams
stay joinable, and `hour_loads` lists the active links in id order
(spine-major, leaves ascending). The unit of work is a block of
consecutive hours on one active set (`hour_loads` of their demands):

  1. each hour's offered load is split into a fixed number of flows per
     leaf pair (integer bits/second each, so totals are exact),
  2. every flow is hashed onto an active spine (ECMP over hash slots) once
     per block, since its spine depends only on its id and the active
     set, all at once as one int64 array (`build_flows`); a pair that is
     not two distinct leaves, or an hour's demand summing past int64, is
     a DataError,
  3. per-link metrics of every hour are derived from the carried upstream
     load with a queueing-shaped latency curve:

         latency = base * (1 + k * rho / (1 - rho)) + noise,
         rho     = min(carried / capacity, 0.99)

with the noise drawn anew each simulated minute ("tick"). `simulate_tick`
turns a block's loads into the samples of its minutes in one call. Minute
t's noise is what
`np.random.default_rng(derive_seed(seed, f"latency-noise:{t}")).uniform`
draws, but no generator is built: `uniform_rows` runs numpy's
SeedSequence hashing, PCG64 seeding and XSL-RR output for all the block's
minutes and links as uint32/uint64 array arithmetic, bit for bit. Loads
are exact int64 sums and every later step is elementwise, so a block's
samples are its hours' samples computed one hour at a time.

Link load accounting is upstream only (leaf -> spine): a flow contributes
its rate to the link leaving its source leaf, so summing fabric_speed over
all links recovers the routed demand exactly. The spine -> destination hop
shows up in the destination leaf's edge_speed instead.

`simulate_tick` rounds latency to 6 decimal places and speeds are whole
bits per second, so its samples are what the telemetry wire format carries
exactly; building a sample quantizes nothing, and the bus refuses one that
the wire format could not give back. Samples are carried as
columns (`SampleColumns`), not as one object per link: each hour's link
columns are computed once and tiled over its minutes, minute-major, and
each minute adds only its `ts` and noisy latency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from .config import _MASK64, RHO_MAX, TopologyConfig, TrafficConfig, derive_seed
from .errors import (DataError, InvalidConfigError, NoCapacityError, NotFoundError,
                     PolicyViolationError)

if TYPE_CHECKING:
    from .policy import JournalEntry, PolicyAction


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class LinkMetricSample:
    """One per-link observation for one simulated minute.

    latency_us carries the link latency, fabric_bps the leaf->spine link
    speed, and edge_bps the leaf's aggregate host-facing speed.
    """
    ts: int                # simulation minute
    link_id: int
    spine_id: int
    latency_us: float      # on the 6-decimal grid to be published
    fabric_bps: int
    edge_bps: int


def _column(values: list, name: str, dtype: type = np.int64) -> np.ndarray:
    """A `dtype` array of `values`, the `name` field of some records. An
    int64 column takes ints (Python or numpy; a bool, float or str is not
    one) within int64, a float64 column ints and floats but no bool: since
    neither the columns nor the wire format can carry anything else
    exactly, anything else is a DataError."""
    allowed = (int, np.integer) if dtype is np.int64 else (int, float, np.integer, np.floating)
    for kind in set(map(type, values)):
        if kind is bool or not issubclass(kind, allowed):
            raise DataError(f"{name} cannot hold a {kind.__name__}")
    try:
        return np.array(values, dtype=dtype)
    except OverflowError as exc:
        raise DataError(f"{name} outside the {np.dtype(dtype).name} range: {exc}") from exc


@dataclass(frozen=True, eq=False)
class SampleColumns:
    """A batch of samples as parallel columns, one entry per sample.

    This is how telemetry travels from `simulate_tick` through the bus to
    `aggregate_hourly`; `rows()` builds LinkMetricSample objects only for
    callers that want them. Integer columns are int64 and latency is
    float64; the bus keeps only batches whose latencies are in the wire
    domain: on the 6-decimal grid in [0, 10**9), sign bit clear.
    `from_rows` refuses a field value of the wrong type (a bool, float or
    str where an int belongs). A batch from `simulate_tick` is
    minute-major: all links of one minute, then the next minute's. The
    bus keeps a published batch's columns read-only: one the caller owns
    is frozen in place, a view is copied first.
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
        return cls(*(_column(column(name), name, np.float64 if name == "latency_us" else np.int64)
                     for name in LinkMetricSample.__slots__))

    @classmethod
    def concat(cls, parts: list["SampleColumns"]) -> "SampleColumns":
        if not parts:
            return cls.from_rows([])
        return cls(*(np.concatenate(c) for c in zip(*(p.columns() for p in parts))))


@dataclass(frozen=True)
class DemandMatrix:
    """Offered load per ordered leaf pair for one simulation hour. A demand
    that is not a non-negative integer (bool excluded) is a DataError, so
    `total_bps` is what placement routes."""
    t: int
    entries: dict[tuple[int, int], int]

    def __post_init__(self) -> None:
        for pair, bps in self.entries.items():
            if isinstance(bps, bool) or not isinstance(bps, (int, np.integer)) or bps < 0:
                raise DataError(f"demand of pair {pair} must be a non-negative integer, "
                                f"got {bps!r}")

    def total_bps(self) -> int:
        return sum(map(int, self.entries.values()))     # numpy ints would wrap


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


def apply_action(topology: Topology, action: "PolicyAction | JournalEntry") -> Topology:
    """Apply an add/remove decision, returning a new topology.

    Flow placement is stateless (re-hashed over the active set every block),
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


def build_flows(demands: DemandMatrix | list[DemandMatrix], topology: Topology,
                flows_per_pair: int, seed: int) -> np.ndarray:
    """Split each pair's demand into flows_per_pair integer-rate flows and
    place each as ecmp_assign would over the active hash slots. `demands`
    is one hour's matrix or a block of hours' matrices (a pair missing from
    an hour demands 0 in it). Flow ids are stable across hours, so a flow's
    spine depends only on its id and the active set, and each flow of a
    block is placed once. Returns one int64 row (src, dst, rate in each
    hour of the block..., spine) per flow whose rate is nonzero in some
    hour, pairs ascending; for one matrix that is (src, dst, rate, spine).
    A pair that is not two distinct leaves, or an hour's demand summing
    past int64 (link and leaf sums would wrap), is a DataError."""
    hours = [demands] if isinstance(demands, DemandMatrix) else demands
    n_leaf = topology.n_leaf
    keys = sorted(set().union(*(d.entries for d in hours)))
    pairs = _column([v for pair in keys for v in pair], "demand pairs").reshape(-1, 2)
    demand = _column([d.entries.get(pair, 0) for pair in keys for d in hours],
                     "demands").reshape(len(keys), len(hours))
    src, dst = pairs.T
    bad = np.flatnonzero((src < 0) | (src >= n_leaf) | (dst < 0) | (dst >= n_leaf) | (src == dst))
    if len(bad):
        raise DataError(f"demand pair {pairs[bad[0]].tolist()} is not two distinct leaves")
    for d, column in zip(hours, demand.T.tolist()):
        if sum(column) > np.iinfo(np.int64).max:
            raise DataError(f"hour {d.t}'s demand sums past the int64 range")
    q, r = np.divmod(demand, flows_per_pair)
    rate = q[:, None] + (np.arange(flows_per_pair)[:, None] < r[:, None])   # [pair, k, hour]
    pair, k = np.nonzero(rate.any(axis=2))
    flow_id = (src[pair] * n_leaf + dst[pair]) * flows_per_pair + k
    active = topology.active_spine_ids
    ring = np.repeat(np.array(active, dtype=np.int64), [topology.spine_slots[s] for s in active])
    if len(flow_id) and not len(ring):
        raise NoCapacityError("no active spine to place the flow on")
    h = _splitmix64(_splitmix64(np.array([seed & _MASK64], dtype=np.uint64))
                    ^ flow_id.astype(np.uint64))
    return np.column_stack([src[pair], dst[pair], rate[pair, k], ring[h % len(ring)]])


# ---------------------------------------------------------------------------
# Tick simulation
# ---------------------------------------------------------------------------

def link_latency_us(base_latency_us: float, rho, queue_factor: float):
    """Queueing-shaped latency curve, elementwise; rho is clamped to [0, RHO_MAX]."""
    rho = np.clip(rho, 0.0, RHO_MAX)
    return base_latency_us * (1.0 + queue_factor * rho / (1.0 - rho))


@dataclass(frozen=True)
class HourLoads:
    """Hour-constant columns of a block of hours' active links, in link id
    order: link spine_id * n_leaf + leaf_id, spine-major, leaves ascending.
    link_id and spine_id hold one entry per link; the loads and latencies
    hold one row of links per hour of the block, [hours, links], or are a
    single hour's [links] if `hour_loads` was given one matrix."""
    link_id: np.ndarray
    spine_id: np.ndarray
    fabric_bps: np.ndarray     # capped at the link capacity
    edge_bps: np.ndarray
    latency_us: np.ndarray     # noise-free, not yet rounded


def hour_loads(topology: Topology, demands: DemandMatrix | list[DemandMatrix], seed: int,
               flows_per_pair: int = 8, queue_factor: float = 1.0) -> HourLoads:
    """Place the flows of one hour's demands, or of a block of hours', once
    (`build_flows`) and derive every active link's load in each hour. The
    sums are int64 and exact in any order, since no hour's demand sums
    past int64; one `link_latency_us` call gives every hour's latencies.
    An empty block is an InvalidConfigError.

    Overload never raises: utilization is clamped at RHO_MAX, which shows
    up as high latency, and fabric_bps is capped at the link capacity.
    """
    if not isinstance(demands, DemandMatrix) and not demands:
        raise InvalidConfigError("a block needs the demands of at least one hour")
    flows = build_flows(demands, topology, flows_per_pair, seed)
    src, dst, rate, spine = flows[:, 0], flows[:, 1], flows[:, 2:-1], flows[:, -1]
    n_leaf = topology.n_leaf
    active = np.array(topology.active_spine_ids, dtype=np.int64)
    carried = np.zeros((len(active) * n_leaf, rate.shape[1]), dtype=np.int64)   # [link, hour]
    np.add.at(carried, np.searchsorted(active, spine) * n_leaf + src, rate)
    edge = np.zeros((n_leaf, rate.shape[1]), dtype=np.int64)
    np.add.at(edge, src, rate)
    np.add.at(edge, dst, rate)
    loads, edge = carried.T, np.tile(edge.T, len(active))
    if isinstance(demands, DemandMatrix):
        loads, edge = loads[0], edge[0]
    # Python's exact load / cap: cap <= 2**53, and a load past it clamps either way
    cap = topology.capacity_bps
    return HourLoads((active[:, None] * n_leaf + np.arange(n_leaf)).ravel(),
                     np.repeat(active, n_leaf), np.minimum(loads, cap), edge,
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


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 (XSL-RR 128/64)
# constants. The hash constants advance by a fixed multiply whatever the
# data, so every one of them is known before any seed is.
_M32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init, init*mult, init*mult**2, ... mod 2**32: count + 1 uint32 values."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return np.array(consts, dtype=np.uint32)[:, None]


_MIX_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, 16)   # 4 fills + 12 cross mixes
_OUT_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)    # 8 output words


def _hashmix(value: np.ndarray, consts: np.ndarray, k: int, count: int) -> np.ndarray:
    """SeedSequence's hashmix with hash constants k ... k + count - 1, one per row."""
    value = (value ^ consts[k:k + count]) * consts[k + 1:k + count + 1]
    return value ^ (value >> 16)


def _seed_state(seeds: list[int]) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for each seed s in
    0 ... 2**64 - 1, as a [4, len(seeds)] uint64 array. A seed is its two
    32-bit words, low first; one below 2**32 hashes as if its high word were
    0, since its missing word is hashed as 0."""
    s = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(s)), dtype=np.uint32)
    pool[0], pool[1] = s & _M32, s >> 32
    pool = _hashmix(pool, _MIX_CONSTS, 0, 4)
    for src in range(4):      # mix every word into each of the other three
        dst = [i for i in range(4) if i != src]
        mixed = (pool[dst] * np.uint32(0xCA01F9DD)
                 - _hashmix(pool[src], _MIX_CONSTS, 4 + 3 * src, 3) * np.uint32(0x4973F715))
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_CONSTS, 0, 8).astype(np.uint64)
    return words[0::2] | (words[1::2] << 32)


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2**128 of 128-bit values given as uint64 (hi, lo) arrays:
    the full 64x64 -> 128-bit product of the low words from four 32-bit
    products, plus the two cross products into the high word."""
    a0, a1, b0, b1 = a_lo & _M32, a_lo >> 32, b_lo & _M32, b_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + a_hi * b_lo + a_lo * b_hi
    return hi, (mid << 32) | (p00 & _M32)


@functools.cache
def _pcg64_jumps(n: int) -> tuple[np.ndarray, ...]:
    """(A_hi, A_lo, G_hi, G_lo), each [n] uint64: draw k of a PCG64 seeded
    with srandom(initstate, initseq) reads the state A_k * T + G_k * inc
    mod 2**128, where inc = 2 * initseq + 1, T = initstate + inc,
    A_k = M**(k + 2) and G_k = M**0 + ... + M**(k + 1). (Seeding steps
    twice and every draw steps once before it outputs.)"""
    powers = [1]
    for _ in range(n + 1):
        powers.append(powers[-1] * _PCG64_MULT & _MASK128)
    a = powers[2:]
    g = [sum(powers[:k + 2]) & _MASK128 for k in range(n)]
    jumps = tuple(np.array([v >> shift & _MASK64 for v in vals], dtype=np.uint64)
                  for vals in (a, g) for shift in (64, 0))
    for arr in jumps:
        arr.flags.writeable = False
    return jumps


def noise_width_is_finite(noise_us) -> bool:
    """Whether uniform(-noise_us, noise_us) spans a finite float64 width,
    2 * noise_us, as numpy's uniform requires."""
    try:
        return math.isfinite(2.0 * float(noise_us))
    except OverflowError:               # an int past the float64 range
        return False


def uniform_rows(seeds: list[int], noise_us: float, n: int) -> np.ndarray:
    """A [len(seeds), n] float64 array whose row i is, bit for bit,
    np.random.default_rng(seeds[i]).uniform(-noise_us, noise_us, n), computed
    without a generator: SeedSequence hashing and PCG64 seeding of every
    seed as array arithmetic, then every draw k of every row at once by
    jumping the seeded state k + 1 steps (`_pcg64_jumps`), XSL-RR output,
    (x >> 11) * 2**-53 and low + (high - low) * d, as numpy computes them.
    2 * noise_us must be finite."""
    init_hi, init_lo, seq_hi, seq_lo = _seed_state(seeds)
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    t_lo = init_lo + inc_lo
    t_hi = init_hi + inc_hi + (t_lo < inc_lo)
    a_hi, a_lo, g_hi, g_lo = _pcg64_jumps(n)
    hi1, lo1 = _mul128(a_hi, a_lo, t_hi[:, None], t_lo[:, None])
    hi2, lo2 = _mul128(g_hi, g_lo, inc_hi[:, None], inc_lo[:, None])
    lo = lo1 + lo2
    hi = hi1 + hi2 + (lo < lo1)
    x, rot = hi ^ lo, hi >> 58
    x = (x >> rot) | (x << ((64 - rot) & 63))
    low = -float(noise_us)
    return low + (float(noise_us) - low) * ((x >> 11).astype(np.float64) * 2.0**-53)


def simulate_tick(loads: HourLoads, seed: int, t: int, noise_us: float = 0.0,
                  minutes: int = 1) -> SampleColumns:
    """One sample per active link for each minute t ... t + minutes - 1,
    minute by minute in `loads`' link id order: the hour's latency plus
    that minute's uniform noise, rounded to 6 places as round does. The
    block's hours take the minutes in turn, minutes / hours each (so
    `minutes` is a multiple of their count; a single hour takes them all).
    Minute m's noise is what default_rng(derive_seed(seed,
    f"latency-noise:{m}")) draws; `uniform_rows` computes all the minutes'
    noise as one block and `round6` rounds it in one pass, so a run of
    minutes equals the single minutes concatenated. A noise_us whose
    doubled width is not finite (NaN, inf, 1e308) is a DataError. Every
    column owns its data, so the bus keeps it without a copy."""
    if not noise_width_is_finite(noise_us):
        raise DataError(f"2 * noise_us must be finite, got noise_us={noise_us!r}")
    hours, n = np.atleast_2d(loads.latency_us).shape
    if minutes % hours:
        raise InvalidConfigError(f"{minutes} minutes do not split evenly over {hours} hours")

    def tile(column: np.ndarray) -> np.ndarray:     # each hour's row over its minutes, owned
        rows = np.atleast_2d(column)[:, None]
        return np.broadcast_to(rows, (hours, minutes // hours, n)).flatten()
    latency = tile(loads.latency_us)
    if noise_us > 0:
        seeds = [derive_seed(seed, f"latency-noise:{m}") for m in range(t, t + minutes)]
        latency += uniform_rows(seeds, noise_us, n).ravel()
    return SampleColumns(np.repeat(np.arange(t, t + minutes, dtype=np.int64), n),
                         tile(loads.link_id), tile(loads.spine_id), round6(latency),
                         tile(loads.fabric_bps), tile(loads.edge_bps))
