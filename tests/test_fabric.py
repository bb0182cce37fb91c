import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import add_action, link_table, remove_action
from spinescale.config import TopologyConfig, TrafficConfig
from spinescale.errors import (DataError, InvalidConfigError, NoCapacityError, NotFoundError,
                               PolicyViolationError)
from spinescale.config import derive_seed
from spinescale.fabric import (DemandMatrix, LinkMetricSample, SampleColumns, apply_action,
                               build_flows, build_topology, ecmp_assign, generate_demands,
                               hour_loads, link_latency_us, round6, simulate_tick,
                               uniform_rows)
from spinescale.telemetry import encode_sample

CAP = 10_000_000_000


def quiet_traffic(**overrides) -> TrafficConfig:
    base = dict(base_bps=1_000_000_000, diurnal_amp_bps=0, diurnal_phase_h=0.0,
                burst_rate_per_hour=0.0, burst_size_bps=0.0, noise_bps=0.0, flows_per_pair=4)
    base.update(overrides)
    return TrafficConfig(**base)


# ---------------------------------------------------------------------------
# build_topology
# ---------------------------------------------------------------------------

def test_build_topology_3x5(topo_3x5):
    links = link_table(topo_3x5)
    assert len(links) == 15
    assert topo_3x5.active_spine_ids == [0, 1, 2, 3, 4]
    # complete bipartite: every active spine has one link per leaf
    for sid in topo_3x5.active_spine_ids:
        leaves = sorted(leaf for _, leaf, spine in links if spine == sid)
        assert leaves == [0, 1, 2]


def test_build_topology_minimal():
    topo = build_topology(TopologyConfig(1, 1, CAP, 3.0, min_spines=1))
    links = link_table(topo)
    assert len(links) == 1
    assert links[0][1] == 0 and links[0][2] == 0


def test_build_topology_two_leaves():
    topo = build_topology(TopologyConfig(2, 5, CAP, 3.0))
    assert len(link_table(topo)) == 10
    assert topo.active_spine_ids == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("args", [
    (0, 5, CAP, 3.0),
    (3, 0, CAP, 3.0),
    (3, 5, 0, 3.0),
    (3, 5, CAP, 0.0),
    (3, 5, CAP, -1.0),
])
def test_build_topology_rejects_bad_config(args):
    with pytest.raises(InvalidConfigError):
        build_topology(TopologyConfig(*args))


# ---------------------------------------------------------------------------
# generate_demands
# ---------------------------------------------------------------------------

def test_constant_traffic_all_entries_equal_base():
    cfg = quiet_traffic(base_bps=5_000_000)
    for t in (0, 7, 100):
        dm = generate_demands(cfg, 3, t, seed=1)
        assert set(dm.entries) == {(i, j) for i in range(3) for j in range(3) if i != j}
        assert all(v == 5_000_000 for v in dm.entries.values())


def test_demands_deterministic():
    cfg = quiet_traffic(burst_rate_per_hour=2.0, burst_size_bps=1e8, noise_bps=1e6)
    a = generate_demands(cfg, 3, 13, seed=42)
    b = generate_demands(cfg, 3, 13, seed=42)
    assert a.entries == b.entries
    c = generate_demands(cfg, 3, 13, seed=43)
    assert a.entries != c.entries


def test_diurnal_exactly_periodic_without_bursts_and_noise():
    cfg = quiet_traffic(diurnal_amp_bps=3_000_000, diurnal_phase_h=5.0)
    for t in range(30):
        d_t = generate_demands(cfg, 2, t, seed=9)
        d_t24 = generate_demands(cfg, 2, t + 24, seed=9)
        assert d_t.entries == d_t24.entries
    # and it actually varies across the day
    day = [generate_demands(cfg, 2, t, seed=9).entries[(0, 1)] for t in range(24)]
    assert len(set(day)) > 1


@pytest.mark.parametrize("bps", [-5, 7.9, 3.0, np.float64(4.0), True, "12", None])
def test_a_demand_that_is_not_a_non_negative_integer_is_a_data_error(bps):
    with pytest.raises(DataError, match=r"demand of pair \(1, 0\)"):
        DemandMatrix(t=0, entries={(0, 1): 2, (1, 0): bps})


def test_a_matrix_whose_total_is_not_what_placement_routes_is_rejected():
    # total_bps() read 2.9 here while placement routed 7 bps
    with pytest.raises(DataError, match=r"demand of pair \(0, 1\)"):
        DemandMatrix(t=0, entries={(0, 1): -5, (1, 0): 7.9})


def test_numpy_integer_demands_are_routed_in_full(topo_3x5):
    dm = DemandMatrix(t=0, entries={(0, 1): np.int64(9_000), (1, 2): np.uint32(7), (2, 0): 0})
    assert dm.total_bps() == 9_007
    assert hour_loads(topo_3x5, dm, seed=0).fabric_bps.sum() == 9_007
    # the total is exact where int64 arithmetic would wrap
    big = DemandMatrix(t=0, entries={(0, 1): np.int64(2**62), (1, 0): np.uint64(2**62)})
    assert big.total_bps() == 2**63
    with pytest.raises(DataError, match="int64"):
        hour_loads(topo_3x5, big, seed=0)


def test_demands_never_negative():
    cfg = quiet_traffic(base_bps=1_000, diurnal_amp_bps=50_000, noise_bps=10_000)
    for t in range(48):
        dm = generate_demands(cfg, 3, t, seed=3)
        assert all(v >= 0 for v in dm.entries.values())


# ---------------------------------------------------------------------------
# ecmp_assign
# ---------------------------------------------------------------------------

def test_ecmp_single_spine():
    for fid in (0, 1, 17, 9999):
        assert ecmp_assign(fid, [3], seed=0) == 3


def test_ecmp_empty_spine_list():
    with pytest.raises(NoCapacityError):
        ecmp_assign(1, [], seed=0)


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_ecmp_spread_within_5_percent(seed):
    # brute-force count over all 10,000 assignments
    counts = {s: 0 for s in range(5)}
    for fid in range(10_000):
        counts[ecmp_assign(fid, [0, 1, 2, 3, 4], seed)] += 1
    for s, n in counts.items():
        assert abs(n - 2000) <= 100, f"spine {s} got {n} flows (seed {seed})"


def test_ecmp_codomain_after_removal():
    remaining = [0, 1, 2, 3]
    for fid in range(2_000):
        assert ecmp_assign(fid, remaining, seed=5) in remaining


def test_ecmp_deterministic():
    spines = [0, 1, 2, 3, 4]
    a = [ecmp_assign(fid, spines, seed=11) for fid in range(500)]
    b = [ecmp_assign(fid, spines, seed=11) for fid in range(500)]
    assert a == b


def test_array_placement_equals_scalar_ecmp_assign():
    seeds = [0, 1, -1, 2**32 - 1, 2**63, 2**64 - 1, -2**63] + np.random.default_rng(16).integers(
        -2**63, 2**63 - 1, size=200, endpoint=True).tolist()
    for seed in seeds:
        rng = np.random.default_rng(seed & 0xFFFFFFFF)
        n_leaf, n_spine = int(rng.integers(2, 6)), int(rng.integers(1, 7))
        topo = build_topology(TopologyConfig(
            n_leaf, n_spine, CAP, 3.0, min_spines=1,
            spine_slots=[int(k) for k in rng.integers(1, 5, size=n_spine)]))
        keep = rng.choice(n_spine, size=int(rng.integers(1, n_spine + 1)), replace=False)
        topo.active_spine_ids = sorted(keep.tolist())
        fpp = int(rng.integers(1, 13))
        # a demand below flows_per_pair leaves flows at rate 0, which are not placed
        demands = DemandMatrix(t=0, entries={
            (src, dst): int(rng.choice([0, rng.integers(1, 13), rng.integers(1, CAP)]))
            for src in range(n_leaf) for dst in range(n_leaf) if src != dst})
        flows = build_flows(demands, topo, fpp, seed)
        assert flows.dtype == np.int64 and flows.shape[1:] == (4,)
        assert flows.tolist() == reference_flows(demands, topo, fpp, seed), seed


def test_build_flows_holds_only_nonzero_rate_flows(topo_3x5):
    demands = DemandMatrix(t=0, entries={(0, 1): 3, (1, 2): 0, (2, 0): 16})
    flows = build_flows(demands, topo_3x5, 8, seed=0)
    assert len(flows) == 3 + 8
    assert flows[:, 2].tolist() == [1] * 3 + [2] * 8


# ---------------------------------------------------------------------------
# hour_loads + simulate_tick
# ---------------------------------------------------------------------------

def test_idle_fabric_latency_equals_base(topo_3x5):
    dm = DemandMatrix(t=0, entries={})
    samples = simulate_tick(hour_loads(topo_3x5, dm, seed=0), seed=0, t=0).rows()
    assert len(samples) == 15
    for s in samples:
        assert s.latency_us == 3.0
        assert s.fabric_bps == 0
        assert s.edge_bps == 0


def test_latency_model_half_utilization():
    # rho = 0.5, k = 1, base 3 us -> latency = 3 * (1 + 0.5/0.5) = 6 us
    topo = build_topology(TopologyConfig(2, 1, CAP, 3.0, min_spines=1))
    dm = DemandMatrix(t=0, entries={(0, 1): CAP // 2})
    samples = simulate_tick(hour_loads(topo, dm, seed=0, flows_per_pair=4, queue_factor=1.0),
                            seed=0, t=0).rows()
    by_leaf = {s.link_id % 2: s for s in samples}
    assert by_leaf[0].latency_us == pytest.approx(6.0, abs=1e-9)
    assert by_leaf[1].latency_us == pytest.approx(3.0, abs=1e-9)


def test_load_conservation_single_pair(topo_3x5):
    demand = 123_456_789
    dm = DemandMatrix(t=0, entries={(0, 2): demand})
    samples = simulate_tick(hour_loads(topo_3x5, dm, seed=1), seed=1, t=0).rows()
    assert sum(s.fabric_bps for s in samples) == demand


def test_load_conservation_full_matrix(topo_3x5):
    cfg = quiet_traffic(base_bps=800_000_000)
    dm = generate_demands(cfg, 3, 0, seed=2)
    samples = simulate_tick(hour_loads(topo_3x5, dm, seed=2, flows_per_pair=cfg.flows_per_pair),
                            seed=2, t=0).rows()
    assert sum(s.fabric_bps for s in samples) == dm.total_bps()


def test_edge_speed_counts_both_directions():
    topo = build_topology(TopologyConfig(2, 1, CAP, 3.0, min_spines=1))
    dm = DemandMatrix(t=0, entries={(0, 1): 1000})
    samples = {s.link_id % 2: s
               for s in simulate_tick(hour_loads(topo, dm, seed=0), seed=0, t=0).rows()}
    assert samples[0].edge_bps == 1000   # leaf 0 sends
    assert samples[1].edge_bps == 1000   # leaf 1 receives


def test_latency_monotone_in_utilization():
    rhos = np.linspace(0.0, 1.2, 40)
    lats = [link_latency_us(3.0, r, 1.0) for r in rhos.tolist()]
    assert all(b >= a for a, b in zip(lats, lats[1:]))
    assert lats[0] == 3.0
    # one array call is the scalar calls, bit for bit
    assert link_latency_us(3.0, rhos, 1.0).tobytes() == np.array(lats).tobytes()


def test_overload_clamps_instead_of_crashing():
    topo = build_topology(TopologyConfig(2, 1, 1000, 3.0, min_spines=1))
    dm = DemandMatrix(t=0, entries={(0, 1): 50_000})
    samples = simulate_tick(hour_loads(topo, dm, seed=0), seed=0, t=0).rows()
    for s in samples:
        assert np.isfinite(s.latency_us)
        assert s.fabric_bps <= 1000


def test_speeds_past_int64_are_a_data_error():
    # telemetry columns and the wire format carry int64 speeds only
    topo = build_topology(TopologyConfig(2, 1, 2**53, 3.0, min_spines=1))
    with pytest.raises(DataError):
        hour_loads(topo, DemandMatrix(t=0, entries={(0, 1): 1 << 63}), seed=0)
    hour_loads(topo, DemandMatrix(t=0, entries={(0, 1): (1 << 62) - 1}), seed=0)


def test_a_demand_sum_past_int64_is_a_data_error_not_a_wrapped_speed():
    # every pair fits int64, but leaf 0's edge speed would be 2**63
    topo = build_topology(TopologyConfig(3, 2, CAP, 3.0, min_spines=1))
    with pytest.raises(DataError, match="int64"):
        hour_loads(topo, DemandMatrix(t=0, entries={(0, 1): 2**62, (0, 2): 2**62}), seed=0)


@pytest.mark.parametrize("pair", [(5, 0), (0, 3), (-1, 0), (0, -2), (1, 1)])
def test_a_pair_that_is_not_two_leaves_of_the_fabric_is_a_data_error(pair):
    # (5, 0) would otherwise land on link 5, spine 1's uplink from leaf 2
    topo = build_topology(TopologyConfig(3, 2, CAP, 3.0, min_spines=1))
    with pytest.raises(DataError, match=r"demand pair"):
        hour_loads(topo, DemandMatrix(t=0, entries={(0, 1): 1000, pair: 3_000_000_000}),
                   seed=0)


def test_latency_floor_with_noise_off_random_ticks(topo_3x5):
    cfg = quiet_traffic(base_bps=2_000_000_000, diurnal_amp_bps=1_500_000_000,
                        burst_rate_per_hour=1.0, burst_size_bps=5e8)
    for t in range(50):
        dm = generate_demands(cfg, 3, t, seed=7)
        for s in simulate_tick(hour_loads(topo_3x5, dm, seed=7), seed=7, t=t * 60).rows():
            assert s.latency_us >= 3.0


def test_tick_deterministic_with_noise(topo_3x5):
    cfg = quiet_traffic()
    loads = hour_loads(topo_3x5, generate_demands(cfg, 3, 0, seed=4), seed=4)
    a = simulate_tick(loads, seed=4, t=5, noise_us=0.05).rows()
    b = simulate_tick(loads, seed=4, t=5, noise_us=0.05).rows()
    assert a == b
    c = simulate_tick(loads, seed=4, t=6, noise_us=0.05).rows()
    assert a != c


def test_an_hour_call_equals_its_minutes_concatenated(topo_3x5):
    loads = hour_loads(topo_3x5, generate_demands(quiet_traffic(), 3, 0, seed=4), seed=4)
    for noise_us in (0.0, 0.05):
        hour = simulate_tick(loads, seed=4, t=120, noise_us=noise_us, minutes=60)
        minutes = SampleColumns.concat([simulate_tick(loads, seed=4, t=t, noise_us=noise_us)
                                        for t in range(120, 180)])
        assert len(hour) == 60 * 15
        for got, want in zip(hour.columns(), minutes.columns()):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert hour.ts.tolist() == [t for t in range(120, 180) for _ in range(15)]
    # the batch owns its columns: writing to one leaves the hour's alone
    hour.fabric_bps[0] = 1
    assert loads.fabric_bps[0] != 1


def reference_noise(seed, t, noise_us, n, minutes):
    """One generator per minute, as the simulator used to draw its noise:
    the oracle for the block simulate_tick computes with uniform_rows."""
    noise = np.empty((minutes, n))
    for i in range(minutes):
        rng = np.random.default_rng(derive_seed(seed, f"latency-noise:{t + i}"))
        noise[i] = rng.uniform(-noise_us, noise_us, size=n)
    return noise


@pytest.mark.parametrize("n", [1, 15, 128])
def test_uniform_rows_is_default_rng_uniform_byte_for_byte(n):
    # a copy of numpy's SeedSequence and PCG64: a numpy release that changes
    # either, or a build that fuses low + range * d into one FMA, fails here
    seeds = ([derive_seed(17, f"latency-noise:{t}") for t in range(2_000)]
             + list(range(50)) + [2**32 - 1, 2**32, 2**63, 2**64 - 1])
    for noise_us in (1e-9, 0.15, 1e3):
        want = np.array([np.random.default_rng(s).uniform(-noise_us, noise_us, n)
                         for s in seeds])
        got = uniform_rows(seeds, noise_us, n)
        assert got.dtype == np.float64 and got.shape == (len(seeds), n)
        assert got.tobytes() == want.tobytes(), noise_us


def test_an_hour_of_noise_is_the_per_minute_generators(topo_3x5):
    loads = hour_loads(topo_3x5, generate_demands(quiet_traffic(), 3, 0, seed=4), seed=4)
    for seed, t, minutes, noise_us in [(4, 0, 60, 0.15), (131, 8_580, 60, 0.2),
                                       (2**64 - 1, 7, 3, 1), (0, 60, 1, sys.float_info.max / 2)]:
        got = simulate_tick(loads, seed, t, noise_us=noise_us, minutes=minutes).latency_us
        want = round6((loads.latency_us + reference_noise(seed, t, noise_us, 15, minutes)).ravel())
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got).all()


@pytest.mark.parametrize("noise_us", [1e308, sys.float_info.max, float("inf"), float("nan"),
                                      -float("inf"), 10**400])
def test_a_noise_range_past_float64_is_a_data_error(topo_3x5, noise_us):
    # numpy's uniform needs a finite 2 * noise_us; an array copy would give inf or NaN
    loads = hour_loads(topo_3x5, DemandMatrix(t=0, entries={}), seed=0)
    with pytest.raises(DataError, match="noise_us"):
        simulate_tick(loads, seed=0, t=0, noise_us=noise_us, minutes=60)


def decimal_tie(k: int, ulps: int) -> float:
    """The double nearest (k + 0.5) / 10**6, moved `ulps` (-1, 0 or 1) ulps."""
    x = float(Decimal(2 * k + 1) / 2_000_000)
    return float(np.nextafter(x, np.copysign(np.inf, ulps))) if ulps else x


ties = st.builds(decimal_tie, st.integers(-10**12, 10**12), st.sampled_from([-1, 0, 0, 1]))
round_inputs = st.one_of(
    ties, ties, ties,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 2.0**52 / 1e6,
                     -2.0**52 / 1e6, 1e300, -1e300, 1.7e308, float("nan"), -float("nan"),
                     float("inf"), -float("inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e-6, 1e-6),
    st.floats(-1e10, 1e10))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(round_inputs, max_size=50))
def test_round6_equals_python_round(values):
    got = round6(np.array(values, dtype=np.float64))
    want = np.array([round(v, 6) for v in values], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def reference_flows(demands, topology, flows_per_pair, seed):
    """Flow by flow with scalar ecmp_assign: the oracle for build_flows, as
    [src, dst, rate, spine] rows."""
    slots = [sid for sid in topology.active_spine_ids
             for _ in range(topology.spine_slots[sid])]
    flows = []
    for (src, dst), demand in sorted(demands.entries.items()):
        if demand <= 0:
            continue
        q, r = divmod(demand, flows_per_pair)
        for k in range(flows_per_pair):
            rate = q + 1 if k < r else q
            if rate == 0:
                continue
            fid = (src * topology.n_leaf + dst) * flows_per_pair + k
            flows.append([src, dst, rate, ecmp_assign(fid, slots, seed)])
    return flows


def reference_tick(topology, demands, seed, t, flows_per_pair, queue_factor, noise_us):
    """The simulator as it was when every minute re-placed every flow: the
    oracle for hour_loads + simulate_tick."""
    carried, edge = {}, {}
    for src, dst, rate, spine in reference_flows(demands, topology, flows_per_pair, seed):
        up_link = spine * topology.n_leaf + src
        carried[up_link] = carried.get(up_link, 0) + rate
        edge[src] = edge.get(src, 0) + rate
        edge[dst] = edge.get(dst, 0) + rate
    noise = None
    links = [(spine * topology.n_leaf + leaf, leaf, spine)
             for spine in topology.active_spine_ids for leaf in range(topology.n_leaf)]
    if noise_us > 0:
        rng = np.random.default_rng(derive_seed(seed, f"latency-noise:{t}"))
        noise = rng.uniform(-noise_us, noise_us, size=len(links))
    samples = []
    for idx, (link_id, leaf_id, spine_id) in enumerate(links):
        load = carried.get(link_id, 0)
        latency = link_latency_us(topology.base_latency_us, load / topology.capacity_bps,
                                  queue_factor)
        if noise is not None:
            latency += float(noise[idx])
        samples.append(LinkMetricSample(
            ts=int(t), link_id=link_id, spine_id=spine_id, latency_us=round(latency, 6),
            fabric_bps=min(load, topology.capacity_bps), edge_bps=int(edge.get(leaf_id, 0))))
    return samples


def test_hour_loads_match_per_minute_reference():
    rng = np.random.default_rng(404)
    overloaded = 0
    for trial in range(60):
        n_leaf, n_spine = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        cap = int(rng.integers(1, 4)) * 1_000_000_000
        topo = build_topology(TopologyConfig(
            n_leaf, n_spine, cap, float(rng.uniform(1.0, 5.0)), min_spines=1,
            max_spines=n_spine + 1, spine_slots=[int(k) for k in rng.integers(1, 4, size=n_spine)]))
        if trial % 3:                     # remove spines, then on every other trial add one
            for sid in rng.choice(n_spine, size=min(trial % 3, n_spine - 1), replace=False):
                topo = apply_action(topo, remove_action(int(sid)))
            if trial % 2:
                topo = apply_action(topo, add_action())
        # up to 3x a leaf's capacity per pair: some links clamp at RHO_MAX
        demands = DemandMatrix(t=trial, entries={
            (src, dst): int(rng.integers(0, 3 * cap // (n_leaf - 1)))
            for src in range(n_leaf) for dst in range(n_leaf) if src != dst})
        seed, fpp = int(rng.integers(1 << 31)), int(rng.integers(1, 12))
        queue_factor, noise_us = float(rng.uniform(0.5, 2.0)), 0.2 * (trial % 2)
        hour = hour_loads(topo, demands, seed, flows_per_pair=fpp, queue_factor=queue_factor)
        for t in (trial * 60, trial * 60 + 1, trial * 60 + 59):
            got = simulate_tick(hour, seed, t, noise_us=noise_us).rows()
            want = reference_tick(topo, demands, seed, t, fpp, queue_factor, noise_us)
            assert [encode_sample(s) for s in got] == [encode_sample(s) for s in want]
            assert got == want
            overloaded += any(s.fabric_bps == cap for s in got)
        if trial % 5 == 0:                # a whole hour in one call
            got = simulate_tick(hour, seed, trial * 60, noise_us=noise_us, minutes=60).rows()
            want = [s for t in range(trial * 60, trial * 60 + 60)
                    for s in reference_tick(topo, demands, seed, t, fpp, queue_factor, noise_us)]
            assert [encode_sample(s) for s in got] == [encode_sample(s) for s in want]
            assert got == want
    assert overloaded > 0


def test_a_block_of_hours_is_its_hours_placed_and_loaded_one_by_one():
    rng = np.random.default_rng(25)
    for trial in range(40):
        n_leaf, n_spine = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        topo = build_topology(TopologyConfig(
            n_leaf, n_spine, CAP, 3.0, min_spines=1,
            spine_slots=[int(k) for k in rng.integers(1, 4, size=n_spine)]))
        fpp, seed = int(rng.integers(1, 10)), int(rng.integers(1 << 40))
        # pairs come and go between hours, and some demands are below fpp or 0
        block = [DemandMatrix(t=t, entries={
            (src, dst): int(rng.choice([0, rng.integers(1, 10), rng.integers(1, 3 * CAP)]))
            for src in range(n_leaf) for dst in range(n_leaf)
            if src != dst and rng.random() < 0.8}) for t in range(int(rng.integers(1, 6)))]
        flows = build_flows(block, topo, fpp, seed)
        assert flows.dtype == np.int64 and flows.shape[1] == 3 + len(block)
        assert (flows[:, 2:-1] != 0).any(axis=1).all()
        for h, demands in enumerate(block):
            placed = flows[flows[:, 2 + h] != 0][:, [0, 1, 2 + h, -1]]
            assert placed.tolist() == build_flows(demands, topo, fpp, seed).tolist()
        loads = hour_loads(topo, block, seed, flows_per_pair=fpp, queue_factor=1.5)
        for h, demands in enumerate(block):
            hour = hour_loads(topo, demands, seed, flows_per_pair=fpp, queue_factor=1.5)
            for name in ("fabric_bps", "edge_bps", "latency_us"):
                got, want = getattr(loads, name)[h], getattr(hour, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert np.array_equal(loads.link_id, hour.link_id)
            assert np.array_equal(loads.spine_id, hour.spine_id)
        for noise_us in (0.0, 0.2):
            got = simulate_tick(loads, seed, 60 * trial, noise_us, minutes=60 * len(block))
            want = SampleColumns.concat([
                simulate_tick(hour_loads(topo, d, seed, flows_per_pair=fpp, queue_factor=1.5),
                              seed, 60 * (trial + h), noise_us, minutes=60)
                for h, d in enumerate(block)])
            for a, b in zip(got.columns(), want.columns()):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_block_names_the_hour_whose_demand_sums_past_int64(topo_3x5):
    fine = DemandMatrix(t=4, entries={(0, 1): 2**62})
    past = DemandMatrix(t=5, entries={(0, 1): 2**62, (0, 2): 2**62})
    with pytest.raises(DataError, match="hour 5's demand sums past the int64 range"):
        hour_loads(topo_3x5, [fine, past], seed=0)


def test_a_block_of_no_hours_or_uneven_minutes_is_refused(topo_3x5):
    with pytest.raises(InvalidConfigError, match="at least one hour"):
        hour_loads(topo_3x5, [], seed=0)
    idle = DemandMatrix(t=0, entries={})
    loads = hour_loads(topo_3x5, [idle, idle], seed=0)
    with pytest.raises(InvalidConfigError, match="do not split evenly"):
        simulate_tick(loads, seed=0, t=0, minutes=61)
    assert len(simulate_tick(loads, seed=0, t=0, minutes=2)) == 2 * 15


# ---------------------------------------------------------------------------
# apply_action
# ---------------------------------------------------------------------------

def test_remove_spine_deactivates_links_and_flows(topo_3x5):
    topo = apply_action(topo_3x5, remove_action(4))
    assert topo.active_spine_ids == [0, 1, 2, 3]
    assert all(spine != 4 for _, _, spine in link_table(topo))
    dm = DemandMatrix(t=0, entries={(0, 1): 9_999, (2, 0): 5_000})
    samples = simulate_tick(hour_loads(topo, dm, seed=0), seed=0, t=0).rows()
    assert all(s.spine_id != 4 for s in samples)
    assert sum(s.fabric_bps for s in samples) == 14_999


def test_remove_below_floor_rejected():
    topo = build_topology(TopologyConfig(2, 2, CAP, 3.0, min_spines=2))
    with pytest.raises(PolicyViolationError):
        apply_action(topo, remove_action(1))


def test_remove_unknown_or_inactive_spine(topo_3x5):
    with pytest.raises(NotFoundError):
        apply_action(topo_3x5, remove_action(17))
    topo = apply_action(topo_3x5, remove_action(3))
    with pytest.raises(NotFoundError):
        apply_action(topo, remove_action(3))


def test_add_then_remove_restores_active_set(topo_3x5):
    removed = apply_action(topo_3x5, remove_action(2))
    added = apply_action(removed, add_action())        # reactivates lowest inactive id
    assert added.active_spine_ids == topo_3x5.active_spine_ids
    assert sorted(link for link, _, _ in link_table(added)) == \
        sorted(link for link, _, _ in link_table(topo_3x5))


def test_add_mints_new_spine_when_none_inactive(topo_3x5):
    topo = apply_action(topo_3x5, add_action())
    assert topo.active_spine_ids == [0, 1, 2, 3, 4, 5]
    assert len(link_table(topo)) == 18


def test_add_beyond_max_rejected():
    topo = build_topology(TopologyConfig(2, 3, CAP, 3.0, min_spines=1, max_spines=3))
    with pytest.raises(PolicyViolationError):
        apply_action(topo, add_action())


def test_random_action_sequences_respect_bounds(topo_3x5):
    rng = np.random.default_rng(0)
    topo = topo_3x5
    for _ in range(200):
        active = topo.active_spine_ids
        if rng.random() < 0.5 and len(active) > topo.min_spines:
            topo = apply_action(topo, remove_action(int(rng.choice(active))))
        elif len(active) < topo.max_spines:
            topo = apply_action(topo, add_action())
        n = len(topo.active_spine_ids)
        assert topo.min_spines <= n <= topo.max_spines
        # complete bipartite over the active set at every step
        assert len(link_table(topo)) == n * topo.n_leaf
