import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinescale.errors import DataError, GapError, InsufficientDataError
from spinescale.config import LatencyConfig, SimConfig, TopologyConfig, TrafficConfig
from spinescale.fabric import LinkMetricSample, SampleColumns, build_topology
from spinescale.pipeline import METRICS_TOPIC, simulate_hours, topology_from_config
from spinescale.telemetry import TopicBus
from spinescale.windows import (Scaler, SwitchSeries, aggregate_hourly, make_windows,
                                split_train_val)


def mk_sample(ts, link, spine, lat, fab=100, edg=200):
    return LinkMetricSample(ts=ts, link_id=link, spine_id=spine,
                            latency_us=lat, fabric_bps=fab, edge_bps=edg)


def series(spine_id=0, lat=None, fab=None, edg=None, start_hour=0):
    lat = np.asarray(lat, dtype=float)
    fab = np.asarray(fab if fab is not None else np.zeros_like(lat), dtype=float)
    edg = np.asarray(edg if edg is not None else np.zeros_like(lat), dtype=float)
    return SwitchSeries(spine_id=spine_id, start_hour=start_hour,
                        data=np.column_stack([lat, fab, edg]))


def test_series_data_is_a_read_only_view_that_the_split_shares():
    source = np.arange(30, dtype=float).reshape(10, 3)
    s = SwitchSeries(spine_id=0, start_hour=0, data=source)
    assert np.shares_memory(s.data, source)
    assert not s.data.flags.writeable and source.flags.writeable
    with pytest.raises(ValueError):
        s.data[0, 0] = 1.0
    train, val = split_train_val([s], val_fraction=0.2)
    for side in (train[0], val[0]):
        assert np.shares_memory(side.data, source) and not side.data.flags.writeable


@pytest.mark.parametrize("data", [np.zeros(5), np.zeros((5, 2)), np.zeros((5, 3, 1))])
def test_series_data_must_be_hours_by_channels(data):
    with pytest.raises(DataError, match="spine 4"):
        SwitchSeries(spine_id=4, start_hour=0, data=data)


# ---------------------------------------------------------------------------
# aggregate_hourly
# ---------------------------------------------------------------------------

def test_constant_hour_mean():
    topo = build_topology(TopologyConfig(1, 1, 1000, 3.0, min_spines=1))
    samples = [mk_sample(ts=m, link=0, spine=0, lat=6.0) for m in range(60)]
    out = aggregate_hourly(samples, topo)
    assert len(out) == 1
    assert out[0].data[:, 0].tolist() == [6.0]
    assert out[0].start_hour == 0


def test_arithmetic_mean_of_two_values():
    topo = build_topology(TopologyConfig(1, 1, 1000, 1.0, min_spines=1))
    samples = [mk_sample(ts=m, link=0, spine=0, lat=2.0 if m % 2 == 0 else 4.0)
               for m in range(60)]
    out = aggregate_hourly(samples, topo)
    assert out[0].data[:, 0].tolist() == [3.0]


def test_grouping_two_spines_two_hours():
    # 2 spines x 2 links x 120 minutes -> 2 series, each T = 2
    topo = build_topology(TopologyConfig(2, 2, 1000, 1.0, min_spines=1))
    samples = []
    for m in range(120):
        for link in topo.links:
            samples.append(mk_sample(ts=m, link=link.id, spine=link.spine_id,
                                     lat=1.0 + link.spine_id))
    out = aggregate_hourly(samples, topo)
    assert [s.spine_id for s in out] == [0, 1]
    assert all(len(s) == 2 for s in out)
    assert out[0].data[:, 0].tolist() == [1.0, 1.0]
    assert out[1].data[:, 0].tolist() == [2.0, 2.0]


def test_gap_error_names_spine_and_hour():
    topo = build_topology(TopologyConfig(1, 2, 1000, 1.0, min_spines=1))
    samples = [mk_sample(ts=m, link=s, spine=s, lat=1.0)
               for m in range(180) for s in (0, 1)
               if not (s == 1 and 60 <= m < 120)]   # spine 1 silent in hour 1
    with pytest.raises(GapError, match="spine 1 .*hour 1"):
        aggregate_hourly(samples, topo)


def test_aggregate_permutation_invariant():
    topo = build_topology(TopologyConfig(2, 2, 1000, 1.0, min_spines=1))
    samples = []
    rng = np.random.default_rng(0)
    for m in range(120):
        for link in topo.links:
            samples.append(mk_sample(ts=m, link=link.id, spine=link.spine_id,
                                     lat=float(rng.uniform(1, 9)),
                                     fab=int(rng.integers(0, 1000))))
    a = aggregate_hourly(samples, topo)
    shuffled = list(samples)
    rng.shuffle(shuffled)
    b = aggregate_hourly(shuffled, topo)
    for x, y in zip(a, b):
        assert np.array_equal(x.data, y.data)


def test_aggregate_without_topology_uses_sample_spines():
    samples = [mk_sample(ts=m, link=s, spine=s, lat=1.0) for m in range(60) for s in (0, 3)]
    out = aggregate_hourly(samples, None)
    assert [s.spine_id for s in out] == [0, 3]


def reference_aggregate(samples, topology=None):
    """aggregate_hourly as a per-sample dict loop over the canonical order:
    the oracle for the columnar version."""
    if topology is not None:
        active = topology.active_spine_ids
    else:
        active = sorted({s.spine_id for s in samples})
    samples = sorted(samples, key=lambda s: (s.spine_id, s.ts, s.link_id))
    hours = sorted({s.ts // 60 for s in samples})
    h_min, h_max = hours[0], hours[-1]
    sums, counts = {}, {}
    for s in samples:
        key = (s.spine_id, s.ts // 60)
        if key not in sums:
            sums[key] = np.array([s.latency_us, s.fabric_bps, s.edge_bps], dtype=np.float64)
            counts[key] = 1
        else:
            sums[key] += (s.latency_us, s.fabric_bps, s.edge_bps)
            counts[key] += 1
    out = []
    for spine_id in active:
        rows = np.empty((h_max - h_min + 1, 3))
        for hour in range(h_min, h_max + 1):
            if (spine_id, hour) not in sums:
                raise GapError(f"spine {spine_id} has no samples for hour {hour}")
            rows[hour - h_min] = sums[(spine_id, hour)] / counts[(spine_id, hour)]
        out.append(SwitchSeries(spine_id, h_min, rows))
    return out


def simulated_samples(seed):
    cfg = SimConfig(seed=seed)
    cfg.topology = TopologyConfig(n_leaf=3, n_spine=4, capacity_bps=10_000_000_000,
                                  base_latency_us=3.0, spine_slots=[1, 2, 3, 1])
    cfg.latency = LatencyConfig(queue_factor=1.0, noise_us=0.15)
    cfg.traffic = TrafficConfig(base_bps=6_000_000_000, diurnal_amp_bps=2_000_000_000,
                                noise_bps=300_000_000, flows_per_pair=4)
    topo = topology_from_config(cfg)
    bus = TopicBus()
    simulate_hours(cfg, topo, bus, METRICS_TOPIC, start_hour=5, hours=3, seed=seed)
    return [s for _, s in bus.consume(METRICS_TOPIC)], topo, bus.consume(METRICS_TOPIC, columns=True)


def assert_same_series(got, want):
    assert [(s.spine_id, s.start_hour, len(s)) for s in got] == \
        [(s.spine_id, s.start_hour, len(s)) for s in want]
    for x, y in zip(got, want):
        assert np.array_equal(x.data, y.data)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_aggregate_matches_dict_loop_reference(seed):
    samples, topo, bus_columns = simulated_samples(seed)
    rng = np.random.default_rng(seed)
    shuffled = [samples[i] for i in rng.permutation(len(samples))]
    for data in (samples, shuffled):
        for topology in (topo, None):
            want = reference_aggregate(data, topology)
            assert_same_series(aggregate_hourly(data, topology), want)
            assert_same_series(aggregate_hourly(SampleColumns.from_rows(data), topology), want)
    assert_same_series(aggregate_hourly(bus_columns, topo), reference_aggregate(samples, topo))
    # random values, duplicate keys and spines of unequal link counts, any order
    random = [mk_sample(ts=int(rng.integers(-120, 180)), link=int(rng.integers(0, 4)),
                        spine=int(rng.integers(0, 3)), lat=float(rng.uniform(0, 50)),
                        fab=int(rng.integers(0, 10**10)), edg=int(rng.integers(0, 10**10)))
              for _ in range(3000)]
    assert_same_series(aggregate_hourly(random), reference_aggregate(random))
    assert_same_series(aggregate_hourly(SampleColumns.from_rows(random)),
                       reference_aggregate(random))


@pytest.mark.parametrize("drop", [
    lambda s: s.spine_id == 2 and s.ts // 60 == 6,     # one spine silent for a middle hour
    lambda s: s.spine_id == 0,                        # an active spine never reported
    lambda s: s.spine_id == 3 and s.ts // 60 != 5,    # only the first hour seen
])
def test_aggregate_gap_matches_reference(drop):
    samples, topo, _ = simulated_samples(4)
    kept = [s for s in samples if not drop(s)]
    with pytest.raises(GapError) as want:
        reference_aggregate(kept, topo)
    with pytest.raises(GapError) as got:
        aggregate_hourly(kept, topo)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# Scaler
# ---------------------------------------------------------------------------

def test_scaler_endpoints_and_midpoint():
    s = series(lat=[2.0, 10.0], fab=[0, 1], edg=[0, 1])
    scaler = Scaler.fit([s])
    normed = scaler.transform(np.array([[2.0, 0, 0], [10.0, 1, 1], [6.0, 0.5, 0.5]]))
    assert normed[:, 0].tolist() == [0.0, 1.0, 0.5]


def test_scaler_constant_channel_maps_to_zero_and_inverts():
    s = series(lat=[5.0, 5.0, 5.0], fab=[1, 2, 3], edg=[0, 0, 0])
    scaler = Scaler.fit([s])
    normed = scaler.transform_series(s)
    assert normed.data[:, 0].tolist() == [0.0, 0.0, 0.0]
    back = scaler.invert(normed.data)
    assert np.allclose(back, s.data, rtol=1e-12, atol=0)


def test_scaler_roundtrip_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        data = rng.uniform(-1e6, 1e9, size=(50, 3))
        s = series(lat=data[:, 0], fab=data[:, 1], edg=data[:, 2])
        scaler = Scaler.fit([s])
        back = scaler.invert(scaler.transform(data))
        assert np.allclose(back, data, rtol=1e-9, atol=1e-9)


def test_scaler_latency_helpers_match_channel_zero():
    s = series(lat=[2.0, 10.0], fab=[0, 1], edg=[0, 1])
    scaler = Scaler.fit([s])
    assert scaler.invert_latency(0.5) == 6.0


def test_scaler_rejects_non_finite():
    s = series(lat=[1.0, np.nan], fab=[0, 1], edg=[0, 1])
    with pytest.raises(DataError):
        Scaler.fit([s])
    ok = Scaler.fit([series(lat=[1.0, 2.0], fab=[0, 1], edg=[0, 1])])
    with pytest.raises(DataError):
        ok.transform(np.array([[np.inf, 0, 0]]))


def test_scaler_fitted_on_train_only_leakage_visible():
    # validation values outside the training range land outside [0, 1]
    train = [series(lat=np.linspace(2, 4, 40), fab=np.zeros(40), edg=np.zeros(40))]
    scaler = Scaler.fit(train)
    val = scaler.transform(np.array([[6.0, 0.0, 0.0]]))
    assert val[0, 0] > 1.0


# ---------------------------------------------------------------------------
# make_windows
# ---------------------------------------------------------------------------

def test_window_count_formula():
    s = series(lat=np.arange(10, dtype=float))
    ds = make_windows([s], lookback=3, horizon=1)
    assert len(ds) == 7
    assert ds.inputs.shape == (7, 3, 3)


def test_window_boundary_insufficient():
    s = series(lat=np.arange(3, dtype=float))
    with pytest.raises(InsufficientDataError):
        make_windows([s], lookback=3, horizon=1)


def test_first_window_indices():
    s = series(lat=np.arange(10, dtype=float))
    ds = make_windows([s], lookback=3, horizon=1)
    assert ds.inputs[0, :, 0].tolist() == [0.0, 1.0, 2.0]
    assert ds.targets[0] == 3.0
    assert ds.inputs[-1, :, 0].tolist() == [6.0, 7.0, 8.0]
    assert ds.targets[-1] == 9.0


def test_horizon_two_targets():
    s = series(lat=np.arange(10, dtype=float))
    ds = make_windows([s], lookback=3, horizon=2)
    assert len(ds) == 6
    assert ds.targets[0] == 4.0   # hours 0,1,2 in -> target hour 4


def test_shifting_series_shifts_targets():
    base = np.arange(20, dtype=float)
    ds_a = make_windows([series(lat=base)], lookback=4, horizon=1)
    ds_b = make_windows([series(lat=base + 0, start_hour=1)], lookback=4, horizon=1)
    # same values, shifted start: targets align one-for-one
    assert np.array_equal(ds_a.targets, ds_b.targets)
    # dropping the first hour drops exactly the first window/target pair
    ds_c = make_windows([series(lat=base[1:])], lookback=4, horizon=1)
    assert np.array_equal(ds_a.targets[1:], ds_c.targets)
    assert np.array_equal(ds_a.inputs[1:], ds_c.inputs)


def loop_windows(series_list, lookback, horizon):
    """make_windows as one Python step per window: the oracle for the
    sliding-window version."""
    inputs, targets, labels = [], [], []
    for s in series_list:
        for i in range(len(s) - lookback - horizon + 1):
            inputs.append(s.data[i:i + lookback])
            targets.append(s.data[i + lookback + horizon - 1, 0])
            labels.append(s.spine_id)
    return (np.asarray(inputs, dtype=np.float64), np.asarray(targets, dtype=np.float64),
            np.asarray(labels, dtype=np.int64))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(lookback=st.integers(1, 8), horizon=st.sampled_from([1, 2]),
       extra_hours=st.lists(st.integers(0, 20), min_size=1, max_size=4),
       strided=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(lookback=3, horizon=1, extra_hours=[0], strided=False, seed=0)
@example(lookback=5, horizon=2, extra_hours=[0, 7, 0], strided=True, seed=1)
def test_make_windows_equals_the_per_window_loop(lookback, horizon, extra_hours, strided,
                                                 seed):
    rng = np.random.default_rng(seed)
    series_list = []
    for i, extra in enumerate(extra_hours):
        T = lookback + horizon + extra
        data = rng.uniform(-1.0, 2.0, (2 * T, 3))
        # every other row: the strided rows a split or tail slice can give
        series_list.append(SwitchSeries(spine_id=5 - i, start_hour=i,
                                        data=data[::2] if strided else data[:T]))
    ds = make_windows(series_list, lookback, horizon)
    for got, want in zip((ds.inputs, ds.targets, ds.spine_ids),
                         loop_windows(series_list, lookback, horizon)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_make_windows_of_no_series_is_empty_with_window_shape():
    ds = make_windows([], lookback=4, horizon=2)
    assert ds.inputs.shape == (0, 4, 3) and ds.targets.shape == (0,)
    assert ds.spine_ids.shape == (0,) and ds.spine_ids.dtype == np.int64


def test_windows_stack_switch_labels():
    a = series(spine_id=0, lat=np.arange(6, dtype=float))
    b = series(spine_id=3, lat=np.arange(6, dtype=float) * 2)
    ds = make_windows([a, b], lookback=2, horizon=1)
    assert len(ds) == 8
    assert sorted(set(ds.spine_ids.tolist())) == [0, 3]


# ---------------------------------------------------------------------------
# split + export
# ---------------------------------------------------------------------------

def test_split_train_val_no_straddle():
    s = series(lat=np.arange(10, dtype=float))
    train, val = split_train_val([s], val_fraction=0.2)
    assert len(train[0]) == 8 and len(val[0]) == 2
    assert val[0].start_hour == 8
    assert train[0].data[:, 0].tolist() == list(range(8))
    assert val[0].data[:, 0].tolist() == [8.0, 9.0]


def export_windows(dataset, path) -> int:
    """Write the dataset as columnar text for offline inspection.

    Header then one row per (sample, step):
        sample,spine_id,step,latency,fabric,edge,target
    target is repeated on each of the sample's rows. Returns rows written.
    """
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sample,spine_id,step,latency,fabric,edge,target\n")
        for i in range(len(dataset)):
            sid = int(dataset.spine_ids[i])
            tgt = repr(float(dataset.targets[i]))
            for step in range(dataset.lookback):
                lat, fab, edg = (repr(float(v)) for v in dataset.inputs[i, step])
                fh.write(f"{i},{sid},{step},{lat},{fab},{edg},{tgt}\n")
                rows += 1
    return rows


def test_export_windows_row_count(tmp_path):
    s = series(lat=np.arange(8, dtype=float))
    ds = make_windows([s], lookback=3, horizon=1)
    path = tmp_path / "windows.csv"
    rows = export_windows(ds, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample,spine_id,step,latency,fabric,edge,target"
    assert rows == len(ds) * 3 == len(lines) - 1
