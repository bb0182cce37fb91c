import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HalfWriteHandle
from spinescale import telemetry
from spinescale.config import LatencyConfig, SimConfig, TopologyConfig
from spinescale.errors import (ConsistencyError, DataError, DecodeError, NotFoundError,
                               PersistenceError)
from spinescale.fabric import LinkMetricSample, SampleColumns
from spinescale.pipeline import simulate_hours, topology_from_config
from spinescale.telemetry import (AppendLog, TopicBus, decode_sample, encode_columns,
                                  encode_sample)

FUZZ = settings(derandomize=True, deadline=None, max_examples=300)

TOPIC = "fabric.metrics"


def sample(ts=0, link=3, spine=1, latency=6.25, fabric=5_000_000_000, edge=7_500_000_000):
    return LinkMetricSample(ts=ts, link_id=link, spine_id=spine,
                            latency_us=latency, fabric_bps=fabric, edge_bps=edge)


def test_wire_format_exact():
    line = encode_sample(sample())
    assert line == "ts=0 link=3 spine=1 latency_us=6.250000 fabric_bps=5000000000 edge_bps=7500000000"


@pytest.mark.parametrize("s", [
    sample(),
    sample(ts=0, link=0, spine=0, latency=0.0, fabric=0, edge=0),
    sample(ts=10**9, link=149, spine=9, latency=2949.999999, fabric=10_000_000_000, edge=0),
    sample(latency=3.000001),
    sample(latency=round(3.0 * (1 + 0.4937 / 0.5063), 6)),
])
def test_roundtrip_identity(s):
    assert decode_sample(encode_sample(s)) == s


def test_publish_offsets_gapless():
    bus = TopicBus()
    assert bus.publish(TOPIC, [sample(ts=0)]) == 0
    assert bus.publish(TOPIC, [sample(ts=1), sample(ts=2)]) == 1
    assert bus.publish(TOPIC, []) == 3
    assert bus.publish(TOPIC, [sample(ts=3)]) == 3
    assert bus.length(TOPIC) == 4


def test_consume_empty_topic():
    bus = TopicBus()
    bus.publish(TOPIC, [sample()])
    assert bus.consume(TOPIC, 5) == []
    assert bus.consume("fabric.metrics", 1) == []


def test_consume_slice():
    bus = TopicBus()
    bus.publish(TOPIC, [sample(ts=ts) for ts in range(8)])
    got = bus.consume(TOPIC, 5)
    assert [off for off, _ in got] == [5, 6, 7]
    assert [s.ts for _, s in got] == [5, 6, 7]


def test_consume_is_pure():
    bus = TopicBus()
    bus.publish(TOPIC, [sample(ts=ts) for ts in range(4)])
    assert bus.consume(TOPIC, 1) == bus.consume(TOPIC, 1)


def test_consume_unknown_topic():
    bus = TopicBus()
    with pytest.raises(NotFoundError):
        bus.consume("nope", 0)


def test_publish_then_reopen_roundtrip(tmp_path):
    path = tmp_path / "telemetry.log"
    originals = [sample(ts=i, latency=3.0 + i * 0.111111) for i in range(5)]
    with TopicBus() as bus:
        bus.attach(TOPIC, path)
        bus.publish(TOPIC, originals[:2])
        bus.publish(TOPIC, originals[2:])

    with TopicBus() as reopened:
        assert reopened.attach(TOPIC, path) == 5
        got = reopened.consume(TOPIC, 0)
        assert [s for _, s in got] == originals


def test_persisted_log_matches_memory_golden(tmp_path):
    path = tmp_path / "telemetry.log"
    with TopicBus() as bus:
        bus.attach(TOPIC, path)
        records = [sample(ts=i, link=i % 3, fabric=i * 1000) for i in range(10)]
        for s in records:
            bus.publish(TOPIC, [s])
        expected_lines = [encode_sample(s) for s in records]
    assert path.read_text().splitlines() == expected_lines


def test_malformed_line_names_offset(tmp_path):
    path = tmp_path / "telemetry.log"
    good = encode_sample(sample())
    path.write_text(good + "\n" + good + "\nts=1 garbage\n")
    bus = TopicBus()
    with pytest.raises(DecodeError, match="offset 2"):
        bus.attach(TOPIC, path)


def test_torn_last_line_dropped_and_truncated(tmp_path):
    path = tmp_path / "telemetry.log"
    good = encode_sample(sample(ts=0)) + "\n" + encode_sample(sample(ts=1)) + "\n"
    path.write_text(good + encode_sample(sample(ts=2))[:30])
    with TopicBus() as bus:
        assert bus.attach(TOPIC, path) == 2
        assert path.read_text() == good
        bus.publish(TOPIC, [sample(ts=3)])
    with TopicBus() as reopened:
        assert reopened.attach(TOPIC, path) == 3
        assert [s.ts for _, s in reopened.consume(TOPIC)] == [0, 1, 3]


def test_parser_rejects_unknown_keys_and_reordering():
    line = encode_sample(sample())
    reordered = " ".join(sorted(line.split(" "), reverse=True))
    with pytest.raises(DecodeError):
        decode_sample(reordered)
    with pytest.raises(DecodeError):
        decode_sample(line + " extra=1")
    with pytest.raises(DecodeError):
        decode_sample(line.replace("spine=", "switch="))
    # values the encoder never writes
    for old, new in [("ts=0", "ts=1_0"), ("ts=0", "ts=\u0663"), ("ts=0", "ts=-0"),
                     ("ts=0", "ts=00"), ("link=3", "link= 3"),
                     ("latency_us=6.250000", "latency_us=nan"),
                     ("latency_us=6.250000", "latency_us=3"),
                     ("latency_us=6.250000", "latency_us=6.25"),
                     ("latency_us=6.250000", "latency_us=06.250000"),
                     ("latency_us=6.250000", "latency_us=12345678901234567.000001"),
                     ("fabric_bps=5000000000", "fabric_bps=+5"),
                     ("ts=0", "ts=" + "1" * 5000)]:    # past int()'s digit limit
        with pytest.raises(DecodeError):
            decode_sample(line.replace(old, new))
    with pytest.raises(DecodeError):
        decode_sample(" " + line)


def test_attach_failure_is_persistence_error(tmp_path):
    bus = TopicBus()
    with pytest.raises((PersistenceError, DecodeError)):
        bus.attach(TOPIC, tmp_path)  # a directory is not a log file


def test_failed_write_leaves_no_partial_record(tmp_path):
    # N good appends, the first three before the file is reopened; then a
    # write that lands 1.5 lines and raises or reports the short count must
    # leave exactly the N appends' bytes, also after a good append between
    # two failures
    for raises in (True, False):
        path = tmp_path / f"telemetry-{raises}.log"
        with TopicBus() as bus:
            bus.attach(TOPIC, path)
            for ts in range(3):
                bus.publish(TOPIC, [sample(ts=ts)] * (ts + 1))
        with TopicBus() as bus:
            assert bus.attach(TOPIC, path) == 6
            real = bus._topics[TOPIC].file._handle
            for ts in (3, 4):
                bus.publish(TOPIC, [sample(ts=ts)])
                good = path.read_bytes()
                bus._topics[TOPIC].file._handle = HalfWriteHandle(real, raises=raises)
                with pytest.raises(PersistenceError):
                    bus.publish(TOPIC, [sample(ts=9), sample(ts=9), sample(ts=9)])
                assert path.read_bytes() == good      # partial lines cut away
                bus._topics[TOPIC].file._handle = real
            assert [s.ts for _, s in bus.consume(TOPIC)] == [0, 1, 1, 2, 2, 2, 3, 4]
            assert bus.publish(TOPIC, [sample(ts=5)]) == 8
        with TopicBus() as reopened:
            assert reopened.attach(TOPIC, path) == 9
            assert [s.ts for _, s in reopened.consume(TOPIC)] == [0, 1, 1, 2, 2, 2, 3, 4, 5]


def test_append_log_replays_the_whole_lines_and_cuts_a_torn_one(tmp_path):
    path = tmp_path / "any.log"
    path.write_bytes(b"a\n\r\n\nb\ntor")
    log = AppendLog(path)
    assert log.replay(bytes) == b"a\n\r\n\nb\n"
    assert path.read_bytes() == b"a\n\r\n\nb\n" and log.size == 7
    log.append(b"c\n")
    log.close()
    assert path.read_bytes() == b"a\n\r\n\nb\nc\n"


def test_append_log_closes_its_file_if_replay_fails(tmp_path):
    def refuse(lines: bytes):
        raise DecodeError("refused")

    log = AppendLog(tmp_path / "any.log")
    with pytest.raises(DecodeError):
        log.replay(refuse)
    assert log._handle.closed


# ---------------------------------------------------------------------------
# decode_sample fuzzing
# ---------------------------------------------------------------------------

wire_ints = st.integers(-10**18, 10**18)


@FUZZ
@given(ts=wire_ints, link=wire_ints, spine=wire_ints, fabric=wire_ints, edge=wire_ints,
       latency=st.floats(-1e9, 1e9).map(lambda x: round(x, 6)))
def test_decode_roundtrips_any_valid_record(ts, link, spine, fabric, edge, latency):
    s = sample(ts=ts, link=link, spine=spine, latency=latency, fabric=fabric, edge=edge)
    assert decode_sample(encode_sample(s)) == s


# lines made of the wire keys (and a stray one) with arbitrary values
near_records = st.lists(st.tuples(st.sampled_from(("ts", "link", "spine", "latency_us",
                                                   "fabric_bps", "edge_bps", "x")),
                                  st.text(max_size=8)), max_size=8).map(
    lambda parts: " ".join(f"{k}={v}" for k, v in parts))


# a valid line with one field's value replaced, often by a number or a near miss
GOOD_LINE = encode_sample(sample())
number_like = st.text("0123456789-+._einaf", max_size=10)
one_value_changed = st.tuples(st.integers(0, 5),
                              st.one_of(st.text(max_size=8), number_like)).map(
    lambda change: " ".join(part.split("=")[0] + "=" + change[1] if i == change[0] else part
                            for i, part in enumerate(GOOD_LINE.split(" "))))


@FUZZ
@given(st.one_of(st.text(), near_records, one_value_changed))
def test_decode_rejects_any_text_with_decode_error_only(line):
    try:
        decoded = decode_sample(line, offset=7)
    except DecodeError as exc:
        assert "offset 7" in str(exc)
    else:
        assert encode_sample(decoded) == line.removesuffix("\n")


# ---------------------------------------------------------------------------
# attach: what it refuses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("first, second, bad_offset", [("\r\n", "\r", 0), ("\n", "\r\n", 1),
                                                       ("\n", "\r", 1)])
def test_attach_rejects_carriage_returns_between_records(first, second, bad_offset, tmp_path):
    lines = [encode_sample(sample(ts=ts)) for ts in range(3)]
    path = tmp_path / "telemetry.log"
    path.write_bytes((lines[0] + first + lines[1] + second + lines[2] + "\n").encode())
    with pytest.raises(DecodeError, match=f"offset {bad_offset}"):
        TopicBus().attach(TOPIC, path)


def test_attach_skips_blank_lines_and_counts_them_in_offsets(tmp_path):
    good = encode_sample(sample())
    path = tmp_path / "telemetry.log"
    path.write_text(f"\n{good}\n  \n\t\n{good}\n")
    with TopicBus() as bus:
        assert bus.attach(TOPIC, path) == 2
    path.write_text(f"\n{good}\n  \n{good}\nts=1 garbage\n")
    with pytest.raises(DecodeError, match="offset 4"):
        TopicBus().attach(TOPIC, path)


def test_attach_refuses_a_topic_with_records_or_a_backing_file(tmp_path):
    path = tmp_path / "telemetry.log"
    with TopicBus() as bus:
        bus.attach(TOPIC, path)
        bus.publish(TOPIC, [sample(ts=0), sample(ts=1)])
        handle = bus._topics[TOPIC].file._handle
        with pytest.raises(ConsistencyError):
            bus.attach(TOPIC, path)
        assert bus.length(TOPIC) == 2
        assert bus._topics[TOPIC].file._handle is handle and not handle.closed
    assert handle.closed

    other = tmp_path / "other.log"
    other.write_text(encode_sample(sample(ts=9)) + "\n")
    with TopicBus() as bus:
        bus.publish(TOPIC, [sample(ts=0), sample(ts=1)])
        with pytest.raises(ConsistencyError):
            bus.attach(TOPIC, other)
        assert [s.ts for _, s in bus.consume(TOPIC)] == [0, 1]
        assert bus._topics[TOPIC].file is None


# ---------------------------------------------------------------------------
# int64 wire contract
# ---------------------------------------------------------------------------

INT64_MAX = (1 << 63) - 1
WIRE_INTS = {"ts": "ts", "link": "link_id", "spine": "spine_id",
             "fabric_bps": "fabric_bps", "edge_bps": "edge_bps"}   # wire key -> field


def with_value(line: str, key: str, value) -> str:
    return " ".join(f"{key}={value}" if part.startswith(f"{key}=") else part
                    for part in line.split(" "))


@pytest.mark.parametrize("key, field", WIRE_INTS.items())
def test_ints_are_int64_on_the_wire(key, field, tmp_path):
    line = encode_sample(sample())
    for edge in (INT64_MAX, -INT64_MAX - 1):
        edge_line = with_value(line, key, edge)
        assert encode_sample(decode_sample(edge_line)) == edge_line
    for past in (INT64_MAX + 1, -INT64_MAX - 2, 10**19 - 1):
        with pytest.raises(DecodeError):
            decode_sample(with_value(line, key, past))

    path = tmp_path / "telemetry.log"
    kept = replace(sample(), **{field: INT64_MAX})
    with TopicBus() as bus:
        bus.attach(TOPIC, path)
        bus.publish(TOPIC, [kept])
        for past in (INT64_MAX + 1, -INT64_MAX - 2):
            with pytest.raises(DataError):
                bus.publish(TOPIC, [sample(ts=1), replace(sample(), **{field: past})])
        assert [s for _, s in bus.consume(TOPIC)] == [kept]
    assert path.read_text() == encode_sample(kept) + "\n"


def test_publish_rejects_non_finite_latency(tmp_path):
    path = tmp_path / "telemetry.log"
    with TopicBus() as bus:
        bus.attach(TOPIC, path)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DataError):
                bus.publish(TOPIC, [sample(ts=0), sample(ts=1, latency=bad)])
        assert bus.length(TOPIC) == 0
    assert path.read_bytes() == b""


# ---------------------------------------------------------------------------
# batched decoder against decode_sample, line by line
# ---------------------------------------------------------------------------

FIXED_LIMIT_TEXTS = ["999999999.999999", "-999999999.999999", "1000000000.000000",
                     "-1000000000.000000", "123456789012.000001",
                     "9223372036854.775807", "-9223372036854.775808", "9223372036854.775808",
                     "100000000000000000000.000000", "-0.000001", "-0.000000", "0.000000",
                     "-3.250000", "6.250000"]
edge_ints = st.sampled_from([0, 1, -1, INT64_MAX, -INT64_MAX - 1, INT64_MAX + 1,
                             -INT64_MAX - 2, 10**19 - 1, 10**18 - 1, -(10**18 - 1),
                             10**18, -10**18])
line_ints = st.one_of(edge_ints, st.integers(-10**6, 10**12))
latency_texts = st.one_of(st.sampled_from(FIXED_LIMIT_TEXTS),
                          st.floats(-1e4, 1e4).map(lambda x: f"{round(x, 6):.6f}"))
record_texts = st.builds(
    lambda ts, link, spine, lat, fab, edge:
        f"ts={ts} link={link} spine={spine} latency_us={lat} fabric_bps={fab} edge_bps={edge}",
    line_ints, line_ints, line_ints, latency_texts, line_ints, line_ints)
odd_lines = st.one_of(st.sampled_from(["", " ", "\t", "\x0c", "\r", "　"]),
                      one_value_changed, st.text(max_size=12))
log_texts = st.tuples(
    st.lists(st.one_of(record_texts, record_texts, record_texts, odd_lines), max_size=12),
    st.one_of(st.just(""), record_texts.map(lambda r: r[:20])),   # a torn last line
    st.sampled_from([64, 200, 1 << 19]))                          # decoder chunk size


def replay_line_by_line(data: bytes) -> list[LinkMetricSample]:
    """decode_sample on each complete line, blank lines skipped: the oracle
    for TopicBus.attach."""
    lines = data[:data.rfind(b"\n") + 1].split(b"\n")[:-1]
    return [decode_sample(text, offset)
            for offset, text in enumerate(line.decode("utf-8", "replace") for line in lines)
            if text.strip()]


def assert_replay_equals_line_by_line(data: bytes, chunk_bytes: int) -> None:
    try:
        want, want_error = replay_line_by_line(data), None
    except DecodeError as exc:
        want, want_error = None, str(exc)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(telemetry, "_CHUNK_BYTES", chunk_bytes):
        path = Path(tmp) / "telemetry.log"
        path.write_bytes(data)
        bus = TopicBus()
        try:
            count = bus.attach(TOPIC, path)
        except DecodeError as exc:
            assert str(exc) == want_error
            return
        finally:
            bus.close()
        assert want_error is None
        got = [s for _, s in bus.consume(TOPIC)]
    assert count == len(got) == len(want)
    assert got == want
    assert [encode_sample(s) for s in got] == [encode_sample(s) for s in want]


@FUZZ
@given(log_texts)
def test_batched_replay_equals_line_by_line_decode(log):
    lines, torn, chunk_bytes = log
    assert_replay_equals_line_by_line(
        "".join(line + "\n" for line in lines).encode() + torn.encode(), chunk_bytes)


@pytest.mark.parametrize("chunk_bytes", [64, 1 << 19])
@pytest.mark.parametrize("latency", FIXED_LIMIT_TEXTS)
def test_batched_replay_at_the_fixed_point_limits(latency, chunk_bytes):
    good = encode_sample(sample())
    line = with_value(good, "latency_us", latency)
    assert_replay_equals_line_by_line(f"{good}\n{line}\n{good}\n".encode(), chunk_bytes)


@pytest.mark.parametrize("chunk_bytes", [64, 1 << 19])
@pytest.mark.parametrize("value", [INT64_MAX, -INT64_MAX - 1, INT64_MAX + 1, -INT64_MAX - 2,
                                   10**18 - 1, -(10**18 - 1), 10**18, -10**18])
@pytest.mark.parametrize("key", ["ts", "link", "edge_bps"])
def test_batched_replay_at_the_int64_limits(key, value, chunk_bytes):
    good = encode_sample(sample())
    line = with_value(good, key, value)
    assert_replay_equals_line_by_line(f"{good}\n{line}\n{good}\n".encode(), chunk_bytes)


def line_by_line_decodes(data: bytes, tmp_path) -> int:
    """How many lines attach hands to decode_sample while replaying `data`."""
    path = tmp_path / "telemetry.log"
    path.write_bytes(data)
    with mock.patch.object(telemetry, "decode_sample", wraps=decode_sample) as per_line, \
            TopicBus() as bus:
        bus.attach(TOPIC, path)
    return per_line.call_count


@pytest.mark.parametrize("key, value, per_line", [
    ("ts", 10**18 - 1, 0), ("ts", -(10**18 - 1), 0), ("ts", 10**18, 3), ("ts", -10**18, 3),
    ("fabric_bps", 10**18 - 1, 0), ("fabric_bps", 10**18, 3),
    ("latency_us", "999999999.999999", 0), ("latency_us", "-999999999.999999", 0),
    ("latency_us", "1000000000.000000", 3), ("latency_us", "-1000000000.000000", 3)])
def test_the_batched_decoder_takes_18_digit_ints_and_9_digit_latencies(key, value, per_line,
                                                                       tmp_path):
    good = encode_sample(sample())
    line = with_value(good, key, value)
    assert line_by_line_decodes(f"{good}\n{line}\n{good}\n".encode(), tmp_path) == per_line


def test_a_simulated_log_replays_without_the_per_line_decoder(tmp_path):
    cfg = SimConfig(seed=7)
    cfg.topology = TopologyConfig(n_leaf=3, n_spine=2, capacity_bps=1_000_000_000,
                                  base_latency_us=3.0, min_spines=1, max_spines=4)
    cfg.latency = LatencyConfig(noise_us=0.2)
    path = tmp_path / "telemetry.log"
    with TopicBus() as bus:
        bus.attach(TOPIC, path)
        simulate_hours(cfg, topology_from_config(cfg), bus, TOPIC, 0, 4, seed=11)
        published = bus.consume(TOPIC, columns=True)
    with mock.patch.object(telemetry, "decode_sample", side_effect=AssertionError), \
            mock.patch.object(telemetry, "_CHUNK_BYTES", 4096), TopicBus() as bus:
        assert bus.attach(TOPIC, path) == len(published) == 4 * 60 * 6
        replayed = bus.consume(TOPIC, columns=True)
    assert encode_columns(replayed) == encode_columns(published) == path.read_text()


# ---------------------------------------------------------------------------
# columns against rows
# ---------------------------------------------------------------------------

wide_ints = st.one_of(st.integers(-INT64_MAX - 1, INT64_MAX), st.integers(-10**4, 10**4))
latencies = st.one_of(st.floats(-1e12, 1e12).map(lambda x: round(x, 6)),
                      st.sampled_from([0.0, -0.0, -1e-6, 1e20]))
rows = st.lists(st.builds(LinkMetricSample, wide_ints, wide_ints, wide_ints, latencies,
                          wide_ints, wide_ints), max_size=40)


@st.composite
def periodic_rows(draw):
    """Batches shaped like a simulated hour: one tick's link fields tiled k
    times, with fresh ts (one per copy, or one per row) and latency per
    row; as they are, with one link cell changed, or cut short of whole
    periods."""
    links = draw(st.lists(st.tuples(wide_ints, wide_ints, wide_ints, wide_ints),
                          min_size=1, max_size=6))
    k = draw(st.integers(1, 6))
    copy_ts = draw(st.lists(st.one_of(st.integers(0, 3), wide_ints), min_size=k, max_size=k))
    ts_per_row = draw(st.booleans())
    samples = [LinkMetricSample(draw(wide_ints) if ts_per_row else copy_ts[c], link, spine,
                                draw(latencies), fabric, edge)
               for c in range(k) for link, spine, fabric, edge in links]
    change = draw(st.sampled_from(["none", "none", "cell", "cut"]))
    if change == "cell":
        i = draw(st.integers(0, len(samples) - 1))
        name = draw(st.sampled_from(["link_id", "spine_id", "fabric_bps", "edge_bps"]))
        samples[i] = replace(samples[i], **{name: draw(wide_ints)})
    elif change == "cut":
        samples = samples[:draw(st.integers(1, len(samples)))]
    return samples


@FUZZ
@given(st.one_of(rows, periodic_rows()))
def test_batch_encoding_equals_row_encoding(samples):
    batch = SampleColumns.from_rows(samples)
    assert batch.rows() == samples
    assert encode_columns(batch) == "".join(encode_sample(s) + "\n" for s in samples)


@FUZZ
@given(st.lists(st.tuples(rows, st.booleans()), max_size=6), st.integers(0, 200))
def test_consume_returns_the_published_rows(batches, start):
    bus = TopicBus()
    bus.publish(TOPIC, [])
    published = []
    for samples, as_columns in batches:
        bus.publish(TOPIC, SampleColumns.from_rows(samples) if as_columns else samples)
        published.extend(samples)
    assert bus.consume(TOPIC, start) == list(enumerate(published))[start:]
    assert bus.consume(TOPIC, start, columns=True).rows() == published[start:]
