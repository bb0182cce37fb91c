import math
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import HalfWriteHandle, remove_action
from spinescale import telemetry
from spinescale.config import LatencyConfig, SimConfig, TopologyConfig, TrafficConfig
from spinescale.errors import (ConsistencyError, DataError, DecodeError, NotFoundError,
                               PersistenceError)
from spinescale.fabric import (LinkMetricSample, SampleColumns, apply_action, build_topology,
                               generate_demands, hour_loads, simulate_tick)
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
# the wire domain's latencies: the 6-decimal grid in [0, 10**9), sign bit clear
wire_latencies = st.integers(0, 10**15 - 1).map(lambda k: k / 10**6)


def in_wire_domain(latency: float) -> bool:
    return 0 <= latency < 1e9 and math.copysign(1.0, latency) > 0 and round(latency, 6) == latency


@FUZZ
@given(ts=wire_ints, link=wire_ints, spine=wire_ints, fabric=wire_ints, edge=wire_ints,
       latency=wire_latencies)
def test_decode_roundtrips_any_valid_record(ts, link, spine, fabric, edge, latency):
    s = sample(ts=ts, link=link, spine=spine, latency=latency, fabric=fabric, edge=edge)
    assert decode_sample(encode_sample(s)) == s


@FUZZ
@given(st.one_of(st.floats(), st.floats(0, 2e9)).filter(lambda x: not in_wire_domain(x)))
@example(-0.0)
@example(1e9)
@example(-1e-6)
def test_a_latency_outside_the_wire_domain_is_refused(latency):
    with TopicBus() as bus, pytest.raises(DataError):
        bus.publish(TOPIC, [sample(latency=latency)])
    try:
        decoded = decode_sample(with_value(GOOD_LINE, "latency_us", f"{latency:.6f}"))
    except DecodeError:
        return
    # no line spells an off-grid latency: its text is the grid value it rounds to
    assert 0 <= latency < 1e9 and decoded.latency_us == round(latency, 6) != latency


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


def test_attach_refuses_a_blank_line_at_its_offset(tmp_path):
    good = encode_sample(sample())
    path = tmp_path / "telemetry.log"
    for blank in ("", "  ", "\t", "\r", "\u3000"):
        path.write_bytes(f"{good}\n{blank}\n{good}\n".encode())
        with pytest.raises(DecodeError, match="offset 1:"):
            TopicBus().attach(TOPIC, path)
    path.write_text(f"{good}\n{good}\nts=1 garbage\n\n")
    with pytest.raises(DecodeError, match="offset 2:"):
        TopicBus().attach(TOPIC, path)


def test_a_refusal_names_the_first_bad_line_before_a_later_one_that_is_not_utf8(tmp_path):
    good = encode_sample(sample()).encode()
    path = tmp_path / "telemetry.log"
    path.write_bytes(good + b"\nts=1 garbage\n\xff\n" + good + b"\n")
    with pytest.raises(DecodeError, match="offset 1:"):
        TopicBus().attach(TOPIC, path)
    path.write_bytes(good + b"\n" + good.replace(b"ts=0", b"ts=\xff") + b"\n")
    with pytest.raises(DecodeError, match="offset 1 is not UTF-8"):
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
    """decode_sample on each complete line, a blank one too: the oracle for
    TopicBus.attach."""
    lines = data[:data.rfind(b"\n") + 1].split(b"\n")[:-1]
    return [decode_sample(line.decode("utf-8", "replace"), offset)
            for offset, line in enumerate(lines)]


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


def edit_base_lines() -> list[bytes]:
    """Five minutes of four links, as encode_columns writes them: ints and
    latencies at the edges of the wire domain, for byte edits to cross."""
    links = [(3, 1, 5_000_000_000, 0), (-1, 0, INT64_MAX, -INT64_MAX - 1),
             (7, 2, 0, 10**18), (0, 0, 1, 1)]
    latencies = [0.0, 1e-6, 999999999.999999, 6.25, 3.000001]
    rows = [LinkMetricSample(ts, link, spine, latencies[(ts + i) % 5], fabric, edge)
            for ts in range(-2, 3) for i, (link, spine, fabric, edge) in enumerate(links)]
    return encode_columns(SampleColumns.from_rows(rows)).split(b"\n")[:-1]


EDIT_BASE = edit_base_lines()
# what a byte edit writes: signs, points, zeros, exponents, blanks, an Arabic-Indic digit
EDIT_SYMBOLS = [s.encode() for s in ("-", ".", "0", "+", "e", " ", "\t", "\r", "\u0663")]
byte_edits = st.lists(st.tuples(st.integers(0, len(EDIT_BASE) - 1), st.integers(0, 120),
                                st.sampled_from(["replace", "insert", "delete"]),
                                st.sampled_from(EDIT_SYMBOLS)), min_size=1, max_size=2)


@FUZZ
@given(byte_edits, st.sampled_from([100, 250, 500]))
def test_attach_loads_a_log_iff_decode_sample_takes_every_line(edits, chunk_bytes):
    """One or two byte edits to the lines of a log that spans several
    chunks: attach loads it iff decode_sample takes every line, loads the
    records decode_sample reads, and otherwise names the offset of the
    first line decode_sample refuses."""
    lines = list(EDIT_BASE)
    for row, at, kind, symbol in edits:
        line = lines[row]
        at %= len(line) + 1
        cut = at + (kind != "insert")
        lines[row] = line[:at] + (b"" if kind == "delete" else symbol) + line[cut:]
    data = b"".join(line + b"\n" for line in lines)
    assert len(data) > 2 * chunk_bytes
    try:
        want, refused_at = replay_line_by_line(data), None
    except DecodeError as exc:      # a split UTF-8 symbol is refused by another message
        want, refused_at = None, re.search(r"offset (\d+)", str(exc))[0]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(telemetry, "_CHUNK_BYTES", chunk_bytes), TopicBus() as bus:
        path = Path(tmp) / "telemetry.log"
        path.write_bytes(data)
        if refused_at is not None:
            with pytest.raises(DecodeError, match=f"{refused_at}[: ]"):
                bus.attach(TOPIC, path)
            return
        assert bus.attach(TOPIC, path) == len(want)
        assert [s for _, s in bus.consume(TOPIC)] == want


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


def replay_counting_per_line(data: bytes, tmp_path) -> tuple[int, list | str]:
    """How many lines attach hands to decode_sample while replaying `data`,
    and the records it replays or the DecodeError it raises; no warning
    may escape it."""
    path = tmp_path / "telemetry.log"
    path.write_bytes(data)
    with mock.patch.object(telemetry, "decode_sample", wraps=decode_sample) as per_line, \
            warnings.catch_warnings(record=True) as caught, TopicBus() as bus:
        warnings.simplefilter("always")
        try:
            bus.attach(TOPIC, path)
            got = [s for _, s in bus.consume(TOPIC)]
        except DecodeError as exc:
            got = str(exc)
    assert caught == []
    return per_line.call_count, got


@pytest.mark.parametrize("key, value, batched", [
    # what numpy reads re-encodes to the line: the chunk is taken whole
    ("ts", 10**18 - 1, True), ("ts", 10**18, True), ("ts", -10**18, True),
    ("fabric_bps", 10**18, True), ("ts", INT64_MAX, True), ("edge_bps", -INT64_MAX - 1, True),
    ("latency_us", "999999999.999999", True), ("latency_us", "0.000000", True),
    # what numpy reads re-encodes to other text or to none (a latency outside
    # the wire domain): the log is refused, and decode_sample names offset 1
    ("latency_us", "1000000000.000000", False), ("latency_us", "-1000000000.000000", False),
    ("latency_us", "12345678901.500000", False),
    ("latency_us", "-0.000000", False), ("ts", INT64_MAX + 1, False),
    ("link", -INT64_MAX - 2, False), ("ts", "007", False), ("spine", "-0", False),
    ("edge_bps", "+5", False), ("latency_us", "6.25", False), ("latency_us", "1e3", False),
    ("latency_us", "123456789012.000001", False), ("latency_us", "-0.0000000", False)])
def test_a_chunk_is_taken_whole_iff_what_it_reads_reencodes_to_its_bytes(key, value, batched,
                                                                         tmp_path):
    good = encode_sample(sample())
    data = f"{good}\n{with_value(good, key, value)}\n{good}\n".encode()
    try:
        want = replay_line_by_line(data)
    except DecodeError as exc:
        want = str(exc)
        assert "offset 1:" in want
    per_line, got = replay_counting_per_line(data, tmp_path)
    assert got == want
    assert (per_line == 0) == batched


@pytest.mark.parametrize("key, value", [("ts", "5-5"), ("fabric_bps", "5\x006"),
                                        ("link", "\u0663")])
def test_text_numpy_cannot_read_to_its_end_takes_the_per_line_path(key, value, tmp_path):
    good = encode_sample(sample())
    data = f"{good}\n{with_value(good, key, value)}\n{good}\n".encode()
    with pytest.raises(DecodeError, match="offset 1:") as want:
        replay_line_by_line(data)
    assert replay_counting_per_line(data, tmp_path) == (2, str(want.value))


def spine_removed_log(tmp_path) -> tuple[Path, SampleColumns]:
    """Four simulated hours of a 3x3 fabric, spine 1 removed after the
    second: 9 links a minute, then 6."""
    cfg = SimConfig(seed=7)
    cfg.topology = TopologyConfig(n_leaf=3, n_spine=3, capacity_bps=1_000_000_000,
                                  base_latency_us=3.0, min_spines=2, max_spines=3)
    cfg.latency = LatencyConfig(noise_us=0.2)
    topology = topology_from_config(cfg)
    path = tmp_path / "telemetry.log"
    with TopicBus() as bus:
        bus.attach(TOPIC, path)
        simulate_hours(cfg, topology, bus, TOPIC, 0, 2, seed=11)
        simulate_hours(cfg, apply_action(topology, remove_action(1)), bus, TOPIC, 2, 2, seed=11)
        return path, bus.consume(TOPIC, columns=True)


@pytest.mark.parametrize("cut", ["inside a minute", "at a minute change", "across hours"])
def test_replay_cuts_chunks_at_a_change_of_ts_and_re_encodes_them_whole(cut, tmp_path):
    path, published = spine_removed_log(tmp_path)
    data = path.read_bytes()
    chunk_bytes = {"inside a minute": len(encode_columns(published.slice(0, 9))) * 5 // 2,
                   "at a minute change": len(encode_columns(published.slice(0, 27))),
                   "across hours": len(data) * 3 // 8}[cut]
    assert_replay_equals_line_by_line(data, chunk_bytes)
    with mock.patch.object(telemetry, "decode_sample", side_effect=AssertionError), \
            mock.patch.object(telemetry, "encode_sample", side_effect=AssertionError), \
            mock.patch.object(telemetry, "_CHUNK_BYTES", chunk_bytes), TopicBus() as bus:
        assert bus.attach(TOPIC, path) == len(published) == 2 * 60 * 9 + 2 * 60 * 6
        chunks = bus._topics[TOPIC].chunks
        assert encode_columns(bus.consume(TOPIC, columns=True)) == data
    assert len(chunks) > 2
    assert all(a.ts[-1] != b.ts[0] for a, b in zip(chunks, chunks[1:]))     # whole minutes
    for chunk in chunks:       # each run's link fields are formatted once a minute's links
        links = [chunk.link_id, chunk.spine_id, chunk.fabric_bps, chunk.edge_bps]
        assert {period for _, _, period in telemetry._runs(chunk.ts, links)} <= {9, 6}


def link_tables(chunks: list[SampleColumns]) -> list[bytes]:
    """The link columns of one period of each run of each chunk, as the
    bytes that key the link text encode_columns keeps."""
    tables = []
    for chunk in chunks:
        links = [chunk.link_id, chunk.spine_id, chunk.fabric_bps, chunk.edge_bps]
        tables += [np.array([c[start:start + period] for c in links]).tobytes()
                   for start, _, period in telemetry._runs(chunk.ts, links)]
    return tables


def replay_building_link_text(path: Path, chunk_bytes: int) -> tuple[int, list[SampleColumns]]:
    """How many link tables a cold replay of `path` formats, and the chunks
    it replays; no line may go to the per-line decoder."""
    telemetry._link_words.cache_clear()
    with mock.patch.object(telemetry, "decode_sample", side_effect=AssertionError), \
            mock.patch.object(telemetry, "_CHUNK_BYTES", chunk_bytes), TopicBus() as bus:
        bus.attach(TOPIC, path)
        return telemetry._link_words.cache_info().misses, bus._topics[TOPIC].chunks


@pytest.mark.parametrize("chunk_bytes", [8000, 40000, 1 << 19])
def test_an_hour_of_the_same_links_at_other_speeds_gets_its_own_link_text(chunk_bytes,
                                                                          tmp_path):
    """The second hour has the first's link and spine ids, with fabric
    speeds of more digits and edge speeds of fewer: its link text is not
    the first hour's."""
    cfg = SimConfig(seed=7)
    cfg.topology = TopologyConfig(n_leaf=3, n_spine=3, capacity_bps=1_000_000_000,
                                  base_latency_us=3.0)
    with TopicBus() as bus:
        simulate_hours(cfg, topology_from_config(cfg), bus, TOPIC, 0, 1, seed=11)
        first = bus.consume(TOPIC, columns=True)
    second = replace(first, ts=first.ts + 60, fabric_bps=first.fabric_bps * 1000 + 1,
                     edge_bps=first.edge_bps // 1000)
    path = tmp_path / "telemetry.log"
    with TopicBus() as bus:
        bus.attach(TOPIC, path)
        bus.publish(TOPIC, first)
        bus.publish(TOPIC, second)
    data = path.read_bytes()
    assert_replay_equals_line_by_line(data, chunk_bytes)
    built, chunks = replay_building_link_text(path, chunk_bytes)
    assert built == len(set(link_tables(chunks))) == 2
    assert encode_columns(SampleColumns.concat(chunks)) == data


@pytest.mark.parametrize("cut", ["inside a minute", "at a minute change", "across hours"])
def test_replay_formats_each_link_table_once_however_chunks_cut(cut, tmp_path):
    path, published = spine_removed_log(tmp_path)
    data = path.read_bytes()
    chunk_bytes = {"inside a minute": len(encode_columns(published.slice(0, 9))) * 5 // 2,
                   "at a minute change": len(encode_columns(published.slice(0, 27))),
                   "across hours": len(data) * 3 // 8}[cut]
    built, chunks = replay_building_link_text(path, chunk_bytes)
    tables = link_tables(chunks)
    assert built == len(set(tables)) < len(tables)
    assert encode_columns(SampleColumns.concat(chunks)) == data


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
    assert encode_columns(replayed) == encode_columns(published) == path.read_bytes()


# ---------------------------------------------------------------------------
# the array encoder: what publish writes
# ---------------------------------------------------------------------------

NINE_DIGITS = 999999999.999999      # the widest latency on the wire

BENCH_SHAPED = {
    "ingest-wide": ({"topology": {"n_leaf": 16, "n_spine": 8, "capacity_bps": 10_000_000_000,
                                  "base_latency_us": 3.0, "min_spines": 2, "max_spines": 8},
                     "latency": {"noise_us": 0.2},
                     "traffic": {"base_bps": 1_000_000_000, "diurnal_amp_bps": 400_000_000,
                                 "burst_rate_per_hour": 0.3, "burst_size_bps": 600_000_000,
                                 "noise_bps": 50_000_000, "flows_per_pair": 2}}, [], 12),
    "elastic-loop, spines 0 and 4 removed": (
        {"topology": {"n_leaf": 3, "n_spine": 5, "capacity_bps": 10_000_000_000,
                      "base_latency_us": 3.0, "min_spines": 3, "max_spines": 5,
                      "spine_slots": [1, 3, 3, 3, 1]},
         "latency": {"noise_us": 0.15},
         "traffic": {"base_bps": 12_500_000_000, "diurnal_amp_bps": 1_250_000_000,
                     "noise_bps": 150_000_000, "flows_per_pair": 16}}, [0, 4], 36),
    "noise off": ({"topology": {"n_leaf": 4, "n_spine": 3, "capacity_bps": 1_000_000_000,
                                "base_latency_us": 3.0},
                   "latency": {"noise_us": 0.0},
                   "traffic": {"base_bps": 400_000_000, "flows_per_pair": 4}}, [], 24),
}


def bench_shaped(name: str) -> tuple[SimConfig, object, int]:
    """The config, topology and hours of BENCH_SHAPED[name]."""
    sections, removed, hours = BENCH_SHAPED[name]
    cfg = SimConfig(seed=131)
    cfg.topology = TopologyConfig(**sections["topology"])
    cfg.latency = LatencyConfig(**sections["latency"])
    cfg.traffic = TrafficConfig(**sections["traffic"])
    topology = topology_from_config(cfg)
    for spine in removed:
        topology = apply_action(topology, remove_action(spine))
    return cfg, topology, hours


@pytest.mark.parametrize("name", BENCH_SHAPED)
def test_publish_writes_the_lines_of_encode_sample(name, tmp_path):
    cfg, topology, hours = bench_shaped(name)
    path = tmp_path / "telemetry.log"
    with mock.patch.object(telemetry, "encode_sample", side_effect=AssertionError), \
            TopicBus() as bus:
        bus.attach(TOPIC, path)
        simulate_hours(cfg, topology, bus, TOPIC, 0, hours, seed=17)
        published = bus.consume(TOPIC, columns=True)
    assert len(published) == hours * 60 * topology.n_leaf * len(topology.active_spine_ids)
    assert path.read_bytes() == "".join(encode_sample(s) + "\n"
                                        for s in published.rows()).encode()


def test_replay_of_an_ingest_shaped_log_formats_each_hours_link_text_once(tmp_path):
    cfg, topology, hours = bench_shaped("ingest-wide")
    path = tmp_path / "telemetry.log"
    with TopicBus() as bus:
        bus.attach(TOPIC, path)
        simulate_hours(cfg, topology, bus, TOPIC, 0, hours, seed=17)
    with mock.patch.object(telemetry, "_text_words", wraps=telemetry._text_words) as text:
        built, chunks = replay_building_link_text(path, telemetry._CHUNK_BYTES)
    assert text.call_count == 2 * built <= 2 * hours < len(chunks)    # heads and tails


@pytest.mark.parametrize("latency, kept", [
    (NINE_DIGITS, True), (0.0, True), (1e-6, True), (123456.000001, True),
    (-NINE_DIGITS, False), (-0.0, False), (1e9, False), (-1e9, False), (1e20, False)])
def test_publish_writes_a_latency_of_nine_digits_and_refuses_ten_or_a_sign(latency, kept,
                                                                           tmp_path):
    """The array encoder writes every latency of the wire domain, no row
    by row; what it refuses leaves the file empty. What it writes replays
    bit for bit."""
    batch = [sample(ts=0), sample(ts=1, latency=latency), sample(ts=2)]
    path = tmp_path / "telemetry.log"
    with mock.patch.object(telemetry, "encode_sample", side_effect=AssertionError), \
            TopicBus() as bus:
        bus.attach(TOPIC, path)
        if kept:
            bus.publish(TOPIC, batch)
        else:
            with pytest.raises(DataError):
                bus.publish(TOPIC, batch)
    if not kept:
        assert path.read_bytes() == b""
        return
    assert path.read_bytes() == "".join(encode_sample(s) + "\n" for s in batch).encode()
    with TopicBus() as bus:
        assert bus.attach(TOPIC, path) == 3
        replayed = bus.consume(TOPIC, columns=True).latency_us
    assert replayed.tobytes() == np.array([6.25, latency, 6.25]).tobytes()


def columns_with(**changed) -> SampleColumns:
    return replace(SampleColumns.from_rows([sample(ts=0), sample(ts=1)]), **changed)


@pytest.mark.parametrize("bad", [
    [sample(ts=1.5)], [sample(ts=1.0)], [sample(ts="7")], [sample(link=True)],
    [sample(fabric=2**63)], [sample(latency="6.25")], [sample(latency=True)],
    [sample(latency=5.0000004)], [sample(latency=1e9 + 0.5e-6)], [sample(latency=1e-7)],
    columns_with(ts=np.array([0, 2**63], dtype=np.uint64)),
    columns_with(ts=np.array([0.0, 1.5])), columns_with(ts=np.array([0.0, 1.0])),
    columns_with(spine_id=np.array([True, False])), columns_with(edge_bps=np.array(["1", "2"])),
    columns_with(link_id=np.array([1, 2**64], dtype=object)),
    columns_with(latency_us=np.array([6.25, 5.0000004])),
    columns_with(latency_us=np.array(["6.25", "1.5"])),
    columns_with(ts=np.array([0, 1, 2])), columns_with(ts=np.array([[0], [1]])),
    [sample(latency=float("nan"))], [sample(latency=float("-inf"))],
    # outside the wire domain: a sign, or 10 integer digits
    [sample(latency=-0.0)], [sample(latency=-1e-6)], [sample(latency=-5.0)],
    [sample(latency=1e9)], [sample(latency=1e20)], [sample(latency=float("inf"))],
    columns_with(latency_us=np.array([6.25, -0.0]))],
    ids=lambda bad: repr(bad)[:60])
def test_publish_rejects_what_the_log_cannot_give_back(bad, tmp_path):
    path = tmp_path / "telemetry.log"
    before = callers_state(bad)
    for backed in (True, False):
        with TopicBus() as bus:
            if backed:
                bus.attach(TOPIC, path)
            bus.publish(TOPIC, [sample(ts=0)])
            with pytest.raises(DataError):
                bus.publish(TOPIC, bad)
            assert bus.length(TOPIC) == 1
    assert path.read_bytes() == (encode_sample(sample(ts=0)) + "\n").encode()
    assert callers_state(bad) == before


def callers_state(batch) -> list:
    """What a refused publish leaves as it was: the rows, or each column's
    type, shape, bytes and writability."""
    if isinstance(batch, SampleColumns):
        return [(c.dtype, c.shape, c.tobytes(), c.flags.writeable) for c in batch.columns()]
    return list(batch)


def test_publish_keeps_integer_columns_as_int64(tmp_path):
    batch = columns_with(ts=np.array([0, 2**63 - 1], dtype=np.uint64),
                         spine_id=np.array([1, 1], dtype=np.int32),
                         latency_us=np.array([6, 7], dtype=np.int16))
    path = tmp_path / "telemetry.log"
    with TopicBus() as bus:
        bus.attach(TOPIC, path)
        bus.publish(TOPIC, batch)
        kept = bus.consume(TOPIC, columns=True)
    assert [c.dtype for c in kept.columns()] == [np.int64] * 3 + [np.float64] + [np.int64] * 2
    with TopicBus() as bus:
        bus.attach(TOPIC, path)
        assert bus.consume(TOPIC) == list(enumerate(kept.rows()))
    assert kept.rows()[1] == sample(ts=2**63 - 1, latency=7.0)


@pytest.mark.parametrize("backed", [True, False])
def test_published_columns_are_read_only_and_apart_from_their_owners(backed, tmp_path):
    ints = np.array([[0, 1], [3, 4], [1, 1], [5, 6], [7, 8]])
    latency = np.array([3.5, 4.25])
    batch = SampleColumns(*ints[:3], latency, *ints[3:])   # views of `ints`, `latency` itself
    published = batch.rows()
    path = tmp_path / "telemetry.log"
    with TopicBus() as bus:
        if backed:
            bus.attach(TOPIC, path)
        bus.publish(TOPIC, batch)
        with pytest.raises(ValueError):
            batch.latency_us[0] = 99.0
        ints[:] = 99
        kept = bus.consume(TOPIC)
    assert kept == list(enumerate(published))
    if backed:
        with TopicBus() as bus:
            bus.attach(TOPIC, path)
            assert bus.consume(TOPIC) == kept


@pytest.mark.parametrize("backed", [True, False])
def test_a_batch_the_bus_does_not_keep_leaves_the_callers_columns_writable(backed, tmp_path):
    refused = columns_with(latency_us=np.array([6.25, 5.0000004]))
    accepted = columns_with()
    with TopicBus() as bus:
        if backed:
            bus.attach(TOPIC, tmp_path / "telemetry.log")
        with pytest.raises(DataError):
            bus.publish(TOPIC, refused)
        assert all(c.flags.writeable for c in refused.columns())
        if backed:
            unwritten = columns_with()
            real = bus._topics[TOPIC].file._handle
            bus._topics[TOPIC].file._handle = HalfWriteHandle(real, raises=True)
            with pytest.raises(PersistenceError):
                bus.publish(TOPIC, unwritten)
            bus._topics[TOPIC].file._handle = real
            assert all(c.flags.writeable for c in unwritten.columns())
        bus.publish(TOPIC, accepted)
        assert not any(c.flags.writeable for c in accepted.columns())


# ---------------------------------------------------------------------------
# columns against rows
# ---------------------------------------------------------------------------

wide_ints = st.one_of(st.integers(-INT64_MAX - 1, INT64_MAX), st.integers(-10**4, 10**4))
latencies = st.one_of(wire_latencies, st.floats(0, 1e4).map(lambda x: round(x, 6)),
                      st.sampled_from([0.0, 1e-6, NINE_DIGITS]))
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


def two_hours_with_a_spine_removed() -> list[LinkMetricSample]:
    """Two simulated hours of 3 minutes, the second without spine 1: the
    link fields change between the hours."""
    topology = build_topology(TopologyConfig(n_leaf=3, n_spine=3, capacity_bps=10**9,
                                             base_latency_us=3.0, min_spines=2, max_spines=3))
    traffic = TrafficConfig(base_bps=400_000_000, noise_bps=50_000_000, flows_per_pair=2)
    samples = []
    for hour, topo in enumerate([topology, apply_action(topology, remove_action(1))]):
        loads = hour_loads(topo, generate_demands(traffic, 3, hour, 5), 5, flows_per_pair=2)
        samples += simulate_tick(loads, 5, hour * 60, 0.2, minutes=3).rows()
    return samples


@FUZZ
@given(st.one_of(rows, periodic_rows()))
@example([sample(ts=ts, latency=x) for ts in (0, 1) for x in [NINE_DIGITS, 1e-6, 0.0]])
@example(two_hours_with_a_spine_removed())
def test_batch_encoding_equals_row_encoding(samples):
    batch = SampleColumns.from_rows(samples)
    assert batch.rows() == samples
    assert encode_columns(batch) == "".join(encode_sample(s) + "\n" for s in samples).encode()


@FUZZ
@given(st.lists(periodic_rows(), min_size=2, max_size=4).map(lambda runs: sum(runs, [])))
def test_a_batch_of_several_runs_encodes_as_its_rows(samples):
    assert encode_columns(SampleColumns.from_rows(samples)) == \
        "".join(encode_sample(s) + "\n" for s in samples).encode()


def test_runs_take_in_repeated_minutes_and_merge_minutes_that_repeat_nothing():
    ts = np.array([0, 1, 2, 3, 3, 4, 4, 5, 5])
    link = np.array([7, 8, 9, 1, 2, 1, 2, 3, 4])
    zero = np.zeros(9, dtype=np.int64)
    assert telemetry._runs(ts, [link, zero, zero, zero]) == [(0, 3, 3), (3, 7, 2), (7, 9, 2)]
    assert telemetry._runs(ts[3:7], [link[3:7], zero[:4], zero[:4], zero[:4]]) == [(0, 4, 2)]


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
