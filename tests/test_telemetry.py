import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HalfWriteHandle
from spinescale.errors import DecodeError, NotFoundError, PersistenceError
from spinescale.fabric import LinkMetricSample
from spinescale.telemetry import TopicBus, decode_sample, encode_sample

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
    assert bus.consume(TOPIC, 5, 10) == []
    assert bus.consume("fabric.metrics", 1) == []


def test_consume_slice():
    bus = TopicBus()
    bus.publish(TOPIC, [sample(ts=ts) for ts in range(8)])
    got = bus.consume(TOPIC, 5, 100)
    assert [off for off, _ in got] == [5, 6, 7]
    assert [s.ts for _, s in got] == [5, 6, 7]


def test_consume_is_pure():
    bus = TopicBus()
    bus.publish(TOPIC, [sample(ts=ts) for ts in range(4)])
    assert bus.consume(TOPIC, 1, 2) == bus.consume(TOPIC, 1, 2)


def test_consume_unknown_topic():
    bus = TopicBus()
    with pytest.raises(NotFoundError):
        bus.consume("nope", 0, 1)


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
    # the write lands 1.5 lines, then raises or reports the short count
    for raises in (True, False):
        path = tmp_path / f"telemetry-{raises}.log"
        with TopicBus() as bus:
            bus.attach(TOPIC, path)
            bus.publish(TOPIC, [sample(ts=0)])
            size = path.stat().st_size
            real = bus._handles[TOPIC]
            bus._handles[TOPIC] = HalfWriteHandle(real, raises=raises)
            with pytest.raises(PersistenceError):
                bus.publish(TOPIC, [sample(ts=1), sample(ts=2), sample(ts=3)])
            assert path.stat().st_size == size        # partial lines cut away
            assert [s.ts for _, s in bus.consume(TOPIC)] == [0]
            bus._handles[TOPIC] = real
            assert bus.publish(TOPIC, [sample(ts=4)]) == 1
        with TopicBus() as reopened:
            assert reopened.attach(TOPIC, path) == 2
            assert [s.ts for _, s in reopened.consume(TOPIC)] == [0, 4]


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
