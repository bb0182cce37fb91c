import pytest

from spinescale.errors import DecodeError, NotFoundError, PersistenceError
from spinescale.fabric import LinkMetricSample
from spinescale.telemetry import TopicBus, decode_sample, encode_sample

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
    assert bus.publish(TOPIC, sample(ts=0)) == 0
    assert bus.publish(TOPIC, sample(ts=1)) == 1
    assert bus.publish(TOPIC, sample(ts=2)) == 2
    assert bus.length(TOPIC) == 3


def test_consume_empty_topic():
    bus = TopicBus()
    bus.publish(TOPIC, sample())
    assert bus.consume(TOPIC, 5, 10) == []
    assert bus.consume("fabric.metrics", 1) == []


def test_consume_slice():
    bus = TopicBus()
    for ts in range(8):
        bus.publish(TOPIC, sample(ts=ts))
    got = bus.consume(TOPIC, 5, 100)
    assert [off for off, _ in got] == [5, 6, 7]
    assert [s.ts for _, s in got] == [5, 6, 7]


def test_consume_is_pure():
    bus = TopicBus()
    for ts in range(4):
        bus.publish(TOPIC, sample(ts=ts))
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
        for s in originals:
            bus.publish(TOPIC, s)

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
            bus.publish(TOPIC, s)
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
        bus.publish(TOPIC, sample(ts=3))
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


def test_attach_failure_is_persistence_error(tmp_path):
    bus = TopicBus()
    with pytest.raises((PersistenceError, DecodeError)):
        bus.attach(TOPIC, tmp_path)  # a directory is not a log file


def test_failed_write_leaves_no_partial_record(tmp_path):
    path = tmp_path / "telemetry.log"
    bus = TopicBus()
    bus.attach(TOPIC, path)
    bus.publish(TOPIC, sample(ts=0))

    class BrokenHandle:
        def write(self, _):
            raise OSError("disk full")

        def flush(self):
            pass

        def close(self):
            pass

    bus._handles[TOPIC] = BrokenHandle()
    with pytest.raises(PersistenceError):
        bus.publish(TOPIC, sample(ts=1))
    assert bus.length(TOPIC) == 1          # atomic: nothing appended
    assert bus.consume(TOPIC, 0)[-1][1].ts == 0
