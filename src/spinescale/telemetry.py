"""Append-only topic bus with optional file backing.

Stands in for a networked broker: the simulator publishes metric samples
to named topics, downstream consumers read them back by offset. One
publisher, many readers; records are immutable once appended, so consume
is safe from concurrent contexts and never blocks the publisher.

Wire format (UTF-8, one record per line, exact key order, unknown keys
rejected):

    ts=<int> link=<int> spine=<int> latency_us=<fixed6> fabric_bps=<int> edge_bps=<int>

latency_us uses fixed 6-decimal formatting; samples are quantized to that
precision at construction, so decode(encode(x)) == x for every field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import DecodeError, NotFoundError, PersistenceError
from .fabric import LinkMetricSample

_FIELD_KEYS = ("ts", "link", "spine", "latency_us", "fabric_bps", "edge_bps")


def encode_sample(sample: LinkMetricSample) -> str:
    """One sample as one wire-format line (no trailing newline)."""
    return (f"ts={sample.ts} link={sample.link_id} spine={sample.spine_id} "
            f"latency_us={sample.latency_us:.6f} "
            f"fabric_bps={sample.fabric_bps} edge_bps={sample.edge_bps}")


def decode_sample(line: str, offset: int | None = None) -> LinkMetricSample:
    """Parse one wire-format line; raises DecodeError naming the offset."""
    where = f" at offset {offset}" if offset is not None else ""
    parts = line.strip().split(" ")
    if len(parts) != len(_FIELD_KEYS):
        raise DecodeError(f"malformed record{where}: expected {len(_FIELD_KEYS)} fields, "
                          f"got {len(parts)}: {line!r}")
    values = {}
    for part, expected_key in zip(parts, _FIELD_KEYS):
        key, sep, value = part.partition("=")
        if not sep or key != expected_key:
            raise DecodeError(f"malformed record{where}: expected key '{expected_key}', "
                              f"got {part!r}")
        values[key] = value
    try:
        return LinkMetricSample(
            ts=int(values["ts"]),
            link_id=int(values["link"]),
            spine_id=int(values["spine"]),
            latency_us=float(values["latency_us"]),
            fabric_bps=int(values["fabric_bps"]),
            edge_bps=int(values["edge_bps"]),
        )
    except ValueError as exc:
        raise DecodeError(f"malformed record{where}: {exc}") from exc


@dataclass
class TopicLog:
    name: str
    records: list[LinkMetricSample] = field(default_factory=list)
    path: Path | None = None


class TopicBus:
    """Named append-only logs, each optionally persisted to one file."""

    def __init__(self) -> None:
        self._topics: dict[str, TopicLog] = {}
        self._handles: dict[str, object] = {}

    def attach(self, topic: str, path: str | Path) -> int:
        """Bind a topic to a backing file, replaying any existing records.

        Returns the number of records loaded. Further publishes append to
        the file; the replayed history is identical to what was published.
        """
        if not topic:
            raise NotFoundError("topic name must be non-empty")
        path = Path(path)
        log = self._topics.setdefault(topic, TopicLog(name=topic))
        log.path = path
        try:
            if path.exists():
                with path.open("r", encoding="utf-8") as fh:
                    for offset, line in enumerate(fh):
                        if not line.strip():
                            continue
                        log.records.append(decode_sample(line, offset=offset))
            self._handles[topic] = path.open("a", encoding="utf-8")
        except OSError as exc:
            raise PersistenceError(f"cannot open backing file {path}: {exc}") from exc
        return len(log.records)

    def publish(self, topic: str, sample: LinkMetricSample) -> int:
        """Append one sample; returns its offset (== previous length).

        If the topic has a backing file the line is written and flushed
        before the in-memory append, so a failed write leaves no record.
        """
        if not topic:
            raise NotFoundError("topic name must be non-empty")
        log = self._topics.setdefault(topic, TopicLog(name=topic))
        handle = self._handles.get(topic)
        if handle is not None:
            try:
                handle.write(encode_sample(sample) + "\n")
                handle.flush()
            except OSError as exc:
                raise PersistenceError(f"write to {log.path} failed: {exc}") from exc
        log.records.append(sample)
        return len(log.records) - 1

    def consume(self, topic: str, from_offset: int = 0,
                max_records: int | None = None) -> list[tuple[int, LinkMetricSample]]:
        """Records [from_offset, from_offset + max_records) that exist.

        Read-only: repeated identical calls return identical results.
        """
        if from_offset < 0:
            raise ValueError(f"from_offset must be >= 0, got {from_offset}")
        if topic not in self._topics:
            raise NotFoundError(f"unknown topic: {topic!r}")
        records = self._topics[topic].records
        end = len(records) if max_records is None else min(len(records), from_offset + max_records)
        return [(i, records[i]) for i in range(min(from_offset, len(records)), end)]

    def length(self, topic: str) -> int:
        if topic not in self._topics:
            raise NotFoundError(f"unknown topic: {topic!r}")
        return len(self._topics[topic].records)

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    def __enter__(self) -> "TopicBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
