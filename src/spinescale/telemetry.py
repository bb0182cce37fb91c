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
Decoding accepts only what the encoder writes (ASCII digits, no sign on
zero, no leading zeros, no `_`, no `nan`), so any line that decodes
re-encodes to itself.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DecodeError, NotFoundError, PersistenceError
from .fabric import LinkMetricSample

INT_PATTERN = r"0|-?[1-9][0-9]*"     # an int as str() writes it
_SAMPLE_LINE = re.compile(
    rf"ts=({INT_PATTERN}) link=({INT_PATTERN}) spine=({INT_PATTERN}) "
    rf"latency_us=(-?(?:0|[1-9][0-9]*)\.[0-9]{{6}}) "
    rf"fabric_bps=({INT_PATTERN}) edge_bps=({INT_PATTERN})\n?")


def encode_sample(sample: LinkMetricSample) -> str:
    """One sample as one wire-format line (no trailing newline)."""
    return (f"ts={sample.ts} link={sample.link_id} spine={sample.spine_id} "
            f"latency_us={sample.latency_us:.6f} "
            f"fabric_bps={sample.fabric_bps} edge_bps={sample.edge_bps}")


def decode_sample(line: str, offset: int | None = None) -> LinkMetricSample:
    """Parse one wire-format line; raises DecodeError naming the offset."""
    match = _SAMPLE_LINE.fullmatch(line)
    if match is not None:
        ts, link, spine, latency, fabric, edge = match.groups()
        value = float(latency)
        if f"{value:.6f}" == latency:      # past 15 digits a decimal may not survive
            try:
                return LinkMetricSample(int(ts), int(link), int(spine), value,
                                        int(fabric), int(edge))
            except ValueError:             # past int()'s digit limit
                pass
    where = f" at offset {offset}" if offset is not None else ""
    raise DecodeError(f"malformed record{where}: {line!r}")


def truncate_torn_line(path: Path) -> None:
    """Cut an append-only file back to its last newline. A last line without
    its newline is a write cut short: replay skips it, and the next append
    starts a fresh line."""
    with path.open("rb") as fh:
        fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
        if fh.read(1) in (b"", b"\n"):     # empty, or ends on a complete line
            return
    with path.open("r+b") as fh:
        fh.truncate(fh.read().rfind(b"\n") + 1)


def append_lines(handle, text: str, path: Path) -> None:
    """Append whole lines through an unbuffered binary handle. If the write
    fails or is cut short, cut the file back to its length before the call,
    so no partial line is left for the next append to run on from, and
    re-raise."""
    data = text.encode("utf-8")
    size = path.stat().st_size
    try:
        if handle.write(data) != len(data):
            raise OSError(f"short write to {path}")
        handle.flush()
    except OSError:
        os.truncate(path, size)
        raise


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
                truncate_torn_line(path)
                with path.open("r", encoding="utf-8") as fh:
                    for offset, line in enumerate(fh):
                        if not line.strip():
                            continue
                        log.records.append(decode_sample(line, offset=offset))
            self._handles[topic] = path.open("ab", buffering=0)
        except OSError as exc:
            raise PersistenceError(f"cannot open backing file {path}: {exc}") from exc
        return len(log.records)

    def publish(self, topic: str, samples: list[LinkMetricSample]) -> int:
        """Append one tick's samples; returns the first one's offset.

        If the topic has a backing file the lines are written in one write
        before the in-memory append, so a failed write leaves no record.
        """
        if not topic:
            raise NotFoundError("topic name must be non-empty")
        log = self._topics.setdefault(topic, TopicLog(name=topic))
        handle = self._handles.get(topic)
        if handle is not None:
            try:
                append_lines(handle, "".join([encode_sample(s) + "\n" for s in samples]), log.path)
            except OSError as exc:
                raise PersistenceError(f"write to {log.path} failed: {exc}") from exc
        log.records.extend(samples)
        return len(log.records) - len(samples)

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
