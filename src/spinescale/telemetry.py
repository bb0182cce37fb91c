"""Append-only topic bus with optional file backing.

Stands in for a networked broker: the simulator publishes metric samples
to named topics, downstream consumers read them back by offset. One
publisher, many readers; records are immutable once appended, so consume
is safe from concurrent contexts and never blocks the publisher.

Records are kept as the `SampleColumns` chunks they were published or
replayed in; `consume` hands them over as columns, or builds
LinkMetricSample rows when a caller asks for rows.

Wire format (UTF-8, one record per line, exact key order, unknown keys
rejected):

    ts=<int> link=<int> spine=<int> latency_us=<fixed6> fabric_bps=<int> edge_bps=<int>

latency_us uses fixed 6-decimal formatting; samples are quantized to that
precision at construction, so decode(encode(x)) == x for every field.
Every int is an int64. Decoding accepts only what the encoder writes
(ASCII digits, no sign on zero, no leading zeros, no `_`, no `nan`), so
any line that decodes re-encodes to itself.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConsistencyError, DataError, DecodeError, NotFoundError, PersistenceError
from .fabric import LinkMetricSample, SampleColumns

INT_PATTERN = r"0|-?[1-9][0-9]*"     # an int as str() writes it
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
_INT = r"(?:0|-?[1-9][0-9]{0,18})"  # at most int64's 19 digits; the range is checked after
_FIXED6 = r"-?(?:0|[1-9][0-9]*)\.[0-9]{6}"
_SAMPLE_LINE = re.compile(
    rf"ts=({_INT}) link=({_INT}) spine=({_INT}) latency_us=({_FIXED6}) "
    rf"fabric_bps=({_INT}) edge_bps=({_INT})\n?")
# What the batched decoder takes: ints of at most 18 digits, which int64
# holds whatever they are (np.fromstring saturates past int64 without a
# word), and latencies of at most 9 integer digits, whose 15-digit
# fixed-point value is exact as a float. The repeat is possessive: a
# greedy one keeps a backtrack entry per line.
_FAST_INT = r"(?:0|-?[1-9][0-9]{0,17})"
_FAST_FIXED6 = r"-?(?:0|[1-9][0-9]{0,8})\.[0-9]{6}"
_SAMPLE_LINES = re.compile(
    rf"(?:ts={_FAST_INT} link={_FAST_INT} spine={_FAST_INT} latency_us={_FAST_FIXED6} "
    rf"fabric_bps={_FAST_INT} edge_bps={_FAST_INT}\n)*+".encode())
_KEY_BYTES = b"abcdefghijklmnopqrstuvwxyz_=."   # what a valid line holds besides numbers
_CHUNK_BYTES = 1 << 19   # ~6,000 lines: bounds the decoder's temporary objects
# one row with the link fields filled in and %d / %.6f holes left for ts and latency
_ROW_TEMPLATE = "ts=%%d link=%d spine=%d latency_us=%%.6f fabric_bps=%d edge_bps=%d\n"


def encode_sample(sample: LinkMetricSample) -> str:
    """One sample as one wire-format line (no trailing newline)."""
    return (f"ts={sample.ts} link={sample.link_id} spine={sample.spine_id} "
            f"latency_us={sample.latency_us:.6f} "
            f"fabric_bps={sample.fabric_bps} edge_bps={sample.edge_bps}")


def encode_columns(batch: SampleColumns) -> str:
    """The batch as wire-format lines, each ending in a newline: equal to
    joining encode_sample(row) + "\\n" over its rows.

    Rows are rendered in periods of L rows, L being the length of the first
    run of equal `ts` (a simulated hour holds one run per minute). If the
    batch is whole periods and the four link fields repeat with period L,
    they are %-formatted once into a template of one period, and one more
    %-format fills in `ts` and latency for every row. Otherwise L is the
    whole batch. `ts` only picks L: the periodicity check alone decides
    whether a template may be shared.
    """
    n = len(batch)
    if not n:
        return ""
    links = [batch.link_id, batch.spine_id, batch.fabric_bps, batch.edge_bps]
    period = int(np.argmax(batch.ts != batch.ts[0])) or n    # row 0 never differs
    if n % period or not all((c.reshape(-1, period) == c[:period]).all() for c in links):
        period = n
    template = (_ROW_TEMPLATE * period) % _cells([c[:period] for c in links])
    return (template * (n // period)) % _cells([batch.ts, batch.latency_us])


def _cells(columns: list[np.ndarray]) -> tuple:
    """The columns' values interleaved row by row, as Python scalars."""
    cells = np.empty((len(columns[0]), len(columns)), dtype=object)
    for i, column in enumerate(columns):
        cells[:, i] = column
    return tuple(cells.ravel().tolist())


def decode_sample(line: str, offset: int | None = None) -> LinkMetricSample:
    """Parse one wire-format line; raises DecodeError naming the offset."""
    match = _SAMPLE_LINE.fullmatch(line)
    if match is not None:
        ts, link, spine, latency, fabric, edge = match.groups()
        value = float(latency)
        ints = [int(ts), int(link), int(spine), int(fabric), int(edge)]
        # past 15 digits a decimal may not survive the float
        if f"{value:.6f}" == latency and all(INT64_MIN <= v <= INT64_MAX for v in ints):
            return LinkMetricSample(*ints[:3], value, *ints[3:])
    where = f" at offset {offset}" if offset is not None else ""
    raise DecodeError(f"malformed record{where}: {line!r}")


def _decode_chunk_fast(chunk: bytes, n_lines: int) -> SampleColumns | None:
    """Columns of a chunk of whole lines if every line is a record within
    the batched decoder's limits (see _SAMPLE_LINES) and no latency is
    "-0.000000" (which only the per-line decoder keeps as -0.0); else None.
    The keys and the "." are dropped, so the latency parses as its
    fixed-point integer, and numpy's C parser reads all the numbers."""
    if _SAMPLE_LINES.fullmatch(chunk) is None or b"latency_us=-0.000000" in chunk:
        return None
    cells = np.fromstring(chunk.translate(None, _KEY_BYTES), dtype=np.int64,
                          sep=" ").reshape(n_lines, 6)
    # exact: the fixed-point latency (below 10**15 < 2**53) and 1e6 are exact
    # doubles, and the division rounds once, as float() of the text does
    return SampleColumns(cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3] / 1e6,
                         cells[:, 4], cells[:, 5])


def split_lines(data: bytes, offset: int = 0) -> list[tuple[int, str]]:
    """(offset, text) of each non-blank line of `data` that a newline byte
    ends, its first line being at `offset`. Blank lines count in the
    offsets; a line that is not UTF-8 is a DecodeError naming its offset."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = offset + data.count(b"\n", 0, exc.start)
        raise DecodeError(f"line at offset {bad} is not UTF-8") from exc
    return [(offset + i, line) for i, line in enumerate(text.split("\n")[:-1]) if line.strip()]


def decode_log(data: bytes) -> list[SampleColumns]:
    """Decode a log's complete lines in chunks of about _CHUNK_BYTES; a
    torn last line is not a record.

    A chunk the batched decoder cannot take whole (a blank or malformed
    line, an int past 18 digits, a latency past 9 integer digits) is
    decoded line by line with decode_sample, so both accept the same
    lines and a DecodeError names the same offset: the line's index in
    the file, blank lines included. Only a newline byte ends a line.
    """
    chunks, pos, offset = [], 0, 0
    stop = data.rfind(b"\n") + 1
    while pos < stop:
        end = data.find(b"\n", min(pos + _CHUNK_BYTES, stop) - 1) + 1
        chunk = data[pos:end]
        n_lines = chunk.count(b"\n")
        columns = _decode_chunk_fast(chunk, n_lines)
        if columns is None:
            columns = SampleColumns.from_rows([decode_sample(line, i)
                                               for i, line in split_lines(chunk, offset)])
        chunks.append(columns)
        pos, offset = end, offset + n_lines
    return chunks


def write_atomic(path: str | Path, text: str) -> None:
    """Replace a whole file in one step through a sibling temp file, so a
    write that fails or a process that dies midway leaves the previous
    file, never a prefix. No fsync, as for the logs: safe against a crash
    of the process, not of the machine."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class AppendLog:
    """An append-only file of lines, each ended by a newline byte, that this
    object alone writes. Every OSError it meets is raised as
    PersistenceError. No fsync: safe against a crash of the process, not
    of the machine."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            self._handle = self.path.open("a+b", buffering=0)
        except OSError as exc:
            raise PersistenceError(f"cannot open {self.path}: {exc}") from exc

    def replay(self, decode: Callable[[bytes], list]) -> list:
        """Cut a torn last line off and return decode(the whole lines before
        it). A last line without its newline is a write cut short: replay
        skips it, and the next append starts a fresh line. Called once,
        before the first append; the lines are not kept, and the file is
        closed if reading or decoding them fails."""
        try:
            try:
                self._handle.seek(0)
                lines = self._handle.read()
                self.size = lines.rfind(b"\n") + 1    # bytes in the file, tracked by append
                if self.size < len(lines):
                    self._handle.truncate(self.size)
            except OSError as exc:
                raise PersistenceError(f"cannot read {self.path}: {exc}") from exc
            return decode(lines[:self.size])
        except BaseException:
            self.close()
            raise

    def append(self, data: bytes) -> None:
        """Append whole lines in one write. If the write fails or is cut
        short, cut the file back to its size before it, so no partial line
        is left for the next append to run on from."""
        try:
            try:
                if self._handle.write(data) != len(data):
                    raise OSError("short write")
            except OSError:
                os.truncate(self.path, self.size)
                raise
        except OSError as exc:
            raise PersistenceError(f"write to {self.path} failed: {exc}") from exc
        self.size += len(data)

    def close(self) -> None:
        self._handle.close()


@dataclass
class TopicLog:
    chunks: list[SampleColumns] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)   # offset just past each chunk
    file: AppendLog | None = None

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0

    def append(self, batch: SampleColumns) -> None:
        if len(batch):
            self.chunks.append(batch)
            self.ends.append(len(self) + len(batch))

    def read(self, start: int) -> list[SampleColumns]:
        """The pieces of the chunks that hold records from `start` on."""
        i = bisect_right(self.ends, start)
        pieces = self.chunks[i:]
        if pieces:
            first = self.ends[i] - len(pieces[0])
            if start > first:
                pieces[0] = pieces[0].slice(start - first, len(pieces[0]))
        return pieces


class TopicBus:
    """Named append-only logs, each optionally persisted to one file."""

    def __init__(self) -> None:
        self._topics: dict[str, TopicLog] = {}

    def attach(self, topic: str, path: str | Path) -> int:
        """Bind a topic to a backing file, replaying any existing records.

        Returns the number of records loaded. Further publishes append to
        the file; the replayed history is identical to what was published.
        The topic must not have records or a backing file yet, so memory
        and file never disagree.
        """
        if not topic:
            raise NotFoundError("topic name must be non-empty")
        known = self._topics.get(topic)
        if known is not None and (len(known) or known.file is not None):
            raise ConsistencyError(
                f"topic {topic!r} already has records or a backing file; "
                "attach a topic once, before publishing to it")
        log = TopicLog(file=AppendLog(path))
        for chunk in log.file.replay(decode_log):
            log.append(chunk)
        self._topics[topic] = log
        return len(log)

    def publish(self, topic: str, samples: SampleColumns | list[LinkMetricSample]) -> int:
        """Append a batch of samples (the simulator publishes one hour per
        batch); returns the first one's offset.

        If the topic has a backing file the batch is written in one write
        before the in-memory append, so a failed write leaves no record of
        it, in memory or in the file.
        Ints outside int64 and non-finite latencies, which no log can
        replay, are a DataError.
        """
        if not topic:
            raise NotFoundError("topic name must be non-empty")
        batch = samples if isinstance(samples, SampleColumns) else SampleColumns.from_rows(samples)
        if not np.isfinite(batch.latency_us).all():
            raise DataError(f"non-finite latency published to {topic!r}")
        log = self._topics.setdefault(topic, TopicLog())
        if log.file is not None and len(batch):
            log.file.append(encode_columns(batch).encode("utf-8"))
        log.append(batch)
        return len(log) - len(batch)

    def consume(self, topic: str, from_offset: int = 0, *,
                columns: bool = False) -> list[tuple[int, LinkMetricSample]] | SampleColumns:
        """Records from `from_offset` on, as (offset, LinkMetricSample)
        rows, or with columns=True as one SampleColumns batch, for which no
        row objects are built.

        Read-only: repeated identical calls return equal results.
        """
        if from_offset < 0:
            raise ValueError(f"from_offset must be >= 0, got {from_offset}")
        if topic not in self._topics:
            raise NotFoundError(f"unknown topic: {topic!r}")
        pieces = self._topics[topic].read(from_offset)
        if columns:
            return SampleColumns.concat(pieces)
        rows = [row for piece in pieces for row in piece.rows()]
        return list(enumerate(rows, start=from_offset))

    def length(self, topic: str) -> int:
        if topic not in self._topics:
            raise NotFoundError(f"unknown topic: {topic!r}")
        return len(self._topics[topic])

    def close(self) -> None:
        for log in self._topics.values():
            if log.file is not None:
                log.file.close()

    def __enter__(self) -> "TopicBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
