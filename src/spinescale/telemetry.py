"""Append-only topic bus with optional file backing.

Stands in for a networked broker: the simulator publishes metric samples
to named topics, downstream consumers read them back by offset. One
publisher, many readers; records are immutable once appended, so consume
is safe from concurrent contexts and never blocks the publisher. Records
are kept as the `SampleColumns` chunks they were published or replayed
in; `consume` hands them over as columns, or as LinkMetricSample rows.

Wire format (UTF-8, one record per line, exact key order, unknown keys
rejected), latency_us in fixed 6-decimal formatting:

    ts=<int> link=<int> spine=<int> latency_us=<fixed6> fabric_bps=<int> edge_bps=<int>

The wire domain is what any valid config can simulate: ints within
int64, and a latency on the 6-decimal grid in [0, 10**9), sign bit clear.
`publish` refuses a batch outside it, so decode(encode(x)) == x. Replay
loads a chunk of lines only if the columns it read re-encode to its
bytes, and refuses the log otherwise; decode_sample, which names the
offset of a line it refuses, takes one line by the same rule. So the
writers are the format's one statement.
"""

from __future__ import annotations

import math
import os
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import ConsistencyError, DataError, DecodeError, NotFoundError, PersistenceError
from .fabric import LinkMetricSample, SampleColumns

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
_KEY_BYTES = b"abcdefghijklmnopqrstuvwxyz_=."   # what a valid line holds besides numbers
_CHUNK_BYTES = 1 << 17   # ~1,500 lines: small enough that re-encoding reuses its memory
# Four bytes of line text per uint32 word, 0 bytes where a word has no
# characters: a 3-digit group g in full, after a 0 byte, at index g; as the
# top group of a number, without its leading zeros, at 1000 + g; a group
# above the top one, so no text, at 2000 + g; the first and last groups of
# a 6-digit fraction, ".ddd" and "ddd" then a 0 byte, at 3000 + g and
# 4000 + g; then the words that start a ts value. The 0 bytes
# are placed to run into each other, since the encoder drops them one run
# at a time.
_WORDS = np.frombuffer(b"".join([b"\0%03d" % g for g in range(1000)]
                                + [(b"%d" % g).rjust(4, b"\0") for g in range(1000)]
                                + [b"\0" * 4] * 1000
                                + [b".%03d" % g for g in range(1000)]
                                + [b"%03d\0" % g for g in range(1000)]
                                + [b"ts=\0", b"ts=-"]), dtype=np.uint32)
_NO_TEXT, _TS, _TS_MINUS = 2000, 5000, 5001


def encode_sample(sample: LinkMetricSample) -> str:
    """One sample as one wire-format line (no trailing newline): the wire
    format's one statement, which decode_sample reads back."""
    return (f"ts={sample.ts} link={sample.link_id} spine={sample.spine_id} "
            f"latency_us={sample.latency_us:.6f} "
            f"fabric_bps={sample.fabric_bps} edge_bps={sample.edge_bps}")


def encode_columns(batch: SampleColumns) -> bytes:
    """The batch as wire-format lines, each ending in a newline: the UTF-8
    of joining encode_sample(row) + "\\n" over its rows. Int columns must
    be int64; a latency outside the wire domain (on the 6-decimal grid,
    below 10**9 and with its sign bit clear) is a DataError.

    The rows are laid out as one [rows, words] block of uint32 words, each
    field in a slot of fixed width with 0 bytes where it has no characters,
    so the lines are the block's bytes without its 0 bytes. The link fields
    are %-formatted once per period of each run (see _runs), unless a
    recent period had the same link columns (see _link_words); `ts` and
    latency are written from _WORDS, 3 digits a word. Latency x is written
    as k = rint(x * 10**6), exact for x < 10**9, where k / 10**6 == x is
    the grid check.
    """
    n = len(batch)
    if not n:
        return b""
    latency = batch.latency_us
    with np.errstate(over="ignore"):       # past 1.8e302 the product is inf: refused
        fixed = np.rint(latency * 1e6)
    on_grid = (fixed / 1e6 == latency) & (latency < 1e9) & ~np.signbit(latency)
    if not on_grid.all():
        raise DataError(f"latency {float(latency[np.argmin(on_grid)])!r} is not on the "
                        "6-decimal grid in [0, 1e9), so no log carries it")
    links = [batch.link_id, batch.spine_id, batch.fabric_bps, batch.edge_bps]
    runs = _runs(batch.ts, links)
    words = [_link_words(np.array([c[start:start + period] for c in links], np.int64).tobytes())
             for start, _, period in runs]
    ts = _number_words(np.abs(batch.ts).view(np.uint64),     # |INT64_MIN| wraps to 2**63
                       np.where(batch.ts < 0, _TS_MINUS, _TS))
    value = _number_words(fixed.astype(np.uint64), _NO_TEXT, fraction=2)
    widths = [ts.shape[1], max(h.shape[1] for h, _ in words), value.shape[1],
              max(t.shape[1] for _, t in words)]
    rows = np.empty((n, sum(widths)), dtype=np.uint32)
    head_at, value_at, tail_at = np.cumsum(widths[:-1])
    rows[:, :head_at] = ts
    rows[:, value_at:tail_at] = value
    for (start, stop, period), (heads, tails) in zip(runs, words):
        block = rows[start:stop].reshape(-1, period, rows.shape[1])
        head_end, tail_start = head_at + heads.shape[1], rows.shape[1] - tails.shape[1]
        block[:, :, head_at:head_end] = heads
        block[:, :, head_end:value_at] = block[:, :, tail_at:tail_start] = 0   # a narrower run
        block[:, :, tail_start:] = tails
    text = rows.view(np.uint8)
    return text[text != 0].tobytes()


def _runs(ts: np.ndarray, links: list[np.ndarray]) -> list[tuple[int, int, int]]:
    """(start, stop, period) of runs of rows that cover the batch in order,
    each run's link columns repeating with its period: a minute (a run of
    equal `ts`) and each next minute that repeats the one before. Runs of
    one period next to each other are one run, formatted row by row."""
    n = len(ts)
    period = int(np.argmax(ts != ts[0])) or n           # the first minute's length
    if not n % period and all((c.reshape(-1, period) == c[:period]).all() for c in links):
        return [(0, n, period)]                         # one run, as a simulated hour is
    bounds = np.concatenate(([0], np.flatnonzero(ts[1:] != ts[:-1]) + 1, [n]))
    lengths = np.diff(bounds)                           # of each minute
    repeat = np.zeros(len(lengths), dtype=bool)         # minute m repeats minute m - 1
    as_long = np.flatnonzero(lengths[1:] == lengths[:-1]) + 1   # as long as the one before
    for period in set(lengths[as_long].tolist()):      # np.unique's first call takes ~10 ms
        minutes = as_long[lengths[as_long] == period]
        same = links[0][period:] == links[0][:-period]  # row i + period is like row i
        for c in links[1:]:
            same &= c[period:] == c[:-period]
        unlike, starts = np.flatnonzero(~same), bounds[minutes]
        repeat[minutes] = unlike.searchsorted(starts - period) == unlike.searchsorted(starts)
    firsts, bounds = np.flatnonzero(~repeat).tolist() + [len(lengths)], bounds.tolist()
    runs: list[tuple[int, int, int]] = []
    for m, after in zip(firsts, firsts[1:]):
        start, stop, period = bounds[m], bounds[after], bounds[m + 1] - bounds[m]
        if period == stop - start and runs and runs[-1][2] == runs[-1][1] - runs[-1][0]:
            start, period = runs[-1][0], stop - runs.pop()[0]   # one period after one
        runs.append((start, stop, period))
    return runs


@lru_cache(maxsize=4)
def _link_words(table: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only [period, words] uint32 words of one period's link text, its
    int64 link, spine, fabric and edge columns being `table`'s bytes: heads
    " link=… spine=… latency_us=", and tails " fabric_bps=… edge_bps=…\\n"
    aligned right, so their 0 bytes run on from the fraction's last one.
    Kept for the last few periods, so replay formats an hour's once, not
    once per chunk."""
    link, spine, fabric, edge = np.frombuffer(table, dtype=np.int64).reshape(4, -1).tolist()
    heads = _text_words([b" link=%d spine=%d latency_us=" % p for p in zip(link, spine)])
    tails = _text_words([b" fabric_bps=%d edge_bps=%d\n" % p for p in zip(fabric, edge)],
                        right=True)
    heads.flags.writeable = tails.flags.writeable = False
    return heads, tails


def _text_words(texts: list[bytes], right: bool = False) -> np.ndarray:
    """[len(texts), words] uint32: each text padded with 0 bytes to as many
    whole words as the longest needs, after it or, if `right`, before it."""
    width = -(-max(map(len, texts)) // 4) * 4
    rows = np.array([t.rjust(width, b"\0") for t in texts] if right else texts, dtype=f"S{width}")
    return rows.view(np.uint32).reshape(len(texts), -1)


def _number_words(magnitude: np.ndarray, first: np.ndarray | int,
                  fraction: int = 0) -> np.ndarray:
    """[n, 1 + groups] uint32: the word at index `first` of _WORDS, then
    each uint64 magnitude in decimal, 3 digits a word, in as many words as
    the largest needs and at least fraction + 1. The lowest `fraction`
    groups are digits after a point; the integer digits keep no leading
    zero but the last, so 0 is "0"."""
    groups = max(fraction + 1, -(-len(str(int(magnitude.max()))) // 3))
    index = np.empty((len(magnitude), 1 + groups), dtype=np.intp)
    index[:, 0] = first
    rest = magnitude
    for j in range(groups):             # column groups - j holds group j
        above = rest // 1000            # quicker than np.divmod
        group = index[:, groups - j]
        group[:] = rest - above * 1000
        rest = above
        if j == groups - 1:             # the top group: no digits above it
            group += 1000
        elif j >= fraction:
            group += 1000 * (magnitude < 1000 ** (j + 1))
        if j > fraction:                # no digits left for this group: no text
            group += 1000 * (magnitude < 1000 ** j)
        if j == fraction - 1:
            group += 3000
        elif j == 0 and fraction:
            group += 4000
    return _WORDS[index]


def _read_only(column: np.ndarray) -> np.ndarray:
    """The column, frozen in place if it owns its data; a view could still
    be written through its owner, so it is copied first."""
    if not column.flags.owndata:
        column = column.copy()
    column.flags.writeable = False
    return column


def _wire_columns(samples: SampleColumns | list[LinkMetricSample]) -> SampleColumns:
    """The samples as columns of equal length, ints as int64 and latency as
    float64 (the caller's own array where it already is one); an int column
    that holds anything but ints within int64, or a latency column that
    holds anything but numbers, is a DataError."""
    if not isinstance(samples, SampleColumns):
        samples = SampleColumns.from_rows(samples)
    columns = dict(zip(LinkMetricSample.__slots__, map(np.asarray, samples.columns())))
    for name, column in columns.items():
        ints = name != "latency_us"
        if (column.dtype.kind not in ("iu" if ints else "fiu") or column.ndim != 1
                or column.shape != columns["ts"].shape):
            raise DataError(f"{name} must be a column of {'ints' if ints else 'numbers'} as "
                            f"long as ts, got {column.dtype} of shape {column.shape}")
        if ints and column.dtype.kind == "u" and column.size and column.max() > INT64_MAX:
            raise DataError(f"{name} outside the int64 range: {column.max()}")
    return SampleColumns(*(c.astype(np.int64 if name != "latency_us" else np.float64, copy=False)
                           for name, c in columns.items()))


def decode_sample(line: str, offset: int | None = None) -> LinkMetricSample:
    """The sample whose encode_sample is `line`, a trailing newline aside,
    if it is in the wire domain; else a DecodeError naming the offset.
    Re-encoding refuses what int() and float() read from other spellings
    (`+5`, `1_0`, `-0`, `٣`, `6.25`), but not ints past int64, or -0.0, a
    negative, inf or nan, which `.6f` writes back as they are."""
    text = line.removesuffix("\n")
    try:
        # keys and values alternate once each "=" is a space; re-encoding checks the keys
        ts, link, spine, latency, fabric, edge = text.replace("=", " ").split(" ")[1::2]
        ints = int(ts), int(link), int(spine), int(fabric), int(edge)
        sample = LinkMetricSample(*ints[:3], float(latency), *ints[3:])
    except ValueError:      # not six fields, or a value int() or float() cannot read
        sample = None
    if (sample is not None and encode_sample(sample) == text
            and INT64_MIN <= min(ints) and max(ints) <= INT64_MAX
            and sample.latency_us < 1e9 and math.copysign(1.0, sample.latency_us) > 0):
        return sample
    where = f" at offset {offset}" if offset is not None else ""
    raise DecodeError(f"malformed record{where}: {line!r}")


def _decode_chunk(chunk: bytes) -> tuple[SampleColumns, int] | None:
    """The columns of the chunk's lines before its last change of `ts` (all
    of them if it has none), so that it re-encodes as few runs (see _runs),
    and their length in bytes, if encode_columns writes them back as those
    bytes; else None. The keys and "." are dropped, so latency reads as its
    fixed-point integer, and numpy's C parser reads every number: text it
    cannot read to the end raises (older numpy warns), as does a count that
    is not 6 a line; a value it saturates, reads from another spelling
    (-0, 007, -0.000000) or finds outside the wire domain does not
    re-encode to the chunk's bytes."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            cells = np.fromstring(chunk.translate(None, _KEY_BYTES), dtype=np.int64,
                                  sep=" ").reshape(-1, 6)
        # the rows before the last minute, which may go on past the chunk (all if one)
        cells = cells[:len(cells) - int(np.argmax(cells[::-1, 0] != cells[-1:, 0]))]
        # below 10**15 units (< 2**53) the division rounds once, as float() of
        # the text does; encode_columns refuses a latency past that
        columns = SampleColumns(cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3] / 1e6,
                                cells[:, 4], cells[:, 5])
        lines = encode_columns(columns)
    except (ValueError, DeprecationWarning, DataError):
        return None
    return (columns, len(lines)) if lines and chunk.startswith(lines) else None


def split_lines(data: bytes, offset: int = 0) -> Iterator[tuple[int, str]]:
    """(offset, text) of each line of `data` that a newline byte ends, its
    first line being at `offset`, one at a time, so a caller that refuses
    a line refuses it before a later line is read; a line that is not
    UTF-8 is a DecodeError naming its offset."""
    for i, line in enumerate(data.split(b"\n")[:-1], start=offset):
        try:
            yield i, line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"line at offset {i} is not UTF-8") from exc


def decode_log(data: bytes) -> list[SampleColumns]:
    """Decode a log's complete lines in chunks of about _CHUNK_BYTES, each
    cut at a change of `ts` (see _decode_chunk); a torn last line is not a
    record. A chunk loads whole or the log is refused: if its columns do
    not re-encode to its bytes, decode_sample names the offset of its
    first line outside the wire format (a blank line is one). Only a
    newline byte ends a line, and a record's offset is its line's index."""
    chunks, pos, offset = [], 0, 0
    stop = data.rfind(b"\n") + 1
    while pos < stop:
        chunk = data[pos:data.find(b"\n", min(pos + _CHUNK_BYTES, stop) - 1) + 1]
        decoded = _decode_chunk(chunk)
        if decoded is None:
            for i, line in split_lines(chunk, offset):
                decode_sample(line, i)
            raise DecodeError(f"lines from offset {offset} do not re-encode to their bytes")
        columns, size = decoded
        chunks.append(columns)
        pos, offset = pos + size, offset + len(columns)
    return chunks


def write_atomic(path: str | Path, text: str) -> None:
    """Replace a whole file in one step through a sibling temp file, so a
    write that fails or a process that dies midway leaves the previous
    file, never a prefix. Line ends are not translated, so the file's
    bytes are the text's UTF-8 on every platform. No fsync, as for the
    logs: safe against a crash of the process, not of the machine."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
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

        Every batch is encoded by encode_columns, whether or not the topic
        has a backing file, so a batch that no log could give back exactly
        is a DataError on either kind of topic, raised before anything of it
        is kept: an int field holding anything but ints within int64 (a
        bool, float or str is not one), or a latency outside the wire
        domain. If the topic has a backing file the lines are written in one
        write before the in-memory append, so a failed write leaves no
        record of the batch, in memory or in the file. Int columns are kept
        as int64 and latency as float64, all read-only (see _read_only), so
        what `consume` returns is what the file holds; a batch that is
        refused, or whose write fails, is left as the caller gave it.
        """
        if not topic:
            raise NotFoundError("topic name must be non-empty")
        batch = _wire_columns(samples)
        lines = encode_columns(batch)
        log = self._topics.setdefault(topic, TopicLog())
        if log.file is not None and lines:
            log.file.append(lines)
        log.append(SampleColumns(*map(_read_only, batch.columns())))
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
