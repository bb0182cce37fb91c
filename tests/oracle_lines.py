"""The line grammars the telemetry and journal readers once matched, kept
as test oracles for the readers that decode by re-encoding.

Each is a regular expression of what its writer writes, checked apart
from it: canonical ASCII ints (int64 on the wire), a latency of at most
9 integer digits and exactly 6 decimals with no sign, the two action
kinds, a spine on every removal, a lowercase-hex digest, and float
fields that are the repr of a number other than nan. A line may end in
one newline. Each returns what the line holds, or None if it refuses it.
"""

import re

from spinescale.fabric import LinkMetricSample
from spinescale.policy import JournalEntry

INT_PATTERN = r"0|-?[1-9][0-9]*"     # an int as str() writes it
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
_INT = r"(?:0|-?[1-9][0-9]{0,18})"  # at most int64's 19 digits; the range is checked after
_FIXED6 = r"(?:0|[1-9][0-9]{0,8})\.[0-9]{6}"   # 0 <= latency < 10**9
SAMPLE_LINE = re.compile(
    rf"ts=({_INT}) link=({_INT}) spine=({_INT}) latency_us=({_FIXED6}) "
    rf"fabric_bps=({_INT}) edge_bps=({_INT})\n?")
JOURNAL_LINE = re.compile(
    rf"cycle=({INT_PATTERN}) kind=(add_spine|remove_spine) spine=(-|{INT_PATTERN}) "
    r"reason=([^ \n]*) remove_thr=(\S+) add_thr=(\S+) mean_pred=(\S+) digest=([0-9a-f]+)\n?")


def oracle_sample(line: str) -> LinkMetricSample | None:
    match = SAMPLE_LINE.fullmatch(line)
    if match is None:
        return None
    ts, link, spine, latency, fabric, edge = match.groups()
    ints = [int(ts), int(link), int(spine), int(fabric), int(edge)]
    if not all(INT64_MIN <= v <= INT64_MAX for v in ints):
        return None
    return LinkMetricSample(*ints[:3], float(latency), *ints[3:])


def _exact_float(text: str) -> float | None:
    """A float field as the encoder writes it: the value's repr, not nan."""
    value = float(text)
    return None if value != value or repr(value) != text else value


def oracle_journal_entry(line: str, offset: int) -> JournalEntry | None:
    match = JOURNAL_LINE.fullmatch(line)
    if match is None:
        return None
    cycle, kind, spine, reason, remove_thr, add_thr, mean_pred, digest = match.groups()
    if spine == "-" and kind != "add_spine":
        return None
    try:
        floats = [_exact_float(remove_thr), _exact_float(add_thr), _exact_float(mean_pred)]
    except ValueError:
        return None
    if None in floats:
        return None
    return JournalEntry(offset, int(cycle), kind, None if spine == "-" else int(spine), reason,
                        *floats, digest)
