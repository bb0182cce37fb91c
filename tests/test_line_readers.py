"""The telemetry and journal line readers against the grammars they once
matched (oracle_lines.py): over one and two edits of valid lines, each
reader accepts exactly the lines its oracle accepts, with equal values,
and refuses the rest with its own message."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_lines import INT64_MAX, INT64_MIN, oracle_journal_entry, oracle_sample
from spinescale.errors import DecodeError
from spinescale.fabric import LinkMetricSample
from spinescale.policy import ActionReason, PolicyAction, decode_journal_line, encode_journal_line
from spinescale.telemetry import decode_sample, encode_sample

# values at the edges of what each reader takes, for edits to cross
SAMPLE_LINES = [encode_sample(LinkMetricSample(*fields)) for fields in [
    (0, 3, 1, 6.25, 5_000_000_000, 0),
    (-1, INT64_MIN, 0, 0.0, INT64_MAX, 10),
    (INT64_MAX, 7, 2, 999999999.999999, 0, -1),
    (59, 0, 9, 1e-6, 1, 99)]]


def journal_line(kind, spine, cycle, detail, remove_thr, add_thr, mean_pred, digest) -> str:
    action = PolicyAction(kind, spine, ActionReason(detail, remove_thr, mean_pred, 24), cycle)
    thresholds = SimpleNamespace(remove_threshold_us=remove_thr, add_threshold_us=add_thr)
    return encode_journal_line(action, thresholds, digest)


JOURNAL_LINES = [journal_line(*fields) for fields in [
    ("remove_spine", 4, 3, "below-remove-threshold-24/24h", 6.0, 12.0, 1.0, "0a"),
    ("add_spine", None, -1, "", -0.0, math.inf, 1e16, "f"),
    ("add_spine", 0, 0, "a=b", 5e-324, 1.7976931348623157e308, -math.inf,
     "0123456789abcdef")]]

KEYS = ["ts=", "link=", "spine=", "latency_us=", "fabric_bps=", "edge_bps=", "cycle=", "kind=",
        "reason=", "remove_thr=", "add_thr=", "mean_pred=", "digest=", "add_spine",
        "remove_spine"]
SYMBOLS = [*"0123456789", "-", ".", "+", "e", "_", "=", " ", "\t", "\r", "\n", "٣", "nan",
           *KEYS]
EDIT_KINDS = ["insert", "overwrite", "delete"]


def edit(line: str, at: int, kind: str, symbol: str) -> str:
    """Insert the symbol before character `at`, write it over the
    characters from there, or delete that character."""
    at %= len(line) + 1
    cut = {"insert": at, "overwrite": at + len(symbol), "delete": at + 1}[kind]
    return line[:at] + ("" if kind == "delete" else symbol) + line[cut:]


def reads_sample_as_oracle(line: str) -> bool:
    want = oracle_sample(line)
    try:
        got = decode_sample(line, offset=3)
    except DecodeError as exc:
        assert want is None, f"refused {line!r}, which the oracle reads"
        assert str(exc) == f"malformed record at offset 3: {line!r}"
        return False
    assert repr(got) == repr(want), line      # repr tells -0.0 from 0.0
    return True


def reads_journal_as_oracle(line: str) -> bool:
    want = oracle_journal_entry(line, offset=3)
    try:
        got = decode_journal_line(line, offset=3)
    except DecodeError as exc:
        assert want is None, f"refused {line!r}, which the oracle reads"
        assert str(exc) == f"journal offset 3: malformed line {line!r}"
        return False
    assert repr(got) == repr(want), line
    return True


READERS = {"telemetry": (SAMPLE_LINES, reads_sample_as_oracle),
           "journal": (JOURNAL_LINES, reads_journal_as_oracle)}


@pytest.mark.parametrize("reader", READERS)
def test_every_single_edit_is_read_as_the_oracle_reads_it(reader):
    lines, reads_as_oracle = READERS[reader]
    assert all(reads_as_oracle(line) for line in lines)
    edited = {edit(line, at, kind, symbol) for line in lines for at in range(len(line) + 1)
              for kind in EDIT_KINDS for symbol in (SYMBOLS if kind != "delete" else [""])}
    read = [reads_as_oracle(text) for line in edited for text in (line, line + "\n")]
    assert 0 < sum(read) < len(read)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(reader=st.sampled_from(list(READERS)), which=st.integers(0, 3),
       edits=st.lists(st.tuples(st.integers(0, 200), st.sampled_from(EDIT_KINDS),
                                st.sampled_from(SYMBOLS)), min_size=1, max_size=2),
       newline=st.booleans())
def test_one_or_two_edits_are_read_as_the_oracle_reads_them(reader, which, edits, newline):
    lines, reads_as_oracle = READERS[reader]
    line = lines[which % len(lines)]
    for at, kind, symbol in edits:
        line = edit(line, at, kind, symbol)
    reads_as_oracle(line + "\n" * newline)
