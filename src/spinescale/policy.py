"""Knowledge plane: turn a latency forecast into add/remove spine actions.

A spine predicted persistently BELOW the low threshold is under-utilized,
so it is a removal candidate (cost saving); a network-wide aggregate ABOVE
the high threshold means congestion, so one spine is added. Safety floors,
a cooldown between action cycles and an append-only decision journal keep
the loop auditable and non-flapping. A PolicyAction holds what its journal
line records, under the names of the JournalEntry that line replays to.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PolicyConfig
from .errors import ConsistencyError, DecodeError, NotFoundError
from .forecaster import Forecast
from .telemetry import AppendLog, split_lines

ADD_SPINE = "add_spine"
REMOVE_SPINE = "remove_spine"


@dataclass(frozen=True)
class PolicyAction:
    cycle: int
    kind: str                   # ADD_SPINE or REMOVE_SPINE
    spine_id: int | None        # None for additions
    reason: str                 # compact token, e.g. "below-remove-threshold-120/120h"
    mean_pred_us: float         # the spine's mean prediction, or the add's aggregate


def evaluate(forecast: Forecast, config: PolicyConfig, active_spines: list[int],
             cycles_since_last_action: int, decision_cycle: int = 0) -> list[PolicyAction]:
    """Decide this cycle's actions from one forecast. Pure function.

    Removal candidates are spines below remove_threshold_us for at least
    horizon_fraction of the horizon; they are emitted in ascending order of
    mean predicted latency (ties: lower id first), stopping at the
    min_spines floor. If nothing is removable and the aggregate prediction
    exceeds add_threshold_us with headroom under max_spines, one spine is
    added. Nothing is emitted while the cooldown has not elapsed, or for
    an empty fabric.
    """
    if set(forecast.per_spine) != set(active_spines):
        raise ConsistencyError(
            f"forecast covers spines {sorted(forecast.per_spine)} but active spines are "
            f"{sorted(active_spines)}")
    if cycles_since_last_action < config.cooldown_cycles or not active_spines:
        return []
    horizon = forecast.horizon

    candidates = []
    for sid in sorted(active_spines):
        preds = forecast.per_spine[sid]
        below = float(np.mean(preds < config.remove_threshold_us))
        if below >= config.horizon_fraction:
            candidates.append((float(np.mean(preds)), sid, below))
    candidates.sort(key=lambda c: (c[0], c[1]))

    room = len(active_spines) - config.min_spines
    removals = [PolicyAction(decision_cycle, REMOVE_SPINE, sid,
                             f"below-remove-threshold-{round(below * horizon)}/{horizon}h",
                             mean_pred)
                for mean_pred, sid, below in candidates[:max(room, 0)]]
    if removals:
        return removals

    all_preds = np.concatenate([forecast.per_spine[sid] for sid in sorted(active_spines)])
    if config.add_aggregate == "max":
        aggregate = float(np.max([np.mean(forecast.per_spine[sid]) for sid in active_spines]))
    else:
        aggregate = float(np.mean(all_preds))
    if aggregate > config.add_threshold_us and len(active_spines) < config.max_spines:
        return [PolicyAction(decision_cycle, ADD_SPINE, None,
                             f"{config.add_aggregate}-above-add-threshold", aggregate)]
    return []


# ---------------------------------------------------------------------------
# Decision journal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JournalEntry:
    offset: int
    cycle: int
    kind: str
    spine_id: int | None
    reason: str
    remove_threshold_us: float
    add_threshold_us: float
    mean_pred_us: float
    forecast_digest: str


def encode_journal_line(action: PolicyAction, config: PolicyConfig, forecast_digest: str) -> str:
    """One action as its journal line (no trailing newline)."""
    return _journal_line(action.cycle, action.kind, action.spine_id, action.reason,
                         float(config.remove_threshold_us), float(config.add_threshold_us),
                         float(action.mean_pred_us), forecast_digest)


def _journal_line(cycle, kind, spine_id, reason, remove_thr, add_thr, mean_pred, digest) -> str:
    """The journal's line format, its one statement: a JournalEntry's
    fields after the offset, each float as its repr."""
    spine = "-" if spine_id is None else spine_id
    return (f"cycle={cycle} kind={kind} spine={spine} reason={reason} "
            f"remove_thr={remove_thr!r} add_thr={add_thr!r} mean_pred={mean_pred!r} "
            f"digest={digest}")


def decode_journal_line(line: str, offset: int) -> JournalEntry:
    """The entry whose _journal_line is `line`, a trailing newline aside, if
    it holds what re-encoding cannot see: one of the two kinds, a spine
    unless it adds one, no newline in its reason, a non-empty lowercase-hex
    digest and no nan; else a DecodeError naming the offset."""
    text = line.removesuffix("\n")
    try:
        cycle, kind, spine, reason, remove_thr, add_thr, mean_pred, digest = [
            f.partition("=")[2] for f in text.split(" ")]
        fields = (int(cycle), kind, None if spine == "-" else int(spine), reason,
                  float(remove_thr), float(add_thr), float(mean_pred), digest)
    except ValueError:      # not eight fields, or a value int() or float() cannot read
        fields = None
    if (fields is not None and _journal_line(*fields) == text
            and kind in (ADD_SPINE, REMOVE_SPINE) and (spine != "-" or kind == ADD_SPINE)
            and "\n" not in reason and digest and not digest.strip("0123456789abcdef")
            and all(value == value for value in fields[4:7])):
        return JournalEntry(offset, *fields)
    raise DecodeError(f"journal offset {offset}: malformed line {line!r}")


class PolicyJournal:
    """Append-only action log, one key=value line per decision."""

    def __init__(self, path: str | Path) -> None:
        self._log = AppendLog(path)
        self.entries = self._log.replay(lambda lines: [decode_journal_line(line, offset)
                                                       for offset, line in split_lines(lines)])

    def append(self, action: PolicyAction, config: PolicyConfig, forecast_digest: str) -> int:
        """Write one action; returns its offset, the line index replay will
        give it. Atomic: a failed write leaves no in-memory entry and no
        partial line in the file. The line is decoded before it is written,
        so one that replay would reject (e.g. a digest that is not
        lowercase hex) never reaches the file."""
        line = encode_journal_line(action, config, forecast_digest)
        entry = decode_journal_line(line, len(self.entries))
        self._log.append(f"{line}\n".encode("utf-8"))
        self.entries.append(entry)
        return entry.offset

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "PolicyJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay_journal(path: str | Path) -> list[JournalEntry]:
    """Parse an existing journal file back into its entry sequence. A torn
    last line is cut off first (see AppendLog)."""
    if not Path(path).exists():
        raise NotFoundError(f"journal not found: {path}")
    with PolicyJournal(path) as journal:
        return journal.entries
