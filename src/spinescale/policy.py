"""Knowledge plane: turn a latency forecast into add/remove spine actions.

Reading of the thresholds: a spine predicted persistently BELOW the low
threshold is under-utilized - its capacity is not needed, so it is a
removal candidate (cost saving). A network-wide aggregate ABOVE the high
threshold means congestion, so one spine is added. Safety floors,
a cooldown between action cycles, and an append-only decision journal
keep the loop auditable and non-flapping.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PolicyConfig
from .errors import ConsistencyError, DecodeError, NotFoundError
from .forecaster import Forecast
from .telemetry import INT_PATTERN, AppendLog, split_lines

ADD_SPINE = "add_spine"
REMOVE_SPINE = "remove_spine"


@dataclass(frozen=True)
class ActionReason:
    detail: str                 # compact token, e.g. "below-remove-threshold-120/120h"
    threshold_us: float
    statistic_us: float         # the spine's mean prediction, or the aggregate
    horizon_hours: int


@dataclass(frozen=True)
class PolicyAction:
    kind: str                   # ADD_SPINE or REMOVE_SPINE
    spine_id: int | None        # None for additions
    reason: ActionReason
    decision_cycle: int


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
    removals = [
        PolicyAction(
            kind=REMOVE_SPINE,
            spine_id=sid,
            reason=ActionReason(
                detail=f"below-remove-threshold-{round(below * horizon)}/{horizon}h",
                threshold_us=config.remove_threshold_us,
                statistic_us=mean_pred,
                horizon_hours=horizon,
            ),
            decision_cycle=decision_cycle,
        )
        for mean_pred, sid, below in candidates[:max(room, 0)]
    ]
    if removals:
        return removals

    all_preds = np.concatenate([forecast.per_spine[sid] for sid in sorted(active_spines)])
    if config.add_aggregate == "max":
        aggregate = float(np.max([np.mean(forecast.per_spine[sid]) for sid in active_spines]))
    else:
        aggregate = float(np.mean(all_preds))
    if aggregate > config.add_threshold_us and len(active_spines) < config.max_spines:
        return [PolicyAction(
            kind=ADD_SPINE,
            spine_id=None,
            reason=ActionReason(
                detail=f"{config.add_aggregate}-above-add-threshold",
                threshold_us=config.add_threshold_us,
                statistic_us=aggregate,
                horizon_hours=horizon,
            ),
            decision_cycle=decision_cycle,
        )]
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
    spine = "-" if action.spine_id is None else str(action.spine_id)
    return (f"cycle={action.decision_cycle} kind={action.kind} spine={spine} "
            f"reason={action.reason.detail} "
            f"remove_thr={float(config.remove_threshold_us)!r} "
            f"add_thr={float(config.add_threshold_us)!r} "
            f"mean_pred={float(action.reason.statistic_us)!r} digest={forecast_digest}")


_JOURNAL_LINE = re.compile(
    rf"cycle=({INT_PATTERN}) kind=({ADD_SPINE}|{REMOVE_SPINE}) spine=(-|{INT_PATTERN}) "
    r"reason=([^ \n]*) remove_thr=(\S+) add_thr=(\S+) mean_pred=(\S+) digest=([0-9a-f]+)\n?")


def _exact_float(text: str) -> float:
    """A float field as the encoder writes it: the value's repr, not nan."""
    value = float(text)
    if value != value or repr(value) != text:
        raise ValueError(f"{text!r} is not the repr of a number")
    return value


def decode_journal_line(line: str, offset: int) -> JournalEntry:
    """Parse one journal line. Accepts only what encode_journal_line
    writes, so any line that decodes re-encodes to itself."""
    match = _JOURNAL_LINE.fullmatch(line)
    if match is None:
        raise DecodeError(f"journal offset {offset}: malformed line {line!r}")
    cycle, kind, spine, reason, remove_thr, add_thr, mean_pred, digest = match.groups()
    if spine == "-" and kind != ADD_SPINE:
        raise DecodeError(f"journal offset {offset}: {kind} without a spine id")
    try:
        return JournalEntry(
            offset=offset,
            cycle=int(cycle),
            kind=kind,
            spine_id=None if spine == "-" else int(spine),
            reason=reason,
            remove_threshold_us=_exact_float(remove_thr),
            add_threshold_us=_exact_float(add_thr),
            mean_pred_us=_exact_float(mean_pred),
            forecast_digest=digest,
        )
    except ValueError as exc:
        raise DecodeError(f"journal offset {offset}: {exc}") from exc


class PolicyJournal:
    """Append-only action log, one key=value line per decision."""

    def __init__(self, path: str | Path) -> None:
        self._log = AppendLog(path)
        self.entries = self._log.replay(self._decode)

    def _decode(self, lines: bytes) -> list[JournalEntry]:
        self._next_offset = lines.count(b"\n")     # blank lines have offsets too
        return [decode_journal_line(line, offset) for offset, line in split_lines(lines)]

    def append(self, action: PolicyAction, config: PolicyConfig, forecast_digest: str) -> int:
        """Write one action; returns its offset, the line index replay will
        give it. Atomic: a failed write leaves no in-memory entry and no
        partial line in the file. The line is decoded before it is written,
        so one that replay would reject (e.g. a digest that is not
        lowercase hex) never reaches the file."""
        line = encode_journal_line(action, config, forecast_digest)
        entry = decode_journal_line(line, self._next_offset)
        self._log.append(f"{line}\n".encode("utf-8"))
        self.entries.append(entry)
        self._next_offset += 1
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
