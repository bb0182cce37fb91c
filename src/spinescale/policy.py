"""Knowledge plane: turn a latency forecast into add/remove spine actions.

Reading of the thresholds: a spine predicted persistently BELOW the low
threshold is under-utilized - its capacity is not needed, so it is a
removal candidate (cost saving). A network-wide aggregate ABOVE the high
threshold means congestion, so one spine is added. Safety floors,
a cooldown between action cycles, and an append-only decision journal
keep the loop auditable and non-flapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PolicyConfig
from .errors import ConsistencyError, DecodeError, PersistenceError
from .forecaster import Forecast

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
    added. Nothing is emitted while the cooldown has not elapsed.
    """
    if set(forecast.per_spine) != set(active_spines):
        raise ConsistencyError(
            f"forecast covers spines {sorted(forecast.per_spine)} but active spines are "
            f"{sorted(active_spines)}")
    if cycles_since_last_action < config.cooldown_cycles:
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
            f"remove_thr={config.remove_threshold_us!r} add_thr={config.add_threshold_us!r} "
            f"mean_pred={action.reason.statistic_us!r} digest={forecast_digest}")


def decode_journal_line(line: str, offset: int) -> JournalEntry:
    fields = {}
    for part in line.strip().split(" "):
        key, sep, value = part.partition("=")
        if not sep:
            raise DecodeError(f"journal offset {offset}: malformed field {part!r}")
        fields[key] = value
    expected = {"cycle", "kind", "spine", "reason", "remove_thr", "add_thr",
                "mean_pred", "digest"}
    if set(fields) != expected:
        raise DecodeError(f"journal offset {offset}: keys {sorted(fields)} != {sorted(expected)}")
    try:
        return JournalEntry(
            offset=offset,
            cycle=int(fields["cycle"]),
            kind=fields["kind"],
            spine_id=None if fields["spine"] == "-" else int(fields["spine"]),
            reason=fields["reason"],
            remove_threshold_us=float(fields["remove_thr"]),
            add_threshold_us=float(fields["add_thr"]),
            mean_pred_us=float(fields["mean_pred"]),
            forecast_digest=fields["digest"],
        )
    except ValueError as exc:
        raise DecodeError(f"journal offset {offset}: {exc}") from exc


class PolicyJournal:
    """Append-only action log, one key=value line per decision."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.entries: list[JournalEntry] = []
        self._handle = None
        if self.path is not None:
            if self.path.exists():
                self.entries = replay_journal(self.path)
            try:
                self._handle = self.path.open("a", encoding="utf-8")
            except OSError as exc:
                raise PersistenceError(f"cannot open journal {self.path}: {exc}") from exc

    def append(self, action: PolicyAction, config: PolicyConfig, forecast_digest: str) -> int:
        """Write one action; returns its offset. Atomic: a failed write
        leaves no in-memory entry."""
        line = encode_journal_line(action, config, forecast_digest)
        if self._handle is not None:
            try:
                self._handle.write(line + "\n")
                self._handle.flush()
            except OSError as exc:
                raise PersistenceError(f"journal write to {self.path} failed: {exc}") from exc
        offset = len(self.entries)
        self.entries.append(decode_journal_line(line, offset))
        return offset

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "PolicyJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay_journal(path: str | Path) -> list[JournalEntry]:
    """Parse a journal file back into its entry sequence."""
    path = Path(path)
    entries: list[JournalEntry] = []
    with path.open("r", encoding="utf-8") as fh:
        for offset, line in enumerate(fh):
            if line.strip():
                entries.append(decode_journal_line(line, offset))
    return entries
