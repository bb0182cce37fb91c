"""Call-level tracing installed from outside the program.

A Tracer replaces a function with a timing wrapper at the place where its
caller looks the name up (a module global such as
`spinescale.forecaster.lstm_layer_forward`, or a class attribute such as
`TopicBus.publish`), and puts the original back on `close`. Nothing under
`src/` is edited.

Every wrapped call adds to its name's call count and busy time, and to its
layer's self time: the call's duration minus the time of wrapped calls
nested inside it, so the layer self times of a traced region add up to the
region's wall time. Stage-level names also record a span (name, start, end,
parent). Fine-grained names, called 10^4 to 10^6 times a run, record no
span: only count, total time and, where asked, every duration for a p50.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

CYCLE_SPAN = "pipeline.cycle"


@dataclass
class CallStat:
    layer: str
    calls: int = 0
    s: float = 0.0
    durations: list[float] | None = None


@dataclass
class Tracer:
    stats: dict[str, CallStat] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    layer_self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    spans: list[dict] = field(default_factory=list)
    _frames: list[list[float]] = field(default_factory=list)
    _open_spans: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def hook(self, owner, attr: str, name: str, layer: str, *, span: bool = False,
             p50: bool = False, count: Callable | None = None, opens_cycle: bool = False) -> None:
        """Wrap `owner.attr`, recording it under `name` in `layer`.

        count(args, kwargs, result) returns {counter name: increment}.
        opens_cycle closes the open cycle span, if any, and opens the next
        one before the call, so the stages that follow are its children.
        """
        original_attr = vars(owner).get(attr)   # the raw descriptor, for close()
        target = getattr(owner, attr)
        stat = self.stats.setdefault(name, CallStat(layer=layer))
        if p50 and stat.durations is None:
            stat.durations = []

        def wrapper(*args, **kwargs):
            if opens_cycle:
                self._open_cycle()
            sid, t0 = self._enter(name if span else None)
            try:
                result = target(*args, **kwargs)
            finally:
                self._exit(stat, sid, t0)
            if count is not None:
                for key, inc in count(args, kwargs, result).items():
                    self.counters[key] += inc
            return result

        setattr(owner, attr, staticmethod(wrapper) if isinstance(original_attr, classmethod)
                else wrapper)
        self._restore.append((owner, attr, original_attr))

    def region(self, name: str, layer: str) -> "_Region":
        """Context manager timing a block of the caller's own code as a span."""
        return _Region(self, name, self.stats.setdefault(name, CallStat(layer=layer)))

    def close(self) -> None:
        """Put every wrapped name back as it was."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _enter(self, span_name: str | None) -> tuple[int | None, float]:
        self._frames.append([0.0])
        sid = None
        if span_name is not None:
            sid = self._new_span(span_name)
        return sid, time.perf_counter()

    def _exit(self, stat: CallStat, sid: int | None, t0: float) -> None:
        t1 = time.perf_counter()
        dt = t1 - t0
        child_s = self._frames.pop()[0]
        if self._frames:
            self._frames[-1][0] += dt
        self.layer_self_s[stat.layer] += dt - child_s
        stat.calls += 1
        stat.s += dt
        if stat.durations is not None:
            stat.durations.append(dt)
        if sid is not None:
            # a cycle span left open inside this call ends with it
            while self._open_spans and self._open_spans[-1] != sid:
                self.spans[self._open_spans.pop()]["end"] = t1
            self._open_spans.pop()
            self.spans[sid]["start"] = t0
            self.spans[sid]["end"] = t1

    def _new_span(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({"id": sid, "name": name, "parent": parent,
                           "start": time.perf_counter(), "end": None})
        self._open_spans.append(sid)
        return sid

    def _open_cycle(self) -> None:
        if self._open_spans and self.spans[self._open_spans[-1]]["name"] == CYCLE_SPAN:
            self.spans[self._open_spans.pop()]["end"] = time.perf_counter()
        self._new_span(CYCLE_SPAN)

    def children(self, span: dict, name: str) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"] and s["name"] == name]


class _Region:
    def __init__(self, tracer: Tracer, name: str, stat: CallStat) -> None:
        self.tracer, self.name, self.stat = tracer, name, stat

    def __enter__(self) -> "_Region":
        self.sid, self.t0 = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._exit(self.stat, self.sid, self.t0)
