"""In-memory spans for the traced run, recorded from outside ``src/``.

A :class:`Tracer` replaces a public function at the binding its caller
looks up (a module global, a class attribute, or a dispatch-table
entry) with a wrapper that records one :class:`Span` per call: name,
start, end, parent span and the benchmark operation it belongs to.
Nothing inside the program under test is edited; :meth:`Tracer.uninstall`
puts every original back.

Self time is a span's duration minus the part of its interval that its
children cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    kind: str


class Tracer:
    """Records spans and counters; installs and removes the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.op: int | None = None
        self.kind = "setup"
        self._stack: list[int] = []
        self._restore: list = []

    # ---- recording ----------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _traced(self, original, name: str, on_return):
        stack, spans = self._stack, self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(
                len(spans), name, time.perf_counter(), float("nan"),
                stack[-1] if stack else None, self.op, self.kind,
            )
            spans.append(span)
            stack.append(span.sid)
            try:
                out = original(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
            if on_return is not None:
                on_return(self, args, kwargs, out)
            return out

        return traced

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Trace ``owner.attr`` (a module global or a class attribute)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._traced(original, name, on_return))
        self._restore.append(lambda: setattr(owner, attr, original))

    def wrap_entry(self, table: dict, key, name: str, on_return=None) -> None:
        """Trace one entry of a dispatch table looked up at call time."""
        original = table[key]
        table[key] = self._traced(original, name, on_return)
        self._restore.append(lambda: table.__setitem__(key, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ---- output -------------------------------------------------------

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "spans": [asdict(s) for s in self.spans],
                    "counters": self.counters,
                }
            )
        )


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the union of child intervals.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans named in ``names`` with no ancestor named in ``names``.

    Summing these counts nested calls of the same layer (a sharded
    compaction compacting its bands, say) once.
    """
    by_id = {s.sid: s for s in spans}
    return [
        s for s in spans
        if s.name in names and not has_ancestor(by_id, s, names)
    ]


def has_ancestor(by_id: dict[int, Span], span: Span, names: set[str]) -> bool:
    """Whether any span above ``span`` is named in ``names``."""
    p = span.parent
    while p is not None:
        if by_id[p].name in names:
            return True
        p = by_id[p].parent
    return False
