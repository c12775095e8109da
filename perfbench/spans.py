"""Spans recorded around calls into wirecut's public functions.

The tracer rebinds a function in the module namespace its callers look it up
in (``wirecut.channels.pauli_vector``, ``wirecut.dense.partial_inner``, ...)
to a wrapper that records one span per call: name, start, end, parent and an
optional count taken from the arguments or the result.  Nothing inside wirecut
changes; ``restore`` puts the original functions back.

Self time is attributed by a sweep over all span boundaries: each instant is
charged to the innermost spans open at that instant, split evenly when
several threads have one open (``costs.gate_count_bench`` runs ``synthesize``
on a thread pool).  The attributed times of all spans therefore add up to the
time covered by the top-level spans, with nothing counted twice.
"""

from __future__ import annotations

import threading
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "count")

    def __init__(self, name: str, parent: "Span | None", thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.count = None
        self.start = 0.0
        self.end = 0.0


class Tracer:
    """Records spans for the functions passed to :meth:`patch`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def patch(self, module, attr: str, name: str, count=None) -> None:
        """Rebind ``module.attr`` to a recording wrapper of the original.

        ``count(args, result)`` returns a number stored on the span.
        """
        original = getattr(module, attr)
        spans = self.spans
        main_stack = self._main_stack

        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool worker's first span belongs to the span that is waiting on it
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = Span(name, parent, threading.get_ident())
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if count is not None:
                span.count = count(args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def attribute(spans: list[Span]) -> dict[Span, float]:
    """Self time of every span, by a sweep over all start and end times."""
    events = []
    for span in spans:
        events.append((span.start, 1, span))
        events.append((span.end, 0, span))
    # at equal times close before opening, so touching spans never overlap
    events.sort(key=lambda e: (e[0], e[1]))
    self_time = {span: 0.0 for span in spans}
    open_children: dict[Span, int] = {}
    leaves: set[Span] = set()
    last = None
    for t, opening, span in events:
        if last is not None and leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                self_time[leaf] += share
        last = t
        parent = span.parent if span.parent in open_children else None
        if opening:
            open_children[span] = 0
            leaves.add(span)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            del open_children[span]
            leaves.discard(span)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return self_time


def to_json(spans: list[Span]) -> list[dict]:
    """Spans as plain records, parents given by index, times from the first start."""
    index = {span: i for i, span in enumerate(spans)}
    t0 = min((s.start for s in spans), default=0.0)
    return [
        {
            "name": s.name,
            "start": s.start - t0,
            "end": s.end - t0,
            "parent": index.get(s.parent),
            "thread": s.thread,
            "count": s.count if isinstance(s.count, (int, float, tuple)) else None,
        }
        for s in spans
    ]
