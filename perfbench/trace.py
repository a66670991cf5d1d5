"""In-memory spans around calls into the repo's layers, and self time.

The tracer never edits the program: :meth:`Tracer.wrap` replaces a public
function or method *as seen from its call site* with a wrapper that
records one span per call, and :meth:`Tracer.close` puts every original
back.  Spans stay in memory until the run ends.

A span's **self time** is its duration minus the part of its interval
covered by its child spans; summing self time over a tree gives the
root's duration exactly, so a per-layer table accounts for all of it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: object
    #: Counts recorded at the same boundary (e.g. instructions retired).
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while :attr:`enabled`; wrappers are inert otherwise.

    ``enabled`` is per thread, so one client thread can run an op traced
    while another runs its untraced twin.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    @property
    def enabled(self) -> bool:
        return getattr(self._local, "enabled", False)

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._local.enabled = value

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: object = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            id=next(self._ids),
            name=name,
            start=self.clock(),
            end=0.0,
            parent=parent.id if parent is not None else None,
            op=op if op is not None or parent is None else parent.op,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def span(self, name: str, op: object = None) -> "_SpanContext":
        """``with tracer.span(name):`` -- a no-op while disabled."""
        return _SpanContext(self, name, op)

    def add(
        self,
        name: str,
        duration: float,
        parent: Span,
        offset: float = 0.0,
        counts: Optional[Dict[str, float]] = None,
    ) -> None:
        """Record a child of ``parent`` known only by its duration (a
        remote phase, such as a served job's queue wait), placed
        ``offset`` seconds after the parent's start."""
        start = parent.start + offset
        span = Span(
            id=next(self._ids),
            name=name,
            start=start,
            end=start + duration,
            parent=parent.id,
            op=parent.op,
            counts=dict(counts or {}),
        )
        with self._lock:
            self.spans.append(span)

    # -- wrapping layer entry points ------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: Union[str, Callable[..., str]],
        before: Optional[Callable[..., object]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is the span name, or a function of the call's arguments
        returning it (e.g. to split compile time by opt level).

        ``before(*args, **kwargs)`` runs before the call and its value is
        handed to ``after(span, state, *args, **kwargs)``, which runs once
        the call returns or raises -- the place to record counts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            state = before(*args, **kwargs) if before is not None else None
            label = name(*args, **kwargs) if callable(name) else name
            span = tracer.begin(label)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)
                if after is not None:
                    after(span, state, *args, **kwargs)

        had_own = attr in vars(owner)
        saved = vars(owner).get(attr)
        setattr(owner, attr, traced)

        def restore() -> None:
            if had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

        self._restore.append(restore)

    def close(self) -> None:
        """Put every wrapped function back (reverse order)."""
        self.enabled = False
        while self._restore:
            self._restore.pop()()


class _SpanContext:
    __slots__ = ("tracer", "name", "op", "span")

    def __init__(self, tracer: Tracer, name: str, op: object) -> None:
        self.tracer = tracer
        self.name = name
        self.op = op
        self.span: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        if self.tracer.enabled:
            self.span = self.tracer.begin(self.name, self.op)
        return self.span

    def __exit__(self, *exc_info) -> None:
        if self.span is not None:
            self.tracer.end(self.span)


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (each child clipped to its parent)."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.id, []).append((start, end))
    return {
        span.id: max(0.0, span.duration - _covered(children.get(span.id, ())))
        for span in spans
    }
