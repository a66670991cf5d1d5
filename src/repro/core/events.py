"""Structured execution events: the machine's observation layer.

The execution engines publish typed events instead of exposing ad-hoc
per-instruction callbacks or internal buffers.  Detectors, tracers,
forensics recorders, and experiment harnesses subscribe to exactly the
events they need, and an engine with **zero subscribers pays nothing**:
the emit sites are guarded by a truthiness check on the per-type
subscriber list, so no event object is ever allocated on the fast path.
This mirrors how the hardware-CFI literature structures detectors as
pipeline *observers* rather than inline special cases.

Event taxonomy (payload fields and when each fires):

=====================  =====================================================
Event                  Fired when
=====================  =====================================================
InstructionRetired     an instruction's architectural effects have committed
                       (functional engine: after the bound executor ran; the
                       pipeline applies effects in program order at its EX
                       occupancy, so ordering is identical).  An instruction
                       that raises a fault or a security exception never
                       retires and never produces this event.
TaintPropagated        an executed instruction wrote a *tainted* result --
                       to a register (``dest_kind="reg"``), to HI/LO
                       (``"hilo"``), or to memory via a store (``"mem"``).
TaintedDereference     the detector marked an instruction malicious (a
                       tainted word used as a load/store address or a
                       jump-register target, or a tainted write into
                       annotated data).  Fired just before the
                       SecurityException is raised.
SyscallEnter           a ``syscall`` instruction is about to trap into the
                       kernel (``number`` is the value in ``$v0``).
SyscallExit            the kernel returned from the syscall (``result`` is
                       the value left in ``$v0``).
MemoryFaulted          instruction execution aborted with a machine-level
                       fault (bad fetch, unaligned or unmapped access);
                       fired just before the fault exception propagates.
                       Both engines emit it, including the pipeline's fetch
                       stage and faults raised inside the kernel while
                       servicing a syscall.
FaultInjected          the fault-injection subsystem corrupted live state
                       (a memory/register/taint-bitmap bit flip, or a
                       syscall-layer fault applied by the kernel).  Fired
                       at the moment the corruption lands.
TrialCompleted         a fault-injection campaign finished one trial and
                       classified it (detected / masked / sdc / crash /
                       timeout).
=====================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

__all__ = [
    "InstructionRetired",
    "TaintPropagated",
    "TaintedDereference",
    "SyscallEnter",
    "SyscallExit",
    "MemoryFaulted",
    "FaultInjected",
    "TrialCompleted",
    "EVENT_TYPES",
    "EventBus",
    "EventLog",
]


@dataclass(frozen=True)
class InstructionRetired:
    """An instruction committed its architectural effects.

    ``index`` is the 1-based position in the dynamic instruction stream
    (equal to ``stats.instructions`` at retirement).
    """

    pc: int
    instr: Any  # repro.isa.instructions.Instr (Any avoids an import cycle)
    index: int


@dataclass(frozen=True)
class TaintPropagated:
    """An instruction produced a tainted result.

    ``dest_kind`` is ``"reg"`` (``dest`` = register number), ``"hilo"``
    (``dest`` = 0), or ``"mem"`` (``dest`` = byte address); ``taint`` is the
    word taint mask that was written.
    """

    pc: int
    instr: Any
    dest_kind: str
    dest: int
    taint: int


@dataclass(frozen=True)
class TaintedDereference:
    """The detector flagged a tainted-pointer dereference (section 4.3)."""

    pc: int
    kind: str  # "load" | "store" | "jump" | "annotation"
    alert: Any  # repro.core.detector.Alert


@dataclass(frozen=True)
class SyscallEnter:
    """A syscall instruction is trapping into the kernel."""

    pc: int
    number: int


@dataclass(frozen=True)
class SyscallExit:
    """The kernel completed a syscall."""

    pc: int
    number: int
    result: int


@dataclass(frozen=True)
class MemoryFaulted:
    """Execution aborted with a machine-level fault."""

    pc: int
    message: str


@dataclass(frozen=True)
class FaultInjected:
    """A fault campaign corrupted live machine or kernel state.

    ``kind`` names the fault class (``"mem"``, ``"reg"``, ``"taint-mem"``,
    ``"taint-reg"``, ``"syscall-errno"``, ``"syscall-short-read"``,
    ``"syscall-truncate"``); ``detail`` describes exactly what was flipped.
    """

    pc: int
    kind: str
    detail: str


@dataclass(frozen=True)
class TrialCompleted:
    """A fault-injection campaign classified one finished trial."""

    index: int
    outcome: str  # "detected" | "masked" | "sdc" | "crash" | "timeout"
    detail: str


#: Every event type the engines can publish.
EVENT_TYPES: Tuple[type, ...] = (
    InstructionRetired,
    TaintPropagated,
    TaintedDereference,
    SyscallEnter,
    SyscallExit,
    MemoryFaulted,
    FaultInjected,
    TrialCompleted,
)

Handler = Callable[[Any], None]


class EventBus:
    """Typed publish/subscribe hub owned by one machine.

    The per-type subscriber lists have *stable identity*: the engines
    capture them once (``bus.subscribers(InstructionRetired)``) and guard
    every emit site with a truthiness check on the captured list, so
    subscribing or unsubscribing mid-run takes effect immediately and a
    type with no subscribers costs one list-truthiness test -- no event
    object is constructed.  ``events_emitted`` counts every event that was
    actually allocated and dispatched, which is what the zero-allocation
    tests assert on.
    """

    __slots__ = ("_subscribers", "events_emitted")

    def __init__(self) -> None:
        self._subscribers: Dict[type, List[Handler]] = {
            event_type: [] for event_type in EVENT_TYPES
        }
        self.events_emitted = 0

    def subscribers(self, event_type: type) -> List[Handler]:
        """The live subscriber list for ``event_type`` (stable identity)."""
        try:
            return self._subscribers[event_type]
        except KeyError:
            raise TypeError(f"unknown event type {event_type!r}") from None

    def subscribe(self, event_type: type, handler: Handler) -> Handler:
        """Register ``handler`` for ``event_type``; returns the handler."""
        self.subscribers(event_type).append(handler)
        return handler

    def unsubscribe(self, event_type: type, handler: Handler) -> None:
        """Remove a previously registered handler (no-op when absent)."""
        try:
            self.subscribers(event_type).remove(handler)
        except ValueError:
            pass

    def has_subscribers(self, event_type: type) -> bool:
        return bool(self.subscribers(event_type))

    def emit(self, event: Any) -> None:
        """Dispatch an already-constructed event to its subscribers.

        Engines call this only behind an ``if subscribers:`` guard; every
        constructed event passes through here exactly once.
        """
        self.events_emitted += 1
        for handler in self._subscribers[type(event)]:
            handler(event)


class EventLog:
    """A recording subscriber: appends selected events to ``self.events``.

    >>> log = EventLog(bus, (TaintedDereference,))   # doctest: +SKIP
    ... run ...
    >>> log.of(TaintedDereference)                   # doctest: +SKIP
    """

    def __init__(self, bus: EventBus, event_types: Tuple[type, ...]) -> None:
        self.events: List[Any] = []
        self._bus = bus
        self._types = tuple(event_types)
        for event_type in self._types:
            bus.subscribe(event_type, self.events.append)

    def of(self, event_type: type) -> List[Any]:
        """Recorded events of one type, in emission order."""
        return [e for e in self.events if type(e) is event_type]

    def detach(self) -> None:
        """Stop recording (unsubscribe from every type)."""
        for event_type in self._types:
            self._bus.unsubscribe(event_type, self.events.append)

    def __len__(self) -> int:
        return len(self.events)


def first_of(
    log: EventLog, event_type: type
) -> Optional[Any]:
    """First recorded event of ``event_type``, or None."""
    events = log.of(event_type)
    return events[0] if events else None
