"""Core pointer-taintedness model: the event layer, the Table 1
propagation rules and the section 5.3 annotations.

The taint bits live in :mod:`repro.taint`; the detector, its alert
vocabulary and the detection policies live in :mod:`repro.defenses`.
"""

from .events import (
    EVENT_TYPES,
    EventBus,
    EventLog,
    FaultInjected,
    InstructionRetired,
    MemoryFaulted,
    SyscallEnter,
    SyscallExit,
    TaintPropagated,
    TaintedDereference,
    TrialCompleted,
)

__all__ = [
    "EVENT_TYPES",
    "EventBus",
    "EventLog",
    "FaultInjected",
    "InstructionRetired",
    "MemoryFaulted",
    "TrialCompleted",
    "SyscallEnter",
    "SyscallExit",
    "TaintPropagated",
    "TaintedDereference",
]
