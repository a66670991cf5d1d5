"""When to inject: the trigger grammar.

A trigger names one point in a run's dynamic instruction stream::

    insn:1000          at retirement of dynamic instruction #1000
    pc:0x400100        at the first retirement of PC 0x400100
    pc:0x400100:3      at the third retirement of PC 0x400100
    syscall:3          when the first SYS_READ traps into the kernel
    syscall:*:2        when the second input syscall of any number traps
    syscall:4:2        when the second SYS_WRITE traps

The campaign runner resolves every trigger to an exact retirement index
of the golden run (the N-th visit of a PC, the N-th matching syscall),
so a trigger means exactly the same thing on the fused and the unfused
tier (both retire the same instruction stream).  State faults
land right after the instruction at that index retires; ``syscall``
triggers are armed inside the kernel as a
:class:`~repro.kernel.syscalls.SyscallFault`, because syscall-layer faults
corrupt OS-side state that machine-state flips cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Trigger", "parse_trigger"]

#: Trigger kinds understood by the campaign runner.
TRIGGER_KINDS = ("insn", "pc", "syscall")


@dataclass(frozen=True)
class Trigger:
    """A point in the dynamic execution at which a fault fires.

    ``value`` is the dynamic instruction index (``insn``), the program
    counter (``pc``), or the syscall number (``syscall``; None matches any
    input syscall).  ``occurrence`` counts matches before firing: the
    trigger fires on the ``occurrence``-th match (1-based).
    """

    kind: str
    value: Optional[int]
    occurrence: int = 1

    def __post_init__(self) -> None:
        if self.kind not in TRIGGER_KINDS:
            raise ValueError(f"unknown trigger kind {self.kind!r}")
        if self.kind != "syscall" and self.value is None:
            raise ValueError(f"{self.kind} trigger requires a value")
        if self.occurrence < 1:
            raise ValueError("trigger occurrence is 1-based")

    def spec(self) -> str:
        """The canonical spec string (``parse_trigger`` round-trips it)."""
        if self.kind == "insn":
            return f"insn:{self.value}"
        if self.kind == "pc":
            body = f"pc:{self.value:#x}"
        else:
            target = "*" if self.value is None else str(self.value)
            body = f"syscall:{target}"
        if self.occurrence != 1:
            body += f":{self.occurrence}"
        return body

    def __str__(self) -> str:
        return self.spec()


def parse_trigger(spec: str) -> Trigger:
    """Parse a trigger spec string (see the module docstring grammar)."""
    parts = spec.strip().split(":")
    if len(parts) < 2:
        raise ValueError(f"malformed trigger spec {spec!r}")
    kind = parts[0]
    if kind == "insn":
        if len(parts) != 2:
            raise ValueError(f"insn trigger takes one field: {spec!r}")
        return Trigger("insn", int(parts[1], 0))
    if kind == "pc":
        if len(parts) > 3:
            raise ValueError(f"too many fields in trigger spec {spec!r}")
        occurrence = int(parts[2], 0) if len(parts) == 3 else 1
        return Trigger("pc", int(parts[1], 0), occurrence)
    if kind == "syscall":
        if len(parts) > 3:
            raise ValueError(f"too many fields in trigger spec {spec!r}")
        value = None if parts[1] == "*" else int(parts[1], 0)
        occurrence = int(parts[2], 0) if len(parts) == 3 else 1
        return Trigger("syscall", value, occurrence)
    raise ValueError(f"unknown trigger kind {kind!r} in {spec!r}")
