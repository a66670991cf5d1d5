"""Alert records and the retirement-time security exception.

Kept apart from the detectors so that every defense implementation (the
paper's taintedness detector and the comparator defenses alike) can import
the alert vocabulary without touching policy or detector code.
:class:`Alert` is shared by all detectors; ``kind`` says which dereference
(or which comparator check) fired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: Kinds of tainted dereference the taintedness detector distinguishes.
KIND_LOAD = "load"
KIND_STORE = "store"
KIND_JUMP = "jump"
#: Tainted write into programmer-annotated never-tainted data (the
#: section 5.3 extension; see :mod:`repro.core.annotations`).
KIND_ANNOTATION = "annotation"
#: Comparator-defense kinds: a shadow-stack return-address mismatch and a
#: PAC pointer-authentication failure (see :mod:`repro.defenses`).
KIND_RETURN = "return"
KIND_PAC = "pac"

#: Kinds that dereference *data* pointers (checked after EX/MEM).
DATA_KINDS = frozenset({KIND_LOAD, KIND_STORE})

#: Kinds that dereference *code* pointers (checked after ID/EX).
CONTROL_KINDS = frozenset({KIND_JUMP})


@dataclass(frozen=True)
class Alert:
    """A malicious instruction caught by a detector.

    Matches the information the paper prints in its alert lines, e.g.
    ``44d7b0: sw $21,0($3)   $3=0x1002bc20``.
    """

    pc: int
    kind: str
    disassembly: str
    pointer_value: int
    taint_mask: int
    instruction_index: int = 0
    detail: str = ""
    #: Provenance chain in label mode: the :class:`repro.taint.labels.
    #: TaintLabel` records whose input bytes the dereferenced pointer
    #: derives from.  Empty in bit mode.  Not part of ``__str__`` so the
    #: rendered alert line (and every digest built on it) is identical
    #: across modes.
    provenance: Tuple = ()

    def __str__(self) -> str:
        return (
            f"{self.pc:x}: {self.disassembly}   "
            f"pointer={self.pointer_value:#010x} taint={self.taint_mask:#x}"
        )

    def describe_provenance(self) -> List[str]:
        """Human-readable provenance lines (empty in bit mode)."""
        return [label.describe() for label in self.provenance]


class SecurityException(Exception):
    """Raised at instruction retirement when a malicious instruction retires.

    The simulated operating system catches this exception and terminates the
    attacked process, defeating the ongoing intrusion.
    """

    def __init__(self, alert: Alert) -> None:
        super().__init__(str(alert))
        self.alert = alert
