"""Register file extended with per-byte taintedness bits.

"Corresponding to the one-bit extension to each memory byte, the processor
registers are also extended to include one taintedness bit for each byte"
(section 4.2).  Each 32-bit register therefore carries a 4-bit taint mask.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..isa.instructions import REGISTER_NAMES
from ..taint.bits import WORD_TAINTED
from ..taint.plane import TaintPlane

_MASK32 = 0xFFFFFFFF


class RegisterFile:
    """32 general-purpose registers plus HI/LO, each with a taint mask.

    Register 0 is hardwired to (0, clean); writes to it are discarded, as on
    MIPS.  The 32 GPR taint masks are owned by a
    :class:`~repro.taint.plane.TaintPlane` (``self.taints is
    plane.reg_taints``), which snapshots them together with the rest of the
    shadow state; the HI/LO taint masks are scalars that ride with the
    HI/LO values here.
    """

    __slots__ = ("plane", "values", "taints", "hi", "lo", "hi_taint", "lo_taint")

    def __init__(self, plane: Optional[TaintPlane] = None) -> None:
        if plane is None:
            plane = TaintPlane()
        self.plane = plane
        self.values: List[int] = [0] * 32
        # Identity-shared with the plane (and with every executor closure
        # that captured it at bind time).
        self.taints: List[int] = plane.reg_taints
        self.hi = 0
        self.lo = 0
        self.hi_taint = 0
        self.lo_taint = 0

    def read(self, number: int) -> Tuple[int, int]:
        """Return ``(value, taint_mask)`` of a register."""
        return self.values[number], self.taints[number]

    def write(self, number: int, value: int, taint_mask: int = 0) -> None:
        """Write a register; register 0 stays hardwired to clean zero."""
        if number == 0:
            return
        self.values[number] = value & _MASK32
        self.taints[number] = taint_mask & WORD_TAINTED

    def value(self, number: int) -> int:
        return self.values[number]

    def taint(self, number: int) -> int:
        return self.taints[number]

    def set_taint(self, number: int, taint_mask: int) -> None:
        """Overwrite only the taint mask (used by the compare-untaint rule)."""
        if number == 0:
            return
        self.taints[number] = taint_mask & WORD_TAINTED

    def snapshot(self) -> Tuple:
        """Immutable copy of the architectural register state.

        The 32 GPR taint masks are *not* captured here -- the owning
        plane's checkpoint covers them (once, next to the memory taint
        pages and label sidecars).
        """
        return (
            tuple(self.values),
            self.hi,
            self.lo,
            self.hi_taint,
            self.lo_taint,
        )

    def restore(self, snapshot: Tuple) -> None:
        """Roll the register file back to a snapshot, in place.

        In place because the executor bindings capture the ``values`` and
        ``taints`` lists themselves; rollback must not replace them.  GPR
        taint masks are restored by ``plane.restore_cow()``.
        """
        values, hi, lo, hi_taint, lo_taint = snapshot
        self.values[:] = values
        self.hi = hi
        self.lo = lo
        self.hi_taint = hi_taint
        self.lo_taint = lo_taint

    def tainted_registers(self) -> List[int]:
        """Register numbers currently holding any tainted byte."""
        return [n for n in range(32) if self.taints[n]]

    def dump(self) -> str:
        """Readable register dump for diagnostics."""
        rows = []
        for n in range(32):
            mark = "*" if self.taints[n] else " "
            rows.append(
                f"${REGISTER_NAMES[n]:>4}=({n:2}) {self.values[n]:08x}{mark}"
            )
        return "\n".join(
            "  ".join(rows[i : i + 4]) for i in range(0, 32, 4)
        )
