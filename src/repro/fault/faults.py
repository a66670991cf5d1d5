"""What to inject: fault specs and how they corrupt machine state.

State faults flip bits in a live :class:`~repro.cpu.machine.MachineState`:

* ``mem``        -- XOR a memory byte with ``mask`` (taint bit preserved);
* ``reg``        -- XOR a register's 32-bit value with ``mask``;
* ``taint-mem``  -- flip the shadow taintedness bit of a memory byte;
* ``taint-reg``  -- XOR a register's 4-bit taint mask with ``mask``.

The taint-shadow kinds are the interesting ones for this paper: a set bit
models a soft error in the taintedness RAM itself (the detector cries wolf
-- a *false* alert, classified ``detected``), a cleared bit models the
detector losing track of attacker data (the trial degrades to whatever an
unprotected machine would do).  Both route through the machine's
:class:`~repro.taint.plane.TaintPlane`, which keeps the provenance
sidecar consistent when the plane runs in label mode.

Syscall-layer kinds (``syscall-errno``, ``syscall-short-read``,
``syscall-truncate``) are not applied here; the campaign arms them inside
the kernel as a :class:`~repro.kernel.syscalls.SyscallFault`.

*When* a fault lands is decided by the campaign runner
(:mod:`repro.fault.campaign`), which resolves every
:class:`~repro.fault.triggers.Trigger` to an exact retirement index of
the golden run.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "STATE_FAULT_KINDS",
    "SYSCALL_FAULT_KINDS",
    "apply_state_fault",
]

#: Fault kinds applied directly to machine state at a trigger point.
STATE_FAULT_KINDS = ("mem", "reg", "taint-mem", "taint-reg")

#: Fault kinds armed inside the kernel (syscall boundary).
SYSCALL_FAULT_KINDS = (
    "syscall-errno",
    "syscall-short-read",
    "syscall-truncate",
)

FAULT_KINDS = STATE_FAULT_KINDS + SYSCALL_FAULT_KINDS

#: Fault kind -> :class:`~repro.kernel.syscalls.SyscallFault` mode.
SYSCALL_FAULT_MODES = {
    "syscall-errno": "errno",
    "syscall-short-read": "short-read",
    "syscall-truncate": "truncate-input",
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``target`` is a byte address (``mem``/``taint-mem``) or a register
    number (``reg``/``taint-reg``); syscall kinds ignore it.  ``mask`` is
    the XOR flip mask: up to 8 bits for a memory byte, 32 for a register
    value, 4 for a register taint mask; ``taint-mem`` treats any non-zero
    mask as "flip the byte's shadow bit".
    """

    kind: str
    target: int = 0
    mask: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind in ("mem", "taint-mem"):
            return f"{self.kind}@{self.target:#010x}^{self.mask:#x}"
        if self.kind in ("reg", "taint-reg"):
            return f"{self.kind}@r{self.target}^{self.mask:#x}"
        return self.kind

    def __str__(self) -> str:
        return self.describe()


def apply_state_fault(spec: FaultSpec, machine) -> str:
    """Corrupt ``machine`` per ``spec``; returns a human-readable detail.

    Memory flips go through :meth:`~repro.cpu.machine.MachineState.mem_read`
    / ``mem_write`` so they land in the cache hierarchy when one is enabled
    -- exactly where a radiation-induced flip would land on real hardware.
    """
    kind = spec.kind
    if kind == "mem":
        value, taint = machine.mem_read(spec.target, 1)
        flipped = value ^ (spec.mask & 0xFF)
        machine.mem_write(spec.target, 1, flipped, taint)
        return (
            f"mem[{spec.target:#010x}] {value:#04x} -> {flipped:#04x}"
            f" (taint {taint} preserved)"
        )
    if kind == "taint-mem":
        # Plane-routed so label mode stays consistent: a 0->1 flip gets a
        # fault-injection provenance label, a 1->0 flip drops the byte's
        # label.  The value read-back/write-back (and cache placement)
        # matches the pre-plane behavior exactly.
        value, taint, flipped = machine.plane.flip_mem_taint(
            machine, spec.target
        )
        return (
            f"taint[{spec.target:#010x}] {taint} -> {flipped}"
            f" (data {value:#04x} preserved)"
        )
    if kind == "reg":
        if spec.target == 0:
            return "reg r0 is hardwired; flip discarded"
        regs = machine.regs
        value = regs.values[spec.target]
        flipped = (value ^ spec.mask) & 0xFFFFFFFF
        regs.values[spec.target] = flipped
        return f"reg r{spec.target} {value:#010x} -> {flipped:#010x}"
    if kind == "taint-reg":
        if spec.target == 0:
            return "reg r0 is hardwired; taint flip discarded"
        taint, flipped = machine.plane.flip_reg_taint(
            spec.target, spec.mask, machine.stats.instructions
        )
        return f"taint r{spec.target} {taint:#x} -> {flipped:#x}"
    raise ValueError(f"{spec.kind!r} is not a state fault kind")
