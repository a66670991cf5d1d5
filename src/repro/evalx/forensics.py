"""Post-mortem forensics: explain a detection alert to a human.

When the detector stops a process, the interesting questions are the ones
the paper answers in its attack walkthroughs: *which* instruction tripped,
*what* pointer value it tried to dereference, *where* that instruction sits
in the program, what the machine was doing just before, and what the
tainted bytes look like in memory.  :func:`explain` assembles that report
from a finished :class:`~repro.attacks.replay.RunResult`.
"""

from __future__ import annotations

from typing import List

from ..attacks.replay import RunResult
from ..isa.instructions import REGISTER_NAMES
from .reporting import render_kv


def _printable(byte: int) -> str:
    return chr(byte) if 32 <= byte < 127 else "."


def hexdump(memory, address: int, length: int = 32) -> List[str]:
    """Hexdump with taint marks: tainted bytes are printed UPPERCASE and
    flagged in the side gutter."""
    lines = []
    start = address & ~0xF
    end = address + length
    cursor = start
    while cursor < end:
        data = memory.read_bytes(cursor, 16)
        taint = memory.read_taint(cursor, 16)
        cells = []
        chars = []
        for i, byte in enumerate(data):
            text = f"{byte:02x}"
            cells.append(text.upper() if taint[i] else text)
            chars.append(_printable(byte))
        gutter = "".join("T" if flag else "." for flag in taint)
        lines.append(
            f"  {cursor:08x}  {' '.join(cells)}  |{''.join(chars)}|  {gutter}"
        )
        cursor += 16
    return lines


def recent_trace(result: RunResult, count: int = 8) -> List[str]:
    """Disassembled tail of the executed-PC ring buffer.

    Prefers the replay layer's event-recorded trace (``result.trace``,
    fed by ``InstructionRetired`` subscriptions) and falls back to the
    machine's always-on ``recent_pcs`` deque.
    """
    sim = result.sim
    if sim is None:
        return []
    trace = getattr(result, "trace", None)
    pcs = list(trace if trace else sim.recent_pcs)
    lines = []
    for pc in pcs[-count:]:
        try:
            instr = sim.executable.instruction_at(pc)
            text = instr.text
        except (IndexError, KeyError):
            text = "<outside text segment>"
        source = sim.executable.source_map.get(pc, "")
        suffix = f"    ; {source}" if source and source != text else ""
        lines.append(f"  {pc:08x}: {text}{suffix}")
    return lines


def tainted_registers(result: RunResult) -> List[str]:
    """Registers holding tainted bytes at the stop, with values."""
    sim = result.sim
    if sim is None:
        return []
    rows = []
    for number in sim.regs.tainted_registers():
        value, taint = sim.regs.read(number)
        rows.append(
            f"  ${REGISTER_NAMES[number]} (${number}) = {value:#010x} "
            f"taint={taint:#x}"
        )
    return rows


def provenance_report(result: RunResult) -> str:
    """Attribute a detected attack to the external input that caused it.

    Renders the alert's provenance chain -- which syscall (or argv/env
    entry) brought the tainting bytes in, and which byte range of that
    input the dereferenced pointer derives from.  Provenance is only
    recorded in label mode (``taint_labels=True``); in bit mode this
    reports how to enable it.
    """
    alert = result.alert
    if alert is None:
        return "no alert: nothing to attribute"
    if not alert.provenance:
        return (
            "no provenance labels recorded; re-run in label mode "
            "(ExecOptions(taint_labels=True) or `repro forensics`) to "
            "attribute tainted bytes to their input"
        )
    parts = [
        f"pointer at pc={alert.pc:#x} "
        f"(value {alert.pointer_value:#010x}) tainted by:"
    ]
    for label in alert.provenance:
        lo, hi = label.offset_range
        parts.append(
            f"  - {label.describe()}"
            f"  [input bytes {lo}..{max(hi - 1, lo)}, "
            f"copied in at instruction {label.insn_index:,}]"
        )
    return "\n".join(parts)


def explain(result: RunResult, context_bytes: int = 32) -> str:
    """Produce a forensic report for a finished run.

    For detected attacks: the alert line in the paper's format, the
    enclosing symbol, the instruction trail, tainted registers, the
    provenance chain (label mode), and a taint-annotated hexdump around
    the dereferenced pointer.  For other outcomes: a compact summary.
    """
    parts: List[str] = []
    if not result.detected or result.alert is None or result.sim is None:
        parts.append(f"outcome: {result.describe()}")
        if result.kernel is not None and result.kernel.process.events:
            events = ", ".join(
                str(e) for e in result.kernel.process.events
            )
            parts.append(f"kernel events: {events}")
        if result.sim is not None:
            stats = result.sim.stats
            parts.append(
                f"executed {stats.instructions:,} instructions; "
                f"{stats.tainted_dereferences} tainted dereference(s) "
                "went unchecked"
            )
        return "\n".join(parts)

    alert = result.alert
    sim = result.sim
    symbol = sim.executable.symbol_at(alert.pc) or "?"
    parts.append("SECURITY ALERT — tainted pointer dereference")
    parts.append(
        render_kv(
            [
                ("instruction", f"{alert.pc:x}: {alert.disassembly}"),
                ("in function", symbol),
                ("dereference kind", alert.kind),
                ("pointer value", f"{alert.pointer_value:#010x}"),
                ("taint mask", f"{alert.taint_mask:#06b}"),
                ("source line", alert.detail or "-"),
                ("instructions executed", f"{sim.stats.instructions:,}"),
            ]
        )
    )
    if alert.provenance:
        parts.append("tainted by:")
        parts.extend(f"  {line}" for line in alert.describe_provenance())
    trail = recent_trace(result)
    if trail:
        parts.append("recent instructions:")
        parts.extend(trail)
    registers = tainted_registers(result)
    if registers:
        parts.append("tainted registers at stop:")
        parts.extend(registers)
    parts.append(
        f"memory near the dereferenced pointer ({alert.pointer_value:#x}), "
        "tainted bytes UPPERCASE:"
    )
    parts.extend(hexdump(sim.memory, alert.pointer_value, context_bytes))
    return "\n".join(parts)
