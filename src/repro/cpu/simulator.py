"""Functional execution engine: fetch -> bound-executor dispatch.

The text segment is predecoded at construction time by
:func:`repro.cpu.dispatch.bind_program`, which turns every static
instruction into an executor closure with operand fields, load/store
metadata, branch targets, and the applicable Table 1 taint rule resolved
once.  ``step()``/``run()`` are therefore pure drivers: index the binding
for the current pc, call it, account the retirement.  All ISA semantics,
Table 1 propagation, and the section 4.3 dereference checks live in
:mod:`repro.cpu.dispatch`; all architectural state lives in
:class:`repro.cpu.machine.MachineState`, which the cycle-level five-stage
model (:mod:`repro.cpu.pipeline`) shares.

Observation happens through the machine's typed event bus
(:mod:`repro.core.events`): subscribe to ``InstructionRetired`` for
tracing, ``TaintedDereference`` for alerts, ``MemoryFaulted`` for faults.
With zero subscribers the engine allocates no event objects.

The SimpleScalar PISA ISA the paper uses has no branch delay slots, and
neither does this machine.
"""

from __future__ import annotations

from time import monotonic as _monotonic
from typing import Callable, Optional

from ..core.events import InstructionRetired, MemoryFaulted
from ..defenses.policy import DetectionPolicy
from ..isa.instructions import Instr
from ..isa.program import Executable
from ..mem.tainted_memory import MemoryFault
from .dispatch import bind_program
from .machine import (
    ExecutionLimit,
    MachineState,
    RECENT_PC_DEPTH,
    SimulatorFault,
)
from .superblock import SuperblockCache

__all__ = ["ExecutionLimit", "Simulator", "SimulatorFault"]


class Simulator(MachineState):
    """Functional simulator for one process image.

    Args:
        executable: the program image to load.
        policy: detection policy (defaults to the paper's pointer-taintedness
            policy).
        syscall_handler: callable invoked on ``syscall`` instructions with
            the simulator as argument (normally a :class:`repro.kernel.Kernel`
            bound to a process).
        use_caches: route data accesses through a taint-carrying L1/L2
            hierarchy instead of directly to RAM.
        taint_labels: run the taint plane in provenance-label mode (see
            :mod:`repro.taint.plane`).
        superblocks: fuse straight-line decoded runs into single closures
            (:mod:`repro.cpu.superblock`).  On by default; results are
            byte-identical either way -- the fused tier falls back to
            single-stepping whenever an ``InstructionRetired`` subscriber
            needs per-instruction events.
    """

    def __init__(
        self,
        executable: Executable,
        policy: Optional[DetectionPolicy] = None,
        syscall_handler: Optional[Callable[["Simulator"], None]] = None,
        use_caches: bool = False,
        taint_labels: bool = False,
        superblocks: bool = True,
    ) -> None:
        super().__init__(executable, policy, syscall_handler, use_caches, taint_labels)
        #: Per-slot executor bindings, parallel to ``executable.instructions``.
        self._ops = bind_program(self)
        # Parallel mnemonic/class name lists so the per-step instruction-mix
        # accounting never touches Instr attributes on the hot path.
        self._names = [instr.name for instr in self._instructions]
        self._klasses = [instr.klass for instr in self._instructions]
        #: Fused superblock cache (derived from the immutable predecode:
        #: snapshot-safe, flushed only on text-segment writes).
        self.superblocks = SuperblockCache()
        self.superblocks_enabled = bool(superblocks)

    def _on_text_write(self) -> None:
        # Self-modifying-code write: drop every fused block so no fused
        # closure outlives a text write (re-fusion happens lazily at the
        # next dispatch, from the same immutable decode).
        self.superblocks.invalidate()

    # ------------------------------------------------------------------
    # execution loop
    # ------------------------------------------------------------------

    def fetch(self, pc: int) -> Instr:
        index = (pc - self._text_base) >> 2
        if pc & 3 or not 0 <= index < len(self._instructions):
            fault = SimulatorFault(
                f"instruction fetch from {pc:#010x} (outside text segment)"
            )
            fault_subs = self.events.subscribers(MemoryFaulted)
            if fault_subs:
                self.events.emit(MemoryFaulted(pc, str(fault)))
            raise fault
        return self._instructions[index]

    def run(self, max_instructions: int = 50_000_000) -> int:
        """Run until exit or alert; returns the process exit status.

        Raises :class:`SecurityException` when the detector fires and
        :class:`ExecutionLimit` when the instruction budget -- the smaller
        of ``max_instructions`` and any machine-level watchdog limit armed
        via :meth:`~repro.cpu.machine.MachineState.arm_watchdog` -- is
        exhausted, or when an armed wall-clock deadline passes (checked
        every 2048 instructions to keep the hot path cheap).

        With :attr:`superblocks_enabled` (the default) dispatch runs
        through the fused superblock tier; otherwise the classic
        one-closure-per-instruction loop.  Both produce byte-identical
        architectural results, statistics, and events.
        """
        if self.superblocks_enabled:
            return self._run_fused(max_instructions)
        return self._run_unfused(max_instructions)

    def _run_unfused(self, max_instructions: int) -> int:
        """The classic per-instruction loop (also the semantic reference
        the fused tier's single-step fallback replicates exactly)."""
        ops = self._ops
        names = self._names
        klasses = self._klasses
        count = len(ops)
        base = self._text_base
        instructions = self._instructions
        stats = self.stats
        by_mnemonic = stats.by_mnemonic
        by_class = stats.by_class
        recent = self.recent_pcs
        bus = self.events
        retired_subs = bus.subscribers(InstructionRetired)
        fault_subs = bus.subscribers(MemoryFaulted)
        pc = self.pc
        budget = max_instructions
        limit = self.instruction_limit
        if limit is not None:
            budget = min(budget, max(0, limit - stats.instructions))
        deadline = self.deadline
        monotonic = _monotonic
        try:
            while not self.halted:
                if budget <= 0:
                    raise ExecutionLimit(
                        f"exceeded instruction budget at pc={pc:#x}",
                        reason="instructions",
                        pc=pc,
                        instructions=stats.instructions,
                    )
                if (
                    deadline is not None
                    and stats.instructions & 2047 == 0
                    and monotonic() >= deadline
                ):
                    raise ExecutionLimit(
                        f"watchdog: wall-clock deadline exceeded at "
                        f"pc={pc:#x}",
                        reason="wallclock",
                        pc=pc,
                        instructions=stats.instructions,
                    )
                index = (pc - base) >> 2
                if pc & 3 or index < 0 or index >= count:
                    fault = SimulatorFault(
                        f"instruction fetch from {pc:#010x} (outside text segment)"
                    )
                    if fault_subs:
                        bus.emit(MemoryFaulted(pc, str(fault)))
                    raise fault
                recent.append(pc)
                stats.instructions += 1
                by_mnemonic[names[index]] += 1
                by_class[klasses[index]] += 1
                try:
                    next_pc = ops[index]()
                except (SimulatorFault, MemoryFault) as exc:
                    if fault_subs:
                        bus.emit(MemoryFaulted(pc, str(exc)))
                    raise
                if retired_subs:
                    bus.emit(
                        InstructionRetired(
                            pc, instructions[index], stats.instructions
                        )
                    )
                pc = next_pc
                budget -= 1
        finally:
            # On SecurityException / faults the pc stays at the offending
            # instruction; on a clean halt it has advanced past the exit
            # syscall -- same contract as before the decode-once refactor.
            self.pc = pc
        return self.exit_status if self.exit_status is not None else 0

    def _run_fused(self, max_instructions: int) -> int:
        """Superblock-fused dispatch loop.

        Per dispatch: look up (or lazily build) the superblock at the
        current pc and run it as one closure, batching the loop-exit
        checks and instruction-mix accounting per block.  Falls back to
        an exact copy of the unfused per-instruction body whenever a
        block cannot run fused: an ``InstructionRetired`` subscriber
        needs per-instruction events (tracing, golden-run recording, defense
        comparators), the remaining budget is smaller than the block, or
        the block is a single instruction.  On a mid-block exception the
        sync closure's ``stats.instructions`` updates pinpoint the
        faulting instruction, and partial progress (recent pcs,
        instruction mix, ``self.pc``) is reconciled to byte-identical
        unfused state before the exception propagates.
        """
        ops = self._ops
        names = self._names
        klasses = self._klasses
        count = len(ops)
        base = self._text_base
        instructions = self._instructions
        stats = self.stats
        by_mnemonic = stats.by_mnemonic
        by_class = stats.by_class
        recent = self.recent_pcs
        bus = self.events
        retired_subs = bus.subscribers(InstructionRetired)
        fault_subs = bus.subscribers(MemoryFaulted)
        cache = self.superblocks
        blocks = cache.blocks
        lookup = cache.lookup
        hits = 0
        pc = self.pc
        budget = max_instructions
        limit = self.instruction_limit
        if limit is not None:
            budget = min(budget, max(0, limit - stats.instructions))
        deadline = self.deadline
        monotonic = _monotonic
        next_deadline_check = stats.instructions
        try:
            while not self.halted:
                if budget <= 0:
                    raise ExecutionLimit(
                        f"exceeded instruction budget at pc={pc:#x}",
                        reason="instructions",
                        pc=pc,
                        instructions=stats.instructions,
                    )
                if (
                    deadline is not None
                    and stats.instructions >= next_deadline_check
                ):
                    next_deadline_check = stats.instructions + 2048
                    if monotonic() >= deadline:
                        raise ExecutionLimit(
                            f"watchdog: wall-clock deadline exceeded at "
                            f"pc={pc:#x}",
                            reason="wallclock",
                            pc=pc,
                            instructions=stats.instructions,
                        )
                index = (pc - base) >> 2
                if pc & 3 or index < 0 or index >= count:
                    fault = SimulatorFault(
                        f"instruction fetch from {pc:#010x} (outside text segment)"
                    )
                    if fault_subs:
                        bus.emit(MemoryFaulted(pc, str(fault)))
                    raise fault
                block = blocks.get(index)
                if block is None:
                    block = lookup(self, index)
                n = block.n
                if retired_subs or n < 2 or budget < n:
                    # Single-step fallback: byte-for-byte the unfused body.
                    recent.append(pc)
                    stats.instructions += 1
                    by_mnemonic[names[index]] += 1
                    by_class[klasses[index]] += 1
                    try:
                        next_pc = ops[index]()
                    except (SimulatorFault, MemoryFault) as exc:
                        if fault_subs:
                            bus.emit(MemoryFaulted(pc, str(exc)))
                        raise
                    if retired_subs:
                        bus.emit(
                            InstructionRetired(
                                pc, instructions[index], stats.instructions
                            )
                        )
                    pc = next_pc
                    budget -= 1
                    continue
                if block.pure:
                    # Pure blocks cannot raise and observe nothing: let
                    # the closure iterate the block while its terminator
                    # branches back to the entry (one exit check per
                    # iteration), then account for the whole burst.
                    max_iters = budget // n
                    if deadline is not None and n * max_iters > 2048:
                        # Keep the unfused loop's ~2048-instruction
                        # wall-clock check cadence.
                        max_iters = max(1, 2048 // n)
                    next_pc, iters = block.fn(max_iters)
                    if iters == 1:
                        stats.instructions += n
                        recent.extend(block.pcs)
                        for name, cnt in block.mix_names:
                            by_mnemonic[name] += cnt
                        for klass, cnt in block.mix_classes:
                            by_class[klass] += cnt
                        hits += 1
                        pc = next_pc
                        budget -= n
                        continue
                    executed = n * iters
                    stats.instructions += executed
                    if executed >= RECENT_PC_DEPTH:
                        recent.extend(block.loop_tail)
                    else:
                        recent.extend(block.pcs * iters)
                    for name, cnt in block.mix_names:
                        by_mnemonic[name] += cnt * iters
                    for klass, cnt in block.mix_classes:
                        by_class[klass] += cnt * iters
                    hits += iters
                    pc = next_pc
                    budget -= executed
                    continue
                else:
                    n0 = stats.instructions
                    try:
                        next_pc = block.fn()
                    except BaseException as exc:
                        # The sync closure advanced stats.instructions
                        # before each op, so it names the faulting slot.
                        k = stats.instructions - n0 - 1
                        if 0 <= k < n:
                            recent.extend(block.pcs[: k + 1])
                            block_names = block.names
                            block_klasses = block.klasses
                            for i in range(k + 1):
                                by_mnemonic[block_names[i]] += 1
                                by_class[block_klasses[i]] += 1
                            pc = block.pcs[k]
                            if fault_subs and isinstance(
                                exc, (SimulatorFault, MemoryFault)
                            ):
                                bus.emit(MemoryFaulted(pc, str(exc)))
                        raise
                recent.extend(block.pcs)
                for name, cnt in block.mix_names:
                    by_mnemonic[name] += cnt
                for klass, cnt in block.mix_classes:
                    by_class[klass] += cnt
                hits += 1
                pc = next_pc
                budget -= n
        finally:
            cache.hits += hits
            # Same pc contract as the unfused loop: the offending
            # instruction on faults, past the exit syscall on halt.
            self.pc = pc
        return self.exit_status if self.exit_status is not None else 0

    def step(self) -> None:
        """Execute a single instruction (the pipeline's EX-stage driver)."""
        pc = self.pc
        index = (pc - self._text_base) >> 2
        bus = self.events
        fault_subs = bus.subscribers(MemoryFaulted)
        if pc & 3 or not 0 <= index < len(self._ops):
            fault = SimulatorFault(
                f"instruction fetch from {pc:#010x} (outside text segment)"
            )
            if fault_subs:
                bus.emit(MemoryFaulted(pc, str(fault)))
            raise fault
        stats = self.stats
        instr = self._instructions[index]
        self.recent_pcs.append(pc)
        stats.instructions += 1
        stats.by_mnemonic[instr.name] += 1
        stats.by_class[instr.klass] += 1
        try:
            next_pc = self._ops[index]()
        except (SimulatorFault, MemoryFault) as exc:
            if fault_subs:
                bus.emit(MemoryFaulted(pc, str(exc)))
            raise
        retired_subs = bus.subscribers(InstructionRetired)
        if retired_subs:
            bus.emit(InstructionRetired(pc, instr, stats.instructions))
        self.pc = next_pc
