"""Machine state driven by the execution engine.

:class:`MachineState` owns everything architectural about one simulated
process: registers, memory (optionally behind the taint-carrying cache
hierarchy), the program counter, execution statistics, the section 5.3
watchpoint annotations, the detector, and the structured
:class:`~repro.core.events.EventBus` the engine publishes to.  The
functional engine (:class:`repro.cpu.simulator.Simulator`) drives this
state through table-bound executor functions (:mod:`repro.cpu.dispatch`),
so there is exactly one implementation of the ISA's semantics, the Table 1
taint-propagation rules, and the section 4.3 dereference checks; the
five-stage pipeline (:class:`repro.cpu.pipeline.Pipeline`) runs that same
engine and only adds timing accounting.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..core.annotations import WatchpointSet
from ..core.events import EventBus, TaintedDereference
from ..defenses.alerts import (
    Alert,
    KIND_ANNOTATION,
    SecurityException,
)
from ..defenses.policy import DetectionPolicy, PointerTaintPolicy
from ..defenses.taintedness import TaintednessDetector
from ..isa.program import Executable
from ..mem.cache import CacheHierarchy
from ..mem.cow import CowCapture
from ..mem.layout import STACK_TOP
from ..mem.registers import RegisterFile
from ..mem.tainted_memory import TaintedMemory
from ..taint.bits import WORD_TAINTED
from ..taint.plane import MODE_BIT, MODE_LABEL, TaintPlane
from .stats import ExecutionStats

_MASK32 = 0xFFFFFFFF

#: Depth of the always-on recent-PC diagnostic ring.
RECENT_PC_DEPTH = 32


class ExecutionLimit(RuntimeError):
    """Raised when a run exceeds an execution limit (runaway guard).

    A structured outcome rather than a hang: ``reason`` says which limit
    tripped (``"instructions"`` or ``"wallclock"``), and
    ``pc``/``instructions`` carry the partial progress the watchdog
    observed, so fault-injection campaigns can classify a wedged trial and
    still report statistics for it.
    """

    def __init__(
        self,
        message: str,
        reason: str = "instructions",
        pc: int = 0,
        instructions: int = 0,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.pc = pc
        self.instructions = instructions


class SimulatorFault(Exception):
    """Raised on machine-level faults (unaligned access, bad PC...).

    On an unprotected machine a successful memory-corruption attack often
    ends in one of these instead of a detector alert -- that distinction is
    what the coverage benchmarks report.
    """


@dataclass(frozen=True)
class MachineSnapshot:
    """A delta checkpoint: eager scalars plus a live COW page capture.

    Produced by :meth:`MachineState.snapshot`.  The scalar machine state
    (registers, PC, stats, caches...) is small and copied eagerly; the
    page-sized state (memory data, shadow taint, label sidecar) lives in
    the shared :class:`~repro.mem.cow.CowCapture`, which the memory hot
    paths fill copy-on-write so :meth:`MachineState.restore` only
    rewrites dirtied pages.  Restorable any number of times while its
    capture is the machine's active one (see :mod:`repro.mem.cow`).
    """

    pc: int
    halted: bool
    exit_status: Optional[int]
    regs: Tuple
    caches: Optional[Tuple]
    stats: ExecutionStats
    recent_pcs: Tuple[int, ...]
    alerts: Tuple
    watchpoints: Tuple
    #: Shared delta capture holding baselines + dirty/fresh sets.
    cow: CowCapture


class MachineState:
    """Architectural state of one simulated process.

    Args:
        executable: the program image to load.
        policy: detection policy (defaults to the paper's pointer-taintedness
            policy).
        syscall_handler: callable invoked on ``syscall`` instructions with
            the machine as argument (normally a :class:`repro.kernel.Kernel`
            bound to a process).
        use_caches: route data accesses through a taint-carrying L1/L2
            hierarchy instead of directly to RAM.
        taint_labels: run the taint plane in provenance-label mode (each
            tainted byte tracks which external inputs it derives from).
            Default is the paper's plain 1-bit mode.
    """

    def __init__(
        self,
        executable: Executable,
        policy: Optional[DetectionPolicy] = None,
        syscall_handler: Optional[Callable[["MachineState"], None]] = None,
        use_caches: bool = False,
        taint_labels: bool = False,
    ) -> None:
        self.executable = executable
        self.policy = policy if policy is not None else PointerTaintPolicy()
        self.detector = TaintednessDetector(self.policy)
        self.syscall_handler = syscall_handler
        #: The unified taint plane owning all shadow state; memory and the
        #: register file share its storage by identity.
        self.plane = TaintPlane(MODE_LABEL if taint_labels else MODE_BIT)
        self.taint_labels = taint_labels
        self.memory = TaintedMemory(plane=self.plane)
        self.caches: Optional[CacheHierarchy] = (
            CacheHierarchy(self.memory) if use_caches else None
        )
        self.regs = RegisterFile(plane=self.plane)
        self.stats = ExecutionStats()
        #: Programmer annotations: never-tainted data ranges (section 5.3
        #: extension).  Populate with ``sim.watchpoints.add(addr, len, name)``.
        self.watchpoints = WatchpointSet()
        #: Structured event bus the engine publishes to.
        self.events = EventBus()
        self.halted = False
        self.exit_status: Optional[int] = None
        self.pc = 0
        #: Ring buffer of recently executed PCs for diagnostics (always on;
        #: a bounded deque append costs O(1) per instruction).
        self.recent_pcs: Deque[int] = deque(maxlen=RECENT_PC_DEPTH)
        #: Watchdog: absolute ceiling on ``stats.instructions`` (None = no
        #: limit).  Enforced by the engine's run loop, which the pipeline
        #: model shares, so a budget means the same thing under both.
        self.instruction_limit: Optional[int] = None
        #: Watchdog: ``time.monotonic()`` deadline (None = no deadline).
        self.deadline: Optional[float] = None
        #: Pluggable defenses currently observing this machine (see
        #: :mod:`repro.defenses`); attach via :meth:`attach_defense`.
        self.defenses: List = []
        self._load_image()

    # ------------------------------------------------------------------
    # image loading
    # ------------------------------------------------------------------

    def _load_image(self) -> None:
        exe = self.executable
        self._text_base = exe.text_base
        self._text_end = exe.text_base + 4 * len(exe.text_words)
        self._instructions = exe.instructions
        # The loader writes text through memory directly (not mem_write),
        # so image loading never counts as a self-modifying-code write.
        for i, word in enumerate(exe.text_words):
            self.memory.write(exe.text_base + 4 * i, 4, word, 0)
        if exe.data:
            self.memory.write_bytes(exe.data_base, bytes(exe.data), False)
        self.pc = exe.entry
        self.regs.write(29, STACK_TOP)  # $sp

    # ------------------------------------------------------------------
    # memory plumbing (through caches when enabled)
    # ------------------------------------------------------------------

    def mem_read(self, addr: int, size: int) -> Tuple[int, int]:
        if self.caches is not None:
            return self.caches.read(addr & _MASK32, size)
        return self.memory.read(addr, size)

    def mem_write(self, addr: int, size: int, value: int, taint: int) -> None:
        addr &= _MASK32
        # Text-page write hook: data/stack live above the text segment,
        # so for well-behaved stores this is one always-false compare.
        if addr < self._text_end and addr + size > self._text_base:
            self._on_text_write()
        if self.caches is not None:
            self.caches.write(addr, size, value, taint)
        else:
            self.memory.write(addr, size, value, taint)

    def flush_caches(self) -> None:
        """Make RAM coherent with the cache hierarchy (tests, post-mortems)."""
        if self.caches is not None:
            self.caches.flush()

    def copy_in(
        self, addr: int, data: bytes, tainted: bool, label_sid: int = 0
    ) -> None:
        """The one kernel copy-in path: external bytes enter the process.

        Cache-less machines take the bulk page-copy fast path; cache-enabled
        machines route every byte through the hierarchy so the taint bits
        land in lines exactly as a store would place them.  Both end in the
        same plane call, so the two configurations share identical taint
        (and, in label mode, provenance) semantics.
        """
        start = addr & _MASK32
        if start < self._text_end and start + len(data) > self._text_base:
            self._on_text_write()
        if self.caches is None:
            self.memory.write_bytes(addr, data, bool(tainted))
        else:
            write = self.caches.write
            taint_bit = 1 if tainted else 0
            for i, byte in enumerate(data):
                write((addr + i) & _MASK32, 1, byte, taint_bit)
        if tainted and label_sid:
            self.plane.label_span(addr, len(data), label_sid)

    def _on_text_write(self) -> None:
        """Hook: a store/copy-in touched the text segment.

        The engine executes from the immutable predecode, so a text
        write never changes executed semantics; derived execution state
        (the superblock tier) overrides this to drop itself.
        """

    # ------------------------------------------------------------------
    # watchdog (limit guard enforced by the execution engine)
    # ------------------------------------------------------------------

    def arm_watchdog(
        self,
        max_instructions: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> None:
        """Bound further execution by an instruction budget and/or a
        wall-clock deadline.

        The engine's run loop enforces them (the pipeline model runs the
        same loop), converting a runaway or wedged run into a structured
        :class:`ExecutionLimit` instead of a hang.  The deadline is read
        every 2048 instructions.
        """
        if max_instructions is not None:
            self.instruction_limit = self.stats.instructions + max_instructions
        if max_seconds is not None:
            self.deadline = time.monotonic() + max_seconds

    def disarm_watchdog(self) -> None:
        """Remove both watchdog limits."""
        self.instruction_limit = None
        self.deadline = None

    # ------------------------------------------------------------------
    # checkpoint / rollback
    # ------------------------------------------------------------------

    def snapshot(self) -> "MachineSnapshot":
        """Capture a delta checkpoint (O(mapped pages) scan, no copies).

        Scalars -- register values, cache hierarchy, PC, halt state,
        execution statistics, detector alerts, watchpoints, recent-PC
        ring -- are copied eagerly; page-sized state (memory data, the
        taint plane's shadow pages and label sidecar) is tracked
        copy-on-write by the new :class:`~repro.mem.cow.CowCapture` this
        installs as the machine's active capture.  Taking a snapshot
        makes every earlier snapshot of this machine stale.  The event
        bus and its subscribers are deliberately *not* captured:
        observers persist across rollback.
        """
        cow = self.memory.begin_cow()
        self.plane.begin_cow(cow)
        return MachineSnapshot(
            pc=self.pc,
            halted=self.halted,
            exit_status=self.exit_status,
            regs=self.regs.snapshot(),
            caches=self.caches.snapshot() if self.caches is not None else None,
            stats=self.stats.clone(),
            recent_pcs=tuple(self.recent_pcs),
            alerts=tuple(self.detector.alerts),
            watchpoints=tuple(self.watchpoints),
            cow=cow,
        )

    def restore(self, snapshot: "MachineSnapshot") -> None:
        """Roll back to the machine's most recent snapshot.

        Drops pages materialized since capture, rewrites only dirtied
        pages from their baselines, reinstalls the captured summaries,
        and resets the dirty tracking -- the capture stays armed for the
        next restore.  Every container is mutated *in place*: the
        predecoded executor bindings close over the live register lists,
        the stats object, and the memory/cache objects.  Raises
        :class:`ValueError` for a stale snapshot (an older one of this
        machine, or one taken on another machine).
        """
        if (snapshot.caches is None) != (self.caches is None):
            raise ValueError(
                "snapshot/machine cache configuration mismatch"
            )
        cow = snapshot.cow
        if self.memory._cow is not cow:
            raise ValueError(
                "stale snapshot: only this machine's most recent snapshot "
                "can be restored"
            )
        self.pc = snapshot.pc
        self.halted = snapshot.halted
        self.exit_status = snapshot.exit_status
        self.regs.restore(snapshot.regs)
        self.memory.restore_cow(cow)
        self.plane.restore_cow(cow)
        cow.clear_dirty()
        if self.caches is not None and snapshot.caches is not None:
            self.caches.restore(snapshot.caches)
        self.stats.restore(snapshot.stats)
        self.recent_pcs.clear()
        self.recent_pcs.extend(snapshot.recent_pcs)
        self.detector.alerts[:] = snapshot.alerts
        self.watchpoints.restore(snapshot.watchpoints)

    # ------------------------------------------------------------------
    # detection (shared by every executor binding)
    # ------------------------------------------------------------------

    def tainted_dereference(
        self, kind: str, pc: int, disasm: str, detail: str,
        pointer: int, taint: int, label_sid: int = 0,
    ) -> None:
        """Handle a dereference whose pointer word carries tainted bytes.

        Executor bindings call this only when ``taint`` is non-zero (the
        clean-pointer fast path stays inline); the per-check
        ``dereference_checks`` counter is maintained by the bindings
        themselves because whether a kind is checked is known at bind time.
        ``label_sid`` is the pointer register's label-set id in label mode
        (0 otherwise); it resolves to the alert's provenance chain.
        """
        stats = self.stats
        if taint & WORD_TAINTED:
            stats.tainted_dereferences += 1
        alert = self.detector.check(
            kind=kind,
            pc=pc,
            disassembly=disasm,
            pointer_value=pointer & _MASK32,
            taint_mask=taint,
            instruction_index=stats.instructions,
            detail=detail,
            provenance=self.plane.provenance(label_sid),
        )
        if alert is not None:
            stats.alerts += 1
            events = self.events
            if events.subscribers(TaintedDereference):
                events.emit(TaintedDereference(pc, kind, alert))
            raise SecurityException(alert)

    def annotation_violation(
        self, pc: int, disasm: str, addr: int, size: int, taint: int,
        label_sid: int = 0,
    ) -> None:
        """Raise when tainted bytes land inside annotated data (s5.3)."""
        watchpoint = self.watchpoints.hit(addr & _MASK32, size)
        if watchpoint is None:
            return
        alert = Alert(
            pc=pc,
            kind=KIND_ANNOTATION,
            disassembly=disasm,
            pointer_value=addr & _MASK32,
            taint_mask=taint,
            instruction_index=self.stats.instructions,
            detail=f"tainted write into {watchpoint}",
            provenance=self.plane.provenance(label_sid),
        )
        self.detector.alerts.append(alert)
        self.stats.alerts += 1
        events = self.events
        if events.subscribers(TaintedDereference):
            events.emit(TaintedDereference(pc, KIND_ANNOTATION, alert))
        raise SecurityException(alert)

    # ------------------------------------------------------------------
    # pluggable defenses (event-bus observers; see repro.defenses)
    # ------------------------------------------------------------------

    def attach_defense(self, detector) -> "MachineState":
        """Attach a :class:`repro.defenses.Detector` to observe this machine.

        Defenses subscribe event-bus hook points; like every other
        subscriber their state is *not* part of machine snapshots, so
        rollback restores architectural state while attached defenses
        persist.  Returns the machine for chaining.
        """
        detector.attach(self)
        self.defenses.append(detector)
        return self

    def detach_defense(self, detector) -> None:
        """Unsubscribe one attached defense (no-op when not attached)."""
        if detector in self.defenses:
            self.defenses.remove(detector)
            detector.detach()

    def defense_summaries(self) -> Dict[str, Dict[str, object]]:
        """Per-defense summary dicts keyed by defense name.

        This is the ``stats.defenses`` block of the unified result schema;
        empty when no pluggable defense is attached (the default inline
        taintedness path), which keeps default-run JSON byte-identical.
        """
        return {d.name: d.summary() for d in self.defenses}

    # ------------------------------------------------------------------
    # conveniences for the kernel / tests
    # ------------------------------------------------------------------

    def halt(self, status: int) -> None:
        """Stop the machine (called by the kernel's SYS_EXIT)."""
        self.halted = True
        self.exit_status = status

    @property
    def alerts(self) -> List[Alert]:
        return self.detector.alerts
