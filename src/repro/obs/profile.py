"""Profiling hooks: event-bus subscriptions + post-run counter harvest.

The :class:`Observer` is the bridge between one machine and a
:class:`~repro.obs.metrics.MetricsRegistry`.  It has two halves:

* **Live subscriptions** (``attach``): handlers on the taint/syscall/
  fault/trial events that fold each occurrence into a counter or
  histogram as it fires.  ``InstructionRetired`` is deliberately *not*
  subscribed -- per-opcode retire counts already exist in
  ``ExecutionStats.by_mnemonic``, so the hot path stays on the engines'
  zero-subscriber fast path even with metrics enabled.
* **Post-run harvest** (``harvest``): folds the machine's accumulated
  statistics -- instruction mix, taint activity, cache hit/miss, pipeline
  cycle/stall breakdown -- into the registry after the run, at zero
  per-instruction cost.

Metric names follow the taxonomy documented in
:mod:`repro.obs.metrics`.
"""

from __future__ import annotations

from typing import Optional

from ..core.events import (
    FaultInjected,
    MemoryFaulted,
    SyscallEnter,
    SyscallExit,
    TaintPropagated,
    TaintedDereference,
    TrialCompleted,
)
from .metrics import MetricsRegistry

__all__ = ["Observer"]

#: Bucket edges for the inter-syscall gap histogram (instructions between
#: consecutive syscall entries): powers of two up to 2^20.
_GAP_EDGES = tuple(1 << i for i in range(21))


class Observer:
    """Wire one machine's event bus into a metrics registry.

    Usage::

        registry = MetricsRegistry()
        observer = Observer(registry).attach(sim)
        ... run ...
        observer.harvest(sim, pipeline)   # fold post-run stats
        observer.detach()
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._sim = None
        self._subscriptions = []
        self._last_syscall_instr: Optional[int] = None

    # ------------------------------------------------------------------
    # live subscriptions
    # ------------------------------------------------------------------

    def attach(self, sim) -> "Observer":
        """Subscribe metric handlers to ``sim``'s event bus."""
        if self._sim is not None:
            raise RuntimeError("observer already attached")
        self._sim = sim
        reg = self.registry
        bus = sim.events

        taint_reg = reg.counter("taint.flow.reg")
        taint_mem = reg.counter("taint.flow.mem")
        taint_hilo = reg.counter("taint.flow.hilo")

        def on_taint(event: TaintPropagated) -> None:
            if event.dest_kind == "reg":
                taint_reg.inc()
            elif event.dest_kind == "mem":
                taint_mem.inc()
            else:
                taint_hilo.inc()

        def on_deref(event: TaintedDereference) -> None:
            reg.counter(f"detector.alert.{event.kind}").inc()

        gap_hist = reg.histogram("syscall.gap_instructions", _GAP_EDGES)
        syscalls = reg.counter("syscall.count")

        def on_syscall_enter(event: SyscallEnter) -> None:
            syscalls.inc()
            reg.counter(f"syscall.num.{event.number}").inc()
            instr = self._sim.stats.instructions
            if self._last_syscall_instr is not None:
                gap = instr - self._last_syscall_instr
                # A rollback (fault-campaign recovery) rewinds the
                # instruction counter; skip the cross-trial gap.
                if gap >= 0:
                    gap_hist.observe(gap)
            self._last_syscall_instr = instr

        errors = reg.counter("syscall.errors")

        def on_syscall_exit(event: SyscallExit) -> None:
            if event.result & 0xFFFFFFFF == 0xFFFFFFFF:
                errors.inc()

        mem_faults = reg.counter("machine.faults")

        def on_fault(event: MemoryFaulted) -> None:
            mem_faults.inc()

        def on_injected(event: FaultInjected) -> None:
            reg.counter("fault.injected").inc()
            reg.counter(f"fault.injected.{event.kind}").inc()

        def on_trial(event: TrialCompleted) -> None:
            reg.counter("campaign.trials").inc()
            reg.counter(f"campaign.trial.{event.outcome}").inc()

        for event_type, handler in (
            (TaintPropagated, on_taint),
            (TaintedDereference, on_deref),
            (SyscallEnter, on_syscall_enter),
            (SyscallExit, on_syscall_exit),
            (MemoryFaulted, on_fault),
            (FaultInjected, on_injected),
            (TrialCompleted, on_trial),
        ):
            bus.subscribe(event_type, handler)
            self._subscriptions.append((event_type, handler))
        return self

    def detach(self) -> None:
        if self._sim is None:
            return
        bus = self._sim.events
        for event_type, handler in self._subscriptions:
            bus.unsubscribe(event_type, handler)
        self._subscriptions.clear()
        self._sim = None
        self._last_syscall_instr = None

    # ------------------------------------------------------------------
    # post-run harvest
    # ------------------------------------------------------------------

    def harvest(self, sim, pipeline=None) -> MetricsRegistry:
        """Fold a finished machine's statistics into the registry.

        ``pipeline`` is the :class:`repro.cpu.pipeline.Pipeline` driver
        (or its ``PipelineStats``) when the run accounted pipeline cycles.
        Safe to call once per run; counters accumulate across runs in the
        same registry.
        """
        reg = self.registry
        stats = sim.stats
        for key, value in stats.summary().items():
            reg.counter(f"run.{key}").inc(int(value))
        reg.counter("run.tainted_dereferences").inc(
            stats.tainted_dereferences
        )
        for mnemonic, count in stats.by_mnemonic.items():
            reg.counter(f"opcode.{mnemonic}").inc(count)
        for klass, count in stats.by_class.items():
            reg.counter(f"taintclass.{klass}").inc(count)
        if stats.instructions:
            reg.gauge("run.taint_activity_ratio").set(
                stats.taint_activity_ratio()
            )

        table = getattr(getattr(sim, "plane", None), "table", None)
        if table is not None:
            # Label mode: gauges, not counters -- the table reports its
            # current population, which must not accumulate across
            # harvests of the same machine.
            reg.gauge("taint.labels.allocated").set(table.allocated_labels)
            reg.gauge("taint.labelsets.interned").set(table.interned_sets)

        for detector in getattr(sim, "defenses", ()):
            # Pluggable defenses (repro.defenses): per-detector hook
            # checks and alerts, keyed by registry name.
            prefix = f"defense.{detector.name}"
            reg.counter(f"{prefix}.checks").inc(detector.checks)
            reg.counter(f"{prefix}.alerts").inc(len(detector.alerts))

        caches = getattr(sim, "caches", None)
        if caches is not None:
            for level in (caches.l1, caches.l2):
                prefix = f"cache.{level.name.lower()}"
                reg.counter(f"{prefix}.hits").inc(level.stats.hits)
                reg.counter(f"{prefix}.misses").inc(level.stats.misses)
                reg.counter(f"{prefix}.writebacks").inc(
                    level.stats.writebacks
                )
                reg.gauge(f"{prefix}.hit_rate").set(level.stats.hit_rate)

        superblocks = getattr(sim, "superblocks", None)
        if superblocks is not None and getattr(
            sim, "superblocks_enabled", False
        ):
            info = superblocks.info()
            for key in ("built", "invalidated", "hits"):
                reg.counter(f"superblock.{key}").inc(info[key])
            reg.gauge("superblock.cached").set(info["size"])

        pstats = getattr(pipeline, "pstats", pipeline)
        if pstats is not None:
            reg.counter("pipeline.cycles").inc(pstats.cycles)
            reg.counter("pipeline.retired").inc(pstats.retired)
            reg.counter("pipeline.fetch_stalls").inc(pstats.fetch_stalls)
            reg.counter("pipeline.drain_cycles").inc(pstats.drain_cycles)
            if pstats.retired:
                reg.gauge("pipeline.cpi").set(pstats.cpi)
        return reg
