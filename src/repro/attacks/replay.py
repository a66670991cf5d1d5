"""Attack replay harness: run a program under a policy, observe the verdict.

Each experiment run produces a :class:`RunResult` describing how the process
ended: clean exit, detector alert (the paper's security exception), machine
fault (what a successful corruption often ends in on an unprotected CPU),
or instruction-budget exhaustion.  The result also exposes the kernel's
compromise indicators (programs exec'd, privilege changes) so benchmarks can
report whether an *undetected* attack actually succeeded.

``run_executable``/``run_minic`` are the implementation layer that
:class:`repro.api.Session` drives: the facade adds metrics/tracing
wiring, :class:`~repro.api.ExecOptions` resolution and the unified result
schema on top.  Harnesses that need the raw per-run knobs (the
benchmarks, the evalx runners, the attack scenarios) call them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..builder import build_machine
from ..core.events import EventLog, InstructionRetired
from ..defenses.alerts import Alert, SecurityException
from ..defenses.policy import DetectionPolicy, PointerTaintPolicy
from ..defenses.registry import resolve_defense
from ..cpu.pipeline import Pipeline, PipelineStats
from ..cpu.simulator import ExecutionLimit, Simulator, SimulatorFault
from ..isa.program import Executable
from ..kernel.filesystem import SimFileSystem
from ..kernel.network import ScriptedClient, SimNetwork
from ..kernel.syscalls import Kernel
from ..libc.build import build_program
from ..mem.tainted_memory import MemoryFault

#: Run outcome labels.
OUTCOME_EXIT = "exit"
OUTCOME_ALERT = "alert"
OUTCOME_FAULT = "fault"
OUTCOME_LIMIT = "limit"

#: Default per-run watchdog budget, in retired instructions.
DEFAULT_MAX_INSTRUCTIONS = 20_000_000


@dataclass
class RunResult:
    """Everything observable about one simulated process run."""

    outcome: str
    exit_status: Optional[int] = None
    alert: Optional[Alert] = None
    fault: str = ""
    #: Structured watchdog verdict when ``outcome == "limit"``:
    #: ``{"reason": "instructions" | "wallclock", "instructions": int,
    #: "pc": int}`` (None otherwise).  Services and schedulers branch on
    #: ``limit["reason"]`` instead of parsing the ``fault`` string.
    limit: Optional[dict] = None
    sim: Optional[Simulator] = None
    kernel: Optional[Kernel] = None
    clients: List[ScriptedClient] = field(default_factory=list)
    #: Events recorded during the run (see ``record_events=``), or None.
    events: Optional[EventLog] = None
    #: Cycle-level counters when the pipeline engine ran, else None.
    pstats: Optional[PipelineStats] = None
    #: Metrics-registry dump attached by :class:`repro.api.Session`
    #: (None when the run was not instrumented).
    metrics: Optional[dict] = None

    @property
    def detected(self) -> bool:
        """True when the detector stopped the run with a security alert."""
        return self.outcome == OUTCOME_ALERT

    @property
    def stdout(self) -> str:
        return self.kernel.process.stdout_text if self.kernel else ""

    @property
    def executed_programs(self) -> List[str]:
        """Programs the process exec'd (attacker shells show up here)."""
        return self.kernel.process.executed_programs() if self.kernel else []

    @property
    def trace(self) -> List[int]:
        """PCs of retired instructions, when ``InstructionRetired`` events
        were recorded (empty otherwise -- use ``sim.recent_pcs`` for the
        always-on bounded tail)."""
        if self.events is None:
            return []
        return [e.pc for e in self.events.of(InstructionRetired)]

    @property
    def compromised(self) -> bool:
        """Heuristic success indicator for an *undetected* attack:
        the process exec'd a shell-like program."""
        return any("sh" in path for path in self.executed_programs)

    def describe(self) -> str:
        if self.outcome == OUTCOME_ALERT and self.alert is not None:
            return f"ALERT {self.alert}"
        if self.outcome == OUTCOME_FAULT:
            return f"FAULT {self.fault}"
        if self.outcome == OUTCOME_LIMIT:
            return "LIMIT instruction budget exhausted"
        return f"EXIT status={self.exit_status}"

    def to_json(self) -> dict:
        """Unified result payload (see ``repro.api.validate_result_json``).

        Every result family in the repo -- run, campaign, experiment --
        shares the ``{"kind", "detected", "stats", "metrics"}`` shape so
        all ``--json`` CLI outputs validate against one schema.
        """
        stats: dict = {
            "outcome": self.outcome,
            "exit_status": self.exit_status,
            "alert": str(self.alert) if self.alert is not None else None,
            "fault": self.fault or None,
            "executed_programs": self.executed_programs,
        }
        if self.limit is not None:
            stats["limit"] = dict(self.limit)
        if self.alert is not None and self.alert.provenance:
            stats["provenance"] = [
                label.to_dict() for label in self.alert.provenance
            ]
        if self.sim is not None:
            stats.update(self.sim.stats.summary())
        if self.pstats is not None:
            stats.update(
                cycles=self.pstats.cycles,
                fetch_stalls=self.pstats.fetch_stalls,
                drain_cycles=self.pstats.drain_cycles,
                cpi=round(self.pstats.cpi, 4),
            )
        if self.sim is not None and self.sim.defenses:
            # Present only when a pluggable defense is attached, so
            # default-path result JSON stays byte-identical.
            stats["defenses"] = self.sim.defense_summaries()
        if self.sim is not None and getattr(
            self.sim, "superblocks_enabled", False
        ):
            # Fused-tier observability: cache size, build/invalidation
            # counts, and the fraction of fused dispatches served from
            # cache (a dispatch that had to build its block is a miss).
            info = self.sim.superblocks.info()
            hits = info["hits"]
            info["hit_rate"] = (
                round((hits - info["built"]) / hits, 4) if hits else 0.0
            )
            stats["superblocks"] = info
        return {
            "kind": "run",
            "detected": self.detected,
            "outcome": self.outcome,
            "stats": stats,
            "metrics": self.metrics if self.metrics is not None else {},
        }


def run_executable(
    exe: Executable,
    policy: Optional[DetectionPolicy] = None,
    stdin: bytes = b"",
    argv: Optional[Sequence[str]] = None,
    env: Optional[Sequence[str]] = None,
    clients: Optional[Sequence[ScriptedClient]] = None,
    filesystem: Optional[SimFileSystem] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    max_seconds: Optional[float] = None,
    use_caches: bool = False,
    use_pipeline: bool = False,
    taint_inputs: bool = True,
    taint_labels: bool = False,
    superblocks: bool = True,
    subscribers: Optional[Sequence] = None,
    record_events: Sequence[type] = (),
    instrument: Optional[Callable[[Simulator], Optional[Callable]]] = None,
    defense=None,
) -> RunResult:
    """Run an executable image under a policy; never raises for outcomes.

    ``subscribers`` is a sequence of ``(event_type, handler)`` pairs wired
    to the machine's event bus before execution; ``record_events`` names
    event types to capture into ``RunResult.events`` (an
    :class:`~repro.core.events.EventLog`).

    ``instrument`` is the observability hook used by
    :class:`repro.api.Session`: it is called with the freshly built
    simulator (before execution) and may return a finalizer that is
    called with the finished :class:`RunResult` (after execution) --
    e.g. to harvest metrics and close trace streams.

    ``max_instructions`` and ``max_seconds`` are enforced through the
    machine-level watchdog, so they bound the run identically under the
    functional and the pipeline engine; either limit ends the run with
    ``OUTCOME_LIMIT``.

    ``defense`` selects a pluggable defense (a registered name such as
    ``"shadow-stack"``/``"pac"``/``"taintedness"``, or a built
    :class:`repro.defenses.Detector`).  When ``policy`` is not given the
    machine runs under the defense's :meth:`default_policy` -- the
    comparators run over an unprotected taint plane so the inline
    taintedness check cannot preempt them.
    """
    detector = resolve_defense(defense)
    if policy is None:
        policy = (
            detector.default_policy()
            if detector is not None
            else PointerTaintPolicy()
        )
    network = SimNetwork()
    client_list = list(clients or [])
    for client in client_list:
        network.connect_client(client)
    sim, kernel = build_machine(
        exe,
        policy,
        argv=argv,
        env=env,
        stdin=stdin,
        filesystem=filesystem,
        network=network,
        taint_inputs=taint_inputs,
        use_caches=use_caches,
        taint_labels=taint_labels,
        superblocks=superblocks,
    )
    if detector is not None:
        sim.attach_defense(detector)
    finalizer = instrument(sim) if instrument is not None else None
    for event_type, handler in subscribers or ():
        sim.events.subscribe(event_type, handler)
    log = (
        EventLog(sim.events, tuple(record_events)) if record_events else None
    )
    result = RunResult(
        outcome=OUTCOME_EXIT, sim=sim, kernel=kernel, clients=client_list,
        events=log,
    )
    sim.arm_watchdog(
        max_instructions=max_instructions, max_seconds=max_seconds
    )
    try:
        if use_pipeline:
            pipeline = Pipeline(sim)
            result.pstats = pipeline.pstats
            result.exit_status = pipeline.run()
        else:
            result.exit_status = sim.run(max_instructions=max_instructions)
    except SecurityException as exc:
        result.outcome = OUTCOME_ALERT
        result.alert = exc.alert
    except (SimulatorFault, MemoryFault) as exc:
        result.outcome = OUTCOME_FAULT
        result.fault = str(exc)
    except ExecutionLimit as exc:
        result.outcome = OUTCOME_LIMIT
        result.fault = str(exc)
        result.limit = {
            "reason": exc.reason,
            "instructions": exc.instructions,
            "pc": exc.pc,
        }
    if finalizer is not None:
        finalizer(result)
    return result


def run_minic(
    source: str,
    policy: Optional[DetectionPolicy] = None,
    opt_level: int = 0,
    **kwargs,
) -> RunResult:
    """Compile a MiniC program against the libc and run it."""
    return run_executable(
        build_program(source, opt_level=opt_level), policy, **kwargs
    )
