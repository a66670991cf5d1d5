"""Fault injection and resilience: campaigns, checkpoints, watchdogs.

This package turns the detector evaluation inside out: instead of replaying
*attacks* against a correct machine, it corrupts a *correct run* -- single-
and multi-bit flips in memory, registers, and the taint bitmap itself, plus
syscall-layer faults -- and asks how the run ends.  Each trial is classified
into the standard fault-injection taxonomy (detected / masked / silent data
corruption / crash / timeout), mirroring how the DSN community evaluates
error-detection mechanisms like the paper's pointer-taintedness detector.

The moving parts:

* :mod:`~repro.fault.triggers` -- *when* to inject: a small trigger grammar
  (``insn:N``, ``pc:0xADDR:K``, ``syscall:NUM:K``) resolved to exact
  retirement indices of the golden run.
* :mod:`~repro.fault.faults` -- *what* to inject: bit-flip specs for
  memory / registers / their taint shadows, applied to a live
  :class:`~repro.cpu.machine.MachineState`, and the kernel-layer fault
  modes (errno injection, short reads, truncated input).
* :mod:`~repro.fault.checkpoint` -- machine + kernel + RNG checkpointing,
  so one golden run forks into hundreds of trials without rebuilding or
  re-binding the simulator.
* :mod:`~repro.fault.campaign` -- the deterministic, seed-driven campaign
  runner: golden run, upfront fault plan, per-trial rollback, watchdog
  guard, outcome classification, recovery policy.
* :mod:`~repro.fault.workloads` -- built-in victim workloads whose golden
  runs exit cleanly (campaigns need a well-defined correct baseline).
"""

from .campaign import (
    CampaignConfig,
    CampaignResult,
    FaultCampaign,
    GoldenRun,
    OUTCOME_CRASH,
    OUTCOME_DETECTED,
    OUTCOME_MASKED,
    OUTCOME_SDC,
    OUTCOME_TIMEOUT,
    OUTCOMES,
    RECOVERY_POLICIES,
    TrialRecord,
)
from .checkpoint import Checkpoint
from .faults import (
    FAULT_KINDS,
    FaultSpec,
    STATE_FAULT_KINDS,
    SYSCALL_FAULT_KINDS,
    apply_state_fault,
)
from .triggers import Trigger, parse_trigger
from .workloads import BUILTIN_WORKLOADS, Workload, builtin_workload

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "FaultCampaign",
    "GoldenRun",
    "OUTCOME_CRASH",
    "OUTCOME_DETECTED",
    "OUTCOME_MASKED",
    "OUTCOME_SDC",
    "OUTCOME_TIMEOUT",
    "OUTCOMES",
    "RECOVERY_POLICIES",
    "TrialRecord",
    "Checkpoint",
    "FAULT_KINDS",
    "FaultSpec",
    "STATE_FAULT_KINDS",
    "SYSCALL_FAULT_KINDS",
    "apply_state_fault",
    "Trigger",
    "parse_trigger",
    "BUILTIN_WORKLOADS",
    "Workload",
    "builtin_workload",
]
