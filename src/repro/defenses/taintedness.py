"""Tainted-pointer dereference detection (section 4.3 of the paper).

Two kinds of instructions can dereference a pointer on the simulated RISC
machine, exactly as on SimpleScalar:

* **load/store** -- the effective-address word is checked after the EX/MEM
  stage;
* **JR/JALR** -- the jump-target register is checked after the ID/EX stage.

When any byte of the checked word is tainted the instruction is marked
malicious; retiring a malicious instruction raises a security exception,
which the simulated OS turns into process termination.

Alerts live in :mod:`repro.defenses.alerts` and policies in
:mod:`repro.defenses.policy`; both import at the top of this file.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..taint.bits import word_mask_is_tainted
from .alerts import Alert
from .base import Detector
from .policy import DetectionPolicy, PointerTaintPolicy

__all__ = ["TaintednessDetector", "TaintednessDefense"]


class TaintednessDetector:
    """Checks dereferenced words against a detection policy and logs alerts.

    The detector is deliberately tiny: hardware-wise it is a single OR gate
    over the four taintedness bits of the dereferenced word plus an opcode
    qualifier.  The *policy* decides which dereference kinds are checked,
    which is how the control-data-only baseline (Minos / Secure Program
    Execution) is expressed.
    """

    def __init__(self, policy: DetectionPolicy) -> None:
        self.policy = policy
        self.alerts: List[Alert] = []

    def check(
        self,
        kind: str,
        pc: int,
        disassembly: str,
        pointer_value: int,
        taint_mask: int,
        instruction_index: int = 0,
        detail: str = "",
        provenance: Tuple = (),
    ) -> Optional[Alert]:
        """Check one dereference; return an :class:`Alert` if it is malicious.

        The caller (pipeline retirement logic or functional simulator) is
        responsible for raising :class:`SecurityException` for the returned
        alert -- detection and exception delivery are separate pipeline
        stages in the paper's design.  ``provenance`` is the pointer's
        resolved label chain when the taint plane runs in label mode.
        """
        if not word_mask_is_tainted(taint_mask):
            return None
        if not self.policy.checks(kind):
            return None
        alert = Alert(
            pc=pc,
            kind=kind,
            disassembly=disassembly,
            pointer_value=pointer_value,
            taint_mask=taint_mask,
            instruction_index=instruction_index,
            detail=detail,
            provenance=provenance,
        )
        self.alerts.append(alert)
        return alert

    def reset(self) -> None:
        """Clear logged alerts (e.g. between benchmark iterations)."""
        self.alerts.clear()


class TaintednessDefense(Detector):
    """The paper's defense behind the pluggable :class:`Detector` interface.

    The hot-path check stays *inline* (every executor binding calls
    ``machine.tainted_dereference`` directly; see
    :meth:`repro.cpu.machine.MachineState.tainted_dereference`), so
    attaching this defense subscribes nothing to the event bus and the
    default taintedness path is bit-identical with or without the
    wrapper.  The wrapper only adapts the machine's inline
    :class:`TaintednessDetector` to the registry/summary surface the
    defense matrix consumes.
    """

    name = "taintedness"

    def __init__(self) -> None:
        self._machine = None
        #: Alert store used until :meth:`attach` hands us a machine.
        self._detached_alerts: list = []

    @property
    def alerts(self):
        machine = self._machine
        if machine is not None:
            return machine.detector.alerts
        return self._detached_alerts

    @property
    def checks(self) -> int:
        machine = self._machine
        return machine.stats.dereference_checks if machine is not None else 0

    def default_policy(self) -> DetectionPolicy:
        return PointerTaintPolicy()

    def reset(self) -> None:
        machine = self._machine
        if machine is not None:
            machine.detector.reset()
        self._detached_alerts.clear()
