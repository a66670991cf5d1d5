"""Attack scenario descriptions shared by tests, examples, and benchmarks.

A scenario bundles a vulnerable program with one attack input and one benign
input, plus the expectations the paper states for it: whether the
pointer-taintedness architecture detects it, whether a control-data-only
baseline (Minos / Secure Program Execution) does, and what the alert should
look like.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..defenses.policy import (
    ControlDataPolicy,
    DetectionPolicy,
    NullPolicy,
    PointerTaintPolicy,
)
from ..isa.program import Executable
from ..libc.build import build_program
from .replay import DEFAULT_MAX_INSTRUCTIONS, RunResult, run_executable

#: Scenario categories.
CONTROL_DATA = "control-data"
NON_CONTROL_DATA = "non-control-data"
FALSE_NEGATIVE = "false-negative"


@dataclass
class AttackScenario:
    """A vulnerable program + attack/benign inputs + expected verdicts."""

    name: str
    category: str
    description: str
    source: str
    #: kwargs for :func:`run_executable` when replaying the attack
    #: (stdin/argv/clients...).  Client objects must be freshly built per
    #: run, so callables are also accepted and invoked lazily.
    attack_input: Dict[str, Any] = field(default_factory=dict)
    benign_input: Dict[str, Any] = field(default_factory=dict)
    #: Expected dereference kind of the paper-policy alert
    #: ("load" | "store" | "jump"), or None when undetected (Table 4).
    expected_alert_kind: Optional[str] = None
    #: Does the control-data-only baseline catch it?
    detected_by_control_data: bool = False
    #: Paper artifact this scenario reproduces (figure/table/section).
    paper_ref: str = ""
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    #: Evidence that an *undetected* attack run actually did its damage
    #: (shell exec'd, flag flipped, secret leaked, wild write landed...).
    #: Defaults to "a tainted pointer was dereferenced or a shell ran".
    compromise_check: Optional[Callable[[RunResult], bool]] = None

    def attack_succeeded(self, result: RunResult) -> bool:
        """Did the (undetected) attack achieve its goal?"""
        if result.detected:
            return False
        if self.compromise_check is not None:
            return self.compromise_check(result)
        if result.compromised:
            return True
        if result.sim is not None:
            return result.sim.stats.tainted_dereferences > 0
        return False

    def build(self, opt_level: int = 0) -> Executable:
        """Compile the vulnerable program (cached by the builder)."""
        return build_program(self.source, opt_level=opt_level)

    def _materialize(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        kwargs = {}
        for key, value in spec.items():
            kwargs[key] = value() if callable(value) else value
        kwargs.setdefault("max_instructions", self.max_instructions)
        return kwargs

    def run_attack(self, policy: DetectionPolicy, **overrides: Any) -> RunResult:
        """Replay the attack under a policy.

        ``overrides`` are forwarded to :func:`run_executable` on top of the
        scenario's own replay kwargs (e.g. ``use_pipeline=True`` to replay
        on the cycle-level engine, ``opt_level=1`` to rebuild with the
        optimizing backend, or ``record_events=...``).
        """
        kwargs = self._materialize(self.attack_input)
        kwargs.update(overrides)
        opt_level = kwargs.pop("opt_level", 0)
        return run_executable(self.build(opt_level), policy, **kwargs)

    def run_benign(self, policy: DetectionPolicy, **overrides: Any) -> RunResult:
        """Run the benign workload under a policy (false-positive check)."""
        kwargs = self._materialize(self.benign_input)
        kwargs.update(overrides)
        opt_level = kwargs.pop("opt_level", 0)
        return run_executable(self.build(opt_level), policy, **kwargs)

    @property
    def detected_by_pointer_taint(self) -> bool:
        return self.expected_alert_kind is not None


#: The three policies every scenario is evaluated against.
POLICY_MATRIX = (
    PointerTaintPolicy(),
    ControlDataPolicy(),
    NullPolicy(),
)
