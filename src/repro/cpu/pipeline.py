"""Five-stage in-order pipeline timing, accounted over the functional engine.

The paper's Figure 3 places the jump-target taint check after the ID/EX
stage, the load/store address check after EX/MEM, and raises the actual
security exception only when the *marked-malicious* instruction retires;
section 5.4 argues overhead with a simple CPI model.  The modelled pipe
has no speculation, no structural or data hazards and executes in
program order, so its timing is a pure function of the retired stream.
:class:`Pipeline` therefore runs the ordinary functional engine (fused
tier included) and derives :class:`PipelineStats` in closed form from
``ExecutionStats.by_class`` and the way the run ended.  The model those
formulas define:

* instructions flow through IF -> ID -> EX -> MEM -> WB (:data:`STAGES`),
  one stage per cycle, and every cycle either fetches one instruction,
  stalls fetch, or drains;
* a control transfer or syscall (:data:`STALL_CLASSES`) stalls fetch for
  one cycle while it sits in ID -- no branch prediction; it resolves at
  EX, where fetch resumes from the right target -- so ``fetch_stalls``
  is the number of such instructions executed;
* **exit**: the exit syscall resolves at EX, then drains through MEM and
  WB and retires, fetch shut off throughout: ``drain_cycles`` =
  ``len(STAGES) - EX + 1`` (4) and ``cycles = retired + fetch_stalls +
  drain_cycles``;
* **alert** (Fig. 3): the check marks the instruction at EX (ID/EX for a
  jump target, EX/MEM for a load/store address) and no younger
  instruction executes.  It drains through EX, MEM and WB
  (``drain_cycles`` = ``len(STAGES) - EX``, 3), and the
  :class:`~repro.defenses.alerts.SecurityException` fires on the extra
  cycle in which it retires.  A marked instruction that does not stall
  fetch (a load or store) has let one younger instruction into IF, which is
  squashed and costs one more cycle:
  ``cycles = retired + fetch_stalls + drain_cycles + 1 (+ 1)``;
* **fault or limit**: the run is abandoned where the functional engine
  stopped, with no fill or drain charged: every executed instruction
  counts as retired, ``drain_cycles = 0`` and
  ``cycles = retired + fetch_stalls``.

``tests/data/pipeline_golden.json`` pins these formulas against recorded
cycle-by-cycle runs of the same model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..defenses.alerts import SecurityException
from .simulator import Simulator

#: Pipeline stage names in flow order.
STAGES = ("IF", "ID", "EX", "MEM", "WB")

#: Instruction classes that stall fetch until they resolve at EX.
STALL_CLASSES = frozenset({"branch", "jump", "jumpreg", "system"})

_EX = STAGES.index("EX")
#: Fetch-halted cycles after an exit resolves: EX, MEM, WB, retirement.
_EXIT_DRAIN = len(STAGES) - _EX + 1
#: Fetch-halted cycles after an alert marks: EX, MEM, WB (the retirement
#: cycle raises the exception instead of draining).
_ALERT_DRAIN = len(STAGES) - _EX


@dataclass
class PipelineStats:
    """Cycle-level counters (supplementing the functional ExecutionStats)."""

    cycles: int = 0
    retired: int = 0
    fetch_stalls: int = 0
    drain_cycles: int = 0

    @property
    def cpi(self) -> float:
        return self.cycles / self.retired if self.retired else 0.0


def _stalls(sim: Simulator) -> int:
    by_class = sim.stats.by_class
    return sum(by_class.get(klass, 0) for klass in STALL_CLASSES)


class Pipeline:
    """Runs a :class:`Simulator` and accounts its 5-stage timing.

    The pipeline holds no architectural state of its own: execution,
    events, statistics and exceptions are exactly the functional
    engine's.  :attr:`pstats` covers the instructions executed by
    :meth:`run`.
    """

    def __init__(self, simulator: Simulator) -> None:
        self.sim = simulator
        self.pstats = PipelineStats()

    def run(self) -> int:
        """Run to process exit; returns exit status.

        Raises whatever the functional engine raises (a
        :class:`SecurityException` on an alert,
        :class:`~repro.cpu.machine.ExecutionLimit` when a watchdog limit
        armed via ``sim.arm_watchdog`` trips, machine faults), after
        filling :attr:`pstats` for the run's outcome.
        """
        sim = self.sim
        start_retired = sim.stats.instructions
        start_stalls = _stalls(sim)
        drain = tail = 0  # fault or limit: abandoned, nothing drained
        try:
            status = sim.run()
            drain = tail = _EXIT_DRAIN
            return status
        except SecurityException:
            exe = sim.executable
            klass = exe.instructions[(sim.pc - exe.text_base) >> 2].klass
            drain = _ALERT_DRAIN
            tail = _ALERT_DRAIN + 1 + (klass not in STALL_CLASSES)
            raise
        finally:
            pstats = self.pstats
            pstats.retired = sim.stats.instructions - start_retired
            pstats.fetch_stalls = _stalls(sim) - start_stalls
            pstats.drain_cycles = drain
            pstats.cycles = pstats.retired + pstats.fetch_stalls + tail
