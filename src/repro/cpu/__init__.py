"""Execution: the functional simulator and the 5-stage pipeline timing model.

The simulator drives one :class:`~repro.cpu.machine.MachineState` through
the predecoded executor bindings in :mod:`repro.cpu.dispatch`; the
pipeline model runs the simulator and accounts cycles over what retired.
"""

from .dispatch import BINDERS, bind_program, binds
from .machine import MachineSnapshot, MachineState, RECENT_PC_DEPTH
from .pipeline import Pipeline, PipelineStats, STAGES
from .simulator import ExecutionLimit, Simulator, SimulatorFault
from .stats import ExecutionStats

__all__ = [
    "BINDERS",
    "bind_program",
    "binds",
    "MachineSnapshot",
    "MachineState",
    "RECENT_PC_DEPTH",
    "Pipeline",
    "PipelineStats",
    "STAGES",
    "ExecutionLimit",
    "Simulator",
    "SimulatorFault",
    "ExecutionStats",
]
