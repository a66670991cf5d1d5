"""repro: reproduction of "Defeating Memory Corruption Attacks via Pointer
Taintedness Detection" (Chen, Xu, Nakka, Kalbarczyk, Iyer -- DSN 2005).

The package provides:

* :mod:`repro.core`, :mod:`repro.taint`, :mod:`repro.defenses` -- the
  taintedness model: the event bus and Table 1 propagation rules, per-byte
  taint, dereference detection, and the detection policies (the paper's
  pointer-taintedness policy plus the Minos/SPE-style control-data-only
  baseline);
* :mod:`repro.isa`, :mod:`repro.mem`, :mod:`repro.cpu` -- the
  SimpleScalar-like simulated machine: MIPS-like ISA with assembler and
  encoder, taint-extended memory/caches/registers, functional and 5-stage
  pipeline execution engines;
* :mod:`repro.kernel` -- the simulated OS: syscalls that taint external
  input (section 4.4), an in-memory filesystem, a scripted-peer network;
* :mod:`repro.cc`, :mod:`repro.libc` -- the MiniC compiler and a libc
  (attackable dlmalloc-style allocator, printf with ``%n``) so the paper's
  exploits replay against real compiled code;
* :mod:`repro.apps`, :mod:`repro.attacks`, :mod:`repro.evalx` -- the
  evaluation programs (Figure 2, WU-FTPD, NULL HTTPD, GHTTPD, traceroute,
  SPEC-like benign workloads), attack payloads/replay, and one experiment
  runner per paper table/figure;
* :mod:`repro.obs`, :mod:`repro.api` -- the observability layer (metrics
  registry, structured JSONL tracing, profiling hooks over the event bus)
  and the stable :class:`~repro.api.Session` facade that unifies runs,
  campaigns, and experiments behind one result schema.

Quickstart (the stable facade)::

    from repro import ExecOptions, Session

    session = Session(options=ExecOptions(policy="paper", metrics=True))
    result = session.run_minic(
        'int main(void){ char b[8]; gets(b); return 0; }',
        stdin=b"A" * 32,
    )
    assert result.detected   # tainted return address caught at jr $ra
    print(result.to_json()["metrics"]["counters"]["run.instructions"])

The pre-facade helpers (``run_minic``/``run_executable``) remain
importable as stable shims.
"""

from .api import (
    ExecOptions,
    ExperimentResult,
    Session,
    TraceConfig,
    validate_result_json,
)
from .attacks.replay import RunResult, run_executable, run_minic
from .builder import build_machine
from .obs import MetricsRegistry, Observer, TraceRecorder
from .defenses import (
    Alert,
    DEFENSES,
    Detector,
    PacDetector,
    SecurityException,
    ShadowStackDetector,
    TaintednessDefense,
    TaintednessDetector,
)
from .defenses.policy import (
    ControlDataPolicy,
    DetectionPolicy,
    NullPolicy,
    PointerTaintPolicy,
)
from .taint.bits import TaintVector
from .cpu.pipeline import Pipeline
from .cpu.simulator import Simulator
from .isa.assembler import assemble
from .kernel.syscalls import Kernel
from .libc.build import build_program

__version__ = "1.0.0"

__all__ = [
    "ExecOptions",
    "ExperimentResult",
    "MetricsRegistry",
    "Observer",
    "Session",
    "TraceConfig",
    "TraceRecorder",
    "build_machine",
    "validate_result_json",
    "RunResult",
    "run_executable",
    "run_minic",
    "Alert",
    "SecurityException",
    "TaintednessDetector",
    "TaintednessDefense",
    "Detector",
    "ShadowStackDetector",
    "PacDetector",
    "DEFENSES",
    "ControlDataPolicy",
    "DetectionPolicy",
    "NullPolicy",
    "PointerTaintPolicy",
    "TaintVector",
    "Pipeline",
    "Simulator",
    "assemble",
    "Kernel",
    "build_program",
    "__version__",
]
