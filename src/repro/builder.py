"""The one internal builder for a wired Simulator + Kernel pair.

Before this module existed, three call sites constructed the machine with
three drifting keyword conventions (`attacks/replay.py`,
`fault/campaign.py`, and the `kernel/syscalls.py` docstring example) --
each repeating the same fragile three-step dance: build the kernel, build
the simulator with the kernel as ``syscall_handler``, then remember to
``kernel.attach(sim)`` (forgetting the attach leaves the process without
a stack or argv and is a classic source of silent drift).  Every harness
now routes through :func:`build_machine` so engine/watchdog/bus wiring
cannot diverge between the replay path, the fault-campaign path, and the
test helpers.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .defenses.policy import DetectionPolicy
from .cpu.simulator import Simulator
from .kernel.filesystem import SimFileSystem
from .kernel.network import SimNetwork
from .kernel.syscalls import Kernel
from .isa.program import Executable

__all__ = ["build_machine"]


def build_machine(
    executable: Executable,
    policy: Optional[DetectionPolicy] = None,
    *,
    argv: Optional[Sequence[str]] = None,
    env: Optional[Sequence[str]] = None,
    stdin: bytes = b"",
    filesystem: Optional[SimFileSystem] = None,
    network: Optional[SimNetwork] = None,
    uid: int = 1000,
    taint_inputs: bool = True,
    use_caches: bool = False,
    taint_labels: bool = False,
    superblocks: bool = True,
) -> Tuple[Simulator, Kernel]:
    """Build a fully wired machine: kernel, simulator, attached process.

    Returns ``(sim, kernel)`` with the kernel installed as the syscall
    handler and the process image initialized (stack with argv/env, brk,
    registers).  The caller runs it afterwards: ``sim.run()``, or
    ``Pipeline(sim).run()`` to run the same engine and also account
    five-stage pipeline cycles.

    ``taint_labels=True`` puts the machine's taint plane in label mode:
    every external-input copy-in gets a provenance label and detection
    exceptions carry the tainting input's byte ranges.

    ``superblocks=False`` disables the fused superblock dispatch tier
    (results are byte-identical either way; the toggle exists for
    benchmarking and digest-invariance tests).
    """
    kernel = Kernel(
        argv=argv,
        env=env,
        stdin=stdin,
        filesystem=filesystem,
        network=network,
        uid=uid,
        taint_inputs=taint_inputs,
    )
    sim = Simulator(
        executable,
        policy,
        syscall_handler=kernel,
        use_caches=use_caches,
        taint_labels=taint_labels,
        superblocks=superblocks,
    )
    kernel.attach(sim)
    return sim, kernel
