#!/usr/bin/env python3
"""Bare-metal tour: the taint architecture without the C toolchain.

Everything in the paper happens at the ISA level; this example drives the
machine directly with assembly to make each mechanism visible:

1. the SYS_READ taint-initialization boundary (section 4.4),
2. Table 1 propagation through ALU instructions,
3. the compare-untaint rule,
4. the section 4.3 dereference check, on both execution engines.

Run:  python examples/bare_metal_taint.py
"""

from repro.defenses.alerts import SecurityException
from repro.defenses.policy import PointerTaintPolicy
from repro.cpu.pipeline import Pipeline
from repro.cpu.simulator import Simulator
from repro.isa.assembler import assemble
from repro.kernel.syscalls import Kernel

PROGRAM = r"""
.text
_start:
    # (1) read 4 external bytes -> tainted memory
    li  $v0, 3          # SYS_READ
    li  $a0, 0          # stdin
    la  $a1, buf
    li  $a2, 4
    syscall

    la  $t9, buf
    lw  $t0, 0($t9)     # $t0 <- tainted word "abcd"
    li  $t1, 0x1000     # $t1 <- clean constant

    # (2) Table 1: default OR, shift spread, XOR zero idiom
    add $s0, $t0, $t1   # tainted + clean -> tainted
    sll $s1, $t0, 4     # taint creeps one byte leftward
    xor $s2, $t0, $t0   # compiler zero idiom -> clean

    # (3) compare-untaint: validating a copy clears ITS taint only
    move $s3, $t0
    slti $at, $s3, 100  # "if (x < 100)" -> $s3 untainted

    # (4) dereference the raw tainted word -> security exception
    lw  $s4, 0($t0)

    li  $v0, 1
    li  $a0, 0
    syscall
.data
buf: .space 8
"""


def build_machine(pipelined: bool):
    exe = assemble(PROGRAM)
    kernel = Kernel(stdin=b"abcd")
    sim = Simulator(exe, PointerTaintPolicy(), syscall_handler=kernel)
    kernel.attach(sim)
    return (Pipeline(sim), sim) if pipelined else (sim, sim)


def show_registers(sim):
    for number, label in ((8, "$t0 raw input word"),
                          (16, "$s0 add result"),
                          (17, "$s1 shifted"),
                          (18, "$s2 xor zero idiom"),
                          (19, "$s3 validated copy")):
        value, taint = sim.regs.read(number)
        print(f"  {label:22} = {value:#010x}  taint={taint:#06b}")


def main() -> None:
    for pipelined in (False, True):
        engine_name = "5-stage pipeline" if pipelined else "functional engine"
        print(f"=== {engine_name} ===")
        engine, sim = build_machine(pipelined)
        try:
            engine.run()
            print("no alert?!")
        except SecurityException as exc:
            print(f"security exception: {exc.alert}")
        show_registers(sim)
        buf = sim.executable.address_of("buf")
        print(f"  memory taint at buf  = "
              f"{sim.memory.count_tainted(buf, 8)}/8 bytes tainted")
        if pipelined:
            stats = engine.pstats
            print(f"  pipeline: {stats.retired} retired in {stats.cycles} "
                  f"cycles (CPI {stats.cpi:.2f}), "
                  f"{stats.drain_cycles} drain cycles before the exception")
        print()


if __name__ == "__main__":
    main()
