"""Five-stage pipeline model: retirement-time exceptions, timing, parity."""

import pytest

from repro.defenses.alerts import SecurityException
from repro.defenses.policy import PointerTaintPolicy
from repro.cpu.pipeline import Pipeline, STAGES
from repro.cpu.simulator import Simulator
from repro.isa.assembler import assemble
from repro.kernel.syscalls import Kernel

from tests.helpers import run_asm


def make_machines(source, stdin=b""):
    """Build a functional simulator and a pipelined one for the same image."""
    exe = assemble(source)
    machines = []
    for _ in range(2):
        kernel = Kernel(stdin=stdin)
        sim = Simulator(exe, PointerTaintPolicy(), syscall_handler=kernel)
        kernel.attach(sim)
        machines.append(sim)
    return machines[0], Pipeline(machines[1])


STRAIGHT_LINE = (
    ".text\n_start:\n"
    "li $t0, 5\nli $t1, 6\nadd $t2, $t0, $t1\n"
    "move $a0, $t2\nli $v0, 1\nsyscall\n"
)

LOOPY = (
    ".text\n_start:\n"
    "li $t0, 20\nli $t1, 0\n"
    "loop: addu $t1, $t1, $t0\naddiu $t0, $t0, -1\nbnez $t0, loop\n"
    "move $a0, $t1\nli $v0, 1\nsyscall\n"
)

ATTACK = (
    ".text\n_start:\n"
    "li $v0, 3\nli $a0, 0\nla $a1, buf\nli $a2, 8\nsyscall\n"
    "la $t9, buf\nlw $t0, 0($t9)\n"
    "lw $s0, 0($t0)\n"        # tainted dereference
    "li $v0, 1\nli $a0, 0\nsyscall\n"
    ".data\nbuf: .space 8\n"
)


class TestPipelineBasics:
    def test_stage_names(self):
        assert STAGES == ("IF", "ID", "EX", "MEM", "WB")

    def test_straight_line_result_matches_functional(self):
        functional, pipeline = make_machines(STRAIGHT_LINE)
        assert functional.run() == pipeline.run() == 11

    def test_loop_result_matches_functional(self):
        functional, pipeline = make_machines(LOOPY)
        assert functional.run() == pipeline.run() == sum(range(1, 21))

    def test_retired_count_matches_executed(self):
        functional, pipeline = make_machines(LOOPY)
        functional.run()
        pipeline.run()
        assert pipeline.pstats.retired == functional.stats.instructions

    def test_cycles_exceed_instructions(self):
        """No branch prediction: control transfers stall fetch, CPI > 1."""
        _, pipeline = make_machines(LOOPY)
        pipeline.run()
        assert pipeline.pstats.cycles > pipeline.pstats.retired
        assert pipeline.pstats.cpi > 1.0
        assert pipeline.pstats.fetch_stalls > 0

    def test_straight_line_fills_the_pipe(self):
        """Without control hazards the pipe approaches CPI ~1 + drain."""
        source = (
            ".text\n_start:\n" + "addiu $t0, $t0, 1\n" * 40 +
            "move $a0, $t0\nli $v0, 1\nsyscall\n"
        )
        _, pipeline = make_machines(source)
        assert pipeline.run() == 40
        # 40 adds + 3 tail instructions + pipeline fill/drain + syscall stalls
        assert pipeline.pstats.cycles < 70

    def test_instruction_budget_matches_functional_engine(self):
        """The shared MachineState watchdog bounds the pipeline engine with
        the same instruction semantics as the functional engine."""
        from repro.cpu.machine import ExecutionLimit

        _, pipeline = make_machines(".text\n_start: b _start\n")
        pipeline.sim.arm_watchdog(max_instructions=100)
        with pytest.raises(ExecutionLimit) as exc:
            pipeline.run()
        assert exc.value.reason == "instructions"
        assert pipeline.sim.stats.instructions == 100


class TestRetirementException:
    def test_detection_is_raised_at_retirement(self):
        _, pipeline = make_machines(ATTACK, stdin=b"abcdefgh")
        with pytest.raises(SecurityException) as info:
            pipeline.run()
        assert info.value.alert.pointer_value == 0x64636261
        # The malicious instruction marked at EX/MEM drained through WB.
        assert pipeline.pstats.drain_cycles == len(STAGES) - 2

    def test_jump_detection_through_pipeline(self):
        source = (
            ".text\n_start:\n"
            "li $v0, 3\nli $a0, 0\nla $a1, buf\nli $a2, 8\nsyscall\n"
            "la $t9, buf\nlw $t0, 0($t9)\njr $t0\n"
            ".data\nbuf: .space 8\n"
        )
        _, pipeline = make_machines(source, stdin=b"aaaaaaaa")
        with pytest.raises(SecurityException) as info:
            pipeline.run()
        assert info.value.alert.kind == "jump"

    def test_no_younger_side_effects_after_mark(self):
        """A store younger than the malicious instruction must not land."""
        source = (
            ".text\n_start:\n"
            "li $v0, 3\nli $a0, 0\nla $a1, buf\nli $a2, 8\nsyscall\n"
            "la $t9, buf\nlw $t0, 0($t9)\n"
            "lw $s0, 0($t0)\n"       # malicious
            "li $t5, 99\nsw $t5, 8($t9)\n"  # younger store
            "li $v0, 1\nsyscall\n"
            ".data\nbuf: .space 16\n"
        )
        _, pipeline = make_machines(source, stdin=b"abcdefgh")
        with pytest.raises(SecurityException):
            pipeline.run()
        buf = pipeline.sim.executable.address_of("buf")
        assert pipeline.sim.memory.read(buf + 8, 4)[0] == 0

    def test_functional_and_pipeline_agree_on_alert(self):
        functional, pipeline = make_machines(ATTACK, stdin=b"abcdefgh")
        with pytest.raises(SecurityException) as func_info:
            functional.run()
        with pytest.raises(SecurityException) as pipe_info:
            pipeline.run()
        assert func_info.value.alert.pc == pipe_info.value.alert.pc
        assert (
            func_info.value.alert.pointer_value
            == pipe_info.value.alert.pointer_value
        )
