"""Taint tracking on the machine: Table 1 rules + section 4.3 detection.

These tests exercise the rules through *executed instructions* (not the
pure functions), including the syscall taint-initialization boundary.
"""

import pytest

from repro.defenses.alerts import SecurityException
from repro.defenses.policy import (
    ControlDataPolicy,
    NullPolicy,
    PointerTaintPolicy,
)

from tests.helpers import run_asm

#: Preamble: read 8 external bytes into ``buf`` and load the first word
#: (tainted) into $t0 and a clean value into $t1.
READ_PREAMBLE = """
    li $v0, 3
    li $a0, 0
    la $a1, buf
    li $a2, 8
    syscall
    la $t9, buf
    lw $t0, 0($t9)      # tainted word
    li $t1, 0x01010101  # clean word
"""

DATA = "buf: .space 16\nout: .space 16"


def run_taint(body, stdin=b"abcdefgh", policy=None, **kwargs):
    source = (
        ".text\n_start:\n" + READ_PREAMBLE + body +
        "\n    li $v0, 1\n    li $a0, 0\n    syscall\n.data\n" + DATA
    )
    return run_asm(source, stdin=stdin, policy=policy, **kwargs)


class TestTaintInitialization:
    def test_read_taints_buffer(self):
        sim, _ = run_taint("nop")
        buf = sim.executable.address_of("buf")
        assert sim.memory.count_tainted(buf, 8) == 8
        assert sim.memory.count_tainted(buf + 8, 8) == 0

    def test_load_carries_taint_to_register(self):
        sim, _ = run_taint("nop")
        assert sim.regs.taint(8) == 0xF   # $t0
        assert sim.regs.taint(9) == 0     # $t1

    def test_store_carries_taint_to_memory(self):
        sim, _ = run_taint("la $t2, out\nsw $t0, 0($t2)\nsb $t1, 4($t2)")
        out = sim.executable.address_of("out")
        assert sim.memory.count_tainted(out, 4) == 4
        assert sim.memory.count_tainted(out + 4, 1) == 0

    def test_input_byte_statistics(self):
        sim, _ = run_taint("nop")
        # 8 bytes read from stdin + the default argv[0] "prog\0" (5 bytes):
        # command-line arguments are tainted at process setup too.
        assert sim.stats.input_bytes_tainted == 8 + 5


class TestDefaultPropagation:
    def test_add_taints_result(self):
        sim, _ = run_taint("add $s0, $t0, $t1\nadd $s1, $t1, $t1")
        assert sim.regs.taint(16) == 0xF
        assert sim.regs.taint(17) == 0

    def test_partial_byte_taint_via_byte_load(self):
        sim, _ = run_taint("la $t2, out\nsb $t1, 0($t2)\n"  # clean byte
                           "lbu $s0, 0($t2)")
        assert sim.regs.taint(16) == 0

    def test_lbu_taints_only_low_byte(self):
        sim, _ = run_taint("lbu $s0, 0($t9)")
        assert sim.regs.taint(16) == 0b0001

    def test_lb_sign_extension_taints_whole_word(self):
        sim, _ = run_taint("lb $s0, 0($t9)")
        assert sim.regs.taint(16) == 0xF

    def test_addi_preserves_source_taint(self):
        sim, _ = run_taint("addiu $s0, $t0, 4")
        assert sim.regs.taint(16) == 0xF

    def test_mult_collapses_taint(self):
        sim, _ = run_taint("mult $t0, $t1\nmflo $s0\nmfhi $s1")
        assert sim.regs.taint(16) == 0xF
        assert sim.regs.taint(17) == 0xF

    def test_div_collapses_taint(self):
        sim, _ = run_taint("li $t3, 3\ndiv $t0, $t3\nmflo $s0")
        assert sim.regs.taint(16) == 0xF


class TestShiftRule:
    def test_sll_taint_spreads_upward(self):
        sim, _ = run_taint("lbu $s0, 0($t9)\nsll $s1, $s0, 4")
        assert sim.regs.taint(16) == 0b0001
        assert sim.regs.taint(17) == 0b0011

    def test_srl_taint_spreads_downward(self):
        # Build a word tainted only in byte 3.
        sim, _ = run_taint(
            "la $t2, out\nsb $t0, 3($t2)\nlw $s0, 0($t2)\nsrl $s1, $s0, 4"
        )
        assert sim.regs.taint(16) == 0b1000
        assert sim.regs.taint(17) == 0b1100

    def test_tainted_shift_amount_taints_all(self):
        sim, _ = run_taint("sllv $s0, $t1, $t0")
        assert sim.regs.taint(16) == 0xF


class TestAndXorIdioms:
    def test_and_with_clean_zero_untaints(self):
        sim, _ = run_taint("and $s0, $t0, $0")
        assert sim.regs.taint(16) == 0

    def test_andi_clears_masked_bytes(self):
        sim, _ = run_taint("andi $s0, $t0, 0x00FF")
        assert sim.regs.taint(16) == 0b0001

    def test_and_with_clean_nonzero_keeps_taint(self):
        sim, _ = run_taint("and $s0, $t0, $t1")
        assert sim.regs.taint(16) == 0xF

    def test_xor_same_register_idiom_untaints(self):
        sim, _ = run_taint("xor $s0, $t0, $t0")
        assert sim.regs.taint(16) == 0
        assert sim.regs.value(16) == 0

    def test_xor_different_registers_taints(self):
        sim, _ = run_taint("xor $s0, $t0, $t1")
        assert sim.regs.taint(16) == 0xF

    def test_xor_idiom_can_be_disabled(self):
        policy = PointerTaintPolicy(untaint_xor_idiom=False)
        sim, _ = run_taint("xor $s0, $t0, $t0", policy=policy)
        assert sim.regs.taint(16) == 0xF

    def test_and_rule_can_be_disabled(self):
        policy = PointerTaintPolicy(untaint_and_zero=False)
        sim, _ = run_taint("and $s0, $t0, $0", policy=policy)
        assert sim.regs.taint(16) == 0xF


class TestCompareRule:
    def test_slt_untaints_both_operands(self):
        sim, _ = run_taint("lw $t3, 4($t9)\nslt $s0, $t0, $t3")
        assert sim.regs.taint(8) == 0
        assert sim.regs.taint(11) == 0
        assert sim.regs.taint(16) == 0

    def test_slti_untaints_source(self):
        sim, _ = run_taint("slti $s0, $t0, 100")
        assert sim.regs.taint(8) == 0

    def test_branch_untaints_compared_registers(self):
        sim, _ = run_taint("beq $t0, $t1, same\nsame: nop")
        assert sim.regs.taint(8) == 0
        assert sim.regs.taint(9) == 0

    def test_single_register_branch_untaints(self):
        sim, _ = run_taint("bgtz $t0, pos\npos: nop")
        assert sim.regs.taint(8) == 0

    def test_compare_untaint_is_register_local(self):
        """Validating a register copy does not untaint the memory bytes."""
        sim, _ = run_taint("slt $s0, $t0, $t1")
        buf = sim.executable.address_of("buf")
        assert sim.memory.count_tainted(buf, 8) == 8

    def test_compare_rule_can_be_disabled(self):
        policy = PointerTaintPolicy(untaint_on_compare=False)
        sim, _ = run_taint("slt $s0, $t0, $t1", policy=policy)
        assert sim.regs.taint(8) == 0xF


class TestDetectionPoints:
    def test_tainted_load_address_alerts(self):
        with pytest.raises(SecurityException) as info:
            run_taint("lw $s0, 0($t0)")
        assert info.value.alert.kind == "load"
        assert info.value.alert.pointer_value == 0x64636261  # "abcd"

    def test_tainted_store_address_alerts(self):
        with pytest.raises(SecurityException) as info:
            run_taint("sw $t1, 0($t0)")
        assert info.value.alert.kind == "store"

    def test_tainted_jr_alerts(self):
        with pytest.raises(SecurityException) as info:
            run_taint("jr $t0")
        assert info.value.alert.kind == "jump"

    def test_tainted_jalr_alerts(self):
        with pytest.raises(SecurityException) as info:
            run_taint("jalr $t0")
        assert info.value.alert.kind == "jump"

    def test_single_tainted_byte_in_address_alerts(self):
        """The OR gate: one tainted byte of the address word suffices."""
        with pytest.raises(SecurityException):
            run_taint("lbu $s0, 0($t9)\n"      # taint mask 0b0001
                      "la $s1, out\n"
                      "addu $s2, $s1, $s0\n"   # address with 1 tainted byte
                      "lw $s3, 0($s2)")

    def test_clean_pointer_to_tainted_data_is_fine(self):
        """Loading tainted *data* through a clean pointer never alerts."""
        sim, status = run_taint("lw $s0, 0($t9)\nlw $s1, 4($t9)")
        assert status == 0

    def test_control_data_policy_misses_data_derefs(self):
        sim, status = run_taint("lw $s0, 0($t0)", policy=ControlDataPolicy())
        assert status == 0
        assert sim.stats.alerts == 0
        assert sim.stats.tainted_dereferences == 1

    def test_control_data_policy_still_catches_jr(self):
        with pytest.raises(SecurityException):
            run_taint("jr $t0", policy=ControlDataPolicy())

    def test_null_policy_counts_but_never_raises(self):
        sim, status = run_taint(
            "lw $s0, 0($t0)\nsw $t1, 0($t0)", policy=NullPolicy()
        )
        assert status == 0
        assert sim.stats.tainted_dereferences == 2

    def test_track_taint_off_means_no_taint_anywhere(self):
        policy = NullPolicy(track_taint=False)
        sim, _ = run_taint("add $s0, $t0, $t1", policy=policy)
        assert sim.regs.taint(16) == 0
        assert sim.stats.tainted_results == 0


class TestTaintThroughCaches:
    def test_detection_works_with_cache_hierarchy(self):
        with pytest.raises(SecurityException):
            run_taint("lw $s0, 0($t0)", use_caches=True)

    def test_taint_roundtrip_through_caches(self):
        sim, _ = run_taint(
            "la $t2, out\nsw $t0, 0($t2)\nlw $s0, 0($t2)", use_caches=True
        )
        assert sim.regs.taint(16) == 0xF

    def test_dereference_check_statistics(self):
        sim, _ = run_taint("lw $s0, 0($t9)")
        assert sim.stats.dereference_checks > 0
