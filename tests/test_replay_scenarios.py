"""Replay harness and scenario-framework tests."""

import pytest

from repro.attacks.replay import (
    OUTCOME_ALERT,
    OUTCOME_EXIT,
    OUTCOME_FAULT,
    OUTCOME_LIMIT,
    RunResult,
    run_executable,
    run_minic,
)
from repro.attacks.scenarios import AttackScenario, POLICY_MATRIX
from repro.defenses.policy import NullPolicy, PointerTaintPolicy
from repro.isa.assembler import assemble
from repro.isa.program import Executable
from repro.kernel.network import ScriptedClient
from repro.libc.build import build_program


class TestRunOutcomes:
    def test_exit_outcome(self):
        result = run_minic("int main(void) { return 5; }")
        assert result.outcome == OUTCOME_EXIT
        assert result.exit_status == 5
        assert not result.detected
        assert "EXIT status=5" in result.describe()

    def test_alert_outcome(self):
        result = run_minic(
            "int main(void) { char b[8]; gets(b); return 0; }",
            PointerTaintPolicy(),
            stdin=b"A" * 32,
        )
        assert result.outcome == OUTCOME_ALERT
        assert result.detected
        assert result.alert is not None
        assert "ALERT" in result.describe()

    def test_fault_outcome(self):
        exe = assemble(".text\n_start: li $t0, 0x100\njr $t0\n")
        result = run_executable(exe, NullPolicy())
        assert result.outcome == OUTCOME_FAULT
        assert "FAULT" in result.describe()

    def test_limit_outcome(self):
        exe = assemble(".text\n_start: b _start\n")
        result = run_executable(exe, max_instructions=500)
        assert result.outcome == OUTCOME_LIMIT
        assert "LIMIT" in result.describe()

    def test_stdout_and_programs_available(self):
        result = run_minic(
            'int main(void) { puts("hi"); exec("/bin/sh"); return 0; }'
        )
        assert result.stdout == "hi\n"
        assert result.executed_programs == ["/bin/sh"]
        assert result.compromised

    def test_clients_are_wired_in_order(self):
        source = """
        int main(void) {
            int s; int c; char buf[8];
            s = server_listen(80);
            while (1) {
                c = accept(s);
                if (c < 0) { break; }
                recv_line(c, buf, 8);
                send_str(c, buf);
                close(c);
            }
            return 0;
        }
        """
        clients = [ScriptedClient([b"one\n"]), ScriptedClient([b"two\n"])]
        result = run_minic(source, clients=clients)
        assert bytes(result.clients[0].transcript) == b"one"
        assert bytes(result.clients[1].transcript) == b"two"

    def test_empty_result_defaults(self):
        result = RunResult(outcome=OUTCOME_EXIT)
        assert result.stdout == ""
        assert result.executed_programs == []
        assert not result.compromised


class TestScenarioFramework:
    def _scenario(self, **overrides):
        spec = dict(
            name="demo",
            category="non-control-data",
            description="demo scenario",
            source="int main(void) { char b[8]; gets(b); return 0; }",
            attack_input={"stdin": b"A" * 32},
            benign_input={"stdin": b"ok\n"},
            expected_alert_kind="jump",
        )
        spec.update(overrides)
        return AttackScenario(**spec)

    def test_run_attack_and_benign(self):
        scenario = self._scenario()
        assert scenario.run_attack(PointerTaintPolicy()).detected
        assert scenario.run_benign(PointerTaintPolicy()).outcome == "exit"

    def test_callable_inputs_materialized_per_run(self):
        calls = []

        def make_stdin():
            calls.append(1)
            return b"A" * 32

        scenario = self._scenario(attack_input={"stdin": make_stdin})
        scenario.run_attack(PointerTaintPolicy())
        scenario.run_attack(PointerTaintPolicy())
        assert len(calls) == 2

    def test_detected_by_pointer_taint_property(self):
        assert self._scenario().detected_by_pointer_taint
        assert not self._scenario(
            expected_alert_kind=None
        ).detected_by_pointer_taint

    def test_attack_succeeded_default_heuristic(self):
        scenario = self._scenario()
        unprotected = scenario.run_attack(NullPolicy())
        # Wild jump: tainted dereference counted -> success.
        assert scenario.attack_succeeded(unprotected)
        detected = scenario.run_attack(PointerTaintPolicy())
        assert not scenario.attack_succeeded(detected)

    def test_custom_compromise_check(self):
        scenario = self._scenario(
            compromise_check=lambda result: "MAGIC" in result.stdout
        )
        result = scenario.run_attack(NullPolicy())
        assert not scenario.attack_succeeded(result)

    def test_policy_matrix_constant(self):
        names = [policy.name for policy in POLICY_MATRIX]
        assert names == [
            "pointer-taintedness", "control-data-only", "unprotected",
        ]

    def test_build_uses_cache(self):
        scenario = self._scenario()
        assert scenario.build() is scenario.build()

    def test_max_instructions_forwarded(self):
        scenario = self._scenario(
            source="int main(void) { while (1) { } return 0; }",
            attack_input={"stdin": b""},
            max_instructions=1_000,
        )
        assert scenario.run_attack(PointerTaintPolicy()).outcome == "limit"


class TestExecutableImage:
    def test_text_and_data_bounds(self):
        exe = build_program("int g = 7;\nint main(void) { return g; }")
        assert exe.text_end == exe.text_base + 4 * len(exe.text_words)
        assert exe.data_end >= exe.data_base + 4

    def test_instruction_at_bounds_checked(self):
        exe = build_program("int main(void) { return 0; }")
        with pytest.raises(IndexError):
            exe.instruction_at(exe.text_end + 64)

    def test_symbol_at_skips_internal_labels(self):
        exe = build_program(
            'int helper(void) { return 1; }\n'
            'int main(void) { if (helper()) { return 2; } return 3; }'
        )
        main_addr = exe.address_of("main")
        # An address in main's body, past internal branch labels:
        assert exe.symbol_at(main_addr + 24) == "main"

    def test_symbol_at_can_include_internal(self):
        exe = build_program("int main(void) { return 0; }")
        label = exe.symbol_at(exe.address_of("main"), include_internal=True)
        assert label is not None

    def test_entry_is_start(self):
        exe = build_program("int main(void) { return 0; }")
        assert exe.entry == exe.address_of("_start") == exe.text_base

    def test_taint_inputs_flag_disables_boundary(self):
        result = run_minic(
            "int main(void) { char b[8]; gets(b); return 0; }",
            PointerTaintPolicy(),
            stdin=b"A" * 32,
            taint_inputs=False,
        )
        # Without input tainting the smash is invisible (and harmless to
        # the detector): the machine just faults or exits downstream.
        assert result.outcome in ("exit", "fault")
