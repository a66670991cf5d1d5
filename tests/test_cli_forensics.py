"""CLI and forensic-report tests."""

import io
import json

import pytest

from repro.api import validate_result_json
from repro.apps.synthetic import exp1_scenario, exp3_scenario
from repro.attacks.replay import run_minic
from repro.cli import main
from repro.defenses.policy import NullPolicy, PointerTaintPolicy
from repro.evalx.forensics import (
    explain,
    hexdump,
    provenance_report,
    recent_trace,
)

VICTIM = """
int main(void) {
    char buf[10];
    scan_string(buf);
    puts("returned");
    return 0;
}
"""


@pytest.fixture
def victim_file(tmp_path):
    path = tmp_path / "victim.c"
    path.write_text(VICTIM)
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCliRun:
    def test_benign_run_exit_code_and_stdout(self, victim_file):
        code, output = run_cli("run", victim_file, "--stdin-text", "bob")
        assert code == 0
        assert "returned" in output
        assert "EXIT status=0" in output

    def test_attack_run_exit_code_2(self, victim_file):
        code, output = run_cli(
            "run", victim_file, "--stdin-text", "a" * 24
        )
        assert code == 2
        assert "ALERT" in output
        assert "0x61616161" in output

    def test_policy_none_lets_attack_proceed(self, victim_file):
        code, output = run_cli(
            "run", victim_file, "--stdin-text", "a" * 24, "--policy", "none"
        )
        assert code == 3          # wild jump ends in a machine fault
        assert "FAULT" in output

    def test_explain_flag_produces_forensics(self, victim_file):
        code, output = run_cli(
            "run", victim_file, "--stdin-text", "a" * 24, "--explain"
        )
        assert "SECURITY ALERT" in output
        assert "in function: main" in output
        assert "jr $31" in output

    def test_pipeline_engine_flag(self, victim_file):
        code, output = run_cli(
            "run", victim_file, "--stdin-text", "a" * 24, "--pipeline"
        )
        assert code == 2

    def test_caches_flag(self, victim_file):
        code, _ = run_cli(
            "run", victim_file, "--stdin-text", "hi", "--caches"
        )
        assert code == 0

    def test_stdin_file(self, victim_file, tmp_path):
        payload = tmp_path / "payload.bin"
        payload.write_bytes(b"a" * 24)
        code, _ = run_cli(
            "run", victim_file, "--stdin-file", str(payload)
        )
        assert code == 2

    def test_conflicting_stdin_options_rejected(self, victim_file, tmp_path):
        payload = tmp_path / "p.bin"
        payload.write_bytes(b"x")
        with pytest.raises(SystemExit):
            run_cli(
                "run", victim_file,
                "--stdin-text", "x", "--stdin-file", str(payload),
            )

    def test_argv_forwarding(self, tmp_path):
        path = tmp_path / "args.c"
        path.write_text(
            'int main(int argc, char **argv) {'
            ' printf("%d %s", argc, argv[1]); return argc; }'
        )
        code, output = run_cli("run", str(path), "--arg", "hello")
        assert code == 2          # main returned argc
        assert "2 hello" in output


class TestCliTaintLabels:
    def test_run_taint_labels_explain_shows_provenance(self, victim_file):
        code, output = run_cli(
            "run", victim_file, "--stdin-text", "a" * 24,
            "--taint-labels", "--explain",
        )
        assert code == 2
        assert "tainted by:" in output
        assert "read(fd=0)" in output

    def test_run_without_labels_has_no_provenance_section(self, victim_file):
        code, output = run_cli(
            "run", victim_file, "--stdin-text", "a" * 24, "--explain"
        )
        assert code == 2
        assert "tainted by:" not in output


class TestCliForensicsCommand:
    def test_forensics_renders_provenance_and_metrics(self, victim_file):
        code, output = run_cli(
            "forensics", victim_file, "--stdin-text", "a" * 24,
            "--provenance",
        )
        assert code == 2
        assert "SECURITY ALERT" in output
        assert "provenance:" in output
        assert "read(fd=0)" in output
        assert "input bytes" in output
        assert "taint.labels.allocated:" in output
        assert "taint.labelsets.interned:" in output

    def test_forensics_json_validates_with_provenance(
        self, victim_file, tmp_path
    ):
        path = tmp_path / "result.json"
        code, _ = run_cli(
            "forensics", victim_file, "--stdin-text", "a" * 24,
            "--json", str(path),
        )
        assert code == 2
        payload = validate_result_json(json.loads(path.read_text()))
        entries = payload["stats"]["provenance"]
        assert entries
        assert all(e["syscall"] == "read" for e in entries)

    def test_forensics_clean_run(self, victim_file):
        code, output = run_cli(
            "forensics", victim_file, "--stdin-text", "bob"
        )
        assert code == 0
        assert "EXIT status=0" in output


class TestCliAsm:
    def test_asm_subcommand(self, tmp_path):
        path = tmp_path / "prog.s"
        path.write_text(
            ".text\n_start:\nli $v0,1\nli $a0,7\nsyscall\n"
        )
        code, output = run_cli("asm", str(path))
        assert code == 7
        assert "EXIT status=7" in output


class TestCliDisasmAndReport:
    def test_disasm(self, victim_file):
        code, output = run_cli("disasm", victim_file)
        assert code == 0
        assert "_start:" in output
        assert "main:" in output

    def test_report_fig1(self):
        code, output = run_cli("report", "fig1")
        assert code == 0
        assert "67" in output

    def test_report_table4(self):
        code, output = run_cli("report", "table4")
        assert code == 0
        assert output.count("NO (escapes)") == 3

    def test_unknown_report_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("report", "table99")


class TestForensics:
    def test_explain_detected_run(self):
        result = exp3_scenario().run_attack(PointerTaintPolicy())
        report = explain(result)
        assert "SECURITY ALERT" in report
        assert "0x64636261" in report
        assert "store" in report
        assert "recent instructions:" in report
        assert "tainted registers at stop:" in report

    def test_explain_marks_tainted_bytes_uppercase(self):
        result = exp3_scenario().run_attack(PointerTaintPolicy())
        # The format buffer itself is tainted; dump it.
        sim = result.sim
        lines = hexdump(sim.memory, result.alert.pointer_value, 16)
        assert lines  # rendering worked; wild region may be all zeros

    def test_hexdump_gutter_matches_taint(self):
        result = run_minic(
            "int main(void) { char b[16]; read(0, b, 8); return 0; }",
            PointerTaintPolicy(),
            stdin=b"ABCDEFGH",
        )
        # Find the buffer: it is on the stack; instead dump a data address
        # we control via the string pool -- simpler: re-run reading into a
        # global.
        result = run_minic(
            "char g[16];\n"
            "int main(void) { read(0, g, 8); return 0; }",
            PointerTaintPolicy(),
            stdin=b"ABCDEFGH",
        )
        address = result.sim.executable.address_of("_g_g")
        lines = hexdump(result.sim.memory, address, 8)
        assert any("TTTTTTTT" in line for line in lines)
        assert any("41 42 43 44" in line.lower() for line in lines)

    def test_explain_clean_exit(self):
        result = run_minic("int main(void) { return 0; }")
        report = explain(result)
        assert "EXIT status=0" in report
        assert "SECURITY ALERT" not in report

    def test_explain_unprotected_attack_counts_wild_derefs(self):
        result = exp3_scenario().run_attack(NullPolicy())
        report = explain(result)
        assert "tainted dereference(s) went unchecked" in report

    def test_provenance_report_label_mode(self):
        result = run_minic(
            "int main(void) { char b[8]; gets(b); return 0; }",
            PointerTaintPolicy(),
            stdin=b"A" * 32,
            taint_labels=True,
        )
        report = provenance_report(result)
        assert "tainted by:" in report
        assert "read(fd=0)" in report
        assert "input bytes" in report

    def test_provenance_report_bit_mode_points_at_label_mode(self):
        result = run_minic(
            "int main(void) { char b[8]; gets(b); return 0; }",
            PointerTaintPolicy(),
            stdin=b"A" * 32,
        )
        assert "taint_labels=True" in provenance_report(result)

    def test_provenance_report_without_alert(self):
        result = run_minic("int main(void) { return 0; }")
        assert "no alert" in provenance_report(result)

    def test_recent_trace_disassembles(self):
        result = exp1_scenario().run_attack(PointerTaintPolicy())
        trail = recent_trace(result, count=4)
        assert len(trail) == 4
        assert "jr $31" in trail[-1]
