"""The defense matrix: coverage claims, digest stability, schema, CLI."""

import io
import json

import pytest

from repro.api import ExecOptions, Session, validate_result_json
from repro.cli import main as cli_main
from repro.evalx.defense_matrix import (
    DEFENSE_NAMES,
    matrix_summary,
    report_defense_matrix,
    run_defense_matrix,
    run_defense_overhead,
)

#: Campaign digest captured on the pre-refactor tree (exp3, seed 11,
#: 25 trials).  The defenses extraction must keep the default
#: taintedness path bit-identical, so this constant must never change.
PRE_REFACTOR_DIGEST = (
    "9b0588e410ed0e9184188b6567b5305abf6f4b56023b4c3a48c6e35f79829e4b"
)


@pytest.fixture(scope="module")
def matrix():
    return run_defense_matrix()


class TestCoverageClaims:
    def test_every_scenario_by_every_defense(self, matrix):
        assert len(matrix) >= 10
        for row in matrix:
            for name in DEFENSE_NAMES:
                assert isinstance(row[name], bool), (row["scenario"], name)
            assert row["category"] in (
                "control-data", "non-control-data", "false-negative",
            )

    def test_all_three_catch_return_address_smash(self, matrix):
        row = next(r for r in matrix if r["scenario"] == "exp1-stack-smash")
        assert row["category"] == "control-data"
        for name in DEFENSE_NAMES:
            assert row[name], f"{name} must catch the stack smash"

    def test_taintedness_catches_non_control_attacks_comparators_miss(
        self, matrix
    ):
        # The acceptance claim: >= 3 non-control-data scenarios detected
        # by pointer taintedness and missed by BOTH comparators.  The uid
        # overwrite (wuftpd SITE EXEC), the CGI-BIN configuration string
        # (nullhttpd heap), and the format-string config-pointer attack
        # are the paper's flagship non-control-data examples.
        taintedness_only = [
            row["scenario"]
            for row in matrix
            if row["category"] == "non-control-data"
            and row["taintedness"]
            and not row["shadow-stack"]
            and not row["pac"]
        ]
        assert len(taintedness_only) >= 3, taintedness_only
        for expected in (
            "wuftpd-site-exec",      # uid word overwrite
            "nullhttpd-heap",        # CGI-BIN configuration string
            "exp3-format-string",    # config-pointer corruption
        ):
            assert expected in taintedness_only

    def test_false_negative_rows_escape_everything(self, matrix):
        for row in matrix:
            if row["category"] == "false-negative":
                for name in DEFENSE_NAMES:
                    assert not row[name], (row["scenario"], name)

    def test_undefended_attacks_compromise(self, matrix):
        assert all(row["compromise"] for row in matrix)

    def test_summary_counts(self, matrix):
        summary = matrix_summary(matrix)
        assert summary["scenarios"] == len(matrix)
        assert summary["detected"]["taintedness"] > summary["detected"][
            "shadow-stack"
        ]
        assert summary["detected"]["taintedness"] > summary["detected"]["pac"]
        assert summary["taintedness_only"] >= 3
        assert summary["non_control_caught_by_taintedness"] >= 3

    def test_comparator_alert_lines_recorded(self, matrix):
        row = next(r for r in matrix if r["scenario"] == "exp1-stack-smash")
        assert row["alerts"]["shadow-stack"]
        assert row["alerts"]["pac"]
        assert row["checks"]["shadow-stack"] > 0
        assert row["checks"]["pac"] > 0

    def test_parallel_rows_identical(self, matrix):
        assert run_defense_matrix(workers=2) == matrix


class TestDigestStability:
    def test_default_campaign_digest_unchanged_by_refactor(self):
        result = Session().run_campaign(
            builtin="exp3", seed=11, trials=25
        )
        assert result.digest() == PRE_REFACTOR_DIGEST

    def test_alert_line_format_unchanged(self):
        result = Session().run_minic(
            "int main(void){ char b[8]; gets(b); return 0; }",
            stdin=b"a" * 32,
        )
        assert result.detected
        line = str(result.alert)
        # The exact grammar every digest and report is built on.
        assert line == (
            f"{result.alert.pc:x}: {result.alert.disassembly}   "
            f"pointer=0x61616161 taint=0xf"
        )


class TestOverhead:
    def test_overhead_rows_shape(self):
        rows = run_defense_overhead(repeats=1)
        assert [r["defense"] for r in rows] == ["none", *DEFENSE_NAMES]
        instructions = {r["instructions"] for r in rows}
        # Attached observers never change architectural behavior.
        assert len(instructions) == 1
        baseline = rows[0]
        assert baseline["checks"] == 0
        for row in rows[1:]:
            assert row["checks"] > 0
            assert row["wall_s"] > 0


class TestFacadeAndSchema:
    def test_session_matrix_experiment(self):
        session = Session(options=ExecOptions(metrics=True))
        result = session.run_experiment("matrix", render=False)
        assert result.detected
        payload = validate_result_json(result.to_json())
        assert payload["stats"]["taintedness_only"] >= 3
        counters = payload["metrics"]["counters"]
        assert counters["defense.taintedness.runs"] >= 10
        assert counters["defense.shadow-stack.detections"] >= 1

    def test_run_result_defenses_block_round_trips(self):
        session = Session(options=ExecOptions(defense="shadow-stack"))
        result = session.run_minic(
            "int main(void){ char b[8]; gets(b); return 0; }",
            stdin=b"a" * 32,
        )
        payload = validate_result_json(result.to_json())
        block = payload["stats"]["defenses"]
        assert block["shadow-stack"]["alerts"] == 1
        assert block["shadow-stack"]["checks"] > 0
        assert json.loads(json.dumps(payload)) == payload

    def test_default_run_has_no_defenses_block(self):
        result = Session().run_minic("int main(void){ return 0; }")
        payload = validate_result_json(result.to_json())
        assert "defenses" not in payload["stats"]

    def test_schema_rejects_bad_defenses_blocks(self):
        good = {
            "kind": "run",
            "detected": False,
            "stats": {"defenses": {"pac": {"alerts": 0, "checks": 3}}},
            "metrics": {},
        }
        validate_result_json(good)
        for bad_block in (
            {},                                     # empty
            {"pac": {"alerts": -1, "checks": 0}},   # negative
            {"pac": {"alerts": 0}},                 # missing checks
            {"pac": []},                            # not a dict
            {"pac": {"alerts": True, "checks": 0}},  # bool masquerading
        ):
            payload = dict(good, stats={"defenses": bad_block})
            with pytest.raises(ValueError, match="defenses"):
                validate_result_json(payload)

    def test_session_defense_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown defense"):
            Session(options=ExecOptions(defense="nonsense"))

    def test_explicit_policy_overrides_defense_default(self):
        session = Session(options=ExecOptions(defense="shadow-stack"))
        result = session.run_minic(
            "int main(void){ char b[8]; gets(b); return 0; }",
            "paper",  # per-call policy wins over the defense's default
            stdin=b"a" * 32,
        )
        # Paper policy stays active: the inline taint check fires first
        # (at the tainted jr), and the comparator is merely attached.
        assert result.detected
        assert result.alert.taint_mask != 0


class TestCli:
    def test_matrix_command_json(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "matrix.json"
        code = cli_main(
            ["matrix", "--no-overhead", "--json", str(path)], out=out
        )
        assert code == 0
        text = out.getvalue()
        assert "Defense matrix" in text
        assert "wuftpd-site-exec" in text
        payload = validate_result_json(json.loads(path.read_text()))
        assert payload["stats"]["detected"]["taintedness"] >= 7

    def test_run_defense_flag(self, tmp_path):
        victim = tmp_path / "victim.c"
        victim.write_text(
            "int main(void){ char b[8]; gets(b); return 0; }"
        )
        out = io.StringIO()
        code = cli_main(
            [
                "run", str(victim),
                "--defense", "shadow-stack",
                "--stdin-text", "a" * 32,
            ],
            out=out,
        )
        assert code == 2  # detected
        assert "unprotected + shadow-stack" in out.getvalue()
