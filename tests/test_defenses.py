"""The defenses package: Detector protocol, registry, comparators."""

import pytest

import repro
from repro.attacks.replay import run_minic
from repro.defenses import (
    DEFENSES,
    Alert,
    Detector,
    DetectorRegistry,
    KIND_ANNOTATION,
    KIND_JUMP,
    KIND_LOAD,
    KIND_PAC,
    KIND_RETURN,
    KIND_STORE,
    PacDetector,
    ShadowStackDetector,
    TaintednessDefense,
    TaintednessDetector,
    resolve_defense,
)
from repro.defenses.pac import pac_sites
from repro.defenses.policy import (
    ControlDataPolicy,
    NullPolicy,
    PointerTaintPolicy,
)
from repro.libc.build import build_program

SMASH_VICTIM = """
int main(void) {
    char buf[8];
    gets(buf);
    return 0;
}
"""
SMASH_INPUT = b"a" * 32

BENIGN_CALLS = """
int leaf(int x) { return x + 1; }
int mid(int x) { return leaf(x) + leaf(x + 1); }
int main(void) {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 10; i = i + 1) {
        acc = acc + mid(i);
    }
    return 0;
}
"""


def make_alert(**overrides):
    base = dict(
        pc=0x400100,
        kind=KIND_STORE,
        disassembly="sw $21,0($3)",
        pointer_value=0x1002BC20,
        taint_mask=0xF,
    )
    base.update(overrides)
    return Alert(**base)


class TestPackageSurface:
    """The top-level package re-exports the defenses."""

    def test_top_level_package_exports(self):
        assert repro.TaintednessDetector is TaintednessDetector
        assert repro.ShadowStackDetector is ShadowStackDetector
        assert repro.PacDetector is PacDetector
        assert repro.DEFENSES is DEFENSES


class TestTaintednessDetectorUnit:
    """Satellite: direct unit tests for the re-homed detector."""

    def test_reset_clears_alerts(self):
        detector = TaintednessDetector(PointerTaintPolicy())
        alert = detector.check(
            kind=KIND_STORE,
            pc=0x400100,
            disassembly="sw $21,0($3)",
            pointer_value=0x1002BC20,
            taint_mask=0xF,
        )
        assert alert is not None
        assert detector.alerts == [alert]
        detector.reset()
        assert detector.alerts == []

    def test_clean_pointer_not_flagged(self):
        detector = TaintednessDetector(PointerTaintPolicy())
        assert (
            detector.check(
                kind=KIND_LOAD,
                pc=0x400100,
                disassembly="lw $2,0($3)",
                pointer_value=0x10000000,
                taint_mask=0x0,
            )
            is None
        )
        assert detector.alerts == []

    def test_unchecked_kind_not_flagged(self):
        detector = TaintednessDetector(ControlDataPolicy())
        assert (
            detector.check(
                kind=KIND_STORE,
                pc=0x400100,
                disassembly="sw $21,0($3)",
                pointer_value=0x1002BC20,
                taint_mask=0xF,
            )
            is None
        )

    def test_describe_provenance_empty_in_bit_mode(self):
        assert make_alert().describe_provenance() == []

    def test_describe_provenance_populated_in_label_mode(self):
        result = run_minic(
            SMASH_VICTIM,
            PointerTaintPolicy(),
            stdin=SMASH_INPUT,
            taint_labels=True,
        )
        assert result.detected
        lines = result.alert.describe_provenance()
        assert lines
        assert all(isinstance(line, str) and line for line in lines)

    def test_policy_checks_kind_coverage(self):
        paper = PointerTaintPolicy()
        for kind in (KIND_LOAD, KIND_STORE, KIND_JUMP):
            assert paper.checks(kind)
        # Non-dereference kinds are not policy-checked: annotation hits
        # and comparator kinds bypass DetectionPolicy entirely.
        for kind in (KIND_ANNOTATION, KIND_RETURN, KIND_PAC):
            assert not paper.checks(kind)
        control = ControlDataPolicy()
        assert control.checks(KIND_JUMP)
        assert not control.checks(KIND_LOAD)
        assert not control.checks(KIND_STORE)
        null = NullPolicy()
        for kind in (KIND_LOAD, KIND_STORE, KIND_JUMP, KIND_RETURN, KIND_PAC):
            assert not null.checks(kind)


class TestDetectorBase:
    def test_attach_twice_raises(self):
        detector = ShadowStackDetector()
        result = run_minic(BENIGN_CALLS, None, defense=detector)
        assert result.outcome == "exit"
        with pytest.raises(RuntimeError):
            detector.attach(result.sim)

    def test_detach_reattach_cycle(self):
        detector = ShadowStackDetector()
        result = run_minic(BENIGN_CALLS, None, defense=detector)
        result.sim.detach_defense(detector)
        assert result.sim.defenses == []
        # Detached detector can serve a fresh machine.
        second = run_minic(SMASH_VICTIM, None, defense=detector,
                           stdin=SMASH_INPUT)
        assert second.detected

    def test_summary_shape(self):
        detector = ShadowStackDetector()
        result = run_minic(BENIGN_CALLS, None, defense=detector)
        summary = detector.summary()
        assert summary["alerts"] == 0
        assert summary["checks"] > 0
        assert result.sim.defense_summaries() == {"shadow-stack": summary}

    def test_default_policies(self):
        assert TaintednessDefense().default_policy().name == (
            "pointer-taintedness"
        )
        assert ShadowStackDetector().default_policy().name == "unprotected"
        assert PacDetector().default_policy().name == "unprotected"

    def test_base_reset(self):
        detector = Detector()
        detector.alerts.append(make_alert())
        detector.checks = 5
        detector.reset()
        assert detector.alerts == []
        assert detector.checks == 0


class TestRegistry:
    def test_builtins_registered(self):
        assert DEFENSES.names() == ["taintedness", "shadow-stack", "pac"]
        for name in DEFENSES.names():
            assert name in DEFENSES
            detector = DEFENSES.create(name)
            assert detector.name == name

    def test_create_returns_fresh_instances(self):
        assert DEFENSES.create("pac") is not DEFENSES.create("pac")

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(KeyError, match="shadow-stack"):
            DEFENSES.create("nonsense")

    def test_duplicate_register_raises_unless_replace(self):
        registry = DetectorRegistry()
        registry.register("x", ShadowStackDetector)
        with pytest.raises(ValueError):
            registry.register("x", PacDetector)
        registry.register("x", PacDetector, replace=True)
        assert isinstance(registry.create("x"), PacDetector)

    def test_resolve_spec_forms(self):
        assert resolve_defense(None) is None
        assert isinstance(resolve_defense("shadow-stack"), ShadowStackDetector)
        instance = PacDetector()
        assert resolve_defense(instance) is instance


class TestShadowStackDetector:
    def test_benign_run_clean_and_balanced(self):
        detector = ShadowStackDetector()
        result = run_minic(BENIGN_CALLS, None, defense=detector)
        assert result.outcome == "exit"
        assert detector.alerts == []
        assert detector.checks > 0

    def test_detects_return_address_smash(self):
        detector = ShadowStackDetector()
        result = run_minic(
            SMASH_VICTIM, None, defense=detector, stdin=SMASH_INPUT
        )
        assert result.detected
        assert result.alert.kind == KIND_RETURN
        assert result.alert.pointer_value == 0x61616161
        assert result.alert.taint_mask == 0
        assert "shadow stack expected" in result.alert.detail

    def test_reset_clears_stack(self):
        detector = ShadowStackDetector()
        detector._stack.extend([1, 2, 3])
        detector.checks = 9
        detector.reset()
        assert detector.depth == 0
        assert detector.checks == 0


class TestPacDetector:
    def test_codegen_emits_sign_and_auth_sites(self):
        exe = build_program(BENIGN_CALLS)
        sites = pac_sites(exe)
        kinds = set(sites.values())
        assert kinds == {"sign", "auth"}
        # Sites are dot-labels: invisible to symbol_at-based forensics.
        assert all(
            name.startswith(".L")
            for name in exe.symbols
            if "pac_sign_" in name or "pac_auth_" in name
        )

    def test_mac_keyed_and_deterministic(self):
        a, b = PacDetector(), PacDetector()
        assert a._mac(0x7FFF0000, 0x400124) == b._mac(0x7FFF0000, 0x400124)
        assert a._mac(0x7FFF0000, 0x400124) != a._mac(0x7FFF0000, 0x400128)
        other_key = PacDetector(key=0x12345678)
        assert a._mac(0x7FFF0000, 0x400124) != other_key._mac(
            0x7FFF0000, 0x400124
        )

    def test_benign_run_clean(self):
        detector = PacDetector()
        result = run_minic(BENIGN_CALLS, None, defense=detector)
        assert result.outcome == "exit"
        assert detector.alerts == []
        assert detector.checks > 0
        assert detector.signed_live <= 1  # at most crt0's frame left open

    def test_detects_return_address_smash(self):
        detector = PacDetector()
        result = run_minic(
            SMASH_VICTIM, None, defense=detector, stdin=SMASH_INPUT
        )
        assert result.detected
        assert result.alert.kind == KIND_PAC
        assert result.alert.pointer_value == 0x61616161
        assert "authentication failed" in result.alert.detail

    def test_reset_clears_macs(self):
        detector = PacDetector()
        detector._macs[0x7FFF0000] = 1
        detector.reset()
        assert detector.signed_live == 0


class TestTaintednessDefenseAdapter:
    def test_alerts_delegate_to_machine_detector(self):
        defense = TaintednessDefense()
        result = run_minic(
            SMASH_VICTIM, None, defense=defense, stdin=SMASH_INPUT
        )
        assert result.detected
        assert defense.alerts is result.sim.detector.alerts
        assert len(defense.alerts) == 1
        assert defense.checks == result.sim.stats.dereference_checks
        defense.reset()
        assert result.sim.detector.alerts == []

    def test_runs_under_paper_policy_by_default(self):
        result = run_minic(SMASH_VICTIM, None, defense="taintedness",
                           stdin=SMASH_INPUT)
        assert result.sim.policy.name == "pointer-taintedness"
        assert result.detected
        # Alert line identical to a plain paper-policy run: the adapter
        # must not perturb the default detection path.
        plain = run_minic(SMASH_VICTIM, PointerTaintPolicy(),
                          stdin=SMASH_INPUT)
        assert str(result.alert) == str(plain.alert)


class TestComparatorEngineParity:
    def test_shadow_stack_detects_on_pipeline_engine(self):
        result = run_minic(
            SMASH_VICTIM, None, defense="shadow-stack",
            stdin=SMASH_INPUT, use_pipeline=True,
        )
        assert result.detected
        assert result.alert.kind == KIND_RETURN

    def test_pac_detects_on_pipeline_engine(self):
        result = run_minic(
            SMASH_VICTIM, None, defense="pac",
            stdin=SMASH_INPUT, use_pipeline=True,
        )
        assert result.detected
        assert result.alert.kind == KIND_PAC
