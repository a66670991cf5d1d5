"""Bit mode vs label mode: provenance must be free.

Label mode adds a provenance sidecar on top of the paper's 1-bit taint
plane; it must never change what the machine *does*.  Every built-in
attack scenario is replayed in both modes and the verdicts, statistics,
and (for campaigns) the reproducibility digest have to agree exactly --
the only observable difference is the provenance chain on the alert.
"""

import pytest

from repro.api import Session, validate_result_json
from repro.apps import (
    ghttpd_scenario,
    nullhttpd_scenario,
    traceroute_scenario,
    wuftpd_scenario,
)
from repro.defenses.policy import PointerTaintPolicy
from repro.evalx.experiments import all_attack_scenarios
from repro.fault.campaign import CampaignConfig, FaultCampaign
from repro.fault.workloads import builtin_workload

_SCENARIOS = {s.name: s for s in all_attack_scenarios()}


def _verdict(result):
    stats = result.sim.stats
    return (
        result.outcome,
        result.exit_status,
        (result.alert.kind, result.alert.pc) if result.alert else None,
        stats.instructions,
        stats.tainted_dereferences,
        stats.alerts,
        result.stdout,
    )


class TestBitLabelDifferential:
    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_attack_verdict_identical_in_both_modes(self, name):
        scenario = _SCENARIOS[name]
        bit = scenario.run_attack(PointerTaintPolicy())
        labeled = scenario.run_attack(
            PointerTaintPolicy(), taint_labels=True
        )
        assert _verdict(bit) == _verdict(labeled)
        assert bit.detected == labeled.detected
        # The one permitted difference: the label-mode alert may carry
        # provenance, the bit-mode alert never does.
        if bit.alert is not None:
            assert bit.alert.provenance == ()
            assert str(bit.alert) == str(labeled.alert)

    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_benign_verdict_identical_in_both_modes(self, name):
        scenario = _SCENARIOS[name]
        if not scenario.benign_input:
            pytest.skip("scenario has no benign input")
        bit = scenario.run_benign(PointerTaintPolicy())
        labeled = scenario.run_benign(
            PointerTaintPolicy(), taint_labels=True
        )
        assert _verdict(bit) == _verdict(labeled)


class TestRealWorldProvenance:
    """Acceptance: the four real-world replays must attribute the attack
    to the correct external input in label mode."""

    @pytest.mark.parametrize(
        "factory, syscall",
        [
            (wuftpd_scenario, "recv"),
            (nullhttpd_scenario, "recv"),
            (ghttpd_scenario, "recv"),
        ],
    )
    def test_server_attacks_blame_the_network(self, factory, syscall):
        scenario = factory()
        result = scenario.run_attack(
            PointerTaintPolicy(), taint_labels=True
        )
        assert result.detected
        provenance = result.alert.provenance
        assert provenance, "label mode must attribute the alert"
        assert all(l.syscall == syscall for l in provenance)
        assert all(l.source_kind == "net" for l in provenance)
        for label in provenance:
            start, end = label.offset_range
            assert start < end

    def test_traceroute_attack_blames_argv(self):
        scenario = traceroute_scenario()
        result = scenario.run_attack(
            PointerTaintPolicy(), taint_labels=True
        )
        assert result.detected
        provenance = result.alert.provenance
        assert provenance, "label mode must attribute the alert"
        assert all(l.source_kind == "argv" for l in provenance)

    def test_provenance_surfaces_in_json_and_validates(self):
        session = Session(policy="paper", metrics=True, taint_labels=True)
        scenario = wuftpd_scenario()
        kwargs = scenario._materialize(scenario.attack_input)
        result = session.run_executable(scenario.build(), **kwargs)
        payload = validate_result_json(result.to_json())
        entries = payload["stats"]["provenance"]
        assert entries
        assert all(e["syscall"] == "recv" for e in entries)
        gauges = payload["metrics"]["gauges"]
        assert gauges["taint.labels.allocated"] > 0
        assert gauges["taint.labelsets.interned"] > 1

    def test_malformed_provenance_rejected_by_schema(self):
        payload = {
            "kind": "run",
            "detected": True,
            "stats": {"provenance": [{"source_kind": ""}]},
            "metrics": {},
        }
        with pytest.raises(ValueError):
            validate_result_json(payload)


class TestCampaignDigestAcrossModes:
    def test_digest_reproducible_per_seed_in_both_modes(self):
        workload = builtin_workload("pointer-chase")

        def digest(taint_labels, seed=5):
            campaign = FaultCampaign(
                workload,
                CampaignConfig(
                    seed=seed, trials=15, taint_labels=taint_labels
                ),
            )
            return campaign.run().digest()

        bit = digest(False)
        labeled = digest(True)
        # Same-seed reruns agree mode-internally...
        assert digest(False) == bit
        assert digest(True) == labeled
        # ...and the modes agree with each other: provenance never leaks
        # into alert strings, fault details, or trial classification.
        assert bit == labeled
