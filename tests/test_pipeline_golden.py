"""Pipeline timing accounting against the recorded stepper table.

``tests/data/pipeline_golden.json`` holds the ``PipelineStats`` the
former per-cycle five-stage stepper produced on a fixed corpus: every
attack scenario (attack and benign input, paper policy and no policy,
-O0 and -O1), the nine Table-3 SPEC workloads at both levels, and the
seeded fuzz corpus of ``test_opt_differential`` plus its runaway program.
The closed-form accounting in :mod:`repro.cpu.pipeline` must reproduce
every exit and alert row exactly; fault and limit rows follow the
documented abort definition.  Every row also pins a digest of the run's
observables (verdict, alert, stdout, ``ExecutionStats``) as the
functional engine produced them, so a pipeline-engine run must be
indistinguishable from a functional one.
"""

import hashlib
import json
import pathlib

import pytest

from repro.apps.spec import SPEC_WORKLOADS
from repro.attacks.replay import run_minic
from repro.cpu.pipeline import STALL_CLASSES
from repro.defenses.policy import NullPolicy, PointerTaintPolicy
from repro.evalx.experiments import all_attack_scenarios

from tests.test_opt_differential import _FUZZ_BUDGET, _RUNAWAY, _fuzz_cases

_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "pipeline_golden.json")
    .read_text()
)["rows"]
_SCENARIOS = {s.name: s for s in all_attack_scenarios()}
_WORKLOADS = {w.name: w for w in SPEC_WORKLOADS}
_FUZZ = {p.id: (p.values[0], p.values[1]) for p in _fuzz_cases()}
_FUZZ["runaway"] = (_RUNAWAY, b"ABCDEFGH")
_POLICIES = {"paper": PointerTaintPolicy, "none": NullPolicy}


def observables_digest(result) -> str:
    """Digest of everything a run reports apart from pipeline timing."""
    stats = result.sim.stats
    payload = {
        "outcome": result.outcome,
        "detected": result.detected,
        "exit_status": result.exit_status,
        "stdout": result.stdout,
        "alert": str(result.alert) if result.alert is not None else None,
        "alert_kind": result.alert.kind if result.alert is not None else None,
        "fault": result.fault,
        "limit": result.limit,
        "summary": stats.summary(),
        "by_class": dict(sorted(stats.by_class.items())),
        "by_mnemonic": dict(sorted(stats.by_mnemonic.items())),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


def _run_row(row_id: str):
    """Replay one corpus row on the pipeline engine."""
    family, *rest = row_id.split("/")
    level = int(rest[-1][1:])
    if family == "scenario":
        name, which, policy, _ = rest
        scenario = _SCENARIOS[name]
        runner = scenario.run_attack if which == "attack" else (
            scenario.run_benign
        )
        return runner(
            _POLICIES[policy](), opt_level=level, use_pipeline=True
        )
    if family == "spec":
        workload = _WORKLOADS[rest[0]]
        return run_minic(
            workload.source, PointerTaintPolicy(),
            stdin=workload.make_input(), opt_level=level, use_pipeline=True,
        )
    source, stdin = _FUZZ[rest[0]]
    return run_minic(
        source, PointerTaintPolicy(), stdin=stdin, opt_level=level,
        use_pipeline=True, max_instructions=_FUZZ_BUDGET,
    )


def test_corpus_covers_every_outcome():
    outcomes = {row["outcome"] for row in _GOLDEN}
    assert outcomes == {"exit", "alert", "fault", "limit"}
    kinds = {row["alert_kind"] for row in _GOLDEN if row["alert_kind"]}
    assert {"jump", "load", "store"} <= kinds


def test_fuzz_corpus_matches_the_recorded_sources():
    for row in _GOLDEN:
        if row["id"].startswith("fuzz/"):
            source, _ = _FUZZ[row["id"].split("/")[1]]
            sha = hashlib.sha256(source.encode()).hexdigest()[:16]
            assert sha == row["source_sha"], row["id"]


@pytest.mark.parametrize("row", _GOLDEN, ids=[row["id"] for row in _GOLDEN])
def test_accounting_reproduces_the_table(row):
    result = _run_row(row["id"])
    assert result.outcome == row["outcome"]
    assert observables_digest(result) == row["observables"]
    executed = result.sim.stats.instructions
    assert executed == row["instructions"]
    pstats = result.pstats
    got = (
        pstats.cycles, pstats.retired, pstats.fetch_stalls,
        pstats.drain_cycles,
    )
    if row["outcome"] in ("exit", "alert"):
        assert got == (
            row["cycles"], row["retired"], row["fetch_stalls"],
            row["drain_cycles"],
        )
    else:
        # Aborted: every executed instruction retired, no fill or drain.
        by_class = result.sim.stats.by_class
        stalls = sum(by_class.get(k, 0) for k in STALL_CLASSES)
        assert got == (executed + stalls, executed, stalls, 0)
