"""Fault-injection campaigns: triggers, injection, classification, recovery."""

import hashlib
import io

import pytest

from repro.cli import main as cli_main
from repro.core.events import (
    FaultInjected,
    InstructionRetired,
    SyscallEnter,
    TrialCompleted,
)
from repro.core.policy import PointerTaintPolicy
from repro.cpu.simulator import Simulator
from repro.fault import (
    CampaignConfig,
    FaultCampaign,
    FaultSpec,
    OUTCOME_CRASH,
    OUTCOME_DETECTED,
    OUTCOME_MASKED,
    OUTCOME_SDC,
    OUTCOME_TIMEOUT,
    OUTCOMES,
    Trigger,
    Workload,
    apply_state_fault,
    builtin_workload,
    parse_trigger,
)
from repro.kernel.syscalls import Kernel
from repro.libc.build import build_program

# Small victim with a clean golden run: tainted input, a heap pointer, a
# loop -- every outcome class is reachable with the right flip.
MINI_SOURCE = r"""
int main(void) {
    char buf[16];
    int *p;
    int v;
    int i;
    read(0, buf, 8);
    p = malloc(16);
    p[0] = 5;
    v = 0;
    i = 0;
    while (i < 40) {
        v = v + p[0] + buf[i % 8];
        i = i + 1;
    }
    printf("v=%d\n", v);
    return 0;
}
"""

MINI = Workload(name="mini", source=MINI_SOURCE, stdin=b"abcdefgh")


def mini_campaign(schedule=None, **config_kwargs):
    config_kwargs.setdefault("trials", 0 if schedule is not None else 20)
    return FaultCampaign(
        MINI, CampaignConfig(**config_kwargs), schedule=schedule
    )


def midpoint_sweep(kind, mask):
    """One fault per register, injected at the golden run's midpoint."""
    golden = mini_campaign(schedule=[]).run().golden
    mid = golden.instructions // 2
    return [
        (Trigger("insn", mid), FaultSpec(kind, reg, mask))
        for reg in range(1, 32)
    ]


class TestTriggerGrammar:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("insn:1000", Trigger("insn", 1000)),
            ("pc:0x400100", Trigger("pc", 0x400100)),
            ("pc:0x400100:3", Trigger("pc", 0x400100, 3)),
            ("syscall:3", Trigger("syscall", 3)),
            ("syscall:*:2", Trigger("syscall", None, 2)),
            ("syscall:64:5", Trigger("syscall", 64, 5)),
        ],
    )
    def test_parse(self, spec, expected):
        assert parse_trigger(spec) == expected

    @pytest.mark.parametrize(
        "spec",
        ["insn:1000", "pc:0x400100", "pc:0x400100:3", "syscall:*:2",
         "syscall:3"],
    )
    def test_round_trip(self, spec):
        assert parse_trigger(spec).spec() == spec

    @pytest.mark.parametrize(
        "bad", ["", "insn", "insn:1:2", "cycle:5", "pc:0x1:2:3", "pc:zz"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_trigger(bad)

    def test_occurrence_is_one_based(self):
        with pytest.raises(ValueError):
            Trigger("pc", 0x400000, 0)


class TestStateFaults:
    def make_sim(self):
        kernel = Kernel(stdin=MINI.stdin)
        sim = Simulator(
            build_program(MINI_SOURCE),
            PointerTaintPolicy(),
            syscall_handler=kernel,
        )
        kernel.attach(sim)
        return sim

    def test_mem_flip_preserves_taint(self):
        sim = self.make_sim()
        sim.mem_write(0x10000400, 1, 0x41, 1)
        apply_state_fault(FaultSpec("mem", 0x10000400, 0x81), sim)
        assert sim.mem_read(0x10000400, 1) == (0xC0, 1)

    def test_taint_mem_flip_preserves_data(self):
        sim = self.make_sim()
        sim.mem_write(0x10000400, 1, 0x41, 0)
        apply_state_fault(FaultSpec("taint-mem", 0x10000400), sim)
        assert sim.mem_read(0x10000400, 1) == (0x41, 1)
        apply_state_fault(FaultSpec("taint-mem", 0x10000400), sim)
        assert sim.mem_read(0x10000400, 1) == (0x41, 0)

    def test_reg_and_taint_reg_flips(self):
        sim = self.make_sim()
        sim.regs.write(8, 0x1234, 0)
        apply_state_fault(FaultSpec("reg", 8, 0xFF), sim)
        assert sim.regs.value(8) == 0x12CB
        apply_state_fault(FaultSpec("taint-reg", 8, 0x3), sim)
        assert sim.regs.taint(8) == 0x3

    def test_r0_stays_hardwired(self):
        sim = self.make_sim()
        apply_state_fault(FaultSpec("reg", 0, 0xFFFFFFFF), sim)
        apply_state_fault(FaultSpec("taint-reg", 0, 0xF), sim)
        assert sim.regs.read(0) == (0, 0)


class TestCampaignDeterminism:
    def test_same_seed_same_digest(self):
        first = mini_campaign(seed=5, trials=30).run()
        second = mini_campaign(seed=5, trials=30).run()
        assert first.digest() == second.digest()
        assert [r.key() for r in first.records] == [
            r.key() for r in second.records
        ]

    def test_different_seed_different_plan(self):
        first = mini_campaign(seed=5, trials=30).run()
        second = mini_campaign(seed=6, trials=30).run()
        assert first.digest() != second.digest()

    def test_snapshot_reuse_matches_rebuild(self):
        """Rolling back one machine vs rebuilding per trial must classify
        every trial identically -- the rollback leaks nothing."""
        reused = mini_campaign(seed=9, trials=15, reuse_snapshots=True).run()
        rebuilt = mini_campaign(
            seed=9, trials=15, reuse_snapshots=False
        ).run()
        assert [r.key() for r in reused.records] == [
            r.key() for r in rebuilt.records
        ]

    def test_every_trial_is_classified(self):
        result = mini_campaign(seed=3, trials=40).run()
        assert len(result.records) == 40
        assert all(r.outcome in OUTCOMES for r in result.records)
        assert sum(result.counts.values()) == 40


class TestOutcomeTaxonomy:
    def test_sign_bit_register_sweep_reaches_crash_and_timeout(self):
        """Flipping the sign bit of every register at the midpoint finds a
        crasher (frame pointer -> wild return) and a runaway (loop counter
        -> watchdog timeout), alongside masked and SDC trials."""
        result = mini_campaign(
            schedule=midpoint_sweep("reg", 1 << 31)
        ).run()
        outcomes = {r.outcome for r in result.records}
        assert OUTCOME_CRASH in outcomes
        assert OUTCOME_TIMEOUT in outcomes
        assert OUTCOME_MASKED in outcomes
        assert OUTCOME_SDC in outcomes

    def test_taint_sweep_is_detected(self):
        """Tainting a live pointer register trips the detector at the next
        dereference -- the detector observes taint-shadow corruption."""
        result = mini_campaign(
            schedule=midpoint_sweep("taint-reg", 0xF)
        ).run()
        detected = [
            r for r in result.records if r.outcome == OUTCOME_DETECTED
        ]
        assert detected
        assert all("alert" in r.detail for r in detected)

    def test_timeout_trials_report_watchdog_reason(self):
        result = mini_campaign(schedule=midpoint_sweep("reg", 1 << 31)).run()
        timeouts = [
            r for r in result.records if r.outcome == OUTCOME_TIMEOUT
        ]
        assert timeouts
        assert all("watchdog[instructions]" in r.detail for r in timeouts)

    def test_unfired_fault_is_masked(self):
        golden = mini_campaign(schedule=[]).run().golden
        schedule = [
            (
                Trigger("insn", golden.instructions + 999),
                FaultSpec("reg", 8, 1),
            )
        ]
        result = mini_campaign(schedule=schedule).run()
        record = result.records[0]
        assert record.outcome == OUTCOME_MASKED
        assert not record.injected

    def test_syscall_faults_fire_in_kernel(self):
        schedule = [
            (Trigger("syscall", 3), FaultSpec("syscall-errno")),
            (Trigger("syscall", 3), FaultSpec("syscall-short-read")),
            (Trigger("syscall", 3), FaultSpec("syscall-truncate")),
        ]
        result = mini_campaign(schedule=schedule).run()
        assert all(r.injected for r in result.records)
        # Perturbed input changes the printed checksum: silent corruption.
        assert [r.outcome for r in result.records] == [OUTCOME_SDC] * 3

    def test_trial_completed_events(self):
        completed = []
        campaign = mini_campaign(schedule=midpoint_sweep("reg", 1))
        # With snapshot reuse the campaign drives a single machine; hook
        # its bus as soon as it is built.
        original = campaign._make_machine

        def hooked():
            sim, kernel = original()
            sim.events.subscribe(TrialCompleted, completed.append)
            return sim, kernel

        campaign._make_machine = hooked
        result = campaign.run()
        assert len(completed) == len(result.records)
        assert [e.outcome for e in completed] == [
            r.outcome for r in result.records
        ]


class TestRecoveryPolicies:
    def test_rollback_retry_restores_clean_prefault_state(self):
        """The acceptance demo: a taint-bitmap flip is detected, the
        machine rolls back to the pre-fault checkpoint, and the fault-free
        retry reproduces the golden run exactly."""
        result = mini_campaign(
            schedule=midpoint_sweep("taint-reg", 0xF),
            recovery="rollback-retry",
        ).run()
        detected = [
            r for r in result.records if r.outcome == OUTCOME_DETECTED
        ]
        assert detected
        for record in detected:
            assert record.recovered is True
            assert "rollback-retry reproduced golden" in record.detail
        assert result.recovered_count >= len(detected)

    def test_rollback_retry_covers_crash_and_timeout(self):
        result = mini_campaign(
            schedule=midpoint_sweep("reg", 1 << 31),
            recovery="rollback-retry",
        ).run()
        abnormal = [
            r
            for r in result.records
            if r.outcome in (OUTCOME_CRASH, OUTCOME_TIMEOUT)
        ]
        assert abnormal
        assert all(r.recovered for r in abnormal)

    def test_kill_process_marks_detail(self):
        result = mini_campaign(
            schedule=midpoint_sweep("taint-reg", 0xF),
            recovery="kill-process",
        ).run()
        detected = [
            r for r in result.records if r.outcome == OUTCOME_DETECTED
        ]
        assert detected
        assert all("process killed" in r.detail for r in detected)
        assert all(r.recovered is None for r in detected)

    def test_halt_leaves_no_recovery_marks(self):
        result = mini_campaign(
            schedule=midpoint_sweep("taint-reg", 0xF), recovery="halt"
        ).run()
        assert all(r.recovered is None for r in result.records)


class TestEngineAgreement:
    def test_functional_and_pipeline_classify_identically(self):
        """Both engines retire the same instruction stream, so a fixed
        fault schedule must produce the same outcome sequence."""
        schedule = midpoint_sweep("taint-reg", 0xF)[:8] + midpoint_sweep(
            "reg", 1 << 31
        )[:8]
        functional = mini_campaign(
            schedule=schedule, engine="functional"
        ).run()
        pipeline = mini_campaign(schedule=schedule, engine="pipeline").run()
        assert [r.outcome for r in functional.records] == [
            r.outcome for r in pipeline.records
        ]
        assert [r.injected for r in functional.records] == [
            r.injected for r in pipeline.records
        ]


class TestFaultInjectedEvents:
    """Where and when the trigger path reports an injection."""

    @pytest.mark.parametrize("engine", ("functional", "pipeline"))
    def test_syscall_fault_reports_the_syscall_pc(self, engine):
        injected, read_pcs = [], set()

        def instrument(sim):
            sim.events.subscribe(FaultInjected, injected.append)
            sim.events.subscribe(
                SyscallEnter,
                lambda e: read_pcs.add(e.pc) if e.number == 3 else None,
            )

        campaign = FaultCampaign(
            MINI,
            CampaignConfig(trials=0, engine=engine),
            schedule=[(Trigger("syscall", 3), FaultSpec("syscall-errno"))],
            instrument=instrument,
        )
        assert campaign.run().records[0].injected
        assert len(read_pcs) == 1
        assert [e.pc for e in injected] == list(read_pcs)

    @pytest.mark.parametrize("engine", ("functional", "pipeline"))
    def test_state_fault_fires_once_right_after_its_instruction(self, engine):
        log = []

        def instrument(sim):
            sim.events.subscribe(InstructionRetired, log.append)
            sim.events.subscribe(FaultInjected, log.append)

        campaign = FaultCampaign(
            MINI,
            CampaignConfig(trials=0, engine=engine),
            schedule=[(Trigger("insn", 100), FaultSpec("taint-reg", 29, 1))],
            instrument=instrument,
        )
        campaign.run()
        fired = [i for i, e in enumerate(log) if isinstance(e, FaultInjected)]
        assert len(fired) == 1
        event, before = log[fired[0]], log[fired[0] - 1]
        assert event.kind == "taint-reg"
        assert before.index == 100
        assert event.pc == before.pc


#: sha256 of the exp3 / seed 11 / 25-trial campaign's JSONL trace.  Trial
#: digests exclude events; these pin the trigger path's event stream,
#: identical on both engines.
TRACE_PINS = {
    "all": "a270948815a779230bcbf8d1f82e950d3bdd52065c7b9d8e37823e9dba7f5f54",
    "default": "0ab5676e1d89cb1e0e0995fd41c8a64ea05ddd29f41a2871e71c9df9b8796e07",
}


class TestCampaignTracePin:
    @pytest.mark.parametrize("engine", ("functional", "pipeline"))
    @pytest.mark.parametrize("events", sorted(TRACE_PINS))
    def test_trace_bytes_pinned(self, tmp_path, engine, events):
        trace = tmp_path / "trace.jsonl"
        argv = [
            "campaign", "--builtin", "exp3", "--seed", "11",
            "--trials", "25", "--engine", engine,
            "--trace-out", str(trace),
        ]
        if events == "all":
            argv += ["--trace-events", "all"]
        assert cli_main(argv, out=io.StringIO()) == 0
        digest = hashlib.sha256(trace.read_bytes()).hexdigest()
        assert digest == TRACE_PINS[events]


class TestCampaignConfigValidation:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            CampaignConfig(engine="quantum")

    def test_rejects_unknown_recovery(self):
        with pytest.raises(ValueError, match="recovery"):
            CampaignConfig(recovery="pray")

    def test_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="kinds"):
            CampaignConfig(kinds=("mem", "cosmic-ray"))

    def test_golden_run_must_be_clean(self):
        campaign = FaultCampaign(
            Workload(
                name="looper",
                source="int main(void) { while (1) { } return 0; }",
            ),
            # Tight wall-clock net: the looper must not stall the suite.
            CampaignConfig(trials=1, max_seconds=0.05),
        )
        with pytest.raises(ValueError, match="golden run"):
            campaign.run()

    def test_syscall_kinds_need_input_syscalls(self):
        campaign = FaultCampaign(
            Workload(name="pure", source="int main(void) { return 7; }"),
            CampaignConfig(trials=3, kinds=("syscall-errno",)),
        )
        with pytest.raises(ValueError, match="input"):
            campaign.run()


class TestCampaignCli:
    def test_campaign_command_renders_report(self, tmp_path):
        json_path = tmp_path / "campaign.json"
        out = io.StringIO()
        code = cli_main(
            [
                "campaign",
                "--builtin",
                "exp1",
                "--seed",
                "3",
                "--trials",
                "10",
                "--json",
                str(json_path),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "Fault-injection campaign" in text
        assert "Outcome distribution" in text
        import json

        payload = json.loads(json_path.read_text())
        # Unified result schema: {"kind","detected","stats","metrics"}
        # with the reproducibility digest kept at the top level.
        assert payload["kind"] == "campaign"
        assert isinstance(payload["detected"], bool)
        assert payload["stats"]["trials"] == 10
        assert len(payload["stats"]["records"]) == 10
        assert payload["digest"]
        assert payload["digest"] == payload["stats"]["digest"]

    def test_smoke_gate_fails_without_detection(self):
        # exp1 with a syscall-only kind set cannot alert: errno injection
        # never taints a pointer.
        out = io.StringIO()
        code = cli_main(
            [
                "campaign",
                "--builtin",
                "exp1",
                "--seed",
                "3",
                "--trials",
                "5",
                "--kind",
                "syscall-errno",
                "--smoke",
            ],
            out=out,
        )
        assert code == 1
        assert "SMOKE FAIL" in out.getvalue()

    def test_requires_exactly_one_target(self):
        with pytest.raises(SystemExit):
            cli_main(["campaign"], out=io.StringIO())
