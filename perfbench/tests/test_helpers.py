"""Tests for the benchmark's own helpers (not for the program under test).

Run with::

    python3 -m pytest perfbench/tests -q
"""

import itertools
import os

import pytest

from perfbench import hostspeed, inputs, layers
from perfbench.run import Runner
from perfbench.stats import TAIL_MIN_BEYOND, percentile
from perfbench.trace import Span, Tracer, self_times
from perfbench.workloads import Op, OpResult, error_rate, reply_error


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------


class TestPercentileRule:
    def test_tail_needs_ten_samples_beyond_it(self):
        assert TAIL_MIN_BEYOND == 10
        assert percentile(list(range(99)), 90) is None
        assert percentile(list(range(100)), 90) == 89

    def test_nearest_rank_leaves_exactly_ten_beyond(self):
        values = list(range(100))
        p90 = percentile(values, 90)
        assert sum(1 for v in values if v > p90) == 10

    def test_p99_needs_a_thousand(self):
        assert percentile(list(range(999)), 99) is None
        assert percentile(list(range(1000)), 99) == 989

    def test_rule_holds_for_every_percentile(self):
        assert percentile([5.0, 1.0, 3.0], 50) is None  # only 1 beyond
        assert percentile(list(range(21)), 50) == 10

    def test_empty(self):
        assert percentile([], 50) is None


# ---------------------------------------------------------------------------
# self time with nested spans
# ---------------------------------------------------------------------------


def _span(span_id, start, end, parent=None):
    return Span(span_id, f"s{span_id}", start, end, parent, op="op-0")


class TestSelfTime:
    def test_nested_children_are_subtracted_once(self):
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 4.0, parent=1),
            _span(3, 2.0, 3.0, parent=2),
            _span(4, 5.0, 9.0, parent=1),
        ]
        selfs = self_times(spans)
        assert selfs == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
        # Self times of a tree add up to the root's duration.
        assert sum(selfs.values()) == pytest.approx(10.0)

    def test_overlapping_children_count_their_union(self):
        # Two threads' children may overlap inside one parent.
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 6.0, parent=1),
            _span(3, 4.0, 8.0, parent=1),
        ]
        assert self_times(spans)[1] == pytest.approx(3.0)

    def test_child_is_clipped_to_its_parent(self):
        spans = [_span(1, 0.0, 2.0), _span(2, 1.0, 5.0, parent=1)]
        assert self_times(spans)[1] == pytest.approx(1.0)

    def test_tracer_records_the_tree_of_wrapped_calls(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        class Layer:
            def inner(self):
                clock.now += 2.0

            def outer(self):
                clock.now += 1.0
                self.inner()
                clock.now += 1.0

        tracer.wrap(Layer, "inner", "layer.inner")
        tracer.wrap(Layer, "outer", "layer.outer")
        tracer.enabled = True
        with tracer.span("op", op="op-7"):
            Layer().outer()
        tracer.close()
        by_name = {span.name: span for span in tracer.spans}
        selfs = self_times(tracer.spans)
        assert selfs[by_name["layer.outer"].id] == pytest.approx(2.0)
        assert selfs[by_name["layer.inner"].id] == pytest.approx(2.0)
        assert selfs[by_name["op"].id] == pytest.approx(0.0)
        assert {span.op for span in tracer.spans} == {"op-7"}
        # close() puts the originals back.
        assert "inner" in vars(Layer) and Layer.inner.__name__ == "inner"
        assert not hasattr(Layer.inner, "__wrapped__")

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()

        class Layer:
            def call(self):
                return 42

        tracer.wrap(Layer, "call", "layer.call")
        assert Layer().call() == 42
        with tracer.span("op", op=1):
            Layer().call()
        assert tracer.spans == []
        tracer.close()

    def test_layer_metrics_per_op_medians_and_setup_fallback(self):
        spans = [
            # set-up op: fault.prepare works only here
            Span(1, "op", 0.0, 5.0, None, "setup-0"),
            Span(2, "fault.prepare", 1.0, 4.0, 1, "setup-0"),
            # two timed trials: restore nested in run_trial
            Span(3, "op", 10.0, 14.0, None, "op-0"),
            Span(4, "fault.run_trial", 10.0, 13.0, 3, "op-0"),
            Span(5, "fault.restore", 10.0, 11.0, 4, "op-0"),
            Span(6, "op", 20.0, 22.0, None, "op-1"),
            Span(7, "fault.run_trial", 20.0, 22.0, 6, "op-1"),
            Span(8, "fault.restore", 20.0, 20.5, 7, "op-1"),
        ]
        ops = [
            ("setup-0", "setup", "setup", {}, False),
            ("op-0", "taintedness", "insn", {"injected": 1}, True),
            ("op-1", "taintedness", "insn", {"injected": 0}, True),
        ]
        metrics, table = layers.layer_metrics(spans, ops, overhead=0.02)
        assert set(metrics) == {name for name, _ in layers.PER_LAYER}
        assert metrics["fault.prepare_ms"] == pytest.approx(3000.0)
        assert metrics["fault.restore_ms"] == pytest.approx(750.0)
        assert metrics["fault.trial_ms.insn"] == pytest.approx(1750.0)
        assert metrics["fault.injected_ratio"] == pytest.approx(0.5)
        assert metrics["trace.op_ms"] == pytest.approx(3000.0)
        assert metrics["trace.overhead"] == pytest.approx(0.02)
        # 2 s + 1 s of op time outside any layer span, of 11 s traced.
        assert metrics["trace.unattributed_share"] == pytest.approx(3 / 11)
        shares = sum(row["share"] for row in table)
        assert shares == pytest.approx(1.0, abs=1e-3)

    def test_remote_phases_leave_the_wire_as_self_time(self):
        tracer = Tracer(clock=FakeClock())
        tracer.enabled = True
        with tracer.span("serve.request") as span:
            tracer.clock.now = 10.0
        tracer.add("serve.queue", 3.0, span)
        tracer.add("serve.exec", 5.0, span, offset=3.0)
        selfs = self_times(tracer.spans)
        assert selfs[span.id] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


class TestSeededInputs:
    def test_same_seed_same_bytes(self):
        assert inputs.serve_jobs(5) == inputs.serve_jobs(5)
        assert inputs.serve_sequence(5, 500, 24) == inputs.serve_sequence(
            5, 500, 24
        )
        names = ["A", "B", "C"]
        assert inputs.spec_order(5, names) == inputs.spec_order(5, names)
        for pass_index in range(3):
            assert inputs.matrix_pass(
                5, pass_index, names, ("m1", "m2")
            ) == inputs.matrix_pass(5, pass_index, names, ("m1", "m2"))
        assert [inputs.campaign_round_seed(5, i) for i in range(4)] == [
            inputs.campaign_round_seed(5, i) for i in range(4)
        ]

    def test_other_seed_other_inputs(self):
        assert inputs.serve_jobs(5) != inputs.serve_jobs(6)
        assert inputs.serve_sequence(5, 50, 24) != inputs.serve_sequence(
            6, 50, 24
        )

    def test_two_matrix_passes_cover_every_level_once(self):
        scenarios = ["a", "b", "c", "d"]
        modes = ("m1", "m2", "m3")
        cells = inputs.matrix_pass(9, 0, scenarios, modes) + (
            inputs.matrix_pass(9, 1, scenarios, modes)
        )
        assert sorted(cells) == sorted(
            itertools.product(scenarios, modes, (0, 1))
        )

    def test_same_seed_same_campaign_plan(self):
        from repro.fault.campaign import CampaignConfig, FaultCampaign
        from repro.fault.workloads import builtin_workload

        def plan(seed):
            campaign = FaultCampaign(
                builtin_workload("exp3"),
                CampaignConfig(
                    seed=inputs.campaign_round_seed(seed, 0), trials=30
                ),
            )
            return [
                (trigger.spec(), spec.describe())
                for trigger, spec in campaign.build_plan()
            ]

        assert plan(3) == plan(3)
        assert plan(3) != plan(4)


# ---------------------------------------------------------------------------
# error_rate accounting
# ---------------------------------------------------------------------------


_OK_REPLY = {
    "kind": "run",
    "detected": False,
    "stats": {"outcome": "exit", "exit_status": 7, "alert": None,
              "fault": None, "instructions": 1234, "loads": 10},
    "job": {"id": "j1", "queue_ms": 1.0, "exec_ms": 2.0, "retries": 0},
}


class TestErrorRate:
    def test_matching_reply_passes(self):
        reference = {"kind": "run", "stats": dict(_OK_REPLY["stats"])}
        assert reply_error(_OK_REPLY, reference) is None

    def test_error_reply_fails(self):
        reply = {"kind": "error", "reason": "worker_crash",
                 "error": {"type": "BrokenProcessPool", "message": "x"}}
        assert "worker_crash" in reply_error(reply, _OK_REPLY)

    def test_refused_job_fails(self):
        reply = {"kind": "error", "reason": "queue_full",
                 "error": {"type": "QueueFull", "message": "full"}}
        assert "queue_full" in reply_error(reply, _OK_REPLY)

    def test_differing_output_fails(self):
        reference = {"kind": "run", "stats": dict(_OK_REPLY["stats"])}
        reference["stats"]["exit_status"] = 8
        assert "exit_status" in reply_error(_OK_REPLY, reference)

    def test_failed_ops_count_against_error_rate(self):
        runner = Runner(Tracer(), seconds=1.0, paired=False)

        def raises():
            raise ConnectionError("gateway gone")

        runner.execute(Op("op-0", "m", "k", lambda: OpResult(5)))
        runner.execute(Op("op-1", "m", "k", lambda: OpResult(error="bad")))
        runner.execute(Op("op-2", "m", "k", raises))
        runner.execute(Op("op-3", "m", "k", lambda: OpResult(5)))
        runner.fail("op-3", "reply differs from in-process run")
        assert runner.attempted == 4
        assert len(runner.errors) == 3
        assert error_rate(runner.attempted, len(runner.errors)) == (
            pytest.approx(0.75)
        )
        assert "ConnectionError" in runner.errors["op-2"]

    def test_traced_twin_failure_fails_the_op(self):
        results = iter([OpResult(5), OpResult(5, error="twin differs")])
        runner = Runner(Tracer(), seconds=1.0, paired=True)
        runner.execute(Op("op-0", "m", "k", lambda: next(results)))
        assert runner.errors == {"op-0": "twin differs"}
        assert runner.untraced_s > 0 and runner.overhead() is not None


# ---------------------------------------------------------------------------
# host-speed scaling
# ---------------------------------------------------------------------------


class TestReferenceSeconds:
    def _runner(self, monkeypatch, rates):
        """A runner on a fake clock whose host-speed samples return
        ``rates`` (as multiples of the reference rate) in turn."""
        clock = FakeClock()
        rates = iter(rates)

        def sample(seconds=hostspeed.MIN_SAMPLE_S, clock=None):
            return next(rates) * hostspeed.REFERENCE_RATE

        monkeypatch.setattr(hostspeed, "sample", sample)
        runner = Runner(Tracer(), seconds=1.0, paired=False)
        runner.clock = clock
        runner.sample_every = None
        return runner, clock

    def _op(self, clock, seconds, kind="k"):
        def run():
            clock.now += seconds
            return OpResult(instructions=100)

        return Op("op", "m", kind, run)

    def test_speed_is_the_mean_of_the_bracketing_samples(self):
        assert hostspeed.speed(hostspeed.REFERENCE_RATE,
                               hostspeed.REFERENCE_RATE) == 1.0
        assert hostspeed.speed(0.5 * hostspeed.REFERENCE_RATE,
                               1.5 * hostspeed.REFERENCE_RATE) == 1.0

    def test_stretches_scale_latency_and_wall_time(self, monkeypatch):
        # A host running the loop at 0.5x the reference rate takes twice
        # as long; its times scaled back are the reference host's.
        runner, clock = self._runner(monkeypatch, [0.5, 0.5, 0.8])
        runner.begin()
        runner.execute(self._op(clock, 2.0))
        runner.execute(self._op(clock, 4.0))
        runner.calibrate()
        runner.execute(self._op(clock, 1.0, kind="j"))
        runner.end()
        assert list(runner.host_latencies["k"]) == [2.0, 4.0]
        assert list(runner.latencies["k"]) == pytest.approx([1.0, 2.0])
        # the second stretch is bracketed by samples of 0.5 and 0.8
        assert list(runner.latencies["j"]) == pytest.approx([0.65])
        assert runner.host_wall_s == pytest.approx(7.0)
        assert runner.wall_s == pytest.approx(3.0 + 0.65)
        assert [(n, s) for _, n, s in runner.stretches] == [
            (2, 0.5), (1, pytest.approx(0.65))
        ]

    def test_single_threaded_runs_sample_after_a_long_stretch(
        self, monkeypatch
    ):
        runner, clock = self._runner(monkeypatch, [1.0] * 4)
        runner.sample_every = 0.1
        runner.begin()
        runner.execute(self._op(clock, 0.05))
        assert runner.stretches == []
        runner.execute(self._op(clock, 0.05))
        assert len(runner.stretches) == 1 and runner.stretches[0][1] == 2

    def test_sample_measures_the_loop(self):
        assert hostspeed.sample(0.002) > 0

    def test_every_cpu_sample_restores_the_affinity(self):
        cpus = os.sched_getaffinity(0)
        assert hostspeed.sample_after(0.0, every_cpu=True) > 0
        assert os.sched_getaffinity(0) == cpus

    def test_per_op_collection_is_inside_the_latency(self, monkeypatch):
        clock = FakeClock()
        runner = Runner(Tracer(), seconds=1.0, paired=False)
        runner.clock = clock
        runner.collect_per_op = True

        def collect():
            clock.now += 0.5
            return 0

        monkeypatch.setattr("perfbench.run.gc.collect", collect)
        runner.execute(self._op(clock, 1.0))
        assert list(runner.host_latencies["k"]) == [1.5]
