"""Which layer entry points the traced run wraps, and the per-layer table.

Entry points the benchmark calls itself (``FaultCampaign.run_trial``,
``run_executable``, ``ServeClient.request``, ...) get explicit spans in
:mod:`perfbench.workloads`; the ones below are reached from inside the
program, so they are wrapped where their callers look them up.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .stats import median, percentile
from .trace import Span, Tracer, self_times

#: Simulated-statistics counters recorded at each engine-run boundary.
ENGINE_COUNTS = (
    "instructions",
    "loads",
    "stores",
    "syscalls",
    "tainted_results",
    "dereference_checks",
)

MODES = ("taintedness", "shadow-stack", "pac", "pipeline")
COMPARATORS = ("shadow-stack", "pac")
TRIGGER_KINDS = ("insn", "pc", "syscall")

#: Every per-layer metric a traced run reports, with its unit.  A layer a
#: workload does not use reports 0 (the "prediction is no change" rows).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("serve.queue_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.retries", "count"),
    ("serve.spawn_ms", "ms"),
    ("api.run_executable_ms", "ms"),
    ("api.to_json_ms", "ms"),
    ("builder.build_machine_ms", "ms"),
    *((f"cpu.run_ms.{mode}", "ms") for mode in MODES),
    ("cpu.ips", "insn/s"),
    *((f"cpu.superblock.built.{mode}", "count") for mode in MODES[:3]),
    *((f"cpu.superblock.hit_rate.{mode}", "ratio") for mode in MODES[:3]),
    *((f"cpu.distinct_pcs.{mode}", "count") for mode in COMPARATORS),
    ("cc.compile_ms.O0", "ms"),
    ("cc.compile_ms.O1", "ms"),
    ("isa.assemble_ms", "ms"),
    ("libc.build_program_ms", "ms"),
    ("fault.prepare_ms", "ms"),
    ("fault.build_plan_ms", "ms"),
    ("fault.merge_ms", "ms"),
    *((f"fault.trial_ms.{kind}", "ms") for kind in TRIGGER_KINDS),
    ("fault.restore_ms", "ms"),
    ("fault.injected_ratio", "ratio"),
    ("kernel.syscalls", "count"),
    ("mem.loads", "count"),
    ("mem.stores", "count"),
    ("taint.tainted_results", "count"),
    ("taint.dereference_checks", "count"),
    *((f"defenses.checks.{mode}", "count") for mode in COMPARATORS),
    ("trace.op_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
)

#: Span name -> the per-layer time metric its self time feeds (per-mode
#: and per-kind splits are applied in layer_metrics).
_TIME_METRICS = {
    "serve.queue": "serve.queue_ms",
    "serve.exec": "serve.exec_ms",
    "serve.request": "serve.wire_ms",
    "serve.spawn": "serve.spawn_ms",
    "api.run_executable": "api.run_executable_ms",
    "api.to_json": "api.to_json_ms",
    "builder.build_machine": "builder.build_machine_ms",
    "cc.compile.O0": "cc.compile_ms.O0",
    "cc.compile.O1": "cc.compile_ms.O1",
    "isa.assemble": "isa.assemble_ms",
    "fault.build_plan": "fault.build_plan_ms",
    "fault.merge": "fault.merge_ms",
    "fault.restore": "fault.restore_ms",
    "libc.build_program": "libc.build_program_ms",
    "fault.prepare": "fault.prepare_ms",
}

_COUNT_METRICS = {
    "syscalls": "kernel.syscalls",
    "loads": "mem.loads",
    "stores": "mem.stores",
    "tainted_results": "taint.tainted_results",
    "dereference_checks": "taint.dereference_checks",
}

_ENGINE_SPANS = ("cpu.run", "cpu.pipeline")


def _engine_counts(stats) -> Dict[str, int]:
    return {name: getattr(stats, name) for name in ENGINE_COUNTS}


def _record_delta(span: Span, before: Dict[str, int], stats) -> None:
    after = _engine_counts(stats)
    for name in ENGINE_COUNTS:
        span.counts[name] = after[name] - before[name]


def _compile_name(units, opt_level: int = 0, **_) -> str:
    return f"cc.compile.O{opt_level}"


def install(tracer: Tracer) -> None:
    """Wrap the entry points the program calls internally."""
    from repro.attacks import replay
    from repro.cc import compiler
    from repro.cpu.pipeline import Pipeline
    from repro.cpu.simulator import Simulator
    from repro.fault import campaign
    from repro.fault.checkpoint import Checkpoint
    from repro.isa import assembler
    from repro.libc import build

    for module in (compiler, build):
        tracer.wrap(module, "compile_units", _compile_name)
    for module in (assembler, build):
        tracer.wrap(module, "assemble", "isa.assemble")
    for module in (build, campaign):
        tracer.wrap(module, "build_program", "libc.build_program")
    for module in (replay, campaign):
        tracer.wrap(module, "build_machine", "builder.build_machine")
    tracer.wrap(
        Simulator, "run", "cpu.run",
        before=lambda sim, *a, **k: _engine_counts(sim.stats),
        after=lambda span, state, sim, *a, **k: _record_delta(
            span, state, sim.stats
        ),
    )
    tracer.wrap(
        Pipeline, "run", "cpu.pipeline",
        before=lambda pipe, *a, **k: _engine_counts(pipe.sim.stats),
        after=lambda span, state, pipe, *a, **k: _record_delta(
            span, state, pipe.sim.stats
        ),
    )
    tracer.wrap(replay, "run_executable", "api.run_executable")
    tracer.wrap(replay.RunResult, "to_json", "api.to_json")
    tracer.wrap(Checkpoint, "restore", "fault.restore")


class OpView:
    """One traced op as the layer table sees it."""

    def __init__(
        self, mode: str, kind: str, counts: Dict[str, float], timed: bool
    ) -> None:
        self.mode = mode
        self.kind = kind
        self.counts = counts
        self.timed = timed
        #: Span name -> summed self time (ms) within this op.
        self.self_ms: Dict[str, float] = defaultdict(float)
        #: Engine counts summed over this op's engine-run spans.
        self.span_counts: Dict[str, float] = defaultdict(float)
        self.root_ms = 0.0
        self.root_self_ms = 0.0


def layer_metrics(
    spans: Sequence[Span],
    ops: Iterable[Tuple[object, str, str, Dict[str, float], bool]],
    overhead: Optional[float],
) -> Tuple[Dict[str, float], List[dict]]:
    """Per-layer metrics (medians per op) and the layer table.

    ``ops`` are ``(op id, mode, kind, op counts, timed)`` for every traced
    op: the set-ups, the timed ops, and untimed ones (plans, merges,
    in-process references).  A layer's time metric is the median, over
    the ops in which the layer ran, of its self time in that op; set-up
    ops count only for layers that ran nowhere else.
    Returns ``(metrics, table)``: ``metrics`` has every
    :data:`PER_LAYER` name; ``table`` has one row per span name with its
    total self time, its share of all traced op time, and its median and
    tail (where one qualifies) per op.
    """
    selfs = self_times(spans)
    views: Dict[object, OpView] = {
        op_id: OpView(mode, kind, counts, timed)
        for op_id, mode, kind, counts, timed in ops
    }
    engine_insns = 0.0
    engine_secs = 0.0
    for span in spans:
        view = views.get(span.op)
        if view is None:
            continue
        ms = selfs[span.id] * 1000.0
        if span.parent is None:
            view.root_ms += span.duration * 1000.0
            view.root_self_ms += ms
            continue
        view.self_ms[span.name] += ms
        for name, value in span.counts.items():
            view.span_counts[name] += value
        if span.name in _ENGINE_SPANS:
            engine_insns += span.counts.get("instructions", 0)
            engine_secs += span.duration

    metrics = {name: 0.0 for name, _ in PER_LAYER}

    def over(select, value) -> float:
        # Ops past set-up when the layer ran in any; else the set-ups
        # (layers such as fault.prepare work only there).
        chosen = [v for v in views.values() if v.mode != "setup" and select(v)]
        if not chosen:
            chosen = [v for v in views.values() if select(v)]
        return median([value(v) for v in chosen]) if chosen else 0.0

    for span_name, metric in _TIME_METRICS.items():
        metrics[metric] = over(
            lambda v, s=span_name: s in v.self_ms,
            lambda v, s=span_name: v.self_ms[s],
        )
    for mode in MODES:
        engine = "cpu.pipeline" if mode == "pipeline" else "cpu.run"
        metrics[f"cpu.run_ms.{mode}"] = over(
            lambda v, s=engine, m=mode: v.mode == m and s in v.self_ms,
            lambda v, s=engine: v.self_ms[s],
        )
    for mode in MODES[:3]:
        for key in ("built", "hit_rate"):
            metrics[f"cpu.superblock.{key}.{mode}"] = over(
                lambda v, m=mode, k=key: v.mode == m
                and f"superblock.{k}" in v.counts,
                lambda v, k=key: v.counts[f"superblock.{k}"],
            )
    for mode in COMPARATORS:
        metrics[f"cpu.distinct_pcs.{mode}"] = over(
            lambda v, m=mode: v.mode == m and "distinct_pcs" in v.counts,
            lambda v: v.counts["distinct_pcs"],
        )
        metrics[f"defenses.checks.{mode}"] = over(
            lambda v, m=mode: v.mode == m and f"checks.{m}" in v.counts,
            lambda v, m=mode: v.counts[f"checks.{m}"],
        )
    for kind in TRIGGER_KINDS:
        metrics[f"fault.trial_ms.{kind}"] = over(
            lambda v, k=kind: v.kind == k and "fault.run_trial" in v.self_ms,
            lambda v: v.self_ms["fault.run_trial"],
        )
    trials = [v for v in views.values() if "injected" in v.counts]
    if trials:
        metrics["fault.injected_ratio"] = sum(
            v.counts["injected"] for v in trials
        ) / len(trials)
    metrics["serve.retries"] = float(
        sum(v.counts.get("retries", 0) for v in views.values())
    )
    for name, metric in _COUNT_METRICS.items():
        metrics[metric] = over(
            lambda v, n=name: n in v.span_counts,
            lambda v, n=name: v.span_counts[n],
        )
    if engine_secs > 0:
        metrics["cpu.ips"] = engine_insns / engine_secs
    metrics["trace.op_ms"] = median(
        [v.root_ms for v in views.values() if v.timed]
    )
    total_root = sum(v.root_ms for v in views.values())
    if total_root > 0:
        metrics["trace.unattributed_share"] = (
            sum(v.root_self_ms for v in views.values()) / total_root
        )
    if overhead is not None:
        metrics["trace.overhead"] = overhead
    return metrics, _table(views, total_root)


def _table(views: Dict[object, OpView], total_root: float) -> List[dict]:
    per_name: Dict[str, List[float]] = defaultdict(list)
    for view in views.values():
        for name, ms in view.self_ms.items():
            per_name[name].append(ms)
        per_name["(unattributed)"].append(view.root_self_ms)
    rows = []
    for name, values in sorted(
        per_name.items(), key=lambda item: -sum(item[1])
    ):
        total = sum(values)
        rows.append(
            {
                "layer": name,
                "ops": len(values),
                "self_ms_total": round(total, 3),
                "share": round(total / total_root, 4) if total_root else 0.0,
                "self_ms_p50": round(median(values), 4),
                "self_ms_p90": percentile(values, 90),
            }
        )
    return rows
