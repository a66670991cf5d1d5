"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-run --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
Their times are reference seconds (:mod:`perfbench.hostspeed`): each
timed stretch is scaled by the host's speed measured right around it,
so the host's drift between runs cancels; the result file keeps the
host-second figures too.
``--trace 1`` runs every op twice -- untraced and traced, alternating
which goes first -- reports the per-layer metrics from the traced twins
and the difference between the twins as the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full result,
with the host stamp, correctness checks, simulated-statistics
fingerprint and (traced) layer table, is written to
``perfbench/out/<workload>-seed<seed>[-layers].json``; a traced run also
writes its spans, one JSON object a line, to ``...-spans.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import itertools
import json
import os
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import host, hostspeed, layers  # noqa: E402
from perfbench.stats import median, percentile  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, OpResult, error_rate  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Host seconds between host-speed samples in the timed phase; a sample
#: is taken after the first op that ends a stretch this long.
SAMPLE_EVERY_S = 0.1

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("sim_ips", "insn/s"),
    ("peak_rss_mb", "MB"),
)


class Runner:
    """Executes ops and times them.

    Bookkeeping per op is two floats and a counter in an untraced run, so
    the process's peak memory does not grow with throughput; a traced
    run also keeps each op's counts for the layer table.

    The timed phase, from :meth:`begin` to :meth:`end`, is cut into
    stretches by host-speed samples (:meth:`calibrate`); every latency
    and the wall time are kept both in host seconds and in reference
    seconds.  Single-threaded workloads are sampled after the op that
    ends a stretch of :data:`SAMPLE_EVERY_S`; a workload that runs ops
    on several threads sets ``sample_every`` to None and calls
    :meth:`calibrate` itself while no op is in flight.
    """

    def __init__(self, tracer, seconds: float, paired: bool) -> None:
        self.tracer = tracer
        self.seconds = seconds
        self.paired = paired
        self.clock = time.perf_counter
        self.attempted = 0
        self.instructions = 0
        #: op kind -> latencies of its timed ops, in reference seconds
        #: and in host seconds.
        self.latencies: Dict[str, array] = {}
        self.host_latencies: Dict[str, array] = {}
        self.sample_every: Optional[float] = SAMPLE_EVERY_S
        #: Sample every CPU in turn (for work done in other processes).
        self.every_cpu = False
        #: Timed-phase wall time in reference and in host seconds.
        self.wall_s = 0.0
        self.host_wall_s = 0.0
        self._stretch_start: Optional[float] = None
        self._rate = 0.0
        #: ``(kind, host latency)`` of ops not yet scaled by a sample.
        self._pending: List[tuple] = []
        #: ``(host seconds, ops, speed)`` of every closed stretch.
        self.stretches: List[tuple] = []
        #: End every op with a full garbage collection, inside its
        #: latency, so each op pays for its own garbage and the next one
        #: starts from the same heap (set by workloads with long ops).
        self.collect_per_op = False
        #: op id -> why it failed.
        self.errors: Dict[str, str] = {}
        #: ``(op id, mode, kind, counts, timed)`` for the layer table.
        self.traced_ops: List[tuple] = []
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self._lock = threading.Lock()
        self._order = itertools.count()

    def _once(self, op, traced: bool):
        self.tracer.enabled = traced
        try:
            with self.tracer.span("op", op=op.id):
                start = self.clock()
                try:
                    result = op.fn()
                except Exception as exc:  # the op fails; the run goes on
                    result = OpResult(error=f"{type(exc).__name__}: {exc}")
                if self.collect_per_op:
                    with self.tracer.span("gc.collect"):
                        gc.collect()
                elapsed = self.clock() - start
        finally:
            self.tracer.enabled = False
        return elapsed, result

    def execute(self, op) -> None:
        untraced = 0.0
        if not self.paired:
            latency, result = self._once(op, False)
        elif next(self._order) % 2:
            latency, result = self._once(op, True)
            untraced, twin = self._once(op, False)
            result.error = result.error or twin.error
        else:
            untraced, twin = self._once(op, False)
            latency, result = self._once(op, True)
            result.error = result.error or twin.error
        with self._lock:
            self.attempted += 1
            self.instructions += result.instructions
            self.host_latencies.setdefault(op.kind, array("d")).append(
                latency
            )
            self._pending.append((op.kind, latency))
            if result.error:
                self.errors[op.id] = result.error
            if self.paired:
                self.traced_ops.append(
                    (op.id, op.mode, op.kind, result.counts, True)
                )
                self.traced_s += latency
                self.untraced_s += untraced
        if (self.sample_every is not None
                and self._stretch_start is not None
                and self.clock() - self._stretch_start >= self.sample_every):
            self.calibrate()

    def sample(self, stretch: float) -> float:
        """A host-speed sample closing a stretch of ``stretch`` s."""
        return hostspeed.sample_after(stretch, self.clock, self.every_cpu)

    def begin(self) -> None:
        """Start the timed phase with a host-speed sample."""
        self._rate = self.sample(0.0)
        self._stretch_start = self.clock()

    def calibrate(self) -> None:
        """Close the current stretch with a host-speed sample and scale
        its wall time and its ops' latencies to reference seconds."""
        stretch = self.clock() - self._stretch_start
        rate = self.sample(stretch)
        speed = hostspeed.speed(self._rate, rate)
        with self._lock:
            for kind, latency in self._pending:
                self.latencies.setdefault(kind, array("d")).append(
                    latency * speed
                )
            self.stretches.append((stretch, len(self._pending), speed))
            self._pending = []
            self.wall_s += stretch * speed
            self.host_wall_s += stretch
        self._rate = rate
        self._stretch_start = self.clock()

    def end(self) -> None:
        """End the timed phase (closing its last stretch)."""
        self.calibrate()
        self._stretch_start = None

    def rounds(self, round_fn: Callable[[int], None]) -> None:
        """Run whole rounds as the timed phase; start another only while
        it is projected to end within the measured seconds."""
        self.begin()
        start = self.clock()
        index = 0
        while True:
            round_start = self.clock()
            round_fn(index)
            index += 1
            now = self.clock()
            if now - start + (now - round_start) > self.seconds:
                break
        self.end()

    def fail(self, op_id: str, error: str) -> None:
        """Mark a timed op failed by a check made after it ran."""
        with self._lock:
            self.errors.setdefault(op_id, error)

    @contextlib.contextmanager
    def untimed(self, op_id: str, mode: str = "", kind: str = ""):
        """An untimed op (a set-up, a plan, a merge, an in-process
        reference run): traced in a traced run, so its spans join the
        layer table, but never part of the end-to-end metrics."""
        self.tracer.enabled = self.paired
        try:
            with self.tracer.span("op", op=op_id):
                yield
        finally:
            self.tracer.enabled = False
        if self.paired:
            self.traced_ops.append((op_id, mode, kind, {}, False))

    def all_latencies_ms(self, host: bool = False) -> List[float]:
        table = self.host_latencies if host else self.latencies
        return [x * 1000.0 for values in table.values() for x in values]

    def overhead(self) -> Optional[float]:
        """Traced over untraced time of the twin ops, minus one."""
        if self.untraced_s <= 0:
            return None
        return self.traced_s / self.untraced_s - 1.0


def _end_to_end(runner, setups, host: bool = False):
    """The timing metrics, in reference seconds (or host seconds)."""
    latencies = runner.all_latencies_ms(host)
    wall = runner.host_wall_s if host else runner.wall_s
    metrics = {
        "setup_s": median(setups),
        "throughput_ops_s": runner.attempted / wall,
        "latency_p50_ms": median(latencies),
        "sim_ips": runner.instructions / wall,
    }
    return metrics, percentile(latencies, 90)


def _by_kind(runner) -> Dict[str, dict]:
    return {
        kind: {
            "ops": len(values),
            "p50_ms": median(values) * 1000.0,
            "host_p50_ms": median(runner.host_latencies[kind]) * 1000.0,
        }
        for kind, values in sorted(runner.latencies.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    stamp = host.stamp(ROOT)
    tracer = Tracer()
    if traced:
        layers.install(tracer)
    workload = WORKLOADS[args.workload](ROOT, args.seed, tracer)
    runner = Runner(tracer, args.seconds, paired=traced)
    runner.every_cpu = workload.every_cpu
    runner.collect_per_op = workload.collect_per_op
    setups: List[float] = []
    host_setups: List[float] = []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.discard()
            before = runner.sample(0.0)
            with runner.untimed(f"setup-{repeat}", "setup", "setup"):
                start = time.perf_counter()
                workload.setup()
                host_setups.append(time.perf_counter() - start)
            after = runner.sample(host_setups[-1])
            setups.append(host_setups[-1] * hostspeed.speed(before, after))
        # The timed phase starts from a clean heap; what set-up built is
        # left out of every later collection.
        gc.collect()
        gc.freeze()
        workload.measure(runner)
        checks = workload.finish(runner)
        fingerprint = workload.fingerprint()
    finally:
        peak_rss = workload.close()
        tracer.close()

    failed = len(runner.errors)
    attempted = runner.attempted
    correct = failed == 0 and attempted > 0 and all(c["ok"] for c in checks)
    e2e, p90 = _end_to_end(runner, setups)
    e2e["peak_rss_mb"] = peak_rss
    host_e2e, host_p90 = _end_to_end(runner, host_setups, host=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **stamp,
        "loadavg_1m_end": round(os.getloadavg()[0], 2),
        "ops": attempted,
        "wall_s": runner.wall_s,
        "host_wall_s": runner.host_wall_s,
        "setup_samples_s": setups,
        "host_setup_samples_s": host_setups,
        "stretches": [
            {"host_s": round(d, 4), "ops": n, "speed": round(v, 4)}
            for d, n, v in runner.stretches
        ],
        "error_rate": error_rate(attempted, failed),
        "errors": list(runner.errors.values())[:10],
        "latency_ms_by_kind": _by_kind(runner),
        "checks": checks,
        "fingerprint": fingerprint,
        "simulated_timing_note": (
            "simulated cycles/CPI come from an unvalidated timing model "
            "with no hardware reference; reference results are the "
            "paper's verdicts"
        ),
    }
    lines = [f"{args.workload} seed={args.seed} ops={attempted} "
             f"failed={failed} error_rate={result['error_rate']:.4f} "
             f"fingerprint={fingerprint[:16]}"]
    if traced:
        metrics, table = layers.layer_metrics(
            tracer.spans, runner.traced_ops, runner.overhead()
        )
        units = dict(layers.PER_LAYER)
        result["layers"] = table
        result["per_layer"] = metrics
        out_name = f"{args.workload}-seed{args.seed}-layers.json"
        for row in table:
            lines.append(
                f"  {row['layer']:<24} ops={row['ops']:<5} "
                f"self={row['self_ms_total']:>10.1f} ms "
                f"share={row['share']:.3f} p50={row['self_ms_p50']:.3f} ms"
            )
    else:
        metrics = e2e
        units = dict(END_TO_END)
        result["end_to_end"] = metrics
        result["latency_p90_ms"] = p90
        result["host_seconds"] = {**host_e2e, "latency_p90_ms": host_p90}
        out_name = f"{args.workload}-seed{args.seed}.json"
        lines.append(
            "  latency_p90_ms = "
            + (f"{p90:.3f} ms" if p90 is not None
               else f"n/a ({attempted} ops; needs >= 100)")
        )
    for name, value in metrics.items():
        lines.append(f"  {name} = {value:.6g} {units[name]}")
    for check in checks:
        lines.append(f"  check {'ok  ' if check['ok'] else 'FAIL'} "
                     f"{check['check']}: {check['detail']}")
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / out_name, "w") as handle:
        json.dump(result, handle, indent=2, default=str)
    if traced:
        spans_name = f"{args.workload}-seed{args.seed}-spans.jsonl"
        with open(out_dir / spans_name, "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
