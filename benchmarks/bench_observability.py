"""Observability overhead: metrics-off must ride the zero-subscriber path.

The tentpole claim of the observability layer is that *not* asking for
metrics costs nothing: the engines' no-subscriber fast path stays intact
because the :class:`repro.obs.profile.Observer` never subscribes to
``InstructionRetired`` and a bare :class:`repro.api.Session` subscribes to
nothing at all.  This bench measures three configurations on the same hot
loop as ``bench_simulator_throughput``:

* **baseline** -- the raw replay harness, no Session;
* **session-off** -- a Session with metrics/trace disabled (must be
  within noise of baseline; the CI guard enforces <10%);
* **session-on** -- metrics + default trace enabled (the documented
  cost of observing; the live handlers only fire on taint/syscall/fault
  events, so the overhead scales with event density, not instructions).

Emits ``BENCH_observability.json`` at the repo root.  Standalone::

    PYTHONPATH=src python benchmarks/bench_observability.py [--check]

``--check`` exits non-zero if the metrics-off overhead exceeds 10%
(the CI bench guard).
"""

import sys
import time

from bench_util import save_json, save_report

from repro.api import ExecOptions, Session, TraceConfig
from repro.attacks.replay import run_executable
from repro.defenses.policy import PointerTaintPolicy
from repro.evalx.reporting import render_kv
from repro.isa.assembler import assemble

#: Same shape as bench_simulator_throughput's hot loop: ALU-dense,
#: 120,005 dynamic instructions, one syscall.
_HOT_LOOP = (
    ".text\n_start:\n"
    "li $t0, 20000\nli $t1, 0\n"
    "loop: addu $t1, $t1, $t0\nxor $t2, $t1, $t0\nsrl $t3, $t2, 3\n"
    "andi $t4, $t3, 0xFF\naddiu $t0, $t0, -1\nbnez $t0, loop\n"
    "li $v0, 1\nli $a0, 0\nsyscall\n"
)

#: The fast-path budget the CI guard enforces: Session-without-metrics
#: may not be more than this much slower than the raw harness.
MAX_OFF_OVERHEAD_PCT = 10.0


def _run_baseline():
    return run_executable(assemble(_HOT_LOOP), PointerTaintPolicy())


def _run_session(metrics=False, trace=False):
    session = Session(options=ExecOptions(
        policy="paper",
        metrics=metrics,
        trace=TraceConfig() if trace else None,
    ))
    return session.run_executable(assemble(_HOT_LOOP))


def _ips_interleaved(runs, repeats=3):
    """Best-of-N instructions/sec per configuration, round-robin.

    Interleaving (A B C, A B C, ...) instead of (A A A, B B B, ...) keeps
    interpreter warm-up and allocator drift from biasing whichever
    configuration happens to run first.
    """
    for run in runs:  # warm-up pass, untimed
        run()
    best = [0.0] * len(runs)
    for _ in range(repeats):
        for i, run in enumerate(runs):
            start = time.perf_counter()
            result = run()
            elapsed = time.perf_counter() - start
            best[i] = max(best[i], result.sim.stats.instructions / elapsed)
    return best


def collect_observability_record(repeats=8):
    """Measure the three configurations and write the JSON record."""
    baseline, session_off, session_on = _ips_interleaved(
        [
            _run_baseline,
            _run_session,
            lambda: _run_session(metrics=True, trace=True),
        ],
        repeats,
    )
    off_overhead = (baseline / session_off - 1.0) * 100.0
    on_overhead = (baseline / session_on - 1.0) * 100.0
    record = {
        "workload": "hot-loop (120,005 dynamic instructions)",
        "baseline_ips": round(baseline),
        "session_metrics_off_ips": round(session_off),
        "session_metrics_on_ips": round(session_on),
        "metrics_off_overhead_pct": round(off_overhead, 2),
        "metrics_on_overhead_pct": round(on_overhead, 2),
        "max_off_overhead_pct": MAX_OFF_OVERHEAD_PCT,
        "note": (
            "metrics-off must stay on the engines' zero-subscriber fast "
            "path; metrics-on cost scales with event density (taint/"
            "syscall), not instruction count"
        ),
    }
    save_json("observability", record)
    return record


def test_bench_session_metrics_off(benchmark):
    result = benchmark(_run_session)
    assert result.sim.stats.instructions > 100_000


def test_bench_session_metrics_on(benchmark):
    result = benchmark(_run_session, metrics=True, trace=True)
    assert result.sim.stats.instructions > 100_000
    assert result.metrics["counters"]["run.instructions"] > 100_000


def test_bench_observability_record(benchmark):
    result = benchmark(_run_baseline)
    assert result.outcome == "exit"
    record = collect_observability_record()
    # The fast-path claim, measured in-process so runner speed cancels out.
    assert record["metrics_off_overhead_pct"] < MAX_OFF_OVERHEAD_PCT
    save_report(
        "observability",
        render_kv(
            [
                ("baseline", f"{record['baseline_ips']:,} i/s"),
                ("session, metrics off",
                 f"{record['session_metrics_off_ips']:,} i/s "
                 f"({record['metrics_off_overhead_pct']:+.1f}%)"),
                ("session, metrics+trace on",
                 f"{record['session_metrics_on_ips']:,} i/s "
                 f"({record['metrics_on_overhead_pct']:+.1f}%)"),
                ("note", "JSON record at BENCH_observability.json"),
            ],
            title="observability overhead artifacts",
        ),
    )


def main(argv):
    check = "--check" in argv
    record = collect_observability_record(repeats=10 if check else 8)
    print("observability overhead (best of N):")
    for key in ("baseline_ips", "session_metrics_off_ips",
                "session_metrics_on_ips"):
        print(f"  {key:<28} {record[key]:>12,}")
    print(f"  metrics-off overhead         {record['metrics_off_overhead_pct']:>11.2f}%")
    print(f"  metrics-on  overhead         {record['metrics_on_overhead_pct']:>11.2f}%")
    print("written: BENCH_observability.json")
    if check and record["metrics_off_overhead_pct"] >= MAX_OFF_OVERHEAD_PCT:
        print(
            f"BENCH GUARD FAIL: metrics-off overhead "
            f"{record['metrics_off_overhead_pct']:.2f}% >= "
            f"{MAX_OFF_OVERHEAD_PCT}%"
        )
        return 1
    if check:
        print("BENCH GUARD OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
