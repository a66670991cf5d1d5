"""Command-line interface: run programs on the taint-tracking machine.

Examples::

    python -m repro run victim.c --stdin-text "aaaaaaaaaaaaaaaaaaaaaaaa" --explain
    python -m repro run server.c --policy control-data --arg -g --arg 123
    python -m repro run victim.c --stdin-text attack --metrics --trace-out t.jsonl
    python -m repro asm program.s --stdin-file input.bin
    python -m repro disasm victim.c
    python -m repro report table2
    python -m repro report all
    python -m repro run victim.c --stdin-text attack --taint-labels --explain
    python -m repro forensics victim.c --stdin-text attack --provenance
    python -m repro campaign --builtin pointer-chase --seed 7 --trials 200
    python -m repro campaign victim.c --stdin-text ok --recovery rollback-retry
    python -m repro trace t.jsonl --summary
    python -m repro trace t.jsonl --event TaintedDereference --limit 20

All ``--json`` outputs follow the unified result schema
(:func:`repro.api.validate_result_json`): ``{"kind", "detected",
"stats", "metrics"}`` plus kind-specific extras.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from time import perf_counter
from typing import Callable, Dict, Optional, Sequence

from .api import ExecOptions, POLICIES, Session, validate_result_json
from .defenses import DEFENSES
from .core.events import InstructionRetired
from .evalx import experiments
from .evalx.forensics import explain
from .isa.assembler import assemble
from .libc.build import build_program
from .obs.trace import read_trace, render_trace, summarize_trace

__all__ = ["POLICIES", "REPORTS", "main"]

#: report subcommand choices -> renderers (each accepts ``workers=``).
REPORTS: Dict[str, Callable[..., str]] = {
    "fig1": experiments.report_fig1,
    "fig2": experiments.report_fig2,
    "table2": experiments.report_table2,
    "table3": experiments.report_table3,
    "table4": experiments.report_table4,
    "sec54": experiments.report_sec54,
    "coverage": experiments.report_coverage_matrix,
    "matrix": experiments.report_defense_matrix,
}


def _add_observability_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metrics", action="store_true",
                   help="collect and print the metrics registry")
    p.add_argument("--no-superblocks", action="store_true",
                   help="disable the fused superblock dispatch tier "
                        "(results are byte-identical; the toggle exists "
                        "for benchmarking and digest checks)")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="stream a structured JSONL trace to PATH "
                        "(render it later with `repro trace PATH`)")
    p.add_argument("--trace-events", default=None, metavar="CSV",
                   help="comma-separated event types to trace, or 'all' "
                        "(default: every event except InstructionRetired)")
    p.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                   help="write the unified machine-readable result to PATH")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Pointer-taintedness detection (DSN 2005) -- compile and run "
            "programs on the simulated taint-tracking processor."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="source file")
        p.add_argument(
            "--policy",
            choices=sorted(POLICIES),
            default="paper",
            help="detection policy (default: the paper's)",
        )
        p.add_argument(
            "--defense",
            choices=sorted(DEFENSES.names()),
            default=None,
            help="attach a pluggable defense (comparators run under an "
                 "unprotected policy unless --policy is given explicitly)",
        )
        p.add_argument("--stdin-text", default=None,
                       help="stdin contents (latin-1 text)")
        p.add_argument("--stdin-file", default=None,
                       help="file whose bytes become stdin")
        p.add_argument("--arg", action="append", default=[],
                       help="argv entry (repeatable); argv[0] is the file name")
        p.add_argument("--max-instructions", type=int, default=20_000_000)
        p.add_argument("-O", dest="opt_level", type=int, choices=(0, 1),
                       default=0,
                       help="MiniC optimization level: 0 = legacy oracle "
                            "codegen, 1 = IR pipeline (default 0)")
        p.add_argument("--pipeline", action="store_true",
                       help="also report 5-stage pipeline cycles")
        p.add_argument("--caches", action="store_true",
                       help="route data accesses through the L1/L2 hierarchy")
        p.add_argument("--taint-labels", action="store_true",
                       help="run the taint plane in label mode: alerts "
                            "carry input-provenance byte ranges")
        p.add_argument("--explain", action="store_true",
                       help="print a forensic report for the outcome")
        p.add_argument("--trace", action="store_true",
                       help="print every retired instruction "
                            "(index, pc, disassembly)")
        _add_observability_options(p)

    run_parser = sub.add_parser("run", help="compile and run a MiniC program")
    add_run_options(run_parser)

    asm_parser = sub.add_parser("asm", help="assemble and run a raw program")
    add_run_options(asm_parser)

    forensics_parser = sub.add_parser(
        "forensics",
        help="run a MiniC program in label mode and print the forensic "
             "report (who tainted the pointer)",
    )
    add_run_options(forensics_parser)
    forensics_parser.add_argument(
        "--provenance", action="store_true",
        help="render the tainting-input byte ranges for a detected attack",
    )

    disasm_parser = sub.add_parser(
        "disasm", help="print the disassembly of a compiled program"
    )
    disasm_parser.add_argument("file")
    disasm_parser.add_argument(
        "--raw-asm", action="store_true",
        help="treat the input as assembly instead of MiniC",
    )
    disasm_parser.add_argument(
        "-O", dest="opt_level", type=int, choices=(0, 1), default=0,
        help="MiniC optimization level (ignored with --raw-asm)",
    )

    report_parser = sub.add_parser(
        "report", help="regenerate a paper table/figure"
    )
    report_parser.add_argument(
        "name", choices=sorted(REPORTS) + ["all"],
        help="which artifact to regenerate",
    )
    report_parser.add_argument(
        "-j", "--workers", type=int, default=1,
        help="fan row-independent artifacts out to N worker processes "
             "(0 = one per core); tables are byte-identical to -j 1",
    )

    # Imported lazily in _command_campaign; the choices lists here must
    # stay in sync with repro.fault.
    campaign_parser = sub.add_parser(
        "campaign",
        help="run a seeded fault-injection campaign against a program",
    )
    campaign_parser.add_argument(
        "file", nargs="?", default=None,
        help="MiniC victim source (alternative to --builtin)",
    )
    campaign_parser.add_argument(
        "--builtin", default=None,
        help="built-in workload name (pointer-chase, exp1, exp2, exp3)",
    )
    campaign_parser.add_argument("--seed", type=int, default=7)
    campaign_parser.add_argument("--trials", type=int, default=100)
    campaign_parser.add_argument(
        "--recovery",
        choices=("halt", "kill-process", "rollback-retry"),
        default="halt",
        help="policy applied after detected/crash/timeout trials",
    )
    campaign_parser.add_argument(
        "--kind", action="append", default=[],
        help="restrict fault kinds (repeatable; default: all kinds)",
    )
    campaign_parser.add_argument("--caches", action="store_true",
                                 help="run trials with the L1/L2 hierarchy")
    campaign_parser.add_argument("--taint-labels", action="store_true",
                                 help="run trials with the taint plane in "
                                      "label mode (same digest, provenance "
                                      "available)")
    campaign_parser.add_argument("--stdin-text", default=None,
                                 help="golden-run stdin (latin-1 text)")
    campaign_parser.add_argument("--stdin-file", default=None,
                                 help="file whose bytes become stdin")
    campaign_parser.add_argument("--arg", action="append", default=[],
                                 help="victim argv entry (repeatable)")
    campaign_parser.add_argument(
        "-j", "--workers", type=int, default=1,
        help="run trials on N worker processes (0 = one per core); the "
             "digest is byte-identical to the serial -j 1 run",
    )
    campaign_parser.add_argument(
        "--smoke", action="store_true",
        help="CI gate: exit non-zero unless the campaign classified every "
             "trial and detected at least one fault",
    )
    _add_observability_options(campaign_parser)

    matrix_parser = sub.add_parser(
        "matrix",
        help="defense coverage matrix: every attack scenario under every "
             "registered defense (taintedness vs shadow-stack vs PAC)",
    )
    matrix_parser.add_argument(
        "-j", "--workers", type=int, default=1,
        help="fan scenario rows out to N worker processes (0 = one per "
             "core); the table is byte-identical to -j 1",
    )
    matrix_parser.add_argument(
        "--no-overhead", action="store_true",
        help="skip the benign-workload overhead table (faster; the "
             "coverage half is unaffected)",
    )
    matrix_parser.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write the unified machine-readable result to PATH",
    )

    trace_parser = sub.add_parser(
        "trace", help="render, filter, or summarize a saved JSONL trace"
    )
    trace_parser.add_argument("file", help="JSONL trace written by --trace-out")
    trace_parser.add_argument(
        "--event", action="append", default=[],
        help="keep only this event type (repeatable; default: all)",
    )
    trace_parser.add_argument(
        "--pc", default=None,
        help="keep only records at this pc (hex like 0x400120, or decimal)",
    )
    trace_parser.add_argument(
        "--limit", type=int, default=None,
        help="keep only the last N records after filtering",
    )
    trace_parser.add_argument(
        "--summary", action="store_true",
        help="print per-event-type counts instead of the records",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="start the detection-as-a-service gateway (JSON lines over "
             "TCP or a Unix socket)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port to listen on (0 = pick an ephemeral port)",
    )
    serve_parser.add_argument(
        "--unix-socket", default=None, metavar="PATH",
        help="listen on a Unix socket instead of TCP",
    )
    serve_parser.add_argument(
        "-j", "--workers", type=int, default=1,
        help="persistent worker processes (0 = one per core)",
    )
    serve_parser.add_argument(
        "--queue-capacity", type=int, default=64,
        help="max pending jobs before queue_full rejections",
    )
    serve_parser.add_argument(
        "--max-retries", type=int, default=2,
        help="retries for a job whose worker crashed",
    )
    serve_parser.add_argument(
        "--backoff", type=float, default=0.05, metavar="SECONDS",
        help="base for the exponential crash-retry backoff",
    )
    serve_parser.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="consecutive crashes that trip the circuit breaker",
    )
    serve_parser.add_argument(
        "--breaker-cooldown", type=float, default=0.5, metavar="SECONDS",
        help="quarantine window after the breaker trips",
    )
    return parser


def _read_stdin(args: argparse.Namespace) -> bytes:
    if args.stdin_text is not None and args.stdin_file is not None:
        raise SystemExit("use either --stdin-text or --stdin-file, not both")
    if args.stdin_file is not None:
        with open(args.stdin_file, "rb") as handle:
            return handle.read()
    if args.stdin_text is not None:
        return args.stdin_text.encode("latin-1")
    return b""


def _build(path: str, raw_asm: bool, opt_level: int = 0):
    with open(path, "r", encoding="latin-1") as handle:
        source = handle.read()
    if raw_asm:
        return assemble(source)
    return build_program(source, opt_level=opt_level)


def _make_session(args: argparse.Namespace, engine: str) -> Session:
    # The CLI is ExecOptions-native: every flag lands in the one bundle,
    # so no run here ever goes through the deprecated-alias path.
    return Session(options=ExecOptions(
        policy=args.policy if hasattr(args, "policy") else "paper",
        engine=engine,
        use_caches=args.caches,
        metrics=bool(args.metrics) or None,
        trace_out=args.trace_out,
        trace_events=args.trace_events,
        max_instructions=getattr(args, "max_instructions", 20_000_000),
        taint_labels=getattr(args, "taint_labels", False),
        defense=getattr(args, "defense", None),
        superblocks=not getattr(args, "no_superblocks", False),
    ))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _command_run(args: argparse.Namespace, raw_asm: bool,
                 out=sys.stdout) -> int:
    exe = _build(args.file, raw_asm, getattr(args, "opt_level", 0))
    argv = [args.file] + list(args.arg)
    subscribers = []
    if args.trace:
        def _print_retired(event: InstructionRetired) -> None:
            text = event.instr.text or event.instr.name
            out.write(f"[trace] {event.index:>8}  {event.pc:08x}: {text}\n")

        subscribers.append((InstructionRetired, _print_retired))
    session = _make_session(
        args, engine="pipeline" if args.pipeline else "functional"
    )
    result = session.run_executable(
        exe,
        stdin=_read_stdin(args),
        argv=argv,
        subscribers=subscribers,
    )
    policy_name = result.sim.policy.name if result.sim else args.policy
    if getattr(args, "defense", None):
        policy_name = f"{policy_name} + {args.defense}"
    if result.stdout:
        out.write(result.stdout)
        if not result.stdout.endswith("\n"):
            out.write("\n")
    out.write(f"[{policy_name}] {result.describe()}\n")
    if args.explain:
        out.write(explain(result) + "\n")
    if args.metrics and session.metrics is not None:
        out.write(session.metrics.render() + "\n")
    if args.json_path:
        _write_json(args.json_path, result.to_json())
    if result.detected:
        return 2
    if result.outcome in ("fault", "limit"):
        return 3
    return (result.exit_status or 0) & 0xFF


def _command_forensics(args: argparse.Namespace, out=sys.stdout) -> int:
    from .evalx.forensics import provenance_report

    exe = _build(args.file, raw_asm=False,
                 opt_level=getattr(args, "opt_level", 0))
    argv = [args.file] + list(args.arg)
    # Forensics always runs in label mode with a registry: provenance and
    # the taint.labels.* gauges ARE the report.
    session = Session(options=ExecOptions(
        policy=args.policy,
        engine="pipeline" if args.pipeline else "functional",
        use_caches=args.caches,
        metrics=True,
        trace_out=args.trace_out,
        trace_events=args.trace_events,
        max_instructions=args.max_instructions,
        taint_labels=True,
        superblocks=not args.no_superblocks,
    ))
    result = session.run_executable(
        exe, stdin=_read_stdin(args), argv=argv
    )
    out.write(explain(result) + "\n")
    if args.provenance:
        out.write("provenance:\n")
        out.write(provenance_report(result) + "\n")
    gauges = session.metrics.to_dict()["gauges"]
    for name in ("taint.labels.allocated", "taint.labelsets.interned"):
        out.write(f"{name}: {int(gauges.get(name, 0))}\n")
    if args.metrics:
        out.write(session.metrics.render() + "\n")
    if args.json_path:
        _write_json(args.json_path, result.to_json())
    if result.detected:
        return 2
    if result.outcome in ("fault", "limit"):
        return 3
    return (result.exit_status or 0) & 0xFF


def _command_disasm(args: argparse.Namespace, out=sys.stdout) -> int:
    exe = _build(args.file, args.raw_asm, getattr(args, "opt_level", 0))
    out.write(exe.disassembly() + "\n")
    return 0


def _command_campaign(args: argparse.Namespace, out=sys.stdout) -> int:
    from .evalx.fault_report import render_campaign_report
    from .fault import FAULT_KINDS, OUTCOMES

    if (args.file is None) == (args.builtin is None):
        raise SystemExit("campaign needs exactly one of FILE or --builtin")
    session = Session(options=ExecOptions(
        use_caches=args.caches,
        metrics=bool(args.metrics) or None,
        trace_out=args.trace_out,
        trace_events=args.trace_events,
        taint_labels=args.taint_labels,
        workers=args.workers,
        superblocks=not args.no_superblocks,
    ))
    kwargs = dict(
        seed=args.seed,
        trials=args.trials,
        recovery=args.recovery,
        kinds=tuple(args.kind) if args.kind else FAULT_KINDS,
    )
    try:
        if args.builtin is not None:
            result = session.run_campaign(builtin=args.builtin, **kwargs)
        else:
            with open(args.file, "r", encoding="latin-1") as handle:
                source = handle.read()
            result = session.run_campaign(
                source,
                name=args.file,
                stdin=_read_stdin(args),
                argv=tuple(args.arg),
                **kwargs,
            )
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    out.write(render_campaign_report(result) + "\n")
    if args.metrics and session.metrics is not None:
        out.write(session.metrics.render() + "\n")
    if args.json_path:
        _write_json(args.json_path, result.to_json())
    if args.smoke:
        counts = result.counts
        problems = []
        if sum(counts.values()) != args.trials:
            problems.append(
                f"classified {sum(counts.values())}/{args.trials} trials"
            )
        if any(r.outcome not in OUTCOMES for r in result.records):
            problems.append("trial outside the outcome taxonomy")
        if counts["detected"] < 1:
            problems.append("no trial was detected")
        if problems:
            out.write("SMOKE FAIL: " + "; ".join(problems) + "\n")
            return 1
        out.write("SMOKE OK\n")
    return 0


def _command_matrix(args: argparse.Namespace, out=sys.stdout) -> int:
    from .evalx.defense_matrix import (
        matrix_summary,
        run_defense_matrix,
        run_defense_overhead,
        report_defense_matrix,
    )

    matrix = run_defense_matrix(workers=args.workers)
    overhead_rows = None if args.no_overhead else run_defense_overhead()
    out.write(
        report_defense_matrix(
            overhead=not args.no_overhead,
            matrix=matrix,
            overhead_rows=overhead_rows,
        )
        + "\n"
    )
    if args.json_path:
        summary = matrix_summary(matrix)
        stats = dict(summary, rows=matrix)
        if overhead_rows is not None:
            stats["overhead"] = overhead_rows
        payload = validate_result_json(
            {
                "kind": "experiment",
                "name": "matrix",
                "detected": summary["detected"]["taintedness"] > 0,
                "stats": stats,
                "metrics": {},
            }
        )
        _write_json(args.json_path, payload)
    return 0


def _command_trace(args: argparse.Namespace, out=sys.stdout) -> int:
    try:
        records = list(read_trace(args.file))
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    if args.summary:
        counts = summarize_trace(records)
        out.write(f"{args.file}: {len(records)} records\n")
        for name in sorted(counts):
            out.write(f"  {name:<20} {counts[name]:>10,}\n")
        return 0
    pc = int(args.pc, 0) if args.pc is not None else None
    events = args.event if args.event else "all"
    try:
        rendered = render_trace(
            records, events=events, pc=pc, limit=args.limit
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    out.write(rendered + "\n")
    return 0


def _command_report(args: argparse.Namespace, out=sys.stdout) -> int:
    names = sorted(REPORTS) if args.name == "all" else [args.name]
    for i, name in enumerate(names):
        if i:
            out.write("\n\n")
        out.write(REPORTS[name](workers=args.workers) + "\n")
    return 0


def _command_serve(args: argparse.Namespace, out=sys.stdout) -> int:
    import asyncio

    from .serve import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        max_retries=args.max_retries,
        backoff_s=args.backoff,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
    )

    def ready(s: ReproServer) -> None:
        out.write(
            f"repro serve: listening on {s.address} "
            f"({s.pool.workers} workers, queue {s.queue.capacity})\n"
        )
        if hasattr(out, "flush"):
            out.flush()

    async def _serve() -> int:
        loop = asyncio.get_running_loop()
        # SIGTERM/SIGINT mean *drain*, not die: finish in-flight jobs,
        # reject new ones, then exit 0.
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, server.begin_drain)
        return await server.run(ready=ready)

    return asyncio.run(_serve())


#: Long-running commands that honor SIGINT/SIGTERM with a clean 130 exit.
_INTERRUPTIBLE = ("campaign", "report", "matrix")


def _run_interruptible(command: str, fn: Callable[[], int]) -> int:
    """Run ``fn`` with SIGTERM mapped to ``KeyboardInterrupt``.

    Interrupting a fanned-out command cancels the worker pool promptly
    (``fan_out`` shuts its executor down with ``cancel_futures=True`` on
    ``KeyboardInterrupt``), reports partial progress on stderr, and exits
    with the conventional 130 instead of a traceback.
    """
    def _on_term(signum, frame):  # pragma: no cover - exercised via subprocess
        raise KeyboardInterrupt

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _on_term)
    except ValueError:
        pass  # not the main thread (e.g. tests driving main() directly)
    started = perf_counter()
    try:
        return fn()
    except KeyboardInterrupt:
        elapsed = perf_counter() - started
        sys.stderr.write(
            f"repro {command}: interrupted after {elapsed:.1f}s -- worker "
            f"pool cancelled, partial progress discarded\n"
        )
        return 130
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _dispatch(args: argparse.Namespace, out) -> int:
    if args.command == "run":
        return _command_run(args, raw_asm=False, out=out)
    if args.command == "asm":
        return _command_run(args, raw_asm=True, out=out)
    if args.command == "forensics":
        return _command_forensics(args, out=out)
    if args.command == "disasm":
        return _command_disasm(args, out=out)
    if args.command == "report":
        return _run_interruptible(
            "report", lambda: _command_report(args, out=out)
        )
    if args.command == "campaign":
        return _run_interruptible(
            "campaign", lambda: _command_campaign(args, out=out)
        )
    if args.command == "matrix":
        return _run_interruptible(
            "matrix", lambda: _command_matrix(args, out=out)
        )
    if args.command == "trace":
        return _command_trace(args, out=out)
    if args.command == "serve":
        return _command_serve(args, out=out)
    raise SystemExit(f"unknown command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None, out=sys.stdout) -> int:
    """CLI entry point; returns the process exit code.

    Failures are structured even in machine-readable mode: when a command
    raises and ``--json PATH`` was given, PATH receives a schema-valid
    ``{"kind": "error", "error": {"type", "message"}}`` envelope instead
    of nothing, and stderr gets a one-line diagnosis instead of a
    traceback.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args, out)
    except SystemExit:
        raise
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # noqa: BLE001 -- the envelope is the contract
        json_path = getattr(args, "json_path", None)
        if json_path:
            payload = validate_result_json({
                "kind": "error",
                "reason": "cli",
                "error": {
                    "type": type(exc).__name__,
                    "message": str(exc) or type(exc).__name__,
                },
            })
            _write_json(json_path, payload)
        sys.stderr.write(f"repro: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
