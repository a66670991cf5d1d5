"""The four workloads: set-up, timed ops, and correctness checks.

Each workload is a class with the same life cycle, driven by
:mod:`perfbench.run`:

``setup()``      one complete set-up (repeated; the last one is kept)
``discard()``    tear down a set-up that will not be measured
``measure(r)``   the timed phase: hand ops to the runner ``r``
``finish(r)``    run-level correctness checks after the timed phase
``close()``      release everything; returns the peak resident memory

``collect_per_op`` makes every timed op end with a full garbage
collection inside its latency; ``every_cpu`` makes host-speed samples
cover every CPU in turn, for work done in other processes (see
:class:`perfbench.run.Runner`).

An op returns an :class:`OpResult`: what it retired, the counts the
layer table reads, and a failure reason when its output check failed.
``fingerprint()`` hashes the simulated statistics of a seed-determined
set of ops, so a change that should not alter simulation can show that
it did not.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from . import host, inputs
from .layers import ENGINE_COUNTS
from .trace import Tracer

#: The exp3 / seed 11 / 25-trial campaign digest pinned by the repo's
#: tests since the defenses extraction.
PINNED_DIGEST = (
    "9b0588e410ed0e9184188b6567b5305abf6f4b56023b4c3a48c6e35f79829e4b"
)

#: Defense-matrix verdicts: attack outcome per (scenario, defense).  The
#: taintedness column must also agree with each scenario's own
#: ``detected_by_pointer_taint``; the pipeline engine must reproduce it.
MATRIX_EXPECTED: Dict[str, Dict[str, str]] = {
    "exp1-stack-smash": {
        "taintedness": "alert", "shadow-stack": "alert", "pac": "alert"},
    "exp2-heap-corruption": {
        "taintedness": "alert", "shadow-stack": "exit", "pac": "exit"},
    "exp3-format-string": {
        "taintedness": "alert", "shadow-stack": "exit", "pac": "exit"},
    "table4a-integer-overflow": {
        "taintedness": "exit", "shadow-stack": "exit", "pac": "exit"},
    "table4b-auth-flag": {
        "taintedness": "exit", "shadow-stack": "exit", "pac": "exit"},
    "table4c-format-leak": {
        "taintedness": "exit", "shadow-stack": "exit", "pac": "exit"},
    "wuftpd-site-exec": {
        "taintedness": "alert", "shadow-stack": "exit", "pac": "exit"},
    "nullhttpd-heap": {
        "taintedness": "alert", "shadow-stack": "exit", "pac": "exit"},
    "ghttpd-url-pointer": {
        "taintedness": "alert", "shadow-stack": "alert", "pac": "fault"},
    "traceroute-double-free": {
        "taintedness": "alert", "shadow-stack": "exit", "pac": "exit"},
}

#: Fields of a run result that must agree between a served reply and an
#: in-process run of the same job.  The reply carries no stdout, so the
#: served programs fold their output into the exit status.
RUN_FIELDS = ("outcome", "exit_status", "alert", "fault")
STAT_FIELDS = (
    "instructions", "loads", "stores", "branches", "jumps", "syscalls",
    "tainted_results", "dereference_checks", "alerts",
    "input_bytes_tainted",
)

SERVE_CLIENTS = 2
#: Host seconds of closed loop between two host-speed samples.
SERVE_SEGMENT_S = 2.0
#: Trials per seeded plan; a run executes whole plans (rounds) only.
CAMPAIGN_ROUND_TRIALS = 100
#: Digits in served job ids; a fixed width keeps argv -- and so the
#: simulated stack layout -- identical between a job and its reference.
_ID_WIDTH = 6


@dataclass
class OpResult:
    instructions: int = 0
    #: Op-level counts for the layer table (superblocks, defense checks,
    #: served-job envelope, injected flag, ...).
    counts: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None


@dataclass
class Op:
    id: str
    mode: str
    kind: str
    fn: Callable[[], OpResult]


def cold_build_caches() -> None:
    """Empty the program builder's compile caches, as a fresh process has
    them, so every set-up pays the compile a one-shot command pays."""
    from repro.libc import build

    build._build_cached.cache_clear()
    build._libc_assembly.cache_clear()


def _sha(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def run_fields(payload: dict) -> dict:
    """The comparable part of a unified run-result payload."""
    stats = payload.get("stats", {})
    fields = {name: stats.get(name) for name in RUN_FIELDS + STAT_FIELDS}
    fields["kind"] = payload.get("kind")
    return fields


def reply_error(reply: dict, expected: dict) -> Optional[str]:
    """Why a served reply fails its check (None when it passes).

    An error envelope -- a refused (``queue_full``, ``draining``, ...) or
    crashed job -- fails, and so does any field that differs from the
    in-process run of the same job.
    """
    if reply.get("kind") != "run":
        reason = reply.get("reason", reply.get("kind"))
        return f"served job failed: {reason}"
    got = run_fields(reply)
    for name, value in run_fields(expected).items():
        if got[name] != value:
            return f"{name}: served {got[name]!r} != in-process {value!r}"
    return None


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 0.0


# ---------------------------------------------------------------------------
# serve-run
# ---------------------------------------------------------------------------


class ServeRun:
    """Closed loop over loopback against ``python -m repro serve -j 1``."""

    name = "serve-run"
    collect_per_op = False
    #: The served work runs in the gateway's worker, on whichever CPU;
    #: samples taken only on this process's CPU tracked it less well
    #: (inter-quartile spread over ten seeds 9-11% against 6-7%).
    every_cpu = True
    #: The served work runs in the gateway's processes, which a sample
    #: taken in this one does not track (per 2-s stretch the sampled
    #: speed swung +-12% while the served throughput moved +-7%, not in
    #: step), so serve-run reports host seconds.

    def __init__(self, root: Path, seed: int, tracer: Tracer) -> None:
        self.root = root
        self.seed = seed
        self.tracer = tracer
        self.jobs = inputs.serve_jobs(seed)
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.clients: List[object] = []
        #: distinct-job index -> [(op id, reply)] for every reply received.
        self.sent: Dict[int, List[Tuple[str, dict]]] = {}
        self._lock = threading.Lock()
        self._peak_rss = 0.0

    def _request(self, index: int, job_id: str) -> dict:
        name, source, stdin = self.jobs[index]
        return {
            "kind": "run",
            "id": job_id,
            "source": source,
            "stdin": stdin.decode("latin-1"),
        }

    def _spawn(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "-j", "1",
             "--host", "127.0.0.1", "--port", "0"],
            cwd=str(self.root),
            env=env,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            raise RuntimeError(f"gateway did not start: {line!r}")
        address = line.split("listening on ", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])

    def setup(self) -> None:
        from repro.serve import ServeClient

        with self.tracer.span("serve.spawn"):
            self._spawn()
            self.clients = [
                ServeClient(host="127.0.0.1", port=self.port).connect()
                for _ in range(SERVE_CLIENTS)
            ]
        # Warm compile: the worker builds and caches every pool program.
        for program in range(len(inputs.SERVE_PROGRAMS)):
            index = program * inputs.SERVE_STDIN_VARIANTS
            reply = self._send(
                self.clients[0], index, f"w{program:0{_ID_WIDTH}d}a"
            )
            if reply.get("kind") != "run":
                raise RuntimeError(f"warm-up job failed: {reply}")

    def _send(self, client, index: int, job_id: str) -> dict:
        """One request; in a traced run its span holds the job's queue
        wait and execution as reported by the gateway, and its self time
        is the wire (client, socket and JSON) cost."""
        tracer = self.tracer
        with tracer.span("serve.request") as span:
            reply = client.request(self._request(index, job_id))
        if span is not None and reply.get("kind") == "run":
            job = reply["job"]
            stats = reply["stats"]
            queue_s = job["queue_ms"] / 1000.0
            tracer.add("serve.queue", queue_s, span)
            tracer.add(
                "serve.exec", job["exec_ms"] / 1000.0, span, offset=queue_s,
                counts={name: stats.get(name, 0) for name in ENGINE_COUNTS},
            )
        return reply

    def discard(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.proc is not None:
            self._peak_rss = max(
                self._peak_rss, host.tree_peak_rss_mb(self.proc.pid)
            )
            proc, self.proc = self.proc, None
            # SIGTERM drains: in-flight jobs finish, the pool shuts down,
            # and the gateway exits 0.
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def _op(self, client, index: int, seq: int) -> Op:
        op_id = f"op-{seq}"
        # A traced run sends each job twice (untraced and traced twin);
        # equal-length ids keep the simulated stack layout identical.
        twin = iter("ab")

        def run() -> OpResult:
            job_id = f"j{seq:0{_ID_WIDTH}d}{next(twin)}"
            reply = self._send(client, index, job_id)
            with self._lock:
                self.sent.setdefault(index, []).append((op_id, reply))
            stats = reply.get("stats", {})
            counts = {"retries": reply.get("job", {}).get("retries", 0)}
            superblocks = stats.get("superblocks") or {}
            if superblocks:
                counts["superblock.built"] = superblocks["built"]
                counts["superblock.hit_rate"] = superblocks["hit_rate"]
            return OpResult(
                instructions=int(stats.get("instructions", 0)),
                counts=counts,
                error=(
                    None if reply.get("kind") == "run"
                    else f"served job failed: {reply.get('reason')}"
                ),
            )

        return Op(op_id, "taintedness", self.jobs[index][0], run)

    def measure(self, runner) -> None:
        """Both connections run the closed loop in segments; between two
        segments, with no job in flight, the runner samples the host's
        speed."""
        sequence = inputs.serve_sequence(self.seed, 1 << 14, len(self.jobs))
        counter = iter(range(len(sequence)))
        counter_lock = threading.Lock()

        def loop(client, segment_end: float) -> None:
            while runner.clock() < segment_end:
                with counter_lock:
                    seq = next(counter)
                runner.execute(self._op(client, sequence[seq], seq))

        runner.sample_every = None
        segments = max(1, round(runner.seconds / SERVE_SEGMENT_S))
        runner.begin()
        for segment in range(segments):
            if segment:
                runner.calibrate()
            segment_end = runner.clock() + runner.seconds / segments
            threads = [
                threading.Thread(target=loop, args=(client, segment_end))
                for client in self.clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        runner.end()

    def finish(self, runner) -> List[dict]:
        """Compare every reply with an in-process run of the same job."""
        from repro.api import ExecOptions, Session
        from repro.libc.build import build_program

        self.discard()  # the gateway's memory is read before it stops
        self.references = {}
        for index in range(len(self.jobs)):
            name, source, stdin = self.jobs[index]
            with runner.untimed(f"ref-{index}", "taintedness", name):
                result = Session(
                    options=ExecOptions(policy="paper")
                ).run_executable(
                    build_program(source),
                    stdin=stdin,
                    argv=[f"r{index:0{_ID_WIDTH}d}a"],
                )
                self.references[index] = result.to_json()
        mismatched = 0
        for index, replies in self.sent.items():
            for op_id, reply in replies:
                error = reply_error(reply, self.references[index])
                if error is not None:
                    mismatched += 1
                    runner.fail(op_id, error)
        return [{
            "check": "served replies equal in-process runs",
            "ok": mismatched == 0,
            "detail": f"{mismatched} mismatched replies",
        }]

    def fingerprint(self) -> str:
        return _sha([run_fields(self.references[i])
                     for i in sorted(self.references)])

    def close(self) -> float:
        self.discard()
        return self._peak_rss


# ---------------------------------------------------------------------------
# campaign-exp3
# ---------------------------------------------------------------------------


class CampaignExp3:
    """Serial SWIFI campaign on builtin exp3: plan -> trials -> merge."""

    name = "campaign-exp3"
    every_cpu = False
    collect_per_op = False

    def __init__(self, root: Path, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.campaign = None
        self.first_round: Optional[dict] = None
        self.check: Optional[dict] = None
        self.uncovered_rounds = 0

    def setup(self) -> None:
        from repro.fault.campaign import CampaignConfig, FaultCampaign
        from repro.fault.workloads import builtin_workload

        cold_build_caches()
        campaign = FaultCampaign(
            builtin_workload("exp3"),
            CampaignConfig(trials=CAMPAIGN_ROUND_TRIALS, workers=1),
        )
        with self.tracer.span("fault.prepare"):
            campaign.prepare()
        self.campaign = campaign

    def discard(self) -> None:
        self.campaign = None

    def _plan(self, seed: int, trials: int):
        # build_plan draws from config.seed and config.trials only; the
        # prepared machine, checkpoint and golden run do not depend on
        # them, so one prepared campaign serves every plan.
        campaign = self.campaign
        campaign.config = replace(campaign.config, seed=seed, trials=trials)
        with self.tracer.span("fault.build_plan"):
            return campaign.build_plan()

    def _trial_op(self, round_index, index, trigger, spec, records):
        campaign = self.campaign
        tracer = self.tracer

        def run() -> OpResult:
            with tracer.span("fault.run_trial"):
                record = campaign.run_trial(index, trigger, spec)
            error = None
            previous = records.get(index)
            if previous is not None and previous.key() != record.key():
                error = "trial record differs between identical runs"
            records[index] = record
            return OpResult(
                instructions=record.instructions,
                counts={"injected": int(record.injected)},
                error=error,
            )

        return Op(f"op-{round_index}-{index}", "taintedness", trigger.kind,
                  run)

    def measure(self, runner) -> None:
        def one_round(round_index: int) -> None:
            seed = inputs.campaign_round_seed(self.seed, round_index)
            with runner.untimed(f"plan-{round_index}"):
                plan = self._plan(seed, CAMPAIGN_ROUND_TRIALS)
            records: Dict[int, object] = {}
            for index, (trigger, spec) in enumerate(plan):
                runner.execute(
                    self._trial_op(round_index, index, trigger, spec, records)
                )
            try:
                with runner.untimed(f"merge-{round_index}"):
                    with self.tracer.span("fault.merge"):
                        result = self.campaign.merge(list(records.values()))
            except ValueError:  # a trial raised, so its record is missing
                result = None
            if result is None or len(result.records) != len(plan):
                self.uncovered_rounds += 1
            elif round_index == 0:
                self.first_round = {
                    "golden_instructions": result.golden.instructions,
                    "counts": result.counts,
                    "injected": result.injected_count,
                    "digest": result.digest(),
                }

        runner.rounds(one_round)

    def finish(self, runner) -> List[dict]:
        """The pinned exp3 / seed 11 / 25-trial campaign, driven through
        the same prepared machine after all the timed trials."""
        plan = self._plan(11, 25)
        records = [
            self.campaign.run_trial(index, trigger, spec)
            for index, (trigger, spec) in enumerate(plan)
        ]
        result = self.campaign.merge(records)
        digest = result.digest()
        self.check = {"digest": digest, "counts": result.counts}
        return [
            {
                "check": "every round's merge() covers its plan",
                "ok": self.uncovered_rounds == 0,
                "detail": f"{self.uncovered_rounds} rounds not covered",
            },
            {
                "check": "exp3/seed 11/25 trials digest is pinned",
                "ok": digest == PINNED_DIGEST and len(result.records) == 25,
                "detail": digest,
            },
        ]

    def fingerprint(self) -> str:
        return _sha([self.first_round, self.check])

    def close(self) -> float:
        self.campaign = None
        return host.self_peak_rss_mb()


# ---------------------------------------------------------------------------
# spec-exec
# ---------------------------------------------------------------------------


def _bench_minic_rows(root: Path) -> Dict[Tuple[str, int], int]:
    with open(root / "BENCH_minic_opt.json") as handle:
        rows = json.load(handle)["rows"]
    table = {}
    for row in rows:
        table[(row["workload"], 0)] = row["instructions_O0"]
        table[(row["workload"], 1)] = row["instructions_O1"]
    return table


def _result_counts(payload: dict) -> Dict[str, float]:
    """Op counts the layer table reads from a unified run payload."""
    stats = payload["stats"]
    counts: Dict[str, float] = {}
    superblocks = stats.get("superblocks")
    if superblocks:
        counts["superblock.built"] = superblocks["built"]
        counts["superblock.hit_rate"] = superblocks["hit_rate"]
    for name, summary in (stats.get("defenses") or {}).items():
        counts[f"checks.{name}"] = summary["checks"]
    return counts


class SpecExec:
    """The nine Table-3 programs at -O0 and -O1, run to completion."""

    name = "spec-exec"
    every_cpu = False
    collect_per_op = True

    def __init__(self, root: Path, seed: int, tracer: Tracer) -> None:
        from repro.apps.spec import SPEC_WORKLOADS

        self.seed = seed
        self.tracer = tracer
        self.expected = _bench_minic_rows(root)
        self.programs = {w.name: w for w in SPEC_WORKLOADS}
        self.order = inputs.spec_order(seed, [w.name for w in SPEC_WORKLOADS])
        self.exes: Dict[Tuple[str, int], object] = {}
        self.stdin: Dict[str, bytes] = {}
        self.first_pass: Dict[str, dict] = {}

    def setup(self) -> None:
        from repro.libc import build

        cold_build_caches()
        self.exes = {
            (name, level): build.build_program(
                self.programs[name].source, opt_level=level
            )
            for name, level in sorted(self.order)
        }
        self.stdin = {
            name: workload.make_input()
            for name, workload in self.programs.items()
        }

    def discard(self) -> None:
        self.exes = {}

    def _op(self, pass_index: int, name: str, level: int) -> Op:
        from repro.attacks import replay
        from repro.defenses.policy import PointerTaintPolicy

        def run() -> OpResult:
            result = replay.run_executable(
                self.exes[(name, level)], PointerTaintPolicy(),
                stdin=self.stdin[name],
            )
            payload = result.to_json()
            stats = payload["stats"]
            error = None
            expected = self.expected[(name, level)]
            if result.outcome != "exit" or stats["alerts"] != 0:
                error = f"{name} -O{level}: {result.describe()}"
            elif stats["instructions"] != expected:
                error = (
                    f"{name} -O{level}: retired {stats['instructions']}, "
                    f"BENCH_minic_opt.json has {expected}"
                )
            if pass_index == 0:
                self.first_pass[f"{name}-O{level}"] = run_fields(payload)
            return OpResult(
                instructions=stats["instructions"],
                counts=_result_counts(payload),
                error=error,
            )

        return Op(f"op-{pass_index}-{name}-O{level}", "taintedness",
                  f"{name}-O{level}", run)

    def measure(self, runner) -> None:
        def one_pass(pass_index: int) -> None:
            for name, level in self.order:
                runner.execute(self._op(pass_index, name, level))

        runner.rounds(one_pass)

    def finish(self, runner) -> List[dict]:
        return []

    def fingerprint(self) -> str:
        return _sha(self.first_pass)

    def close(self) -> float:
        self.exes = {}
        return host.self_peak_rss_mb()


# ---------------------------------------------------------------------------
# matrix-cold
# ---------------------------------------------------------------------------


class MatrixCold:
    """Defense-matrix cells, each compiled cold like a one-shot run."""

    name = "matrix-cold"
    every_cpu = False
    collect_per_op = True

    #: Set-up runs the benign input of one scenario once per mode, so the
    #: one-time costs of each engine and defense land in set-up.
    WARM_UP = (
        ("exp1-stack-smash", "taintedness", 0),
        ("exp1-stack-smash", "shadow-stack", 1),
        ("exp1-stack-smash", "pac", 0),
        ("exp1-stack-smash", "pipeline", 1),
    )

    def __init__(self, root: Path, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.scenarios: Dict[str, object] = {}
        self.first_pass: Dict[str, dict] = {}

    def setup(self) -> None:
        from repro.evalx.experiments import all_attack_scenarios

        self.scenarios = {s.name: s for s in all_attack_scenarios()}
        for name, scenario in self.scenarios.items():
            expected = MATRIX_EXPECTED.get(name)
            if expected is None or (
                (expected["taintedness"] == "alert")
                != scenario.detected_by_pointer_taint
            ):
                raise RuntimeError(
                    f"no consistent matrix expectation for {name!r}"
                )
        for name, mode, level in self.WARM_UP:
            scenario = self.scenarios[name]
            result, _ = self._cell(scenario, scenario.benign_input, mode,
                                   level)
            if result.outcome != "exit":
                raise RuntimeError(
                    f"benign {name} under {mode}: {result.describe()}"
                )

    def discard(self) -> None:
        self.scenarios = {}

    def _cell(self, scenario, input_spec, mode: str, level: int, pcs=None):
        """Compile cold, assemble, run under ``mode``; returns the result
        and its unified payload."""
        from repro.attacks import replay
        from repro.cc import compiler
        from repro.core.events import InstructionRetired
        from repro.isa import assembler
        from repro.libc.build import LIBC_UNITS
        from repro.libc.runtime import CRT0, SYSCALL_VENEERS

        libc = compiler.compile_units(LIBC_UNITS, opt_level=level)
        app = compiler.compile_units(
            (("app", scenario.source),), opt_level=level
        )
        exe = assembler.assemble("\n".join([CRT0, libc, app, SYSCALL_VENEERS]))
        kwargs = {
            key: value() if callable(value) else value
            for key, value in input_spec.items()
        }
        kwargs.setdefault("max_instructions", scenario.max_instructions)
        if pcs is not None:
            kwargs["subscribers"] = [
                (InstructionRetired, lambda event: pcs.add(event.pc))
            ]
        result = replay.run_executable(
            exe, None,
            defense="taintedness" if mode == "pipeline" else mode,
            use_pipeline=mode == "pipeline",
            **kwargs,
        )
        return result, result.to_json()

    def _op(self, pass_index: int, name: str, mode: str, level: int) -> Op:
        scenario = self.scenarios[name]
        tracer = self.tracer

        def run() -> OpResult:
            pcs = None
            if mode in ("shadow-stack", "pac") and tracer.enabled:
                # Comparators already retire one instruction at a time, so
                # one more subscriber leaves their dispatch path unchanged.
                pcs = set()
            result, payload = self._cell(
                scenario, scenario.attack_input, mode, level, pcs
            )
            stats = payload["stats"]
            expected = MATRIX_EXPECTED[name][
                "taintedness" if mode == "pipeline" else mode
            ]
            error = None
            if result.outcome != expected:
                error = (
                    f"{name} under {mode} -O{level}: {result.outcome}, "
                    f"expected {expected}"
                )
            counts = _result_counts(payload)
            if pcs:
                counts["distinct_pcs"] = len(pcs)
            if pass_index < 2:
                self.first_pass[f"{name}/{mode}/O{level}"] = {
                    "outcome": result.outcome,
                    "instructions": stats["instructions"],
                    "cycles": stats.get("cycles"),
                    "checks": {
                        key: value for key, value in counts.items()
                        if key.startswith("checks.")
                    },
                }
            return OpResult(
                instructions=stats["instructions"], counts=counts,
                error=error,
            )

        return Op(f"op-{pass_index}-{name}-{mode}", mode,
                  f"{name}-O{level}", run)

    def measure(self, runner) -> None:
        names = sorted(self.scenarios)

        def one_block(block: int) -> None:
            # Two passes: the seed's opt levels, then the flipped ones,
            # so a block runs every (scenario, mode, level) cell once.
            for pass_index in (2 * block, 2 * block + 1):
                for name, mode, level in inputs.matrix_pass(
                    self.seed, pass_index, names,
                    ("taintedness", "shadow-stack", "pac", "pipeline"),
                ):
                    runner.execute(self._op(pass_index, name, mode, level))

        runner.rounds(one_block)

    def finish(self, runner) -> List[dict]:
        return []

    def fingerprint(self) -> str:
        return _sha(self.first_pass)

    def close(self) -> float:
        return host.self_peak_rss_mb()


WORKLOADS = {
    cls.name: cls for cls in (ServeRun, CampaignExp3, SpecExec, MatrixCold)
}
