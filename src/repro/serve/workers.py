"""The gateway's persistent worker pool (infra layer).

Jobs execute in **worker processes**, never in the server process: a
job that segfaults the interpreter (or hits the
``REPRO_PARALLEL_POISON_INDEX`` crash seam from :mod:`repro.parallel`)
takes down a disposable worker, not the service.  Three robustness
mechanisms stack on top of :class:`concurrent.futures.ProcessPoolExecutor`:

* **Self-healing** -- a ``BrokenProcessPool`` (a worker died mid-job)
  rebuilds the pool and retries the job with exponential backoff, up to
  ``max_retries`` times; a job that keeps killing workers gets a
  terminal ``worker_crash`` error envelope instead of poisoning the
  service.
* **Circuit breaker** -- ``breaker_threshold`` *consecutive* crashes
  quarantine the pool: dispatch pauses (jobs wait, none are lost) for
  ``breaker_cooldown_s``, then a single half-open probe job tests the
  water; its success closes the breaker, another crash re-opens it.
* **Per-job budgets** -- inside the worker every job runs under the
  machine watchdog (:meth:`~repro.cpu.machine.MachineState.arm_watchdog`):
  an instruction budget and/or wall-clock deadline overrun comes back as
  a structured ``ExecutionLimit`` result (``outcome="limit"`` with
  ``stats.limit.reason``), and the worker survives to take the next job.

Workers amortize machine construction across requests
(**prepared-machine caching**): compiled executables are cached by
source digest and prepared fault campaigns -- built machine, pre-run
checkpoint, golden baseline -- are cached by the same execution key the
parallel engine uses, so repeat jobs for a scenario skip
``build_machine`` entirely.  The cached checkpoint is the campaign's
copy-on-write delta capture, so a repeat job's rollbacks stay
O(pages the previous trial dirtied) for the whole life of the worker:
reuse never degrades the capture, only a config change (a new execution
key) builds a fresh machine and capture.  Determinism is untouched: a campaign's
digest is a pure function of its plan and the checkpointed machine, so
a served job's digest is byte-identical to the same ``Session`` call
in-process (asserted in tests and CI).

The crash seam is shared with PR 5's engine: pool workers mark
themselves via :func:`repro.parallel.engine._pool_initializer`, and a
worker whose job *sequence number* equals ``REPRO_PARALLEL_POISON_INDEX``
exits abruptly on the job's first attempt only -- the retry (running
after the pool healed) completes normally, which is exactly the
invariant the chaos tests pin down.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from time import monotonic, perf_counter
from typing import Dict, Optional, Tuple

from ..parallel import engine as _engine
from .protocol import error_envelope

__all__ = ["CircuitBreaker", "WorkerPool", "execute_job"]

#: Worker-process cache: MiniC/asm source digest -> built executable.
_EXE_CACHE: Dict[str, object] = {}

#: Worker-process cache: campaign execution key -> prepared FaultCampaign.
_CAMPAIGN_CACHE: Dict[tuple, object] = {}


# ---------------------------------------------------------------------------
# worker-side execution (runs in pool worker processes)
# ---------------------------------------------------------------------------

def _maybe_poison(seq: int, attempt: int) -> None:
    """PR 5's crash seam, re-used for serve jobs.

    Only pool *workers* (``_pool_initializer`` ran) can be poisoned, and
    only on a job's first attempt -- so the self-healing retry path is
    observable end-to-end: crash, pool rebuild, clean completion.
    """
    if not _engine._IN_WORKER or attempt:
        return
    poison = int(os.environ.get(_engine.POISON_ENV, "-1"))
    if poison >= 0 and seq == poison:
        os._exit(86)


def _cached_executable(request: dict):
    from ..isa.assembler import assemble
    from ..libc.build import build_program

    source = request.get("source")
    asm = request.get("asm")
    text = source if source is not None else asm
    key = ("minic" if source is not None else "asm",
           hashlib.sha256(text.encode("latin-1", "replace")).hexdigest())
    exe = _EXE_CACHE.get(key)
    if exe is None:
        exe = build_program(source) if source is not None else assemble(asm)
        _EXE_CACHE[key] = exe
    return exe


def _exec_options(request: dict):
    """The job's :class:`repro.api.ExecOptions`: the request's validated
    ``"options"`` object over the defaults."""
    from ..api import ExecOptions

    return ExecOptions(**(request.get("options") or {}))


def _execute_run(request: dict) -> dict:
    from ..api import Session

    session = Session(options=_exec_options(request))
    kwargs = {}
    if request.get("deadline_s") is not None:
        kwargs["max_seconds"] = request["deadline_s"]
    result = session.run_executable(
        _cached_executable(request),
        stdin=request.get("stdin", "").encode("latin-1"),
        argv=[request.get("id", "job")] + list(request.get("argv", [])),
        **kwargs,
    )
    return result.to_json()


def _execute_campaign(request: dict) -> dict:
    from ..fault.campaign import CampaignConfig, FaultCampaign
    from ..fault.workloads import Workload, builtin_workload

    if request.get("builtin") is not None:
        workload = builtin_workload(request["builtin"])
    else:
        workload = Workload(
            name=request.get("id", "<minic>"),
            source=request["source"],
            stdin=request.get("stdin", "").encode("latin-1"),
            argv=tuple(request.get("argv", ())),
        )
    options = _exec_options(request)
    config_kwargs = dict(
        seed=request.get("seed", 7),
        trials=request.get("trials", 100),
        recovery=request.get("recovery", "halt"),
        taint_labels=options.taint_labels,
        use_caches=options.use_caches,
        superblocks=options.superblocks,
    )
    if request.get("kinds"):
        config_kwargs["kinds"] = tuple(request["kinds"])
    if request.get("deadline_s") is not None:
        config_kwargs["max_seconds"] = request["deadline_s"]
    config = CampaignConfig(**config_kwargs)
    key = _engine._campaign_key(workload, config) + (
        config.seed, config.trials
    )
    campaign = _CAMPAIGN_CACHE.get(key)
    if campaign is None:
        # Served campaigns run serially inside their worker: the service
        # parallelizes *across* jobs, not within one.
        campaign = FaultCampaign(workload, config)
        _CAMPAIGN_CACHE[key] = campaign
    return campaign.run().to_json()


def _execute_experiment(request: dict) -> dict:
    from ..api import Session

    result = Session().run_experiment(request["name"], render=False)
    return result.to_json()


def execute_job(request: dict, seq: int, attempt: int) -> Tuple[dict, float]:
    """Pool-worker entry point: one job in, one terminal payload out.

    Never raises for job-level failures -- a bad workload, a compile
    error, a golden-run divergence all come back as error envelopes, so
    the worker (and the pool) survives every well-behaved failure.  Only
    a process death (the poison seam, a real crash) escapes, surfacing
    to the parent as ``BrokenProcessPool``.
    """
    _maybe_poison(seq, attempt)
    start = perf_counter()
    try:
        if request["kind"] == "run":
            payload = _execute_run(request)
        elif request["kind"] == "campaign":
            payload = _execute_campaign(request)
        else:  # experiment / matrix (validated upstream)
            payload = _execute_experiment(request)
    except Exception as exc:  # noqa: BLE001 -- the envelope is the contract
        payload = error_envelope(
            type(exc).__name__, str(exc), reason="job_failed"
        )
    return payload, perf_counter() - start


# ---------------------------------------------------------------------------
# server-side pool management (runs in the asyncio process)
# ---------------------------------------------------------------------------

class CircuitBreaker:
    """Crash-rate guard: closed -> open -> half-open -> closed.

    ``threshold`` *consecutive* crashes open the breaker; dispatch then
    waits out ``cooldown_s`` (jobs are delayed, never dropped), after
    which exactly one probe job runs half-open.  Success closes the
    breaker; another crash re-opens it for a fresh cooldown.
    """

    def __init__(self, threshold: int = 5, cooldown_s: float = 0.5) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.state = "closed"
        self.consecutive = 0
        self.trips = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    async def admit(self) -> None:
        """Wait until dispatch is allowed (returns immediately when
        closed)."""
        while True:
            if self.state == "closed":
                return
            if self.state == "open":
                remaining = self._opened_at + self.cooldown_s - monotonic()
                if remaining > 0:
                    await asyncio.sleep(remaining)
                    continue
                self.state = "half-open"
                self._probe_inflight = False
            if self.state == "half-open":
                if not self._probe_inflight:
                    self._probe_inflight = True
                    return
                await asyncio.sleep(self.cooldown_s / 4 or 0.01)

    def record_success(self) -> None:
        self.consecutive = 0
        if self.state == "half-open":
            self.state = "closed"
        self._probe_inflight = False

    def record_crash(self) -> None:
        self.consecutive += 1
        if self.state == "half-open" or (
            self.state == "closed" and self.consecutive >= self.threshold
        ):
            self.state = "open"
            self._opened_at = monotonic()
            self.trips += 1
        self._probe_inflight = False

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "consecutive_crashes": self.consecutive,
            "trips": self.trips,
            "threshold": self.threshold,
        }


class WorkerPool:
    """Self-healing process pool the gateway schedules jobs onto."""

    def __init__(
        self,
        workers: int = 1,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 0.5,
        registry=None,
    ) -> None:
        self.workers = _engine.resolve_workers(workers)
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown_s)
        self.registry = registry
        self.crashes = 0
        self.restarts = 0
        self.jobs_ok = 0
        self.jobs_failed = 0
        self._ctx = _engine._pool_context()
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- lifecycle ------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._ctx,
                initializer=_engine._pool_initializer,
            )
        return self._executor

    def _rebuild(self) -> None:
        """Replace a broken pool with a fresh one (the self-heal step)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None
        self.restarts += 1
        if self.registry is not None:
            self.registry.counter("serve.pool.restarts").inc()

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    # -- execution ------------------------------------------------------

    async def run_job(
        self, request: dict, seq: int
    ) -> Tuple[dict, float, int]:
        """Run one job to a terminal payload; returns
        ``(payload, exec_seconds, retries)``.

        Every exit path yields a structured payload: the job's own
        result, a ``job_failed`` envelope (the job raised in-worker), or
        a ``worker_crash`` envelope (the job killed ``max_retries + 1``
        workers in a row).  The pool itself always survives.
        """
        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            await self.breaker.admit()
            executor = self._ensure_executor()
            try:
                payload, exec_s = await loop.run_in_executor(
                    executor, execute_job, request, seq, attempt
                )
            except BrokenProcessPool:
                self.crashes += 1
                if self.registry is not None:
                    self.registry.counter("serve.pool.worker_crashes").inc()
                self.breaker.record_crash()
                self._rebuild()
                if attempt >= self.max_retries:
                    self.jobs_failed += 1
                    return (
                        error_envelope(
                            "WorkerCrash",
                            f"job killed its worker {attempt + 1} times; "
                            f"giving up",
                            reason="worker_crash",
                        ),
                        0.0,
                        attempt,
                    )
                attempt += 1
                await asyncio.sleep(self.backoff_s * (2 ** (attempt - 1)))
                continue
            except Exception as exc:  # dispatch-layer failure (pickling..)
                self.jobs_failed += 1
                return (
                    error_envelope(
                        type(exc).__name__, str(exc), reason="dispatch_failed"
                    ),
                    0.0,
                    attempt,
                )
            self.breaker.record_success()
            if payload.get("kind") == "error":
                self.jobs_failed += 1
            else:
                self.jobs_ok += 1
            return payload, exec_s, attempt

    # -- health ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "size": self.workers,
            "alive": self._executor is not None,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "jobs_ok": self.jobs_ok,
            "jobs_failed": self.jobs_failed,
            "breaker": self.breaker.snapshot(),
        }
