"""The asyncio JSON-lines gateway (transport layer).

``repro serve`` turns the one-shot :class:`repro.api.Session` into a
long-lived **detection-as-a-service** endpoint: many concurrent clients
submit run / campaign / experiment / matrix jobs over TCP or a Unix
socket, the server multiplexes them onto the self-healing
:class:`~repro.serve.workers.WorkerPool`, and each terminal result
streams back as unified result JSON stamped with a ``job`` envelope.

The request path is a straight line through the layers::

    client line --> protocol.parse_request     (api)
               --> AdmissionQueue.submit       (scheduler: backpressure)
               --> WorkerPool.run_job          (infra: budgets, self-heal)
               --> unified result JSON + job envelope back to the client

Robustness properties, each owned by exactly one seam:

* a malformed line gets a ``bad_request`` envelope and the connection
  lives on; an over-long line is cut off (``too_large``);
* a full queue rejects with ``queue_full`` (or sheds the oldest pending
  lower-priority job, which still receives a terminal ``shed``
  envelope) -- see :mod:`repro.serve.queue`;
* a crashed worker, an in-job exception, and a watchdog overrun all
  come back as structured payloads -- see :mod:`repro.serve.workers`;
* SIGTERM/SIGINT (wired by the CLI) triggers **drain mode**: new jobs
  are rejected with ``draining``, every already-accepted job still runs
  to its terminal response, streams are flushed, and the process exits 0.

``{"kind": "health"}`` answers inline (never queued) with queue depth,
worker/breaker state, and uptime, so a load balancer can probe a busy
server.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
from time import monotonic, perf_counter
from typing import Optional, Set

from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    encode,
    error_envelope,
    job_envelope,
    parse_request,
)
from .queue import AdmissionQueue, PendingJob, priority_of
from .workers import WorkerPool

__all__ = ["BackgroundServer", "ReproServer"]


class ReproServer:
    """One gateway instance: listener + admission queue + worker pool."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_socket: Optional[str] = None,
        workers: int = 1,
        queue_capacity: int = 64,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 0.5,
        registry=None,
    ) -> None:
        self.host = host
        self.port = port
        self.unix_socket = unix_socket
        self.registry = registry
        self.queue = AdmissionQueue(capacity=queue_capacity)
        self.pool = WorkerPool(
            workers=workers,
            max_retries=max_retries,
            backoff_s=backoff_s,
            breaker_threshold=breaker_threshold,
            breaker_cooldown_s=breaker_cooldown_s,
            registry=registry,
        )
        self.started_at: Optional[float] = None
        self.completed = 0
        #: Fused-tier totals accumulated from completed run payloads
        #: (the caches themselves live in worker processes), surfaced by
        #: the health probe.
        self.superblocks = {"runs": 0, "built": 0, "invalidated": 0,
                            "hits": 0}
        self.draining = False
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._seq = 0
        self._in_flight = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients: Set[asyncio.StreamWriter] = set()
        self._handler_tasks: Set[asyncio.Task] = set()
        self._wakeup: Optional[asyncio.Event] = None
        self._slots: Optional[asyncio.Semaphore] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def run(self, ready=None) -> int:
        """Serve until drained; returns the process exit code (0).

        ``ready`` is called with the server once the socket is bound
        (the CLI prints the address, tests grab the ephemeral port).
        """
        self.loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._slots = asyncio.Semaphore(self.pool.workers)
        self.started_at = monotonic()
        if self.unix_socket is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client,
                path=self.unix_socket,
                limit=MAX_LINE_BYTES + 2,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client,
                self.host,
                self.port,
                limit=MAX_LINE_BYTES + 2,
            )
            self.port = self._server.sockets[0].getsockname()[1]
        if ready is not None:
            ready(self)
        try:
            await self._scheduler()
        finally:
            self._server.close()
            await self._server.wait_closed()
            for writer in list(self._clients):
                with contextlib.suppress(Exception):
                    writer.close()
            # Retire connection handlers before the loop dies so their
            # cancellation is observed here, not logged as noise.
            for task in list(self._handler_tasks):
                task.cancel()
                with contextlib.suppress(
                    asyncio.CancelledError, ConnectionError
                ):
                    await task
            self.pool.shutdown()
            if self.unix_socket is not None:
                with contextlib.suppress(OSError):
                    os.unlink(self.unix_socket)
        return 0

    def begin_drain(self) -> None:
        """Enter drain mode (idempotent; called from the loop thread)."""
        self.draining = True
        if self._wakeup is not None:
            self._wakeup.set()

    def request_drain(self) -> None:
        """Thread-safe drain trigger (used by :class:`BackgroundServer`).

        Idempotent even after the loop has exited, so a double drain
        (explicit + context-manager exit) is a no-op."""
        if self.loop is None or self.loop.is_closed():
            return
        with contextlib.suppress(RuntimeError):
            self.loop.call_soon_threadsafe(self.begin_drain)

    @property
    def address(self) -> str:
        if self.unix_socket is not None:
            return self.unix_socket
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # scheduler: queue -> pool, bounded by the worker count
    # ------------------------------------------------------------------

    async def _scheduler(self) -> None:
        while True:
            # Take a worker slot before choosing a job: a job popped
            # while every worker is busy would wait outside the queue,
            # where it can neither be shed nor overtaken by a later
            # higher-priority arrival.
            await self._slots.acquire()
            job = self.queue.pop()
            if job is None:
                self._slots.release()
                if self.draining and self._in_flight == 0:
                    return
                self._wakeup.clear()
                # Re-check after either a new submission or a completion
                # (both set the event); draining sets it too, so the
                # exit condition above is always re-evaluated.
                await self._wakeup.wait()
                continue
            self._in_flight += 1
            asyncio.ensure_future(self._run_one(job))

    async def _run_one(self, job: PendingJob) -> None:
        try:
            queue_ms = (perf_counter() - job.enqueued_at) * 1000.0
            payload, exec_s, retries = await self.pool.run_job(
                job.request, job.seq
            )
            payload = dict(payload)
            payload["job"] = job_envelope(
                job.job_id, job.seq, queue_ms, exec_s * 1000.0, retries
            )
            self.completed += 1
            fused = payload.get("stats", {}).get("superblocks")
            if isinstance(fused, dict):
                self.superblocks["runs"] += 1
                for key in ("built", "invalidated", "hits"):
                    self.superblocks[key] += int(fused.get(key, 0))
            if self.registry is not None:
                self.registry.counter("serve.jobs.completed").inc()
            await self._send(job.context, payload)
        finally:
            self._in_flight -= 1
            self._slots.release()
            self._wakeup.set()

    # ------------------------------------------------------------------
    # transport: one task per connection
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._clients.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, error_envelope(
                        "ProtocolError",
                        f"request line exceeds {MAX_LINE_BYTES} bytes",
                        reason="too_large",
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = parse_request(line)
                except ProtocolError as exc:
                    await self._send(writer, error_envelope(
                        "ProtocolError", str(exc), reason=exc.reason
                    ))
                    continue
                if request["kind"] == "health":
                    await self._send(writer, self.health())
                    continue
                await self._admit(request, writer)
        except ConnectionError:
            pass
        except asyncio.CancelledError:
            # Shutdown-time cancellation from ``run``'s cleanup; finishing
            # normally keeps asyncio's streams done-callback quiet.
            pass
        finally:
            self._clients.discard(writer)
            if task is not None:
                self._handler_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    async def _admit(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        seq = self._seq
        self._seq += 1
        job_id = request.get("id") or f"job-{seq}"
        stamp = {"id": job_id, "seq": seq}
        if self.draining:
            await self._send(writer, error_envelope(
                "Draining",
                "server is draining; submit to another instance",
                reason="draining",
                job=stamp,
            ))
            return
        job = PendingJob(
            seq=seq,
            job_id=job_id,
            request=request,
            priority=priority_of(request),
            enqueued_at=perf_counter(),
            context=writer,
        )
        accepted, shed = self.queue.submit(job)
        if not accepted:
            if self.registry is not None:
                self.registry.counter("serve.jobs.rejected").inc()
            await self._send(writer, error_envelope(
                "QueueFull",
                f"admission queue at capacity "
                f"({self.queue.capacity} pending jobs)",
                reason="queue_full",
                job=stamp,
            ))
            return
        if self.registry is not None:
            self.registry.counter("serve.jobs.accepted").inc()
        if shed is not None:
            if self.registry is not None:
                self.registry.counter("serve.jobs.shed").inc()
            await self._send(shed.context, error_envelope(
                "Shed",
                "pending job shed for a higher-priority arrival under "
                "sustained overload",
                reason="shed",
                job=job_envelope(
                    shed.job_id,
                    shed.seq,
                    (perf_counter() - shed.enqueued_at) * 1000.0,
                    0.0,
                    0,
                ),
            ))
        self._wakeup.set()

    async def _send(
        self, writer: Optional[asyncio.StreamWriter], payload: dict
    ) -> None:
        """Best-effort response delivery: a vanished client never takes
        the server (or another client's job) down with it."""
        if writer is None or writer.is_closing():
            return
        try:
            writer.write(encode(payload))
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass

    # ------------------------------------------------------------------
    # health probe
    # ------------------------------------------------------------------

    def health(self) -> dict:
        uptime = 0.0
        if self.started_at is not None:
            uptime = monotonic() - self.started_at
        hits = self.superblocks["hits"]
        built = self.superblocks["built"]
        return {
            "kind": "health",
            "status": "draining" if self.draining else "ok",
            "uptime_s": round(uptime, 3),
            "queue": self.queue.snapshot(),
            "in_flight": self._in_flight,
            "completed": self.completed,
            "workers": self.pool.snapshot(),
            "superblocks": dict(
                self.superblocks,
                hit_rate=round((hits - built) / hits, 4) if hits else 0.0,
            ),
        }


class BackgroundServer:
    """A :class:`ReproServer` on a daemon thread, for tests and benches.

    Usage::

        with BackgroundServer(workers=2) as bg:
            client = ServeClient(host=bg.server.host, port=bg.server.port)
            ...

    Exiting the ``with`` block drains the server (every accepted job
    still completes) and joins the thread.
    """

    def __init__(self, **kwargs) -> None:
        self.server = ReproServer(**kwargs)
        self.exit_code: Optional[int] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )

    def _main(self) -> None:
        self.exit_code = asyncio.run(
            self.server.run(ready=lambda _s: self._ready.set())
        )

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve thread failed to come up within 30s")
        return self

    def drain(self, timeout: float = 60.0) -> None:
        self.server.request_drain()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError(f"serve thread did not drain within {timeout}s")

    def __exit__(self, *exc_info) -> None:
        self.drain()
