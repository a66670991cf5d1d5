"""Wire protocol for the detection-as-a-service gateway (api layer).

The transport is newline-delimited JSON in both directions: a client
writes one request object per line, the server writes one response
object per line.  Responses are the repo's **unified result JSON**
(:func:`repro.api.validate_result_json`) -- the same ``{"kind",
"detected", "stats", "metrics"}`` payloads a :class:`repro.api.Session`
call returns in-process -- extended with a ``"job"`` envelope
(``{"id", "seq", "queue_ms", "exec_ms", "retries"}``) so a client can
correlate out-of-order completions and see what the scheduler did to its
job.  Failures are the uniform error envelope ``{"kind": "error",
"reason": <short-code>, "error": {"type", "message"}}``, which the
unified schema also accepts.

Execution knobs travel in one place: a request's ``"options"`` object,
the wire form of :class:`repro.api.ExecOptions` (:data:`OPTIONS_FIELDS`;
campaigns accept the :data:`CAMPAIGN_OPTIONS_FIELDS` subset).  An option
field given at the top level of a request is a ``bad_request``.

This module is deliberately free of asyncio and sockets: it parses,
validates, and encodes dicts, so every protocol rule is unit-testable
without a running server.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

__all__ = [
    "CAMPAIGN_OPTIONS_FIELDS",
    "JOB_KINDS",
    "MAX_LINE_BYTES",
    "OPTIONS_FIELDS",
    "PRIORITIES",
    "ProtocolError",
    "REQUEST_KINDS",
    "encode",
    "error_envelope",
    "job_envelope",
    "parse_request",
    "validate_request",
]

#: Request kinds that enqueue work on the pool.
JOB_KINDS = ("run", "campaign", "experiment", "matrix")

#: Every request kind the server understands (probes never enqueue).
REQUEST_KINDS = JOB_KINDS + ("health",)

#: Admission priorities: higher value wins a full queue (see
#: :class:`repro.serve.queue.AdmissionQueue` shedding rules).
PRIORITIES: Dict[str, int] = {"low": 0, "normal": 1, "high": 2}

#: Hard ceiling on one request line -- a client that streams an
#: unbounded line is cut off instead of growing the server's heap.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Experiment names a job may ask for (mirrors ``Session.run_experiment``).
EXPERIMENT_NAMES = (
    "fig1", "fig2", "table2", "table3", "table4", "sec54", "coverage",
    "matrix",
)


#: Fields a request's ``"options"`` object may carry -- the wire subset
#: of :class:`repro.api.ExecOptions` (observability and pool fan-out are
#: server-side concerns, so ``metrics``/``trace*``/``workers`` are not
#: accepted over the wire).
OPTIONS_FIELDS = (
    "engine", "policy", "defense", "taint_labels", "use_caches",
    "superblocks", "max_instructions",
)

#: The ``options`` fields a campaign honours.  Campaigns always run the
#: pointer-taintedness policy on the functional engine under their own
#: golden-run budget, so ``engine``/``policy``/``defense``/
#: ``max_instructions`` would be silently ignored; they are refused.
CAMPAIGN_OPTIONS_FIELDS = ("taint_labels", "use_caches", "superblocks")


class ProtocolError(ValueError):
    """A request the server refuses to enqueue.

    ``reason`` is the short machine-readable code surfaced in the error
    envelope (``bad_json``, ``bad_request``, ``queue_full``, ...).
    """

    def __init__(self, message: str, reason: str = "bad_request") -> None:
        super().__init__(message)
        self.reason = reason


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _check_str(obj: dict, key: str, required: bool = False) -> Optional[str]:
    value = obj.get(key)
    if value is None:
        _require(not required, f"{key!r} is required")
        return None
    _require(isinstance(value, str) and bool(value),
             f"{key!r} must be a non-empty string")
    return value


def _check_int(
    obj: dict, key: str, minimum: int, default: Optional[int] = None
) -> Optional[int]:
    value = obj.get(key, default)
    if value is None:
        return None
    _require(
        isinstance(value, int) and not isinstance(value, bool)
        and value >= minimum,
        f"{key!r} must be an int >= {minimum}",
    )
    return value


def _check_number(obj: dict, key: str) -> Optional[float]:
    value = obj.get(key)
    if value is None:
        return None
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and value > 0,
        f"{key!r} must be a number > 0",
    )
    return float(value)


def _check_options(obj: dict, allowed: tuple) -> None:
    """Structural checks for a request's ``"options"`` object.

    Mirrors :class:`repro.api.ExecOptions` validation for the wire
    subset ``allowed`` (what the request's job kind honours).  An option
    field at the top level of the request is refused rather than
    ignored, so a client never silently gets defaults.
    """
    misplaced = sorted(set(OPTIONS_FIELDS) & set(obj))
    _require(not misplaced,
             f"option field(s) {misplaced} go inside 'options', "
             f"not at the top level of the request")
    options = obj.get("options")
    if options is None:
        return
    _require(isinstance(options, dict), "'options' must be a JSON object")
    unknown = sorted(set(options) - set(allowed))
    _require(not unknown,
             f"options field(s) {unknown} not accepted by "
             f"{obj['kind']} jobs; choose from {sorted(allowed)}")
    engine = options.get("engine", "functional")
    _require(engine in ("functional", "pipeline"),
             f"options.engine={engine!r} not in ('functional', 'pipeline')")
    for flag in ("taint_labels", "use_caches", "superblocks"):
        value = options.get(flag)
        _require(value is None or isinstance(value, bool),
                 f"options.{flag} must be a bool")
    for key in ("policy", "defense"):
        _check_str(options, key)
    _check_int(options, "max_instructions", minimum=1)


def validate_request(obj: Any) -> dict:
    """Check one decoded request object; returns it (normalized).

    Raises :class:`ProtocolError` naming the first problem.  The checks
    are structural (types, enums, required fields) -- semantic failures
    (an unknown builtin workload, a MiniC compile error) surface later as
    job-level error envelopes, so one bad job never kills a connection.

    ``run`` requests may carry an ``"options"`` object with any of
    :data:`OPTIONS_FIELDS`, ``campaign`` requests one with
    :data:`CAMPAIGN_OPTIONS_FIELDS`; experiment jobs take none.
    """
    _require(isinstance(obj, dict), "request must be a JSON object")
    kind = obj.get("kind")
    _require(kind in REQUEST_KINDS,
             f"kind={kind!r} not in {REQUEST_KINDS}")
    _check_str(obj, "id")
    priority = obj.get("priority", "normal")
    _require(priority in PRIORITIES,
             f"priority={priority!r} not in {sorted(PRIORITIES)}")
    obj["priority"] = priority
    if kind == "run":
        source = _check_str(obj, "source")
        asm = _check_str(obj, "asm")
        _require((source is None) != (asm is None),
                 "run needs exactly one of 'source' (MiniC) or 'asm'")
        _check_str(obj, "stdin")
        argv = obj.get("argv", [])
        _require(
            isinstance(argv, list) and all(isinstance(a, str) for a in argv),
            "'argv' must be a list of strings",
        )
        _check_number(obj, "deadline_s")
        _check_options(obj, OPTIONS_FIELDS)
    elif kind == "campaign":
        source = _check_str(obj, "source")
        builtin = _check_str(obj, "builtin")
        _require((source is None) != (builtin is None),
                 "campaign needs exactly one of 'source' or 'builtin'")
        _check_str(obj, "stdin")
        _check_int(obj, "seed", minimum=0)
        _check_int(obj, "trials", minimum=1)
        _check_number(obj, "deadline_s")
        _check_options(obj, CAMPAIGN_OPTIONS_FIELDS)
    elif kind in ("experiment", "matrix"):
        _check_options(obj, ())
        name = obj.get("name", "matrix" if kind == "matrix" else None)
        _require(name in EXPERIMENT_NAMES,
                 f"experiment name={name!r} not in {EXPERIMENT_NAMES}")
        obj["name"] = name
    return obj


def parse_request(line: bytes) -> dict:
    """Decode one request line into a validated request dict."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line exceeds {MAX_LINE_BYTES} bytes", reason="too_large"
        )
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"not valid JSON: {exc}", reason="bad_json")
    return validate_request(obj)


def error_envelope(
    exc_type: str,
    message: str,
    reason: str = "error",
    job: Optional[dict] = None,
) -> dict:
    """The uniform failure payload (also used by the CLI under ``--json``).

    ``reason`` is a short machine-readable code (``queue_full``, ``shed``,
    ``draining``, ``worker_crash``, ``bad_request``, ...); ``error``
    carries the human-level type and message.  The shape validates
    against :func:`repro.api.validate_result_json`.
    """
    payload = {
        "kind": "error",
        "reason": reason,
        "error": {"type": exc_type, "message": message},
    }
    if job is not None:
        payload["job"] = dict(job)
    return payload


def job_envelope(
    job_id: str, seq: int, queue_ms: float, exec_ms: float, retries: int
) -> dict:
    """The per-job accounting block attached to every served response."""
    return {
        "id": job_id,
        "seq": seq,
        "queue_ms": round(queue_ms, 3),
        "exec_ms": round(exec_ms, 3),
        "retries": retries,
    }


def encode(payload: dict) -> bytes:
    """One response line: compact, key-sorted JSON plus the newline."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode() + b"\n"
