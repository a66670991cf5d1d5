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

This module is deliberately free of asyncio and sockets: it parses,
validates, and encodes dicts, so every protocol rule is unit-testable
without a running server.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

__all__ = [
    "JOB_KINDS",
    "LEGACY_OPTION_KEYS",
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

#: Top-level request keys that remain accepted as deprecated aliases for
#: the same-named ``options`` fields (pre-ExecOptions clients).
LEGACY_OPTION_KEYS = (
    "engine", "policy", "defense", "taint_labels", "max_instructions",
)


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


def _check_options(obj: dict) -> None:
    """Structural checks for a request's ``"options"`` object.

    Mirrors :class:`repro.api.ExecOptions` validation for the wire
    subset; a top-level legacy alias that duplicates an ``options``
    field is rejected so precedence is never ambiguous (the same rule
    ``Session`` applies to ``options=`` plus individual kwargs).
    """
    options = obj.get("options")
    if options is None:
        return
    _require(isinstance(options, dict), "'options' must be a JSON object")
    unknown = sorted(set(options) - set(OPTIONS_FIELDS))
    _require(not unknown,
             f"unknown options field(s) {unknown}; "
             f"choose from {sorted(OPTIONS_FIELDS)}")
    overlap = sorted(set(options) & set(obj) - {"options"})
    _require(not overlap,
             f"give {overlap} inside 'options' or at the top level, "
             f"not both")
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

    ``run`` and ``campaign`` requests may carry an ``"options"`` object
    (the wire form of :class:`repro.api.ExecOptions`, see
    :data:`OPTIONS_FIELDS`); the flat top-level keys in
    :data:`LEGACY_OPTION_KEYS` keep working as deprecated aliases.
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
        engine = obj.get("engine", "functional")
        _require(engine in ("functional", "pipeline"),
                 f"engine={engine!r} not in ('functional', 'pipeline')")
        _check_int(obj, "max_instructions", minimum=1)
        _check_number(obj, "deadline_s")
        _check_options(obj)
    elif kind == "campaign":
        source = _check_str(obj, "source")
        builtin = _check_str(obj, "builtin")
        _require((source is None) != (builtin is None),
                 "campaign needs exactly one of 'source' or 'builtin'")
        _check_str(obj, "stdin")
        _check_int(obj, "seed", minimum=0)
        _check_int(obj, "trials", minimum=1)
        _check_number(obj, "deadline_s")
        _check_options(obj)
    elif kind in ("experiment", "matrix"):
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
