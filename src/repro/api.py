"""Stable facade over the whole reproduction: ``repro.api.Session``.

Before this module, the repo had four divergent entry points -- the
replay harness (:func:`repro.attacks.replay.run_executable`), the fault
campaign runner (:class:`repro.fault.campaign.FaultCampaign`), the evalx
experiment runners, and the CLI's internal plumbing -- each with its own
keyword conventions and its own ad-hoc result shape.  :class:`Session`
unifies them:

* one place to pick the **policy** (by name or instance), the **engine**
  (``"functional"`` or ``"pipeline"``), and the cache model -- all
  carried by one validated :class:`ExecOptions` bundle
  (``Session(options=ExecOptions(...))``); the flat per-call kwargs the
  repo grew up with keep working as deprecated aliases routed through a
  single normalization site (:func:`_normalize_options`), each warning
  once per process;
* one place to attach **observability**: a
  :class:`~repro.obs.metrics.MetricsRegistry` (``metrics=True`` or your
  own registry) and a structured **trace** (ring buffer and/or streaming
  JSONL, see :class:`TraceConfig`);
* one **result family**: every ``run_*`` method returns an object with a
  ``to_json()`` that validates against the unified schema
  (:func:`validate_result_json`) -- ``{"kind", "detected", "stats",
  "metrics"}`` plus kind-specific extras.

Quickstart::

    from repro.api import ExecOptions, Session

    session = Session(options=ExecOptions(policy="paper", metrics=True))
    result = session.run_minic(VICTIM_SOURCE, stdin=b"a" * 64)
    assert result.detected
    print(result.to_json()["metrics"]["counters"]["run.instructions"])

The pre-facade entry points (``repro.run_minic``/``run_executable``, the
raw ``FaultCampaign``) remain importable as thin, stable shims; new code
should use the facade.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, Optional, Sequence, Union

from .attacks.replay import RunResult, run_executable as _run_executable
from .defenses.base import Detector
from .defenses.registry import DEFENSES
from .defenses.policy import (
    ControlDataPolicy,
    DetectionPolicy,
    NullPolicy,
    PointerTaintPolicy,
)
from .fault.campaign import CampaignConfig, CampaignResult, FaultCampaign
from .fault.workloads import Workload, builtin_workload
from .isa.program import Executable
from .libc.build import build_program
from .obs import MetricsRegistry, Observer, TraceRecorder

__all__ = [
    "ENGINES",
    "ExecOptions",
    "ExperimentResult",
    "LIMIT_REASONS",
    "POLICIES",
    "RESULT_KINDS",
    "Session",
    "TraceConfig",
    "resolve_policy",
    "validate_result_json",
]

#: Policy aliases accepted everywhere a policy can be named (the CLI's
#: ``--policy`` choices come from here too).
POLICIES: Dict[str, Callable[[], DetectionPolicy]] = {
    "paper": PointerTaintPolicy,
    "pointer-taintedness": PointerTaintPolicy,
    "control-data": ControlDataPolicy,
    "none": NullPolicy,
}

#: Execution engines a session can drive.
ENGINES = ("functional", "pipeline")

#: The unified result family.
RESULT_KINDS = ("run", "campaign", "experiment")

#: Watchdog limit reasons a structured ``stats.limit`` block may carry.
LIMIT_REASONS = ("instructions", "wallclock")


def resolve_policy(
    policy: Union[None, str, DetectionPolicy, Callable[[], DetectionPolicy]],
) -> DetectionPolicy:
    """Turn a policy spec (alias, instance, factory, None) into an instance."""
    if policy is None:
        return PointerTaintPolicy()
    if isinstance(policy, str):
        try:
            return POLICIES[policy]()
        except KeyError:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {sorted(POLICIES)}"
            ) from None
    if isinstance(policy, DetectionPolicy):
        return policy
    if callable(policy):
        return policy()
    raise TypeError(f"cannot resolve policy from {policy!r}")


@dataclass
class TraceConfig:
    """How a session records traces.

    ``path`` streams every record to a JSONL file as it fires (constant
    memory for arbitrarily long runs); the bounded ring of the last
    ``limit`` records is always kept and is exposed as
    ``session.last_trace``.  ``events`` follows the
    :func:`repro.obs.trace.resolve_event_types` grammar (None = every
    event type except ``InstructionRetired``; ``"all"`` = everything).
    """

    path: Optional[str] = None
    events: Union[None, str, Sequence] = None
    limit: int = 65536

    @classmethod
    def coerce(
        cls, value: Union[None, bool, str, "TraceConfig"]
    ) -> Optional["TraceConfig"]:
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, str):
            return cls(path=value)
        if isinstance(value, cls):
            return value
        raise TypeError(f"cannot build a TraceConfig from {value!r}")


#: Sentinel distinguishing "kwarg not passed" from any real value, so the
#: normalization site only overrides options fields the caller spelled out.
_UNSET = object()

#: Legacy kwarg names that have already warned this process (the
#: acceptance contract is "warn exactly once", not once per call site).
_warned_legacy_kwargs: set = set()


def _warn_legacy_kwarg(name: str) -> None:
    if name in _warned_legacy_kwargs:
        return
    _warned_legacy_kwargs.add(name)
    warnings.warn(
        f"the {name}= kwarg is a deprecated alias; pass "
        f"options=ExecOptions(...) instead",
        DeprecationWarning,
        stacklevel=4,
    )


@dataclass(frozen=True)
class ExecOptions:
    """Every execution knob, validated once, in one bundle.

    Before this class, the same knobs were spelled as drifting per-call
    kwargs across :class:`Session`, the replay harness
    (``use_pipeline=``), :class:`~repro.fault.campaign.CampaignConfig`,
    the CLI flags, and the serve request schema.  ``ExecOptions`` is the
    one shape they all normalize into; the legacy kwargs keep working as
    deprecated aliases routed through :func:`_normalize_options` (and
    warn once per process).

    Fields:
        engine: ``"functional"`` or ``"pipeline"`` (the same execution,
            plus five-stage cycle accounting in the result).  Runs only:
            campaigns never report cycles.
        policy: detection policy alias, instance, or factory.
        defense: pluggable defense name or built
            :class:`~repro.defenses.Detector`.
        taint_labels: run the taint plane in provenance-label mode.
        use_caches: route data accesses through the L1/L2 hierarchy.
        superblocks: enable the fused superblock dispatch tier (on by
            default; results are byte-identical either way -- the toggle
            exists for benchmarking and digest-invariance tests).
        metrics: ``True`` for a fresh registry, or a shared
            :class:`MetricsRegistry`.
        trace: ``True`` (ring only), a JSONL path, or a
            :class:`TraceConfig` (the coarse legacy spelling).
        trace_out: JSONL path for the streamed trace (overrides
            ``trace``'s path).
        trace_events: event-type selection for the trace (see
            :class:`TraceConfig`).
        workers: process-pool fan-out for campaigns/experiments
            (``0`` = one per core).
        max_instructions: per-run watchdog budget.
    """

    engine: str = "functional"
    policy: Union[None, str, DetectionPolicy, Callable] = "paper"
    defense: Union[None, str, Detector] = None
    taint_labels: bool = False
    use_caches: bool = False
    superblocks: bool = True
    metrics: Union[None, bool, MetricsRegistry] = None
    trace: Union[None, bool, str, TraceConfig] = None
    trace_out: Optional[str] = None
    trace_events: Union[None, str, Sequence] = None
    workers: int = 1
    max_instructions: int = 20_000_000

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose {ENGINES}"
            )
        if isinstance(self.defense, str) and self.defense not in DEFENSES:
            raise ValueError(
                f"unknown defense {self.defense!r}; choose from "
                f"{sorted(DEFENSES.names())}"
            )
        if isinstance(self.policy, str) and self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from "
                f"{sorted(POLICIES)}"
            )
        for flag in ("taint_labels", "use_caches", "superblocks"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag} must be a bool")
        if not (
            isinstance(self.workers, int)
            and not isinstance(self.workers, bool)
            and self.workers >= 0
        ):
            raise ValueError("workers must be an int >= 0 (0 = one per core)")
        if not (
            isinstance(self.max_instructions, int)
            and not isinstance(self.max_instructions, bool)
            and self.max_instructions >= 1
        ):
            raise ValueError("max_instructions must be an int >= 1")
        if self.trace_out is not None and not isinstance(self.trace_out, str):
            raise ValueError("trace_out must be a path string or None")
        TraceConfig.coerce(self.trace)  # raises on a bogus trace spec

    @classmethod
    def coerce(cls, value: Union[None, dict, "ExecOptions"]) -> "ExecOptions":
        """Accept an instance, a plain dict of fields, or None (defaults)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            known = {f.name for f in fields(cls)}
            unknown = sorted(set(value) - known)
            if unknown:
                raise ValueError(
                    f"unknown ExecOptions field(s) {unknown}; "
                    f"choose from {sorted(known)}"
                )
            return cls(**value)
        raise TypeError(f"cannot build ExecOptions from {value!r}")

    def merged(self, **overrides: Any) -> "ExecOptions":
        """A copy with ``overrides`` applied (re-validated)."""
        return replace(self, **overrides) if overrides else self

    def trace_config(self) -> Optional[TraceConfig]:
        """Resolve the trace trio into one :class:`TraceConfig` (or None)."""
        base = TraceConfig.coerce(self.trace)
        if self.trace_out is None and self.trace_events is None:
            return base
        if base is None:
            base = TraceConfig()
        return TraceConfig(
            path=self.trace_out if self.trace_out is not None else base.path,
            events=(
                self.trace_events
                if self.trace_events is not None
                else base.events
            ),
            limit=base.limit,
        )


def _normalize_options(
    options: Union[None, dict, ExecOptions],
    legacy: Dict[str, Any],
    base: Optional[ExecOptions] = None,
    new: Optional[Dict[str, Any]] = None,
) -> ExecOptions:
    """THE one legacy-kwarg normalization site.

    Every entry point -- ``Session()``, ``run_minic``/``run_executable``,
    ``run_campaign``, ``run_experiment``, the CLI, the serve workers --
    funnels through here, so alias translation and deprecation warnings
    cannot drift between layers.

    ``options`` wins wholesale when given; mixing it with per-call kwargs
    raises, because a silent merge would make precedence ambiguous.
    Otherwise each ``legacy`` kwarg warns once per process
    (:class:`DeprecationWarning`) and overrides ``base`` (the session's
    options, or the defaults).  ``use_pipeline`` is translated onto
    ``engine``; a legacy ``trace=`` spec replaces the whole trace trio.
    ``new`` carries the non-deprecated spellings (``superblocks=``),
    which override without warning.
    """
    new = new or {}
    if options is not None:
        if legacy or new:
            mixed = sorted(list(legacy) + list(new))
            raise ValueError(
                f"pass either options= or individual kwargs, not both "
                f"(got options= plus {mixed})"
            )
        return ExecOptions.coerce(options)
    opts = base if base is not None else ExecOptions()
    overrides: Dict[str, Any] = {}
    for name, value in legacy.items():
        _warn_legacy_kwarg(name)
        if name == "use_pipeline":
            overrides["engine"] = "pipeline" if value else "functional"
        elif name == "trace":
            overrides.update(trace=value, trace_out=None, trace_events=None)
        else:
            overrides[name] = value
    overrides.update(new)
    return opts.merged(**overrides)


@dataclass
class ExperimentResult:
    """One evalx artifact run through the facade."""

    name: str
    data: Any
    report: str = ""
    detected: bool = False
    stats: Dict[str, Any] = field(default_factory=dict)
    metrics: Optional[dict] = None
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "kind": "experiment",
            "name": self.name,
            "detected": self.detected,
            "stats": dict(self.stats, elapsed_seconds=round(self.elapsed, 4)),
            "metrics": self.metrics if self.metrics is not None else {},
        }


def _validate_error_envelope(payload: dict, problems: list) -> None:
    """Checks for the ``{"kind": "error", "error": {...}}`` family."""
    error = payload.get("error")
    if not isinstance(error, dict):
        problems.append("'error' must be a dict with 'type' and 'message'")
        return
    if not (isinstance(error.get("type"), str) and error["type"]):
        problems.append("error.type must be a non-empty str")
    if not isinstance(error.get("message"), str):
        problems.append("error.message must be a str")
    reason = payload.get("reason")
    if reason is not None and not (isinstance(reason, str) and reason):
        problems.append("'reason' must be a non-empty str when present")


def _validate_job_envelope(job: Any, problems: list) -> None:
    """Checks for the per-job accounting block served responses carry."""
    if job is None:
        return
    if not isinstance(job, dict):
        problems.append("'job' must be a dict")
        return
    if not (isinstance(job.get("id"), str) and job["id"]):
        problems.append("job.id must be a non-empty str")
    for key in ("queue_ms", "exec_ms"):
        if key not in job:
            continue
        value = job.get(key)
        if not (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value >= 0
        ):
            problems.append(f"job.{key} must be a number >= 0")
    retries = job.get("retries")
    if retries is not None and not (
        isinstance(retries, int)
        and not isinstance(retries, bool)
        and retries >= 0
    ):
        problems.append("job.retries must be an int >= 0")


def validate_result_json(payload: Any) -> dict:
    """Assert ``payload`` matches the unified result schema; return it.

    Required shape (extras are allowed)::

        {"kind": "run" | "campaign" | "experiment",
         "detected": <bool>,
         "stats": <dict>,
         "metrics": <dict>}

    When ``stats`` carries a ``"provenance"`` list (label-mode runs),
    each entry must be a dict with the :class:`repro.taint.TaintLabel`
    fields: ``source_kind`` (non-empty str), ``offset_range`` (pair of
    ints), ``insn_index`` (int), ``describe`` (str); ``syscall`` and
    ``fd`` may be null.

    When ``stats`` carries a ``"parallel"`` dict (pool-executed
    campaigns), it must have ``workers`` (int >= 1), ``chunks``
    (int >= 1), and ``wall_s`` (number >= 0).

    When ``stats`` carries a ``"defenses"`` dict (runs with a pluggable
    defense attached), it must be non-empty and map defense names
    (non-empty str) to summary dicts each carrying ``alerts`` (int >= 0)
    and ``checks`` (int >= 0); extra summary keys are allowed.

    Two service-era extensions are also part of the schema:

    * ``{"kind": "error", "error": {"type", "message"}}`` -- the uniform
      failure envelope every CLI ``--json`` failure and every
      ``repro serve`` rejection uses.  ``type`` must be a non-empty
      string, ``message`` a string; extras (``reason``, ``job``) are
      allowed, and the run-result keys are not required.
    * a ``"job"`` dict on any payload (responses served over the
      gateway) with ``id`` (non-empty str), ``queue_ms``/``exec_ms``
      (numbers >= 0), and ``retries`` (int >= 0).

    When ``stats`` carries a ``"limit"`` dict (watchdog-terminated
    runs), its ``reason`` must be one of :data:`LIMIT_REASONS` and
    ``instructions`` an int >= 0.
    """
    problems = []
    if not isinstance(payload, dict):
        raise ValueError(f"result payload must be a dict, got {type(payload)}")
    kind = payload.get("kind")
    if kind == "error":
        _validate_error_envelope(payload, problems)
        _validate_job_envelope(payload.get("job"), problems)
        if problems:
            raise ValueError(
                "result does not match the unified schema: "
                + "; ".join(problems)
            )
        return payload
    if kind not in RESULT_KINDS:
        problems.append(f"kind={kind!r} not in {RESULT_KINDS + ('error',)}")
    _validate_job_envelope(payload.get("job"), problems)
    if not isinstance(payload.get("detected"), bool):
        problems.append("'detected' must be a bool")
    if not isinstance(payload.get("stats"), dict):
        problems.append("'stats' must be a dict")
    if not isinstance(payload.get("metrics"), dict):
        problems.append("'metrics' must be a dict")
    provenance = (
        payload["stats"].get("provenance")
        if isinstance(payload.get("stats"), dict)
        else None
    )
    if provenance is not None:
        if not isinstance(provenance, list) or not provenance:
            problems.append("'stats.provenance' must be a non-empty list")
        else:
            for i, entry in enumerate(provenance):
                where = f"stats.provenance[{i}]"
                if not isinstance(entry, dict):
                    problems.append(f"{where} must be a dict")
                    continue
                if not (
                    isinstance(entry.get("source_kind"), str)
                    and entry["source_kind"]
                ):
                    problems.append(
                        f"{where}.source_kind must be a non-empty str"
                    )
                rng = entry.get("offset_range")
                if not (
                    isinstance(rng, (list, tuple))
                    and len(rng) == 2
                    and all(isinstance(x, int) for x in rng)
                ):
                    problems.append(
                        f"{where}.offset_range must be a pair of ints"
                    )
                if not isinstance(entry.get("insn_index"), int):
                    problems.append(f"{where}.insn_index must be an int")
                if not isinstance(entry.get("describe"), str):
                    problems.append(f"{where}.describe must be a str")
                for optional in ("syscall", "fd"):
                    value = entry.get(optional)
                    if value is not None and not isinstance(
                        value, (str, int)
                    ):
                        problems.append(
                            f"{where}.{optional} must be null, str, or int"
                        )
    parallel = (
        payload["stats"].get("parallel")
        if isinstance(payload.get("stats"), dict)
        else None
    )
    if parallel is not None:
        if not isinstance(parallel, dict):
            problems.append("'stats.parallel' must be a dict")
        else:
            for key, minimum in (("workers", 1), ("chunks", 1)):
                value = parallel.get(key)
                if not (
                    isinstance(value, int)
                    and not isinstance(value, bool)
                    and value >= minimum
                ):
                    problems.append(
                        f"stats.parallel.{key} must be an int >= {minimum}"
                    )
            wall = parallel.get("wall_s")
            if not (
                isinstance(wall, (int, float))
                and not isinstance(wall, bool)
                and wall >= 0
            ):
                problems.append(
                    "stats.parallel.wall_s must be a number >= 0"
                )
    limit = (
        payload["stats"].get("limit")
        if isinstance(payload.get("stats"), dict)
        else None
    )
    if limit is not None:
        if not isinstance(limit, dict):
            problems.append("'stats.limit' must be a dict")
        else:
            if limit.get("reason") not in LIMIT_REASONS:
                problems.append(
                    f"stats.limit.reason must be one of {LIMIT_REASONS}"
                )
            insns = limit.get("instructions")
            if not (
                isinstance(insns, int)
                and not isinstance(insns, bool)
                and insns >= 0
            ):
                problems.append(
                    "stats.limit.instructions must be an int >= 0"
                )
    defenses = (
        payload["stats"].get("defenses")
        if isinstance(payload.get("stats"), dict)
        else None
    )
    if defenses is not None:
        if not isinstance(defenses, dict) or not defenses:
            problems.append("'stats.defenses' must be a non-empty dict")
        else:
            for name, summary in defenses.items():
                where = f"stats.defenses[{name!r}]"
                if not (isinstance(name, str) and name):
                    problems.append(
                        "stats.defenses keys must be non-empty strings"
                    )
                if not isinstance(summary, dict):
                    problems.append(f"{where} must be a dict")
                    continue
                for key in ("alerts", "checks"):
                    value = summary.get(key)
                    if not (
                        isinstance(value, int)
                        and not isinstance(value, bool)
                        and value >= 0
                    ):
                        problems.append(
                            f"{where}.{key} must be an int >= 0"
                        )
    if problems:
        raise ValueError(
            "result does not match the unified schema: " + "; ".join(problems)
        )
    return payload


class Session:
    """The stable entry point for everything this repo can run.

    The preferred construction is one validated options bundle::

        Session(options=ExecOptions(policy="paper", metrics=True))

    Every individual kwarg below keeps working as a **deprecated alias**
    (it warns once per process and routes through the same
    :func:`_normalize_options` site), so pre-ExecOptions callers and
    tests are untouched.  Passing ``options=`` together with individual
    kwargs raises.

    Args:
        policy: detection policy -- alias (``"paper"``,
            ``"control-data"``, ``"none"``), instance, or factory.
        engine: ``"functional"`` or ``"pipeline"`` (the same run plus
            five-stage cycle accounting).
        use_caches: route data accesses through the taint-carrying L1/L2
            hierarchy.
        metrics: ``True`` for a fresh :class:`MetricsRegistry`, or pass
            a registry to share one across sessions.  Counters accumulate
            across this session's runs.
        trace: ``True`` (ring only), a JSONL path, or a
            :class:`TraceConfig`.
        max_instructions: default per-run watchdog budget.
        taint_labels: run the taint plane in **label mode** -- every
            external-input copy-in is tagged with a provenance label
            (``read(fd=4) bytes 96..99``) and detection alerts carry the
            tainting input's byte ranges (``alert.provenance``, surfaced
            in ``to_json()["stats"]["provenance"]``).  Detection verdicts
            and statistics are identical to the default bit mode.
        defense: pluggable defense to attach to every run -- a registry
            name (``"taintedness"``, ``"shadow-stack"``, ``"pac"``) or a
            built :class:`repro.defenses.Detector`.  With the session's
            default ``policy`` the machine runs under the defense's own
            default policy (comparators run unprotected so the inline
            taintedness check cannot preempt them); an explicit policy
            overrides that.
        superblocks: enable the fused superblock dispatch tier
            (default on; results are byte-identical either way).  Not a
            legacy alias -- never warns.
        workers: default process-pool fan-out for campaigns and
            experiments.  Not a legacy alias.
        trace_out / trace_events: the flat trace spellings (the CLI's
            ``--trace-out``/``--trace-events``).  Not legacy aliases.
        options: an :class:`ExecOptions` (or a dict of its fields)
            carrying all of the above in one validated bundle.
    """

    def __init__(
        self,
        policy: Union[None, str, DetectionPolicy, Callable] = _UNSET,
        engine: str = _UNSET,
        use_caches: bool = _UNSET,
        metrics: Union[None, bool, MetricsRegistry] = _UNSET,
        trace: Union[None, bool, str, TraceConfig] = _UNSET,
        max_instructions: int = _UNSET,
        taint_labels: bool = _UNSET,
        defense: Union[None, str, Detector] = _UNSET,
        *,
        superblocks: bool = _UNSET,
        workers: int = _UNSET,
        trace_out: Optional[str] = _UNSET,
        trace_events: Union[None, str, Sequence] = _UNSET,
        options: Union[None, dict, ExecOptions] = None,
    ) -> None:
        legacy = {
            name: value
            for name, value in (
                ("policy", policy),
                ("engine", engine),
                ("use_caches", use_caches),
                ("metrics", metrics),
                ("trace", trace),
                ("max_instructions", max_instructions),
                ("taint_labels", taint_labels),
                ("defense", defense),
            )
            if value is not _UNSET
        }
        new = {
            name: value
            for name, value in (
                ("superblocks", superblocks),
                ("workers", workers),
                ("trace_out", trace_out),
                ("trace_events", trace_events),
            )
            if value is not _UNSET
        }
        opts = _normalize_options(options, legacy, new=new)
        #: The session's normalized :class:`ExecOptions` bundle.
        self.options = opts
        self.policy_spec = opts.policy
        self.defense = opts.defense
        self.engine = opts.engine
        self.use_caches = opts.use_caches
        self.taint_labels = opts.taint_labels
        self.superblocks = opts.superblocks
        self.workers = opts.workers
        metrics_value = opts.metrics
        if metrics_value is True:
            metrics_value = MetricsRegistry()
        elif metrics_value is False:
            metrics_value = None
        self.metrics: Optional[MetricsRegistry] = metrics_value
        self.trace = opts.trace_config()
        self.max_instructions = opts.max_instructions
        #: The most recent run's trace recorder (ring buffer inspection).
        self.last_trace: Optional[TraceRecorder] = None
        self._trace_paths_opened: set = set()

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------

    def _open_trace_stream(self):
        if self.trace is None or self.trace.path is None:
            return None
        # First run truncates; later runs of the same session append, so
        # one JSONL file can hold a whole session's stream.
        mode = "a" if self.trace.path in self._trace_paths_opened else "w"
        self._trace_paths_opened.add(self.trace.path)
        return open(self.trace.path, mode, encoding="utf-8")

    def _instrument(self, sim):
        """Attach observer + tracer to a machine; returns a finalizer.

        The finalizer (called with the finished result, or None) stops
        the wall timer, harvests post-run statistics, detaches all
        subscriptions, closes the trace stream, and stamps the metrics
        dump onto the result.
        """
        observer = None
        started = None
        if self.metrics is not None:
            observer = Observer(self.metrics).attach(sim)
            started = time.perf_counter()
        tracer = None
        stream = None
        if self.trace is not None:
            stream = self._open_trace_stream()
            tracer = TraceRecorder(
                events=self.trace.events,
                limit=self.trace.limit,
                stream=stream,
            ).attach(sim.events)
            self.last_trace = tracer

        def finalize(result=None) -> None:
            if observer is not None:
                self.metrics.timer("run.wall_seconds").add(
                    time.perf_counter() - started
                )
                observer.harvest(sim, getattr(result, "pstats", None))
                observer.detach()
            if tracer is not None:
                tracer.detach()
            if stream is not None:
                stream.close()
            if result is not None and self.metrics is not None:
                result.metrics = self.metrics.to_dict()

        return finalize

    # ------------------------------------------------------------------
    # run: single executions (replaces ad-hoc run_minic/run_executable)
    # ------------------------------------------------------------------

    #: ``run_*`` kwargs that are deprecated aliases for ExecOptions
    #: fields (``use_pipeline`` is the pre-ExecOptions engine spelling).
    _RUN_LEGACY = (
        "use_pipeline", "use_caches", "taint_labels", "max_instructions",
        "defense",
    )

    def run_executable(
        self,
        exe: Executable,
        policy: Union[None, str, DetectionPolicy] = None,
        *,
        options: Union[None, dict, ExecOptions] = None,
        **kwargs: Any,
    ) -> RunResult:
        """Run a built executable; returns a :class:`RunResult`.

        Keyword arguments (``stdin``, ``argv``, ``clients``,
        ``filesystem``, ``subscribers``, ``record_events``, ...) are the
        replay harness's.  Execution knobs come from the session's
        :class:`ExecOptions`; a per-call ``options=`` replaces them for
        this run, and the pre-ExecOptions per-call kwargs
        (``use_pipeline``, ``use_caches``, ``taint_labels``,
        ``max_instructions``, ``defense``) keep working as deprecated
        aliases.
        """
        legacy = {
            name: kwargs.pop(name)
            for name in self._RUN_LEGACY
            if name in kwargs
        }
        if legacy.get("defense", _UNSET) is None:
            # defense=None always meant "inherit the session default".
            legacy.pop("defense", None)
        new = {}
        if "superblocks" in kwargs:
            new["superblocks"] = kwargs.pop("superblocks")
        opts = _normalize_options(options, legacy, base=self.options, new=new)
        kwargs["max_instructions"] = opts.max_instructions
        kwargs["use_caches"] = opts.use_caches
        kwargs["use_pipeline"] = opts.engine == "pipeline"
        kwargs["taint_labels"] = opts.taint_labels
        kwargs["superblocks"] = opts.superblocks
        defense = opts.defense
        if policy is not None:
            resolved = resolve_policy(policy)
        elif defense is not None and opts.policy == "paper":
            # Let the replay harness pick the defense's default policy
            # (NullPolicy for the comparators).
            resolved = None
        else:
            resolved = resolve_policy(opts.policy)
        return _run_executable(
            exe, resolved, instrument=self._instrument, defense=defense,
            **kwargs
        )

    def run_minic(
        self,
        source: str,
        policy: Union[None, str, DetectionPolicy] = None,
        opt_level: int = 0,
        **kwargs: Any,
    ) -> RunResult:
        """Compile a MiniC program against the libc and run it.

        ``opt_level`` selects the MiniC backend: 0 is the legacy oracle
        codegen, 1 the IR optimization pipeline (same verdicts, fewer
        dynamic instructions).
        """
        return self.run_executable(
            build_program(source, opt_level=opt_level), policy, **kwargs
        )

    # ------------------------------------------------------------------
    # campaign: seeded fault injection (replaces raw FaultCampaign use)
    # ------------------------------------------------------------------

    def run_campaign(
        self,
        source: Optional[str] = None,
        *,
        builtin: Optional[str] = None,
        workload: Optional[Workload] = None,
        name: Optional[str] = None,
        stdin: bytes = b"",
        argv: Sequence[str] = (),
        schedule: Optional[Sequence] = None,
        options: Union[None, dict, ExecOptions] = None,
        **config_kwargs: Any,
    ) -> CampaignResult:
        """Run a fault-injection campaign; returns a
        :class:`CampaignResult`.

        Exactly one of ``source`` (MiniC text), ``builtin`` (workload
        name), or ``workload`` must be given.  ``config_kwargs`` feed
        :class:`CampaignConfig` (``seed``, ``trials``, ``recovery``,
        ``kinds``, ...).  Execution knobs (``use_caches``,
        ``taint_labels``, ``superblocks``, ``workers``) come from the
        session's :class:`ExecOptions` or a per-call ``options=``; the
        flat spellings keep working as deprecated aliases.
        ``workers=N`` runs the trials on the :mod:`repro.parallel`
        process pool (``0`` = one worker per core) with a byte-identical
        digest; the result then carries a ``stats.parallel`` summary.
        """
        given = [x is not None for x in (source, builtin, workload)]
        if sum(given) != 1:
            raise ValueError(
                "run_campaign needs exactly one of source=, builtin=, "
                "workload="
            )
        if builtin is not None:
            workload = builtin_workload(builtin)
        elif source is not None:
            workload = Workload(
                name=name or "<minic>",
                source=source,
                stdin=stdin,
                argv=tuple(argv),
            )
        legacy = {
            key: config_kwargs.pop(key)
            for key in ("use_caches", "taint_labels", "workers")
            if key in config_kwargs
        }
        new = {}
        if "superblocks" in config_kwargs:
            new["superblocks"] = config_kwargs.pop("superblocks")
        opts = _normalize_options(options, legacy, base=self.options, new=new)
        config_kwargs["use_caches"] = opts.use_caches
        config_kwargs["taint_labels"] = opts.taint_labels
        config_kwargs["superblocks"] = opts.superblocks
        config_kwargs["workers"] = opts.workers
        config = CampaignConfig(**config_kwargs)

        finalizers = []

        def instrument(sim) -> None:
            # A rebuild (reuse_snapshots=False) brings a fresh machine;
            # move the observability wiring over to it.
            while finalizers:
                finalizers.pop()(None)
            finalizers.append(self._instrument(sim))

        needs_instrument = self.metrics is not None or self.trace is not None
        campaign = FaultCampaign(
            workload,
            config,
            schedule=schedule,
            instrument=instrument if needs_instrument else None,
            registry=self.metrics,
        )
        result = campaign.run()
        while finalizers:
            finalizers.pop()(None)
        if self.metrics is not None:
            reg = self.metrics
            reg.counter("campaign.runs").inc()
            reg.gauge("campaign.trials_per_second").set(
                round(result.trials_per_second, 2)
            )
            result.metrics = reg.to_dict()
        return result

    # ------------------------------------------------------------------
    # experiment: the paper's tables and figures (evalx facade)
    # ------------------------------------------------------------------

    def run_experiment(
        self,
        name: str,
        render: bool = True,
        workers: Optional[int] = None,
        *,
        options: Union[None, dict, ExecOptions] = None,
    ) -> ExperimentResult:
        """Run one paper artifact; returns an :class:`ExperimentResult`.

        ``name`` is an evalx artifact key (``fig1``, ``fig2``,
        ``table2``, ``table3``, ``table4``, ``sec54``, ``coverage``,
        ``matrix``).
        With ``render=True`` the paper-style text report is included.
        ``workers=N`` (a deprecated alias for
        ``options=ExecOptions(workers=N)``; the session's options supply
        the default) fans row-independent artifacts out to the
        :mod:`repro.parallel` process pool (``0`` = one per core);
        rendered tables are byte-identical to serial runs.  ``fig1``
        (static data) and ``sec54`` (wall-clock measurement) always run
        serially.  When the session has a registry, the workload runs
        harvest into it under the same metric names every other harness
        uses, plus an ``experiment.<name>.seconds`` timer.
        """
        from .evalx import experiments as ex

        adapters = {
            "fig1": self._exp_fig1,
            "fig2": self._exp_fig2,
            "table2": self._exp_table2,
            "table3": self._exp_table3,
            "table4": self._exp_table4,
            "sec54": self._exp_sec54,
            "coverage": self._exp_coverage,
            "matrix": self._exp_matrix,
        }
        if name not in adapters:
            raise ValueError(
                f"unknown experiment {name!r}; choose from {sorted(adapters)}"
            )
        legacy = {} if workers is None else {"workers": workers}
        opts = _normalize_options(options, legacy, base=self.options)
        workers = opts.workers
        timer = (
            self.metrics.timer(f"experiment.{name}.seconds").start()
            if self.metrics is not None
            else None
        )
        start = time.perf_counter()
        result = adapters[name](ex, workers)
        result.elapsed = time.perf_counter() - start
        if timer is not None:
            timer.stop()
        if render:
            result.report = {
                "fig1": ex.report_fig1,
                "fig2": ex.report_fig2,
                "table2": ex.report_table2,
                "table3": ex.report_table3,
                "table4": ex.report_table4,
                "sec54": ex.report_sec54,
                "coverage": ex.report_coverage_matrix,
                "matrix": ex.report_defense_matrix,
            }[name](workers=workers)
        if self.metrics is not None:
            result.metrics = self.metrics.to_dict()
        return result

    # -- per-artifact adapters ------------------------------------------

    def _exp_fig1(self, ex, workers: int = 1) -> ExperimentResult:
        data = ex.run_fig1()
        return ExperimentResult(
            name="fig1",
            data=data,
            stats={
                "memory_corruption_share_pct": round(data["memory_share"], 1),
                "advisory_classes": len(data["rows"]),
            },
        )

    def _exp_fig2(self, ex, workers: int = 1) -> ExperimentResult:
        records = ex.run_synthetic_detections(
            registry=self.metrics, workers=workers
        )
        detected = sum(1 for r in records if r.detected)
        return ExperimentResult(
            name="fig2",
            data=records,
            detected=detected > 0,
            stats={
                "scenarios": len(records),
                "detected": detected,
                "outcomes": {r.scenario: r.outcome for r in records},
            },
        )

    def _exp_table2(self, ex, workers: int = 1) -> ExperimentResult:
        data = ex.run_table2(registry=self.metrics, workers=workers)
        result = data["result"]
        return ExperimentResult(
            name="table2",
            data=data,
            detected=result.detected,
            stats={
                "detected": result.detected,
                "alert": str(result.alert) if result.alert else None,
                "uid_address": data["uid_address"],
                "unprotected_outcome": data["unprotected"].outcome,
            },
        )

    def _exp_table3(self, ex, workers: int = 1) -> ExperimentResult:
        rows = ex.run_table3(registry=self.metrics, workers=workers)
        alerts = sum(r.alerts for r in rows)
        return ExperimentResult(
            name="table3",
            data=rows,
            detected=alerts > 0,  # any alert here is a *false positive*
            stats={
                "workloads": len(rows),
                "instructions": sum(r.instructions for r in rows),
                "false_positives": alerts,
            },
        )

    def _exp_table4(self, ex, workers: int = 1) -> ExperimentResult:
        rows = ex.run_table4(workers=workers)
        return ExperimentResult(
            name="table4",
            data=rows,
            detected=any(r.detected for r in rows),
            stats={
                "scenarios": len(rows),
                "escaped": sum(1 for r in rows if not r.detected),
            },
        )

    def _exp_sec54(self, ex, workers: int = 1) -> ExperimentResult:
        # Always serial: these rows measure wall-clock overhead.
        rows = ex.run_sec54()
        return ExperimentResult(
            name="sec54",
            data=rows,
            stats={
                "workloads": len(rows),
                "extra_instructions": sum(
                    r.instructions_tracking - r.instructions_no_tracking
                    for r in rows
                ),
                "max_software_overhead_pct": round(
                    max(r.software_overhead_pct for r in rows), 4
                ),
            },
        )

    def _exp_coverage(self, ex, workers: int = 1) -> ExperimentResult:
        matrix = ex.run_coverage_matrix(workers=workers)
        detected = sum(1 for row in matrix if row["pointer-taintedness"])
        return ExperimentResult(
            name="coverage",
            data=matrix,
            detected=detected > 0,
            stats={
                "scenarios": len(matrix),
                "detected_by_paper_policy": detected,
                "detected_by_control_data": sum(
                    1 for row in matrix if row["control-data-only"]
                ),
            },
        )

    def _exp_matrix(self, ex, workers: int = 1) -> ExperimentResult:
        matrix = ex.run_defense_matrix(workers=workers, registry=self.metrics)
        summary = ex.matrix_summary(matrix)
        return ExperimentResult(
            name="matrix",
            data=matrix,
            detected=summary["detected"]["taintedness"] > 0,
            stats=dict(summary),
        )
