"""Gateway robustness: protocol, admission, self-healing, drain, digests.

The contract under test (DESIGN.md section 4g): every job a client
submits gets exactly one terminal structured response -- a unified
result, a watchdog ``limit``, or an error envelope -- no matter what
misbehaves (a crashing worker, an overrunning job, a full queue), the
circuit breaker trips and recovers instead of wedging the pool, a
served campaign digest is byte-identical to the in-process ``Session``
result, and SIGTERM drains to exit 0.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.api import ExecOptions, Session, validate_result_json
from repro.parallel.engine import POISON_ENV
from repro.serve import (
    AdmissionQueue,
    BackgroundServer,
    CircuitBreaker,
    PendingJob,
    ProtocolError,
    ServeClient,
    error_envelope,
    job_envelope,
    parse_request,
    validate_request,
)
from repro.serve.protocol import MAX_LINE_BYTES, OPTIONS_FIELDS, encode

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash seam kills fork workers via os._exit",
)

SPIN_ASM = ".text\n_start: b _start\n"

HELLO_C = r"""
int main(void) {
    printf("hi\n");
    return 0;
}
"""

VICTIM_C = """
int main(void) {
    char buf[10];
    scan_string(buf);
    return 0;
}
"""


# ---------------------------------------------------------------------------
# protocol (api layer, no sockets)
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_parse_valid_run_request(self):
        req = parse_request(
            json.dumps({"kind": "run", "asm": SPIN_ASM}).encode()
        )
        assert req["kind"] == "run"
        assert req["priority"] == "normal"

    def test_rejects_bad_json(self):
        with pytest.raises(ProtocolError) as exc:
            parse_request(b"{nope")
        assert exc.value.reason == "bad_json"

    def test_rejects_oversized_line(self):
        with pytest.raises(ProtocolError) as exc:
            parse_request(b"x" * (MAX_LINE_BYTES + 1))
        assert exc.value.reason == "too_large"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError):
            validate_request({"kind": "frobnicate"})

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            validate_request([1, 2])

    def test_run_needs_exactly_one_program_form(self):
        with pytest.raises(ProtocolError):
            validate_request({"kind": "run"})
        with pytest.raises(ProtocolError):
            validate_request(
                {"kind": "run", "source": "x", "asm": "y"}
            )

    def test_campaign_needs_exactly_one_workload_form(self):
        with pytest.raises(ProtocolError):
            validate_request({"kind": "campaign"})
        with pytest.raises(ProtocolError):
            validate_request(
                {"kind": "campaign", "source": "x", "builtin": "exp3"}
            )

    def test_rejects_bad_priority_engine_and_budgets(self):
        base = {"kind": "run", "asm": SPIN_ASM}
        for patch in (
            {"priority": "urgent"},
            {"options": {"engine": "quantum"}},
            {"options": {"max_instructions": 0}},
            {"deadline_s": 0},
            {"deadline_s": "soon"},
        ):
            with pytest.raises(ProtocolError):
                validate_request(dict(base, **patch))

    def test_options_object_accepts_every_wire_field(self):
        options = {
            "engine": "pipeline", "policy": "control-data",
            "defense": "pac", "taint_labels": True, "use_caches": True,
            "superblocks": False, "max_instructions": 9,
        }
        assert sorted(options) == sorted(OPTIONS_FIELDS)
        req = validate_request(
            {"kind": "run", "asm": SPIN_ASM, "options": options}
        )
        assert req["options"] == options

    def test_rejects_unknown_options_field(self):
        with pytest.raises(ProtocolError, match="turbo"):
            validate_request(
                {"kind": "run", "asm": SPIN_ASM, "options": {"turbo": True}}
            )
        with pytest.raises(ProtocolError, match="JSON object"):
            validate_request(
                {"kind": "run", "asm": SPIN_ASM, "options": ["pipeline"]}
            )

    def test_rejects_option_fields_at_the_top_level(self):
        for key, value in (
            ("engine", "pipeline"), ("policy", "paper"), ("defense", "pac"),
            ("taint_labels", True), ("max_instructions", 500),
        ):
            for request in (
                {"kind": "run", "asm": SPIN_ASM},
                {"kind": "campaign", "builtin": "exp3"},
            ):
                with pytest.raises(ProtocolError, match="'options'") as exc:
                    validate_request(dict(request, **{key: value}))
                assert exc.value.reason == "bad_request"

    def test_campaign_options_are_the_campaign_subset(self):
        req = validate_request({
            "kind": "campaign", "builtin": "exp3",
            "options": {"taint_labels": True, "use_caches": False,
                        "superblocks": False},
        })
        assert req["options"]["taint_labels"] is True
        for field, value in (
            ("defense", "pac"), ("engine", "pipeline"),
            ("max_instructions", 5), ("policy", "none"),
        ):
            with pytest.raises(ProtocolError, match="campaign") as exc:
                validate_request({
                    "kind": "campaign", "builtin": "exp3",
                    "options": {field: value},
                })
            assert exc.value.reason == "bad_request"

    def test_experiment_jobs_take_no_options(self):
        with pytest.raises(ProtocolError, match="experiment"):
            validate_request({
                "kind": "experiment", "name": "fig1",
                "options": {"workers": 2},
            })

    def test_matrix_defaults_its_name(self):
        req = validate_request({"kind": "matrix"})
        assert req["name"] == "matrix"
        with pytest.raises(ProtocolError):
            validate_request({"kind": "experiment", "name": "nope"})

    def test_error_envelope_passes_unified_schema(self):
        payload = error_envelope(
            "QueueFull", "full", reason="queue_full",
            job=job_envelope("j1", 3, 1.5, 0.0, 0),
        )
        validated = validate_result_json(payload)
        assert validated["kind"] == "error"
        assert validated["job"]["id"] == "j1"

    def test_encode_is_one_compact_line(self):
        line = encode({"b": 1, "a": 2})
        assert line == b'{"a":2,"b":1}\n'


# ---------------------------------------------------------------------------
# admission queue (scheduler layer, no sockets)
# ---------------------------------------------------------------------------

def _job(seq, priority=1):
    return PendingJob(
        seq=seq, job_id=f"j{seq}", request={}, priority=priority,
        enqueued_at=0.0,
    )


class TestAdmissionQueue:
    def test_accepts_below_capacity(self):
        q = AdmissionQueue(capacity=2)
        assert q.submit(_job(0)) == (True, None)
        assert q.submit(_job(1)) == (True, None)
        assert q.depth == 2

    def test_rejects_when_full_of_equal_priority(self):
        q = AdmissionQueue(capacity=1)
        q.submit(_job(0))
        accepted, victim = q.submit(_job(1))
        assert not accepted and victim is None
        assert q.rejected == 1

    def test_sheds_oldest_strictly_lower_priority(self):
        q = AdmissionQueue(capacity=2)
        q.submit(_job(0, priority=0))
        q.submit(_job(1, priority=0))
        accepted, victim = q.submit(_job(2, priority=2))
        assert accepted and victim.seq == 0
        assert q.shed == 1
        # The high-priority arrival dispatches first.
        assert q.pop().seq == 2

    def test_never_sheds_equal_or_higher_priority(self):
        q = AdmissionQueue(capacity=1)
        q.submit(_job(0, priority=2))
        accepted, victim = q.submit(_job(1, priority=1))
        assert not accepted and victim is None

    def test_pop_is_priority_then_fifo(self):
        q = AdmissionQueue(capacity=8)
        for seq, prio in [(0, 1), (1, 2), (2, 1), (3, 2)]:
            q.submit(_job(seq, priority=prio))
        assert [q.pop().seq for _ in range(4)] == [1, 3, 0, 2]
        assert q.pop() is None

    def test_rejects_nonsense_capacity(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)

    def test_snapshot_counters(self):
        q = AdmissionQueue(capacity=1)
        q.submit(_job(0))
        q.submit(_job(1))
        snap = q.snapshot()
        assert snap == {
            "depth": 1, "capacity": 1, "accepted": 1, "rejected": 1,
            "shed": 0,
        }


# ---------------------------------------------------------------------------
# circuit breaker (infra layer, no pool)
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_crashes(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=0.01)
        breaker.record_crash()
        breaker.record_crash()
        assert breaker.state == "closed"
        breaker.record_crash()
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=0.01)
        breaker.record_crash()
        breaker.record_success()
        breaker.record_crash()
        assert breaker.state == "closed"

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=0.01)
        breaker.record_crash()
        assert breaker.state == "open"
        asyncio.run(breaker.admit())  # waits out the cooldown, goes probing
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_probe_crash_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=0.01)
        breaker.record_crash()
        asyncio.run(breaker.admit())
        breaker.record_crash()
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_rejects_nonsense_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)


# ---------------------------------------------------------------------------
# end to end over loopback
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gateway():
    with BackgroundServer(workers=1) as bg:
        yield bg
    assert bg.exit_code == 0


@fork_only
class TestServeEndToEnd:
    def client(self, gateway):
        return ServeClient(host=gateway.server.host, port=gateway.server.port)

    def test_health_probe(self, gateway):
        with self.client(gateway) as client:
            health = client.health()
        assert health["status"] == "ok"
        assert health["queue"]["capacity"] == 64
        assert health["workers"]["size"] == 1
        assert health["workers"]["breaker"]["state"] == "closed"
        assert health["uptime_s"] >= 0

    def test_run_job_returns_unified_json_with_job_envelope(self, gateway):
        with self.client(gateway) as client:
            result = client.request(
                {"kind": "run", "source": HELLO_C, "id": "hello"}
            )
        payload = validate_result_json(result)
        assert payload["kind"] == "run"
        assert payload["detected"] is False
        assert payload["stats"]["outcome"] == "exit"
        job = payload["job"]
        assert job["id"] == "hello"
        assert job["retries"] == 0
        assert job["queue_ms"] >= 0 and job["exec_ms"] >= 0

    def test_campaign_digest_matches_in_process_session(self, gateway):
        with self.client(gateway) as client:
            served = client.request(
                {"kind": "campaign", "builtin": "exp3", "seed": 11,
                 "trials": 5}
            )
        local = Session().run_campaign(
            builtin="exp3", seed=11, trials=5
        ).to_json()
        validate_result_json(served)
        assert served["stats"]["digest"] == local["stats"]["digest"]
        assert served["stats"]["counts"] == local["stats"]["counts"]

    def test_repeat_job_hits_the_prepared_machine_cache(self, gateway):
        request = {"kind": "campaign", "builtin": "exp3", "seed": 11,
                   "trials": 5}
        with self.client(gateway) as client:
            first = client.request(dict(request))
            second = client.request(dict(request))
        assert first["stats"]["digest"] == second["stats"]["digest"]

    def test_deadline_overrun_returns_structured_limit(self, gateway):
        with self.client(gateway) as client:
            result = client.request(
                {"kind": "run", "asm": SPIN_ASM, "deadline_s": 0.05}
            )
            # The worker survived the overrun: the next job still runs.
            after = client.request({"kind": "run", "source": HELLO_C})
        payload = validate_result_json(result)
        assert payload["stats"]["outcome"] == "limit"
        assert payload["stats"]["limit"]["reason"] == "wallclock"
        assert after["stats"]["outcome"] == "exit"

    def test_instruction_budget_is_honored(self, gateway):
        with self.client(gateway) as client:
            result = client.request(
                {"kind": "run", "asm": SPIN_ASM,
                 "options": {"max_instructions": 500}}
            )
        assert result["stats"]["outcome"] == "limit"
        assert result["stats"]["limit"]["reason"] == "instructions"

    def test_pipeline_option_matches_in_process_session(self, gateway):
        with self.client(gateway) as client:
            served = client.request({
                "kind": "run", "source": VICTIM_C, "stdin": "a" * 24,
                "id": "pipe", "options": {"engine": "pipeline"},
            })
        local = Session(
            options=ExecOptions(engine="pipeline")
        ).run_minic(VICTIM_C, stdin=b"a" * 24, argv=["pipe"]).to_json()
        payload = validate_result_json(served)
        assert payload["detected"] is True
        assert payload["stats"]["cycles"] > payload["stats"]["instructions"]
        assert payload["stats"]["cpi"] == local["stats"]["cpi"]
        for key in ("outcome", "alert", "instructions", "cycles"):
            assert payload["stats"][key] == local["stats"][key], key

    def test_top_level_option_is_a_bad_request(self, gateway):
        with self.client(gateway) as client:
            rejected = client.request(
                {"kind": "run", "source": HELLO_C, "engine": "pipeline"}
            )
            campaign = client.request({
                "kind": "campaign", "builtin": "exp3",
                "options": {"defense": "pac"},
            })
            after = client.request({"kind": "run", "source": HELLO_C})
        for payload in (rejected, campaign):
            validate_result_json(payload)
            assert payload["kind"] == "error"
            assert payload["reason"] == "bad_request"
        assert "'options'" in rejected["error"]["message"]
        assert after["stats"]["outcome"] == "exit"

    def test_job_level_failure_is_an_envelope_not_a_dead_worker(
        self, gateway
    ):
        with self.client(gateway) as client:
            bad = client.request(
                {"kind": "campaign", "builtin": "no-such-workload"}
            )
            after = client.request({"kind": "run", "source": HELLO_C})
        payload = validate_result_json(bad)
        assert payload["kind"] == "error"
        assert payload["reason"] == "job_failed"
        assert payload["error"]["type"] == "KeyError"
        assert after["stats"]["outcome"] == "exit"

    def test_malformed_line_keeps_the_connection_alive(self, gateway):
        with self.client(gateway) as client:
            client._file.write(b"{not json\n")
            client._file.flush()
            err = client.recv()
            assert err["kind"] == "error"
            assert err["reason"] == "bad_json"
            result = client.request({"kind": "run", "source": HELLO_C})
        assert result["stats"]["outcome"] == "exit"

    def test_experiment_job_over_the_wire(self, gateway):
        with self.client(gateway) as client:
            result = client.request(
                {"kind": "experiment", "name": "table4"}
            )
        payload = validate_result_json(result)
        assert payload["kind"] == "experiment"
        assert payload["name"] == "table4"
        assert payload["stats"]["scenarios"] >= 1


# ---------------------------------------------------------------------------
# chaos: poison + deadline + overflow in one session
# ---------------------------------------------------------------------------

@fork_only
class TestChaosInvariants:
    def test_no_accepted_job_lost_breaker_recovers_drain_exits_zero(
        self, monkeypatch
    ):
        """The acceptance-criteria chaos session.

        One server, one worker: job seq 0 is poisoned (kills its worker
        on the first attempt), a spin job overruns its deadline, and a
        burst overflows the 2-deep queue.  Every submission must come
        back with a terminal structured response, the breaker must trip
        and end up closed again, and the drain must exit 0.
        """
        monkeypatch.setenv(POISON_ENV, "0")
        with BackgroundServer(
            workers=1,
            queue_capacity=2,
            max_retries=2,
            backoff_s=0.01,
            breaker_threshold=1,
            breaker_cooldown_s=0.05,
        ) as bg:
            with ServeClient(
                host=bg.server.host, port=bg.server.port
            ) as client:
                ids = []
                # seq 0: crashes its worker once, heals, then completes.
                ids.append(client.submit(
                    {"kind": "campaign", "builtin": "exp3", "seed": 11,
                     "trials": 3, "id": "poisoned"}
                ))
                # seq 1: overruns its wall-clock deadline.
                ids.append(client.submit(
                    {"kind": "run", "asm": SPIN_ASM, "deadline_s": 0.05,
                     "id": "overrun"}
                ))
                # Burst: more than worker + queue can hold.
                for i in range(6):
                    ids.append(client.submit(
                        {"kind": "run", "source": HELLO_C,
                         "id": f"burst-{i}"}
                    ))
                responses = client.collect(ids)
                health = client.health()
            bg.drain(timeout=60)
        assert bg.exit_code == 0

        by_id = {r["job"]["id"]: r for r in responses}
        assert sorted(by_id) == sorted(ids)  # exactly one terminal each
        for response in responses:
            validate_result_json(response)

        poisoned = by_id["poisoned"]
        assert poisoned["kind"] == "campaign"
        assert poisoned["job"]["retries"] >= 1
        local = Session().run_campaign(builtin="exp3", seed=11, trials=3)
        assert poisoned["stats"]["digest"] == local.to_json()["stats"]["digest"]

        overrun = by_id["overrun"]
        assert overrun["stats"]["outcome"] == "limit"
        assert overrun["stats"]["limit"]["reason"] == "wallclock"

        outcomes = {r["kind"] for r in responses}
        rejected = [
            r for r in responses
            if r["kind"] == "error" and r["reason"] == "queue_full"
        ]
        completed = [r for r in responses if r["kind"] != "error"]
        assert rejected, f"burst never overflowed the queue: {outcomes}"
        assert len(completed) + len(rejected) == len(ids)

        assert health["workers"]["crashes"] >= 1
        assert health["workers"]["restarts"] >= 1
        assert health["workers"]["breaker"]["trips"] >= 1
        assert health["workers"]["breaker"]["state"] == "closed"

    def test_shedding_prefers_the_oldest_low_priority_job(self, monkeypatch):
        """A high-priority arrival on a full queue evicts the oldest
        low-priority job, which still gets a terminal ``shed`` envelope.

        A deadline-bounded spin holds the only worker for the whole
        burst, so the queue is full when ``vip`` arrives however fast
        the machine is; the spin is high priority so it is never the
        shed victim itself.
        """
        monkeypatch.delenv(POISON_ENV, raising=False)
        with BackgroundServer(workers=1, queue_capacity=2) as bg:
            with ServeClient(
                host=bg.server.host, port=bg.server.port
            ) as client:
                ids = [client.submit(
                    {"kind": "run", "asm": SPIN_ASM, "deadline_s": 1,
                     "priority": "high", "id": "spin"}
                )]
                ids += [client.submit(
                    {"kind": "run", "source": HELLO_C, "priority": "low",
                     "id": f"low-{i}"}
                ) for i in range(4)]
                ids.append(client.submit(
                    {"kind": "run", "source": HELLO_C, "priority": "high",
                     "id": "vip"}
                ))
                responses = client.collect(ids)
        by_id = {r["job"]["id"]: r for r in responses}
        assert by_id["spin"]["stats"]["limit"]["reason"] == "wallclock"
        assert by_id["vip"]["kind"] == "run"
        shed = [r for r in responses
                if r["kind"] == "error" and r["reason"] == "shed"]
        assert len(shed) == 1
        assert shed[0]["job"]["id"].startswith("low-")

    def test_waiting_job_stays_queued_behind_a_later_high_priority(
        self, monkeypatch
    ):
        """With every worker busy, a pending job stays in the admission
        queue: a later high-priority arrival runs before it."""
        monkeypatch.delenv(POISON_ENV, raising=False)
        with BackgroundServer(workers=1) as bg:
            with ServeClient(
                host=bg.server.host, port=bg.server.port
            ) as client:
                client.submit({"kind": "run", "asm": SPIN_ASM,
                               "deadline_s": 1, "id": "spin"})
                client.submit({"kind": "run", "source": HELLO_C,
                               "priority": "low", "id": "low-a"})
                time.sleep(0.2)
                client.submit({"kind": "run", "source": HELLO_C,
                               "priority": "low", "id": "low-b"})
                client.submit({"kind": "run", "source": HELLO_C,
                               "priority": "high", "id": "vip"})
                order = [client.recv()["job"]["id"] for _ in range(4)]
        assert order == ["spin", "vip", "low-a", "low-b"]

    def test_poison_exhausting_retries_is_a_terminal_envelope(
        self, monkeypatch
    ):
        """A job that kills every worker it touches ends as a
        ``worker_crash`` envelope, and the pool survives for later jobs."""
        monkeypatch.setenv(POISON_ENV, "0")
        with BackgroundServer(
            workers=1, max_retries=0, backoff_s=0.01,
            breaker_threshold=5,
        ) as bg:
            with ServeClient(
                host=bg.server.host, port=bg.server.port
            ) as client:
                # max_retries=0 means the single (poisoned) attempt is
                # final -- but _maybe_poison only fires on attempt 0, so
                # use a request whose every attempt is attempt 0.
                doomed = client.request(
                    {"kind": "run", "source": HELLO_C, "id": "doomed"}
                )
                monkeypatch.setenv(POISON_ENV, "-1")
                after = client.request(
                    {"kind": "run", "source": HELLO_C, "id": "after"}
                )
        assert doomed["kind"] == "error"
        assert doomed["reason"] == "worker_crash"
        assert doomed["job"]["id"] == "doomed"
        assert after["stats"]["outcome"] == "exit"
        assert bg.exit_code == 0


# ---------------------------------------------------------------------------
# drain lifecycle
# ---------------------------------------------------------------------------

@fork_only
class TestDrain:
    def test_submissions_during_drain_get_draining_envelopes(self):
        with BackgroundServer(workers=1) as bg:
            with ServeClient(
                host=bg.server.host, port=bg.server.port
            ) as client:
                assert client.health()["status"] == "ok"
                # An in-flight job keeps the server alive through the
                # drain window; it must still complete.
                inflight = client.submit(
                    {"kind": "campaign", "builtin": "exp3", "seed": 11,
                     "trials": 25, "id": "inflight"}
                )
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    probe = client.health()
                    if probe["in_flight"] + probe["queue"]["depth"] >= 1:
                        break
                    time.sleep(0.01)
                bg.server.request_drain()
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    if client.health()["status"] == "draining":
                        break
                    time.sleep(0.01)
                response = client.request(
                    {"kind": "run", "source": HELLO_C, "id": "late"}
                )
                result = client.wait(inflight)
            assert response["kind"] == "error"
            assert response["reason"] == "draining"
            assert response["job"]["id"] == "late"
            assert result["kind"] == "campaign"
        assert bg.exit_code == 0

    def test_sigterm_finishes_in_flight_jobs_and_exits_zero(self, tmp_path):
        """The CLI server drains on SIGTERM: the in-flight job still gets
        its result, and the process exits 0 well inside 10s."""
        env = dict(os.environ, PYTHONPATH="src")
        env.pop(POISON_ENV, None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "-j", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True, cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))),
        )
        try:
            banner = proc.stdout.readline()
            port = int(banner.split("listening on ")[1].split()[0]
                       .rsplit(":", 1)[1])
            with ServeClient(host="127.0.0.1", port=port) as client:
                job_id = client.submit(
                    {"kind": "campaign", "builtin": "exp3", "seed": 11,
                     "trials": 3, "id": "inflight"}
                )
                time.sleep(0.3)  # let the job reach the worker
                started = time.monotonic()
                proc.send_signal(signal.SIGTERM)
                result = client.wait(job_id)
            exit_code = proc.wait(timeout=10)
            drained_in = time.monotonic() - started
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert result["kind"] == "campaign"
        assert result["job"]["id"] == "inflight"
        assert exit_code == 0
        assert drained_in < 10
