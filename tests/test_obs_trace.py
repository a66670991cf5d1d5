"""Trace recorder: JSONL schema, ring bounds, filtering, CLI rendering."""

import io
import json

import pytest

from repro.api import ExecOptions, Session, TraceConfig
from repro.cli import main as cli_main
from repro.core.events import (
    EVENT_TYPES,
    InstructionRetired,
    SyscallEnter,
    TaintPropagated,
    TaintedDereference,
)
from repro.obs.trace import (
    DEFAULT_TRACE_EVENTS,
    TraceRecorder,
    read_trace,
    render_trace,
    resolve_event_types,
    summarize_trace,
)

VICTIM = """
int main(void) {
    char buf[10];
    scan_string(buf);
    return 0;
}
"""
ATTACK = b"a" * 24


def run_traced(tmp_path, **trace_kwargs):
    path = str(tmp_path / "trace.jsonl")
    session = Session(options=ExecOptions(
        trace=TraceConfig(path=path, **trace_kwargs)
    ))
    result = session.run_minic(VICTIM, stdin=ATTACK)
    return session, result, path


class TestEventSelection:
    def test_default_excludes_instruction_retired(self):
        assert InstructionRetired not in DEFAULT_TRACE_EVENTS
        assert set(DEFAULT_TRACE_EVENTS) == set(EVENT_TYPES) - {
            InstructionRetired
        }

    def test_all_keyword(self):
        assert resolve_event_types("all") == EVENT_TYPES

    def test_csv_names_case_insensitive(self):
        resolved = resolve_event_types("syscallenter, TaintPropagated")
        assert resolved == (SyscallEnter, TaintPropagated)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown event name"):
            resolve_event_types("NoSuchEvent")

    def test_classes_pass_through_and_dedupe(self):
        assert resolve_event_types(
            [SyscallEnter, "SyscallEnter"]
        ) == (SyscallEnter,)


class TestRecording:
    def test_stream_and_ring_agree(self, tmp_path):
        session, result, path = run_traced(tmp_path)
        assert result.detected
        streamed = list(read_trace(path))
        assert streamed == session.last_trace.records
        assert streamed, "attack run must produce trace records"

    def test_schema_every_record_has_seq_and_event(self, tmp_path):
        _, _, path = run_traced(tmp_path)
        seqs = []
        for record in read_trace(path):
            assert isinstance(record["seq"], int)
            assert isinstance(record["event"], str)
            seqs.append(record["seq"])
        assert seqs == list(range(1, len(seqs) + 1))

    def test_tainted_dereference_record_carries_alert(self, tmp_path):
        _, result, path = run_traced(tmp_path)
        derefs = [
            r for r in read_trace(path) if r["event"] == "TaintedDereference"
        ]
        assert len(derefs) == 1
        record = derefs[0]
        assert record["pointer"] == result.alert.pointer_value
        assert record["kind"] == "jump"
        assert record["pc"] == result.alert.pc

    def test_ring_is_bounded(self, tmp_path):
        session, _, _ = run_traced(tmp_path, limit=5)
        tracer = session.last_trace
        assert len(tracer.records) == 5
        assert tracer.seq > 5  # more events fired than the ring holds
        assert tracer.records[-1]["seq"] == tracer.seq

    def test_event_subset_only_records_requested(self, tmp_path):
        session, _, _ = run_traced(tmp_path, events="SyscallEnter")
        names = {r["event"] for r in session.last_trace.records}
        assert names == {"SyscallEnter"}

    def test_counts_track_per_type(self, tmp_path):
        session, _, path = run_traced(tmp_path)
        assert session.last_trace.counts == summarize_trace(read_trace(path))

    def test_write_jsonl_round_trip(self, tmp_path):
        session, _, _ = run_traced(tmp_path)
        dump = str(tmp_path / "ring.jsonl")
        session.last_trace.write_jsonl(dump)
        assert list(read_trace(dump)) == session.last_trace.records

    def test_double_attach_rejected(self):
        from repro.core.events import EventBus

        recorder = TraceRecorder()
        bus = EventBus()
        recorder.attach(bus)
        with pytest.raises(RuntimeError):
            recorder.attach(bus)
        recorder.detach()

    def test_bad_jsonl_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ValueError, match="not a JSON trace record"):
            list(read_trace(str(bad)))
        bad.write_text('{"seq": 1}\n')
        with pytest.raises(ValueError, match="missing 'event'"):
            list(read_trace(str(bad)))


class TestRendering:
    def test_render_filters_by_event_and_pc(self, tmp_path):
        _, result, path = run_traced(tmp_path)
        records = list(read_trace(path))
        text = render_trace(records, events="TaintedDereference")
        assert "TaintedDereference" in text
        assert "SyscallEnter" not in text
        assert f"{result.alert.pc:#010x}" in text
        assert render_trace(records, pc=0x1) == "(no matching trace records)"

    def test_render_limit_keeps_tail(self, tmp_path):
        _, _, path = run_traced(tmp_path)
        records = list(read_trace(path))
        text = render_trace(records, limit=2)
        assert len(text.splitlines()) == 2
        assert str(records[-1]["seq"]) in text


class TestTraceCli:
    def test_run_trace_out_then_trace_subcommand(self, tmp_path):
        victim = tmp_path / "victim.c"
        victim.write_text(VICTIM)
        trace_path = tmp_path / "t.jsonl"
        out = io.StringIO()
        code = cli_main(
            [
                "run", str(victim),
                "--stdin-text", "a" * 24,
                "--trace-out", str(trace_path),
            ],
            out=out,
        )
        assert code == 2  # detected
        assert trace_path.exists()

        out = io.StringIO()
        assert cli_main(
            ["trace", str(trace_path), "--summary"], out=out
        ) == 0
        assert "TaintedDereference" in out.getvalue()

        out = io.StringIO()
        assert cli_main(
            ["trace", str(trace_path), "--event", "TaintedDereference"],
            out=out,
        ) == 0
        assert "pointer=0x61616161" in out.getvalue()

    def test_trace_subcommand_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        with pytest.raises(SystemExit):
            cli_main(["trace", str(bad)], out=io.StringIO())
