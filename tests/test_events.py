"""The structured event bus: subscription, ordering, zero-cost fast path."""

import pytest

from repro.defenses.alerts import SecurityException
from repro.core.events import (
    EVENT_TYPES,
    EventBus,
    EventLog,
    InstructionRetired,
    MemoryFaulted,
    SyscallEnter,
    SyscallExit,
    TaintPropagated,
    TaintedDereference,
)
from repro.defenses.policy import PointerTaintPolicy
from repro.cpu.simulator import Simulator, SimulatorFault
from repro.isa.assembler import assemble
from repro.kernel.syscalls import Kernel

#: Same boundary as test_simulator_taint: read 8 tainted bytes into ``buf``,
#: leave a tainted word in $t0 and a clean one in $t1.
READ_PREAMBLE = """
    li $v0, 3
    li $a0, 0
    la $a1, buf
    li $a2, 8
    syscall
    la $t9, buf
    lw $t0, 0($t9)
    li $t1, 0x01010101
"""

DATA = "buf: .space 16\nout: .space 16"


def make_sim(body, stdin=b"abcdefgh", policy=None):
    """Build a ready-to-run simulator so tests can subscribe before running."""
    source = (
        ".text\n_start:\n" + READ_PREAMBLE + body +
        "\n    li $v0, 1\n    li $a0, 0\n    syscall\n.data\n" + DATA
    )
    exe = assemble(source)
    kernel = Kernel(stdin=stdin)
    sim = Simulator(
        exe,
        policy if policy is not None else PointerTaintPolicy(),
        syscall_handler=kernel,
    )
    kernel.attach(sim)
    return sim


class TestEventBusUnit:
    def test_subscribe_and_emit_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(SyscallEnter, lambda e: seen.append(("a", e.number)))
        bus.subscribe(SyscallEnter, lambda e: seen.append(("b", e.number)))
        bus.emit(SyscallEnter(pc=0, number=4))
        assert seen == [("a", 4), ("b", 4)]
        assert bus.events_emitted == 1

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        handler = bus.subscribe(SyscallEnter, seen.append)
        bus.unsubscribe(SyscallEnter, handler)
        bus.emit(SyscallEnter(pc=0, number=4))
        assert seen == []
        assert not bus.has_subscribers(SyscallEnter)
        # Removing twice is a no-op, not an error.
        bus.unsubscribe(SyscallEnter, handler)

    def test_unknown_event_type_rejected(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(int, lambda e: None)

    def test_subscriber_lists_have_stable_identity(self):
        """Engines capture the list once; later subscriptions must land in
        the same object for the captured guard to see them."""
        bus = EventBus()
        captured = bus.subscribers(InstructionRetired)
        assert not captured
        bus.subscribe(InstructionRetired, lambda e: None)
        assert captured  # same list object, now truthy

    def test_every_event_type_registered(self):
        bus = EventBus()
        for event_type in EVENT_TYPES:
            assert bus.subscribers(event_type) == []


class TestRetirementStream:
    def test_every_instruction_retires_once(self):
        sim = make_sim("add $s0, $t0, $t1")
        log = EventLog(sim.events, (InstructionRetired,))
        sim.run()
        retired = log.of(InstructionRetired)
        assert len(retired) == sim.stats.instructions
        assert [e.index for e in retired] == list(
            range(1, sim.stats.instructions + 1)
        )

    def test_retired_pcs_match_recent_ring(self):
        sim = make_sim("add $s0, $t0, $t1")
        log = EventLog(sim.events, (InstructionRetired,))
        sim.run()
        pcs = [e.pc for e in log.of(InstructionRetired)]
        assert pcs[-len(sim.recent_pcs):] == list(sim.recent_pcs)


class TestAlertOrdering:
    def test_detection_event_fires_and_instruction_never_retires(self):
        sim = make_sim("lw $s0, 0($t0)")
        log = EventLog(sim.events, (InstructionRetired, TaintedDereference))
        with pytest.raises(SecurityException) as info:
            sim.run()
        alert = info.value.alert
        detections = log.of(TaintedDereference)
        assert len(detections) == 1
        assert detections[0].kind == "load"
        assert detections[0].alert is alert
        # The malicious instruction is marked, not retired: the last event
        # overall is the detection, and no retirement carries its pc.
        assert type(log.events[-1]) is TaintedDereference
        retired = log.of(InstructionRetired)
        assert alert.pc not in [e.pc for e in retired]
        assert retired[-1].index == alert.instruction_index - 1

    def test_pipeline_emits_identical_event_stream(self):
        from repro.cpu.pipeline import Pipeline

        streams = []
        for engine in ("functional", "pipeline"):
            sim = make_sim("lw $s0, 0($t0)")
            log = EventLog(
                sim.events, (InstructionRetired, TaintedDereference)
            )
            with pytest.raises(SecurityException):
                if engine == "pipeline":
                    Pipeline(sim).run()
                else:
                    sim.run()
            streams.append(
                [
                    (type(e).__name__, e.pc)
                    for e in log.events
                ]
            )
        assert streams[0] == streams[1]


class TestZeroSubscriberFastPath:
    def test_no_events_allocated_without_subscribers(self):
        sim = make_sim("add $s0, $t0, $t1\nsw $t0, 0($t9)")
        sim.run()
        assert sim.events.events_emitted == 0

    def test_alerting_run_allocates_nothing_without_subscribers(self):
        sim = make_sim("lw $s0, 0($t0)")
        with pytest.raises(SecurityException):
            sim.run()
        assert sim.events.events_emitted == 0


class TestSyscallEvents:
    def test_enter_and_exit_bracket_each_trap(self):
        sim = make_sim("nop")
        log = EventLog(sim.events, (SyscallEnter, SyscallExit))
        sim.run()
        enters = log.of(SyscallEnter)
        exits = log.of(SyscallExit)
        assert [e.number for e in enters] == [3, 1]  # read, exit
        assert len(exits) == len(enters)
        assert exits[0].result == 8  # read returned 8 bytes


class TestTaintPropagationEvents:
    def test_register_destination(self):
        sim = make_sim("add $s0, $t0, $t1")
        log = EventLog(sim.events, (TaintPropagated,))
        sim.run()
        regs = [
            e for e in log.of(TaintPropagated) if e.dest_kind == "reg"
        ]
        assert any(e.dest == 16 and e.taint == 0xF for e in regs)  # $s0

    def test_memory_and_hilo_destinations(self):
        sim = make_sim(
            "la $t2, out\nsw $t0, 0($t2)\nmult $t0, $t1\nmflo $s1"
        )
        log = EventLog(sim.events, (TaintPropagated,))
        sim.run()
        kinds = {e.dest_kind for e in log.of(TaintPropagated)}
        assert {"mem", "hilo", "reg"} <= kinds

    def test_clean_results_emit_nothing(self):
        sim = make_sim("add $s0, $t1, $t1", stdin=b"")
        log = EventLog(sim.events, (TaintPropagated,))
        sim.run()
        assert log.of(TaintPropagated) == []


class TestMemoryFaultEvents:
    def test_bad_fetch_publishes_fault(self):
        sim = make_sim("li $t5, 0x100\njr $t5")
        log = EventLog(sim.events, (MemoryFaulted,))
        with pytest.raises(SimulatorFault):
            sim.run()
        faults = log.of(MemoryFaulted)
        assert len(faults) == 1
        assert faults[0].pc == 0x100
        assert "outside text segment" in faults[0].message
