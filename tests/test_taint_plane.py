"""Unit tests for the unified taint plane and its label algebra."""

import pytest

from repro.attacks.replay import run_minic
from repro.defenses.policy import PointerTaintPolicy
from repro.cpu.simulator import Simulator
from repro.fault.faults import FaultSpec, apply_state_fault
from repro.libc.build import build_program
from repro.mem.registers import RegisterFile
from repro.mem.tainted_memory import TaintedMemory
from repro.taint import (
    MODE_BIT,
    MODE_LABEL,
    LabelTable,
    TaintLabel,
    TaintPlane,
)


class TestTaintLabel:
    def test_describe_syscall(self):
        label = TaintLabel(
            source_kind="net", syscall="recv", fd=4, offset_range=(96, 100)
        )
        assert label.describe() == "recv(fd=4) bytes 96..99"

    def test_describe_argv(self):
        label = TaintLabel(source_kind="argv", fd=1, offset_range=(0, 11))
        assert label.describe() == "argv[1] bytes 0..10"

    def test_describe_bare_source(self):
        assert TaintLabel(source_kind="fault-injection").describe() == (
            "fault-injection"
        )

    def test_to_dict_is_json_ready(self):
        label = TaintLabel(
            source_kind="stdin", syscall="read", fd=0,
            offset_range=(0, 8), insn_index=42,
        )
        d = label.to_dict()
        assert d["source_kind"] == "stdin"
        assert d["syscall"] == "read"
        assert d["fd"] == 0
        assert d["offset_range"] == [0, 8]
        assert d["insn_index"] == 42
        assert d["describe"] == "read(fd=0) bytes 0..7"


class TestLabelTable:
    def test_label_ids_are_one_based(self):
        table = LabelTable()
        first = table.new_label(source_kind="stdin")
        second = table.new_label(source_kind="net")
        assert (first, second) == (1, 2)
        assert table.label(first).source_kind == "stdin"
        assert table.label(second).source_kind == "net"

    def test_sid_zero_is_empty_set(self):
        table = LabelTable()
        assert table.members(0) == ()
        assert table.interned_sets == 1

    def test_singleton_interned(self):
        table = LabelTable()
        lid = table.new_label(source_kind="stdin")
        sid = table.singleton(lid)
        assert sid != 0
        assert table.singleton(lid) == sid
        assert table.members(sid) == (table.label(lid),)

    def test_union_identities(self):
        table = LabelTable()
        a = table.singleton(table.new_label(source_kind="stdin"))
        assert table.union(a, 0) == a
        assert table.union(0, a) == a
        assert table.union(a, a) == a

    def test_union_is_interned_and_symmetric(self):
        table = LabelTable()
        a = table.singleton(table.new_label(source_kind="stdin"))
        b = table.singleton(table.new_label(source_kind="net"))
        ab = table.union(a, b)
        assert table.union(b, a) == ab
        assert table.union(ab, a) == ab      # absorption
        assert {l.source_kind for l in table.members(ab)} == {
            "stdin", "net",
        }

    def test_union_memoized_no_new_sets_on_repeat(self):
        table = LabelTable()
        a = table.singleton(table.new_label(source_kind="stdin"))
        b = table.singleton(table.new_label(source_kind="net"))
        table.union(a, b)
        before = table.interned_sets
        for _ in range(10):
            table.union(a, b)
            table.union(b, a)
        assert table.interned_sets == before

    def test_counters(self):
        table = LabelTable()
        assert table.allocated_labels == 0
        a = table.singleton(table.new_label(source_kind="stdin"))
        b = table.singleton(table.new_label(source_kind="net"))
        table.union(a, b)
        assert table.allocated_labels == 2
        assert table.interned_sets == 4  # empty, {a}, {b}, {a,b}

    def test_snapshot_restore_roundtrip(self):
        table = LabelTable()
        a = table.singleton(table.new_label(source_kind="stdin"))
        labels_hwm, sets_hwm = len(table.labels), len(table.sets)
        b = table.singleton(table.new_label(source_kind="net"))
        table.union(a, b)
        table.truncate(labels_hwm, sets_hwm)
        assert table.allocated_labels == 1
        assert table.interned_sets == 2
        # Allocation after restore reuses the freed id space consistently.
        c = table.singleton(table.new_label(source_kind="env"))
        assert table.members(c)[0].source_kind == "env"


class TestTaintPlane:
    def test_bit_mode_has_no_flow(self):
        plane = TaintPlane(MODE_BIT)
        assert plane.table is None
        assert plane.flow is None
        assert not plane.label_mode
        assert plane.provenance(3) == ()

    def test_label_mode_has_flow(self):
        plane = TaintPlane(MODE_LABEL)
        assert plane.flow is plane
        assert plane.label_mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            TaintPlane("quantum")

    def test_plane_shares_storage_with_memory_and_registers(self):
        plane = TaintPlane(MODE_BIT)
        memory = TaintedMemory(plane=plane)
        regs = RegisterFile(plane=plane)
        assert memory._taint_pages is plane.mem_taint
        assert regs.taints is plane.reg_taints

    def test_label_span_and_span_sid(self):
        plane = TaintPlane(MODE_LABEL)
        sid = plane.table.singleton(
            plane.table.new_label(source_kind="stdin")
        )
        plane.label_span(0x1000, 4, sid)
        # Gate mask selects which bytes count.
        assert plane.span_sid(0x1000, 4, 0b1111) == sid
        assert plane.span_sid(0x1000, 4, 0b0000) == 0
        assert plane.provenance(sid)[0].source_kind == "stdin"

    def test_snapshot_restore_mode_mismatch_rejected(self):
        exe = build_program("int main(void) { return 0; }")
        bit = Simulator(exe)
        label = Simulator(exe, taint_labels=True)
        with pytest.raises(ValueError):
            label.restore(bit.snapshot())

    def test_label_state_roundtrips_through_snapshot(self):
        plane = TaintPlane(MODE_LABEL)
        memory = TaintedMemory(plane=plane)
        sid = plane.table.singleton(
            plane.table.new_label(source_kind="net", syscall="recv", fd=4)
        )
        memory.write_bytes(0x2000, b"ab", taint=True)
        plane.label_span(0x2000, 2, sid)
        plane.reg_labels[5] = sid
        cow = memory.begin_cow()
        plane.begin_cow(cow)
        other = plane.table.singleton(plane.table.new_label(source_kind="env"))
        plane.label_span(0x2000, 2, other)
        plane.reg_labels[5] = 0
        memory.restore_cow(cow)
        plane.restore_cow(cow)
        assert plane.mem_labels[0x2000] == sid
        assert plane.reg_labels[5] == sid
        assert plane.table.allocated_labels == 1


class TestCopyInLabels:
    def test_run_minic_label_mode_records_read_provenance(self):
        result = run_minic(
            "int main(void) { char b[8]; gets(b); return 0; }",
            PointerTaintPolicy(),
            stdin=b"A" * 32,
            taint_labels=True,
        )
        assert result.detected
        provenance = result.alert.provenance
        assert provenance
        assert all(l.syscall == "read" for l in provenance)
        assert all(l.source_kind == "stdin" for l in provenance)
        # The overwriting bytes come from the attack input stream.
        for label in provenance:
            start, end = label.offset_range
            assert 0 <= start < end <= 32

    def test_bit_mode_records_no_provenance(self):
        result = run_minic(
            "int main(void) { char b[8]; gets(b); return 0; }",
            PointerTaintPolicy(),
            stdin=b"A" * 32,
        )
        assert result.detected
        assert result.alert.provenance == ()

    def test_per_fd_offsets_advance_across_reads(self):
        result = run_minic(
            "char g[64];\n"
            "int main(void) {\n"
            "    read(0, g, 8);\n"
            "    read(0, g + 8, 8);\n"
            "    return 0;\n"
            "}\n",
            PointerTaintPolicy(),
            stdin=b"ABCDEFGHIJKLMNOP",
            taint_labels=True,
        )
        table = result.sim.plane.table
        ranges = sorted(
            l.offset_range for l in table.labels if l.syscall == "read"
        )
        assert (0, 8) in ranges
        assert (8, 16) in ranges

    def test_argv_strings_get_labels(self):
        result = run_minic(
            "int main(int argc, char **argv) { return argc; }",
            PointerTaintPolicy(),
            argv=["prog", "hello"],
            taint_labels=True,
        )
        table = result.sim.plane.table
        argv_labels = [l for l in table.labels if l.source_kind == "argv"]
        assert len(argv_labels) == 2
        # argv[1] is "hello" plus its NUL.
        assert argv_labels[1].fd == 1
        assert argv_labels[1].offset_range == (0, 6)


class TestSwifiFlips:
    @pytest.mark.parametrize("mode", [MODE_BIT, MODE_LABEL])
    def test_mem_taint_flip_roundtrip(self, mode):
        result = run_minic(
            "int main(void) { return 0; }",
            taint_labels=(mode == MODE_LABEL),
        )
        machine = result.sim
        addr = next(iter(machine.memory.page_addresses()))
        detail = apply_state_fault(FaultSpec("taint-mem", addr), machine)
        assert "0 -> 1" in detail
        _, taint = machine.mem_read(addr, 1)
        assert taint == 1
        if mode == MODE_LABEL:
            sid = machine.plane.mem_labels[addr]
            labels = machine.plane.provenance(sid)
            assert labels[0].source_kind == "fault-injection"
        # Flip back: taint and label both cleared.
        detail = apply_state_fault(FaultSpec("taint-mem", addr), machine)
        assert "1 -> 0" in detail
        if mode == MODE_LABEL:
            assert addr not in machine.plane.mem_labels

    @pytest.mark.parametrize("mode", [MODE_BIT, MODE_LABEL])
    def test_reg_taint_flip_roundtrip(self, mode):
        result = run_minic(
            "int main(void) { return 0; }",
            taint_labels=(mode == MODE_LABEL),
        )
        machine = result.sim
        apply_state_fault(FaultSpec("taint-reg", 9, 0xF), machine)
        assert machine.regs.taints[9] == 0xF
        if mode == MODE_LABEL:
            sid = machine.plane.reg_labels[9]
            assert (
                machine.plane.provenance(sid)[0].source_kind
                == "fault-injection"
            )
        apply_state_fault(FaultSpec("taint-reg", 9, 0xF), machine)
        assert machine.regs.taints[9] == 0
        if mode == MODE_LABEL:
            assert machine.plane.reg_labels[9] == 0


class TestMachineSnapshotWithLabels:
    def test_label_plane_roundtrips_through_machine_snapshot(self):
        result = run_minic(
            "char g[16];\n"
            "int main(void) { read(0, g, 8); return 0; }",
            PointerTaintPolicy(),
            stdin=b"ABCDEFGH",
            taint_labels=True,
        )
        sim = result.sim
        address = sim.executable.address_of("_g_g")
        snap = sim.snapshot()
        before_sid = sim.plane.mem_labels[address]
        # Perturb: clear taint and relabel, then roll back.
        sim.memory.set_taint(address, 8, False)
        table = sim.plane.table
        sim.plane.label_span(
            address, 8, table.singleton(table.new_label(source_kind="env"))
        )
        sim.restore(snap)
        assert sim.plane.mem_labels[address] == before_sid
        assert sim.memory.read_taint(address, 8).mask == 0xFF
        assert sim.plane.table is not None
