"""Tests for the taint-extended memory, register file, and caches."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.taint.bits import TaintVector
from repro.mem.cache import Cache, CacheHierarchy
from repro.mem.layout import AddressSpace, PAGE_SIZE, STACK_TOP, TEXT_BASE
from repro.mem.registers import RegisterFile
from repro.mem.tainted_memory import MemoryFault, TaintedMemory


class TestTaintedMemory:
    def test_zero_initialized(self):
        mem = TaintedMemory()
        assert mem.read(0x1000, 4) == (0, 0)

    def test_word_roundtrip_little_endian(self):
        mem = TaintedMemory()
        mem.write(0x1000, 4, 0x12345678)
        assert mem.read(0x1000, 1)[0] == 0x78
        assert mem.read(0x1003, 1)[0] == 0x12

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_sizes_roundtrip(self, size):
        mem = TaintedMemory()
        value = 0xDEADBEEF & ((1 << (8 * size)) - 1)
        mem.write(0x2000, size, value, taint_mask=(1 << size) - 1)
        assert mem.read(0x2000, size) == (value, (1 << size) - 1)

    def test_bad_size_rejected(self):
        mem = TaintedMemory()
        with pytest.raises(MemoryFault):
            mem.read(0, 3)
        with pytest.raises(MemoryFault):
            mem.write(0, 8, 0)

    def test_taint_travels_with_bytes(self):
        mem = TaintedMemory()
        mem.write(0x1000, 4, 0xAABBCCDD, taint_mask=0b0101)
        value, taint = mem.read(0x1000, 4)
        assert taint == 0b0101
        # Partial reads see the right per-byte bits.
        assert mem.read(0x1000, 1)[1] == 1
        assert mem.read(0x1001, 1)[1] == 0

    def test_overwrite_clears_taint(self):
        mem = TaintedMemory()
        mem.write(0x1000, 4, 1, taint_mask=0xF)
        mem.write(0x1000, 4, 2, taint_mask=0)
        assert mem.read(0x1000, 4) == (2, 0)

    def test_page_straddling_access(self):
        mem = TaintedMemory()
        addr = PAGE_SIZE - 2
        mem.write(addr, 4, 0x11223344, taint_mask=0b1001)
        assert mem.read(addr, 4) == (0x11223344, 0b1001)

    def test_address_wraparound_masked(self):
        mem = TaintedMemory()
        mem.write(0xFFFFFFFF, 1, 0x42)
        assert mem.read(0xFFFFFFFF, 1)[0] == 0x42

    def test_bulk_bytes_roundtrip(self):
        mem = TaintedMemory()
        blob = bytes(range(200))
        mem.write_bytes(0x3000, blob, True)
        assert mem.read_bytes(0x3000, 200) == blob
        assert mem.read_taint(0x3000, 200).is_fully_tainted()

    def test_bulk_write_spanning_pages(self):
        mem = TaintedMemory()
        blob = bytes([7]) * (PAGE_SIZE + 100)
        mem.write_bytes(PAGE_SIZE - 50, blob, False)
        assert mem.read_bytes(PAGE_SIZE - 50, len(blob)) == blob

    def test_write_bytes_with_vector(self):
        mem = TaintedMemory()
        taint = TaintVector.from_flags([True, False, True])
        mem.write_bytes(0x100, b"abc", taint)
        assert list(mem.read_taint(0x100, 3)) == [True, False, True]

    def test_write_bytes_vector_length_mismatch(self):
        mem = TaintedMemory()
        with pytest.raises(MemoryFault):
            mem.write_bytes(0, b"ab", TaintVector.clean(3))

    def test_read_cstring(self):
        mem = TaintedMemory()
        mem.write_bytes(0x500, b"hello\0world")
        assert mem.read_cstring(0x500) == b"hello"

    def test_read_cstring_respects_limit(self):
        mem = TaintedMemory()
        mem.write_bytes(0x500, b"x" * 100)
        assert len(mem.read_cstring(0x500, max_length=10)) == 10

    def test_set_taint_preserves_data(self):
        mem = TaintedMemory()
        mem.write_bytes(0x600, b"data")
        mem.set_taint(0x600, 4, True)
        assert mem.read_bytes(0x600, 4) == b"data"
        assert mem.count_tainted(0x600, 4) == 4
        mem.set_taint(0x601, 2, False)
        assert mem.count_tainted(0x600, 4) == 2

    def test_tainted_write_counter(self):
        mem = TaintedMemory()
        mem.write(0x0, 4, 0, taint_mask=0b11)
        mem.write_bytes(0x10, b"abc", True)
        assert mem.tainted_bytes_written == 5

    @given(
        st.integers(0, 0xFFFFF000),
        st.binary(min_size=1, max_size=300),
        st.booleans(),
    )
    @settings(max_examples=50)
    def test_bulk_roundtrip_property(self, addr, blob, taint):
        mem = TaintedMemory()
        mem.write_bytes(addr, blob, taint)
        assert mem.read_bytes(addr, len(blob)) == blob
        vector = mem.read_taint(addr, len(blob))
        assert vector.is_fully_tainted() if taint else vector.is_clean()

    @given(st.integers(0, 2**32 - 5), st.integers(0, 2**32 - 1),
           st.integers(0, 0xF))
    @settings(max_examples=50)
    def test_word_roundtrip_property(self, addr, value, taint):
        mem = TaintedMemory()
        mem.write(addr, 4, value, taint)
        assert mem.read(addr, 4) == (value, taint)


class TestRegisterFile:
    def test_register_zero_hardwired(self):
        regs = RegisterFile()
        regs.write(0, 0xDEADBEEF, 0xF)
        assert regs.read(0) == (0, 0)
        regs.set_taint(0, 0xF)
        assert regs.taint(0) == 0

    def test_write_read(self):
        regs = RegisterFile()
        regs.write(7, 0x1234, 0b0011)
        assert regs.read(7) == (0x1234, 0b0011)
        assert regs.value(7) == 0x1234
        assert regs.taint(7) == 0b0011

    def test_values_masked_to_32_bits(self):
        regs = RegisterFile()
        regs.write(5, 0x1_0000_0001)
        assert regs.value(5) == 1

    def test_set_taint_only(self):
        regs = RegisterFile()
        regs.write(9, 42, 0xF)
        regs.set_taint(9, 0)
        assert regs.read(9) == (42, 0)

    def test_tainted_registers_listing(self):
        regs = RegisterFile()
        regs.write(3, 1, 0b1)
        regs.write(17, 1, 0b1000)
        assert regs.tainted_registers() == [3, 17]

    def test_dump_marks_tainted(self):
        regs = RegisterFile()
        regs.write(8, 0xABCD, 0xF)
        dump = regs.dump()
        assert "0000abcd*" in dump


class TestCaches:
    def test_read_through_miss_then_hit(self):
        mem = TaintedMemory()
        mem.write(0x1000, 4, 0xCAFEBABE, 0b0110)
        cache = Cache("L1", size=1024, line_size=32, associativity=2,
                      memory=mem)
        assert cache.read(0x1000, 4) == (0xCAFEBABE, 0b0110)
        assert cache.stats.misses == 1
        assert cache.read(0x1000, 4) == (0xCAFEBABE, 0b0110)
        assert cache.stats.hits == 1

    def test_writeback_carries_taint(self):
        mem = TaintedMemory()
        cache = Cache("L1", size=64, line_size=32, associativity=1,
                      memory=mem)
        cache.write(0x0, 4, 0x11, 0xF)          # dirty line A
        cache.read(0x0 + 64, 4)                 # same set, evicts A
        # RAM must now hold both data and taint of the evicted line.
        assert mem.read(0x0, 4) == (0x11, 0xF)

    def test_flush_writes_dirty_lines(self):
        mem = TaintedMemory()
        cache = Cache("L1", size=1024, line_size=32, associativity=2,
                      memory=mem)
        cache.write(0x40, 4, 0x99, 0b0001)
        assert mem.read(0x40, 4) == (0, 0)      # still only in cache
        cache.flush()
        assert mem.read(0x40, 4) == (0x99, 0b0001)

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            Cache("bad", size=100, line_size=32, associativity=3,
                  memory=TaintedMemory())
        with pytest.raises(ValueError):
            Cache("none", size=64, line_size=32, associativity=1)

    def test_hierarchy_taint_survives_l1_l2_ram_roundtrip(self):
        """Section 4.1: taint passes through the memory hierarchy."""
        mem = TaintedMemory()
        hierarchy = CacheHierarchy(mem, l1_size=64, l2_size=256, line_size=32)
        hierarchy.write(0x2000, 4, 0x61616161, 0xF)
        # Evict through both levels by touching conflicting lines.
        for i in range(1, 40):
            hierarchy.read(0x2000 + i * 64, 4)
        hierarchy.flush()
        assert mem.read(0x2000, 4) == (0x61616161, 0xF)
        # And a fresh hierarchy refetches the taint from RAM.
        fresh = CacheHierarchy(mem, l1_size=64, l2_size=256, line_size=32)
        assert fresh.read(0x2000, 4) == (0x61616161, 0xF)

    def test_hierarchy_unaligned_straddle_bypasses(self):
        mem = TaintedMemory()
        hierarchy = CacheHierarchy(mem)
        hierarchy.write(0x101E, 4, 0x31323334, 0b1111)  # straddles a line
        assert hierarchy.read(0x101E, 4) == (0x31323334, 0b1111)

    def test_hit_rate_statistic(self):
        mem = TaintedMemory()
        cache = Cache("L1", size=1024, line_size=32, associativity=2,
                      memory=mem)
        assert cache.stats.hit_rate == 0.0
        cache.read(0, 4)
        cache.read(0, 4)
        cache.read(0, 4)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)


class TestAddressSpace:
    def test_segment_classification(self):
        space = AddressSpace()
        space.text_end = TEXT_BASE + 0x1000
        space.brk = space.data_base + 0x2000
        assert space.segment_of(TEXT_BASE + 4) == "text"
        assert space.segment_of(space.data_base + 8) == "data/heap"
        assert space.segment_of(STACK_TOP - 64) == "stack"
        assert space.segment_of(0x5000) == "unmapped"
