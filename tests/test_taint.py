"""Unit and property tests for the per-byte taint representation."""

import pytest
from hypothesis import given, strategies as st

from repro.taint.bits import (
    CLEAN,
    TaintVector,
    WORD_TAINTED,
    flags_from_mask,
    mask_for_bytes,
    mask_from_flags,
    word_mask_is_tainted,
)


class TestWordMasks:
    def test_clean_is_zero(self):
        assert CLEAN == 0
        assert not word_mask_is_tainted(CLEAN)

    def test_word_tainted_covers_four_bytes(self):
        assert WORD_TAINTED == 0b1111

    @pytest.mark.parametrize("mask", [0b0001, 0b0010, 0b0100, 0b1000, 0b1111])
    def test_any_byte_marks_word(self, mask):
        assert word_mask_is_tainted(mask)

    def test_mask_for_bytes(self):
        assert mask_for_bytes(0) == 0
        assert mask_for_bytes(1) == 1
        assert mask_for_bytes(4) == 0xF
        assert mask_for_bytes(8) == 0xFF

    def test_mask_for_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            mask_for_bytes(-1)

    def test_mask_from_flags_roundtrip(self):
        flags = [True, False, True, True]
        assert flags_from_mask(mask_from_flags(flags), 4) == flags


class TestTaintVector:
    def test_clean_constructor(self):
        tv = TaintVector.clean(8)
        assert tv.is_clean()
        assert not tv.any_tainted()
        assert tv.count() == 0

    def test_tainted_constructor(self):
        tv = TaintVector.tainted(3)
        assert tv.is_fully_tainted()
        assert tv.count() == 3

    def test_zero_length(self):
        tv = TaintVector.clean(0)
        assert tv.is_clean()
        assert tv.is_fully_tainted()  # vacuously
        assert len(tv) == 0

    def test_from_flags(self):
        tv = TaintVector.from_flags([False, True, False])
        assert not tv[0]
        assert tv[1]
        assert not tv[2]

    def test_indexing_bounds(self):
        tv = TaintVector.clean(2)
        with pytest.raises(IndexError):
            tv[2]
        with pytest.raises(IndexError):
            tv[-1]

    def test_mask_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TaintVector(2, 0b100)
        with pytest.raises(ValueError):
            TaintVector(2, -1)

    def test_or_and(self):
        a = TaintVector.from_flags([True, False, True])
        b = TaintVector.from_flags([False, False, True])
        assert list(a | b) == [True, False, True]
        assert list(a & b) == [False, False, True]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TaintVector.clean(2) | TaintVector.clean(3)

    def test_slice(self):
        tv = TaintVector.from_flags([True, False, True, True])
        assert list(tv.slice(1, 2)) == [False, True]
        assert list(tv.slice(0, 0)) == []

    def test_slice_out_of_range(self):
        with pytest.raises(ValueError):
            TaintVector.clean(4).slice(2, 3)

    def test_concat(self):
        a = TaintVector.from_flags([True])
        b = TaintVector.from_flags([False, True])
        assert list(a.concat(b)) == [True, False, True]

    def test_with_span_set_and_clear(self):
        tv = TaintVector.clean(4).with_span(1, 2, True)
        assert list(tv) == [False, True, True, False]
        tv = tv.with_span(0, 4, False)
        assert tv.is_clean()

    def test_equality_and_hash(self):
        a = TaintVector.from_flags([True, False])
        b = TaintVector(2, 0b01)
        assert a == b
        assert hash(a) == hash(b)
        assert a != TaintVector(2, 0b10)
        assert a != "not a vector"

    def test_repr_uses_t_dots(self):
        assert repr(TaintVector.from_flags([True, False])) == (
            "TaintVector('T.')"
        )


class TestTaintVectorProperties:
    @given(st.lists(st.booleans(), max_size=64))
    def test_flags_roundtrip(self, flags):
        assert list(TaintVector.from_flags(flags)) == flags

    @given(st.integers(0, 64), st.data())
    def test_or_is_monotone(self, length, data):
        mask_a = data.draw(st.integers(0, mask_for_bytes(length)))
        mask_b = data.draw(st.integers(0, mask_for_bytes(length)))
        a, b = TaintVector(length, mask_a), TaintVector(length, mask_b)
        union = a | b
        assert union.count() >= max(a.count(), b.count())
        # OR never loses taint: every tainted byte stays tainted.
        for i in range(length):
            if a[i] or b[i]:
                assert union[i]

    @given(st.lists(st.booleans(), min_size=1, max_size=32), st.data())
    def test_slice_concat_identity(self, flags, data):
        tv = TaintVector.from_flags(flags)
        cut = data.draw(st.integers(0, len(flags)))
        left = tv.slice(0, cut)
        right = tv.slice(cut, len(flags) - cut)
        assert left.concat(right) == tv

    @given(st.lists(st.booleans(), max_size=32))
    def test_or_identity_and_idempotence(self, flags):
        tv = TaintVector.from_flags(flags)
        assert tv | TaintVector.clean(len(flags)) == tv
        assert tv | tv == tv
