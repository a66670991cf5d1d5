"""Per-byte taintedness representation (the paper's extended memory model).

The DSN'05 paper (section 4.1) extends every byte of storage -- physical
memory, caches, and the register file -- with one *taintedness bit*.  A byte
is tainted when its value is derived, directly or indirectly, from external
input (network, file system, keyboard, command line, environment).

Two representations are used throughout the code base:

* **Word taint masks** -- a 4-bit integer, bit ``i`` set when byte ``i`` of a
  32-bit little-endian word is tainted.  These are what the register file and
  the ALU taint-tracking logic manipulate; they are plain ``int`` values for
  speed.
* **:class:`TaintVector`** -- an arbitrary-length per-byte taint bitmap used
  when moving buffers in and out of simulated memory (system calls, attack
  payload construction, assertions in tests).

This module is the *bit layer* of the taint subsystem: pure representation,
no storage.  Shadow storage (per-byte taint pages, register taint masks) and
the optional provenance-label sidecar live in :mod:`repro.taint.plane`;
label identity and set algebra live in :mod:`repro.taint.labels`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

#: Taint mask for a fully clean 32-bit word.
CLEAN = 0

#: Taint mask for a fully tainted 32-bit word (all four bytes).
WORD_TAINTED = 0xF

#: Number of bytes in a machine word.
WORD_BYTES = 4


def word_mask_is_tainted(mask: int) -> bool:
    """Return True when any byte of a word taint mask is tainted.

    This models the OR-gate of section 4.3: the detector ORs the four
    taintedness bits of an address word and raises when the result is 1.
    """
    return (mask & WORD_TAINTED) != 0


def mask_for_bytes(length: int) -> int:
    """All-tainted mask for a span of ``length`` bytes."""
    if length < 0:
        raise ValueError("length must be non-negative")
    return (1 << length) - 1


def mask_from_flags(flags: Iterable[bool]) -> int:
    """Build a taint mask from an iterable of per-byte booleans (byte 0 first)."""
    mask = 0
    for i, flag in enumerate(flags):
        if flag:
            mask |= 1 << i
    return mask


def flags_from_mask(mask: int, length: int) -> List[bool]:
    """Expand a taint mask into a list of per-byte booleans."""
    return [bool(mask >> i & 1) for i in range(length)]


class TaintVector:
    """A per-byte taint bitmap for a buffer of known length.

    Internally the bitmap is a single Python integer (bit ``i`` corresponds
    to byte ``i``), which keeps boolean algebra over large buffers cheap.

    >>> tv = TaintVector.tainted(4)
    >>> tv.is_fully_tainted()
    True
    >>> (tv | TaintVector.clean(4)).mask
    15
    """

    __slots__ = ("length", "mask")

    def __init__(self, length: int, mask: int = 0) -> None:
        if length < 0:
            raise ValueError("length must be non-negative")
        limit = 1 << length
        if mask < 0 or mask >= limit:
            raise ValueError(
                f"mask {mask:#x} out of range for {length}-byte vector"
            )
        self.length = length
        self.mask = mask

    # -- constructors ------------------------------------------------------

    @classmethod
    def clean(cls, length: int) -> "TaintVector":
        """A fully untainted vector of ``length`` bytes."""
        return cls(length, 0)

    @classmethod
    def tainted(cls, length: int) -> "TaintVector":
        """A fully tainted vector of ``length`` bytes."""
        return cls(length, mask_for_bytes(length))

    @classmethod
    def from_flags(cls, flags: Sequence[bool]) -> "TaintVector":
        """Build from a sequence of booleans, byte 0 first."""
        return cls(len(flags), mask_from_flags(flags))

    # -- queries -----------------------------------------------------------

    def is_clean(self) -> bool:
        """True when no byte is tainted."""
        return self.mask == 0

    def is_fully_tainted(self) -> bool:
        """True when every byte is tainted."""
        return self.mask == mask_for_bytes(self.length)

    def any_tainted(self) -> bool:
        """True when at least one byte is tainted."""
        return self.mask != 0

    def count(self) -> int:
        """Number of tainted bytes."""
        return bin(self.mask).count("1")

    def __getitem__(self, index: int) -> bool:
        if not 0 <= index < self.length:
            raise IndexError(index)
        return bool(self.mask >> index & 1)

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[bool]:
        return iter(flags_from_mask(self.mask, self.length))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaintVector):
            return NotImplemented
        return self.length == other.length and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.length, self.mask))

    def __repr__(self) -> str:
        bits = "".join("T" if flag else "." for flag in self)
        return f"TaintVector({bits!r})"

    # -- algebra -----------------------------------------------------------

    def _check_compatible(self, other: "TaintVector") -> None:
        if self.length != other.length:
            raise ValueError(
                f"length mismatch: {self.length} vs {other.length}"
            )

    def __or__(self, other: "TaintVector") -> "TaintVector":
        self._check_compatible(other)
        return TaintVector(self.length, self.mask | other.mask)

    def __and__(self, other: "TaintVector") -> "TaintVector":
        self._check_compatible(other)
        return TaintVector(self.length, self.mask & other.mask)

    def slice(self, start: int, length: int) -> "TaintVector":
        """Extract the taint of ``length`` bytes starting at ``start``."""
        if start < 0 or length < 0 or start + length > self.length:
            raise ValueError("slice out of range")
        return TaintVector(length, self.mask >> start & mask_for_bytes(length))

    def concat(self, other: "TaintVector") -> "TaintVector":
        """Concatenate two vectors (self first, i.e. at lower byte offsets)."""
        return TaintVector(
            self.length + other.length, self.mask | other.mask << self.length
        )

    def with_span(self, start: int, length: int, tainted: bool) -> "TaintVector":
        """Return a copy with ``length`` bytes at ``start`` set or cleared."""
        if start < 0 or length < 0 or start + length > self.length:
            raise ValueError("span out of range")
        span = mask_for_bytes(length) << start
        mask = self.mask | span if tainted else self.mask & ~span
        return TaintVector(self.length, mask)
