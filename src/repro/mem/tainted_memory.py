"""Sparse paged physical memory extended with per-byte taintedness bits.

This is the literal implementation of the paper's section 4.1: "A
taintedness bit is associated with each byte in memory.  When a memory word
is accessed by the processor, the taintedness bits are passed through the
memory hierarchy together with the actual memory words."

Pages are allocated lazily, so the full 32-bit address space is usable --
including the wild addresses (``0x61616161``) that attack payloads produce
when a corruption is allowed to proceed on an unprotected machine.

The shadow taint pages are *owned* by a :class:`repro.taint.plane.TaintPlane`
(``self._taint_pages is plane.mem_taint``); this object manages page
allocation and the per-access fast paths, while the plane owns the
shadow state itself.

Checkpointing: when a :class:`~repro.mem.cow.CowCapture` is active
(``self._cow``), every mutation path copy-on-writes the page's baseline
into the capture on its first post-capture write and records it in the
capture's dirty set, and every page-allocation path records fresh pages.
With no active capture (``_cow is None``) the hot paths pay one ``None``
check.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ..taint.bits import TaintVector
from ..taint.plane import TaintPlane
from .cow import CowCapture
from .layout import PAGE_SIZE

_PAGE_MASK = PAGE_SIZE - 1


class MemoryFault(Exception):
    """Raised for invalid simulated accesses (bad size, misalignment)."""


class TaintedMemory:
    """Byte-addressable little-endian memory with shadow taint bits."""

    def __init__(self, plane: Optional[TaintPlane] = None) -> None:
        if plane is None:
            plane = TaintPlane()
        #: The taint plane owning this memory's shadow state (and, in label
        #: mode, the provenance sidecar keyed by physical address).
        self.plane = plane
        self._pages: Dict[int, bytearray] = {}
        # Identity-shared with the plane: pages materialize here, the
        # plane owns the shadow state.
        self._taint_pages: Dict[int, bytearray] = plane.mem_taint
        # Identity-shared clean-page summary (see TaintPlane.tainted_pages):
        # a page base absent from this set is guaranteed all-clean, so reads
        # skip the per-byte shadow loop and clean writes skip the clearing
        # loop.  Conservative: taint-setting paths add, untaint never removes.
        self._tainted_pages = plane.tainted_pages
        #: Running count of tainted-byte writes, for statistics.
        self.tainted_bytes_written = 0
        #: Active delta capture (None = no tracking; see module docstring).
        self._cow: Optional[CowCapture] = None

    # ------------------------------------------------------------------
    # page management
    # ------------------------------------------------------------------

    def _page(self, addr: int) -> Tuple[bytearray, bytearray, int]:
        base = addr & ~_PAGE_MASK
        page = self._pages.get(base)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[base] = page
            self._taint_pages[base] = bytearray(PAGE_SIZE)
            if self._cow is not None:
                self._cow.fresh.add(base)
        return page, self._taint_pages[base], addr & _PAGE_MASK

    def mapped_pages(self) -> int:
        """Number of pages materialized so far."""
        return len(self._pages)

    def page_addresses(self) -> Tuple[int, ...]:
        """Base addresses of materialized pages, ascending (fault-target
        sampling and snapshot digests need a deterministic order)."""
        return tuple(sorted(self._pages))

    # ------------------------------------------------------------------
    # delta capture lifecycle (driven by MachineState.snapshot/restore)
    # ------------------------------------------------------------------

    def begin_cow(self) -> CowCapture:
        """Start a new delta capture, making any active one stale, and
        return it for the plane to finish filling."""
        cow = CowCapture()
        cow.tainted_bytes_written = self.tainted_bytes_written
        self._cow = cow
        return cow

    def restore_cow(self, cow: CowCapture) -> None:
        """Delta-restore the data plane: drop pages materialized since
        capture (from *both* page dicts -- they share one key set) and
        rewrite only the dirtied data pages from their baselines.  The
        shadow plane is restored by :meth:`TaintPlane.restore_cow`."""
        pages = self._pages
        taints = self._taint_pages
        if cow.fresh:
            for base in cow.fresh:
                pages.pop(base, None)
                taints.pop(base, None)
        baseline = cow.data_baseline
        for base in cow.data_dirty:
            page = pages.get(base)
            if page is not None:
                page[:] = baseline[base]
        self.tainted_bytes_written = cow.tainted_bytes_written

    # ------------------------------------------------------------------
    # scalar accesses (hot path: used by the execution engines)
    # ------------------------------------------------------------------

    def read(self, addr: int, size: int) -> Tuple[int, int]:
        """Read ``size`` bytes; return ``(value, taint_mask)``, little-endian."""
        if size not in (1, 2, 4):
            raise MemoryFault(f"bad access size {size}")
        addr &= 0xFFFFFFFF
        base = addr & ~_PAGE_MASK
        page = self._pages.get(base)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[base] = page
            self._taint_pages[base] = bytearray(PAGE_SIZE)
            if self._cow is not None:
                self._cow.fresh.add(base)
        offset = addr & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            value = int.from_bytes(page[offset : offset + size], "little")
            if base not in self._tainted_pages:
                # Clean-page fast path: the summary proves every shadow
                # byte on this page is zero.
                return value, 0
            taint = self._taint_pages[base]
            mask = 0
            for i in range(size):
                if taint[offset + i]:
                    mask |= 1 << i
            return value, mask
        # Access straddles a page boundary: fall back to byte-by-byte.
        value = 0
        mask = 0
        for i in range(size):
            byte, bit = self._read_byte(addr + i)
            value |= byte << (8 * i)
            if bit:
                mask |= 1 << i
        return value, mask

    def write(self, addr: int, size: int, value: int, taint_mask: int = 0) -> None:
        """Write ``size`` bytes of ``value`` with per-byte ``taint_mask``."""
        if size not in (1, 2, 4):
            raise MemoryFault(f"bad access size {size}")
        addr &= 0xFFFFFFFF
        base = addr & ~_PAGE_MASK
        page = self._pages.get(base)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[base] = page
            self._taint_pages[base] = bytearray(PAGE_SIZE)
            if self._cow is not None:
                self._cow.fresh.add(base)
        offset = addr & _PAGE_MASK
        if offset + size <= PAGE_SIZE:
            cow = self._cow
            if cow is not None and base not in cow.data_dirty:
                cow.data_dirty.add(base)
                if base not in cow.fresh:
                    cow.data_baseline[base] = bytes(page)
            value &= (1 << (8 * size)) - 1
            page[offset : offset + size] = value.to_bytes(size, "little")
            if taint_mask:
                taint = self._taint_pages[base]
                if cow is not None and base not in cow.shadow_dirty:
                    cow.shadow_dirty.add(base)
                    if base not in cow.fresh:
                        cow.shadow_baseline[base] = bytes(taint)
                self._tainted_pages.add(base)
                for i in range(size):
                    bit = 1 if taint_mask >> i & 1 else 0
                    taint[offset + i] = bit
                    if bit:
                        self.tainted_bytes_written += 1
            elif base in self._tainted_pages:
                taint = self._taint_pages[base]
                if cow is not None and base not in cow.shadow_dirty:
                    cow.shadow_dirty.add(base)
                    if base not in cow.fresh:
                        cow.shadow_baseline[base] = bytes(taint)
                taint[offset : offset + size] = bytes(size)
            # Clean write to a clean page: shadow bytes are already zero.
            return
        for i in range(size):
            self._write_byte(addr + i, value >> (8 * i) & 0xFF, bool(taint_mask >> i & 1))

    def _read_byte(self, addr: int) -> Tuple[int, int]:
        page, taint, offset = self._page(addr & 0xFFFFFFFF)
        return page[offset], taint[offset]

    def _write_byte(self, addr: int, value: int, tainted: bool) -> None:
        addr &= 0xFFFFFFFF
        page, taint, offset = self._page(addr)
        base = addr & ~_PAGE_MASK
        cow = self._cow
        if cow is not None and base not in cow.data_dirty:
            cow.data_dirty.add(base)
            if base not in cow.fresh:
                cow.data_baseline[base] = bytes(page)
        page[offset] = value & 0xFF
        if tainted or base in self._tainted_pages:
            # A clean-byte write to a clean page leaves the (all-zero)
            # shadow byte untouched, so only this branch mutates shadow.
            if cow is not None and base not in cow.shadow_dirty:
                cow.shadow_dirty.add(base)
                if base not in cow.fresh:
                    cow.shadow_baseline[base] = bytes(taint)
            taint[offset] = 1 if tainted else 0
        if tainted:
            self.tainted_bytes_written += 1
            self._tainted_pages.add(base)

    # ------------------------------------------------------------------
    # bulk accesses (loader, system calls, tests)
    # ------------------------------------------------------------------

    def read_bytes(self, addr: int, length: int) -> bytes:
        """Read a raw byte string (taint ignored)."""
        out = bytearray()
        remaining = length
        cursor = addr
        while remaining > 0:
            page, _, offset = self._page(cursor & 0xFFFFFFFF)
            chunk = min(remaining, PAGE_SIZE - offset)
            out.extend(page[offset : offset + chunk])
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def read_taint(self, addr: int, length: int) -> TaintVector:
        """Read the shadow taint of a byte span.

        Page-chunked: clean pages (per the summary set) contribute no
        bits without being scanned, and tainted pages are scanned with
        ``bytearray.find`` -- O(set bits) at C speed -- instead of one
        ``_read_byte`` per byte.
        """
        mask = 0
        produced = 0
        cursor = addr
        remaining = length
        tainted_pages = self._tainted_pages
        while remaining > 0:
            a = cursor & 0xFFFFFFFF
            _, taint, offset = self._page(a)
            chunk = min(remaining, PAGE_SIZE - offset)
            if (a & ~_PAGE_MASK) in tainted_pages:
                end = offset + chunk
                idx = taint.find(1, offset, end)
                while idx >= 0:
                    mask |= 1 << (produced + idx - offset)
                    idx = taint.find(1, idx + 1, end)
            cursor += chunk
            produced += chunk
            remaining -= chunk
        return TaintVector(length, mask)

    def write_bytes(
        self,
        addr: int,
        data: Union[bytes, bytearray],
        taint: Union[bool, TaintVector] = False,
    ) -> None:
        """Write a byte string; ``taint`` is a bool or per-byte vector."""
        if isinstance(taint, TaintVector):
            if len(taint) != len(data):
                raise MemoryFault("taint vector length mismatch")
            # Page-sliced like the uniform path below: the vector's mask
            # is chunked per page, so a mixed-taint buffer costs one data
            # slice assignment + one shadow slice per page instead of one
            # ``_write_byte`` per byte.  Straddle semantics are identical
            # (chunks split exactly at page boundaries).
            vmask = taint.mask
            cursor = addr
            position = 0
            remaining = len(data)
            while remaining > 0:
                a = cursor & 0xFFFFFFFF
                base = a & ~_PAGE_MASK
                page, taint_page, offset = self._page(a)
                chunk = min(remaining, PAGE_SIZE - offset)
                cow = self._cow
                if cow is not None and base not in cow.data_dirty:
                    cow.data_dirty.add(base)
                    if base not in cow.fresh:
                        cow.data_baseline[base] = bytes(page)
                page[offset : offset + chunk] = data[position : position + chunk]
                sub = (vmask >> position) & ((1 << chunk) - 1)
                if sub:
                    if cow is not None and base not in cow.shadow_dirty:
                        cow.shadow_dirty.add(base)
                        if base not in cow.fresh:
                            cow.shadow_baseline[base] = bytes(taint_page)
                    self._tainted_pages.add(base)
                    taint_page[offset : offset + chunk] = bytes(
                        sub >> i & 1 for i in range(chunk)
                    )
                    self.tainted_bytes_written += sub.bit_count()
                elif base in self._tainted_pages:
                    if cow is not None and base not in cow.shadow_dirty:
                        cow.shadow_dirty.add(base)
                        if base not in cow.fresh:
                            cow.shadow_baseline[base] = bytes(taint_page)
                    taint_page[offset : offset + chunk] = bytes(chunk)
                cursor += chunk
                position += chunk
                remaining -= chunk
            return
        # Uniform taint: copy page-sized slices (fast path for loaders and
        # bulk kernel I/O).
        fill = 1 if taint else 0
        cursor = addr
        position = 0
        remaining = len(data)
        while remaining > 0:
            base = cursor & 0xFFFFFFFF & ~_PAGE_MASK
            page, taint_page, offset = self._page(cursor & 0xFFFFFFFF)
            chunk = min(remaining, PAGE_SIZE - offset)
            cow = self._cow
            if cow is not None and base not in cow.data_dirty:
                cow.data_dirty.add(base)
                if base not in cow.fresh:
                    cow.data_baseline[base] = bytes(page)
            page[offset : offset + chunk] = data[position : position + chunk]
            if fill:
                if cow is not None and base not in cow.shadow_dirty:
                    cow.shadow_dirty.add(base)
                    if base not in cow.fresh:
                        cow.shadow_baseline[base] = bytes(taint_page)
                self._tainted_pages.add(base)
                taint_page[offset : offset + chunk] = b"\x01" * chunk
            elif base in self._tainted_pages:
                if cow is not None and base not in cow.shadow_dirty:
                    cow.shadow_dirty.add(base)
                    if base not in cow.fresh:
                        cow.shadow_baseline[base] = bytes(taint_page)
                taint_page[offset : offset + chunk] = bytes(chunk)
            cursor += chunk
            position += chunk
            remaining -= chunk
        if fill:
            self.tainted_bytes_written += len(data)

    def read_cstring(self, addr: int, max_length: int = 4096) -> bytes:
        """Read a NUL-terminated string (terminator excluded).

        Scans page-chunked with ``page.find(0, offset)`` instead of one
        ``_page()`` lookup per byte; pages past the terminator are never
        materialized (same as the byte-at-a-time implementation).
        """
        out = bytearray()
        cursor = addr
        remaining = max_length
        while remaining > 0:
            page, _, offset = self._page(cursor & 0xFFFFFFFF)
            chunk = min(remaining, PAGE_SIZE - offset)
            idx = page.find(0, offset, offset + chunk)
            if idx >= 0:
                out.extend(page[offset:idx])
                return bytes(out)
            out.extend(page[offset : offset + chunk])
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def set_taint(self, addr: int, length: int, tainted: bool) -> None:
        """Force the taint of a byte span without touching the data.

        Page-sliced: a taint set is one slice fill per page, a taint
        clear is skipped entirely on pages the summary proves clean
        (their shadow bytes are already zero).
        """
        cursor = addr
        remaining = length
        while remaining > 0:
            a = cursor & 0xFFFFFFFF
            base = a & ~_PAGE_MASK
            _, taint_page, offset = self._page(a)
            chunk = min(remaining, PAGE_SIZE - offset)
            if tainted:
                cow = self._cow
                if cow is not None and base not in cow.shadow_dirty:
                    cow.shadow_dirty.add(base)
                    if base not in cow.fresh:
                        cow.shadow_baseline[base] = bytes(taint_page)
                taint_page[offset : offset + chunk] = b"\x01" * chunk
                self._tainted_pages.add(base)
            elif base in self._tainted_pages:
                cow = self._cow
                if cow is not None and base not in cow.shadow_dirty:
                    cow.shadow_dirty.add(base)
                    if base not in cow.fresh:
                        cow.shadow_baseline[base] = bytes(taint_page)
                taint_page[offset : offset + chunk] = bytes(chunk)
            cursor += chunk
            remaining -= chunk

    def count_tainted(self, addr: int, length: int) -> int:
        """Number of tainted bytes in a span (page-chunked ``count``)."""
        total = 0
        cursor = addr
        remaining = length
        while remaining > 0:
            a = cursor & 0xFFFFFFFF
            _, taint, offset = self._page(a)
            chunk = min(remaining, PAGE_SIZE - offset)
            if (a & ~_PAGE_MASK) in self._tainted_pages:
                total += taint.count(1, offset, offset + chunk)
            cursor += chunk
            remaining -= chunk
        return total
