"""The unified taint plane: one owner for every byte of shadow state.

The DSN'05 design extends each byte of storage with a taintedness bit.
Before this subsystem existed that shadow state was hand-rolled in three
places -- taint pages in :class:`~repro.mem.tainted_memory.TaintedMemory`,
word masks in :class:`~repro.mem.registers.RegisterFile`, taint bytes in
cache lines -- and snapshot/restore copied each independently.  The
:class:`TaintPlane` now *owns* the memory taint-page dict and the register
taint list (the memory/register objects share them by identity, so the
decode-once executor closures keep their captured references) and is the
single thing :meth:`~repro.cpu.machine.MachineState.snapshot` captures
for shadow state (:meth:`begin_cow` / :meth:`restore_cow`).  Cache lines
still carry their own taint bytes -- they are a coherence-managed *copy*
of plane state, snapshotted with the cache.

Two modes:

* **bit mode** (default): exactly the paper's 1-bit-per-byte plane.  No
  label storage is allocated and :attr:`flow` is None, so the dispatch
  binders skip every label call at bind time -- zero overhead vs the
  pre-refactor hot path (guarded by ``bench_simulator_throughput``).
* **label mode**: a sparse sidecar maps tainted bytes to interned
  label-set ids (:mod:`repro.taint.labels`).  The sidecar is keyed by
  physical address and updated eagerly at store/copy-in time, so it stays
  coherent whether or not accesses route through the cache hierarchy.
  Label reads are always *gated on the taintedness bit*: a stale sid
  under a clean byte is unreachable, which is what lets untaint paths
  (compare/xor-zero/AND-zero rules, overwrites) skip the sidecar
  entirely and keep bit-mode semantics identical.

Provenance queries (:meth:`provenance`, :meth:`span_sid`) resolve sids
back to :class:`~repro.taint.labels.TaintLabel` tuples for detection
exceptions, forensics, traces, and ``--json`` output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .bits import WORD_TAINTED
from .labels import LabelTable, TaintLabel

_PAGE_SHIFT = 12  # PAGE_SIZE == 4096 (repro.mem.layout); kept local to
_PAGE_MASK = (1 << _PAGE_SHIFT) - 1  # avoid an import cycle with mem.

__all__ = ["MODE_BIT", "MODE_LABEL", "TaintPlane"]

MODE_BIT = "bit"
MODE_LABEL = "label"

_MASK32 = 0xFFFFFFFF


class TaintPlane:
    """Per-byte shadow storage plus (optionally) provenance-label algebra.

    Args:
        mode: ``"bit"`` for the paper's 1-bit plane, ``"label"`` to attach
            the provenance sidecar and label table.
    """

    def __init__(self, mode: str = MODE_BIT) -> None:
        if mode not in (MODE_BIT, MODE_LABEL):
            raise ValueError(f"unknown taint plane mode: {mode!r}")
        self.mode = mode
        #: Page-base -> per-byte taint bitmap.  Shared by identity with
        #: ``TaintedMemory._taint_pages``; the memory object manages page
        #: allocation, the plane owns the shadow checkpoint.
        self.mem_taint: Dict[int, bytearray] = {}
        #: Clean-page summary: page bases that *may* hold tainted bytes.
        #: Shared by identity with ``TaintedMemory._tainted_pages``.  The
        #: set is conservative -- every path that sets a taint bit adds
        #: the page, untaint paths never remove it -- so "base not in
        #: tainted_pages" proves the page's taint bytes are all zero and
        #: fully-clean workloads skip per-byte shadow reads entirely.
        #: :meth:`begin_cow` shrinks it to the exact set at capture.
        self.tainted_pages: Set[int] = set()
        #: Word taint masks for the 32 GPRs.  Shared by identity with
        #: ``RegisterFile.taints``.
        self.reg_taints: List[int] = [0] * 32
        if mode == MODE_LABEL:
            self.table: Optional[LabelTable] = LabelTable()
            #: Sparse sidecar: physical address -> label-set id.  Only
            #: consulted for bytes whose taint bit is set.
            self.mem_labels: Dict[int, int] = {}
            self.reg_labels: List[int] = [0] * 32
            self.hilo_label: int = 0
        else:
            self.table = None
            self.mem_labels = {}
            self.reg_labels = [0] * 32
            self.hilo_label = 0
        #: Active delta capture, shared with the owning TaintedMemory
        #: (``memory._cow is plane._cow`` while a capture is live).  The
        #: label mutators below feed its ``label_dirty`` page set.
        self._cow = None

    @property
    def label_mode(self) -> bool:
        return self.table is not None

    @property
    def flow(self) -> Optional["TaintPlane"]:
        """Label-flow hook captured by the dispatch binders at bind time.

        None in bit mode -- the binders' ``flow is not None`` guard then
        compiles the whole label path out of the tainted slow blocks.
        """
        return self if self.table is not None else None

    # ------------------------------------------------------------------
    # label flow (label mode only; every call site is taint-gated)
    # ------------------------------------------------------------------

    def reg_sid(self, number: int) -> int:
        """Label-set id of a register (callers gate on its taint mask)."""
        return self.reg_labels[number]

    def on_load(self, rt: int, addr: int, size: int, taint_mask: int) -> None:
        """Load writeback: dest label = union over the tainted loaded bytes.

        ``taint_mask`` is the mask returned by the memory/cache read --
        the authoritative taint of the bytes actually observed (RAM taint
        pages may be stale for dirty cache lines, the returned mask never
        is).
        """
        sid = 0
        labels = self.mem_labels
        for i in range(size):
            if taint_mask >> i & 1:
                s = labels.get((addr + i) & _MASK32, 0)
                if s:
                    sid = self.table.union(sid, s) if sid else s
        self.reg_labels[rt] = sid

    def on_store(self, addr: int, size: int, rt: int, taint_mask: int) -> None:
        """Tainted store: stamp the source register's sid on tainted bytes.

        Bytes of the store whose taint bit is clear drop any stale sid so
        the sidecar stays sparse.
        """
        sid = self.reg_labels[rt]
        labels = self.mem_labels
        cow = self._cow
        for i in range(size):
            a = (addr + i) & _MASK32
            if cow is not None:
                cow.label_dirty.add(a & ~_PAGE_MASK)
            if taint_mask >> i & 1:
                labels[a] = sid
            else:
                labels.pop(a, None)

    def on_alu(self, rd: int, rs: int, ta: int, rt: int, tb: int) -> None:
        """Two-operand ALU result: union of the *taint-gated* source sids.

        ``ta``/``tb`` must be the operand taint masks read *before* the
        destination writeback (``rd`` may alias a source register).
        """
        rl = self.reg_labels
        sid = rl[rs] if ta else 0
        if tb:
            other = rl[rt]
            sid = self.table.union(sid, other) if sid else other
        rl[rd] = sid

    def on_unary(self, rd: int, rsrc: int) -> None:
        """Single tainted source (immediates, constant shifts): copy its sid."""
        rl = self.reg_labels
        rl[rd] = rl[rsrc]

    def on_hilo(self, rs: int, ta: int, rt: int, tb: int) -> None:
        """mult/div writeback into HI/LO: collapse sources into one sid."""
        rl = self.reg_labels
        sid = rl[rs] if ta else 0
        if tb:
            other = rl[rt]
            sid = self.table.union(sid, other) if sid else other
        self.hilo_label = sid

    def on_from_hilo(self, rd: int) -> None:
        """mfhi/mflo with tainted HI/LO: dest inherits the HI/LO sid."""
        self.reg_labels[rd] = self.hilo_label

    # ------------------------------------------------------------------
    # kernel / setup entry points
    # ------------------------------------------------------------------

    def label_span(self, addr: int, length: int, sid: int) -> None:
        """Stamp ``sid`` on a freshly copied-in span (no-op in bit mode).

        Also conservatively marks the covered pages in the clean-page
        summary: a labelled span is by construction a tainted span (the
        copy-in wrote the taint bits just before), so the summary must
        already consider those pages dirty.
        """
        if self.table is None or sid == 0:
            return
        labels = self.mem_labels
        dirty = self.tainted_pages
        cow = self._cow
        for i in range(length):
            a = (addr + i) & _MASK32
            labels[a] = sid
            dirty.add(a & ~_PAGE_MASK)
            if cow is not None:
                cow.label_dirty.add(a & ~_PAGE_MASK)

    def span_sid(self, addr: int, length: int, taint_mask: int) -> int:
        """Union sid over a memory span, gated by a caller-supplied mask.

        ``taint_mask`` is a per-byte bitmap (bit ``i`` = byte ``addr+i``
        tainted), typically ``memory.read_taint(addr, length).mask``.
        """
        if self.table is None:
            return 0
        sid = 0
        labels = self.mem_labels
        for i in range(length):
            if taint_mask >> i & 1:
                s = labels.get((addr + i) & _MASK32, 0)
                if s:
                    sid = self.table.union(sid, s) if sid else s
        return sid

    def provenance(self, sid: int) -> Tuple[TaintLabel, ...]:
        """Resolve a label-set id to its labels (empty in bit mode)."""
        if self.table is None or sid == 0:
            return ()
        return self.table.members(sid)

    # ------------------------------------------------------------------
    # SWIFI taint flips (fault/faults.py routes through these)
    # ------------------------------------------------------------------

    def flip_mem_taint(self, machine, addr: int) -> Tuple[int, int, int]:
        """Flip one byte's memory taint bit through the machine's data path.

        Routing through ``mem_read``/``mem_write`` keeps PR 2 semantics:
        with caches enabled the flip lands in the hierarchy like any
        store (and costs exactly one read + one write, so cache counters
        match the pre-plane implementation).  In label mode a 0->1 flip
        allocates a fault-injection label (the byte is now tainted with a
        known synthetic origin); a 1->0 flip drops the byte's sid.
        Returns ``(value, taint_before, taint_after)``.
        """
        value, taint = machine.mem_read(addr, 1)
        new_taint = taint ^ 1
        machine.mem_write(addr, 1, value, new_taint)
        if self.table is not None:
            a = addr & _MASK32
            if self._cow is not None:
                self._cow.label_dirty.add(a & ~_PAGE_MASK)
            if new_taint:
                label_id = self.table.new_label(
                    source_kind="fault-injection",
                    offset_range=(a, a + 1),
                    insn_index=machine.stats.instructions,
                )
                self.mem_labels[a] = self.table.singleton(label_id)
            else:
                self.mem_labels.pop(a, None)
        return value, taint, new_taint

    def flip_reg_taint(self, number: int, mask: int, insn_index: int = 0) -> Tuple[int, int]:
        """XOR a register's word taint mask; manage its label in label mode."""
        taint = self.reg_taints[number]
        new_taint = (taint ^ mask) & WORD_TAINTED
        self.reg_taints[number] = new_taint
        if self.table is not None:
            if not new_taint:
                self.reg_labels[number] = 0
            elif not taint:
                label_id = self.table.new_label(
                    source_kind="fault-injection",
                    fd=number,
                    insn_index=insn_index,
                )
                self.reg_labels[number] = self.table.singleton(label_id)
        return taint, new_taint

    # ------------------------------------------------------------------
    # delta capture (driven by MachineState.snapshot / restore)
    # ------------------------------------------------------------------

    def begin_cow(self, cow) -> None:
        """Fill the eager (plane-side) half of a delta capture.

        The clean-page summary is made *exact* here (one ``any(page)``
        scan per mapped page, paid once per capture instead of once per
        restore): the live set is shrunk to the exact set, which is
        semantically invisible -- the summary only promises that absent
        pages are clean -- and the frozen copy is what every restore
        reinstalls.
        """
        summary = {base for base, page in self.mem_taint.items() if any(page)}
        tainted = self.tainted_pages
        tainted.clear()
        tainted.update(summary)
        cow.tainted_summary = frozenset(summary)
        cow.reg_taints = tuple(self.reg_taints)
        if self.table is not None:
            by_page: Dict[int, List[Tuple[int, int]]] = {}
            for addr, sid in self.mem_labels.items():
                by_page.setdefault(addr & ~_PAGE_MASK, []).append((addr, sid))
            cow.labels_by_page = {
                base: tuple(entries) for base, entries in by_page.items()
            }
            cow.reg_labels = tuple(self.reg_labels)
            cow.hilo_label = self.hilo_label
            cow.labels_hwm = len(self.table.labels)
            cow.sets_hwm = len(self.table.sets)
        self._cow = cow

    def restore_cow(self, cow) -> None:
        """Delta-restore shadow state; the capture stays active.

        Must run *after* ``TaintedMemory.restore_cow`` (fresh pages are
        dropped there from both page dicts; a dirty shadow page that no
        longer exists was fresh, so it is skipped here).  The caller
        (:meth:`MachineState.restore`) clears the dirty sets once
        both halves are done.
        """
        baseline = cow.shadow_baseline
        mem_taint = self.mem_taint
        for base in cow.shadow_dirty:
            page = mem_taint.get(base)
            if page is not None:
                page[:] = baseline[base]
        tainted = self.tainted_pages
        tainted.clear()
        tainted.update(cow.tainted_summary)
        self.reg_taints[:] = cow.reg_taints
        if self.table is not None:
            if cow.label_dirty:
                dirty = cow.label_dirty
                labels = self.mem_labels
                for addr in [a for a in labels if (a & ~_PAGE_MASK) in dirty]:
                    del labels[addr]
                by_page = cow.labels_by_page or {}
                for base in dirty:
                    for addr, sid in by_page.get(base, ()):
                        labels[addr] = sid
            self.reg_labels[:] = cow.reg_labels
            self.hilo_label = cow.hilo_label
            self.table.truncate(cow.labels_hwm, cow.sets_hwm)
