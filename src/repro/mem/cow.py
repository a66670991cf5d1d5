"""Copy-on-write capture state shared by memory, taint plane, and labels.

A :class:`CowCapture` is the mutable heart of the machine's one
checkpoint (:meth:`~repro.cpu.machine.MachineState.snapshot`).  Instead of
copying every materialized page at capture time, the capture starts
*empty* and the memory hot paths fill it lazily:

* the first mutation of a page after capture copies that page's
  pre-mutation content into the baseline as an immutable ``bytes``
  object (copy-on-write) and records the page in the dirty set;
* pages materialized after capture land in :attr:`fresh` and are simply
  dropped on restore;
* everything page-sized that did *not* change is never copied at all.

Restore is then O(dirty + fresh): rewrite the dirty pages from their
baselines, drop the fresh ones, and reinstall the eagerly captured
summaries (clean-page set, register taints, label sidecar, label-table
high-water marks).  The baseline ``bytes`` objects are shared by
reference across any number of restores -- nobody ever mutates them, the
restore path only copies *out* of them into the live ``bytearray`` pages.

Ownership rules (also documented in DESIGN.md section 4c):

* exactly one capture is *active* per :class:`TaintedMemory` at a time
  (``memory._cow``); the memory/plane mutation paths feed only the
  active capture;
* taking a new capture makes the previous one *stale*: nothing tracks
  its pages any more, so :meth:`~repro.cpu.machine.MachineState.restore`
  refuses it with ``ValueError`` instead of restoring a torn state.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

__all__ = ["CowCapture"]


class CowCapture:
    """Delta-checkpoint state for one (memory, plane) pair.

    The lazily filled parts (:attr:`data_baseline`,
    :attr:`shadow_baseline`, the dirty/fresh sets) are written by the
    :class:`~repro.mem.tainted_memory.TaintedMemory` hot paths; the
    eager parts (clean-page summary, register taints, label sidecar
    baseline, label-table high-water marks) are filled once at capture
    by :meth:`~repro.taint.plane.TaintPlane.begin_cow`.
    """

    __slots__ = (
        "data_baseline",
        "shadow_baseline",
        "data_dirty",
        "shadow_dirty",
        "fresh",
        "label_dirty",
        "tainted_bytes_written",
        "tainted_summary",
        "reg_taints",
        "labels_by_page",
        "reg_labels",
        "hilo_label",
        "labels_hwm",
        "sets_hwm",
    )

    def __init__(self) -> None:
        #: page base -> immutable capture-time content, COW-filled on the
        #: first post-capture mutation of that page.
        self.data_baseline: Dict[int, bytes] = {}
        self.shadow_baseline: Dict[int, bytes] = {}
        #: page bases mutated since capture (data / shadow planes).
        self.data_dirty: Set[int] = set()
        self.shadow_dirty: Set[int] = set()
        #: page bases materialized since capture (dropped on restore).
        self.fresh: Set[int] = set()
        #: page bases whose label sidecar entries changed since capture
        #: (label mode only; tracked by the plane's label mutators).
        self.label_dirty: Set[int] = set()
        self.tainted_bytes_written: int = 0
        #: exact clean-page summary as of capture (see TaintPlane).
        self.tainted_summary: FrozenSet[int] = frozenset()
        self.reg_taints: Tuple[int, ...] = ()
        #: label mode only: capture-time ``mem_labels`` grouped by page
        #: base as ``{base: ((addr, sid), ...)}`` so restore can rewrite
        #: exactly the dirtied pages' entries.
        self.labels_by_page: Optional[Dict[int, Tuple[Tuple[int, int], ...]]] = None
        self.reg_labels: Tuple[int, ...] = ()
        self.hilo_label: int = 0
        #: label-table high-water marks: entries past these are post-
        #: capture allocations, truncated away on restore.
        self.labels_hwm: int = 0
        self.sets_hwm: int = 0

    def clear_dirty(self) -> None:
        """Reset the delta-tracking sets after an in-place delta restore
        (the machine is back at capture state, so nothing is dirty)."""
        self.data_dirty.clear()
        self.shadow_dirty.clear()
        self.fresh.clear()
        self.label_dirty.clear()
