"""Provenance labels and the interned label-set table (label-mode algebra).

In label mode every tainted byte carries, next to its taintedness bit, a
small integer naming a *label set*: which external inputs the byte's value
is derived from.  Two pieces make that cheap enough to run under Table 1
propagation:

* :class:`TaintLabel` -- one immutable record per external-input event
  (a ``read``/``recv`` copy-in, an argv/env string, a SWIFI taint flip).
  Labels are allocated by the kernel at copy-in time, never during
  propagation.
* :class:`LabelTable` -- an append-only arena of labels plus an interned
  table of label *sets*.  A set id (``sid``) is an index into the table;
  sid 0 is the empty set (clean / unknown origin).  Union of two sids is
  memoized, so steady-state propagation is a dict hit returning an int --
  the hot path stays integer-compare, exactly like the 1-bit mode.

The table is deliberately not clever: real runs allocate a handful of
labels (one per input syscall) and a few dozen interned sets, so plain
dicts beat any packed encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["LabelTable", "TaintLabel"]


@dataclass(frozen=True)
class TaintLabel:
    """One external-input event that introduced taint.

    Attributes:
        source_kind: origin class -- ``"net"``, ``"file"``, ``"stdin"``,
            ``"argv"``, ``"env"``, or ``"fault-injection"``.
        syscall: name of the input syscall (``"read"``/``"recv"``) when the
            taint entered through one, else None.
        fd: file descriptor of the input syscall, or the argv/env index
            for command-line provenance, else None.
        offset_range: half-open ``[start, end)`` byte range within that
            input stream (per-fd running offset for syscalls, per-string
            offsets for argv/env).
        insn_index: retired-instruction index when the label was allocated.
    """

    source_kind: str
    syscall: Optional[str] = None
    fd: Optional[int] = None
    offset_range: Tuple[int, int] = (0, 0)
    insn_index: int = 0

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``recv(fd=4) bytes 96..99``."""
        if self.syscall is not None:
            source = f"{self.syscall}(fd={self.fd})"
        elif self.fd is not None:
            source = f"{self.source_kind}[{self.fd}]"
        else:
            source = self.source_kind
        start, end = self.offset_range
        if end > start:
            return f"{source} bytes {start}..{end - 1}"
        return source

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form used by ``--json`` output and the trace."""
        return {
            "source_kind": self.source_kind,
            "syscall": self.syscall,
            "fd": self.fd,
            "offset_range": list(self.offset_range),
            "insn_index": self.insn_index,
            "describe": self.describe(),
        }


class LabelTable:
    """Append-only label arena + interned label-set table with memoized union.

    Label ids are 1-based (`0` is reserved so a zero in any label sidecar
    always means "no provenance").  Set ids index :attr:`sets`; sid 0 is
    interned to the empty set at construction.
    """

    def __init__(self) -> None:
        self.labels: List[TaintLabel] = []
        #: sid -> sorted tuple of label ids.  sets[0] == ().
        self.sets: List[Tuple[int, ...]] = [()]
        self._intern: Dict[Tuple[int, ...], int] = {(): 0}
        self._singletons: Dict[int, int] = {}
        self._union_memo: Dict[Tuple[int, int], int] = {}

    # -- counters (surfaced as obs metrics) --------------------------------

    @property
    def allocated_labels(self) -> int:
        """Number of :class:`TaintLabel` records allocated so far."""
        return len(self.labels)

    @property
    def interned_sets(self) -> int:
        """Number of distinct label sets interned (including the empty set)."""
        return len(self.sets)

    # -- allocation ---------------------------------------------------------

    def new_label(self, **fields) -> int:
        """Allocate a fresh :class:`TaintLabel`; returns its 1-based id."""
        self.labels.append(TaintLabel(**fields))
        return len(self.labels)

    def label(self, label_id: int) -> TaintLabel:
        """Look up a label by its 1-based id."""
        return self.labels[label_id - 1]

    def singleton(self, label_id: int) -> int:
        """Sid of the one-element set ``{label_id}`` (interned)."""
        sid = self._singletons.get(label_id)
        if sid is None:
            sid = self._intern_set((label_id,))
            self._singletons[label_id] = sid
        return sid

    def _intern_set(self, ids: Tuple[int, ...]) -> int:
        sid = self._intern.get(ids)
        if sid is None:
            sid = len(self.sets)
            self.sets.append(ids)
            self._intern[ids] = sid
        return sid

    # -- algebra ------------------------------------------------------------

    def union(self, a: int, b: int) -> int:
        """Sid of ``sets[a] | sets[b]``; memoized, symmetric, O(1) repeat."""
        if a == b or b == 0:
            return a
        if a == 0:
            return b
        key = (a, b) if a < b else (b, a)
        sid = self._union_memo.get(key)
        if sid is None:
            merged = tuple(sorted(set(self.sets[a]) | set(self.sets[b])))
            sid = self._intern_set(merged)
            self._union_memo[key] = sid
        return sid

    def members(self, sid: int) -> Tuple[TaintLabel, ...]:
        """The labels in set ``sid`` (allocation order)."""
        return tuple(self.labels[i - 1] for i in self.sets[sid])

    # -- checkpoint restore (high-water-mark truncation) ---------------------

    def truncate(self, labels_hwm: int, sets_hwm: int) -> None:
        """Roll back to the given high-water marks, in place.

        The arenas are append-only, so every entry past the marks is a
        post-capture allocation; dropping them (and pruning cache entries
        that reference them) restores exactly the capture-time *algebra*.
        The pruned caches may retain entries that were only observed after
        capture but whose operands and result all predate it -- those cache
        a pure function (set union / interning), so resolution semantics
        are identical to the capture-time table (see DESIGN.md section 4c).
        """
        if len(self.labels) <= labels_hwm and len(self.sets) <= sets_hwm:
            return
        del self.labels[labels_hwm:]
        del self.sets[sets_hwm:]
        self._intern = {ids: sid for ids, sid in self._intern.items() if sid < sets_hwm}
        self._singletons = {
            lid: sid
            for lid, sid in self._singletons.items()
            if lid <= labels_hwm and sid < sets_hwm
        }
        self._union_memo = {
            key: sid
            for key, sid in self._union_memo.items()
            if sid < sets_hwm and key[0] < sets_hwm and key[1] < sets_hwm
        }
