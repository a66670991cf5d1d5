"""Unified taint subsystem: bit representation, label algebra, taint plane.

* :mod:`repro.taint.bits` -- word taint masks and :class:`TaintVector`
  (the paper's 1-bit-per-byte representation).
* :mod:`repro.taint.labels` -- :class:`TaintLabel` provenance records and
  the interned :class:`LabelTable` set algebra.
* :mod:`repro.taint.plane` -- :class:`TaintPlane`, the single owner of
  per-byte shadow storage across memory, registers, and kernel copy-ins,
  in bit mode (default) or provenance-label mode.
"""

from .bits import (
    CLEAN,
    TaintVector,
    WORD_BYTES,
    WORD_TAINTED,
    flags_from_mask,
    mask_for_bytes,
    mask_from_flags,
    word_mask_is_tainted,
)
from .labels import LabelTable, TaintLabel
from .plane import MODE_BIT, MODE_LABEL, TaintPlane

__all__ = [
    "CLEAN",
    "LabelTable",
    "MODE_BIT",
    "MODE_LABEL",
    "TaintLabel",
    "TaintPlane",
    "TaintVector",
    "WORD_BYTES",
    "WORD_TAINTED",
    "flags_from_mask",
    "mask_for_bytes",
    "mask_from_flags",
    "word_mask_is_tainted",
]
