"""Pluggable defenses: the paper's detector and the mechanisms it beats.

This package extracts detection out of ``repro.core`` into a defense
layer with a uniform interface (ROADMAP item 4):

* :mod:`repro.defenses.alerts` -- the alert vocabulary all defenses share;
* :mod:`repro.defenses.policy` -- detection policies (which dereference
  kinds the inline taintedness check inspects);
* :mod:`repro.defenses.base` -- the :class:`Detector` observer protocol;
* :mod:`repro.defenses.taintedness` -- the paper's pointer-taintedness
  detection (inline hot path) plus its :class:`Detector` adapter;
* :mod:`repro.defenses.shadow_stack` -- hardware shadow-stack comparator;
* :mod:`repro.defenses.pac` -- PAC-style pointer-signing comparator;
* :mod:`repro.defenses.registry` -- name -> detector resolution shared by
  the CLI, the Session facade, and the evalx defense matrix.
"""

from .alerts import (
    CONTROL_KINDS,
    DATA_KINDS,
    KIND_ANNOTATION,
    KIND_JUMP,
    KIND_LOAD,
    KIND_PAC,
    KIND_RETURN,
    KIND_STORE,
    Alert,
    SecurityException,
)
from .base import Detector
from .pac import PacDetector
from .policy import (
    ControlDataPolicy,
    DetectionPolicy,
    NullPolicy,
    PointerTaintPolicy,
)
from .registry import DEFENSES, DetectorRegistry, resolve_defense
from .shadow_stack import ShadowStackDetector
from .taintedness import TaintednessDefense, TaintednessDetector

__all__ = [
    "Alert",
    "SecurityException",
    "KIND_LOAD",
    "KIND_STORE",
    "KIND_JUMP",
    "KIND_ANNOTATION",
    "KIND_RETURN",
    "KIND_PAC",
    "DATA_KINDS",
    "CONTROL_KINDS",
    "DetectionPolicy",
    "PointerTaintPolicy",
    "ControlDataPolicy",
    "NullPolicy",
    "Detector",
    "TaintednessDetector",
    "TaintednessDefense",
    "ShadowStackDetector",
    "PacDetector",
    "DetectorRegistry",
    "DEFENSES",
    "resolve_defense",
]
