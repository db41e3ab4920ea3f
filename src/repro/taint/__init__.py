"""Speculative information-flow tracking over the predicated state buffers.

The paper's E flag already divides every buffered value into "executed
speculatively" and "architecturally committed" -- exactly the boundary
modern speculative-security analyses reason about.  This package layers a
taint track on that boundary:

* :mod:`repro.taint.tags` -- the taint lattice: immutable provenance tags
  (value- vs address-taint), merged as frozensets;
* :mod:`repro.taint.track` -- the tracker (sources, propagation counters,
  leak records, sequential register/memory taint maps) and the disabled
  :data:`NULL_TAINT` default that keeps hot paths at one cached-bool guard;
* :mod:`repro.taint.oracle` -- ``run_security``: twin taint-on/taint-off
  runs of one program through the VLIW machine, with first-leak
  provenance and the cycle-delta timing channel;
* :mod:`repro.taint.report` -- the ``repro-security/v1`` artifact;
* :mod:`repro.taint.gadget` -- seeded Spectre-v1-style gadget generator
  (leaky and clean variants, ground truth known);
* :mod:`repro.taint.campaign` -- ``repro fuzz --mode security``: sweep
  gadget space, check the detector against ground truth, shrink hits.

A caught gadget freezes to a :class:`~repro.verify.case.ReproCase` with
``check="security"`` (saved as ``repro-security-case/v1``), shrunk by
the same :func:`~repro.verify.shrink.shrink_case` as divergences.
"""

# Only the dependency-light leaves import eagerly: the core shadow
# structures (regfile, store buffer) import ``repro.taint.tags`` at
# module load, which triggers this package -- pulling the oracle or the
# campaign in here would close an import cycle through the machine.
# The high-level API resolves lazily via PEP 562.
from repro.taint.tags import TaintTag, merge_taint, rekind_address
from repro.taint.track import (
    NULL_TAINT,
    LeakRecord,
    NullTaintTracker,
    TaintTracker,
)

_LAZY = {
    "SECURITY_FUZZ_SCHEMA": "repro.taint.campaign",
    "SecurityFinding": "repro.taint.campaign",
    "SecurityFuzzReport": "repro.taint.campaign",
    "run_security_fuzz": "repro.taint.campaign",
    "CLEAN_VARIANTS": "repro.taint.gadget",
    "LEAKY_VARIANTS": "repro.taint.gadget",
    "GadgetSpec": "repro.taint.gadget",
    "build_gadget": "repro.taint.gadget",
    "derive_gadget": "repro.taint.gadget",
    "SecurityResult": "repro.taint.oracle",
    "run_security": "repro.taint.oracle",
    "SECURITY_SCHEMA": "repro.taint.report",
    "security_document": "repro.taint.report",
    "validate_security": "repro.taint.report",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)

__all__ = [
    "CLEAN_VARIANTS",
    "GadgetSpec",
    "LEAKY_VARIANTS",
    "LeakRecord",
    "NULL_TAINT",
    "NullTaintTracker",
    "SECURITY_FUZZ_SCHEMA",
    "SECURITY_SCHEMA",
    "SecurityFinding",
    "SecurityFuzzReport",
    "SecurityResult",
    "TaintTag",
    "TaintTracker",
    "build_gadget",
    "derive_gadget",
    "merge_taint",
    "rekind_address",
    "run_security",
    "run_security_fuzz",
    "security_document",
    "validate_security",
]
