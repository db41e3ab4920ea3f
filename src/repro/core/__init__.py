"""The paper's primary contribution: predicated state buffering.

Modules:

* :mod:`repro.core.predicate` -- ANDed predicate vectors with negation and
  don't-cares, and their tri-state masked-match evaluation (Section 3.2).
* :mod:`repro.core.ccr` -- the condition code register with unspecified
  values and region-exit reset (Section 3.3), held as bit masks so a
  predicate verdict is two mask tests (Figure 1's control path; the
  machine inlines it per issue slot).
* :mod:`repro.core.regfile` -- the predicated register file: sequential +
  shadow storage per entry, W/V/E flags, per-cycle commit/squash
  (Figure 2).
* :mod:`repro.core.store_buffer` -- the predicated FIFO store buffer with
  speculative entries and in-order D-cache retirement (Section 3.2).
* :mod:`repro.core.exceptions` -- speculative-exception records, the future
  CCR, and recovery-mode bookkeeping (Section 3.5).
* :mod:`repro.core.counter_predicate` -- the counter-type predicate
  alternative the paper argues against in Section 4.2.1.
"""

from repro.core.ccr import CCR
from repro.core.predicate import ALWAYS, PredValue, Predicate
from repro.core.regfile import PredicatedRegisterFile, RegisterFileEntry
from repro.core.store_buffer import PredicatedStoreBuffer, StoreBufferEntry

__all__ = [
    "ALWAYS",
    "CCR",
    "PredValue",
    "Predicate",
    "PredicatedRegisterFile",
    "PredicatedStoreBuffer",
    "RegisterFileEntry",
    "StoreBufferEntry",
]
