"""Instruction-word encoding cost model (Section 4.2.1).

The paper quantifies the instruction-word overhead of predicating:

* **Region predicating** encodes the predicate as a full vector: 2 bits per
  CCR entry (value + don't-care mask), i.e. ``2*K`` bits for K branch
  conditions, plus one bit per source register to select the speculative
  state ("about one byte extension" for K = 3..4).
* **Trace predicating** needs only ``ceil(log2(K+1))`` bits, because along a
  single trace the predicate is fully described by *how many* of the
  preceding branches the instruction depends on.

This module reproduces that accounting so the hardware-cost experiment can
regenerate the paper's numbers for arbitrary configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

BASE_INSTRUCTION_BITS = 32
MAX_SOURCE_REGS = 2


@dataclass(frozen=True, slots=True)
class EncodingCost:
    """Bit budget of one instruction word under a predicating scheme."""

    base_bits: int
    predicate_bits: int
    shadow_select_bits: int

    @property
    def total_bits(self) -> int:
        return self.base_bits + self.predicate_bits + self.shadow_select_bits

    @property
    def overhead_bits(self) -> int:
        return self.total_bits - self.base_bits


def region_predicating_cost(num_conditions: int) -> EncodingCost:
    """Encoding cost of the region predicating model for K conditions.

    The predicate part needs 2*K bits (the paper: "The predicate part in an
    instruction word needs 2xK bits, where K is the number of branch
    conditions the architecture defines. Furthermore, one bit for each
    source register is necessary to specify the speculative state.").
    """
    if num_conditions < 1:
        raise ValueError("K must be >= 1")
    return EncodingCost(
        base_bits=BASE_INSTRUCTION_BITS,
        predicate_bits=2 * num_conditions,
        shadow_select_bits=MAX_SOURCE_REGS,
    )


def trace_predicating_cost(num_conditions: int) -> EncodingCost:
    """Encoding cost of the trace predicating model for K conditions.

    Along a trace the predicate is the count of dependent branches, so only
    ``log2`` bits are needed (the paper: "the predicate part needs only
    log2 K bits").  We round up and allow the count 0 (``alw``).
    """
    if num_conditions < 1:
        raise ValueError("K must be >= 1")
    return EncodingCost(
        base_bits=BASE_INSTRUCTION_BITS,
        predicate_bits=max(1, math.ceil(math.log2(num_conditions + 1))),
        shadow_select_bits=MAX_SOURCE_REGS,
    )
