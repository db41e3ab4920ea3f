"""Speculative-exception records and recovery bookkeeping (Section 3.5).

A speculative instruction that faults does not trap; it writes a *corrupted*
result into the speculative state and sets the E flag, carrying a
:class:`FaultRecord` describing the original fault.  When the predicate of a
buffered exception later commits, the machine:

1. invalidates all speculative state (precise-interrupt point),
2. suppresses the CCR update, writing the new conditions to the *future
   CCR* instead,
3. rolls PC back to the region top saved in the *region program counter*
   (RPC) and re-executes in *recovery mode*, squashing instructions whose
   predicate is decided by the CCR (the *current condition*) and deciding
   re-raised faults against the future CCR (the *future condition*).

:class:`MachineMode` and :class:`RecoveryContext` carry that state for the
cycle-level machine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.ccr import CCR


class FaultKind(enum.Enum):
    """Architectural fault classes our ISA can raise."""

    MEMORY = "memory"  # load/store to an unmapped or negative address
    ARITHMETIC = "arithmetic"  # division / remainder by zero


@dataclass(frozen=True, slots=True)
class FaultRecord:
    """Description of one fault, buffered with the speculative result.

    ``address`` is the faulting effective address for memory faults (the
    'excepting address' the sentinel architecture stores) and ``instruction_uid``
    identifies the excepting instruction for diagnostics.
    """

    kind: FaultKind
    instruction_uid: int
    address: int | None = None
    detail: str = ""

    def to_state(self) -> dict:
        """JSON-native form for checkpoint snapshots."""
        return {
            "kind": self.kind.value,
            "instruction_uid": self.instruction_uid,
            "address": self.address,
            "detail": self.detail,
        }

    @classmethod
    def from_state(cls, state: dict) -> "FaultRecord":
        return cls(
            kind=FaultKind(state["kind"]),
            instruction_uid=state["instruction_uid"],
            address=state["address"],
            detail=state.get("detail", ""),
        )


class UnhandledFault(Exception):
    """A committed (non-speculative) fault with no handler installed."""

    def __init__(self, fault: FaultRecord):
        super().__init__(f"unhandled fault: {fault}")
        self.fault = fault


class ScheduleViolation(Exception):
    """The machine detected code the compiler must never emit (e.g. a jump
    issued with an unspecified predicate, or a shadow-storage conflict)."""


class MachineMode(enum.Enum):
    """Execution mode of the predicating machine."""

    NORMAL = "normal"
    RECOVERY = "recovery"


@dataclass
class RecoveryContext:
    """State carried while the machine is in recovery mode.

    ``epc`` is the program point (bundle index) at which the speculative
    exception committed; recovery ends when re-execution reaches it, at
    which point the future condition is copied into the CCR.
    """

    future_ccr: CCR
    epc: int
    fault: FaultRecord
