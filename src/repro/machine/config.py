"""Machine configurations.

The paper's base machine (Section 4): a 4-issue VLIW with four ALUs, four
branch units, two load units, one store unit, a 4-entry CCR, load latency
2, everything else latency 1.  Figure 8 additionally evaluates *full-issue*
machines -- "a machine with fully duplicated resources such as function
units, register ports, and D-cache ports" -- at issue widths 2, 4 and 8
and speculation depths (allowed dependent conditions) 1, 2, 4 and 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import FuClass


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Static parameters of one evaluated machine."""

    issue_width: int = 4
    num_alu: int = 4
    num_branch: int = 4
    num_load: int = 2
    num_store: int = 1
    ccr_entries: int = 4
    max_speculation_depth: int | None = None  # None = up to ccr_entries
    shadow_capacity: int | None = 1
    store_buffer_capacity: int = 32
    taken_penalty_btb: int = 0  # BTB-predictable transfer (optimistic)
    taken_penalty_indirect: int = 1  # register-indirect transfer
    # None = the paper's optimistic infinite BTB; an integer enables the
    # finite direct-mapped model (misses pay taken_penalty_indirect).
    btb_entries: int | None = None

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue width must be >= 1")
        if self.ccr_entries < 1:
            raise ValueError("CCR needs at least one entry")
        if (
            self.max_speculation_depth is not None
            and not 0 <= self.max_speculation_depth <= self.ccr_entries
        ):
            raise ValueError("speculation depth must be within CCR size")

    @property
    def speculation_depth(self) -> int:
        """Max dependent branch conditions a speculative motion may cross."""
        if self.max_speculation_depth is None:
            return self.ccr_entries
        return self.max_speculation_depth

    def fu_count(self, fu: FuClass) -> int | None:
        """Units available for *fu* (None = unconstrained)."""
        if fu is FuClass.ALU:
            return self.num_alu
        if fu is FuClass.BRANCH:
            return self.num_branch
        if fu is FuClass.LOAD:
            return self.num_load
        if fu is FuClass.STORE:
            return self.num_store
        return None


def base_machine(**overrides) -> MachineConfig:
    """The paper's default 4-issue machine."""
    return MachineConfig(**overrides)


def full_issue_machine(
    issue_width: int, speculation_depth: int, **overrides
) -> MachineConfig:
    """A Figure 8 machine: every resource duplicated *issue_width* times."""
    params = dict(
        issue_width=issue_width,
        num_alu=issue_width,
        num_branch=issue_width,
        num_load=issue_width,
        num_store=issue_width,
        ccr_entries=max(speculation_depth, 1),
        max_speculation_depth=speculation_depth,
        store_buffer_capacity=max(32, 8 * issue_width),
    )
    params.update(overrides)
    return MachineConfig(**params)
