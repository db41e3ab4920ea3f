"""Dynamic execution traces.

A :class:`DynamicTrace` records what the scalar program *did*: the sequence
of basic blocks entered and the outcome of every conditional branch.  It is
the input to

* the trace-driven cycle counters of every scheduling model (the paper's
  methodology: "we count cycles using the trace information of the R3000
  code by pixie"),
* the profile-based static branch predictor, and
* the Table 3 successive-branch prediction-accuracy analysis.

Block ids refer to the *original* scalar CFG; schedulers record, per
transformed block, which original block it descends from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass(slots=True)
class BranchEvent:
    """One dynamic conditional-branch execution.

    Slotted: a trace holds one per dynamic branch, and an experiment
    context keeps every baseline and unrolled trace alive."""

    block: int  # original block id whose terminator branched
    uid: int  # terminator instruction uid
    taken: bool


@dataclass
class DynamicTrace:
    """Full dynamic behaviour of one scalar run."""

    blocks: list[int] = field(default_factory=list)
    branches: list[BranchEvent] = field(default_factory=list)
    instruction_count: int = 0

    def record_block(self, bid: int) -> None:
        self.blocks.append(bid)

    def record_branch(self, block: int, uid: int, taken: bool) -> None:
        self.branches.append(BranchEvent(block, uid, taken))

    # ------------------------------------------------------------------
    # Profile summaries.
    # ------------------------------------------------------------------
    def block_counts(self) -> Counter[int]:
        return Counter(self.blocks)

    def branch_profile(self) -> dict[int, tuple[int, int]]:
        """Per static branch uid: (times taken, times not taken)."""
        profile: dict[int, list[int]] = {}
        for event in self.branches:
            entry = profile.setdefault(event.uid, [0, 0])
            entry[0 if event.taken else 1] += 1
        return {uid: (taken, not_taken) for uid, (taken, not_taken) in profile.items()}

    def edge_counts(self) -> Counter[tuple[int, int]]:
        """Dynamic execution count of every CFG edge."""
        return Counter(zip(self.blocks, self.blocks[1:]))
