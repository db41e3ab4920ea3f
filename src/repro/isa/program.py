"""The linear (assembly-level) program form.

A :class:`Program` is an ordered list of instructions plus a label table
mapping symbolic names to instruction indices.  It is the unit the parser
produces, the interpreter executes, and the CFG builder consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction


@dataclass
class Program:
    """A linear instruction sequence with labels."""

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    name: str = "program"

    def __post_init__(self) -> None:
        for label, index in self.labels.items():
            if not 0 <= index <= len(self.instructions):
                raise ValueError(f"label {label!r} points outside program: {index}")

    def __len__(self) -> int:
        return len(self.instructions)

    def resolve(self, label: str) -> int:
        """Instruction index of *label*; raises KeyError if undefined."""
        return self.labels[label]

    def validate(self) -> None:
        """Check that every control-transfer target is a defined label."""
        for instruction in self.instructions:
            target = instruction.target
            if target is not None and target not in self.labels:
                raise ValueError(f"undefined label {target!r} in {instruction}")

    def static_line_count(self) -> int:
        """Static instruction count (the 'Lines' column of Table 2)."""
        return len(self.instructions)
