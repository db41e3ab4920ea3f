"""The VLIW program form.

A :class:`VLIWProgram` is a sequence of :class:`Bundle`\\ s (one per issue
cycle) partitioned into *regions*.  Regions are contiguous bundle ranges;
every region entry is a labelled bundle, every dynamic path through a
region leaves via an explicitly predicated jump (the schedulers guarantee
this), and the machine resets the CCR and records the RPC on each transfer.

The form is deliberately explicit about region boundaries because the
paper's execution model keys hardware actions to them: CCR reset,
speculative-state closure, and the RPC roll-back point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.printer import format_instruction


@dataclass(frozen=True, slots=True)
class Bundle:
    """Operations issued together in one cycle."""

    ops: tuple[Instruction, ...] = ()

    def __iter__(self):
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)


@dataclass
class RegionSpan:
    """One region's bundle range [start, end) and entry label."""

    label: str
    start: int
    end: int


@dataclass
class VLIWProgram:
    """A scheduled predicating program."""

    bundles: list[Bundle] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    regions: list[RegionSpan] = field(default_factory=list)
    name: str = "vliw"
    # Optional scheduler provenance: for each bundle, the original CFG
    # block id each op was scheduled out of (parallel to ``bundles``).
    # Hand-written programs leave it None; the code emitter fills it so
    # the observability layer can attribute issued ops to source blocks.
    provenance: list[tuple[int, ...]] | None = None

    def resolve(self, label: str) -> int:
        return self.labels[label]

    def region_starts(self) -> set[int]:
        return {span.start for span in self.regions}

    def validate(self) -> None:
        """Structural checks the schedulers must satisfy."""
        for label, index in self.labels.items():
            if not 0 <= index < len(self.bundles):
                raise ValueError(f"label {label!r} out of range: {index}")
        covered: set[int] = set()
        for span in self.regions:
            if span.label not in self.labels or self.labels[span.label] != span.start:
                raise ValueError(f"region {span.label!r} label/start mismatch")
            if not 0 <= span.start < span.end <= len(self.bundles):
                raise ValueError(f"region {span.label!r} bad span")
            overlap = covered & set(range(span.start, span.end))
            if overlap:
                raise ValueError(f"region {span.label!r} overlaps bundles {overlap}")
            covered |= set(range(span.start, span.end))
        if covered != set(range(len(self.bundles))):
            raise ValueError("regions do not cover the whole program")
        for bundle in self.bundles:
            for op in bundle:
                target = op.target
                if target is not None and target not in self.labels:
                    raise ValueError(f"undefined bundle target {target!r}")
        if self.provenance is not None:
            if len(self.provenance) != len(self.bundles):
                raise ValueError("provenance does not cover every bundle")
            for index, origins in enumerate(self.provenance):
                if len(origins) != len(self.bundles[index]):
                    raise ValueError(
                        f"bundle {index}: provenance/op count mismatch"
                    )

    def format(self) -> str:
        """Human-readable listing (one bundle per line)."""
        start_labels: dict[int, list[str]] = {}
        for label, index in self.labels.items():
            start_labels.setdefault(index, []).append(label)
        lines = []
        for index, bundle in enumerate(self.bundles):
            for label in start_labels.get(index, []):
                lines.append(f"{label}:")
            ops = " ; ".join(format_instruction(op) for op in bundle) or "nop"
            lines.append(f"  {index:4d}: {ops}")
        return "\n".join(lines) + "\n"
