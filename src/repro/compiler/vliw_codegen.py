"""Emission of VLIW code from scheduled regions, for every model.

The emitted program runs on :class:`~repro.machine.vliw.VLIWMachine`,
which validates that the schedule computes what the scalar program
computes, in the cycles the trace-driven counter charges.

Shadow-source markers (``.s``) come from the dependence builder.  A
retained branch (the restricted models keep theirs) is lowered to the
one op that leaves through its exit arms -- ``br``/``brf`` for one arm,
``br2`` for both -- so it issues in the one slot its schedule item has.
"""

from __future__ import annotations

from repro.compiler.predication import Role
from repro.compiler.regiontree import TreeNode
from repro.compiler.unit import ScheduledUnit
from repro.isa.instruction import Instruction
from repro.isa.operands import Label
from repro.machine.program import Bundle, RegionSpan, VLIWProgram


def _lower_branch(instr: Instruction, node: TreeNode) -> Instruction:
    """Retained branch *instr* of *node*, targeting its exits' regions."""
    creg = instr.operands[0]
    target = {
        exit_.pred.required(node.cond_index): Label(f"B{exit_.target_origin}")
        for exit_ in node.exits
    }
    if len(target) == 2:
        operands = (creg, target[True], target[False])
        return Instruction("br2", operands, pred=instr.pred, uid=instr.uid)
    ((arm, label),) = target.items()
    opcode = "br" if arm else "brf"
    return Instruction(opcode, (creg, label), pred=instr.pred, uid=instr.uid)


def emit_vliw(
    units: dict[int, ScheduledUnit],
    entry: int,
    name: str = "vliw",
) -> VLIWProgram:
    """Lay out every unit and resolve exit labels."""
    order = [entry] + sorted(origin for origin in units if origin != entry)
    bundles: list[Bundle] = []
    provenance: list[tuple[int, ...]] = []
    labels: dict[str, int] = {}
    regions: list[RegionSpan] = []

    for origin in order:
        unit = units[origin]
        nodes = unit.tree.nodes
        start = len(bundles)
        labels[f"B{origin}"] = start
        for cycle_items in unit.schedule.bundles:
            ops = []
            origins = []
            for index in sorted(cycle_items):
                item = unit.region.items[index]
                instr = item.instr
                if item.role is Role.BRANCH:
                    instr = _lower_branch(instr, nodes[item.node_id])
                shadow = unit.shadow_positions.get(index)
                if shadow:
                    instr = instr.replace(shadow=frozenset(shadow))
                ops.append(instr)
                origins.append(nodes[item.node_id].origin)
            bundles.append(Bundle(tuple(ops)))
            provenance.append(tuple(origins))
        if len(bundles) == start:
            # A degenerate empty region still needs one bundle to land on.
            bundles.append(Bundle(()))
            provenance.append(())
        regions.append(RegionSpan(f"B{origin}", start, len(bundles)))

    program = VLIWProgram(
        bundles=bundles,
        labels=labels,
        regions=regions,
        name=name,
        provenance=provenance,
    )
    program.validate()
    return program
