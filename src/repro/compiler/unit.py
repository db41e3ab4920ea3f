"""Scheduled units and the trace-driven cycle counter.

The paper counts cycles for the scheduled machine "using the trace
information of the R3000 code by pixie".  Our equivalent: every scheduled
region knows, for each of its exits, the cycle of the departing jump (or
retained branch); the counter walks the scalar dynamic trace through the
region trees, charging each region visit its departure cycle + 1 and the
configured taken-transfer penalty.

Because the dependence builder gives every exit closure edges (conditions,
live-out producers, stores), the schedule itself guarantees everything an
early exit needs has issued -- no compensation-code accounting is needed
(DESIGN.md discusses this modelling choice for the trace-scheduling
baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.list_scheduler import Schedule
from repro.compiler.predication import LinearRegion, Role
from repro.compiler.regiontree import RegionTree
from repro.ir.cfg import CFG
from repro.machine.config import MachineConfig
from repro.sim.trace import DynamicTrace


@dataclass
class ScheduledUnit:
    """One region's schedule plus the exit-cycle table."""

    tree: RegionTree
    region: LinearRegion
    schedule: Schedule
    # (node_id, arm_value) -> issue cycle of the departing control point.
    exit_cycle: dict[tuple[int, bool | None], int] = field(default_factory=dict)
    halt_cycle: dict[int, int] = field(default_factory=dict)  # node_id -> cycle

    @property
    def header_origin(self) -> int:
        return self.tree.header_origin

    @property
    def length(self) -> int:
        return self.schedule.length


def make_unit(
    tree: RegionTree, region: LinearRegion, schedule: Schedule
) -> ScheduledUnit:
    """Assemble a unit, extracting exit/halt cycles from the schedule."""
    unit = ScheduledUnit(tree=tree, region=region, schedule=schedule)
    for index, item in enumerate(region.items):
        cycle = schedule.cycle_of[index]
        if item.role in (Role.EXIT, Role.BRANCH):
            for key in item.exit_keys:
                unit.exit_cycle[key] = cycle
        elif item.role is Role.HALT:
            unit.halt_cycle[item.node_id] = cycle
    return unit


class TraceWalkError(RuntimeError):
    """The dynamic trace and the scheduled code disagree (a compiler bug)."""


@dataclass
class CycleCount:
    """Result of a trace-driven count."""

    cycles: int
    region_entries: int
    # Finite-BTB model statistics (both zero under the paper's optimistic
    # infinite-BTB assumption, where no buffer is modelled at all).
    btb_hits: int = 0
    btb_misses: int = 0

    @property
    def btb_hit_rate(self) -> float:
        total = self.btb_hits + self.btb_misses
        return self.btb_hits / total if total else 1.0


class ScheduledCode:
    """All units of a compiled program, keyed by header origin block.

    ``count_cycles`` walks the trace by table: the first visit of a unit
    builds its walk table (:meth:`_walk_table`), after which each trace
    block costs one dict lookup.
    """

    def __init__(self, units: dict[int, ScheduledUnit], cfg: CFG):
        self.units = units
        self.cfg = cfg
        self._walks: dict[int, tuple] = {}

    def count_cycles(
        self, trace: DynamicTrace, config: MachineConfig
    ) -> CycleCount:
        """Walk *trace* through the scheduled units and count cycles."""
        from repro.machine.btb import BranchTargetBuffer

        blocks = trace.blocks
        length = len(blocks)
        btb = (
            BranchTargetBuffer(config.btb_entries)
            if config.btb_entries is not None
            else None
        )
        walks = self._walks
        total = 0
        entries = 0
        position = 0
        previous_header: int | None = None
        while position < length:
            header = blocks[position]
            walk = walks.get(header)
            if walk is None:
                unit = self.units.get(header)
                if unit is None:
                    raise TraceWalkError(f"no unit headed by block {header}")
                walk = walks[header] = self._walk_table(unit)
            entries += 1
            position += 1
            node, halt, successors = walk
            while halt is None:
                if position == length:
                    # Trace ended without halt (non-halting program tail).
                    halt = self.units[header].length
                    break
                step = successors.get(blocks[position])
                if step is None:
                    raise TraceWalkError(
                        f"unit B{header} node {node}: no child or exit "
                        f"for successor {blocks[position]}"
                    )
                if step.__class__ is int:
                    halt = step
                    break
                node, halt, successors = step
                position += 1
            total += halt
            if btb is not None and not btb.access((previous_header, header)):
                total += config.taken_penalty_indirect
            else:
                total += config.taken_penalty_btb
            previous_header = header
        return CycleCount(
            cycles=total,
            region_entries=entries,
            btb_hits=btb.hits if btb is not None else 0,
            btb_misses=btb.misses if btb is not None else 0,
        )

    def _walk_table(self, unit: ScheduledUnit) -> tuple:
        """The root entry of *unit*'s walk table.

        Every tree node has one entry ``(node_id, halt, successors)``.  A
        node whose block halts has ``halt`` = its halt cycle + 1.  Any
        other node maps each CFG successor of its block to the child
        node's entry (the walk stays in the unit and consumes the block)
        or to the departing exit's cycle + 1 (the visit ends there).  A
        successor with neither is left out, so the walk raises
        :class:`TraceWalkError` on it.
        """
        tree = unit.tree
        table = {
            node_id: (node_id, None, {}) for node_id in tree.nodes
        }
        for node_id, node in tree.nodes.items():
            block = self.cfg.blocks[node.origin]
            terminator = block.terminator
            if terminator is not None and terminator.opcode == "halt":
                table[node_id] = (node_id, unit.halt_cycle[node_id] + 1, {})
        for node_id, node in tree.nodes.items():
            _, halt, successors = table[node_id]
            if halt is not None:
                continue
            block = self.cfg.blocks[node.origin]
            # Fall-through first: a branch whose two arms reach the same
            # block resolves to the taken arm.
            arms = []
            if block.fall_through is not None:
                arms.append((block.fall_through, False))
            if block.taken_target is not None:
                arms.append((block.taken_target, True))
            for origin, taken in arms:
                if node.cond_index is None:
                    arm = True if node.children else None
                else:
                    arm = node.taken_value if taken else not node.taken_value
                child_id = node.children.get(arm)
                if child_id is not None and tree.nodes[child_id].origin == origin:
                    successors[origin] = table[child_id]
                elif (node_id, arm) in unit.exit_cycle:
                    successors[origin] = unit.exit_cycle[(node_id, arm)] + 1
        return table[tree.root]
