"""Resource-constrained list scheduling.

Classic critical-path list scheduling over the region dependence graph:
priority is the longest latency-weighted path to any sink, ties broken by
program order (which keeps schedules deterministic and close to the
source's intent).  Resources are the machine's issue width and per-class
function-unit counts.

Latency-0 edges permit same-cycle issue (the machine reads operands at the
start of a cycle and writes at the end), which is how squash-crossed
conditions and anti-dependences behave.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.compiler.dependence import DepGraph
from repro.core.exceptions import ScheduleViolation
from repro.isa.instruction import Instruction
from repro.isa.opcodes import FuClass
from repro.machine.config import MachineConfig


@dataclass
class Schedule:
    """The result: issue cycle per item, and the packed bundles."""

    cycle_of: dict[int, int]  # item index -> cycle (0-based)
    bundles: list[list[int]] = field(default_factory=list)  # item indices

    @property
    def length(self) -> int:
        return len(self.bundles)


def _priorities(
    instrs: list[Instruction], outgoing: list[list[tuple[int, int]]]
) -> list[int]:
    """Longest path (by latency, min 1 per hop) from each node to a sink."""
    count = len(instrs)
    height = [0] * count
    for i in range(count - 1, -1, -1):
        best = instrs[i].latency
        for consumer, latency in outgoing[i]:
            best = max(best, max(latency, 1) + height[consumer])
        height[i] = best
    return height


def list_schedule(graph: DepGraph, config: MachineConfig) -> Schedule:
    """Schedule *graph* onto *config*'s resources."""
    instrs = [item.instr for item in graph.region.items]
    count = len(instrs)

    unscheduled_preds = [0] * count
    outgoing: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    for producer, consumer, latency in graph.edges:
        if producer == consumer:
            continue
        if consumer < producer:
            # A reversed edge would make the graph cyclic with program
            # order; the builders never produce one except use-before-def
            # style anti edges, which are still forward edges by index.
            raise ScheduleViolation(
                f"backward dependence edge {producer}->{consumer}"
            )
        unscheduled_preds[consumer] += 1
        outgoing[producer].append((consumer, latency))

    height = _priorities(instrs, outgoing)
    fus = [instr.fu for instr in instrs]
    limits: dict[FuClass, int | None] = {fu: config.fu_count(fu) for fu in set(fus)}
    issue_width = config.issue_width
    earliest = [0] * count
    # Min-heap by (-priority, program order).
    ready = [(-height[i], i) for i in range(count) if unscheduled_preds[i] == 0]
    heapq.heapify(ready)

    cycle_of: dict[int, int] = {}
    bundles: list[list[int]] = []
    cycle = 0
    deferred: list[tuple[int, int]] = []
    scheduled = 0
    while scheduled < count:
        fu_used = dict.fromkeys(limits, 0)
        bundle: list[int] = []
        deferred.clear()
        while ready:
            entry = heapq.heappop(ready)
            i = entry[1]
            fu = fus[i]
            limit = limits[fu]
            if (
                earliest[i] > cycle
                or len(bundle) >= issue_width
                or (limit is not None and fu_used[fu] >= limit)
            ):
                deferred.append(entry)
                continue
            # Same-cycle (latency 0) dependences: the producer must already
            # be placed in this or an earlier cycle -- guaranteed because a
            # consumer only becomes ready once all producers are scheduled.
            bundle.append(i)
            cycle_of[i] = cycle
            fu_used[fu] += 1
            scheduled += 1
            for consumer, latency in outgoing[i]:
                if earliest[consumer] < cycle + latency:
                    earliest[consumer] = cycle + latency
                unscheduled_preds[consumer] -= 1
                if unscheduled_preds[consumer] == 0:
                    heapq.heappush(ready, (-height[consumer], consumer))
        for entry in deferred:
            heapq.heappush(ready, entry)
        bundles.append(bundle)
        cycle += 1
        if cycle > 10 * count + 64:
            raise ScheduleViolation("list scheduler failed to converge")
    return Schedule(cycle_of=cycle_of, bundles=bundles)
