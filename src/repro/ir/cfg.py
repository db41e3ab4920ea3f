"""The control-flow graph.

Built from a linear :class:`~repro.isa.program.Program` with the classic
leader algorithm, and linearizable back to one (inserting explicit jumps
where the chosen layout breaks a fall-through edge).  Round-tripping
preserves execution semantics, which the property tests check by running
both forms through the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.block import BasicBlock
from repro.isa.instruction import Instruction
from repro.isa.operands import Label
from repro.isa.program import Program


@dataclass
class CFG:
    """A control-flow graph over basic blocks.

    ``start_of`` maps block ids to the first-instruction index of the
    *source program the CFG was built from*; the interpreter uses it to
    record block-level traces.  It is only meaningful on freshly built
    CFGs (transforms do not maintain it).
    """

    blocks: dict[int, BasicBlock] = field(default_factory=dict)
    entry: int = 0
    layout: list[int] = field(default_factory=list)
    name: str = "program"
    start_of: dict[int, int] = field(default_factory=dict)
    _next_bid: int = 0

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    def new_block(
        self, instructions: list[Instruction] | None = None, origin: int | None = None
    ) -> BasicBlock:
        """Allocate a fresh block and append it to the layout."""
        block = BasicBlock(
            bid=self._next_bid, instructions=list(instructions or []), origin=origin
        )
        self._next_bid += 1
        self.blocks[block.bid] = block
        self.layout.append(block.bid)
        return block

    def remove_block(self, bid: int) -> None:
        """Delete a block (callers must have re-pointed incoming edges)."""
        del self.blocks[bid]
        self.layout.remove(bid)

    # ------------------------------------------------------------------
    # Graph queries.
    # ------------------------------------------------------------------
    def successors(self, bid: int) -> tuple[int, ...]:
        return self.blocks[bid].successors

    def predecessors(self, bid: int) -> list[int]:
        return [
            block.bid
            for block in self.blocks.values()
            if bid in block.successors
        ]

    def predecessor_map(self) -> dict[int, list[int]]:
        preds: dict[int, list[int]] = {bid: [] for bid in self.blocks}
        for block in self.blocks.values():
            for succ in block.successors:
                preds[succ].append(block.bid)
        return preds

    def reachable(self) -> set[int]:
        """Blocks reachable from the entry."""
        seen = {self.entry}
        worklist = [self.entry]
        while worklist:
            bid = worklist.pop()
            for succ in self.blocks[bid].successors:
                if succ not in seen:
                    seen.add(succ)
                    worklist.append(succ)
        return seen

    def remove_unreachable(self) -> None:
        alive = self.reachable()
        for bid in [b for b in self.blocks if b not in alive]:
            self.remove_block(bid)

    def reverse_postorder(self) -> list[int]:
        """Blocks in reverse postorder from the entry (reachable only)."""
        order: list[int] = []
        seen: set[int] = set()

        def visit(bid: int) -> None:
            stack = [(bid, iter(self.blocks[bid].successors))]
            seen.add(bid)
            while stack:
                current, successors = stack[-1]
                advanced = False
                for succ in successors:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.blocks[succ].successors)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self.entry)
        order.reverse()
        return order

    def instruction_count(self) -> int:
        return sum(block.instruction_count() for block in self.blocks.values())

    # ------------------------------------------------------------------
    # Linearization.
    # ------------------------------------------------------------------
    def to_program(self) -> Program:
        """Linearize back to an assembly-level program.

        Block labels are regenerated as ``B<bid>``; a ``jmp`` is inserted
        wherever the layout does not realize a fall-through edge.
        """
        layout = [bid for bid in self.layout if bid in self.blocks]
        if self.entry in layout:
            layout.remove(self.entry)
        layout.insert(0, self.entry)

        instructions: list[Instruction] = []
        labels: dict[str, int] = {}
        position_of = {bid: position for position, bid in enumerate(layout)}

        for position, bid in enumerate(layout):
            block = self.blocks[bid]
            labels[f"B{bid}"] = len(instructions)
            body = block.body
            terminator = block.terminator
            instructions.extend(body)
            if terminator is not None:
                if terminator.target is not None:
                    if block.taken_target is None:
                        raise ValueError(f"block {bid}: terminator with no target")
                    retargeted = terminator.replace(
                        operands=tuple(
                            Label(f"B{block.taken_target}")
                            if isinstance(operand, Label)
                            else operand
                            for operand in terminator.operands
                        )
                    )
                    instructions.append(retargeted)
                else:
                    instructions.append(terminator)
            needs_fall = block.fall_through is not None and (
                terminator is None or terminator.opcode != "jmp"
            )
            if needs_fall:
                next_bid = layout[position + 1] if position + 1 < len(layout) else None
                if block.fall_through != next_bid:
                    instructions.append(
                        Instruction("jmp", (Label(f"B{block.fall_through}"),))
                    )
        program = Program(
            instructions=instructions, labels=labels, name=self.name
        )
        program.validate()
        return program

    def clone(self) -> CFG:
        """Structural copy (instructions are immutable and shared)."""
        copy = CFG(name=self.name, entry=self.entry)
        copy._next_bid = self._next_bid
        copy.layout = list(self.layout)
        for bid, block in self.blocks.items():
            copy.blocks[bid] = BasicBlock(
                bid=block.bid,
                instructions=list(block.instructions),
                taken_target=block.taken_target,
                fall_through=block.fall_through,
                origin=block.origin,
            )
        return copy


def build_cfg(program: Program) -> CFG:
    """Build a CFG from a linear program with the leader algorithm."""
    program.validate()
    if not program.instructions:
        raise ValueError("cannot build a CFG for an empty program")

    leaders = {0}
    for index, instruction in enumerate(program.instructions):
        if instruction.opcode == "br2":  # VLIW code generator output only
            raise ValueError(f"{instruction}: br2 is not a source instruction")
        if instruction.is_control:
            if index + 1 < len(program.instructions):
                leaders.add(index + 1)
            target = instruction.target
            if target is not None:
                leaders.add(program.resolve(target))
    for index in program.labels.values():
        if index < len(program.instructions):
            leaders.add(index)

    starts = sorted(leaders)
    cfg = CFG(name=program.name)
    block_at_index: dict[int, int] = {}
    for position, start in enumerate(starts):
        end = starts[position + 1] if position + 1 < len(starts) else len(
            program.instructions
        )
        block = cfg.new_block(program.instructions[start:end])
        block_at_index[start] = block.bid
        cfg.start_of[block.bid] = start

    for position, start in enumerate(starts):
        bid = block_at_index[start]
        block = cfg.blocks[bid]
        end = starts[position + 1] if position + 1 < len(starts) else len(
            program.instructions
        )
        next_start = starts[position + 1] if position + 1 < len(starts) else None
        terminator = block.terminator
        if terminator is None:
            if next_start is not None:
                block.fall_through = block_at_index[next_start]
        elif terminator.opcode == "jmp":
            block.taken_target = block_at_index[program.resolve(terminator.target)]
        elif terminator.is_conditional_branch:
            block.taken_target = block_at_index[program.resolve(terminator.target)]
            if next_start is not None:
                block.fall_through = block_at_index[next_start]
        elif terminator.opcode == "halt":
            pass
        else:  # pragma: no cover - the opcode table has no other control ops
            raise AssertionError(f"unhandled terminator {terminator}")

    cfg.entry = block_at_index[0]
    return cfg
