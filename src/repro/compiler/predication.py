"""Linearization and predicate assignment.

Turns a :class:`~repro.compiler.regiontree.RegionTree` into a
:class:`LinearRegion`: the region's instructions in program order, each
carrying its path predicate, with the condition-set feeding every region
branch re-indexed onto its allocated CCR entry and re-predicated ``alw``
(the paper: "the predicate of a condition-set instruction is alw
regardless of its control dependence because the compiler does not
re-allocate an entry of CCR").

Two flavours, selected by the model policy:

* ``eliminate_branches=True`` (predicating models, and the
  region-scheduling model's simple predication): every control transfer
  inside the region disappears; each exit edge becomes a predicated
  ``jmp`` whose predicate is the full path condition of that exit.
* ``eliminate_branches=False`` (global / squashing / trace scheduling /
  boosting): the original conditional branches remain (re-indexed onto
  CCR entries so the dependence builder can reason about them uniformly);
  their untaken continuation is the included child, and exits through
  either arm cost the branch's issue slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.compiler.regiontree import RegionTree, TreeNode
from repro.core.predicate import ALWAYS, Predicate
from repro.ir.cfg import CFG
from repro.isa.instruction import Instruction
from repro.isa.operands import CReg, Label


class Role(enum.Enum):
    BODY = "body"
    COND_SET = "cond_set"
    BRANCH = "branch"  # retained conditional branch (restricted models)
    EXIT = "exit"  # predicated exit jump
    HALT = "halt"


@dataclass
class LinearInstr:
    """One region instruction in program order, with metadata."""

    instr: Instruction
    node_id: int
    role: Role
    # For EXIT/BRANCH: the (node_id, arm_value) keys this control point
    # serves as the region-departure point for.
    exit_keys: tuple[tuple[int, bool | None], ...] = ()
    renamable: bool = True


@dataclass
class LinearRegion:
    """A linearized, predicated region ready for dependence analysis."""

    tree: RegionTree
    items: list[LinearInstr] = field(default_factory=list)
    conditions_used: int = 0
    # Registers renaming clobbers (:mod:`repro.compiler.rename`).
    clobbered: frozenset[int] = frozenset()

    def instructions(self) -> list[Instruction]:
        return [item.instr for item in self.items]


def _branch_cond_set_position(block_body: list[Instruction], creg: int) -> int | None:
    """Index of the last condition-set in *block_body* writing *creg*."""
    for position in range(len(block_body) - 1, -1, -1):
        if block_body[position].dest_creg == creg:
            return position
    return None


def linearize(
    tree: RegionTree,
    cfg: CFG,
    *,
    eliminate_branches: bool,
) -> LinearRegion:
    """Linearize *tree* in pre-order with predicates assigned."""
    region = LinearRegion(tree=tree, conditions_used=tree.conditions_used)

    def emit_node(node: TreeNode) -> None:
        block = cfg.blocks[node.origin]
        body = block.body
        terminator = block.terminator

        cond_position: int | None = None
        if (
            node.cond_index is not None
            and terminator is not None
            and terminator.is_conditional_branch
        ):
            cond_position = _branch_cond_set_position(
                body, terminator.src_cregs[0]
            )

        for position, instruction in enumerate(body):
            if position == cond_position:
                # Re-index onto the allocated CCR entry; alw predicate.
                assert node.cond_index is not None
                operands = tuple(
                    CReg(node.cond_index)
                    if role == "cd"
                    else operand
                    for operand, role in zip(
                        instruction.operands, instruction.info.signature
                    )
                )
                region.items.append(
                    LinearInstr(
                        instr=instruction.replace(
                            operands=operands, pred=ALWAYS
                        ),
                        node_id=node.node_id,
                        role=Role.COND_SET,
                    )
                )
                continue
            region.items.append(
                LinearInstr(
                    instr=instruction.replace(pred=node.pred),
                    node_id=node.node_id,
                    role=Role.BODY,
                )
            )

        if terminator is not None and terminator.opcode == "halt":
            region.items.append(
                LinearInstr(
                    instr=terminator.replace(pred=node.pred),
                    node_id=node.node_id,
                    role=Role.HALT,
                )
            )
            return

        exit_by_arm = {
            _arm_value_of(node, exit_.pred): exit_ for exit_ in node.exits
        }

        if (
            terminator is not None
            and terminator.is_conditional_branch
            and not eliminate_branches
        ):
            # Retained branch: serves as the departure point of both arms.
            assert node.cond_index is not None
            operands = tuple(
                CReg(node.cond_index) if role == "cu" else operand
                for operand, role in zip(
                    terminator.operands, terminator.info.signature
                )
            )
            keys = tuple(
                (node.node_id, value) for value in exit_by_arm
            )
            region.items.append(
                LinearInstr(
                    instr=terminator.replace(
                        operands=operands, pred=node.pred
                    ),
                    node_id=node.node_id,
                    role=Role.BRANCH,
                    exit_keys=keys,
                    renamable=False,
                )
            )
        elif eliminate_branches:
            for value, exit_ in exit_by_arm.items():
                region.items.append(
                    LinearInstr(
                        instr=Instruction(
                            "jmp",
                            (Label(f"B{exit_.target_origin}"),),
                            pred=exit_.pred,
                        ),
                        node_id=node.node_id,
                        role=Role.EXIT,
                        exit_keys=((node.node_id, value),),
                        renamable=False,
                    )
                )
        else:
            # Restricted model, non-branch exits (jmp / fall-through leaf).
            for value, exit_ in exit_by_arm.items():
                region.items.append(
                    LinearInstr(
                        instr=Instruction(
                            "jmp",
                            (Label(f"B{exit_.target_origin}"),),
                            pred=exit_.pred,
                        ),
                        node_id=node.node_id,
                        role=Role.EXIT,
                        exit_keys=((node.node_id, value),),
                        renamable=False,
                    )
                )

        for value in sorted(node.children, reverse=True):
            child_id = node.children[value]
            parents_remaining[child_id] -= 1
            if parents_remaining[child_id] == 0:
                emit_node(tree.nodes[child_id])

    # Shared join nodes (footnote-2 merging) have two in-region parents;
    # they are emitted only after every parent's instructions, keeping the
    # linear order a topological order of the region DAG.
    parents_remaining = {node_id: 0 for node_id in tree.nodes}
    for node in tree.nodes.values():
        for child_id in node.children.values():
            parents_remaining[child_id] += 1

    emit_node(tree.nodes[tree.root])
    return region


def _arm_value_of(node: TreeNode, exit_pred: Predicate) -> bool | None:
    """Which arm of *node* an exit predicate departs through."""
    if node.cond_index is None:
        return None
    return exit_pred.required(node.cond_index)
