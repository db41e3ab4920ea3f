"""Region formation by tail duplication (Section 3.3).

A region is grown from a header block into a *tree* of (possibly
duplicated) basic blocks: every block except the header has exactly one
in-region predecessor, so the header trivially dominates every block and
every block's control dependence is the unique branch-condition path from
the header -- which is exactly the paper's ANDed-predicate limitation.
Join blocks whose multiple paths would violate it are duplicated, the
transform the paper applies when no equivalent block exists.

Growth policy (per model):

* *region* windows (``both_arms=True``) grow both arms of a branch when
  their profiled probability is above ``min_arm_probability`` -- the
  paper's heuristic "function of static branch prediction";
* *trace* windows grow only the predicted arm;
* growth stops at loop back edges (the target re-enters the region through
  its header, the paper's execution model), at already-included blocks on
  the current path, at the block budget, and when the unit's CCR budget
  (``max_conditions``) is exhausted.

Every edge that is not grown becomes a :class:`RegionExit` whose target
block will head its own region -- the region former's worklist guarantees
a region exists for every possible entry point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.analysis.branch_prediction import StaticPredictor
from repro.core.predicate import ALWAYS, Predicate
from repro.ir.cfg import CFG


@dataclass
class RegionExit:
    """One exit edge of the region tree."""

    pred: Predicate
    target_origin: int
    from_node: int


@dataclass
class TreeNode:
    """One (possibly duplicated) block instance inside a region."""

    node_id: int
    origin: int
    pred: Predicate
    parent: int | None = None
    # For branch nodes: the CCR entry allocated to this block's branch and
    # the condition value that corresponds to the *taken* edge (False for
    # brf).  None for non-branch nodes.
    cond_index: int | None = None
    taken_value: bool | None = None
    # Children keyed by branch-condition value; single-successor chains use
    # the key True.
    children: dict[bool, int] = field(default_factory=dict)
    exits: list[RegionExit] = field(default_factory=list)


@dataclass
class RegionTree:
    """A grown region: tree nodes plus the exit set."""

    header_origin: int
    nodes: dict[int, TreeNode] = field(default_factory=dict)
    root: int = 0
    conditions_used: int = 0

    def all_exits(self) -> list[RegionExit]:
        return [exit_ for node in self.nodes.values() for exit_ in node.exits]

    def exit_targets(self) -> set[int]:
        return {exit_.target_origin for exit_ in self.all_exits()}

    def block_count(self) -> int:
        return len(self.nodes)


def merge_equivalent_joins(tree: RegionTree, cfg: CFG, dominators) -> int:
    """Share join blocks that are *equivalent* to their branch (footnote 2).

    "If there exists a join block which has multiple paths from the header
    block, and if the join block has an equivalent block [X dom Y and Y
    pdom X], then the region is also subject to the predicate limitation
    since the control dependence of the join block is the same as the
    control dependence of the equivalent block."

    For every branch node whose two arms reconverge at a block that is
    equivalent to the branch block (in the original CFG), the duplicated
    join subtrees are merged into one: the surviving copy's predicates
    drop the branch condition (its control dependence is the branch
    node's own), and both arms continue into it.  The region becomes a
    DAG; consumers in the shared join acquire *commit dependences* on the
    arm definitions, which the dependence builder models -- the exact
    trade-off the paper discusses in Section 4.2.2.

    Returns the number of joins merged.
    """
    merged = 0
    changed = True
    while changed:
        changed = False
        for node in list(tree.nodes.values()):
            if node.node_id not in tree.nodes:
                continue  # deleted by an earlier merge this sweep
            if node.cond_index is None or len(node.children) != 2:
                continue
            if _merge_under(tree, dominators, node):
                merged += 1
                changed = True
                break
    return merged


def _descendants(tree: RegionTree, root_id: int) -> list[int]:
    """All node ids reachable from *root_id* (inclusive, deduplicated)."""
    order: list[int] = []
    seen: set[int] = set()
    worklist = [root_id]
    while worklist:
        node_id = worklist.pop()
        if node_id in seen or node_id not in tree.nodes:
            continue
        seen.add(node_id)
        order.append(node_id)
        worklist.extend(tree.nodes[node_id].children.values())
    return order


def _merge_under(tree: RegionTree, dominators, branch) -> bool:
    """Try to unify duplicated equivalent-join copies below *branch*.

    Only the *shallow* reconvergence shapes are merged -- the join copy
    hangs directly off an arm (triangle) or off a non-branching arm block
    (diamond).  Joins nested below further branches stay duplicated: their
    copies sit under different inner conditions, and sharing them would
    need conditions-to-the-join tracking that the paper resolves the
    other way ("the compiler duplicates the join block to avoid this
    constraint").
    """
    shallow: list[int] = []
    for child_id in branch.children.values():
        child = tree.nodes[child_id]
        if dominators.equivalent(branch.origin, child.origin):
            shallow.append(child_id)
        elif child.cond_index is None and set(child.children) == {True}:
            grand_id = child.children[True]
            if dominators.equivalent(
                branch.origin, tree.nodes[grand_id].origin
            ):
                shallow.append(grand_id)
    by_origin: dict[int, list[int]] = {}
    for node_id in shallow:
        by_origin.setdefault(tree.nodes[node_id].origin, []).append(node_id)
    for origin, copies in by_origin.items():
        tops = sorted(set(copies))
        if len(tops) < 2:
            continue
        canonical = tops[0]
        # The canonical copy's control dependence becomes the branch
        # node's own: strip every condition that is not the branch's path.
        keep = set(branch.pred.conditions)
        _strip_conditions(tree, canonical, keep)
        for duplicate in tops[1:]:
            for parent_id in list(tree.nodes):
                parent = tree.nodes.get(parent_id)
                if parent is None:
                    continue
                for key, child_id in list(parent.children.items()):
                    if child_id == duplicate:
                        parent.children[key] = canonical
            _delete_subtree(tree, duplicate)
        return True
    return False


def _strip_conditions(tree: RegionTree, root_id: int, keep: set[int]) -> None:
    """Drop every condition outside *keep* ∪ (those allocated inside the
    subtree itself) from the subtree's predicates."""
    inside = {
        tree.nodes[node_id].cond_index
        for node_id in _descendants(tree, root_id)
        if tree.nodes[node_id].cond_index is not None
    }
    allowed = keep | inside

    def strip(pred: Predicate) -> Predicate:
        return Predicate({i: v for i, v in pred.terms if i in allowed})

    for node_id in _descendants(tree, root_id):
        node = tree.nodes[node_id]
        node.pred = strip(node.pred)
        for exit_ in node.exits:
            exit_.pred = strip(exit_.pred)


def _delete_subtree(tree: RegionTree, root_id: int) -> None:
    worklist = [root_id]
    while worklist:
        node_id = worklist.pop()
        node = tree.nodes.pop(node_id, None)
        if node is not None:
            worklist.extend(node.children.values())


def _branch_condition_available(cfg: CFG, bid: int) -> bool:
    """A branch block is predicable iff the condition-set feeding its
    branch lives in the same block (our workload codegen guarantees this
    for hot branches; cold ones simply head their own region)."""
    block = cfg.blocks[bid]
    terminator = block.terminator
    if terminator is None or not terminator.is_conditional_branch:
        return True
    creg = terminator.src_cregs[0]
    return any(
        instruction.dest_creg == creg for instruction in block.body
    )


def grow_region(
    cfg: CFG,
    header: int,
    *,
    both_arms: bool,
    window_blocks: int,
    max_conditions: int,
    predictor: StaticPredictor,
    min_arm_probability: float = 0.15,
    loop_headers: frozenset[int] = frozenset(),
) -> RegionTree:
    """Grow one region tree from *header* under the given policy.

    *loop_headers* are never grown into: a trace "begins with the loop
    head and ends in the loop tail", and regions likewise stop at loop
    boundaries -- the loop head seeds its own region and every back edge
    re-enters it through a region transfer.
    """
    tree = RegionTree(header_origin=header)
    ids = itertools.count()

    def new_node(origin: int, pred: Predicate, parent: int | None) -> TreeNode:
        node = TreeNode(
            node_id=next(ids), origin=origin, pred=pred, parent=parent
        )
        tree.nodes[node.node_id] = node
        return node

    root = new_node(header, ALWAYS, None)
    tree.root = root.node_id

    def includable(target: int, path_origins: set[int]) -> bool:
        if target in path_origins:
            return False  # back edge or path cycle: exit instead
        if target in loop_headers and target != header:
            return False  # regions never span loop boundaries
        if tree.block_count() >= window_blocks:
            return False
        return True

    def grow(node: TreeNode, path_origins: set[int]) -> None:
        block = cfg.blocks[node.origin]
        terminator = block.terminator

        if terminator is not None and terminator.opcode == "halt":
            return  # halting leaf: no successors, no exits

        if terminator is None or terminator.opcode == "jmp":
            successor = (
                block.taken_target
                if terminator is not None
                else block.fall_through
            )
            if successor is None:
                return
            if includable(successor, path_origins):
                child = new_node(successor, node.pred, node.node_id)
                node.children[True] = child.node_id
                grow(child, path_origins | {successor})
            else:
                node.exits.append(
                    RegionExit(node.pred, successor, node.node_id)
                )
            return

        # Conditional branch block.
        assert terminator.is_conditional_branch
        can_predicate = (
            tree.conditions_used < max_conditions
            and _branch_condition_available(cfg, node.origin)
        )
        if not can_predicate:
            # The whole block cannot stay in the region as a branch node:
            # if it is the root we keep it as a degenerate two-exit node
            # only when a condition is available; otherwise both arms exit
            # through the *block itself* heading its own region.
            if node.parent is None:
                raise ValueError(
                    f"block {node.origin}: branch condition not predicable "
                    "(condition-set must live in the branch block)"
                )
            # Undo the inclusion: the parent exits to this block instead.
            parent = tree.nodes[node.parent]
            for key, child_id in list(parent.children.items()):
                if child_id == node.node_id:
                    del parent.children[key]
                    pred = node.pred
                    parent.exits.append(
                        RegionExit(pred, node.origin, parent.node_id)
                    )
            del tree.nodes[node.node_id]
            return

        cond_index = tree.conditions_used
        tree.conditions_used += 1
        node.cond_index = cond_index
        node.taken_value = terminator.opcode == "br"

        taken_prob = predictor.probability(terminator.uid)
        arms = [
            (node.taken_value, block.taken_target, taken_prob),
            (not node.taken_value, block.fall_through, 1.0 - taken_prob),
        ]
        # Trace windows grow only the more probable arm.
        if not both_arms:
            arms.sort(key=lambda arm: -arm[2])
            arms = [arms[0], (arms[1][0], arms[1][1], -1.0)]

        for value, target, probability in arms:
            arm_pred = node.pred.conjoin(cond_index, value)
            if target is None:
                continue
            wanted = probability >= (min_arm_probability if both_arms else 0.0)
            if wanted and includable(target, path_origins):
                child = new_node(target, arm_pred, node.node_id)
                node.children[value] = child.node_id
                grow(child, path_origins | {target})
            else:
                node.exits.append(
                    RegionExit(arm_pred, target, node.node_id)
                )

    grow(root, {header})
    return tree
