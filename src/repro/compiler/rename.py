"""Register renaming for legal speculative motion (Section 2.1).

Compiler-only models (global / squashing / trace scheduling) cannot buffer
speculative state in hardware; they make an illegal upward motion legal by
renaming:

    "the compiler assigns a register which is not live on the side-effects
    causing path as the destination register [and] inserts an instruction
    which copies the value from the newly assigned register to the
    original destination register"

This pass rewrites every eligible instruction (safe, renameable, within
its policy's crossing depth) into

* the instruction itself with an ``alw`` predicate and a fresh dead
  destination register (it now executes unconditionally -- no guard
  edges), and
* a predicated ``mov home_dest, fresh`` copy at the original position,
  which carries the original control dependence.

Copy propagation then rewrites in-region consumers to read the fresh
register directly, and the copy is deleted when the home destination is
dead at every reachable exit (the paper's copy elimination) -- otherwise
it stays and costs its issue slot, exactly the price the paper's models
pay.

Renaming stops when the dead-register pool is exhausted: that is the
register-pressure constraint the paper identifies as the cost of
compiler-only speculation.

``region.clobbered`` records the registers left holding values the
scalar program never put there -- each fresh destination, and each home
register whose copy was deleted -- which the oracle does not compare.
"""

from __future__ import annotations

from repro.compiler.policy import Mechanism, ModelPolicy
from repro.compiler.predication import LinearInstr, LinearRegion, Role
from repro.core.predicate import ALWAYS
from repro.isa.instruction import Instruction
from repro.isa.operands import Reg
from repro.isa.registers import NUM_REGS, ZERO_REG


def _free_register_pool(
    region: LinearRegion, exit_live_in: dict[int, set[int]]
) -> list[int]:
    """Registers dead everywhere the region can observe."""
    used: set[int] = set()
    for item in region.items:
        instr = item.instr
        if instr.dest_reg is not None:
            used.add(instr.dest_reg)
        used.update(instr.src_regs)
    live_out: set[int] = set()
    for exit_ in region.tree.all_exits():
        live_out |= exit_live_in.get(exit_.target_origin, set())
    return [
        reg
        for reg in range(NUM_REGS - 1, 0, -1)
        if reg != ZERO_REG and reg not in used and reg not in live_out
    ]


def _reaches(items: list[LinearInstr], def_index: int, use_index: int, reg: int) -> bool:
    """Whether *def_index*'s def of *reg* reaches *use_index*."""
    use_pred = items[use_index].instr.pred
    for i in range(use_index - 1, def_index, -1):
        other = items[i].instr
        if other.dest_reg == reg and not other.pred.disjoint_with(use_pred):
            return False
    return not items[def_index].instr.pred.disjoint_with(use_pred)


def apply_renaming(
    region: LinearRegion,
    policy: ModelPolicy,
    exit_live_in: dict[int, set[int]],
) -> LinearRegion:
    """Rewrite *region* in place applying rename-hoisting; returns it."""
    pool = _free_register_pool(region, exit_live_in)
    items = region.items

    index = 0
    while index < len(items):
        item = items[index]
        instr = item.instr
        rule = policy.rule_for(instr)
        eligible = (
            item.role is Role.BODY
            and item.renamable
            and rule.mechanism is Mechanism.RENAME
            and not instr.pred.is_always
            and instr.pred.depth <= rule.depth
            and not instr.is_unsafe
            and instr.dest_reg is not None
            and instr.dest_reg != ZERO_REG
            and not instr.is_store
            and instr.opcode != "out"
        )
        if not eligible or not pool:
            index += 1
            continue

        fresh = pool.pop()
        home_dest = instr.dest_reg
        home_pred = instr.pred
        region.clobbered |= {fresh}

        hoisted = instr.rename_reg(home_dest, fresh, dest=True, srcs=False)
        hoisted = hoisted.replace(pred=ALWAYS)
        items[index] = LinearInstr(
            instr=hoisted,
            node_id=item.node_id,
            role=Role.BODY,
            renamable=False,
        )
        copy = LinearInstr(
            instr=Instruction(
                "mov", (Reg(home_dest), Reg(fresh)), pred=home_pred
            ),
            node_id=item.node_id,
            role=Role.BODY,
            renamable=False,
        )
        items.insert(index + 1, copy)

        # Copy propagation: in-region consumers whose reaching def is the
        # copy read the fresh register directly (and thereby lose the
        # guard chain).  `_reaches` is path-sensitive, so defs on disjoint
        # paths do not stop propagation for this path.
        for j in range(index + 2, len(items)):
            consumer = items[j]
            if home_dest in consumer.instr.src_regs and _reaches(
                items, index + 1, j, home_dest
            ):
                items[j] = LinearInstr(
                    instr=consumer.instr.rename_reg(
                        home_dest, fresh, dest=False, srcs=True
                    ),
                    node_id=consumer.node_id,
                    role=consumer.role,
                    exit_keys=consumer.exit_keys,
                    renamable=consumer.renamable,
                )

        # Dead-copy elimination: delete the copy when the home register is
        # dead at every exit the copy's path can reach (in-region readers
        # were just rewritten to the fresh register).
        live_anywhere = any(
            home_dest in exit_live_in.get(exit_.target_origin, set())
            for exit_ in region.tree.all_exits()
            if not exit_.pred.disjoint_with(home_pred)
        )
        if not live_anywhere:
            items.pop(index + 1)
            region.clobbered |= {home_dest}
        index += 1
    return region
