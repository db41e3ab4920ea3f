"""Dependence-graph construction for one linearized region.

Produces the precedence edges the list scheduler must respect.  Edge
``(i, j, L)`` means ``cycle(j) >= cycle(i) + L``; latency 0 allows
same-cycle issue (reads happen at the start of a cycle, writes at the
end).

Edge families (with the reasoning each encodes):

**Data**
  * true dependence: consumer >= producer + producer latency;
  * anti dependence (WAR): a use must issue no later than any later def of
    the same register -- with buffering this also guarantees the use reads
    the right storage before a commit or a disjoint-path shadow write can
    overwrite it (a speculative def's earliest possible commit is the tick
    *after* its issue cycle, so a plain latency-0 edge is sufficient);
  * output dependence (WAW): write-back order is preserved
    (``lat(i) - lat(j) + 1``); two defs with *different* predicates in a
    single-shadow machine additionally conflict on the shadow storage, so
    the later def waits for the earlier predicate's resolution (guard
    edges from that predicate's condition-sets).

**Memory**
  The scheduler keeps may-aliasing memory operations in program order
  (store->load 1, load->store 0, store->store 1); the predicated store
  buffer handles the speculation side.  Aliasing is decided by a symbolic
  address-provenance analysis: addresses are ``root + constant`` where a
  root is a region-entry register, a constant, or an unknown; distinct
  known roots are assumed not to alias (a standard evaluation heuristic,
  documented in DESIGN.md), identical roots compare offsets exactly, and
  unknowns alias everything.  Observable outputs form their own chain.
  Operations on provably disjoint control paths never interact.

**Control**
  * guard edges: conditions an instruction may not speculate past impose
    ``instr >= cond_set + 1``; squash-crossed conditions impose
    ``instr >= cond_set`` (state lives only in the pipeline); buffered
    crossings impose nothing -- the paper's mechanism;
  * exits (predicated jumps, retained branches, halts) wait for their own
    conditions, for every producer of a value live into their target, and
    for stores/outputs on their path -- the region-closure rules that let
    the machine squash all remaining speculative state at a transfer;
  * boosting's counter-style commit hardware forces condition-resolving
    points into program order (chain edges).

**Exceptions**
  A condition-set executes ``alw`` even when its home block is deep in the
  region, so it must never consume a value *tainted* by a speculative
  unsafe instruction before that instruction's exception-commit point --
  otherwise a corrupted condition would enter the CCR and recovery could
  not undo it (Section 3.5's correctness argument).  Taint is propagated
  transitively along true dependences, and each tainted condition-set gets
  guard edges for the originating unsafe instruction's predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.policy import Mechanism, ModelPolicy
from repro.compiler.predication import LinearInstr, LinearRegion, Role
from repro.isa.registers import ZERO_REG


@dataclass
class DepGraph:
    """Precedence edges over a linear region, plus codegen metadata."""

    region: LinearRegion
    edges: list[tuple[int, int, int]] = field(default_factory=list)
    # item index -> set of source-operand positions that read shadow state
    shadow_positions: dict[int, set[int]] = field(default_factory=dict)

    def add(self, producer: int, consumer: int, latency: int) -> None:
        if producer != consumer:
            self.edges.append((producer, consumer, latency))


# ----------------------------------------------------------------------
# Address provenance for the alias heuristic.
# ----------------------------------------------------------------------
_EXIT_ROLES = (Role.EXIT, Role.BRANCH, Role.HALT)

_ENTRY = "entry"
_CONST = "const"
_UNKNOWN = "unknown"


def _reaching_def(items: list[LinearInstr], j: int, reg: int) -> int | None:
    """Nearest earlier def of *reg* on a path consistent with item *j*."""
    pred_j = items[j].instr.pred
    for i in range(j - 1, -1, -1):
        if items[i].instr.dest_reg == reg:
            if items[i].instr.pred.disjoint_with(pred_j):
                continue
            return i
    return None


def _provenance(
    items: list[LinearInstr],
    j: int,
    reg: int,
    cache: dict[tuple[int, int], tuple[str, int, int]],
    depth: int = 0,
) -> tuple[str, int, int]:
    """Symbolic value of *reg* as seen by item *j*: (kind, id, offset)."""
    if reg == ZERO_REG:
        return (_CONST, 0, 0)
    key = (j, reg)
    if key in cache:
        return cache[key]
    result: tuple[str, int, int]
    i = _reaching_def(items, j, reg)
    if i is None:
        result = (_ENTRY, reg, 0)
    elif depth > 32 or not items[j].instr.pred.implies(items[i].instr.pred):
        # A shared-join input may come from either arm: unknown value.
        result = (_UNKNOWN, items[i].instr.uid, 0)
    else:
        instr = items[i].instr
        if instr.opcode == "li":
            result = (_CONST, 0, instr.imm or 0)
        elif instr.opcode == "mov":
            result = _provenance(items, i, instr.src_regs[0], cache, depth + 1)
        elif instr.opcode == "addi":
            kind, ident, offset = _provenance(
                items, i, instr.src_regs[0], cache, depth + 1
            )
            result = (kind, ident, offset + (instr.imm or 0))
        else:
            result = (_UNKNOWN, instr.uid, 0)
    cache[key] = result
    return result


def _may_alias(
    a: tuple[str, int, int], b: tuple[str, int, int]
) -> bool:
    kind_a, id_a, off_a = a
    kind_b, id_b, off_b = b
    if kind_a == _UNKNOWN or kind_b == _UNKNOWN:
        return True
    if (kind_a, id_a) == (kind_b, id_b):
        return off_a == off_b
    # Distinct known roots: assumed distinct allocations.
    return False


def _address_of(
    items: list[LinearInstr],
    j: int,
    cache: dict[tuple[int, int], tuple[str, int, int]],
) -> tuple[str, int, int]:
    instr = items[j].instr
    if instr.opcode == "ld":
        base = instr.src_regs[0]
    else:  # st
        base = instr.src_regs[1]
    kind, ident, offset = _provenance(items, j, base, cache)
    return (kind, ident, offset + (instr.imm or 0))


# ----------------------------------------------------------------------
# Main construction.
# ----------------------------------------------------------------------
def build_dependence(
    region: LinearRegion,
    policy: ModelPolicy,
    exit_live_in: dict[int, set[int]],
    *,
    single_shadow: bool = True,
) -> DepGraph:
    """Build the dependence graph for *region* under *policy*.

    *exit_live_in* maps original block ids (exit targets) to their live-in
    register sets in the original CFG.
    """
    graph = DepGraph(region=region)
    add = graph.add
    items = region.items
    tree = region.tree
    # Each item's facts, read once: the passes below consult them for
    # every pair of items.
    instrs = [item.instr for item in items]
    dests = [instr.dest_reg for instr in instrs]
    latencies = [instr.latency for instr in instrs]
    # Path relations are decided with the *home* predicate of the item's
    # tree node, not the instruction's own predicate: condition-sets are
    # re-predicated ``alw`` but still belong to their home path, and
    # shared-join items carry the merged (shorter) predicate.
    homes = [tree.nodes[item.node_id].pred for item in items]

    cond_set_of: dict[int, int] = {}
    for index, item in enumerate(items):
        if item.role is Role.COND_SET:
            dest = item.instr.dest_creg
            assert dest is not None
            cond_set_of[dest] = index

    def guard(terms, consumer: int, latency: int = 1) -> None:
        """Edges from the condition-sets of *terms* to *consumer*."""
        for cond, _ in terms:
            if cond in cond_set_of:
                add(cond_set_of[cond], consumer, latency)

    # ---- register dependences -----------------------------------------
    # The backward scan over earlier defs distinguishes two producer
    # relations:
    #   * pred(use) implies pred(def): the normal same-path dependence --
    #     the consumer may read the speculative state (``.s``);
    #   * otherwise (non-disjoint, non-implying): a *commit dependence* --
    #     the consumer sits at a shared join (footnote-2 merging) and
    #     "cannot be scheduled until the speculative value is committed or
    #     squashed": it reads the sequential state and waits for every
    #     condition of the producer's predicate to resolve.  The scan then
    #     continues, because defs on the other arm (and the dominating
    #     def) also reach the join.
    # A def also gets anti (WAR) edges from every earlier use and output
    # (WAW) edges from every earlier def of its register.
    reaching: list[dict[int, int | None]] = []
    defs_of: dict[int, list[int]] = {}
    uses_of: dict[int, list[int]] = {}
    for j, instr in enumerate(instrs):
        sources: dict[int, int | None] = {}
        reaching.append(sources)
        pred_j = homes[j]
        for number, reg in enumerate(instr.src_regs):
            if reg == ZERO_REG:
                continue
            final_def: int | None = None
            for i in reversed(defs_of.get(reg, ())):
                other_pred = homes[i]
                if other_pred.disjoint_with(pred_j):
                    continue
                if pred_j.implies(other_pred):
                    final_def = i
                    break
                # Commit dependence on a shared-join input.
                add(i, j, latencies[i])
                guard(other_pred.terms, j)
            sources[number] = final_def
            if final_def is None:
                continue
            add(final_def, j, latencies[final_def])
            if not instrs[final_def].pred.is_always:
                graph.shadow_positions.setdefault(j, set()).add(
                    instr.source_positions[number]
                )

        dest = dests[j]
        if dest is not None and dest != ZERO_REG:
            for i in uses_of.get(dest, ()):
                add(i, j, 0)
            for i in defs_of.get(dest, ()):
                add(i, j, max(0, latencies[i] - latencies[j] + 1))
                other = instrs[i].pred
                if single_shadow and not other.is_always and other != instr.pred:
                    # Single-shadow conflict: wait for the earlier value's
                    # resolution.
                    guard(other.terms, j)
        for reg in set(instr.src_regs):
            uses_of.setdefault(reg, []).append(j)
        if dest is not None:
            defs_of.setdefault(dest, []).append(j)

    # ---- memory dependences --------------------------------------------
    address_cache: dict[tuple[int, int], tuple[str, int, int]] = {}
    memory_items = [
        (j, instr.opcode, instr.pred, _address_of(items, j, address_cache))
        for j, instr in enumerate(instrs)
        if instr.opcode in ("ld", "st")
    ]
    for position, (j, opcode_j, pred_j, addr_j) in enumerate(memory_items):
        for i, opcode_i, pred_i, addr_i in memory_items[:position]:
            if opcode_i == "ld" and opcode_j == "ld":
                continue
            if pred_i.disjoint_with(pred_j) or not _may_alias(addr_i, addr_j):
                continue
            add(i, j, 0 if opcode_i == "ld" else 1)

    out_items = [j for j, instr in enumerate(instrs) if instr.opcode == "out"]
    for previous, current in zip(out_items, out_items[1:]):
        add(previous, current, 1)

    # ---- control / guard edges -----------------------------------------
    for j, item in enumerate(items):
        instr = item.instr
        if item.role in _EXIT_ROLES:
            guard(instr.pred.terms, j)
            if item.role is Role.BRANCH:
                for creg in instr.src_cregs:
                    if creg in cond_set_of:
                        add(cond_set_of[creg], j, 1)
            continue
        if instr.pred.is_always:
            continue
        rule = policy.rule_for(instr)
        terms = instr.pred.terms  # sorted by index = shallow->deep
        # The deepest ``rule.depth`` conditions may be crossed.
        split = len(terms) - min(rule.depth, len(terms))
        guard(terms[:split], j)
        if rule.mechanism is Mechanism.SQUASH:
            guard(terms[split:], j, 0)
        elif rule.mechanism is Mechanism.RENAME:
            # Not renamed by the transform (no free register): guard.
            guard(terms[split:], j)

    if policy.ordered_cond_sets:
        resolving_role = (
            Role.BRANCH if not policy.eliminate_branches else Role.COND_SET
        )
        resolving = [
            j for j, item in enumerate(items) if item.role is resolving_role
        ]
        for previous, current in zip(resolving, resolving[1:]):
            add(previous, current, 1)

    # ---- exception taint ------------------------------------------------
    speculative_unsafe: set[int] = set()
    for j, instr in enumerate(instrs):
        if instr.is_unsafe and not instr.pred.is_always:
            rule = policy.rule_for(instr)
            if rule.depth > 0 and rule.mechanism is Mechanism.BUFFER:
                speculative_unsafe.add(j)

    taint: list[set[int]] = []
    for j, item in enumerate(items):
        origins: set[int] = set()
        for i in reaching[j].values():
            if i is None:
                continue
            origins |= taint[i]
            if i in speculative_unsafe:
                origins.add(i)
        taint.append(origins)
        if item.role is Role.COND_SET and origins:
            for origin in origins:
                add(origin, j, latencies[origin])
                guard(instrs[origin].pred.terms, j)

    # ---- region-exit closure ---------------------------------------------
    exit_items = [
        j for j, item in enumerate(items) if item.role in _EXIT_ROLES
    ]
    # With pure tail duplication exit predicates are pairwise disjoint, so
    # at most one can be true.  Equivalent-join sharing weakens this: a
    # shared join's exit conditions are computed ``alw`` and hold garbage
    # on paths that left through an arm's side exit, so both could read
    # true.  Program order decides: a later exit may only issue after
    # every earlier non-disjoint exit has had its chance to transfer.
    for position, e in enumerate(exit_items):
        for earlier in exit_items[:position]:
            if not instrs[earlier].pred.disjoint_with(instrs[e].pred):
                add(earlier, e, 1)

    for e in exit_items:
        exit_item = items[e]
        live: set[int] = set()
        for node_id, _arm in exit_item.exit_keys:
            for exit_ in tree.nodes[node_id].exits:
                live |= exit_live_in.get(exit_.target_origin, set())
        exit_pred = exit_item.instr.pred
        exit_conditions = exit_pred.conditions
        for i in range(e):
            if items[i].role in _EXIT_ROLES or homes[i].disjoint_with(exit_pred):
                continue
            contributes = False
            dest = dests[i]
            if dest is not None and dest in live:
                add(i, e, latencies[i])
                contributes = True
            elif dest is not None:
                # The register file at halt is architecturally observable,
                # and bundles past a taken transfer never issue: a register
                # write on the exit's path may not sink below the exit even
                # when its value is dead in the target (latency 0 -- the
                # transfer/halt flush commits TRUE in-flight results).
                add(i, e, 0)
                contributes = True
            if instrs[i].opcode in ("st", "out"):
                add(i, e, 0)
                contributes = True
            if contributes:
                # Closure: the contributor's own conditions must resolve
                # before the exit, or the transfer would squash it.  With
                # pure tail duplication the exit predicate already covers
                # them; with shared joins (footnote 2) the exit predicate
                # is shorter than the arm producers' -- these edges are
                # the commit dependences the paper attributes to region
                # predicating.
                guard(
                    [term for term in homes[i].terms
                     if term[0] not in exit_conditions],
                    e,
                )
    return graph
