"""Tests for CFG construction, dominators, liveness, and loops."""

import pytest

from repro.ir import (
    build_cfg,
    compute_dominators,
    compute_liveness,
    find_natural_loops,
)
from repro.ir.dataflow import live_after_position
from repro.ir.loops import loop_nest_depth
from repro.isa import parse_program
from repro.sim import Memory, run_program

DIAMOND = """
    li   r1, 1
    clti c0, r1, 5
    br   c0, then
    li   r2, 10
    jmp  join
then:
    li   r2, 20
join:
    out  r2
    halt
"""

LOOP = """
    li   r1, 0
loop:
    addi r1, r1, 1
    clti c0, r1, 3
    br   c0, loop
    out  r1
    halt
"""


class TestBuildCFG:
    def test_diamond_structure(self):
        cfg = build_cfg(parse_program(DIAMOND))
        assert len(cfg.blocks) == 4
        entry = cfg.blocks[cfg.entry]
        assert entry.is_branch_block
        taken, fall = entry.taken_target, entry.fall_through
        # Both arms join at the out block.
        join = cfg.blocks[taken].taken_target or cfg.blocks[taken].fall_through
        assert cfg.blocks[fall].taken_target == join or (
            cfg.blocks[fall].fall_through == join
        )

    def test_loop_back_edge(self):
        cfg = build_cfg(parse_program(LOOP))
        loop_block = [b for b in cfg.blocks.values() if b.is_branch_block][0]
        assert loop_block.taken_target == loop_block.bid

    def test_start_of_mapping(self):
        program = parse_program(LOOP)
        cfg = build_cfg(program)
        for bid, start in cfg.start_of.items():
            assert cfg.blocks[bid].instructions[0] is program.instructions[start]

    def test_empty_program_rejected(self):
        from repro.isa.program import Program

        with pytest.raises(ValueError):
            build_cfg(Program())

    def test_two_target_branch_rejected(self):
        """``br2`` is the code generator's form; no source may use it."""
        program = parse_program(
            "start:\n  clti c0, r1, 1\n  br2 c0, start, start\n  halt\n"
        )
        with pytest.raises(ValueError, match="br2"):
            build_cfg(program)

    def test_roundtrip_preserves_behaviour(self):
        program = parse_program(DIAMOND)
        cfg = build_cfg(program)
        again = cfg.to_program()
        assert run_program(program).output == run_program(again).output

    def test_roundtrip_after_layout_shuffle(self):
        program = parse_program(DIAMOND)
        cfg = build_cfg(program)
        cfg.layout.reverse()
        again = cfg.to_program()
        assert run_program(program).output == run_program(again).output

    def test_clone_independent(self):
        cfg = build_cfg(parse_program(DIAMOND))
        copy = cfg.clone()
        copy.blocks[copy.entry].taken_target = None
        assert cfg.blocks[cfg.entry].taken_target is not None


class TestDominators:
    def test_diamond_dominance(self):
        cfg = build_cfg(parse_program(DIAMOND))
        dom = compute_dominators(cfg)
        entry = cfg.entry
        for bid in cfg.blocks:
            assert dom.dominates(entry, bid)
        # Neither arm dominates the join.
        entry_block = cfg.blocks[entry]
        join = [
            b
            for b in cfg.blocks
            if len(cfg.predecessors(b)) == 2
        ][0]
        assert not dom.dominates(entry_block.taken_target, join)
        assert not dom.dominates(entry_block.fall_through, join)

    def test_post_dominance(self):
        cfg = build_cfg(parse_program(DIAMOND))
        dom = compute_dominators(cfg)
        join = [b for b in cfg.blocks if len(cfg.predecessors(b)) == 2][0]
        assert dom.post_dominates(join, cfg.entry)

    def test_equivalent_blocks(self):
        """Entry and join of a diamond are equivalent (footnote 2)."""
        cfg = build_cfg(parse_program(DIAMOND))
        dom = compute_dominators(cfg)
        join = [b for b in cfg.blocks if len(cfg.predecessors(b)) == 2][0]
        assert dom.equivalent(cfg.entry, join)
        arm = cfg.blocks[cfg.entry].taken_target
        assert not dom.equivalent(arm, join)


class TestLiveness:
    def test_branch_condition_live(self):
        cfg = build_cfg(parse_program(DIAMOND))
        live = compute_liveness(cfg)
        entry = live.blocks[cfg.entry]
        assert 0 in entry.def_cregs

    def test_r2_live_into_join(self):
        cfg = build_cfg(parse_program(DIAMOND))
        live = compute_liveness(cfg)
        join = [b for b in cfg.blocks if len(cfg.predecessors(b)) == 2][0]
        assert 2 in live.blocks[join].live_in_regs

    def test_dead_regs_at_entry(self):
        cfg = build_cfg(parse_program(DIAMOND))
        live = compute_liveness(cfg)
        dead = live.dead_regs_at_entry(cfg.entry, 32)
        assert 5 in dead and 0 not in dead

    def test_loop_carried_liveness(self):
        cfg = build_cfg(parse_program(LOOP))
        live = compute_liveness(cfg)
        loop_block = [b for b in cfg.blocks.values() if b.is_branch_block][0]
        assert 1 in live.blocks[loop_block.bid].live_in_regs
        assert 1 in live.blocks[loop_block.bid].live_out_regs

    def test_live_after_position(self):
        cfg = build_cfg(parse_program(LOOP))
        live = compute_liveness(cfg)
        loop_bid = [b.bid for b in cfg.blocks.values() if b.is_branch_block][0]
        after_addi = live_after_position(cfg, live, loop_bid, 0)
        assert 1 in after_addi


class TestLoops:
    def test_simple_loop_found(self):
        cfg = build_cfg(parse_program(LOOP))
        dom = compute_dominators(cfg)
        loops = find_natural_loops(cfg, dom)
        assert len(loops) == 1
        assert loops[0].header == loops[0].back_edges[0][1]

    def test_no_loops_in_diamond(self):
        cfg = build_cfg(parse_program(DIAMOND))
        dom = compute_dominators(cfg)
        assert find_natural_loops(cfg, dom) == []

    def test_nested_loops(self):
        nested = """
            li r1, 0
        outer:
            li r2, 0
        inner:
            addi r2, r2, 1
            clti c0, r2, 3
            br c0, inner
            addi r1, r1, 1
            clti c1, r1, 3
            br c1, outer
            halt
        """
        cfg = build_cfg(parse_program(nested))
        dom = compute_dominators(cfg)
        loops = find_natural_loops(cfg, dom)
        assert len(loops) == 2
        depth = loop_nest_depth(loops)
        assert max(depth.values()) == 2
