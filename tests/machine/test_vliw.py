"""Cycle-level machine tests, including the paper's Table 1 walkthrough."""

import pytest

from repro.core.exceptions import ScheduleViolation, UnhandledFault
from repro.isa.parser import parse_instruction as P
from repro.machine import Bundle, VLIWMachine, VLIWProgram
from repro.machine.config import MachineConfig, base_machine, full_issue_machine
from repro.machine.program import RegionSpan
from repro.sim.memory import Memory


def program(bundle_specs, labels, regions):
    return VLIWProgram(
        bundles=[Bundle(tuple(P(text) for text in spec)) for spec in bundle_specs],
        labels=labels,
        regions=[RegionSpan(*span) for span in regions],
    )


def run(prog, config=None, memory=None, **kwargs):
    machine = VLIWMachine(
        prog, config or base_machine(), memory or Memory(), **kwargs
    )
    return machine.run(), machine


class TestBasics:
    def test_straightline(self):
        prog = program(
            [["li r1, 6", "li r2, 7"], ["mul r3, r1, r2"], ["out r3"], ["halt"]],
            {"R0": 0},
            [("R0", 0, 4)],
        )
        result, _ = run(prog)
        assert result.output == [42]
        assert result.cycles == 4

    def test_load_latency_two(self):
        memory = Memory()
        memory.write_block(100, [9])
        prog = program(
            [
                ["li r1, 100"],
                ["ld r2, r1, 0"],
                ["nop"],  # result not ready in this cycle
                ["out r2"],
                ["halt"],
            ],
            {"R0": 0},
            [("R0", 0, 5)],
        )
        result, _ = run(prog, memory=memory)
        assert result.output == [9]

    def test_commit_and_squash(self):
        prog = program(
            [
                ["li r1, 5", "li r2, 7"],
                ["clt c0, r1, r2", "[c0] addi r3, r1, 10", "[!c0] addi r4, r1, 20"],
                ["jmp R1"],
                ["out r3"],
                ["out r4", "halt"],
            ],
            {"R0": 0, "R1": 3},
            [("R0", 0, 3), ("R1", 3, 5)],
        )
        result, _ = run(prog)
        assert result.output == [15, 0]
        assert result.speculative_ops == 2
        assert result.squashed_ops == 0

    @pytest.mark.parametrize(("value", "taken"), [(1, [10]), (9, [20])])
    def test_two_target_branch_goes_where_its_condition_says(
        self, value, taken
    ):
        prog = program(
            [
                [f"li r1, {value}"],
                ["clti c0, r1, 5"],
                ["br2 c0, T, F"],
                ["li r2, 10"],
                ["out r2", "halt"],
                ["li r2, 20"],
                ["out r2", "halt"],
            ],
            {"R0": 0, "T": 3, "F": 5},
            [("R0", 0, 3), ("T", 3, 5), ("F", 5, 7)],
        )
        result, _ = run(prog)
        assert result.output == taken

    def test_region_transfer_resets_ccr(self):
        prog = program(
            [
                ["li r1, 1"],
                ["ceqi c0, r1, 1"],
                ["jmp R1"],
                # Next region: c0 must be unspecified again, so a predicated
                # op stays speculative until c0 is re-set.
                ["[c0] li r2, 9"],
                ["cnei c0, r1, 1"],  # c0 = False now
                ["nop"],
                ["jmp R2"],
                ["out r2", "halt"],
            ],
            {"R0": 0, "R1": 3, "R2": 7},
            [("R0", 0, 3), ("R1", 3, 7), ("R2", 7, 8)],
        )
        result, _ = run(prog)
        assert result.output == [0]  # squashed: r2 never committed

    def test_store_buffer_forwarding(self):
        prog = program(
            [
                ["li r1, 100", "li r2, 5"],
                ["st r2, r1, 0"],
                ["ld r3, r1, 0"],  # must see the buffered/retired store
                ["nop"],  # load latency
                ["out r3"],
                ["halt"],
            ],
            {"R0": 0},
            [("R0", 0, 6)],
        )
        result, _ = run(prog)
        assert result.output == [5]

    def test_speculative_store_squashed_never_reaches_memory(self):
        memory = Memory()
        prog = program(
            [
                ["li r1, 100", "li r2, 5"],
                ["[c0] st r2, r1, 0"],
                ["cnei c0, r2, 5"],  # c0 = False
                ["nop"],
                ["jmp R1"],
                ["halt"],
            ],
            {"R0": 0, "R1": 5},
            [("R0", 0, 5), ("R1", 5, 6)],
        )
        run(prog, memory=memory)
        assert memory.load(100) == 0

    def test_shadow_read_with_fallback(self):
        """A .s read uses the shadow while valid, sequential after commit."""
        prog = program(
            [
                ["li r1, 3"],
                ["[c0] addi r2, r1, 100"],
                ["out r2"],  # speculative r2 not committed: sequential 0
                ["ceqi c0, r1, 3"],
                ["nop"],
                ["add r3, r2.s, r1"],  # after commit: shadow invalid -> 103
                ["out r3"],
                ["halt"],
            ],
            {"R0": 0},
            [("R0", 0, 8)],
        )
        result, _ = run(prog)
        assert result.output == [0, 106]


class TestScheduleViolations:
    def test_issue_width_enforced(self):
        prog = program(
            [["nop", "nop", "nop"], ["halt"]], {"R0": 0}, [("R0", 0, 2)]
        )
        with pytest.raises(ScheduleViolation):
            run(prog, config=MachineConfig(issue_width=2))

    def test_fu_oversubscription(self):
        prog = program(
            [["ld r1, r0, 100", "ld r2, r0, 101", "ld r3, r0, 102"], ["halt"]],
            {"R0": 0},
            [("R0", 0, 2)],
        )
        with pytest.raises(ScheduleViolation):
            run(prog)  # base machine has 2 load units

    def test_jump_with_unspecified_predicate(self):
        prog = program(
            [["[c0] jmp R0"], ["halt"]], {"R0": 0}, [("R0", 0, 2)]
        )
        with pytest.raises(ScheduleViolation):
            run(prog)

    def test_running_off_the_end(self):
        prog = program([["nop"]], {"R0": 0}, [("R0", 0, 1)])
        with pytest.raises(ScheduleViolation):
            run(prog)

    def test_full_issue_machine_allows_wide_bundles(self):
        prog = program(
            [
                ["ld r1, r0, 100", "ld r2, r0, 101", "ld r3, r0, 102"],
                ["halt"],
            ],
            {"R0": 0},
            [("R0", 0, 2)],
        )
        result, _ = run(prog, config=full_issue_machine(8, 4))
        assert result.cycles == 2


class TestPaperTable1:
    """Figure 4's schedule replayed instruction for instruction.

    The original addresses are shifted into our valid address range, and
    `load array` is modelled as a load from a fixed array address, but the
    predicate structure, issue cycles, and latencies match the paper, so
    the machine must reproduce Table 1's writes/commits/squashes.
    """

    def build(self):
        # Initial state: r2=100 (pointer), mem[100]=5 (so r1=5, r3=6),
        # r4=10 (c0 = 6<10 = T), r5=50, mem[106]=99 (r6, c1 = 50<99 = T),
        # r7=300, c2 = (100<0) = F. Path taken: c0&c1 -> exit i17 to L8.
        memory = Memory()
        memory.write_block(100, [5])
        memory.write_block(106, [99])
        memory.write_block(200, [7])  # the "array"
        bundles = [
            # (1) i1: alw r1 = load(r2)        | i15: c0&c1 r2.s = r2 - 1
            ["ld r1, r2, 0", "[c0&c1] addi r2, r2, -1"],
            # (2) i10: !c0 r5.s = load array   | i14: c0&c1 store(r7) = r5
            ["[!c0] ld r5, r0, 200", "[c0&c1] st r5, r7, 0"],
            # (3) i2: alw r3 = r1 + 1          | i16: c0&c1 r7.s = r2.s << 1
            ["addi r3, r1, 1", "[c0&c1] slli r7, r2.s, 1"],
            # (4) i6: c0 r6 = load(r3)         | i3: alw c0 = r3 < r4
            ["[c0] ld r6, r3, 100", "clt c0, r3, r4"],
            # (5) i11: alw c2 = r2 < 0         | nop
            ["clt c2, r2, r0"],
            # (6) i7: alw c1 = r5 < r6         | i12: !c0&c2 j L6
            ["clt c1, r5, r6", "[!c0&c2] jmp L6"],
            # (7) i9: c0&!c1 j L5              | i17: c0&c1 j L8
            ["[c0&!c1] jmp L5", "[c0&c1] jmp L8"],
            # (8) i13: !c0&!c2 j L7
            ["[!c0&!c2] jmp L7"],
            # L5/L6/L7/L8 continuation regions:
            ["halt"],  # L5
            ["halt"],  # L6
            ["halt"],  # L7
            ["out r2"],  # L8 (one store unit: one out per cycle)
            ["out r7"],
            ["halt"],
        ]
        prog = program(
            bundles,
            {"R0": 0, "L5": 8, "L6": 9, "L7": 10, "L8": 11},
            [
                ("R0", 0, 8),
                ("L5", 8, 9),
                ("L6", 9, 10),
                ("L7", 10, 11),
                ("L8", 11, 14),
            ],
        )
        return prog, memory

    def setup_machine(self):
        prog, memory = self.build()
        machine = VLIWMachine(
            prog, base_machine(), memory, record_events=True
        )
        machine.regfile.write_sequential(2, 100)
        machine.regfile.write_sequential(4, 10)
        machine.regfile.write_sequential(5, 50)
        machine.regfile.write_sequential(7, 300)
        return machine

    def test_final_state(self):
        machine = self.setup_machine()
        result = machine.run()
        assert result.output == [99, 198]  # committed r2 = 99, r7 = 99<<1
        assert result.memory.load(300) == 50  # committed store(r7)=r5
        assert result.registers[1] == 5  # r1 = mem[100]
        assert result.registers[3] == 6  # r3 = r1+1
        assert result.registers[6] == 99  # r6 committed during execution
        assert result.registers[5] == 50  # r5 speculative load squashed

    def test_cycle_by_cycle_transitions(self):
        machine = self.setup_machine()
        machine.run()
        by_cycle = {e.cycle: e for e in machine.events}

        # Cycle 1: i15 buffers r2 speculatively under c0&c1.
        assert ("r2", "c0&c1") in by_cycle[1].speculative_writes
        # Cycle 2: i1's load lands in sequential r1; i14 appends sb entry.
        assert 1 in by_cycle[2].sequential_writes
        assert any(n.startswith("sb") for n, _ in by_cycle[2].speculative_writes)
        # Cycle 3: r3 sequential; r5 (i10 load) and r7 speculative.
        assert 3 in by_cycle[3].sequential_writes
        assert ("r5", "!c0") in by_cycle[3].speculative_writes
        assert ("r7", "c0&c1") in by_cycle[3].speculative_writes
        # Cycle 4: i3 sets c0 = True.
        assert (0, True) in by_cycle[4].ccr_sets
        # Cycle 5: r6 committed during execution (sequential write);
        # r5 squashed; i11 sets c2 = False.
        assert 6 in by_cycle[5].sequential_writes
        assert "r5" in by_cycle[5].squashed
        assert (2, False) in by_cycle[5].ccr_sets
        # Cycle 6: i7 sets c1 = True.
        assert (1, True) in by_cycle[6].ccr_sets
        # Cycle 7: r2, r7 and the store buffer entry commit; transfer to L8.
        assert set(by_cycle[7].committed) >= {"r2", "r7"}
        assert any(n.startswith("sb") for n in by_cycle[7].committed)

    def test_timing_matches_paper(self):
        machine = self.setup_machine()
        result = machine.run()
        # Region exits at cycle 7 via i17; L8 takes 3 more cycles.
        assert result.cycles == 7 + 3
        # i9 and i12 squashed at issue; i13 never issues (exit at cycle 7).
        assert result.squashed_ops == 2
        # Speculative issues: i15, i10, i14, i16, i6.
        assert result.speculative_ops == 5
