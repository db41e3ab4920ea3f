"""Checkpoint/restore bit-identity properties.

The contract the subsystem guarantees: *run N steps, snapshot, restore,
continue* produces exactly the result of the uninterrupted run -- same
outputs, same statistics, same metrics counters, same trace suffix --
at **every** boundary, including mid-recovery-mode with a fault handler
active.  These tests enforce it exhaustively on a faulting recovery
program (VLIW) and a faulting scalar loop (interpreter).
"""

import dataclasses
import json

import pytest

from repro.ckpt.state import (
    CheckpointError,
    canonical_dumps,
    restore_interpreter,
    restore_vliw,
    snapshot_interpreter,
    snapshot_vliw,
)
from repro.core.exceptions import FaultKind, MachineMode
from repro.ir.cfg import build_cfg
from repro.isa.parser import parse_instruction as P
from repro.isa.parser import parse_program
from repro.machine import Bundle, VLIWMachine, VLIWProgram
from repro.machine.config import base_machine
from repro.machine.program import RegionSpan
from repro.obs.metrics import CounterSink
from repro.obs.trace_events import CycleTraceRecorder
from repro.sim.interpreter import Interpreter
from repro.sim.memory import Memory
from repro.workloads import get_workload


def paging_handler(fault, executor):
    """Demand-page handler: map the faulting word with a sentinel."""
    if fault.kind is FaultKind.MEMORY and fault.address is not None:
        try:
            executor.memory.map(fault.address, 777)
            return True
        except Exception:
            return False
    return False


def recovery_program() -> VLIWProgram:
    """A region with a committed speculative unsafe load that faults,
    so the run passes through recovery mode (RPC/EPC live)."""
    bundles = [
        Bundle((P("li r1, 100"), P("li r2, 3"))),
        Bundle((P("[c0] ld r3, r1, 0"),)),
        Bundle((P("cgt c0, r2, r0"),)),
        Bundle((P("[c0] addi r4, r3.s, 1"), P("[!c0] li r4, 5"))),
        Bundle((P("nop"),)),
        Bundle((P("[c0] jmp OUT"),)),
        Bundle((P("[!c0] jmp OUT"),)),
        Bundle((P("out r4"),)),
        Bundle((P("halt"),)),
    ]
    return VLIWProgram(
        bundles=bundles,
        labels={"R0": 0, "OUT": 7},
        regions=[RegionSpan("R0", 0, 7), RegionSpan("OUT", 7, 9)],
    )


def fresh_machine(sink=None, tracer=None) -> VLIWMachine:
    return VLIWMachine(
        recovery_program(),
        base_machine(),
        Memory(mapped_only=True),
        fault_handler=paging_handler,
        sink=sink if sink is not None else CounterSink(),
        tracer=tracer,
    )


def result_fields(result) -> dict:
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
    }
    return {
        name: value.state_dict() if isinstance(value, Memory) else value
        for name, value in fields.items()
    }


class TestVliwEveryBoundary:
    def test_checkpoint_restore_continue_is_bit_identical(self):
        baseline_sink = CounterSink()
        baseline = fresh_machine(baseline_sink).run()
        assert baseline.output == [778]
        assert baseline.recoveries == 1

        saw_recovery_mode = False
        boundary = 0
        while True:
            boundary += 1
            machine = fresh_machine()
            steps = 0
            while steps < boundary and machine.step():
                steps += 1
            if machine.halted:
                break
            document = snapshot_vliw(machine)
            if document["state"]["mode"] != MachineMode.NORMAL.value:
                saw_recovery_mode = True
            # Round-trip through canonical JSON: exactly what a file
            # write/read does.
            document = json.loads(canonical_dumps(document))
            sink = CounterSink()
            restored = restore_vliw(
                document,
                recovery_program(),
                base_machine(),
                fault_handler=paging_handler,
                sink=sink,
            )
            result = restored.run()
            assert result_fields(result) == result_fields(baseline), (
                f"divergence after restoring at boundary {boundary}"
            )
            assert sink.to_dict() == baseline_sink.to_dict(), (
                f"metrics divergence at boundary {boundary}"
            )
        # The faulting program must actually exercise a mid-recovery
        # snapshot, or the strongest claim here is untested.
        assert saw_recovery_mode

    def test_restored_run_emits_the_trace_suffix(self):
        full_tracer = CycleTraceRecorder("full")
        fresh_machine(tracer=full_tracer).run()

        machine = fresh_machine()
        for _ in range(4):
            assert machine.step()
        document = snapshot_vliw(machine)
        suffix_tracer = CycleTraceRecorder("full")
        restore_vliw(
            document,
            recovery_program(),
            base_machine(),
            fault_handler=paging_handler,
            tracer=suffix_tracer,
        ).run()
        # The restored run's events are exactly the tail of the full
        # run's (metadata preamble aside).
        def payload(events):
            return [e for e in events if e.get("ph") != "M"]

        suffix = payload(suffix_tracer.events)
        assert suffix == payload(full_tracer.events)[-len(suffix):]

    def test_snapshot_refuses_halted_machine(self):
        machine = fresh_machine()
        machine.run()
        with pytest.raises(CheckpointError, match="halted"):
            snapshot_vliw(machine)


SCALAR_SOURCE = """
    li r1, 100
    li r2, 0
    li r3, 5
    li r5, 1
LOOP:
    ld r4, r1, 0
    add r2, r2, r4
    addi r1, r1, 1
    sub r3, r3, r5
    cgt c0, r3, r0
    br c0, LOOP
    out r2
    halt
"""


#: One shared parse: instruction uids are process-local, so the
#: baseline, checkpointed, and restored runs must agree on the program
#: object for exact trace equality (a re-parsed but textually identical
#: program restores a self-consistent trace with its own uids).
SCALAR_PROGRAM = parse_program(SCALAR_SOURCE, name="scalar-ckpt")
SCALAR_CFG = build_cfg(SCALAR_PROGRAM)


def fresh_interpreter(sink=None):
    return Interpreter(
        SCALAR_PROGRAM,
        Memory(mapped_only=True),
        cfg=SCALAR_CFG,
        fault_handler=paging_handler,
        sink=sink if sink is not None else CounterSink(),
    )


class TestInterpreterEveryBoundary:
    def test_checkpoint_restore_continue_is_bit_identical(self):
        baseline_sink = CounterSink()
        interp = fresh_interpreter(baseline_sink)
        baseline = interp.run()
        assert baseline.output == [777 * 5]
        assert baseline.handled_faults == 5

        boundary = 0
        while True:
            boundary += 1
            interp = fresh_interpreter()
            steps = 0
            while steps < boundary and interp.step():
                steps += 1
            if interp.halted:
                break
            document = json.loads(canonical_dumps(snapshot_interpreter(interp)))
            sink = CounterSink()
            restored = restore_interpreter(
                document,
                SCALAR_PROGRAM,
                cfg=SCALAR_CFG,
                fault_handler=paging_handler,
                sink=sink,
            )
            result = restored.run()
            assert result.output == baseline.output
            assert result.registers == baseline.registers
            assert result.steps == baseline.steps
            assert result.scalar_cycles == baseline.scalar_cycles
            assert result.handled_faults == baseline.handled_faults
            assert result.memory.snapshot() == baseline.memory.snapshot()
            # The dynamic trace (branch events + block walk) must also
            # splice seamlessly: downstream profiling reads it.
            assert result.trace.blocks == baseline.trace.blocks
            assert result.trace.branches == baseline.trace.branches
            assert (
                result.trace.instruction_count
                == baseline.trace.instruction_count
            )
            assert sink.to_dict() == baseline_sink.to_dict()
        assert boundary > 10  # the loop actually exercised many boundaries

    def test_restore_under_reparsed_program_is_self_consistent(self):
        """Cross-process restore re-parses the program, which assigns
        fresh instruction uids; the restored trace must use *those* (not
        the snapshot-side uids) so prefix and suffix events agree."""
        interp = fresh_interpreter()
        for _ in range(12):
            assert interp.step()
        document = snapshot_interpreter(interp)
        program = parse_program(SCALAR_SOURCE, name="scalar-ckpt")
        restored = restore_interpreter(
            document, program, cfg=build_cfg(program),
            fault_handler=paging_handler,
        )
        result = restored.run()
        own_uids = {ins.uid for ins in program.instructions}
        assert {event.uid for event in result.trace.branches} <= own_uids
        baseline = fresh_interpreter().run()
        old_index = {
            ins.uid: i for i, ins in enumerate(SCALAR_PROGRAM.instructions)
        }
        new_index = {ins.uid: i for i, ins in enumerate(program.instructions)}
        assert [
            (e.block, new_index[e.uid], e.taken)
            for e in result.trace.branches
        ] == [
            (e.block, old_index[e.uid], e.taken)
            for e in baseline.trace.branches
        ]

    def test_snapshot_refuses_halted_interpreter(self):
        interp = fresh_interpreter()
        interp.run()
        with pytest.raises(CheckpointError, match="halted"):
            snapshot_interpreter(interp)

    def test_mid_block_snapshot_before_a_branch_splices_the_trace(self):
        """A snapshot does not carry the block the interpreter is in, so
        the block a branch reports must come from the pc alone: restore
        one step before a conditional branch that is not the first
        instruction of its block, and the spliced trace must equal the
        uninterrupted one."""
        workload = get_workload("grep")
        program, cfg = workload.program, build_cfg(workload.program)
        starts = set(cfg.start_of.values())
        baseline = Interpreter(program, workload.eval_memory(), cfg=cfg).run()

        interp = Interpreter(program, workload.eval_memory(), cfg=cfg)
        while not (
            program.instructions[interp.pc].is_conditional_branch
            and interp.pc not in starts
            and interp.steps > 100
        ):
            assert interp.step()
        document = json.loads(canonical_dumps(snapshot_interpreter(interp)))
        restored = restore_interpreter(document, program, cfg=cfg)
        result = restored.run()

        assert result.trace.blocks == baseline.trace.blocks
        assert result.trace.branches == baseline.trace.branches
        assert result.output == baseline.output
        assert result.steps == baseline.steps
        assert result.scalar_cycles == baseline.scalar_cycles
