"""The scalar functional interpreter -- this reproduction's *pixie*.

Executes a linear scalar program (every instruction ``alw``-predicated),
decoded once into the :class:`~repro.isa.decode.DecodedOp` records the
VLIW machine also runs, while

* recording the dynamic trace (block sequence + branch outcomes) used by
  every trace-driven cycle counter and by the branch-prediction analysis;
* counting cycles under the R3000-like scalar timing model that is the
  paper's speedup baseline: one cycle per instruction, a one-cycle
  load-use interlock stall, and a one-cycle taken-control-transfer
  penalty.

Faults (NULL/bounds loads, zero divisors) invoke an optional handler
callback; a handler that repairs machine state returns True and the
faulting instruction re-executes -- the same contract the predicating
machine's recovery mode uses, so scalar and speculative executions of a
faulting program remain comparable.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.exceptions import FaultKind, FaultRecord, UnhandledFault
from repro.ir.cfg import CFG
from repro.isa.decode import (
    ALU, BR, BRF, COND, HALT, JUMP, LOAD, OUT, STORE, DecodedOp,
)
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.isa.registers import NUM_CREGS, NUM_REGS, ZERO_REG
from repro.isa.semantics import ArithmeticFault, effective_address, to_i64
from repro.obs.diagnostics import InterpreterSnapshot
from repro.obs.effects import EffectStream
from repro.obs.flight import NULL_RECORDER, FlightRecorder
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.sim.memory import Memory, MemoryFault
from repro.sim.trace import DynamicTrace
from repro.taint.tags import merge_taint, rekind_address
from repro.taint.track import NULL_TAINT, TaintTracker

FaultHandler = Callable[[FaultRecord, "Interpreter"], bool]

DEFAULT_MAX_STEPS = 20_000_000

#: CFG blocks the interpreter remembers for the livelock snapshot.
RECENT_BLOCKS = 8


class StepLimitExceeded(RuntimeError):
    """The program ran past the configured step budget (likely livelock).

    Carries a :class:`~repro.obs.diagnostics.InterpreterSnapshot`
    (where the interpreter was spinning) and the partial
    :class:`InterpreterResult` accumulated so far, so a livelocked fuzz
    case or workload is debuggable from the exception alone.
    """

    def __init__(
        self,
        message: str,
        snapshot: InterpreterSnapshot | None = None,
        partial: "InterpreterResult | None" = None,
    ):
        if snapshot is not None:
            message = f"{message}\n{snapshot.describe()}"
        super().__init__(message)
        self.snapshot = snapshot
        self.partial = partial


@dataclass
class InterpreterResult:
    """Everything one scalar run produced."""

    output: list[int]
    registers: tuple[int, ...]
    memory: Memory
    steps: int
    scalar_cycles: int
    trace: DynamicTrace | None
    handled_faults: int
    halted: bool = True

    @property
    def architectural_output(self) -> tuple[int, ...]:
        """The observable output stream (the scalar/VLIW comparison key)."""
        return tuple(self.output)


class Interpreter:
    """Step-at-a-time scalar executor with trace and timing observers."""

    def __init__(
        self,
        program: Program,
        memory: Memory | None = None,
        *,
        cfg: CFG | None = None,
        fault_handler: FaultHandler | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        sink: MetricsSink = NULL_SINK,
        flight: FlightRecorder = NULL_RECORDER,
        effects: EffectStream | None = None,
        taint: TaintTracker = NULL_TAINT,
    ):
        program.validate()
        for instruction in program.instructions:
            if not instruction.pred.is_always:
                raise ValueError(
                    "the scalar interpreter only executes unpredicated code: "
                    f"{instruction}"
                )
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.fault_handler = fault_handler
        self.max_steps = max_steps
        self.sink = sink
        # Forensics: the scalar side emits every architectural effect
        # directly at execution -- there is no speculative state to
        # commit, so the effect stream *is* the instruction stream's
        # architectural footprint.  Guarded like ``sink.enabled``.
        self.flight = flight
        self.effects = effects
        self._forensics = flight.enabled or effects is not None
        # Information flow: the scalar model has no speculation, so the
        # only sources are taints seeded by a campaign or test; every
        # architectural write is an immediate commit, hence an immediate
        # sink check.  Guarded by one cached boolean like forensics.
        self.taint = taint
        self._taint = taint.enabled
        self._current_block: int | None = None
        self.registers = [0] * NUM_REGS
        self.cregs = [False] * NUM_CREGS
        self.output: list[int] = []
        self.pc = 0
        self.steps = 0
        self.scalar_cycles = 0
        self.handled_faults = 0
        self._last_load_dest: int | None = None
        self._recent_blocks: deque[int] = deque(maxlen=RECENT_BLOCKS)
        # Run-loop state, promoted to fields so execution can pause and
        # resume at any step boundary (the checkpoint layer's contract).
        self._started = False
        self._halted = False

        self.trace = DynamicTrace() if cfg is not None else None
        self._decode(cfg)

    def _decode(self, cfg: CFG | None) -> None:
        """Decode the program once and resolve every per-pc fact.

        Builds the :class:`~repro.isa.decode.DecodedOp` per pc (with its
        issue text only when a flight recorder prints it), each control
        transfer's target pc, the original-CFG block starting at each pc
        (one past the end too: a run can fall off it), and the block a
        branch at each pc reports -- the nearest block start at or
        before it.  None of it depends on run state, so a restored
        snapshot resolves the same blocks as the uninterrupted run.
        """
        program = self.program
        count = len(program.instructions)
        self._ops = [
            DecodedOp(op, self.flight.enabled) for op in program.instructions
        ]
        self._target_pc = [
            None if d.target is None else program.labels[d.target]
            for d in self._ops
        ]
        self._block_at: list[int | None] = [None] * (count + 1)
        for bid, index in getattr(cfg, "start_of", {}).items():
            if index <= count:
                self._block_at[index] = bid
        self._branch_block: list[int] = []
        block = -1
        for start in self._block_at[:count]:
            block = block if start is None else start
            self._branch_block.append(block)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run(self) -> InterpreterResult:
        """Run to ``halt``; returns the collected result."""
        while self.step():
            pass
        return self._result(halted=self._halted)

    @property
    def halted(self) -> bool:
        return self._halted

    def result(self) -> InterpreterResult:
        """The collected result of the run so far."""
        return self._result(halted=self._halted)

    def step(self) -> bool:
        """Execute one instruction.

        Returns True while the program is still running; executing the
        ``halt`` instruction (or falling off the end) returns False.
        Step boundaries are the interpreter's checkpointable states.
        """
        if not self._started:
            self._started = True
            self._note_block_entry(self.pc)
        if self._halted or self.pc >= len(self._ops):
            return False
        if self.steps >= self.max_steps:
            raise StepLimitExceeded(
                f"{self.program.name}: exceeded {self.max_steps} steps",
                snapshot=self.snapshot(),
                partial=self._result(halted=False),
            )
        pc = self.pc
        d = self._ops[pc]
        kind = d.kind
        self.steps += 1
        self.scalar_cycles += 1
        if kind == HALT:
            self._halted = True
            return False
        if self._forensics and self.flight.enabled:
            self.flight.record(
                self.scalar_cycles, pc, self._region_name(), "issue", d.text
            )
        observing = self.sink.enabled
        if observing:
            self.sink.count("scalar.instructions")
            self.sink.count("scalar.cycles")
        last_load_dest = self._last_load_dest
        if last_load_dest is not None and last_load_dest in d.regs:
            self.scalar_cycles += 1  # load-use interlock stall
            if observing:
                self.sink.count("scalar.cycles")
                self.sink.count("scalar.load_use_stalls")
        next_load_dest: int | None = None

        # r0 reads as zero because no write ever reaches registers[0].
        registers = self.registers
        taken_transfer = False
        next_pc = pc + 1

        try:
            if kind == ALU or kind == COND:
                # Register sources in operand order, then the immediate:
                # at most two values, and never two registers and an imm.
                regs = d.regs
                if len(regs) == 2:
                    value = d.fn(registers[regs[0]], registers[regs[1]])
                elif d.imm is None:
                    value = d.fn(registers[regs[0]])
                elif regs:
                    value = d.fn(registers[regs[0]], d.imm)
                else:
                    value = d.fn(d.imm)
                if kind == ALU:
                    value = to_i64(value)
                    if d.dest:
                        registers[d.dest] = value
                    if self._taint:
                        self._set_reg_taint(d.dest, self._union_reg_taint(regs))
                    if self._forensics:
                        self._forensic_reg(d.dest, value)
                else:
                    self.cregs[d.creg] = value
                    if self._taint:
                        operand = self._union_reg_taint(regs)
                        if operand is not None:
                            self.taint.ccr_write(
                                d.creg,
                                operand,
                                self.scalar_cycles,
                                pc,
                                self._region_name(),
                            )
                        else:
                            self.taint.ccr_taint.pop(d.creg, None)
                    if self._forensics and self.flight.enabled:
                        self.flight.record(
                            self.scalar_cycles,
                            pc,
                            self._region_name(),
                            "ccr.write",
                            f"c{d.creg} = {int(value)}",
                        )
            elif kind == BR or kind == BRF:
                condition = self.cregs[d.creg]
                taken = condition if kind == BR else not condition
                if self.trace is not None:
                    self.trace.record_branch(
                        self._branch_block[pc], d.op.uid, taken
                    )
                if taken:
                    next_pc = self._target_pc[pc]
                    taken_transfer = True
            elif kind == LOAD:
                base = d.regs[0]
                address = effective_address(registers[base], d.imm)
                value = self.memory.load(address)
                if d.dest:
                    registers[d.dest] = value
                if self._taint:
                    loaded = merge_taint(
                        self.taint.mem_taint.get(address),
                        rekind_address(self.taint.reg_taint.get(base)),
                    )
                    self._set_reg_taint(d.dest, loaded)
                if self._forensics:
                    self._forensic_reg(d.dest, value)
                next_load_dest = d.dest
            elif kind == STORE:
                value_reg, addr_reg = d.regs
                address = effective_address(registers[addr_reg], d.imm)
                value = registers[value_reg]
                self.memory.store(address, value)
                if self._taint:
                    stored = merge_taint(
                        self.taint.reg_taint.get(value_reg),
                        rekind_address(self.taint.reg_taint.get(addr_reg)),
                    )
                    if stored is not None:
                        self.taint.leak(
                            "memory",
                            self.scalar_cycles,
                            pc,
                            self._region_name(),
                            f"mem[{address}] = {value}",
                            stored,
                        )
                        self.taint.mem_taint[address] = merge_taint(
                            self.taint.mem_taint.get(address), stored
                        )
                    else:
                        self.taint.mem_taint.pop(address, None)
                if self._forensics:
                    self._forensic_mem(address, value)
            elif kind == JUMP:
                next_pc = self._target_pc[pc]
                taken_transfer = True
            elif kind == OUT:
                value = registers[d.regs[0]]
                self.output.append(value)
                if self._taint:
                    emitted = self.taint.reg_taint.get(d.regs[0])
                    if emitted is not None:
                        self.taint.leak(
                            "output",
                            self.scalar_cycles,
                            pc,
                            self._region_name(),
                            f"out {value}",
                            emitted,
                        )
                if self._forensics:
                    self._forensic_out(value)
        except (MemoryFault, ArithmeticFault) as error:
            fault = _fault_record(error, d.op)
            if self.fault_handler is None or not self.fault_handler(fault, self):
                if self._forensics:
                    self._forensic_fault("fault.unhandled", fault)
                raise UnhandledFault(fault) from error
            self.handled_faults += 1
            if observing:
                self.sink.count("scalar.faults.handled")
            if self._forensics:
                self._forensic_fault("fault.handled", fault)
            return True  # re-execute the repaired instruction; pc unchanged

        if taken_transfer:
            self.scalar_cycles += 1  # taken-transfer penalty
            if observing:
                self.sink.count("scalar.cycles")
                self.sink.count("scalar.taken_transfers")
            if self._forensics and self.flight.enabled:
                self.flight.record(
                    self.scalar_cycles,
                    pc,
                    self._region_name(),
                    "transfer",
                    f"-> pc={next_pc}",
                )
        self._last_load_dest = next_load_dest
        self.pc = next_pc
        if self._block_at[next_pc] is not None:
            self._note_block_entry(next_pc)
        return next_pc < len(self._ops)

    # ------------------------------------------------------------------
    # Taint plumbing (guarded by ``self._taint`` at every call site).
    # ------------------------------------------------------------------
    def _set_reg_taint(self, reg, taint) -> None:
        """Overwrite a register's taint; a clean write scrubs old taint
        (the register now holds untainted data).  r0 stays clean."""
        if reg == ZERO_REG:
            return
        if taint is None:
            self.taint.reg_taint.pop(reg, None)
        else:
            self.taint.reg_taint[reg] = taint

    def _union_reg_taint(self, regs):
        """The merged taint of a source-register tuple (None if clean)."""
        taint = None
        for reg in regs:
            taint = merge_taint(taint, self.taint.reg_taint.get(reg))
        return taint

    # ------------------------------------------------------------------
    # Trace bookkeeping.
    # ------------------------------------------------------------------
    def _note_block_entry(self, index: int) -> None:
        block = self._block_at[index]
        if block is not None:
            self._current_block = block
            self._recent_blocks.append(block)
            if self.trace is not None:
                self.trace.record_block(block)

    # ------------------------------------------------------------------
    # Forensics (guarded by ``self._forensics`` at every call site).
    # ------------------------------------------------------------------
    def _region_name(self) -> str | None:
        if self._current_block is None:
            return None
        return f"B{self._current_block}"

    def _forensic_reg(self, reg: int, value: int) -> None:
        if reg == ZERO_REG:
            return
        region = self._region_name()
        if self.flight.enabled:
            self.flight.record(
                self.scalar_cycles, self.pc, region, "reg.write", f"r{reg} = {value}"
            )
        if self.effects is not None:
            self.effects.emit_reg(
                reg, value, cycle=self.scalar_cycles, pc=self.pc, region=region
            )

    def _forensic_mem(self, address: int, value: int) -> None:
        region = self._region_name()
        if self.flight.enabled:
            self.flight.record(
                self.scalar_cycles,
                self.pc,
                region,
                "mem.store",
                f"mem[{address}] = {value}",
            )
        if self.effects is not None:
            self.effects.emit_mem(
                address, value, cycle=self.scalar_cycles, pc=self.pc, region=region
            )

    def _forensic_out(self, value: int) -> None:
        region = self._region_name()
        if self.flight.enabled:
            self.flight.record(
                self.scalar_cycles, self.pc, region, "out", f"out {value}"
            )
        if self.effects is not None:
            self.effects.emit_out(
                value, cycle=self.scalar_cycles, pc=self.pc, region=region
            )

    def _forensic_fault(self, kind: str, fault: FaultRecord) -> None:
        region = self._region_name()
        where = fault.address if fault.address is not None else "?"
        if self.flight.enabled:
            self.flight.record(
                self.scalar_cycles,
                self.pc,
                region,
                kind,
                f"{fault.kind.value}@{where}",
            )
        if kind == "fault.handled" and self.effects is not None:
            self.effects.emit_fault(
                fault.kind.value,
                fault.address if fault.address is not None else -1,
                cycle=self.scalar_cycles,
                pc=self.pc,
                region=region,
            )

    def snapshot(self) -> InterpreterSnapshot:
        """Where the interpreter is right now (block path needs a CFG)."""
        return InterpreterSnapshot(
            pc=self.pc,
            steps=self.steps,
            scalar_cycles=self.scalar_cycles,
            recent_blocks=tuple(self._recent_blocks),
        )

    def _result(self, halted: bool) -> InterpreterResult:
        if self.trace is not None:
            self.trace.instruction_count = self.steps
        return InterpreterResult(
            output=list(self.output),
            registers=tuple(self.registers),
            memory=self.memory,
            steps=self.steps,
            scalar_cycles=self.scalar_cycles,
            trace=self.trace,
            handled_faults=self.handled_faults,
            halted=halted,
        )


def _fault_record(error: Exception, instruction: Instruction) -> FaultRecord:
    if isinstance(error, MemoryFault):
        return FaultRecord(
            kind=FaultKind.MEMORY,
            instruction_uid=instruction.uid,
            address=error.address,
            detail=str(error),
        )
    return FaultRecord(
        kind=FaultKind.ARITHMETIC,
        instruction_uid=instruction.uid,
        detail=str(error),
    )


def run_program(
    program: Program,
    memory: Memory | None = None,
    *,
    cfg: CFG | None = None,
    fault_handler: FaultHandler | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    sink: MetricsSink = NULL_SINK,
    flight: FlightRecorder = NULL_RECORDER,
    effects: EffectStream | None = None,
    taint: TaintTracker = NULL_TAINT,
) -> InterpreterResult:
    """Convenience wrapper: construct an :class:`Interpreter` and run it."""
    interpreter = Interpreter(
        program,
        memory,
        cfg=cfg,
        fault_handler=fault_handler,
        max_steps=max_steps,
        sink=sink,
        flight=flight,
        effects=effects,
        taint=taint,
    )
    return interpreter.run()
