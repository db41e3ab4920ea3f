"""The predicating VLIW machine (Figure 1), cycle by cycle.

Each cycle proceeds in the order the paper's Table 1 walkthrough implies:

1. **Commit tick** -- the per-entry hardware of the predicated register
   file and store buffer re-evaluates every buffered predicate against the
   CCR (whose conditions were updated at the end of the previous cycle)
   and commits or squashes buffered state.  Valid non-speculative store
   buffer heads retire to the D-cache.
2. **Issue** -- the bundle at PC issues.  The control path evaluates each
   operation's predicate: TRUE executes non-speculatively, FALSE squashes
   at issue, UNSPEC executes speculatively (results are routed to the
   speculative state at writeback).  Control transfers must be specified
   at issue.
3. **End of cycle** -- condition-set results update the CCR; then the
   *combinational* exception check runs: if any buffered E flag's
   predicate became TRUE, the CCR update is suppressed (the new value goes
   to the future CCR), all speculative state is invalidated, and the
   machine rolls back to the RPC in recovery mode (Section 3.5).
   Otherwise due writebacks are applied (each re-evaluating its predicate:
   TRUE to the sequential state, UNSPEC to the shadow, FALSE discarded)
   and a taken transfer updates PC, resets the CCR and records the RPC.

**Recovery mode** issues the same bundles from the RPC, squashing every
instruction whose predicate is decided (TRUE or FALSE) by the *current
condition* held in the CCR, and re-executing the rest speculatively.  A
fault re-raised during recovery is decided against the *future condition*:
TRUE invokes the fault handler (which repairs state; the access then
retries), FALSE is ignored, UNSPEC is buffered again.  Recovery ends after
re-issuing the commit-point bundle (EPC); the future condition is then
copied into the CCR and normal execution resumes at EPC+1.

Every verdict -- at issue, at writeback, in the commit tick and in the
exception-commit scan -- is the paper's masked vector match on int bit
masks (:mod:`repro.core.ccr`): UNSPEC when ``care & ~known``, else FALSE
when ``(bits ^ want) & care``, else TRUE.  The program is decoded once,
at construction, into the per-op records the scalar interpreter also
runs (:class:`~repro.isa.decode.DecodedOp`), and the text the observers
print per bundle is rendered then too.

Two deliberate timing simplifications, both documented in DESIGN.md:

* a *faulting* speculative operation buffers its E flag at the end of its
  issue cycle rather than after its full latency, so exception commits are
  always detected by the combinational check (faults are rare; this does
  not perturb the non-faulting timing the evaluation measures);
* at a recovery trigger or region transfer, in-flight results whose
  predicate is TRUE under the pre-trigger CCR complete immediately, and
  the remainder are discarded.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.ccr import CCR
from repro.core.exceptions import (
    FaultKind,
    FaultRecord,
    MachineMode,
    ScheduleViolation,
    UnhandledFault,
)
from repro.core.predicate import ALWAYS, PredValue, Predicate
from repro.core.regfile import CommitEvents, PredicatedRegisterFile
from repro.core.store_buffer import PredicatedStoreBuffer
from repro.isa.decode import (
    ALU, BR, BR2, COND, HALT, JUMP, LOAD, NOP, OUT, STORE, DecodedOp,
)
from repro.isa.printer import format_instruction
from repro.isa.registers import NUM_REGS
from repro.isa.semantics import ArithmeticFault, effective_address, to_i64
from repro.machine.btb import BranchTargetBuffer
from repro.machine.config import MachineConfig, bundle_violation
from repro.machine.program import VLIWProgram
from repro.obs.diagnostics import (
    SNAPSHOT_BUNDLES,
    IssuedBundle,
    MachineAbort,
    MachineSnapshot,
    ProgramOverrun,
    StoreBufferDeadlock,
)
from repro.obs.effects import EffectStream
from repro.obs.flight import NULL_RECORDER, FlightRecorder
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.obs.trace_events import CycleTraceRecorder
from repro.sim.memory import Memory, MemoryFault
from repro.taint.tags import TaintTag, merge_taint, rekind_address
from repro.taint.track import NULL_TAINT, TaintTracker

FaultHandler = Callable[[FaultRecord, "VLIWMachine"], bool]

DEFAULT_MAX_CYCLES = 50_000_000
_MAX_CONSECUTIVE_STALLS = 1_000

@dataclass(slots=True)
class _InFlight:
    """A result waiting for its writeback cycle.

    A faulting speculative access flies with its E flag attached so the
    writeback lands in the shadow regfile at the same cycle a clean
    access would -- landing it early would let an earlier-in-program-order
    write from the same bundle supersede it in the wrong direction.
    """

    due_cycle: int
    reg: int
    value: int
    pred: Predicate
    fault: FaultRecord | None = None
    taint: frozenset[TaintTag] | None = None


@dataclass
class CycleEvents:
    """What one cycle did -- the rows of the paper's Table 1."""

    cycle: int
    sequential_writes: list[int] = field(default_factory=list)
    speculative_writes: list[tuple[str, str]] = field(default_factory=list)
    committed: list[str] = field(default_factory=list)
    squashed: list[str] = field(default_factory=list)
    ccr_sets: list[tuple[int, bool]] = field(default_factory=list)


@dataclass
class VLIWResult:
    """Architectural outcome of one VLIW run."""

    output: list[int]
    registers: tuple[int, ...]
    memory: Memory
    cycles: int
    bundles_issued: int
    _issued_ops: int
    recoveries: int
    handled_faults: int
    squashed_ops: int
    speculative_ops: int

    @property
    def architectural_output(self) -> tuple[int, ...]:
        return tuple(self.output)


class VLIWMachine:
    """In-order N-issue machine with predicated state buffering."""

    def __init__(
        self,
        program: VLIWProgram,
        config: MachineConfig,
        memory: Memory | None = None,
        *,
        fault_handler: FaultHandler | None = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        record_events: bool = False,
        sink: MetricsSink = NULL_SINK,
        tracer: CycleTraceRecorder | None = None,
        flight: FlightRecorder = NULL_RECORDER,
        effects: EffectStream | None = None,
        taint: TaintTracker = NULL_TAINT,
    ):
        program.validate()
        self.program = program
        self.config = config
        self.memory = memory if memory is not None else Memory()
        self.fault_handler = fault_handler
        self.max_cycles = max_cycles
        self.sink = sink
        self.tracer = tracer
        self.flight = flight
        self.effects = effects
        self.taint = taint

        self.ccr = CCR(config.ccr_entries)
        self.regfile = PredicatedRegisterFile(
            NUM_REGS, shadow_capacity=config.shadow_capacity, sink=sink
        )
        self.store_buffer = PredicatedStoreBuffer(
            config.store_buffer_capacity, sink=sink
        )
        self.output: list[int] = []

        self.pc = 0
        self.rpc = 0
        self.cycle = 0
        self.mode = MachineMode.NORMAL
        self.future_ccr: CCR | None = None
        self.epc: int | None = None

        self._in_flight: list[_InFlight] = []
        self._region_starts = program.region_starts()
        # Conservative "might a speculative fault be buffered?" flag.
        # Faults are rare; ``_exception_commits`` short-circuits on this
        # and re-scans (self-clearing it) only while it is raised.  Any
        # code that plants an E flag outside the machine's own buffering
        # paths (e.g. the fault injector) must raise it again.
        self._maybe_fault = True
        self._btb = (
            BranchTargetBuffer(config.btb_entries, sink=sink)
            if config.btb_entries is not None
            else None
        )

        # Observability.  ``_observing`` guards every hot-path hook so a
        # NullSink run with no tracer pays one boolean test per site;
        # ``_forensics`` does the same for the flight recorder and the
        # committed-effect stream.
        self._observing = sink.enabled or tracer is not None
        self._forensics = flight.enabled or effects is not None
        # Taint follows the same zero-cost convention: one cached bool,
        # one branch per would-be taint site when tracking is off.
        self._taint = taint.enabled
        # Commit-value collection in the regfile tick is opt-in so a
        # forensics-off run never pays the per-commit tuple.
        self.regfile.collect_commit_values = self._forensics
        self._last_issued: deque[tuple[int, int]] = deque(
            maxlen=SNAPSHOT_BUNDLES
        )
        if self._observing or self._forensics or self._taint:
            self._region_of_bundle = [0] * len(program.bundles)
            for index, span in enumerate(program.regions):
                for bundle in range(span.start, span.end):
                    self._region_of_bundle[bundle] = index
            # Indexed by pc, with one slot past the end: recovery exit
            # and the last bundle's fall-through leave pc there.
            self._region_names: list[str | None] = [
                program.regions[index].label
                for index in self._region_of_bundle
            ] + [None]
        if self._observing:
            self._current_region: int | None = None
            self._region_entry_cycle = 0
            self._recovery_entry_cycle: int | None = None

        # Optional per-cycle event log (the Table 1 view).
        self.events: list[CycleEvents] = []
        self._cycle_events: CycleEvents | None = None
        self._record_events = record_events

        # Statistics.
        self.bundles_issued = 0
        self.issued_ops = 0
        self.recoveries = 0
        self.handled_faults = 0
        self.squashed_ops = 0
        self.speculative_ops = 0

        # Run-loop state.  Promoted from locals of ``run`` so that a
        # checkpoint between any two :meth:`step` calls captures the
        # complete machine (the consecutive-stall count survives a
        # save/restore mid-stall).
        self._stalls = 0
        self._halted = False
        self._result: VLIWResult | None = None

        self._decode()

    @property
    def btb(self) -> BranchTargetBuffer | None:
        """The finite BTB, when the config models one."""
        return self._btb

    # ------------------------------------------------------------------
    # Decode and static checks.
    # ------------------------------------------------------------------
    def _decode(self) -> None:
        """Decode every bundle once, rejecting oversubscribed schedules.

        Builds the per-bundle :class:`DecodedOp` tuples the issue loop runs,
        the static store-buffer demand of each bundle (so the stall check
        is two comparisons), and -- only when an observer prints ops --
        each bundle's rendered issue text.
        """
        render = self.tracer is not None or self.flight.enabled
        self._bundles: list[tuple[DecodedOp, ...]] = []
        self._bundle_store_ops: list[int] = []
        for index, bundle in enumerate(self.program.bundles):
            problem = bundle_violation(self.config, bundle.ops)
            if problem is not None:
                raise ScheduleViolation(f"bundle {index} {problem}")
            decoded = tuple(DecodedOp(op, render) for op in bundle)
            self._bundles.append(decoded)
            self._bundle_store_ops.append(
                sum(1 for d in decoded if d.kind in (STORE, OUT))
            )
        if render:
            self._issue_text = [
                "; ".join(d.text for d in bundle) for bundle in self._bundles
            ]

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def run(self) -> VLIWResult:
        while self.step():
            pass
        return self.result()

    def step(self) -> bool:
        """Advance the machine by one cycle.

        Returns True while the machine is still running; the first call
        that executes the halting bundle finalizes the run (drains the
        store buffer, closes observation) and returns False, as does any
        call after halt.  ``step`` boundaries are exactly the machine's
        cycle boundaries, which is what makes the checkpoint layer's
        save-anywhere guarantee well-defined.
        """
        if self._halted:
            return False
        if self.cycle >= self.max_cycles:
            raise MachineAbort(
                f"{self.program.name}: exceeded {self.max_cycles} cycles",
                self.snapshot(),
            )
        if self.pc >= len(self._bundles):
            raise ProgramOverrun(
                "ran off the end of the program", self.snapshot()
            )

        self.cycle += 1
        if self._observing:
            self._observe_cycle()
        if self._record_events:
            self._cycle_events = CycleEvents(cycle=self.cycle)
            self.events.append(self._cycle_events)
        self._tick()

        needs_buffer = self._bundle_store_ops[self.pc]
        if needs_buffer and (
            len(self.store_buffer) + needs_buffer > self.store_buffer.capacity
        ):
            self._stalls += 1
            if self._observing:
                self.sink.count("machine.stall_cycles")
            if self._stalls > _MAX_CONSECUTIVE_STALLS:
                raise StoreBufferDeadlock(
                    "store buffer deadlock", self.snapshot()
                )
            self._apply_due_writebacks(self.ccr)
            return True
        self._stalls = 0

        if self._issue_and_finish(self._bundles[self.pc]):
            self._finalize()
            return False
        return True

    @property
    def halted(self) -> bool:
        return self._halted

    def _finalize(self) -> None:
        self._halted = True
        self._drain_at_halt()
        if self._observing:
            self._close_observation()
        self._result = VLIWResult(
            output=list(self.output),
            registers=self.regfile.sequential_snapshot(),
            memory=self.memory,
            cycles=self.cycle,
            bundles_issued=self.bundles_issued,
            _issued_ops=self.issued_ops,
            recoveries=self.recoveries,
            handled_faults=self.handled_faults,
            squashed_ops=self.squashed_ops,
            speculative_ops=self.speculative_ops,
        )

    def result(self) -> VLIWResult:
        """The architectural outcome; only available once halted."""
        if self._result is None:
            raise RuntimeError("machine has not halted yet")
        return self._result

    def _tick(self) -> None:
        # With nothing buffered the commit hardware has no work and
        # nothing to report; only a metrics sink samples idle cycles.
        if not (
            self.regfile.live or len(self.store_buffer) or self._observing
        ):
            return
        rf_events = self.regfile.tick(self.ccr)
        sb_events = self.store_buffer.tick(self.ccr, self.memory, self.output)
        if self._forensics:
            self._forensic_tick(rf_events, sb_events)
        if self._taint and rf_events.committed:
            # Shadow entries confirmed TRUE moved to sequential storage
            # with their taint declassified (the committed value equals
            # sequential execution's); drop any stale sequential taint.
            reg_taint = self.taint.reg_taint
            for reg in rf_events.committed:
                reg_taint.pop(reg, None)
        if self._taint and (rf_events.declassified or sb_events.declassified):
            self.taint.declassify(
                rf_events.declassified + sb_events.declassified
            )
        if self._cycle_events is not None:
            self._cycle_events.committed += [f"r{r}" for r in rf_events.committed]
            self._cycle_events.squashed += [f"r{r}" for r in rf_events.squashed]
            self._cycle_events.committed += [f"sb{s}" for s in sb_events.committed]
            self._cycle_events.squashed += [f"sb{s}" for s in sb_events.squashed]
        if rf_events.detected_faults or sb_events.detected_faults:
            # The combinational end-of-cycle check catches every commit of a
            # buffered E flag before the tick can see it.
            raise AssertionError(
                "exception commit escaped the combinational check"
            )

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def snapshot(self) -> MachineSnapshot:
        """The machine's current state, for abort diagnostics."""
        recent = tuple(
            IssuedBundle(
                cycle=cycle,
                pc=pc,
                ops=tuple(
                    format_instruction(op) for op in self.program.bundles[pc]
                ),
            )
            for cycle, pc in self._last_issued
        )
        return MachineSnapshot(
            cycle=self.cycle,
            pc=self.pc,
            mode=self.mode.value,
            rpc=self.rpc,
            epc=self.epc,
            shadow_occupancy=self.regfile.shadow_occupancy(),
            store_buffer_occupancy=len(self.store_buffer),
            in_flight=len(self._in_flight),
            last_bundles=recent,
        )

    def _region_label(self, region_index: int) -> str:
        return self.program.regions[region_index].label

    def _observe_cycle(self) -> None:
        """Attribute the cycle just charged to the region holding PC."""
        region_index = self._region_of_bundle[self.pc]
        if region_index != self._current_region:
            self._note_region_change(region_index)
        self.sink.count("machine.cycles")
        self.sink.count(f"region.cycles/{self._region_names[self.pc]}")
        if self.mode is MachineMode.RECOVERY:
            self.sink.count("machine.recovery.cycles")

    def _note_region_change(self, region_index: int) -> None:
        if self.tracer is not None and self._current_region is not None:
            self.tracer.span(
                "region",
                self._region_label(self._current_region),
                self._region_entry_cycle,
                self.cycle,
            )
        self._current_region = region_index
        self._region_entry_cycle = self.cycle

    def _observe_issue(self, bundle: tuple[DecodedOp, ...]) -> None:
        label = self._region_names[self.pc]
        self.sink.count("machine.bundles")
        self.sink.count("machine.ops.issued", len(bundle))
        self.sink.count(f"region.bundles/{label}")
        self.sink.count(f"region.ops/{label}", len(bundle))
        self.sink.observe("machine.issue_slots", len(bundle))
        provenance = self.program.provenance
        if provenance is not None:
            for origin in provenance[self.pc]:
                self.sink.count(f"block.ops/B{origin}")

    def _observe_op(
        self, d: DecodedOp, speculative: bool, squashed: bool
    ) -> None:
        if squashed:
            self.sink.count("machine.ops.squashed")
        elif speculative:
            self.sink.count("machine.ops.speculative")
        if self.tracer is not None:
            verdict = "UNSPEC" if speculative else "TRUE"
            self.tracer.op(
                self.cycle,
                d.op.fu.value,
                d.op.opcode,
                duration=1 if squashed else d.latency,
                args={
                    "instr": d.text,
                    "pred": str(d.pred),
                    "verdict": "SQUASHED" if squashed else verdict,
                    "pc": self.pc,
                },
            )

    def _close_observation(self) -> None:
        """Flush open tracer spans at halt."""
        if self.tracer is None:
            return
        if self._current_region is not None:
            self.tracer.span(
                "region",
                self._region_label(self._current_region),
                self._region_entry_cycle,
                self.cycle + 1,
            )
            self._current_region = None
        if self._recovery_entry_cycle is not None:
            self.tracer.span(
                "mode",
                "recovery",
                self._recovery_entry_cycle,
                self.cycle + 1,
            )
            self._recovery_entry_cycle = None

    # ------------------------------------------------------------------
    # Forensics: flight recorder + committed-effect stream.
    #
    # Every call site guards with ``if self._forensics:`` so disabled
    # runs pay one boolean test, mirroring ``_observing``.  Architectural
    # effects are emitted exactly at the paper's commit points: regfile
    # tick commits, non-speculative write-backs, store-buffer retirement
    # and the halt-time drain.
    # ------------------------------------------------------------------
    def _region_name(self) -> str | None:
        return self._region_names[self.pc]

    def _record(self, kind: str, detail: str, pred: str | None = None) -> None:
        """One flight event at the current cycle, pc and region."""
        self.flight.record(
            self.cycle, self.pc, self._region_names[self.pc], kind, detail, pred
        )

    def _forensic_tick(self, rf_events, sb_events) -> None:
        region = self._region_name()
        cycle, pc = self.cycle, self.pc
        flight = self.flight
        effects = self.effects
        if flight.enabled:
            for reg in rf_events.squashed:
                flight.record(cycle, pc, region, "reg.squash", f"r{reg}")
            for serial in sb_events.committed:
                flight.record(cycle, pc, region, "sb.commit", f"entry {serial}")
            for serial in sb_events.squashed:
                flight.record(cycle, pc, region, "sb.squash", f"entry {serial}")
        for reg, value in rf_events.committed_values:
            if flight.enabled:
                flight.record(
                    cycle, pc, region, "reg.commit", f"r{reg} = {value}"
                )
            if effects is not None:
                effects.emit_reg(reg, value, cycle=cycle, pc=pc, region=region)
        for address, value in sb_events.retired_stores:
            if flight.enabled:
                flight.record(
                    cycle, pc, region, "sb.retire", f"mem[{address}] = {value}"
                )
            if effects is not None:
                effects.emit_mem(
                    address, value, cycle=cycle, pc=pc, region=region
                )
        for value in sb_events.retired_outputs:
            if flight.enabled:
                flight.record(cycle, pc, region, "sb.retire", f"out {value}")
            if effects is not None:
                effects.emit_out(value, cycle=cycle, pc=pc, region=region)

    def _forensic_writeback(self, entry: _InFlight, *, shadow: bool) -> None:
        if entry.reg == self.regfile.zero_reg:
            return
        pred = None if entry.pred.is_always else str(entry.pred)
        text = f"r{entry.reg} = {entry.value}"
        if self.flight.enabled:
            self._record("reg.shadow" if shadow else "reg.write", text, pred)
        if not shadow and self.effects is not None:
            self.effects.emit_reg(
                entry.reg,
                entry.value,
                cycle=self.cycle,
                pc=self.pc,
                region=self._region_name(),
                pred=pred,
            )

    def _forensic_fault(self, kind: str, fault: FaultRecord, pred=None) -> None:
        where = fault.address if fault.address is not None else "?"
        pred_text = None if pred is None or pred.is_always else str(pred)
        if self.flight.enabled:
            self._record(kind, f"{fault.kind.value}@{where}", pred_text)
        if kind == "fault.handled" and self.effects is not None:
            self.effects.emit_fault(
                fault.kind.value,
                fault.address if fault.address is not None else -1,
                cycle=self.cycle,
                pc=self.pc,
                region=self._region_name(),
                pred=pred_text,
            )

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------
    def _issue_and_finish(self, bundle: tuple[DecodedOp, ...]) -> bool:
        """Issue *bundle*, run end-of-cycle steps; returns True on halt."""
        self.bundles_issued += 1
        self.issued_ops += len(bundle)
        self._last_issued.append((self.cycle, self.pc))
        observing = self._observing
        if observing:
            self._observe_issue(bundle)
        in_recovery = self.mode is MachineMode.RECOVERY
        if self._forensics and self.flight.enabled:
            mode = "[recovery] " if in_recovery else ""
            self._record("issue", mode + self._issue_text[self.pc])
        pending_ccr: list[tuple[int, bool]] = []
        pending_transfer: str | None = None
        halted = False
        # The control path: the CCR does not change while a bundle issues,
        # so its masks are read once for every slot's verdict.
        unknown, bits = ~self.ccr.known, self.ccr.bits

        for d in bundle:
            kind = d.kind
            care = d.care
            if care & unknown:  # UNSPEC: execute speculatively
                if kind >= BR:
                    raise ScheduleViolation(
                        "control transfer issued with unspecified "
                        f"predicate: {d.op}"
                    )
                if kind == COND:
                    raise ScheduleViolation(
                        f"condition-set issued with unspecified predicate: {d.op}"
                    )
                speculative = True
                self.speculative_ops += 1
            elif in_recovery or (bits ^ d.want) & care:
                # FALSE squashes at issue; recovery squashes everything
                # the current condition decides.
                self.squashed_ops += 1
                if observing:
                    self._observe_op(d, False, squashed=True)
                continue
            else:
                speculative = False
            if observing:
                self._observe_op(d, speculative, squashed=False)

            if kind == ALU:
                try:
                    value = to_i64(d.fn(*self._operands(d)))
                except ArithmeticFault as error:
                    self._alu_fault(d, speculative, error)
                    continue
                self._schedule_writeback(
                    d,
                    value,
                    speculative,
                    taint=self._operand_taint(d) if self._taint else None,
                )
            elif kind == LOAD:
                self._execute_load(d, speculative)
            elif kind == STORE:
                self._execute_store(d, speculative)
            elif kind == OUT:
                self._execute_out(d, speculative)
            elif kind == COND:
                values = self._operands(d)
                if self._taint:
                    taint = self._operand_taint(d)
                    if taint is not None:
                        # Propagation, not (by default) a leak: compiled
                        # condition-sets are re-predicated ``alw`` yet keep
                        # their home path, so they legitimately read shadow
                        # state of unresolved speculative loads.
                        self.taint.ccr_write(
                            d.creg,
                            taint,
                            self.cycle,
                            self.pc,
                            self._region_name(),
                        )
                pending_ccr.append((d.creg, d.fn(*values)))
            elif kind == HALT:
                halted = True
            elif kind != NOP:  # br, brf, br2, jmp
                target = d.target
                if kind != JUMP:
                    condition = self.ccr.get(d.creg)
                    if condition is None:
                        raise ScheduleViolation(
                            f"branch on unspecified condition: {d.op}"
                        )
                    if kind == BR2:
                        target = target[not condition]
                    elif condition is not (kind == BR):
                        continue  # not taken
                if pending_transfer is not None:
                    raise ScheduleViolation("two taken transfers in one bundle")
                pending_transfer = target

        # ---- end of cycle -------------------------------------------------
        # Cloning (and copying back) the CCR is only needed on cycles
        # with condition-set results; on quiet cycles the live register
        # doubles as its own next state.
        if pending_ccr:
            ccr_next = self.ccr.clone()
            for index, value in pending_ccr:
                ccr_next.set(index, value)
                if self._cycle_events is not None:
                    self._cycle_events.ccr_sets.append((index, value))
                if observing:
                    self.sink.count("machine.ccr_sets")
                    if self.tracer is not None:
                        self.tracer.instant(
                            self.cycle, "ccr", f"c{index}={int(value)}"
                        )
                if self._forensics and self.flight.enabled:
                    self._record("ccr.write", f"c{index} = {int(value)}")
        else:
            ccr_next = self.ccr

        if (
            self.mode is MachineMode.NORMAL
            and self._maybe_fault
            and self._exception_commits(ccr_next)
        ):
            # The future CCR must be a private instance even when no
            # condition was set this cycle (CCR-corruption injection can
            # commit an E flag under the *unchanged* register).
            if ccr_next is self.ccr:
                ccr_next = self.ccr.clone()
            self._enter_recovery(ccr_next)
            return False

        if ccr_next is not self.ccr:
            self.ccr.copy_from(ccr_next)
        self._apply_due_writebacks(self.ccr)

        if self.mode is MachineMode.RECOVERY and self.pc == self.epc:
            self._finish_recovery()
            return False

        if halted:
            return True

        if pending_transfer is not None:
            self._transfer(pending_transfer)
        else:
            self.pc += 1
        return False

    def _operands(self, d: DecodedOp) -> list[int]:
        """Source values in operand order, then the immediate.

        A ``.s`` source reads the newest buffered value on a path the
        reader can commit on, falling back to the sequential storage
        (:meth:`PredicatedRegisterFile.read`).
        """
        regfile = self.regfile
        entries = regfile.entries
        values = []
        for reg, shadow in d.srcs:
            entry = entries[reg]
            if shadow and entry.pending:
                values.append(regfile.read(reg, shadow=True, reader_pred=d.pred))
            else:
                values.append(entry.sequential)
        if d.imm is not None:
            values.append(d.imm)
        return values

    def _alu_fault(
        self, d: DecodedOp, speculative: bool, error: ArithmeticFault
    ) -> None:
        self._handle_fault(
            d,
            speculative,
            FaultRecord(
                kind=FaultKind.ARITHMETIC,
                instruction_uid=d.op.uid,
                detail=str(error),
            ),
            retry=lambda: to_i64(d.fn(*self._operands(d))),
        )

    def _execute_out(self, d: DecodedOp, speculative: bool) -> None:
        (value,) = self._operands(d)
        taint = None
        if self._taint:
            taint = self._sink_taint(
                d,
                self._src_taint(d, 0),
                speculative,
                "output",
                f"out {value}",
            )
        serial = self.store_buffer.append(
            None, value, d.pred, speculative=speculative, taint=taint
        )
        if self._forensics and self.flight.enabled:
            self._record(
                "sb.insert",
                f"entry {serial}: out {value}",
                str(d.pred) if speculative else None,
            )

    def _execute_load(self, d: DecodedOp, speculative: bool) -> None:
        base, offset = self._operands(d)
        address = effective_address(base, offset)
        reader_pred = d.pred if speculative else ALWAYS
        forwarded = self.store_buffer.lookup(address, reader_pred)
        if self._forensics and self.flight.enabled:
            outcome = "miss" if forwarded is None else f"hit {forwarded}"
            self._record(
                "sb.lookup",
                f"mem[{address}] {outcome}",
                str(d.pred) if speculative else None,
            )
        if forwarded is None:
            try:
                value = self.memory.load(address)
            except MemoryFault as error:
                self._handle_fault(
                    d,
                    speculative,
                    FaultRecord(
                        kind=FaultKind.MEMORY,
                        instruction_uid=d.op.uid,
                        address=error.address,
                        detail=str(error),
                    ),
                    retry=lambda: self.memory.load(address),
                )
                return
        else:
            value = forwarded
        self._schedule_writeback(
            d,
            value,
            speculative,
            taint=(
                self._load_taint(d, address, reader_pred, speculative)
                if self._taint
                else None
            ),
        )

    def _execute_store(self, d: DecodedOp, speculative: bool) -> None:
        value, base, offset = self._operands(d)
        address = effective_address(base, offset)
        fault: FaultRecord | None = None
        if not self.memory.is_valid(address):
            fault = FaultRecord(
                kind=FaultKind.MEMORY,
                instruction_uid=d.op.uid,
                address=address,
                detail=f"store to invalid address {address}",
            )
            if not speculative:
                self._handle_nonspeculative_fault(d, fault)
                # The handler repaired state; the store proceeds.
                fault = None
            else:
                decision = self._future_verdict(d)
                if decision is PredValue.TRUE:
                    self._handle_nonspeculative_fault(d, fault)
                    fault = None
                elif decision is PredValue.FALSE:
                    fault = None
        if fault is not None:
            self._maybe_fault = True
            if self._forensics:
                self._forensic_fault("fault.buffer", fault, d.pred)
        taint = None
        if self._taint:
            taint = merge_taint(
                self._src_taint(d, 0),
                rekind_address(self._src_taint(d, 1)),
            )
            taint = self._sink_taint(
                d, taint, speculative, "memory", f"mem[{address}] = {value}"
            )
            if taint is not None and not speculative:
                tracker = self.taint
                tracker.mem_taint[address] = merge_taint(
                    tracker.mem_taint.get(address), taint
                )
        serial = self.store_buffer.append(
            address,
            value,
            d.pred,
            speculative=speculative,
            fault=fault,
            taint=taint,
        )
        if self._forensics and self.flight.enabled:
            self._record(
                "sb.insert",
                f"entry {serial}: mem[{address}] = {value}",
                str(d.pred) if speculative else None,
            )
        if self._cycle_events is not None and speculative:
            self._cycle_events.speculative_writes.append(
                (f"sb{serial}", str(d.pred))
            )

    # ------------------------------------------------------------------
    # Faults.
    # ------------------------------------------------------------------
    def _handle_fault(
        self,
        d: DecodedOp,
        speculative: bool,
        fault: FaultRecord,
        retry: Callable[[], int],
    ) -> None:
        """Route a fault: trap now (non-speculative) or buffer the E flag.

        In recovery mode a speculative fault is decided against the future
        condition (Section 3.5): TRUE handles it now (the handler repairs
        state and the access retries), FALSE squashes it, UNSPEC buffers
        the E flag again.
        """
        if not speculative:
            self._handle_nonspeculative_fault(d, fault)
            value = retry()  # the handler repaired state; must now succeed
            self._schedule_writeback(d, value, speculative=False)
            return
        decision = self._future_verdict(d)
        if decision is PredValue.TRUE:
            self._handle_nonspeculative_fault(d, fault)
            value = retry()
            self._schedule_writeback(d, value, speculative=True)
        elif decision is PredValue.FALSE:
            self._schedule_writeback(d, 0, speculative=True)
        else:
            if self._forensics:
                self._forensic_fault("fault.buffer", fault, d.pred)
            self._schedule_writeback(d, 0, speculative=True, fault=fault)

    def _future_verdict(self, d: DecodedOp) -> PredValue:
        """Decide *d*'s fault fate: UNSPEC outside recovery (buffer it)."""
        if self.mode is MachineMode.NORMAL or self.future_ccr is None:
            return PredValue.UNSPEC
        return self.future_ccr.evaluate(d.pred)

    def _handle_nonspeculative_fault(
        self, d: DecodedOp, fault: FaultRecord
    ) -> None:
        if self.fault_handler is None or not self.fault_handler(fault, self):
            if self._forensics:
                self._forensic_fault("fault.unhandled", fault, d.pred)
            raise UnhandledFault(fault)
        self.handled_faults += 1
        if self._observing:
            self.sink.count("machine.faults.handled")
        if self._forensics:
            self._forensic_fault("fault.handled", fault, d.pred)

    # ------------------------------------------------------------------
    # Taint flow.  Every call site is guarded by the cached ``_taint``
    # boolean (the NULL_SINK zero-cost convention), so a taint-off run
    # pays one branch per site and none of these methods execute.
    # ------------------------------------------------------------------
    def _src_taint(
        self, d: DecodedOp, source_number: int
    ) -> frozenset[TaintTag] | None:
        """The taint the matching operand read observed: a shadow hit's
        buffered taint, else the sequential register's tracker taint."""
        reg, shadow = d.srcs[source_number]
        if shadow:
            hit, taint = self.regfile.shadow_taint(reg, d.pred)
            if hit:
                return taint
        return self.taint.reg_taint.get(reg)

    def _operand_taint(self, d: DecodedOp) -> frozenset[TaintTag] | None:
        taint: frozenset[TaintTag] | None = None
        for number in range(len(d.srcs)):
            taint = merge_taint(taint, self._src_taint(d, number))
        return taint

    def _load_taint(
        self,
        d: DecodedOp,
        address: int,
        reader_pred: Predicate,
        speculative: bool,
    ) -> frozenset[TaintTag] | None:
        """Value taint of a load: the forwarded entry's (or committed
        memory's) taint, plus the address operand's taint re-kinded
        ``address``, plus -- for an UNSPEC load -- a fresh source tag
        (this is the E-flag moment the threat model keys on)."""
        hit, taint = self.store_buffer.lookup_taint(address, reader_pred)
        if not hit:
            taint = self.taint.mem_taint.get(address)
        taint = merge_taint(taint, rekind_address(self._src_taint(d, 0)))
        if speculative:
            taint = merge_taint(
                taint,
                self.taint.source(
                    self.cycle, self.pc, self._region_name(), address
                ),
            )
        return taint

    def _sink_taint(
        self,
        d: DecodedOp,
        taint: frozenset[TaintTag] | None,
        speculative: bool,
        kind: str,
        detail: str,
    ) -> frozenset[TaintTag] | None:
        """Police tainted data entering a committed sink (store/out).

        Speculative inserts keep their taint buffered (commit
        declassifies, squash discards).  A non-speculative insert of
        tainted data under the ``alw`` predicate is the leak the
        subsystem exists to catch: unconfirmed speculative data bound
        for architectural state.  A *predicated* op whose verdict was
        already TRUE at issue is architecturally confirmed -- compiled
        code reads shadow state this way routinely -- so it declassifies
        instead.
        """
        if taint is None or speculative:
            return taint
        if d.pred.is_always:
            self.taint.leak(
                kind, self.cycle, self.pc, self._region_name(), detail, taint
            )
            return taint
        self.taint.declassify()
        return None

    def _commit_taint(self, entry: _InFlight) -> None:
        """An in-flight result just TRUE-committed to sequential state."""
        tracker = self.taint
        if entry.taint is None:
            tracker.reg_taint.pop(entry.reg, None)
        elif entry.pred.is_always:
            # An always-predicate consumer committed data that depends
            # on a still-unconfirmed speculative load.  Compiled code is
            # clean by construction here (the dependence graph forces
            # ``alw`` consumers onto committed sequential state), so
            # this fires only for hand-scheduled gadgets.
            tracker.leak(
                "register",
                self.cycle,
                self.pc,
                self._region_name(),
                f"r{entry.reg} = {entry.value}",
                entry.taint,
            )
            tracker.reg_taint[entry.reg] = entry.taint
        else:
            # The entry's own predicate resolved TRUE: architecturally
            # confirmed, so the value equals sequential execution's.
            tracker.declassify()
            tracker.reg_taint.pop(entry.reg, None)

    # ------------------------------------------------------------------
    # Writeback.
    # ------------------------------------------------------------------
    def _schedule_writeback(
        self,
        d: DecodedOp,
        value: int,
        speculative: bool,
        fault: FaultRecord | None = None,
        taint: frozenset[TaintTag] | None = None,
    ) -> None:
        dest = d.dest
        if dest is None:
            return
        if fault is not None:
            self._maybe_fault = True
        if taint is not None and not speculative and d.care:
            # A predicated op whose verdict was TRUE at issue flies with
            # the ALWAYS predicate below, which would defeat the
            # is_always leak test at commit -- declassify here instead
            # (the op's own speculation is already confirmed).
            self.taint.declassify()
            taint = None
        self._in_flight.append(
            _InFlight(
                self.cycle + d.latency - 1,
                dest,
                value,
                d.pred if speculative else ALWAYS,
                fault,
                taint,
            )
        )

    def _apply_due_writebacks(self, ccr: CCR) -> None:
        if not self._in_flight:
            return
        unknown, bits = ~ccr.known, ccr.bits
        still_flying: list[_InFlight] = []
        for entry in self._in_flight:
            if entry.due_cycle > self.cycle:
                still_flying.append(entry)
                continue
            care = entry.pred.care
            if care & unknown:  # UNSPEC: buffer in the shadow
                self.regfile.write_speculative(
                    entry.reg,
                    entry.value,
                    entry.pred,
                    fault=entry.fault,
                    taint=entry.taint,
                )
                if self._cycle_events is not None:
                    self._cycle_events.speculative_writes.append(
                        (f"r{entry.reg}", str(entry.pred))
                    )
                if self._forensics:
                    self._forensic_writeback(entry, shadow=True)
            elif not (bits ^ entry.pred.want) & care:  # TRUE
                if entry.fault is not None:
                    # Unreachable: _exception_commits scans in-flight
                    # faults before any CCR update can make them TRUE.
                    raise AssertionError(
                        "exception commit escaped the combinational check"
                    )
                self._write_back(entry, ccr)
                if self._cycle_events is not None:
                    self._cycle_events.sequential_writes.append(entry.reg)
            # FALSE: discarded.
        self._in_flight = still_flying

    def _flush_in_flight(self) -> None:
        """Complete TRUE-under-current in-flight results; drop the rest."""
        unknown, bits = ~self.ccr.known, self.ccr.bits
        for entry in self._in_flight:
            care = entry.pred.care
            if entry.fault is None and not (
                care & unknown or (bits ^ entry.pred.want) & care
            ):
                self._write_back(entry, self.ccr)
        self._in_flight = []

    def _write_back(self, entry: _InFlight, ccr: CCR) -> None:
        """Move a result whose predicate is TRUE into sequential state."""
        self.regfile.supersede_pending(entry.reg, ccr)
        self.regfile.write_sequential(entry.reg, entry.value)
        if self._taint:
            self._commit_taint(entry)
        if self._forensics:
            self._forensic_writeback(entry, shadow=False)

    # ------------------------------------------------------------------
    # Exception commit and recovery.
    # ------------------------------------------------------------------
    def _exception_commits(self, ccr_next: CCR) -> bool:
        """Would updating the CCR commit any buffered E flag?

        Called only while ``_maybe_fault`` is raised: the flag is raised
        whenever the machine buffers an E flag (or the fault injector
        plants one) and lowered again by a scan that finds no buffered
        fault left, so fault-free execution pays one boolean test per
        cycle.
        """
        unknown, bits = ~ccr_next.known, ccr_next.bits
        buffered = [(f.pred, f.fault) for f in self._in_flight]
        buffered += [(w.pred, w.fault) for _, w in self.regfile.pending_writes()]
        buffered += [
            (e.pred, e.fault)
            for e in self.store_buffer.pending_entries()
            if e.valid and e.speculative
        ]
        fault_seen = False
        for pred, fault in buffered:
            if fault is not None:
                fault_seen = True
                care = pred.care
                if not (care & unknown or (bits ^ pred.want) & care):
                    return True
        if not fault_seen:
            self._maybe_fault = False
        return False

    def _enter_recovery(self, ccr_next: CCR) -> None:
        """Suppress the CCR update and roll back to the region top."""
        self.recoveries += 1
        if self._observing:
            self.sink.count("machine.recovery.entries")
            self._recovery_entry_cycle = self.cycle
        self.future_ccr = ccr_next
        self._flush_in_flight()
        self.regfile.invalidate_speculative()
        self.store_buffer.invalidate_speculative()
        self.epc = self.pc
        self.pc = self.rpc
        self.mode = MachineMode.RECOVERY
        if self._forensics and self.flight.enabled:
            self._record(
                "recovery.enter", f"rollback to rpc={self.rpc}, epc={self.epc}"
            )

    def _finish_recovery(self) -> None:
        assert self.future_ccr is not None
        if self._observing and self._recovery_entry_cycle is not None:
            if self.tracer is not None:
                self.tracer.span(
                    "mode",
                    "recovery",
                    self._recovery_entry_cycle,
                    self.cycle + 1,
                )
            self._recovery_entry_cycle = None
        self._apply_due_writebacks(self.ccr)
        self.ccr.copy_from(self.future_ccr)
        self.future_ccr = None
        self.mode = MachineMode.NORMAL
        self.pc = self.epc + 1
        self.epc = None
        if self._forensics and self.flight.enabled:
            self._record("recovery.exit", f"resume at pc={self.pc}")

    # ------------------------------------------------------------------
    # Transfers and halt.
    # ------------------------------------------------------------------
    def _transfer(self, target: str) -> None:
        destination = self.program.resolve(target)
        self._flush_in_flight()
        if self._forensics and self.flight.enabled:
            kind = (
                "region" if destination in self._region_starts else "local"
            )
            self._record(
                "transfer", f"{kind} -> {target} (pc={destination})"
            )
        if destination in self._region_starts:
            # Region transfer: speculative state is closed in the region --
            # anything still pending belongs to an untaken path.
            self.regfile.invalidate_speculative()
            self.store_buffer.invalidate_speculative()
            self.ccr.reset()
            if self._taint:
                # The CCR reset discards the conditions; their taint
                # goes with them.
                self.taint.clear_ccr()
            self.rpc = destination
        if self._btb is not None and not self._btb.access(self.pc):
            penalty = self.config.taken_penalty_indirect
        else:
            penalty = self.config.taken_penalty_btb
        self.cycle += penalty
        if self._observing and penalty:
            # Boundary convention: transfer-penalty cycles are charged to
            # the *departing* region (PC still points at the source here).
            self.sink.count("machine.cycles", penalty)
            self.sink.count("machine.transfer_penalty_cycles", penalty)
            self.sink.count(
                f"region.cycles/{self._region_names[self.pc]}", penalty
            )
        self.pc = destination

    def _drain_at_halt(self) -> None:
        self._flush_in_flight()
        rf_events = self.regfile.tick(self.ccr)
        sb_events = self.store_buffer.tick(self.ccr, self.memory, self.output)
        if self._forensics:
            self._forensic_tick(rf_events, sb_events)
        self.regfile.invalidate_speculative()
        self.store_buffer.invalidate_speculative()
        drained = self.store_buffer.drain(self.memory, self.output)
        if self._forensics:
            self._forensic_tick(CommitEvents(), drained)
            if self.flight.enabled:
                self._record("halt", "store buffer drained")
