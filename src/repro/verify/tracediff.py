"""Lockstep divergence forensics: effect streams + flight windows.

Where :mod:`repro.verify.oracle` answers *whether* the machine matches
the scalar golden model, ``run_diff_trace`` answers *where it first went
wrong*.  Both sides run fully instrumented -- a committed-effect stream
(:mod:`repro.obs.effects`) and a bounded flight recorder
(:mod:`repro.obs.flight`) each -- then the streams are aligned under the
schedule-invariant comparison rules and the first divergent
architectural effect is reported together with a +/-K-event
flight-recorder window from each side.

The result serializes to a versioned ``repro-tracediff/v1`` artifact,
and ``--trace-out`` merges the machine's Perfetto cycle trace (pid 1)
with a synthesized scalar timeline (pid 2) into one trace for visual
diffing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.compiler.policy import ModelPolicy
from repro.core.exceptions import ScheduleViolation, UnhandledFault
from repro.isa.program import Program
from repro.machine.config import MachineConfig
from repro.machine.vliw import VLIWMachine
from repro.obs.diagnostics import MachineAbort
from repro.obs.effects import EffectDivergence, EffectStream, first_divergence
from repro.obs.flight import DEFAULT_CAPACITY, FlightEvent, RingRecorder
from repro.obs.trace_events import CycleTraceRecorder
from repro.sim.interpreter import Interpreter, StepLimitExceeded
from repro.sim.memory import Memory
from repro.verify.oracle import DEFAULT_MAX_CYCLES, DEFAULT_MAX_STEPS, prepare

#: Envelope identifier for the diff-trace artifact; bump on layout changes.
TRACEDIFF_SCHEMA = "repro-tracediff/v1"

#: Default +/-K flight-recorder window around the divergent effect.
DEFAULT_WINDOW = 8

#: Trailing effects included in the artifact for context.
_EFFECT_TAIL = 16


@dataclass
class SideRun:
    """One instrumented execution (scalar golden model or VLIW machine)."""

    name: str
    effects: EffectStream
    flight: RingRecorder
    cycles: int | None = None
    error: str | None = None
    unhandled: tuple[str, int | None] | None = None  # (kind, address)
    registers: dict[int, int] | None = None
    handled_faults: int = 0

    @classmethod
    def recording(cls, name: str, flight_capacity: int) -> "SideRun":
        """A side with a fresh flight recorder feeding its effect stream."""
        flight = RingRecorder(flight_capacity, source=name)
        return cls(name=name, effects=EffectStream(name, flight), flight=flight)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cycles": self.cycles,
            "error": self.error,
            "unhandled_fault": (
                list(self.unhandled) if self.unhandled is not None else None
            ),
            "handled_faults": self.handled_faults,
            "effect_count": len(self.effects),
            "flight_recorded": self.flight.seq,
            "flight_dropped": self.flight.dropped,
            "effects_tail": [
                effect.to_dict()
                for effect in self.effects.effects[-_EFFECT_TAIL:]
            ],
        }


@dataclass
class TraceDiffResult:
    """Everything one lockstep diff produced."""

    program: str
    model: str
    equivalent: bool
    divergence: EffectDivergence | None
    scalar: SideRun
    machine: SideRun
    window: int
    scalar_window: list[FlightEvent] = dataclasses.field(default_factory=list)
    machine_window: list[FlightEvent] = dataclasses.field(default_factory=list)

    def describe(self) -> str:
        lines = []
        if self.equivalent:
            lines.append(
                f"{self.program} [{self.model}]: EQUIVALENT "
                f"(scalar {len(self.scalar.effects)} effects, "
                f"machine {len(self.machine.effects)} effects)"
            )
            return "\n".join(lines)
        lines.append(f"{self.program} [{self.model}]: DIVERGED")
        for side in (self.scalar, self.machine):
            if side.error is not None:
                lines.append(f"  {side.name} error: {side.error.splitlines()[0]}")
            if side.unhandled is not None:
                kind, address = side.unhandled
                lines.append(f"  {side.name} unhandled fault: {kind}@{address}")
        if self.divergence is not None:
            lines.extend(
                "  " + line
                for line in self.divergence.describe().splitlines()
            )
        for side, window in (
            (self.scalar, self.scalar_window),
            (self.machine, self.machine_window),
        ):
            if not window:
                continue
            lines.append(
                f"  {side.name} flight window "
                f"(+/-{self.window} events around the divergence):"
            )
            lines.extend("    " + event.describe() for event in window)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": TRACEDIFF_SCHEMA,
            "program": self.program,
            "model": self.model,
            "equivalent": self.equivalent,
            "window": self.window,
            "divergence": (
                None if self.divergence is None else self.divergence.to_dict()
            ),
            "scalar": {
                **self.scalar.to_dict(),
                "flight_window": [e.to_dict() for e in self.scalar_window],
            },
            "machine": {
                **self.machine.to_dict(),
                "flight_window": [e.to_dict() for e in self.machine_window],
            },
        }


def validate_tracediff(document: object) -> None:
    """Schema-check a loaded tracediff artifact (tests, CI smoke)."""
    if not isinstance(document, dict):
        raise ValueError("tracediff artifact must be a JSON object")
    if document.get("schema") != TRACEDIFF_SCHEMA:
        raise ValueError(
            f"not a tracediff artifact: schema {document.get('schema')!r}, "
            f"expected {TRACEDIFF_SCHEMA!r}"
        )
    for key in ("program", "model", "equivalent", "window", "scalar", "machine"):
        if key not in document:
            raise ValueError(f"tracediff artifact lacks {key!r}")
    if not document["equivalent"] and document.get("divergence") is None:
        for side in ("scalar", "machine"):
            info = document[side]
            if info.get("error") or info.get("unhandled_fault"):
                break
        else:
            raise ValueError(
                "non-equivalent tracediff has neither a divergence "
                "nor a side error"
            )
    for side in ("scalar", "machine"):
        info = document[side]
        if not isinstance(info, dict) or "flight_window" not in info:
            raise ValueError(f"tracediff {side} side lacks flight_window")


def _cut_window(
    side: SideRun, divergence: EffectDivergence | None, k: int
) -> list[FlightEvent]:
    """+/-k flight events around *side*'s divergence anchor."""
    if divergence is None:
        return []
    effect = (
        divergence.scalar_effect
        if side.name == "scalar"
        else divergence.machine_effect
    )
    anchor = effect.flight_seq if effect is not None else None
    if anchor is None:
        # No anchored effect on this side (e.g. the effect is missing
        # entirely): window around the end of the recording.
        anchor = max(side.flight.seq - 1, 0)
    return side.flight.window(anchor, k)


def run_diff_trace(
    program: Program,
    model: str | ModelPolicy,
    config: MachineConfig | None = None,
    *,
    train_memory: Memory | None = None,
    eval_memory: Memory | None = None,
    fault_handler=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    policy_overrides: dict | None = None,
    machine_factory=None,
    window: int = DEFAULT_WINDOW,
    flight_capacity: int = DEFAULT_CAPACITY,
    tracer: CycleTraceRecorder | None = None,
) -> TraceDiffResult:
    """Run both sides fully instrumented and align their effect streams.

    Shares the oracle's front end (:func:`~repro.verify.oracle.prepare`),
    so a case that diverges under the oracle diverges identically here.
    *tracer*, when given, is attached to the machine run (see
    :func:`merged_trace` for the two-process view).
    """
    front = prepare(
        program,
        model,
        config,
        train_memory=train_memory,
        eval_memory=eval_memory,
        fault_handler=fault_handler,
        max_steps=max_steps,
        policy_overrides=policy_overrides,
    )
    factory = machine_factory if machine_factory is not None else VLIWMachine

    # --- scalar golden model, instrumented ----------------------------
    scalar = SideRun.recording("scalar", flight_capacity)
    interpreter = Interpreter(
        program,
        front.eval_memory.clone(),
        cfg=front.cfg,
        fault_handler=fault_handler,
        max_steps=max_steps,
        flight=scalar.flight,
        effects=scalar.effects,
    )
    try:
        golden = interpreter.run()
        scalar.cycles = golden.scalar_cycles
        scalar.registers = dict(enumerate(golden.registers))
        scalar.handled_faults = golden.handled_faults
    except UnhandledFault as fault:
        scalar.unhandled = (fault.fault.kind.value, fault.fault.address)
        scalar.handled_faults = interpreter.handled_faults
    except StepLimitExceeded as error:
        scalar.error = str(error)

    # --- machine, instrumented ----------------------------------------
    machine_side = SideRun.recording("machine", flight_capacity)
    if front.error is not None:
        machine_side.error = f"{type(front.error).__name__}: {front.error}"
    else:
        machine = None
        try:
            machine = factory(
                front.vliw,
                front.config,
                front.eval_memory.clone(),
                fault_handler=fault_handler,
                max_cycles=max_cycles,
                flight=machine_side.flight,
                effects=machine_side.effects,
                tracer=tracer,
            )
            result = machine.run()
            machine_side.cycles = result.cycles
            machine_side.registers = dict(enumerate(result.registers))
            machine_side.handled_faults = result.handled_faults
        except UnhandledFault as fault:
            machine_side.unhandled = (
                fault.fault.kind.value, fault.fault.address
            )
            if machine is not None:
                machine_side.handled_faults = machine.handled_faults
        except (ScheduleViolation, MachineAbort) as error:
            machine_side.error = f"{type(error).__name__}: {error}"

    # --- align ---------------------------------------------------------
    divergence = first_divergence(
        scalar.effects,
        machine_side.effects,
        scalar_registers=scalar.registers,
        machine_registers=machine_side.registers,
    )
    fault_parity = scalar.unhandled == machine_side.unhandled
    equivalent = (
        divergence is None
        and scalar.error is None
        and machine_side.error is None
        and fault_parity
    )
    return TraceDiffResult(
        program=program.name,
        model=front.model,
        equivalent=equivalent,
        divergence=divergence,
        scalar=scalar,
        machine=machine_side,
        window=window,
        scalar_window=_cut_window(scalar, divergence, window),
        machine_window=_cut_window(machine_side, divergence, window),
    )


def merged_trace(
    result: TraceDiffResult, tracer: CycleTraceRecorder | None
) -> list[dict]:
    """One Perfetto document holding both sides, cycle-aligned.

    The machine keeps its full cycle trace (pid 1, when *tracer* was
    attached to the run) plus an ``effects`` instant track; the scalar
    side (pid 2) gets its timeline synthesized from the flight recorder
    and effect stream.  Load in https://ui.perfetto.dev and diff the two
    process rows visually.
    """
    events: list[dict] = []
    machine_rec = (
        tracer
        if tracer is not None
        else CycleTraceRecorder(result.program, pid=1, process="machine")
    )
    for effect in result.machine.effects:
        machine_rec.instant(
            effect.cycle,
            "effects",
            effect.locus,
            args={"value": effect.value, "pc": effect.pc, "region": effect.region},
        )
    events.extend(machine_rec.events)

    scalar_rec = CycleTraceRecorder(result.program, pid=2, process="scalar")
    for flight_event in result.scalar.flight.events():
        if flight_event.kind == "issue":
            scalar_rec.op(
                flight_event.cycle,
                "alu",
                flight_event.detail,
                args={"pc": flight_event.pc, "region": flight_event.region},
            )
    for effect in result.scalar.effects:
        scalar_rec.instant(
            effect.cycle,
            "effects",
            effect.locus,
            args={"value": effect.value, "pc": effect.pc, "region": effect.region},
        )
    events.extend(scalar_rec.events)
    return events
