"""The security oracle: twin taint-off/taint-on machine runs.

``run_security`` executes one program on the predicating machine twice:

* a **baseline** run with taint tracking disabled (:data:`NULL_TAINT`),
  establishing the reference cycle count;
* a **taint** run with a live :class:`TaintTracker` and a flight
  recorder, collecting every source, propagation and leak.

The taint run's leaks are the direct channels (register / memory /
output / predicate-under-strict); the *timing* channel is the twin
comparison itself -- tracking is observation-only, so any cycle-count
delta between the runs means speculative data influenced timing (or the
instrumentation perturbed the machine, which is equally a finding).

Inputs are either a scalar :class:`~repro.isa.program.Program` (taken
through the front end the equivalence oracle uses,
:func:`~repro.verify.oracle.prepare`: training run, predictor, compile
under an executable predicating model) or a prebuilt ``vliw=`` program
for the hand-scheduled gadget path, which skips training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.exceptions import ScheduleViolation, UnhandledFault
from repro.isa.program import Program
from repro.machine.config import MachineConfig, base_machine
from repro.machine.program import VLIWProgram
from repro.machine.vliw import VLIWMachine
from repro.obs.diagnostics import MachineAbort
from repro.obs.flight import RingRecorder
from repro.obs.metrics import NULL_SINK, CounterSink, MetricsSink
from repro.sim.memory import Memory
from repro.taint.track import LeakRecord, TaintTracker
from repro.verify.case import HAND_MODEL
from repro.verify.oracle import DEFAULT_MAX_CYCLES, DEFAULT_MAX_STEPS, prepare

#: Flight-recorder events kept around the first leak in reports.
WINDOW_K = 8

#: Ring capacity for the taint run's flight recorder.
FLIGHT_CAPACITY = 256


@dataclass
class SecurityResult:
    """Outcome of one twin-run taint check."""

    program: str
    model: str
    policy: str
    secure: bool = False
    leaks: tuple[LeakRecord, ...] = ()
    baseline_cycles: int | None = None
    taint_cycles: int | None = None
    counters: dict = field(default_factory=dict)
    finals: dict = field(default_factory=dict)
    flight_window: list[dict] = field(default_factory=list)
    error: str | None = None

    @property
    def first_leak(self) -> LeakRecord | None:
        return self.leaks[0] if self.leaks else None

    def describe(self) -> str:
        head = f"{self.program} [{self.model}/{self.policy}]"
        if self.error is not None:
            return f"{head}: ERROR ({self.error.splitlines()[0]})"
        if self.secure:
            return (
                f"{head}: SECURE ({self.counters.get('sources', 0)} sources, "
                f"{self.counters.get('declassified', 0)} declassified, "
                f"{self.taint_cycles} cy)"
            )
        lines = [f"{head}: LEAKED ({len(self.leaks)} flows)"]
        lines.extend(f"  {leak.describe()}" for leak in self.leaks[:8])
        if len(self.leaks) > 8:
            lines.append(f"  ... and {len(self.leaks) - 8} more")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        first = self.first_leak
        return {
            "program": self.program,
            "model": self.model,
            "policy": self.policy,
            "secure": self.secure,
            "error": self.error,
            "baseline_cycles": self.baseline_cycles,
            "taint_cycles": self.taint_cycles,
            "counters": dict(self.counters),
            "finals": dict(self.finals),
            "leaks": [leak.to_dict() for leak in self.leaks],
            "first_leak": None if first is None else first.to_dict(),
            "flight_window": list(self.flight_window),
        }


def run_security(
    program: Program | None = None,
    model: str = "region_pred",
    config: MachineConfig | None = None,
    *,
    vliw: VLIWProgram | None = None,
    policy: str = "committed",
    train_memory: Memory | None = None,
    eval_memory: Memory | None = None,
    fault_handler=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    sink: MetricsSink = NULL_SINK,
    window_k: int = WINDOW_K,
) -> SecurityResult:
    """Taint-check *program* (compiled under *model*) or a prebuilt *vliw*.

    Returns a :class:`SecurityResult`; ``secure`` is True only when the
    taint run finished cleanly with zero leaks *and* the twin cycle
    counts agree (no timing channel).
    """
    if (program is None) == (vliw is None):
        raise ValueError("pass exactly one of program= or vliw=")
    if program is not None:
        front = prepare(
            program,
            model,
            config,
            train_memory=train_memory,
            eval_memory=eval_memory,
            fault_handler=fault_handler,
            max_steps=max_steps,
        )
        if front.error is not None:
            return SecurityResult(
                program.name, front.model, policy, error=str(front.error)
            )
        name, label, vliw = front.model, program.name, front.vliw
        config, eval_memory = front.config, front.eval_memory
    else:
        name, label = HAND_MODEL, vliw.name
        config = config if config is not None else base_machine()
        eval_memory = eval_memory if eval_memory is not None else Memory()

    def run_machine(**observers):
        return VLIWMachine(
            vliw,
            config,
            eval_memory.clone(),
            fault_handler=fault_handler,
            max_cycles=max_cycles,
            **observers,
        ).run()

    # --- baseline: taint off ------------------------------------------
    try:
        baseline_cycles = run_machine().cycles
    except (UnhandledFault, ScheduleViolation, MachineAbort) as error:
        message = f"baseline run: {type(error).__name__}: {error}"
        return SecurityResult(label, name, policy, error=message)

    # --- twin: taint on -----------------------------------------------
    flight = RingRecorder(FLIGHT_CAPACITY, source="security")
    counters = sink if sink.enabled else CounterSink()
    tracker = TaintTracker(policy=policy, sink=counters, flight=flight)
    taint_cycles: int | None = None
    error_text: str | None = None
    try:
        taint_cycles = run_machine(flight=flight, taint=tracker).cycles
    except (UnhandledFault, ScheduleViolation, MachineAbort) as error:
        error_text = f"taint run: {type(error).__name__}: {error}"

    leaks = list(tracker.leaks)
    if error_text is None and baseline_cycles != taint_cycles:
        # The tracker only observes; a cycle delta between the twins
        # means timing depends on speculative data (or instrumentation
        # perturbed the machine -- equally a finding).
        leaks.append(
            tracker.leak(
                "timing",
                taint_cycles,
                0,
                None,
                f"cycles {baseline_cycles} (taint off) vs {taint_cycles}",
                frozenset(),
            )
        )

    window: list[dict] = []
    if leaks and leaks[0].flight_seq is not None:
        window = [
            event.to_dict()
            for event in flight.window(leaks[0].flight_seq, window_k)
        ]

    return SecurityResult(
        program=label,
        model=name,
        policy=policy,
        secure=error_text is None and not leaks,
        leaks=tuple(leaks),
        baseline_cycles=baseline_cycles,
        taint_cycles=taint_cycles,
        counters=tracker.counters(),
        finals=tracker.finals(),
        flight_window=window,
        error=error_text,
    )
