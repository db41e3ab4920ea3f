"""Fault-injection campaigns against the predicated buffering hardware.

Section 3's protection argument is that *buffered* speculative state can
never silently corrupt the architectural state: every buffered value
carries a predicate and an E flag, and the per-entry commit hardware
either squashes it (predicate FALSE), or -- when a buffered exception
would commit -- rolls the machine back into recovery mode, which
re-executes the region and recomputes the value.  This module tests that
protection boundary directly, by corrupting machine state mid-run and
classifying what happens against the oracle:

==============  =========================================================
point           corrupted state / allowed outcomes
==============  =========================================================
regfile         a spurious E flag raised on an undecided
                :class:`PendingWrite` -- the architecture's own fault
                model (a speculative op that flagged an exception).
                Allowed: MASKED (predicate squashes the entry, the E
                flag with it), RECOVERED (the E-flag commit rolls the
                machine back and recovery re-execution reaches the same
                architectural state), DETECTED (structured abort).
                Never DIVERGED: spurious buffered exceptions are inside
                the protection boundary.
store_buffer    a spurious E flag on an undecided speculative
                :class:`StoreBufferEntry` -- same allowed set.
ccr             a *specified* CCR bit flipped.  The CCR is architectural
                control state -- outside the buffering protection
                boundary -- so corruption may change the computation:
                DIVERGED is allowed *and is itself the point*: the
                oracle must catch it (this doubles as a sensitivity /
                mutation test of the oracle).  Also MASKED / RECOVERED /
                DETECTED.
btb             a BTB slot evicted (junk key).  The BTB is strictly a
                timing structure, so the only allowed outcome is MASKED
                -- any architectural effect is a modelling bug.
==============  =========================================================

*Why E flags and not bit-flipped values?*  The paper's protection claim
(Section 3) is about the commit/squash path: buffered state cannot reach
the sequential state unless its predicate commits, and a buffered
exception cannot be lost.  It is *not* an ECC claim about the buffered
bits themselves: a flipped data value can legally leak through a shadow
read into a condition-set -- architectural control state -- before its
producer's predicate resolves, and the differential oracle (not the
machine) is what catches that.  Raising E flags tests exactly what the
architecture promises: recovery from an arbitrary buffered exception at
an arbitrary cycle must be semantically invisible.

An injection that finds no eligible target retries every subsequent
cycle; a run where it never applies is reported ``not_applied`` (always
allowed).  The campaign asserts every trial's outcome is in its point's
allowed set -- "never a silent wrong answer" -- and reports violations
structurally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.exceptions import FaultKind, FaultRecord
from repro.core.predicate import PredValue
from repro.machine.config import base_machine
from repro.machine.vliw import VLIWMachine
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.verify.case import ReproCase
from repro.verify.oracle import check_prepared, prepare
from repro.workloads.synthetic import generate

INJECTION_POINTS = ("regfile", "store_buffer", "ccr", "btb")

#: Outcomes each point may legally produce (``not_applied`` is always
#: allowed and never counts against the matrix).
ALLOWED_OUTCOMES: dict[str, frozenset[str]] = {
    "regfile": frozenset({"masked", "recovered", "detected"}),
    "store_buffer": frozenset({"masked", "recovered", "detected"}),
    "ccr": frozenset({"masked", "recovered", "detected", "diverged"}),
    "btb": frozenset({"masked"}),
}


@dataclass(frozen=True)
class InjectionSpec:
    """What to corrupt, and from which cycle to start trying."""

    point: str
    cycle: int
    salt: int  # seeds the in-machine target-choice RNG


class InjectingMachine(VLIWMachine):
    """A VLIWMachine that corrupts one piece of state mid-run.

    The injection is attempted at the top of every cycle's commit tick
    from ``spec.cycle`` on, until an eligible target exists; buffered-
    state injections only target entries whose predicate is undecided
    (matching physically meaningful corruption of in-flight state).
    """

    def __init__(self, *args, injection: InjectionSpec, **kwargs):
        super().__init__(*args, **kwargs)
        self.injection = injection
        self._inject_rng = random.Random(f"inject:{injection.salt}")
        self.applied_cycle: int | None = None
        self.applied_detail: str | None = None

    def _tick(self) -> None:
        if self.applied_cycle is None and self.cycle >= self.injection.cycle:
            detail = self._try_inject()
            if detail is not None:
                self.applied_cycle = self.cycle
                self.applied_detail = detail
                # Injection plants E flags behind the machine's back;
                # re-arm the exception-commit scan guard.
                self._maybe_fault = True
        super()._tick()

    # -- injection targets ---------------------------------------------
    def _try_inject(self) -> str | None:
        point = self.injection.point
        if point == "regfile":
            candidates = [
                (reg, write)
                for reg, write in self.regfile.pending_writes()
                if write.fault is None and _undecided(self, write.pred)
            ]
            if not candidates:
                return None
            reg, write = self._inject_rng.choice(candidates)
            write.fault = _injected_fault()
            return f"regfile r{reg} pred {write.pred}"
        if point == "store_buffer":
            candidates = [
                entry
                for entry in self.store_buffer.pending_entries()
                if entry.speculative
                and entry.valid
                and entry.fault is None
                and _undecided(self, entry.pred)
            ]
            if not candidates:
                return None
            entry = self._inject_rng.choice(candidates)
            entry.fault = _injected_fault()
            locus = "out" if entry.address is None else f"mem[{entry.address}]"
            return f"store-buffer {locus} pred {entry.pred}"
        if point == "ccr":
            specified = [
                index
                for index in range(self.ccr.num_entries)
                if self.ccr.get(index) is not None
            ]
            if not specified:
                return None
            index = self._inject_rng.choice(specified)
            value = self.ccr.get(index)
            self.ccr.set(index, not value)
            return f"ccr c{index} {value} -> {not value}"
        if point == "btb":
            if self._btb is None:
                return None
            slot = self._inject_rng.randrange(len(self._btb._slots))
            self._btb._slots[slot] = ("injected", self._inject_rng.random())
            return f"btb slot {slot} evicted"
        raise ValueError(f"unknown injection point {point!r}")


def _undecided(machine: VLIWMachine, pred) -> bool:
    """UNSPEC under the CCR and, in recovery, under the future CCR too."""
    if machine.ccr.evaluate(pred) is not PredValue.UNSPEC:
        return False
    future = machine.future_ccr
    return future is None or future.evaluate(pred) is PredValue.UNSPEC


def _injected_fault() -> FaultRecord:
    return FaultRecord(
        kind=FaultKind.MEMORY,
        instruction_uid=-1,
        detail="injected corruption (E flag raised by fault injector)",
    )


class _ProbeMachine(VLIWMachine):
    """Clean run that records, per point, the cycles with a live target.

    Execution is deterministic, so an :class:`InjectingMachine` replaying
    the same case evolves identically up to the injection -- a trigger
    chosen from these cycles is guaranteed to find something to corrupt.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.target_cycles: dict[str, list[int]] = {
            point: [] for point in INJECTION_POINTS
        }

    def _tick(self) -> None:
        if any(
            _undecided(self, write.pred)
            for _, write in self.regfile.pending_writes()
        ):
            self.target_cycles["regfile"].append(self.cycle)
        if any(
            entry.speculative and entry.valid and _undecided(self, entry.pred)
            for entry in self.store_buffer.pending_entries()
        ):
            self.target_cycles["store_buffer"].append(self.cycle)
        if any(
            self.ccr.get(index) is not None
            for index in range(self.ccr.num_entries)
        ):
            self.target_cycles["ccr"].append(self.cycle)
        if self._btb is not None:
            self.target_cycles["btb"].append(self.cycle)
        super()._tick()


@dataclass
class InjectionResult:
    """One trial's classification."""

    trial: int
    point: str
    program_seed: int
    model: str
    trigger_cycle: int
    outcome: str  # masked|recovered|detected|diverged|not_applied
    allowed: bool
    detail: str | None = None
    divergence_category: str | None = None

    def describe(self) -> str:
        status = "ok" if self.allowed else "VIOLATION"
        text = (
            f"trial {self.trial}: {self.point} @cycle {self.trigger_cycle} "
            f"(seed {self.program_seed}, {self.model}) -> "
            f"{self.outcome.upper()} [{status}]"
        )
        if self.detail:
            text += f" -- {self.detail}"
        return text


@dataclass
class FaultCampaignReport:
    """Outcome matrix of one injection campaign."""

    seed: int
    trials: int
    results: list[InjectionResult] = field(default_factory=list)

    @property
    def violations(self) -> list[InjectionResult]:
        return [r for r in self.results if not r.allowed]

    def outcome_matrix(self) -> dict[str, dict[str, int]]:
        matrix: dict[str, dict[str, int]] = {}
        for result in self.results:
            row = matrix.setdefault(result.point, {})
            row[result.outcome] = row.get(result.outcome, 0) + 1
        return matrix

    def describe(self) -> str:
        lines = [
            f"fault injection: {self.trials} trials (seed {self.seed}), "
            f"{len(self.violations)} violations"
        ]
        for point, row in sorted(self.outcome_matrix().items()):
            counts = ", ".join(
                f"{outcome} {count}" for outcome, count in sorted(row.items())
            )
            lines.append(f"  {point:12s} {counts}")
        for violation in self.violations:
            lines.append(violation.describe())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "matrix": self.outcome_matrix(),
            "violations": [v.describe() for v in self.violations],
        }


def run_fault_campaign(
    trials: int,
    seed: int,
    *,
    points: tuple[str, ...] = INJECTION_POINTS,
    model: str = "region_pred",
    sink: MetricsSink = NULL_SINK,
) -> FaultCampaignReport:
    """Run *trials* injection trials derived deterministically from *seed*."""
    for point in points:
        if point not in ALLOWED_OUTCOMES:
            raise ValueError(f"unknown injection point {point!r}")
    report = FaultCampaignReport(seed=seed, trials=trials)
    for trial in range(trials):
        rng = random.Random(f"repro-faults:{seed}:{trial}")
        point = points[trial % len(points)]
        config = (
            base_machine(btb_entries=16) if point == "btb" else base_machine()
        )

        # Find a program whose clean run actually exposes the point (a
        # tiny program may never buffer speculative state); the probe
        # also yields the cycles at which a target exists, so the
        # trigger is guaranteed to land on live state.  The injected run
        # then replays the probe's compiled program (*front*).
        clean = front = None
        inputs: dict = {}
        program_seed = 0
        target_cycles: list[int] = []
        for _ in range(8):
            program_seed = rng.randrange(1 << 20)
            synthetic = generate(
                program_seed,
                predictability=rng.choice((0.5, 0.6)),
                size=rng.choice((3, 4)),
            )
            inputs = ReproCase.from_synthetic(synthetic, model, config).inputs()
            front = prepare(**inputs)
            holder: dict[str, _ProbeMachine] = {}

            def probe_factory(*args, **kwargs):
                machine = _ProbeMachine(*args, **kwargs)
                holder["machine"] = machine
                return machine

            clean = check_prepared(
                inputs["program"],
                front,
                fault_handler=inputs["fault_handler"],
                machine_factory=probe_factory,
            )
            if not clean.equivalent:
                raise RuntimeError(
                    "fault campaign requires an equivalent baseline run; "
                    f"seed {program_seed} diverges without injection:\n"
                    + clean.report.describe()
                )
            target_cycles = holder["machine"].target_cycles[point]
            if target_cycles:
                break
        if not target_cycles:
            report.results.append(
                InjectionResult(
                    trial=trial,
                    point=point,
                    program_seed=program_seed,
                    model=model,
                    trigger_cycle=0,
                    outcome="not_applied",
                    allowed=True,
                    detail="no cycle exposed a target",
                )
            )
            continue
        trigger = rng.choice(target_cycles)
        spec = InjectionSpec(point=point, cycle=trigger, salt=rng.randrange(1 << 30))

        holder: dict[str, InjectingMachine] = {}

        def factory(*args, **kwargs):
            machine = InjectingMachine(*args, injection=spec, **kwargs)
            holder["machine"] = machine
            return machine

        aborted: str | None = None
        injected = None
        try:
            injected = check_prepared(
                inputs["program"],
                front,
                fault_handler=inputs["fault_handler"],
                machine_factory=factory,
            )
        except AssertionError as error:
            # An internal invariant tripped: a structured abort, not a
            # silent wrong answer.
            aborted = f"invariant: {error}"

        machine = holder.get("machine")
        applied = machine is not None and machine.applied_cycle is not None
        detail = machine.applied_detail if machine is not None else None
        divergence_category = None
        if not applied:
            outcome = "not_applied"
        elif aborted is not None:
            outcome = "detected"
            detail = f"{detail}; {aborted}"
        elif injected is not None and injected.equivalent:
            outcome = (
                "recovered"
                if injected.recoveries > clean.recoveries
                else "masked"
            )
        else:
            assert injected is not None and injected.report is not None
            divergence_category = injected.report.category
            outcome = (
                "detected"
                if injected.report.category == "error"
                else "diverged"
            )
        allowed = outcome == "not_applied" or outcome in ALLOWED_OUTCOMES[point]
        result = InjectionResult(
            trial=trial,
            point=point,
            program_seed=program_seed,
            model=model,
            trigger_cycle=trigger,
            outcome=outcome,
            allowed=allowed,
            detail=detail,
            divergence_category=divergence_category,
        )
        report.results.append(result)
        if sink.enabled:
            sink.count("faults.trials")
            sink.count(f"faults.{point}.{outcome}")
            if not allowed:
                sink.count("faults.violations")
    return report
