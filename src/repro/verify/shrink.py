"""Delta-debugging minimizer for repro cases.

Given a :class:`~repro.verify.case.ReproCase` whose check finds
something, ``shrink_case`` greedily removes chunks of program lines
(halving chunk sizes, ddmin-style) while the same finding reproduces:
the same divergence *category* for an equivalence case, a leak of the
same *kind* for a security case.  Candidates that fail to parse, fail
validation, or stop reproducing are rejected; livelocked candidates are
cut off by budgets -- for equivalence cases *adaptive* ones, a small
multiple of what the unshrunk case actually needed -- so a mutation
that loops forever costs milliseconds to reject instead of seconds.
The result is a minimal case replayable via
``repro verify --replay CASE.json``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.verify.case import ReproCase
from repro.verify.oracle import OracleResult

#: Worst-case execution budgets: a shrunk synthetic program is tiny, so
#: anything still running after this is a livelock, not a repro.  These
#: bound the *initial* (unshrunk) run and cap the adaptive budgets.
SHRINK_MAX_STEPS = 200_000
SHRINK_MAX_CYCLES = 2_000_000

#: Cycle budget for security-case candidates: gadgets are a handful of
#: bundles, so anything past this is a degenerate candidate, not a repro.
GADGET_MAX_CYCLES = 100_000

#: Candidate budgets scale with the initial run: removing lines cannot
#: legitimately make the program run much longer, so a candidate gets
#: ``margin * observed`` (floored -- tiny programs deserve slack for
#: recovery replays -- and capped at the static ceilings above).
SHRINK_BUDGET_MARGIN = 8
SHRINK_MIN_STEPS = 2_000
SHRINK_MIN_CYCLES = 10_000


def candidate_budgets(initial: OracleResult | None) -> tuple[int, int]:
    """Step/cycle budgets for equivalence candidates, from *initial*.

    Falls back to the static ceilings when the initial run's cycle
    counts are unknown (e.g. it crashed before completing).
    """
    if initial is None:
        return SHRINK_MAX_STEPS, SHRINK_MAX_CYCLES
    observed = max(initial.scalar_cycles or 0, initial.machine_cycles or 0)
    if observed <= 0:
        return SHRINK_MAX_STEPS, SHRINK_MAX_CYCLES
    scaled = observed * SHRINK_BUDGET_MARGIN
    steps = min(SHRINK_MAX_STEPS, max(SHRINK_MIN_STEPS, scaled))
    cycles = min(SHRINK_MAX_CYCLES, max(SHRINK_MIN_CYCLES, scaled))
    return steps, cycles


def ddmin_lines(
    lines: list[str],
    reproduces,
    *,
    max_attempts: int = 2_000,
    sink: MetricsSink = NULL_SINK,
) -> tuple[list[str], int, int]:
    """Greedy chunk-halving ddmin over text lines.

    Repeatedly deletes chunks (size halving from ``len(lines)//2`` down
    to 1) while ``reproduces(kept_lines)`` stays True; a rejected chunk
    is put back and the window advances.  Returns ``(minimized_lines,
    attempts, accepted)``.  *reproduces* owns all domain judgment
    (parse, validate, run, classify).
    """
    lines = list(lines)
    attempts = 0
    accepted = 0
    chunk = max(1, len(lines) // 2)
    while chunk >= 1 and attempts < max_attempts:
        removed_any = False
        start = 0
        while start < len(lines) and attempts < max_attempts:
            kept = lines[:start] + lines[start + chunk:]
            if not kept:
                start += chunk
                continue
            attempts += 1
            if sink.enabled:
                sink.count("shrink.candidates")
            if reproduces(kept):
                lines = kept
                removed_any = True
                accepted += 1
                if sink.enabled:
                    sink.count("shrink.accepted")
                # Retry the same offset: the next chunk slid into place.
            else:
                start += chunk
        if not removed_any:
            chunk //= 2
        elif chunk > len(lines):
            chunk = max(1, len(lines) // 2)
    return lines, attempts, accepted


@dataclass
class ShrinkResult:
    """The minimized case plus how the search went."""

    case: ReproCase
    category: str  # divergence category, or leak kind for a security case
    attempts: int
    accepted: int
    original_instructions: int  # case sizes: bundles for a security case
    shrunk_instructions: int

    def describe(self) -> str:
        return (
            f"shrunk {self.original_instructions} -> "
            f"{self.shrunk_instructions} instructions "
            f"({self.attempts} candidates, {self.accepted} accepted, "
            f"category {self.category})"
        )


def _findings(case: ReproCase, result) -> list[str]:
    """What *result* of *case*'s check found, first finding first: the
    divergence category of an equivalence run, the leak kinds of a
    security run that finished cleanly."""
    if case.check == "security":
        if result.error is not None:
            return []
        return [leak.kind for leak in result.leaks]
    return [] if result.report is None else [result.report.category]


def _reproduces(
    case: ReproCase,
    category: str,
    machine_factory,
    sink: MetricsSink,
    max_steps: int,
    max_cycles: int,
) -> bool:
    """Does *case* still find *category*?"""
    try:
        result = case.run(
            machine_factory=machine_factory,
            max_steps=max_steps,
            max_cycles=max_cycles,
            sink=sink,
        )
    except Exception:
        # Unparseable/invalid/degenerate candidate (e.g. an unhandled
        # fault during the training run, or a livelocked candidate
        # exceeding its budget): not a reproduction.
        return False
    return category in _findings(case, result)


def shrink_case(
    case: ReproCase,
    *,
    machine_factory=None,
    category: str | None = None,
    initial_result=None,
    max_attempts: int = 2_000,
    sink: MetricsSink = NULL_SINK,
) -> ShrinkResult:
    """Minimize *case* while its finding keeps reproducing.

    *category* pins the finding to preserve: a divergence category, or
    for a security case a leak kind (so ddmin cannot trade e.g. an
    output leak for a memory one).  It defaults to the first finding of
    the unshrunk case.  *initial_result* is the unshrunk case's result,
    if the caller already has it -- for an equivalence case its cycle
    counts size the per-candidate livelock budgets
    (:func:`candidate_budgets`); when absent the initial case is run
    here.  *machine_factory* must match whatever produced the original
    divergence (e.g. a deliberately broken machine subclass under test).
    """
    security = case.check == "security"
    # Security candidates run under a fixed budget, so only a missing
    # category needs the unshrunk security case run first.
    if category is None or (initial_result is None and not security):
        initial_result = case.run(
            machine_factory=machine_factory,
            max_steps=SHRINK_MAX_STEPS,
            max_cycles=SHRINK_MAX_CYCLES,
            sink=sink,
        )
        if category is None:
            found = _findings(case, initial_result)
            if not found:
                verb = "leak" if security else "diverge"
                raise ValueError(
                    f"{case.name}: case does not {verb}; nothing to shrink"
                )
            category = found[0]
    if security:
        max_steps, max_cycles = SHRINK_MAX_STEPS, GADGET_MAX_CYCLES
    else:
        max_steps, max_cycles = candidate_budgets(initial_result)

    original_size = case.size()

    def candidate(kept: list[str]) -> ReproCase:
        return dataclasses.replace(
            case, program_text="\n".join(kept) + "\n"
        )

    lines, attempts, accepted = ddmin_lines(
        case.program_text.splitlines(),
        lambda kept: _reproduces(
            candidate(kept),
            category,
            machine_factory,
            sink,
            max_steps,
            max_cycles,
        ),
        max_attempts=max_attempts,
        sink=sink,
    )

    shrunk = candidate(lines)
    shrunk.metadata = {
        **case.metadata, "shrunk": True, "shrink_attempts": attempts
    }
    if security:
        shrunk.metadata["shrink_kind"] = category
    else:
        shrunk.metadata["shrink_category"] = category
        shrunk.metadata["original_instructions"] = original_size
    return ShrinkResult(
        case=shrunk,
        category=category,
        attempts=attempts,
        accepted=accepted,
        original_instructions=original_size,
        shrunk_instructions=shrunk.size(),
    )
