"""Regression lock on the fixed ``region_pred`` fault-writeback bug.

``findings/case-synthetic-1803.json`` freezes a fuzz finding (synthetic
program, seed 1803, demand-paged faults with unmap probability 0.3)
where region-predicated scheduled code diverged from scalar semantics:
the machine emitted an extra ``out`` and a wrong register file.

Root cause (pinned down with ``repro diff-trace``): a faulting
speculative load wrote its E-flagged (and, on recovery replay, its
repaired) result into the shadow regfile *immediately at execute time*
instead of at its writeback cycle.  When the same bundle carried an
earlier-in-program-order ALU write to the same register (``min r5,...``
before ``ld r5,...``), the ALU result landed at end-of-cycle and
superseded the load -- the register kept the stale value and every
condition computed from it downstream went wrong.  Fixed by flying the
fault path through the normal writeback queue with the E flag attached
(see ``_InFlight.fault`` in ``machine/vliw.py``).

The replay now asserts equivalence outright: the case file is the bug's
executable definition and must stay green.
"""

from __future__ import annotations

from pathlib import Path

from repro.verify.case import ReproCase
from repro.verify.tracediff import run_diff_trace

CASE_PATH = (
    Path(__file__).resolve().parents[2]
    / "findings"
    / "case-synthetic-1803.json"
)


def test_case_file_is_loadable():
    """The frozen case must stay parseable."""
    case = ReproCase.load(CASE_PATH)
    assert case.model == "region_pred"
    assert case.backing, "case relies on the demand-paging backing store"
    assert case.size() > 0


def test_case_synthetic_1803_replays_equivalent():
    result = ReproCase.load(CASE_PATH).run()
    assert result.equivalent, result.describe()


def test_case_synthetic_1803_diff_trace_clean():
    """The lockstep differ agrees: no divergent committed effect."""
    result = run_diff_trace(**ReproCase.load(CASE_PATH).inputs())
    assert result.equivalent
    assert result.divergence is None
