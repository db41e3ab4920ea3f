"""The context's scalar-run memo: each program is interpreted once.

Every speedup divides by scalar cycles, so ``experiment all`` needs each
workload's original program, and each of its unrolled copies, profiled
on the training input and run on the evaluation input -- once each.
These tests pin that work as exact call counts (deterministic, unlike
wall time) and pin the memo's scope: per context, with factor 1 being
the baseline entry itself.  The ``calls`` counters and the shared
``experiment_all_sweep`` live in ``tests/conftest.py``.
"""

from __future__ import annotations

from repro.eval import ExperimentContext
from repro.workloads import get_workload


def test_experiment_all_interprets_each_program_once(experiment_all_sweep):
    assert experiment_all_sweep.errors == []
    # 6 workloads x (original + unrolled x2 + unrolled x4) x
    # (train + eval); the unroll cells used to re-run theirs per cell.
    assert experiment_all_sweep.counts == {"run": 36, "compile": 246}


def test_factor_one_is_the_baseline_entry():
    ctx = ExperimentContext([get_workload("li")])
    workload = ctx.workloads[0]
    assert ctx.unrolled(workload, 1) is ctx.baseline(workload)


def test_unrolled_entries_are_memoized_per_context(calls):
    workload = get_workload("li")
    first = ExperimentContext([workload])
    entry = first.unrolled(workload, 2)
    runs = calls["run"]
    assert first.unrolled(workload, 2) is entry
    assert calls["run"] == runs  # a hit interprets nothing

    second = ExperimentContext([workload])
    other = second.unrolled(workload, 2)
    assert other is not entry
    assert other.program is not entry.program
    assert other.evaluation.cycles == entry.evaluation.cycles
    assert other.evaluation.output == first.baseline(workload).evaluation.output
    assert entry.program is not workload.program
    assert len(entry.program.instructions) > len(workload.program.instructions)
