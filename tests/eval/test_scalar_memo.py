"""The context's scalar-run memo: each program is interpreted once.

Every speedup divides by scalar cycles, so ``experiment all`` needs each
workload's original program, and each of its unrolled copies, profiled
on the training input and run on the evaluation input -- once each.
These tests pin that work as exact call counts (deterministic, unlike
wall time) and pin the memo's scope: per context, with factor 1 being
the baseline entry itself.
"""

from __future__ import annotations

import sys

import pytest

import repro.compiler.pipeline as pipeline
from repro.eval import EXPERIMENTS, ExperimentContext, ExperimentOptions
from repro.sim.interpreter import Interpreter
from repro.workloads import get_workload


@pytest.fixture
def calls(monkeypatch) -> dict[str, int]:
    """Counts of ``Interpreter.run`` and ``compile_program`` calls, the
    latter under every name a loaded module imported it as."""
    counts = {"run": 0, "compile": 0}
    run, compile_program = Interpreter.run, pipeline.compile_program

    def counting_run(self):
        counts["run"] += 1
        return run(self)

    def counting_compile(*args, **kwargs):
        counts["compile"] += 1
        return compile_program(*args, **kwargs)

    monkeypatch.setattr(Interpreter, "run", counting_run)
    for module in list(sys.modules.values()):
        if getattr(module, "compile_program", None) is compile_program:
            monkeypatch.setattr(module, "compile_program", counting_compile)
    return counts


def test_experiment_all_interprets_each_program_once(calls):
    ctx = ExperimentContext(use_cache=False, jobs=1)
    options = ExperimentOptions()
    for driver in EXPERIMENTS.values():
        driver(ctx, options)
    assert ctx.runner.stats.errors == []
    # 6 workloads x (original + unrolled x2 + unrolled x4) x
    # (train + eval); the unroll cells used to re-run theirs per cell.
    assert calls["run"] == 36
    assert calls["compile"] == 246


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
