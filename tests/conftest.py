"""Hypothesis profiles for the property tests.

Tier-1 is deterministic: the default ``tier1`` profile derandomizes
every ``@given`` test (examples derive from a hash of the test, not a
random seed) and keeps no example database, so two runs draw the same
examples.  Each test's own ``max_examples`` is unchanged.

``HYPOTHESIS_PROFILE=explore`` opts into fresh random examples on every
run, for exploration outside tier-1::

    HYPOTHESIS_PROFILE=explore PYTHONPATH=src python -m pytest tests/core
"""

import os
from types import SimpleNamespace

import pytest

try:
    from hypothesis import settings
except ImportError:  # CI jobs that run no property test install only pytest
    settings = None

if settings is not None:
    settings.register_profile("tier1", derandomize=True, database=None)
    settings.register_profile("explore", derandomize=False, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


def _count_calls(monkeypatch, schedules: list | None = None) -> dict[str, int]:
    """Count ``Interpreter.run`` and ``compile_program`` calls (the latter
    under every name a loaded module imported it as); with *schedules*,
    also keep every ``(graph, config, schedule)`` the compiler makes."""
    import sys

    import repro.compiler.pipeline as pipeline
    from repro.sim.interpreter import Interpreter

    counts = {"run": 0, "compile": 0}
    run, compile_program = Interpreter.run, pipeline.compile_program
    list_schedule = pipeline.list_schedule

    def counting_run(self):
        counts["run"] += 1
        return run(self)

    def counting_compile(*args, **kwargs):
        counts["compile"] += 1
        return compile_program(*args, **kwargs)

    def keeping_schedule(graph, config):
        schedule = list_schedule(graph, config)
        schedules.append((graph, config, schedule))
        return schedule

    monkeypatch.setattr(Interpreter, "run", counting_run)
    for module in list(sys.modules.values()):
        if getattr(module, "compile_program", None) is compile_program:
            monkeypatch.setattr(module, "compile_program", counting_compile)
    if schedules is not None:
        monkeypatch.setattr(pipeline, "list_schedule", keeping_schedule)
    return counts


@pytest.fixture
def calls(monkeypatch) -> dict[str, int]:
    """Counts of ``Interpreter.run`` and ``compile_program`` calls."""
    return _count_calls(monkeypatch)


@pytest.fixture(scope="session")
def experiment_all_sweep():
    """One in-process ``experiment all --no-cache``, shared by every test
    that inspects a whole sweep: its call counts, runner errors, and
    every region schedule it compiled."""
    from repro.eval import EXPERIMENTS, ExperimentContext, ExperimentOptions

    schedules: list = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        counts = _count_calls(monkeypatch, schedules)
        ctx = ExperimentContext(use_cache=False, jobs=1)
        options = ExperimentOptions()
        for driver in EXPERIMENTS.values():
            driver(ctx, options)
    return SimpleNamespace(
        counts=counts, errors=ctx.runner.stats.errors, schedules=schedules
    )
