"""Self-tests of the benchmark.

    PYTHONPATH=src python -m pytest perf -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF.parent / "src"))

import compare  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402
from common import ROOT, load_declaration  # noqa: E402

DECLARATION = load_declaration()
#: What the benchmark contract allows as a workload or metric name.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perf" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


def _results(stdout: str) -> list[dict]:
    """The JSON result lines, one per workload."""
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def quick_runs():
    untraced = _run("--quick")
    traced = _run("--quick", "--trace", "1")
    assert untraced.returncode == 0, untraced.stderr
    assert traced.returncode == 0, traced.stderr
    return _results(untraced.stdout), _results(traced.stdout)


# ----------------------------------------------------------------------
# The declaration.
# ----------------------------------------------------------------------
def test_declaration_follows_the_benchmark_contract():
    assert DECLARATION["paths"] == ["perf"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= DECLARATION["run_seconds"] <= 60
    metrics = DECLARATION["end_to_end"] + DECLARATION["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.match(name) for name in names)
    assert len(DECLARATION["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in DECLARATION["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(WORKLOADS) == set(scenarios.SCENARIOS)


# ----------------------------------------------------------------------
# Seeded inputs.
# ----------------------------------------------------------------------
def _memories(seed: int) -> list[dict]:
    from repro.workloads import all_workloads

    return [
        (w.train_memory().snapshot(), w.eval_memory().snapshot())
        for w in scenarios.seeded_workloads(all_workloads(), seed)
    ]


def test_seed_zero_is_the_papers_inputs():
    from repro.workloads import all_workloads

    paper = [(w.train_seed, w.eval_seed) for w in all_workloads()]
    seeded = [
        (w.train_seed, w.eval_seed)
        for w in scenarios.seeded_workloads(all_workloads(), 0)
    ]
    assert seeded == paper == [(1, 2)] * 6


def test_kernel_inputs_follow_the_seed():
    assert _memories(3) == _memories(3)
    assert _memories(3) != _memories(4)


@pytest.fixture(scope="module")
def sweep_batches():
    import repro.eval.experiments as experiments
    import repro.eval.runner as runner
    from repro.workloads import all_workloads

    return scenarios.sweep_cell_batches(experiments, runner, all_workloads())


def _submissions(batches, seed: int) -> list[list[dict]]:
    from repro.machine.config import MachineConfig

    return scenarios.serve_submissions(batches, MachineConfig(), seed)


def test_serve_stream_follows_the_seed(sweep_batches):
    assert _submissions(sweep_batches, 5) == _submissions(sweep_batches, 5)
    assert _submissions(sweep_batches, 5) != _submissions(sweep_batches, 6)


def test_serve_jobs_ask_what_the_sweeps_cells_ask(sweep_batches):
    """One job per baseline or named-model speedup cell, on the cell's
    machine config; a job repeats exactly when its cell's question does."""
    from repro.machine.config import MachineConfig
    from repro.serve.protocol import parse_request, resolve_request

    cells = [
        spec
        for batch in sweep_batches
        for spec in batch
        if spec.kind == "baseline"
        or (spec.kind == "speedup" and spec.model in scenarios.PREDICATING)
    ]
    jobs = [
        resolve_request(parse_request(job))
        for submission in _submissions(sweep_batches, 0)
        for job in submission
    ]
    assert len(jobs) == len(cells)
    questions = []
    for cell, job in zip(cells, jobs):
        assert (job.workload, job.seed) == (cell.workload, 2)
        if cell.kind == "baseline":
            assert (job.model, job.config) == ("scalar", MachineConfig())
        else:
            assert (job.model, job.config) == (cell.model, cell.config)
        questions.append((cell.workload, job.model, cell.config))
    distinct = len({job.key for job in jobs})
    assert distinct == len(set(questions)) < len(jobs)


# ----------------------------------------------------------------------
# Smoke runs of every workload.
# ----------------------------------------------------------------------
def test_quick_runs_are_correct_and_emit_declared_metrics(quick_runs):
    untraced, traced = quick_runs
    assert len(untraced) == len(traced) == len(WORKLOADS)
    e2e = [(m["name"], m["unit"]) for m in DECLARATION["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in DECLARATION["per_layer"]]
    for results, declared in ((untraced, e2e), (traced, layers)):
        for result in results:
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            emitted = [(n, e["unit"]) for n, e in result["metrics"].items()]
            assert emitted == declared
    for result in untraced:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_runs_reconcile_and_see_each_layer(quick_runs):
    _, traced = quick_runs
    by_workload = {
        name: {k: e["value"] for k, e in result["metrics"].items()}
        for name, result in zip(WORKLOADS, traced)
    }
    for layers in by_workload.values():
        assert layers["trace.reconcile_error"] <= 0.01
        assert layers["trace.missing"] == 0
        assert layers["trace.overhead"] > 0
    assert by_workload["paper-sweep"]["compiler.count_cycles.calls"] > 0
    assert by_workload["paper-sweep"]["eval.experiment.fig7.ms"] > 0
    assert by_workload["fuzz-verify"]["verify.run_oracle.calls"] == 40
    assert by_workload["fuzz-verify"]["verify.divergences"] == 0
    assert by_workload["security-twin"]["machine.vliw.observed.calls"] == 12
    assert by_workload["security-twin"]["machine.vliw.plain.calls"] == 12
    assert by_workload["serve-burst"]["serve.pool.run_batches.calls"] > 0
    assert by_workload["serve-burst"]["compiler.count_cycles.calls"] == 0


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = _run("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# Span arithmetic.
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    with tracer.request_span("demo"):  # 0 .. 100
        clock.now = 10
        with tracer.span("outer"):  # 10 .. 90
            clock.now = 20
            with tracer.span("inner"):  # 20 .. 50
                clock.now = 50
            clock.now = 60
            with tracer.span("inner"):  # 60 .. 70
                clock.now = 70
            clock.now = 90
        clock.now = 100
    assert tracer.stats["inner"] == [2, 40, 40]
    assert tracer.stats["outer"] == [1, 80, 40]
    assert tracer.stats["request.demo"] == [1, 100, 20]
    names = [span[0] for span in tracer.spans]
    assert names == ["request.demo", "outer", "inner", "inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1]
    assert {span[4] for span in tracer.spans} == {1}
    metrics = spans.layer_metrics(tracer, rounds=1, wall_ns=110)
    assert metrics["outer.self_ms"] == pytest.approx(40e-6)
    assert metrics["trace.unattributed_share"] == pytest.approx(30 / 110)
    assert metrics["trace.reconcile_error"] == 0


def test_missing_targets_are_listed_not_fatal():
    tracer = spans.Tracer()
    targets = (
        spans.Target("gone.function", "repro.ir.cfg:no_such_function"),
        spans.Target("gone.method", "repro.core.control_path:ControlPath.gone"),
        spans.Target("gone.module", "repro.no_such_module:thing"),
        spans.Target("ir.build_cfg", "repro.ir.cfg:build_cfg"),
    )
    import repro.ir.cfg as cfg

    original = cfg.build_cfg
    with tracer.installed(targets):
        assert cfg.build_cfg is not original
    assert cfg.build_cfg is original
    assert len(tracer.missing) == 3


def test_a_counter_hook_that_breaks_is_listed_not_fatal():
    import repro.ir.cfg as cfg
    from repro.workloads import get_workload

    def broken(tracer, name, args, result):
        raise AttributeError("the result changed shape")

    tracer = spans.Tracer()
    target = spans.Target("ir.build_cfg", "repro.ir.cfg:build_cfg", after=broken)
    with tracer.installed((target,)):
        assert cfg.build_cfg(get_workload("grep").program) is not None
    assert tracer.missing == ["repro.ir.cfg:build_cfg"]


def test_wrappers_reach_names_callers_imported():
    import repro.compiler.pipeline as pipeline
    import repro.ir.cfg as cfg
    from repro.workloads import get_workload

    tracer = spans.Tracer()
    with tracer.installed((spans.Target("ir.build_cfg", "repro.ir.cfg:build_cfg"),)):
        assert pipeline.build_cfg is cfg.build_cfg
        pipeline.build_cfg(get_workload("grep").program)
    assert tracer.stats["ir.build_cfg"][0] == 1


def test_chrome_trace_has_one_complete_event_per_span():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    with tracer.request_span("demo"):
        clock.now = 1000
        with tracer.span("layer.call"):
            clock.now = 3000
    events = spans.chrome_trace(tracer)["traceEvents"]
    assert [(e["name"], e["ph"], e["ts"], e["dur"]) for e in events] == [
        ("request.demo", "X", 0.0, 3.0),
        ("layer.call", "X", 1.0, 2.0),
    ]


# ----------------------------------------------------------------------
# The compare rule.
# ----------------------------------------------------------------------
BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_gain_needs_nine_of_ten_wins_beyond_the_parents_spread():
    faster = [value * 0.9 for value in BASE]
    assert compare.judge(BASE, faster, "lower", 0.1) == "better"
    mixed = faster[:8] + [value * 1.02 for value in BASE[8:]]
    assert compare.judge(BASE, mixed, "lower", 0.1) == "unchanged"
    assert compare.judge(BASE[:9], faster[:9], "lower", 0.1) == "unchanged"
    assert compare.judge(BASE, [v * 1.11 for v in BASE], "higher", 0.1) == "better"


def test_worse_beyond_the_bound_and_unresolved_beyond_the_spread():
    assert compare.judge(BASE, [v * 1.2 for v in BASE], "lower", 0.1) == "worse"
    assert compare.judge(BASE, [v * 1.05 for v in BASE], "lower", 0.1) == "unchanged"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert compare.judge(BASE, noisy, "lower", 0.1) == "unresolved"
    assert compare.judge(noisy, [v * 0.1 for v in noisy], "lower", 0.1) == "better"


def test_exact_metrics_compare_exactly():
    assert compare.judge_exact([5, 5], [5, 5], "sim_cycles") == "unchanged"
    assert compare.judge_exact([5, 5], [5, 6], "sim_cycles") == "changed"
    assert compare.judge_exact([0.0, 0.0], [0.0, 0.1], "failed_share") == "worse"


def test_one_failing_run_in_ten_is_worse():
    clean = [0.0] * 10
    assert compare.judge_exact(clean, [0.0] * 9 + [0.01], "failed_share") == "worse"
    assert compare.judge_exact(clean, clean, "failed_share") == "unchanged"
    flaky = [0.0] * 9 + [0.01]
    assert compare.judge_exact(flaky, [0.01] + [0.0] * 9, "failed_share") == "unchanged"
