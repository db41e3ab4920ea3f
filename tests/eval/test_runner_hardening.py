"""Crash tolerance of the cell runner: hangs, crashes, and error entries.

The ``chaos`` cell kind misbehaves on demand (raise, hang, or kill its
worker with ``os._exit``), which lets these tests drive every failure
path of the hardened runner without touching real experiment cells.
"""

import signal

import pytest

from repro.ckpt import ShutdownRequested, SignalSupervisor
from repro.eval import ExperimentContext
from repro.eval.runner import (
    CellSpec,
    cell_cache_key,
    error_entry,
    is_error_cell,
)


def chaos(mode: str = "ok", **extras) -> CellSpec:
    return CellSpec(
        kind="chaos", extras=tuple({"mode": mode, **extras}.items())
    )


def ok_cells(count: int) -> list[CellSpec]:
    return [chaos("ok", value=index) for index in range(count)]


class TestErrorEntries:
    def test_shape(self):
        entry = error_entry(chaos("raise"), RuntimeError("boom"), attempts=2)
        assert is_error_cell(entry)
        assert entry["error"]["type"] == "RuntimeError"
        assert entry["error"]["message"] == "boom"
        assert entry["error"]["attempts"] == 2

    def test_value_cells_are_not_errors(self):
        assert not is_error_cell({"speedup": 2.0})


class TestSerialFailures:
    def test_raise_becomes_error_entry(self):
        ctx = ExperimentContext(workloads=[])
        results = ctx.run_cells([chaos("ok", value=7), chaos("raise")])
        assert results[0] == {"value": 7}
        assert is_error_cell(results[1])
        assert results[1]["error"]["type"] == "RuntimeError"
        assert ctx.runner.stats.errors == [results[1]]

    def test_fail_fast_restores_raising(self):
        ctx = ExperimentContext(workloads=[], fail_fast=True)
        with pytest.raises(RuntimeError, match="chaos cell asked to raise"):
            ctx.run_cells([chaos("ok"), chaos("raise")])

    def test_error_entries_are_never_cached(self, tmp_path):
        ctx = ExperimentContext(workloads=[], cache_dir=tmp_path)
        ctx.run_cells([chaos("ok", value=1), chaos("raise")])
        assert len(ctx.runner.stats.errors) == 1
        # A fresh runner over the same cache retries the failed cell
        # (one hit for the good cell, one miss for the bad one).
        again = ExperimentContext(workloads=[], cache_dir=tmp_path)
        again.run_cells([chaos("ok", value=1), chaos("raise")])
        assert again.runner.stats.hits == 1
        assert again.runner.stats.misses == 1


class TestShutdown:
    def test_cells_collected_before_shutdown_are_cached(self, tmp_path):
        """A SIGTERM between cells keeps every finished cell in the cache
        (the cache is written as each outcome is collected, not at the
        end of the batch), so a re-run over the same cache resumes."""
        supervisor = SignalSupervisor()  # never installed: set by hand

        def progress(done, total, stats):
            if done == 1:
                supervisor.pending = signal.SIGTERM

        specs = ok_cells(3)
        ctx = ExperimentContext(
            workloads=[], cache_dir=tmp_path, supervisor=supervisor,
            progress=progress,
        )
        with pytest.raises(ShutdownRequested):
            ctx.run_cells(specs)
        cached = sorted(path.name for path in tmp_path.glob("*.json"))
        assert cached == [f"{cell_cache_key(specs[0], None)}.json"]


class TestPoolFailures:
    def test_worker_crash_yields_error_entry_and_complete_sweep(self):
        """Killing a worker mid-sweep costs that one cell, not the batch,
        and the surviving cells match a serial run exactly."""
        specs = ok_cells(4)
        serial = ExperimentContext(workloads=[]).run_cells(list(specs))

        ctx = ExperimentContext(
            workloads=[], jobs=2, max_retries=1, retry_backoff=0.01
        )
        sweep = list(specs)
        sweep.insert(2, chaos("kill"))
        results = ctx.run_cells(sweep)

        assert is_error_cell(results[2])
        assert results[2]["error"]["type"] == "BrokenProcessPool"
        assert results[2]["error"]["attempts"] == 2  # initial + 1 retry
        survivors = results[:2] + results[3:]
        assert survivors == serial  # byte-identical to the serial sweep
        assert ctx.runner.stats.crashes >= 1
        assert ctx.runner.stats.retries == 1
        assert len(ctx.runner.stats.errors) == 1

    def test_hung_cell_times_out_into_error_entry(self):
        ctx = ExperimentContext(
            workloads=[],
            jobs=2,
            cell_timeout=1.0,
            max_retries=0,
            retry_backoff=0.01,
        )
        results = ctx.run_cells(
            [chaos("ok", value=0), chaos("hang"), chaos("ok", value=2)]
        )
        assert results[0] == {"value": 0}
        assert results[2] == {"value": 2}
        assert is_error_cell(results[1])
        assert results[1]["error"]["type"] == "TimeoutError"
        assert ctx.runner.stats.timeouts >= 1

    def test_hang_with_fail_fast_raises(self):
        ctx = ExperimentContext(
            workloads=[], jobs=2, cell_timeout=0.5, fail_fast=True
        )
        with pytest.raises(TimeoutError):
            ctx.run_cells([chaos("hang"), chaos("ok")])

    def test_clean_pooled_run_reports_no_failures(self):
        ctx = ExperimentContext(workloads=[], jobs=2)
        results = ctx.run_cells(ok_cells(4))
        assert results == [{"value": index} for index in range(4)]
        stats = ctx.runner.stats
        assert stats.timeouts == stats.crashes == stats.retries == 0
        assert not stats.errors
        counters = stats.to_metrics()["counters"]
        # Clean-run telemetry carries no failure counters at all.
        assert not any("failed" in name or "timeout" in name
                       or "crash" in name for name in counters)


class TestStatsReporting:
    def test_report_names_failed_cells(self):
        ctx = ExperimentContext(workloads=[])
        ctx.run_cells([chaos("raise")])
        report = ctx.runner.stats.report()
        assert "1 cells errored" in report
        assert "RuntimeError" in report

    def test_failure_counters_in_metrics(self):
        ctx = ExperimentContext(workloads=[])
        ctx.run_cells([chaos("raise")])
        counters = ctx.runner.stats.to_metrics()["counters"]
        assert counters["runner.failed_cells"] == 1
