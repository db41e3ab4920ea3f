"""Tests for the parallel, cached cell runner."""

import dataclasses
import json

import pytest

from repro.compiler.models import MODELS, REGION_PRED
from repro.eval import ExperimentContext
from repro.eval.runner import CellSpec, cell_cache_key, evaluate_cell
from repro.machine.config import base_machine
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def grep():
    return get_workload("grep")


def _speedup_spec(**overrides) -> CellSpec:
    params = dict(
        kind="speedup", workload="grep", model="region_pred",
        config=base_machine(),
    )
    params.update(overrides)
    return CellSpec(**params)


class TestCacheKey:
    def test_stable_across_calls(self, grep):
        spec = _speedup_spec()
        assert cell_cache_key(spec, grep) == cell_cache_key(spec, grep)

    def test_equal_specs_share_a_key(self, grep):
        assert cell_cache_key(_speedup_spec(), grep) == cell_cache_key(
            _speedup_spec(), grep
        )

    def test_model_name_and_policy_agree(self, grep):
        """A model named by string keys identically to its policy object."""
        by_name = _speedup_spec()
        by_policy = _speedup_spec(model=None, policy=MODELS["region_pred"])
        assert cell_cache_key(by_name, grep) == cell_cache_key(by_policy, grep)

    def test_policy_field_change_misses(self, grep):
        base = cell_cache_key(_speedup_spec(), grep)
        widened = dataclasses.replace(REGION_PRED, window_blocks=99)
        changed = cell_cache_key(
            _speedup_spec(model=None, policy=widened), grep
        )
        assert base != changed

    def test_config_field_change_misses(self, grep):
        base = cell_cache_key(_speedup_spec(), grep)
        changed = cell_cache_key(
            _speedup_spec(config=base_machine(num_load=1)), grep
        )
        assert base != changed

    def test_seed_change_misses(self, grep):
        base = cell_cache_key(_speedup_spec(), grep)
        reseeded = dataclasses.replace(grep, eval_seed=grep.eval_seed + 1)
        assert base != cell_cache_key(_speedup_spec(), reseeded)
        retrained = dataclasses.replace(grep, train_seed=grep.train_seed + 7)
        assert base != cell_cache_key(_speedup_spec(), retrained)

    def test_kind_and_extras_discriminate(self, grep):
        speedup = cell_cache_key(_speedup_spec(), grep)
        stats = cell_cache_key(_speedup_spec(kind="compile_stats"), grep)
        assert speedup != stats
        a = cell_cache_key(
            _speedup_spec(kind="unroll", extras=(("factor", 2),)), grep
        )
        b = cell_cache_key(
            _speedup_spec(kind="unroll", extras=(("factor", 4),)), grep
        )
        assert a != b

    def test_run_machine_flag_discriminates(self, grep):
        assert cell_cache_key(
            _speedup_spec(run_machine=True), grep
        ) != cell_cache_key(_speedup_spec(), grep)


class TestCellRunner:
    def test_cold_then_warm(self, tmp_path):
        specs = [
            _speedup_spec(),
            _speedup_spec(model="trace"),
        ]
        cold = ExperimentContext(cache_dir=tmp_path)
        first = cold.run_cells(specs)
        assert cold.runner.stats.misses == 2
        assert cold.runner.stats.hits == 0

        warm = ExperimentContext(cache_dir=tmp_path)
        second = warm.run_cells(specs)
        assert warm.runner.stats.hits == 2
        assert warm.runner.stats.misses == 0
        assert first == second

    def test_duplicate_specs_compute_once(self, tmp_path):
        ctx = ExperimentContext(cache_dir=tmp_path)
        results = ctx.run_cells([_speedup_spec(), _speedup_spec()])
        assert results[0] == results[1]
        assert len(ctx.runner.stats.cell_times) == 1
        # Per-cell telemetry is integer perf_counter_ns durations.
        assert isinstance(ctx.runner.stats.cell_times[0][1], int)
        # Both cells are accounted for in the miss counter.
        assert ctx.runner.stats.misses == 2

    def test_no_cache_dir_recomputes(self):
        ctx = ExperimentContext()
        ctx.run_cells([_speedup_spec()])
        ctx.run_cells([_speedup_spec()])
        assert ctx.runner.stats.hits == 0
        assert ctx.runner.stats.misses == 2

    def test_corrupt_cache_entry_recomputed(self, tmp_path, grep):
        ctx = ExperimentContext(cache_dir=tmp_path)
        ctx.run_cells([_speedup_spec()])
        (entry,) = tmp_path.glob("*.json")
        entry.write_text("{not json")
        again = ExperimentContext(cache_dir=tmp_path)
        result = again.run_cells([_speedup_spec()])
        assert again.runner.stats.misses == 1
        assert result[0]["speedup"] > 1.0
        # The recomputed value was re-persisted as valid JSON.
        assert json.loads(entry.read_text())["values"] == result[0]

    def test_stale_cache_version_recomputed(self, tmp_path):
        ctx = ExperimentContext(cache_dir=tmp_path)
        ctx.run_cells([_speedup_spec()])
        (entry,) = tmp_path.glob("*.json")
        document = json.loads(entry.read_text())
        document["version"] = -1
        entry.write_text(json.dumps(document))
        again = ExperimentContext(cache_dir=tmp_path)
        again.run_cells([_speedup_spec()])
        assert again.runner.stats.misses == 1

    def test_other_source_digest_misses_every_cell(
        self, tmp_path, monkeypatch
    ):
        import repro.eval.runner as runner

        specs = [_speedup_spec(), _speedup_spec(model="trace")]
        monkeypatch.setattr(runner, "source_digest", lambda: "code-a")
        ExperimentContext(cache_dir=tmp_path).run_cells(specs)

        monkeypatch.setattr(runner, "source_digest", lambda: "code-b")
        other = ExperimentContext(cache_dir=tmp_path)
        other.run_cells(specs)
        assert other.runner.stats.misses == 2
        assert other.runner.stats.hits == 0

        monkeypatch.setattr(runner, "source_digest", lambda: "code-a")
        same = ExperimentContext(cache_dir=tmp_path)
        same.run_cells(specs)
        assert same.runner.stats.hits == 2
        assert same.runner.stats.misses == 0

    def test_source_digest_is_computed_once(self):
        from repro.eval.runner import source_digest

        digest = source_digest()
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert source_digest() is digest

    def test_parallel_matches_serial(self, tmp_path):
        specs = [
            _speedup_spec(workload=name, model=model)
            for name in ("grep", "li")
            for model in ("global", "trace", "region_pred")
        ]
        serial = ExperimentContext().run_cells(specs)
        parallel_ctx = ExperimentContext(jobs=2, cache_dir=tmp_path / "c")
        parallel = parallel_ctx.run_cells(specs)
        assert serial == parallel

    def test_report_mentions_hits_and_misses(self, tmp_path):
        ctx = ExperimentContext(cache_dir=tmp_path)
        ctx.run_cells([_speedup_spec()])
        ctx.run_cells([_speedup_spec()])
        text = ctx.runner.stats.report()
        assert "hits 1" in text and "misses 1" in text
        assert "slowest" in text


class TestEvaluateCell:
    def test_baseline_cell(self, grep):
        ctx = ExperimentContext()
        values = evaluate_cell(CellSpec(kind="baseline", workload="grep"), ctx)
        assert values["cycles"] > 0
        assert values["lines"] == grep.program.static_line_count()

    def test_accuracy_cell_length(self):
        ctx = ExperimentContext()
        values = evaluate_cell(
            CellSpec(
                kind="accuracy", workload="grep", extras=(("max_run", 3),)
            ),
            ctx,
        )
        assert len(values["accuracy"]) == 3

    def test_compile_stats_cell(self):
        ctx = ExperimentContext()
        values = evaluate_cell(
            CellSpec(
                kind="compile_stats",
                workload="li",
                model="region_pred",
                config=base_machine(),
            ),
            ctx,
        )
        assert values["speedup"] > 1.0
        assert values["expansion"] >= 1.0

    def test_hwcost_cell_needs_no_workload(self):
        ctx = ExperimentContext(workloads=[])
        values = evaluate_cell(CellSpec(kind="hwcost"), ctx)
        assert values["predicate_eval_gate_delay"] == 3

    def test_unknown_kind_rejected(self):
        ctx = ExperimentContext()
        with pytest.raises(ValueError, match="unknown cell kind"):
            evaluate_cell(CellSpec(kind="mystery", workload="grep"), ctx)


class TestRunnerTelemetry:
    """ExperimentContext runner telemetry through a metrics sink."""

    def test_cache_hits_and_misses_counted_into_sink(self, tmp_path):
        from repro.obs.metrics import CounterSink

        sink = CounterSink()
        ctx = ExperimentContext(
            [get_workload("grep")], cache_dir=tmp_path, sink=sink
        )
        specs = [_speedup_spec(workload="grep")]
        ctx.run_cells(specs)
        assert sink.counter("runner.cache_misses") == 1
        assert sink.counter("runner.cache_hits") == 0
        ctx.run_cells(specs)
        assert sink.counter("runner.cache_hits") == 1

    def test_stats_to_metrics_shape(self, tmp_path):
        ctx = ExperimentContext([get_workload("grep")], cache_dir=tmp_path)
        ctx.run_cells([_speedup_spec(workload="grep")])
        metrics = ctx.runner.stats.to_metrics()
        assert metrics["counters"]["runner.cells"] == 1
        assert metrics["counters"]["runner.cache_misses"] == 1
        assert isinstance(metrics["wall_ns"], int)
        assert metrics["wall_ns"] > 0
        assert metrics["wall_seconds"] >= 0.0
        assert metrics["wall_seconds"] == pytest.approx(
            metrics["wall_ns"] / 1e9, abs=1e-6
        )

    def test_speedup_cells_carry_btb_statistics(self):
        ctx = ExperimentContext([get_workload("grep")])
        config = dataclasses.replace(base_machine(), btb_entries=64)
        cell = evaluate_cell(_speedup_spec(workload="grep", config=config), ctx)
        assert cell["btb_hits"] > 0
        assert cell["btb_misses"] > 0  # compulsory misses at least
        optimistic = evaluate_cell(_speedup_spec(workload="grep"), ctx)
        assert optimistic["btb_hits"] == 0 == optimistic["btb_misses"]
