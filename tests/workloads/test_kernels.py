"""Tests for the six benchmark-analogue kernels."""

import importlib

import pytest

from repro.analysis.branch_prediction import StaticPredictor
from repro.ir import build_cfg
from repro.machine.scalar import run_scalar
from repro.sim.interpreter import run_program
from repro.workloads import all_workloads, get_workload


@pytest.fixture(scope="module")
def workloads():
    return all_workloads()


class TestRegistry:
    def test_six_kernels_in_paper_order(self, workloads):
        assert [w.name for w in workloads] == [
            "compress", "eqntott", "espresso", "grep", "li", "nroff",
        ]

    def test_get_workload(self):
        assert get_workload("grep").name == "grep"
        with pytest.raises(KeyError):
            get_workload("doom")

    def test_get_workload_parses_only_the_named_kernel(self, monkeypatch):
        # serve resolves every job through get_workload; building all six
        # kernels per job parsed six programs for the one it needed.
        from repro.isa.parser import parse_program
        from repro.workloads.registry import KERNELS

        parsed = []

        def counting(source, **kwargs):
            parsed.append(kwargs.get("name"))
            return parse_program(source, **kwargs)

        for name in KERNELS:
            module = importlib.import_module(f"repro.workloads.{name}")
            monkeypatch.setattr(module, "parse_program", counting)
        assert get_workload("li").name == "li"
        assert parsed == ["li"]


class TestExecution:
    @pytest.mark.parametrize(
        "name", ["compress", "eqntott", "espresso", "grep", "li", "nroff"]
    )
    def test_runs_and_produces_output(self, name):
        workload = get_workload(name)
        result = run_program(workload.program, workload.eval_memory())
        assert result.halted
        assert result.output, f"{name} produced no observable output"

    @pytest.mark.parametrize(
        "name", ["compress", "eqntott", "espresso", "grep", "li", "nroff"]
    )
    def test_deterministic_per_seed(self, name):
        workload = get_workload(name)
        first = run_program(workload.program, workload.make_memory(5))
        second = run_program(workload.program, workload.make_memory(5))
        assert first.output == second.output

    @pytest.mark.parametrize(
        "name", ["compress", "eqntott", "espresso", "grep", "li", "nroff"]
    )
    def test_seeds_change_behaviour(self, name):
        workload = get_workload(name)
        first = run_program(workload.program, workload.make_memory(1))
        second = run_program(workload.program, workload.make_memory(2))
        assert first.output != second.output


class TestBranchBands:
    """The kernels must land in the paper's Table 3 predictability bands."""

    def accuracy(self, name: str) -> float:
        workload = get_workload(name)
        cfg = build_cfg(workload.program)
        train = run_scalar(workload.program, cfg, workload.train_memory())
        predictor = StaticPredictor.from_trace(train.trace)
        evaluation = run_scalar(workload.program, cfg, workload.eval_memory())
        return predictor.accuracy_on(evaluation.trace)

    @pytest.mark.parametrize("name", ["grep", "nroff"])
    def test_predictable_kernels(self, name):
        assert self.accuracy(name) >= 0.93

    @pytest.mark.parametrize(
        "name", ["compress", "eqntott", "espresso", "li"]
    )
    def test_unpredictable_kernels(self, name):
        assert self.accuracy(name) <= 0.90


class TestKernelBehaviour:
    def test_compress_emits_codes_and_misses(self):
        workload = get_workload("compress")
        result = run_program(workload.program, workload.eval_memory())
        checksum, next_code, misses = result.output
        assert next_code == misses  # one new code per miss
        assert 0 < misses < 400  # both hits and misses occurred

    def test_eqntott_tallies_sum_to_differing_elements(self):
        workload = get_workload("eqntott")
        result = run_program(workload.program, workload.eval_memory())
        less, greater, _ = result.output
        assert less > 0 and greater > 0

    def test_espresso_counts_bounded(self):
        workload = get_workload("espresso")
        result = run_program(workload.program, workload.eval_memory())
        nonempty, contained, _ = result.output
        assert 0 <= contained <= nonempty <= 40

    def test_grep_finds_planted_matches(self):
        workload = get_workload("grep")
        result = run_program(workload.program, workload.eval_memory())
        matches, last_position, _ = result.output
        assert matches >= 1
        assert last_position > 0

    def test_li_counts_cell_kinds(self):
        workload = get_workload("li")
        result = run_program(workload.program, workload.eval_memory())
        _, cons_count, symbol_count = result.output
        assert cons_count > 0 and symbol_count > 0

    def test_nroff_emits_lines_and_words(self):
        workload = get_workload("nroff")
        result = run_program(workload.program, workload.eval_memory())
        lines, words, _ = result.output
        assert lines > 0 and words > lines
