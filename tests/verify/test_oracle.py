"""The differential oracle: golden-model equivalence and divergence reports.

``TestDifferentialSmoke`` is the ISSUE's tier-1 smoke matrix: every
registry workload under every executable machine model must reach
bit-identical architectural state on the cycle-level machine and the
scalar interpreter.
"""

import json

import pytest

from repro.compiler.models import MODEL_NAMES, MODELS
from repro.isa.registers import NUM_REGS
from repro.machine.config import base_machine
from repro.machine.vliw import VLIWMachine
from repro.verify import (
    OracleResult,
    resolve_model,
    run_oracle,
)
from repro.verify.oracle import prepare
from repro.obs.metrics import CounterSink
from repro.workloads import all_workloads, get_workload

EXECUTABLE_MODELS = ("region_pred", "trace_pred")
WORKLOAD_NAMES = [workload.name for workload in all_workloads()]


def oracle_for(name: str, model: str, **kwargs) -> OracleResult:
    workload = get_workload(name)
    return run_oracle(
        workload.program,
        model,
        base_machine(),
        train_memory=workload.train_memory(),
        eval_memory=workload.eval_memory(),
        **kwargs,
    )


class TestDifferentialSmoke:
    """Every workload x every machine model, exact-state equivalence."""

    @pytest.mark.parametrize("model", EXECUTABLE_MODELS)
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_is_equivalent(self, name, model):
        result = oracle_for(name, model)
        assert result.equivalent, result.describe()
        # The comparison really covered state, not a trivial empty run.
        assert result.compared_registers > 0
        assert result.machine_cycles > 0
        assert result.speedup > 1.0

    def test_predicating_alias_runs_region_pred(self):
        result = oracle_for("grep", "predicating")
        assert result.equivalent
        assert result.model == "region_pred"


class TestResolveModel:
    def test_alias(self):
        assert resolve_model("predicating") == "region_pred"

    def test_identity(self):
        for model in ("region_pred", "trace_pred"):
            assert resolve_model(model) == model

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            resolve_model("superscalar")

    def test_every_model_resolves(self):
        for model in MODELS:
            assert resolve_model(model) == model

    def test_verify_models_all_resolve(self):
        for model in MODEL_NAMES:
            assert resolve_model(model) in MODELS


class _LyingMachine(VLIWMachine):
    """Corrupts the first output value the scalar semantics produced."""

    def run(self):
        result = super().run()
        result.output[0] = 999_999
        return result


def _clobbering_machine(reg: int):
    """A machine that ends with *reg* holding a value nothing wrote."""

    class Clobbering(VLIWMachine):
        def run(self):
            result = super().run()
            registers = list(result.registers)
            registers[reg] += 1
            result.registers = tuple(registers)
            return result

    return Clobbering


class TestRegisterRule:
    """Renaming leaves fresh registers and deleted copies' home registers
    with other values than the scalar run; the oracle skips exactly
    those registers, which the compiler reports."""

    def clobbered(self, name: str, model: str) -> frozenset[int]:
        workload = get_workload(name)
        return prepare(
            workload.program,
            model,
            train_memory=workload.train_memory(),
            eval_memory=workload.eval_memory(),
        ).clobbered

    def test_renaming_model_skips_only_clobbered_registers(self):
        clobbered = self.clobbered("li", "trace")
        assert clobbered
        result = oracle_for("li", "trace")
        assert result.equivalent, result.describe()
        assert result.compared_registers == NUM_REGS - len(clobbered)
        skipped = oracle_for(
            "li", "trace", machine_factory=_clobbering_machine(min(clobbered))
        )
        assert skipped.equivalent, skipped.describe()
        kept = min(set(range(1, NUM_REGS)) - clobbered)
        caught = oracle_for(
            "li", "trace", machine_factory=_clobbering_machine(kept)
        )
        assert not caught.equivalent
        assert caught.report.sites[0].locus == f"r{kept}"

    def test_predicating_models_compare_every_register(self):
        for model in ("region_pred", "trace_pred"):
            assert self.clobbered("li", model) == frozenset()
            assert oracle_for("li", model).compared_registers == NUM_REGS


class TestDivergenceReport:
    def test_broken_machine_is_caught(self):
        result = oracle_for("grep", "region_pred", machine_factory=_LyingMachine)
        assert not result.equivalent
        report = result.report
        assert report is not None
        assert report.category == "output"
        assert report.sites
        assert report.sites[0].kind == "output"
        assert report.sites[0].locus == "out[0]"
        assert report.sites[0].actual == 999_999

    def test_report_serializes_to_json(self):
        result = oracle_for("grep", "region_pred", machine_factory=_LyingMachine)
        document = result.to_dict()
        text = json.dumps(document)  # must be JSON-native throughout
        assert "999999" in text
        assert document["report"]["category"] == "output"

    def test_describe_names_the_divergence(self):
        result = oracle_for("grep", "region_pred", machine_factory=_LyingMachine)
        described = result.describe()
        assert "DIVERGED" in described
        assert "output" in described

    def test_sink_counts_divergences(self):
        sink = CounterSink()
        oracle_for("grep", "region_pred", machine_factory=_LyingMachine, sink=sink)
        counters = sink.to_dict()["counters"]
        assert counters["oracle.runs"] == 1
        assert counters["oracle.divergences"] == 1
        assert counters["oracle.divergences.output"] == 1

    def test_sink_counts_equivalent_runs(self):
        sink = CounterSink()
        oracle_for("grep", "region_pred", sink=sink)
        counters = sink.to_dict()["counters"]
        assert counters["oracle.equivalent"] == 1
        assert "oracle.divergences" not in counters
