"""Lockstep divergence forensics (``repro diff-trace``).

Two halves: on *correct* hardware the instrumented lockstep run must
agree with the oracle's verdict -- every registry workload under every
executable model yields matching effect streams and no divergence -- and
on deliberately *broken* hardware (the commit/squash inversion from
``test_fuzz_and_shrink``) the diff must pinpoint a first divergent
effect with flight-recorder context around it.
"""

import json

import pytest

from repro.machine.config import base_machine
from repro.verify import (
    ReproCase,
    merged_trace,
    run_diff_trace,
    validate_tracediff,
)
from repro.verify.fuzz import build_case, derive_campaign
from repro.verify.tracediff import TRACEDIFF_SCHEMA
from repro.workloads import all_workloads, get_workload
from tests.verify.test_fuzz_and_shrink import BuggyMachine

EXECUTABLE_MODELS = ("region_pred", "trace_pred")
WORKLOAD_NAMES = [workload.name for workload in all_workloads()]


def diff_for(name: str, model: str, **kwargs):
    workload = get_workload(name)
    return run_diff_trace(
        workload.program,
        model,
        base_machine(),
        train_memory=workload.train_memory(),
        eval_memory=workload.eval_memory(),
        **kwargs,
    )


class TestEquivalentStreams:
    """Where the oracle says EQUIVALENT, the effect streams agree."""

    @pytest.mark.parametrize("model", EXECUTABLE_MODELS)
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_streams_agree(self, name, model):
        result = diff_for(name, model)
        assert result.equivalent, result.describe()
        assert result.divergence is None
        # Both sides really committed effects.
        assert len(result.scalar.effects) > 0
        assert len(result.machine.effects) > 0
        # The schedule-invariant channels match exactly.
        scalar_outs = [e.value for e in result.scalar.effects.outs()]
        machine_outs = [e.value for e in result.machine.effects.outs()]
        assert scalar_outs == machine_outs

    @pytest.mark.parametrize("model", ["global", "squashing", "trace"])
    def test_renaming_models_skip_clobbered_registers(self, model):
        """The oracle's register rule holds here too: under the renaming
        models, grep's code leaves registers holding values the scalar
        run never put there, and those are not compared."""
        result = diff_for("grep", model)
        assert result.equivalent, result.describe()

    def test_equivalent_artifact_validates(self):
        document = diff_for("grep", "region_pred").to_dict()
        assert document["schema"] == TRACEDIFF_SCHEMA
        validate_tracediff(document)
        # And survives a JSON round trip.
        validate_tracediff(json.loads(json.dumps(document)))


class TestPinpointing:
    """Broken commit hardware is localized, not just detected."""

    @pytest.fixture(scope="class")
    def broken_result(self):
        # Campaign (seed 0, index 13) deterministically exposes the
        # inverted commit on a small program (see test_fuzz_and_shrink).
        case = build_case(derive_campaign(0, 13))
        return run_diff_trace(**case.inputs(), machine_factory=BuggyMachine)

    def test_divergence_is_found(self, broken_result):
        assert not broken_result.equivalent
        assert broken_result.divergence is not None
        divergence = broken_result.divergence
        assert divergence.channel in {"out", "register", "memory"}
        assert divergence.expected != divergence.actual

    def test_flight_window_surrounds_the_divergence(self, broken_result):
        # At least one side carries +-K events of mechanism context.
        assert broken_result.scalar_window or broken_result.machine_window
        for window in (broken_result.scalar_window, broken_result.machine_window):
            for event in window:
                assert event.kind
                assert event.cycle >= 0

    def test_describe_names_the_locus(self, broken_result):
        text = broken_result.describe()
        assert "DIVERGED" in text
        assert broken_result.divergence.locus in text

    def test_divergent_artifact_validates(self, broken_result):
        document = broken_result.to_dict()
        validate_tracediff(document)
        assert document["equivalent"] is False
        assert document["divergence"] is not None

    def test_same_case_is_clean_on_correct_hardware(self):
        case = build_case(derive_campaign(0, 13))
        result = run_diff_trace(**case.inputs())
        assert result.equivalent, result.describe()


class TestReplayedCase:
    def test_saved_case_replays_through_diff_trace(self, tmp_path):
        case = build_case(derive_campaign(0, 13))
        path = case.save(tmp_path / "case.json")
        replayed = ReproCase.load(path)
        result = run_diff_trace(**replayed.inputs(), machine_factory=BuggyMachine)
        assert not result.equivalent
        assert result.divergence is not None


class TestMergedTrace:
    def test_two_process_perfetto_document(self):
        result = diff_for("grep", "region_pred")
        events = merged_trace(result, None)
        assert events
        pids = {event["pid"] for event in events}
        assert pids == {1, 2}


class TestValidateTracediff:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_tracediff([])

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="not a tracediff artifact"):
            validate_tracediff({"schema": "repro-verify/v1"})

    def test_rejects_unexplained_divergence(self):
        document = diff_for("grep", "region_pred").to_dict()
        document["equivalent"] = False
        document["divergence"] = None
        with pytest.raises(ValueError, match="neither a divergence"):
            validate_tracediff(document)
