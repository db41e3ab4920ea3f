"""Round-trip tests: every experiment's to_dict() survives the artifact
schema, and the writer emits canonical, reloadable documents."""

import json

import pytest

from repro.eval import EXPERIMENTS, ExperimentContext, ExperimentOptions
from repro.eval.artifact import (
    SCHEMA,
    SCHEMA_V2,
    ArtifactError,
    artifact_path,
    dumps_artifact,
    load_artifact,
    make_artifact,
    validate_artifact,
    write_artifact,
)
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def small_ctx():
    return ExperimentContext([get_workload("grep"), get_workload("li")])


@pytest.fixture(scope="module")
def small_options():
    """Trimmed sweeps keep the full-registry round-trip fast."""
    return ExperimentOptions(
        max_run=3,
        widths=(2,),
        depths=(1, 2),
        factors=(1, 2),
        machines=((4, 4),),
    )


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_experiment_round_trips(name, small_ctx, small_options, tmp_path):
    result = EXPERIMENTS[name](small_ctx, small_options)
    document = make_artifact(name, result)
    validate_artifact(document)
    assert document["schema"] == SCHEMA
    assert document["experiment"] == name

    path = write_artifact(tmp_path, name, result)
    assert path == tmp_path / f"{name}.json"
    reloaded = load_artifact(path)
    assert reloaded == document


def test_dumps_is_canonical(small_ctx, small_options):
    result = EXPERIMENTS["table2"](small_ctx, small_options)
    first = dumps_artifact(make_artifact("table2", result))
    second = dumps_artifact(make_artifact("table2", result))
    assert first == second
    assert first.endswith("\n")


def test_artifact_path_resolution(tmp_path):
    assert artifact_path(tmp_path, "fig7") == tmp_path / "fig7.json"
    explicit = tmp_path / "custom.json"
    assert artifact_path(explicit, "fig7") == explicit


class TestValidation:
    def test_rejects_non_object(self):
        with pytest.raises(ArtifactError):
            validate_artifact([1, 2, 3])

    def test_rejects_wrong_schema(self):
        with pytest.raises(ArtifactError, match="schema"):
            validate_artifact(
                {"schema": "bogus/v9", "experiment": "x", "data": {"a": 1}}
            )

    def test_rejects_missing_experiment(self):
        with pytest.raises(ArtifactError, match="experiment"):
            validate_artifact({"schema": SCHEMA, "data": {"a": 1}})

    def test_rejects_empty_data(self):
        with pytest.raises(ArtifactError, match="data"):
            validate_artifact(
                {"schema": SCHEMA, "experiment": "x", "data": {}}
            )

    def test_rejects_non_json_payload(self):
        with pytest.raises(ArtifactError, match="non-JSON"):
            validate_artifact(
                {
                    "schema": SCHEMA,
                    "experiment": "x",
                    "data": {"bad": object()},
                }
            )

    def test_rejects_non_finite_floats(self):
        with pytest.raises(ArtifactError, match="non-finite"):
            validate_artifact(
                {
                    "schema": SCHEMA,
                    "experiment": "x",
                    "data": {"bad": float("inf")},
                }
            )

    def test_rejects_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ArtifactError, match="not JSON"):
            load_artifact(path)


class TestMetricsEnvelope:
    """The optional v2 ``metrics`` section (runner telemetry)."""

    METRICS = {
        "counters": {"runner.cells": 3},
        "wall_ns": 500_000_000,
        "wall_seconds": 0.5,
    }

    def test_metrics_promote_schema_to_v2(self, small_ctx, small_options):
        result = EXPERIMENTS["hwcost"](small_ctx, small_options)
        document = make_artifact("hwcost", result, metrics=self.METRICS)
        assert document["schema"] == SCHEMA_V2
        assert document["metrics"] == self.METRICS
        validate_artifact(document)

    def test_no_metrics_keeps_v1_byte_identical(self, small_ctx, small_options):
        """The v2 introduction must not change default artifacts."""
        result = EXPERIMENTS["hwcost"](small_ctx, small_options)
        plain = dumps_artifact(make_artifact("hwcost", result))
        explicit_none = dumps_artifact(
            make_artifact("hwcost", result, metrics=None)
        )
        assert plain == explicit_none
        assert json.loads(plain)["schema"] == SCHEMA

    def test_v1_with_metrics_rejected(self):
        with pytest.raises(ArtifactError, match="v1"):
            validate_artifact(
                {
                    "schema": SCHEMA,
                    "experiment": "x",
                    "data": {"a": 1},
                    "metrics": self.METRICS,
                }
            )

    def test_v2_without_metrics_rejected(self):
        with pytest.raises(ArtifactError, match="metrics"):
            validate_artifact(
                {"schema": SCHEMA_V2, "experiment": "x", "data": {"a": 1}}
            )

    def test_v2_metrics_payload_checked(self):
        with pytest.raises(ArtifactError, match="metrics"):
            validate_artifact(
                {
                    "schema": SCHEMA_V2,
                    "experiment": "x",
                    "data": {"a": 1},
                    "metrics": {"bad": float("nan")},
                }
            )

    def test_write_and_reload_v2(self, small_ctx, small_options, tmp_path):
        result = EXPERIMENTS["hwcost"](small_ctx, small_options)
        path = write_artifact(tmp_path, "hwcost", result, metrics=self.METRICS)
        reloaded = load_artifact(path)
        assert reloaded["schema"] == SCHEMA_V2
        assert reloaded["metrics"] == self.METRICS


class TestErrorsEnvelope:
    """The optional v2 ``errors`` section (failed cells of a sweep)."""

    ERRORS = [
        {
            "error": {
                "label": "speedup/grep/region_pred",
                "type": "BrokenProcessPool",
                "message": "worker died",
                "attempts": 3,
            }
        }
    ]

    def _result(self, small_ctx, small_options):
        return EXPERIMENTS["hwcost"](small_ctx, small_options)

    def test_errors_promote_schema_to_v2(self, small_ctx, small_options):
        document = make_artifact(
            "hwcost", self._result(small_ctx, small_options),
            errors=self.ERRORS,
        )
        assert document["schema"] == SCHEMA_V2
        assert document["errors"] == self.ERRORS
        validate_artifact(document)

    def test_empty_errors_list_keeps_v1(self, small_ctx, small_options):
        result = self._result(small_ctx, small_options)
        document = make_artifact("hwcost", result, errors=[])
        assert document["schema"] == SCHEMA
        assert "errors" not in document

    def test_v1_with_errors_rejected(self):
        with pytest.raises(ArtifactError, match="v1"):
            validate_artifact(
                {
                    "schema": SCHEMA,
                    "experiment": "x",
                    "data": {"a": 1},
                    "errors": self.ERRORS,
                }
            )

    def test_v2_empty_errors_rejected(self):
        with pytest.raises(ArtifactError, match="errors"):
            validate_artifact(
                {
                    "schema": SCHEMA_V2,
                    "experiment": "x",
                    "data": {"a": 1},
                    "errors": [],
                }
            )

    def test_nan_payload_scrubbed_to_null(self, small_ctx, small_options):
        """Failed cells leave NaN placeholders; the artifact writer must
        turn them into null rather than fail validation."""

        class _Result:
            def to_dict(self):
                return {"geomeans": {"region_pred": float("nan")}}

        document = make_artifact("fig7", _Result(), errors=self.ERRORS)
        assert document["data"]["geomeans"]["region_pred"] is None
        validate_artifact(document)

    def test_write_and_reload_with_errors(
        self, small_ctx, small_options, tmp_path
    ):
        result = self._result(small_ctx, small_options)
        path = write_artifact(tmp_path, "hwcost", result, errors=self.ERRORS)
        reloaded = load_artifact(path)
        assert reloaded["schema"] == SCHEMA_V2
        assert reloaded["errors"] == self.ERRORS
