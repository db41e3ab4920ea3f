"""The JSON-lines request protocol: parsing, keys, round-trips."""

import json

import pytest

from repro.compiler.models import MODEL_ALIASES, MODEL_NAMES
from repro.serve.protocol import (
    ProtocolError,
    dumps_response,
    job_from_payload,
    job_to_payload,
    parse_request,
    resolve_request,
    response_ok,
)

TINY = "li r1, 41\naddi r1, r1, 1\nout r1\nhalt\n"


def _job(**fields):
    document = {"id": "j1", **fields}
    return resolve_request(parse_request(document))


class TestParse:
    def test_happy_path_defaults(self):
        spec = parse_request(
            json.dumps({"id": "j1", "workload": "grep"})
        )
        assert spec.id == "j1"
        assert spec.client == "anonymous"
        assert spec.kind == "simulate"
        assert spec.model == "region_pred"

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("nope", "not JSON"),
            (json.dumps([1, 2]), "JSON object"),
            (json.dumps({"workload": "grep"}), "string 'id'"),
            (json.dumps({"id": "x" * 200, "workload": "grep"}), "id"),
            (json.dumps({"id": "j", "client": ""}), "client"),
            (json.dumps({"id": "j", "kind": "exotic"}), "unknown kind"),
            (json.dumps({"id": "j"}), "exactly one of"),
            (
                json.dumps({"id": "j", "workload": "grep", "program": "halt"}),
                "exactly one of",
            ),
            (
                json.dumps({"id": "j", "workload": "grep", "model": "vliw9"}),
                "unknown model",
            ),
            (
                json.dumps({"id": "j", "workload": "grep", "seed": "two"}),
                "seed",
            ),
            (
                json.dumps(
                    {"id": "j", "workload": "grep", "config": {"warp": 9}}
                ),
                "config field",
            ),
            (
                json.dumps(
                    {"id": "j", "workload": "grep", "memory": {"a": "b"}}
                ),
                "memory",
            ),
            (
                json.dumps(
                    {"id": "j", "kind": "chaos", "chaos": {"mode": "explode"}}
                ),
                "chaos mode",
            ),
        ],
    )
    def test_rejections_carry_the_reason(self, line, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            parse_request(line)


class TestResolve:
    def test_workload_default_seed_is_eval_seed(self):
        from repro.workloads import get_workload

        job = _job(workload="grep", model="scalar")
        assert job.seed == get_workload("grep").eval_seed
        assert job.name == "grep"
        assert job.key and job.group

    def test_same_group_different_key_across_seeds(self):
        a = _job(workload="grep", model="scalar")
        b = _job(workload="grep", model="scalar", seed=99)
        assert a.group == b.group
        assert a.key != b.key

    def test_predicating_is_region_pred(self):
        alias = _job(workload="grep", model="predicating")
        canonical = _job(workload="grep", model="region_pred")
        assert alias.model == "region_pred"
        assert alias.key == canonical.key

    @pytest.mark.parametrize("model", ["scalar", *MODEL_NAMES])
    def test_every_model_is_a_job_model(self, model):
        job = _job(workload="grep", model=model)
        assert job.model == MODEL_ALIASES.get(model, model)

    def test_model_changes_the_key(self):
        assert (
            _job(workload="grep", model="scalar").key
            != _job(workload="grep", model="region_pred").key
        )

    def test_config_override_changes_the_key(self):
        assert (
            _job(workload="grep", model="scalar").key
            != _job(
                workload="grep", model="scalar", config={"issue_width": 8}
            ).key
        )

    def test_inline_program_text_is_normalized(self):
        # Same instructions, different surface whitespace: same identity.
        a = _job(program=TINY, model="scalar")
        b = _job(program=TINY.replace(", ", ",  "), model="scalar")
        assert a.key == b.key

    def test_inline_parse_error_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="bad program"):
            _job(program="frobnicate r9\n", model="scalar")

    def test_unknown_workload_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            _job(workload="nope")

    def test_bad_config_value_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="bad machine config"):
            _job(workload="grep", config={"issue_width": 0})

    def test_chaos_identity_is_the_chaos_payload(self):
        a = _job(kind="chaos", chaos={"mode": "ok", "value": 1})
        b = _job(kind="chaos", chaos={"mode": "ok", "value": 2})
        assert a.key != b.key
        assert a.key == a.group


class TestJournalPayload:
    @pytest.mark.parametrize(
        "fields",
        [
            {"workload": "grep", "model": "scalar", "seed": 5},
            {
                "program": TINY,
                "model": "region_pred",
                "memory": {"100": 7},
                "config": {"issue_width": 4},
            },
            {"kind": "chaos", "chaos": {"mode": "ok", "value": 3}},
        ],
    )
    def test_round_trip(self, fields):
        job = _job(**fields)
        rebuilt = job_from_payload(job_to_payload(job))
        assert rebuilt == job
        assert rebuilt.key == job.key
        assert rebuilt.group == job.group


class TestResponses:
    def test_dumps_is_canonical(self):
        response = response_ok("j1", "k", {"b": 2, "a": 1})
        assert dumps_response(response) == dumps_response(dict(response))
        assert "\n" not in dumps_response(response)
        assert json.loads(dumps_response(response))["status"] == "ok"
