"""The ``repro-security/v1`` artifact and the replayable case format."""

import pytest

from repro.taint import security_document, validate_security
from repro.verify.case import ReproCase
from repro.taint.gadget import build_gadget
from repro.workloads import get_workload
from repro.taint.oracle import run_security

import random


def _secure_result():
    workload = get_workload("li")
    return run_security(
        workload.program,
        model="region_pred",
        train_memory=workload.train_memory(),
        eval_memory=workload.eval_memory(),
    )


def _leaky_result():
    spec = build_gadget(1, 0, "direct-out", random.Random("a"))
    return ReproCase.from_gadget(spec).run()


class TestSecurityDocument:
    def test_document_validates_and_aggregates(self):
        secure, leaky = _secure_result(), _leaky_result()
        document = security_document([secure, leaky])
        validate_security(document)
        assert document["schema"] == "repro-security/v1"
        assert document["secure"] is False
        assert document["checked"] == 2
        assert document["leaks"] == len(leaky.leaks)

    def test_all_secure_document(self):
        document = security_document([_secure_result()])
        validate_security(document)
        assert document["secure"] is True
        assert document["leaks"] == 0

    def test_rejects_wrong_schema(self):
        document = security_document([_secure_result()])
        document["schema"] = "repro-security/v0"
        with pytest.raises(ValueError):
            validate_security(document)

    def test_rejects_missing_result_keys(self):
        document = security_document([_secure_result()])
        del document["results"][0]["leaks"]
        with pytest.raises(ValueError):
            validate_security(document)

    def test_rejects_inconsistent_secure_flag(self):
        document = security_document([_leaky_result()])
        document["secure"] = True
        with pytest.raises(ValueError):
            validate_security(document)


class TestSecurityCaseFormat:
    def test_round_trip(self):
        spec = build_gadget(4, 2, "store", random.Random("rt"))
        case = ReproCase.from_gadget(spec)
        rebuilt = ReproCase.from_json(case.to_json())
        assert rebuilt.program_text == case.program_text
        assert rebuilt.memory_words == case.memory_words
        assert rebuilt.expected_kind == case.expected_kind
        assert rebuilt.policy == case.policy

    def test_save_load(self, tmp_path):
        spec = build_gadget(4, 2, "alu-out", random.Random("rt"))
        case = ReproCase.from_gadget(spec)
        path = tmp_path / "case.json"
        case.save(path)
        loaded = ReproCase.load(path)
        assert loaded.program_text == case.program_text
        assert not loaded.run().secure

    def test_rejects_bad_schema(self):
        spec = build_gadget(4, 2, "store", random.Random("rt"))
        document = ReproCase.from_gadget(spec).to_dict()
        document["schema"] = "repro-case/v1"
        with pytest.raises(ValueError):
            ReproCase.from_dict(document)

    def test_rejects_unknown_policy(self):
        spec = build_gadget(4, 2, "store", random.Random("rt"))
        document = ReproCase.from_gadget(spec).to_dict()
        document["policy"] = "paranoid"
        with pytest.raises(ValueError):
            ReproCase.from_dict(document)

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError) as excinfo:
            ReproCase.load(path)
        assert "broken.json" in str(excinfo.value)
