"""Every frozen case under ``findings/`` loads, round-trips and replays.

The case files are the reproduction's regression corpus: each must load
through the case loader, write itself back byte for byte, and replay
with its recorded verdict -- an equivalence case stays EQUIVALENT, a
security case leaks through its pinned channel.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.verify.case import ReproCase

FINDINGS = sorted(
    (Path(__file__).resolve().parents[2] / "findings").glob("*.json")
)


def test_corpus_is_present():
    assert [path.stem for path in FINDINGS] == [
        "case-synthetic-1803", "case-taint-3-0", "case-taint-3-1",
    ]


@pytest.mark.parametrize("path", FINDINGS, ids=lambda path: path.stem)
def test_case_round_trips_byte_for_byte(path):
    assert ReproCase.load(path).to_json() == path.read_text()


@pytest.mark.parametrize("path", FINDINGS, ids=lambda path: path.stem)
def test_case_replays_with_its_verdict(path):
    case = ReproCase.load(path)
    result = case.run()
    if case.check == "security":
        assert case.expected_kind is not None
        assert case.expected_kind in {leak.kind for leak in result.leaks}
    else:
        assert result.equivalent, result.describe()
