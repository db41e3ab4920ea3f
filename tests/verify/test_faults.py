"""Fault-injection campaigns: corruption is never a silent wrong answer.

Every injected corruption of buffered speculative state must resolve to
an outcome the architecture (or the oracle) accounts for -- masked,
recovered, detected, or (for CCR flips, which corrupt decided
architectural state) an oracle-caught divergence.  A trial whose outcome
falls outside the per-point allowance is a violation and fails the
campaign.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import repro.verify.faults as faults
import repro.verify.oracle as oracle
from repro.obs.metrics import CounterSink
from repro.verify.faults import (
    ALLOWED_OUTCOMES,
    INJECTION_POINTS,
    run_fault_campaign,
)


class TestCampaign:
    def test_no_violations_across_all_points(self):
        report = run_fault_campaign(8, seed=0)
        assert not report.violations, report.describe()
        assert len(report.results) == 8

    def test_every_point_is_exercised(self):
        report = run_fault_campaign(8, seed=0)
        matrix = report.outcome_matrix()
        assert set(matrix) == set(INJECTION_POINTS)

    def test_outcomes_respect_the_allowance(self):
        report = run_fault_campaign(8, seed=0)
        for result in report.results:
            if result.outcome == "not_applied":
                continue
            assert result.outcome in ALLOWED_OUTCOMES[result.point], (
                result.describe()
            )

    def test_recovery_path_is_actually_taken(self):
        """Spurious E flags on buffered state must force recoveries in
        at least some trials -- otherwise the campaign isn't testing the
        Section 3 recovery machinery at all."""
        report = run_fault_campaign(
            8, seed=0, points=("regfile", "store_buffer")
        )
        outcomes = [r.outcome for r in report.results]
        assert "recovered" in outcomes, outcomes

    def test_deterministic(self):
        assert (
            run_fault_campaign(4, seed=5).to_dict()
            == run_fault_campaign(4, seed=5).to_dict()
        )

    def test_report_is_json_native(self):
        document = run_fault_campaign(4, seed=0).to_dict()
        json.dumps(document)
        assert document["trials"] == 4

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            run_fault_campaign(1, seed=0, points=("tlb",))

    def test_sink_counters(self):
        sink = CounterSink()
        report = run_fault_campaign(4, seed=0, sink=sink)
        counters = sink.to_dict()["counters"]
        assert counters["faults.trials"] == 4
        assert "faults.violations" not in counters
        applied = [r for r in report.results if r.outcome != "not_applied"]
        for result in applied:
            assert counters[f"faults.{result.point}.{result.outcome}"] >= 1


    def test_a_trial_compiles_each_probed_program_once(self, monkeypatch):
        """The injected run replays the probe's compiled program: a
        trial compiles once per program it probes, not once per run."""
        counts = {"compile": 0, "generate": 0}
        compile_program, generate = oracle.compile_program, faults.generate

        def counting_compile(*args, **kwargs):
            counts["compile"] += 1
            return compile_program(*args, **kwargs)

        def counting_generate(*args, **kwargs):
            counts["generate"] += 1
            return generate(*args, **kwargs)

        monkeypatch.setattr(oracle, "compile_program", counting_compile)
        monkeypatch.setattr(faults, "generate", counting_generate)
        (result,) = run_fault_campaign(1, seed=0, points=("ccr",)).results
        assert result.outcome != "not_applied"
        assert counts == {"compile": 1, "generate": 1}


class TestFrozenCampaigns:
    """Campaign results are pinned trial by trial.

    ``golden/fault_campaigns.json`` holds every trial (program seed,
    trigger cycle, chosen target, outcome) of three campaigns, captured
    before the register file tracked its live entries.  The probe and
    the injector read the buffered state directly, so a change in which
    targets they see -- or in their order, which the target RNG draws
    from -- shows up here as a different detail or outcome.
    """

    GOLDEN = Path(__file__).with_name("golden") / "fault_campaigns.json"

    @pytest.mark.parametrize("seed", (0, 5, 11))
    def test_trials_match_the_frozen_campaign(self, seed):
        expected = json.loads(self.GOLDEN.read_text())[str(seed)]
        report = run_fault_campaign(24, seed=seed)
        assert [dataclasses.asdict(r) for r in report.results] == expected
