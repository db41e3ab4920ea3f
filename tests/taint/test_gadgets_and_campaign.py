"""Gadget ground truth, campaign determinism, and shrink/replay.

The campaign's value is that every gadget carries its own ground truth:
the detector is *checked*, not trusted.  These tests pin (a) each
variant's expected verdict and leak kind, (b) bit-identical derivation
and reports for a fixed seed, and (c) that a caught gadget shrinks to a
smaller replayable case that still exhibits the pinned leak kind.
"""

import json

from repro.taint import (
    CLEAN_VARIANTS,
    LEAKY_VARIANTS,
    build_gadget,
    derive_gadget,
    run_security_fuzz,
)
from repro.verify.case import ReproCase
from repro.verify.shrink import shrink_case
from repro.taint.gadget import EXPECTED_KIND

import random


class TestGroundTruth:
    def test_every_leaky_variant_is_detected_with_its_kind(self):
        for variant in LEAKY_VARIANTS:
            spec = build_gadget(1, 0, variant, random.Random("t"))
            result = ReproCase.from_gadget(spec).run()
            assert result.error is None, (variant, result.error)
            assert not result.secure, variant
            assert result.first_leak.kind == EXPECTED_KIND[variant]

    def test_every_clean_variant_is_secure(self):
        for variant in CLEAN_VARIANTS:
            spec = build_gadget(1, 0, variant, random.Random("t"))
            result = ReproCase.from_gadget(spec).run()
            assert result.error is None, (variant, result.error)
            assert result.secure, (variant, result.describe())

    def test_checked_variant_never_even_sources(self):
        # The repaired shape resolves the bounds check before the load
        # issues: the load is squashed at issue, never executed, so it
        # must not mint a taint source at all.
        spec = build_gadget(1, 0, "checked", random.Random("t"))
        result = ReproCase.from_gadget(spec).run()
        assert result.counters["sources"] == 0


class TestDeterminism:
    def test_derivation_is_pure(self):
        for index in range(6):
            assert derive_gadget(11, index) == derive_gadget(11, index)

    def test_same_seed_same_report(self):
        first = run_security_fuzz(6, 11)
        second = run_security_fuzz(6, 11)
        assert first.to_dict() == second.to_dict()
        assert first.mismatches == []
        assert first.detected + first.clean == 6

    def test_campaign_covers_both_fates(self):
        report = run_security_fuzz(12, 5)
        assert report.ok
        assert report.detected > 0
        assert report.clean > 0


class TestShrinkAndReplay:
    def test_caught_gadget_shrinks_and_replays(self, tmp_path):
        report = run_security_fuzz(
            8, 3, shrink=True, out_dir=tmp_path
        )
        assert report.ok
        assert report.findings, "seed 3 should catch at least one gadget"
        for finding in report.findings:
            assert finding.shrunk_bundles <= finding.original_bundles
            assert finding.case_path is not None

            # Round-trip through the saved JSON and re-run: the pinned
            # leak kind must reproduce from the file alone.
            loaded = ReproCase.load(finding.case_path)
            assert loaded.expected_kind == finding.spec.expected_kind
            replay = loaded.run()
            assert not replay.secure
            assert any(
                leak.kind == loaded.expected_kind for leak in replay.leaks
            )

    def test_saved_case_is_valid_schema(self, tmp_path):
        report = run_security_fuzz(8, 3, shrink=True, out_dir=tmp_path)
        finding = report.findings[0]
        from pathlib import Path

        document = json.loads(Path(finding.case_path).read_text())
        assert document["schema"] == "repro-security-case/v1"
        round_tripped = ReproCase.from_dict(document)
        assert round_tripped.program_text == ReproCase.load(
            finding.case_path
        ).program_text

    def test_shrink_pins_the_leak_kind(self):
        spec = build_gadget(2, 0, "store", random.Random("s"))
        case = ReproCase.from_gadget(spec)
        shrink = shrink_case(case, category="memory")
        shrunk, attempts = shrink.case, shrink.attempts
        assert attempts > 0
        assert shrunk.size() <= case.size()
        result = shrunk.run()
        assert any(leak.kind == "memory" for leak in result.leaks)
