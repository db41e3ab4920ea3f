"""The security fuzz campaign: search gadget space for leak channels.

``repro fuzz --mode security`` derives seed-deterministic gadgets
(:mod:`repro.taint.gadget`), runs each through the twin-run security
oracle, and cross-checks the detector against the generator's ground
truth:

* a **leaky** gadget the detector misses is a *false negative*;
* a **clean** gadget the detector flags is a *false positive*;

either is a detector bug, reported as a ``mismatch`` (the campaign's
real finding class -- the gadgets themselves are known quantities).
Detected leaks are optionally delta-debugged with the shared
:func:`~repro.verify.shrink.shrink_case` (leak *kind* pinned, so the
minimal gadget still leaks through the same channel) and frozen to
``findings/case-taint-<seed>-<index>.json`` for replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.taint.gadget import GadgetSpec, derive_gadget
from repro.taint.oracle import SecurityResult
from repro.verify.case import ReproCase
from repro.verify.shrink import shrink_case

#: Artifact identifier for the campaign report; bump on layout changes.
SECURITY_FUZZ_SCHEMA = "repro-security-fuzz/v1"

#: Candidates one gadget shrink may try.
SHRINK_MAX_ATTEMPTS = 500


@dataclass
class SecurityFinding:
    """One detected leak, frozen (and possibly shrunk) for replay."""

    spec: GadgetSpec
    result: SecurityResult
    case: ReproCase
    original_bundles: int = 0
    shrunk_bundles: int = 0
    shrink_attempts: int = 0
    case_path: str | None = None

    def describe(self) -> str:
        lines = [self.spec.describe(), self.result.describe()]
        if self.shrink_attempts:
            lines.append(
                f"shrunk {self.original_bundles} -> {self.shrunk_bundles} "
                f"bundles ({self.shrink_attempts} candidates)"
            )
        if self.case_path is not None:
            lines.append(f"security case: {self.case_path}")
        return "\n".join(lines)


@dataclass
class SecurityFuzzReport:
    """Outcome of one security campaign run."""

    seed: int
    campaigns: int
    policy: str
    findings: list[SecurityFinding] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    detected: int = 0
    clean: int = 0

    @property
    def ok(self) -> bool:
        """True when the detector agreed with ground truth everywhere."""
        return not self.mismatches

    def summary(self) -> str:
        lines = [
            f"security fuzz: {self.campaigns} gadgets (seed {self.seed}, "
            f"policy {self.policy}): {self.detected} leaks detected, "
            f"{self.clean} clean, {len(self.mismatches)} detector mismatches"
        ]
        lines.extend(f"  MISMATCH: {text}" for text in self.mismatches)
        for finding in self.findings:
            lines.append(finding.describe())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": SECURITY_FUZZ_SCHEMA,
            "seed": self.seed,
            "campaigns": self.campaigns,
            "policy": self.policy,
            "detected": self.detected,
            "clean": self.clean,
            "mismatches": list(self.mismatches),
            "findings": [
                {
                    "gadget": finding.spec.describe(),
                    "variant": finding.spec.variant,
                    "first_leak": (
                        finding.result.first_leak.to_dict()
                        if finding.result.first_leak
                        else None
                    ),
                    "case_path": finding.case_path,
                    "shrunk_bundles": finding.shrunk_bundles or None,
                }
                for finding in self.findings
            ],
        }


def run_security_fuzz(
    campaigns: int,
    seed: int,
    *,
    policy: str = "committed",
    shrink: bool = False,
    out_dir=None,
    sink: MetricsSink = NULL_SINK,
    progress=None,
) -> SecurityFuzzReport:
    """Run *campaigns* gadget checks derived from *seed*.

    With *shrink*, each detected leak is delta-debugged to a minimal
    gadget before serialization; with *out_dir*, each finding's case is
    saved as ``case-taint-<seed>-<index>.json`` there.  *progress* is
    called once per gadget as ``progress(spec, result)``.
    """
    report = SecurityFuzzReport(
        seed=seed, campaigns=campaigns, policy=policy
    )
    for index in range(campaigns):
        spec = derive_gadget(seed, index)
        case = ReproCase.from_gadget(spec, policy=policy)
        result = case.run(sink=sink)
        if sink.enabled:
            sink.count("security.campaigns")
        detected = not result.secure
        if progress is not None:
            progress(spec, result)
        if result.error is not None:
            report.mismatches.append(
                f"{spec.describe()}: oracle error: {result.error}"
            )
            continue
        if detected != spec.expected_leak:
            fate = "missed leak" if spec.expected_leak else "false positive"
            report.mismatches.append(f"{spec.describe()}: {fate}")
            if sink.enabled:
                sink.count("security.mismatches")
            continue
        if not detected:
            report.clean += 1
            continue
        first = result.first_leak
        if spec.expected_kind is not None and (
            first is None or first.kind != spec.expected_kind
        ):
            report.mismatches.append(
                f"{spec.describe()}: expected {spec.expected_kind} leak, "
                f"got {first.kind if first else 'none'}"
            )
            if sink.enabled:
                sink.count("security.mismatches")
            continue
        report.detected += 1
        if sink.enabled:
            sink.count("security.detections")
        bundles = case.size()
        finding = SecurityFinding(
            spec=spec,
            result=result,
            case=case,
            original_bundles=bundles,
            shrunk_bundles=bundles,
        )
        if shrink:
            assert first is not None
            shrunk = shrink_case(
                case,
                category=first.kind,
                initial_result=result,
                max_attempts=SHRINK_MAX_ATTEMPTS,
                sink=sink,
            )
            finding.case = shrunk.case
            finding.shrink_attempts = shrunk.attempts
            finding.shrunk_bundles = shrunk.shrunk_instructions
        if out_dir is not None:
            path = finding.case.save(
                f"{out_dir}/case-taint-{seed}-{index}.json"
            )
            finding.case_path = str(path)
        report.findings.append(finding)
    return report
