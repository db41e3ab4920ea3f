"""Seed-deterministic differential fuzzing campaigns.

Each campaign derives its parameters from ``(seed, index)`` alone --
re-running with the same seed reproduces the same campaigns bit for bit
-- then generates a random structured program
(:mod:`repro.workloads.synthetic`) and pushes it through the differential
oracle.  The sweep covers the axes the machine is sensitive to:

* branch ``predictability`` and program ``size``;
* the executable models (``region_pred`` / ``trace_pred``);
* region-growth policy (``window_blocks``, ``share_equivalent_joins``);
* machine shape: the paper's base 4-issue machine, narrow/wide
  full-issue machines, finite BTB sizes, infinite shadow capacity;
* fault-raising loads: demand-paged memory with a random subset of data
  words unmapped, repaired by a pager on both sides.

A diverging campaign is frozen into a replayable
:class:`~repro.verify.case.ReproCase` (optionally shrunk first) so the
bug survives the process that found it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.ckpt.journal import Journal
from repro.ckpt.signals import SignalSupervisor
from repro.machine.config import MachineConfig, base_machine, full_issue_machine
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.obs.runlog import NULL_RUN_LOG, RunLog
from repro.verify.case import ReproCase
from repro.verify.oracle import OracleResult, resolve_model
from repro.verify.shrink import ShrinkResult, shrink_case
from repro.workloads.synthetic import generate, paged_image

#: Machine shapes the fuzzer sweeps.  The scheduler does not model the
#: store-buffer capacity, so only shapes whose buffer is at least the
#: default are fair game (a tighter buffer can deadlock legal schedules).
CONFIGS: dict[str, object] = {
    "base": lambda: base_machine(),
    "narrow": lambda: full_issue_machine(2, 2),
    "wide": lambda: full_issue_machine(8, 4),
    "btb16": lambda: base_machine(btb_entries=16),
    "btb4": lambda: base_machine(btb_entries=4),
    "deep-shadow": lambda: base_machine(shadow_capacity=None),
}

DEFAULT_MODELS = ("region_pred", "trace_pred")

_PREDICTABILITIES = (0.5, 0.6, 0.7, 0.85, 0.95, 1.0)
_SIZES = (2, 3, 4)
_WINDOWS = (4, 8, 16)
_UNMAP_FRACTIONS = (0.0, 0.0, 0.0, 0.25, 0.5)


@dataclass(frozen=True)
class CampaignSpec:
    """Everything one campaign derives from (seed, index)."""

    index: int
    program_seed: int
    predictability: float
    size: int
    model: str
    window_blocks: int
    share_joins: bool
    config_name: str
    unmap_fraction: float

    def label(self) -> str:
        parts = [
            f"#{self.index}",
            f"seed={self.program_seed}",
            f"p={self.predictability}",
            f"size={self.size}",
            self.model,
            f"win={self.window_blocks}",
            self.config_name,
        ]
        if self.share_joins:
            parts.append("share-joins")
        if self.unmap_fraction:
            parts.append(f"unmap={self.unmap_fraction}")
        return "/".join(parts)

    def machine_config(self) -> MachineConfig:
        return CONFIGS[self.config_name]()

    def to_metadata(self) -> dict:
        return {
            "campaign": self.index,
            "program_seed": self.program_seed,
            "predictability": self.predictability,
            "size": self.size,
            "window_blocks": self.window_blocks,
            "share_joins": self.share_joins,
            "config": self.config_name,
            "unmap_fraction": self.unmap_fraction,
        }


def derive_campaign(
    seed: int, index: int, models: tuple[str, ...] = DEFAULT_MODELS
) -> CampaignSpec:
    """Deterministically derive campaign *index* of a *seed* run."""
    rng = random.Random(f"repro-fuzz:{seed}:{index}")
    return CampaignSpec(
        index=index,
        program_seed=rng.randrange(1 << 30),
        predictability=rng.choice(_PREDICTABILITIES),
        size=rng.choice(_SIZES),
        model=rng.choice(list(models)),
        window_blocks=rng.choice(_WINDOWS),
        share_joins=rng.random() < 0.5,
        config_name=rng.choice(sorted(CONFIGS)),
        unmap_fraction=rng.choice(_UNMAP_FRACTIONS),
    )


def build_case(spec: CampaignSpec) -> ReproCase:
    """Materialize the campaign's program + memory as a replayable case."""
    synthetic = generate(
        spec.program_seed,
        predictability=spec.predictability,
        size=spec.size,
    )
    resident = None
    backing = None
    if spec.unmap_fraction > 0.0:
        resident, backing = paged_image(
            synthetic, spec.unmap_fraction, spec.program_seed ^ 0xFA
        )
    return ReproCase.from_synthetic(
        synthetic,
        spec.model,
        spec.machine_config(),
        resident=resident,
        backing=backing,
        policy_overrides={
            "window_blocks": spec.window_blocks,
            "share_equivalent_joins": spec.share_joins,
        },
        metadata=spec.to_metadata(),
    )


@dataclass
class FuzzFinding:
    """One diverging campaign, frozen for replay."""

    spec: CampaignSpec
    result: OracleResult
    case: ReproCase
    shrink: ShrinkResult | None = None
    case_path: str | None = None

    def describe(self) -> str:
        lines = [f"campaign {self.spec.label()}"]
        assert self.result.report is not None
        lines.append(self.result.report.describe())
        if self.shrink is not None:
            lines.append(self.shrink.describe())
        if self.case_path is not None:
            lines.append(f"repro case: {self.case_path}")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one fuzzing run."""

    seed: int
    campaigns: int
    models: tuple[str, ...]
    findings: list[FuzzFinding] = field(default_factory=list)
    equivalent: int = 0
    total_recoveries: int = 0
    total_handled_faults: int = 0
    faulting_campaigns: int = 0
    #: Campaigns replayed from a resume journal without re-execution.
    #: Deliberately NOT part of :meth:`to_dict`, so a resumed run's
    #: artifact stays byte-identical to an uninterrupted one.
    replayed: int = 0

    @property
    def divergences(self) -> int:
        return len(self.findings)

    def summary(self) -> str:
        resumed = f" ({self.replayed} replayed)" if self.replayed else ""
        lines = [
            f"fuzz: {self.campaigns} campaigns (seed {self.seed}, "
            f"models {'/'.join(self.models)}){resumed}: "
            f"{self.equivalent} equivalent, {self.divergences} divergent",
            f"  coverage: {self.faulting_campaigns} campaigns with page "
            f"faults, {self.total_handled_faults} faults handled, "
            f"{self.total_recoveries} recoveries taken",
        ]
        for finding in self.findings:
            lines.append(finding.describe())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "campaigns": self.campaigns,
            "models": list(self.models),
            "equivalent": self.equivalent,
            "divergences": self.divergences,
            "total_recoveries": self.total_recoveries,
            "total_handled_faults": self.total_handled_faults,
            "faulting_campaigns": self.faulting_campaigns,
            "findings": [
                {
                    "campaign": finding.spec.label(),
                    "report": finding.result.report.to_dict()
                    if finding.result.report
                    else None,
                    "case_path": finding.case_path,
                    "shrunk_instructions": (
                        finding.shrink.shrunk_instructions
                        if finding.shrink
                        else None
                    ),
                }
                for finding in self.findings
            ],
        }


def _campaign_key(seed: int, index: int, models: tuple[str, ...]) -> str:
    """The campaign's ledger key; keyed by the code that ran it, so a
    ledger written by other code replays nothing."""
    from repro.eval.runner import source_digest

    return f"fuzz:{seed}:{index}:{'/'.join(models)}:{source_digest()}"


def run_fuzz(
    campaigns: int,
    seed: int,
    *,
    models: tuple[str, ...] | None = None,
    shrink: bool = False,
    out_dir=None,
    machine_factory=None,
    sink: MetricsSink = NULL_SINK,
    progress=None,
    journal: Journal | None = None,
    supervisor: SignalSupervisor | None = None,
    run_log: RunLog = NULL_RUN_LOG,
) -> FuzzReport:
    """Run *campaigns* differential campaigns derived from *seed*.

    With *shrink*, each finding is delta-debugged to a minimal program
    before serialization; with *out_dir*, each finding's case is saved as
    ``case-<seed>-<index>.json`` there.  *machine_factory* substitutes a
    (possibly deliberately broken) machine for every campaign.

    *progress* is called once per campaign as ``progress(spec, result)``
    -- with ``result=None`` for campaigns replayed from the journal
    ledger, which never re-execute.  *run_log* receives one
    ``fuzz.campaign`` record per campaign.

    With a *journal*, each completed campaign is ledgered; a resumed run
    replays ledgered *equivalent* campaigns from their recorded counters
    without re-execution (campaigns are seed-deterministic, so the
    replayed counters are exactly what a re-run would produce), while
    divergent campaigns re-execute to rebuild their findings.  With a
    *supervisor*, a pending SIGINT/SIGTERM raises
    :class:`~repro.ckpt.signals.ShutdownRequested` at the next campaign
    boundary.
    """
    resolved = tuple(resolve_model(m) for m in (models or DEFAULT_MODELS))
    report = FuzzReport(seed=seed, campaigns=campaigns, models=resolved)
    ledger = journal.completed() if journal is not None else {}
    for index in range(campaigns):
        spec = derive_campaign(seed, index, resolved)
        key = None if journal is None else _campaign_key(seed, index, resolved)
        if spec.unmap_fraction > 0.0:
            report.faulting_campaigns += 1
        completed = ledger.get(key)
        if completed is not None and completed.get("equivalent"):
            report.equivalent += 1
            report.total_recoveries += completed.get("recoveries", 0)
            report.total_handled_faults += completed.get("machine_faults", 0)
            report.replayed += 1
            if sink.enabled:
                sink.count("fuzz.campaigns.replayed")
            if run_log.enabled:
                run_log.event(
                    "fuzz.campaign",
                    seed=seed,
                    index=index,
                    label=spec.label(),
                    equivalent=True,
                    replayed=True,
                )
            if progress is not None:
                progress(spec, None)
            continue
        case = build_case(spec)
        result = case.run(machine_factory=machine_factory, sink=sink)
        if sink.enabled:
            sink.count("fuzz.campaigns")
        if journal is not None:
            journal.record(
                key,
                {
                    "equivalent": result.equivalent,
                    "recoveries": result.recoveries,
                    "machine_faults": result.machine_faults,
                },
            )
        if result.equivalent:
            report.equivalent += 1
            report.total_recoveries += result.recoveries
            report.total_handled_faults += result.machine_faults
        else:
            if sink.enabled:
                sink.count("fuzz.divergences")
            finding = FuzzFinding(spec=spec, result=result, case=case)
            if shrink:
                finding.shrink = shrink_case(
                    case,
                    machine_factory=machine_factory,
                    category=result.report.category,
                    initial_result=result,
                    sink=sink,
                )
                finding.case = finding.shrink.case
            if out_dir is not None:
                path = finding.case.save(
                    f"{out_dir}/case-{seed}-{spec.index}.json"
                )
                finding.case_path = str(path)
            report.findings.append(finding)
        if run_log.enabled:
            run_log.event(
                "fuzz.campaign",
                seed=seed,
                index=index,
                label=spec.label(),
                equivalent=result.equivalent,
                replayed=False,
                recoveries=result.recoveries,
                machine_faults=result.machine_faults,
            )
        if progress is not None:
            progress(spec, result)
        if supervisor is not None and supervisor.pending is not None:
            raise supervisor.shutdown()
    return report
