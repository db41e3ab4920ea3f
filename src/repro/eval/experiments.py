"""Experiment drivers -- one per paper table/figure.

Each ``run_*`` function reproduces one artefact of the paper's evaluation
section.  Drivers share a uniform ``(ctx, options)`` signature: *ctx* is
an :class:`~repro.eval.runner.ExperimentContext` (workloads, scalar
baselines, and the parallel/cached :class:`~repro.eval.runner.CellRunner`),
*options* an :class:`ExperimentOptions` bundle of the knobs the CLI
exposes.  Every driver decomposes its sweep into independent
:class:`~repro.eval.runner.CellSpec` cells, fans them out through
``ctx.run_cells`` (process pool + on-disk cache), and merges the results
deterministically.  Results render as ASCII (``render()``) and serialize
to versioned JSON artifacts (``to_dict()`` +
:mod:`repro.eval.artifact`).

Paper artefacts:

* ``run_table2`` -- Table 2: the benchmark programs (static size, scalar
  baseline cycles).
* ``run_table3`` -- Table 3: prediction accuracy of 1..8 successive
  branches per benchmark.
* ``run_fig6``   -- Figure 6: the restricted speculative models.
* ``run_fig7``   -- Figure 7: predicating vs conventional models.
* ``run_fig8``   -- Figure 8: full-issue machines x speculation depth.
* ``run_hwcost`` -- the Section 4.2.1 hardware cost claims.
* ``run_shadow_ablation``  -- footnote 1: single vs infinite shadow
  registers (0-1% in the paper).
* ``run_counter_ablation`` -- Section 4.2.1's vector-form vs counter-type
  predicate argument (condition-set reordering).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.compiler.models import REGION_PRED, TRACE_PRED
from repro.eval import hwcost as hwcost_model
from repro.eval.report import render_bars, render_table
from repro.eval.runner import (
    CellSpec,
    ExperimentContext,
    WorkloadBaseline,
)
from repro.machine.config import MachineConfig, base_machine, full_issue_machine

__all__ = [
    "ExperimentContext",
    "ExperimentOptions",
    "WorkloadBaseline",
    "EXPERIMENTS",
    "cell_value",
    "geomean",
]


def geomean(values: list[float]) -> float:
    """Geometric mean over the finite values; NaN if none are usable.

    Error cells surface as NaN through :func:`cell_value`, so a partial
    sweep still aggregates over the cells that did complete.
    """
    finite = [v for v in values if isinstance(v, (int, float))
              and math.isfinite(v) and v > 0]
    if not finite:
        return 0.0 if not values else math.nan
    return math.exp(sum(math.log(v) for v in finite) / len(finite))


def cell_value(cell: dict, key: str, default: float = math.nan):
    """*key* from one ``run_cells`` result, tolerating error cells.

    A cell the hardened runner could not evaluate comes back as a
    structured ``{"error": ...}`` entry instead of values; drivers read
    through this helper so a failed cell degrades to *default* (NaN,
    scrubbed to ``null`` in artifacts) rather than a KeyError that loses
    the rest of the sweep.
    """
    if "error" in cell:
        return default
    return cell.get(key, default)


def _fmt(value, spec: str = ".2f") -> str:
    """Render a possibly-missing measurement for an ASCII table."""
    if isinstance(value, (int, float)) and math.isfinite(value):
        return format(value, spec)
    return "err"


@dataclass(frozen=True)
class ExperimentOptions:
    """CLI-facing knobs, shared by every driver.

    Drivers read only the fields they understand; the defaults reproduce
    the paper's setup exactly, so ``run_x(ctx)`` with no options is
    always the paper configuration.
    """

    config: MachineConfig | None = None  # None = the paper's base machine
    max_run: int = 8  # Table 3 branch-run depth
    widths: tuple[int, ...] = (2, 4, 8)  # Figure 8 issue widths
    depths: tuple[int, ...] = (1, 2, 4, 8)  # Figure 8 speculation depths
    factors: tuple[int, ...] = (1, 2, 4)  # unrolling factors
    machines: tuple[tuple[int, int], ...] = ((4, 4), (8, 8))  # unroll targets
    models: tuple[str, ...] | None = None  # code-expansion model list
    hw_params: hwcost_model.RegFileParams | None = None

    def machine(self) -> MachineConfig:
        return self.config or base_machine()


_DEFAULTS = ExperimentOptions()


# ----------------------------------------------------------------------
# Table 2.
# ----------------------------------------------------------------------
@dataclass
class Table2Result:
    rows: list[tuple[str, int, int, str]]  # name, lines, cycles, remarks

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "program": name,
                    "lines": lines,
                    "scalar_cycles": cycles,
                    "remarks": remarks,
                }
                for name, lines, cycles, remarks in self.rows
            ]
        }

    def render(self) -> str:
        return render_table(
            ["Program", "Lines", "Scalar cycles", "Remarks"],
            self.rows,
            title="Table 2: benchmark programs",
        )


def run_table2(
    ctx: ExperimentContext, options: ExperimentOptions | None = None
) -> Table2Result:
    del options  # Table 2 has no knobs; uniform signature only.
    specs = [
        CellSpec(kind="baseline", workload=w.name) for w in ctx.workloads
    ]
    cells = ctx.run_cells(specs)
    rows = [
        (
            w.name,
            cell_value(cell, "lines"),
            cell_value(cell, "cycles"),
            w.description,
        )
        for w, cell in zip(ctx.workloads, cells)
    ]
    return Table2Result(rows=rows)


# ----------------------------------------------------------------------
# Table 3.
# ----------------------------------------------------------------------
@dataclass
class Table3Result:
    max_run: int
    rows: dict[str, list[float]]

    def to_dict(self) -> dict:
        return {"max_run": self.max_run, "rows": dict(self.rows)}

    def render(self) -> str:
        headers = ["#branches"] + [str(n) for n in range(1, self.max_run + 1)]
        table_rows = [
            [name] + [_fmt(value) for value in accuracies]
            for name, accuracies in self.rows.items()
        ]
        return render_table(
            headers,
            table_rows,
            title="Table 3: prediction accuracy of successive branches",
        )


def run_table3(
    ctx: ExperimentContext, options: ExperimentOptions | None = None
) -> Table3Result:
    options = options or _DEFAULTS
    specs = [
        CellSpec(
            kind="accuracy",
            workload=w.name,
            extras=(("max_run", options.max_run),),
        )
        for w in ctx.workloads
    ]
    cells = ctx.run_cells(specs)
    rows = {
        w.name: cell_value(cell, "accuracy", [])
        for w, cell in zip(ctx.workloads, cells)
    }
    return Table3Result(max_run=options.max_run, rows=rows)


# ----------------------------------------------------------------------
# Figures 6 and 7: speedup comparisons.
# ----------------------------------------------------------------------
@dataclass
class SpeedupFigure:
    title: str
    models: list[str]
    per_workload: dict[str, dict[str, float]] = field(default_factory=dict)

    def geomeans(self) -> dict[str, float]:
        return {
            model: geomean(
                [self.per_workload[w][model] for w in self.per_workload]
            )
            for model in self.models
        }

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "models": list(self.models),
            "per_workload": {
                name: dict(values)
                for name, values in self.per_workload.items()
            },
            "geomeans": self.geomeans(),
        }

    def render(self) -> str:
        headers = ["Program"] + self.models
        rows = [
            [name] + [_fmt(values[m]) for m in self.models]
            for name, values in self.per_workload.items()
        ]
        means = self.geomeans()
        rows.append(["geomean"] + [_fmt(means[m]) for m in self.models])
        table = render_table(headers, rows, title=self.title)
        bars = render_bars(
            self.models,
            [means[m] if math.isfinite(means[m]) else 0.0
             for m in self.models],
            title="geomean speedup over scalar",
        )
        return table + "\n\n" + bars


FIG6_MODELS = ["global", "squashing", "trace", "region"]
FIG7_MODELS = ["global", "boosting", "trace_pred", "region_pred"]


def _speedup_figure(
    ctx: ExperimentContext,
    title: str,
    models: list[str],
    config: MachineConfig,
) -> SpeedupFigure:
    specs = [
        CellSpec(
            kind="speedup", workload=workload.name, model=model, config=config
        )
        for workload in ctx.workloads
        for model in models
    ]
    cells = ctx.run_cells(specs)
    figure = SpeedupFigure(title=title, models=models)
    index = 0
    for workload in ctx.workloads:
        figure.per_workload[workload.name] = {
            model: cell_value(cells[index + offset], "speedup")
            for offset, model in enumerate(models)
        }
        index += len(models)
    return figure


def run_fig6(
    ctx: ExperimentContext, options: ExperimentOptions | None = None
) -> SpeedupFigure:
    options = options or _DEFAULTS
    return _speedup_figure(
        ctx,
        "Figure 6: restricted speculative execution models",
        FIG6_MODELS,
        options.machine(),
    )


def run_fig7(
    ctx: ExperimentContext, options: ExperimentOptions | None = None
) -> SpeedupFigure:
    options = options or _DEFAULTS
    return _speedup_figure(
        ctx,
        "Figure 7: predicating vs conventional speculative execution",
        FIG7_MODELS,
        options.machine(),
    )


# ----------------------------------------------------------------------
# Figure 8: full-issue machines x speculation depth.
# ----------------------------------------------------------------------
@dataclass
class Fig8Result:
    widths: tuple[int, ...]
    depths: tuple[int, ...]
    # (width, depth) -> geomean speedup of region predicating.
    geomeans: dict[tuple[int, int], float] = field(default_factory=dict)
    per_workload: dict[tuple[int, int], dict[str, float]] = field(
        default_factory=dict
    )

    def to_dict(self) -> dict:
        return {
            "widths": list(self.widths),
            "depths": list(self.depths),
            "cells": [
                {
                    "width": width,
                    "depth": depth,
                    "geomean": self.geomeans[(width, depth)],
                    "per_workload": dict(self.per_workload[(width, depth)]),
                }
                for width in self.widths
                for depth in self.depths
            ],
        }

    def render(self) -> str:
        headers = ["issue width"] + [f"depth {d}" for d in self.depths]
        rows = [
            [f"{width}-issue"]
            + [_fmt(self.geomeans[(width, depth)]) for depth in self.depths]
            for width in self.widths
        ]
        return render_table(
            headers,
            rows,
            title=(
                "Figure 8: region predicating on full-issue machines "
                "(geomean speedup)"
            ),
        )


def run_fig8(
    ctx: ExperimentContext, options: ExperimentOptions | None = None
) -> Fig8Result:
    options = options or _DEFAULTS
    widths, depths = options.widths, options.depths
    grid = [(width, depth) for width in widths for depth in depths]
    specs = [
        CellSpec(
            kind="speedup",
            workload=workload.name,
            model="region_pred",
            config=full_issue_machine(width, depth),
        )
        for width, depth in grid
        for workload in ctx.workloads
    ]
    cells = ctx.run_cells(specs)
    result = Fig8Result(widths=widths, depths=depths)
    index = 0
    for width, depth in grid:
        per_workload = {
            workload.name: cell_value(cells[index + offset], "speedup")
            for offset, workload in enumerate(ctx.workloads)
        }
        index += len(ctx.workloads)
        result.per_workload[(width, depth)] = per_workload
        result.geomeans[(width, depth)] = geomean(list(per_workload.values()))
    return result


# ----------------------------------------------------------------------
# Code expansion (static code growth from tail duplication).
# ----------------------------------------------------------------------
@dataclass
class CodeExpansionResult:
    """Static code growth per model (the cost of duplication)."""

    models: list[str]
    # workload -> model -> static scheduled ops / source instructions.
    rows: dict[str, dict[str, float]] = field(default_factory=dict)

    def geomeans(self) -> dict[str, float]:
        return {
            model: geomean([self.rows[w][model] for w in self.rows])
            for model in self.models
        }

    def to_dict(self) -> dict:
        return {
            "models": list(self.models),
            "rows": {name: dict(values) for name, values in self.rows.items()},
            "geomeans": self.geomeans(),
        }

    def render(self) -> str:
        headers = ["Program"] + self.models
        table_rows = [
            [name] + [_fmt(values[m]) for m in self.models]
            for name, values in self.rows.items()
        ]
        means = self.geomeans()
        table_rows.append(
            ["geomean"] + [_fmt(means[m]) for m in self.models]
        )
        return render_table(
            headers,
            table_rows,
            title="Static code expansion (scheduled ops / source ops)",
        )


def run_code_expansion(
    ctx: ExperimentContext, options: ExperimentOptions | None = None
) -> CodeExpansionResult:
    """Static code-size cost of each model's duplication.

    The paper flags code growth as the price of boosting's recovery-code
    scheme ("the recovery code and the jump table double the size of the
    original code") and of region formation's join duplication; this
    experiment measures the duplication cost of our windowed schedulers
    directly: total scheduled operations over source instructions.
    """
    options = options or _DEFAULTS
    config = options.machine()
    models = list(
        options.models or ("global", "trace", "trace_pred", "region_pred")
    )
    specs = [
        CellSpec(
            kind="compile_stats",
            workload=workload.name,
            model=model,
            config=config,
        )
        for workload in ctx.workloads
        for model in models
    ]
    cells = ctx.run_cells(specs)
    result = CodeExpansionResult(models=models)
    index = 0
    for workload in ctx.workloads:
        result.rows[workload.name] = {
            model: cell_value(cells[index + offset], "expansion")
            for offset, model in enumerate(models)
        }
        index += len(models)
    return result


# ----------------------------------------------------------------------
# Loop unrolling (the paper's future-work experiment).
# ----------------------------------------------------------------------
@dataclass
class UnrollingResult:
    """Region predicating with unrolled loops on wide machines."""

    factors: tuple[int, ...]
    machines: tuple[tuple[int, int], ...]  # (width, depth)
    geomeans: dict[tuple[int, int, int], float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "factors": list(self.factors),
            "machines": [list(machine) for machine in self.machines],
            "cells": [
                {
                    "width": width,
                    "depth": depth,
                    "factor": factor,
                    "geomean": self.geomeans[(width, depth, factor)],
                }
                for width, depth in self.machines
                for factor in self.factors
            ],
        }

    def render(self) -> str:
        headers = ["machine"] + [f"unroll x{f}" for f in self.factors]
        rows = []
        for width, depth in self.machines:
            rows.append(
                [f"{width}-issue/depth {depth}"]
                + [
                    _fmt(self.geomeans[(width, depth, f)])
                    for f in self.factors
                ]
            )
        return render_table(
            headers,
            rows,
            title=(
                "Future-work experiment: loop unrolling under region "
                "predicating (geomean speedup vs the original scalar run)"
            ),
        )


def run_unrolling(
    ctx: ExperimentContext, options: ExperimentOptions | None = None
) -> UnrollingResult:
    """Section 4.2.2's closing conjecture, tested.

    The paper: "speculative execution past eight conditions or eight
    duplications of resources produces little impact [...] loop unrolling
    may be required to exploit more parallelism."  We unroll every
    workload's loops and re-measure region predicating on the 4- and
    8-issue full machines; speedups stay relative to the *original*
    program's scalar cycles.  The scheduling window scales with the
    unroll factor so the region former can actually span the unrolled
    iterations.
    """
    options = options or _DEFAULTS
    factors, machines = options.factors, options.machines
    grid = [
        (width, depth, factor)
        for width, depth in machines
        for factor in factors
    ]
    specs = [
        CellSpec(
            kind="unroll",
            workload=workload.name,
            model="region_pred",
            config=full_issue_machine(width, depth),
            extras=(("factor", factor),),
        )
        for width, depth, factor in grid
        for workload in ctx.workloads
    ]
    cells = ctx.run_cells(specs)
    result = UnrollingResult(factors=factors, machines=machines)
    index = 0
    for width, depth, factor in grid:
        speedups = [
            cell_value(cells[index + offset], "speedup")
            for offset in range(len(ctx.workloads))
        ]
        index += len(ctx.workloads)
        result.geomeans[(width, depth, factor)] = geomean(speedups)
    return result


# ----------------------------------------------------------------------
# Equivalent-join sharing (footnote 2).
# ----------------------------------------------------------------------
@dataclass
class JoinSharingResult:
    """Duplicating vs sharing equivalent join blocks."""

    rows: list[tuple[str, float, float, float, float]] = field(
        default_factory=list
    )  # name, dup speedup, shared speedup, dup expansion, shared expansion

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "program": name,
                    "dup_speedup": dup_speed,
                    "shared_speedup": shared_speed,
                    "dup_expansion": dup_x,
                    "shared_expansion": shared_x,
                }
                for name, dup_speed, shared_speed, dup_x, shared_x in self.rows
            ]
        }

    def render(self) -> str:
        table_rows = [
            (name, _fmt(sd), _fmt(ss), _fmt(ed), _fmt(es))
            for name, sd, ss, ed, es in self.rows
        ]
        return render_table(
            ["Program", "dup speedup", "shared speedup",
             "dup code x", "shared code x"],
            table_rows,
            title=(
                "Footnote-2 experiment: duplicating vs sharing equivalent "
                "joins under region predicating"
            ),
        )


def run_join_sharing(
    ctx: ExperimentContext, options: ExperimentOptions | None = None
) -> JoinSharingResult:
    """The paper's join-block trade-off, measured.

    Section 3.3: a join with an *equivalent block* need not be duplicated
    -- its control dependence equals the equivalent block's.  Section
    4.2.2 explains the cost: instructions in a shared join acquire
    *commit dependences* ("this instruction cannot be scheduled until the
    speculative value is committed or squashed"), which is why the
    compiler "duplicates the join block to avoid this constraint (if
    beneficial)".  This experiment measures both sides of that trade for
    every kernel: speedup and static code expansion under pure
    duplication versus equivalent-join sharing.
    """
    options = options or _DEFAULTS
    config = options.machine()
    shared_policy = dataclasses.replace(
        REGION_PRED, share_equivalent_joins=True
    )
    specs = [
        CellSpec(
            kind="compile_stats",
            workload=workload.name,
            policy=policy,
            config=config,
        )
        for workload in ctx.workloads
        for policy in (REGION_PRED, shared_policy)
    ]
    cells = ctx.run_cells(specs)
    result = JoinSharingResult()
    for index, workload in enumerate(ctx.workloads):
        dup, shared = cells[2 * index], cells[2 * index + 1]
        result.rows.append(
            (
                workload.name,
                cell_value(dup, "speedup"),
                cell_value(shared, "speedup"),
                cell_value(dup, "expansion"),
                cell_value(shared, "expansion"),
            )
        )
    return result


# ----------------------------------------------------------------------
# Profile sensitivity.
# ----------------------------------------------------------------------
@dataclass
class ProfileSensitivityResult:
    """Self-trained vs cross-trained region predicating."""

    rows: list[tuple[str, float, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "program": name,
                    "cross_trained": cross,
                    "self_trained": self_trained,
                }
                for name, cross, self_trained in self.rows
            ]
        }

    def render(self) -> str:
        table_rows = [
            (name, f"{cross:.2f}", f"{self_trained:.2f}",
             f"{(self_trained / cross - 1) * 100:+.1f}%")
            for name, cross, self_trained in self.rows
        ]
        return render_table(
            ["Program", "cross-trained", "self-trained", "inflation"],
            table_rows,
            title=(
                "Profile sensitivity: training input != evaluation input "
                "(the honest setup, used everywhere else) vs training on "
                "the evaluation input itself"
            ),
        )


def run_profile_sensitivity(
    ctx: ExperimentContext, options: ExperimentOptions | None = None
) -> ProfileSensitivityResult:
    """How much does profile-driven region formation depend on the input?

    The harness always trains the static predictor on a *different* input
    seed than it evaluates on (as the paper's methodology implies).  This
    experiment quantifies the alternative: self-training inflates
    region predicating's speedups only mildly when branch behaviour is a
    property of the program rather than of the particular input -- which
    is what makes profile-guided region formation deployable.
    """
    options = options or _DEFAULTS
    config = options.machine()
    specs = [
        CellSpec(
            kind="profile",
            workload=workload.name,
            model="region_pred",
            config=config,
            extras=(("mode", mode),),
        )
        for workload in ctx.workloads
        for mode in ("cross", "self")
    ]
    cells = ctx.run_cells(specs)
    result = ProfileSensitivityResult()
    for index, workload in enumerate(ctx.workloads):
        cross, self_trained = cells[2 * index], cells[2 * index + 1]
        result.rows.append(
            (
                workload.name,
                cell_value(cross, "speedup"),
                cell_value(self_trained, "speedup"),
            )
        )
    return result


# ----------------------------------------------------------------------
# Hardware cost.
# ----------------------------------------------------------------------
@dataclass
class HwCostResult:
    report: hwcost_model.HwCostReport

    def to_dict(self) -> dict:
        r = self.report
        return {
            "normal_regfile": r.normal_regfile,
            "shadow_storage": r.shadow_storage,
            "commit_hardware": r.commit_hardware,
            "shadow_ratio": r.shadow_ratio,
            "commit_ratio": r.commit_ratio,
            "total_overhead_ratio": r.total_overhead_ratio,
            "predicate_eval_gate_delay": r.predicate_eval_gate_delay,
            "read_path_extra_gates": r.read_path_extra_gates,
        }

    def render(self) -> str:
        r = self.report
        rows = [
            ("normal register file (T)", r.normal_regfile, "--"),
            ("speculative storage (T)", r.shadow_storage, "paper: +76%"),
            ("commit hardware (T)", r.commit_hardware, "paper: +31%"),
            ("shadow ratio", f"{r.shadow_ratio:.2f}", "paper: 0.76"),
            ("commit ratio", f"{r.commit_ratio:.2f}", "paper: 0.31"),
            ("total overhead", f"{r.total_overhead_ratio:.2f}", "paper: 1.07"),
            ("predicate eval delay", f"{r.predicate_eval_gate_delay} gates",
             "paper: 3 gates"),
            ("read-path extra gates", r.read_path_extra_gates, "paper: 1"),
        ]
        return render_table(
            ["Quantity", "Model", "Reference"],
            rows,
            title="Section 4.2.1: hardware cost of predicating",
        )


def run_hwcost(
    ctx: ExperimentContext | None = None,
    options: ExperimentOptions | None = None,
) -> HwCostResult:
    options = options or _DEFAULTS
    extras = (
        (("params", options.hw_params),) if options.hw_params is not None else ()
    )
    spec = CellSpec(kind="hwcost", extras=extras)
    if ctx is None:
        ctx = ExperimentContext(workloads=[])
    (cell,) = ctx.run_cells([spec])
    report = hwcost_model.HwCostReport(
        normal_regfile=cell_value(cell, "normal_regfile"),
        shadow_storage=cell_value(cell, "shadow_storage"),
        commit_hardware=cell_value(cell, "commit_hardware"),
        predicate_eval_gate_delay=cell_value(cell, "predicate_eval_gate_delay"),
        read_path_extra_gates=cell_value(cell, "read_path_extra_gates"),
    )
    return HwCostResult(report=report)


# ----------------------------------------------------------------------
# Ablations.
# ----------------------------------------------------------------------
@dataclass
class AblationResult:
    title: str
    rows: list[tuple[str, float, float, float]]  # name, base, variant, loss %

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "rows": [
                {
                    "program": name,
                    "base": base,
                    "variant": variant,
                    "delta_pct": loss,
                }
                for name, base, variant, loss in self.rows
            ],
        }

    def render(self) -> str:
        table_rows = [
            (name, f"{base:.2f}", f"{variant:.2f}", f"{loss:+.1f}%")
            for name, base, variant, loss in self.rows
        ]
        return render_table(
            ["Program", "base", "variant", "delta"],
            table_rows,
            title=self.title,
        )


def _paired_speedups(
    ctx: ExperimentContext,
    variants: list[tuple[str | None, object, MachineConfig]],
) -> list[list[float]]:
    """Speedups for each workload under each (model, policy, config)."""
    specs = [
        CellSpec(
            kind="speedup",
            workload=workload.name,
            model=model,
            policy=policy,  # type: ignore[arg-type]
            config=config,
        )
        for workload in ctx.workloads
        for model, policy, config in variants
    ]
    cells = ctx.run_cells(specs)
    stride = len(variants)
    return [
        [
            cell_value(cells[index * stride + offset], "speedup")
            for offset in range(stride)
        ]
        for index in range(len(ctx.workloads))
    ]


def run_shadow_ablation(
    ctx: ExperimentContext, options: ExperimentOptions | None = None
) -> AblationResult:
    """Footnote 1: single vs infinite shadow registers (paper: 0-1%)."""
    options = options or _DEFAULTS
    config = options.machine()
    infinite = dataclasses.replace(config, shadow_capacity=None)
    speedups = _paired_speedups(
        ctx,
        [("region_pred", None, config), ("region_pred", None, infinite)],
    )
    rows = []
    for workload, (single, unlimited) in zip(ctx.workloads, speedups):
        loss = (unlimited - single) / unlimited * 100 if unlimited else 0.0
        rows.append((workload.name, unlimited, single, -loss))
    return AblationResult(
        title=(
            "Footnote 1 ablation: single shadow register vs infinite "
            "(speedup, delta = cost of the single-shadow design)"
        ),
        rows=rows,
    )


@dataclass
class BtbAblationResult:
    """Optimistic vs finite-BTB vs fully-charged transfer penalties."""

    rows: list[tuple[str, float, float, float]] = field(default_factory=list)
    # workload -> finite-BTB hit rate (hits / (hits + misses)).
    hit_rates: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "program": name,
                    "optimistic": optimistic,
                    "finite_btb": finite,
                    "all_charged": charged,
                    "btb_hit_rate": self.hit_rates.get(name),
                }
                for name, optimistic, finite, charged in self.rows
            ]
        }

    def render(self) -> str:
        table_rows = [
            (name, f"{opt:.2f}", f"{finite:.2f}", f"{charged:.2f}",
             f"{(opt / finite - 1) * 100:+.1f}%",
             f"{self.hit_rates.get(name, 0.0):.1%}")
            for name, opt, finite, charged in self.rows
        ]
        return render_table(
            ["Program", "optimistic", "64-entry BTB", "all charged",
             "optimism vs BTB", "BTB hit rate"],
            table_rows,
            title=(
                "BTB ablation: the paper's optimistic assumption vs a "
                "finite BTB vs charging every taken transfer"
            ),
        )


def run_btb_ablation(
    ctx: ExperimentContext, options: ExperimentOptions | None = None
) -> BtbAblationResult:
    """Section 4's BTB assumption: "We optimistically assume the branches
    which are predictable using BTB impose no penalty [...] This
    optimistic assumption increases the evaluated performance a few
    percent according to our cycle-by-cycle simulation."

    Three fidelities: the paper's optimistic model (taken transfers are
    free), a 64-entry direct-mapped BTB (compulsory/conflict misses pay
    one cycle -- the realistic point; the delta against the optimistic
    model reproduces the paper's "few percent"), and the fully-pessimistic
    bracket (every taken transfer pays).
    """
    options = options or _DEFAULTS
    config = options.machine()
    finite = dataclasses.replace(config, btb_entries=64)
    pessimistic = dataclasses.replace(config, taken_penalty_btb=1)
    variants = [
        ("region_pred", None, config),
        ("region_pred", None, finite),
        ("region_pred", None, pessimistic),
    ]
    specs = [
        CellSpec(
            kind="speedup",
            workload=workload.name,
            model=model,
            policy=policy,  # type: ignore[arg-type]
            config=variant_config,
        )
        for workload in ctx.workloads
        for model, policy, variant_config in variants
    ]
    cells = ctx.run_cells(specs)
    result = BtbAblationResult()
    for index, workload in enumerate(ctx.workloads):
        base = index * len(variants)
        row = [
            cell_value(cells[base + offset], "speedup")
            for offset in range(len(variants))
        ]
        result.rows.append((workload.name, *row))
        finite_cell = cells[base + 1]
        hits = cell_value(finite_cell, "btb_hits", 0)
        accesses = hits + cell_value(finite_cell, "btb_misses", 0)
        result.hit_rates[workload.name] = hits / accesses if accesses else 1.0
    return result


def run_counter_ablation(
    ctx: ExperimentContext, options: ExperimentOptions | None = None
) -> AblationResult:
    """Section 4.2.1: vector-form vs counter-type predicates.

    Counter predicates cannot tell which condition was set, so
    condition-resolving instructions must stay in program order; the
    ablation forces that ordering onto the trace predicating model.
    """
    options = options or _DEFAULTS
    config = options.machine()
    ordered = dataclasses.replace(TRACE_PRED, ordered_cond_sets=True)
    speedups = _paired_speedups(
        ctx,
        [(None, TRACE_PRED, config), (None, ordered, config)],
    )
    rows = []
    for workload, (vector, counter) in zip(ctx.workloads, speedups):
        loss = (vector - counter) / vector * 100 if vector else 0.0
        rows.append((workload.name, vector, counter, -loss))
    return AblationResult(
        title=(
            "Predicate-representation ablation: vector form vs counter "
            "type (speedup, delta = cost of in-order condition sets)"
        ),
        rows=rows,
    )


# ----------------------------------------------------------------------
# Registry: every experiment, uniformly callable as fn(ctx, options).
# ----------------------------------------------------------------------
EXPERIMENTS = {
    "table2": run_table2,
    "table3": run_table3,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "hwcost": run_hwcost,
    "shadow": run_shadow_ablation,
    "counter": run_counter_ablation,
    "btb": run_btb_ablation,
    "codesize": run_code_expansion,
    "unroll": run_unrolling,
    "joins": run_join_sharing,
    "profile": run_profile_sensitivity,
}
