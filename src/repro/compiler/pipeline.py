"""The compile-and-evaluate pipeline.

``compile_program`` turns a scalar program into scheduled units under a
model policy (region formation -> predication -> renaming -> dependence ->
list scheduling).  The units emit VLIW code for the cycle-level machine
the first time a caller asks for it (:attr:`CompiledProgram.vliw`), so a
caller that only counts cycles never pays for emission.

``evaluate_model`` reproduces the paper's methodology end to end for one
(program, model, machine) triple:

1. run the scalar program on a *training* input to profile branches;
2. compile with the profile-driven static predictor;
3. run the scalar program on the *evaluation* input for the baseline
   cycle count and the evaluation trace;
4. count the scheduled code's cycles against the evaluation trace, and
   run the code on the cycle-level machine, checking architectural
   equivalence with the scalar run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.analysis.branch_prediction import StaticPredictor
from repro.compiler.dependence import build_dependence
from repro.compiler.list_scheduler import list_schedule
from repro.compiler.models import get_policy
from repro.compiler.policy import Mechanism, ModelPolicy
from repro.compiler.predication import linearize
from repro.compiler.regiontree import grow_region, merge_equivalent_joins
from repro.compiler.rename import apply_renaming
from repro.compiler.unit import CycleCount, ScheduledCode, ScheduledUnit, make_unit
from repro.compiler.vliw_codegen import emit_vliw
from repro.ir.cfg import CFG, build_cfg
from repro.ir.dataflow import compute_liveness
from repro.ir.dominators import compute_dominators
from repro.ir.loops import find_natural_loops
from repro.isa.program import Program
from repro.machine.config import MachineConfig
from repro.machine.program import VLIWProgram
from repro.machine.scalar import ScalarRun, run_scalar
from repro.machine.vliw import VLIWMachine, VLIWResult
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.obs.trace_events import CycleTraceRecorder
from repro.sim.memory import Memory


@dataclass
class CompiledProgram:
    """Everything compilation produced for one model."""

    policy: ModelPolicy
    cfg: CFG
    code: ScheduledCode

    @cached_property
    def vliw(self) -> VLIWProgram:
        """The units' VLIW code, emitted on first access."""
        return emit_vliw(
            self.code.units,
            self.cfg.entry,
            name=f"{self.cfg.name}:{self.policy.name}",
        )

    @property
    def clobbered(self) -> frozenset[int]:
        """Registers whose final value renaming may change."""
        return frozenset().union(
            *(unit.region.clobbered for unit in self.code.units.values())
        )

    def unit_count(self) -> int:
        return len(self.code.units)


def compile_program(
    program: Program,
    model: str | ModelPolicy,
    config: MachineConfig,
    predictor: StaticPredictor,
) -> CompiledProgram:
    """Compile *program* under *model* for *config*."""
    policy = get_policy(model) if isinstance(model, str) else model
    policy = policy.with_depth(config.ccr_entries, config.speculation_depth)

    cfg = build_cfg(program)
    liveness = compute_liveness(cfg)
    exit_live_in = {
        bid: set(liveness.blocks[bid].live_in_regs) for bid in cfg.blocks
    }
    dominators = compute_dominators(cfg)
    loop_headers = frozenset(
        loop.header for loop in find_natural_loops(cfg, dominators)
    )
    # The region-growth benefit heuristic is resource-aware: a narrow
    # machine cannot afford to fill issue slots with low-probability arms,
    # so duplication is restricted to likelier arms as width shrinks.
    min_arm_probability = max(
        policy.min_arm_probability, 1.0 / config.issue_width
    )
    uses_renaming = policy.crosses_by(Mechanism.RENAME)
    single_shadow = config.shadow_capacity == 1

    units: dict[int, ScheduledUnit] = {}
    worklist = [cfg.entry]
    while worklist:
        header = worklist.pop()
        if header in units:
            continue
        tree = grow_region(
            cfg,
            header,
            both_arms=policy.both_arms,
            window_blocks=policy.window_blocks,
            max_conditions=config.ccr_entries,
            predictor=predictor,
            min_arm_probability=min_arm_probability,
            loop_headers=loop_headers,
        )
        if policy.share_equivalent_joins:
            merge_equivalent_joins(tree, cfg, dominators)
        region = linearize(
            tree, cfg, eliminate_branches=policy.eliminate_branches
        )
        if uses_renaming:
            apply_renaming(region, policy, exit_live_in)
        graph = build_dependence(
            region, policy, exit_live_in, single_shadow=single_shadow
        )
        schedule = list_schedule(graph, config)
        units[header] = make_unit(
            tree, region, schedule, graph.shadow_positions
        )
        worklist.extend(tree.exit_targets())

    return CompiledProgram(policy=policy, cfg=cfg, code=ScheduledCode(units, cfg))


@dataclass
class ModelEvaluation:
    """Cycle counts and validation results for one model run."""

    model: str
    scalar: ScalarRun
    analytic: CycleCount
    machine: VLIWResult
    compiled: CompiledProgram

    @property
    def cycles(self) -> int:
        """The headline cycle count, measured on the machine."""
        return self.machine.cycles

    @property
    def speedup(self) -> float:
        return self.scalar.cycles / self.cycles


def evaluate_model(
    program: Program,
    model: str | ModelPolicy,
    config: MachineConfig,
    *,
    train_memory: Memory,
    eval_memory: Memory,
    fault_handler=None,
    max_steps: int | None = None,
    sink: MetricsSink = NULL_SINK,
    tracer: CycleTraceRecorder | None = None,
    machine_runner=None,
) -> ModelEvaluation:
    """The full paper methodology for one (program, model, machine) triple.

    *sink* and *tracer* instrument the cycle-level machine run only (the
    scalar baseline runs un-instrumented); both default to off.

    *machine_runner*, when given, is called as ``machine_runner(machine)
    -> VLIWResult`` in place of ``machine.run()`` -- the hook the
    checkpoint layer uses to run the machine with periodic snapshots,
    resume it from a prior snapshot (the machine exposes its program,
    config, sink and tracer for reconstruction), or stop it gracefully
    on a signal.  The architectural-equivalence check still applies to
    whatever result the runner returns.
    """
    cfg = build_cfg(program)
    train = run_scalar(
        program, cfg, train_memory, fault_handler=fault_handler,
        max_steps=max_steps,
    )
    predictor = StaticPredictor.from_trace(train.trace)

    compiled = compile_program(program, model, config, predictor)

    evaluation = run_scalar(
        program, cfg, eval_memory.clone(), fault_handler=fault_handler,
        max_steps=max_steps,
    )
    analytic = compiled.code.count_cycles(evaluation.trace, config)

    machine = VLIWMachine(
        compiled.vliw,
        config,
        eval_memory.clone(),
        fault_handler=fault_handler,
        sink=sink,
        tracer=tracer,
    )
    machine_result = (
        machine.run() if machine_runner is None else machine_runner(machine)
    )
    if machine_result.architectural_output != evaluation.output:
        raise AssertionError(
            f"{program.name}/{compiled.policy.name}: scheduled code "
            f"diverged from scalar semantics: "
            f"{machine_result.architectural_output[:8]} != "
            f"{evaluation.output[:8]}"
        )
    return ModelEvaluation(
        model=compiled.policy.name,
        scalar=evaluation,
        analytic=analytic,
        machine=machine_result,
        compiled=compiled,
    )
