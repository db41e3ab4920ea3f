"""Every model's schedule runs on the one machine.

The speedups of all seven models come from the trace-driven cycle
counter (``ScheduledCode.count_cycles``); the experiment sweep runs no
machine.  These tests stand behind those numbers.  Each model's code for
each kernel runs on the cycle-level machine, and

* its output equals the scalar run's output;
* the machine takes exactly the cycles the counter charges;
* the capability invariant holds: a model that crosses no condition by
  buffering (``global``, ``squashing``, ``trace``, ``region``) commits and
  squashes no register or store-buffer entry and emits no ``.s``
  operand, while the buffering models (``boosting``, ``trace_pred``,
  ``region_pred``) do commit buffered state.

:func:`golden_grid` makes the same check over the golden compile grid
of ``tests/compiler/test_golden_compiles.py``: 8 programs x 7 models x 4
machines.  Two costs the counter does not model exactly are taken out
of both sides before the cycles are compared: the recovery-mode cycles
of a faulting program (the counter charges none), and the BTB charges on
the machine with a finite BTB (the counter keys the buffer by the pair
of regions, the machine by the transferring bundle, so their misses
differ).  It is slower, so CI runs it outside tier-1::

    PYTHONPATH=src python -c "from tests.integration.test_models_on_machine import golden_grid; golden_grid()"
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import pytest

from repro.analysis.branch_prediction import StaticPredictor
from repro.compiler import MODELS, compile_program
from repro.compiler.policy import Mechanism
from repro.ir.cfg import build_cfg
from repro.machine.config import base_machine, full_issue_machine
from repro.machine.scalar import run_scalar
from repro.machine.vliw import VLIWMachine
from repro.obs.metrics import NULL_SINK, CounterSink
from repro.workloads import get_workload

KERNELS = ("compress", "eqntott", "espresso", "grep", "li", "nroff")
CONFIGS = {"base": base_machine(), "w8d8": full_issue_machine(8, 8)}


@dataclass
class MachineRun:
    """One model's code for one program, counted and run."""

    scalar_output: tuple[int, ...]
    machine_output: tuple[int, ...]
    counted: tuple[int, int, int]  # cycles, BTB hits, BTB misses
    measured: tuple[int, int, int]
    recovery_cycles: int  # counted only when the run had a sink
    buffered: Counter  # register / store-buffer commits and squashes
    shadow_operands: int


class _Scalar:
    """A program's training profile and evaluation run, shared by every
    model and machine it is compiled for."""

    def __init__(self, program, train_memory, eval_memory, make_handler=None):
        self.program = program
        self.eval_memory = eval_memory
        self.make_handler = make_handler or (lambda: None)
        cfg = build_cfg(program)
        train = run_scalar(
            program, cfg, train_memory.clone(), fault_handler=self.make_handler()
        )
        self.predictor = StaticPredictor.from_trace(train.trace)
        self.evaluation = run_scalar(
            program, cfg, eval_memory.clone(), fault_handler=self.make_handler()
        )

    def run(self, model: str, config, sink=NULL_SINK) -> MachineRun:
        compiled = compile_program(self.program, model, config, self.predictor)
        count = compiled.code.count_cycles(self.evaluation.trace, config)
        machine = VLIWMachine(
            compiled.vliw,
            config,
            self.eval_memory.clone(),
            fault_handler=self.make_handler(),
            sink=sink,
        )
        buffered: Counter = Counter()
        for name in ("regfile", "store_buffer"):
            unit = getattr(machine, name)
            unit.tick = _counting(unit.tick, name, buffered)
        result = machine.run()
        btb = machine.btb
        return MachineRun(
            scalar_output=tuple(self.evaluation.output),
            machine_output=result.architectural_output,
            counted=(count.cycles, count.btb_hits, count.btb_misses),
            measured=(
                result.cycles,
                btb.hits if btb is not None else 0,
                btb.misses if btb is not None else 0,
            ),
            recovery_cycles=(
                sink.counters.get("machine.recovery.cycles", 0)
                if sink.enabled
                else 0
            ),
            buffered=buffered,
            shadow_operands=sum(
                len(op.shadow) for bundle in compiled.vliw.bundles for op in bundle
            ),
        )


def _counting(tick, name: str, counts: Counter):
    """*tick*, counting the entries each call commits and squashes."""

    def counted(*args):
        events = tick(*args)
        counts[f"{name}.commits"] += len(events.committed)
        counts[f"{name}.squashes"] += len(events.squashed)
        return events

    return counted


@functools.cache
def _kernel(name: str) -> _Scalar:
    workload = get_workload(name)
    return _Scalar(
        workload.program, workload.train_memory(), workload.eval_memory()
    )


@functools.cache
def kernel_run(name: str, model: str, label: str) -> MachineRun:
    return _kernel(name).run(model, CONFIGS[label])


@pytest.mark.parametrize("model", MODELS)
def test_every_kernel_runs_on_the_machine(model):
    for name in KERNELS:
        run = kernel_run(name, model, "base")
        assert run.machine_output == run.scalar_output, name
        assert run.measured == run.counted, name


@pytest.mark.parametrize("model", MODELS)
def test_only_buffering_models_use_the_buffers(model):
    buffers = MODELS[model].crosses_by(Mechanism.BUFFER)
    for label in CONFIGS:
        runs = [kernel_run(name, model, label) for name in KERNELS]
        buffered = sum((run.buffered for run in runs), Counter())
        shadow_operands = sum(run.shadow_operands for run in runs)
        if buffers:
            assert buffered["regfile.commits"] > 0, label
            assert buffered["store_buffer.commits"] > 0, label
        else:
            assert sum(buffered.values()) == 0, (label, buffered)
            assert shadow_operands == 0, label


def golden_grid() -> None:
    """Run the golden compile grid on the machine; raise on a mismatch."""
    from tests.compiler.test_golden_compiles import (
        CONFIGS as GRID_CONFIGS,
        FUZZ_RUNS,
    )
    from repro.verify.fuzz import build_case, derive_campaign

    programs = {name: _kernel(name) for name in KERNELS}
    for seed, index in FUZZ_RUNS:
        case = build_case(derive_campaign(seed, index))
        programs[f"fuzz {seed}/{index}"] = _Scalar(
            case.program(),
            case.make_memory(),
            case.make_memory(),
            case.make_fault_handler,
        )
    checked = 0
    for name, scalar in programs.items():
        for model in MODELS:
            for label, config in GRID_CONFIGS.items():
                run = scalar.run(model, config, CounterSink())
                where = f"{name} {model} {label}"
                assert run.machine_output == run.scalar_output, where
                measured = _less_btb(run.measured, config) - run.recovery_cycles
                assert measured == _less_btb(run.counted, config), where
                checked += 1
    print(f"golden grid: {checked} runs, output and cycles equal")


def _less_btb(cycles_hits_misses: tuple[int, int, int], config) -> int:
    """Cycles less the transfer penalties the BTB model charged."""
    cycles, hits, misses = cycles_hits_misses
    return (
        cycles
        - hits * config.taken_penalty_btb
        - misses * config.taken_penalty_indirect
    )
