"""Enforces the observability layer's zero-cost claim, structurally.

The obs layer promises that with every observer disabled -- the
:data:`NULL_SINK` metrics sink, the :data:`NULL_RECORDER` flight
recorder, :data:`NULL_TAINT` -- the simulators pay only one cached
boolean test per instrumentation site.  Timing that claim in tier-1 made
the suite depend on host load, so these tests pin its structure
instead: a run whose observers are disabled never calls into them, and
never renders an instruction as text.  How much the guards cost in wall
time is for the benchmark's A/B runs to measure.
"""

from __future__ import annotations

import pytest

from repro.analysis.branch_prediction import StaticPredictor
from repro.compiler.models import MODELS
from repro.compiler.pipeline import compile_program
from repro.ir.cfg import build_cfg
from repro.isa import decode, printer
from repro.machine import vliw
from repro.machine.config import base_machine
from repro.obs.metrics import NULL_SINK
from repro.obs.flight import NULL_RECORDER
from repro.sim import interpreter
from repro.taint import NULL_TAINT
from repro.verify.fuzz import build_case, derive_campaign
from repro.workloads import get_workload


class _Tripwire:
    """A disabled observer that records anything else it is asked for.

    ``enabled`` is False, like every disabled observer; any other
    attribute -- ``count``, ``record``, ``source``, ``reg_taint`` -- is
    logged in :attr:`touched` on lookup, so a guard that lets a call
    through shows up even if the call itself would do nothing.
    """

    enabled = False

    def __init__(self) -> None:
        self.touched: list[str] = []

    def __getattr__(self, name: str):
        self.touched.append(name)
        return lambda *args, **kwargs: None


@pytest.fixture
def rendered(monkeypatch) -> list[str]:
    """Every instruction rendered as text while the fixture is active."""
    calls: list[str] = []
    original = printer.format_instruction

    def counting(instruction, **kwargs):
        calls.append(instruction.opcode)
        return original(instruction, **kwargs)

    for module in (printer, decode, vliw):
        monkeypatch.setattr(module, "format_instruction", counting)
    return calls


def test_null_sink_is_disabled():
    assert NULL_SINK.enabled is False


def _run_unobserved(program, config, model, train_memory, eval_memory, **kwargs):
    """Train, compile and run *program* with tripwires for observers."""
    observers = {"sink": _Tripwire(), "flight": _Tripwire(), "taint": _Tripwire()}
    train = interpreter.Interpreter(
        program, train_memory, cfg=build_cfg(program), **observers, **kwargs
    ).run()
    compiled = compile_program(
        program, MODELS[model], config, StaticPredictor.from_trace(train.trace)
    )
    result = vliw.VLIWMachine(
        compiled.vliw, config, eval_memory, **observers, **kwargs
    ).run()
    touched = {name: o.touched for name, o in observers.items()}
    return train, result, touched


NOTHING_TOUCHED = {"sink": [], "flight": [], "taint": []}


@pytest.mark.parametrize("btb_entries", (None, 16))
def test_disabled_observers_receive_no_calls(rendered, btb_entries):
    workload = get_workload("compress")
    _, result, touched = _run_unobserved(
        workload.program,
        base_machine(btb_entries=btb_entries),
        "region_pred",
        workload.train_memory(),
        workload.eval_memory(),
    )
    assert result.speculative_ops > 0  # the buffering paths ran
    assert touched == NOTHING_TOUCHED
    assert rendered == []


def test_recovering_run_with_disabled_observers_makes_no_calls(rendered):
    # A fuzz program whose speculative loads fault: the fault-buffer,
    # exception-commit and recovery paths run too.
    case = build_case(derive_campaign(0, 90))
    program = case.program()
    rendered.clear()  # building the case renders its program text
    train, result, touched = _run_unobserved(
        program,
        case.config,
        case.model,
        case.make_memory(),
        case.make_memory(),
        fault_handler=case.make_fault_handler(),
    )
    assert result.recoveries > 0
    assert result.output == train.output
    assert touched == NOTHING_TOUCHED
    assert rendered == []


class TestDisabledRecorderGuard:
    """The flight recorder's disabled state is the same zero-cost shape.

    A default machine run carries :data:`NULL_RECORDER` and a single
    cached ``_forensics`` boolean; the hot loop pays one branch per
    guard site and allocates nothing.  The wall-clock cost is measured
    by ``perf/``'s security-twin workload, which runs every cell once
    plain and once observed (taint tracker and flight recorder on) --
    these tests pin the *structure* that cost depends on, so a refactor
    cannot silently start paying for forensics when they are off.
    """

    def test_null_recorder_is_disabled(self):
        assert NULL_RECORDER.enabled is False

    def test_default_machine_has_forensics_off(self):
        from repro.verify.fuzz import build_case, derive_campaign

        case = build_case(derive_campaign(0, 0))
        from repro.analysis.branch_prediction import StaticPredictor
        from repro.compiler.models import MODELS
        from repro.compiler.pipeline import compile_program
        from repro.ir.cfg import build_cfg
        from repro.machine.scalar import run_scalar
        from repro.machine.vliw import VLIWMachine

        program = case.program()
        cfg = build_cfg(program)
        train = run_scalar(program, cfg, case.make_memory())
        compiled = compile_program(
            program,
            MODELS[case.model],
            case.config,
            StaticPredictor.from_trace(train.trace),
        )
        machine = VLIWMachine(compiled.vliw, case.config, case.make_memory())
        assert machine.flight is NULL_RECORDER
        assert machine.effects is None
        assert machine._forensics is False

    def test_instrumentation_does_not_perturb_the_run(self):
        # Same case, forensics off (oracle) and fully on (diff-trace):
        # identical cycle counts and architectural verdicts, i.e. the
        # recorder observes the machine without becoming part of it.
        from repro.verify.fuzz import build_case, derive_campaign
        from repro.verify.tracediff import run_diff_trace

        case = build_case(derive_campaign(0, 0))
        bare = case.run()
        instrumented = run_diff_trace(**case.inputs())
        assert instrumented.equivalent == bare.equivalent
        assert instrumented.machine.cycles == bare.machine_cycles
        assert instrumented.scalar.cycles == bare.scalar_cycles


class TestDisabledTaintGuard:
    """Taint tracking off is the same zero-cost shape as forensics off.

    A default machine (and interpreter) carries :data:`NULL_TAINT` and a
    single cached ``_taint`` boolean; with taint off the hot loop pays
    one branch per guard site, pending/store-buffer entries keep
    ``taint=None``, and snapshots stay byte-identical to the pre-taint
    layout.  As with forensics, the wall-clock cost is measured by
    ``perf/``'s security-twin workload, half of whose machine runs are
    observed and half plain -- these tests pin the structure that cost
    depends on.
    """

    def test_null_taint_is_disabled(self):
        assert NULL_TAINT.enabled is False

    def test_default_machine_has_taint_off(self):
        from repro.verify.fuzz import build_case, derive_campaign

        case = build_case(derive_campaign(0, 0))
        from repro.analysis.branch_prediction import StaticPredictor
        from repro.compiler.models import MODELS
        from repro.compiler.pipeline import compile_program
        from repro.ir.cfg import build_cfg
        from repro.machine.scalar import run_scalar
        from repro.machine.vliw import VLIWMachine
        from repro.sim.interpreter import Interpreter

        program = case.program()
        cfg = build_cfg(program)
        train = run_scalar(program, cfg, case.make_memory())
        compiled = compile_program(
            program,
            MODELS[case.model],
            case.config,
            StaticPredictor.from_trace(train.trace),
        )
        machine = VLIWMachine(compiled.vliw, case.config, case.make_memory())
        assert machine.taint is NULL_TAINT
        assert machine._taint is False
        interpreter = Interpreter(program, case.make_memory(), cfg=cfg)
        assert interpreter.taint is NULL_TAINT
        assert interpreter._taint is False

    def test_taint_run_does_not_perturb_cycles(self):
        # The security oracle's twin runs -- taint off, then taint on --
        # must agree on cycle count, or the taint machinery has become
        # part of the timing it is supposed to observe.  (A disagreement
        # is *also* reported as a timing leak; asserting both keeps the
        # mechanism honest.)
        from repro.taint import run_security
        from repro.workloads import get_workload

        workload = get_workload("grep")
        result = run_security(
            workload.program,
            model="region_pred",
            train_memory=workload.train_memory(),
            eval_memory=workload.eval_memory(),
        )
        assert result.error is None
        assert result.secure
        assert result.taint_cycles == result.baseline_cycles
