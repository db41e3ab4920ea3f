"""Lockstep differential checker: VLIW machine vs scalar golden model.

``run_oracle`` compiles a program under an executable predicating model,
runs the result on the cycle-level :class:`~repro.machine.vliw.VLIWMachine`,
runs the *same* program through the scalar
:class:`~repro.sim.interpreter.Interpreter` (the golden model), and
compares everything architecturally observable:

* the output stream (``out`` values, in order);
* the full sequential register file at halt;
* the final memory snapshot (every stored word);
* fault behaviour (an unhandled fault on one side must be the *same*
  unhandled fault on the other).

Any difference produces a structured :class:`DivergenceReport` naming the
first divergent register/address, the region holding the machine's final
PC, and the machine's committed-vs-squashed buffer state via the existing
:class:`~repro.obs.diagnostics.MachineSnapshot`.

The comparison is exact, not approximate: predicated state buffering is
*supposed* to reach bit-identical sequential state (Section 3), and the
scheduler orders every architecturally visible write before region exits,
so full register/memory equality is an invariant, not a heuristic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.analysis.branch_prediction import StaticPredictor
from repro.compiler.models import MODELS
from repro.compiler.pipeline import compile_program
from repro.compiler.policy import ModelPolicy
from repro.core.exceptions import ScheduleViolation, UnhandledFault
from repro.ir.cfg import CFG, build_cfg
from repro.isa.program import Program
from repro.machine.config import MachineConfig, base_machine
from repro.machine.program import VLIWProgram
from repro.machine.scalar import run_scalar
from repro.machine.vliw import VLIWMachine, VLIWResult
from repro.obs.diagnostics import MachineAbort, MachineSnapshot
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.sim.interpreter import (
    Interpreter,
    InterpreterResult,
    StepLimitExceeded,
)
from repro.sim.memory import Memory

#: CLI aliases accepted everywhere a model is named; the paper's
#: "predicating" model is region predication.
MODEL_ALIASES = {"predicating": "region_pred"}

#: The models that emit code the cycle-level machine can run.
EXECUTABLE_MODELS = tuple(
    sorted(name for name, policy in MODELS.items() if policy.executable)
)

#: The model names the oracle, ``repro verify``, ``diff-trace`` and
#: ``profile`` accept: the aliases, then the executable models.
VERIFY_MODELS = (*MODEL_ALIASES, *EXECUTABLE_MODELS)

#: Divergence sites reported before the comparison stops enumerating.
MAX_SITES = 8

#: Default execution budgets -- far above any workload, far below the
#: interpreter/machine global defaults so a livelocked candidate fails
#: fast during fuzzing and shrinking.
DEFAULT_MAX_STEPS = 2_000_000
DEFAULT_MAX_CYCLES = 20_000_000


def resolve_model(model: str) -> str:
    """Canonical executable model name for *model* (accepts aliases)."""
    name = MODEL_ALIASES.get(model, model)
    policy = MODELS.get(name)
    if policy is None:
        raise ValueError(
            f"unknown model {model!r}; choose from {sorted(VERIFY_MODELS)}"
        )
    if not policy.executable:
        raise ValueError(
            f"model {model!r} is analytic-only; the oracle needs an "
            f"executable model ({sorted(VERIFY_MODELS)})"
        )
    return name


@dataclass(frozen=True)
class DivergenceSite:
    """One observable difference between machine and golden model."""

    kind: str  # "output" | "register" | "memory" | "fault" | "error"
    locus: str  # e.g. "out[3]", "r7", "mem[204]", "machine"
    expected: object  # what the scalar golden model produced
    actual: object  # what the machine produced

    def describe(self) -> str:
        return f"{self.locus}: expected {self.expected!r}, got {self.actual!r}"


@dataclass
class DivergenceReport:
    """Structured description of one machine/golden divergence."""

    program: str
    model: str
    category: str  # the first (most severe) site kind
    sites: tuple[DivergenceSite, ...]
    region: str | None = None
    snapshot: MachineSnapshot | None = None
    machine_error: str | None = None
    scalar_error: str | None = None

    def describe(self) -> str:
        lines = [f"{self.program} [{self.model}]: DIVERGED ({self.category})"]
        for site in self.sites:
            lines.append(f"  {site.describe()}")
        if self.region is not None:
            lines.append(f"  final region: {self.region}")
        if self.scalar_error:
            lines.append(f"  scalar error: {self.scalar_error.splitlines()[0]}")
        if self.machine_error:
            lines.append(
                f"  machine error: {self.machine_error.splitlines()[0]}"
            )
        if self.snapshot is not None:
            lines.append("  machine state at divergence:")
            lines.extend(
                f"    {line}" for line in self.snapshot.describe().splitlines()
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "model": self.model,
            "category": self.category,
            "region": self.region,
            "scalar_error": self.scalar_error,
            "machine_error": self.machine_error,
            "sites": [
                {
                    "kind": site.kind,
                    "locus": site.locus,
                    "expected": _jsonable(site.expected),
                    "actual": _jsonable(site.actual),
                }
                for site in self.sites
            ],
        }


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


@dataclass
class OracleResult:
    """Outcome of one differential check."""

    program: str
    model: str
    equivalent: bool
    report: DivergenceReport | None
    scalar_cycles: int | None = None
    machine_cycles: int | None = None
    scalar_faults: int = 0
    machine_faults: int = 0
    recoveries: int = 0
    compared_registers: int = 0
    compared_words: int = 0

    @property
    def speedup(self) -> float | None:
        if not self.scalar_cycles or not self.machine_cycles:
            return None
        return self.scalar_cycles / self.machine_cycles

    def describe(self) -> str:
        if self.equivalent:
            detail = (
                f"scalar {self.scalar_cycles} cy, machine "
                f"{self.machine_cycles} cy"
            )
            if self.speedup:
                detail += f", speedup {self.speedup:.2f}x"
            if self.recoveries:
                detail += f", {self.recoveries} recoveries"
            if self.machine_faults:
                detail += f", {self.machine_faults} handled faults"
            return f"{self.program} [{self.model}]: EQUIVALENT ({detail})"
        assert self.report is not None
        return self.report.describe()

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "model": self.model,
            "equivalent": self.equivalent,
            "scalar_cycles": self.scalar_cycles,
            "machine_cycles": self.machine_cycles,
            "scalar_faults": self.scalar_faults,
            "machine_faults": self.machine_faults,
            "recoveries": self.recoveries,
            "compared_registers": self.compared_registers,
            "compared_words": self.compared_words,
            "report": None if self.report is None else self.report.to_dict(),
        }


@dataclass
class Prepared:
    """What every check starts from: one program, compiled once.

    Without a *vliw*, *error* says why: the training run's step-limit
    error (prefixed ``training run:``) or the scheduler's
    :class:`ScheduleViolation`; each check reports it its own way.
    """

    model: str
    config: MachineConfig
    eval_memory: Memory
    cfg: CFG
    vliw: VLIWProgram | None = None
    error: Exception | None = None


def prepare(
    program: Program,
    model: str | ModelPolicy,
    config: MachineConfig | None = None,
    *,
    train_memory: Memory | None = None,
    eval_memory: Memory | None = None,
    fault_handler=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    policy_overrides: dict | None = None,
) -> Prepared:
    """The front end of the oracle, the lockstep diff and the security twin.

    Resolves *model* (a name, alias or :class:`ModelPolicy`) and applies
    *policy_overrides* (``dataclasses.replace`` fields; the fuzzer sweeps
    ``window_blocks`` / ``share_equivalent_joins`` this way), defaults
    the machine and memories (*train_memory* to *eval_memory*), builds
    the CFG, profiles the branches with a training run, and compiles.  A
    livelocked training run becomes :attr:`Prepared.error`, never a raw
    traceback: the step limit is the point of ``--max-cycles``.
    """
    if isinstance(model, str):
        name = resolve_model(model)
        policy = MODELS[name]
    else:
        policy = model
        name = policy.name
    if policy_overrides:
        policy = dataclasses.replace(policy, **policy_overrides)
    config = config if config is not None else base_machine()
    eval_memory = eval_memory if eval_memory is not None else Memory()
    train_memory = train_memory if train_memory is not None else eval_memory
    prepared = Prepared(name, config, eval_memory, build_cfg(program))
    try:
        train = run_scalar(
            program,
            prepared.cfg,
            train_memory.clone(),
            fault_handler=fault_handler,
            max_steps=max_steps,
        )
        predictor = StaticPredictor.from_trace(train.trace)
        prepared.vliw = compile_program(program, policy, config, predictor).vliw
    except StepLimitExceeded as error:
        prepared.error = StepLimitExceeded(f"training run: {error}")
    except ScheduleViolation as error:  # the scheduler's own invariants
        prepared.error = error
    return prepared


def region_label(vliw: VLIWProgram, pc: int) -> str | None:
    """The label of the region span containing bundle *pc*."""
    for span in vliw.regions:
        if span.start <= pc < span.end:
            return span.label
    return None


def run_oracle(
    program: Program,
    model: str | ModelPolicy,
    config: MachineConfig | None = None,
    *,
    train_memory: Memory | None = None,
    eval_memory: Memory | None = None,
    fault_handler=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    policy_overrides: dict | None = None,
    machine_factory=None,
    sink: MetricsSink = NULL_SINK,
) -> OracleResult:
    """Differentially check *program* under *model* against the golden model.

    *machine_factory* (signature-compatible with :class:`VLIWMachine`)
    exists so tests can seed a deliberately broken machine and watch the
    oracle catch it.  The other arguments go to :func:`prepare`.
    """
    front = prepare(
        program,
        model,
        config,
        train_memory=train_memory,
        eval_memory=eval_memory,
        fault_handler=fault_handler,
        max_steps=max_steps,
        policy_overrides=policy_overrides,
    )
    return check_prepared(
        program,
        front,
        fault_handler=fault_handler,
        max_steps=max_steps,
        max_cycles=max_cycles,
        machine_factory=machine_factory,
        sink=sink,
    )


def check_prepared(
    program: Program,
    front: Prepared,
    *,
    fault_handler=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    machine_factory=None,
    sink: MetricsSink = NULL_SINK,
) -> OracleResult:
    """:func:`run_oracle` on *program* as *front* prepared it.  One
    prepared program serves any number of machine runs: the fault
    campaign runs its clean probe and its injected machine on one
    compile."""
    factory = machine_factory if machine_factory is not None else VLIWMachine

    if sink.enabled:
        sink.count("oracle.runs")

    # --- golden model: the scalar interpreter -------------------------
    golden: InterpreterResult | None = None
    golden_fault: UnhandledFault | None = None
    scalar_error: str | None = None
    interpreter = Interpreter(
        program,
        front.eval_memory.clone(),
        cfg=front.cfg,
        fault_handler=fault_handler,
        max_steps=max_steps,
    )
    try:
        golden = interpreter.run()
    except UnhandledFault as fault:
        golden_fault = fault
    except StepLimitExceeded as error:
        scalar_error = str(error)

    # --- machine -------------------------------------------------------
    machine_error: str | None = None
    machine_fault: UnhandledFault | None = None
    machine_result: VLIWResult | None = None
    machine = None
    snapshot: MachineSnapshot | None = None
    if front.error is not None:
        machine_error = f"{type(front.error).__name__}: {front.error}"
    else:
        try:
            machine = factory(
                front.vliw,
                front.config,
                front.eval_memory.clone(),
                fault_handler=fault_handler,
                max_cycles=max_cycles,
            )
            machine_result = machine.run()
        except UnhandledFault as fault:
            machine_fault = fault
        except (ScheduleViolation, MachineAbort) as error:
            machine_error = f"{type(error).__name__}: {error}"
            snapshot = getattr(error, "snapshot", None)
    if machine is not None and snapshot is None:
        snapshot = machine.snapshot()

    # --- compare -------------------------------------------------------
    sites = _compare(
        golden, golden_fault, scalar_error,
        machine_result, machine_fault, machine_error,
    )
    report: DivergenceReport | None = None
    if sites:
        final_region = None
        if machine is not None and snapshot is not None:
            final_region = region_label(machine.program, snapshot.pc)
        report = DivergenceReport(
            program=program.name,
            model=front.model,
            category=sites[0].kind,
            sites=tuple(sites[:MAX_SITES]),
            region=final_region,
            snapshot=snapshot,
            machine_error=(
                machine_error
                if machine_error is not None
                else (str(machine_fault) if machine_fault else None)
            ),
            scalar_error=(
                scalar_error
                if scalar_error is not None
                else (str(golden_fault) if golden_fault else None)
            ),
        )
        if sink.enabled:
            sink.count("oracle.divergences")
            sink.count(f"oracle.divergences.{report.category}")
    elif sink.enabled:
        sink.count("oracle.equivalent")

    return OracleResult(
        program=program.name,
        model=front.model,
        equivalent=report is None,
        report=report,
        scalar_cycles=golden.scalar_cycles if golden is not None else None,
        machine_cycles=(
            machine_result.cycles if machine_result is not None else None
        ),
        scalar_faults=golden.handled_faults if golden is not None else 0,
        machine_faults=(
            machine_result.handled_faults if machine_result is not None else 0
        ),
        recoveries=(
            machine_result.recoveries if machine_result is not None else 0
        ),
        compared_registers=(
            len(golden.registers)
            if golden is not None and machine_result is not None
            else 0
        ),
        compared_words=(
            len(golden.memory.snapshot())
            if golden is not None and machine_result is not None
            else 0
        ),
    )


def _compare(
    golden: InterpreterResult | None,
    golden_fault: UnhandledFault | None,
    scalar_error: str | None,
    machine_result: VLIWResult | None,
    machine_fault: UnhandledFault | None,
    machine_error: str | None,
) -> list[DivergenceSite]:
    """All observable differences, most severe first."""
    sites: list[DivergenceSite] = []

    # Hard failures first: a machine abort or a step-limit blowout is
    # never equivalence, whatever the other side did.
    if machine_error is not None:
        sites.append(
            DivergenceSite(
                kind="error",
                locus="machine",
                expected="completion",
                actual=machine_error.splitlines()[0],
            )
        )
        return sites
    if scalar_error is not None:
        sites.append(
            DivergenceSite(
                kind="error",
                locus="scalar",
                expected="completion",
                actual=scalar_error.splitlines()[0],
            )
        )
        return sites

    # Fault parity: both sides must trap identically or not at all.
    if golden_fault is not None or machine_fault is not None:
        g = golden_fault.fault if golden_fault is not None else None
        m = machine_fault.fault if machine_fault is not None else None
        g_key = (g.kind.value, g.address) if g is not None else None
        m_key = (m.kind.value, m.address) if m is not None else None
        if g_key != m_key:
            sites.append(
                DivergenceSite(
                    kind="fault",
                    locus="unhandled-fault",
                    expected=g_key,
                    actual=m_key,
                )
            )
        return sites  # equivalent-by-fault: no state to compare

    assert golden is not None and machine_result is not None

    # Output stream.
    g_out, m_out = golden.output, machine_result.output
    for index, (expected, actual) in enumerate(zip(g_out, m_out)):
        if expected != actual:
            sites.append(
                DivergenceSite("output", f"out[{index}]", expected, actual)
            )
            break
    if not sites and len(g_out) != len(m_out):
        sites.append(
            DivergenceSite("output", "len(out)", len(g_out), len(m_out))
        )

    # Full register file.
    for reg, (expected, actual) in enumerate(
        zip(golden.registers, machine_result.registers)
    ):
        if expected != actual:
            sites.append(DivergenceSite("register", f"r{reg}", expected, actual))
            if len(sites) >= MAX_SITES:
                return sites

    # Final memory image.
    g_mem = golden.memory.snapshot()
    m_mem = machine_result.memory.snapshot()
    for address in sorted(g_mem.keys() | m_mem.keys()):
        expected, actual = g_mem.get(address), m_mem.get(address)
        if expected != actual:
            sites.append(
                DivergenceSite("memory", f"mem[{address}]", expected, actual)
            )
            if len(sites) >= MAX_SITES:
                return sites
    return sites
