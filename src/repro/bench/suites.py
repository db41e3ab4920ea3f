"""The registered benchmark suites.

Two tiers, mirroring how the simulators are actually exercised:

* **micro** -- the hot primitives the profiler attributes machine time
  to: predicate evaluation against the CCR, the register-file
  commit/squash sweep, store-buffer search, the bundle issue loop, and
  region scheduling.  Each body is sized to run a few milliseconds so
  clock resolution is never a factor.  The suite also carries the
  instrumented-vs-uninstrumented tick pair that enforces the
  observability layer's NULL_SINK zero-cost claim.
* **macro** -- every workload end to end on each engine (functional
  interpreter, scalar baseline machine, and the two executable
  predicating models on the cycle-level VLIW machine), plus
  compile-only and checkpoint-snapshot cost.

Throughput denominators come from the domain, not the wall clock: a
macro machine cell's work is its simulated cycle count, cross-checked
against the observability layer's ``machine.cycles`` counter during an
untimed calibration run (the bench subsystem consumes the
:class:`~repro.obs.metrics.CounterSink` rather than trusting the
benchmark body to count for itself).  Interpreter cells report steps,
compile cells report scheduled ops.

Registered benchmarks are deterministic in everything but wall time:
iteration counts are fixed per (benchmark, quick) pair, and bodies
re-run identical simulated work every iteration (the harness enforces
this).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.bench.harness import Measurement, run_measurement

SUITES = ("micro", "macro")

#: Executable predicating models measured by the macro suite.
MACRO_MODELS = ("region_pred", "trace_pred")

#: Snapshots taken per iteration of the checkpoint-cost benchmark.
SNAPSHOTS_PER_ITERATION = 10


@dataclass(frozen=True)
class BenchDef:
    """One registered benchmark.

    ``setup`` builds all untimed state (programs, compiled code,
    memories) and returns the timed body; the body returns its work-unit
    count, which must be identical every iteration.
    """

    name: str
    suite: str
    unit: str
    setup: Callable[[], Callable[[], int]]
    iterations: int
    warmup: int
    quick_iterations: int
    quick_warmup: int

    def run(self, *, quick: bool = False) -> Measurement:
        return run_measurement(
            name=self.name,
            suite=self.suite,
            unit=self.unit,
            fn=self.setup(),
            iterations=self.quick_iterations if quick else self.iterations,
            warmup=self.quick_warmup if quick else self.warmup,
        )


_REGISTRY: dict[str, BenchDef] = {}


def register(
    name: str,
    suite: str,
    unit: str,
    *,
    iterations: int,
    warmup: int,
    quick_iterations: int = 2,
    quick_warmup: int = 1,
) -> Callable[[Callable[[], Callable[[], int]]], Callable]:
    """Decorator registering *setup* as the benchmark *name*."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")

    def wrap(setup: Callable[[], Callable[[], int]]):
        if name in _REGISTRY:
            raise ValueError(f"duplicate benchmark {name!r}")
        _REGISTRY[name] = BenchDef(
            name=name,
            suite=suite,
            unit=unit,
            setup=setup,
            iterations=iterations,
            warmup=warmup,
            quick_iterations=quick_iterations,
            quick_warmup=quick_warmup,
        )
        return setup

    return wrap


def all_benchmarks(
    suite: str = "all", *, filter_substring: str | None = None
) -> list[BenchDef]:
    """Registered benchmarks of *suite* (``micro``/``macro``/``all``),
    in registration order, optionally filtered by name substring."""
    if suite not in SUITES and suite != "all":
        raise ValueError(f"unknown suite {suite!r}")
    return [
        bench
        for bench in _REGISTRY.values()
        if (suite == "all" or bench.suite == suite)
        and (filter_substring is None or filter_substring in bench.name)
    ]


def get_benchmark(name: str) -> BenchDef:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}") from None


# ----------------------------------------------------------------------
# Micro suite.
# ----------------------------------------------------------------------
@register(
    "micro.predicate_eval", "micro", "evals", iterations=30, warmup=3,
    quick_iterations=5,
)
def _predicate_eval() -> Callable[[], int]:
    """Tri-state predicate evaluation against live CCR contents --
    the single most frequent operation in the machine's control path,
    timed through :meth:`CCR.evaluate`, the masked match the machine
    inlines."""
    from repro.core.ccr import CCR
    from repro.core.predicate import parse_predicate

    predicates = [
        parse_predicate(text)
        for text in (
            "alw", "c0", "!c0", "c0&c1", "c0&!c1", "!c0&c2",
            "c0&c1&c2", "c0&!c1&c3", "c1&c2&!c3", "c0&c1&c2&c3",
        )
    ]
    ccr = CCR(8)
    ccr.set(0, True)
    ccr.set(1, False)
    ccr.set(2, True)
    rounds = 2_000

    def body() -> int:
        evals = 0
        for _ in range(rounds):
            for predicate in predicates:
                ccr.evaluate(predicate)
                evals += 1
        return evals

    return body


@register(
    "micro.ccr_commit_sweep", "micro", "writes", iterations=30, warmup=3,
    quick_iterations=5,
)
def _ccr_commit_sweep() -> Callable[[], int]:
    """Buffer speculative writes, decide their condition, and run the
    per-cycle commit/squash hardware (half commit, half squash)."""
    from repro.core.ccr import CCR
    from repro.core.predicate import Predicate
    from repro.core.regfile import PredicatedRegisterFile

    commit_pred = Predicate({0: True})
    squash_pred = Predicate({0: False})
    rounds = 150

    def body() -> int:
        regfile = PredicatedRegisterFile(32, shadow_capacity=None)
        ccr = CCR(8)
        writes = 0
        for round_number in range(rounds):
            for reg in range(1, 9):
                regfile.write_speculative(reg, round_number, commit_pred)
                regfile.write_speculative(reg + 8, round_number, squash_pred)
                writes += 2
            ccr.set(0, True)
            regfile.tick(ccr)
            ccr.reset()
        return writes

    return body


@register(
    "micro.store_buffer_search", "micro", "lookups", iterations=30, warmup=3,
    quick_iterations=5,
)
def _store_buffer_search() -> Callable[[], int]:
    """Store-to-load forwarding search over a loaded buffer: newest-first
    scan with predicate implication and disjointness tests."""
    from repro.core.predicate import ALWAYS, Predicate
    from repro.core.store_buffer import PredicatedStoreBuffer

    spec_pred = Predicate({0: True})
    reader_pred = Predicate({0: True, 1: True})  # implies spec_pred
    other_pred = Predicate({0: False})  # disjoint with reader_pred

    buffer = PredicatedStoreBuffer(16)
    for slot in range(6):
        buffer.append(100 + slot, slot, ALWAYS, speculative=False)
    for slot in range(4):
        buffer.append(200 + slot, slot, spec_pred, speculative=True)
    for slot in range(4):
        buffer.append(300 + slot, slot, other_pred, speculative=True)
    rounds = 400
    addresses = (100, 105, 202, 303, 999, 104, 201, 300)

    def body() -> int:
        lookups = 0
        for _ in range(rounds):
            for address in addresses:
                pred = ALWAYS if address < 200 else reader_pred
                if 300 <= address < 400 or address == 999:
                    pred = other_pred
                buffer.lookup(address, pred)
                lookups += 1
        return lookups

    return body


def _compiled(workload_name: str, model: str):
    """Compile *workload* under *model* the way the evaluation does."""
    from repro.analysis.branch_prediction import StaticPredictor
    from repro.compiler import compile_program
    from repro.ir import build_cfg
    from repro.machine.config import base_machine
    from repro.machine.scalar import run_scalar
    from repro.workloads import get_workload

    workload = get_workload(workload_name)
    cfg = build_cfg(workload.program)
    train = run_scalar(workload.program, cfg, workload.train_memory())
    predictor = StaticPredictor.from_trace(train.trace)
    compiled = compile_program(
        workload.program, model, base_machine(), predictor
    )
    return workload, predictor, compiled


@register(
    "micro.bundle_issue", "micro", "cycles", iterations=30, warmup=3,
    quick_iterations=5,
)
def _bundle_issue() -> Callable[[], int]:
    """The machine's bundle issue loop on the smallest workload --
    dominated by per-op predicate verdicts and operand reads."""
    from repro.machine.config import base_machine
    from repro.machine.vliw import VLIWMachine

    workload, _, compiled = _compiled("li", "region_pred")
    assert compiled.vliw is not None
    config = base_machine()
    memory = workload.eval_memory()
    runs = 3

    def body() -> int:
        cycles = 0
        for _ in range(runs):
            machine = VLIWMachine(compiled.vliw, config, memory.clone())
            cycles += machine.run().cycles
        return cycles

    return body


@register(
    "micro.region_schedule", "micro", "ops", iterations=15, warmup=2,
    quick_iterations=3,
)
def _region_schedule() -> Callable[[], int]:
    """Region formation, predication and list scheduling (compile hot
    path), measured on the branchiest kernel."""
    from repro.analysis.branch_prediction import StaticPredictor
    from repro.compiler import compile_program
    from repro.ir import build_cfg
    from repro.machine.config import base_machine
    from repro.machine.scalar import run_scalar
    from repro.workloads import get_workload

    workload = get_workload("espresso")
    cfg = build_cfg(workload.program)
    train = run_scalar(workload.program, cfg, workload.train_memory())
    predictor = StaticPredictor.from_trace(train.trace)
    config = base_machine()

    def body() -> int:
        compiled = compile_program(
            workload.program, "region_pred", config, predictor
        )
        return sum(
            len(unit.region.items) for unit in compiled.code.units.values()
        )

    return body


_OBS_STATE: list = []


def _loaded_regfile_and_ccr():
    """A register file mid-flight: some decided, some undecided state.

    The *same* instance is served to both obs benchmarks -- allocation
    locality varies enough between instances to swamp the guard
    overhead the pair exists to expose.  Safe to share: every buffered
    predicate stays UNSPEC, so ticking never mutates the file.
    """
    if not _OBS_STATE:
        from repro.core.ccr import CCR
        from repro.core.predicate import Predicate
        from repro.core.regfile import PredicatedRegisterFile

        regfile = PredicatedRegisterFile(32, shadow_capacity=None)
        undecided = Predicate({5: True})  # c5 never set: writes are held
        for reg in range(1, 13):
            regfile.write_speculative(reg, reg * 7, undecided)
        ccr = CCR(8)
        ccr.set(0, True)
        _OBS_STATE.append((regfile, ccr))
    return _OBS_STATE[0]


@register(
    "micro.obs_null_sink_tick", "micro", "ticks", iterations=30, warmup=3,
    quick_iterations=5,
)
def _obs_null_sink_tick() -> Callable[[], int]:
    """The production commit-hardware tick with the default NULL_SINK:
    its only instrumentation cost is the ``sink.enabled`` guard sites."""
    regfile, ccr = _loaded_regfile_and_ccr()
    rounds = 2_000

    def body() -> int:
        for _ in range(rounds):
            regfile.tick(ccr)
        return rounds

    return body


@register(
    "micro.obs_uninstrumented_tick", "micro", "ticks", iterations=30,
    warmup=3, quick_iterations=5,
)
def _obs_uninstrumented_tick() -> Callable[[], int]:
    """The uninstrumented timing reference for the zero-cost claim: the
    same commit hardware invoked below the sink guard sites
    (:meth:`PredicatedRegisterFile._tick_core`)."""
    regfile, ccr = _loaded_regfile_and_ccr()
    rounds = 2_000

    def body() -> int:
        for _ in range(rounds):
            regfile._tick_core(ccr)
        return rounds

    return body


# ----------------------------------------------------------------------
# Macro suite.
# ----------------------------------------------------------------------
def _macro_interpreter(workload_name: str) -> Callable[[], Callable[[], int]]:
    def setup() -> Callable[[], int]:
        from repro.sim.interpreter import run_program
        from repro.workloads import get_workload

        workload = get_workload(workload_name)
        memory = workload.eval_memory()

        def body() -> int:
            return run_program(workload.program, memory.clone()).steps

        return body

    return setup


def _macro_scalar(workload_name: str) -> Callable[[], Callable[[], int]]:
    def setup() -> Callable[[], int]:
        from repro.ir import build_cfg
        from repro.machine.scalar import run_scalar
        from repro.workloads import get_workload

        workload = get_workload(workload_name)
        cfg = build_cfg(workload.program)
        memory = workload.eval_memory()

        def body() -> int:
            return run_scalar(workload.program, cfg, memory.clone()).cycles

        return body

    return setup


def _macro_machine(
    workload_name: str, model: str
) -> Callable[[], Callable[[], int]]:
    def setup() -> Callable[[], int]:
        from repro.machine.config import base_machine
        from repro.machine.vliw import VLIWMachine
        from repro.obs.metrics import CounterSink

        workload, _, compiled = _compiled(workload_name, model)
        assert compiled.vliw is not None
        config = base_machine()
        memory = workload.eval_memory()

        # Calibration: one untimed instrumented run.  The observability
        # layer's cycle counter is the authoritative work denominator,
        # and must reconcile exactly with the machine's own count.
        sink = CounterSink()
        calibration = VLIWMachine(
            compiled.vliw, config, memory.clone(), sink=sink
        ).run()
        if sink.counter("machine.cycles") != calibration.cycles:
            raise RuntimeError(
                f"{workload_name}/{model}: counter disagrees with machine "
                f"({sink.counter('machine.cycles')} != {calibration.cycles})"
            )

        def body() -> int:
            machine = VLIWMachine(compiled.vliw, config, memory.clone())
            return machine.run().cycles

        return body

    return setup


def _macro_compile(workload_name: str) -> Callable[[], Callable[[], int]]:
    def setup() -> Callable[[], int]:
        from repro.analysis.branch_prediction import StaticPredictor
        from repro.compiler import compile_program
        from repro.ir import build_cfg
        from repro.machine.config import base_machine
        from repro.machine.scalar import run_scalar
        from repro.workloads import get_workload

        workload = get_workload(workload_name)
        cfg = build_cfg(workload.program)
        train = run_scalar(workload.program, cfg, workload.train_memory())
        predictor = StaticPredictor.from_trace(train.trace)
        config = base_machine()

        def body() -> int:
            compiled = compile_program(
                workload.program, "region_pred", config, predictor
            )
            return sum(
                len(unit.region.items)
                for unit in compiled.code.units.values()
            )

        return body

    return setup


def _register_macro_suite() -> None:
    from repro.workloads import all_workloads

    for workload in all_workloads():
        name = workload.name
        register(
            f"macro.{name}.interpreter", "macro", "steps",
            iterations=7, warmup=2,
        )(_macro_interpreter(name))
        register(
            f"macro.{name}.scalar", "macro", "cycles",
            iterations=7, warmup=2,
        )(_macro_scalar(name))
        for model in MACRO_MODELS:
            register(
                f"macro.{name}.{model}", "macro", "cycles",
                iterations=7, warmup=2,
            )(_macro_machine(name, model))
        register(
            f"macro.{name}.compile", "macro", "ops",
            iterations=7, warmup=1,
        )(_macro_compile(name))


@register(
    "macro.ckpt_snapshot", "macro", "snapshots", iterations=15, warmup=2,
    quick_iterations=3,
)
def _ckpt_snapshot() -> Callable[[], int]:
    """Cost of capturing (and sealing) one mid-run machine snapshot --
    the checkpoint layer's per-period overhead."""
    from repro.ckpt.state import snapshot_vliw
    from repro.machine.config import base_machine
    from repro.machine.vliw import VLIWMachine

    workload, _, compiled = _compiled("compress", "region_pred")
    assert compiled.vliw is not None
    machine = VLIWMachine(compiled.vliw, base_machine(), workload.eval_memory())
    for _ in range(500):  # park the machine mid-run, speculative state live
        if not machine.step():
            break

    def body() -> int:
        for _ in range(SNAPSHOTS_PER_ITERATION):
            snapshot_vliw(machine)
        return SNAPSHOTS_PER_ITERATION

    return body


_register_macro_suite()
