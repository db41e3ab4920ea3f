"""Parallel, cached experiment runner.

The evaluation decomposes into *cells*: independent (workload, policy,
machine-config) measurements -- a speedup, a static-expansion ratio, a
prediction-accuracy vector, a hardware-cost report.  A
:class:`CellSpec` names one such measurement declaratively, so it can be

* **hashed** -- :func:`cell_cache_key` derives a content key from the
  workload's program text, its train/eval seeds, the resolved policy
  fields, the machine configuration and the cell kind, backing a durable
  on-disk cache (any change to any ingredient is a miss);
* **shipped** -- specs are plain frozen dataclasses, so cache misses fan
  out over a :class:`concurrent.futures.ProcessPoolExecutor`; and
* **merged deterministically** -- results come back in spec order
  regardless of which worker finished first, so a ``--jobs 4`` run
  produces byte-identical artifacts to a serial one.

:class:`ExperimentContext` (shared by every driver in
:mod:`repro.eval.experiments`) owns the workload set, the in-process
memo of scalar runs (baselines and unrolled programs), and a
:class:`CellRunner` carrying the parallelism/caching knobs plus
hit/miss and per-cell wall-time telemetry.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.analysis.branch_prediction import StaticPredictor, successive_accuracy
from repro.ckpt.signals import SignalSupervisor
from repro.compiler.models import MODELS, REGION_PRED
from repro.compiler.pipeline import compile_program
from repro.compiler.policy import ModelPolicy
from repro.eval import hwcost as hwcost_model
from repro.ir.cfg import CFG, build_cfg
from repro.isa.printer import format_program
from repro.isa.program import Program
from repro.machine.config import MachineConfig
from repro.machine.scalar import ScalarRun, run_scalar
from repro.machine.vliw import VLIWMachine
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.obs.runlog import NULL_RUN_LOG, RunLog
from repro.serve.backoff import backoff_delay
from repro.workloads import Workload, all_workloads

#: Bump when the cached entry's format changes; a change to the code
#: that computes a cell already changes its key (:func:`source_digest`).
#: v2: speedup cells additionally carry finite-BTB hit/miss statistics.
CACHE_VERSION = 2


# ----------------------------------------------------------------------
# Cell specification.
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CellSpec:
    """One independent measurement of the evaluation.

    Kinds:

    * ``baseline`` -- scalar cycles / static size of a workload;
    * ``accuracy`` -- Table 3 successive-branch prediction accuracy
      (``extras``: ``max_run``);
    * ``speedup`` -- speedup of ``model``/``policy`` over the scalar
      baseline on ``config`` (optionally validated on the VLIW machine);
    * ``compile_stats`` -- analytic speedup plus static code expansion;
    * ``profile`` -- region predicating with a cross- or self-trained
      predictor (``extras``: ``mode``);
    * ``unroll`` -- region predicating after loop unrolling
      (``extras``: ``factor``);
    * ``hwcost`` -- the Section 4.2.1 transistor/gate-delay report
      (``extras``: optional ``params``).
    """

    kind: str
    workload: str | None = None
    model: str | None = None
    policy: ModelPolicy | None = None
    config: MachineConfig | None = None
    run_machine: bool = False
    extras: tuple[tuple[str, object], ...] = ()

    def extra(self, key: str, default=None):
        return dict(self.extras).get(key, default)

    def resolved_policy(self) -> ModelPolicy | None:
        if self.policy is not None:
            return self.policy
        if self.model is not None:
            return MODELS[self.model]
        return None

    def label(self) -> str:
        """Short human-readable identity for telemetry lines."""
        parts = [self.kind]
        if self.workload:
            parts.append(self.workload)
        policy = self.resolved_policy()
        if policy is not None:
            parts.append(policy.name)
        parts.extend(f"{k}={v}" for k, v in self.extras)
        return "/".join(str(p) for p in parts)


def _canonical(obj):
    """Reduce dataclasses/enums/tuples to stable JSON-ready structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    return obj


@functools.cache
def source_digest() -> str:
    """SHA-256 of the ``repro`` package source, once per process.

    Hashes every ``repro/**/*.py`` path (relative to the package, in
    sorted order) together with the file's bytes, so a result cached or
    ledgered by other code never counts as this code's.
    """
    root = Path(__file__).resolve().parents[1]
    files = sorted(
        (path.relative_to(root).as_posix(), path)
        for path in root.rglob("*.py")
    )
    digest = hashlib.sha256()
    for name, path in files:
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def cell_cache_key(spec: CellSpec, workload: Workload | None) -> str:
    """Content hash identifying a cell's result.

    Covers everything the measurement depends on: the program *text* (not
    just the workload name), the train/eval seeds (memory contents derive
    from them), every field of the resolved policy and machine config,
    the cell kind with its extras, the code that measures it
    (:func:`source_digest`), and a cache version for format changes.
    Changing any ingredient changes the key.
    """
    payload = {
        "version": CACHE_VERSION,
        "source": source_digest(),
        "kind": spec.kind,
        "run_machine": spec.run_machine,
        "policy": _canonical(spec.resolved_policy()),
        "config": _canonical(spec.config),
        "extras": _canonical(dict(spec.extras)),
    }
    if workload is not None:
        payload["workload"] = workload.name
        payload["program"] = format_program(workload.program)
        payload["train_seed"] = workload.train_seed
        payload["eval_seed"] = workload.eval_seed
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Baselines and the shared context.
# ----------------------------------------------------------------------
@dataclass
class WorkloadBaseline:
    """Cached scalar behaviour of one workload's program (the original,
    or an unrolled copy): its CFG, the predictor its training run
    profiles, and its evaluation run."""

    workload: Workload
    program: Program
    cfg: CFG
    predictor: StaticPredictor
    evaluation: ScalarRun


class ExperimentContext:
    """Shared workload set + scalar-run cache for all experiments.

    Also carries the :class:`CellRunner` (parallelism, on-disk cache,
    telemetry) the drivers in :mod:`repro.eval.experiments` fan their
    cells out through.
    """

    def __init__(
        self,
        workloads: list[Workload] | None = None,
        *,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        use_cache: bool = True,
        cell_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        fail_fast: bool = False,
        sink: MetricsSink = NULL_SINK,
        supervisor: SignalSupervisor | None = None,
        run_log: RunLog = NULL_RUN_LOG,
        progress: Callable[[int, int, "RunnerStats"], None] | None = None,
    ):
        self.workloads = workloads if workloads is not None else all_workloads()
        self._baselines: dict[str, WorkloadBaseline] = {}
        self._unrolled: dict[tuple[str, int], WorkloadBaseline] = {}
        self.sink = sink
        self.runner = CellRunner(
            self, jobs=jobs, cache_dir=cache_dir, use_cache=use_cache,
            cell_timeout=cell_timeout, max_retries=max_retries,
            retry_backoff=retry_backoff, fail_fast=fail_fast,
            sink=sink, supervisor=supervisor,
            run_log=run_log, progress=progress,
        )

    def workload(self, name: str) -> Workload:
        for workload in self.workloads:
            if workload.name == name:
                return workload
        from repro.workloads import get_workload

        return get_workload(name)

    def baseline(self, workload: Workload) -> WorkloadBaseline:
        if workload.name not in self._baselines:
            self._baselines[workload.name] = _scalar_runs(
                workload, workload.program
            )
        return self._baselines[workload.name]

    def unrolled(self, workload: Workload, factor: int) -> WorkloadBaseline:
        """:meth:`baseline`'s runs of *workload* with every loop unrolled
        *factor* times, memoized on the context the same way.

        Factor 1 is the baseline entry itself.  The unrolled program
        must print what the original prints; that is checked once, when
        the entry is filled.
        """
        if factor == 1:
            return self.baseline(workload)
        key = (workload.name, factor)
        if key not in self._unrolled:
            from repro.compiler.unroll import unroll_loops

            program = unroll_loops(
                build_cfg(workload.program), factor
            ).to_program()
            entry = _scalar_runs(workload, program)
            original = self.baseline(workload).evaluation
            if entry.evaluation.output != original.output:
                raise AssertionError(
                    f"{workload.name}: unrolling changed semantics"
                )
            self._unrolled[key] = entry
        return self._unrolled[key]

    def speedup(
        self,
        workload: Workload,
        model: str | ModelPolicy,
        config: MachineConfig,
        *,
        run_machine: bool = False,
    ) -> float:
        """Speedup of *model* over the scalar baseline on *workload*."""
        return self.measure(
            workload, model, config, run_machine=run_machine
        )["speedup"]

    def measure(
        self,
        workload: Workload,
        model: str | ModelPolicy,
        config: MachineConfig,
        *,
        run_machine: bool = False,
    ) -> dict:
        """Speedup plus BTB statistics of *model* on *workload*.

        Under the paper's optimistic infinite-BTB assumption
        (``config.btb_entries is None``) the BTB counts are zero; with a
        finite BTB they come from the cycle-level machine when it ran,
        otherwise from the trace-driven analytic counter.
        """
        baseline = self.baseline(workload)
        compiled = compile_program(
            workload.program, model, config, baseline.predictor
        )
        analytic = compiled.code.count_cycles(baseline.evaluation.trace, config)
        cycles = analytic.cycles
        btb_hits, btb_misses = analytic.btb_hits, analytic.btb_misses
        if run_machine and compiled.vliw is not None:
            machine = VLIWMachine(compiled.vliw, config, workload.eval_memory())
            result = machine.run()
            if result.architectural_output != tuple(baseline.evaluation.output):
                raise AssertionError(
                    f"{workload.name}/{compiled.policy.name}: scheduled code "
                    "diverged from scalar semantics"
                )
            cycles = result.cycles
            if machine.btb is not None:
                btb_hits = machine.btb.hits
                btb_misses = machine.btb.misses
        return {
            "speedup": baseline.evaluation.cycles / cycles,
            "btb_hits": btb_hits,
            "btb_misses": btb_misses,
        }

    def run_cells(self, specs: list[CellSpec]) -> list[dict]:
        """Evaluate *specs* (cached, possibly in parallel), in order."""
        return self.runner.run(specs)


def _scalar_runs(workload: Workload, program: Program) -> WorkloadBaseline:
    """Profile *program* on *workload*'s training input, then run it on
    the evaluation input."""
    cfg = build_cfg(program)
    train = run_scalar(program, cfg, workload.train_memory())
    predictor = StaticPredictor.from_trace(train.trace)
    evaluation = run_scalar(program, cfg, workload.eval_memory())
    return WorkloadBaseline(
        workload=workload,
        program=program,
        cfg=cfg,
        predictor=predictor,
        evaluation=evaluation,
    )


# ----------------------------------------------------------------------
# Cell evaluation (runs in-process or inside pool workers).
# ----------------------------------------------------------------------
def evaluate_cell(spec: CellSpec, ctx: ExperimentContext) -> dict:
    """Compute one cell.  Pure: output depends only on the spec."""
    if spec.kind == "chaos":
        # Deliberate misbehaviour, for exercising the runner's failure
        # paths (tests and the CI runner-timeout job).
        mode = spec.extra("mode", "ok")
        if mode == "ok":
            return {"value": spec.extra("value", 1)}
        if mode == "raise":
            raise RuntimeError("chaos cell asked to raise")
        if mode == "hang":
            time.sleep(float(spec.extra("seconds", 3600.0)))
            return {"value": "woke up"}
        if mode == "kill":
            os._exit(17)
        if mode == "wait_for":
            # Block until a sentinel file appears.  The kill-and-resume
            # tests use this to park a sweep mid-cell deterministically:
            # the first run is killed while waiting; the resume run
            # pre-creates the sentinel, so the same spec completes.
            sentinel = Path(str(spec.extra("path")))
            # Same clock as the runner's telemetry (perf_counter), so
            # every duration in this module is measured consistently.
            deadline = time.perf_counter() + float(spec.extra("timeout", 60.0))
            while not sentinel.exists():
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"sentinel {sentinel} never appeared")
                time.sleep(0.02)
            return {"value": spec.extra("value", 1)}
        raise ValueError(f"unknown chaos mode {mode!r}")

    if spec.kind == "hwcost":
        params = spec.extra("params") or hwcost_model.RegFileParams()
        report = hwcost_model.analyze(params)
        return {
            "normal_regfile": report.normal_regfile,
            "shadow_storage": report.shadow_storage,
            "commit_hardware": report.commit_hardware,
            "predicate_eval_gate_delay": report.predicate_eval_gate_delay,
            "read_path_extra_gates": report.read_path_extra_gates,
        }

    assert spec.workload is not None, f"cell {spec.kind} needs a workload"
    workload = ctx.workload(spec.workload)
    baseline = ctx.baseline(workload)

    if spec.kind == "baseline":
        return {
            "lines": workload.program.static_line_count(),
            "cycles": baseline.evaluation.cycles,
            "instructions": baseline.evaluation.instructions,
        }

    if spec.kind == "accuracy":
        return {
            "accuracy": successive_accuracy(
                baseline.predictor,
                baseline.evaluation.trace,
                spec.extra("max_run", 8),
            )
        }

    if spec.kind == "speedup":
        assert spec.config is not None
        return ctx.measure(
            workload,
            spec.resolved_policy(),
            spec.config,
            run_machine=spec.run_machine,
        )

    if spec.kind == "compile_stats":
        assert spec.config is not None
        compiled = compile_program(
            workload.program, spec.resolved_policy(), spec.config,
            baseline.predictor,
        )
        cycles = compiled.code.count_cycles(
            baseline.evaluation.trace, spec.config
        ).cycles
        scheduled_ops = sum(
            len(unit.region.items) for unit in compiled.code.units.values()
        )
        source_ops = len(workload.program.instructions)
        return {
            "speedup": baseline.evaluation.cycles / cycles,
            "expansion": scheduled_ops / source_ops,
        }

    if spec.kind == "profile":
        assert spec.config is not None
        mode = spec.extra("mode", "cross")
        if mode == "self":
            predictor = StaticPredictor.from_trace(baseline.evaluation.trace)
        else:
            predictor = baseline.predictor
        compiled = compile_program(
            workload.program, "region_pred", spec.config, predictor
        )
        cycles = compiled.code.count_cycles(
            baseline.evaluation.trace, spec.config
        ).cycles
        return {"speedup": baseline.evaluation.cycles / cycles}

    if spec.kind == "unroll":
        assert spec.config is not None
        factor = spec.extra("factor", 1)
        unrolled = ctx.unrolled(workload, factor)
        policy = dataclasses.replace(
            spec.resolved_policy() or REGION_PRED, window_blocks=16 * factor
        )
        compiled = compile_program(
            unrolled.program, policy, spec.config, unrolled.predictor
        )
        cycles = compiled.code.count_cycles(
            unrolled.evaluation.trace, spec.config
        ).cycles
        return {"speedup": baseline.evaluation.cycles / cycles}

    raise ValueError(f"unknown cell kind {spec.kind!r}")


# Per-process context for pool workers.  The parent sets this (with
# baselines pre-warmed) before creating the pool, so fork-started
# workers inherit the scalar runs for free; under a spawn start method
# the module reloads to None and each worker lazily builds its own.
_worker_ctx: ExperimentContext | None = None


def _set_worker_ctx(ctx: ExperimentContext | None) -> None:
    global _worker_ctx
    _worker_ctx = ctx


def _pool_evaluate(spec: CellSpec) -> tuple[dict, int]:
    global _worker_ctx
    if _worker_ctx is None:
        _worker_ctx = ExperimentContext()
    start = time.perf_counter_ns()
    values = evaluate_cell(spec, _worker_ctx)
    return values, time.perf_counter_ns() - start


# ----------------------------------------------------------------------
# The runner: cache + fan-out + telemetry.
# ----------------------------------------------------------------------
def error_entry(spec: CellSpec, error: BaseException, attempts: int) -> dict:
    """The structured result recorded for a cell that failed for good.

    Error entries flow through ``run_cells`` like values (so a partial
    sweep still merges deterministically and the artifact survives), but
    are never written to the cache.  Drivers read them through
    :func:`repro.eval.experiments.cell_value`.
    """
    return {
        "error": {
            "label": spec.label(),
            "type": type(error).__name__,
            "message": str(error) or type(error).__name__,
            "attempts": attempts,
        }
    }


def is_error_cell(cell: dict) -> bool:
    return isinstance(cell, dict) and "error" in cell


@dataclass
class RunnerStats:
    """Cache and wall-time telemetry for one runner's lifetime."""

    hits: int = 0
    misses: int = 0
    cell_times: list[tuple[str, int]] = field(default_factory=list)  # (label, ns)
    wall_ns: int = 0
    timeouts: int = 0
    crashes: int = 0
    retries: int = 0
    serial_fallbacks: int = 0
    errors: list[dict] = field(default_factory=list)  # error entries

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    @property
    def wall_seconds(self) -> float:
        """Derived view of :attr:`wall_ns` for human-facing output.

        Durations are measured and stored as ``perf_counter_ns``
        integers; seconds exist only at the display/metrics edge.
        """
        return self.wall_ns / 1e9

    def report(self) -> str:
        lines = [
            f"cells: {self.total} "
            f"(cache hits {self.hits}, misses {self.misses}, "
            f"hit rate {self.hit_rate:.0%}); "
            f"wall {self.wall_seconds:.2f}s"
        ]
        if self.errors or self.timeouts or self.crashes or self.retries:
            lines.append(
                f"failures: {len(self.errors)} cells errored "
                f"({self.timeouts} timeouts, {self.crashes} worker crashes, "
                f"{self.retries} retries, "
                f"{self.serial_fallbacks} serial fallbacks)"
            )
            for entry in self.errors:
                error = entry["error"]
                lines.append(
                    f"  {error['label']}: {error['type']}: "
                    f"{error['message']} (after {error['attempts']} attempts)"
                )
        if self.cell_times:
            slowest = sorted(
                self.cell_times, key=lambda item: item[1], reverse=True
            )[:5]
            lines.append(
                "slowest cells: "
                + ", ".join(f"{label} {ns / 1e9:.3f}s" for label, ns in slowest)
            )
        return "\n".join(lines)

    def to_metrics(self) -> dict:
        """JSON-native telemetry, shaped like a CounterSink export so it
        can ride the artifact ``metrics`` section."""
        counters = {
            "runner.cells": self.total,
            "runner.cache_hits": self.hits,
            "runner.cache_misses": self.misses,
        }
        # Conditional counters appear only when the feature fired, so a
        # clean run's telemetry is unchanged by the hardening.
        if self.errors:
            counters["runner.failed_cells"] = len(self.errors)
        if self.timeouts:
            counters["runner.cell_timeouts"] = self.timeouts
        if self.crashes:
            counters["runner.worker_crashes"] = self.crashes
        if self.retries:
            counters["runner.retries"] = self.retries
        if self.serial_fallbacks:
            counters["runner.serial_fallbacks"] = self.serial_fallbacks
        return {
            "counters": counters,
            "wall_ns": self.wall_ns,
            "wall_seconds": round(self.wall_seconds, 6),
        }


class CellRunner:
    """Evaluates cell batches against a content-keyed disk cache,
    fanning cache misses out over a process pool when ``jobs > 1``.

    Crash tolerance: each pooled cell is one future, collected with an
    optional per-cell *cell_timeout*.  A cell that hangs or takes its
    worker down (the pool breaks) is retried up to *max_retries* times in
    an isolated single-worker pool with exponential backoff starting at
    *retry_backoff* seconds; if pools cannot be created at all, the cell
    falls back to serial in-process evaluation.  A cell that still fails
    becomes a structured :func:`error_entry` in the results (never
    cached), so one bad cell costs one cell, not the sweep.  With
    *fail_fast* the first failure raises instead -- the pre-hardening
    behaviour.

    Resumability: the cache is the sweep's one durable store.  Each
    computed cell is written to it the moment its outcome is collected
    (temp file plus atomic rename), so a killed sweep re-run over the
    same *cache_dir* re-executes only the cells that never finished.
    With a *supervisor*, a pending SIGINT/SIGTERM stops the sweep at the
    next cell boundary by raising
    :class:`~repro.ckpt.signals.ShutdownRequested`; everything already
    collected is safe in the cache.
    """

    def __init__(
        self,
        ctx: ExperimentContext,
        *,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        use_cache: bool = True,
        cell_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        fail_fast: bool = False,
        sink: MetricsSink = NULL_SINK,
        supervisor: SignalSupervisor | None = None,
        run_log: RunLog = NULL_RUN_LOG,
        progress: Callable[[int, int, RunnerStats], None] | None = None,
    ):
        self.ctx = ctx
        self.jobs = max(1, jobs)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.use_cache = use_cache and self.cache_dir is not None
        self.cell_timeout = cell_timeout
        self.max_retries = max(0, max_retries)
        self.retry_backoff = retry_backoff
        self.fail_fast = fail_fast
        self.sink = sink
        self.supervisor = supervisor
        self.run_log = run_log
        self.progress = progress
        self.stats = RunnerStats()
        # Cumulative across run() batches, so one --progress line spans
        # a whole experiment even when it fans cells out in stages.
        self._cells_done = 0
        self._cells_total = 0

    def _cell_resolved(self, spec: CellSpec, outcome_kind: str) -> None:
        """One cell reached a final state: log it and advance the meter."""
        self._cells_done += 1
        if self.run_log.enabled:
            self.run_log.event(
                "experiment.cell", label=spec.label(), outcome=outcome_kind
            )
        if self.progress is not None:
            self.progress(self._cells_done, self._cells_total, self.stats)

    # -- cache ---------------------------------------------------------
    def _cache_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.json"

    def _cache_load(self, key: str) -> dict | None:
        if not self.use_cache:
            return None
        path = self._cache_path(key)
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if document.get("version") != CACHE_VERSION:
            return None
        values = document.get("values")
        return values if isinstance(values, dict) else None

    def _cache_store(self, key: str, spec: CellSpec, values: dict) -> None:
        if not self.use_cache:
            return
        assert self.cache_dir is not None
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._cache_path(key)
        document = {
            "version": CACHE_VERSION,
            "label": spec.label(),
            "values": values,
        }
        temp = path.with_suffix(f".tmp.{os.getpid()}")
        temp.write_text(json.dumps(document, sort_keys=True))
        os.replace(temp, path)  # atomic vs concurrent runs

    # -- evaluation ----------------------------------------------------
    def _can_pool(self, specs: list[CellSpec]) -> bool:
        """Pool workers resolve workloads from the global registry; a
        context built around ad-hoc workloads must stay in-process."""
        if self.jobs <= 1 or len(specs) <= 1:
            return False
        from repro.workloads import get_workload

        for spec in specs:
            if spec.workload is None:
                continue
            try:
                registered = get_workload(spec.workload)
            except KeyError:
                return False
            if registered.program is not self.ctx.workload(spec.workload).program:
                # Same name, different program: registry lookup would
                # silently measure the wrong thing.
                if format_program(registered.program) != format_program(
                    self.ctx.workload(spec.workload).program
                ):
                    return False
        return True

    def run(self, specs: list[CellSpec]) -> list[dict]:
        started = time.perf_counter_ns()
        self._cells_total += len(specs)
        keys = [
            cell_cache_key(
                spec,
                self.ctx.workload(spec.workload) if spec.workload else None,
            )
            for spec in specs
        ]
        results: list[dict | None] = [None] * len(specs)

        # Cache pass; duplicate keys within a batch compute once.
        pending: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            cached = self._cache_load(key)
            if cached is not None:
                results[index] = cached
                self.stats.hits += 1
                if self.sink.enabled:
                    self.sink.count("runner.cache_hits")
                self._cell_resolved(specs[index], "cache")
            else:
                pending.setdefault(key, []).append(index)

        if pending:
            order = list(pending.items())  # deterministic batch order
            todo = [specs[indices[0]] for _, indices in order]
            outcomes = self._evaluate_misses(todo, [key for key, _ in order])
            for (key, indices), spec, outcome in zip(order, todo, outcomes):
                self.stats.misses += len(indices)
                if self.sink.enabled:
                    self.sink.count("runner.cache_misses", len(indices))
                if is_error_cell(outcome):
                    # A failed cell rides the results as a structured
                    # error entry; never cached, so a re-run retries it.
                    self.stats.errors.append(outcome)
                    if self.sink.enabled:
                        self.sink.count("runner.failed_cells")
                    values = outcome
                else:
                    values, elapsed_ns = outcome
                    self.stats.cell_times.append((spec.label(), elapsed_ns))
                for index in indices:
                    results[index] = values
                # The first index was resolved (and cached) live inside
                # _evaluate_misses; duplicates of the same key resolve
                # here, for free.
                for _ in indices[1:]:
                    self._cell_resolved(spec, "dedup")

        self.stats.wall_ns += time.perf_counter_ns() - started
        assert all(value is not None for value in results)
        return results  # type: ignore[return-value]

    def _collected(self, spec: CellSpec, key: str, outcome) -> None:
        """Cache an outcome the moment it is collected (error entries
        never are), so a kill or shutdown between cells loses nothing
        already computed."""
        if is_error_cell(outcome):
            self._cell_resolved(spec, "error")
            return
        values, _elapsed_ns = outcome
        self._cache_store(key, spec, values)
        self._cell_resolved(spec, "computed")

    def _check_shutdown(self, pool: ProcessPoolExecutor | None = None) -> None:
        if self.supervisor is None or self.supervisor.pending is None:
            return
        if pool is not None:
            self._terminate(pool)
        raise self.supervisor.shutdown()

    def _evaluate_misses(self, todo: list[CellSpec], keys: list[str]) -> list:
        """Evaluate cache misses; one outcome per spec, in spec order.

        An outcome is either ``(values, elapsed_ns)`` or an error entry.
        """
        if not self._can_pool(todo):
            return self._serial(todo, keys)
        # Pre-warm every needed baseline in the parent: workers started
        # by fork inherit the scalar runs copy-on-write instead of
        # re-interpreting each workload per process.
        for spec in todo:
            if spec.workload is not None:
                self.ctx.baseline(self.ctx.workload(spec.workload))
        _set_worker_ctx(self.ctx)
        try:
            return self._pooled(todo, keys)
        finally:
            _set_worker_ctx(None)

    def _serial(self, todo: list[CellSpec], keys: list[str]) -> list:
        """Evaluate *todo* in-process, one cell at a time."""
        outcomes = []
        for spec, key in zip(todo, keys):
            outcome = self._in_process(spec)
            self._collected(spec, key, outcome)
            outcomes.append(outcome)
            self._check_shutdown()
        return outcomes

    def _in_process(self, spec: CellSpec):
        """Serial evaluation; the last-resort path has no hang/crash
        protection but still degrades exceptions into error entries."""
        start = time.perf_counter_ns()
        try:
            values = evaluate_cell(spec, self.ctx)
        except Exception as error:
            if self.fail_fast:
                raise
            return error_entry(spec, error, attempts=1)
        return values, time.perf_counter_ns() - start

    def _pooled(self, todo: list[CellSpec], keys: list[str]) -> list:
        try:
            pool = ProcessPoolExecutor(max_workers=self.jobs)
            futures = [pool.submit(_pool_evaluate, spec) for spec in todo]
        except Exception:
            # Cannot create a pool at all (e.g. no usable start method):
            # fall back to serial in-process evaluation.
            self.stats.serial_fallbacks += 1
            if self.sink.enabled:
                self.sink.count("runner.serial_fallbacks")
            return self._serial(todo, keys)

        outcomes: list = [None] * len(todo)
        needs_isolation: list[int] = []
        hung = False
        broken = False
        for index, future in enumerate(futures):
            if broken and not future.done():
                needs_isolation.append(index)
                continue
            try:
                outcomes[index] = future.result(timeout=self.cell_timeout)
                self._collected(todo[index], keys[index], outcomes[index])
            except TimeoutError:
                # The worker is hung on this cell; healthy workers keep
                # draining the queue, so keep collecting and terminate
                # the stragglers at the end.
                self.stats.timeouts += 1
                if self.sink.enabled:
                    self.sink.count("runner.cell_timeouts")
                if self.fail_fast:
                    self._terminate(pool)
                    raise
                needs_isolation.append(index)
                hung = True
            except BrokenProcessPool:
                # A worker died; the executor fails every outstanding
                # future, so everything not yet collected retries
                # isolated.
                if not broken:
                    self.stats.crashes += 1
                    if self.sink.enabled:
                        self.sink.count("runner.worker_crashes")
                broken = True
                if self.fail_fast:
                    self._terminate(pool)
                    raise
                needs_isolation.append(index)
            except Exception as error:
                # The cell itself raised: deterministic, not worth
                # retrying.
                if self.fail_fast:
                    self._terminate(pool)
                    raise
                outcomes[index] = error_entry(todo[index], error, 1)
                self._collected(todo[index], keys[index], outcomes[index])
            self._check_shutdown(pool)
        if hung or broken:
            self._terminate(pool)
        else:
            pool.shutdown(wait=True)

        for index in needs_isolation:
            outcomes[index] = self._isolated(todo[index])
            self._collected(todo[index], keys[index], outcomes[index])
            self._check_shutdown()
        return outcomes

    def _isolated(self, spec: CellSpec):
        """Retry one suspect cell in its own single-worker pool.

        Backoff between attempts is exponential with *keyed jitter*
        (:func:`repro.serve.backoff.backoff_delay`): deterministic per
        cell, but different cells spread out instead of retrying a
        broken pool in lockstep.
        """
        last_error: BaseException = RuntimeError("cell never ran")
        attempts = 0
        while attempts <= self.max_retries:
            if attempts > 0:
                self.stats.retries += 1
                if self.sink.enabled:
                    self.sink.count("runner.retries")
                if self.run_log.enabled:
                    self.run_log.event(
                        "experiment.retry",
                        label=spec.label(),
                        attempt=attempts,
                    )
                time.sleep(
                    backoff_delay(
                        attempts, base=self.retry_backoff, key=spec.label()
                    )
                )
            attempts += 1
            try:
                pool = ProcessPoolExecutor(max_workers=1)
            except Exception:
                self.stats.serial_fallbacks += 1
                if self.sink.enabled:
                    self.sink.count("runner.serial_fallbacks")
                return self._in_process(spec)
            try:
                outcome = pool.submit(_pool_evaluate, spec).result(
                    timeout=self.cell_timeout
                )
                pool.shutdown(wait=True)
                return outcome
            except TimeoutError as error:
                self.stats.timeouts += 1
                if self.sink.enabled:
                    self.sink.count("runner.cell_timeouts")
                last_error = error
                self._terminate(pool)
            except BrokenProcessPool as error:
                self.stats.crashes += 1
                if self.sink.enabled:
                    self.sink.count("runner.worker_crashes")
                last_error = error
                self._terminate(pool)
            except Exception as error:
                self._terminate(pool)
                if self.fail_fast:
                    raise
                return error_entry(spec, error, attempts)
        if self.fail_fast:
            raise last_error
        return error_entry(spec, last_error, attempts)

    @staticmethod
    def _terminate(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even when a worker is hung or dead."""
        for process in list(pool._processes.values()):
            if process.is_alive():
                process.terminate()
        pool.shutdown(wait=True, cancel_futures=True)
