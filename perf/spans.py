"""Per-layer spans, measured from outside the program.

The benchmark never edits ``repro``.  A :class:`Tracer` wraps public
callables at the names their callers look up -- every module global bound
to a function (``from x import f`` copies included), or the class
attribute of a method -- records one span per call, and puts the
originals back afterwards.

* A span has a name, a start, an end, a parent and a request id; spans
  of one request (a sweep round, a campaign, a security cell, a serve
  submission) share the id.  Spans stay in memory and are written out
  only at the end (:func:`chrome_trace`).
* A span's **self time** is its duration minus the time its child spans
  cover.  Calls nest synchronously on one thread, so the children of a
  span are disjoint and "covered" is the sum of their durations; the
  self times of all spans therefore add up to the time the outermost
  spans cover, which :func:`layer_metrics` checks against the wall clock.
* Per-cycle callables are aggregated (``mode="agg"``: timed, no span
  record) or only counted (``mode="count"``), so a traced run keeps
  kilobytes, not one record per machine cycle.
* A target that no longer exists -- renamed or removed by a refactor --
  is listed in :attr:`Tracer.missing` and skipped, never fatal; so is
  one whose arguments or result no longer carry what its counter hook
  reads.

Forked pool workers inherit the wrappers; a fork hook switches recording
off in the child, so serve's worker compute shows only as the parent's
time waiting in ``serve.pool.run_batches``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    *path* is ``"module:function"`` or ``"module:Class.method"``.  *namer*
    picks the span name from the call's arguments (the VLIW machine's
    plain/observed split); *after* turns a call's result into counters.
    """

    name: str
    path: str
    mode: str = "span"  # "span" | "agg" | "count"
    namer: Callable | None = None
    after: Callable | None = None


# ----------------------------------------------------------------------
# Namers and counter hooks for the repro targets.
# ----------------------------------------------------------------------
def _vliw_kind(args) -> str:
    """``plain`` unless taint tracking or a flight recorder observes."""
    machine = args[0]
    taint = getattr(getattr(machine, "taint", None), "enabled", False)
    flight = getattr(getattr(machine, "flight", None), "enabled", False)
    return "machine.vliw.observed" if taint or flight else "machine.vliw.plain"


def _sim_cycles(tracer, name, args, result) -> None:
    tracer.add(f"{name}.sim_cycles", getattr(result, "cycles", 0))


def _interpreter_steps(tracer, name, args, result) -> None:
    tracer.add(f"{name}.steps", getattr(result, "steps", 0))


def _taint_counts(tracer, name, args, result) -> None:
    counters = getattr(result, "counters", {}) or {}
    tracer.add("taint.sources", counters.get("sources", 0))
    tracer.add("taint.declassified", counters.get("declassified", 0))


def _divergences(tracer, name, args, result) -> None:
    tracer.add("verify.divergences", 0 if result.equivalent else 1)


def _batch_jobs(tracer, name, args, result) -> None:
    tracer.add("serve.pool.batch_jobs", sum(len(batch) for batch in args[1]))


#: The layer boundaries of repro, named ``<layer>.<callable>``.
TARGETS: tuple[Target, ...] = (
    Target("ir.build_cfg", "repro.ir.cfg:build_cfg"),
    Target("isa.parse_program", "repro.isa.parser:parse_program"),
    Target("workloads.synthetic.generate", "repro.workloads.synthetic:generate"),
    Target(
        "analysis.predictor.from_trace",
        "repro.analysis.branch_prediction:StaticPredictor.from_trace",
    ),
    Target("compiler.compile_program", "repro.compiler.pipeline:compile_program"),
    Target("compiler.analyses", "repro.ir.dataflow:compute_liveness"),
    Target("compiler.analyses", "repro.ir.dominators:compute_dominators"),
    Target("compiler.analyses", "repro.ir.loops:find_natural_loops"),
    Target("compiler.grow_region", "repro.compiler.regiontree:grow_region"),
    Target("compiler.linearize", "repro.compiler.predication:linearize"),
    Target("compiler.apply_renaming", "repro.compiler.rename:apply_renaming"),
    Target(
        "compiler.build_dependence", "repro.compiler.dependence:build_dependence"
    ),
    Target("compiler.list_schedule", "repro.compiler.list_scheduler:list_schedule"),
    Target("compiler.emit_vliw", "repro.compiler.vliw_codegen:emit_vliw"),
    Target("compiler.count_cycles", "repro.compiler.unit:ScheduledCode.count_cycles"),
    Target(
        "sim.interpreter.run",
        "repro.sim.interpreter:Interpreter.run",
        after=_interpreter_steps,
    ),
    Target("machine.scalar.run_scalar", "repro.machine.scalar:run_scalar"),
    Target("machine.vliw.init", "repro.machine.vliw:VLIWMachine.__init__"),
    Target(
        "machine.vliw",
        "repro.machine.vliw:VLIWMachine.run",
        namer=_vliw_kind,
        after=_sim_cycles,
    ),
    Target(
        "machine.vliw",
        "repro.ckpt.engine:run_vliw",
        namer=_vliw_kind,
        after=_sim_cycles,
    ),
    Target(
        "core.regfile.tick",
        "repro.core.regfile:PredicatedRegisterFile.tick",
        mode="agg",
    ),
    Target(
        "core.store_buffer.tick",
        "repro.core.store_buffer:PredicatedStoreBuffer.tick",
        mode="agg",
    ),
    Target(
        "core.store_buffer.lookup",
        "repro.core.store_buffer:PredicatedStoreBuffer.lookup",
        mode="count",
    ),
    Target(
        "core.control_path.evaluate",
        "repro.core.control_path:ControlPath.evaluate",
        mode="agg",
    ),
    Target("core.ccr.evaluate", "repro.core.ccr:CCR.evaluate", mode="count"),
    Target(
        "taint.run_security",
        "repro.taint.oracle:run_security",
        after=_taint_counts,
    ),
    Target("verify.run_oracle", "repro.verify.oracle:run_oracle", after=_divergences),
    Target("verify.build_case", "repro.verify.fuzz:build_case"),
    Target("eval.evaluate_cell", "repro.eval.runner:evaluate_cell"),
    Target("eval.baseline", "repro.eval.runner:ExperimentContext.baseline"),
    Target("serve.parse_request", "repro.serve.protocol:parse_request"),
    Target("serve.resolve_request", "repro.serve.protocol:resolve_request"),
    Target(
        "serve.admission",
        "repro.serve.service:SimulationService.handle_requests",
    ),
    Target(
        "serve.pool.run_batches",
        "repro.serve.pool:WorkerPool.run_batches",
        after=_batch_jobs,
    ),
    Target("serve.journal.accept", "repro.serve.journal:JobJournal.accept"),
    Target("serve.journal.complete", "repro.serve.journal:JobJournal.complete"),
    Target("ckpt.journal.record", "repro.ckpt.journal:Journal.record"),
)

#: Span names the benchmark opens itself around each request.
REQUEST_PREFIX = "request."


def _deactivate(ref) -> None:
    tracer = ref()
    if tracer is not None:
        tracer.active = False


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns):
        self.clock = clock
        #: name -> [calls, inclusive ns, self ns]
        self.stats: dict[str, list[int]] = {}
        #: counters fed by ``after`` hooks and by the benchmark itself
        self.counters: dict[str, float] = {}
        #: recorded spans: [name, start ns, end ns, parent index, request]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.request = 0
        self.active = False
        self._stack: list[list] = []
        self._innermost = -1  # index of the innermost recorded span
        self._owner: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(
            after_in_child=functools.partial(_deactivate, weakref.ref(self))
        )

    # -- recording -----------------------------------------------------
    def open(self, name: str, keep: bool = True) -> list:
        parent = self._innermost
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0, 0, parent, self.request])
            self._innermost = index
        frame = [name, index, parent, 0, self.clock()]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        name, index, parent, child_ns, start = frame
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # an exception unwound past frames we never closed
            while stack and stack.pop() is not frame:
                pass
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_ns
        if stack:
            stack[-1][3] += duration
        if index >= 0:
            record = self.spans[index]
            record[1] = start
            record[2] = end
            self._innermost = parent

    @contextmanager
    def span(self, name: str):
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    @contextmanager
    def request_span(self, name: str):
        """A new request: the next id, and a root span for it."""
        self.request += 1
        with self.span(REQUEST_PREFIX + name):
            yield

    def next_request(self) -> None:
        self.request += 1

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- wrapping ------------------------------------------------------
    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name = target.name
        if target.mode == "count":
            stats = self.stats

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    stat = stats.get(name)
                    if stat is None:
                        stat = stats[name] = [0, 0, 0]
                    stat[0] += 1
                return fn(*args, **kwargs)

            return counted

        keep = target.mode == "span"
        namer, after = target.namer, target.after
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.active or get_ident() != tracer._owner:
                return fn(*args, **kwargs)
            span_name = namer(args) if namer is not None else name
            frame = tracer.open(span_name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                try:
                    after(tracer, span_name, args, result)
                except Exception:  # noqa: BLE001 -- the target changed shape
                    if target.path not in tracer.missing:
                        tracer.missing.append(target.path)
            return result

        return timed

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Wrap every resolvable target; list the rest in :attr:`missing`."""
        self.missing = []
        functions: dict[int, tuple[Target, Callable]] = {}
        for target in targets:
            module_name, _, attr = target.path.partition(":")
            try:
                module = importlib.import_module(module_name)
                if "." in attr:
                    class_name, method = attr.split(".", 1)
                    owner = getattr(module, class_name)
                    raw = owner.__dict__[method]
                else:
                    function = getattr(module, attr)
                    functions[id(function)] = (target, function)
                    continue
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.path)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(target, raw.__func__))
            else:
                wrapped = self._wrap(target, raw)
            self._patches.append((owner, method, raw))
            setattr(owner, method, wrapped)
        # Module functions are patched wherever a module global names
        # them, so callers that imported the name see the wrapper too.
        wrappers = {key: self._wrap(*item) for key, item in functions.items()}
        for module in list(sys.modules.values()):
            try:
                namespace = vars(module)
            except TypeError:
                continue
            for key, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is functions[id(value)][1]:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)
        self._owner = threading.get_ident()
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @contextmanager
    def installed(self, targets: tuple[Target, ...] = TARGETS):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()


class NullTracer:
    """What the untraced runs pass: every hook is a no-op."""

    @contextmanager
    def span(self, name: str):
        yield

    request_span = span

    def next_request(self) -> None:
        pass

    def add(self, name: str, value: float) -> None:
        pass


NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# From spans to per-layer metrics.
# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, rounds: int, wall_ns: int) -> dict[str, float]:
    """Per-round metrics of every layer the tracer saw.

    Timed names give ``.calls``, ``.ms`` (inclusive) and ``.self_ms``;
    counted names give ``.calls``; counters are copied.  *wall_ns* is the
    wall-clock time of the traced rounds; the time no layer span covers
    (request roots' self time plus the gaps between requests) is
    ``trace.unattributed_share`` of it, and ``trace.reconcile_error`` is
    how far self times plus that remainder miss the wall clock.
    """
    per = 1.0 / max(rounds, 1)
    metrics: dict[str, float] = {}
    layer_self = 0
    root_self = 0
    root_total = 0
    for name, (calls, total, own) in tracer.stats.items():
        if name.startswith(REQUEST_PREFIX):
            root_self += own
            root_total += total
            continue
        metrics[f"{name}.calls"] = calls * per
        if total or own:
            metrics[f"{name}.ms"] = total / 1e6 * per
            metrics[f"{name}.self_ms"] = own / 1e6 * per
            layer_self += own
    for name, value in tracer.counters.items():
        metrics[name] = value * per
    unattributed = root_self + max(wall_ns - root_total, 0)
    metrics["trace.unattributed_share"] = unattributed / wall_ns if wall_ns else 0.0
    metrics["trace.reconcile_error"] = (
        abs(layer_self + unattributed - wall_ns) / wall_ns if wall_ns else 0.0
    )
    metrics["trace.missing"] = float(len(tracer.missing))
    _derive(metrics)
    return metrics


def _derive(metrics: dict[str, float]) -> None:
    """Ratios, each with its base named in the metric."""

    def ratio(numerator: str, denominator: str, scale: float = 1.0) -> float:
        base = metrics.get(denominator, 0.0)
        return metrics.get(numerator, 0.0) * scale / base if base else 0.0

    metrics["sim.interpreter.run.ns_per_step"] = ratio(
        "sim.interpreter.run.ms", "sim.interpreter.run.steps", 1e6
    )
    for kind in ("plain", "observed"):
        stem = f"machine.vliw.{kind}"
        metrics[f"{stem}.ns_per_cycle"] = ratio(
            f"{stem}.ms", f"{stem}.sim_cycles", 1e6
        )
    metrics["sim_cycles"] = metrics.get(
        "machine.vliw.plain.sim_cycles", 0.0
    ) + metrics.get("machine.vliw.observed.sim_cycles", 0.0)
    metrics["core.verdicts_per_cycle"] = ratio(
        "core.control_path.evaluate.calls", "sim_cycles"
    )
    metrics["taint.observed_over_plain"] = ratio(
        "machine.vliw.observed.ns_per_cycle", "machine.vliw.plain.ns_per_cycle"
    )
    metrics["serve.replay_share"] = ratio("serve.replayed_jobs", "serve.jobs")


def chrome_trace(tracer: Tracer) -> dict:
    """The recorded spans as Chrome ``trace_event`` JSON (Perfetto loads it)."""
    origin = min((span[1] for span in tracer.spans), default=0)
    events = [
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": (start - origin) / 1e3,
            "dur": (end - start) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"request": request, "parent": parent},
        }
        for name, start, end, parent, request in tracer.spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
