"""In-worker job execution for the service pool.

:func:`execute_batch` is the module-level entry the pool submits (it
must be picklable by name).  Jobs in one batch share a ``group`` key --
same program text, model, machine config and training input -- so the
worker compiles once per group and replays the
:class:`~repro.compiler.pipeline.CompiledProgram` for every batch-mate:
the request batching that amortizes compilation.

Each worker process keeps two content-keyed caches, both bounded FIFOs
that persist across batches dispatched to the same worker:

* the **program** level, keyed by workload name (or inline program text
  plus job name), holds a :class:`_ProgramEntry`: the parsed program and
  its CFG, the workload that makes memory images, one training-run
  :class:`~repro.analysis.branch_prediction.StaticPredictor` per
  training input, and one small scalar summary (output, cycles,
  instructions) per evaluation input.  Every group, model and config on
  one program shares it, so a program is parsed once and scalar-run
  once per distinct input;
* the **group** level, keyed by ``group``, holds only the compiled
  program, compiled from the program entry's own ``Program`` object and
  that entry's predictor.

The predictor and its ``Program`` live and die together: a predictor is
keyed by instruction ``uid``, and every parse mints fresh uids, so a
predictor applied to a re-parse of the same text silently predicts
nothing and changes the compiled schedule.

Cache state never leaks into results: a job's result payload is a pure
function of the job, byte-identical whether either level hit or missed
-- the property the journal-replay guarantees rest on.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import NamedTuple

from repro.analysis.branch_prediction import StaticPredictor
from repro.compiler.pipeline import CompiledProgram, compile_program
from repro.ir.cfg import build_cfg
from repro.isa.parser import parse_program
from repro.machine.vliw import VLIWMachine
from repro.serve.protocol import ResolvedJob
from repro.sim.memory import Memory

#: Per-process caches (see the module docstring): program key ->
#: :class:`_ProgramEntry`, and group key -> compiled program.  Bounded
#: so a long-lived worker sweeping a huge program or config grid cannot
#: grow without bound; eviction is oldest-inserted-first, and so is the
#: per-input eviction inside a program entry.
_PROGRAM_CACHE: dict[object, _ProgramEntry] = {}
_COMPILE_CACHE: dict[str, CompiledProgram] = {}
_CACHE_LIMIT = 64

#: Test-visible telemetry for this worker process (never part of a
#: result payload): programs parsed or built, compiles performed and
#: scalar runs made.
program_count = 0
compile_count = 0
scalar_run_count = 0


def _remember(cache: dict, key, value) -> None:
    while len(cache) >= _CACHE_LIMIT:
        cache.pop(next(iter(cache)))
    cache[key] = value


def clear_caches() -> None:
    """Forget every cached program and compile (the next job is cold)."""
    _PROGRAM_CACHE.clear()
    _COMPILE_CACHE.clear()


class _Summary(NamedTuple):
    """What a result payload needs from one scalar evaluation run."""

    output: tuple[int, ...]
    cycles: int
    instructions: int


class _ProgramEntry:
    """One program, parsed once, scalar-run once per distinct input.

    An *input* is a workload seed, or an inline job's memory image (an
    inline program trains and evaluates on the same image).
    """

    def __init__(self, job: ResolvedJob):
        if job.workload is not None:
            from repro.workloads import get_workload

            self.workload = get_workload(job.workload)
            self.program = self.workload.program
        else:
            self.workload = None
            self.program = parse_program(job.program_text, name=job.name)
        self.cfg = build_cfg(self.program)
        self._predictors: dict = {}
        self._summaries: dict = {}

    def train_input(self, job: ResolvedJob):
        if self.workload is not None:
            return self.workload.train_seed
        return job.memory_words

    def eval_input(self, job: ResolvedJob):
        if self.workload is not None:
            return job.seed
        return job.memory_words

    def memory(self, source) -> Memory:
        """A fresh memory image for *source* (runs mutate it)."""
        if self.workload is not None:
            return self.workload.make_memory(source)
        memory = Memory()
        for address, value in source:
            memory.store(address, value)
        return memory

    def predictor(self, source) -> StaticPredictor:
        if source not in self._predictors:
            self._run(source)
        return self._predictors[source]

    def summary(self, source) -> _Summary:
        if source not in self._summaries:
            self._run(source)
        return self._summaries[source]

    def _run(self, source) -> None:
        """Scalar-run on *source*; keep its summary and, when *source*
        can train this program, the predictor its trace gives."""
        global scalar_run_count
        from repro.machine.scalar import run_scalar

        scalar_run_count += 1
        run = run_scalar(self.program, self.cfg, self.memory(source))
        _remember(
            self._summaries,
            source,
            _Summary(run.output, run.cycles, run.instructions),
        )
        if self.workload is None or source == self.workload.train_seed:
            _remember(
                self._predictors, source, StaticPredictor.from_trace(run.trace)
            )


def _program(job: ResolvedJob) -> _ProgramEntry:
    """The job's program entry, built on first use."""
    global program_count
    key = job.workload
    if key is None:
        key = (job.program_text, job.name)
    entry = _PROGRAM_CACHE.get(key)
    if entry is None:
        program_count += 1
        entry = _ProgramEntry(job)
        _remember(_PROGRAM_CACHE, key, entry)
    return entry


def _compiled(job: ResolvedJob, entry: _ProgramEntry) -> CompiledProgram:
    """The job's group compile, from *entry*'s program and predictor."""
    global compile_count
    compiled = _COMPILE_CACHE.get(job.group)
    if compiled is None:
        compile_count += 1
        compiled = compile_program(
            entry.program,
            job.model,
            job.config,
            entry.predictor(entry.train_input(job)),
        )
        _remember(_COMPILE_CACHE, job.group, compiled)
    return compiled


def run_job(job: ResolvedJob) -> dict:
    """Execute one job; returns the deterministic result payload.

    Raises on failure -- the pool (or :func:`execute_batch`) turns
    exceptions into structured error outcomes.
    """
    if job.kind == "chaos":
        return _run_chaos(job)
    if job.kind == "security":
        return _run_security(job)
    entry = _program(job)
    evaluation = entry.summary(entry.eval_input(job))
    result = {
        "kind": "simulate",
        "name": job.name,
        "model": job.model,
        "output": list(evaluation.output),
        "scalar_cycles": evaluation.cycles,
        "instructions": evaluation.instructions,
        "machine_cycles": None,
        "speedup": None,
    }
    if job.model == "scalar":
        return result
    compiled = _compiled(job, entry)
    assert compiled.vliw is not None
    machine = VLIWMachine(
        compiled.vliw, job.config, entry.memory(entry.eval_input(job))
    )
    machine_result = machine.run()
    if machine_result.architectural_output != evaluation.output:
        raise AssertionError(
            f"{job.name}/{job.model}: scheduled code diverged from "
            "scalar semantics"
        )
    result["machine_cycles"] = machine_result.cycles
    result["speedup"] = evaluation.cycles / machine_result.cycles
    return result


def _run_security(job: ResolvedJob) -> dict:
    """Twin-run taint check of the job's compiled program.

    Rides the same program and compile caches as simulate jobs, so a
    batch of security sweeps over one workload compiles once.
    """
    from repro.taint.oracle import run_security

    entry = _program(job)
    compiled = _compiled(job, entry)
    assert compiled.vliw is not None
    security = run_security(
        vliw=compiled.vliw,
        config=job.config,
        policy=job.policy,
        eval_memory=entry.memory(entry.eval_input(job)),
    )
    if security.error is not None:
        raise RuntimeError(
            f"{job.name}/{job.model}: security oracle error: "
            f"{security.error}"
        )
    first = security.first_leak
    return {
        "kind": "security",
        "name": job.name,
        "model": job.model,
        "policy": job.policy,
        "secure": security.secure,
        "leaks": len(security.leaks),
        "first_leak": None if first is None else first.to_dict(),
        "counters": security.counters,
        "baseline_cycles": security.baseline_cycles,
        "taint_cycles": security.taint_cycles,
    }


def _run_chaos(job: ResolvedJob) -> dict:
    """Deliberate misbehaviour for the failure-path tests (mirrors the
    experiment runner's chaos cells)."""
    mode = job.chaos_extra("mode", "ok")
    if mode == "ok":
        return {"kind": "chaos", "value": job.chaos_extra("value", 1)}
    if mode == "raise":
        raise RuntimeError("chaos job asked to raise")
    if mode == "hang":
        time.sleep(float(job.chaos_extra("seconds", 3600.0)))
        return {"kind": "chaos", "value": "woke up"}
    if mode == "kill":
        os._exit(17)
    if mode == "wait_for":
        sentinel = Path(str(job.chaos_extra("path")))
        deadline = time.perf_counter() + float(
            job.chaos_extra("timeout", 60.0)
        )
        while not sentinel.exists():
            if time.perf_counter() > deadline:
                raise TimeoutError(f"sentinel {sentinel} never appeared")
            time.sleep(0.02)
        return {"kind": "chaos", "value": job.chaos_extra("value", 1)}
    raise ValueError(f"unknown chaos mode {mode!r}")


def execute_batch(jobs: tuple[ResolvedJob, ...]) -> list[dict]:
    """Run a group batch; one outcome per job, in batch order.

    An outcome is ``{"ok": result}`` or ``{"error": {type, message}}``.
    A deterministic in-job exception costs that job only; batch-mates
    still complete (hangs and worker deaths are the pool's problem).
    """
    outcomes: list[dict] = []
    for job in jobs:
        try:
            outcomes.append({"ok": run_job(job)})
        except Exception as error:  # noqa: BLE001 -- structured outcome
            outcomes.append(
                {
                    "error": {
                        "type": type(error).__name__,
                        "message": str(error) or type(error).__name__,
                    }
                }
            )
    return outcomes
