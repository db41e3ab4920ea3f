"""The benchmark's four workloads.

Each workload turns ``--seed`` into inputs, sets itself up (imports,
input generation, warm-up), and then runs *rounds*: a fixed, seeded unit
of work that :mod:`measure` repeats until the run's time is up.  Every
round checks its own outputs; a failed check is counted, never raised.

The seed reaches the benchmark only; the program receives the generated
inputs:

* kernel inputs use ``train_seed = 2S+1`` and ``eval_seed = 2S+2``, so
  seed 0 is exactly the paper's inputs (1 and 2);
* fuzz campaigns are ``run_fuzz(800, S)``;
* the serve job stream is the cells ``experiment all`` evaluates at seed
  S, as jobs whose evaluation seed is ``2S+2``.

``repro`` is imported inside ``setup`` (its cost is set-up time) and
called through module attributes, so the tracer's wrappers are the
callables these rounds reach.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import NULL_TRACER

KERNELS = ("compress", "eqntott", "espresso", "grep", "li", "nroff")
PREDICATING = ("region_pred", "trace_pred")


@dataclass
class Round:
    """What one round did: its requests, operations and checks."""

    wall_s: float
    latencies: list[float]  # seconds, one per request
    attempted: int  # operations: cells, campaigns, security cells, jobs
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def seeded_workloads(workloads, seed: int) -> list:
    """The six kernels with their inputs derived from *seed*."""
    return [
        dataclasses.replace(w, train_seed=2 * seed + 1, eval_seed=2 * seed + 2)
        for w in workloads
    ]


class Scenario:
    """Base: a seeded workload the benchmark sets up and runs in rounds."""

    name = ""

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        #: Simulated cycles of one round (identical every round), when the
        #: untraced workload can see them.
        self.sim_cycles: int | None = None
        self._fingerprint = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, tracer=NULL_TRACER) -> Round:
        raise NotImplementedError

    def finish(self) -> Round:
        """Checks that run once, after the timed rounds."""
        return Round(wall_s=0.0, latencies=[], attempted=0)

    def close(self) -> None:
        pass

    def _same_as_first(self, fingerprint, result: Round, what: str) -> None:
        """Rounds repeat the same seeded work: their outputs must agree."""
        if self._fingerprint is None:
            self._fingerprint = fingerprint
        elif fingerprint != self._fingerprint:
            result.failed += 1
            result.problems.append(f"{what} differ from the first round's")


class PaperSweep(Scenario):
    """``repro experiment all --no-cache``: all 13 drivers, in process."""

    name = "paper-sweep"

    def setup(self) -> None:
        import repro.eval.artifact as artifact
        import repro.eval.experiments as experiments
        import repro.eval.runner as runner
        import repro.workloads as workloads

        self._artifact, self._experiments, self._runner = (
            artifact,
            experiments,
            runner,
        )
        self.workloads = seeded_workloads(workloads.all_workloads(), self.seed)
        # Warm-up: the first driver on a throwaway context loads what the
        # drivers import lazily.
        ctx = runner.ExperimentContext(
            workloads=self.workloads, use_cache=False, jobs=1
        )
        first = next(iter(experiments.EXPERIMENTS.values()))
        first(ctx, experiments.ExperimentOptions())

    def run_round(self, tracer=NULL_TRACER) -> Round:
        """One ``experiment all`` is one request."""
        start = time.perf_counter()
        with tracer.request_span(self.name):
            digest, ctx = self._sweep(tracer)
        wall = time.perf_counter() - start
        stats = ctx.runner.stats
        # A cell whose machine output differs from the scalar output
        # inside ``measure`` raises, so it arrives here as an error cell.
        result = Round(
            wall_s=wall,
            latencies=[wall],
            attempted=stats.total,
            failed=len(stats.errors),
            problems=[
                f"error cell {e['error']['label']}: {e['error']['message']}"
                for e in stats.errors
            ],
        )
        self._same_as_first(digest, result, "artifact bytes")
        return result

    def _sweep(self, tracer):
        """Every driver on a fresh context; (artifact digest, context)."""
        artifact = self._artifact
        ctx = self._runner.ExperimentContext(
            workloads=self.workloads, use_cache=False, jobs=1
        )
        options = self._experiments.ExperimentOptions()
        digest = hashlib.sha256()
        for name, driver in self._experiments.EXPERIMENTS.items():
            before = len(ctx.runner.stats.errors)
            with tracer.span(f"eval.experiment.{name}"):
                result = driver(ctx, options)
            errors = ctx.runner.stats.errors[before:]
            digest.update(
                artifact.dumps_artifact(
                    artifact.make_artifact(name, result, None, errors)
                ).encode()
            )
        return digest.hexdigest(), ctx


class FuzzVerify(Scenario):
    """Differential fuzz campaigns: fresh programs, VLIW vs golden model."""

    name = "fuzz-verify"

    def setup(self) -> None:
        import repro.verify as verify

        self._verify = verify
        self.campaigns = 40 if self.quick else 800
        verify.run_fuzz(4, self.seed)  # warm-up: the first campaigns

    def run_round(self, tracer=NULL_TRACER) -> Round:
        latencies: list[float] = []
        cycles = 0
        last = start = time.perf_counter()

        def progress(spec, outcome) -> None:
            nonlocal last, cycles
            now = time.perf_counter()
            latencies.append(now - last)
            last = now
            cycles += outcome.machine_cycles or 0
            tracer.next_request()

        with tracer.request_span(self.name):
            report = self._verify.run_fuzz(
                self.campaigns, self.seed, progress=progress
            )
        result = Round(
            wall_s=time.perf_counter() - start,
            latencies=latencies,
            attempted=report.campaigns,
            failed=report.divergences,
            problems=[finding.spec.label() for finding in report.findings],
        )
        self.sim_cycles = cycles
        self._same_as_first(
            (
                cycles,
                report.equivalent,
                report.total_recoveries,
                report.total_handled_faults,
            ),
            result,
            "cycles, recoveries and handled faults",
        )
        return result


class SecurityTwin(Scenario):
    """``repro verify --security all``: twin taint-off/taint-on runs."""

    name = "security-twin"

    def setup(self) -> None:
        import repro.machine.config as config
        import repro.taint as taint
        import repro.workloads as workloads

        self._taint, self._config = taint, config
        self.inputs = [
            (w.program, w.train_memory(), w.eval_memory())
            for w in seeded_workloads(workloads.all_workloads(), self.seed)
        ]
        program, train, memory = min(
            self.inputs, key=lambda item: len(item[0].instructions)
        )
        self._cell(program, "region_pred", train, memory)  # warm-up

    def _cell(self, program, model, train, memory):
        return self._taint.run_security(
            program,
            model,
            self._config.base_machine(),
            train_memory=train.clone(),
            eval_memory=memory.clone(),
        )

    def run_round(self, tracer=NULL_TRACER) -> Round:
        """Every kernel under both predicating models: one request, timed
        as a whole; traced, each cell gets its own request id."""
        start = time.perf_counter()
        outcomes = []
        for program, train, memory in self.inputs:
            for model in PREDICATING:
                with tracer.request_span(self.name):
                    outcomes.append(self._cell(program, model, train, memory))
        wall = time.perf_counter() - start
        result = Round(wall_s=wall, latencies=[wall], attempted=len(outcomes))
        for outcome in outcomes:
            if (
                not outcome.secure
                or outcome.error is not None
                or outcome.baseline_cycles != outcome.taint_cycles
            ):
                result.failed += 1
                result.problems.append(outcome.describe().splitlines()[0])
        self.sim_cycles = sum(
            (o.baseline_cycles or 0) + (o.taint_cycles or 0) for o in outcomes
        )
        self._same_as_first(
            [(o.taint_cycles, sorted(o.counters.items())) for o in outcomes],
            result,
            "cycles and taint counters",
        )
        return result


SERVE_CHECKED_KEYS = 32


def sweep_cell_batches(experiments, runner, workloads) -> list[list]:
    """The cell batches ``experiment all`` asks for, in order: one list of
    ``CellSpec`` per ``run_cells`` call of its drivers."""
    ctx = runner.ExperimentContext(workloads=workloads, use_cache=False, jobs=1)
    evaluate = ctx.run_cells
    batches: list[list] = []

    def record(specs):
        batches.append(list(specs))
        return evaluate(specs)

    ctx.run_cells = record
    options = experiments.ExperimentOptions()
    for driver in experiments.EXPERIMENTS.values():
        driver(ctx, options)
    return batches


def serve_job(spec, default_config) -> dict | None:
    """The serve job that asks what a sweep cell asks, or None.

    A ``baseline`` cell is a scalar run of its workload; a ``speedup``
    cell of a model the protocol names is a simulate job on the cell's
    machine config (the service always answers it on the cycle-level
    machine).  The protocol cannot express the other cells: analytic-only
    kinds, custom policies and transformed programs.
    """
    if spec.kind == "baseline":
        return {"kind": "simulate", "workload": spec.workload, "model": "scalar"}
    if spec.kind == "speedup" and spec.model in PREDICATING:
        overrides = {
            f.name: getattr(spec.config, f.name)
            for f in dataclasses.fields(spec.config)
            if getattr(spec.config, f.name) != getattr(default_config, f.name)
        }
        return {
            "kind": "simulate",
            "workload": spec.workload,
            "model": spec.model,
            "config": overrides,
        }
    return None


def serve_submissions(
    batches: list[list], default_config, seed: int
) -> list[list[dict]]:
    """One submission per sweep batch with an expressible cell.

    The service trains on the registry's training input; the seed sets
    the evaluation input, as for the kernels (``2S+2``).
    """
    submissions: list[list[dict]] = []
    index = 0
    for batch in batches:
        jobs = []
        for spec in batch:
            job = serve_job(spec, default_config)
            if job is not None:
                job.update(seed=2 * seed + 2, id=f"job-{index}", client="bench")
                jobs.append(job)
                index += 1
        if jobs:
            submissions.append(jobs)
    return submissions


class ServeBurst(Scenario):
    """A closed-loop client of the batched simulation service.

    The traffic is the sweep's own: the cells ``experiment all``
    evaluates, each driver batch one submission, sent by one client that
    waits for each reply.  A round is a fresh service (two pool workers,
    the write-ahead journal on) serving the whole stream, so every round
    does the same work.  Cells the sweep asks for twice are served from
    the service's durable store the second time.
    """

    name = "serve-burst"

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self._work: Path | None = None
        self._checked: dict[str, tuple[dict, dict]] = {}  # key -> (request, result)

    def setup(self) -> None:
        import repro.eval.experiments as experiments
        import repro.eval.runner as runner
        import repro.machine.config as config
        import repro.serve.journal as journal
        import repro.serve.protocol as protocol
        import repro.serve.service as service
        import repro.serve.worker as worker
        import repro.workloads as workloads

        self._journal, self._protocol, self._service, self._worker = (
            journal,
            protocol,
            service,
            worker,
        )
        batches = sweep_cell_batches(
            experiments,
            runner,
            seeded_workloads(workloads.all_workloads(), self.seed),
        )
        self.submissions = serve_submissions(
            batches, config.MachineConfig(), self.seed
        )
        if self.quick:
            self.submissions = self.submissions[:2]
        # Admission control is not what this workload measures: the
        # queue and the client's quota take the largest submission.
        self.queue_limit = max(len(jobs) for jobs in self.submissions)
        self._work = Path(tempfile.mkdtemp(prefix="serve-burst-"))

    def run_round(self, tracer=NULL_TRACER) -> Round:
        directory = tempfile.mkdtemp(prefix="journal-", dir=self._work)
        service = self._service.SimulationService(
            self._service.ServeSettings(
                workers=2,
                queue_limit=self.queue_limit,
                client_quota=self.queue_limit,
            ),
            journal=self._journal.JobJournal(directory),
        )
        result = Round(wall_s=0.0, latencies=[], attempted=0)
        digest = hashlib.sha256()
        cycles: dict[str, int] = {}
        try:
            for requests in self.submissions:
                start = time.perf_counter()
                with tracer.request_span(self.name):
                    responses = service.handle_requests(requests)
                latency = time.perf_counter() - start
                result.wall_s += latency
                result.latencies.append(latency)
                result.attempted += len(requests)
                self._check(requests, responses, result, cycles)
                digest.update(json.dumps(responses, sort_keys=True).encode())
            stats = service.counters()
            pool = service.pool
            tracer.add("serve.executed_jobs", stats["serve.completed"])
            tracer.add("serve.replayed_jobs", stats["serve.replayed"])
            tracer.add("serve.jobs", result.attempted)
            tracer.add("serve.shed", stats["serve.rejected"])
            tracer.add("serve.pool.retries", pool.retries)
            tracer.add("serve.pool.crashes", pool.crashes)
            tracer.add("serve.pool.timeouts", pool.timeouts)
            tracer.add("serve.pool.serial_fallbacks", pool.serial_fallbacks)
        finally:
            service.close()
            shutil.rmtree(directory, ignore_errors=True)
        self.sim_cycles = sum(cycles.values())
        self._same_as_first(digest.hexdigest(), result, "served results")
        return result

    def _check(self, requests, responses, result: Round, cycles: dict) -> None:
        """Every response ``ok``; keep the first distinct keys for
        :meth:`finish` and the machine cycles of every distinct job."""
        for request, response in zip(requests, responses):
            if response.get("status") != "ok":
                result.failed += 1
                result.problems.append(
                    f"{request['id']}: {response.get('status')} "
                    f"{response.get('error') or response.get('reason')}"
                )
                continue
            key = response["key"]
            cycles[key] = response["result"]["machine_cycles"] or 0
            if key not in self._checked and len(self._checked) < SERVE_CHECKED_KEYS:
                self._checked[key] = (request, response["result"])

    def finish(self) -> Round:
        """Serve answer == direct call, for the first distinct keys served."""
        protocol, worker = self._protocol, self._worker
        result = Round(wall_s=0.0, latencies=[], attempted=0)
        for key, (request, served) in self._checked.items():
            job = protocol.resolve_request(protocol.parse_request(request))
            direct = worker.run_job(job)
            if job.key != key or direct != served:
                result.failed += 1
                result.problems.append(
                    f"{request['id']}: served result differs from run_job"
                )
        return result

    def close(self) -> None:
        if self._work is not None:
            shutil.rmtree(self._work, ignore_errors=True)


SCENARIOS: dict[str, type[Scenario]] = {
    scenario.name: scenario
    for scenario in (PaperSweep, FuzzVerify, SecurityTwin, ServeBurst)
}


