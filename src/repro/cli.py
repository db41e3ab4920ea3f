"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``workloads``  -- list the benchmark-analogue kernels.
* ``run``        -- execute a workload (or an assembly file) on the
  scalar baseline and print its output and cycle count.
* ``compile``    -- compile under a model and show the scheduled code
  and static statistics.
* ``exec``       -- compile under a model and execute the result on the
  cycle-level VLIW machine (``--trace-out`` captures a
  Perfetto cycle trace).
* ``profile``    -- instrumented machine run: counters, occupancy
  histograms, the "top regions by cycles" attribution table, and
  optional ``--json`` / ``--trace-out`` exports.
* ``experiment`` -- regenerate a paper table/figure (or ``all``), with
  parallel fan-out (``--jobs``), a durable result cache
  (``--cache-dir`` / ``--no-cache``), JSON artifacts (``--json``, ``-``
  for stdout), runner telemetry in the artifact (``--metrics``),
  ``--quiet`` to suppress the stderr telemetry summary, and crash
  tolerance knobs (``--cell-timeout``, ``--retries``, ``--fail-fast``).
* ``verify``     -- differential check: compile a workload (or ``all``
  of them) under every model (or one), run it on the cycle-level
  machine, and compare every architectural observable against the
  scalar interpreter (``--security``: taint-check instead;
  ``--replay CASE.json`` re-runs a frozen case of either kind through
  the check it names).
* ``fuzz``       -- seed-deterministic differential fuzzing campaigns
  over random structured programs, region policies, machine shapes and
  fault-raising loads; ``--shrink`` delta-debugs findings to minimal
  repros, ``--out`` freezes them as replayable JSON cases.
* ``diff-trace`` -- lockstep divergence forensics: run a workload (or
  ``--replay CASE.json``) on both the scalar golden model and the
  machine with flight recorders and committed-effect streams attached,
  and report the first divergent architectural effect with a +-K-event
  flight window around it on each side (``--window``), a
  ``repro-tracediff/v1`` artifact (``--json``) and a merged two-process
  Perfetto trace (``--trace-out``).
* ``ckpt``       -- checkpoint tooling; ``ckpt inspect SNAP.json``
  prints a snapshot's engine, position, occupancy and hash validity
  (``--summary`` for the grep-able one-line form).
* ``serve``      -- fault-tolerant batched simulation service speaking
  a JSON-lines protocol over HTTP (``--http PORT``) or stdin/stdout
  (``--stdio``): compile-and-simulate jobs batched by identical
  program+config, bounded worker pool with per-job timeouts and
  isolated retries, deterministic load shedding (``--queue-limit``,
  ``--client-quota``), and a durable write-ahead job journal
  (``--journal DIR``) so a killed server replays exactly the
  incomplete jobs on restart -- never losing or duplicating accepted
  work.

Resumability: ``exec`` and ``profile`` take ``--checkpoint-dir`` /
``--checkpoint-every`` / ``--resume`` (periodic machine snapshots,
continued bit-identically); ``experiment`` caches each cell the moment
it finishes, so a killed sweep re-run with the same ``--cache-dir``
recomputes only unfinished cells; ``fuzz`` takes ``--journal DIR`` (a
durable completed-campaign ledger that a re-run replays).  The
long-running verbs trap SIGINT/SIGTERM, flush a final checkpoint at the
next safe boundary, and exit ``128 + signum`` (130/143) so wrappers can
tell "interrupted but resumable" from "failed".

Observability: the global ``--log-json PATH`` flag (before the command:
``repro --log-json run.jsonl fuzz ...``) appends structured JSONL run
records -- experiment cells with their cache outcomes, cell retries,
and fuzz campaign verdicts.  ``experiment`` and ``fuzz`` take
``--progress`` for a stderr-only single-line live meter (done/total,
cache-hit rate or divergences, ETA).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.branch_prediction import StaticPredictor
from repro.ckpt import (
    CheckpointError,
    CheckpointWriter,
    Journal,
    ShutdownRequested,
    SignalSupervisor,
    describe_snapshot,
    latest_snapshot,
    restore_vliw,
    run_vliw,
    summary_line,
    validate_snapshot,
)
from repro.ckpt.engine import read_json
from repro.compiler import MODELS, compile_program, evaluate_model
from repro.compiler.models import MODEL_NAMES, resolve_model
from repro.eval import EXPERIMENTS, ExperimentContext, ExperimentOptions
from repro.eval.artifact import dumps_artifact, make_artifact, write_artifact
from repro.ir import build_cfg
from repro.isa import parse_program
from repro.machine.config import base_machine
from repro.machine.scalar import run_scalar
from repro.obs import CounterSink, CycleTraceRecorder, attribute_regions
from repro.obs.metrics import NULL_SINK
from repro.obs.progress import ProgressLine
from repro.obs.runlog import NULL_RUN_LOG, JsonlRunLog
from repro.sim.memory import Memory
from repro.workloads import all_workloads, get_workload
from repro.workloads.registry import KERNELS

DEFAULT_CACHE_DIR = ".repro-cache"

#: Schema of ``repro profile --json`` documents.
PROFILE_SCHEMA = "repro-profile/v1"

#: Schemas of ``repro verify --json`` / ``repro fuzz --json`` documents.
VERIFY_SCHEMA = "repro-verify/v1"
FUZZ_SCHEMA = "repro-fuzz/v1"

class UsageError(Exception):
    """A bad command-line target: :func:`main` prints it and exits 2."""


def _load_program_and_memory(target: str, seed: int):
    """A workload name or a path to an assembly file."""
    path = Path(target)
    if path.exists():
        program = parse_program(path.read_text(), name=path.stem)
        return program, Memory(), Memory()
    if target not in KERNELS:
        raise UsageError(
            f"unknown workload {target!r} and no such file; "
            f"known workloads: {', '.join(KERNELS)}"
        )
    workload = get_workload(target)
    return (
        workload.program,
        workload.make_memory(workload.train_seed),
        workload.make_memory(seed),
    )


def cmd_workloads(_args) -> int:
    for workload in all_workloads():
        print(f"{workload.name:10s} {workload.description}")
        if workload.remarks:
            print(f"{'':10s}   ({workload.remarks})")
    return 0


def cmd_run(args) -> int:
    program, _, memory = _load_program_and_memory(args.target, args.seed)
    cfg = build_cfg(program)
    result = run_scalar(program, cfg, memory)
    print(f"output : {list(result.output)}")
    print(f"cycles : {result.cycles}")
    print(f"instrs : {result.instructions}")
    return 0


def cmd_compile(args) -> int:
    program, train, _ = _load_program_and_memory(args.target, args.seed)
    cfg = build_cfg(program)
    scalar = run_scalar(program, cfg, train)
    predictor = StaticPredictor.from_trace(scalar.trace)
    compiled = compile_program(program, args.model, base_machine(), predictor)
    print(f"model    : {compiled.policy.name}")
    print(f"units    : {compiled.unit_count()}")
    total_ops = sum(
        len(unit.region.items) for unit in compiled.code.units.values()
    )
    bundles = sum(unit.length for unit in compiled.code.units.values())
    print(f"ops      : {total_ops} scheduled / {len(program)} source")
    print(f"bundles  : {bundles}")
    if args.dump:
        print()
        print(compiled.vliw.format())
    return 0


def _write_trace(tracer: CycleTraceRecorder, target: str) -> None:
    path = Path(target)
    tracer.write(path)
    print(
        f"[trace] {path} ({len(tracer.track_names())} tracks)",
        file=sys.stderr,
    )


def _checkpointed_machine_runner(args, supervisor: SignalSupervisor):
    """A :func:`evaluate_model` machine-runner hook wiring the checkpoint
    layer into ``exec``/``profile``: periodic snapshots under
    ``--checkpoint-dir``, bit-identical continuation from the newest
    valid snapshot with ``--resume`` (corrupt or stale snapshots are
    reported and skipped, never fatal), and a final snapshot flush when
    the supervisor observes SIGINT/SIGTERM."""
    ckpt_dir = (
        Path(args.checkpoint_dir)
        if getattr(args, "checkpoint_dir", None)
        else None
    )

    def runner(machine):
        writer = CheckpointWriter(ckpt_dir) if ckpt_dir is not None else None
        resumed = machine
        if ckpt_dir is not None and args.resume:
            latest = latest_snapshot(ckpt_dir)
            for skipped_path, reason in latest.skipped:
                print(
                    f"[ckpt] skipping {skipped_path}: {reason}",
                    file=sys.stderr,
                )
            if latest.found:
                try:
                    resumed = restore_vliw(
                        latest.document,
                        machine.program,
                        machine.config,
                        fault_handler=machine.fault_handler,
                        sink=machine.sink,
                        tracer=machine.tracer,
                        path=latest.path,
                    )
                    print(
                        f"[ckpt] resumed {latest.path} "
                        f"at cycle {resumed.cycle}",
                        file=sys.stderr,
                    )
                except CheckpointError as error:
                    print(
                        f"[ckpt] {error}; starting fresh", file=sys.stderr
                    )
        return run_vliw(
            resumed,
            checkpoint_every=args.checkpoint_every,
            writer=writer,
            supervisor=supervisor,
        )

    return runner


def _report_shutdown(shutdown: ShutdownRequested, resume_hint: str) -> int:
    print(f"[ckpt] {shutdown}", file=sys.stderr)
    print(f"[ckpt] resume with {resume_hint}", file=sys.stderr)
    return shutdown.exit_code


def _machine_run(args, sink=NULL_SINK):
    """``exec``/``profile``: evaluate ``args.model`` on ``args.target``
    with a checkpointed machine run.  Returns ``(evaluation, tracer)``,
    or the exit code of a graceful shutdown."""
    program, train, memory = _load_program_and_memory(args.target, args.seed)
    if args.resume and not args.checkpoint_dir:
        raise UsageError("--resume needs --checkpoint-dir")
    tracer = CycleTraceRecorder(program.name) if args.trace_out else None
    with SignalSupervisor() as supervisor:
        try:
            evaluation = evaluate_model(
                program,
                resolve_model(args.model),
                base_machine(),
                train_memory=train,
                eval_memory=memory,
                sink=sink,
                tracer=tracer,
                machine_runner=_checkpointed_machine_runner(args, supervisor),
            )
        except ShutdownRequested as shutdown:
            return _report_shutdown(
                shutdown,
                f"repro {args.command} {args.target} --checkpoint-dir "
                f"{args.checkpoint_dir or 'DIR'} --resume",
            )
    return evaluation, tracer


def cmd_exec(args) -> int:
    run = _machine_run(args)
    if isinstance(run, int):
        return run
    evaluation, tracer = run
    machine = evaluation.machine
    print(f"output        : {machine.output}")
    print(f"scalar cycles : {evaluation.scalar.cycles}")
    print(f"VLIW cycles   : {machine.cycles}")
    print(f"speedup       : {evaluation.speedup:.2f}x")
    print(f"speculative   : {machine.speculative_ops}")
    print(f"squashed      : {machine.squashed_ops}")
    print(f"recoveries    : {machine.recoveries}")
    if tracer is not None:
        _write_trace(tracer, args.trace_out)
    return 0


def cmd_profile(args) -> int:
    sink = CounterSink()
    run = _machine_run(args, sink)
    if isinstance(run, int):
        return run
    evaluation, tracer = run
    machine = evaluation.machine
    report = attribute_regions(sink)

    print(f"workload      : {args.target}")
    print(f"model         : {evaluation.model}")
    print(f"scalar cycles : {evaluation.scalar.cycles}")
    print(f"VLIW cycles   : {machine.cycles}")
    print(f"speedup       : {evaluation.speedup:.2f}x")
    print()
    print(report.render(args.top))
    print()
    print("counters:")
    for name in sorted(sink.counters):
        if "/" in name:
            continue  # keyed families are the attribution table above
        print(f"  {name:36s} {sink.counters[name]}")
    print("histograms:")
    for name in sorted(sink.histograms):
        summary = sink.histogram_summary(name)
        print(
            f"  {name:36s} count {summary['count']}"
            f"  min {summary['min']}  mean {summary['mean']:.2f}"
            f"  max {summary['max']}"
        )

    if tracer is not None:
        _write_trace(tracer, args.trace_out)
    if args.json:
        document = {
            "schema": PROFILE_SCHEMA,
            "workload": args.target,
            "model": evaluation.model,
            "seed": args.seed,
            "scalar_cycles": evaluation.scalar.cycles,
            "machine_cycles": machine.cycles,
            "speedup": evaluation.speedup,
            "metrics": sink.to_dict(),
            "attribution": report.to_dict(),
        }
        _write_json(document, args.json, "profile")
    return 0


def _write_json(document: dict, target: str, tag: str) -> None:
    from repro.ckpt.engine import atomic_write_text

    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    if target == "-":
        sys.stdout.write(text)
    else:
        path = atomic_write_text(target, text)
        print(f"[{tag}] {path}", file=sys.stderr)


def _verify_runs(args) -> list[dict]:
    """The check inputs ``verify`` runs on its target.

    ``all`` targets every workload, and ``--model all`` (the default)
    every model.
    """
    models = list(MODELS) if args.model in (None, "all") else [args.model]
    targets = list(KERNELS) if args.target == "all" else [args.target]
    taint = {"policy": args.policy or "committed"} if args.security else {}
    runs = []
    for target in targets:
        program, train, memory = _load_program_and_memory(target, args.seed)
        runs.extend(
            dict(program=program, model=model, config=base_machine(),
                 train_memory=train.clone(), eval_memory=memory.clone(),
                 **taint)
            for model in models
        )
    return runs


def _limits(args) -> dict:
    """``--max-cycles`` caps both engines (machine cycles and interpreter
    steps): a livelocked case yields a structured step-limit error
    result and exit 1 instead of hanging the check."""
    if args.max_cycles is None:
        return {}
    return {"max_cycles": args.max_cycles, "max_steps": args.max_cycles}


def _load_case(args, check: str | None = None):
    """The ``--replay`` case; a broken file, or a case whose check is
    not *check*, is a :class:`UsageError` (exit 2, never the exit 1 of a
    real finding)."""
    from repro.verify.case import ReproCase

    try:
        case = ReproCase.load(args.replay)
    except ValueError as error:
        raise UsageError(error) from None
    if check is not None and case.check != check:
        raise UsageError(
            f"{args.replay}: expected a case for the {check} check, "
            f"got one for the {case.check} check"
        )
    return case


def cmd_verify(args) -> int:
    """``repro verify``: the equivalence oracle, or with ``--security``
    (or a replayed security case) the taint twin."""
    case = None
    for option in ("model", "policy"):
        if args.replay and getattr(args, option) is not None:
            raise UsageError(
                f"--{option} does not apply to --replay: the case carries "
                "its own"
            )
    if args.replay:
        case = _load_case(args, "security" if args.security else None)
        security = case.check == "security"
        detail = f"policy {case.policy}" if security else case.model
        print(f"replaying {args.replay} ({case.name}, {detail})")
        runs = [case.inputs()]
    elif args.target is None:
        flag = " --security" if args.security else ""
        print(
            f"verify{flag} needs a workload/file target, 'all', or "
            "--replay CASE.json",
            file=sys.stderr,
        )
        return 2
    else:
        security = args.security
        runs = _verify_runs(args)
    if security:
        from repro.taint.oracle import run_security as run_check
    else:
        from repro.verify.oracle import run_oracle as run_check
    sink = CounterSink()
    results = [run_check(**run, sink=sink, **_limits(args)) for run in runs]
    reproduced = None
    if case is not None and case.expected_kind is not None:
        reproduced = case.expected_kind in {
            leak.kind for leak in results[0].leaks
        }
        status = "reproduced" if reproduced else "did NOT reproduce"
        print(f"pinned {case.expected_kind} leak: {status}")
    for result in results:
        print(result.describe())
    if args.json and security:
        from repro.taint import security_document

        document = security_document(results, metrics=sink.to_dict())
        _write_json(document, args.json, "security")
    elif args.json:
        document = {
            "schema": VERIFY_SCHEMA,
            "results": [result.to_dict() for result in results],
            "metrics": sink.to_dict(),
        }
        _write_json(document, args.json, "verify")
    # A replayed leak case is *expected* to leak; success there means
    # the pinned channel reproduced.  Everywhere else, the check's own
    # verdict: equivalent, or secure.
    if reproduced is not None:
        return 0 if reproduced else 1
    if security:
        return 0 if all(result.secure for result in results) else 1
    return 0 if all(result.equivalent for result in results) else 1


def cmd_diff_trace(args) -> int:
    from repro.verify import merged_trace, run_diff_trace
    from repro.verify.tracediff import TRACEDIFF_SCHEMA

    if args.replay:
        case = _load_case(args, "equivalence")
        print(f"diff-tracing {args.replay} ({case.name}, {case.model})")
        inputs = case.inputs()
    elif args.target is None:
        print(
            "diff-trace needs a workload/file target or --replay CASE.json",
            file=sys.stderr,
        )
        return 2
    else:
        program, train, memory = _load_program_and_memory(
            args.target, args.seed
        )
        inputs = dict(program=program, model=args.model, config=base_machine(),
                      train_memory=train, eval_memory=memory)
    tracer = None
    if args.trace_out:
        tracer = CycleTraceRecorder(
            inputs["program"].name, pid=1, process="machine"
        )
    result = run_diff_trace(
        **inputs,
        window=args.window,
        flight_capacity=args.flight_capacity,
        tracer=tracer,
        **_limits(args),
    )
    print(result.describe())
    if args.json:
        _write_json(result.to_dict(), args.json, "diff-trace")
    if args.trace_out:
        path = Path(args.trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(merged_trace(result, tracer), indent=1) + "\n"
        )
        print(f"[trace] {path}", file=sys.stderr)
    run_log = getattr(args, "run_log", NULL_RUN_LOG)
    if run_log.enabled:
        run_log.event(
            "diff_trace.result",
            program=result.program,
            model=result.model,
            equivalent=result.equivalent,
            schema=TRACEDIFF_SCHEMA,
        )
    return 0 if result.equivalent else 1


def _cmd_fuzz_security(args) -> int:
    """``repro fuzz --mode security``: sweep gadget space for leaks.

    Campaigns are seed-deterministic and fast, so the journal/resume
    machinery does not apply here; exit is 0 iff the detector agreed
    with the generator's ground truth on every gadget.
    """
    from repro.taint import run_security_fuzz

    if args.journal:
        print("--journal applies to divergence fuzzing only",
              file=sys.stderr)
        return 2
    sink = CounterSink()
    meter = ProgressLine("security") if args.progress else None
    done = 0
    detected = 0

    def progress(spec, result) -> None:
        nonlocal done, detected
        done += 1
        if not result.secure:
            detected += 1
        if args.verbose:
            status = "LEAKED" if not result.secure else "clean"
            print(f"  {spec.describe()}: {status}", file=sys.stderr)
        if meter is not None:
            meter.update(done, args.campaigns, f"{detected} leaks")

    try:
        report = run_security_fuzz(
            args.campaigns,
            args.seed,
            policy=args.policy,
            shrink=args.shrink,
            out_dir=args.out,
            sink=sink,
            progress=progress,
        )
    finally:
        if meter is not None:
            meter.finish()
    print(report.summary())
    if args.json:
        document = {**report.to_dict(), "metrics": sink.to_dict()}
        _write_json(document, args.json, "security-fuzz")
    return 0 if report.ok else 1


def cmd_fuzz(args) -> int:
    from repro.verify import run_fuzz

    if args.mode == "security":
        return _cmd_fuzz_security(args)
    sink = CounterSink()

    meter = ProgressLine("fuzz") if args.progress else None
    done = 0
    diverged = 0

    def progress(spec, result) -> None:
        nonlocal done, diverged
        done += 1
        if result is not None and not result.equivalent:
            diverged += 1
        if args.verbose:
            status = (
                "replayed"
                if result is None
                else ("ok" if result.equivalent else "DIVERGED")
            )
            print(f"  {spec.label()}: {status}", file=sys.stderr)
        if meter is not None:
            meter.update(done, args.campaigns, f"{diverged} diverged")

    journal = Journal(args.journal) if args.journal else None
    try:
        with SignalSupervisor() as supervisor:
            report = run_fuzz(
                args.campaigns,
                args.seed,
                shrink=args.shrink,
                out_dir=args.out,
                sink=sink,
                progress=progress,
                journal=journal,
                supervisor=supervisor,
                run_log=getattr(args, "run_log", NULL_RUN_LOG),
            )
    except ShutdownRequested as shutdown:
        if journal is not None:
            print(
                f"[ckpt] completed campaigns are ledgered in "
                f"{args.journal}",
                file=sys.stderr,
            )
        return _report_shutdown(
            shutdown,
            f"repro fuzz --campaigns {args.campaigns} --seed {args.seed} "
            f"--journal {args.journal or 'DIR'}",
        )
    finally:
        if meter is not None:
            meter.finish()
        if journal is not None:
            journal.close()
    print(report.summary())
    if args.json:
        document = {
            "schema": FUZZ_SCHEMA,
            **report.to_dict(),
            "metrics": sink.to_dict(),
        }
        _write_json(document, args.json, "fuzz")
    return 0 if not report.findings else 1


def cmd_experiment(args) -> int:
    names = list(EXPERIMENTS) if args.name == "all" else [args.name]
    json_stdout = args.json == "-"
    json_target = (
        Path(args.json) if args.json and not json_stdout else None
    )
    if json_stdout and len(names) > 1:
        print(
            "--json - writes one artifact to stdout; pick a single "
            "experiment (not 'all')",
            file=sys.stderr,
        )
        return 2
    if (
        json_target is not None
        and json_target.suffix == ".json"
        and len(names) > 1
    ):
        print(
            "--json must name a directory (not a .json file) when writing "
            "more than one experiment",
            file=sys.stderr,
        )
        return 2

    cache_dir = None if args.no_cache else Path(args.cache_dir)
    if cache_dir is not None and cache_dir.exists() and not cache_dir.is_dir():
        print(f"--cache-dir {cache_dir} exists and is not a directory",
              file=sys.stderr)
        return 2
    meter = ProgressLine("experiment") if args.progress else None
    progress = None
    if meter is not None:
        def progress(done, total, stats):
            meter.update(done, total, f"cache {stats.hit_rate:.0%}")
    try:
        with SignalSupervisor() as supervisor:
            ctx = ExperimentContext(
                jobs=args.jobs, cache_dir=cache_dir,
                use_cache=not args.no_cache,
                cell_timeout=args.cell_timeout, max_retries=args.retries,
                fail_fast=args.fail_fast,
                supervisor=supervisor,
                run_log=getattr(args, "run_log", NULL_RUN_LOG),
                progress=progress,
            )
            options = ExperimentOptions()
            for name in names:
                errors_before = len(ctx.runner.stats.errors)
                result = EXPERIMENTS[name](ctx, options)
                # Runner telemetry at artifact-write time (cumulative
                # over the run); nondeterministic wall time, so strictly
                # opt-in.  Failed cells always ride the artifact as
                # structured error entries.
                metrics = (
                    ctx.runner.stats.to_metrics() if args.metrics else None
                )
                errors = ctx.runner.stats.errors[errors_before:]
                if json_stdout:
                    sys.stdout.write(
                        dumps_artifact(
                            make_artifact(name, result, metrics, errors)
                        )
                    )
                else:
                    print(result.render())
                    print()
                    if json_target is not None:
                        path = write_artifact(
                            json_target, name, result, metrics, errors
                        )
                        print(f"[artifact] {path}", file=sys.stderr)
    except ShutdownRequested as shutdown:
        kept = (
            f"finished cells are cached in {cache_dir}"
            if cache_dir is not None
            else "--no-cache: no finished cells were kept"
        )
        print(f"[ckpt] {kept}", file=sys.stderr)
        return _report_shutdown(
            shutdown,
            f"repro experiment {args.name} --cache-dir {cache_dir or 'DIR'}",
        )
    finally:
        if meter is not None:
            meter.finish()
    if not args.quiet:
        print(ctx.runner.stats.report(), file=sys.stderr)
    return 0 if not ctx.runner.stats.errors else 3


def cmd_ckpt(args) -> int:
    """Checkpoint tooling; currently the ``inspect`` verb."""
    try:
        document = read_json(args.snapshot)
    except CheckpointError as error:
        print(error, file=sys.stderr)
        return 2
    problem = None
    try:
        validate_snapshot(document, path=args.snapshot)
    except CheckpointError as error:
        problem = error.reason
    hash_ok = problem is None
    try:
        if args.summary:
            print(summary_line(document, hash_ok=hash_ok))
        else:
            info = describe_snapshot(document, hash_ok=hash_ok)
            if problem is not None:
                info["problem"] = problem
            print(json.dumps(info, sort_keys=True, indent=2))
    except (AttributeError, TypeError):
        # Too malformed to even summarize; the validation reason says why.
        print(f"{args.snapshot}: {problem}", file=sys.stderr)
        return 1
    if problem is not None:
        print(f"[ckpt] {args.snapshot}: {problem}", file=sys.stderr)
    return 0 if hash_ok else 1


def cmd_serve(args) -> int:
    from repro.serve import (
        JobJournal,
        ServeSettings,
        SimulationService,
        serve_http,
        serve_stdio,
    )

    try:
        settings = ServeSettings(
            workers=args.jobs,
            queue_limit=args.queue_limit,
            client_quota=args.client_quota,
            job_timeout=args.job_timeout,
            max_retries=args.retries,
            retry_backoff=args.retry_backoff,
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    sink = CounterSink()
    run_log = getattr(args, "run_log", NULL_RUN_LOG)
    journal = JobJournal(args.journal) if args.journal else None
    service = SimulationService(
        settings, journal=journal, sink=sink, run_log=run_log
    )
    try:
        if journal is not None:
            replayed = service.recover()
            durable = service.counters()["serve.durable_results"]
            print(
                f"[serve] journal {args.journal}: {durable} durable "
                f"result(s), {replayed} incomplete job(s) re-executed",
                file=sys.stderr,
            )
        with SignalSupervisor() as supervisor:
            try:
                if args.stdio:
                    print(
                        "[serve] reading JSON-lines requests from stdin",
                        file=sys.stderr,
                    )
                    serve_stdio(service, supervisor=supervisor)
                else:

                    def ready(host: str, port: int) -> None:
                        print(
                            f"[serve] listening on http://{host}:{port}"
                            "/v1/jobs",
                            file=sys.stderr,
                        )

                    serve_http(
                        service,
                        host=args.host,
                        port=args.http,
                        supervisor=supervisor,
                        ready=ready,
                    )
            except ShutdownRequested as shutdown:
                counters = service.counters()
                print(
                    f"[serve] {shutdown}; drained in-flight jobs "
                    f"({counters['serve.completed']} completed, "
                    f"{counters['serve.errors']} errors)",
                    file=sys.stderr,
                )
                if journal is not None:
                    print(
                        f"[serve] results are durable in {args.journal}; "
                        "restart with the same --journal to replay",
                        file=sys.stderr,
                    )
                return shutdown.exit_code
    finally:
        service.close()
    print(json.dumps(service.counters(), sort_keys=True), file=sys.stderr)
    return 0


def _add_checkpoint_options(parser: argparse.ArgumentParser) -> None:
    """The machine-run checkpoint knobs shared by ``exec``/``profile``."""
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help=(
            "write rotating machine snapshots here (and a final one on "
            "SIGINT/SIGTERM)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=10_000,
        metavar="CYCLES",
        help="cycles between periodic snapshots (default: 10000)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "continue from the newest valid snapshot in --checkpoint-dir "
            "(bit-identical to the uninterrupted run)"
        ),
    )


def _add_max_cycles(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-cycles",
        type=int,
        default=None,
        metavar="N",
        help=(
            "abort either engine after N cycles/steps with a structured "
            "step-limit error result (exit 1) instead of hanging on a "
            "livelocked case"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Unconstrained Speculative Execution with "
            "Predicated State Buffering' (ISCA 1995)."
        ),
    )
    parser.add_argument(
        "--log-json",
        metavar="PATH",
        help=(
            "append structured JSONL run-log records (run/cell/campaign "
            "events) to PATH; off by default"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("workloads", help="list benchmark kernels")

    run_parser = commands.add_parser("run", help="scalar-execute a program")
    run_parser.add_argument("target", help="workload name or assembly file")
    run_parser.add_argument("--seed", type=int, default=2)

    compile_parser = commands.add_parser(
        "compile", help="compile and show schedule statistics"
    )
    compile_parser.add_argument("target")
    compile_parser.add_argument(
        "--model", default="region_pred", choices=sorted(MODELS)
    )
    compile_parser.add_argument("--seed", type=int, default=2)
    compile_parser.add_argument(
        "--dump", action="store_true", help="print the scheduled bundles"
    )

    exec_parser = commands.add_parser(
        "exec", help="execute predicated code on the VLIW machine"
    )
    exec_parser.add_argument("target")
    exec_parser.add_argument(
        "--model", default="region_pred", choices=MODEL_NAMES
    )
    exec_parser.add_argument("--seed", type=int, default=2)
    exec_parser.add_argument(
        "--trace-out",
        metavar="TRACE",
        help="write a Perfetto/Chrome trace_event JSON of the machine run",
    )
    _add_checkpoint_options(exec_parser)

    profile_parser = commands.add_parser(
        "profile",
        help="instrumented machine run: counters + per-region attribution",
    )
    profile_parser.add_argument("target", help="workload name or assembly file")
    profile_parser.add_argument(
        "--model",
        default="region_pred",
        choices=MODEL_NAMES,
        help="model to run ('predicating' = the paper's region_pred)",
    )
    profile_parser.add_argument("--seed", type=int, default=2)
    profile_parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="regions shown in the attribution table (default: 10)",
    )
    profile_parser.add_argument(
        "--json",
        metavar="OUT",
        help=f"write the {PROFILE_SCHEMA} document ('-' for stdout)",
    )
    profile_parser.add_argument(
        "--trace-out",
        metavar="TRACE",
        help="write a Perfetto/Chrome trace_event JSON of the machine run",
    )
    _add_checkpoint_options(profile_parser)

    experiment_parser = commands.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment_parser.add_argument(
        "name", choices=sorted(EXPERIMENTS) + ["all"]
    )
    experiment_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for cell evaluation (default: 1, serial)",
    )
    experiment_parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="PATH",
        help=(
            "directory for the content-keyed result cache; each cell is "
            "written the moment it finishes, so re-running an "
            f"interrupted sweep resumes it (default: {DEFAULT_CACHE_DIR})"
        ),
    )
    experiment_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell; neither read nor write the cache",
    )
    experiment_parser.add_argument(
        "--json",
        metavar="OUT",
        help=(
            "write JSON artifacts: a directory gets <experiment>.json per "
            "experiment; a *.json path is used verbatim (single "
            "experiment); '-' streams one artifact to stdout"
        ),
    )
    experiment_parser.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "embed runner telemetry in artifacts (schema becomes "
            "repro-experiment/v2; wall time makes it nondeterministic)"
        ),
    )
    experiment_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the runner telemetry summary on stderr",
    )
    experiment_parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-cell wall-clock budget; a cell that exceeds it is "
            "retried in isolation and then recorded as an error entry "
            "(default: no timeout)"
        ),
    )
    experiment_parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "isolated retries (with exponential backoff) for a cell "
            "whose worker crashed or hung (default: 2)"
        ),
    )
    experiment_parser.add_argument(
        "--fail-fast",
        action="store_true",
        help=(
            "raise on the first failed cell instead of recording a "
            "structured error entry and finishing the sweep"
        ),
    )
    experiment_parser.add_argument(
        "--progress",
        action="store_true",
        help="stderr-only live progress line (cells done/total, ETA)",
    )

    verify_parser = commands.add_parser(
        "verify",
        help="differential check: machine run vs scalar golden model",
    )
    verify_parser.add_argument(
        "target",
        nargs="?",
        help=(
            "workload name, assembly file, or 'all' for every workload "
            "(omit with --replay)"
        ),
    )
    verify_parser.add_argument(
        "--model",
        choices=["all", *MODEL_NAMES],
        help="model(s) to check (default: all; not with --replay)",
    )
    verify_parser.add_argument("--seed", type=int, default=2)
    verify_parser.add_argument(
        "--replay",
        metavar="CASE",
        help=(
            "re-run a serialized case (JSON) through the check it names: "
            "equivalence (repro-verify-case/v1) or security "
            "(repro-security-case/v1)"
        ),
    )
    verify_parser.add_argument(
        "--json",
        metavar="OUT",
        help=f"write the {VERIFY_SCHEMA} document ('-' for stdout)",
    )
    _add_max_cycles(verify_parser)
    verify_parser.add_argument(
        "--security",
        action="store_true",
        help=(
            "taint-check instead of equivalence-check: twin taint-on/"
            "taint-off runs, exit 1 on any speculative information leak "
            "(with --replay, the case must be a security case)"
        ),
    )
    verify_parser.add_argument(
        "--policy",
        choices=["committed", "strict"],
        help=(
            "taint leak policy for --security: 'committed' flags "
            "unconfirmed speculative data reaching architectural state; "
            "'strict' additionally flags tainted predicate writes "
            "(default: committed; a replayed case carries its own)"
        ),
    )

    diff_trace_parser = commands.add_parser(
        "diff-trace",
        help=(
            "lockstep divergence forensics: pinpoint the first divergent "
            "architectural effect between machine and scalar model"
        ),
    )
    diff_trace_parser.add_argument(
        "target",
        nargs="?",
        help="workload name or assembly file (omit with --replay)",
    )
    diff_trace_parser.add_argument(
        "--model",
        default="predicating",
        choices=MODEL_NAMES,
        help="model to trace (default: predicating)",
    )
    diff_trace_parser.add_argument("--seed", type=int, default=2)
    diff_trace_parser.add_argument(
        "--replay",
        metavar="CASE",
        help="diff-trace a serialized equivalence case (JSON) instead",
    )
    diff_trace_parser.add_argument(
        "--window",
        type=int,
        default=8,
        metavar="K",
        help="effects of context shown around the divergence (default: 8)",
    )
    diff_trace_parser.add_argument(
        "--flight-capacity",
        type=int,
        default=4096,
        metavar="N",
        help="flight-recorder ring capacity per side (default: 4096)",
    )
    diff_trace_parser.add_argument(
        "--json",
        metavar="OUT",
        help="write the repro-tracediff/v1 document ('-' for stdout)",
    )
    diff_trace_parser.add_argument(
        "--trace-out",
        metavar="TRACE",
        help=(
            "write a merged Perfetto/Chrome trace_event JSON (machine "
            "pid 1, scalar pid 2)"
        ),
    )
    _add_max_cycles(diff_trace_parser)

    fuzz_parser = commands.add_parser(
        "fuzz",
        help="seed-deterministic differential fuzzing campaigns",
    )
    fuzz_parser.add_argument(
        "--campaigns", type=int, default=20, metavar="N",
        help="number of campaigns to run (default: 20)",
    )
    fuzz_parser.add_argument(
        "--mode",
        default="divergence",
        choices=["divergence", "security"],
        help=(
            "'divergence' fuzzes machine-vs-scalar equivalence; "
            "'security' sweeps seeded leak gadgets and cross-checks the "
            "taint detector against ground truth (default: divergence)"
        ),
    )
    fuzz_parser.add_argument(
        "--policy",
        default="committed",
        choices=["committed", "strict"],
        help="taint leak policy for --mode security (default: committed)",
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign derivation seed (default: 0)",
    )
    fuzz_parser.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug each finding to a minimal repro before saving",
    )
    fuzz_parser.add_argument(
        "--out",
        metavar="DIR",
        help="save each finding as a replayable case-<seed>-<n>.json here",
    )
    fuzz_parser.add_argument(
        "--json",
        metavar="OUT",
        help=f"write the {FUZZ_SCHEMA} document ('-' for stdout)",
    )
    fuzz_parser.add_argument(
        "--verbose",
        action="store_true",
        help="print one line per campaign on stderr",
    )
    fuzz_parser.add_argument(
        "--progress",
        action="store_true",
        help="stderr-only live progress line (campaigns done/total, ETA)",
    )
    fuzz_parser.add_argument(
        "--journal",
        metavar="DIR",
        help=(
            "durably ledger every completed campaign here; a re-run with "
            "the same journal replays finished campaigns instead of "
            "recomputing them"
        ),
    )

    ckpt_parser = commands.add_parser(
        "ckpt", help="checkpoint tooling (inspect snapshots)"
    )
    ckpt_commands = ckpt_parser.add_subparsers(
        dest="ckpt_command", required=True
    )
    inspect_parser = ckpt_commands.add_parser(
        "inspect",
        help="describe a snapshot: engine, position, occupancy, hash",
    )
    inspect_parser.add_argument("snapshot", help="path to a SNAP.json file")
    inspect_parser.add_argument(
        "--summary",
        action="store_true",
        help="one grep-able line instead of the JSON description",
    )

    serve_parser = commands.add_parser(
        "serve",
        help=(
            "fault-tolerant batched simulation service (JSON-lines "
            "protocol over HTTP or stdin/stdout)"
        ),
    )
    frontend = serve_parser.add_mutually_exclusive_group(required=True)
    frontend.add_argument(
        "--http",
        type=int,
        metavar="PORT",
        help="serve the JSON-lines protocol over HTTP on PORT (0 = ephemeral)",
    )
    frontend.add_argument(
        "--stdio",
        action="store_true",
        help="read request lines from stdin, write response lines to stdout",
    )
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --http (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for job execution (default: 1)",
    )
    serve_parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help=(
            "bounded admission queue: jobs beyond N pending get an "
            "explicit 'overloaded' response (default: 64)"
        ),
    )
    serve_parser.add_argument(
        "--client-quota",
        type=int,
        default=16,
        metavar="N",
        help=(
            "at most N pending jobs per client; beyond that the client "
            "gets 'rejected: quota' (default: 16)"
        ),
    )
    serve_parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-job wall-clock budget; a hung job is isolated, retried "
            "and then reported as a structured error (default: none)"
        ),
    )
    serve_parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "isolated retries (exponential backoff with deterministic "
            "jitter) for a job whose worker crashed or hung (default: 2)"
        ),
    )
    serve_parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="base delay of the retry backoff schedule (default: 0.1)",
    )
    serve_parser.add_argument(
        "--journal",
        metavar="DIR",
        help=(
            "durable write-ahead job journal: accepted jobs land here "
            "before execution, results after; a restarted server "
            "replays exactly the incomplete jobs and serves durable "
            "results without re-executing"
        ),
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "workloads": cmd_workloads,
        "run": cmd_run,
        "compile": cmd_compile,
        "exec": cmd_exec,
        "profile": cmd_profile,
        "experiment": cmd_experiment,
        "verify": cmd_verify,
        "diff-trace": cmd_diff_trace,
        "fuzz": cmd_fuzz,
        "ckpt": cmd_ckpt,
        "serve": cmd_serve,
    }
    run_log = JsonlRunLog(args.log_json) if args.log_json else NULL_RUN_LOG
    args.run_log = run_log
    if run_log.enabled:
        run_log.event("run.command", command=args.command)
    status = None
    try:
        status = handlers[args.command](args)
    except UsageError as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        status = 2
    finally:
        if run_log.enabled:
            run_log.event("run.exit", command=args.command, status=status)
        run_log.close()
    return status


if __name__ == "__main__":
    sys.exit(main())
