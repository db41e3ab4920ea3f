"""One workload in one fresh process: set up, then measure.

``run.py`` starts this as::

    python3 perf/measure.py WORKLOAD --seed S --seconds T [--trace]
        [--quick] [--setup-only] [--trace-out FILE]

It prints ``READY`` as soon as set-up is done (``run.py`` times set-up up
to that line) and, unless ``--setup-only``, one JSON line with the
measurement last.  ``repro`` must be importable (``run.py`` puts the
chosen ``src`` tree on ``PYTHONPATH``).

Untraced, the workload's rounds repeat until ``--seconds`` have passed
and the end-to-end numbers come from them.  Traced, the same rounds run
alternately without and with the tracer until the time is up; the
per-layer numbers are per traced round, and the untraced rounds give the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from statistics import median

from common import percentile
from scenarios import SCENARIOS, Round
from spans import Tracer, chrome_trace, layer_metrics

READY = "READY"


def _guarded(run, *args) -> Round:
    """A round that raised counts as one failed operation, not a crash."""
    try:
        return run(*args)
    except Exception:  # noqa: BLE001 -- the measurement must keep going
        problem = traceback.format_exc().strip().splitlines()[-1]
        return Round(
            wall_s=0.0, latencies=[], attempted=1, failed=1, problems=[problem]
        )


def _totals(rounds: list[Round]) -> dict:
    problems = [problem for r in rounds for problem in r.problems]
    return {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": problems[:20],
    }


def measure_untraced(scenario, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    rounds: list[Round] = []
    while True:
        rounds.append(_guarded(scenario.run_round))
        if time.perf_counter() >= deadline:
            break
    latencies = [latency for r in rounds for latency in r.latencies]
    # Per round, so a burst of load from elsewhere on the host moves one
    # sample, not the whole run's rate.
    rates = [r.attempted / r.wall_s for r in rounds if r.wall_s]
    checks = _guarded(scenario.finish)
    # The tail: the highest percentile with at least ten samples beyond.
    tail = {}
    for pct, needed in ((99, 1000), (90, 100)):
        if len(latencies) >= needed:
            tail[f"request_p{pct}_ms"] = percentile(latencies, pct) * 1e3
            break
    document = _totals(rounds + [checks])
    document.update(
        rounds=len(rounds),
        requests=len(latencies),
        tail=tail,
        metrics={
            "request_p50_ms": median(latencies) * 1e3 if latencies else 0.0,
            "ops_per_s": median(rates) if rates else 0.0,
        },
    )
    return document


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def measure_traced(scenario, seconds: float, trace_out: str | None) -> dict:
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    rounds: list[Round] = []
    plain: list[int] = []
    traced: list[int] = []
    cpu = children_cpu = 0.0
    while True:
        start = time.perf_counter_ns()
        rounds.append(_guarded(scenario.run_round))
        plain.append(time.perf_counter_ns() - start)
        with tracer.installed():
            cpu_before = _cpu_seconds(resource.RUSAGE_SELF)
            children_before = _cpu_seconds(resource.RUSAGE_CHILDREN)
            start = time.perf_counter_ns()
            rounds.append(_guarded(scenario.run_round, tracer))
            traced.append(time.perf_counter_ns() - start)
            cpu += _cpu_seconds(resource.RUSAGE_SELF) - cpu_before
            children_cpu += _cpu_seconds(resource.RUSAGE_CHILDREN) - children_before
        if time.perf_counter() >= deadline:
            break
    rounds.append(_guarded(scenario.finish))
    layers = layer_metrics(tracer, len(traced), sum(traced))
    layers["trace.overhead"] = median(traced) / median(plain)
    layers["proc.cpu_s"] = cpu / len(traced)
    layers["proc.children_cpu_s"] = children_cpu / len(traced)
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(tracer), handle)
    document = _totals(rounds)
    document.update(
        rounds=len(traced),
        layers=layers,
        trace_missing=tracer.missing,
    )
    return document


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scenario = SCENARIOS[args.workload](args.seed, quick=args.quick)
    try:
        scenario.setup()
        print(READY, flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            document = measure_traced(scenario, args.seconds, args.trace_out)
        else:
            document = measure_untraced(scenario, args.seconds)
        document["sim_cycles"] = scenario.sim_cycles
    finally:
        scenario.close()
    document["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(document), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
