"""Run the repro benchmark and print every metric by name, with its unit.

    python3 perf/run.py [--workload NAME|all] [--seed S] [--seconds T]
                        [--trace 0|1] [--out FILE.json] [--trace-out FILE]
                        [--quick] [--src DIR]

Each workload runs in fresh processes (``measure.py``): set-up is timed
in five of them (two that only set up, the measured one, and two more
that only set up) and reported as the median; the measured one runs the
workload's rounds for ``--seconds`` and checks every output.  Untraced runs report the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs report its
per-layer metrics instead.  The last line of standard output is one JSON
object per workload: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``{name: {value, unit}}``).

``--src`` points at another ``src`` tree (``ab.py`` uses it to measure a
parent commit with this benchmark).  Without a ``repro`` package there,
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from common import ROOT, RUN_SCHEMA, WORK_DIR, host_fingerprint, load_declaration

PERF = Path(__file__).resolve().parent
READY = "READY"

#: Set-up-only processes started before the measured one, and again
#: after it.  The host's speed drifts over seconds, so set-up samples
#: spread over the whole run agree better from run to run than samples
#: taken back to back.
SETUP_PROBES = 2

#: Prefix that starts a process without address-space randomization.
NO_ASLR = (
    ["setarch", platform.machine(), "-R"] if shutil.which("setarch") else []
)

#: Slack over ``--seconds`` before a stuck child is killed.
CHILD_GRACE_S = 150.0


class BenchmarkError(RuntimeError):
    """A workload process failed; the run reports no result."""


def _kill_group(child: subprocess.Popen) -> None:
    """Kill the child and everything it started (serve's pool workers)."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(command: list[str], env: dict, timeout: float) -> tuple[float, dict | None]:
    """Run one workload process; (seconds until READY, its JSON document)."""
    start = time.perf_counter()
    child = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    watchdog = threading.Timer(timeout, _kill_group, [child])
    watchdog.start()
    try:
        first = child.stdout.readline()
        ready = time.perf_counter() - start
        rest = child.stdout.read()
        child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            _kill_group(child)
        child.wait()
        child.stdout.close()
    if child.returncode != 0 or first.strip() != READY:
        raise BenchmarkError(
            f"{' '.join(command)} exited with status {child.returncode}"
        )
    lines = rest.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def run_workload(name: str, args, src: Path, work: Path, declaration: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    # Address-space randomization moves the interpreter's hot data from
    # process to process, which shows as run-to-run noise; switch it off
    # where the host allows.
    command = NO_ASLR + [
        sys.executable,
        str(PERF / "measure.py"),
        name,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
    ]
    if args.quick:
        command.append("--quick")
    timeout = args.seconds + CHILD_GRACE_S
    probes = 0 if args.trace or args.quick else SETUP_PROBES
    setup = [
        _spawn(command + ["--setup-only"], env, timeout)[0] for _ in range(probes)
    ]
    if args.trace:
        command.append("--trace")
        if args.trace_out:
            command += ["--trace-out", _trace_path(args, name)]
    ready, document = _spawn(command, env, timeout)
    setup.append(ready)
    setup += [
        _spawn(command + ["--setup-only"], env, timeout)[0] for _ in range(probes)
    ]

    declared = declaration["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = document["layers"]
    else:
        values = dict(document["metrics"])
        values["setup_s"] = median(setup)
        values["peak_rss_mb"] = document["peak_rss_mb"]
    line = {
        "correct": document["failed"] == 0,
        "attempted": max(document["attempted"], 1),
        "failed": document["failed"],
        "metrics": {
            metric["name"]: {
                "value": float(values.get(metric["name"], 0.0)),
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }
    detail = {
        "failed_share": document["failed"] / max(document["attempted"], 1),
        "sim_cycles": document.get("sim_cycles"),
        "rounds": document.get("rounds"),
        "requests": document.get("requests"),
        "setup_samples_s": setup,
        "tail": document.get("tail", {}),
        "peak_rss_mb": document["peak_rss_mb"],
        "problems": document["problems"],
    }
    if args.trace:
        detail["layers"] = values
        detail["trace_missing"] = document["trace_missing"]
    return {**line, "detail": detail}


def _trace_path(args, name: str) -> str:
    path = Path(args.trace_out)
    if args.workload == "all":
        path = path.with_name(f"{path.stem}.{name}{path.suffix}")
    return str(path.resolve())


def _report(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:14s} {metric:44s} {entry['value']:16.4f} {entry['unit']}")
    detail = result["detail"]
    for metric, value in detail["tail"].items():
        label = f"{metric} (n={detail['requests']})"
        print(f"{name:14s} {label:44s} {value:16.4f} ms")
    print(
        f"{name:14s} {'failed/attempted':44s} "
        f"{result['failed']:>7d} / {result['attempted']} "
        f"(sim_cycles {detail['sim_cycles']})"
    )
    for problem in detail["problems"]:
        print(f"{name:14s}   problem: {problem}")


def parse_args(argv, workloads: list[str]):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all", choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full run document here")
    parser.add_argument("--trace-out", help="Chrome trace_event JSON (traced runs)")
    parser.add_argument(
        "--quick", action="store_true", help="smoke run: one short round"
    )
    parser.add_argument("--src", help="the src tree to measure (default: ./src)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    declaration = load_declaration()
    names = [workload["name"] for workload in declaration["workloads"]]
    args = parse_args(argv, names)
    src = Path(args.src).resolve() if args.src else ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"run.py: no repro package under {src}; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(declaration["run_seconds"])
    selected = names if args.workload == "all" else [args.workload]

    # A terminated run still unwinds, so its workload processes are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    results: dict[str, dict] = {}
    try:
        for name in selected:
            try:
                results[name] = run_workload(name, args, src, work, declaration)
            except BenchmarkError as error:
                print(f"run.py: {error}", file=sys.stderr)
                return 1
            _report(name, results[name])
            line = {
                key: results[name][key]
                for key in ("correct", "attempted", "failed", "metrics")
            }
            print(json.dumps(line), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    if args.out:
        document = {
            "schema": RUN_SCHEMA,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "quick": args.quick,
            "host": host_fingerprint(),
            "workloads": results,
        }
        Path(args.out).write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
