"""Shared helpers of the benchmark: paths, the declaration, statistics."""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path

#: The repository (or benchmark checkout) root: the parent of ``perf/``.
ROOT = Path(__file__).resolve().parent.parent

#: The benchmark declaration ``run.py`` and ``compare.py`` read.
DECLARATION = ROOT / "BENCHMARK.json"

#: Scratch space for journals and temporary files; removed after each run.
WORK_DIR = ROOT / ".perf-work"

#: Schema tags of the documents ``run.py --out`` and ``ab.py`` write.
RUN_SCHEMA = "repro-perfbench/v1"
SERIES_SCHEMA = "repro-perfbench-series/v1"


def load_declaration(path: Path = DECLARATION) -> dict:
    return json.loads(path.read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], pct: int) -> float:
    """The *pct*-th percentile (exclusive method, interpolated)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def relative_spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def host_fingerprint() -> dict:
    """The hardware and interpreter a measurement was taken on."""
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model or platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
    }
