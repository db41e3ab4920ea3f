"""Compare two sets of benchmark runs, workload by workload.

    python3 perf/compare.py BASE.json HEAD.json

Each file is a run document written by ``run.py --out`` or a series of
them (``{"schema": "repro-perfbench-series/v1", "runs": [...]}``, as
``ab.py`` writes).  Run *i* of BASE pairs with run *i* of HEAD; ``ab.py``
alternates which side of a pair runs first.

Each (end-to-end metric, workload) gets its own row and one verdict:

* ``better`` -- a gain may be claimed: at least 10 pairs, HEAD wins at
  least 9 in 10 of them (ties count for neither side), and the medians
  differ by more than BASE's interquartile range;
* ``worse`` -- HEAD's median is worse than BASE's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the runs spread (IQR / median, either side) more
  than the bound, so "within the bound" cannot be shown; unless every
  HEAD run is better than every BASE run (then ``unchanged``) or every
  one is worse (then ``worse``);
* ``unchanged`` -- otherwise.

``failed_share`` and ``sim_cycles`` compare exactly: any change in
simulated cycles is ``changed``; HEAD failing more in total, or in any
one run more than BASE's worst run, is ``worse``.  The exit
status is 0 when no row is ``worse``, ``changed`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median

from common import SERIES_SCHEMA, load_declaration, quartiles, relative_spread

#: Pairs needed before a gain may be claimed, and the share HEAD must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9

FAILING = ("worse", "changed", "unresolved")


def load_runs(path: str | Path) -> list[dict]:
    document = json.loads(Path(path).read_text())
    if document.get("schema") == SERIES_SCHEMA:
        return document["runs"]
    return [document]


def judge(base: list[float], head: list[float], better: str, bound: float) -> str:
    """The verdict for one metric on one workload (see module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    base_median, head_median = median(base), median(head)
    gain = sign * (head_median - base_median)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    q1, _, q3 = quartiles(base)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and gain > q3 - q1
    ):
        return "better"
    if max(relative_spread(base), relative_spread(head)) > bound:
        if all(sign * (h - b) > 0 for h in head for b in base):
            return "unchanged"
        if all(sign * (h - b) < 0 for h in head for b in base):
            return "worse"
        return "unresolved"
    if gain < -bound * abs(base_median):
        return "worse"
    return "unchanged"


def judge_exact(base: list, head: list, name: str) -> str:
    if set(base) == set(head) and len(set(base)) == 1:
        return "unchanged"
    if name == "sim_cycles":
        return "changed"
    # One HEAD run failing more than any BASE run is enough: a median
    # would hide failures in fewer than half of the runs.
    if max(head) > max(base) or sum(head) > sum(base):
        return "worse"
    return "unchanged"


def _values(runs: list[dict], workload: str, metric: str) -> list:
    values = []
    for run in runs:
        entry = run["workloads"].get(workload)
        if entry is None:
            continue
        if metric in entry["metrics"]:
            values.append(entry["metrics"][metric]["value"])
        elif entry["detail"].get(metric) is not None:
            values.append(entry["detail"][metric])
    return values


def compare(
    base_runs: list[dict], head_runs: list[dict], declaration: dict
) -> list[dict]:
    """One row per (workload, metric) present on both sides."""
    workloads = [w["name"] for w in declaration["workloads"]]
    rows = []
    for workload in workloads:
        for metric in declaration["end_to_end"] + [
            {"name": "failed_share", "exact": True},
            {"name": "sim_cycles", "exact": True},
        ]:
            name = metric["name"]
            base = _values(base_runs, workload, name)
            head = _values(head_runs, workload, name)
            if not base or not head:
                continue
            if metric.get("exact"):
                verdict = judge_exact(base, head, name)
            else:
                verdict = judge(base, head, metric["better"], metric["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "base": quartiles(base),
                    "head": quartiles(head),
                    "pairs": min(len(base), len(head)),
                    "verdict": verdict,
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':14s} {'metric':16s} {'base median [q1, q3]':>34s} "
        f"{'head median [q1, q3]':>34s} {'change':>8s} {'n':>3s}  verdict"
    ]
    for row in rows:
        b1, b2, b3 = row["base"]
        h1, h2, h3 = row["head"]
        change = f"{(h2 - b2) / b2 * 100:+.1f}%" if b2 else "-"
        lines.append(
            f"{row['workload']:14s} {row['metric']:16s} "
            f"{b2:12.4g} [{b1:9.4g}, {b3:9.4g}] "
            f"{h2:12.4g} [{h1:9.4g}, {h3:9.4g}] {change:>8s} "
            f"{row['pairs']:3d}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="run document or series of the parent")
    parser.add_argument("head", help="run document or series of the change")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.base), load_runs(args.head), load_declaration())
    print(render(rows))
    return 1 if any(row["verdict"] in FAILING for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
