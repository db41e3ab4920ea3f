"""A/B: this tree's benchmark against another commit's ``src``.

    python3 perf/ab.py --base REV [--pairs 10] [--workload all] [--seed 0]
                       [--seconds T] [--out-dir DIR]

Exports REV's ``src/`` with ``git archive`` into a temporary directory,
then runs *this* tree's ``perf/run.py`` on both ``src`` trees in
interleaved pairs (the base runs first in even pairs, the head first in
odd ones), so both commits are measured by identical benchmark code in
one session.  It writes ``base.json`` and ``head.json`` series into
``--out-dir``, prints the ``compare.py`` table, removes the temporary
tree, and exits with ``compare.py``'s status.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import compare
from common import ROOT, SERIES_SCHEMA, WORK_DIR

PERF = Path(__file__).resolve().parent


def export_src(rev: str, target: Path) -> Path:
    """REV's ``src`` tree, extracted under *target*."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    return target / "src"


def run_once(src: Path, out: Path, args) -> dict:
    command = [
        sys.executable,
        str(PERF / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--src",
        str(src),
        "--out",
        str(out),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out-dir", default=str(WORK_DIR / "ab"))
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = WORK_DIR / f"ab-tree-{args.base.replace('/', '_')}"
    shutil.rmtree(scratch, ignore_errors=True)
    series = {"base": [], "head": []}
    try:
        trees = {"base": export_src(args.base, scratch), "head": ROOT / "src"}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                out = out_dir / f"{side}-{pair}.json"
                series[side].append(run_once(trees[side], out, args))
                out.unlink()
                print(f"pair {pair + 1}/{args.pairs}: {side} done", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # it holds the series (the default --out-dir) or another run
    paths = {}
    for side, runs in series.items():
        paths[side] = out_dir / f"{side}.json"
        paths[side].write_text(
            json.dumps({"schema": SERIES_SCHEMA, "runs": runs}, indent=1) + "\n"
        )
    return compare.main([str(paths["base"]), str(paths["head"])])


if __name__ == "__main__":
    sys.exit(main())
