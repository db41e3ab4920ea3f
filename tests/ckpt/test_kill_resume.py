"""Kill-and-resume: SIGKILL a cached sweep mid-cell, re-run it over the
same cache, and get the byte-identical artifact with zero re-execution
of finished work.

The sweep's fourth cell is a ``wait_for`` chaos cell that blocks until a
sentinel file appears, which parks the first run mid-cell
deterministically; the run is then SIGKILLed -- no handlers, no flushes,
the hardest crash there is.  The resume run pre-creates the sentinel, so
the same spec completes.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

DRIVER = """
import json, sys
from repro.eval import ExperimentContext
from repro.eval.runner import CellSpec

cache_dir, sentinel, out = sys.argv[1:4]
specs = (
    [
        CellSpec(kind="chaos", extras=(("mode", "ok"), ("value", i)))
        for i in range(3)
    ]
    + [
        CellSpec(
            kind="chaos",
            extras=(
                ("mode", "wait_for"),
                ("path", sentinel),
                ("timeout", 30.0),
                ("value", 99),
            ),
        )
    ]
    + [CellSpec(kind="chaos", extras=(("mode", "ok"), ("value", 7)))]
)
ctx = ExperimentContext(cache_dir=cache_dir)
results = ctx.run_cells(specs)
stats = ctx.runner.stats
with open(out, "w") as f:
    json.dump(results, f, sort_keys=True, separators=(",", ":"))
with open(out + ".stats", "w") as f:
    json.dump({"misses": stats.misses, "hits": stats.hits}, f)
"""


def run_driver(tmp_path, cache, sentinel, out, wait=True):
    env = dict(os.environ, PYTHONPATH=SRC)
    driver = tmp_path / "driver.py"
    driver.write_text(DRIVER)
    process = subprocess.Popen(
        [sys.executable, str(driver), str(cache), str(sentinel), str(out)],
        env=env,
        cwd=str(tmp_path),
    )
    if wait:
        assert process.wait(timeout=60) == 0
    return process


def wait_for_cache(cache: Path, cells: int, timeout: float = 30.0):
    # Entries appear by atomic rename, so every *.json file is complete.
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(list(cache.glob("*.json"))) >= cells:
            return
        time.sleep(0.05)
    pytest.fail(f"cache never reached {cells} entries")


class TestKillAndResume:
    def test_sigkill_resume_is_byte_identical_with_zero_reexecution(
        self, tmp_path
    ):
        cache = tmp_path / "cache"
        sentinel = tmp_path / "sentinel"
        killed_out = tmp_path / "killed.json"

        # Run 1: SIGKILL while parked inside the fourth cell.  The first
        # three cells are durably cached; nothing else survives.
        process = run_driver(
            tmp_path, cache, sentinel, killed_out, wait=False
        )
        try:
            wait_for_cache(cache, 3)
        finally:
            process.send_signal(signal.SIGKILL)
        assert process.wait(timeout=30) == -signal.SIGKILL
        assert not killed_out.exists()  # the sweep never finished

        # Run 2: same cache, sentinel pre-created -- the resume.
        sentinel.touch()
        resumed_out = tmp_path / "resumed.json"
        run_driver(tmp_path, cache, sentinel, resumed_out)
        stats = json.loads((tmp_path / "resumed.json.stats").read_text())
        assert stats["hits"] == 3  # replayed, not re-executed
        assert stats["misses"] == 2  # only the unfinished cells ran

        # Reference: an uninterrupted run over a fresh cache.
        clean_out = tmp_path / "clean.json"
        run_driver(tmp_path, tmp_path / "cache2", sentinel, clean_out)
        assert resumed_out.read_bytes() == clean_out.read_bytes()

    def test_resumed_sweep_needs_no_third_run(self, tmp_path):
        """After a completed sweep, a re-run replays every cell from the
        cache -- the fully-warm path."""
        cache = tmp_path / "cache"
        sentinel = tmp_path / "sentinel"
        sentinel.touch()
        run_driver(tmp_path, cache, sentinel, tmp_path / "first.json")
        run_driver(tmp_path, cache, sentinel, tmp_path / "second.json")
        stats = json.loads((tmp_path / "second.json.stats").read_text())
        assert stats["hits"] == 5
        assert stats["misses"] == 0
        assert (tmp_path / "first.json").read_bytes() == (
            tmp_path / "second.json"
        ).read_bytes()
