"""Graceful shutdown and crash-restart of the real ``repro serve``.

These tests drive the CLI in a subprocess: SIGTERM during an active
batch must drain the in-flight jobs, flush the journal and exit
``128 + SIGTERM``; ``kill -9`` mid-batch must lose no accepted job --
a restart with the same journal replays exactly the incomplete work and
serves results byte-identical to an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.ckpt.journal import LEDGER_NAME
from repro.serve import JobJournal, ServeSettings, SimulationService

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _spawn(*extra_args):
    """Start a server in its own session, so the server and the pool
    workers it forks form one process group (see :func:`_reap_group`)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--stdio", *extra_args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )


def _reap_group(process) -> None:
    """SIGKILL what is left of *process*'s process group.  A server
    killed mid-batch cannot stop its forked pool workers, which would
    otherwise outlive the test."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group is already empty


def _ledger_phases(journal_dir: Path) -> dict[str, str]:
    """Last phase per key, straight off the ledger file."""
    path = journal_dir / LEDGER_NAME
    phases: dict[str, str] = {}
    if not path.exists():
        return phases
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
            phases[record["key"]] = record["payload"]["phase"]
        except (json.JSONDecodeError, KeyError, TypeError):
            continue
    return phases


def _wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, f"timed out waiting: {message}"
        time.sleep(0.05)


def _request(job_id, **fields):
    return json.dumps({"id": job_id, "client": "t", **fields}) + "\n"


def _wait_request(job_id, sentinel: Path, timeout=60.0):
    return _request(
        job_id,
        kind="chaos",
        chaos={"mode": "wait_for", "path": str(sentinel), "timeout": timeout},
    )


class TestSigtermDrain:
    def test_drains_active_batch_flushes_journal_exits_143(self, tmp_path):
        journal_dir = tmp_path / "journal"
        sentinel = tmp_path / "go"
        process = _spawn("--journal", str(journal_dir), "--job-timeout", "60")
        try:
            process.stdin.write(
                _request("fast", workload="grep", model="scalar")
                + _wait_request("slow", sentinel)
            )
            process.stdin.flush()
            # Both jobs accepted (write-ahead records on disk), the
            # batch is in flight.
            _wait_for(
                lambda: len(_ledger_phases(journal_dir)) == 2,
                message="accept records",
            )
            process.send_signal(signal.SIGTERM)
            time.sleep(0.2)  # signal recorded while the batch is active
            sentinel.write_text("")  # now let the slow job finish
            stdout, stderr = process.communicate(timeout=60.0)
        except Exception:
            process.kill()
            raise
        # 128 + SIGTERM: interrupted-but-clean, not a crash.
        assert process.returncode == 128 + signal.SIGTERM, stderr
        # The in-flight batch drained: both responses were written...
        responses = [json.loads(line) for line in stdout.splitlines()]
        assert {r["id"] for r in responses} == {"fast", "slow"}
        assert all(r["status"] == "ok" for r in responses)
        # ...and both results are durable.
        phases = _ledger_phases(journal_dir)
        assert sorted(phases.values()) == ["done", "done"]
        assert "drained" in stderr


class TestKillNineRestart:
    def test_restart_replays_only_incomplete_jobs(self, tmp_path):
        journal_dir = tmp_path / "journal"
        sentinel = tmp_path / "go"
        fast = _request("fast", workload="grep", model="scalar")
        slow = _wait_request("slow", sentinel)

        process = _spawn("--journal", str(journal_dir))
        try:
            self._kill_and_restart(process, journal_dir, sentinel, fast, slow)
        finally:
            _reap_group(process)

    def _kill_and_restart(self, process, journal_dir, sentinel, fast, slow):
        try:
            process.stdin.write(fast + slow)
            process.stdin.flush()
            # Wait until the fast job is durably done while the slow
            # one is accepted but incomplete -- a genuine mid-batch state.
            _wait_for(
                lambda: sorted(_ledger_phases(journal_dir).values())
                == ["accepted", "done"],
                message="fast job done, slow job accepted",
            )
            process.kill()  # SIGKILL: no handlers, no flush, no mercy
            process.wait(timeout=30.0)
        finally:
            if process.poll() is None:
                process.kill()
        phases = _ledger_phases(journal_dir)
        assert sorted(phases.values()) == ["accepted", "done"]

        # Restart: recovery must re-execute exactly the incomplete job.
        sentinel.write_text("")  # the blocked work can now succeed
        service = SimulationService(
            ServeSettings(workers=1), journal=JobJournal(journal_dir)
        )
        try:
            assert service.recover() == 1
            replay = service.handle_requests([fast.strip(), slow.strip()])
        finally:
            service.close()
        assert all(r["status"] == "ok" for r in replay)
        # Nothing lost, nothing duplicated: every key has exactly one
        # done record's worth of durable result.
        phases = _ledger_phases(journal_dir)
        assert sorted(phases.values()) == ["done", "done"]

        # Byte-identical to a server that was never killed.
        clean = SimulationService(ServeSettings(workers=1))
        try:
            uninterrupted = clean.handle_requests(
                [fast.strip(), slow.strip()]
            )
        finally:
            clean.close()
        assert [
            json.dumps(r["result"], sort_keys=True) for r in replay
        ] == [
            json.dumps(r["result"], sort_keys=True) for r in uninterrupted
        ]


class TestSigintExitCode:
    def test_sigint_exits_130(self, tmp_path):
        process = _spawn()
        try:
            process.stdin.write(_request("warm", kind="chaos",
                                         chaos={"mode": "ok", "value": 1}))
            process.stdin.flush()
            _wait_for(
                lambda: process.poll() is not None
                or bool(process.stdout.readline()),
                message="first response",
            )
            process.send_signal(signal.SIGINT)
            process.stdin.close()
            process.wait(timeout=30.0)
        except Exception:
            process.kill()
            raise
        assert process.returncode == 128 + signal.SIGINT
