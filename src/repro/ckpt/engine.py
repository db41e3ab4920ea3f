"""Checkpoint engine: save/restore dispatch and resumable run loops.

This layer turns the pure state capture of :mod:`repro.ckpt.state` into
an operational tool:

* :func:`save` / :func:`restore` dispatch on engine kind;
* :class:`CheckpointWriter` writes rotating, atomically-replaced
  snapshot files (temp + ``os.replace``, so a SIGKILL mid-write leaves
  the previous snapshot intact, never a torn file);
* :func:`latest_snapshot` walks a checkpoint directory newest-first and
  returns the first snapshot that validates, *reporting* (not raising)
  every corrupt, truncated, or hash-mismatched file it skipped;
* :func:`run_vliw` / :func:`run_interpreter` run an engine to
  completion while emitting periodic checkpoints and honouring a
  graceful-shutdown supervisor -- on a pending signal they flush one
  final checkpoint and raise
  :class:`~repro.ckpt.signals.ShutdownRequested`.

The invariant the tests enforce: running N cycles, checkpointing,
restoring, and running to completion is *bit-identical* to the
uninterrupted run -- same result, same counters, same trace suffix.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.ckpt.signals import SignalSupervisor
from repro.ckpt.state import (
    ENGINE_INTERPRETER,
    ENGINE_VLIW,
    CheckpointError,
    canonical_dumps,
    load_snapshot,
    restore_interpreter,
    restore_vliw,
    snapshot_interpreter,
    snapshot_vliw,
)
from repro.machine.vliw import VLIWMachine, VLIWResult
from repro.sim.interpreter import Interpreter, InterpreterResult

#: Rotating snapshots kept per directory (older ones are pruned).
DEFAULT_KEEP = 3

#: File stem for periodic snapshots.
SNAPSHOT_PREFIX = "ckpt"

#: File name of the shutdown-flush snapshot (always the newest state).
FINAL_SNAPSHOT = "final.json"


def save(engine: VLIWMachine | Interpreter) -> dict:
    """Snapshot either engine kind at its current boundary."""
    if isinstance(engine, VLIWMachine):
        return snapshot_vliw(engine)
    if isinstance(engine, Interpreter):
        return snapshot_interpreter(engine)
    raise CheckpointError(f"cannot checkpoint a {type(engine).__name__}")


def restore(document: dict, program, *, config=None, path=None, **kwargs):
    """Rebuild the engine a snapshot captured.

    VLIW snapshots need *config*; interpreter snapshots must not pass
    one.  Remaining keyword arguments go to the engine-specific restore.
    """
    engine = document.get("engine")
    if engine == ENGINE_VLIW:
        if config is None:
            raise CheckpointError(
                "restoring a VLIW snapshot needs the machine config", path
            )
        return restore_vliw(document, program, config, path=path, **kwargs)
    if engine == ENGINE_INTERPRETER:
        return restore_interpreter(document, program, path=path, **kwargs)
    raise CheckpointError(f"unknown engine kind {engine!r}", path)


# ----------------------------------------------------------------------
# Atomic files.
# ----------------------------------------------------------------------
def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write *text* to *path* atomically (temp file + ``os.replace``).

    A kill landing mid-write leaves either the previous file intact or
    the complete new one -- never a truncated tail.  The temp file lives
    next to the target (same filesystem, so the replace is atomic) and
    carries the pid so concurrent writers cannot collide.  Shared by
    checkpoint snapshots, experiment/tracediff artifacts and fuzz
    repro cases.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        temp.write_text(text)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)  # only survives a failed replace
    return path


def write_snapshot(document: dict, path: str | Path) -> Path:
    """Write one snapshot atomically (temp file + ``os.replace``)."""
    return atomic_write_text(path, canonical_dumps(document) + "\n")


class CheckpointWriter:
    """Rotating snapshot files in one directory.

    Snapshots are named ``ckpt-<position>.json`` (zero-padded, so
    lexicographic order is position order); at most *keep* periodic
    snapshots survive.  :meth:`write_final` emits the shutdown-flush
    snapshot under a fixed name, outside the rotation.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        prefix: str = SNAPSHOT_PREFIX,
        keep: int = DEFAULT_KEEP,
    ):
        if keep < 1:
            raise ValueError("must keep at least one snapshot")
        self.directory = Path(directory)
        self.prefix = prefix
        self.keep = keep
        self._written: list[Path] = []

    def write(self, document: dict, position: int) -> Path:
        path = self.directory / f"{self.prefix}-{position:012d}.json"
        write_snapshot(document, path)
        if path not in self._written:
            self._written.append(path)
        while len(self._written) > self.keep:
            stale = self._written.pop(0)
            try:
                stale.unlink()
            except OSError:
                pass  # pruning is best-effort; never fail the run for it
        return path

    def write_final(self, document: dict) -> Path:
        return write_snapshot(document, self.directory / FINAL_SNAPSHOT)


@dataclass
class LatestSnapshot:
    """What :func:`latest_snapshot` found."""

    document: dict | None = None
    path: Path | None = None
    #: ``(path, reason)`` for every newer snapshot that failed to load.
    skipped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.document is not None


def latest_snapshot(
    directory: str | Path, *, prefix: str = SNAPSHOT_PREFIX
) -> LatestSnapshot:
    """The newest *valid* snapshot in *directory*.

    Candidates are the final-flush snapshot plus the periodic rotation,
    newest first.  A candidate that is corrupt, truncated, or fails its
    integrity hash is recorded in ``skipped`` with its reason and the
    search falls back to the previous one -- a damaged newest checkpoint
    degrades resume granularity, it never aborts the resume.
    """
    directory = Path(directory)
    result = LatestSnapshot()
    if not directory.is_dir():
        return result
    candidates = sorted(directory.glob(f"{prefix}-*.json"), reverse=True)
    final = directory / FINAL_SNAPSHOT
    if final.exists():
        candidates.insert(0, final)
    for candidate in candidates:
        try:
            result.document = load_snapshot(candidate)
            result.path = candidate
            return result
        except CheckpointError as error:
            result.skipped.append((str(candidate), error.reason))
    return result


# ----------------------------------------------------------------------
# Checkpointed run loops.
# ----------------------------------------------------------------------
def run_vliw(
    machine: VLIWMachine,
    *,
    checkpoint_every: int | None = None,
    writer: CheckpointWriter | None = None,
    supervisor: SignalSupervisor | None = None,
) -> VLIWResult:
    """Run *machine* to halt, checkpointing every N cycles.

    With a *supervisor*, a pending SIGINT/SIGTERM stops the run at the
    next cycle boundary: one final snapshot is flushed (when a writer is
    configured) and :class:`ShutdownRequested` propagates to the caller
    with the snapshot path attached.
    """
    period = checkpoint_every if writer is not None else None
    while machine.step():
        if period and machine.cycle % period == 0 and not machine.halted:
            writer.write(save(machine), machine.cycle)
        if supervisor is not None and supervisor.pending is not None:
            path = (
                writer.write_final(save(machine))
                if writer is not None and not machine.halted
                else None
            )
            raise supervisor.shutdown(checkpoint=path)
    return machine.result()


def run_interpreter(
    interpreter: Interpreter,
    *,
    checkpoint_every: int | None = None,
    writer: CheckpointWriter | None = None,
    supervisor: SignalSupervisor | None = None,
) -> InterpreterResult:
    """Run *interpreter* to halt, checkpointing every N steps."""
    period = checkpoint_every if writer is not None else None
    while interpreter.step():
        if period and interpreter.steps % period == 0:
            writer.write(save(interpreter), interpreter.steps)
        if supervisor is not None and supervisor.pending is not None:
            path = (
                writer.write_final(save(interpreter))
                if writer is not None and not interpreter.halted
                else None
            )
            raise supervisor.shutdown(checkpoint=path)
    return interpreter.result()


def read_json(path: str | Path) -> dict:
    """Best-effort JSON read used by resume paths; CheckpointError on failure."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as error:
        raise CheckpointError(f"unreadable file ({error})", path) from error
    except json.JSONDecodeError as error:
        raise CheckpointError(f"not JSON ({error})", path) from error
