"""Checkpoint/restore subsystem.

Deterministic machine snapshots (:mod:`repro.ckpt.state`), resumable
run loops and rotating snapshot files (:mod:`repro.ckpt.engine`),
completed-work ledgers for fuzz campaigns and serve jobs
(:mod:`repro.ckpt.journal`), and graceful SIGINT/SIGTERM shutdown
(:mod:`repro.ckpt.signals`).
"""

from repro.ckpt.engine import (
    CheckpointWriter,
    LatestSnapshot,
    atomic_write_text,
    latest_snapshot,
    restore,
    run_interpreter,
    run_vliw,
    save,
    write_snapshot,
)
from repro.ckpt.journal import Journal
from repro.ckpt.signals import ShutdownRequested, SignalSupervisor, exit_code_for
from repro.ckpt.state import (
    CKPT_SCHEMA,
    CheckpointError,
    describe_snapshot,
    load_snapshot,
    restore_interpreter,
    restore_vliw,
    schema_mismatch_message,
    snapshot_interpreter,
    snapshot_vliw,
    summary_line,
    validate_snapshot,
)

__all__ = [
    "CKPT_SCHEMA",
    "CheckpointError",
    "CheckpointWriter",
    "Journal",
    "LatestSnapshot",
    "ShutdownRequested",
    "SignalSupervisor",
    "atomic_write_text",
    "describe_snapshot",
    "exit_code_for",
    "latest_snapshot",
    "load_snapshot",
    "restore",
    "restore_interpreter",
    "restore_vliw",
    "save",
    "schema_mismatch_message",
    "snapshot_interpreter",
    "snapshot_vliw",
    "summary_line",
    "validate_snapshot",
    "write_snapshot",
]
