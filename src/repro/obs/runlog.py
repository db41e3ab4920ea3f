"""Structured JSONL run logging (the ``--log-json`` CLI flag).

Long experiment and fuzz runs produce terminal output built for humans;
this module emits the same milestones as machine-readable JSON Lines so
runs can be post-processed (dashboards, failure triage, joining
campaign verdicts across nights) without scraping stdout.

One record per line::

    {"run_id": "...", "seq": 3, "kind": "fuzz.campaign",
     "t": 12.081, "seed": 7, "index": 3, "equivalent": true}

* ``run_id`` ties every line of one process run together;
* ``seq`` is a per-run monotonic counter (stable sort key);
* ``t`` is seconds since the log was opened (monotonic clock);
* ``kind`` is a dotted event name (``run.start``, ``experiment.cell``,
  ``fuzz.campaign``, ``run.end``, ...); remaining fields are
  event-specific and must be JSON-native.

The null object pattern mirrors :mod:`repro.obs.metrics`: the base
:class:`RunLog` *is* the disabled implementation and call sites guard
with ``log.enabled`` where building the field dict is itself non-free.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path

#: Distinguishes logs opened by one process within the same second.
_OPEN_COUNTER = itertools.count()


class RunLog:
    """No-op run log; the base class is the disabled implementation."""

    enabled: bool = False

    def event(self, kind: str, **fields) -> None:
        """Record one event (no-op here)."""

    def close(self) -> None:
        """Flush and release the sink (no-op here)."""

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullRunLog(RunLog):
    """Explicit name for the disabled log."""


#: Shared default instance; callers treat it as immutable.
NULL_RUN_LOG = NullRunLog()


class JsonlRunLog(RunLog):
    """Appends one JSON object per event to *path*.

    The file is opened in append mode so several commands can share one
    log; ``run_id`` (epoch seconds + pid + per-process open counter)
    distinguishes their lines.  Every line is flushed as written --
    a killed run keeps everything logged before the signal.
    """

    enabled = True

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.run_id = (
            f"{int(time.time())}-{os.getpid()}-{next(_OPEN_COUNTER)}"
        )
        self._t0 = time.monotonic()
        self._seq = 0
        self._file = open(self.path, "a", encoding="utf-8")
        self.event("run.start", pid=os.getpid())

    def event(self, kind: str, **fields) -> None:
        if self._file is None:
            return
        record = {
            "run_id": self.run_id,
            "seq": self._seq,
            "kind": kind,
            "t": round(time.monotonic() - self._t0, 6),
        }
        record.update(fields)
        self._seq += 1
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self.event("run.end")
            self._file.close()
            self._file = None


def read_runlog(path: str | Path) -> list[dict]:
    """Parse a JSONL run log back into records (tests, post-processing)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{number}: bad JSON line: {error}")
            if not isinstance(record, dict) or "kind" not in record:
                raise ValueError(f"{path}:{number}: not a run-log record")
            records.append(record)
    return records
