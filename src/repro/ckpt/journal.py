"""Completed-work ledgers: ``repro fuzz --journal``'s campaign ledger,
also the base of serve's write-ahead job journal.

A journal directory holds ``ledger.jsonl``: one append-only line per
*completed* unit of work (a fuzz campaign), carrying the unit's content
key and its full result payload.  Lines are written with ``flush`` after
each append, so everything completed before a SIGKILL survives; a torn
final line (the kill landed mid-write) is detected and ignored on load.
Failed units are never ledgered -- a re-run retries them.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.ckpt.state import canonical_dumps

LEDGER_NAME = "ledger.jsonl"


class Journal:
    """One sweep's durable progress record."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.ledger_path = self.directory / LEDGER_NAME
        self._handle = None

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------
    def record(self, key: str, payload: dict) -> None:
        """Append one completed unit.  Line-buffered append-only writes:
        concurrent appends from one process interleave whole lines, and a
        kill can only tear the final line."""
        if self._handle is None:
            self._handle = open(self.ledger_path, "a", encoding="utf-8")
        self._handle.write(
            canonical_dumps({"key": key, "payload": payload}) + "\n"
        )
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------
    def completed(self) -> dict[str, dict]:
        """Key -> payload for every durably completed unit.

        Corrupt or truncated lines (the torn tail of a killed process)
        are skipped; later records for the same key win.
        """
        completed: dict[str, dict] = {}
        if not self.ledger_path.exists():
            return completed
        with open(self.ledger_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    completed[record["key"]] = record["payload"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue  # torn or foreign line: not a completed unit
        return completed
