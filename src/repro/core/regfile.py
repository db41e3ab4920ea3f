"""The predicated register file (Figure 2).

Each architectural register has a *sequential* storage (committed state) and
shadow storage for *speculative* values.  A speculative value is buffered
together with its predicate and an optional outstanding-fault record (the E
flag).  Dedicated per-entry hardware re-evaluates buffered predicates every
cycle against the CCR:

* predicate TRUE  -> the value is committed into the sequential storage
  (hardware flips the W flag / resets V); a buffered fault becomes a
  *detected speculative exception*;
* predicate FALSE -> the value is squashed (V reset);
* otherwise the value is held.

The paper provisions a **single** shadow register per sequential register
(footnote 1 measures the cost of that choice at 0-1%); ``shadow_capacity``
makes the choice explicit so the ablation benchmark can compare against an
infinite-shadow configuration.  Two concurrent speculative values with
*different* predicates in a capacity-1 file are a storage conflict that the
scheduler must have prevented, so the model raises
:class:`~repro.core.exceptions.ScheduleViolation` rather than silently
corrupting state.

Shadow reads fall back to the sequential storage when the shadow is invalid
-- the paper's one-gate operand-fetch fix that keeps re-execution correct
after an operand was committed (end of Section 3.5).

The commit hardware only has work where a value is buffered, so the file
keeps the set of *live* registers -- those that may hold pending writes --
and each tick visits just those, in register order (the order the
per-entry hardware reports commits in).  Every method that buffers a
write adds to the set; ticks, supersession and invalidation prune it, and
:meth:`PredicatedRegisterFile.load_state` rebuilds it.  The set may hold a
register whose pending list was emptied behind the file's back; it never
misses one that was filled through the file's methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ccr import CCR
from repro.core.exceptions import FaultRecord, ScheduleViolation
from repro.core.predicate import Predicate
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.taint.tags import TaintTag, taint_from_state, taint_to_state


@dataclass
class PendingWrite:
    """One buffered speculative value: data + predicate + E flag.

    ``taint`` is the information-flow track riding next to W/V/E: the
    provenance of speculatively-loaded data this value depends on, or
    None (clean).  Commit and squash move it for free -- a squashed
    entry takes its taint with it, and a TRUE commit drops it (the
    speculation was architecturally confirmed, so the value equals what
    sequential execution computes).
    """

    value: int
    pred: Predicate
    fault: FaultRecord | None = None
    taint: frozenset[TaintTag] | None = None


@dataclass
class RegisterFileEntry:
    """One architectural register: sequential storage + shadow storage."""

    sequential: int = 0
    pending: list[PendingWrite] = field(default_factory=list)

    @property
    def flag_e(self) -> bool:
        """E flag: an outstanding speculative exception is buffered."""
        return any(write.fault is not None for write in self.pending)


@dataclass
class CommitEvents:
    """Per-cycle commit/squash activity, for tests and the Table 1 replay.

    ``committed_values`` carries the ``(reg, value)`` pairs that actually
    reached sequential state this tick (fault-commits detect instead of
    writing, so they appear in ``committed`` but not here); the forensics
    layer turns these into committed-register effects.  It is collected
    only when the register file's ``collect_commit_values`` flag is on --
    forensics-off runs must not pay the per-commit tuple.
    """

    committed: list[int] = field(default_factory=list)
    squashed: list[int] = field(default_factory=list)
    committed_values: list[tuple[int, int]] = field(default_factory=list)
    detected_faults: list[FaultRecord] = field(default_factory=list)
    declassified: int = 0  # tainted writes whose TRUE commit cleared them


class PredicatedRegisterFile:
    """A bank of predicated registers with per-cycle commit hardware."""

    def __init__(
        self,
        num_regs: int = 32,
        *,
        shadow_capacity: int | None = 1,
        zero_reg: int | None = 0,
        sink: MetricsSink = NULL_SINK,
    ):
        if num_regs < 1:
            raise ValueError("need at least one register")
        if shadow_capacity is not None and shadow_capacity < 1:
            raise ValueError("shadow capacity must be >= 1 or None (infinite)")
        self.num_regs = num_regs
        self.shadow_capacity = shadow_capacity
        self.zero_reg = zero_reg
        self.sink = sink
        #: Opt-in (set by the machine when forensics are attached):
        #: populate ``CommitEvents.committed_values`` during ticks.
        self.collect_commit_values = False
        self.entries = [RegisterFileEntry() for _ in range(num_regs)]
        #: Registers that may hold pending writes (see the module notes).
        self.live: set[int] = set()

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------
    def read(
        self,
        reg: int,
        *,
        shadow: bool = False,
        reader_pred: Predicate | None = None,
    ) -> int:
        """Read register *reg*; ``shadow=True`` is the ``.s`` operand form.

        An invalid shadow falls back to the sequential storage (the paper's
        operand-fetch hardware fix).  When *reader_pred* is given, buffered
        values on control paths disjoint from the reader are skipped -- a
        reader must never observe a value that cannot commit on its own
        path (with a single shadow register the skip simply reaches the
        sequential fallback, which holds the reader's path value).
        """
        entry = self._entry(reg)
        if shadow:
            for write in reversed(entry.pending):
                if reader_pred is None or not write.pred.disjoint_with(
                    reader_pred
                ):
                    return write.value
        return entry.sequential

    def shadow_taint(
        self,
        reg: int,
        reader_pred: Predicate | None = None,
    ) -> tuple[bool, frozenset[TaintTag] | None]:
        """The taint a shadow read of *reg* observes.

        Mirrors :meth:`read`'s pending scan exactly: returns ``(True,
        taint)`` when a buffered value would be returned (its taint may
        still be None), else ``(False, None)`` -- the read fell back to
        the sequential storage, whose taint the machine-side tracker
        owns.
        """
        entry = self._entry(reg)
        for write in reversed(entry.pending):
            if reader_pred is None or not write.pred.disjoint_with(
                reader_pred
            ):
                return True, write.taint
        return False, None

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------
    def write_sequential(self, reg: int, value: int) -> None:
        """Non-speculative write straight into the sequential state."""
        if reg == self.zero_reg:
            return
        self._entry(reg).sequential = value

    def supersede_pending(self, reg: int, ccr: CCR) -> None:
        """Drop buffered values a sequential write supersedes.

        When a younger instruction's result resolves TRUE at writeback and
        goes straight to the sequential state, an *older* buffered value
        whose predicate has also become true must not commit on a later
        tick and clobber it -- program order between writes to the same
        register would invert.  In the paper's hardware the younger write
        simply overwrites the shadow entry; in this model it bypasses the
        shadow, so the superseded entry is dropped instead.  (Buffered
        faults are never dropped: a true-committing E flag must still
        trigger recovery.)
        """
        if reg == self.zero_reg:
            return
        entry = self._entry(reg)
        if not entry.pending:
            return
        unknown, bits = ~ccr.known, ccr.bits
        entry.pending = kept = [
            write
            for write in entry.pending
            if write.fault is not None
            or write.pred.care & unknown
            or (bits ^ write.pred.want) & write.pred.care
        ]
        if not kept:
            self.live.discard(reg)

    def write_speculative(
        self,
        reg: int,
        value: int,
        pred: Predicate,
        fault: FaultRecord | None = None,
        taint: frozenset[TaintTag] | None = None,
    ) -> None:
        """Buffer a speculative write of *value* under *pred* (sets V, E)."""
        if reg == self.zero_reg:
            return
        if pred.is_always:
            raise ValueError("speculative write cannot carry the alw predicate")
        entry = self._entry(reg)
        if entry.pending and entry.pending[-1].pred == pred:
            # Same commit condition: the newer value supersedes the data,
            # but an outstanding E flag persists -- the original fault is
            # architecturally real on this path even if its value was
            # overwritten before use, and the scalar execution would have
            # trapped on it (precise-exception equivalence).  Taint is
            # *not* merged: the superseded data is dead, only the new
            # value's provenance can reach architectural state.
            fault = fault or entry.pending[-1].fault
            entry.pending[-1] = PendingWrite(value, pred, fault, taint)
            return
        if (
            self.shadow_capacity is not None
            and len(entry.pending) >= self.shadow_capacity
        ):
            raise ScheduleViolation(
                f"shadow storage conflict on r{reg}: pending "
                f"{entry.pending[-1].pred} vs new {pred}"
            )
        entry.pending.append(PendingWrite(value, pred, fault, taint))
        self.live.add(reg)

    # ------------------------------------------------------------------
    # Per-cycle commit hardware.
    # ------------------------------------------------------------------
    def tick(self, ccr: CCR) -> CommitEvents:
        """Evaluate every buffered predicate against *ccr* once.

        Returns the cycle's commit/squash events.  Detected speculative
        exceptions are reported, not raised: the machine decides how to
        enter recovery mode.
        """
        if self.sink.enabled:
            self.sink.observe(
                "regfile.shadow_occupancy", self.shadow_occupancy()
            )
        events = self._tick_core(ccr)
        if self.sink.enabled:
            self.sink.count("regfile.commits", len(events.committed))
            self.sink.count("regfile.squashes", len(events.squashed))
        return events

    def _tick_core(self, ccr: CCR) -> CommitEvents:
        """The commit hardware itself, free of instrumentation.

        All sink guards live in :meth:`tick`, so this method carries no
        instrumentation at all.
        """
        events = CommitEvents()
        live = self.live
        if not live:
            return events
        unknown, bits = ~ccr.known, ccr.bits
        entries = self.entries
        for reg in sorted(live):
            entry = entries[reg]
            kept: list[PendingWrite] = []
            for write in entry.pending:
                care = write.pred.care
                if care & unknown:
                    kept.append(write)
                elif not (bits ^ write.pred.want) & care:
                    if write.fault is not None:
                        events.detected_faults.append(write.fault)
                    else:
                        entry.sequential = write.value
                        if self.collect_commit_values:
                            events.committed_values.append(
                                (reg, write.value)
                            )
                    if write.taint is not None:
                        # Architecturally confirmed: the committed value
                        # equals sequential execution's, so the write's
                        # speculative provenance is declassified.
                        events.declassified += 1
                    events.committed.append(reg)
                else:
                    events.squashed.append(reg)
            entry.pending = kept
            if not kept:
                live.discard(reg)
        return events

    def invalidate_speculative(self) -> None:
        """Drop all buffered speculative state (entry to recovery mode)."""
        entries = self.entries
        for reg in self.live:
            entries[reg].pending.clear()
        self.live.clear()

    def pending_writes(self) -> list[tuple[int, PendingWrite]]:
        """Every buffered write as ``(reg, write)``, in register order."""
        entries = self.entries
        return [
            (reg, write)
            for reg in sorted(self.live)
            for write in entries[reg].pending
        ]

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def sequential_snapshot(self) -> tuple[int, ...]:
        """The committed architectural state, for validation."""
        return tuple(entry.sequential for entry in self.entries)

    def shadow_occupancy(self) -> int:
        """Buffered speculative values across all registers."""
        entries = self.entries
        return sum(len(entries[reg].pending) for reg in self.live)

    def has_speculative_state(self) -> bool:
        entries = self.entries
        return any(entries[reg].pending for reg in self.live)

    # ------------------------------------------------------------------
    # Checkpoint state extraction (JSON-native).
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The complete register-file contents: sequential values plus
        every buffered speculative write with its predicate and E flag."""
        return {
            "sequential": [entry.sequential for entry in self.entries],
            "pending": {
                str(reg): [
                    {
                        "value": write.value,
                        "pred": str(write.pred),
                        "fault": (
                            None
                            if write.fault is None
                            else write.fault.to_state()
                        ),
                        # Taint rides snapshots only when present, so
                        # taint-off captures stay byte-identical to the
                        # pre-taint repro-checkpoint/v1 layout.
                        **(
                            {}
                            if write.taint is None
                            else {"taint": taint_to_state(write.taint)}
                        ),
                    }
                    for write in entry.pending
                ]
                for reg, entry in enumerate(self.entries)
                if entry.pending
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore contents captured by :meth:`state_dict`."""
        from repro.core.predicate import parse_predicate

        sequential = state["sequential"]
        if len(sequential) != self.num_regs:
            raise ValueError(
                f"register count mismatch: snapshot has {len(sequential)}, "
                f"file has {self.num_regs}"
            )
        for entry, value in zip(self.entries, sequential):
            entry.sequential = value
            entry.pending = []
        self.live.clear()
        for reg_text, writes in state.get("pending", {}).items():
            entry = self._entry(int(reg_text))
            entry.pending = [
                PendingWrite(
                    value=write["value"],
                    pred=parse_predicate(write["pred"]),
                    fault=(
                        None
                        if write["fault"] is None
                        else FaultRecord.from_state(write["fault"])
                    ),
                    # Pre-taint snapshots have no "taint" key: all-clear.
                    taint=taint_from_state(write.get("taint")),
                )
                for write in writes
            ]
            if entry.pending:
                self.live.add(int(reg_text))

    def _entry(self, reg: int) -> RegisterFileEntry:
        if not 0 <= reg < self.num_regs:
            raise IndexError(f"register out of range: {reg}")
        return self.entries[reg]
