"""The predicated store buffer (Section 3.2).

A FIFO in front of the D-cache.  Both speculative and non-speculative
stores are buffered; each entry carries W (speculative), V (valid) and E
(outstanding exception) flags plus the predicate, and has hardware that
re-evaluates the predicate every cycle:

* predicate TRUE  -> the entry is committed (W reset; a buffered fault is
  a detected speculative exception);
* predicate FALSE -> the entry is squashed (V reset);
* the head entry retires to the D-cache only when valid and
  non-speculative, preserving program order of memory updates.

The observable-output instruction ``out`` flows through the same buffer
(``address=None``) so that speculatively executed output is committed or
squashed exactly like a store -- this is the validation channel that lets
tests compare scalar and predicated executions.

The buffer also implements store-to-load forwarding.  The scheduler keeps
may-aliasing memory operations in program order, so a load may be forwarded
the newest valid entry for its address whose predicate is *implied by* the
load's own predicate; entries with disjoint predicates (other control
paths) are skipped.  Any other overlap is a schedule bug and raises
:class:`~repro.core.exceptions.ScheduleViolation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ccr import CCR
from repro.core.exceptions import FaultRecord, ScheduleViolation
from repro.core.predicate import ALWAYS, Predicate
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.taint.tags import TaintTag, taint_from_state, taint_to_state


@dataclass
class StoreBufferEntry:
    """One buffered store (or ``out``) with its W/V/E flags."""

    address: int | None  # None = observable-output stream
    value: int
    pred: Predicate
    speculative: bool  # W flag
    valid: bool = True  # V flag
    fault: FaultRecord | None = None  # E flag when not None
    taint: frozenset[TaintTag] | None = None  # information-flow track


@dataclass
class StoreBufferEvents:
    """Per-cycle commit/squash/retire activity."""

    committed: list[int] = field(default_factory=list)  # entry serials
    squashed: list[int] = field(default_factory=list)
    retired_stores: list[tuple[int, int]] = field(default_factory=list)
    retired_outputs: list[int] = field(default_factory=list)
    detected_faults: list[FaultRecord] = field(default_factory=list)
    declassified: int = 0  # tainted entries whose TRUE commit cleared them


class PredicatedStoreBuffer:
    """FIFO of predicated stores with in-order D-cache retirement."""

    def __init__(self, capacity: int = 16, *, sink: MetricsSink = NULL_SINK):
        if capacity < 1:
            raise ValueError("store buffer capacity must be >= 1")
        self.capacity = capacity
        self.sink = sink
        self._entries: list[tuple[int, StoreBufferEntry]] = []
        self._serial = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def append(
        self,
        address: int | None,
        value: int,
        pred: Predicate,
        *,
        speculative: bool,
        fault: FaultRecord | None = None,
        taint: frozenset[TaintTag] | None = None,
    ) -> int:
        """Append a store at the FIFO tail; returns the entry serial."""
        if self.full:
            raise ScheduleViolation("store buffer overflow")
        if speculative and pred.is_always:
            raise ValueError("speculative entry cannot carry the alw predicate")
        self._serial += 1
        entry = StoreBufferEntry(
            address=address,
            value=value,
            pred=pred if speculative else ALWAYS,
            speculative=speculative,
            fault=fault,
            taint=taint,
        )
        self._entries.append((self._serial, entry))
        return self._serial

    # ------------------------------------------------------------------
    # Per-cycle hardware.
    # ------------------------------------------------------------------
    def tick(self, ccr: CCR, memory, output: list[int]) -> StoreBufferEvents:
        """One cycle: evaluate predicates, then retire from the head.

        *memory* must expose ``store(address, value)``; retired outputs are
        appended to *output*.
        """
        if self.sink.enabled:
            self.sink.observe("storebuffer.occupancy", len(self._entries))
        events = self._tick_core(ccr, memory, output)
        if self.sink.enabled:
            self.sink.count("storebuffer.commits", len(events.committed))
            self.sink.count("storebuffer.squashes", len(events.squashed))
            self.sink.count(
                "storebuffer.retired_stores", len(events.retired_stores)
            )
            self.sink.count(
                "storebuffer.retired_outputs", len(events.retired_outputs)
            )
        return events

    def _tick_core(
        self, ccr: CCR, memory, output: list[int]
    ) -> StoreBufferEvents:
        """The buffer hardware itself, free of instrumentation.

        All sink guards live in :meth:`tick`, so this method carries no
        instrumentation at all.
        """
        events = StoreBufferEvents()
        if not self._entries:
            return events
        unknown, bits = ~ccr.known, ccr.bits
        for serial, entry in self._entries:
            if not entry.valid or not entry.speculative:
                continue
            care = entry.pred.care
            if care & unknown:
                continue  # UNSPEC: held
            if not (bits ^ entry.pred.want) & care:
                entry.speculative = False
                if entry.taint is not None:
                    # Architecturally confirmed: the entry retires with
                    # the value sequential execution would have stored,
                    # so its speculative provenance is declassified.
                    entry.taint = None
                    events.declassified += 1
                events.committed.append(serial)
                if entry.fault is not None:
                    events.detected_faults.append(entry.fault)
            else:
                entry.valid = False
                events.squashed.append(serial)

        while self._entries:
            serial, entry = self._entries[0]
            if not entry.valid:
                self._entries.pop(0)
                continue
            if entry.speculative:
                break  # head unresolved: retirement blocks
            if entry.fault is not None:
                # A non-speculative faulting store is a normal exception;
                # the machine raises it at retirement.
                events.detected_faults.append(entry.fault)
                self._entries.pop(0)
                continue
            if entry.address is None:
                output.append(entry.value)
                events.retired_outputs.append(entry.value)
            else:
                memory.store(entry.address, entry.value)
                events.retired_stores.append((entry.address, entry.value))
            self._entries.pop(0)
        return events

    # ------------------------------------------------------------------
    # Store-to-load forwarding.
    # ------------------------------------------------------------------
    def lookup(self, address: int, reader_pred: Predicate) -> int | None:
        """Forward the newest matching valid entry visible to *reader_pred*.

        Returns None when the load should read the D-cache.
        """
        for _, entry in reversed(self._entries):
            if not entry.valid or entry.address != address:
                continue
            if not entry.speculative or reader_pred.implies(entry.pred):
                return entry.value
            if reader_pred.disjoint_with(entry.pred):
                continue
            raise ScheduleViolation(
                f"ambiguous store-to-load forwarding at address {address}: "
                f"load {reader_pred} vs store {entry.pred}"
            )
        return None

    def lookup_taint(
        self, address: int, reader_pred: Predicate
    ) -> tuple[bool, frozenset[TaintTag] | None]:
        """The taint a forwarded load at *address* would observe.

        Mirrors :meth:`lookup`'s scan: ``(True, taint)`` when an entry
        forwards (taint may be None), ``(False, None)`` when the load
        reads the D-cache.  Called only after :meth:`lookup` succeeded,
        so the ambiguous-overlap case cannot re-raise here.
        """
        for _, entry in reversed(self._entries):
            if not entry.valid or entry.address != address:
                continue
            if not entry.speculative or reader_pred.implies(entry.pred):
                return True, entry.taint
            if reader_pred.disjoint_with(entry.pred):
                continue
            return False, None
        return False, None

    def invalidate_speculative(self) -> None:
        """Squash all speculative entries (entry to recovery mode)."""
        for _, entry in self._entries:
            if entry.speculative:
                entry.valid = False

    def drain(self, memory, output: list[int]) -> StoreBufferEvents:
        """Retire every remaining committed entry (used at halt).

        Returns the accumulated retirement events so the forensics layer
        can fold halt-time retirements into the committed-effect stream.
        """
        ccr = CCR(1)  # all-unspecified CCR: only non-speculative entries move
        drained = StoreBufferEvents()
        while True:
            before = len(self._entries)
            events = self.tick(ccr, memory, output)
            if events.detected_faults:
                raise ScheduleViolation(
                    "faulting store reached retirement during drain"
                )
            drained.committed.extend(events.committed)
            drained.squashed.extend(events.squashed)
            drained.retired_stores.extend(events.retired_stores)
            drained.retired_outputs.extend(events.retired_outputs)
            if len(self._entries) == before:
                break
        return drained

    def pending_entries(self) -> list[StoreBufferEntry]:
        """The live entries, oldest first (for tests)."""
        return [entry for _, entry in self._entries]

    # ------------------------------------------------------------------
    # Checkpoint state extraction (JSON-native).
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The FIFO contents with serials and W/V/E flags."""
        return {
            "serial": self._serial,
            "entries": [
                {
                    "serial": serial,
                    "address": entry.address,
                    "value": entry.value,
                    "pred": str(entry.pred),
                    "speculative": entry.speculative,
                    "valid": entry.valid,
                    "fault": (
                        None if entry.fault is None else entry.fault.to_state()
                    ),
                    # Emitted only when present: taint-off snapshots stay
                    # byte-identical to the pre-taint layout.
                    **(
                        {}
                        if entry.taint is None
                        else {"taint": taint_to_state(entry.taint)}
                    ),
                }
                for serial, entry in self._entries
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore contents captured by :meth:`state_dict`."""
        from repro.core.predicate import parse_predicate

        if len(state["entries"]) > self.capacity:
            raise ValueError(
                f"store buffer capacity mismatch: snapshot holds "
                f"{len(state['entries'])}, buffer fits {self.capacity}"
            )
        self._serial = state["serial"]
        self._entries = [
            (
                item["serial"],
                StoreBufferEntry(
                    address=item["address"],
                    value=item["value"],
                    pred=parse_predicate(item["pred"]),
                    speculative=item["speculative"],
                    valid=item["valid"],
                    fault=(
                        None
                        if item["fault"] is None
                        else FaultRecord.from_state(item["fault"])
                    ),
                    # Pre-taint snapshots have no "taint" key: all-clear.
                    taint=taint_from_state(item.get("taint")),
                ),
            )
            for item in state["entries"]
        ]
