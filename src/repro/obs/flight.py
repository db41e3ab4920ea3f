"""Bounded ring-buffer flight recorder for architectural events.

The recorder captures the *mechanism* timeline the paper's predicated
state buffering runs on: bundle issue, CCR writes, shadow-regfile
commit/squash, store-buffer insert/search/retire, fault raises, and
recovery entry/exit.  Each event is stamped with the cycle, pc, region,
and (where meaningful) the predicate vector under which it happened.

Like :mod:`repro.obs.metrics`, the disabled state is the base class:
``FlightRecorder.enabled`` is ``False`` and every hook is a no-op, so
hot paths guard with ``if recorder.enabled:`` (or a cached boolean) and
pay only a predictable branch when forensics are off.  ``RingRecorder``
keeps the last *capacity* events in a ``deque(maxlen=...)`` -- memory
stays O(capacity) no matter how long the run is, which is the whole
point of a flight recorder: you read it backwards from the crash.  It
is written every cycle and read once, so it stores each event as a
plain tuple and builds the :class:`FlightEvent` objects only when read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass

__all__ = [
    "DEFAULT_CAPACITY",
    "FlightEvent",
    "FlightRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "RingRecorder",
]

#: Default ring capacity: large enough to hold the whole tail of any
#: synthetic repro case, small enough to stay cheap on long sweeps.
DEFAULT_CAPACITY = 4096


@dataclass(frozen=True, slots=True)
class FlightEvent:
    """One architectural event, stamped with where/when it happened."""

    seq: int
    cycle: int
    pc: int
    region: str | None
    kind: str
    detail: str
    pred: str | None = None

    def describe(self) -> str:
        where = f"{self.region or '?'}@pc{self.pc}"
        pred = f" [{self.pred}]" if self.pred else ""
        return (
            f"#{self.seq:<6} cyc={self.cycle:<6} {where:<10} "
            f"{self.kind:<16} {self.detail}{pred}"
        )

    def to_dict(self) -> dict:
        return asdict(self)


class FlightRecorder:
    """Disabled-recorder protocol: every hook is a no-op.

    Mirrors :class:`repro.obs.metrics.MetricsSink`: the base class *is*
    the disabled implementation, and ``enabled`` is a class attribute so
    the guard is a plain attribute load.
    """

    enabled: bool = False

    #: Sequence number of the next event; 0 when nothing was recorded.
    seq: int = 0

    def record(
        self,
        cycle: int,
        pc: int,
        region: str | None,
        kind: str,
        detail: str,
        pred: str | None = None,
    ) -> None:
        return None

    def events(self) -> list[FlightEvent]:
        return []

    def window(self, anchor_seq: int, k: int) -> list[FlightEvent]:
        return []


class NullRecorder(FlightRecorder):
    """Explicit do-nothing recorder (the shared default)."""


#: Shared disabled recorder: safe default argument everywhere.
NULL_RECORDER = NullRecorder()


class RingRecorder(FlightRecorder):
    """Keeps the most recent *capacity* events in a bounded ring."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY, source: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.source = source
        self.seq = 0
        #: Raw ``FlightEvent`` field tuples, oldest first.
        self._ring: deque[tuple] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._ring)

    def record(
        self,
        cycle: int,
        pc: int,
        region: str | None,
        kind: str,
        detail: str,
        pred: str | None = None,
    ) -> None:
        self._ring.append((self.seq, cycle, pc, region, kind, detail, pred))
        self.seq += 1

    @property
    def dropped(self) -> int:
        """Events evicted from the ring so far."""
        return self.seq - len(self._ring)

    def events(self) -> list[FlightEvent]:
        return [FlightEvent(*raw) for raw in self._ring]

    def window(self, anchor_seq: int, k: int) -> list[FlightEvent]:
        """Events with seq in ``[anchor-k, anchor+k]`` still in the ring."""
        lo, hi = anchor_seq - k, anchor_seq + k
        return [FlightEvent(*raw) for raw in self._ring if lo <= raw[0] <= hi]

    def to_dicts(self) -> list[dict]:
        return [event.to_dict() for event in self.events()]
