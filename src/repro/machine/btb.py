"""Branch target buffer model.

The paper's Section 4 assumption: "The latency of branch instructions is
assumed to be reduced using a branch target buffer (BTB). [...] We
optimistically assume the branches which are predictable using BTB impose
no penalty while other branches such as register indirect jumps impose a
one-cycle penalty. This optimistic assumption increases the evaluated
performance a few percent according to our cycle-by-cycle simulation."

Three BTB fidelities are therefore available through
:class:`~repro.machine.config.MachineConfig`:

* ``btb_entries=None`` (default) -- the paper's optimistic model: every
  direct taken transfer is free;
* ``btb_entries=N`` -- this module: a direct-mapped N-entry buffer; a
  taken transfer whose slot does not hold its own tag pays the one-cycle
  redirect and installs itself (steady-state loops hit; the cost is the
  compulsory/conflict misses, which is the paper's "few percent");
* ``taken_penalty_btb=1`` -- fully pessimistic: every taken transfer pays.

Both the cycle-level machine and the trace-driven analytic counter use
the same model, keyed by the identity of the transferring control point.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.obs.metrics import NULL_SINK, MetricsSink


class BranchTargetBuffer:
    """A direct-mapped BTB over abstract control-point keys."""

    def __init__(self, entries: int, *, sink: MetricsSink = NULL_SINK):
        if entries < 1:
            raise ValueError("BTB needs at least one entry")
        self.entries = entries
        self.sink = sink
        self._slots: list[Hashable | None] = [None] * entries
        self.hits = 0
        self.misses = 0

    def access(self, key: Hashable) -> bool:
        """Look up *key*; install on miss.  Returns True on a hit."""
        slot = hash(key) % self.entries
        if self._slots[slot] == key:
            self.hits += 1
            if self.sink.enabled:
                self.sink.count("btb.hits")
            return True
        self._slots[slot] = key
        self.misses += 1
        if self.sink.enabled:
            self.sink.count("btb.misses")
        return False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    # ------------------------------------------------------------------
    # Checkpoint state extraction (JSON-native).
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Slot tags plus statistics (machine keys are bundle indices)."""
        return {
            "slots": list(self._slots),
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        """Restore contents captured by :meth:`state_dict`."""
        slots = state["slots"]
        if len(slots) != self.entries:
            raise ValueError(
                f"BTB size mismatch: snapshot has {len(slots)} slots, "
                f"buffer has {self.entries}"
            )
        self._slots = list(slots)
        self.hits = state["hits"]
        self.misses = state["misses"]
