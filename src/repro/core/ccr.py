"""The condition code register (CCR).

The CCR holds the branch conditions a region's predicates refer to.  Each
entry is tri-state: True, False, or *unspecified* (``None``).  All entries
are reset to unspecified by hardware on every exit from a region, because
the speculative state is closed in the region (Section 3.3):

    "Since the speculative state is closed in a region, all branch
    conditions are reset to an unspecified value by the hardware on an
    exit from the current region."

The *future CCR* used during exception recovery (Section 3.5) is simply a
second instance of this class.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.predicate import Predicate, PredValue


class CCR:
    """A K-entry condition code register with unspecified values.

    The register is held as two int bit masks, the CCR half of the
    paper's masked vector match (Section 3.2):

    * ``known`` -- bit *i* set when condition *i* is specified;
    * ``bits`` -- bit *i* set when condition *i* is specified *true*
      (always a subset of ``known``).

    A predicate's ``(care, want)`` masks (:class:`Predicate`) are then
    evaluated with two AND/XOR tests and no per-condition loop: UNSPEC
    when ``care & ~known``, else FALSE when ``(bits ^ want) & care``,
    else TRUE.  The machine's hot loops inline exactly this test;
    :meth:`evaluate` is the same test behind a method.  Both masks are
    plain attributes for those readers; every write goes through
    :meth:`set`, :meth:`reset`, :meth:`copy_from` or :meth:`load_state`.
    """

    __slots__ = ("num_entries", "known", "bits")

    def __init__(self, num_entries: int):
        if num_entries < 1:
            raise ValueError("CCR needs at least one entry")
        self.num_entries = num_entries
        self.known = 0
        self.bits = 0

    def set(self, index: int, value: bool) -> None:
        """Specify condition *index* (a condition-set instruction's write)."""
        self._check(index)
        mask = 1 << index
        self.known |= mask
        if value:
            self.bits |= mask
        else:
            self.bits &= ~mask

    def get(self, index: int) -> bool | None:
        """Current value of condition *index* (None = unspecified)."""
        self._check(index)
        if not self.known >> index & 1:
            return None
        return bool(self.bits >> index & 1)

    def is_specified(self, index: int) -> bool:
        self._check(index)
        return bool(self.known >> index & 1)

    def reset(self) -> None:
        """Reset every entry to unspecified (hardware region-exit action)."""
        self.known = 0
        self.bits = 0

    def values(self) -> Mapping[int, bool | None]:
        """The entries as an index -> True/False/None mapping."""
        return dict(enumerate(self.state_list()))

    def evaluate(self, pred: Predicate) -> PredValue:
        """Tri-state masked-match evaluation of *pred* against this register.

        Semantically identical to ``pred.evaluate(self.values())``.
        """
        care = pred.care
        if care & ~self.known:
            return PredValue.UNSPEC
        if (self.bits ^ pred.want) & care:
            return PredValue.FALSE
        return PredValue.TRUE

    def copy_from(self, other: CCR) -> None:
        """Copy *other*'s contents (recovery-mode exit: future CCR -> CCR)."""
        if other.num_entries != self.num_entries:
            raise ValueError("CCR size mismatch")
        self.known = other.known
        self.bits = other.bits

    def clone(self) -> CCR:
        other = CCR(self.num_entries)
        other.known = self.known
        other.bits = self.bits
        return other

    # ------------------------------------------------------------------
    # Checkpoint state extraction (JSON-native).
    # ------------------------------------------------------------------
    def state_list(self) -> list[bool | None]:
        """The entry values as a JSON-ready list (True/False/None)."""
        known, bits = self.known, self.bits
        return [
            bool(bits >> index & 1) if known >> index & 1 else None
            for index in range(self.num_entries)
        ]

    def load_state(self, values: list[bool | None]) -> None:
        """Restore entry values captured by :meth:`state_list`."""
        if len(values) != self.num_entries:
            raise ValueError("CCR size mismatch")
        known = bits = 0
        for index, value in enumerate(values):
            if value is not None:
                known |= 1 << index
                if value:
                    bits |= 1 << index
        self.known = known
        self.bits = bits

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_entries:
            raise IndexError(f"CCR index out of range: {index}")

    def __repr__(self) -> str:
        body = ",".join(
            "U" if v is None else ("T" if v else "F") for v in self.state_list()
        )
        return f"CCR[{body}]"
