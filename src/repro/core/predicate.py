"""Predicate vectors and their tri-state evaluation.

The paper restricts predicates to an ANDed conjunction of (possibly negated)
branch conditions so that hardware evaluation reduces to a masked match
between two vectors (Section 3.2):

    "We encode the predicate in a vector where each entry is associated with
    a branch condition. [...] a predicate c1&!c2&c3 is encoded to {1,0,1};
    a predicate c1&c3 is encoded to {1,X,1}."

Evaluation against the CCR is tri-state:

* if any *unmasked* (constrained) condition is still unspecified, the
  predicate evaluates to :data:`PredValue.UNSPEC` regardless of the partial
  match result (this is exactly the hardware behaviour the paper describes);
* otherwise the predicate is TRUE when every constrained entry matches the
  CCR and FALSE when any mismatches.

:data:`ALWAYS` is the empty conjunction -- the paper's ``alw`` predicate --
which evaluates to TRUE unconditionally.

Each predicate also carries the vector encoding as two int bit masks,
built once: ``care`` has bit *i* set when condition *i* is constrained
(not ``X``), and ``want`` has bit *i* set when it must be true.  Against
the CCR's ``(known, bits)`` masks (:mod:`repro.core.ccr`) the verdict is

* UNSPEC when ``care & ~known`` -- a constrained condition is unspecified;
* else FALSE when ``(bits ^ want) & care`` -- a specified one mismatches;
* else TRUE.

The order matters: an unspecified constrained condition wins over a
specified mismatch, as in the tri-state rule above.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping


class PredValue(enum.Enum):
    """Tri-state result of evaluating a predicate against the CCR."""

    TRUE = "true"
    FALSE = "false"
    UNSPEC = "unspec"


class Predicate:
    """An ANDed conjunction of (possibly negated) branch conditions.

    A predicate maps CCR entry indices to required boolean values; entries
    absent from the mapping are don't-cares (the ``X`` of the paper's vector
    encoding).  Instances are immutable and hashable.
    """

    __slots__ = ("_terms", "_hash", "care", "want", "_text")

    def __init__(self, terms: Mapping[int, bool] | Iterable[tuple[int, bool]] = ()):
        items = dict(terms)
        care = want = 0
        for index, value in items.items():
            if index < 0:
                raise ValueError(f"CCR index must be non-negative: {index}")
            care |= 1 << index
            if value:
                want |= 1 << index
        self._terms: tuple[tuple[int, bool], ...] = tuple(sorted(items.items()))
        self._hash = hash(self._terms)
        #: Constrained conditions, one bit per CCR index (the non-X entries).
        self.care = care
        #: Required values of the constrained conditions (bit set = true).
        self.want = want
        self._text: str | None = None

    @property
    def terms(self) -> tuple[tuple[int, bool], ...]:
        """The (ccr_index, required_value) pairs, sorted by index."""
        return self._terms

    @property
    def is_always(self) -> bool:
        """True for the empty conjunction (the paper's ``alw``)."""
        return not self._terms

    @property
    def conditions(self) -> frozenset[int]:
        """The set of CCR indices this predicate constrains."""
        return frozenset(index for index, _ in self._terms)

    @property
    def depth(self) -> int:
        """Number of branch conditions the predicate depends on."""
        return len(self._terms)

    def required(self, index: int) -> bool | None:
        """Required value for CCR entry *index*, or ``None`` if don't-care."""
        for i, value in self._terms:
            if i == index:
                return value
        return None

    def conjoin(self, index: int, value: bool) -> Predicate:
        """Return this predicate ANDed with one more condition term.

        Raises :class:`ValueError` when the new term contradicts an existing
        one (the conjunction would be unsatisfiable, which the region former
        never produces).
        """
        existing = self.required(index)
        if existing is not None and existing != value:
            raise ValueError(f"contradictory term c{index}={value} in {self}")
        items = dict(self._terms)
        items[index] = value
        return Predicate(items)

    def evaluate(self, ccr_values: Mapping[int, bool | None]) -> PredValue:
        """Masked-match evaluation against CCR contents.

        *ccr_values* maps CCR indices to True/False/None (None means the
        condition is not yet specified).  Mirrors the paper's hardware: any
        unspecified constrained entry forces UNSPEC.
        """
        terms = self._terms
        if not terms:  # alw: no constrained entries, unconditionally TRUE
            return PredValue.TRUE
        matched = True
        for index, required in terms:
            actual = ccr_values.get(index)
            if actual is None:
                return PredValue.UNSPEC
            if actual != required:
                matched = False
        return PredValue.TRUE if matched else PredValue.FALSE

    def implies(self, other: Predicate) -> bool:
        """True when this predicate's truth guarantees *other*'s truth.

        For pure conjunctions, p implies q iff q's terms are a subset of
        p's.  Used by the machine's store-buffer forwarding and by the
        scheduler's dependence analysis.
        """
        return not (
            other.care & ~self.care or (self.want ^ other.want) & other.care
        )

    def disjoint_with(self, other: Predicate) -> bool:
        """True when this predicate and *other* can never both be true."""
        return bool((self.want ^ other.want) & self.care & other.care)

    def encode(self, num_conditions: int) -> tuple[str, ...]:
        """Vector encoding over *num_conditions* CCR entries ('1'/'0'/'X')."""
        items = dict(self._terms)
        for index in items:
            if index >= num_conditions:
                raise ValueError(
                    f"predicate uses c{index} but CCR has {num_conditions} entries"
                )
        return tuple(
            "X" if i not in items else ("1" if items[i] else "0")
            for i in range(num_conditions)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Predicate({self!s})"

    def __str__(self) -> str:
        # Rendered once: observers print the same predicates every cycle.
        text = self._text
        if text is None:
            text = self._text = "&".join(
                (f"c{index}" if value else f"!c{index}")
                for index, value in self._terms
            ) or "alw"
        return text


ALWAYS = Predicate()


def parse_predicate(text: str) -> Predicate:
    """Parse the paper's textual predicate syntax (``alw``, ``c0&!c1``)."""
    text = text.strip()
    if text in ("alw", ""):
        return ALWAYS
    terms: dict[int, bool] = {}
    for part in text.split("&"):
        part = part.strip()
        value = True
        if part.startswith("!"):
            value = False
            part = part[1:].strip()
        if not part.startswith("c") or not part[1:].isdigit():
            raise ValueError(f"malformed predicate term: {part!r}")
        index = int(part[1:])
        if index in terms and terms[index] != value:
            raise ValueError(f"contradictory predicate: {text!r}")
        terms[index] = value
    return Predicate(terms)
