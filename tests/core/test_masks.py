"""The bitmask verdict is the reference tri-state evaluation, exhaustively.

The machine decides every predicate with two mask tests against the
CCR's ``(known, bits)`` masks -- UNSPEC when ``care & ~known``, else
FALSE when ``(bits ^ want) & care``, else TRUE -- instead of walking the
predicate's terms.  Over a K=4 CCR there are only 3^4 predicates and 3^4
register states, so these tests check every pair against
:meth:`Predicate.evaluate`, the term-by-term reference, and then check
that random sequences of CCR writes keep the masks in step with the
entry values.
"""

import itertools
import random

import pytest

from repro.core.ccr import CCR
from repro.core.predicate import PredValue, Predicate

K = 4
TRISTATE = (None, False, True)


def _predicates() -> list[Predicate]:
    """Every predicate over K conditions: each entry X, 0 or 1."""
    return [
        Predicate({i: v for i, v in enumerate(entries) if v is not None})
        for entries in itertools.product(TRISTATE, repeat=K)
    ]


def _ccr(entries) -> CCR:
    ccr = CCR(K)
    ccr.load_state(list(entries))
    return ccr


def mask_verdict(pred: Predicate, ccr: CCR) -> PredValue:
    """The test the machine inlines at issue, writeback and commit."""
    if pred.care & ~ccr.known:
        return PredValue.UNSPEC
    if (ccr.bits ^ pred.want) & pred.care:
        return PredValue.FALSE
    return PredValue.TRUE


def test_mask_verdict_matches_reference_for_every_pair():
    predicates = _predicates()
    assert len(predicates) == 3**K
    pairs = 0
    for entries in itertools.product(TRISTATE, repeat=K):
        ccr = _ccr(entries)
        values = ccr.values()
        for pred in predicates:
            expected = pred.evaluate(values)
            assert mask_verdict(pred, ccr) is expected, (pred, ccr)
            assert ccr.evaluate(pred) is expected, (pred, ccr)
            pairs += 1
    assert pairs == 3**K * 3**K


def test_unspec_wins_over_a_known_mismatch():
    # c0 already contradicts the predicate, but c1 is still open: the
    # hardware answers UNSPEC, so the write is held, not squashed.
    pred = Predicate({0: True, 1: True})
    ccr = _ccr([False, None, None, None])
    assert pred.evaluate(ccr.values()) is PredValue.UNSPEC
    assert mask_verdict(pred, ccr) is PredValue.UNSPEC


def test_condition_beyond_the_register_is_unspecified():
    pred = Predicate({K + 1: True})
    ccr = _ccr([True] * K)
    assert ccr.evaluate(pred) is PredValue.UNSPEC
    assert pred.evaluate(ccr.values()) is PredValue.UNSPEC


def test_implies_and_disjoint_match_their_term_definitions():
    predicates = _predicates()
    for p, q in itertools.product(predicates, repeat=2):
        mine, theirs = dict(p.terms), dict(q.terms)
        implies = all(mine.get(i) == v for i, v in theirs.items())
        disjoint = any(i in mine and mine[i] != v for i, v in theirs.items())
        assert p.implies(q) is implies, (p, q)
        assert p.disjoint_with(q) is disjoint, (p, q)


def _check_masks(ccr: CCR) -> None:
    """``(known, bits)`` is exactly what the entry values say."""
    values = ccr.state_list()
    assert ccr.known == sum(1 << i for i, v in enumerate(values) if v is not None)
    assert ccr.bits == sum(1 << i for i, v in enumerate(values) if v)
    assert [ccr.get(i) for i in range(K)] == values


@pytest.mark.parametrize("seed", range(20))
def test_random_write_sequences_keep_masks_consistent(seed):
    rng = random.Random(seed)
    predicates = _predicates()
    ccr = CCR(K)
    other = CCR(K)
    for _ in range(200):
        action = rng.choice(("set", "set", "reset", "copy", "clone", "load"))
        if action == "set":
            ccr.set(rng.randrange(K), rng.random() < 0.5)
        elif action == "reset":
            ccr.reset()
        elif action == "copy":
            other.load_state([rng.choice(TRISTATE) for _ in range(K)])
            ccr.copy_from(other)
            _check_masks(other)
        elif action == "clone":
            twin = ccr.clone()
            _check_masks(twin)
            twin.set(rng.randrange(K), True)  # a clone is independent
            ccr, twin = twin, ccr
            _check_masks(twin)
        else:
            ccr.load_state([rng.choice(TRISTATE) for _ in range(K)])
        _check_masks(ccr)
        values = ccr.values()
        for pred in rng.sample(predicates, 8):
            assert ccr.evaluate(pred) is pred.evaluate(values)
