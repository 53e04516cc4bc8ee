"""Redex discovery agrees with the frozen oracle in oracle_redexes.py.

find_redexes must give the same redexes in the same order, with the same
rule, outer and leftmost flags; leftmost_set and is_onf must give the
oracle's answers, and leftmost_set and _least_leftmost those of the
linked-path walk frozen beside it.  Labelled copies are checked too,
because bag elements are ranked with labels ignored.  precedes must
order every pair of positions as the frozen precedes does.
"""

import random

import oracle_redexes as oracle
from genterms import all_terms, positions, random_term
from rescal import Abs, App, Bag, Linear, Reusable, Var, find_redexes, is_onf, label, leftmost_set, precedes
from rescal.reduction import _least_leftmost


def assert_agrees(m):
    want = oracle.find_redexes(m)
    assert find_redexes(m) == want, m
    # oracle.leftmost_set and oracle.is_onf, without re-running the oracle
    assert leftmost_set(m) == {r for r in want if r.leftmost} == oracle.leftmost_set_2(m), m
    assert _least_leftmost(m) == oracle._least_leftmost(m), m
    assert is_onf(m) == (not any(r.outer for r in want)), m
    return want


def labelled_copy(m, redexes, rng):
    """m with labels on a random nonempty subset of its redexes."""
    picked = [r.path for r in redexes if rng.random() < 0.5] or [rng.choice(redexes).path]
    return label(m, picked)


def test_agrees_on_every_term_up_to_size_eight():
    rng = random.Random(8)
    multi = 0
    for m in all_terms(8, ("x", "y")):
        rs = assert_agrees(m)
        if len(rs) > 1:
            multi += 1
            assert_agrees(labelled_copy(m, rs, rng))
    assert multi > 1000


def test_agrees_on_seeded_random_terms():
    rng = random.Random(2012)
    multi = 0
    for _ in range(2000):
        m = random_term(rng, rng.randint(10, 30), frees=("x", "y"), redex_bias=0.6)
        rs = assert_agrees(m)
        if rs:
            assert_agrees(labelled_copy(m, rs, rng))
        multi += len(rs) > 1
    assert multi > 500


def test_agrees_on_bags_of_redexes_under_binders():
    """A bag's elements rank by canonical form under the binders in scope,
    where a deeper binder ranks lower, not by the binders' names."""
    rng = random.Random(3)
    for _ in range(1000):
        elements = []
        for _ in range(rng.randint(2, 4)):
            t = random_term(rng, rng.randint(3, 8), ("x", "y"), ("v0", "v1"), redex_bias=0.9)
            elements.append(Linear(t) if rng.random() < 0.7 else Reusable(t))
        m = Abs("v0", Abs("v1", App(Var("y"), Bag(tuple(elements)))))
        rs = assert_agrees(m)
        if rs:
            assert_agrees(labelled_copy(m, rs, rng))


def test_oracle_functions_agree_on_a_sample():
    rng = random.Random(7)
    for _ in range(300):
        m = random_term(rng, rng.randint(10, 30), frees=("x", "y"), redex_bias=0.6)
        assert leftmost_set(m) == oracle.leftmost_set(m), m
        assert is_onf(m) == oracle.is_onf(m), m


def assert_precedes_agrees(m) -> int:
    paths = [path for path, _ in positions(m)]
    for p in paths:
        for q in paths:
            assert precedes(p, q, m) == oracle.precedes(p, q, m), (m, p, q)
    return len(paths) ** 2


def test_precedes_agrees_on_every_pair_of_positions():
    pairs = sum(assert_precedes_agrees(m) for m in all_terms(6, ("x", "y")))
    rng = random.Random(1989)
    for _ in range(300):
        pairs += assert_precedes_agrees(random_term(rng, rng.randint(10, 30), frees=("x", "y"), redex_bias=0.6))
    assert pairs > 250_000
