"""Substitution, plugging and the giant step agree with the frozen oracle
in oracle_subst.py.

The fused giant step (linear elements, then one classical substitution of
the ! sum) must give the same Sum as bag substitution followed by [0/x],
multiplicities included, and print identically; classical, partial and
linear substitution, and plug, must give the oracle's Sums.

The exhaustive terms are closed under swapping the free names x and y, so
substituting for x alone covers y too.  The substitution sweep stops at
size 7, and at size 7 the two-addend replacement goes through partial
substitution only (a classical one of ONE + x): with a two-addend
replacement the oracle builds up to 2^k addends for k occurrences, and
the full sweep at size 8 alone takes over a minute.
"""

import random
from functools import lru_cache

import oracle_subst as oracle
from genterms import all_terms, random_term
from rescal import (
    App,
    Bag,
    Linear,
    Reusable,
    Sum,
    Var,
    classical_subst,
    find_redexes,
    linear_subst,
    partial_subst,
    plug,
    print_expr,
)
from rescal.syntax import size
from rescal.reduction import _redex_node, giant_local

# Replacements that mention a binder name of the generated terms, so
# capture avoidance renames binders; the two-addend one also mentions x.
ONE = App(Var("b0"), Bag((Reusable(Var("y")),)))
TWO = Sum.of(ONE, App(Var("x"), Bag((Linear(Var("b1")),))))


@lru_cache(maxsize=None)
def terms_by_size() -> dict[int, list]:
    out: dict[int, list] = {}
    for m in all_terms(8, ("x", "y")):
        out.setdefault(size(m), []).append(m)
    return out


def same(got, want, *context, printed=False):
    """Equal Sums with the same multiplicities, and optionally the same text."""
    assert got == want, context
    assert [k for _, k in got] == [k for _, k in want], context
    if printed:
        assert print_expr(got) == print_expr(want), context


def assert_redexes_agree(m, extra_plug=False) -> int:
    redexes = find_redexes(m)
    for r in redexes:
        node = _redex_node(m, r.path)
        want = oracle.giant_local(node)
        got = giant_local(node)
        same(got, want, m, r, printed=True)
        same(plug(m, r.path, got), oracle.plug(m, r.path, want), m, r)
        if extra_plug:
            same(plug(m, r.path, TWO), oracle.plug(m, r.path, TWO), m, r)
    return len(redexes)


def assert_substitutions_agree(m, names=("x",), replacements=(ONE, TWO)):
    for x in names:
        for n in replacements:
            same(classical_subst(m, x, n), oracle.classical_subst(m, x, n), m, x, n)
            same(linear_subst(m, x, n), oracle.linear_subst(m, x, n), m, x, n)
        same(partial_subst(m, x, ONE), oracle.partial_subst(m, x, ONE), m, x)


def test_giant_step_agrees_on_every_redex_up_to_size_eight():
    fired = sum(assert_redexes_agree(m) for ms in terms_by_size().values() for m in ms)
    assert fired > 45_000


def test_substitutions_agree_on_every_term_up_to_size_seven():
    for k in range(1, 8):
        for m in terms_by_size()[k]:
            assert_substitutions_agree(m, replacements=(ONE, TWO) if k < 7 else (ONE,))


def test_agree_on_seeded_random_terms():
    rng = random.Random(12)
    for _ in range(1000):
        m = random_term(rng, rng.randint(10, 30), frees=("x", "y"), redex_bias=0.6)
        assert_redexes_agree(m, extra_plug=True)
        assert_substitutions_agree(m, ("x", "y"))


def test_sum_subjects_agree():
    rng = random.Random(5)
    for _ in range(300):
        subject = Sum.of(*(random_term(rng, rng.randint(3, 10), ("x", "y")) for _ in range(3)))
        same(classical_subst(subject, "x", TWO), oracle.classical_subst(subject, "x", TWO), subject)
        same(linear_subst(subject, "x", TWO), oracle.linear_subst(subject, "x", TWO), subject)
