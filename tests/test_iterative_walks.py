"""size and labels_in, which now walk with explicit stacks, agree with
their recursive originals in oracle_walks.py and answer at depth 10,000.

The sweep is every term of size 7 or less over {x, y}, with the sum of
a giant step of each redex for size, and with its redexes labelled (all
of them, the first, every other one) for labels_in; the random terms
come from genterms.random_term with fixed seeds.
"""

import random

import oracle_walks as oracle
from genterms import all_terms, random_term
from rescal import find_redexes, giant_step, label, labels_in, size
from rescal.reduction import AppArg, AppFun, BagElem, Path, ResourceContent
from rescal.syntax import Abs, App, Bag, Linear, Reusable, Var

SWEEP = all_terms(7, ("x", "y"))
RANDOM = [random_term(random.Random(seed), 6 + seed % 15, ("x", "y"), redex_bias=0.7) for seed in range(400)]
DEPTH = 10_000


def test_size_agrees_with_the_recursive_size():
    sums = 0
    for m in SWEEP + RANDOM:
        assert size(m) == oracle.size(m)
        for r in find_redexes(m)[:2]:
            s = giant_step(m, r)
            assert size(s) == oracle.size(s)
            sums += 1
    assert sums > 5_000


def test_labels_in_agrees_with_the_recursive_walk():
    labelled = 0
    for m in SWEEP + RANDOM:
        assert labels_in(m) == oracle.labels_in(m) == {}
        paths = [r.path for r in find_redexes(m)]
        for ps in (paths, paths[:1], paths[1::2]):
            if ps:
                lab = label(m, ps)
                assert labels_in(lab) == oracle.labels_in(lab)
                labelled += 1
    assert labelled > 10_000


def test_size_counts_nested_lambdas_and_bags_10000_deep():
    lambdas = Var("x0")
    for k in reversed(range(DEPTH)):
        lambdas = Abs(f"x{k}", lambdas)
    assert size(lambdas) == DEPTH + 1
    linear = reusable = Var("y")
    for _ in range(DEPTH):
        linear = App(Var("y"), Bag((Linear(linear),)))
        reusable = App(Var("y"), Bag((Reusable(reusable),)))
    assert size(linear) == 2 * DEPTH + 1
    assert size(reusable) == 3 * DEPTH + 1


def test_labels_in_finds_labels_10000_deep():
    """(\\x.x)[(\\x.x)[...y]], with every thousandth redex labelled by
    its depth: the label sits at the path that descends depth times."""
    term = Var("y")
    idents = []
    for depth in reversed(range(DEPTH)):
        elem = Linear(term)
        idents.append(elem.ident)
        term = App(Abs("x", Var("x")), Bag((elem,)), depth if depth % 1_000 == 0 else None)
    idents.reverse()
    found = labels_in(term)
    assert sorted(found) == list(range(0, DEPTH, 1_000))
    for depth, paths in found.items():
        steps = tuple(s for i in idents[:depth] for s in (AppArg(), BagElem(i), ResourceContent()))
        assert paths == {Path(steps)}
