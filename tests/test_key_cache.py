"""Cached keys and shared subterms agree with the frozen oracle in
oracle_keys.py.

Every node caches its free variables and its keys, and a subterm whose
free variables avoid the binders above it is keyed by its cached key.
So every subterm is keyed under its binder context, with and without
labels, and compared with the oracle, which walks everything afresh.
Each term is keyed twice: parents before children on the term itself,
after its root was keyed, and children before parents on a fresh copy,
each child on its own first, which fills its caches.  So a cache entry
reused where the context does reach the subterm shows.
Substitution and the giant step share the subterms they do not change,
so their results are checked the same way, and so are labelled copies
and erase_labels.
"""

import random

import oracle_keys as oracle
from genterms import all_terms, fresh, random_term
from rescal import (
    Abs,
    App,
    Bag,
    Linear,
    Reusable,
    Sum,
    Var,
    classical_subst,
    erase_labels,
    find_redexes,
    free_vars,
    label,
    linear_subst,
    print_expr,
)
from rescal.reduction import _redex_node, giant_local
from rescal.syntax import canon_at, label_free_key

# Replacements with free names that clash with the generators' binders,
# so substitution renames as well as shares.
_REPLACEMENTS = (Var("b0"), Abs("b1", App(Var("b0"), Bag((Linear(Var("b1")),)))))


def subterms(m) -> list[tuple]:
    """(node, bound, depth) for every subterm of m under its context,
    parents first."""
    out = []
    stack = [(m, {}, 0)]
    while stack:
        node, bound, depth = stack.pop()
        out.append((node, bound, depth))
        match node:
            case Abs(binder, body):
                stack.append((body, {**bound, binder: depth}, depth + 1))
            case App(fun, arg, _):
                stack += [(arg, bound, depth), (fun, bound, depth)]
            case Bag(elements):
                stack += [(r, bound, depth) for r in elements]
            case Linear(content) | Reusable(content):
                stack.append((content, bound, depth))
    return out


def oracle_keys(subs: list[tuple], labelled: bool) -> list[tuple]:
    """The oracle's answers for each (node, bound, depth): its keys on its
    own and under its context, each with and without labels, and its free
    variables.  Without labels both kinds of key are the same."""
    out = []
    for node, bound, depth in subs:
        own = oracle.canon_at(node, {}, 0)
        at = oracle.canon_at(node, bound, depth) if bound else own
        if labelled:
            own_lf = oracle.label_free_key(node)
            at_lf = oracle.canon_at(node, bound, depth, ignore_labels=True) if bound else own_lf
        else:
            own_lf, at_lf = own, at
        out.append((own, at, own_lf, at_lf, oracle.free_vars(node)))
    return out


def keys(subs: list[tuple], children_first: bool) -> list[tuple]:
    """The library's answers in the layout of oracle_keys.  Children
    first, each subterm is keyed on its own, which fills its caches,
    before it is keyed under its context; parents first, the other way
    round."""
    out = []
    for node, bound, depth in reversed(subs) if children_first else subs:
        if children_first or not bound:
            own, own_lf = node.canon(), label_free_key(node)
        if bound:
            at, at_lf = canon_at(node, bound, depth), canon_at(node, bound, depth, ignore_labels=True)
        else:
            at, at_lf = own, own_lf
        if not children_first:
            own, own_lf = node.canon(), label_free_key(node)
        out.append((own, at, own_lf, at_lf, free_vars(node)))
    return out[::-1] if children_first else out


def assert_sum_keys(s: Sum):
    assert s.canon() == oracle.canon_at(s, {}, 0)
    assert free_vars(s) == oracle.free_vars(s)
    for t, _ in s:
        subs = subterms(t)
        assert keys(subs, False) == oracle_keys(subs, False), t


def idents(m):
    return [r.ident for node, _, _ in subterms(m) if isinstance(node, Bag) for r in node.elements]


def assert_erases(m):
    got, want = erase_labels(m), oracle.erase_labels(m)
    assert print_expr(got) == print_expr(want)
    assert got.canon() == oracle.canon_at(want, {}, 0)
    assert idents(got) == idents(want)


def check(m, rng, more: bool, seen: set | None = None):
    """Keys of m parents first, then children first on a fresh copy.
    A subterm whose node and context are in seen was compared already;
    the fresh copy keys it again, to keep the order, but it is not
    compared.  With more, then, with the copy's caches filled:
    erase_labels, and the keys of a labelled copy and of substitution and
    giant-step results that share the copy's subterms."""
    subs = subterms(m)
    new = list(range(len(subs)))
    if seen is not None:
        where = [(id(node), tuple(bound.items())) for node, bound, _ in subs]
        new = [i for i in new if where[i] not in seen]
        seen.update(where)
    want = oracle_keys([subs[i] for i in new], False)
    assert keys([subs[i] for i in new], False) == want, m
    m = fresh(m)
    got = keys(subterms(m), True)
    assert [got[i] for i in new] == want, m
    if not more:
        return
    assert erase_labels(m) is m
    redexes = find_redexes(m)
    if redexes:
        picked = [r.path for r in redexes if rng.random() < 0.5] or [redexes[0].path]
        lab = label(m, picked)
        subs = subterms(lab)
        assert keys(subs, False) == oracle_keys(subs, True), lab
        assert_erases(lab)
    for r in redexes:
        assert_sum_keys(giant_local(_redex_node(m, r.path)))
    for x in ("x", "b0"):
        for n in _REPLACEMENTS:
            assert_sum_keys(classical_subst(m, x, n))
            assert_sum_keys(linear_subst(m, x, n))


def test_keys_agree_on_every_term_up_to_size_eight():
    """The enumerator keys each term at its root, which fills the caches
    parents first.  The enumerated terms share their subterms, so each
    subterm is compared once in each order, under its context; the rest
    of the checks on every tenth term keep the sweep short."""
    rng = random.Random(8)
    seen: set = set()
    for i, m in enumerate(all_terms(8, ("x", "y"))):
        check(m, rng, i % 10 == 0, seen)


def test_keys_agree_on_seeded_random_terms():
    rng = random.Random(17)
    for _ in range(1000):
        m = random_term(rng, rng.randint(10, 30), frees=("x", "y"), redex_bias=0.6)
        m.canon()
        check(m, rng, True)


def test_erase_labels_shares_label_free_subterms():
    m = App(Abs("x", Var("x")), Bag((Linear(Var("y")), Reusable(App(Abs("z", Var("z")), Bag())))))
    lab = label(m, [r.path for r in find_redexes(m)])
    erased = erase_labels(lab)
    assert erased == m and erased is not lab
    assert erased.fun is lab.fun
    assert erase_labels(m) is m


def test_keys_and_free_vars_need_no_recursion():
    """10,000 nested linear bags, y[y[...]], and 10,000 nested λs,
    \\x0.\\x1. ... x0, where every level sees the outermost binder."""
    bags = Var("y")
    for _ in range(10_000):
        bags = App(Var("y"), Bag((Linear(bags),)))
    lambdas = Var("x0")
    for k in reversed(range(10_000)):
        lambdas = Abs(f"x{k}", lambdas)

    def unwrap_bags(key):
        n = 0
        while key[0] == "app":
            key = key[2][1][0][1]
            n += 1
        return n, key

    def unwrap_lambdas(key):
        n = 0
        while key[0] == "abs":
            key = key[1]
            n += 1
        return n, key

    assert free_vars(bags) == {"y"}
    assert free_vars(lambdas) == frozenset()
    for key in (bags.canon(), label_free_key(bags)):
        assert unwrap_bags(key) == (10_000, ("free", "y"))
    for key in (lambdas.canon(), label_free_key(lambdas)):
        assert unwrap_lambdas(key) == (10_000, ("bound", 10_000))
