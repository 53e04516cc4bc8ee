"""Term generators shared by the test suite.

Exhaustive enumeration is memoized by exact size and binder depth,
with binders named canonically by depth so alpha-duplicates never
arise.  Random generation is seeded and biased toward redexes.
"""

from __future__ import annotations

import random
from functools import lru_cache

from rescal.reduction import AbsBody, AppArg, AppFun, BagElem, Path, ResourceContent
from rescal.syntax import (
    Abs,
    App,
    Bag,
    LamAbs,
    LamApp,
    LamVar,
    Linear,
    Reusable,
    Sum,
    Term,
    Var,
)


def make_enumerator(frees: tuple[str, ...]):
    """Exhaustive (terms, bags) enumerators over the given free names."""

    @lru_cache(maxsize=None)
    def terms(k: int, depth: int) -> tuple[Term, ...]:
        out: dict = {}
        if k == 1:
            for name in frees + tuple(f"b{i}" for i in range(depth)):
                v = Var(name)
                out[v.canon()] = v
        if k >= 2:
            for body in terms(k - 1, depth + 1):
                t = Abs(f"b{depth}", body)
                out[t.canon()] = t
        for fs in range(1, k):
            for f in terms(fs, depth):
                for b in bags(k - 1 - fs, depth):
                    t = App(f, b)
                    out[t.canon()] = t
        return tuple(out.values())

    @lru_cache(maxsize=None)
    def bags(k: int, depth: int) -> tuple[Bag, ...]:
        out: dict = {}
        if k == 0:
            b = Bag(())
            out[b.canon()] = b
        for c in range(1, k + 1):
            for t in terms(c, depth):
                for rest in bags(k - c, depth):
                    b = Bag((Linear(t),) + rest.elements)
                    out[b.canon()] = b
        for c in range(1, k):
            for t in terms(c, depth):
                for rest in bags(k - 1 - c, depth):
                    b = Bag((Reusable(t),) + rest.elements)
                    out[b.canon()] = b
        return tuple(out.values())

    return terms, bags


def all_terms(max_size: int, frees: tuple[str, ...] = ("x",)) -> list[Term]:
    terms, _ = make_enumerator(frees)
    out: list[Term] = []
    for k in range(1, max_size + 1):
        out.extend(terms(k, 0))
    return out


def random_term(rng: random.Random, budget: int, frees: tuple[str, ...], bound: tuple[str, ...] = (),
                redex_bias: float = 0.5) -> Term:
    """One random term of roughly the requested size."""
    names = frees + bound
    if budget <= 1:
        return Var(rng.choice(names))
    roll = rng.random()
    if roll < 0.25:
        binder = f"v{len(bound)}"
        return Abs(binder, random_term(rng, budget - 1, frees, bound + (binder,), redex_bias))
    if roll < 0.45 or budget < 3:
        return Var(rng.choice(names))
    bag_budget = rng.randint(0, max(0, min(budget - 2, 6)))
    fun_budget = budget - 1 - bag_budget
    if rng.random() < redex_bias:
        binder = f"v{len(bound)}"
        fun: Term = Abs(binder, random_term(rng, max(1, fun_budget - 1), frees, bound + (binder,), redex_bias))
    else:
        fun = random_term(rng, max(1, fun_budget), frees, bound, redex_bias)
    return App(fun, random_bag(rng, bag_budget, frees, bound, redex_bias))


def random_bag(rng: random.Random, budget: int, frees: tuple[str, ...], bound: tuple[str, ...] = (),
               redex_bias: float = 0.5) -> Bag:
    elements: list = []
    while budget >= 1:
        use = rng.randint(1, budget)
        budget -= use
        if rng.random() < 0.4 and use >= 2:
            elements.append(Reusable(random_term(rng, use - 1, frees, bound, redex_bias)))
        else:
            elements.append(Linear(random_term(rng, use, frees, bound, redex_bias)))
        if rng.random() < 0.4:
            break
    return Bag(tuple(elements))


def random_lambda(rng: random.Random, budget: int, bound: tuple[str, ...] = ()):
    """One random pure lambda term; closed unless the pool is empty."""
    if budget <= 1 or (rng.random() < 0.3 and bound):
        if bound:
            return LamVar(rng.choice(bound))
        budget = max(budget, 2)
    if rng.random() < 0.5 or not bound:
        binder = f"v{len(bound)}"
        return LamAbs(binder, random_lambda(rng, budget - 1, bound + (binder,)))
    split = rng.randint(1, budget - 1)
    return LamApp(random_lambda(rng, split, bound), random_lambda(rng, budget - 1 - split, bound))


def term_strategy(max_size: int = 10, frees: tuple[str, ...] = ("x", "y"), redex_bias: float = 0.5):
    """Hypothesis strategy built over the seeded random generator."""
    from hypothesis import strategies as st

    return st.builds(
        lambda seed, budget: random_term(random.Random(seed), budget, frees, redex_bias=redex_bias),
        st.integers(0, 2**32 - 1),
        st.integers(1, max_size),
    )


def bag_strategy(max_size: int = 6, frees: tuple[str, ...] = ("x", "y")):
    from hypothesis import strategies as st

    return st.builds(
        lambda seed, budget: random_bag(random.Random(seed), budget, frees),
        st.integers(0, 2**32 - 1),
        st.integers(0, max_size),
    )


def lambda_strategy(max_size: int = 10):
    from hypothesis import strategies as st

    return st.builds(
        lambda seed, budget: random_lambda(random.Random(seed), budget),
        st.integers(0, 2**32 - 1),
        st.integers(2, max_size),
    )


def positions(m):
    """(path, node) for every node of m: terms, bags and bag elements."""
    out = []
    stack = [((), m)]
    while stack:
        steps, node = stack.pop()
        out.append((Path(steps), node))
        match node:
            case Abs(_, body):
                stack.append((steps + (AbsBody(),), body))
            case App(fun, arg, _):
                stack.append((steps + (AppFun(),), fun))
                stack.append((steps + (AppArg(),), arg))
            case Bag(elements):
                stack.extend((steps + (BagElem(r.ident),), r) for r in elements)
            case Linear(content) | Reusable(content):
                stack.append((steps + (ResourceContent(),), content))
    return out


def fresh(m):
    """A copy of m built from new nodes, so nothing is cached on it yet;
    bag elements keep their ids, so paths carry over."""
    match m:
        case Var(name):
            return Var(name)
        case Abs(binder, body):
            return Abs(binder, fresh(body))
        case App(fun, arg, lab):
            return App(fresh(fun), fresh(arg), lab)
        case Bag(elements):
            return Bag(tuple(fresh(r) for r in elements))
        case Linear(content) | Reusable(content):
            return type(m)(fresh(content), m.ident)
    raise TypeError(m)
