"""Input generators owned by the benchmark.

Terms are generated as plain nested tuples, never as library objects, so
that every input can be rebuilt as fresh nodes (with cold canonical-form
caches) right before the work timed on it:

    ("v", name)              variable
    ("l", binder, body)      abstraction
    ("a", fun, bag)          application; bag is a tuple of elements
    ("L", term) / ("R", term)  linear / reusable (!) bag element

Binders are named by their depth (b0, b1, ...), so two distinct tuples
are never alpha-equivalent, and bags are kept sorted, so two distinct
tuples never differ only in element order.
"""

from __future__ import annotations

import random
from functools import lru_cache

FREES = ("x", "y")


def enumerate_terms(max_size: int, frees: tuple[str, ...] = FREES) -> list[tuple]:
    """Every term of size 1..max_size over the free names, once each up to
    alpha-equivalence and bag order, in order of size."""

    @lru_cache(maxsize=None)
    def terms(k: int, depth: int) -> tuple:
        out = []
        if k == 1:
            out += [("v", n) for n in frees] + [("v", f"b{i}") for i in range(depth)]
        if k >= 2:
            out += [("l", f"b{depth}", body) for body in terms(k - 1, depth + 1)]
        for fs in range(1, k):
            for f in terms(fs, depth):
                for b in bags(k - 1 - fs, depth):
                    out.append(("a", f, b))
        return tuple(out)

    @lru_cache(maxsize=None)
    def bags(k: int, depth: int) -> tuple:
        out = set()
        if k == 0:
            out.add(())
        for c in range(1, k + 1):
            for t in terms(c, depth):
                for rest in bags(k - c, depth):
                    out.add(tuple(sorted((("L", t),) + rest)))
        for c in range(1, k):
            for t in terms(c, depth):
                for rest in bags(k - 1 - c, depth):
                    out.add(tuple(sorted((("R", t),) + rest)))
        return tuple(sorted(out))

    return [t for k in range(1, max_size + 1) for t in terms(k, 0)]


def has_redex(t: tuple) -> bool:
    if t[0] == "v":
        return False
    if t[0] == "l":
        return has_redex(t[2])
    return t[1][0] == "l" or has_redex(t[1]) or any(has_redex(e[1]) for e in t[2])


def random_term(rng: random.Random, budget: int, frees: tuple[str, ...] = FREES,
                depth: int = 0, redex_bias: float = 0.7) -> tuple:
    """One random term of roughly the requested size, biased toward redexes."""
    names = frees + tuple(f"b{i}" for i in range(depth))
    if budget <= 1:
        return ("v", rng.choice(names))
    roll = rng.random()
    if roll < 0.25:
        return ("l", f"b{depth}", random_term(rng, budget - 1, frees, depth + 1, redex_bias))
    if roll < 0.4 or budget < 3:
        return ("v", rng.choice(names))
    bag_budget = rng.randint(0, min(budget - 2, 5))
    fun_budget = max(1, budget - 1 - bag_budget)
    if rng.random() < redex_bias:
        body = random_term(rng, max(1, fun_budget - 1), frees, depth + 1, redex_bias)
        fun = ("l", f"b{depth}", body)
    else:
        fun = random_term(rng, fun_budget, frees, depth, redex_bias)
    return ("a", fun, random_bag(rng, bag_budget, frees, depth, redex_bias))


def random_bag(rng: random.Random, budget: int, frees: tuple[str, ...], depth: int,
               redex_bias: float) -> tuple:
    elements = []
    while budget >= 1:
        use = rng.randint(1, budget)
        budget -= use
        if use >= 2 and rng.random() < 0.4:
            elements.append(("R", random_term(rng, use - 1, frees, depth, redex_bias)))
        else:
            elements.append(("L", random_term(rng, use, frees, depth, redex_bias)))
        if rng.random() < 0.4:
            break
    return tuple(sorted(elements))


def random_lambda(rng: random.Random, budget: int, depth: int = 0) -> tuple:
    """One random closed pure lambda term: ("v", n), ("l", b, body), ("a", f, a)."""
    if depth and (budget <= 1 or rng.random() < 0.3):
        return ("v", f"v{rng.randrange(depth)}")
    if not depth or rng.random() < 0.5:
        return ("l", f"v{depth}", random_lambda(rng, max(budget - 1, 1), depth + 1))
    split = rng.randint(1, max(1, budget - 2))
    return ("a", random_lambda(rng, split, depth), random_lambda(rng, max(1, budget - 1 - split), depth))


def size(t: tuple) -> int:
    """Symbol count, as the library's size() counts it."""
    tag = t[0]
    if tag == "v":
        return 1
    if tag == "l":
        return 1 + size(t[2])
    return 1 + size(t[1]) + sum(size(e[1]) + (e[0] == "R") for e in t[2])


def church(n: int, f: str, x: str) -> tuple:
    """The Church numeral c_n = \\f.\\x.f[!f[!...f[!x]]] with n uses of f."""
    body = ("v", x)
    for _ in range(n):
        body = ("a", ("v", f), (("R", body),))
    return ("l", f, ("l", x, body))


def app_reusable(fun: tuple, *args: tuple) -> tuple:
    """fun[!a1][!a2]..., the image of a pure lambda application."""
    for a in args:
        fun = ("a", fun, (("R", a),))
    return fun


def text(t: tuple) -> str:
    """Concrete syntax the library's parser reads."""
    tag = t[0]
    if tag == "v":
        return t[1]
    if tag == "l":
        return f"\\{t[1]}.{text(t[2])}"
    fun = text(t[1])
    if t[1][0] == "l":
        fun = f"({fun})"
    return fun + "[" + ", ".join(("!" if e[0] == "R" else "") + text(e[1]) for e in t[2]) + "]"


def lambda_text(t: tuple) -> str:
    """Concrete syntax of a pure lambda term, fully parenthesised."""
    tag = t[0]
    if tag == "v":
        return t[1]
    if tag == "l":
        return f"(\\{t[1]}.{lambda_text(t[2])})"
    return f"({lambda_text(t[1])} {lambda_text(t[2])})"


def deep_lambda_text(depth: int) -> str:
    """\\x0.\\x1. ... x0: an outer normal form nested depth binders deep."""
    return "".join(f"\\x{i}." for i in range(depth)) + "x0"


def deep_bag_text(depth: int) -> str:
    """y[y[...[y]...]]: an outer normal form with bags nested depth deep."""
    return "y[" * depth + "y" + "]" * depth


def builder(syntax):
    """A function rebuilding a tuple term as fresh library nodes."""
    Var, Abs, App, Bag, Linear, Reusable = (
        syntax.Var, syntax.Abs, syntax.App, syntax.Bag, syntax.Linear, syntax.Reusable)

    def build(t: tuple):
        tag = t[0]
        if tag == "v":
            return Var(t[1])
        if tag == "l":
            return Abs(t[1], build(t[2]))
        return App(build(t[1]), Bag(tuple(
            (Reusable if e[0] == "R" else Linear)(build(e[1])) for e in t[2])))

    return build
