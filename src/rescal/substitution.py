"""The four substitution operations.

Classical substitution replaces every free occurrence and is linear in
the subject only.  Partial substitution keeps the variable available
alongside the replacement.  Linear substitution replaces exactly one
occurrence, summing over the possible choices; a reusable element
additionally donates one linear copy per choice.  Bag substitution
composes one resource substitution per element and requires the
substituted variable not to occur in the bag itself.

Every operation returns a Sum and accepts a Sum subject, extending
linearly (and, for linear substitution, bilinearly) over addends.
Inside an operation the recursion passes plain lists of (expression,
multiplicity) pairs, and one Sum is built at the public boundary.  The
alternatives of a rebuilt bag are merged on the spot when there are
several, since a bag is where repeated occurrences of the variable
give alpha-equal alternatives.  A subterm in which the variable is not
free is kept as it is, not rebuilt, so its cached keys carry over.
"""

from __future__ import annotations

from typing import Sequence

from .syntax import (
    Abs,
    App,
    Bag,
    Linear,
    Node,
    Resource,
    Reusable,
    Sum,
    Term,
    Var,
    element_rank,
    free_vars,
    fresh_name,
)

Pairs = list[tuple[Node, int]]


class FreshnessViolation(ValueError):
    """Raised when a bag substitution's variable occurs in the bag."""


def _rename_binder(binder: str, body: Term, clash: frozenset[str]) -> tuple[str, Term]:
    """Pick a non-clashing binder and rename the body accordingly."""
    new = fresh_name(binder, clash | free_vars(body))
    new_body = classical_subst(body, binder, Sum.of(Var(new))).sole()
    return new, new_body


def _addends(a: Node) -> tuple[tuple[Node, int], ...]:
    return a.addends if isinstance(a, Sum) else ((a, 1),)


def _merged_bags(bags: list[tuple[tuple[Resource, ...], int]]) -> Pairs:
    """The rebuilt bags, alpha-equal ones merged with the first kept."""
    if len(bags) == 1:
        return [(Bag(bags[0][0]), bags[0][1])]
    merged: dict = {}
    for elements, k in bags:
        b = Bag(elements)
        key = b.canon()
        if key in merged:
            merged[key][1] += k
        else:
            merged[key] = [b, k]
    return [(b, k) for b, k in merged.values()]


def _reusables(content: Pairs, ident: int) -> tuple[Resource, ...]:
    """The elements a sum under ! collapses into: one per addend and
    multiplicity, none for zero; a single addend keeps the element id."""
    if len(content) == 1 and content[0][1] == 1:
        return (Reusable(content[0][0], ident),)
    return tuple(Reusable(t) for t, k in content for _ in range(k))


def classical_subst(a: Node, x: str, n: Sum | Term) -> Sum:
    """Replace every free x in a with n, avoiding capture."""
    if isinstance(n, Term):
        n = Sum.of(n)
    nfv = free_vars(n)
    return Sum(tuple((t, k * j) for e, k in _addends(a) for t, j in _classical(e, x, n.addends, nfv)))


def _classical(a: Node, x: str, n: Sequence[tuple[Node, int]], nfv: frozenset[str]) -> Pairs:
    if type(a) is Var:
        return n if a.name == x else [(a, 1)]
    if x not in free_vars(a):
        return [(a, 1)]
    match a:
        case Abs(binder, body):
            if binder in nfv:
                binder, body = _rename_binder(binder, body, nfv | {x})
            return [(Abs(binder, t), k) for t, k in _classical(body, x, n, nfv)]
        case App(fun, arg, label):
            funs = _classical(fun, x, n, nfv)
            args = _classical(arg, x, n, nfv)
            return [(App(f, b, label), i * j) for f, i in funs for b, j in args]
        case Bag(elements):
            bags: list[tuple[tuple[Resource, ...], int]] = [((), 1)]
            for r in elements:
                if x not in free_vars(r):
                    bags = [(es + (r,), i) for es, i in bags]
                    continue
                content = _classical(r.content, x, n, nfv)
                if isinstance(r, Linear):
                    bags = [(es + (Linear(t, r.ident),), i * j) for es, i in bags for t, j in content]
                else:
                    extra = _reusables(content, r.ident)
                    bags = [(es + extra, i) for es, i in bags]
            return _merged_bags(bags)
    raise TypeError(f"not a substitution subject: {a!r}")


def partial_subst(a: Node, x: str, n: Term) -> Sum:
    """Replace each free x with n while also keeping x available."""
    return classical_subst(a, x, Sum.of(n) + Sum.of(Var(x)))


def linear_subst(a: Node, x: str, n: Sum | Term) -> Sum:
    """Replace exactly one free occurrence of x, one addend per choice."""
    out: Pairs = []
    for t, i in _addends(n):
        nfv = free_vars(t)
        out += [(u, i * j * k) for e, j in _addends(a) for u, k in _linear(e, x, t, nfv)]
    return Sum(tuple(out))


def _linear(a: Node, x: str, n: Term, nfv: frozenset[str]) -> Pairs:
    if type(a) is Var:
        return [(n, 1)] if a.name == x else []
    if x not in free_vars(a):
        return []
    match a:
        case Abs(binder, body):
            if binder in nfv:
                binder, body = _rename_binder(binder, body, nfv | {x})
            return [(Abs(binder, t), k) for t, k in _linear(body, x, n, nfv)]
        case App(fun, arg, label):
            return [(App(f, arg, label), k) for f, k in _linear(fun, x, n, nfv)] + [
                (App(fun, b, label), k) for b, k in _linear(arg, x, n, nfv)
            ]
        case Bag(elements):
            bags: list[tuple[tuple[Resource, ...], int]] = []
            for i, r in enumerate(elements):
                before, after = elements[:i], elements[i + 1 :]
                for t, k in _linear(r.content, x, n, nfv):
                    if isinstance(r, Linear):
                        bags.append((before + (Linear(t, r.ident),) + after, k))
                    else:
                        # A reusable element donates one fresh linear copy and stays put.
                        bags.append((before + (Linear(t), r) + after, k))
            return _merged_bags(bags)
    raise TypeError(f"not a substitution subject: {a!r}")


def resource_subst(a: Node, x: str, r: Resource) -> Sum:
    """Feed one bag element to a: linear elements substitute linearly,
    reusable ones partially."""
    match r:
        case Linear(content):
            return linear_subst(a, x, content)
        case Reusable(content):
            return partial_subst(a, x, content)
    raise TypeError(f"not a resource: {r!r}")


def bag_subst(a: Node, x: str, p: Bag) -> Sum:
    """Feed a whole bag to a, one resource at a time.

    The result does not depend on the order the elements are taken in;
    a canonical order keeps runs reproducible.
    """
    if x in free_vars(p):
        raise FreshnessViolation(f"variable {x!r} occurs in the substituted bag")
    acc = a if isinstance(a, Sum) else Sum.of(a)
    for r in sorted(p.elements, key=element_rank):
        acc = resource_subst(acc, x, r)
    return acc
