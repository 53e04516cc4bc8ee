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
"""

from __future__ import annotations

from .syntax import (
    Abs,
    App,
    Bag,
    Expression,
    Linear,
    Node,
    Resource,
    Reusable,
    Sum,
    Term,
    Var,
    ZERO,
    cons_linear,
    cons_reusable,
    element_rank,
    free_vars,
    fresh_name,
    mk_app,
    sum_abs,
)


class FreshnessViolation(ValueError):
    """Raised when a bag substitution's variable occurs in the bag."""


def _rename_binder(binder: str, body: Term, clash: frozenset[str]) -> tuple[str, Term]:
    """Pick a non-clashing binder and rename the body accordingly."""
    new = fresh_name(binder, clash | free_vars(body))
    new_body = classical_subst(body, binder, Sum.of(Var(new))).sole()
    return new, new_body


def classical_subst(a: Node, x: str, n: Sum | Term) -> Sum:
    """Replace every free x in a with n, avoiding capture."""
    if isinstance(n, Term):
        n = Sum.of(n)
    match a:
        case Sum(addends):
            out = ZERO
            for e, k in addends:
                out = out + classical_subst(e, x, n).scaled(k)
            return out
        case Var(name):
            return n if name == x else Sum.of(a)
        case Abs(binder, body):
            if binder == x or x not in free_vars(body):
                return Sum.of(a)
            nfv = free_vars(n)
            if binder in nfv:
                binder, body = _rename_binder(binder, body, nfv | {x})
            return sum_abs(binder, classical_subst(body, x, n))
        case App(fun, arg, label):
            return mk_app(classical_subst(fun, x, n), classical_subst(arg, x, n), label)
        case Bag(elements):
            if not elements:
                return Sum.of(a)
            r, rest = elements[0], Bag(elements[1:])
            content = classical_subst(r.content, x, n)
            tail = classical_subst(rest, x, n)
            if isinstance(r, Linear):
                return cons_linear(content, tail, r.ident)
            return cons_reusable(content, tail, r.ident)
    raise TypeError(f"not a substitution subject: {a!r}")


def partial_subst(a: Node, x: str, n: Term) -> Sum:
    """Replace each free x with n while also keeping x available."""
    return classical_subst(a, x, Sum.of(n) + Sum.of(Var(x)))


def linear_subst(a: Node, x: str, n: Sum | Term) -> Sum:
    """Replace exactly one free occurrence of x, one addend per choice."""
    if isinstance(n, Sum):
        out = ZERO
        for t, k in n:
            out = out + linear_subst(a, x, t).scaled(k)
        return out
    match a:
        case Sum(addends):
            out = ZERO
            for e, k in addends:
                out = out + linear_subst(e, x, n).scaled(k)
            return out
        case Var(name):
            return Sum.of(n) if name == x else ZERO
        case Abs(binder, body):
            if binder == x:
                return ZERO
            if binder in free_vars(n):
                binder, body = _rename_binder(binder, body, free_vars(n) | {x})
            return sum_abs(binder, linear_subst(body, x, n))
        case App(fun, arg, label):
            return mk_app(linear_subst(fun, x, n), Sum.of(arg), label) + mk_app(
                Sum.of(fun), linear_subst(arg, x, n), label
            )
        case Bag(()):
            return ZERO
        case Bag(elements):
            r, rest = elements[0], Bag(elements[1:])
            in_rest = linear_subst(rest, x, n)
            if isinstance(r, Linear):
                return cons_linear(linear_subst(r.content, x, n), Sum.of(rest), r.ident) + cons_linear(
                    Sum.of(r.content), in_rest, r.ident
                )
            # A reusable element donates one fresh linear copy and stays put.
            return cons_linear(linear_subst(r.content, x, n), Sum.of(a)) + cons_reusable(
                Sum.of(r.content), in_rest, r.ident
            )
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
