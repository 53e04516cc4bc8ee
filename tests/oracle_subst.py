"""Frozen oracle: substitution, plugging and the giant step as they were
before the fused giant step and the one-Sum-per-operation rewrite.

`classical_subst`, `partial_subst`, `linear_subst`, `resource_subst`,
`bag_subst`, `plug` and `giant_local` are kept verbatim, with the helpers
they depend on, so the differential test in test_subst_order.py compares
the library against a fixed reference rather than against itself.  Every
recursive level builds a full Sum here, and the giant step runs bag
substitution followed by a separate [0/x] pass.  The syntax.py
constructors (`mk_app`, `cons_*`, `sum_abs`) are shared with the
library, which leaves them unchanged.  Do not edit these functions to
follow the library.
"""

from __future__ import annotations

from rescal.reduction import AbsBody, AppArg, AppFun, BagElem, InvalidPath, Path, PathStep, ResourceContent
from rescal.substitution import FreshnessViolation
from rescal.syntax import (
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
    ZERO,
    cons_linear,
    cons_reusable,
    element_rank,
    free_vars,
    fresh_name,
    mk_app,
    sum_abs,
)


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
    """Feed a whole bag to a, one resource at a time."""
    if x in free_vars(p):
        raise FreshnessViolation(f"variable {x!r} occurs in the substituted bag")
    acc = a if isinstance(a, Sum) else Sum.of(a)
    for r in sorted(p.elements, key=element_rank):
        acc = resource_subst(acc, x, r)
    return acc


def plug(m: Term, path: Path, s: Sum) -> Sum:
    """Replace the subterm at path with a sum, distributing contexts."""
    return _plug(m, path.steps, s)


def _plug(node: Node, steps: tuple[PathStep, ...], s: Sum) -> Sum:
    if not steps:
        return s
    step = steps[0]
    match (node, step):
        case (Abs(binder, body), AbsBody()):
            return sum_abs(binder, _plug(body, steps[1:], s))
        case (App(fun, arg, label), AppFun()):
            return mk_app(_plug(fun, steps[1:], s), Sum.of(arg), label)
        case (App(fun, arg, label), AppArg()):
            return mk_app(Sum.of(fun), _plug_bag(arg, steps[1:], s), label)
        case _:
            raise InvalidPath(f"step {step!r} does not match {type(node).__name__}")


def _plug_bag(bag: Bag, steps: tuple[PathStep, ...], s: Sum) -> Sum:
    if not steps or not isinstance(steps[0], BagElem):
        raise InvalidPath("path into a bag must address an element")
    ident = steps[0].ident
    picked = [r for r in bag.elements if r.ident == ident]
    if not picked:
        raise InvalidPath(f"no bag element with id {ident}")
    r = picked[0]
    rest = Sum.of(Bag(tuple(e for e in bag.elements if e.ident != ident)))
    if len(steps) < 2 or not isinstance(steps[1], ResourceContent):
        raise InvalidPath("path into an element must address its content")
    content = _plug(r.content, steps[2:], s)
    if isinstance(r, Linear):
        return cons_linear(content, rest, r.ident)
    return cons_reusable(content, rest, r.ident)


def _fresh_redex(node: App) -> tuple[str, Term, Bag]:
    """Binder, body, and bag of a redex, renamed so the binder is free
    to receive the bag's contents."""
    binder, body, bag = node.fun.binder, node.fun.body, node.arg
    if binder in free_vars(bag):
        new = fresh_name(binder, free_vars(bag) | free_vars(body))
        body = classical_subst(body, binder, Sum.of(Var(new))).sole()
        binder = new
    return binder, body, bag


def giant_local(node: App) -> Sum:
    """Whole-bag firing of one redex: bag substitution then zeroing."""
    binder, body, bag = _fresh_redex(node)
    return classical_subst(bag_subst(body, binder, bag), binder, ZERO)
