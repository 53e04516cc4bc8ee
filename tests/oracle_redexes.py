"""Frozen oracle: redex discovery as it was before the one-walk rewrite,
and as it was before the explicit-stack walk.

`find_redexes`, `leftmost_set` and `is_onf` are kept verbatim, with the
helpers they depend on, so the differential test in test_redex_order.py
compares the library against a fixed reference rather than against
itself.  The second section keeps the recursive `find_redexes`, the
linked-path leftmost walk behind `leftmost_set` and `_least_leftmost`,
and `precedes` with `linear_position`.  Do not edit these functions to
follow the library.
"""

from __future__ import annotations

from rescal.reduction import (
    _ARG,
    _BODY,
    _CONTENT,
    _FUN,
    AbsBody,
    AppArg,
    AppFun,
    BagElem,
    InvalidPath,
    Path,
    PathStep,
    Redex,
    ResourceContent,
    _reusable_cut,
    resolve,
)
from rescal.syntax import Abs, App, Bag, Linear, Node, Resource, Reusable, Term, Var, canon_at


def _ranked_elements(bag: Bag, levels: dict[str, int], depth: int) -> list[Resource]:
    keyed = [(canon_at(r, levels, depth, ignore_labels=True), i, r) for i, r in enumerate(bag.elements)]
    return [r for _, _, r in sorted(keyed, key=lambda t: (t[0], t[1]))]


def serialize_path(m: Node, path: Path) -> tuple:
    """Id-free form of a path: bag elements become canonical ranks."""
    out: list = []
    node = m
    levels: dict[str, int] = {}
    depth = 0
    for step in path.steps:
        match (node, step):
            case (Abs(binder, body), AbsBody()):
                out.append("body")
                levels = {**levels, binder: depth}
                depth += 1
                node = body
            case (App(fun, _, _), AppFun()):
                out.append("fun")
                node = fun
            case (App(_, arg, _), AppArg()):
                out.append("arg")
                node = arg
            case (Bag(), BagElem(ident)):
                ranked = _ranked_elements(node, levels, depth)
                idx = [i for i, r in enumerate(ranked) if r.ident == ident]
                if not idx:
                    raise InvalidPath(f"no bag element with id {ident}")
                out.append(("elem", idx[0]))
                node = ranked[idx[0]]
            case (Linear(content) | Reusable(content), ResourceContent()):
                out.append("content")
                node = content
            case _:
                raise InvalidPath(f"step {step!r} does not match {type(node).__name__}")
    return tuple(out)


_TAG_ORDER = {"body": 0, "fun": 1, "arg": 2, "content": 4}


def path_sort_key(spath: tuple) -> tuple:
    return tuple((3, t[1]) if isinstance(t, tuple) else (_TAG_ORDER[t], 0) for t in spath)


def path_key(m: Node, path: Path) -> tuple:
    return path_sort_key(serialize_path(m, path))


def _leftmost_paths(node: Node, prefix: tuple[PathStep, ...]) -> list[tuple[PathStep, ...]]:
    match node:
        case Var():
            return []
        case Abs(_, body):
            return _leftmost_paths(body, prefix + (AbsBody(),))
        case App(fun, arg, _):
            if isinstance(fun, Abs):
                return [prefix]
            got = _leftmost_paths(fun, prefix + (AppFun(),))
            if got:
                return got
            return _leftmost_paths(arg, prefix + (AppArg(),))
        case Bag(elements):
            acc = []
            for r in elements:
                if isinstance(r, Linear):
                    acc += _leftmost_paths(r.content, prefix + (BagElem(r.ident), ResourceContent()))
            return acc
    raise TypeError(f"not a syntax node: {node!r}")


def _bag_rule(bag: Bag) -> str:
    if not bag.elements:
        return "Empty"
    least = min(bag.elements, key=lambda r: (r.canon(), r.ident))
    return "LinearHead" if isinstance(least, Linear) else "ReusableHead"


def find_redexes(m: Term) -> list[Redex]:
    """All redexes of m, sorted by path, flagged outer and leftmost."""
    lm = {p for p in _leftmost_paths(m, ())}
    found: list[Redex] = []

    def walk(node: Node, prefix: tuple[PathStep, ...], outer: bool):
        match node:
            case Var():
                return
            case Abs(_, body):
                walk(body, prefix + (AbsBody(),), outer)
            case App(fun, arg, _):
                if isinstance(fun, Abs):
                    found.append(Redex(Path(prefix), _bag_rule(arg), outer, prefix in lm))
                walk(fun, prefix + (AppFun(),), outer)
                for r in arg.elements:
                    walk(
                        r.content,
                        prefix + (AppArg(), BagElem(r.ident), ResourceContent()),
                        outer and isinstance(r, Linear),
                    )

    walk(m, (), True)
    return sorted(found, key=lambda r: path_key(m, r.path))


def leftmost_set(m: Term) -> set[Redex]:
    return {r for r in find_redexes(m) if r.leftmost}


def is_onf(m: Term) -> bool:
    """Outer normal form: no redex outside every ! mark."""
    return not any(r.outer for r in find_redexes(m))


# ---------------------------------------------------------------------------
# Frozen at the explicit-stack walk's introduction: redex discovery with a
# recursive walk that carries the leftmost flag, the linked-path leftmost
# walk, and precedes with linear_position.  Verbatim, except that the two
# names the functions above already use carry the suffix _2
# (find_redexes_2, leftmost_set_2), inside _least_leftmost too.


def linear_position(m: Node, path: Path) -> bool:
    """True when the path passes through no reusable element."""
    return _reusable_cut(m, path) is None


def _leftmost(m: Term) -> list[tuple[tuple[PathStep, ...], App]]:
    """(path, redex node) of each leftmost redex of m, unordered.

    A redex is leftmost itself; an application that is no redex has the
    leftmost redexes of its function, or, when that has none, those of
    the contents of its linear bag elements.  The walk keeps an explicit
    stack: a marker under the function's entry records how many redexes
    were found before it, so the bag is entered only if the function
    added none.  Paths are linked to their parents and spelled out only
    for the redexes found.
    """
    found: list[tuple[tuple[PathStep, ...], App]] = []
    stack: list[tuple[Node, tuple | None, int]] = [(m, None, -1)]
    while stack:
        node, link, mark = stack.pop()
        if mark >= 0:
            # node is an application whose function has been walked.
            if len(found) == mark:
                stack.extend(
                    (r.content, (link, (_ARG, BagElem(r.ident), _CONTENT)), -1)
                    for r in reversed(node.arg.elements)
                    if isinstance(r, Linear)
                )
            continue
        match node:
            case Var():
                pass
            case Abs(_, body):
                stack.append((body, (link, (_BODY,)), -1))
            case App(fun, _, _):
                if isinstance(fun, Abs):
                    found.append((_spelled(link), node))
                else:
                    stack.append((node, link, len(found)))
                    stack.append((fun, (link, (_FUN,)), -1))
            case _:
                raise TypeError(f"not a syntax node: {node!r}")
    return found


def _spelled(link: tuple | None) -> tuple[PathStep, ...]:
    """The steps of a linked path, root first."""
    chunks = []
    while link is not None:
        link, steps = link
        chunks.append(steps)
    return tuple(step for steps in reversed(chunks) for step in steps)


def find_redexes_2(m: Term) -> list[Redex]:
    """All redexes of m in path order, flagged outer and leftmost.

    One depth-first walk emits them already ordered as path_key orders
    them: a node's own redex, then those of its function, then those of
    its bag elements by rank.  A bag is ranked with serialize_path's key,
    under the binders in scope at the bag, and only when two or more of
    its elements hold redexes.  The same walk applies _leftmost's rules:
    nothing inside a redex is leftmost, and a bag's linear elements may
    hold leftmost redexes only when its function side holds none.
    """
    lefts = 0  # leftmost redexes found so far

    def walk(
        node: Node, prefix: tuple[PathStep, ...], outer: bool, leftmost: bool, levels: dict[str, int], depth: int
    ) -> list[Redex]:
        nonlocal lefts
        match node:
            case Abs(binder, body):
                return walk(body, prefix + (_BODY,), outer, leftmost, {**levels, binder: depth}, depth + 1)
            case App(fun, arg, _):
                found = []
                if isinstance(fun, Abs):
                    found.append(Redex(Path(prefix), _bag_rule(arg), outer, leftmost))
                    lefts += leftmost
                    leftmost = False
                before = lefts
                found += walk(fun, prefix + (_FUN,), outer, leftmost, levels, depth)
                bag_leftmost = leftmost and lefts == before
                held = []
                for i, r in enumerate(arg.elements):
                    linear = isinstance(r, Linear)
                    got = walk(
                        r.content,
                        prefix + (_ARG, BagElem(r.ident), _CONTENT),
                        outer and linear,
                        bag_leftmost and linear,
                        levels,
                        depth,
                    )
                    if got:
                        held.append((i, r, got))
                if len(held) > 1:
                    held.sort(key=lambda h: (canon_at(h[1], levels, depth, ignore_labels=True), h[0]))
                for _, _, got in held:
                    found += got
                return found
        return []

    return walk(m, (), True, True, {}, 0)


def leftmost_set_2(m: Term) -> set[Redex]:
    # Leftmost redexes are always outer.
    return {Redex(Path(p), _bag_rule(node.arg), True, True) for p, node in _leftmost(m)}


def _least_leftmost(m: Term) -> Redex | None:
    """The least leftmost redex in path order; bags are ranked only on a tie."""
    lm = leftmost_set_2(m)
    if len(lm) > 1:
        return min(lm, key=lambda r: path_key(m, r.path))
    return next(iter(lm), None)


def precedes(p1: Path, p2: Path, m: Term) -> str:
    """Order two positions of m: "Before", "After", or "Incomparable".

    A position containing another comes first; at a divergence point a
    linear position precedes a non-linear one, and between two linear
    positions of an application the function side precedes the argument
    side.
    """
    resolve(m, p1)
    resolve(m, p2)
    s1, s2 = p1.steps, p2.steps
    if s1 == s2:
        return "Incomparable"
    k = 0
    while k < len(s1) and k < len(s2) and s1[k] == s2[k]:
        k += 1
    if k == len(s1):
        return "Before"
    if k == len(s2):
        return "After"
    root = resolve(m, Path(s1[:k]))
    lin1 = linear_position(root, Path(s1[k:]))
    lin2 = linear_position(root, Path(s2[k:]))
    if lin1 and not lin2:
        return "Before"
    if lin2 and not lin1:
        return "After"
    if lin1 and lin2 and isinstance(root, App):
        if isinstance(s1[k], AppFun) and isinstance(s2[k], AppArg):
            return "Before"
        if isinstance(s1[k], AppArg) and isinstance(s2[k], AppFun):
            return "After"
    return "Incomparable"
