"""Frozen oracle: redex discovery as it was before the one-walk rewrite.

`find_redexes`, `leftmost_set` and `is_onf` are kept verbatim, with the
helpers they depend on, so the differential test in test_redex_order.py
compares the library against a fixed reference rather than against
itself.  Do not edit these functions to follow the library.
"""

from __future__ import annotations

from rescal.reduction import (
    AbsBody,
    AppArg,
    AppFun,
    BagElem,
    InvalidPath,
    Path,
    PathStep,
    Redex,
    ResourceContent,
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
