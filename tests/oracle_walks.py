"""Frozen oracle: size and labels_in as they were before they kept
explicit stacks.

Both recurse once per level, so the differential tests in
test_iterative_walks.py compare the library's iterative walks against a
fixed reference rather than against themselves.  Do not edit these
functions to follow the library.
"""

from __future__ import annotations

from rescal.reduction import AbsBody, AppArg, AppFun, BagElem, Path, PathStep, ResourceContent
from rescal.syntax import Abs, App, Bag, Hole, Linear, Node, Reusable, Sum, Var


def size(e: Node) -> int:
    """Symbol count: variables, binders, applications, and ! marks."""
    match e:
        case Var() | Hole():
            return 1
        case Abs(_, body):
            return 1 + size(body)
        case App(fun, arg):
            return 1 + size(fun) + size(arg)
        case Linear(content):
            return size(content)
        case Reusable(content):
            return 1 + size(content)
        case Bag(elements):
            return sum(size(r) for r in elements)
        case Sum(addends):
            return sum(m * size(a) for a, m in addends)
    raise TypeError(f"not a syntax node: {e!r}")


def labels_in(m: Node) -> dict[int, set[Path]]:
    found: dict[int, set[Path]] = {}

    def walk(node: Node, prefix: tuple[PathStep, ...]):
        match node:
            case Var():
                return
            case Abs(_, body):
                walk(body, prefix + (AbsBody(),))
            case App(fun, arg, lab):
                if lab is not None:
                    found.setdefault(lab, set()).add(Path(prefix))
                walk(fun, prefix + (AppFun(),))
                walk(arg, prefix + (AppArg(),))
            case Bag(elements):
                for r in elements:
                    walk(r.content, prefix + (BagElem(r.ident), ResourceContent()))
            case Linear(content) | Reusable(content):
                walk(content, prefix + (ResourceContent(),))

    walk(m, ())
    return found
