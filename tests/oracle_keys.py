"""Frozen oracle: canonical keys, free variables and label erasure as
they were before the per-node caches.

`canon_at`, `label_free_key`, `free_vars` and `erase_labels` are kept
verbatim: each walks its whole argument recursively and caches nothing,
so the differential test in test_key_cache.py compares the library's
cached, context-skipping keys and its sharing `erase_labels` against a
fixed reference rather than against itself.  Do not edit these
functions to follow the library.
"""

from __future__ import annotations

from dataclasses import replace

from rescal.syntax import Abs, App, Bag, Hole, Linear, Node, Reusable, Sum, Var


def canon_at(node, bound: dict[str, int], depth: int, ignore_labels: bool = False):
    """Canonical form of a subexpression under the given binder context."""
    match node:
        case Var(name):
            level = bound.get(name)
            if level is None:
                return ("free", name)
            return ("bound", depth - level)
        case Hole(index):
            return ("hole", index)
        case Abs(binder, body):
            return ("abs", canon_at(body, {**bound, binder: depth}, depth + 1, ignore_labels))
        case App(fun, arg, lab):
            f = canon_at(fun, bound, depth, ignore_labels)
            a = canon_at(arg, bound, depth, ignore_labels)
            if lab is None or ignore_labels:
                return ("app", f, a)
            return ("app*", lab, f, a)
        case Linear(content):
            return ("lin", canon_at(content, bound, depth, ignore_labels))
        case Reusable(content):
            return ("reu", canon_at(content, bound, depth, ignore_labels))
        case Bag(elements):
            return ("bag", tuple(sorted(canon_at(r, bound, depth, ignore_labels) for r in elements)))
        case Sum(addends):
            return ("sum", tuple((canon_at(e, {}, 0, ignore_labels), m) for e, m in addends))
    raise TypeError(f"not a syntax node: {node!r}")


def label_free_key(e: Node) -> tuple:
    """Canonical form of e with redex labels ignored."""
    return canon_at(e, {}, 0, ignore_labels=True)


def free_vars(e: Node) -> frozenset[str]:
    match e:
        case Var(name):
            return frozenset((name,))
        case Hole():
            return frozenset()
        case Abs(binder, body):
            return free_vars(body) - {binder}
        case App(fun, arg):
            return free_vars(fun) | free_vars(arg)
        case Linear(content) | Reusable(content):
            return free_vars(content)
        case Bag(elements):
            out: frozenset[str] = frozenset()
            for r in elements:
                out |= free_vars(r)
            return out
        case Sum(addends):
            out = frozenset()
            for a, _ in addends:
                out |= free_vars(a)
            return out
    raise TypeError(f"not a syntax node: {e!r}")


def erase_labels(m: Node) -> Node:
    match m:
        case Var():
            return m
        case Abs():
            return replace(m, body=erase_labels(m.body))
        case App():
            return App(erase_labels(m.fun), erase_labels(m.arg), None)
        case Bag(elements):
            return Bag(tuple(replace(r, content=erase_labels(r.content)) for r in elements))
        case Linear() | Reusable():
            return replace(m, content=erase_labels(m.content))
        case Sum(addends):
            return Sum(tuple((erase_labels(e), k) for e, k in addends))
    raise TypeError(f"not a syntax node: {m!r}")
