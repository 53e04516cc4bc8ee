"""Frozen oracle: nd reducts, the machine's spine firing and the
printing of terms and machine trees as they were before successors were
memoized on the node and the printer and tree renderers kept explicit
stacks.

Each function fires or prints afresh on every call and caches nothing,
and the printer and renderers recurse once per level, so the
differential tests in test_successor_memo.py compare the library against
a fixed reference rather than against itself.  Do not edit these
functions to follow the library.
"""

from __future__ import annotations

from rescal.machine import _respine, _spine, _Undef
from rescal.parser import _pick_name
from rescal.reduction import Redex, _fresh_redex, _plugged, _redex_frames, giant_local
from rescal.substitution import classical_subst, resource_subst
from rescal.syntax import (
    ZERO,
    Abs,
    App,
    Bag,
    Hole,
    Linear,
    Node,
    Reusable,
    Sum,
    Term,
    Var,
    canon_at,
    element_rank,
    free_vars,
)


def nd_reducts(m: Term, r: Redex) -> list[tuple[Term, Term]]:
    """(local addend, whole term) pairs, one per giant-result addend,
    deduplicated and in canonical order of the local addend."""
    return _nd_pairs(*_redex_frames(m, r.path))


def _nd_pairs(frames, node: App) -> list[tuple[Term, Term]]:
    """nd_reducts, given the frames of the redex's path and the redex."""
    local = giant_local(node)
    out: list[tuple[Term, Term]] = []
    seen = set()
    for t, _ in local:
        if t.canon() in seen:
            continue
        seen.add(t.canon())
        whole = _plugged(frames, Sum.of(t)).sole()
        out.append((t, whole))
    out.sort(key=lambda p: p[0].canon())
    return out


def _spine_fire(m: Term):
    """Expand the head redex of an abstraction-headed spine by one bag
    element: rule name, per-choice continuations, and the sum size."""
    head, apps = _spine(m)
    redex = apps[0]
    rest_apps = apps[1:]
    binder, body, bag = _fresh_redex(App(head, redex.arg, None))
    if not bag.elements:
        s = classical_subst(body, binder, ZERO)
        if s.is_zero:
            raise _Undef(m)
        return "0", [(None, None, _respine(s.sole(), rest_apps))], 1
    out = []
    for elem in sorted(bag.elements, key=element_rank):
        rest = Bag(tuple(r for r in bag.elements if r is not elem))
        rule = "beta" if isinstance(elem, Linear) else "!beta"
        addends = [t for t, _ in resource_subst(body, binder, elem)]
        conts = [
            (elem, local, _respine(App(Abs(binder, local), rest, None), rest_apps))
            for local in addends
        ]
        out.append((rule, conts, len(addends)))  # empty conts: undefined branch
    return out


def print_expr(e: Node) -> str:
    """Render any expression; alpha-equivalent inputs print identically."""
    if isinstance(e, Sum):
        if e.is_zero:
            return "0"
        avoid = set(free_vars(e))
        parts = []
        for a, k in e:
            parts.extend([_print(a, {}, 0, {}, avoid)] * k)
        return " + ".join(parts)
    return _print(e, {}, 0, {}, set(free_vars(e)))


def _print(e: Node, levels: dict[str, int], depth: int, names: dict[str, str], used: set[str]) -> str:
    match e:
        case Var(name):
            return names.get(name, name)
        case Hole(index):
            return f"#{index}"
        case Abs(binder, body):
            printed = _pick_name(used)
            inner = _print(
                body,
                {**levels, binder: depth},
                depth + 1,
                {**names, binder: printed},
                used | {printed},
            )
            return f"\\{printed}.{inner}"
        case App(fun, arg):
            fun_s = _print(fun, levels, depth, names, used)
            if isinstance(fun, Abs):
                fun_s = f"({fun_s})"
            arg_s = _print(arg, levels, depth, names, used)
            if arg_s == "1" and fun_s[-1].isalnum():
                return f"{fun_s} {arg_s}"
            return fun_s + arg_s
        case Bag(elements):
            if not elements:
                return "1"
            ordered = sorted(elements, key=lambda r: canon_at(r, levels, depth))
            return "[" + ", ".join(_print(r, levels, depth, names, used) for r in ordered) + "]"
        case Linear(content):
            return _print(content, levels, depth, names, used)
        case Reusable(content):
            return "!" + _print(content, levels, depth, names, used)
    raise TypeError(f"not a printable node: {e!r}")


def tree_record(node) -> dict:
    return {
        "rule": node.rule,
        "judgment_in": print_expr(node.input),
        "judgment_out": print_expr(node.output),
        "choice": None if node.choice is None else print_expr(node.choice),
        "children": [tree_record(c) for c in node.children],
    }


def _render_tree(node, depth: int = 0) -> list[str]:
    pad = "  " * depth
    chose = f"  [chose {print_expr(node.choice)}]" if node.choice is not None else ""
    lines = [f"{pad}({node.rule}) {print_expr(node.input)} => {print_expr(node.output)}{chose}"]
    for child in node.children:
        lines.extend(_render_tree(child, depth + 1))
    return lines
