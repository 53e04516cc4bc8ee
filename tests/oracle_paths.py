"""Frozen oracle: the path-addressed operations as they were before they
shared one descent and one rebuild.

`serialize_path`, `resolve_path`, `plug`, `_relabel`/`_label_in_order`,
the machine's `_replace_at`, and the standardization step movers
`_refire`, `_project` and `_emit` are kept verbatim, each with its own
walk, together with the standardization functions that call the movers.
The movers call this module's `serialize_path`, `resolve_path` and
`transport_path`.  test_path_order.py compares the library against this
fixed reference rather than against itself.  Do not edit these functions
to follow the library.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from rescal.machine import MalformedTree
from rescal.reduction import (
    AbsBody,
    AppArg,
    AppFun,
    BagElem,
    InvalidPath,
    InvalidRedex,
    InvalidTrace,
    Path,
    PathStep,
    ResourceContent,
    Step,
    _redex_node,
    _reusable_cut,
    fire_nd,
    resolve,
)
from rescal.standardization import (
    DEFAULT_SLACK,
    _MAX_RECURSION,
    SearchExhausted,
    _factor_search,
    _find_chain,
    _group_sort_key,
    _leftmost_first_swap,
    _trace,
    outer_shape,
)
from rescal.substitution import _reusables
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
    canon_at,
    label_free_key,
)

# ------------------------------------------------------------ reduction.py


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


def resolve_path(m: Node, spath: Iterable) -> Path:
    """Turn an id-free path back into an addressed path on m."""
    steps: list[PathStep] = []
    node = m
    levels: dict[str, int] = {}
    depth = 0
    for tag in spath:
        if isinstance(tag, dict):
            tag = ("elem", tag["elem"])
        match (node, tag):
            case (Abs(binder, body), "body"):
                steps.append(AbsBody())
                levels = {**levels, binder: depth}
                depth += 1
                node = body
            case (App(fun, _, _), "fun"):
                steps.append(AppFun())
                node = fun
            case (App(_, arg, _), "arg"):
                steps.append(AppArg())
                node = arg
            case (Bag(), ("elem", rank)):
                ranked = _ranked_elements(node, levels, depth)
                if not 0 <= rank < len(ranked):
                    raise InvalidPath(f"bag rank {rank} out of range")
                node = ranked[rank]
                steps.append(BagElem(node.ident))
            case (Bag(), ("elemid", ident)):
                found = [r for r in node.elements if r.ident == ident]
                if not found:
                    raise InvalidPath(f"no bag element with id {ident}")
                node = found[0]
                steps.append(BagElem(ident))
            case (Linear(content) | Reusable(content), "content"):
                steps.append(ResourceContent())
                node = content
            case _:
                raise InvalidPath(f"tag {tag!r} does not match {type(node).__name__}")
    return Path(tuple(steps))


_TAG_ORDER = {"body": 0, "fun": 1, "arg": 2, "content": 4}


def path_sort_key(spath: tuple) -> tuple:
    return tuple((3, t[1]) if isinstance(t, tuple) else (_TAG_ORDER[t], 0) for t in spath)


def path_key(m: Node, path: Path) -> tuple:
    return path_sort_key(serialize_path(m, path))


def transport_path(src: Node, path: Path, dst: Node) -> Path:
    """Carry a path between alpha-equivalent expressions by rank."""
    return resolve_path(dst, serialize_path(src, path))


def plug(m: Term, path: Path, s: Sum) -> Sum:
    """Replace the subterm at path with a sum, distributing contexts.

    Abstractions and applications distribute addend by addend; a linear
    element distributes likewise, while a reusable element collapses the
    sum into sibling elements of a single bag.  Untouched subterms are
    shared, so element ids away from the path are stable; a reusable
    element filled with a one-addend sum keeps its id too.  The path is
    walked down once and the addends rebuilt up it as plain pairs, with
    one Sum built at the end.
    """
    if not path.steps:
        return s
    frames: list[tuple[App | Abs, Resource | None, tuple[Resource, ...]]] = []
    node: Node = m
    steps = path.steps
    i = 0
    while i < len(steps):
        step = steps[i]
        match (node, step):
            case (Abs(_, body), AbsBody()):
                frames.append((node, None, ()))
                node, i = body, i + 1
            case (App(fun, _, _), AppFun()):
                frames.append((node, None, ()))
                node, i = fun, i + 1
            case (App(_, bag, _), AppArg()):
                if i + 1 == len(steps) or not isinstance(steps[i + 1], BagElem):
                    raise InvalidPath("path into a bag must address an element")
                ident = steps[i + 1].ident
                picked = [r for r in bag.elements if r.ident == ident]
                if not picked:
                    raise InvalidPath(f"no bag element with id {ident}")
                if i + 2 == len(steps) or not isinstance(steps[i + 2], ResourceContent):
                    raise InvalidPath("path into an element must address its content")
                frames.append((node, picked[0], tuple(e for e in bag.elements if e.ident != ident)))
                node, i = picked[0].content, i + 3
            case _:
                raise InvalidPath(f"step {step!r} does not match {type(node).__name__}")
    pairs: list = list(s.addends)
    for outer, r, rest in reversed(frames):
        if isinstance(outer, Abs):
            pairs = [(Abs(outer.binder, t), k) for t, k in pairs]
        elif r is None:
            pairs = [(App(t, outer.arg, outer.label), k) for t, k in pairs]
        elif isinstance(r, Linear):
            pairs = [(App(outer.fun, Bag((Linear(t, r.ident),) + rest), outer.label), k) for t, k in pairs]
        else:
            pairs = [(App(outer.fun, Bag(_reusables(pairs, r.ident) + rest), outer.label), 1)]
    return Sum(tuple(pairs))


def label(m: Term, targets: Iterable[Path]) -> Term:
    """Attach labels 1..n to the redexes at the given paths, in path order."""
    return _label_in_order(m, sorted(targets, key=lambda p: path_key(m, p)))


def _label_in_order(m: Term, paths: Iterable[Path]) -> Term:
    """Attach labels 1..n to the redexes at paths already in path order."""
    out = m
    for i, p in enumerate(paths, 1):
        _redex_node(out, p)
        out = _relabel(out, p.steps, i)
    return out


def _relabel(node: Node, steps: tuple[PathStep, ...], lab: int | None) -> Node:
    if not steps:
        if not isinstance(node, App):
            raise InvalidRedex("only applications carry labels")
        return replace(node, label=lab)
    step = steps[0]
    match (node, step):
        case (Abs(), AbsBody()):
            return replace(node, body=_relabel(node.body, steps[1:], lab))
        case (App(), AppFun()):
            return replace(node, fun=_relabel(node.fun, steps[1:], lab))
        case (App(), AppArg()):
            return replace(node, arg=_relabel(node.arg, steps[1:], lab))
        case (Bag(), BagElem(ident)):
            elems = tuple(
                replace(r, content=_relabel(r.content, steps[2:], lab)) if r.ident == ident else r
                for r in node.elements
            )
            if all(r.ident != ident for r in node.elements):
                raise InvalidPath(f"no bag element with id {ident}")
            if len(steps) < 2 or not isinstance(steps[1], ResourceContent):
                raise InvalidPath("path into an element must address its content")
            return Bag(elems)
        case _:
            raise InvalidPath(f"step {step!r} does not match {type(node).__name__}")


# -------------------------------------------------------------- machine.py


def _replace_at(m: Term, prefix: tuple[PathStep, ...], sub: Term) -> Term:
    if not prefix:
        return sub
    step = prefix[0]
    match (m, step):
        case (Abs(), AbsBody()):
            return replace(m, body=_replace_at(m.body, prefix[1:], sub))
        case (App(), AppFun()):
            return replace(m, fun=_replace_at(m.fun, prefix[1:], sub))
        case (App(), AppArg()):
            return replace(m, arg=_replace_at(m.arg, prefix[1:], sub))
        case (Bag(), BagElem(ident)):
            elems = tuple(
                replace(r, content=_replace_at(r.content, prefix[2:], sub)) if r.ident == ident else r
                for r in m.elements
            )
            return Bag(elems)
        case (Linear() | Reusable(), ResourceContent()):
            return replace(m, content=_replace_at(m.content, prefix[1:], sub))
    raise MalformedTree(f"step {step!r} does not match {type(m).__name__}")


# ------------------------------------------------------ standardization.py


def _refire(cur: Term, old: Step) -> Step:
    """Fire old's move on an alpha-equivalent term."""
    path = transport_path(old.before, old.redex.path, cur)
    return fire_nd(cur, path, label_free_key(old.local))


def _chain(initial: Term, steps) -> list[Step]:
    """Refire a sequence of steps from initial, threading terms exactly."""
    out: list[Step] = []
    cur = initial
    for s in steps:
        if cur != s.before:
            raise InvalidTrace("steps do not chain: a source differs from the previous result")
        step = _refire(cur, s)
        if step.after != s.after:
            raise InvalidTrace("step does not replay: recorded result is not a reduct")
        out.append(step)
        cur = step.after
    return out


def _project(sub0: Term, group: list[Step], depth: int) -> list[Step]:
    """Restrict steps below a common position to the subterm itself."""
    out: list[Step] = []
    cur = sub0
    for s in group:
        src = resolve(s.before, Path(s.redex.path.steps[:depth]))
        rel = serialize_path(src, Path(s.redex.path.steps[depth:]))
        step = fire_nd(cur, resolve_path(cur, rel), label_free_key(s.local))
        out.append(step)
        cur = step.after
    return out


def _emit(cur: Term, anchor: tuple[PathStep, ...], sub_steps: list[Step]):
    """Lift subterm steps back to the whole term at a stable position."""
    out: list[Step] = []
    for ss in sub_steps:
        sub = resolve(cur, Path(anchor))
        rel = transport_path(ss.before, ss.redex.path, sub)
        step = fire_nd(cur, Path(anchor + rel.steps), label_free_key(ss.local))
        out.append(step)
        cur = step.after
    return cur, out


def _std_pure(initial: Term, steps: list[Step]) -> list[Step]:
    """Standardize a chain with no leftmost step by splitting it at the
    root constructor and recursing into disjoint regions."""
    if not steps:
        return []
    if any(not s.redex.path.steps for s in steps):
        raise InvalidTrace("a root step is leftmost; pure split does not apply")
    match initial:
        case Abs():
            anchor = (AbsBody(),)
            rec = _std_outer(initial.body, _project(initial.body, steps, 1))
            _, out = _emit(initial, anchor, rec)
            return out
        case App():
            fun_steps = [s for s in steps if isinstance(s.redex.path.steps[0], AppFun)]
            arg_steps = [s for s in steps if isinstance(s.redex.path.steps[0], AppArg)]
            if len(fun_steps) + len(arg_steps) != len(steps):
                raise InvalidTrace("step path does not start inside the application")
            out: list[Step] = []
            cur = initial
            if fun_steps:
                rec = _std_outer(initial.fun, _project(initial.fun, fun_steps, 1))
                cur, emitted = _emit(cur, (AppFun(),), rec)
                out += emitted
            groups: dict[tuple[PathStep, ...], list[Step]] = {}
            for s in arg_steps:
                anchor = s.redex.path.steps[:3]
                groups.setdefault(anchor, []).append(s)
            for anchor in sorted(groups, key=lambda a: _group_sort_key(initial, a)):
                sub0 = resolve(initial, Path(anchor))
                rec = _std_outer(sub0, _project(sub0, groups[anchor], len(anchor)))
                cur, emitted = _emit(cur, anchor, rec)
                out += emitted
            return out
    raise InvalidTrace(f"cannot split a chain at {type(initial).__name__}")


def _std_outer(initial: Term, steps: list[Step]) -> list[Step]:
    """Reorder an outer chain, threaded on initial, so every leftmost
    step comes first."""
    if not steps:
        return []
    idx = next((i for i, s in enumerate(steps) if s.redex.leftmost), None)
    if idx is None:
        return _std_pure(initial, steps)
    while idx > 0:
        pair = _leftmost_first_swap(steps[idx - 1].before, steps[idx].after)
        steps = steps[: idx - 1] + pair + _chain(pair[-1].after, steps[idx + 1 :])
        idx -= 1
    return [steps[0]] + _std_outer(steps[0].after, steps[1:])


def _standardize_steps(initial: Term, steps: list[Step], depth: int) -> list[Step]:
    if depth > _MAX_RECURSION:
        raise SearchExhausted(f"standardization recursion exceeded depth {_MAX_RECURSION}")
    if not steps:
        return []
    target = steps[-1].after
    outs, ins = _factor_search(initial, target, len(steps) + DEFAULT_SLACK)
    std_outer = _std_outer(initial, outs)
    mid = std_outer[-1].after if std_outer else initial
    if ins and ins[0].before is not mid:
        # Swaps in _std_outer end on an alpha-equal copy; move the chain onto it.
        ins = _chain(mid, ins)
    groups: dict[tuple[PathStep, ...], list[Step]] = {}
    for s in ins:
        cut = _reusable_cut(s.before, s.redex.path)
        if cut is None:
            raise InvalidTrace("inner step fires at an outer position")
        groups.setdefault(s.redex.path.steps[:cut], []).append(s)
    shape = outer_shape(mid)
    site_order = {site.path.steps: site.index for site in shape.holes}
    out = list(std_outer)
    cur = mid
    for prefix in sorted(groups, key=lambda p: site_order[p]):
        sub0 = resolve(mid, Path(prefix))
        sub_steps = _project(sub0, groups[prefix], len(prefix))
        rec = _standardize_steps(sub0, sub_steps, depth + 1)
        cur, emitted = _emit(cur, prefix, rec)
        out += emitted
    return out


def standardize(m: Term, n: Term, bound: int = 8):
    """Build a standard nd trace from m to n."""
    chain = _find_chain(m, n, bound)
    std = _standardize_steps(m, chain, 0)
    result = _trace(m, std)
    if result.final != n:
        raise SearchExhausted("standardized chain misses the endpoint")
    return result
