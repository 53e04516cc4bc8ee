"""Redex discovery, the redex order, and the three reduction relations.

A redex is an abstraction applied to a bag.  Giant steps feed the whole
bag at once, baby steps feed one element (or finish an empty bag with a
zero substitution), and non-deterministic steps keep a single addend of
the giant result.  Redexes are addressed by paths; positions are outer
when they sit under no ! mark, and the leftmost redexes are the minimal
ones in the redex order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Union

from .substitution import _rename_binder, _reusables, bag_subst, classical_subst, resource_subst
from .syntax import (
    Abs,
    App,
    Bag,
    Hole,
    Linear,
    Node,
    Resource,
    Reusable,
    Sum,
    Term,
    Var,
    ZERO,
    _children,
    canon_at,
    element_rank,
    free_vars,
    label_free_key,
    mk_app,
    sum_abs,
)


class InvalidPath(ValueError):
    """The path does not address a position of the given expression."""


class InvalidRedex(ValueError):
    """The path does not address an abstraction applied to a bag."""


class InvalidTrace(ValueError):
    """The trace does not replay: some step is not a reduction step."""


@dataclass(frozen=True)
class AbsBody:
    pass


@dataclass(frozen=True)
class AppFun:
    pass


@dataclass(frozen=True)
class AppArg:
    pass


@dataclass(frozen=True)
class BagElem:
    ident: int


@dataclass(frozen=True)
class ResourceContent:
    pass


PathStep = Union[AbsBody, AppFun, AppArg, BagElem, ResourceContent]

_BODY, _FUN, _ARG, _CONTENT = AbsBody(), AppFun(), AppArg(), ResourceContent()
_TAG_STEPS = {"body": _BODY, "fun": _FUN, "arg": _ARG, "content": _CONTENT}
_STEP_TAGS = {type(step): tag for tag, step in _TAG_STEPS.items()}


@dataclass(frozen=True)
class Path:
    steps: tuple[PathStep, ...] = ()

    def child(self, *more: PathStep) -> "Path":
        return Path(self.steps + more)


@dataclass(frozen=True)
class Redex:
    path: Path
    rule: str  # "Empty" | "LinearHead" | "ReusableHead" | "Giant"
    outer: bool
    leftmost: bool


@dataclass(frozen=True)
class Step:
    before: Term
    redex: Redex
    mode: str  # "baby" | "giant" | "nd"
    after: Union[Sum, Term]
    local: Term | None = None  # the chosen local reduct, nd mode only

    @cached_property
    def chosen(self) -> str | None:
        """The printed local addend, nd mode only."""
        from .parser import print_expr

        return None if self.local is None else print_expr(self.local)


@dataclass(frozen=True)
class Trace:
    initial: Term
    steps: tuple[Step, ...]
    mode: str
    final: Union[Sum, Term, None] = None
    truncated: bool = False
    crashed: bool = False


def _descend(node: Node, step: PathStep) -> Node:
    """The child of node that one path step addresses."""
    match step:
        case AbsBody() if isinstance(node, Abs):
            return node.body
        case AppFun() if isinstance(node, App):
            return node.fun
        case AppArg() if isinstance(node, App):
            return node.arg
        case BagElem(ident) if isinstance(node, Bag):
            for r in node.elements:
                if r.ident == ident:
                    return r
            raise InvalidPath(f"no bag element with id {ident}")
        case ResourceContent() if isinstance(node, (Linear, Reusable)):
            return node.content
    raise InvalidPath(f"step {step!r} does not match {type(node).__name__}")


def resolve(m: Node, path: Path) -> Node:
    """The subexpression of m at the given path."""
    return _frames(m, path.steps)[1]


def _frames(m: Node, steps: Iterable[PathStep]) -> tuple[list[tuple[Node, PathStep]], Node]:
    """The (parent, step) pairs of a path, root first, and the node it
    reaches.  Walks down with _descend and raises its InvalidPath."""
    frames: list[tuple[Node, PathStep]] = []
    node = m
    for step in steps:
        frames.append((node, step))
        node = _descend(node, step)
    return frames, node


def _rebuild(frames: list[tuple[Node, PathStep]], node: Node) -> Node:
    """Put node where the path of frames ends.  Every subterm off the
    path is shared, and each bag element keeps its id and its place."""
    for parent, step in reversed(frames):
        match step:
            case AbsBody():
                node = Abs(parent.binder, node)
            case AppFun():
                node = App(node, parent.arg, parent.label)
            case AppArg():
                node = App(parent.fun, node, parent.label)
            case BagElem(ident):
                node = Bag(tuple(node if r.ident == ident else r for r in parent.elements))
            case ResourceContent():
                node = type(parent)(node, parent.ident)
    return node


def _reusable_cut(m: Node, path: Path) -> int | None:
    """Length of the shortest prefix of the path that enters the content
    of a reusable element, or None when the path enters none."""
    frames, _ = _frames(m, path.steps)
    return next((i + 1 for i, (parent, _) in enumerate(frames) if isinstance(parent, Reusable)), None)


def _ranked_elements(bag: Bag, levels: dict[str, int], depth: int) -> tuple[Resource, ...] | list[Resource]:
    """A bag's elements in rank order: by canonical form under the binders
    in scope, keyed as canon_at keys them, then by place.  A bag of fewer
    than two elements is not ranked."""
    if len(bag.elements) < 2:
        return bag.elements
    keyed = [(canon_at(r, levels, depth, ignore_labels=True), i, r) for i, r in enumerate(bag.elements)]
    return [r for _, _, r in sorted(keyed, key=lambda t: (t[0], t[1]))]


def serialize_path(m: Node, path: Path) -> tuple:
    """Id-free form of a path: bag elements become canonical ranks."""
    frames, _ = _frames(m, path.steps)
    out: list = []
    levels: dict[str, int] = {}
    depth = 0  # binders entered; a shadowed binder keeps one entry in levels
    for parent, step in frames:
        match step:
            case BagElem(ident):
                out.append(("elem", [r.ident for r in _ranked_elements(parent, levels, depth)].index(ident)))
            case AbsBody():
                levels[parent.binder] = depth
                depth += 1
                out.append("body")
            case _:
                out.append(_STEP_TAGS[type(step)])
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
            case (Bag(), ("elem", rank)):
                ranked = _ranked_elements(node, levels, depth)
                if not 0 <= rank < len(ranked):
                    raise InvalidPath(f"bag rank {rank} out of range")
                step = BagElem(ranked[rank].ident)
            case (_, str()) if tag in _TAG_STEPS:
                step = _TAG_STEPS[tag]
            case _:
                raise InvalidPath(f"tag {tag!r} does not match {type(node).__name__}")
        try:
            child = _descend(node, step)
        except InvalidPath:
            raise InvalidPath(f"tag {tag!r} does not match {type(node).__name__}") from None
        if isinstance(node, Abs):
            levels[node.binder] = depth
            depth += 1
        steps.append(step)
        node = child
    return Path(tuple(steps))


_TAG_ORDER = {"body": 0, "fun": 1, "arg": 2, "content": 4}


def path_sort_key(spath: tuple) -> tuple:
    return tuple((3, t[1]) if isinstance(t, tuple) else (_TAG_ORDER[t], 0) for t in spath)


def path_key(m: Node, path: Path) -> tuple:
    return path_sort_key(serialize_path(m, path))


def transport_path(src: Node, path: Path, dst: Node) -> Path:
    """Carry a path between alpha-equivalent expressions by rank."""
    return resolve_path(dst, serialize_path(src, path))


def _spelled(link: tuple | None) -> tuple[PathStep, ...]:
    """The steps of a linked path, root first."""
    chunks = []
    while link is not None:
        link, steps = link
        chunks.append(steps)
    return tuple(step for steps in reversed(chunks) for step in steps)


def _bag_rule(bag: Bag) -> str:
    if not bag.elements:
        return "Empty"
    least = min(bag.elements, key=element_rank)
    return "LinearHead" if isinstance(least, Linear) else "ReusableHead"


_WALK, _BAG, _RANK = range(3)


def _redexes(m: Term, leftmost_only: bool) -> list[Redex]:
    """The redexes of m in path order, flagged outer and leftmost; with
    leftmost_only, the leftmost ones alone.

    One depth-first walk with an explicit stack emits a node's own redex,
    then those of its function, then those of its bag's elements in
    _ranked_elements' order; a bag is ranked only when two or more of its
    elements hold redexes.  Nothing inside a redex is leftmost, nor
    inside a ! element, and a bag's linear elements hold leftmost
    redexes only when its function side holds none; leftmost_only skips
    those places.  Paths are linked to their parents and spelled out
    only for the redexes found.

    An entry is (op, node, link, outer, leftmost, levels, depth, out,
    extra).  _WALK walks node into the list out.  _BAG walks the bag of
    the application node after its function side, begun when extra
    leftmost redexes had been found.  _RANK appends to out, in rank
    order, the lists of extra that the elements of the bag node filled.
    """
    found: list[Redex] = []
    lefts = 0  # leftmost redexes found so far
    stack: list[tuple] = [(_WALK, m, None, True, True, {}, 0, found, None)]
    while stack:
        op, node, link, outer, leftmost, levels, depth, out, extra = stack.pop()
        if op == _RANK:
            held = [got for got in extra if got]
            if len(held) > 1:
                by_ident = {r.ident: got for r, got in zip(node.elements, extra)}
                held = [by_ident[r.ident] for r in _ranked_elements(node, levels, depth)]
            for got in held:
                out += got
        elif op == _BAG:
            bag_leftmost = leftmost and lefts == extra
            if leftmost_only and not bag_leftmost:
                continue
            elements = node.arg.elements
            if len(elements) > 1:
                outs = [[] for _ in elements]
                stack.append((_RANK, node.arg, None, False, False, levels, depth, out, outs))
            else:
                outs = [out] * len(elements)
            for r, got in zip(reversed(elements), reversed(outs)):
                linear = isinstance(r, Linear)
                if linear or not leftmost_only:
                    child = (link, (_ARG, BagElem(r.ident), _CONTENT))
                    stack.append(
                        (_WALK, r.content, child, outer and linear, bag_leftmost and linear, levels, depth, got, None)
                    )
        elif isinstance(node, Abs):
            inner = {**levels, node.binder: depth}
            stack.append((_WALK, node.body, (link, (_BODY,)), outer, leftmost, inner, depth + 1, out, None))
        elif isinstance(node, App):
            if isinstance(node.fun, Abs):
                out.append(Redex(Path(_spelled(link)), _bag_rule(node.arg), outer, leftmost))
                lefts += leftmost
                if leftmost_only:
                    continue
                leftmost = False
            stack.append((_BAG, node, link, outer, leftmost, levels, depth, out, lefts))
            stack.append((_WALK, node.fun, (link, (_FUN,)), outer, leftmost, levels, depth, out, None))
    return found


def find_redexes(m: Term) -> list[Redex]:
    """All redexes of m in path order, flagged outer and leftmost.

    The walk of _redexes finds them already ordered as path_key orders
    them, and keeps an explicit stack, so deep terms need no recursion.
    """
    return _redexes(m, False)


def leftmost_set(m: Term) -> set[Redex]:
    # Leftmost redexes are always outer.
    return set(_redexes(m, True))


def _least_leftmost(m: Term) -> Redex | None:
    """The least leftmost redex in path order."""
    return next(iter(_redexes(m, True)), None)


def is_onf(m: Term) -> bool:
    """Outer normal form: no redex outside every ! mark.

    Walks the linear positions only, with an explicit stack, and stops
    at the first redex.
    """
    stack = [m]
    while stack:
        node = stack.pop()
        match node:
            case Var():
                pass
            case Abs(_, body):
                stack.append(body)
            case App(fun, arg, _):
                if isinstance(fun, Abs):
                    return False
                stack.append(fun)
                stack.extend(r.content for r in arg.elements if isinstance(r, Linear))
            case _:
                raise TypeError(f"not a syntax node: {node!r}")
    return True


def precedes(p1: Path, p2: Path, m: Term) -> str:
    """Order two positions of m: "Before", "After", or "Incomparable".

    A position containing another comes first; at a divergence point a
    linear position precedes a non-linear one, and between two linear
    positions of an application the function side precedes the argument
    side.
    """
    f1, _ = _frames(m, p1.steps)
    f2, _ = _frames(m, p2.steps)
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
    lin1 = not any(isinstance(parent, Reusable) for parent, _ in f1[k:])
    lin2 = not any(isinstance(parent, Reusable) for parent, _ in f2[k:])
    if lin1 and not lin2:
        return "Before"
    if lin2 and not lin1:
        return "After"
    if lin1 and lin2 and isinstance(f1[k][0], App):
        if isinstance(s1[k], AppFun) and isinstance(s2[k], AppArg):
            return "Before"
        if isinstance(s1[k], AppArg) and isinstance(s2[k], AppFun):
            return "After"
    return "Incomparable"


def plug(m: Term, path: Path, s: Sum) -> Sum:
    """Replace the subterm at path with a sum, distributing contexts.

    Abstractions and applications distribute addend by addend; a linear
    element distributes likewise, while a reusable element collapses the
    sum into sibling elements of a single bag.  Untouched subterms are
    shared, so element ids away from the path are stable; a reusable
    element filled with a one-addend sum keeps its id too.  The filled
    element comes first in its bag.  The addends are rebuilt up the path
    as plain pairs, the elements of a bag as tuples, with one Sum built at
    the end.
    """
    frames, node = _frames(m, path.steps)
    if not isinstance(node, Term):
        raise InvalidPath("path into a bag must address an element's content")
    return _plugged(frames, s)


def _plugged(frames: list[tuple[Node, PathStep]], s: Sum) -> Sum:
    """plug, given the frames of a path that reaches a term."""
    if not frames:
        return s
    pairs: list = list(s.addends)
    for parent, step in reversed(frames):
        match step:
            case AbsBody():
                pairs = [(Abs(parent.binder, t), k) for t, k in pairs]
            case AppFun():
                pairs = [(App(t, parent.arg, parent.label), k) for t, k in pairs]
            case AppArg():
                pairs = [(App(parent.fun, b, parent.label), k) for b, k in pairs]
            case BagElem(ident):
                rest = tuple(e for e in parent.elements if e.ident != ident)
                pairs = [(Bag(es + rest), k) for es, k in pairs]
            case ResourceContent() if isinstance(parent, Linear):
                pairs = [((Linear(t, parent.ident),), k) for t, k in pairs]
            case ResourceContent():
                pairs = [(_reusables(pairs, parent.ident), 1)]
    return Sum(tuple(pairs))


def _redex_frames(m: Term, path: Path) -> tuple[list[tuple[Node, PathStep]], App]:
    """The frames of a path and the redex it reaches; one walk down."""
    frames, node = _frames(m, path.steps)
    if not (isinstance(node, App) and isinstance(node.fun, Abs)):
        raise InvalidRedex(f"no redex at {serialize_path(m, path)!r}")
    return frames, node


def _redex_node(m: Term, path: Path) -> App:
    return _redex_frames(m, path)[1]


def _leftmost_frame(parent: Node, step: PathStep) -> bool:
    """Whether _leftmost's walk goes on from parent along step: not into
    a redex, not into a ! element, and into a bag only when the function
    beside it holds no outer redex."""
    if isinstance(parent, App):
        return not isinstance(parent.fun, Abs) and (isinstance(step, AppFun) or is_onf(parent.fun))
    return not isinstance(parent, Reusable)


def _redex_of(frames: list[tuple[Node, PathStep]], node: App, path: Path) -> Redex:
    """The Redex at the end of frames, flagged as find_redexes flags it."""
    outer = not any(isinstance(parent, Reusable) for parent, _ in frames)
    leftmost = outer and all(_leftmost_frame(parent, step) for parent, step in frames)
    return Redex(path, _bag_rule(node.arg), outer, leftmost)


def redex_at(m: Term, path: Path) -> Redex:
    return _redex_of(*_redex_frames(m, path), path)


def _fresh_redex(node: App) -> tuple[str, Term, Bag]:
    """Binder, body, and bag of a redex, renamed so the binder is free
    to receive the bag's contents."""
    binder, body, bag = node.fun.binder, node.fun.body, node.arg
    if binder in free_vars(bag):
        binder, body = _rename_binder(binder, body, free_vars(bag))
    return binder, body, bag


def giant_local(node: App) -> Sum:
    """Whole-bag firing of one redex.

    The linear elements are fed first, one linear substitution each in
    element_rank order; then one classical substitution gives every
    remaining occurrence of the binder the sum of the ! contents, since
    [N1+x/x]...[Nk+x/x][0/x] = [N1+...+Nk/x].  With no ! element that sum
    is 0, the zeroing that ends the firing.
    """
    binder, body, bag = _fresh_redex(node)
    acc = Sum.of(body)
    for r in sorted((r for r in bag.elements if isinstance(r, Linear)), key=element_rank):
        acc = resource_subst(acc, binder, r)
    bang = Sum(tuple((r.content, 1) for r in bag.elements if isinstance(r, Reusable)))
    return classical_subst(acc, binder, bang)


def baby_local(node: App) -> Sum:
    """One-element firing: the canonically least element is consumed."""
    binder, body, bag = _fresh_redex(node)
    if not bag.elements:
        return classical_subst(body, binder, ZERO)
    least = min(bag.elements, key=element_rank)
    rest = Bag(tuple(e for e in bag.elements if e.ident != least.ident))
    return mk_app(sum_abs(binder, resource_subst(body, binder, least)), Sum.of(rest), None)


def giant_step(m: Term, r: Redex) -> Sum:
    frames, node = _redex_frames(m, r.path)
    return _plugged(frames, giant_local(node))


def baby_step(m: Term, r: Redex) -> Sum:
    frames, node = _redex_frames(m, r.path)
    return _plugged(frames, baby_local(node))


def baby_expand(m: Term, r: Redex) -> Sum:
    """Fire one redex with baby steps until the bag and binder are gone.

    bag_subst feeds the elements one at a time, least first as
    baby_local picks them, and the final [0/x] is the empty bag's step.
    Agrees with giant_step: feeding elements one at a time and then
    zeroing is the same as feeding the whole bag.
    """
    frames, node = _redex_frames(m, r.path)
    binder, body, bag = _fresh_redex(node)
    return _plugged(frames, classical_subst(bag_subst(body, binder, bag), binder, ZERO))


def nd_reducts(m: Term, r: Redex) -> list[tuple[Term, Term]]:
    """(local addend, whole term) pairs, one per giant-result addend,
    deduplicated and in canonical order of the local addend.  A fresh
    list of the pairs _nd_pairs keeps on m."""
    return list(_nd_pairs(m, r.path))


def _nd_pairs(m: Term, path: Path, walked=None) -> tuple[tuple[Term, Term], ...]:
    """The nd reducts of the redex of m at path, memoized on m by the
    path's steps: fired once, then the same pairs on every call, so the
    whole terms keep their own caches.  walked is _redex_frames(m, path)
    when the caller already has it.  Raises InvalidRedex on a path that
    addresses no redex."""
    memo = m._nd_cache
    pairs = None if memo is None else memo.get(path.steps)
    if pairs is None:
        frames, node = walked or _redex_frames(m, path)
        out: list[tuple[Term, Term]] = []
        seen = set()
        for t, _ in giant_local(node):
            if t.canon() in seen:
                continue
            seen.add(t.canon())
            out.append((t, _plugged(frames, Sum.of(t)).sole()))
        out.sort(key=lambda p: p[0].canon())
        if memo is None:
            memo = {}
            object.__setattr__(m, "_nd_cache", memo)
        pairs = memo[path.steps] = tuple(out)
    return pairs


def _redex_and_pairs(m: Term, path: Path) -> tuple[Redex, tuple[tuple[Term, Term], ...]]:
    """The Redex at path and its nd reducts, from one walk down."""
    walked = _redex_frames(m, path)
    return _redex_of(*walked, path), _nd_pairs(m, path, walked)


def nd_step(m: Term, r: Redex) -> set[Term]:
    """All one-addend outcomes of firing r; empty means the step crashes."""
    return {whole for _, whole in nd_reducts(m, r)}


def make_giant_step(m: Term, r: Redex) -> Step:
    """The giant step firing r, a redex of m as find_redexes or
    _least_leftmost give it."""
    return Step(m, Redex(r.path, "Giant", r.outer, r.leftmost), "giant", giant_step(m, r))


def make_baby_step(m: Term, r: Redex) -> Step:
    """The baby step firing r, a redex of m as find_redexes or
    _least_leftmost give it."""
    return Step(m, r, "baby", baby_step(m, r))


def make_nd_step(m: Term, r: Redex, local: Term, whole: Term) -> Step:
    """The nd step firing r, a redex of m as find_redexes, _least_leftmost
    or redex_at give it, to the local addend local."""
    return Step(m, Redex(r.path, "Giant", r.outer, r.leftmost), "nd", whole, local=local)


def fire_nd(m: Term, path: Path, chosen=None) -> Step:
    """Fire one nd step; chosen picks the local addend by canonical form
    (least when omitted).  Raises InvalidTrace when nothing matches."""
    r, pairs = _redex_and_pairs(m, path)
    if not pairs:
        raise InvalidTrace("the fired redex reduces to zero")
    if chosen is None:
        local, whole = pairs[0]
    else:
        matching = [(t, w) for t, w in pairs if label_free_key(t) == chosen]
        if not matching:
            raise InvalidTrace("chosen addend is not a reduct of the fired redex")
        local, whole = matching[0]
    return make_nd_step(m, r, local, whole)


def label(m: Term, targets: Iterable[Path]) -> Term:
    """Attach labels 1..n to the redexes at the given paths, in path order."""
    return _label_in_order(m, sorted(targets, key=lambda p: path_key(m, p)))


def _label_in_order(m: Term, paths: Iterable[Path]) -> Term:
    """Attach labels 1..n to the redexes at paths already in path order."""
    out = m
    for i, p in enumerate(paths, 1):
        frames, node = _redex_frames(out, p)
        out = _rebuild(frames, replace(node, label=i))
    return out


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


def erase_labels(m: Node) -> Node:
    """m with every redex label removed.  Each node that holds no label is
    returned as it is, so its cached keys carry over; bag elements keep
    their ids.  Every node returned is marked label-free, and a marked
    node is returned at once, without a walk.  Walks with an explicit
    stack, children before parents."""
    done: list[Node] = []
    stack: list[tuple[Node, tuple | None]] = [(m, None)]
    while stack:
        node, kids = stack.pop()
        if isinstance(node, (Var, Hole)) or getattr(node, "_label_free", False):
            done.append(node)
        elif kids is None:
            kids = _children(node)
            stack.append((node, kids))
            stack.extend((c, None) for c in reversed(kids))
        else:
            erased = done[len(done) - len(kids) :]
            del done[len(done) - len(kids) :]
            node = _with_children(node, kids, erased)
            object.__setattr__(node, "_label_free", True)
            done.append(node)
    return done[0]


def _with_children(node: Node, kids: tuple, erased: list[Node]) -> Node:
    """node with its children kids replaced by erased and its label
    dropped; node itself when that changes nothing."""
    if getattr(node, "label", None) is None and all(e is k for e, k in zip(erased, kids)):
        return node
    match node:
        case Abs(binder):
            return Abs(binder, erased[0])
        case App():
            return App(erased[0], erased[1], None)
        case Linear() | Reusable():
            return type(node)(erased[0], node.ident)
        case Bag():
            return Bag(tuple(erased))
        case Sum(addends):
            return Sum(tuple((e, k) for e, (_, k) in zip(erased, addends)))
    raise TypeError(f"not a syntax node: {node!r}")


def residuals(labelled_term: Term, step: Step) -> dict[int, set[Path]]:
    """Where each labelled redex survives after the given nd step.

    The labelled term must erase to the step's source; residuals are
    collected in every labelled addend matching the step's result.
    """
    if step.mode != "nd":
        raise ValueError("residual tracking follows nd steps")
    if erase_labels(labelled_term) != step.before:
        raise InvalidTrace("labelled term does not erase to the step source")
    path = transport_path(step.before, step.redex.path, labelled_term)
    frames, node = _redex_frames(labelled_term, path)
    out: dict[int, set[Path]] = {}
    for t, _ in giant_local(node):
        whole = _plugged(frames, Sum.of(t)).sole()
        if erase_labels(whole) == step.after:
            for lab, paths in labels_in(whole).items():
                out.setdefault(lab, set()).update(paths)
    return out


def _sum_replace(state: Sum, target: Term, after: Sum) -> Sum:
    """Replace one occurrence of an addend with a whole sum."""
    items = []
    removed = False
    for e, k in state:
        if not removed and e == target:
            if k > 1:
                items.append((e, k - 1))
            removed = True
        else:
            items.append((e, k))
    if not removed:
        raise InvalidTrace("stepped addend is not in the state")
    return Sum(tuple(items)) + after


def _candidates(m: Term, leftmost_only: bool) -> list[Redex]:
    """The redexes a run may fire from m: all of them in path order, or
    only the least leftmost one."""
    if not leftmost_only:
        return find_redexes(m)
    least = _least_leftmost(m)
    return [] if least is None else [least]


def _nd_leftmost_run(m: Term, budget: int) -> Trace:
    steps: list[Step] = []
    cur = m
    for _ in range(budget):
        r = _least_leftmost(cur)
        if r is None:
            return Trace(m, tuple(steps), "nd", final=cur)
        pairs = _nd_pairs(cur, r.path)
        if not pairs:
            return Trace(m, tuple(steps), "nd", final=cur, crashed=True)
        local, whole = pairs[0]
        steps.append(make_nd_step(cur, r, local, whole))
        cur = whole
    done = is_onf(cur)
    return Trace(m, tuple(steps), "nd", final=cur, truncated=not done)


def _nd_paths_run(m: Term, budget: int, paths: Iterable) -> Trace:
    steps: list[Step] = []
    cur = m
    for spath in list(paths)[:budget]:
        step = fire_nd(cur, resolve_path(cur, spath))
        steps.append(step)
        cur = step.after
    return Trace(m, tuple(steps), "nd", final=cur)


@dataclass
class _SearchNode:
    """A search state, with the step that reached it from its parent."""

    state: object
    parent: "_SearchNode | None"
    step: Step | None
    depth: int

    def steps(self) -> tuple[Step, ...]:
        """The steps from the root to this node."""
        out = []
        node = self
        while node.step is not None:
            out.append(node.step)
            node = node.parent
        return tuple(reversed(out))


def _search(root, moves, fire, budget: int, key):
    """Bounded breadth-first search from root, one event per outcome.

    moves(state) lists a state's moves without firing them; an empty
    list marks a final state.  fire(state, move) yields (step, next
    state) pairs; yielding none marks a crashed move.  States are
    deduplicated by key(state).  Yields (event, node) in search order:
    "cut" for a state at the depth budget, whose moves are not listed,
    "final" for a final state, "crash" once per crashed move of a state,
    and for each child "new" the first time its key is reached or "seen"
    afterwards.
    """
    queue = deque([_SearchNode(root, None, None, 0)])
    visited = {key(root)}
    while queue:
        node = queue.popleft()
        if node.depth >= budget:
            yield "cut", node
            continue
        ms = moves(node.state)
        if not ms:
            yield "final", node
            continue
        for move in ms:
            crashed = True
            for step, state in fire(node.state, move):
                crashed = False
                child = _SearchNode(state, node, step, node.depth + 1)
                k = key(state)
                if k in visited:
                    yield "seen", child
                else:
                    visited.add(k)
                    queue.append(child)
                    yield "new", child
            if crashed:
                yield "crash", node


def _nd_fire(m: Term, r: Redex):
    """Each nd step of firing r, with the term it reaches."""
    return ((make_nd_step(m, r, local, whole), whole) for local, whole in _nd_pairs(m, r.path))


def _run_traces(m: Term, mode: str, moves, events) -> list[Trace]:
    """One trace per search event except "new".  A repeated state still
    gets a (truncated) trace, so every explored edge shows up; a state
    at the depth cut with no moves is final."""
    out: list[Trace] = []
    for event, node in events:
        if event == "new":
            continue
        crashed = (event == "crash") if mode == "nd" else node.state.is_zero
        truncated = event == "seen" or (event == "cut" and bool(moves(node.state)))
        out.append(Trace(m, node.steps(), mode, final=node.state, truncated=truncated, crashed=crashed))
    return out


def _nd_all_run(m: Term, budget: int) -> list[Trace]:
    return _run_traces(m, "nd", find_redexes, _search(m, find_redexes, _nd_fire, budget, Node.canon))


def _sum_run(m: Term, mode: str, budget: int, leftmost_only: bool) -> list[Trace]:
    """Whole-sum reduction search: each step rewrites one addend
    occurrence, branching over addends (and over redexes unless
    leftmost_only)."""
    make = make_giant_step if mode == "giant" else make_baby_step

    def moves(state: Sum) -> list[tuple[Term, Redex]]:
        return [(e, r) for e, _ in state for r in _candidates(e, leftmost_only)]

    def fire(state: Sum, move: tuple[Term, Redex]):
        step = make(*move)
        return [(step, _sum_replace(state, step.before, step.after))]

    return _run_traces(m, mode, moves, _search(Sum.of(m), moves, fire, budget, Node.canon))


def strategy_run(m: Term, mode: str = "nd", pick: str = "leftmost", budget: int = 100, paths=None) -> list[Trace]:
    """Run a reduction strategy from m.

    nd mode walks single terms: leftmost-first is deterministic (least
    leftmost redex, least addend), paths fires a given path sequence,
    and all searches every redex and addend with states deduplicated by
    canonical form.  giant and baby modes walk whole sums, branching
    over addends; leftmost restricts each addend to its leftmost redex.
    Traces stop at normal forms, at the step budget (truncated), on
    cycles (truncated), or when a choice reduces to zero (crashed).
    """
    if mode == "nd":
        if pick == "leftmost":
            return [_nd_leftmost_run(m, budget)]
        if pick == "paths":
            return [_nd_paths_run(m, budget, paths or ())]
        if pick == "all":
            return _nd_all_run(m, budget)
    elif mode in ("giant", "baby"):
        if pick == "paths":
            raise ValueError("path picking applies to nd mode only")
        return _sum_run(m, mode, budget, pick == "leftmost")
    raise ValueError(f"unknown strategy {mode!r}/{pick!r}")


def step_record(index: int, s: Step) -> dict:
    from .parser import print_expr

    def jsonable(spath):
        return [t if isinstance(t, str) else {"elem": t[1]} for t in spath]

    return {
        "index": index,
        "rule": s.redex.rule,
        "mode": s.mode,
        "redex_path": jsonable(serialize_path(s.before, s.redex.path)),
        "chosen_addend": s.chosen,
        "term_before": print_expr(s.before),
        "term_after": print_expr(s.after),
    }


def trace_records(t: Trace) -> list[dict]:
    return [step_record(i, s) for i, s in enumerate(t.steps)]


def trace_from_records(records: list[dict]) -> Trace:
    """Rebuild and validate an nd trace from its serialized steps.

    Each step is the nd reduct at its path that equals term_after.
    chosen_addend is not read: printed on its own, it may name a variable
    bound outside the redex otherwise than term_before does.
    """
    from .parser import parse_term

    if not records:
        raise InvalidTrace("empty record list")
    required = ("index", "mode", "redex_path", "term_before", "term_after")
    for rec in records:
        missing = [k for k in required if k not in rec]
        if missing:
            raise InvalidTrace(f"step record lacks {', '.join(missing)}")
    cur = parse_term(records[0]["term_before"])
    initial = cur
    steps = []
    for rec in records:
        if rec["mode"] != "nd":
            raise InvalidTrace("only nd traces can be rebuilt from records")
        if parse_term(rec["term_before"]) != cur:
            raise InvalidTrace(f"step {rec['index']} does not chain")
        path = resolve_path(cur, rec["redex_path"])
        r, pairs = _redex_and_pairs(cur, path)
        after = parse_term(rec["term_after"])
        pair = next((p for p in pairs if p[1] == after), None)
        if pair is None:
            raise InvalidTrace(f"step {rec['index']} result does not match")
        steps.append(make_nd_step(cur, r, *pair))
        cur = pair[1]
    return Trace(initial, tuple(steps), "nd", final=cur)
