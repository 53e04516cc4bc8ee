"""Standard reduction chains: checking, reordering, and construction.

A non-deterministic trace is *standard* when no step fires a residual of
a redex that came strictly earlier, in the position order, than the
redex fired just before it.  A step keeps every position that precedes
its redex, so the check compares positions and needs no labels.
Standard chains are constructed by factoring a chain into an outer part
followed by an inner part, making the outer part leftmost-first by
repeated two-step swaps, splitting the inner part by the holes of the
outer shape, and recursing into the hole contents.
"""

from dataclasses import dataclass, replace

from .syntax import Abs, App, Bag, Hole, Node, Reusable, Term, Var, label_free_key
from .reduction import (
    AbsBody,
    AppArg,
    AppFun,
    BagElem,
    InvalidPath,
    InvalidTrace,
    Path,
    PathStep,
    ResourceContent,
    Step,
    Trace,
    _nd_fire,
    _ranked_elements,
    _reusable_cut,
    _search,
    find_redexes,
    fire_nd,
    make_nd_step,
    nd_reducts,
    precedes,
    resolve,
    resolve_path,
    serialize_path,
)

DEFAULT_SLACK = 2
_MAX_RECURSION = 64


class SearchExhausted(Exception):
    """A bounded search ended without a witness.

    Raised by factor_outer_inner when no outer-then-inner chain with the
    same endpoints exists within the length bound, and by reorder_outer
    when no two-step leftmost-first replacement of an adjacent step pair
    exists — the latter would contradict the swap property of leftmost
    steps and deserves a loud failure.
    """

    def __init__(self, message: str, explored: int = 0):
        super().__init__(message)
        self.explored = explored


class NoChainFound(Exception):
    """No non-deterministic chain between the endpoints within bound."""


@dataclass(frozen=True)
class StdReport:
    """Verdict of is_standard.

    When standard is false, violation is (index, prior, fired): step
    number index (0-based) fired a residual of the redex at serialized
    path prior, although prior came strictly before the path fired at
    step index - 1; both paths are in the coordinates of the term that
    step index - 1 reduced.
    """

    standard: bool
    violation: tuple[int, tuple, tuple] | None = None


@dataclass(frozen=True)
class HoleSite:
    index: int
    path: Path
    content: Term


@dataclass(frozen=True)
class OuterShape:
    """A term whose reusable contents are replaced by numbered holes."""

    skeleton: Term
    holes: tuple[HoleSite, ...]


def _replay(cur: Term, at: tuple[PathStep, ...], step: Step, depth: int) -> Step:
    """Fire step's move in cur at another position: the part of step's
    redex path below its first depth steps is carried, by rank, below
    the position at, and the same local addend is chosen."""
    steps = step.redex.path.steps
    rel = serialize_path(resolve(step.before, Path(steps[:depth])), Path(steps[depth:]))
    path = resolve_path(resolve(cur, Path(at)), rel)
    return fire_nd(cur, Path(at + path.steps), label_free_key(step.local))


def _replayed(cur: Term, at: tuple[PathStep, ...], steps: list[Step], depth: int) -> list[Step]:
    """Replay a chain of steps from cur with _replay, threading terms."""
    out: list[Step] = []
    for s in steps:
        out.append(_replay(cur, at, s, depth))
        cur = out[-1].after
    return out


def _chain(initial: Term, steps) -> list[Step]:
    """Replay a sequence of steps from initial, threading terms exactly."""
    out: list[Step] = []
    cur = initial
    for s in steps:
        if cur != s.before:
            raise InvalidTrace("steps do not chain: a source differs from the previous result")
        step = _replay(cur, (), s, 0)
        if step.after != s.after:
            raise InvalidTrace("step does not replay: recorded result is not a reduct")
        out.append(step)
        cur = step.after
    return out


def _validated(t: Trace) -> list[Step]:
    if t.mode != "nd" or any(s.mode != "nd" for s in t.steps):
        raise InvalidTrace("standardness is defined for nd traces")
    if t.steps and t.steps[0].before != t.initial:
        raise InvalidTrace("trace does not start at its initial term")
    for s in t.steps:
        if s.local is None:
            raise InvalidTrace("nd step lacks its chosen local reduct")
    return _chain(t.initial, t.steps)


def _trace(initial: Term, steps: list[Step]) -> Trace:
    final = steps[-1].after if steps else initial
    return Trace(initial, tuple(steps), "nd", final=final)


# ---------------------------------------------------------------- checking


def is_standard(t: Trace) -> StdReport:
    """Check an nd trace for standardness.

    A step rebuilds only the ancestors of its redex p and shares every
    subterm off p's path.  A position q that precedes p contains p or
    leaves p's path on a linear side, so it keeps its path, and a redex
    at q survives as its own sole residual there.  So the next step
    breaks standardness exactly when its path addresses a redex of this
    step's source that precedes p.  (An application whose function is p
    may become a redex, but it is created, not a residual.)
    """
    steps = _validated(t)
    for i, (step, nxt) in enumerate(zip(steps, steps[1:]), 1):
        cur, fired, q = step.before, step.redex.path, nxt.redex.path
        try:
            node = resolve(cur, q)
        except InvalidPath:
            continue
        if isinstance(node, App) and isinstance(node.fun, Abs) and precedes(q, fired, cur) == "Before":
            return StdReport(False, (i, serialize_path(cur, q), serialize_path(cur, fired)))
    return StdReport(True, None)


# ------------------------------------------------------------ outer shape


def outer_shape(m: Term) -> OuterShape:
    """Replace every outermost reusable content with a numbered hole."""
    sites: list[HoleSite] = []

    def walk(node, prefix: tuple[PathStep, ...], levels: dict[str, int], depth: int):
        match node:
            case Var() | Hole():
                return node
            case Abs(binder, body):
                inner = walk(body, prefix + (AbsBody(),), {**levels, binder: depth}, depth + 1)
                return replace(node, body=inner)
            case App(fun, arg, _):
                new_fun = walk(fun, prefix + (AppFun(),), levels, depth)
                new_arg = walk(arg, prefix + (AppArg(),), levels, depth)
                return replace(node, fun=new_fun, arg=new_arg)
            case Bag(elements):
                repl: dict[int, Term] = {}
                for r in _ranked_elements(node, levels, depth):
                    at = prefix + (BagElem(r.ident), ResourceContent())
                    if isinstance(r, Reusable):
                        repl[r.ident] = Hole(len(sites))
                        sites.append(HoleSite(len(sites), Path(at), r.content))
                    else:
                        repl[r.ident] = walk(r.content, at, levels, depth)
                return Bag(tuple(replace(r, content=repl[r.ident]) for r in elements))
        raise TypeError(f"not a syntax node: {node!r}")

    skeleton = walk(m, (), {}, 0)
    return OuterShape(skeleton, tuple(sites))


def plug_shape(shape: OuterShape) -> Term:
    """Reinsert hole contents; inverse of outer_shape."""
    contents = {site.index: site.content for site in shape.holes}

    def fill(node):
        match node:
            case Hole(index):
                return contents[index]
            case Var():
                return node
            case Abs():
                return replace(node, body=fill(node.body))
            case App():
                return replace(node, fun=fill(node.fun), arg=fill(node.arg))
            case Bag(elements):
                return Bag(tuple(replace(r, content=fill(r.content)) for r in elements))
        raise TypeError(f"not a syntax node: {node!r}")

    return fill(shape.skeleton)


# ----------------------------------------------------------- factorization


def _factor_search(initial: Term, target: Term, max_len: int) -> tuple[list[Step], list[Step]]:
    """Shortest outer*-then-inner* nd chain between the endpoints.

    A search state is (phase, term): phase 1 once an inner step has
    fired, after which outer steps may not follow.
    """
    if initial == target:
        return [], []

    def moves(state: tuple[int, Term]):
        phase, cur = state
        return [r for r in find_redexes(cur) if not (phase and r.outer)]

    def fire(state: tuple[int, Term], r):
        return ((step, (0 if r.outer else 1, whole)) for step, whole in _nd_fire(state[1], r))

    explored = 1
    for event, node in _search((0, initial), moves, fire, max_len, lambda s: (s[0], s[1].canon())):
        if event != "new":
            continue
        if node.state[1] == target:
            steps = node.steps()
            return [s for s in steps if s.redex.outer], [s for s in steps if not s.redex.outer]
        explored += 1
    raise SearchExhausted(
        f"no outer-then-inner chain of length <= {max_len} reaches the endpoint",
        explored,
    )


def factor_outer_inner(t: Trace) -> tuple[Trace, Trace]:
    """Split a trace into an outer part followed by an inner part.

    Found by breadth-first search over chains of length at most the
    input length plus DEFAULT_SLACK; the two returned traces share
    endpoints with the input.
    """
    steps = _validated(t)
    target = steps[-1].after if steps else t.initial
    outs, ins = _factor_search(t.initial, target, len(steps) + DEFAULT_SLACK)
    mid = outs[-1].after if outs else t.initial
    return _trace(t.initial, outs), _trace(mid, ins)


# ------------------------------------------------------------- reordering


def _leftmost_first_swap(a: Term, target: Term) -> list[Step]:
    """Replace a (non-leftmost, leftmost) step pair with a leftmost-first
    pair reaching the same term, searching all outer one-step successors."""
    for r1 in find_redexes(a):
        if not r1.leftmost:
            continue
        for l1, b in nd_reducts(a, r1):
            for r2 in find_redexes(b):
                if not r2.outer:
                    continue
                for l2, c in nd_reducts(b, r2):
                    if c == target:
                        return [make_nd_step(a, r1, l1, b), make_nd_step(b, r2, l2, c)]
    raise SearchExhausted(
        "no leftmost-first two-step replacement reaches the same term; "
        "this contradicts the swap property of leftmost steps"
    )


def _group_sort_key(initial: Term, anchor: tuple[PathStep, ...]) -> tuple:
    return (label_free_key(resolve(initial, Path(anchor))), anchor[-2].ident if len(anchor) >= 2 else 0)


def _std_pure(initial: Term, steps: list[Step]) -> list[Step]:
    """Standardize a chain with no leftmost step by splitting it at the
    root constructor and recursing into disjoint regions: the body of an
    abstraction, or the function of an application and then each of its
    bag elements in canonical order."""
    if not steps:
        return []
    if any(not s.redex.path.steps for s in steps):
        raise InvalidTrace("a root step is leftmost; pure split does not apply")
    groups: dict[tuple[PathStep, ...], list[Step]] = {}
    for s in steps:
        p = s.redex.path.steps
        groups.setdefault(p[:3] if isinstance(p[0], AppArg) else p[:1], []).append(s)
    out: list[Step] = []
    for anchor in sorted(groups, key=lambda a: (len(a), _group_sort_key(initial, a))):
        sub0 = resolve(initial, Path(anchor))
        rec = _std_outer(sub0, _replayed(sub0, (), groups[anchor], len(anchor)))
        out += _replayed(out[-1].after if out else initial, anchor, rec, 0)
    return out


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


def reorder_outer(t: Trace) -> Trace:
    """Reorder an outer nd trace so all leftmost steps come first.

    Endpoints and length are preserved; each adjacent pair with a
    leftmost step second is replaced through _leftmost_first_swap.
    """
    steps = _validated(t)
    if any(not s.redex.outer for s in steps):
        raise InvalidTrace("reorder_outer expects an outer trace")
    return _trace(t.initial, _std_outer(t.initial, steps))


# ---------------------------------------------------------- construction


def _find_chain(m: Term, n: Term, bound: int) -> list[Step]:
    """A shortest nd chain from m to n of at most bound steps."""
    if m == n:
        return []
    for event, node in _search(m, find_redexes, _nd_fire, bound, Node.canon):
        if event == "new" and node.state == n:
            return list(node.steps())
    raise NoChainFound(f"no nd chain of length <= {bound} from {m!r} to {n!r}")


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
    for prefix in sorted(groups, key=lambda p: site_order[p]):
        sub0 = resolve(mid, Path(prefix))
        rec = _standardize_steps(sub0, _replayed(sub0, (), groups[prefix], len(prefix)), depth + 1)
        out += _replayed(out[-1].after if out else mid, prefix, rec, 0)
    return out


def standardize(m: Term, n: Term, bound: int = 8) -> Trace:
    """Build a standard nd trace from m to n.

    A shortest chain is found by search, factored into outer then inner
    parts, the outer part is made leftmost-first, and the inner part is
    split by the holes of the outer shape and standardized recursively,
    gluing hole chains in canonical hole order.
    """
    chain = _find_chain(m, n, bound)
    std = _standardize_steps(m, chain, 0)
    result = _trace(m, std)
    if result.final != n:
        raise SearchExhausted("standardized chain misses the endpoint")
    return result
