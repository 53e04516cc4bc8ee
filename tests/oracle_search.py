"""Frozen oracle: the breadth-first searches as they were before they
shared one search skeleton.

`_nd_all_run` and `_sum_run` (the `--pick all` and giant/baby runs of
`strategy_run`), `_find_chain` (the shortest nd chain behind
`standardize`) and `_factor_search` (the outer-then-inner chain behind
`factor_outer_inner`) are kept verbatim, with their node types and trace
builders, so the differential test in test_search_order.py compares the
library against a fixed reference rather than against itself.  Do not
edit these functions to follow the library.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from rescal.reduction import (
    Step,
    Trace,
    _candidates,
    _nd_leftmost_run,
    _sum_replace,
    baby_step,
    find_redexes,
    fire_nd,
    giant_step,
    make_nd_step,
    nd_reducts,
    redex_at,
)
from rescal.standardization import NoChainFound, SearchExhausted
from rescal.syntax import Sum, Term, canon_at


def _key(local: Term) -> tuple:
    return canon_at(local, {}, 0, ignore_labels=True)


@dataclass
class _SearchNode:
    term: Term
    parent: "_SearchNode | None"
    step: Step | None
    depth: int


def _trace_of(node: _SearchNode, mode: str, **flags) -> Trace:
    steps = []
    cur = node
    while cur.step is not None:
        steps.append(cur.step)
        cur = cur.parent
    steps.reverse()
    return Trace(cur.term, tuple(steps), mode, final=node.term, **flags)


def _nd_all_run(m: Term, budget: int) -> list[Trace]:
    root = _SearchNode(m, None, None, 0)
    queue = deque([root])
    visited = {m.canon()}
    out: list[Trace] = []
    while queue:
        node = queue.popleft()
        rs = find_redexes(node.term)
        if not rs:
            out.append(_trace_of(node, "nd"))
            continue
        if node.depth >= budget:
            out.append(_trace_of(node, "nd", truncated=True))
            continue
        for r in rs:
            pairs = nd_reducts(node.term, r)
            if not pairs:
                out.append(_trace_of(node, "nd", crashed=True))
                continue
            for local, whole in pairs:
                step = make_nd_step(node.term, r, local, whole)
                child = _SearchNode(whole, node, step, node.depth + 1)
                if whole.canon() in visited:
                    # A repeated state still gets a trace, so every
                    # explored edge shows up in the output.
                    out.append(_trace_of(child, "nd", truncated=True))
                else:
                    visited.add(whole.canon())
                    queue.append(child)
    return out


@dataclass
class _SumNode:
    state: Sum
    parent: "_SumNode | None"
    step: Step | None
    depth: int


def _sum_trace_of(initial: Term, node: _SumNode, mode: str, **flags) -> Trace:
    steps = []
    cur = node
    while cur.step is not None:
        steps.append(cur.step)
        cur = cur.parent
    steps.reverse()
    crashed = flags.pop("crashed", node.state.is_zero)
    return Trace(initial, tuple(steps), mode, final=node.state, crashed=crashed, **flags)


def _sum_run(m: Term, mode: str, budget: int, leftmost_only: bool) -> list[Trace]:
    """Whole-sum reduction search: each step rewrites one addend
    occurrence, branching over addends (and over redexes unless
    leftmost_only)."""
    fire = giant_step if mode == "giant" else baby_step
    rule = "Giant" if mode == "giant" else None
    root = _SumNode(Sum.of(m), None, None, 0)
    queue = deque([root])
    visited = {root.state.canon()}
    out: list[Trace] = []
    while queue:
        node = queue.popleft()
        targets = [(e, _candidates(e, leftmost_only)) for e, _ in node.state]
        targets = [(e, rs) for e, rs in targets if rs]
        if not targets:
            out.append(_sum_trace_of(m, node, mode))
            continue
        if node.depth >= budget:
            out.append(_sum_trace_of(m, node, mode, truncated=True))
            continue
        for e, rs in targets:
            for r in rs:
                after = fire(e, r)
                redex = redex_at(e, r.path)
                if rule:
                    redex = replace(redex, rule=rule)
                step = Step(e, redex, mode, after)
                child_state = _sum_replace(node.state, e, after)
                child = _SumNode(child_state, node, step, node.depth + 1)
                if child_state.canon() in visited:
                    out.append(_sum_trace_of(m, child, mode, truncated=True))
                else:
                    visited.add(child_state.canon())
                    queue.append(child)
    return out


def strategy_run(m: Term, mode: str, pick: str, budget: int) -> list[Trace]:
    """The dispatch of strategy_run for the picks "all" and "leftmost"."""
    if mode == "nd":
        if pick == "leftmost":
            return [_nd_leftmost_run(m, budget)]
        return _nd_all_run(m, budget)
    return _sum_run(m, mode, budget, pick == "leftmost")


def _factor_search(initial: Term, target: Term, max_len: int):
    """Shortest outer*-then-inner* nd chain between the endpoints."""
    start = (0, initial, [], [])
    queue = deque([start])
    visited = {(0, initial.canon())}
    explored = 0
    while queue:
        phase, cur, outs, ins = queue.popleft()
        if cur == target:
            return outs, ins
        explored += 1
        if len(outs) + len(ins) >= max_len:
            continue
        for r in find_redexes(cur):
            if r.outer and phase == 1:
                continue  # outer steps may not follow an inner one
            for local, whole in nd_reducts(cur, r):
                key = (0 if r.outer else 1, whole.canon())
                if key in visited:
                    continue
                visited.add(key)
                step = fire_nd(cur, r.path, _key(local))
                if r.outer:
                    queue.append((0, whole, outs + [step], ins))
                else:
                    queue.append((1, whole, outs, ins + [step]))
    raise SearchExhausted(
        f"no outer-then-inner chain of length <= {max_len} reaches the endpoint",
        explored,
    )


def _find_chain(m: Term, n: Term, bound: int) -> list[Step]:
    if m == n:
        return []
    queue = deque([(m, [])])
    visited = {m.canon()}
    while queue:
        cur, steps = queue.popleft()
        if len(steps) >= bound:
            continue
        for r in find_redexes(cur):
            for local, whole in nd_reducts(cur, r):
                if whole.canon() in visited:
                    continue
                visited.add(whole.canon())
                step = fire_nd(cur, r.path, _key(local))
                if whole == n:
                    return steps + [step]
                queue.append((whole, steps + [step]))
    raise NoChainFound(f"no nd chain of length <= {bound} from {m!r} to {n!r}")
