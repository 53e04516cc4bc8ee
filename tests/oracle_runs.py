"""Frozen oracle: the single runs as they were before a run mapped each
term it reaches to the first node of its alpha-class.

The leftmost nd run, the term and bag machines under one policy, and the
single-policy path of machine_step_run go on from every fresh reduct they
build, so a run round a cycle fires a new node at every step.  The
differential tests in test_alpha_class_runs.py compare the library's
runs with these, printed.  Do not edit these functions to follow the
library.
"""

from __future__ import annotations

import random
from dataclasses import replace

from rescal.machine import (
    POLICIES,
    BudgetExhausted,
    Converged,
    MachineNode,
    Undefined,
    _Out,
    _pick,
    _spine,
    _spine_fire,
    _Undef,
)
from rescal.reduction import Step, Trace, _least_leftmost, _nd_pairs, erase_labels, is_onf, make_nd_step
from rescal.syntax import Abs, App, Bag, Linear, Term, Var, element_rank


def nd_leftmost_run(m: Term, budget: int) -> Trace:
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


class _Budget:
    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("budget must be at least 1")
        self.limit = limit
        self.spent = 0

    def spend(self):
        if self.spent >= self.limit:
            raise _Out()
        self.spent += 1


def _nd_once(m: Term, policy: str, rng, budget: _Budget) -> MachineNode:
    frames: list[tuple[Term, str, Term | None, bool]] = []
    cur = m
    while True:
        budget.spend()
        if is_onf(cur):
            node = MachineNode(cur, "end", cur, None, ())
            break
        match cur:
            case Abs():
                frames.append((cur, "lambda", None, True))
                cur = cur.body
                continue
            case App():
                head, apps = _spine(cur)
                if isinstance(head, Var):
                    kids = tuple(_b_once(a.arg, policy, rng, budget) for a in apps)
                    out = head
                    for a, k in zip(apps, kids):
                        out = App(out, k.output, a.label)
                    node = MachineNode(cur, "head", out, None, kids)
                    break
                fired = _spine_fire(cur)
                if fired[0] == "0":
                    frames.append((cur, "0", None, False))
                    cur = fired[1][0][2]
                    continue
                rule, conts, width = _pick(policy, rng, fired)
                if not conts:
                    raise _Undef(cur)
                _, local, cont = _pick(policy, rng, conts)
                frames.append((cur, rule, local if width > 1 else None, False))
                cur = cont
                continue
        raise TypeError(f"not a machine subject: {cur!r}")
    for source, rule, choice, under_binder in reversed(frames):
        output = replace(source, body=node.output) if under_binder else node.output
        node = MachineNode(source, rule, output, choice, (node,))
    return node


def _b_once(p: Bag, policy: str, rng, budget: _Budget) -> MachineNode:
    budget.spend()
    if not p.elements:
        return MachineNode(p, "1b", p, None, ())
    elem = min(p.elements, key=element_rank)
    rest = Bag(tuple(r for r in p.elements if r is not elem))
    if isinstance(elem, Linear):
        child0 = _nd_once(elem.content, policy, rng, budget)
        child1 = _b_once(rest, policy, rng, budget)
        out = Bag((replace(elem, content=child0.output),) + child1.output.elements)
        return MachineNode(p, "b", out, None, (child0, child1))
    child1 = _b_once(rest, policy, rng, budget)
    out = Bag((elem,) + child1.output.elements)
    return MachineNode(p, "!b", out, None, (child1,))


def machine_step_run(m: Term, policy: str = "canonical-first", budget: int = 10_000, seed: int = 0):
    """One run of the term machine under canonical-first or seeded-random."""
    if policy not in POLICIES or policy == "enumerate-all":
        raise ValueError(f"not a single-run policy {policy!r}")
    subject = erase_labels(m)
    rng = random.Random(seed)
    try:
        tree = _nd_once(subject, policy, rng, _Budget(budget))
        return Converged(tree.output, tree)
    except _Undef as u:
        return Undefined(u.stuck)
    except _Out:
        return BudgetExhausted()
