"""Big-step reduction machine for may-solvability.

The main machine proves judgments M ⇓ N where N is an outer normal
form, descending under binders, submitting argument bags of a variable
head to an auxiliary bag machine, and firing the head redex of an
abstraction-headed spine one bag element at a time.  The bag machine
normalizes linear element contents and leaves reusable ones untouched.
A transition whose substitution result is the zero sum is undefined;
runs are also bounded by a budget of rule applications.
"""

import random
from dataclasses import dataclass, replace
from typing import Union

from .syntax import (
    Abs,
    App,
    Bag,
    Linear,
    Node,
    Reusable,
    Term,
    Var,
    ZERO,
    element_rank,
)
from .substitution import classical_subst, resource_subst
from .reduction import (
    AbsBody,
    AppArg,
    AppFun,
    BagElem,
    Path,
    PathStep,
    ResourceContent,
    Step,
    Trace,
    _fresh_redex,
    _frames,
    _rebuild,
    _redex_and_pairs,
    erase_labels,
    is_onf,
    make_nd_step,
    resolve,
)

DEFAULT_BUDGET = 10_000

POLICIES = ("canonical-first", "seeded-random", "enumerate-all")


class MalformedTree(ValueError):
    """The machine tree does not denote a valid run."""


@dataclass(frozen=True)
class MachineNode:
    """One rule application: a judgment with its sub-derivations."""

    input: Node
    rule: str  # "lambda" | "end" | "head" | "0" | "beta" | "!beta" | "1b" | "b" | "!b"
    output: Node
    choice: Term | None  # the chosen local reduct when the rule had several; printed when rendered
    children: tuple["MachineNode", ...]


@dataclass(frozen=True)
class Converged:
    result: Node
    tree: MachineNode


@dataclass(frozen=True)
class Undefined:
    stuck: Node


@dataclass(frozen=True)
class BudgetExhausted:
    pass


MachineOutcome = Union[Converged, Undefined, BudgetExhausted]


@dataclass(frozen=True)
class MaySolvable:
    witness: MachineNode


@dataclass(frozen=True)
class NotWithinBudget:
    explored: int
    exhaustive: bool


class _Out(Exception):
    """Internal: the budget ran out mid-run."""


class _Undef(Exception):
    """Internal: a substitution result was the zero sum."""

    def __init__(self, stuck: Node):
        super().__init__("undefined machine transition")
        self.stuck = stuck


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


def _spine(m: Term) -> tuple[Term, list[App]]:
    """Head and application nodes of a spine, innermost first."""
    apps: list[App] = []
    node = m
    while isinstance(node, App):
        apps.append(node)
        node = node.fun
    apps.reverse()
    return node, apps


def _respine(head: Term, apps: list[App]) -> Term:
    out = head
    for a in apps:
        out = App(out, a.arg, a.label)
    return out


# The spine memo of a term whose empty-bag firing is the zero sum.
_UNDEFINED = ("undefined",)


def _spine_fire(m: Term):
    """Expand the head redex of an abstraction-headed spine by one bag
    element: rule name, per-choice continuations, and the sum size.

    Memoized on m, an undefined firing included, so every run and
    explorer that reaches m gets the same continuation objects, and
    their own memos serve the firings after them.
    """
    fired = m._spine_cache
    if fired is None:
        head, apps = _spine(m)
        rest_apps = apps[1:]
        binder, body, bag = _fresh_redex(App(head, apps[0].arg, None))
        if not bag.elements:
            s = classical_subst(body, binder, ZERO)
            fired = _UNDEFINED if s.is_zero else ("0", ((None, None, _respine(s.sole(), rest_apps)),), 1)
        else:
            groups = []
            for elem in sorted(bag.elements, key=element_rank):
                rest = Bag(tuple(r for r in bag.elements if r is not elem))
                rule = "beta" if isinstance(elem, Linear) else "!beta"
                conts = tuple(
                    (elem, local, _respine(App(Abs(binder, local), rest, None), rest_apps))
                    for local, _ in resource_subst(body, binder, elem)
                )
                groups.append((rule, conts, len(conts)))  # empty conts: undefined branch
            fired = tuple(groups)
        object.__setattr__(m, "_spine_cache", fired)
    if fired is _UNDEFINED:
        raise _Undef(m)
    return fired


def _pick(policy: str, rng, items: list):
    if policy == "seeded-random":
        return rng.choice(items)
    return items[0]


def _nd_once(m: Term, policy: str, rng, budget: _Budget) -> MachineNode:
    # One-premise rules chain iteratively so run length is capped by the
    # budget, not the interpreter recursion limit.
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


# --------------------------------------------------------- enumerate-all


_KINDS = ("ok", "undef", "cycle", "budget")


def _dedup(outcomes: list[tuple]) -> list[tuple]:
    """Outcomes deduplicated by kind and result, in canonical order.  The
    machine erases labels on entry, so the cached canonical form of a
    result is its label-free key."""
    seen = set()
    keyed = []
    for o in outcomes:
        key = (_KINDS.index(o[0]), o[1].canon() if o[0] in ("ok", "undef") else ())
        if key not in seen:
            seen.add(key)
            keyed.append((key, o))
    keyed.sort(key=lambda ko: ko[0])
    return [o for _, o in keyed]


class _Explorer:
    """Shared state of an exhaustive run-tree exploration."""

    def __init__(self, budget: _Budget, branch_elements: bool):
        self.budget = budget
        self.branch_elements = branch_elements
        self.memo: dict[tuple, list[tuple]] = {}
        self.stack: set[tuple] = set()

    def _spend(self) -> bool:
        try:
            self.budget.spend()
            return True
        except _Out:
            return False

    def nd(self, m: Term) -> tuple[list[tuple], bool]:
        return self._visit(("nd", m.canon()), m, self._nd_expand)

    def bag(self, p: Bag) -> tuple[list[tuple], bool]:
        return self._visit(("b", p.canon()), p, self._b_expand)

    def _visit(self, key, subject, expand):
        if key in self.memo:
            return self.memo[key], False
        if key in self.stack:
            self._spend()
            return [("cycle", None, None)], True
        if not self._spend():
            return [("budget", None, None)], True
        self.stack.add(key)
        try:
            outcomes, tainted = expand(subject)
        finally:
            self.stack.discard(key)
        outcomes = _dedup(outcomes)
        if not tainted:
            self.memo[key] = outcomes
        return outcomes, tainted

    def _wrap(self, m, rule, choice, subs, rebuild):
        """Combine child outcomes of a one-premise rule."""
        out = []
        tainted = False
        results, t = subs
        tainted |= t
        for o in results:
            if o[0] == "ok":
                out.append(("ok", rebuild(o[1]), MachineNode(m, rule, rebuild(o[1]), choice, (o[2],))))
            else:
                out.append(o)
        return out, tainted

    def _nd_expand(self, m: Term):
        if is_onf(m):
            return [("ok", m, MachineNode(m, "end", m, None, ()))], False
        match m:
            case Abs():
                return self._wrap(m, "lambda", None, self.nd(m.body), lambda b: replace(m, body=b))
            case App():
                head, apps = _spine(m)
                if isinstance(head, Var):
                    return self._head_expand(m, head, apps)
                return self._spine_expand(m)
        raise TypeError(f"not a machine subject: {m!r}")

    def _head_expand(self, m: Term, head: Var, apps: list[App]):
        combos: list[tuple[list, list]] = [([], [])]  # (bag outputs, child nodes)
        tainted = False
        markers: list[tuple] = []
        for a in apps:
            results, t = self.bag(a.arg)
            tainted |= t
            nxt = []
            for o in results:
                if o[0] != "ok":
                    markers.append(o)
                    continue
                for outs, kids in combos:
                    nxt.append((outs + [o[1]], kids + [o[2]]))
            combos = nxt
            if not combos:
                break
        out = list(markers)
        for outs, kids in combos:
            term = head
            for a, b in zip(apps, outs):
                term = App(term, b, a.label)
            out.append(("ok", term, MachineNode(m, "head", term, None, tuple(kids))))
        return out, tainted

    def _spine_expand(self, m: Term):
        try:
            fired = _spine_fire(m)
        except _Undef as u:
            return [("undef", u.stuck, None)], False
        if fired[0] == "0":
            return self._wrap(m, "0", None, self.nd(fired[1][0][2]), lambda t: t)
        groups = fired if self.branch_elements else fired[:1]
        out = []
        tainted = False
        for rule, conts, width in groups:
            if not conts:
                out.append(("undef", m, None))
                continue
            for _, local, cont in conts:
                choice = local if width > 1 else None
                got, t = self._wrap(m, rule, choice, self.nd(cont), lambda t_: t_)
                out += got
                tainted |= t
        return out, tainted

    def _b_expand(self, p: Bag):
        if not p.elements:
            return [("ok", p, MachineNode(p, "1b", p, None, ()))], False
        elem = min(p.elements, key=element_rank)
        rest = Bag(tuple(r for r in p.elements if r is not elem))
        rest_results, t1 = self.bag(rest)
        out = []
        if isinstance(elem, Linear):
            elem_results, t0 = self.nd(elem.content)
            for eo in elem_results:
                if eo[0] != "ok":
                    out.append(eo)
                    continue
                for ro in rest_results:
                    if ro[0] != "ok":
                        out.append(ro)
                        continue
                    bag = Bag((replace(elem, content=eo[1]),) + ro[1].elements)
                    out.append(("ok", bag, MachineNode(p, "b", bag, None, (eo[2], ro[2]))))
            return out, t0 | t1
        for ro in rest_results:
            if ro[0] != "ok":
                out.append(ro)
                continue
            bag = Bag((elem,) + ro[1].elements)
            out.append(("ok", bag, MachineNode(p, "!b", bag, None, (ro[2],))))
        return out, t1


def _to_outcomes(raw: list[tuple]) -> tuple[MachineOutcome, ...]:
    out: list[MachineOutcome] = []
    partial = False
    for o in raw:
        if o[0] == "ok":
            out.append(Converged(o[1], o[2]))
        elif o[0] == "undef":
            out.append(Undefined(o[1]))
        else:
            partial = True
    if partial:
        out.append(BudgetExhausted())
    return tuple(out)


def _run(subject: Node, policy: str, budget: int, seed: int, branch_elements: bool, once, explore):
    """One machine run on subject: once runs it under a policy, explore
    (an _Explorer method) enumerates every run."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    subject = erase_labels(subject)
    if policy == "enumerate-all":
        raw, _ = explore(_Explorer(_Budget(budget), branch_elements), subject)
        return _to_outcomes(raw)
    rng = random.Random(seed)
    try:
        tree = once(subject, policy, rng, _Budget(budget))
        return Converged(tree.output, tree)
    except _Undef as u:
        return Undefined(u.stuck)
    except _Out:
        return BudgetExhausted()


def machine_step_run(
    m: Term,
    policy: str = "canonical-first",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    branch_elements: bool = True,
):
    """Run the machine on a term.

    canonical-first and seeded-random return one MachineOutcome;
    enumerate-all returns a tuple of outcomes, deduplicated by result
    and canonically ordered, with BudgetExhausted appended when some
    branch did not finish (including provably cyclic ones).
    """
    return _run(m, policy, budget, seed, branch_elements, _nd_once, _Explorer.nd)


def b_machine_run(
    p: Bag,
    policy: str = "canonical-first",
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    branch_elements: bool = True,
):
    """Run the bag machine; outcomes mirror machine_step_run."""
    return _run(p, policy, budget, seed, branch_elements, _b_once, _Explorer.bag)


def may_solvable(m: Term, budget: int = DEFAULT_BUDGET):
    """Decide within budget whether some machine run converges.

    A converging canonical-first run short-circuits; otherwise the run
    tree is explored exhaustively and the canonically least converged
    result is the witness.
    """
    quick = machine_step_run(m, "canonical-first", budget)
    if isinstance(quick, Converged):
        return MaySolvable(quick.tree)
    ex = _Explorer(_Budget(budget), True)
    raw, _ = ex.nd(erase_labels(m))
    converged = [o for o in raw if o[0] == "ok"]
    if converged:
        return MaySolvable(converged[0][2])
    exhaustive = all(o[0] == "undef" for o in raw)
    return NotWithinBudget(ex.budget.spent, exhaustive)


# ------------------------------------------------------- trace rebuilding


class _Rebuilder:
    def __init__(self, initial: Term):
        self.cur = initial
        self.steps: list[Step] = []

    def fire(self, prefix: tuple[PathStep, ...], expected_sub: Term):
        """One fused machine redex firing becomes one nd step."""
        frames, subject = _frames(self.cur, prefix)
        _, apps = _spine(subject)
        redex_path = Path(prefix + (AppFun(),) * (len(apps) - 1))
        expected = _rebuild(frames, expected_sub)
        r, pairs = _redex_and_pairs(self.cur, redex_path)
        for local, whole in pairs:
            if whole == expected:
                step = make_nd_step(self.cur, r, local, whole)
                self.steps.append(step)
                self.cur = whole
                return
        raise MalformedTree("spine firing does not match any reduct")

    def walk_nd(self, node: MachineNode, prefix: tuple[PathStep, ...]):
        """Replay a term judgment; the lambda rule and a spine chain's
        continuation go on in the same loop, not in a call."""
        while True:
            if resolve(self.cur, Path(prefix)) != node.input:
                raise MalformedTree("judgment input does not match the rebuilt term")
            rule = node.rule
            if rule == "end":
                if node.children or node.output != node.input:
                    raise MalformedTree("end rule must be a leaf repeating its input")
                return
            if rule == "lambda":
                (node,) = node.children
                prefix += (AbsBody(),)
                continue
            if rule == "head":
                _, apps = _spine(node.input)
                if len(apps) != len(node.children):
                    raise MalformedTree("head rule arity does not match the spine")
                for i, child in enumerate(node.children):
                    self.walk_bag(child, prefix + (AppFun(),) * (len(apps) - 1 - i) + (AppArg(),))
                return
            if rule not in ("0", "beta", "!beta"):
                raise MalformedTree(f"unknown machine rule {rule!r}")
            chain = node
            while chain.rule in ("beta", "!beta"):
                if len(chain.children) != 1:
                    raise MalformedTree(f"rule {chain.rule} must have one premise")
                chain = chain.children[0]
            if chain.rule != "0":
                raise MalformedTree("a spine chain must end with rule 0")
            if len(chain.children) != 1:
                raise MalformedTree("rule 0 must have one premise")
            node = chain.children[0]
            self.fire(prefix, node.input)

    def walk_bag(self, node: MachineNode, prefix: tuple[PathStep, ...]):
        """Replay a bag judgment; the rest-of-bag premise goes on in the
        same loop, with the ids of the elements already processed in done."""
        done: set[int] = set()
        while True:
            bag = resolve(self.cur, Path(prefix))
            if not isinstance(bag, Bag):
                raise MalformedTree("bag judgment is not at a bag position")
            remaining = [r for r in bag.elements if r.ident not in done]
            if Bag(tuple(remaining)) != node.input:
                raise MalformedTree("bag judgment input does not match the rebuilt term")
            if node.rule == "1b":
                if remaining or node.children:
                    raise MalformedTree("rule 1b applies to the empty bag only")
                return
            if node.rule == "b":
                elem_child, node = node.children
                matching = [r for r in remaining if isinstance(r, Linear) and r.content == elem_child.input]
                if not matching:
                    raise MalformedTree("no unprocessed linear element matches the premise")
                ident = matching[0].ident
                self.walk_nd(elem_child, prefix + (BagElem(ident), ResourceContent()))
            elif node.rule == "!b":
                (node,) = node.children
                skipped = [
                    r for r in remaining
                    if isinstance(r, Reusable) and Bag(tuple(x for x in remaining if x is not r)) == node.input
                ]
                if not skipped:
                    raise MalformedTree("no reusable element matches the skipped premise")
                ident = skipped[0].ident
            else:
                raise MalformedTree(f"unknown bag rule {node.rule!r}")
            done.add(ident)


def reconstruct_trace(tree: MachineNode) -> Trace:
    """The leftmost nd trace a converged machine run denotes."""
    if not isinstance(tree.input, Term):
        raise MalformedTree("trace rebuilding starts from a term judgment")
    rb = _Rebuilder(tree.input)
    rb.walk_nd(tree, ())
    if rb.cur != tree.output:
        raise MalformedTree("rebuilt trace does not end at the run output")
    return Trace(tree.input, tuple(rb.steps), "nd", final=rb.cur)


# ----------------------------------------------------------- serialization


def tree_record(node: MachineNode) -> dict:
    """The tree as nested dicts, built root first with an explicit stack:
    each record is appended to its parent's children when it is made."""
    from .parser import print_expr

    top: list[dict] = []
    stack = [(node, top)]
    while stack:
        node, siblings = stack.pop()
        children: list[dict] = []
        siblings.append({
            "rule": node.rule,
            "judgment_in": print_expr(node.input),
            "judgment_out": print_expr(node.output),
            "choice": None if node.choice is None else print_expr(node.choice),
            "children": children,
        })
        stack.extend((c, children) for c in reversed(node.children))
    return top[0]


def verdict_record(v) -> dict:
    match v:
        case MaySolvable(witness):
            return {"status": "may-solvable", "witness": tree_record(witness)}
        case NotWithinBudget(explored, exhaustive):
            return {"status": "not-within-budget", "explored": explored, "exhaustive": exhaustive}
    raise TypeError(f"not a solvability verdict: {v!r}")


def outcome_record(o: MachineOutcome) -> dict:
    from .parser import print_expr

    match o:
        case Converged(result, tree):
            return {"status": "converged", "result": print_expr(result), "tree": tree_record(tree)}
        case Undefined(stuck):
            return {"status": "undefined", "stuck": print_expr(stuck)}
        case BudgetExhausted():
            return {"status": "budget-exhausted"}
    raise TypeError(f"not a machine outcome: {o!r}")
