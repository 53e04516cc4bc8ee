"""Path-addressed operations agree with the frozen oracle in oracle_paths.py.

At every position of every term up to size 7 over {x, y}, and of seeded
random terms of size 10 to 30: serialize_path gives the oracle's id-free
path and resolve_path turns it back into the same path; plug of a one- and
a two-addend sum gives the oracle's sum, printed the same and with the
same element ids in the same places; _rebuild puts a subterm where the
machine's old _replace_at put it.  label agrees on every set of at most
two redexes, standardize replays to the same chosen addends, and each
cause of InvalidPath is reported as before.
"""

import itertools
import random

import pytest

import oracle_paths as oracle
from genterms import all_terms, positions, random_term
from rescal import (
    Abs,
    App,
    Bag,
    InvalidPath,
    Linear,
    NoChainFound,
    Reusable,
    SearchExhausted,
    Sum,
    Var,
    ZERO,
    find_redexes,
    label,
    labels_in,
    parse_term,
    plug,
    print_expr,
    resolve_path,
    serialize_path,
    size,
    standardize,
    strategy_run,
)
from rescal.reduction import (
    AppArg,
    BagElem,
    Path,
    ResourceContent,
    _frames,
    _rebuild,
    resolve,
)
from rescal.syntax import Term

ONE = Sum.of(App(Var("z"), Bag((Linear(Var("w")), Reusable(Var("w"))))))
TWO = ONE + Sum.of(Var("u"))
SUMS = (ONE, ZERO, TWO)
SUB_TERM = parse_term(r"\v.v[!v]")
SUB_BAG = Bag((Reusable(Var("v")),))
WRAP = parse_term(r"\v.y[v][!v]")
SELF = parse_term(r"\v.v[v]")


def shape(node, known: set[int]) -> list:
    """Preorder listing of node with names, binders, labels, element kinds
    and element ids, which fixes its printed form too; ids outside known
    (fresh copies) read None."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        kind = type(n)
        if kind is Var:
            out.append(n.name)
        elif kind is Abs:
            out.append(("abs", n.binder))
            stack.append(n.body)
        elif kind is App:
            out.append(("app", n.label))
            stack += (n.arg, n.fun)
        elif kind is Bag:
            out.append(("bag", len(n.elements)))
            stack += reversed(n.elements)
        else:
            out.append((kind.__name__, n.ident if n.ident in known else None))
            stack.append(n.content)
    return out


def element_ids(node) -> set[int]:
    return {n.ident for _, n in positions(node) if isinstance(n, (Linear, Reusable))}


KNOWN_IN_SUMS = set().union(*(element_ids(t) for s in SUMS for t, _ in s))


def sum_shape(s: Sum, known: set[int]) -> list:
    return [(k, shape(t, known)) for t, k in s]


def assert_positions_agree(m) -> int:
    known = element_ids(m) | KNOWN_IN_SUMS | element_ids(SUB_TERM) | element_ids(SUB_BAG)
    checked = 0
    for path, node in positions(m):
        spath = serialize_path(m, path)
        assert spath == oracle.serialize_path(m, path), (m, path)
        assert resolve_path(m, spath) == path == oracle.resolve_path(m, spath), (m, path)
        as_json = [t if isinstance(t, str) else {"elem": t[1]} for t in spath]
        assert resolve_path(m, as_json) == path, (m, path)
        frames, reached = _frames(m, path.steps)
        assert reached is node and all(p is resolve(m, Path(path.steps[:i])) for i, (p, _) in enumerate(frames))
        if isinstance(node, Term):
            for s in SUMS:
                got, want = plug(m, path, s), oracle.plug(m, path, s)
                assert sum_shape(got, known) == sum_shape(want, known), (m, path, s)
            assert print_expr(got) == print_expr(want), (m, path)  # plugged with TWO
            sub = SUB_TERM
        elif isinstance(node, Bag):
            sub = SUB_BAG
        else:
            continue
        assert shape(_rebuild(frames, sub), known) == shape(oracle._replace_at(m, path.steps, sub), known), (m, path)
        checked += 1
    return checked


def assert_labels_agree(m) -> int:
    paths = [r.path for r in find_redexes(m)]
    known = element_ids(m)
    checked = 0
    for k in (1, 2):
        for chosen in itertools.combinations(paths, k):
            got, want = label(m, chosen), oracle.label(m, chosen)
            assert shape(got, known) == shape(want, known), (m, chosen)
            assert labels_in(got) == labels_in(want), (m, chosen)
            checked += 1
    return checked


def test_positions_agree_on_every_term_up_to_size_seven():
    checked = labelled = 0
    for m in all_terms(7, ("x", "y")):
        checked += assert_positions_agree(m)
        labelled += assert_labels_agree(m)
    assert checked > 100_000 and labelled > 5_000


def test_positions_agree_on_seeded_random_terms():
    rng = random.Random(2012)
    checked = labelled = 0
    for _ in range(300):
        m = random_term(rng, rng.randint(10, 30), frees=("x", "y"), redex_bias=0.6)
        checked += assert_positions_agree(m)
        labelled += assert_labels_agree(m)
    assert checked > 2_500 and labelled > 700


def test_standardize_replays_to_the_same_chosen_addends():
    """The search workload's input: every endpoint that nd pick all reaches
    within 3 steps, standardized at bound 3, from every redex term s up to
    size 6 and from 3,000 seeded random terms of size 8 to 10.  Small terms
    rarely reduce under !, so each s is also wrapped as y[!s] and
    (\\v.y[v][!v])[!s], whose chains have inner parts that are moved into
    and out of their holes.  No redex of a term this small has two
    different local addends, so each s up to size 4 is also fed with y to
    \\v.v[v], which fires to s[y] or to y[s], and wrapped as
    y[!((\\v.v[v])[s, y])]."""
    chains = 0
    for s in all_terms(6, ("x", "y")):
        if not find_redexes(s):
            continue
        wrapped = [App(Var("y"), Bag((Reusable(s),))), App(WRAP, Bag((Reusable(s),)))]
        if size(s) <= 4:
            two = App(SELF, Bag((Linear(s), Linear(Var("y")))))
            wrapped += [two, App(Var("y"), Bag((Reusable(two),)))]
        for m in [s] + wrapped:
            chains += assert_standardize_agrees(m)
    rng = random.Random(2012)
    for _ in range(3_000):
        chains += assert_standardize_agrees(random_term(rng, rng.randint(8, 10), frees=("x", "y"), redex_bias=0.6))
    assert chains > 900


def assert_standardize_agrees(m) -> int:
    """Standardize m to each endpoint with the library and the oracle;
    returns how many standard chains of two or more steps were compared."""
    endpoints = {t.final.canon(): t.final for t in strategy_run(m, "nd", "all", budget=3) if t.steps and not t.crashed}
    chains = 0
    for n in endpoints.values():
        outcomes = []
        for run in (standardize, oracle.standardize):
            try:
                t = run(m, n, bound=3)
            except (NoChainFound, SearchExhausted) as e:
                outcomes.append(type(e).__name__)
                continue
            outcomes.append([(s.chosen, serialize_path(s.before, s.redex.path)) for s in t.steps])
        assert outcomes[0] == outcomes[1], (m, n)
        chains += isinstance(outcomes[0], list) and len(outcomes[0]) > 1
    return chains


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except ValueError as e:
        return type(e).__name__, str(e)


M = parse_term(r"y[(\z.z)[a]]")


@pytest.mark.parametrize(
    "steps, spath",
    [
        ((AppArg(), ResourceContent()), ("arg", "content")),
        ((AppArg(), BagElem(-1), ResourceContent()), ("arg", ("elem", 1), "content")),
        ((AppArg(), BagElem(M.arg.elements[0].ident)), None),
    ],
    ids=["wrong-step-kind", "missing-element-id", "stops-before-element-content"],
)
def test_each_invalid_path_cause(steps, spath):
    path = Path(steps)
    for run in (plug, oracle.plug):
        with pytest.raises(InvalidPath):
            run(M, path, ONE)
    got = outcome(serialize_path, M, path)
    assert got == outcome(oracle.serialize_path, M, path)
    assert outcome(label, M, [path]) == outcome(oracle.label, M, [path])
    if spath is None:
        return
    assert got[0] == "InvalidPath" and outcome(_frames, M, steps) == got
    got = outcome(resolve_path, M, spath)
    assert got[0] == "InvalidPath" and got == outcome(oracle.resolve_path, M, spath)
