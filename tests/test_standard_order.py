"""is_standard and baby_expand agree with the frozen oracle in
oracle_standard.py, and recorded traces reload.

is_standard must return the oracle's StdReport, violation tuple included,
on every nd trace of two or more steps that strategy_run pick all finds
on the terms of size <= 8 over {x, y}, on seeded random terms, on the
chains standardize builds and on innermost-first traces of nested
identities.  baby_expand must give the oracle's Sum on every redex of
the terms of size <= 7.
"""

import random

from hypothesis import given, settings

import oracle_standard as oracle
from genterms import all_terms, random_term, term_strategy
from rescal import (
    Abs,
    App,
    Bag,
    Linear,
    Path,
    SearchExhausted,
    Trace,
    Var,
    baby_expand,
    find_redexes,
    fire_nd,
    is_standard,
    serialize_path,
    standardize,
    strategy_run,
    trace_from_records,
    trace_records,
)
from rescal.reduction import AppArg, BagElem, ResourceContent


def nested_identities(n):
    """(\\x.x)[(\\x.x)[...y]] with n identities, built as nodes because
    the parser recurses."""
    m = Var("y")
    for _ in range(n):
        m = App(Abs("x", Var("x")), Bag((Linear(m),)))
    return m


def assert_reports_agree(traces) -> tuple[int, int]:
    """Compare on every trace of two or more steps; count them and the
    non-standard ones."""
    checked = flagged = 0
    for t in traces:
        if len(t.steps) < 2:
            continue
        want = oracle.is_standard(t)
        assert is_standard(t) == want, (t.initial, want)
        checked += 1
        flagged += not want.standard
    return checked, flagged


def test_reports_agree_on_every_trace_up_to_size_eight():
    checked = flagged = 0
    for m in all_terms(8, ("x", "y")):
        if find_redexes(m):
            c, f = assert_reports_agree(strategy_run(m, "nd", "all", budget=3))
            checked, flagged = checked + c, flagged + f
    assert checked > 3_500 and flagged > 1_000


def test_reports_agree_on_seeded_random_terms():
    """Random terms often crash on a bag of the wrong size, so only terms
    with two or more redexes are kept."""
    rng = random.Random(22)
    terms = checked = flagged = 0
    while terms < 1_000:
        m = random_term(rng, rng.randint(8, 14), frees=("x", "y"), redex_bias=0.8)
        if len(find_redexes(m)) < 2:
            continue
        terms += 1
        c, f = assert_reports_agree(strategy_run(m, "nd", "all", budget=4))
        checked, flagged = checked + c, flagged + f
    assert checked > 500 and flagged > 200


def test_reports_agree_on_standardized_chains():
    checked = 0
    for m in all_terms(7, ("x", "y")):
        if len(find_redexes(m)) < 2:
            continue
        for n in {t.final for t in strategy_run(m, "nd", "all", budget=3) if len(t.steps) >= 2 and not t.crashed}:
            try:
                chain = standardize(m, n, bound=3)
            except SearchExhausted:
                continue
            c, _ = assert_reports_agree([chain])
            checked += c
    assert checked > 150


def innermost_first(n):
    """The trace of n nested identities that fires the innermost first."""
    m = nested_identities(n)
    steps, cur = [], m
    for depth in range(n - 1, -1, -1):
        path, node = Path(()), cur
        for _ in range(depth):
            r = node.arg.elements[0]
            path, node = path.child(AppArg(), BagElem(r.ident), ResourceContent()), r.content
        steps.append(fire_nd(cur, path))
        cur = steps[-1].after
    return Trace(m, tuple(steps), "nd", final=cur)


def test_innermost_first_nested_identities_break_at_step_one():
    for n in range(2, 25):
        t = innermost_first(n)
        got = is_standard(t)
        assert got == oracle.is_standard(t), n
        assert not got.standard and got.violation[0] == 1
        assert got.violation[1] == serialize_path(t.initial, t.steps[1].redex.path)


def test_leftmost_trace_of_a_thousand_nested_identities_is_standard():
    (t,) = strategy_run(nested_identities(1_000), "nd", "leftmost", budget=2_000)
    assert len(t.steps) == 1_000 and t.final == Var("y")
    assert is_standard(t).standard


def shape(s):
    """A step as far as a reload can keep it: reparsing draws new
    bag-element ids, so the path is compared serialized."""
    r = s.redex
    return serialize_path(s.before, r.path), r.rule, r.outer, r.leftmost, s.after


@settings(max_examples=300)
@given(term_strategy(max_size=12, redex_bias=0.9))
def test_recorded_traces_reload(m):
    """The generator binds v0, v1, ..., which the printer renames, so a
    step's chosen addend may name a bound variable otherwise than the
    printed term_before does.  Only about one term in five has a step,
    hence the larger number of examples."""
    for t in strategy_run(m, "nd", "all", budget=3):
        if not t.steps:
            continue
        back = trace_from_records(trace_records(t))
        assert back.initial == t.initial and back.final == t.final
        assert [shape(s) for s in back.steps] == [shape(s) for s in t.steps]
        assert is_standard(back) == is_standard(t)


def test_baby_expand_agrees_on_every_redex_up_to_size_seven():
    fired = 0
    for m in all_terms(7, ("x", "y")):
        for r in find_redexes(m):
            got, want = baby_expand(m, r), oracle.baby_expand(m, r)
            assert got == want and [k for _, k in got] == [k for _, k in want], (m, r)
            fired += 1
    assert fired > 5_000
