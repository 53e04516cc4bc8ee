"""The breadth-first searches agree with the frozen oracle in oracle_search.py.

strategy_run must give the same traces in the same order: the same step
records, truncated and crashed flags and printed final.  _find_chain and
_factor_search must give the same chains, or fail with the same exception
(and, for an exhausted factor search, the same count of explored states).
"""

import random

import oracle_search as oracle
from genterms import all_terms, random_term
from rescal import (
    Abs,
    App,
    Bag,
    Linear,
    NoChainFound,
    Reusable,
    SearchExhausted,
    Var,
    find_redexes,
    print_expr,
    strategy_run,
    trace_records,
)
from rescal.reduction import step_record
from rescal.standardization import _factor_search, _find_chain

RUNS = [(mode, pick) for mode in ("nd", "giant", "baby") for pick in ("all", "leftmost")]


def run_record(traces):
    return [
        (trace_records(t), t.truncated, t.crashed, None if t.final is None else print_expr(t.final))
        for t in traces
    ]


def chain_record(steps):
    return [step_record(i, s) for i, s in enumerate(steps)]


def outcome(search, *args):
    try:
        found = search(*args)
    except (NoChainFound, SearchExhausted) as e:
        return type(e).__name__, getattr(e, "explored", None)
    if isinstance(found, tuple):
        return tuple(chain_record(part) for part in found)
    return chain_record(found)


def assert_runs_agree(m):
    for mode, pick in RUNS:
        want = run_record(oracle.strategy_run(m, mode, pick, 3))
        assert run_record(strategy_run(m, mode, pick, budget=3)) == want, (m, mode, pick)


def test_runs_agree_on_every_redex_term_up_to_size_seven():
    checked = 0
    for m in all_terms(7, ("x", "y")):
        if find_redexes(m):
            assert_runs_agree(m)
            checked += 1
    assert checked > 5000


def test_runs_agree_on_seeded_random_terms():
    rng = random.Random(2012)
    checked = 0
    while checked < 300:
        m = random_term(rng, rng.randint(8, 12), frees=("x", "y"), redex_bias=0.6)
        if find_redexes(m):
            assert_runs_agree(m)
            checked += 1


def test_chain_and_factor_searches_agree_up_to_size_six():
    counts = {"chain": 0, "NoChainFound": 0, "factor": 0, "SearchExhausted": 0}
    for m in all_terms(6, ("x", "y")):
        if not find_redexes(m):
            continue
        traces = strategy_run(m, "nd", "all", budget=3)
        for n in {t.final for t in traces if t.steps}:
            for bound in (3, 1):
                want = outcome(oracle._find_chain, m, n, bound)
                assert outcome(_find_chain, m, n, bound) == want, (m, n, bound)
                counts["chain" if isinstance(want, list) else want[0]] += 1
        for t in traces:
            if not t.steps or t.truncated or t.crashed:
                continue
            for max_len in (len(t.steps) + 2, len(t.steps) - 1):
                want = outcome(oracle._factor_search, m, t.final, max_len)
                assert outcome(_factor_search, m, t.final, max_len) == want, (m, t.final, max_len)
                counts["factor" if want[0] != "SearchExhausted" else "SearchExhausted"] += 1
    assert min(counts.values()) > 20, counts


def test_factor_search_agrees_on_chains_under_bang():
    """Small terms rarely reduce under !, so wrap each one in y[!s] and in
    (\v.y[v][!v])[!s]: their factorizations have inner parts of one and
    two steps, after zero to three outer steps."""
    copier = Abs("v", App(App(Var("y"), Bag((Linear(Var("v")),))), Bag((Reusable(Var("v")),))))
    shapes = set()
    for s in all_terms(6, ("x", "y")):
        if not find_redexes(s):
            continue
        bang = Bag((Reusable(s),))
        for m in (App(Var("y"), bang), App(copier, bang)):
            for t in strategy_run(m, "nd", "all", budget=3):
                if not t.steps or t.truncated or t.crashed:
                    continue
                want = outcome(oracle._factor_search, m, t.final, len(t.steps) + 2)
                assert outcome(_factor_search, m, t.final, len(t.steps) + 2) == want, (m, t.final)
                shapes.add(tuple(map(len, want)))
    assert {(0, 1), (0, 2), (2, 1), (3, 2)} <= shapes, shapes
