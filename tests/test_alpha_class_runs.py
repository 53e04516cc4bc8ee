"""Single runs that go on from the first node of each alpha-class they
reach print exactly what the frozen runs of oracle_runs.py print.

The leftmost nd run keeps a table from canonical form to the first node
of each class it reaches, and a single machine run one of the terms its
0 rules continue with.  On a cyclic term such as Ω a run therefore fires
the same few nodes again and again, and their memos serve it.  The
printed trace records of the nd run and the outcome records of the
machine under canonical-first and seeded-random (five seeds) are
compared byte for byte with the oracle's, which goes on from every fresh
reduct.  The inputs are every term of size 7 or less over {x, y}, 400
seeded random terms, and three cyclic or growing terms at every budget
from 1 to 60.  The oracle runs on an alpha-equal copy built from new
nodes, so the two sides share no memo.
"""

import json
import random

import oracle_runs as oracle
from genterms import all_terms, fresh, random_term
from rescal import Converged, outcome_record, parse_term, print_expr, trace_records
from rescal import machine
from rescal.machine import machine_step_run
from rescal.reduction import strategy_run
from rescal.syntax import App, Abs, Bag, Reusable, Var

SWEEP = all_terms(7, ("x", "y"))
RANDOM = [random_term(random.Random(seed), 6 + seed % 15, ("x", "y"), redex_bias=0.7) for seed in range(400)]
OMEGA = r"(\x.x[!x])[!(\x.x[!x])]"


def _labelled_delta(lab: int):
    """\\x.x[!x] whose application x[!x] carries the redex label lab."""
    return Abs("x", App(Var("x"), Bag((Reusable(Var("x")),)), lab))


CYCLIC = [
    parse_term(OMEGA),
    parse_term(r"(\x.x[!x][!x])[!(\x.x[!x][!x])]"),
    # Ω whose copies of x[!x] are labelled: each step turns a labelled
    # application into the next redex, so the labels ride round the cycle.
    App(_labelled_delta(1), Bag((Reusable(_labelled_delta(2)),))),
]
POLICIES = [("canonical-first", 0)] + [("seeded-random", seed) for seed in range(5)]


def trace_text(trace) -> str:
    return json.dumps({
        "steps": trace_records(trace),
        "final": print_expr(trace.final),
        "truncated": trace.truncated,
        "crashed": trace.crashed,
    })


def assert_runs_agree(m, nd_budget: int, machine_budget: int):
    got = trace_text(strategy_run(m, "nd", "leftmost", nd_budget)[0])
    assert got == trace_text(oracle.nd_leftmost_run(fresh(m), nd_budget)), print_expr(m)
    for policy, seed in POLICIES:
        got = json.dumps(outcome_record(machine_step_run(m, policy, machine_budget, seed)))
        want = json.dumps(outcome_record(oracle.machine_step_run(fresh(m), policy, machine_budget, seed)))
        assert got == want, (print_expr(m), policy, seed)


def test_runs_agree_with_the_frozen_runs_on_the_sweep():
    for m in SWEEP:
        assert_runs_agree(m, 30, 60)


def test_runs_agree_with_the_frozen_runs_on_random_terms():
    for m in RANDOM:
        assert_runs_agree(m, 30, 200)


def test_runs_agree_with_the_frozen_runs_on_cyclic_terms():
    for m in CYCLIC:
        for budget in range(1, 61):
            assert_runs_agree(m, budget, budget)


def test_the_labelled_omega_cycles_with_its_labels():
    """The first step fires the unlabelled root and turns the body's x[!x]
    (label 1) into the redex; from then on the argument's label 2 does.
    The table keys labels, so the labelled class is a class of its own."""
    trace = strategy_run(CYCLIC[2], "nd", "leftmost", 20)[0]
    assert trace.truncated and len(trace.steps) == 20
    assert [s.after.label for s in trace.steps] == [1] + [2] * 19
    assert len({id(s.after) for s in trace.steps[1:]}) == 1


def test_an_nd_run_round_omega_reuses_the_node_it_started_from():
    m = parse_term(OMEGA)
    trace = strategy_run(m, "nd", "leftmost", 2_000)[0]
    assert len(trace.steps) == 2_000 and trace.truncated
    assert len({id(s.after) for s in trace.steps}) <= 2
    assert all(s.before is prev.after for prev, s in zip(trace.steps, trace.steps[1:]))
    # The frozen run builds a new node at every step.
    frozen = oracle.nd_leftmost_run(fresh(m), 2_000)
    assert len({id(s.after) for s in frozen.steps}) == 2_000


def _judgment_inputs(module, monkeypatch) -> list:
    """Every term judgment a run of module's machine makes, in order: the
    term machine asks is_onf of each judgment's input first."""
    seen = []
    is_onf = module.is_onf

    def spy(m):
        seen.append(m)
        return is_onf(m)

    monkeypatch.setattr(module, "is_onf", spy)
    return seen


def test_a_machine_run_round_omega_judges_a_few_nodes(monkeypatch):
    seen = _judgment_inputs(machine, monkeypatch)
    assert machine_step_run(parse_term(OMEGA), "canonical-first", 2_000) == machine.BudgetExhausted()
    assert len(seen) == 2_000
    assert len({id(m) for m in seen}) <= 8
    frozen = _judgment_inputs(oracle, monkeypatch)
    oracle.machine_step_run(parse_term(OMEGA), "canonical-first", 2_000)
    assert len({id(m) for m in frozen}) >= 1_000


def test_a_converged_seeded_run_prints_like_the_frozen_run():
    """A seeded-random run may leave a cycle it went round: Ω's argument
    bag also holds y, and some seeds feed it and converge."""
    m = parse_term(r"(\x.x[!x])[!(\x.x[!x]), !y]")
    converged = 0
    for seed in range(40):
        got = machine_step_run(m, "seeded-random", 300, seed)
        want = oracle.machine_step_run(fresh(m), "seeded-random", 300, seed)
        assert json.dumps(outcome_record(got)) == json.dumps(outcome_record(want))
        converged += isinstance(got, Converged)
    assert converged > 0
