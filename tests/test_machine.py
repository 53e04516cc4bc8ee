"""Machine runs, solvability verdicts, and trace reconstruction."""

import json
from dataclasses import replace

import pytest
from hypothesis import given

from rescal import (
    Abs,
    App,
    Bag,
    BudgetExhausted,
    Converged,
    Linear,
    MachineNode,
    MalformedTree,
    MaySolvable,
    NotWithinBudget,
    Undefined,
    Var,
    b_machine_run,
    is_onf,
    is_standard,
    leftmost_set,
    machine_step_run,
    may_solvable,
    outcome_record,
    parse_term,
    reconstruct_trace,
    tree_record,
    verdict_record,
)
from genterms import term_strategy

I = r"\x.x"
F = r"\x.\y.y"
OMEGA = r"(\x.x[!x])[!(\x.x[!x])]"


def converged(outcomes):
    return [o for o in outcomes if isinstance(o, Converged)]


# ------------------------------------------------------------ single runs


def test_vacuous_binder_on_a_linear_bag_is_undefined():
    m = parse_term(r"(\z.\y.y)[x]")
    got = machine_step_run(m, "canonical-first", budget=500)
    assert isinstance(got, Undefined) and got.stuck == m
    assert isinstance(machine_step_run(m, "seeded-random", budget=500, seed=7), Undefined)
    assert machine_step_run(m, "enumerate-all", budget=500) == (Undefined(m),)


def test_self_application_exhausts_the_budget():
    m = parse_term(OMEGA)
    assert isinstance(machine_step_run(m, "canonical-first", budget=500), BudgetExhausted)
    out = machine_step_run(m, "enumerate-all", budget=500)
    assert BudgetExhausted() in out and not converged(out)


def test_two_linear_elements_give_both_orders():
    m = parse_term(rf"(\x.y[x][x])[{F}, {I}]")
    got = machine_step_run(m, "enumerate-all", budget=2000)
    assert all(isinstance(o, Converged) for o in got)
    want = sorted(parse_term(s).canon() for s in (rf"y[{F}][{I}]", rf"y[{I}][{F}]"))
    assert sorted(o.result.canon() for o in got) == want


def test_reusable_bag_run_is_unique():
    m = parse_term(rf"(\x.y[!x])[!{I}, !{F}]")
    got = machine_step_run(m, "enumerate-all", budget=2000)
    assert len(got) == 1 and isinstance(got[0], Converged)
    assert got[0].result.canon() == parse_term(rf"y[!{I}, !{F}]").canon()


def test_outer_normal_input_ends_at_once():
    m = parse_term(rf"\x.x[y, !(({I})[z])]")
    assert is_onf(m)
    got = machine_step_run(m, "canonical-first")
    assert isinstance(got, Converged) and got.tree.rule == "end"
    assert got.result == m  # the redex under ! stays put


def test_branching_below_a_variable_head():
    m = parse_term(r"y[(\x.z[x][x])[u, w]]")
    got = converged(machine_step_run(m, "enumerate-all", budget=2000))
    want = sorted(parse_term(s).canon() for s in (r"y[z[u][w]]", r"y[z[w][u]]"))
    assert sorted(o.result.canon() for o in got) == want


def test_empty_bag_application_substitutes_zero():
    m = parse_term(r"(\x.\w.w) 1 [q]")
    got = machine_step_run(m, "canonical-first")
    assert isinstance(got, Converged)
    assert got.result.canon() == parse_term("q").canon()


def test_seeded_runs_reproduce():
    m = parse_term(rf"(\x.y[x][x])[{F}, {I}]")
    a = machine_step_run(m, "seeded-random", budget=2000, seed=3)
    b = machine_step_run(m, "seeded-random", budget=2000, seed=3)
    assert a == b
    assert isinstance(a, Converged)


def test_element_branching_can_be_disabled():
    m = parse_term(rf"(\x.y[x][x])[{F}, {I}]")
    full = {o.result.canon() for o in converged(machine_step_run(m, "enumerate-all", budget=2000))}
    part = converged(machine_step_run(m, "enumerate-all", budget=2000, branch_elements=False))
    assert part and {o.result.canon() for o in part} <= full


def test_run_guards():
    m = parse_term("x")
    with pytest.raises(ValueError):
        machine_step_run(m, "alphabetical")
    with pytest.raises(ValueError):
        machine_step_run(m, budget=0)


# -------------------------------------------------------------- bag machine


def test_empty_bag_machine_run():
    got = b_machine_run(Bag(()))
    assert isinstance(got, Converged) and got.tree.rule == "1b" and got.result == Bag(())


def test_bag_machine_normalizes_linear_but_not_reusable():
    inner = rf"({I})[z]"
    p = parse_term(rf"x[!({inner}), {inner}]").arg
    got = b_machine_run(p, "canonical-first", budget=500)
    assert isinstance(got, Converged)
    assert got.result.canon() == parse_term(rf"x[!({inner}), z]").arg.canon()


def test_bag_machine_branches_like_the_head_rule():
    p = parse_term(r"y[(\x.z[x][x])[u, w]]").arg
    got = converged(b_machine_run(p, "enumerate-all", budget=2000))
    want = sorted(parse_term(s).arg.canon() for s in (r"y[z[u][w]]", r"y[z[w][u]]"))
    assert sorted(o.result.canon() for o in got) == want


# -------------------------------------------------------------- solvability


def test_identity_is_may_solvable():
    got = may_solvable(parse_term(I))
    assert isinstance(got, MaySolvable)
    assert got.witness.rule == "end"


def test_loop_verdict_is_inconclusive():
    got = may_solvable(parse_term(OMEGA), budget=500)
    assert isinstance(got, NotWithinBudget) and not got.exhaustive
    assert got.explored > 0


def test_everywhere_undefined_verdict_is_exhaustive():
    got = may_solvable(parse_term(r"(\z.\y.y)[x]"), budget=500)
    assert isinstance(got, NotWithinBudget) and got.exhaustive


def test_solvable_witness_reconstructs_to_a_standard_trace():
    got = may_solvable(parse_term(rf"(\x.y[x][x])[{F}, {I}]"), budget=2000)
    assert isinstance(got, MaySolvable)
    t = reconstruct_trace(got.witness)
    assert is_onf(t.final)
    assert is_standard(t).standard


# ------------------------------------------------------------ reconstruction


def test_reconstructed_traces_replay_each_outcome():
    m = parse_term(rf"(\x.y[x][x])[{F}, {I}]")
    for o in machine_step_run(m, "enumerate-all", budget=2000):
        t = reconstruct_trace(o.tree)
        assert t.initial == m
        assert t.final == o.result
        assert is_standard(t).standard
        assert all(s.redex.leftmost for s in t.steps)


def test_reusable_run_reconstructs_to_one_leftmost_step():
    m = parse_term(rf"(\x.y[!x])[!{I}, !{F}]")
    (o,) = machine_step_run(m, "enumerate-all", budget=2000)
    t = reconstruct_trace(o.tree)
    assert len(t.steps) == 1
    step = t.steps[0]
    assert step.redex.path in {r.path for r in leftmost_set(step.before)}


def test_spine_chain_fuses_to_one_step():
    got = machine_step_run(parse_term(r"(\x.\w.w) 1 [q]"), "canonical-first")
    t = reconstruct_trace(got.tree)
    want = [parse_term(r"(\w.w)[q]").canon(), parse_term("q").canon()]
    assert [s.after.canon() for s in t.steps] == want
    assert is_standard(t).standard


def test_reconstruct_replays_nested_identities_without_recursion():
    """1,000 nested linear identities (\\x.x)[(\\x.x)[...y]], built as
    nodes because the parser recurses: one chain of judgments per step."""
    m = Var("y")
    for _ in range(1_000):
        m = App(Abs("x", Var("x")), Bag((Linear(m),)))
    got = machine_step_run(m, "canonical-first", 10_000)
    assert isinstance(got, Converged) and got.result == Var("y")
    t = reconstruct_trace(got.tree)
    assert len(t.steps) == 1_000 and t.final == Var("y")


def test_reconstruct_rejects_tampered_trees():
    got = machine_step_run(parse_term(rf"({I})[z]"), "canonical-first")
    assert isinstance(got, Converged)
    with pytest.raises(MalformedTree):
        reconstruct_trace(replace(got.tree, output=Var("q")))
    with pytest.raises(MalformedTree):
        reconstruct_trace(replace(got.tree, rule="end"))
    with pytest.raises(MalformedTree):
        reconstruct_trace(MachineNode(Var("x"), "bogus", Var("x"), None, ()))


def test_reconstruct_needs_a_term_judgment():
    got = b_machine_run(Bag(()))
    with pytest.raises(MalformedTree):
        reconstruct_trace(got.tree)


@given(term_strategy(max_size=8, frees=("x", "y"), redex_bias=0.7))
def test_converged_runs_denote_leftmost_standard_traces(m):
    got = machine_step_run(m, "canonical-first", budget=300)
    if not isinstance(got, Converged):
        return
    t = reconstruct_trace(got.tree)
    assert t.initial == m and t.final == got.result
    assert is_onf(t.final)
    assert all(s.redex.leftmost for s in t.steps)
    assert is_standard(t).standard


# ------------------------------------------------------------ serialization


def test_records_are_json_ready():
    m = parse_term(rf"(\x.y[x][x])[{F}, {I}]")
    outcomes = machine_step_run(m, "enumerate-all", budget=2000)
    json.dumps([outcome_record(o) for o in outcomes])
    json.dumps(outcome_record(machine_step_run(parse_term(OMEGA), "canonical-first", budget=200)))
    json.dumps(outcome_record(machine_step_run(parse_term(r"(\z.\y.y)[x]"), "canonical-first")))
    json.dumps(verdict_record(may_solvable(parse_term(I))))
    json.dumps(verdict_record(may_solvable(parse_term(OMEGA), budget=200)))
    rec = tree_record(machine_step_run(parse_term(rf"({I})[z]"), "canonical-first").tree)
    assert rec["rule"] in ("beta", "!beta") and rec["children"]
    assert set(rec) == {"rule", "judgment_in", "judgment_out", "choice", "children"}


def test_outcome_record_statuses():
    assert outcome_record(BudgetExhausted()) == {"status": "budget-exhausted"}
    stuck = outcome_record(Undefined(parse_term("x")))
    assert stuck == {"status": "undefined", "stuck": "x"}
