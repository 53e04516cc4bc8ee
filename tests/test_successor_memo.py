"""Successors memoized on the node agree with a cold copy and with the
frozen oracle in oracle_successors.py.

A term keeps its nd reducts per redex path and its machine spine firing,
and erase_labels marks the nodes it proves label-free.  Each memoized
function is called twice on one term and once on a cold copy: an
alpha-equal copy built from new nodes, on which nothing is cached yet.
The two calls must hand out the same successor objects, and all three
must give the same addends in the same order as the oracle, which fires
afresh.  The sweep is every term of size 7 or less over {x, y}; the
random terms come from genterms.random_term with fixed seeds.  The
printer and the tree renderers, which now keep explicit stacks, are
compared with their recursive originals on the same terms.
"""

import json
import random

import oracle_successors as oracle
import pytest
from genterms import all_terms, fresh, random_term
from rescal import (
    Abs,
    Converged,
    erase_labels,
    find_redexes,
    fire_nd,
    giant_step,
    label,
    labels_in,
    machine_step_run,
    may_solvable,
    nd_reducts,
    outcome_record,
    print_expr,
    verdict_record,
)
from rescal.cli import _render_tree
from rescal.machine import _spine, _spine_fire, _Undef, tree_record
from rescal.syntax import label_free_key

SWEEP = all_terms(7, ("x", "y"))
RANDOM = [random_term(random.Random(seed), 6 + seed % 15, ("x", "y"), redex_bias=0.7) for seed in range(400)]


def pair_keys(pairs) -> list[tuple]:
    return [(local.canon(), whole.canon()) for local, whole in pairs]


def step_key(step) -> tuple:
    return step.redex, step.local.canon(), step.after.canon()


def spine_keys(m, fire=_spine_fire) -> tuple:
    """The spine firing of m, keyed: ("undef", stuck) when undefined,
    else (rule, width, (element id, element, local, continuation)...)
    per group; the oracle's lists and the library's tuples key alike."""
    try:
        fired = fire(m)
    except _Undef as u:
        return ("undef", u.stuck.canon())
    if fired[0] == "0":
        fired = [fired]
    return tuple(
        (rule, width, tuple((None, None, None, cont.canon()) if elem is None
                            else (elem.ident, elem.canon(), local.canon(), cont.canon())
                            for elem, local, cont in conts))
        for rule, conts, width in fired
    )


def abs_headed(m) -> bool:
    head, apps = _spine(m)
    return bool(apps) and isinstance(head, Abs)


def machine_subjects(terms):
    """The terms whose spine has an abstraction at its head, with one
    level of their continuations."""
    out = []
    for m in filter(abs_headed, terms):
        out.append(m)
        try:
            fired = _spine_fire(fresh(m))
        except _Undef:
            continue
        if fired[0] == "0":
            fired = [fired]
        out += [cont for _, conts, _ in fired for _, _, cont in conts if abs_headed(cont)]
    return out


SUBJECTS = machine_subjects(SWEEP + RANDOM)


def test_nd_reducts_repeat_the_same_pairs_as_a_cold_copy():
    fired = 0
    for m0 in SWEEP + RANDOM:
        m = fresh(m0)
        for r in find_redexes(m):
            first = nd_reducts(m, r)
            second = nd_reducts(m, r)
            cold = nd_reducts(fresh(m), r)
            want = pair_keys(oracle.nd_reducts(fresh(m), r))
            assert pair_keys(first) == pair_keys(second) == pair_keys(cold) == want
            assert second is not first
            assert all(a is c and b is d for (a, b), (c, d) in zip(first, second))
            fired += 1
    assert fired > 5_000


def test_fire_nd_repeats_the_same_step_as_a_cold_copy():
    for m0 in SWEEP[::3] + RANDOM:
        m = fresh(m0)
        for r in find_redexes(m):
            cold_m = fresh(m)
            want = oracle.nd_reducts(fresh(m), r)
            if not want:
                continue
            choices = [None] + [label_free_key(local) for local, _ in want]
            for chosen in choices:
                first = fire_nd(m, r.path, chosen)
                second = fire_nd(m, r.path, chosen)
                cold = fire_nd(cold_m, r.path, chosen)
                assert step_key(first) == step_key(second) == step_key(cold)
                assert second.after is first.after and second.local is first.local
            least = fire_nd(m, r.path)
            assert (least.local.canon(), least.after.canon()) == pair_keys(want)[0]


def test_spine_fire_repeats_the_same_continuations_as_a_cold_copy():
    undefined = 0
    for m0 in SUBJECTS:
        m = fresh(m0)
        want = spine_keys(fresh(m), oracle._spine_fire)
        assert spine_keys(m) == spine_keys(m) == spine_keys(fresh(m)) == want
        if want[0] == "undef":
            undefined += 1
            with pytest.raises(_Undef) as again:
                _spine_fire(m)
            assert again.value.stuck is m
        else:
            assert _spine_fire(m) is _spine_fire(m)
    assert undefined > 0 and len(SUBJECTS) > 1_000


def test_mutating_a_returned_list_leaves_the_next_call_alone():
    for m0 in SWEEP[::5] + RANDOM:
        m = fresh(m0)
        for r in find_redexes(m):
            got = nd_reducts(m, r)
            kept = list(got)
            got.clear()
            got.append((m, m))
            again = nd_reducts(m, r)
            assert len(again) == len(kept)
            assert all(a is c and b is d for (a, b), (c, d) in zip(again, kept))


def test_erase_labels_removes_every_label_after_marking():
    for m0 in SWEEP[::4] + RANDOM:
        m = fresh(m0)
        assert erase_labels(m) is m
        assert erase_labels(m) is m
        paths = [r.path for r in find_redexes(m)]
        for ps in (paths, paths[:1], paths[1::2]):
            if not ps:
                continue
            lab = label(m, ps)
            assert sorted(labels_in(lab)) == list(range(1, len(ps) + 1))
            erased = erase_labels(lab)
            assert labels_in(erased) == {}
            assert erased.canon() == m.canon() == label_free_key(lab)
            assert erase_labels(erased) is erased


def test_machine_runs_repeat_their_outcomes():
    for m0 in SUBJECTS[::4]:
        m = fresh(m0)
        for seed in (0, 1, 2):
            runs = [machine_step_run(t, "seeded-random", budget=300, seed=seed) for t in (m, m, fresh(m))]
            assert outcome_record(runs[0]) == outcome_record(runs[1]) == outcome_record(runs[2])
        firsts = [machine_step_run(t, "canonical-first", budget=300) for t in (m, m, fresh(m))]
        assert outcome_record(firsts[0]) == outcome_record(firsts[1]) == outcome_record(firsts[2])
        alls = [machine_step_run(t, "enumerate-all", budget=300) for t in (m, m, fresh(m))]
        assert [outcome_record(o) for o in alls[0]] == [outcome_record(o) for o in alls[1]] \
            == [outcome_record(o) for o in alls[2]]
        verdicts = [may_solvable(t, budget=300) for t in (m, m, fresh(m))]
        assert verdict_record(verdicts[0]) == verdict_record(verdicts[1]) == verdict_record(verdicts[2])


def test_printer_agrees_with_the_recursive_printer():
    for m in SWEEP + RANDOM:
        assert print_expr(m) == oracle.print_expr(m)
        paths = [r.path for r in find_redexes(m)]
        if paths:
            lab = label(m, paths)
            assert print_expr(lab) == oracle.print_expr(lab)
            s = giant_step(m, find_redexes(m)[0])
            assert print_expr(s) == oracle.print_expr(s)


def test_tree_renderers_agree_with_the_recursive_renderers():
    trees = 0
    for m in SUBJECTS[::2]:
        outcomes = machine_step_run(m, "enumerate-all", budget=300)
        for o in outcomes:
            if isinstance(o, Converged):
                assert json.dumps(tree_record(o.tree)) == json.dumps(oracle.tree_record(o.tree))
                assert _render_tree(o.tree) == oracle._render_tree(o.tree)
                trees += 1
    assert trees > 1_000
