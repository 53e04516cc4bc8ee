"""nd, giant and baby steps agree with the frozen step builders in
oracle_nd_step.py.

Every nd step that strategy_run builds (pick all and pick leftmost, budget
3) must carry the redex that redex_at gives on its source term, the same
printed chosen addend, the same local reduct and the same result; every
giant and baby step the same redex and the same result.
"""

import random

import oracle_nd_step as oracle
from genterms import all_terms, random_term
from rescal import find_redexes, strategy_run


def assert_steps_agree(m) -> int:
    checked = 0
    for pick in ("all", "leftmost"):
        for t in strategy_run(m, "nd", pick, budget=3):
            for s in t.steps:
                want = oracle.make_nd_step(s.before, s.redex, s.local, s.after)
                assert (s.redex, s.chosen, s.local, s.after) == (want.redex, want.chosen, want.local, want.after), (
                    m,
                    pick,
                    s.redex,
                )
                checked += 1
    for mode, make in (("giant", oracle.make_giant_step), ("baby", oracle.make_baby_step)):
        for pick in ("all", "leftmost"):
            for t in strategy_run(m, mode, pick, budget=3):
                for s in t.steps:
                    want = make(s.before, s.redex)
                    assert (s.redex, s.after) == (want.redex, want.after), (m, mode, pick, s.redex)
                    checked += 1
    return checked


def test_nd_steps_agree_on_every_redex_term_up_to_size_six():
    steps = 0
    for m in all_terms(6, ("x", "y")):
        if find_redexes(m):
            steps += assert_steps_agree(m)
    assert steps > 5000


def test_nd_steps_agree_on_seeded_random_terms():
    rng = random.Random(2012)
    terms = steps = 0
    while terms < 300:
        m = random_term(rng, rng.randint(8, 12), frees=("x", "y"), redex_bias=0.6)
        if find_redexes(m):
            steps += assert_steps_agree(m)
            terms += 1
    assert steps > 3000
