"""Redex discovery, the position order, the three step kinds, residuals."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rescal import (
    Abs,
    App,
    Bag,
    InvalidRedex,
    LamAbs,
    LamApp,
    LamVar,
    Linear,
    Path,
    Reusable,
    Sum,
    Var,
    ZERO,
    alpha_eq,
    baby_expand,
    baby_step,
    canonicalize,
    find_redexes,
    fire_nd,
    free_vars,
    from_lambda,
    giant_step,
    is_onf,
    label,
    labels_in,
    erase_labels,
    leftmost_set,
    nd_reducts,
    nd_step,
    parse_sum,
    parse_term,
    plug,
    precedes,
    print_expr,
    redex_at,
    residuals,
    resolve,
    resolve_path,
    serialize_path,
    strategy_run,
)
from rescal.reduction import AppArg, BagElem, ResourceContent, _least_leftmost
from genterms import all_terms, random_term, term_strategy

I = r"\w.w"


def redex_by_marker(m, name):
    """The innermost redex whose subterm mentions the given free variable."""
    hits = [r for r in find_redexes(m) if name in free_vars(resolve(m, r.path))]
    assert hits, name
    deepest = max(len(r.path.steps) for r in hits)
    (hit,) = [r for r in hits if len(r.path.steps) == deepest]
    return hit


# --------------------------------------------------------- redex discovery


def test_single_outer_leftmost_redex():
    rs = find_redexes(parse_term(r"(\x.x)[z]"))
    assert len(rs) == 1 and rs[0].outer and rs[0].leftmost


def test_redex_under_bang_is_inner():
    rs = find_redexes(parse_term(r"y[!((\x.x)[z])]"))
    assert len(rs) == 1 and not rs[0].outer and not rs[0].leftmost


def test_nested_redexes_only_outermost_leftmost():
    m = parse_term(rf"({I})[({I})[!x, !y]]")
    rs = find_redexes(m)
    assert len(rs) == 2 and all(r.outer for r in rs)
    assert [r.leftmost for r in sorted(rs, key=lambda r: len(r.path.steps))] == [True, False]


def test_leftmost_set_empty_on_onf():
    m = parse_term(r"y[!((\x.x)[z])]")
    assert is_onf(m) and leftmost_set(m) == set()


def test_leftmost_set_of_head_redex():
    m = parse_term(r"(\x.x[y])[z]")
    assert {r.path for r in leftmost_set(m)} == {Path(())}


def test_leftmost_set_unions_within_one_bag():
    m = parse_term(r"x[(\y.y)[a], (\z.z)[b]]")
    assert leftmost_set(m) == set(find_redexes(m))
    assert len(leftmost_set(m)) == 2


def test_function_side_shadows_argument_bag():
    m = parse_term(r"x[(\y.y)[a]][(\z.z)[b]]")
    assert {r.path for r in leftmost_set(m)} == {redex_by_marker(m, "a").path}


def test_is_onf_on_deep_terms_needs_no_recursion():
    def nest(depth, inner, wrap):
        for _ in range(depth):
            inner = wrap(inner)
        return inner

    in_bag = lambda t: App(Var("y"), Bag((Linear(t),)))  # noqa: E731
    lambdas = nest(10_000, Var("x"), lambda t: Abs("x", t))
    bags = nest(10_000, Var("y"), in_bag)
    redex_at_bottom = nest(10_000, App(Abs("x", Var("x")), Bag()), in_bag)
    assert is_onf(lambdas) is True
    assert is_onf(bags) is True
    assert is_onf(redex_at_bottom) is False


def test_leftmost_on_deep_terms_needs_no_recursion():
    def nest(depth, inner, wrap):
        for _ in range(depth):
            inner = wrap(inner)
        return inner

    in_bag = lambda t: App(Var("y"), Bag((Linear(t),)))  # noqa: E731
    bags = nest(10_000, Var("y"), in_bag)
    assert leftmost_set(bags) == set() and find_redexes(bags) == [] and _least_leftmost(bags) is None
    for wrap, steps_per_level in ((in_bag, 3), (lambda t: Abs("x", t), 1)):
        m = nest(10_000, App(Abs("x", Var("x")), Bag()), wrap)
        (r,) = leftmost_set(m)
        assert find_redexes(m) == [r] and _least_leftmost(m) == r
        assert len(r.path.steps) == 10_000 * steps_per_level
        assert resolve(m, r.path) == App(Abs("x", Var("x")), Bag())
        assert redex_at(m, r.path) == r


def test_path_operations_on_deep_terms_need_no_recursion():
    """A redex under 10,000 nested linear bags.  The deep terms are
    inspected along the path only, since comparing them with == would
    build their recursive canonical form."""
    redex = App(Abs("z", Var("z")), Bag((Linear(Var("a")),)))
    m, steps = redex, []
    for _ in range(10_000):
        elem = Linear(m)
        m = App(Var("y"), Bag((elem,)))
        steps += [ResourceContent(), BagElem(elem.ident), AppArg()]
    path = Path(tuple(reversed(steps)))
    assert resolve(m, path) is redex
    spath = serialize_path(m, path)
    assert spath == ("arg", ("elem", 0), "content") * 10_000
    assert resolve_path(m, spath) == path
    (plugged, k), = plug(m, path, Sum.of(Var("b"))).addends
    assert k == 1 and resolve(plugged, path).name == "b"
    labelled = label(m, [path])
    assert resolve(labelled, path).label == 1 and resolve(labelled, path).fun is redex.fun


# ------------------------------------------------------------- the order


def test_linear_precedes_reusable_argument():
    m = parse_term(rf"\x.x[!(({I})[b])][({I})[a]]")
    s1 = redex_by_marker(m, "a")
    s2 = redex_by_marker(m, "b")
    assert precedes(s1.path, s2.path, m) == "Before"
    assert precedes(s2.path, s1.path, m) == "After"


def test_function_side_precedes_argument_side():
    m = parse_term(rf"\x.x[({I})[a]][({I})[b]]")
    s1 = redex_by_marker(m, "a")
    s2 = redex_by_marker(m, "b")
    assert precedes(s1.path, s2.path, m) == "Before"


def test_same_bag_elements_incomparable():
    m = parse_term(rf"\x.x[({I})[a], ({I})[b]]")
    s1 = redex_by_marker(m, "a")
    s2 = redex_by_marker(m, "b")
    assert precedes(s1.path, s2.path, m) == "Incomparable"
    assert precedes(s2.path, s1.path, m) == "Incomparable"


def _sibling_elements(sp1, sp2) -> bool:
    for a, b in zip(sp1, sp2):
        if a == b:
            continue
        return isinstance(a, tuple) and isinstance(b, tuple)
    return False


def test_order_axioms_and_incomparability_small_exhaustive():
    for m in all_terms(5, ("x", "y")):
        rs = [r.path for r in find_redexes(m)]
        rel = {(i, j): precedes(p, q, m) for i, p in enumerate(rs) for j, q in enumerate(rs)}
        for i, p in enumerate(rs):
            assert rel[i, i] == "Incomparable"
            for j, q in enumerate(rs):
                if i == j:
                    continue
                if rel[i, j] == "Before":
                    assert rel[j, i] == "After"
                for k in range(len(rs)):
                    if rel[i, j] == "Before" and rel[j, k] == "Before":
                        assert rel[i, k] == "Before"
        outer = [r for r in find_redexes(m) if r.outer]
        for a in outer:
            for b in outer:
                if a.path == b.path:
                    continue
                sep = _sibling_elements(
                    serialize_path(m, a.path), serialize_path(m, b.path)
                )
                incomparable = precedes(a.path, b.path, m) == "Incomparable"
                assert incomparable == sep, print_expr(m)


# ------------------------------------------------------------- step kinds


def test_giant_identity():
    m = parse_term(r"(\x.x)[z]")
    assert giant_step(m, find_redexes(m)[0]) == Sum.of(Var("z"))


def test_giant_empty_bag_crashes():
    m = parse_term(r"(\x.x)1")
    assert giant_step(m, find_redexes(m)[0]) == ZERO


def test_giant_inner_redex_splits_reusables():
    m = parse_term(rf"({I})[({I})[!x, !y]]")
    inner = max(find_redexes(m), key=lambda r: len(r.path.steps))
    got = giant_step(m, inner)
    assert got == parse_sum(rf"({I})[x] + ({I})[y]")


def test_baby_consumes_one_linear_element():
    m = parse_term(r"(\x.x)[y]")
    assert baby_step(m, find_redexes(m)[0]) == Sum.of(parse_term(r"(\x.y)1"))


def test_baby_reusable_element_forks():
    m = parse_term(r"(\x.x)[!n]")
    got = baby_step(m, find_redexes(m)[0])
    assert got == parse_sum(r"(\x.n)1 + (\x.x)1")


def test_baby_empty_bag_crashes():
    m = parse_term(r"(\x.x)1")
    assert baby_step(m, find_redexes(m)[0]) == ZERO


def test_nd_support_two_interleavings():
    f = r"\u.\v.v"
    m = parse_term(rf"(\x.y[x][x])[{f}, {I}]")
    got = {canonicalize(t) for t in nd_step(m, find_redexes(m)[0])}
    want = {canonicalize(parse_term(s)) for s in (rf"y[{f}][{I}]", rf"y[{I}][{f}]")}
    assert got == want


def test_nd_single_reduct():
    m = parse_term(r"(\x.x)[z]")
    assert nd_step(m, find_redexes(m)[0]) == {Var("z")}


def test_nd_empty_on_crash():
    m = parse_term(r"(\x.x)1")
    assert nd_step(m, find_redexes(m)[0]) == set()


def test_baby_expansion_duplicating_bag():
    m = parse_term(r"(\x.x[x])[a, b]")
    assert baby_expand(m, find_redexes(m)[0]) == parse_sum("a[b] + b[a]")


def test_baby_expansion_empty_bag():
    m = parse_term(r"(\x.x)1")
    assert baby_expand(m, find_redexes(m)[0]) == ZERO


def test_baby_expansion_reusable_bag():
    f = r"\u.\v.v"
    m = parse_term(rf"(\x.y[!x])[!{I}, !{f}]")
    assert baby_expand(m, find_redexes(m)[0]) == Sum.of(parse_term(rf"y[!{I}, !{f}]"))


@given(term_strategy(max_size=10))
def test_baby_expansion_equals_giant(m):
    for r in find_redexes(m):
        assert baby_expand(m, r) == giant_step(m, r)
        assert {canonicalize(t) for t in nd_step(m, r)} == {
            canonicalize(e) for e, _ in giant_step(m, r)
        }


def test_invalid_redex_rejected():
    with pytest.raises(InvalidRedex):
        giant_step(parse_term("x[y]"), find_redexes(parse_term(r"(\x.x)[z]"))[0])


# ------------------------------------------------------------- residuals


def test_fired_redex_has_no_residual():
    m = parse_term(r"(\x.x)[z]")
    r = find_redexes(m)[0]
    labelled = label(m, [r.path])
    step = fire_nd(m, r.path)
    assert residuals(labelled, step) == {}


def test_copied_argument_keeps_one_residual():
    n = rf"({I})[a]"
    m = parse_term(rf"(\x.y[x][x])[{n}, z]")
    target = redex_by_marker(m, "a")
    labelled = label(m, [target.path])
    chosen = parse_term(rf"y[{n}][z]")
    step = next(
        fire_nd(m, Path(()), canonicalize(local))
        for local, _ in nd_reducts(m, find_redexes(m)[0])
        if alpha_eq(local, chosen)
    )
    res = residuals(labelled, step)
    assert set(res) == {1} and len(res[1]) == 1
    surviving = resolve(step.after, res[1].pop())
    assert alpha_eq(erase_labels(surviving), parse_term(n))


def test_untouched_bag_keeps_residual_at_transported_path():
    n = rf"({I})[a]"
    m = parse_term(rf"(({I})[q])[!({n})]")
    target = redex_by_marker(m, "a")
    fired = redex_by_marker(m, "q")
    labelled = label(m, [target.path])
    step = fire_nd(m, fired.path)
    res = residuals(labelled, step)
    assert set(res) == {1} and len(res[1]) == 1
    assert alpha_eq(erase_labels(resolve(step.after, res[1].pop())), parse_term(n))


def test_label_erase_round_trip():
    m = parse_term(rf"(\x.y[x][x])[({I})[a], z]")
    paths = [r.path for r in find_redexes(m)]
    assert len(paths) == 2
    labelled = label(m, paths)
    assert erase_labels(labelled) == m
    assert set(labels_in(labelled)) == {1, 2}


# ------------------------------------------------------- plug and paths


@given(term_strategy(max_size=9))
def test_serialize_resolve_round_trip(m):
    for r in find_redexes(m):
        sp = serialize_path(m, r.path)
        assert resolve_path(m, sp) == r.path


def test_plug_distributes_sums():
    m = parse_term("y[x]")
    path = resolve_path(m, ("arg", ("elem", 0), "content"))
    got = plug(m, path, parse_sum("a + b"))
    assert got == parse_sum("y[a] + y[b]")


def test_plug_zero_absorbs_under_linear():
    m = parse_term("y[x]")
    path = resolve_path(m, ("arg", ("elem", 0), "content"))
    assert plug(m, path, ZERO) == ZERO


def test_plug_zero_vanishes_under_reusable():
    m = parse_term("y[!x]")
    path = resolve_path(m, ("arg", ("elem", 0), "content"))
    assert plug(m, path, ZERO) == Sum.of(parse_term("y 1"))


# -------------------------------------------------- locality of nd steps


@given(term_strategy(max_size=10), st.integers(0, 10**6))
def test_nonleftmost_steps_are_local_to_one_side(m, pick):
    if not isinstance(m, App):
        return
    rs = [r for r in find_redexes(m) if not r.leftmost and r.path.steps]
    if not rs:
        return
    r = rs[pick % len(rs)]
    for _, whole in nd_reducts(m, r):
        from rescal.reduction import AppFun

        if isinstance(r.path.steps[0], AppFun):
            assert whole.arg == m.arg
        else:
            assert whole.fun == m.fun


# ------------------------------------------------------ strategy drivers


def test_giant_leftmost_simulates_beta():
    m = from_lambda(LamApp(LamAbs("x", LamVar("x")), LamVar("y")))
    (t,) = strategy_run(m, "giant", "leftmost", budget=10)
    assert len(t.steps) == 1 and t.final == Sum.of(Var("y"))


def test_nd_budget_flagged_on_divergent_term():
    m = parse_term(r"(\x.x[!x])[!(\x.x[!x])]")
    (t,) = strategy_run(m, "nd", "leftmost", budget=10)
    assert t.truncated and not t.crashed


def test_onf_gives_empty_trace():
    m = parse_term("y[!z]")
    (t,) = strategy_run(m, "nd", "leftmost", budget=10)
    assert t.steps == () and t.final == m


def test_nd_crash_flagged():
    (t,) = strategy_run(parse_term(r"(\x.x)1"), "nd", "leftmost", budget=10)
    assert t.crashed and t.steps == ()


def test_exhaustive_nd_covers_both_interleavings():
    f = r"\u.\v.v"
    m = parse_term(rf"(\x.y[x][x])[{f}, {I}]")
    finals = {canonicalize(t.final) for t in strategy_run(m, "nd", "all", budget=5)}
    assert finals == {
        canonicalize(parse_term(rf"y[{f}][{I}]")),
        canonicalize(parse_term(rf"y[{I}][{f}]")),
    }
