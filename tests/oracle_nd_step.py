"""Frozen oracle: make_nd_step, make_giant_step and make_baby_step as they
were when they rebuilt the step's redex with redex_at, and make_nd_step
as it was when it printed the chosen local addend eagerly.

The library now takes the caller's Redex as it is (with rule "Giant" for
nd and giant steps) and prints the addend only when Step.chosen is read.
These copies return the old step's fields as named tuples, so
test_nd_step.py compares the library against a fixed reference rather
than against itself; the giant and baby results are plugged with the
frozen plug of oracle_paths.py.  Do not edit them to follow the library.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple, Union

from oracle_paths import plug
from rescal.parser import print_expr
from rescal.reduction import Redex, _redex_node, baby_local, giant_local, redex_at
from rescal.syntax import Sum, Term


class NdStep(NamedTuple):
    before: Term
    redex: Redex
    mode: str
    after: Union[Sum, Term]
    chosen: str | None
    local: Term | None


def make_nd_step(m: Term, r: Redex, local: Term, whole: Term) -> NdStep:
    return NdStep(
        m,
        replace(redex_at(m, r.path), rule="Giant"),
        "nd",
        whole,
        chosen=print_expr(local),
        local=local,
    )


class SumStep(NamedTuple):
    before: Term
    redex: Redex
    mode: str
    after: Sum


def make_giant_step(m: Term, r: Redex) -> SumStep:
    return SumStep(m, replace(redex_at(m, r.path), rule="Giant"), "giant", plug(m, r.path, giant_local(_redex_node(m, r.path))))


def make_baby_step(m: Term, r: Redex) -> SumStep:
    return SumStep(m, redex_at(m, r.path), "baby", plug(m, r.path, baby_local(_redex_node(m, r.path))))
