"""Frozen oracle: make_nd_step as it was when it rebuilt the step's redex
with redex_at and printed the chosen local addend eagerly.

The library now takes the caller's Redex as it is (with rule "Giant") and
prints the addend only when Step.chosen is read.  This copy returns the
old step's fields as a named tuple, so test_nd_step.py compares the
library against a fixed reference rather than against itself.  Do not
edit it to follow the library.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple, Union

from rescal.parser import print_expr
from rescal.reduction import Redex, redex_at
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
