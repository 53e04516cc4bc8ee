"""Frozen oracle: is_standard as it was when it replayed each step on a
labelled copy of its source, with the _labelled_outcomes it fired
through, and baby_expand as it was when it ran its own worklist of
single-element firings.

The library now decides standardness by comparing redex positions, and
baby_expand feeds the whole bag with bag_subst.  These copies keep the
old code as a fixed reference for test_standard_order.py.  Do not edit
them to follow the library.
"""

from __future__ import annotations

from rescal.reduction import (
    Path,
    Redex,
    Trace,
    _fresh_redex,
    _label_in_order,
    _plugged,
    _redex_frames,
    erase_labels,
    find_redexes,
    giant_local,
    labels_in,
    precedes,
    serialize_path,
    transport_path,
)
from rescal.standardization import StdReport, _validated
from rescal.substitution import classical_subst, resource_subst
from rescal.syntax import ZERO, Bag, Sum, Term, element_rank


def _labelled_outcomes(labelled: Term, path: Path, expected: Term):
    """The labelled reducts of firing the redex at path that erase to
    expected."""
    frames, node = _redex_frames(labelled, path)
    for t, _ in giant_local(node):
        whole = _plugged(frames, Sum.of(t)).sole()
        if erase_labels(whole) == expected:
            yield whole


def is_standard(t: Trace) -> StdReport:
    """Check an nd trace for standardness.

    Each step's strictly-earlier redexes are labelled, the step is
    replayed on the labelled term, and the next step must not fire any
    position where a label survives.
    """
    steps = _validated(t)
    for i in range(len(steps) - 1):
        cur = steps[i].before
        fired = steps[i].redex.path
        # find_redexes lists redexes in path order, so prior needs no sort.
        prior = [r.path for r in find_redexes(cur) if precedes(r.path, fired, cur) == "Before"]
        if not prior:
            continue
        labelled = _label_in_order(cur, prior)
        lpath = transport_path(cur, fired, labelled)
        nxt = steps[i + 1]
        nxt_fired = serialize_path(nxt.before, nxt.redex.path)
        for whole in _labelled_outcomes(labelled, lpath, steps[i].after):
            for lab, paths in labels_in(whole).items():
                for p in paths:
                    if serialize_path(whole, p) == nxt_fired:
                        violation = (
                            i + 1,
                            serialize_path(cur, prior[lab - 1]),
                            serialize_path(cur, fired),
                        )
                        return StdReport(False, violation)
    return StdReport(True, None)


def baby_expand(m: Term, r: Redex) -> Sum:
    """Fire one redex with baby steps until the bag and binder are gone.

    Agrees with giant_step: feeding elements one at a time and then
    zeroing is the same as feeding the whole bag.
    """
    frames, node = _redex_frames(m, r.path)
    binder, body, bag = _fresh_redex(node)
    acc: list[tuple[Term, int]] = []
    work: list[tuple[Term, Bag, int]] = [(body, bag, 1)]
    while work:
        cur, remaining, mult = work.pop()
        if not remaining.elements:
            acc += [(t, k * mult) for t, k in classical_subst(cur, binder, ZERO)]
            continue
        least = min(remaining.elements, key=element_rank)
        rest = Bag(tuple(e for e in remaining.elements if e.ident != least.ident))
        for t, k in resource_subst(cur, binder, least):
            work.append((t, rest, mult * k))
    return _plugged(frames, Sum(tuple(acc)))
