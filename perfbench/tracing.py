"""Spans around the benchmark's calls into the library, and the per-layer
metrics derived from them.

A span is [name, start, end, parent, input_id]; parent is the index of
the enclosing span or None.  Each input opens an "input" span with a
"work" child (the timed library calls) and a "check" child (the calls
that verify the outputs).  Every library call is a leaf span named
after the layer metric it feeds, such as "reduction.fire".  Counts taken
from return values (redexes found, addends built, tree nodes, ...) are
kept beside the spans.  Nothing here reaches inside the library: all
spans are recorded in the benchmark's own code.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from types import SimpleNamespace

CLI_SUBCOMMANDS = ("reduce", "standardize", "machine", "solvable", "translate")

# Spans timed per layer; each yields <name>.calls and <name>.s.
SPAN_NAMES = (
    "parser.parse", "parser.print",
    "syntax.canon", "syntax.equal",
    "substitution.linear", "substitution.bag",
    "reduction.discover", "reduction.fire", "reduction.run",
    "standardization.standardize", "standardization.check", "standardization.factor",
    "machine.run", "machine.enumerate", "machine.solvable", "machine.replay",
) + tuple(f"cli.{c}" for c in CLI_SUBCOMMANDS)

# Counts and ratios taken from return values: name -> unit.
VALUE_METRICS = {
    "parser.chars": "count",
    "syntax.sum.addends": "count",
    "syntax.sum.max_width": "count",
    "syntax.term.max_size": "count",
    "substitution.addends": "count",
    "reduction.redexes": "count",
    "reduction.reducts": "count",
    "reduction.fire.zero_frac": "ratio",
    "reduction.run.steps": "count",
    "standardization.steps": "count",
    "standardization.exhausted": "count",
    "machine.tree_nodes": "count",
    "machine.explored": "count",
    "machine.converged_frac": "ratio",
    "cli.out_bytes": "count",
    "cli.exit_mismatch": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update(VALUE_METRICS)
    return units


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.input_id = None
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.input_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, observe=None, on_error=None):
        """fn behind a span; observe(tracer, args, kwargs, result) counts
        from what it returned, on_error(tracer) from what it raised."""

        def traced(*args, **kwargs):
            idx = self.open(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.close(idx)
                if on_error is not None:
                    on_error(self)
                raise
            self.close(idx)
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return traced

    def see_size(self, n: int) -> None:
        self.maxima["syntax.term.max_size"] = max(self.maxima["syntax.term.max_size"], n)

    def see_sum(self, s, size) -> None:
        width = len(s.addends)
        self.counts["syntax.sum.addends"] += width
        self.maxima["syntax.sum.max_width"] = max(self.maxima["syntax.sum.max_width"], width)
        self.see_size(size(s))

    def metrics(self) -> dict[str, float]:
        """The per-layer table: span calls and summed seconds, then counts."""
        out = {name: 0 for name in per_layer_units()}
        for name, start, end, _parent, _input in self.spans:
            if name in SPAN_NAMES:
                out[f"{name}.calls"] += 1
                out[f"{name}.s"] += end - start
        for name in VALUE_METRICS:
            if name in self.maxima:
                out[name] = self.maxima[name]
            elif name in self.counts:
                out[name] = self.counts[name]
        fires = out["reduction.fire.calls"]
        out["reduction.fire.zero_frac"] = self.counts["fire.zero"] / fires if fires else 0
        runs = self.counts["machine.verdicts"]
        out["machine.converged_frac"] = self.counts["machine.converged"] / runs if runs else 0
        return out

    def write(self, path) -> None:
        """Write every span as one JSON array per line, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(["name", "start_s", "end_s", "parent", "input"]) + "\n")
            for name, start, end, parent, input_id in self.spans:
                f.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7), parent, input_id]) + "\n")


def _tree_nodes(root) -> int:
    n, stack = 0, [root]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


def bind(rescal, tracer: Tracer | None, run_cli):
    """The library functions the workloads call, each behind a span when traced.

    Workloads call library code only through this namespace, so every call
    they make is timed under the layer it belongs to.
    """
    size = rescal.size
    enumerate_all = lambda t, **kw: rescal.machine_step_run(t, policy="enumerate-all", **kw)  # noqa: E731

    def parse_chars(tr, args, kwargs, out):
        tr.counts["parser.chars"] += len(args[0])

    def print_chars(tr, args, kwargs, out):
        tr.counts["parser.chars"] += len(out)

    def subst(tr, args, kwargs, out):
        tr.counts["substitution.addends"] += len(out.addends)
        tr.see_sum(out, size)

    def redexes(tr, args, kwargs, out):
        tr.counts["reduction.redexes"] += len(out)

    def fired_sum(tr, args, kwargs, out):
        tr.counts["reduction.reducts"] += len(out.addends)
        tr.counts["fire.zero"] += out.is_zero
        tr.see_sum(out, size)

    def fired_pairs(tr, args, kwargs, out):
        tr.counts["reduction.reducts"] += len(out)
        tr.counts["fire.zero"] += not out
        for _, whole in out:
            tr.see_size(size(whole))

    def ran(tr, args, kwargs, out):
        for t in out:
            tr.counts["reduction.run.steps"] += len(t.steps)
            if t.final is not None:
                tr.see_size(size(t.final))

    def standardized(tr, args, kwargs, out):
        tr.counts["standardization.steps"] += len(out.steps)

    def exhausted(tr):
        tr.counts["standardization.exhausted"] += 1

    def outcomes(tr, args, kwargs, out):
        outs = out if isinstance(out, tuple) else (out,)
        tr.counts["machine.verdicts"] += 1
        converged = [o for o in outs if isinstance(o, rescal.Converged)]
        tr.counts["machine.converged"] += bool(converged)
        for o in converged:
            tr.counts["machine.tree_nodes"] += _tree_nodes(o.tree)
            tr.see_size(size(o.result))

    def verdict(tr, args, kwargs, out):
        tr.counts["machine.verdicts"] += 1
        if isinstance(out, rescal.MaySolvable):
            tr.counts["machine.converged"] += 1
            tr.counts["machine.tree_nodes"] += _tree_nodes(out.witness)
        else:
            tr.counts["machine.explored"] += out.explored

    def cli_out(tr, args, kwargs, out):
        code, text = out
        tr.counts["cli.out_bytes"] += len(text.encode("utf-8"))
        expect = kwargs.get("expect")
        if expect is not None and not expect(code):
            tr.counts["cli.exit_mismatch"] += 1

    table = {
        "parse_term": (rescal.parse_term, "parser.parse", parse_chars),
        "parse_sum": (rescal.parse_sum, "parser.parse", parse_chars),
        "parse_lambda_term": (rescal.parse_lambda_term, "parser.parse", parse_chars),
        "print_expr": (rescal.print_expr, "parser.print", print_chars),
        "canon": (rescal.Node.canon, "syntax.canon", None),
        "alpha_eq": (rescal.alpha_eq, "syntax.equal", None),
        "linear_subst": (rescal.linear_subst, "substitution.linear", subst),
        "bag_subst": (rescal.bag_subst, "substitution.bag", subst),
        "find_redexes": (rescal.find_redexes, "reduction.discover", redexes),
        "leftmost_set": (rescal.leftmost_set, "reduction.discover", None),
        "is_onf": (rescal.is_onf, "reduction.discover", None),
        "resolve": (rescal.resolve, "reduction.discover", None),
        "nd_reducts": (rescal.nd_reducts, "reduction.fire", fired_pairs),
        "giant_step": (rescal.giant_step, "reduction.fire", fired_sum),
        "baby_expand": (rescal.baby_expand, "reduction.fire", fired_sum),
        "strategy_run": (rescal.strategy_run, "reduction.run", ran),
        "standardize": (rescal.standardize, "standardization.standardize", standardized, exhausted),
        "is_standard": (rescal.is_standard, "standardization.check", None),
        "factor_outer_inner": (rescal.factor_outer_inner, "standardization.factor", None),
        "machine_step_run": (rescal.machine_step_run, "machine.run", outcomes),
        "machine_enumerate": (enumerate_all, "machine.enumerate", outcomes),
        "may_solvable": (rescal.may_solvable, "machine.solvable", verdict),
        "reconstruct_trace": (rescal.reconstruct_trace, "machine.replay", None),
        "cli": (run_cli, lambda args: f"cli.{args[0][0]}", cli_out),
    }
    if tracer is None:
        funcs = {key: entry[0] for key, entry in table.items()}
    else:
        funcs = {key: tracer.wrap(name, fn, *rest) for key, (fn, name, *rest) in table.items()}
    return SimpleNamespace(rescal=rescal, **funcs)
