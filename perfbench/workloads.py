"""The four workloads: their inputs, the timed work on one input, and the
checks on its outputs.

Each workload class provides

    inputs(seed, tiny) -> (items, warmup)   items in generation order
    subject(item)      -> what work() receives, rebuilt as fresh nodes
    work(L, subject)   -> the outputs; only library calls, all through L
    check(L, subject, outputs) -> Checked

where L is the namespace built by tracing.bind.  work() is what the
latency metrics time; check() runs outside the timed region.  A workload
may also provide known_defects(L), run once per run outside the timed
inputs (see Cli).
"""

from __future__ import annotations

import atexit
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import terms


@dataclass
class Checked:
    """problems are wrong answers; failures are operations that ended in an
    error instead of their documented answer."""

    problems: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    digest: list[str] = field(default_factory=list)
    decided: bool = True


@dataclass(frozen=True)
class Item:
    """One input: its name in failure lists (the term's text where it has
    one), its term as a tuple, and workload-specific data."""

    label: str
    term: tuple | None = None
    data: tuple = ()


def _head_redex(m, App):
    """The application at the bottom of m's spine, whose function is an abstraction."""
    while isinstance(m.fun, App):
        m = m.fun
    return m


class Sweep:
    """Every term up to SIZE over free {x, y}, cold, as the acceptance sweeps do:
    many tiny terms, so canonical form and redex discovery do most of the
    work and substitution little."""

    name = "sweep"
    tail_percentile = 99  # fixed per workload, so every run reports the same one
    trace_inputs = 3000
    SIZE = 8

    def __init__(self, rescal, work_dir):
        self.build = terms.builder(rescal)

    def inputs(self, seed, tiny):
        items = [Item(terms.text(t), t) for t in terms.enumerate_terms(4 if tiny else self.SIZE)]
        warmup = next(i for i in items if terms.has_redex(i.term))
        return items, warmup

    def subject(self, item):
        return self.build(item.term)

    def work(self, L, m):
        L.canon(m)
        rs = L.find_redexes(m)
        lm = L.leftmost_set(m)
        onf = L.is_onf(m)
        fired = []
        for r in rs:
            nd = L.nd_reducts(m, r)
            giant = L.giant_step(m, r)
            baby = L.baby_expand(m, r)
            node = L.resolve(m, r.path)
            binder, body, bag = node.fun.binder, node.fun.body, node.arg
            whole_bag = L.bag_subst(body, binder, bag)
            each = [L.linear_subst(body, binder, e.content) for e in bag.elements]
            fired.append((r, nd, giant, baby, whole_bag, each))
        return rs, lm, onf, fired

    def check(self, L, m, out):
        rs, lm, onf, fired = out
        c = Checked()
        if onf != (not lm):
            c.problems.append("is_onf disagrees with leftmost_set")
        if not L.alpha_eq(L.parse_term(L.print_expr(m)), m):
            c.problems.append("print/parse round trip changed the term")
        c.digest += [str(len(rs)), str(onf)]
        for r, nd, giant, baby, whole_bag, each in fired:
            if not L.alpha_eq(baby, giant):
                c.problems.append("baby_expand differs from giant_step")
            # Under a ! a sum collapses into one bag, so only outer redexes
            # have one whole term per addend of the local result.
            if r.outer and {L.canon(w) for _, w in nd} != {L.canon(t) for t in giant.support()}:
                c.problems.append("nd_reducts differ from the giant step's addends")
            c.digest += [r.rule, str(r.outer), str(r.leftmost), L.print_expr(giant),
                         L.print_expr(whole_bag), *(L.print_expr(t) for t, _ in nd),
                         *(L.print_expr(s) for s in each)]
        return c


class Church:
    """c_n c_k g y for k in {1, 2}, and Omega at two budgets: a few deep terms
    on long single paths, where substitution and sum size blow up and redex
    discovery is a small share."""

    name = "church"
    tail_percentile = 75  # fixed per workload, so every run reports the same one
    trace_inputs = None  # one whole pass
    NS = {1: range(1, 8), 2: range(1, 6)}
    OMEGA_BUDGETS = (100, 300)
    BUDGET = 10_000
    NAMES = ("f", "g", "h", "k", "p", "q", "r", "s", "u", "w", "x", "y", "z")

    def __init__(self, rescal, work_dir):
        self.build = terms.builder(rescal)

    def inputs(self, seed, tiny):
        # The machines order bag elements by canonical form, in which names
        # that are free at some point compare by spelling, so the names keep
        # the alphabetical order of f, g, x, y and every seed does the same work.
        f, g, x, y = sorted(random.Random(seed).sample(self.NAMES, 4))
        items = []
        for k, ns in self.NS.items():
            for n in ns if not tiny else range(1, 3):
                t = terms.app_reusable(terms.church(n, f, x), terms.church(k, f, x), ("v", g), ("v", y))
                items.append(Item(f"c{n} c{k}", t, (k, self.BUDGET, ("v", g), ("v", y))))
        delta = ("l", x, ("a", ("v", x), (("R", ("v", x)),)))
        for b in self.OMEGA_BUDGETS if not tiny else (20,):
            items.append(Item(f"omega@{b}", terms.app_reusable(delta, delta), ("omega", b)))
        return items, items[0]

    def subject(self, item):
        return item, self.build(item.term)

    def work(self, L, subject):
        item, m = subject
        budget = item.data[1]
        (trace,) = L.strategy_run(m, "nd", "leftmost", budget=budget)
        single = L.machine_step_run(m, policy="canonical-first", budget=budget)
        verdict = L.may_solvable(m, budget=budget)
        head = _head_redex(m, L.rescal.App)
        bag = L.bag_subst(head.fun.body, head.fun.binder, head.arg)
        return trace, single, verdict, bag

    def check(self, L, subject, out):
        item, m = subject
        trace, single, verdict, bag = out
        R = L.rescal
        c = Checked()
        c.decided = not (trace.truncated or isinstance(single, R.BudgetExhausted)
                         or (isinstance(verdict, R.NotWithinBudget) and not verdict.exhaustive))
        if item.data[0] == "omega":
            if not trace.truncated or not isinstance(single, R.BudgetExhausted):
                c.problems.append("Omega stopped before its budget")
            if not isinstance(verdict, R.NotWithinBudget) or verdict.exhaustive:
                c.problems.append("Omega was decided")
        else:
            if trace.truncated or trace.crashed or not L.is_onf(trace.final):
                c.problems.append("leftmost run did not reach an outer normal form")
            if not isinstance(verdict, R.MaySolvable):
                c.problems.append("not may-solvable")
            else:
                replay = L.reconstruct_trace(verdict.witness)
                if not L.alpha_eq(replay.final, verdict.witness.output):
                    c.problems.append("witness does not replay to its output")
                if not L.alpha_eq(verdict.witness.output, trace.final):
                    c.problems.append("machine and leftmost run disagree")
            if item.data[0] == 1:
                g, y = item.data[2], item.data[3]
                expected = self.build(("a", g, (("R", y),)))
                if not L.alpha_eq(trace.final, expected):
                    c.problems.append("c_n c_1 g y did not reach g[!y]")
        if isinstance(single, R.Converged):
            if not L.is_onf(single.result):
                c.problems.append("converged machine result is not an outer normal form")
            if not L.alpha_eq(L.reconstruct_trace(single.tree).final, single.result):
                c.problems.append("converged run does not replay")
        c.digest = [
            str(len(trace.steps)), str(trace.truncated), "" if trace.final is None else L.print_expr(trace.final),
            type(single).__name__, L.print_expr(single.result) if isinstance(single, R.Converged) else "",
            type(verdict).__name__,
            L.print_expr(verdict.witness.output) if isinstance(verdict, R.MaySolvable) else str(verdict),
            str(len(bag.addends)), str(bag.total()),
        ]
        return c


class Search:
    """Every term up to SIZE with a redex, plus a seeded sample of larger ones:
    bounded searches revisit states, so canonical keys are looked up far more
    often than built and most fired reducts are discarded."""

    name = "search"
    tail_percentile = 95  # fixed per workload, so every run reports the same one
    trace_inputs = 1500
    SIZE = 7
    SAMPLE = 600
    SAMPLE_SIZES = (8, 10)
    DEPTH = 3
    BUDGET = 500

    def __init__(self, rescal, work_dir):
        self.build = terms.builder(rescal)

    def inputs(self, seed, tiny):
        size = 4 if tiny else self.SIZE
        items = [Item(terms.text(t), t) for t in terms.enumerate_terms(size) if terms.has_redex(t)]
        rng = random.Random(seed)
        sample = []
        while len(sample) < (10 if tiny else self.SAMPLE):
            t = terms.random_term(rng, rng.randint(*self.SAMPLE_SIZES))
            if terms.has_redex(t) and terms.size(t) > size:
                sample.append(Item(terms.text(t), t))
        return items + sample, items[0]

    def subject(self, item):
        return self.build(item.term)

    def work(self, L, m):
        traces = L.strategy_run(m, "nd", "all", budget=self.DEPTH)
        endpoints = {}
        for t in traces:
            if not t.crashed and t.steps:
                endpoints.setdefault(L.canon(t.final), t.final)
        chains = []
        for n in endpoints.values():
            try:
                chain = L.standardize(m, n, bound=self.DEPTH)
            except (L.rescal.NoChainFound, L.rescal.SearchExhausted) as e:
                chains.append((n, None, type(e).__name__))
                continue
            chains.append((n, chain, L.is_standard(chain)))
        factored = [(t, L.factor_outer_inner(t)) for t in traces
                    if t.steps and not t.truncated and not t.crashed]
        outcomes = L.machine_enumerate(m, budget=self.BUDGET)
        verdict = L.may_solvable(m, budget=self.BUDGET)
        return traces, chains, factored, outcomes, verdict

    def check(self, L, m, out):
        traces, chains, factored, outcomes, verdict = out
        R = L.rescal
        c = Checked()
        c.decided = not (any(t.truncated for t in traces) or any(ch is None for _, ch, _ in chains)
                         or any(isinstance(o, R.BudgetExhausted) for o in outcomes)
                         or (isinstance(verdict, R.NotWithinBudget) and not verdict.exhaustive))
        for t in traces:
            c.digest += [str(len(t.steps)), str(t.truncated), str(t.crashed),
                         "" if t.final is None else L.print_expr(t.final)]
        for n, chain, report in chains:
            if chain is None:
                c.digest.append(report)
                continue
            if not report.standard:
                c.problems.append("standardize returned a non-standard chain")
            if not (L.alpha_eq(chain.initial, m) and L.alpha_eq(chain.final, n)):
                c.problems.append("standardized chain has the wrong endpoints")
            c.digest += [str(len(chain.steps)), *(s.chosen for s in chain.steps)]
        for t, (outer, inner) in factored:
            if not all(s.redex.outer for s in outer.steps) or any(s.redex.outer for s in inner.steps):
                c.problems.append("factorization is not outer then inner")
            if not (L.alpha_eq(outer.initial, m) and L.alpha_eq(outer.final, inner.initial)
                    and L.alpha_eq(inner.final, t.final)):
                c.problems.append("factorization has the wrong endpoints")
            c.digest.append(f"{len(outer.steps)}+{len(inner.steps)}")
        for o in outcomes:
            c.digest.append(type(o).__name__)
            if isinstance(o, R.Converged):
                c.digest.append(L.print_expr(o.result))
                if not L.is_onf(o.result):
                    c.problems.append("converged machine result is not an outer normal form")
                replay = L.reconstruct_trace(o.tree)
                if not (L.alpha_eq(replay.initial, m) and L.alpha_eq(replay.final, o.result)):
                    c.problems.append("converged run does not replay")
        if any(isinstance(o, R.Converged) for o in outcomes) and not isinstance(verdict, R.MaySolvable):
            c.problems.append("a converged run exists but may_solvable says otherwise")
        if isinstance(verdict, R.MaySolvable):
            c.digest.append(L.print_expr(verdict.witness.output))
        else:
            c.digest.append(str(verdict))
        return c


def make_run_cli(main):
    """Call the CLI in-process; return (exit code, captured stdout).

    expect, a predicate on the exit code, is read only by the tracer,
    which counts the calls whose exit code it rejects.
    """

    def run_cli(argv, expect=None):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        return code, out.getvalue()

    return run_cli


def _ok(code):
    return code in (0, 1, 2)


def _zero(code):
    return code == 0


def _final_line(text: str) -> str:
    """The term on the "final:" line of a text trace."""
    line = text.rstrip("\n").rsplit("\n", 1)[-1]
    return line.removeprefix("final: ").removesuffix("  (truncated)")


def _image(t):
    """The resource-calculus image of a pure lambda term (arguments become [!a])."""
    if t[0] == "v":
        return t
    if t[0] == "l":
        return ("l", t[1], _image(t[2]))
    return ("a", _image(t[1]), (("R", _image(t[2])),))


class Cli:
    """rescal.cli.main over seeded terms and a fixed set of edge inputs:
    argument handling, printing and JSON rendering do most of the work, and
    the CLI's exact output bytes are pinned.

    Terms are given to the CLI as its printer spells them, as when a user
    feeds a printed term back in.  Inputs on which the library does not
    give its documented answer are not timed inputs: known_defects() runs
    each once per run and reports it by name, so every timed operation
    succeeds and the defects stay visible.
    """

    name = "cli"
    tail_percentile = 95  # fixed per workload, so every run reports the same one
    trace_inputs = None  # one whole pass
    TERMS = 400
    LAMBDAS = 30
    TERM_SIZES = (4, 8)
    EDGES = (("malformed", ["reduce", "(\\x."], 3),)  # exit 3, documented for unreadable input
    # Outer normal forms, so the documented answer is exit 0 with the term
    # printed back; RecursionError at the seed commit.
    DEEP = (
        ("deep-lambda-3000", terms.deep_lambda_text(3000)),
        ("deep-bag-300", terms.deep_bag_text(300)),
    )
    # A step whose chosen addend names a variable bound outside the redex,
    # spelled otherwise than the printer spells it: reloading the recorded
    # trace exits 3 ("chosen addend is not a reduct") at the seed commit.
    TRACE_RELOAD = ("trace-reload", "\\b0.(\\b1.b1)[b0]")

    def __init__(self, rescal, work_dir):
        self.build = terms.builder(rescal)
        self.print_expr = rescal.print_expr
        # One trace file per process, so that runs sharing a checkout never
        # read each other's traces.
        fd, self.trace_file = tempfile.mkstemp(prefix="cli-trace-", suffix=".ndjson", dir=work_dir)
        os.close(fd)
        atexit.register(os.remove, self.trace_file)

    def inputs(self, seed, tiny):
        rng = random.Random(seed)
        items = []
        while len(items) < (3 if tiny else self.TERMS):
            t = terms.random_term(rng, rng.randint(*self.TERM_SIZES))
            if terms.has_redex(t):
                items.append(Item(self.print_expr(self.build(t)), t, ("term",)))
        for _ in range(2 if tiny else self.LAMBDAS):
            lam = terms.random_lambda(rng, rng.randint(3, 12))
            items.append(Item(terms.lambda_text(lam), lam, ("lambda",)))
        items += [Item(name, None, ("edge", argv, code)) for name, argv, code in self.EDGES]
        return items, items[0]

    def subject(self, item):
        return item

    def work(self, L, item):
        kind = item.data[0]
        runs = []

        def cli(what, argv, expect=_ok):
            runs.append((what, argv, L.cli(argv, expect=expect)))
            return runs[-1][2]

        if kind == "edge":
            argv, code = item.data[1], item.data[2]
            cli("edge", argv, expect=lambda c: c == code)
            return runs
        s = item.label
        if kind == "lambda":
            cli("translate-text", ["translate", s], _zero)
            cli("translate-json", ["translate", "--format", "structured", s], _zero)
            return runs
        cli("reduce-text", ["reduce", "--steps", "50", s])
        _, records = cli("reduce-json", ["reduce", "--format", "structured", "--steps", "50", s])
        cli("reduce-text", ["reduce", "--mode", "giant", "--steps", "10", s])
        cli("reduce-json", ["reduce", "--mode", "baby", "--format", "structured", "--steps", "10", s])
        cli("reduce-all", ["reduce", "--pick", "all", "--steps", "6", s])
        steps = [json.loads(line) for line in records.splitlines()[1:]]
        if steps:
            with open(self.trace_file, "w", encoding="utf-8") as f:
                f.write(records)
            target = steps[min(len(steps), 2) - 1]["term_after"]
            cli("standardize", ["standardize", s, target, "--bound", "2"], _zero)
            cli("check", ["standardize", "--trace-file", self.trace_file, "--check"], _zero)
        cli("machine", ["machine", "--tree", s])
        cli("machine", ["machine", "--policy", "enumerate-all", "--tree", "--budget", "2000", s])
        if item.term[0] == "a":
            cli("machine", ["machine", "--bags", "--tree", "--budget", "2000", s])
        cli("solvable", ["solvable", "--tree", "--budget", "2000", s])
        return runs

    def check(self, L, item, runs):
        c = Checked()
        for what, argv, (code, out) in runs:
            c.digest += [what, str(code), out]
            c.decided = c.decided and code != 2
            if what == "edge":
                want = item.data[2]
                if code != want:
                    c.failures.append(f"exit {code}, documented {want}")
                elif out:
                    c.problems.append("output on unreadable input")
            elif code not in (0, 1, 2):
                c.failures.append(f"{what} exit {code} on valid input")
            elif what.startswith("translate") or what in ("standardize", "check"):
                if code != 0:
                    c.problems.append(f"{what} exit {code}")
                elif what == "check" and out != "standard\n":
                    c.problems.append("a leftmost trace was reported non-standard")
                elif what.startswith("translate"):
                    printed = json.loads(out)["term"] if what == "translate-json" else out.strip()
                    if not L.alpha_eq(L.parse_term(printed), self.build(_image(item.term))):
                        c.problems.append("translate printed another term")
            elif what == "reduce-json" and out != "0\n":
                if not all("event" in json.loads(line) for line in out.splitlines()):
                    c.problems.append("structured output is not one record per line")
            elif what == "reduce-text" and code != 1:
                final = _final_line(out)  # a sum in giant mode
                if L.print_expr(L.parse_sum(final)) != final:
                    c.problems.append("the printed final term does not print back the same")
        c.decided = c.decided and not c.failures
        return c

    def known_defects(self, L) -> dict[str, str]:
        """Each known-defect input by name: "ok" when it now gets its
        documented answer, else what happened instead."""
        outcomes = {}
        for name, text in self.DEEP:
            try:
                code, out = L.cli(["reduce", text])
            except Exception as e:  # the defect being reported
                outcomes[name] = f"raised {type(e).__name__}"
                continue
            final = _final_line(out)
            printed_back = final.count("\\") == text.count("\\") and final.count("[") == text.count("[")
            outcomes[name] = "ok" if code == 0 and printed_back else f"exit {code}"
        name, text = self.TRACE_RELOAD
        _, records = L.cli(["reduce", "--format", "structured", text])
        with open(self.trace_file, "w", encoding="utf-8") as f:
            f.write(records)
        code, out = L.cli(["standardize", "--trace-file", self.trace_file, "--check"])
        outcomes[name] = "ok" if code == 0 and out == "standard\n" else f"exit {code}"
        return outcomes


WORKLOADS = {w.name: w for w in (Sweep, Church, Search, Cli)}
