"""Command-line front end: reduce, standardize, run the machine, translate."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .machine import (
    DEFAULT_BUDGET,
    POLICIES,
    BudgetExhausted,
    Converged,
    MaySolvable,
    Undefined,
    b_machine_run,
    machine_step_run,
    may_solvable,
    outcome_record,
    verdict_record,
)
from .parser import ParseError, parse_lambda_term, parse_term, print_expr
from .reduction import (
    InvalidPath,
    InvalidTrace,
    Trace,
    serialize_path,
    strategy_run,
    trace_from_records,
    trace_records,
)
from .standardization import (
    NoChainFound,
    SearchExhausted,
    is_standard,
    standardize,
)
from .syntax import from_lambda

EXIT_OK = 0
EXIT_CRASH = 1  # reduction to zero / machine undefined / not solvable
EXIT_BUDGET = 2  # step or search budget ran out
EXIT_PARSE = 3  # unreadable input
EXIT_INTERNAL = 4  # internal error: the input nests deeper than the recursion limit


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_PARSE)


def _read_source(args) -> str:
    sources = [s for s in (args.term, args.file) if s is not None]
    if len(sources) > 1:
        print("give the input as an argument, a file, or stdin — not several", file=sys.stderr)
        sys.exit(EXIT_PARSE)
    if args.term is not None:
        return args.term
    try:
        if args.file is not None:
            with open(args.file, encoding="utf-8") as f:
                return f.read()
        return sys.stdin.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"cannot read input: {e}", file=sys.stderr)
        sys.exit(EXIT_PARSE)


def _parse_term_or_exit(text: str):
    try:
        return parse_term(text)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        sys.exit(EXIT_PARSE)


def _spath_str(spath) -> str:
    if not spath:
        return "root"
    return ".".join(t if isinstance(t, str) else f"elem{t[1]}" for t in spath)


def _parse_pick_paths(text: str) -> list[tuple]:
    """Decode path=STEP[,STEP...] where STEP is dot-joined tags."""
    paths = []
    for step in text.split(","):
        step = step.strip()
        if step in ("", "root"):
            paths.append(())
            continue
        tags: list = []
        for tag in step.split("."):
            if tag in ("body", "fun", "arg", "content"):
                tags.append(tag)
            elif tag.startswith("elem") and tag[4:].isdigit():
                tags.append(("elem", int(tag[4:])))
            else:
                raise ValueError(f"bad path component {tag!r}")
        paths.append(tuple(tags))
    return paths


def _render_trace(t: Trace, header: str | None) -> str:
    lines = []
    flags = [f for f, on in (("crashed", t.crashed), ("truncated", t.truncated)) if on]
    if header is not None:
        suffix = f"  ({', '.join(flags)})" if flags else ""
        lines.append(f"{header}{suffix}")
    pad = "  " if header is not None else ""
    lines.append(pad + print_expr(t.initial))
    for s in t.steps:
        spath = _spath_str(serialize_path(s.before, s.redex.path))
        arrow = f"={s.mode}@{spath}=>"
        if s.mode in ("giant", "baby"):
            lines.append(f"{pad}{print_expr(s.before)} {arrow} {print_expr(s.after)}")
        else:
            chose = f"  [chose {s.chosen}]" if s.chosen is not None else ""
            lines.append(f"{pad}{arrow} {print_expr(s.after)}{chose}")
    outcome = "0" if t.crashed else (print_expr(t.final) if t.final is not None else "?")
    tail = f"final: {outcome}" + ("  (truncated)" if t.truncated and header is None else "")
    lines.append(pad + tail)
    return "\n".join(lines)


def _emit_trace_lines(t: Trace, index: int) -> None:
    head = {
        "event": "trace",
        "index": index,
        "mode": t.mode,
        "initial": print_expr(t.initial),
        "final": None if t.final is None else print_expr(t.final),
        "crashed": t.crashed,
        "truncated": t.truncated,
    }
    print(json.dumps(head))
    for rec in trace_records(t):
        rec["event"] = "step"
        rec["trace"] = index
        print(json.dumps(rec))


def _render_tree(node) -> list[str]:
    """One line per judgment, root first, each indented by its depth."""
    lines = []
    stack = [(node, 0)]
    while stack:
        node, depth = stack.pop()
        chose = f"  [chose {print_expr(node.choice)}]" if node.choice is not None else ""
        lines.append(f"{'  ' * depth}({node.rule}) {print_expr(node.input)} => {print_expr(node.output)}{chose}")
        stack.extend((c, depth + 1) for c in reversed(node.children))
    return lines


def cmd_reduce(args) -> int:
    m = _parse_term_or_exit(_read_source(args))
    paths = None
    pick = args.pick
    if pick.startswith("path="):
        try:
            paths = _parse_pick_paths(pick[5:])
        except ValueError as e:
            print(f"parse error: {e}", file=sys.stderr)
            sys.exit(EXIT_PARSE)
        pick = "paths"
    try:
        traces = strategy_run(m, args.mode, pick, budget=args.steps, paths=paths)
    except InvalidTrace as e:
        print("0")
        print(f"note: {e}", file=sys.stderr)
        return EXIT_CRASH
    except (InvalidPath, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    if args.format == "structured":
        for i, t in enumerate(traces):
            _emit_trace_lines(t, i)
    else:
        blocks = []
        for i, t in enumerate(traces):
            header = f"trace {i}:" if len(traces) > 1 else None
            blocks.append(_render_trace(t, header))
        print("\n\n".join(blocks))
    if any(t.truncated for t in traces):
        return EXIT_BUDGET
    if all(t.crashed for t in traces):
        return EXIT_CRASH
    return EXIT_OK


def _load_trace_file(path: str) -> Trace:
    with open(path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    records = [r for r in records if r.get("event", "step") == "step"]
    return trace_from_records(records)


def cmd_standardize(args) -> int:
    if args.trace_file is not None:
        if args.term is not None or args.target is not None:
            print("give either two terms or a trace file, not both", file=sys.stderr)
            return EXIT_PARSE
        try:
            recorded = _load_trace_file(args.trace_file)
        except (OSError, json.JSONDecodeError, ParseError, InvalidTrace, InvalidPath) as e:
            print(f"cannot load trace: {e}", file=sys.stderr)
            return EXIT_PARSE
        if args.check:
            report = is_standard(recorded)
            if args.format == "structured":
                rec = {"standard": report.standard}
                if report.violation is not None:
                    step, prior, fired = report.violation
                    rec["violation"] = {
                        "step": step,
                        "residual_of": _spath_str(prior),
                        "previous_step_redex": _spath_str(fired),
                    }
                print(json.dumps(rec))
            elif report.standard:
                print("standard")
            else:
                step, prior, fired = report.violation
                print(
                    f"not standard: step {step} fires a residual of {_spath_str(prior)}, "
                    f"which precedes {_spath_str(fired)} fired at step {step - 1}"
                )
            return EXIT_OK if report.standard else EXIT_CRASH
        m, n = recorded.initial, recorded.final
        bound = max(args.bound, len(recorded.steps))
    else:
        if args.term is None or args.target is None:
            print("standardize needs a source and a target term (or --trace-file)", file=sys.stderr)
            return EXIT_PARSE
        m = _parse_term_or_exit(args.term)
        n = _parse_term_or_exit(args.target)
        bound = args.bound
    try:
        t = standardize(m, n, bound=bound)
    except NoChainFound as e:
        print(f"no chain found: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except SearchExhausted as e:
        print(f"search exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    if args.format == "structured":
        _emit_trace_lines(t, 0)
    else:
        print(_render_trace(t, None))
    return EXIT_OK


def _machine_exit(outcomes) -> int:
    if any(isinstance(o, Converged) for o in outcomes):
        return EXIT_OK
    if any(isinstance(o, BudgetExhausted) for o in outcomes):
        return EXIT_BUDGET
    return EXIT_CRASH


def _show_outcome(o, args) -> None:
    if args.format == "structured":
        print(json.dumps(outcome_record(o)))
        return
    if isinstance(o, Converged):
        print(f"converged: {print_expr(o.result)}")
        if args.tree:
            print("\n".join(_render_tree(o.tree)))
    elif isinstance(o, Undefined):
        print(f"undefined at: {print_expr(o.stuck)}")
    else:
        print("budget exhausted")


def cmd_machine(args) -> int:
    m = _parse_term_or_exit(_read_source(args))
    run = b_machine_run if args.bags else machine_step_run
    if args.bags:
        if not hasattr(m, "arg"):
            print("a bag is read from the argument of an application; give one", file=sys.stderr)
            return EXIT_PARSE
        m = m.arg
    result = run(
        m,
        policy=args.policy,
        budget=args.budget,
        seed=args.seed,
        branch_elements=not args.no_element_branching,
    )
    outcomes = result if isinstance(result, tuple) else (result,)
    for o in outcomes:
        _show_outcome(o, args)
    return _machine_exit(outcomes)


def cmd_solvable(args) -> int:
    m = _parse_term_or_exit(_read_source(args))
    verdict = may_solvable(m, budget=args.budget)
    if args.format == "structured":
        print(json.dumps(verdict_record(verdict)))
    elif isinstance(verdict, MaySolvable):
        print(f"may-solvable: {print_expr(verdict.witness.output)}")
        if args.tree:
            print("\n".join(_render_tree(verdict.witness)))
    else:
        kind = "no run converges" if verdict.exhaustive else "undecided within budget"
        print(f"not solvable here: {kind} (explored {verdict.explored})")
    if isinstance(verdict, MaySolvable):
        return EXIT_OK
    return EXIT_CRASH if verdict.exhaustive else EXIT_BUDGET


def cmd_translate(args) -> int:
    try:
        lam = parse_lambda_term(_read_source(args))
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    image = from_lambda(lam)
    if args.format == "structured":
        print(json.dumps({"term": print_expr(image)}))
    else:
        print(print_expr(image))
    return EXIT_OK


def _add_io(p: argparse.ArgumentParser):
    p.add_argument("term", nargs="?", help="input expression (omit to read stdin)")
    p.add_argument("--file", help="read the input from a file")
    p.add_argument("--format", choices=("text", "structured"), default="text",
                   help="structured prints line-delimited JSON records")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="rescal",
        description="Resource calculus workbench.",
        epilog="exit codes: 0 ok; 1 reduction to zero, machine undefined, or not solvable; "
               "2 budget or search bound exhausted; 3 unreadable input; 4 internal error",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="run a reduction strategy and print the trace(s)")
    _add_io(p)
    p.add_argument("--mode", choices=("nd", "giant", "baby"), default="nd")
    p.add_argument("--pick", default="leftmost",
                   help="leftmost, all, or path=STEP[,STEP...] with STEP like fun.elem0.content")
    p.add_argument("--steps", type=int, default=100, help="step budget per trace")
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("standardize", help="produce a standard chain, or check one")
    p.add_argument("term", nargs="?", help="source term")
    p.add_argument("target", nargs="?", help="target term")
    p.add_argument("--trace-file", help="standardize (or --check) a recorded trace instead")
    p.add_argument("--check", action="store_true", help="only report whether the trace is standard")
    p.add_argument("--bound", type=int, default=8, help="chain-length search bound")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(run=cmd_standardize)

    p = sub.add_parser("machine", help="run the outer-normalization machine")
    _add_io(p)
    p.add_argument("--policy", choices=POLICIES, default="canonical-first")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tree", action="store_true", help="print the derivation tree")
    p.add_argument("--bags", action="store_true",
                   help="run the bag machine on the argument of the given application")
    p.add_argument("--no-element-branching", action="store_true",
                   help="explore only the canonically least bag element per step")
    p.set_defaults(run=cmd_machine)

    p = sub.add_parser("solvable", help="decide may-solvability within a budget")
    _add_io(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--tree", action="store_true", help="print the witness derivation")
    p.set_defaults(run=cmd_solvable)

    p = sub.add_parser("translate", help="embed a pure λ-term (arguments become reusable bags)")
    _add_io(p)
    p.set_defaults(run=cmd_translate)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call in a process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "budget", 1) < 1 or getattr(args, "steps", 1) < 1:
        print("the budget must be at least 1", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.run(args)
    except RecursionError:
        print("internal error: the input nests too deeply (recursion limit exceeded)", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
