"""Command-line behavior: output shapes and the exit-code contract."""

import io
import json

import pytest

from rescal import (
    Trace,
    alpha_eq,
    find_redexes,
    fire_nd,
    nd_reducts,
    parse_term,
    trace_records,
)
from rescal import cli
from rescal.cli import build_parser, main
from rescal.syntax import canon_at

I = r"\w.w"
N = rf"(\x.\y.x)[!({I})][!({I})]"
M1 = rf"({I})[!({N})]"
OMEGA = r"(\x.x[!x])[!(\x.x[!x])]"


def run(capsys, argv, entry=main):
    try:
        code = entry(argv)
    except SystemExit as e:
        code = e.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def nonstandard_trace():
    """Fire inside a bag element, then fire the containing redex."""
    targets = (rf"({I})[!((\y.{I})[!({I})])]", rf"(\y.{I})[!({I})]")
    m = parse_term(M1)
    initial, steps = m, []
    for target in targets:
        want = parse_term(target)
        step = next(
            fire_nd(m, r.path, canon_at(local, {}, 0, ignore_labels=True))
            for r in find_redexes(m)
            for local, whole in nd_reducts(m, r)
            if alpha_eq(whole, want)
        )
        steps.append(step)
        m = step.after
    return Trace(initial, tuple(steps), "nd", final=m)


# --------------------------------------------------------------------- reduce


def test_reduce_giant_prints_the_sum(capsys):
    code, out, _ = run(capsys, ["reduce", "--mode", "giant", r"(\x.x[x])[a,b]"])
    assert code == 0
    assert "final: a[b] + b[a]" in out


def test_reduce_nd_all_prints_both_outcomes(capsys):
    code, out, _ = run(capsys, ["reduce", "--pick", "all", rf"(\x.y[x][x])[\x.\y.y, {I}]"])
    assert code == 0
    assert "trace 0:" in out and "trace 1:" in out
    finals = sorted(line.split("final: ")[1] for line in out.splitlines() if "final:" in line)
    want = sorted((r"y[\x.\z.z][\x.x]", r"y[\x.x][\x.\z.z]"))
    assert finals == want


def test_reduce_crash_prints_zero(capsys):
    code, out, _ = run(capsys, ["reduce", r"(\x.x)1"])
    assert code == 1
    assert "final: 0" in out


def test_reduce_fires_a_picked_path_sequence(capsys):
    m = rf"f[({I})[a]][({I})[b]]"
    argv = ["reduce", "--pick", "path=arg.elem0.content,fun.arg.elem0.content", m]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "final: f[a][b]" in out


def test_reduce_picked_path_can_crash(capsys):
    code, out, _ = run(capsys, ["reduce", "--pick", "path=root", r"(\x.x)1"])
    assert code == 1
    assert "0" in out


def test_reduce_rejects_a_malformed_path(capsys):
    code, _, err = run(capsys, ["reduce", "--pick", "path=sideways", "x"])
    assert code == 3
    assert "bad path component" in err


def test_reduce_rejects_unreadable_input(capsys):
    code, _, err = run(capsys, ["reduce", "((("])
    assert code == 3
    assert "parse error" in err


def test_reduce_budget_exit(capsys):
    code, out, _ = run(capsys, ["reduce", "--steps", "3", OMEGA])
    assert code == 2
    assert "truncated" in out


def test_reduce_structured_emits_json_lines(capsys):
    code, out, _ = run(capsys, ["reduce", "--format", "structured", "--mode", "giant", r"(\x.x[x])[a,b]"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["event"] == "trace" and records[0]["final"] == "a[b] + b[a]"
    assert [r["event"] for r in records[1:]] == ["step"]


# ----------------------------------------------------------------- input I/O


def test_input_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x"))
    code, out, _ = run(capsys, ["reduce"])
    assert code == 0 and "final: x" in out


def test_input_from_file(capsys, tmp_path):
    src = tmp_path / "term.txt"
    src.write_text("x[y]\n", encoding="utf-8")
    code, out, _ = run(capsys, ["reduce", "--file", str(src)])
    assert code == 0 and "final: x[y]" in out


def test_unreadable_file_exits_with_parse_code(capsys, tmp_path):
    for path in (tmp_path / "absent.txt", tmp_path):
        code, out, err = run(capsys, ["reduce", "--file", str(path)])
        assert code == 3 and out == ""
        assert err.startswith("cannot read input: ") and err.count("\n") == 1


def test_multiple_input_sources_rejected(capsys, tmp_path):
    src = tmp_path / "term.txt"
    src.write_text("x", encoding="utf-8")
    code, _, err = run(capsys, ["reduce", "y", "--file", str(src)])
    assert code == 3
    assert "not several" in err


def test_usage_errors_exit_with_parse_code(capsys):
    assert run(capsys, ["frobnicate", "x"])[0] == 3
    assert run(capsys, [])[0] == 3
    assert run(capsys, ["machine", "x", "--budget", "0"])[0] == 3


# ---------------------------------------------------------------- standardize


def test_standardize_two_terms(capsys):
    code, out, _ = run(capsys, ["standardize", M1, I])
    assert code == 0
    assert out.count("=nd@") == 3
    assert "final: \\x.x" in out


def test_standardize_unreachable_target(capsys):
    code, _, err = run(capsys, ["standardize", "x", "y", "--bound", "3"])
    assert code == 2
    assert "no chain found" in err


def test_standardize_needs_two_terms(capsys):
    code, _, err = run(capsys, ["standardize", "x"])
    assert code == 3
    assert "needs a source and a target" in err


def test_standardize_rejects_terms_plus_trace_file(capsys, tmp_path):
    f = tmp_path / "t.jsonl"
    f.write_text("", encoding="utf-8")
    code, _, err = run(capsys, ["standardize", "x", "y", "--trace-file", str(f)])
    assert code == 3


def test_check_accepts_a_recorded_leftmost_trace(capsys, tmp_path):
    code, out, _ = run(capsys, ["reduce", "--format", "structured", M1])
    assert code == 0
    f = tmp_path / "trace.jsonl"
    f.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, ["standardize", "--trace-file", str(f), "--check"])
    assert code == 0
    assert out.strip() == "standard"


def test_check_reloads_a_step_under_an_outer_binder(capsys, tmp_path):
    """The chosen addend names the outer binder as the input does (b0),
    the printed terms as the printer does (x); the trace still reloads."""
    code, out, _ = run(capsys, ["reduce", "--format", "structured", r"\b0.(\b1.b1)[b0]"])
    assert code == 0
    f = tmp_path / "trace.jsonl"
    f.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, ["standardize", "--trace-file", str(f), "--check"])
    assert code == 0
    assert out.strip() == "standard"


def test_check_flags_a_nonstandard_trace(capsys, tmp_path):
    f = tmp_path / "bad.jsonl"
    lines = [json.dumps(rec) for rec in trace_records(nonstandard_trace())]
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, ["standardize", "--trace-file", str(f), "--check"])
    assert code == 1
    assert out.strip() == (
        "not standard: step 1 fires a residual of root, "
        "which precedes arg.elem0.content.fun fired at step 0"
    )
    code, out, _ = run(capsys, ["standardize", "--trace-file", str(f), "--check", "--format", "structured"])
    assert code == 1
    rec = json.loads(out)
    assert rec == {
        "standard": False,
        "violation": {
            "step": 1,
            "residual_of": "root",
            "previous_step_redex": "arg.elem0.content.fun",
        },
    }


def test_nonstandard_trace_restandardizes(capsys, tmp_path):
    f = tmp_path / "bad.jsonl"
    lines = [json.dumps(rec) for rec in trace_records(nonstandard_trace())]
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, ["standardize", "--trace-file", str(f)])
    assert code == 0
    assert "final:" in out


def test_trace_file_must_hold_valid_records(capsys, tmp_path):
    f = tmp_path / "garbled.jsonl"
    f.write_text('{"event": "step", "index": 0}\n', encoding="utf-8")
    code, _, err = run(capsys, ["standardize", "--trace-file", str(f), "--check"])
    assert code == 3
    assert "cannot load trace" in err


# -------------------------------------------------------------------- machine


def test_machine_exit_codes(capsys):
    assert run(capsys, ["machine", rf"({I})[z]"])[0] == 0
    assert run(capsys, ["machine", "--budget", "50", OMEGA])[0] == 2
    assert run(capsys, ["machine", r"(\z.\y.y)[x]"])[0] == 1


def test_machine_text_outputs(capsys):
    _, out, _ = run(capsys, ["machine", rf"({I})[z]"])
    assert out.strip() == "converged: z"
    _, out, _ = run(capsys, ["machine", "--budget", "50", OMEGA])
    assert "budget exhausted" in out
    _, out, _ = run(capsys, ["machine", r"(\z.\y.y)[x]"])
    assert out.startswith("undefined at:")


def test_machine_enumerates_all_runs(capsys):
    m = rf"(\x.y[x][x])[\x.\y.y, {I}]"
    code, out, _ = run(capsys, ["machine", "--policy", "enumerate-all", m])
    assert code == 0
    assert out.count("converged:") == 2


def test_machine_tree_rendering(capsys):
    code, out, _ = run(capsys, ["machine", "--tree", rf"({I})[z]"])
    assert code == 0
    assert "(beta)" in out and "(end)" in out


def test_machine_structured_record(capsys):
    code, out, _ = run(capsys, ["machine", "--format", "structured", rf"({I})[z]"])
    assert code == 0
    rec = json.loads(out)
    assert rec["status"] == "converged" and rec["result"] == "z"
    assert rec["tree"]["rule"] in ("beta", "!beta")


def test_machine_bag_mode(capsys):
    code, out, _ = run(capsys, ["machine", "--bags", rf"x[!({I}), ({I})[z]]"])
    assert code == 0 and "converged:" in out
    code, _, err = run(capsys, ["machine", "--bags", "x"])
    assert code == 3
    assert "argument of an application" in err


# ------------------------------------------------------------------- solvable


def test_solvable_exit_codes_and_text(capsys):
    code, out, _ = run(capsys, ["solvable", I])
    assert code == 0 and out.startswith("may-solvable:")
    code, out, _ = run(capsys, ["solvable", "--budget", "200", OMEGA])
    assert code == 2 and "undecided within budget" in out
    code, out, _ = run(capsys, ["solvable", r"(\z.\y.y)[x]"])
    assert code == 1 and "no run converges" in out


def test_solvable_structured_record(capsys):
    code, out, _ = run(capsys, ["solvable", "--format", "structured", I])
    assert code == 0
    assert json.loads(out)["status"] == "may-solvable"
    code, out, _ = run(capsys, ["solvable", "--format", "structured", "--budget", "200", OMEGA])
    assert code == 2
    rec = json.loads(out)
    assert rec["status"] == "not-within-budget" and rec["exhaustive"] is False


# ------------------------------------------------------------------ translate


def test_translate_examples(capsys):
    code, out, _ = run(capsys, ["translate", r"(\x.x x) y"])
    assert code == 0 and out.strip() == r"(\x.x[!x])[!y]"
    code, out, _ = run(capsys, ["translate", "x"])
    assert code == 0 and out.strip() == "x"


def test_translate_self_application_gives_the_loop(capsys):
    code, out, _ = run(capsys, ["translate", r"(\x.x x)(\x.x x)"])
    assert code == 0
    assert parse_term(out.strip()).canon() == parse_term(OMEGA).canon()


def test_translate_rejects_bag_syntax(capsys):
    code, _, err = run(capsys, ["translate", "x[y]"])
    assert code == 3
    assert "parse error" in err


# ------------------------------------------------------- structured records


def test_structured_record_keys_match_the_readme(capsys, tmp_path):
    """The key sets that README's "Structured records" section documents."""
    tree_keys = {"rule", "judgment_in", "judgment_out", "choice", "children"}

    f = tmp_path / "bad.jsonl"
    f.write_text("\n".join(json.dumps(rec) for rec in trace_records(nonstandard_trace())) + "\n", encoding="utf-8")
    _, out, _ = run(capsys, ["standardize", "--trace-file", str(f), "--check", "--format", "structured"])
    rec = json.loads(out)
    assert set(rec) == {"standard", "violation"}
    assert set(rec["violation"]) == {"step", "residual_of", "previous_step_redex"}

    _, out, _ = run(capsys, ["machine", "--format", "structured", rf"({I})[z]"])
    rec = json.loads(out)
    assert set(rec) == {"status", "result", "tree"}
    assert set(rec["tree"]) == tree_keys
    _, out, _ = run(capsys, ["machine", "--format", "structured", r"(\z.\y.y)[x]"])
    assert set(json.loads(out)) == {"status", "stuck"}
    _, out, _ = run(capsys, ["machine", "--format", "structured", "--budget", "50", OMEGA])
    assert json.loads(out) == {"status": "budget-exhausted"}

    _, out, _ = run(capsys, ["solvable", "--format", "structured", I])
    rec = json.loads(out)
    assert set(rec) == {"status", "witness"}
    assert set(rec["witness"]) == tree_keys
    _, out, _ = run(capsys, ["solvable", "--format", "structured", "--budget", "200", OMEGA])
    assert set(json.loads(out)) == {"status", "explored", "exhaustive"}


# --------------------------------------------------------------- exit codes


# 200 nested linear identities (\x.x)[(\x.x)[…y]]: their machine trees
# and witnesses render and print without recursion.
NESTED_200 = "y"
for _ in range(200):
    NESTED_200 = rf"(\x.x)[{NESTED_200}]"

EXIT_CODES = [
    ("ok", ["reduce", "--mode", "giant", r"(\x.x[x])[a,b]"], 0),
    ("reduction to zero", ["reduce", r"(\x.x)1"], 1),
    ("machine undefined", ["machine", r"(\z.\y.y)[x]"], 1),
    ("not solvable", ["solvable", r"(\z.\y.y)[x]"], 1),
    ("step budget", ["reduce", "--steps", "3", OMEGA], 2),
    ("machine budget", ["machine", "--budget", "50", OMEGA], 2),
    ("search bound", ["standardize", "x", "y", "--bound", "3"], 2),
    ("malformed term", ["reduce", "((("], 3),
    ("usage error", ["frobnicate", "x"], 3),
    ("missing --file", ["reduce", "--file", "{missing}"], 3),
    ("internal error", ["reduce", "".join(f"\\x{i}." for i in range(3000)) + "x0"], 4),
    ("deep machine tree", ["machine", "--tree", NESTED_200], 0),
    ("deep machine record", ["machine", "--tree", "--format", "structured", NESTED_200], 0),
    ("deep witness tree", ["solvable", "--tree", NESTED_200], 0),
    ("deep witness record", ["solvable", "--format", "structured", NESTED_200], 0),
]


@pytest.mark.parametrize("argv, code", [case[1:] for case in EXIT_CODES], ids=[case[0] for case in EXIT_CODES])
def test_exit_code_meanings(capsys, tmp_path, argv, code):
    argv = [a.replace("{missing}", str(tmp_path / "absent.txt")) for a in argv]
    assert run(capsys, argv)[0] == code


# ------------------------------------------------------ repeated main calls


def test_repeated_in_process_calls_are_independent(capsys, monkeypatch, tmp_path):
    """main builds its parser once per process; each later call must print
    and exit exactly as a call with a parser of its own."""
    trace = tmp_path / "bad.jsonl"
    trace.write_text("\n".join(json.dumps(rec) for rec in trace_records(nonstandard_trace())) + "\n", encoding="utf-8")
    sequence = [
        ["reduce", "--pick", "all", rf"(\x.y[x][x])[\x.\y.y, {I}]"],
        ["frobnicate", "x"],
        ["reduce", "--steps", "3", OMEGA],
        ["reduce", "--mode", "baby", "--steps", "oops", "x"],
        ["reduce", "--format", "structured", "--mode", "giant", r"(\x.x[x])[a,b]"],
        ["--help"],
        ["standardize", M1, I],
        ["standardize", "--trace-file", str(trace), "--check", "--format", "structured"],
        ["machine", "--tree", "--policy", "enumerate-all", rf"(\x.y[x][x])[\x.\y.y, {I}]"],
        ["machine", "--policy", "sideways", "x"],
        ["machine", "--format", "structured", rf"({I})[z]"],
        ["solvable", "--tree", I],
        ["solvable", "--format", "structured", "--budget", "200", OMEGA],
        ["translate", r"(\x.x x) y"],
        ["reduce", "--help"],
        ["reduce", "--file", str(tmp_path / "absent.txt")],
        ["translate", "--format", "structured", "x"],
    ]

    def fresh(argv):
        args = build_parser().parse_args(argv)
        return args.run(args)

    want = [run(capsys, argv, entry=fresh) for argv in sequence]
    built = []

    def counted_build():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    got = [run(capsys, argv) for argv in sequence]
    assert got == want
    assert {code for code, _, _ in got} == {0, 1, 2, 3}
    assert len(built) == 1
