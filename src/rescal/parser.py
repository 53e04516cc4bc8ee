"""Concrete syntax: recursive-descent parsing and minimal-paren printing.

Grammar (whitespace insensitive, \\ and the unicode lambda are synonyms):

    sum      := "0" | term {"+" term}
    term     := lam | app
    lam      := "\\" ident {ident} "." term
    app      := atom {bag}
    atom     := ident | "(" term ")"
    bag      := "1" | "[" [resource {"," resource}] "]"
    resource := ["!"] term
    ident    := letter {letter | digit | "_"}

The printer renames binders to a fixed sequence and orders bag elements
canonically, so alpha-equivalent inputs print to the identical string.
It keeps an explicit stack, so it prints at any nesting depth; the
parser recurses.
"""

from __future__ import annotations

from .syntax import (
    Abs,
    App,
    Bag,
    Hole,
    LamAbs,
    LamApp,
    LamTerm,
    LamVar,
    Linear,
    Node,
    Resource,
    Reusable,
    Sum,
    Term,
    Var,
    canon_at,
    free_vars,
)


class ParseError(ValueError):
    """Syntax error with the offending span and the expected token set."""

    def __init__(self, message: str, span: tuple[int, int], expected: frozenset[str] = frozenset()):
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected

    def __str__(self):
        want = f" (expected {', '.join(sorted(self.expected))})" if self.expected else ""
        return f"{self.message} at {self.span[0]}..{self.span[1]}{want}"


_SINGLE = {
    ".": "dot",
    "(": "lparen",
    ")": "rparen",
    "[": "lbrack",
    "]": "rbrack",
    ",": "comma",
    "!": "bang",
    "+": "plus",
}


def _lex(text: str) -> list[tuple[str, str, int, int]]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in ("\\", "λ"):
            toks.append(("lambda", c, i, i + 1))
            i += 1
        elif c in _SINGLE:
            toks.append((_SINGLE[c], c, i, i + 1))
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            run = text[i:j]
            if run == "0":
                toks.append(("zero", run, i, j))
            elif run == "1":
                toks.append(("one", run, i, j))
            else:
                raise ParseError(f"unexpected number {run!r}", (i, j), frozenset({"0", "1"}))
            i = j
        elif c.isalpha() and c.isascii():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_") and text[j].isascii():
                j += 1
            toks.append(("ident", text[i:j], i, j))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", (i, i + 1))
    toks.append(("eof", "", n, n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.toks[self.pos]

    def next(self) -> tuple[str, str, int, int]:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: frozenset[str]):
        kind, text, s, e = self.peek()
        shown = text or "end of input"
        raise ParseError(f"unexpected {shown!r}", (s, e), expected)

    def expect(self, kind: str) -> tuple[str, str, int, int]:
        if self.peek()[0] != kind:
            self.fail(frozenset({kind}))
        return self.next()

    def expect_eof(self):
        if self.peek()[0] != "eof":
            self.fail(frozenset({"eof"}))

    def sum(self) -> Sum:
        if self.peek()[0] == "zero":
            self.next()
            self.expect_eof()
            return Sum(())
        addends = [self.term()]
        while self.peek()[0] == "plus":
            self.next()
            addends.append(self.term())
        self.expect_eof()
        return Sum(tuple((t, 1) for t in addends))

    def term(self) -> Term:
        if self.peek()[0] == "lambda":
            return self.lam()
        return self.app()

    def lam(self) -> Term:
        start = self.expect("lambda")[2]
        binders = [self.expect("ident")[1]]
        while self.peek()[0] == "ident":
            binders.append(self.next()[1])
        self.expect("dot")
        body = self.term()
        for b in reversed(binders):
            body = Abs(b, body)
            self._span(body, start)
        return body

    def app(self) -> Term:
        start = self.peek()[2]
        t = self.atom()
        while self.peek()[0] in ("one", "lbrack"):
            t = App(t, self.bag())
            self._span(t, start)
        return t

    def atom(self) -> Term:
        kind, text, s, e = self.peek()
        if kind == "ident":
            self.next()
            v = Var(text)
            object.__setattr__(v, "span", (s, e))
            return v
        if kind == "lparen":
            self.next()
            t = self.term()
            self.expect("rparen")
            return t
        self.fail(frozenset({"ident", "(", "\\"}))

    def bag(self) -> Bag:
        kind, _, s, _ = self.peek()
        if kind == "one":
            self.next()
            b = Bag(())
            object.__setattr__(b, "span", (s, s + 1))
            return b
        self.expect("lbrack")
        elements: list[Resource] = []
        if self.peek()[0] != "rbrack":
            elements.append(self.resource())
            while self.peek()[0] == "comma":
                self.next()
                elements.append(self.resource())
        end = self.expect("rbrack")[3]
        b = Bag(tuple(elements))
        object.__setattr__(b, "span", (s, end))
        return b

    def resource(self) -> Resource:
        start = self.peek()[2]
        reusable = False
        if self.peek()[0] == "bang":
            self.next()
            reusable = True
        content = self.term()
        r: Resource = Reusable(content) if reusable else Linear(content)
        self._span(r, start)
        return r

    def _span(self, node: Node, start: int):
        object.__setattr__(node, "span", (start, self.toks[self.pos - 1][3]))

    def lambda_term(self) -> LamTerm:
        if self.peek()[0] == "lambda":
            self.next()
            binders = [self.expect("ident")[1]]
            while self.peek()[0] == "ident":
                binders.append(self.next()[1])
            self.expect("dot")
            body = self.lambda_term()
            for b in reversed(binders):
                body = LamAbs(b, body)
            return body
        t = self.lambda_atom()
        while self.peek()[0] in ("ident", "lparen"):
            t = LamApp(t, self.lambda_atom())
        return t

    def lambda_atom(self) -> LamTerm:
        kind, text, _, _ = self.peek()
        if kind == "ident":
            self.next()
            return LamVar(text)
        if kind == "lparen":
            self.next()
            t = self.lambda_term()
            self.expect("rparen")
            return t
        self.fail(frozenset({"ident", "(", "\\"}))


def parse_sum(text: str) -> Sum:
    return _Parser(text).sum()


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.expect_eof()
    return t


def parse_lambda_term(text: str) -> LamTerm:
    p = _Parser(text)
    t = p.lambda_term()
    p.expect_eof()
    return t


_PRINT_NAMES = ("x", "y", "z", "w", "v", "u")


def _pick_name(used: set[str]) -> str:
    for n in _PRINT_NAMES:
        if n not in used:
            return n
    k = 1
    while True:
        for n in _PRINT_NAMES:
            c = f"{n}{k}"
            if c not in used:
                return c
        k += 1


def print_expr(e: Node) -> str:
    """Render any expression; alpha-equivalent inputs print identically."""
    if isinstance(e, Sum):
        if e.is_zero:
            return "0"
        avoid = set(free_vars(e))
        parts = []
        for a, k in e:
            parts.extend([_print(a, {}, 0, {}, avoid)] * k)
        return " + ".join(parts)
    return _print(e, {}, 0, {}, set(free_vars(e)))


def _print(e: Node, levels: dict[str, int], depth: int, names: dict[str, str], used: set[str]) -> str:
    """Print e under the binder context: levels and depth as canon_at
    takes them, the printed name of each binder, and the names in use.

    Walks with an explicit stack of visits, (node, context), and of
    builds, (node, None), and keeps the strings printed so far on
    another, so any nesting depth prints.
    """
    out: list[str] = []
    stack: list[tuple] = [(e, (levels, depth, names, used))]
    while stack:
        e, ctx = stack.pop()
        cls = type(e)
        if ctx is None:
            if cls is App:
                arg_s = out.pop()
                fun_s = out.pop()
                if type(e.fun) is Abs:
                    fun_s = f"({fun_s})"
                out.append(f"{fun_s} {arg_s}" if arg_s == "1" and fun_s[-1].isalnum() else fun_s + arg_s)
            elif cls is Abs:
                body_s = out.pop()
                out.append(f"\\{out.pop()}.{body_s}")
            elif cls is Bag:
                n = len(e.elements)
                parts = out[len(out) - n :]
                del out[len(out) - n :]
                out.append("[" + ", ".join(parts) + "]")
            else:
                out.append("!" + out.pop())
        elif cls is Var:
            out.append(ctx[2].get(e.name, e.name))
        elif cls is App:
            stack += ((e, None), (e.arg, ctx), (e.fun, ctx))
        elif cls is Linear:
            stack.append((e.content, ctx))
        elif cls is Abs:
            levels, depth, names, used = ctx
            printed = _pick_name(used)
            out.append(printed)
            binder = e.binder
            inner = ({**levels, binder: depth}, depth + 1, {**names, binder: printed}, used | {printed})
            stack += ((e, None), (e.body, inner))
        elif cls is Bag:
            if not e.elements:
                out.append("1")
                continue
            levels, depth = ctx[0], ctx[1]
            ordered = sorted(e.elements, key=lambda r: canon_at(r, levels, depth))
            stack.append((e, None))
            stack.extend((r, ctx) for r in reversed(ordered))
        elif cls is Reusable:
            stack += ((e, None), (e.content, ctx))
        elif cls is Hole:
            out.append(f"#{e.index}")
        else:
            raise TypeError(f"not a printable node: {e!r}")
    return out[0]
