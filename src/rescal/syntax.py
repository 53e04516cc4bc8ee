"""Terms, bags, resources, and formal sums with multiset semantics.

A term applies a function to a bag (multiset) of resources.  A resource
is either linear (must be consumed exactly once) or reusable (marked
with !, available any number of times).  Sums collect alternative
results with natural multiplicities; the empty sum 0 means failure and
is absorbing everywhere except under !, where a reusable 0 collapses to
the empty bag.

Equality and hashing on every node go through a nameless canonical
form, so two expressions compare equal exactly when they are alpha
equivalent up to reordering of bag elements and sum addends.

Each node other than a variable caches, once computed, its free
variables, its canonical form and its canonical form with redex labels
ignored.  A subterm whose free variables avoid every binder above it has
the same canonical form in place as on its own, so keying a term reuses
the cached keys of such subterms instead of walking them again; since
substitution and plugging share the subterms they do not change, most
of a reduct is keyed already.  The caches are plain attributes, not
dataclass fields, so equality, repr and dataclasses.replace ignore them.
Keying and free-variable collection walk with explicit stacks, so they
answer at any nesting depth.

Three more caches hold what reduction finds out about a node.  A term
keeps its nd reducts, one tuple of (local addend, whole term) pairs per
redex path fired, and the machine's firing of its spine, an undefined
firing included; erase_labels marks each node it proves label-free and
hands such a node back without a walk.  The successors a node caches
are the same objects on every later call, so their own caches serve the
next firing too, and they stay alive exactly as long as the node does.
The one cache outside the nodes is a single run's table from canonical
form to the first node of each alpha-class the run reaches (the leftmost
nd run in reduction, a single machine run in machine): the run goes on
from that node, so a run round a cycle fires nodes it has fired before,
and the table dies with the run.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

_element_ids = itertools.count(1)


def _next_element_id() -> int:
    # next() on itertools.count is atomic under the GIL, so ids stay
    # unique even when terms are built from several threads.
    return next(_element_ids)


class Node:
    """Base for all syntax nodes: equality is alpha-equivalence."""

    # Per-node caches, each set once with object.__setattr__.  None means
    # not computed yet; Var is keyed inline and never caches.
    _fv_cache: frozenset[str] | None = None
    _canon_cache: tuple | None = None
    _lf_cache: tuple | None = None
    # Successor caches, filled by reduction and machine: nd reducts by
    # redex path steps, and the spine firing; _label_free is set by
    # erase_labels on a node that holds no label.
    _nd_cache: dict | None = None
    _spine_cache: tuple | None = None
    _label_free: bool = False

    def canon(self):
        """Nameless canonical form, cached on first use."""
        c = self._canon_cache
        if c is None:
            c = canon_at(self, _NO_BINDERS, 0)
        return c

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Node):
            return NotImplemented
        return self.canon() == other.canon()

    def __hash__(self):
        return hash(self.canon())

    def __repr__(self):
        from . import parser

        return parser.print_expr(self)


class Term(Node):
    """A term: variable, abstraction, or application of a term to a bag."""


class Resource(Node):
    """One bag element: a term usable exactly once, or reusable under !."""


@dataclass(frozen=True, eq=False, repr=False)
class Var(Term):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Abs(Term):
    binder: str
    body: Term


@dataclass(frozen=True, eq=False, repr=False)
class App(Term):
    fun: Term
    arg: "Bag"
    label: int | None = None


@dataclass(frozen=True, eq=False, repr=False)
class Hole(Term):
    """Placeholder left where an outer shape removed reusable content."""

    index: int


@dataclass(frozen=True, eq=False, repr=False)
class Linear(Resource):
    content: Term
    ident: int = field(default_factory=_next_element_id)


@dataclass(frozen=True, eq=False, repr=False)
class Reusable(Resource):
    content: Term
    ident: int = field(default_factory=_next_element_id)


@dataclass(frozen=True, eq=False, repr=False)
class Bag(Node):
    elements: tuple[Resource, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        idents = [r.ident for r in self.elements]
        if len(set(idents)) != len(idents):
            raise ValueError("duplicate element ids in one bag")


Expression = Union[Term, Bag]


@dataclass(frozen=True, eq=False, repr=False)
class Sum(Node):
    """Formal sum of terms or of bags, with natural multiplicities.

    Addends are merged by canonical form and kept sorted, so the stored
    tuple is itself canonical.  The empty sum is zero.
    """

    addends: tuple[tuple[Expression, int], ...] = ()

    def __post_init__(self):
        if len(self.addends) == 1:
            # One addend: nothing to merge or sort.
            ((expr, mult),) = self.addends
            if isinstance(expr, Sum):
                raise TypeError("sum addends must be terms or bags, not sums")
            if mult < 0:
                raise ValueError("negative multiplicity")
            object.__setattr__(self, "addends", ((expr, mult),) if mult else ())
            return
        merged: dict = {}
        kinds = set()
        for expr, mult in self.addends:
            if isinstance(expr, Sum):
                raise TypeError("sum addends must be terms or bags, not sums")
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult == 0:
                continue
            kinds.add(isinstance(expr, Bag))
            key = expr.canon()
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + mult)
            else:
                merged[key] = (expr, mult)
        if len(kinds) > 1:
            raise ValueError("sum mixes terms and bags")
        normal = tuple(merged[k] for k in sorted(merged))
        object.__setattr__(self, "addends", normal)

    @classmethod
    def of(cls, *exprs: Expression) -> "Sum":
        return cls(tuple((e, 1) for e in exprs))

    @property
    def is_zero(self) -> bool:
        return not self.addends

    def __iter__(self) -> Iterator[tuple[Expression, int]]:
        return iter(self.addends)

    def __add__(self, other: "Sum") -> "Sum":
        if not isinstance(other, Sum):
            return NotImplemented
        return Sum(self.addends + other.addends)

    def scaled(self, k: int) -> "Sum":
        return Sum(tuple((e, m * k) for e, m in self.addends))

    def support(self) -> tuple[Expression, ...]:
        return tuple(e for e, _ in self.addends)

    def total(self) -> int:
        return sum(m for _, m in self.addends)

    def sole(self) -> Expression:
        if len(self.addends) == 1 and self.addends[0][1] == 1:
            return self.addends[0][0]
        raise ValueError(f"sum is not a single addend: {self!r}")


ZERO = Sum(())


_NO_BINDERS: dict[str, int] = {}
_NO_NAMES: frozenset[str] = frozenset()


def canon_at(node, bound: dict[str, int], depth: int, ignore_labels: bool = False):
    """Canonical form of a subexpression under the given binder context.

    bound maps each binder in scope to the depth it was entered at, so a
    bound variable is keyed by its de Bruijn index.  A subexpression whose
    free variables avoid bound is keyed as on its own: its cached key is
    reused, or computed once and cached.  The walk keeps an explicit stack
    of visits and of builds, and the keys built so far on another.
    """
    attr = "_lf_cache" if ignore_labels else "_canon_cache"
    keys: list = []
    # A visit is (node, bound, depth); a build is (node, None, cacheable).
    stack: list = [(node, bound, depth)]
    while stack:
        node, bound, depth = stack.pop()
        cls = type(node)
        if bound is None:
            if cls is App:
                a = keys.pop()
                f = keys.pop()
                key = ("app", f, a) if node.label is None or ignore_labels else ("app*", node.label, f, a)
            elif cls is Abs:
                key = ("abs", keys.pop())
            elif cls is Linear:
                key = ("lin", keys.pop())
            elif cls is Reusable:
                key = ("reu", keys.pop())
            elif cls is Bag:
                n = len(node.elements)
                parts = keys[len(keys) - n :]
                del keys[len(keys) - n :]
                key = ("bag", tuple(sorted(parts)))
            else:
                n = len(node.addends)
                parts = keys[len(keys) - n :]
                del keys[len(keys) - n :]
                key = ("sum", tuple(zip(parts, (m for _, m in node.addends))))
            if depth:
                object.__setattr__(node, attr, key)
            keys.append(key)
            continue
        if cls is Var:
            level = bound.get(node.name)
            keys.append(("free", node.name) if level is None else ("bound", depth - level))
            continue
        if cls is Hole:
            keys.append(("hole", node.index))
            continue
        if bound:
            fv = node._fv_cache
            if fv is None:
                fv = free_vars(node)
            if bound.keys().isdisjoint(fv):
                bound, depth = _NO_BINDERS, 0
        if not bound:
            key = getattr(node, attr, None)
            if key is not None:
                keys.append(key)
                continue
        if cls is Abs:
            # Only the binders the body can see go down, so the context
            # stays small however deep the abstractions nest.
            if bound and len(fv) < len(bound):
                inner = {v: bound[v] for v in fv if v in bound}
            else:
                inner = dict(bound)
            inner[node.binder] = depth
            stack.append((node, None, not bound))
            stack.append((node.body, inner, depth + 1))
        elif cls is App:
            stack.append((node, None, not bound))
            stack.append((node.arg, bound, depth))
            stack.append((node.fun, bound, depth))
        elif cls is Linear or cls is Reusable:
            stack.append((node, None, not bound))
            stack.append((node.content, bound, depth))
        elif cls is Bag:
            stack.append((node, None, not bound))
            stack.extend((r, bound, depth) for r in node.elements)
        elif cls is Sum:
            stack.append((node, None, True))
            stack.extend((e, _NO_BINDERS, 0) for e, _ in reversed(node.addends))
        else:
            raise TypeError(f"not a syntax node: {node!r}")
    return keys[0]


def alpha_eq(a: Node, b: Node) -> bool:
    """True when a and b are the same expression up to binder names."""
    return a.canon() == b.canon()


def canonicalize(e: Node):
    return e.canon()


def label_free_key(e: Node) -> tuple:
    """Canonical form of e with redex labels ignored, cached on e."""
    key = e._lf_cache
    if key is None:
        key = canon_at(e, _NO_BINDERS, 0, ignore_labels=True)
    return key


def element_rank(r: Resource) -> tuple:
    """The order in which bag elements are fed: canonical form, then id."""
    return (r.canon(), r.ident)


def free_vars(e: Node) -> frozenset[str]:
    """The free variables of e, cached on every node but a variable.

    A node's set is computed after its children's, with an explicit
    stack; a node shares its child's set when it adds or removes no name.
    """
    if type(e) is Var:
        return frozenset((e.name,))
    fv = getattr(e, "_fv_cache", None)
    if fv is not None:
        return fv
    if not isinstance(e, Node):
        raise TypeError(f"not a syntax node: {e!r}")
    stack: list = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            object.__setattr__(node, "_fv_cache", _fv_of(node))
        elif node._fv_cache is None:
            children = _children(node)
            stack.append((node, True))
            stack.extend((c, False) for c in children if type(c) is not Var and c._fv_cache is None)
    return e._fv_cache


def _children(node: Node) -> tuple:
    cls = type(node)
    if cls is App:
        return (node.fun, node.arg)
    if cls is Abs:
        return (node.body,)
    if cls is Linear or cls is Reusable:
        return (node.content,)
    if cls is Bag:
        return node.elements
    if cls is Sum:
        return tuple(a for a, _ in node.addends)
    if cls is Hole:
        return ()
    raise TypeError(f"not a syntax node: {node!r}")


def _cached_fv(c: Node) -> frozenset[str]:
    return frozenset((c.name,)) if type(c) is Var else c._fv_cache


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _fv_of(node: Node) -> frozenset[str]:
    """Free variables of a node whose children's sets are cached."""
    cls = type(node)
    if cls is Abs:
        fv = _cached_fv(node.body)
        return fv - {node.binder} if node.binder in fv else fv
    if cls is App:
        return _union(_cached_fv(node.fun), _cached_fv(node.arg))
    if cls is Linear or cls is Reusable:
        return _cached_fv(node.content)
    out = _NO_NAMES
    for c in _children(node):
        out = _union(out, _cached_fv(c))
    return out


def size(e: Node) -> int:
    """Symbol count: variables, binders, applications, and ! marks.
    Walks with an explicit stack of (node, multiplicity), so it counts
    at any nesting depth; a sum addend counts once per copy."""
    total = 0
    stack: list[tuple[Node, int]] = [(e, 1)]
    while stack:
        node, k = stack.pop()
        match node:
            case Var() | Hole():
                total += k
            case Abs(_, body):
                total += k
                stack.append((body, k))
            case App(fun, arg):
                total += k
                stack += ((fun, k), (arg, k))
            case Linear(content):
                stack.append((content, k))
            case Reusable(content):
                total += k
                stack.append((content, k))
            case Bag(elements):
                stack += ((r, k) for r in elements)
            case Sum(addends):
                stack += ((a, k * m) for a, m in addends)
            case _:
                raise TypeError(f"not a syntax node: {node!r}")
    return total


_NAME_SUFFIX = re.compile(r"_[0-9]+$")


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    """Deterministic rename target: base, then base_1, base_2, ..."""
    avoid = set(avoid)
    if base not in avoid:
        return base
    root = _NAME_SUFFIX.sub("", base) or "v"
    k = 1
    while f"{root}_{k}" in avoid:
        k += 1
    return f"{root}_{k}"


def sum_abs(x: str, s: Sum) -> Sum:
    """Abstraction pushed through a sum of bodies."""
    return Sum(tuple((Abs(x, m), k) for m, k in s))


def mk_app(funs: Sum, args: Sum, label: int | None = None) -> Sum:
    """Application extended bilinearly over sums of terms and of bags."""
    return Sum(tuple((App(f, b, label), i * j) for f, i in funs for b, j in args))


def sum_app(funs: Sum, args: Sum) -> Sum:
    return mk_app(funs, args, None)


def cons_linear(content: Sum, rest: Sum, ident: int | None = None) -> Sum:
    """Prepend one linear element, distributing over both sums.

    When ident is given, every produced element keeps that id; this lets
    substitution rebuild a bag without disturbing element identity.
    """
    pairs = []
    for t, i in content:
        for b, j in rest:
            e = Linear(t) if ident is None else Linear(t, ident)
            pairs.append((Bag((e,) + b.elements), i * j))
    return Sum(tuple(pairs))


def sum_bag_linear(content: Sum, rest: Sum) -> Sum:
    return cons_linear(content, rest, None)


def cons_reusable(content: Sum, rest: Sum, ident: int | None = None) -> Sum:
    """Prepend one reusable element whose content is a whole sum.

    A sum under ! collapses into one bag: each addend becomes its own
    reusable element, repeated per multiplicity, and a zero content
    contributes no element at all.
    """
    if content.total() == 1 and ident is not None:
        elems: tuple[Resource, ...] = (Reusable(content.sole(), ident),)
    else:
        elems = tuple(Reusable(t) for t, k in content for _ in range(k))
    return Sum(tuple((Bag(elems + b.elements), j) for b, j in rest))


def sum_bag_reusable(content: Sum, rest: Sum) -> Sum:
    return cons_reusable(content, rest, None)


@dataclass(frozen=True)
class LamVar:
    name: str


@dataclass(frozen=True)
class LamAbs:
    binder: str
    body: "LamTerm"


@dataclass(frozen=True)
class LamApp:
    fun: "LamTerm"
    arg: "LamTerm"


LamTerm = Union[LamVar, LamAbs, LamApp]


def from_lambda(t: LamTerm) -> Term:
    """Embed a pure lambda term: every argument becomes [!argument]."""
    match t:
        case LamVar(name):
            return Var(name)
        case LamAbs(x, body):
            return Abs(x, from_lambda(body))
        case LamApp(fun, arg):
            return App(from_lambda(fun), Bag((Reusable(from_lambda(arg)),)))
    raise TypeError(f"not a lambda term: {t!r}")
