"""Expression trees over fuzzy values.

Parsing, evaluation, and symbolic differentiation for the grammar

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power          -- Scale(factor, -1.0)
    power  := atom ('^' uint)?
    atom   := number | 'T(' num ',' num ',' num ')' | ident
            | ident '(' expr ')' | '(' expr ')'

with functions exp, sin, cos.  Binary '-' is the gH-difference throughout
(ordinary subtraction is ``a + (-1)*b``), and '^' binds tighter than unary
minus, so ``-x^2`` is ``-(x^2)``.  Unary minus is the scale node by -1,
which ``to_text`` prints as ``-u``, so the twelve node classes are the two
constants, ``Var``, the four binary operations, ``PowInt``, ``Scale`` and
the three functions.  One reader, ``_Parser.number``, reads every number
of this grammar and of coefficient-rule text, with or without an exponent
(``2.5e-3``); one that is not finite is an ExprSyntaxError at its
position.  An exponent after '^' must be all digits.

Evaluation is level-wise: each node runs a kernel of :mod:`fuzzcalc.core`,
that of an interval operation or, for exp/sin/cos, the exact range of the
function over each alpha-cut (sin and cos account for interior critical
points, not just endpoint values).

Nodes are interned when built, so equal nodes are one object and compare and
hash by identity.  A node is checked when it is built (its children, a
power's exponent, a fuzzy constant's properness), so a walk checks only its
roots, and evaluation checks only a constant's grid and the properness of a
gH-difference's value where an operation reads it.  Leaves are equal
bit-exactly: a crisp constant by its float's bits (``0.0`` and ``-0.0`` are
two nodes), a fuzzy constant by its grid and envelope bytes.  A node is
immutable, so what is built from it lives in its one memo (``_kept``), keyed
by builder and arguments, for the node's lifetime: its derivative by each
variable, and the plan of each root family built from it (its own
evaluation, the Taylor coefficients, the IVP step, the partial sums).  A
plan holds no node, so only a derivative that is or contains the node (d/dx
``exp(x)``, d/dx ``x*exp(x)``) holds it, and keeps it until the cycle
collector runs.
``evaluate`` handles each distinct node once per call; ``differentiate``
runs each node's rule once per node and variable.  It returns a DAG in
which equal subtrees share one derivative, with negation kept outermost:
the expanded tree of the k-th derivative of ``sin(x)*exp(x)`` doubles
with k, its distinct nodes grow by three per order.

A sum of fuzzy products (the Taylor coefficients, the IVP step, a partial
sum) is one root family: a DAG with many roots, evaluated in one walk over
their union, so a subtree the roots share is computed once.  The walk is
planned once per family (one root, for ``evaluate``), so a family evaluated
many times is built and walked once.  The plan is a flat tape (after
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008): one entry
per distinct node, each a kernel from a per-class table with its operands'
slot indices, so an evaluation is one loop over a list of slots.  The tape
only routes values: its kernels, all core's, run no guards, and it checks
only what a node may break, calling core's guards only to raise (see
:func:`_evaluate`).

Pickling writes a node's DAG flat, without recursion or its memo, and
unpickling re-interns it.
"""

from __future__ import annotations

import math
import re
import struct
import weakref
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import _counters
from .core import (
    DEFAULT_GRID,
    MAX_EXPONENT,
    AlphaGrid,
    FuzzyNumber,
    _add,
    _cos,
    _count,
    _div,
    _exp,
    _frozen,
    _gh_difference,
    _mul,
    _pow_int,
    _release,
    _require_proper,
    _require_same_grid,
    _scalar_mul,
    _sin,
    _singleton,
    _spread,
    make_triangular,
)
from .errors import ExprSyntaxError, UnboundVariable, UnknownFunction


class Expr:
    """Immutable expression node, interned when built (see the module
    docstring).  Construction is a lookup then an insert, with no lock: two
    threads racing to build one node can leave two equal nodes that compare
    unequal, which loses sharing but never changes a value."""

    __slots__ = ()

    def __new__(cls, *fields):
        names = cls.__dataclass_fields__
        if len(fields) != len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} positional fields")
        key = cls._intern_key(*fields)
        node = _NODES.get(key)
        if node is None:
            # the child nodes, in field order, for every walk; a hit has the
            # live children of the node found, so only a new node is checked
            kids = _nodes(fields[: _N_KIDS[cls]])
            node = _NODES[key] = object.__new__(cls)
            # its fields, its children, and the memo of what is built from it
            node.__dict__.update(zip(names, fields), _kids=kids, _kept={})
        return node

    @classmethod
    def _intern_key(cls, *fields) -> tuple:
        # children by id: the entry's live node holds them, so the ids stay
        # theirs; keys holding the children would free a dropped DAG a layer
        # per gc.collect()
        n = _N_KIDS[cls]
        return (cls, *map(id, fields[:n]), *fields[n:])

    def __repr__(self) -> str:
        # the walk in to_text; a generated repr would recurse once per level
        return f"{type(self).__name__}({to_text(self)})"

    def __reduce__(self):
        # the DAG flat, in walk order, with each child named by its index,
        # so a deep tree pickles without recursion
        order = _walk((self,))
        index = {node: i for i, node in enumerate(order)}
        records = []
        for node in order:
            rest = list(node.__dataclass_fields__)[len(node._kids):]
            records.append((type(node), *(index[k] for k in node._kids),
                            *(getattr(node, name) for name in rest)))
        return _rebuild, (tuple(records),)


# every live node, by the key of its class's _intern_key
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False, init=False, repr=False)
class CrispConst(Expr):
    value: float

    @classmethod
    def _intern_key(cls, value) -> tuple:
        return (cls, struct.pack("d", value))


@dataclass(frozen=True, eq=False, init=False, repr=False)
class FuzzyConst(Expr):
    """A proper fuzzy value; an improper one is refused (ImproperOperand)
    when the node is built.  Interned by its grid and envelope bytes."""

    value: FuzzyNumber

    @classmethod
    def _intern_key(cls, v) -> tuple:
        _require_proper(v, what="fuzzy constant")
        return (cls, v.grid, v.lower.tobytes(), v.upper.tobytes())


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, init=False, repr=False)
class GhSub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, init=False, repr=False)
class PowInt(Expr):
    base: Expr
    exponent: int

    def __new__(cls, base, exponent):
        # the exponent kept is the int, whichever spelling built the node
        return super().__new__(cls, base, _count(exponent, "exponent", 0, MAX_EXPONENT))


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Scale(Expr):
    """``operand`` times the crisp ``factor``, which is keyed by its bits;
    unary minus is the factor -1."""

    operand: Expr
    factor: float

    @classmethod
    def _intern_key(cls, operand, factor) -> tuple:
        return (cls, id(operand), struct.pack("d", factor))


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Exp(Expr):
    operand: Expr


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Sin(Expr):
    operand: Expr


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Cos(Expr):
    operand: Expr


# for each node class, how many of its fields hold child nodes (its first ones)
_N_KIDS = {
    cls: sum(f.type == "Expr" for f in cls.__dataclass_fields__.values())
    for cls in Expr.__subclasses__()
}


def _rebuild(records: tuple) -> Expr:
    """The node :meth:`Expr.__reduce__` flattened, built back through the
    constructors, so that it is the interned node."""
    nodes: list[Expr] = []
    for cls, *args in records:
        n = _N_KIDS[cls]
        nodes.append(cls(*(nodes[a] for a in args[:n]), *args[n:]))
    return nodes[-1]


class Env:
    """Variable bindings for evaluation, each checked once, when bound, to be
    proper and on the one shared grid: ``grid`` if given, else the first
    binding's."""

    def __init__(self, bindings=None, grid: AlphaGrid | None = None):
        self.bindings: dict[str, FuzzyNumber] = {}
        self.grid = grid
        for name, value in (bindings or {}).items():
            self._bind(name, value)

    def _bind(self, name: str, value: FuzzyNumber) -> None:
        if self.grid is None:
            self.grid = value.grid
        _require_same_grid(self.grid, value, what=f"the environment and its binding for {name!r}")
        _require_proper(value, what=f"binding for {name!r}")
        self.bindings[name] = value

    def with_binding(self, name: str, value: FuzzyNumber) -> "Env":
        env = Env(grid=self.grid)
        env.bindings.update(self.bindings)  # already checked
        env._bind(name, value)
        return env


# -- parsing -------------------------------------------------------------------

# '!' is lexed for coefficient-rule text (series.parse_coeff_rule); the
# expression grammar never consumes it.
_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/^(),!])"
)

_FUNCTIONS = {"exp": Exp, "sin": Sin, "cos": Cos}

# nesting levels (parentheses, calls, unary minus) the recursive parser takes
_MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, grid: AlphaGrid):
        self.tokens = _tokenize(text)
        self.i = 0
        self.grid = grid
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.take()

    def at_op(self, *ops: str) -> bool:
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    # expr := term (('+'|'-') term)*  -- '-' is the gH-difference
    def expr(self) -> Expr:
        node = self.term()
        while self.at_op("+", "-"):
            _, op, _ = self.take()
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else GhSub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at_op("*", "/"):
            _, op, _ = self.take()
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self) -> Expr:
        # every nesting level passes through here
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ExprSyntaxError("expression nested too deeply", self.peek()[2])
        if self.at_op("-"):
            self.take()
            node = Scale(self.factor(), -1.0)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Expr:
        base = self.atom()
        if self.at_op("^"):
            self.take()
            return PowInt(base, self.uint())
        return base

    def atom(self) -> Expr:
        kind, val, pos = self.peek()
        if kind == "num":
            return CrispConst(self.number())
        if kind == "ident":
            self.take()
            if val == "T" and self.at_op("("):
                return FuzzyConst(make_triangular(self.triplet(), self.grid))
            if self.at_op("("):
                if val not in _FUNCTIONS:
                    raise UnknownFunction(f"unknown function {val!r}", pos)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return _FUNCTIONS[val](arg)
            return Var(val)
        if kind == "op" and val == "(":
            self.take()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)

    def triplet(self) -> tuple[float, float, float]:
        self.expect_op("(")
        d = self.signed_number()
        self.expect_op(",")
        e = self.signed_number()
        self.expect_op(",")
        f = self.signed_number()
        self.expect_op(")")
        return (d, e, f)

    def uint(self) -> int:
        kind, val, pos = self.take()
        if kind != "num" or not val.isdigit():
            raise ExprSyntaxError("nonnegative integer expected", pos)
        return int(val)

    def signed_number(self) -> float:
        if self.at_op("-"):
            self.take()
            return -self.number()
        return self.number()

    def power_suffix(self) -> int:
        if not self.at_op("^"):
            return 1
        self.take()
        return self.uint()

    def number(self, times: float = 1.0, powered: bool = False) -> float:
        """The one reader of a number token: its float, raised first to the
        power after it if ``powered`` and multiplied by ``times`` (as a rule
        folds it).  Not finite, either way: ExprSyntaxError at the token."""
        kind, val, pos = self.take()
        if kind != "num":
            raise ExprSyntaxError("number expected", pos)
        value = float(val)
        power = self.power_suffix() if powered else 1
        try:
            folded = times * value**power
        except OverflowError:  # a float power past the largest float
            folded = math.inf
        if not (math.isfinite(value) and math.isfinite(folded)):
            raise ExprSyntaxError("number literal too large for a finite float", pos)
        return folded


def parse_expr(text: str, grid: AlphaGrid = DEFAULT_GRID) -> Expr:
    """Parse expression text; T(d, e, f) literals are sampled on ``grid``."""
    parser = _Parser(text, grid)
    node = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {val!r}", pos)
    return node


# -- evaluation ----------------------------------------------------------------


def _nodes(items: tuple) -> tuple:
    """``items``; TypeError names the first that is not an expression node."""
    for item in items:
        if not isinstance(item, Expr):
            raise TypeError(f"not an expression node: {item!r}")
    return items


def _walk(roots: tuple[Expr, ...], skip=None) -> list[Expr]:
    """The distinct nodes under ``roots``, children first, left to right,
    each where a walk of the expanded trees, one root after the other,
    first completes it.  The walk does not enter a node where ``skip(node)``
    is true.  Equal nodes are one object (nodes are interned when built), so
    the walk visits each node object once.  Only the roots are checked."""
    seen: set[int] = set()
    order: list[Expr] = []
    stack = [(root, False) for root in reversed(_nodes(roots))]
    while stack:
        node, children_done = stack.pop()
        if children_done:
            order.append(node)
        elif id(node) not in seen and not (skip and skip(node)):
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node._kids))
    return order


def _constant(v: FuzzyNumber, grid: AlphaGrid, pool: list | None) -> FuzzyNumber:
    if v.grid is not grid:  # the guard only raises, so that a warm tape calls none
        _require_same_grid(grid, v, what="the evaluation and a fuzzy constant")
    return v


def _binding(name: str, bindings: dict, pool: list | None) -> FuzzyNumber:
    try:
        return bindings[name]
    except KeyError:
        raise UnboundVariable(f"variable {name!r} is not bound") from None


# the two slots an evaluation fills before its tape runs
_GRID = object()
_BINDINGS = object()

# For each node class: its tape kernel, run as kernel(first, second, pool);
# its two operands (a child, _GRID, _BINDINGS or a constant); the kinds of
# operation it runs, for the work counts; and how the guard names a GhSub
# child (the one node whose value may be improper) that it refuses.
_TAPE = {
    CrispConst: (_singleton, lambda e: (e.value, _GRID), ("singleton",), None),
    FuzzyConst: (_constant, lambda e: (e.value, _GRID), (), None),
    Var: (_binding, lambda e: (e.name, _BINDINGS), (), None),
    Add: (_add, lambda e: e._kids, ("add",), "operand"),
    GhSub: (_gh_difference, lambda e: e._kids, ("gh_difference",), "operand"),
    Mul: (_mul, lambda e: e._kids, ("mul",), "operand"),
    Div: (_div, lambda e: e._kids, ("div", "mul"), "operand"),
    PowInt: (_pow_int, lambda e: (e.base, e.exponent), ("pow_int",), "operand"),
    Scale: (_scalar_mul, lambda e: (e.factor, e.operand), ("scalar_mul",), "operand"),
    Exp: (_exp, lambda e: (e.operand, _GRID), ("exp",), "function argument"),
    Sin: (_sin, lambda e: (e.operand, _GRID), ("sin",), "function argument"),
    Cos: (_cos, lambda e: (e.operand, _GRID), ("cos",), "function argument"),
}


def _plan(*roots: Expr) -> tuple:
    """How to evaluate a family of roots: their union walked once, as a flat
    tape over a list of slots.  The walk checks the roots.

    Slots 0 to n - 1 hold the distinct nodes' values in :func:`_walk`
    order, n the grid, n + 1 the bindings, and the rest the constants the
    kernels read.  Each node is one entry: (kernel, its slot, its two
    operands' slots, None or (what, the slots of its GhSub children),
    the slots of the children it reads last).  A root is never read last,
    so its value lasts.

    Returned: the tape; the n empty slots and the constants; the roots'
    slots; the first fuzzy constant's grid, else the default grid; and the
    operations the tape runs, by kind.  The plan holds slots, kernels,
    names and constants' values, never a node, so the node it is built
    from keeps it (see :func:`_kept`) without holding itself: a family
    evaluated at many points (as by ``solve``) is walked once while that
    node lives.
    """
    order = _walk(roots)
    n = len(order)
    slot = {node: i for i, node in enumerate(order)}
    slot.update({_GRID: n, _BINDINGS: n + 1})
    consts: list = []

    def operand(v) -> int:
        if isinstance(v, Expr) or v is _GRID or v is _BINDINGS:
            return slot[v]
        consts.append(v)
        return n + 1 + len(consts)

    const_grid = next((node.value.grid for node in order if isinstance(node, FuzzyConst)), DEFAULT_GRID)
    kept = set(roots)
    last_reader = {child: i for i, node in enumerate(order) for child in node._kids}
    last_reads: list[list[Expr]] = [[] for _ in order]
    for child, i in last_reader.items():
        if child not in kept:
            last_reads[i].append(child)
    tape = []
    ops: Counter = Counter()
    for i, (node, done) in enumerate(zip(order, last_reads)):
        kernel, operands, kinds, what = _TAPE[type(node)]
        a, b = map(operand, operands(node))
        improper = tuple(slot[k] for k in node._kids if isinstance(k, GhSub))
        tape.append((kernel, i, a, b, (what, improper) if improper else None, tuple(slot[c] for c in done)))
        ops.update(kinds)
        if isinstance(node, PowInt):  # its n - 1 products, or the 1 of n = 0
            ops.update(mul=max(node.exponent - 1, 0), singleton=int(node.exponent == 0))
    return (tuple(tape), ((None,) * n, tuple(consts)), tuple(slot[r] for r in roots), const_grid, ops)


def _kept(build, node: Expr, *args):
    """``build(node, *args)``, built once per node, builder and arguments and
    kept in the node's one memo for the node's lifetime: its derivatives,
    and the plan of each root family built from it, one entry a family."""
    memo = node._kept
    key = (build, *args)
    value = memo.get(key)
    if value is None:
        value = memo[key] = build(node, *args)
    return value


def evaluate(e: Expr, env: Env | None = None) -> FuzzyNumber:
    """Evaluate level-wise over the environment's grid.

    The grid is the environment's, else a fuzzy constant's in the tree,
    else the default grid.  Mixing grids raises GridMismatch (resample
    explicitly).  Each distinct subtree is evaluated once, in the order a
    left-to-right walk of the expanded tree would first complete it, and
    its value is dropped after its last use.
    """
    env = env if env is not None else Env()
    _nodes((e,))
    return _evaluate(_kept(_plan, e), env.bindings, env.grid)[0]


def _evaluate(plan: tuple, bindings: dict, grid: AlphaGrid | None, pool: list | None = None) -> tuple:
    """The value of each root of ``plan``'s family, in root order, from one
    sweep of its tape (see :func:`evaluate` and :func:`_plan`; ``grid`` is
    the environment's).  Every node runs the kernel of the op a loop of
    ``evaluate`` over the roots would run, on the same inputs, and the
    first error raised is that loop's first.

    The kernels run no guards, nor does the sweep on ``bindings``: their
    caller checked them (``Env`` does for user input; ``solve`` and
    ``partial_sum`` bind values proper and on ``grid`` by construction).  A
    fuzzy constant checked its properness when built, and the sweep checks
    its grid.  Only a GhSub's value may be improper, so only a GhSub operand
    is checked, inline; the guard is called only to raise.

    ``pool`` is a buffer pool its caller owns (see :mod:`fuzzcalc.core`):
    the kernels write into its arrays, and each child value that dies here
    goes to ``_release``, which keeps the sealed ones out.  Every root
    leaves sealed, pooled or not, and in the shape of a (rows, levels)
    stack bound here, if any: a root that reads none is spread to it."""
    tape, (empty, consts), root_slots, const_grid, ops = plan
    grid = grid if grid is not None else const_grid
    values = [*empty, grid, bindings, *consts]
    for kernel, i, a, b, check, done in tape:
        if check is not None:
            what, improper = check
            for j in improper:
                if not values[j].proper:
                    _require_proper(values[j], what=what)
        values[i] = kernel(values[a], values[b], pool)
        for j in done:
            if pool is not None:
                _release(pool, values[j])
            values[j] = None
    # a bound stack's shape, if any (a generator here cost 0.4 us more a call, 2-core Xeon)
    shape = None
    for v in bindings.values():
        if v.lower.ndim > 1:
            shape = v.lower.shape
    if _counters.counts is not None:
        _counters.counts["nodes"] += len(tape)
        cells = math.prod(shape) if shape else len(grid)
        _counters.counts.update(ops)
        _counters.counts.update({kind + ".cells": n * cells for kind, n in ops.items()})
    return tuple(_spread(_frozen(values[i]), shape) for i in root_slots)


# -- symbolic differentiation ----------------------------------------------------

# Folding builders: crisp-constant arithmetic, exact 0/1 identities, and a
# negation (Scale(u, -1.0)) kept outermost: -(-u) is u, a scale of a scale
# with either factor -1 is one scale by their product (by 1, u itself), a
# crisp -1 factor is a negation, (-u)*v and u*(-v) are -(u*v), and
# (-u) + (-v) is -(u + v).  Each is exact under round-to-nearest: negation
# mirrors an interval, (-j)*x is -(j*x), and the product or sum of mirrored
# operands is the mirrored product or sum.  So a value keeps the unfolded
# tree's bits, except that a zero may change sign (0.0 for -0.0), in an
# envelope or in a derivative that folds to a crisp zero.  Used by
# differentiate to keep derivative towers compact; the parser never folds,
# so parse trees stay auditable.


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, CrispConst) and (value is None or e.value == value)


def _is_neg(e: Expr) -> bool:
    return isinstance(e, Scale) and e.factor == -1.0


def _fadd(l: Expr, r: Expr) -> Expr:
    if isinstance(l, CrispConst) and isinstance(r, CrispConst):
        return CrispConst(l.value + r.value)
    if _is_const(l, 0.0):
        return r
    if _is_const(r, 0.0):
        return l
    if _is_neg(l) and _is_neg(r):
        return _fscale(-1.0, _fadd(l.operand, r.operand))
    return Add(l, r)


def _fsub(l: Expr, r: Expr) -> Expr:
    if isinstance(l, CrispConst) and isinstance(r, CrispConst):
        return CrispConst(l.value - r.value)
    if _is_const(r, 0.0):
        return l
    return GhSub(l, r)


def _fmul(l: Expr, r: Expr) -> Expr:
    if isinstance(l, CrispConst) and isinstance(r, CrispConst):
        return CrispConst(l.value * r.value)
    if _is_const(l, 0.0) or _is_const(r, 0.0):
        return CrispConst(0.0)
    if _is_const(l, 1.0):
        return r
    if _is_const(r, 1.0):
        return l
    if _is_const(l, -1.0):
        return _fscale(-1.0, r)
    if _is_const(r, -1.0):
        return _fscale(-1.0, l)
    if _is_neg(l):
        return _fscale(-1.0, _fmul(l.operand, r))
    if _is_neg(r):
        return _fscale(-1.0, _fmul(l, r.operand))
    return Mul(l, r)


def _fdiv(l: Expr, r: Expr) -> Expr:
    if isinstance(l, CrispConst) and isinstance(r, CrispConst) and r.value != 0.0:
        return CrispConst(l.value / r.value)
    if _is_const(r, 1.0):
        return l
    return Div(l, r)


def _fpow(base: Expr, n: int) -> Expr:
    if n == 0:
        return CrispConst(1.0)
    if n == 1:
        return base
    if isinstance(base, CrispConst):
        return CrispConst(base.value**n)
    return PowInt(base, n)


def _fscale(k: float, u: Expr) -> Expr:
    if isinstance(u, Scale) and -1.0 in (k, u.factor):
        k, u = k * u.factor, u.operand
    if isinstance(u, CrispConst):
        return CrispConst(k * u.value)
    return u if k == 1.0 else Scale(u, k)


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic derivative with the crisp sum/product/chain rules applied
    formally; the power rule is d(u^n) = n*u^(n-1)*du.  Every rule builds
    through the folding builders, which keep a negation outermost, so the
    fourth derivative of sin(x) is sin(x) itself and d/dx (-x)^2 is 2*x; a
    value differs from the unfolded rule's only in the sign of a zero (see
    the builders).  Each node keeps its derivative by ``var`` in its memo
    (:func:`_kept`), so each node's rule runs once per node and variable,
    for the node's lifetime, and equal subtrees share one derivative node.
    The walk stops at a node that has its derivative by ``var`` already
    (its children have theirs too)."""
    order = _walk((e,), lambda node: (_derivative, var) in node._kept)
    for node in order:
        _kept(_derivative, node, var)
    if _counters.counts is not None:
        _counters.counts["rules"] += len(order)
    return e._kept[_derivative, var]


def _derivative(e: Expr, var: str) -> Expr:
    """The derivative of one node by ``var``, from its children's."""
    if isinstance(e, (CrispConst, FuzzyConst)):
        return CrispConst(0.0)
    if isinstance(e, Var):
        return CrispConst(1.0 if e.name == var else 0.0)
    d = [kid._kept[_derivative, var] for kid in e._kids]
    if isinstance(e, Add):
        return _fadd(d[0], d[1])
    if isinstance(e, GhSub):
        return _fsub(d[0], d[1])
    if isinstance(e, Mul):
        return _fadd(_fmul(d[0], e.right), _fmul(e.left, d[1]))
    if isinstance(e, Div):
        num = _fsub(_fmul(d[0], e.right), _fmul(e.left, d[1]))
        return _fdiv(num, _fpow(e.right, 2))
    if isinstance(e, PowInt):
        if e.exponent == 0:
            return CrispConst(0.0)
        rule = _fmul(CrispConst(float(e.exponent)), _fpow(e.base, e.exponent - 1))
        return _fmul(rule, d[0])
    if isinstance(e, Scale):
        return _fscale(e.factor, d[0])
    if isinstance(e, Exp):
        return _fmul(e, d[0])
    if isinstance(e, Sin):
        return _fmul(Cos(e.operand), d[0])
    return _fscale(-1.0, _fmul(Sin(e.operand), d[0]))  # cos, the last class


def free_variables(e: Expr) -> set[str]:
    return {node.name for node in _walk((e,)) if isinstance(node, Var)}


# each binary operator's text and precedence, and each function's name
_BINARY_TEXT = {Add: (" + ", 1), GhSub: (" - ", 1), Mul: ("*", 2), Div: ("/", 2)}
_FUNCTION_NAMES = {cls: name for name, cls in _FUNCTIONS.items()}


def to_text(e: Expr) -> str:
    """Render back into the input grammar (used for display only)."""
    rendered: dict[Expr, tuple[str, int]] = {}

    def wrap(child: Expr, parent_prec: int) -> str:
        text, prec = rendered[child]
        return f"({text})" if prec < parent_prec else text

    order = _walk((e,))
    for node in order:
        rendered[node] = _render(node, wrap)
    return rendered[order[-1]][0]


def _render(e: Expr, wrap) -> tuple[str, int]:
    """The text of one node and its precedence; ``wrap(child, prec)`` gives
    a child's text, parenthesised if it binds looser than ``prec``."""
    if isinstance(e, CrispConst):
        # shortest round-trip digits without an exponent; a minus binds as unary minus
        text = np.format_float_positional(e.value, trim="-")
        return text, 3 if text[0] == "-" else 5
    if isinstance(e, FuzzyConst):
        s, c = e.value.support, e.value.core
        return f"T({s.lo:g},{c.midpoint:g},{s.hi:g})", 5
    if isinstance(e, Var):
        return e.name, 5
    if isinstance(e, (Add, GhSub, Mul, Div)):
        op, prec = _BINARY_TEXT[type(e)]
        return f"{wrap(e.left, prec)}{op}{wrap(e.right, prec + 1)}", prec
    if isinstance(e, Scale):  # unary minus, else a product whose left operand is the factor
        if e.factor == -1.0:
            return f"-{wrap(e.operand, 3)}", 3
        return f"{np.format_float_positional(e.factor, trim='-')}*{wrap(e.operand, 3)}", 2
    if isinstance(e, PowInt):
        return f"{wrap(e.base, 5)}^{e.exponent}", 4
    return f"{_FUNCTION_NAMES[type(e)]}({wrap(e.operand, 0)})", 5  # exp, sin or cos
