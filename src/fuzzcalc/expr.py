"""Expression trees over fuzzy values.

Parsing, evaluation, and symbolic differentiation for the grammar

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' uint)?
    atom   := number | 'T(' num ',' num ',' num ')' | ident
            | ident '(' expr ')' | '(' expr ')'

with functions exp, sin, cos.  Binary '-' is the gH-difference throughout
(ordinary subtraction is ``a + (-1)*b``), and '^' binds tighter than unary
minus, so ``-x^2`` is ``-(x^2)``.

Evaluation is level-wise: the arithmetic nodes delegate to the interval
operations in :mod:`fuzzcalc.core`, and exp/sin/cos produce the exact range
of the function over each alpha-cut (sin and cos account for interior
critical points, not just endpoint values).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .core import (
    AlphaGrid,
    FuzzyNumber,
    add,
    div,
    gh_difference,
    make_triangular,
    mul,
    pow_int,
    scalar_mul,
    singleton,
)
from .errors import (
    ExprSyntaxError,
    GridMismatch,
    ImproperOperand,
    UnboundVariable,
    UnknownFunction,
)


class Expr:
    """Immutable expression node; subclasses compare structurally."""

    __slots__ = ()


@dataclass(frozen=True)
class CrispConst(Expr):
    value: float


@dataclass(frozen=True)
class FuzzyConst(Expr):
    value: FuzzyNumber


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class GhSub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class PowInt(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if self.exponent < 0 or int(self.exponent) != self.exponent:
            raise ValueError("power exponent must be a nonnegative integer")


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Exp(Expr):
    operand: Expr


@dataclass(frozen=True)
class Sin(Expr):
    operand: Expr


@dataclass(frozen=True)
class Cos(Expr):
    operand: Expr


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
        elif value.grid != self.grid:
            raise GridMismatch(f"binding for {name!r} sampled on a different grid")
        if not value.proper:
            raise ImproperOperand(f"binding for {name!r} is improper")
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
    r"(?P<ws>\s+)|(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/^(),!])"
)

_FUNCTIONS = {"exp": Exp, "sin": Sin, "cos": Cos}


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
        if self.at_op("-"):
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.at_op("^"):
            self.take()
            return PowInt(base, self.uint())
        return base

    def atom(self) -> Expr:
        kind, val, pos = self.peek()
        if kind == "num":
            self.take()
            return CrispConst(float(val))
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
        if kind != "num" or "." in val:
            raise ExprSyntaxError("nonnegative integer expected", pos)
        return int(val)

    def signed_number(self) -> float:
        sign = 1.0
        if self.at_op("-"):
            self.take()
            sign = -1.0
        kind, val, pos = self.take()
        if kind != "num":
            raise ExprSyntaxError("number expected", pos)
        return sign * float(val)


def parse_expr(text: str, grid: AlphaGrid | None = None) -> Expr:
    """Parse expression text; T(d, e, f) literals are sampled on ``grid``
    (default 101 uniform levels)."""
    parser = _Parser(text, grid if grid is not None else AlphaGrid.uniform())
    node = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {val!r}", pos)
    return node


# -- evaluation ----------------------------------------------------------------

_HALF_PI = 0.5 * math.pi
_TWO_PI = 2.0 * math.pi


def _sin_range(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # sin attains +1 at pi/2 + 2k*pi and -1 at -pi/2 + 2k*pi; the range over
    # [lo, hi] is the endpoint hull widened to +-1 where a critical point
    # falls inside the interval.
    has_max = np.floor((hi - _HALF_PI) / _TWO_PI) >= np.ceil((lo - _HALF_PI) / _TWO_PI)
    has_min = np.floor((hi + _HALF_PI) / _TWO_PI) >= np.ceil((lo + _HALF_PI) / _TWO_PI)
    s_lo, s_hi = np.sin(lo), np.sin(hi)
    out_lo = np.where(has_min, -1.0, np.minimum(s_lo, s_hi))
    out_hi = np.where(has_max, 1.0, np.maximum(s_lo, s_hi))
    return out_lo, out_hi


def _find_const_grid(e: Expr) -> AlphaGrid | None:
    if isinstance(e, FuzzyConst):
        return e.value.grid
    for child in _children(e):
        found = _find_const_grid(child)
        if found is not None:
            return found
    return None


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Add, GhSub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, PowInt):
        return (e.base,)
    if isinstance(e, (Neg, Exp, Sin, Cos)):
        return (e.operand,)
    return ()


def evaluate(e: Expr, env: Env | None = None) -> FuzzyNumber:
    """Evaluate level-wise over the environment's grid.

    The grid is the environment's, else a fuzzy constant's in the tree,
    else the default grid.  Mixing grids raises GridMismatch (resample
    explicitly).
    """
    env = env if env is not None else Env()
    grid = env.grid
    if grid is None:
        grid = _find_const_grid(e)
    if grid is None:
        grid = AlphaGrid.uniform()
    return _ev(e, env.bindings, grid)


def _ev(e: Expr, bindings: dict, grid: AlphaGrid) -> FuzzyNumber:
    if isinstance(e, CrispConst):
        return singleton(e.value, grid)
    if isinstance(e, FuzzyConst):
        if e.value.grid != grid:
            raise GridMismatch("fuzzy constant sampled on a different grid")
        if not e.value.proper:
            raise ImproperOperand("fuzzy constant is improper")
        return e.value
    if isinstance(e, Var):
        try:
            return bindings[e.name]
        except KeyError:
            raise UnboundVariable(f"variable {e.name!r} is not bound") from None
    if isinstance(e, Add):
        return add(_ev(e.left, bindings, grid), _ev(e.right, bindings, grid))
    if isinstance(e, GhSub):
        return gh_difference(_ev(e.left, bindings, grid), _ev(e.right, bindings, grid))
    if isinstance(e, Mul):
        return mul(_ev(e.left, bindings, grid), _ev(e.right, bindings, grid))
    if isinstance(e, Div):
        return div(_ev(e.left, bindings, grid), _ev(e.right, bindings, grid))
    if isinstance(e, PowInt):
        return pow_int(_ev(e.base, bindings, grid), e.exponent)
    if isinstance(e, Neg):
        return scalar_mul(-1.0, _ev(e.operand, bindings, grid))
    if isinstance(e, (Exp, Sin, Cos)):
        v = _ev(e.operand, bindings, grid)
        if not v.proper:
            raise ImproperOperand("function argument is improper")
        if isinstance(e, Exp):
            return FuzzyNumber(grid, np.exp(v.lower), np.exp(v.upper))
        if isinstance(e, Sin):
            lo, hi = _sin_range(v.lower, v.upper)
        else:  # cos(x) = sin(x + pi/2)
            lo, hi = _sin_range(v.lower + _HALF_PI, v.upper + _HALF_PI)
        return FuzzyNumber(grid, lo, hi)
    raise TypeError(f"not an expression node: {e!r}")


# -- symbolic differentiation ----------------------------------------------------

# Folding builders: crisp-constant arithmetic plus exact 0/1 identities.
# Used by differentiate to keep derivative towers compact; the parser never
# folds, so parse trees stay auditable.


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, CrispConst) and (value is None or e.value == value)


def _fadd(l: Expr, r: Expr) -> Expr:
    if isinstance(l, CrispConst) and isinstance(r, CrispConst):
        return CrispConst(l.value + r.value)
    if _is_const(l, 0.0):
        return r
    if _is_const(r, 0.0):
        return l
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


def _fneg(u: Expr) -> Expr:
    if isinstance(u, CrispConst):
        return CrispConst(-u.value)
    return Neg(u)


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic derivative with the crisp sum/product/chain rules applied
    formally; the power rule is d(u^n) = n*u^(n-1)*du."""
    if isinstance(e, (CrispConst, FuzzyConst)):
        return CrispConst(0.0)
    if isinstance(e, Var):
        return CrispConst(1.0 if e.name == var else 0.0)
    if isinstance(e, Add):
        return _fadd(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, GhSub):
        return _fsub(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Mul):
        dl = differentiate(e.left, var)
        dr = differentiate(e.right, var)
        return _fadd(_fmul(dl, e.right), _fmul(e.left, dr))
    if isinstance(e, Div):
        dl = differentiate(e.left, var)
        dr = differentiate(e.right, var)
        num = _fsub(_fmul(dl, e.right), _fmul(e.left, dr))
        return _fdiv(num, _fpow(e.right, 2))
    if isinstance(e, PowInt):
        du = differentiate(e.base, var)
        if e.exponent == 0:
            return CrispConst(0.0)
        rule = _fmul(CrispConst(float(e.exponent)), _fpow(e.base, e.exponent - 1))
        return _fmul(rule, du)
    if isinstance(e, Neg):
        return _fneg(differentiate(e.operand, var))
    if isinstance(e, Exp):
        return _fmul(Exp(e.operand), differentiate(e.operand, var))
    if isinstance(e, Sin):
        return _fmul(Cos(e.operand), differentiate(e.operand, var))
    if isinstance(e, Cos):
        return _fneg(_fmul(Sin(e.operand), differentiate(e.operand, var)))
    raise TypeError(f"not an expression node: {e!r}")


def free_variables(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    out: set[str] = set()
    for child in _children(e):
        out |= free_variables(child)
    return out


def to_text(e: Expr) -> str:
    """Render back into the input grammar (used for display only)."""

    def prec(node: Expr) -> int:
        if isinstance(node, (Add, GhSub)):
            return 1
        if isinstance(node, (Mul, Div)):
            return 2
        if isinstance(node, Neg):
            return 3
        if isinstance(node, PowInt):
            return 4
        return 5

    def wrap(child: Expr, parent_prec: int) -> str:
        text = go(child)
        return f"({text})" if prec(child) < parent_prec else text

    def go(node: Expr) -> str:
        if isinstance(node, CrispConst):
            v = node.value
            return str(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
        if isinstance(node, FuzzyConst):
            s, c = node.value.support, node.value.core
            return f"T({s.lo:g},{c.midpoint:g},{s.hi:g})"
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Add):
            return f"{wrap(node.left, 1)} + {wrap(node.right, 2)}"
        if isinstance(node, GhSub):
            return f"{wrap(node.left, 1)} - {wrap(node.right, 2)}"
        if isinstance(node, Mul):
            return f"{wrap(node.left, 2)}*{wrap(node.right, 3)}"
        if isinstance(node, Div):
            return f"{wrap(node.left, 2)}/{wrap(node.right, 3)}"
        if isinstance(node, Neg):
            return f"-{wrap(node.operand, 3)}"
        if isinstance(node, PowInt):
            return f"{wrap(node.base, 5)}^{node.exponent}"
        if isinstance(node, Exp):
            return f"exp({go(node.operand)})"
        if isinstance(node, Sin):
            return f"sin({go(node.operand)})"
        if isinstance(node, Cos):
            return f"cos({go(node.operand)})"
        raise TypeError(f"not an expression node: {node!r}")

    return go(e)
