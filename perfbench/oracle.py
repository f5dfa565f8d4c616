"""Crisp reference for the benchmark, written without fuzzcalc.

For a triangular input every alpha = 1 cut is a single point, so the core
of each fuzzcalc result is a crisp number.  This module recomputes those
numbers in plain Python floats with truncated power-series (Taylor-mode)
arithmetic: Taylor coefficients, derivatives, partial sums and the Taylor
recursion of y' = F(x, y).  It parses the benchmark's expression text with
its own small parser, so a parser defect in fuzzcalc cannot hide here.

Binary '-' in the expression grammar is the gH-difference; on crisp values
that is ordinary subtraction, and ``T(d, e, f)`` has the crisp core ``e``.
"""

from __future__ import annotations

import math
import re

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([A-Za-z_]\w*)|(.))")


def _tokens(text: str) -> list[str]:
    out = []
    for num, ident, op in _TOKEN.findall(text):
        out.append(num or ident or op)
    return [t for t in out if t.strip()] + [""]


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i]

    def take(self, want: str | None = None) -> str:
        tok = self.toks[self.i]
        if want is not None and tok != want:
            raise ValueError(f"oracle parser: expected {want!r}, got {tok!r}")
        self.i += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = ("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = ("mul" if op == "*" else "div", node, self.factor())
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.factor())
        base = self.atom()
        if self.peek() == "^":
            self.take()
            return ("pow", base, int(self.take()))
        return base

    def atom(self):
        tok = self.take()
        if tok[:1].isdigit() or tok[:1] == ".":
            return ("const", float(tok))
        if tok == "(":
            node = self.expr()
            self.take(")")
            return node
        if tok == "T" and self.peek() == "(":
            self.take("(")
            nums = [self.signed()]
            for _ in range(2):
                self.take(",")
                nums.append(self.signed())
            self.take(")")
            return ("const", nums[1])
        if tok in ("exp", "sin", "cos"):
            self.take("(")
            node = self.expr()
            self.take(")")
            return (tok, node)
        if tok.isidentifier():
            return ("var", tok)
        raise ValueError(f"oracle parser: unexpected token {tok!r}")

    def signed(self) -> float:
        sign = -1.0 if self.peek() == "-" else 1.0
        if sign < 0:
            self.take()
        return sign * float(self.take())


def parse(text: str):
    """Parse expression text into nested tuples."""
    p = _Parser(text)
    node = p.expr()
    p.take("")
    return node


# -- truncated power series ------------------------------------------------------


def _mul(a: list[float], b: list[float]) -> list[float]:
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]


def _div(a: list[float], b: list[float]) -> list[float]:
    q: list[float] = []
    for k in range(len(a)):
        q.append((a[k] - sum(b[j] * q[k - j] for j in range(1, k + 1))) / b[0])
    return q


def _exp(u: list[float]) -> list[float]:
    e = [math.exp(u[0])]
    for k in range(1, len(u)):
        e.append(sum(j * u[j] * e[k - j] for j in range(1, k + 1)) / k)
    return e


def _sin_cos(u: list[float]) -> tuple[list[float], list[float]]:
    s, c = [math.sin(u[0])], [math.cos(u[0])]
    for k in range(1, len(u)):
        s.append(sum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k)
        c.append(-sum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k)
    return s, c


def series(node, env: dict[str, list[float]], n: int) -> list[float]:
    """First ``n`` Taylor coefficients of ``node`` given its variables' series."""
    kind = node[0]
    if kind == "const":
        return [node[1]] + [0.0] * (n - 1)
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return [-v for v in series(node[1], env, n)]
    if kind in ("exp", "sin", "cos"):
        u = series(node[1], env, n)
        if kind == "exp":
            return _exp(u)
        s, c = _sin_cos(u)
        return s if kind == "sin" else c
    if kind == "pow":
        base = series(node[1], env, n)
        acc = [1.0] + [0.0] * (n - 1)
        for _ in range(node[2]):
            acc = _mul(acc, base)
        return acc
    a = series(node[1], env, n)
    b = series(node[2], env, n)
    if kind == "add":
        return [x + y for x, y in zip(a, b)]
    if kind == "sub":
        return [x - y for x, y in zip(a, b)]
    if kind == "mul":
        return _mul(a, b)
    if kind == "div":
        return _div(a, b)
    raise ValueError(f"oracle: unknown node {kind!r}")


def taylor_coefficients(text: str, var: str, at: float, order: int) -> list[float]:
    """f^(k)(at) / k! for k = 0..order."""
    n = order + 1
    point = [at, 1.0] + [0.0] * (n - 2) if n > 1 else [at]
    return series(parse(text), {var: point}, n)


def derivative(text: str, var: str, at: float) -> float:
    return taylor_coefficients(text, var, at, 1)[1]


def partial_sum(coeffs: list[float], center: float, at: float) -> float:
    return sum(c * (at - center) ** k for k, c in enumerate(coeffs))


def ivp_taylor(rhs: str, x0: float, y0: float, h: float, order: int, steps: int) -> tuple[float, float]:
    """Crisp Taylor method for y' = F(x, y): per step, the series of y is
    built by Y_(k+1) = F(X, Y)_k / (k + 1) with X = x + t."""
    tree = parse(rhs)
    x, y = x0, y0
    n = order + 1
    for _ in range(steps):
        big_x = [x, 1.0] + [0.0] * (n - 2)
        big_y = [y] + [0.0] * (n - 1)
        for k in range(order):
            f = series(tree, {"x": big_x, "y": big_y}, n)
            big_y[k + 1] = f[k] / (k + 1)
        y = sum(c * h**k for k, c in enumerate(big_y))
        x = x + h
    return x, y
