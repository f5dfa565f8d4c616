"""Taylor-method solver for fully fuzzy initial value problems.

Solves y' = F(x, y) with fuzzy initial point, initial value, and step:

    y_next = y (+) sum_{k=1..order} (h^k / k!) (x) D_k(x, y)
    x_next = x (+) h

where D_1 = F and D_(k+1) = dD_k/dx (+) dD_k/dy (x) F is the symbolic
total-derivative tower, built with the expression-level derivative rules
(each run once per node and variable, for the node's lifetime).  The order
is capped at 4, the highest order the tests check.  The tower is a DAG of
shared subexpressions (see :mod:`fuzzcalc.expr`), so its size is not what
sets the cap.  Each step evaluates all of D_1 ... D_order in one walk over
the tower's distinct nodes, planned at most once per solve, and the powers
h^k are formed once per solve.

Multi-step mode compounds the fuzzy step into x (x <- x (+) h), so the
x-uncertainty accumulates step over step; single-step is the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FuzzyNumber, add, mul, scalar_mul
from .errors import FuzzyError, GridMismatch, ImproperOperand, InvalidArgument
from .expr import Env, Expr, _evaluate, _fadd, _fmul, differentiate, free_variables


@dataclass(frozen=True)
class IvpProblem:
    """Right-hand side F(x, y) plus fuzzy x0, y0, step h, order, and steps."""

    rhs: Expr
    x0: FuzzyNumber
    y0: FuzzyNumber
    h: FuzzyNumber
    order: int = 2
    steps: int = 1

    def __post_init__(self):
        if not 1 <= self.order <= 4:
            raise InvalidArgument("truncation order must be between 1 and 4")
        if self.steps < 1:
            raise InvalidArgument("need at least one step")
        extra = free_variables(self.rhs) - {"x", "y"}
        if extra:
            raise InvalidArgument(f"right-hand side may only use x and y, got {sorted(extra)}")
        for name, v in (("x0", self.x0), ("y0", self.y0), ("h", self.h)):
            if not v.proper:
                raise ImproperOperand(f"{name} is improper")
        if self.x0.grid != self.y0.grid or self.x0.grid != self.h.grid:
            raise GridMismatch("x0, y0, and h must share one alpha grid")
        if self.h.lower[0] < 0:
            raise InvalidArgument("step must have nonnegative support")


@dataclass(frozen=True)
class IvpSolution:
    """Trajectory of (x, y) pairs (initial point included) plus the
    Hausdorff magnitude of the last Taylor term added at each step."""

    trajectory: tuple[tuple[FuzzyNumber, FuzzyNumber], ...]
    truncation_magnitudes: tuple[float, ...]

    @property
    def final(self) -> tuple[FuzzyNumber, FuzzyNumber]:
        return self.trajectory[-1]


def total_derivatives(rhs: Expr, order: int) -> list[Expr]:
    """[D_1, ..., D_order] with D_1 = F and D_(k+1) = dD_k/dx + dD_k/dy * F,
    differentiated once per node and variable, for the node's lifetime."""
    derivs = [rhs]
    for _ in range(order - 1):
        current = derivs[-1]
        derivs.append(_fadd(differentiate(current, "x"), _fmul(differentiate(current, "y"), rhs)))
    return derivs


def _magnitude(v: FuzzyNumber) -> float:
    return float(np.max(np.maximum(np.abs(v.lower), np.abs(v.upper))))


def _step(
    x: FuzzyNumber, y: FuzzyNumber, problem: IvpProblem, derivs: tuple[Expr, ...], h_pows: list
) -> tuple[FuzzyNumber, FuzzyNumber, float]:
    values = _evaluate(derivs, Env({"x": x, "y": y}, x.grid))
    y_next = y
    for k, (h_pow, dk) in enumerate(zip(h_pows, derivs), start=1):
        term = scalar_mul(1.0 / math.factorial(k), mul(h_pow, values[dk]))
        y_next = add(y_next, term)
    x_next = add(x, problem.h)
    return x_next, y_next, _magnitude(term)


def solve(problem: IvpProblem) -> IvpSolution:
    """Iterate the Taylor step; deterministic, no step-size control."""
    derivs = tuple(total_derivatives(problem.rhs, problem.order))
    h_pows = [problem.h]
    for _ in range(problem.order - 1):
        h_pows.append(mul(h_pows[-1], problem.h))
    x, y = problem.x0, problem.y0
    trajectory = [(x, y)]
    magnitudes = []
    for i in range(problem.steps):
        try:
            x, y, mag = _step(x, y, problem, derivs, h_pows)
        except FuzzyError as exc:
            if exc.args:
                exc.args = (f"step {i + 1}: {exc.args[0]}",) + exc.args[1:]
            raise
        trajectory.append((x, y))
        magnitudes.append(mag)
    return IvpSolution(tuple(trajectory), tuple(magnitudes))
