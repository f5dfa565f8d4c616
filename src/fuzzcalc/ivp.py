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
h^k are formed once per solve.  The tower is kept on the right-hand side's
node, as a node keeps its derivatives, so a second solve of the same F
builds and plans nothing.

Each solve owns one buffer pool (see :mod:`fuzzcalc.core`): a list of
envelope arrays created when the call starts and dropped when it returns.
The problem checked x0, y0 and h when it was built, so the steps run the
kernels with the pool and check only that each D_k, which may be a
gH-difference, is proper.  Every value that dies inside the solve goes
back to the pool, and later kernels write into its arrays, so a solve on
wide grids reuses its memory instead of asking the allocator again.  What
a caller sees is never recycled and is read-only: the trajectory's values,
drawn from the pool and marked read-only as they are made, and x0, y0, h,
the bindings and the constants' values, which never enter it.

Multi-step mode compounds the fuzzy step into x (x <- x (+) h), so the
x-uncertainty accumulates step over step; single-step is the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _counters
from .core import _IMPROPER_OPERAND, FuzzyNumber, _add, _frozen, _integer, _mul, _release, _scalar_mul
from .errors import FuzzyError, GridMismatch, ImproperOperand, InvalidArgument
from .expr import Env, Expr, _evaluate, _fadd, _fmul, _give_back, differentiate, free_variables

# The most steps a problem takes: the solution keeps every (x, y) pair of its
# trajectory, four envelopes of 8 bytes per level each, so the bound keeps a
# solve's work and its trajectory proportional to the grid it runs on.
MAX_STEPS = 10_000


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
        object.__setattr__(self, "order", _integer(self.order, "truncation order"))
        if self.steps < 1:
            raise InvalidArgument("need at least one step")
        if self.steps > MAX_STEPS:
            raise InvalidArgument(f"number of steps must be at most {MAX_STEPS}, got {self.steps!r}")
        object.__setattr__(self, "steps", _integer(self.steps, "number of steps"))
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
    differentiated once per node and variable, for the node's lifetime.
    ``rhs`` keeps the tallest tower built from it, so each D_k is built once
    for its lifetime; a taller one replaces it whole, never in part."""
    tower = rhs.__dict__.get("_tower", (rhs,))
    if len(tower) < order:
        tower = list(tower)
        while len(tower) < order:
            current = tower[-1]
            tower.append(_fadd(differentiate(current, "x"), _fmul(differentiate(current, "y"), rhs)))
        rhs.__dict__["_tower"] = tower = tuple(tower)
    return list(tower[:order])


def _magnitude(v: FuzzyNumber, pool: list) -> float:
    a = np.abs(v.lower, out=pool.pop() if pool else None)
    b = np.abs(v.upper, out=pool.pop() if pool else None)
    magnitude = float(np.max(np.maximum(a, b, out=a)))
    pool.extend((a, b))
    return magnitude


def _step(
    x: FuzzyNumber, y: FuzzyNumber, problem: IvpProblem, derivs: tuple[Expr, ...], h_pows: list, pool: list
) -> tuple[FuzzyNumber, FuzzyNumber, float]:
    values = _evaluate(derivs, Env({"x": x, "y": y}, x.grid), pool)
    y_next = y
    for k, (h_pow, dk) in enumerate(zip(h_pows, derivs), start=1):
        if not values[dk].proper:  # a gH-difference; every other value is proper
            raise ImproperOperand(_IMPROPER_OPERAND)
        product = _mul(h_pow, values[dk], pool)
        term = _scalar_mul(1.0 / math.factorial(k), product, pool)
        _release(pool, product)
        partial, y_next = y_next, _add(y_next, term, pool)
        if partial is not y:
            _release(pool, partial)
        if k == len(derivs):
            magnitude = _magnitude(term, pool)
        _release(pool, term)
    _give_back(derivs, values, pool)
    return _frozen(_add(x, problem.h, pool)), _frozen(y_next), magnitude


def solve(problem: IvpProblem) -> IvpSolution:
    """Iterate the Taylor step; deterministic, no step-size control."""
    derivs = tuple(total_derivatives(problem.rhs, problem.order))
    h_pows = [problem.h]
    for _ in range(problem.order - 1):
        h_pows.append(_mul(h_pows[-1], problem.h, None))
    pool: list = []
    x, y = problem.x0, problem.y0
    trajectory = [(x, y)]
    magnitudes = []
    for i in range(problem.steps):
        try:
            x, y, mag = _step(x, y, problem, derivs, h_pows, pool)
        except FuzzyError as exc:
            if exc.args:
                exc.args = (f"step {i + 1}: {exc.args[0]}",) + exc.args[1:]
            raise
        trajectory.append((x, y))
        magnitudes.append(mag)
    if _counters.counts is not None:
        order, steps = problem.order, problem.steps
        ops = {"mul": order - 1 + order * steps, "scalar_mul": order * steps, "add": (order + 1) * steps}
        _counters.add(ops, problem.h.lower.size)
    return IvpSolution(tuple(trajectory), tuple(magnitudes))
