"""Taylor-method solver for fully fuzzy initial value problems.

Solves y' = F(x, y) with fuzzy initial point, initial value, and step:

    y_next = y (+) sum_{k=1..order} (h^k / k!) (x) D_k(x, y)
    x_next = x (+) h

where D_1 = F and D_(k+1) = dD_k/dx (+) dD_k/dy (x) F is the symbolic
total-derivative tower, built with the expression-level derivative rules
(each run once per node and variable, for the node's lifetime).  The order
is capped at 4, the highest order the tests check.  The tower is a DAG of
shared subexpressions (see :mod:`fuzzcalc.expr`), so its size is not what
sets the cap.  A step is one evaluation of a root family on the expression
tape: x (+) h, y_next (the sum taken left to right, h^k bound as hk, a name
F cannot read) and its last term, whose magnitude the solution reports.
The powers h^k are a family of their own, evaluated once per solve.  The
right-hand side's node keeps its tower and both families, for each order,
so a second solve of the same F builds and plans nothing.

Each solve owns one buffer pool (see :mod:`fuzzcalc.core`), a list of
envelope arrays that lives for one call: the tape's kernels write into its
arrays and give back each value that dies inside a step, so a solve on
wide grids reuses its memory.  The tape seals every value it returns (the
trajectory, the last terms, the powers h^k), so none is given back, and a
step binds its values with no ``Env``: they are proper and on one grid.

Multi-step mode compounds the fuzzy step into x (x <- x (+) h), so the
x-uncertainty accumulates step over step; single-step is the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .core import FuzzyNumber, _count, _require_proper, _require_same_grid
from .errors import FuzzyError, InvalidArgument
from .expr import Add, Expr, Mul, Scale, Var, _evaluate, _fadd, _fmul, _kept, differentiate, free_variables

# The most steps a problem takes: the solution keeps every (x, y) pair of its
# trajectory, four envelopes of 8 bytes per level each, so the bound keeps a
# solve's work and its trajectory proportional to the grid it runs on.
MAX_STEPS = 10_000
# The highest truncation order a problem takes: the symbolic tower D_1 ...
# D_order swells with each order (D_4 of x^2 + y^2 has 26 distinct nodes,
# D_12 has 1843), and orders past 4 are neither tested nor timed.
MAX_ORDER = 4


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
        object.__setattr__(self, "order", _count(self.order, "truncation order", 1, MAX_ORDER))
        object.__setattr__(self, "steps", _count(self.steps, "number of steps", 1, MAX_STEPS))
        extra = free_variables(self.rhs) - {"x", "y"}
        if extra:
            raise InvalidArgument(f"right-hand side may only use x and y, got {sorted(extra)}")
        for name in ("x0", "y0", "h"):
            _require_proper(getattr(self, name), what=name)
        _require_same_grid(self.x0.grid, self.y0, self.h, what="x0, y0 and h")
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
    differentiated once per node and variable, for the node's lifetime;
    ``rhs`` keeps its tower of each order, so each D_k is built once."""
    return list(_kept(_step, rhs, _count(order, "truncation order", 1, MAX_ORDER))[0])


def _step(rhs: Expr, order: int) -> tuple:
    """The tower D_1 ... D_order and the step's root families: the powers
    h, h*h, (h*h)*h, ..., and x + h, y + sum_k (1/k!) (hk D_k), its last term."""
    tower = [rhs]
    while len(tower) < order:
        current = tower[-1]
        tower.append(_fadd(differentiate(current, "x"), _fmul(differentiate(current, "y"), rhs)))
    powers, y_next = tuple(accumulate([Var("h1")] * order, Mul)), Var("y")
    for k, dk in enumerate(tower, start=1):
        term = Scale(Mul(Var(f"h{k}"), dk), 1.0 / math.factorial(k))
        y_next = Add(y_next, term)
    return tuple(tower), powers, (Add(Var("x"), powers[0]), y_next, term)


def solve(problem: IvpProblem) -> IvpSolution:
    """Iterate the Taylor step; deterministic, no step-size control."""
    grid = problem.h.grid
    _, powers, step = _kept(_step, problem.rhs, problem.order)
    values = _evaluate(powers, {"h1": problem.h}, grid)
    h_pows = {f"h{k}": values[p] for k, p in enumerate(powers, start=1)}
    pool: list = []
    x, y = problem.x0, problem.y0
    trajectory = [(x, y)]
    magnitudes = []
    for i in range(problem.steps):
        try:
            values = _evaluate(step, {"x": x, "y": y, **h_pows}, grid, pool)
        except FuzzyError as exc:
            if exc.args:
                exc.args = (f"step {i + 1}: {exc.args[0]}",) + exc.args[1:]
            raise
        x, y, term = (values[root] for root in step)
        trajectory.append((x, y))
        # the largest |endpoint| as lower <= upper; abs clears a -0.0's or NaN's sign
        magnitudes.append(abs(max(float(term.upper.max()), -float(term.lower.min()))))
    return IvpSolution(tuple(trajectory), tuple(magnitudes))
