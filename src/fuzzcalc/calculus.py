"""Numerical modified Hukuhara derivative and a fuzzy-continuity probe.

The derivative at a fuzzy point is the common limit of the forward and
backward gH difference quotients

    (f(x0 + h) gH- f(x0)) / h      and      (f(x0) gH- f(x0 - h)) / h

where h is a crisp positive scalar added to both envelope endpoints.  The
limit is discretized on a shrinking schedule h_k = h0 * shrink^k with
two-point Richardson extrapolation per envelope sample; plain quotients
converge only linearly once the min/max branches of the gH difference get
close, so extrapolation is what reaches tight tolerances in few halvings.
Where the min/max branch assignment switches between iterations the
extrapolation restarts at that level (extrapolating across a branch switch
is invalid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FuzzyNumber, _order_normalized, hausdorff_distance
from .errors import ImproperOperand, NotDifferentiable
from .expr import Env, Expr, evaluate


@dataclass(frozen=True)
class LimitSchedule:
    """Discretization of the one-sided limit h -> 0+.

    ``h0=None`` scales the initial step to the point: 2**-3 * (1 + |support
    midpoint|).
    """

    h0: float | None = None
    shrink: float = 0.5
    max_iters: int = 40
    tol: float = 1e-7

    def __post_init__(self):
        if self.h0 is not None and not self.h0 > 0:
            raise ValueError("h0 must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class DerivativeEstimate:
    """Converged two-sided estimate; ``value`` is the forward extrapolant,
    ``left_value`` the backward one."""

    value: FuzzyNumber
    left_value: FuzzyNumber
    h_final: float
    gap: float


def _shift(x: FuzzyNumber, h: float) -> FuzzyNumber:
    return FuzzyNumber(x.grid, x.lower + h, x.upper + h)


def _envelope_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest deviation between two stacked [lower, upper] envelope pairs."""
    return float(max(np.max(np.abs(a[0] - b[0])), np.max(np.abs(a[1] - b[1]))))


def mh_derivative(
    f: Expr,
    var: str,
    x0: FuzzyNumber,
    env: Env | None = None,
    sched: LimitSchedule | None = None,
) -> DerivativeEstimate:
    """Estimate the modified Hukuhara derivative of ``f`` at ``x0``.

    Iterates both one-sided quotients down the schedule until the two
    extrapolants agree within ``sched.tol`` in Hausdorff distance and the
    forward extrapolant has stopped moving by more than ``sched.tol``.
    Raises NotDifferentiable when the gap never closes, ImproperOperand when
    the converged quotient is not a fuzzy number (nestedness lost).
    """
    if not x0.proper:
        raise ImproperOperand("expansion point is improper")
    sched = sched if sched is not None else LimitSchedule()
    env = env if env is not None else Env()
    grid = x0.grid
    base = Env(env.bindings, grid)

    def f_at(offset: float) -> FuzzyNumber:
        return evaluate(f, base.with_binding(var, _shift(x0, offset)))

    center = f_at(0.0)
    h0 = sched.h0
    if h0 is None:
        h0 = 0.125 * (1.0 + abs(x0.support.midpoint))

    s = sched.shrink
    prev_q = prev_pattern = prev_ex = None
    h = h0
    gap = np.inf
    for _ in range(sched.max_iters):
        fwd = f_at(h)
        bwd = f_at(-h)
        # rows 0 and 1 are the forward and the backward side of the limit
        d_lo = np.stack((fwd.lower - center.lower, center.lower - bwd.lower))
        d_hi = np.stack((fwd.upper - center.upper, center.upper - bwd.upper))
        # per side, the gH quotient as a [lower, upper] envelope pair, and the
        # branch pattern (True where the lower-envelope delta is the smaller)
        q = np.stack((np.minimum(d_lo, d_hi), np.maximum(d_lo, d_hi)), axis=1) / h
        pattern = (d_lo <= d_hi)[:, None]
        if prev_q is None:
            ex = q
        else:
            # two-point Richardson for a leading O(h) error term, restarted
            # per level where the branch pattern switched
            ex = np.where(pattern == prev_pattern, (q - s * prev_q) / (1.0 - s), q)

        gap = _envelope_distance(ex[0], ex[1])
        if prev_ex is not None:
            step = _envelope_distance(ex[0], prev_ex[0])
            if gap <= sched.tol and step <= sched.tol:
                value = _order_normalized(grid, *ex[0])
                if not value.proper:
                    raise ImproperOperand(
                        "difference quotient stayed improper through convergence"
                    )
                return DerivativeEstimate(
                    value=value,
                    left_value=_order_normalized(grid, *ex[1]),
                    h_final=h,
                    gap=gap,
                )
        prev_q, prev_pattern, prev_ex = q, pattern, ex
        h *= s

    raise NotDifferentiable(
        f"one-sided quotients did not settle within {sched.max_iters} iterations"
        f" (last gap {gap:.3g}, tol {sched.tol:.3g})"
    )


_PROBE_FRACTIONS = (0.25, 0.5, 0.75, 0.95)


def continuity_probe(
    f: Expr,
    var: str,
    x0: FuzzyNumber,
    env: Env | None = None,
    eps: float = 1e-3,
    trial_deltas=(1.0, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001),
) -> float | None:
    """Search for a delta witnessing continuity at ``x0``.

    For each trial delta (largest first) the point is shifted crisply by
    amounts below delta; the trial is accepted when every shifted value
    stays within ``eps`` of f(x0) in Hausdorff distance.  Returns the
    largest accepted delta, or None when every trial fails.  A sampling
    probe, not a proof.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    env = env if env is not None else Env()
    base = Env(env.bindings, x0.grid)
    f0 = evaluate(f, base.with_binding(var, x0))
    for delta in sorted(trial_deltas, reverse=True):
        ok = True
        for frac in _PROBE_FRACTIONS:
            for sign in (1.0, -1.0):
                shifted = _shift(x0, sign * frac * delta)
                fx = evaluate(f, base.with_binding(var, shifted))
                if hausdorff_distance(fx, f0) >= eps:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return float(delta)
    return None
