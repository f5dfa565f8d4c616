"""Numerical modified Hukuhara derivative and a fuzzy-continuity probe.

The derivative at a fuzzy point is the common limit of the forward and
backward gH difference quotients

    (f(x0 + h) gH- f(x0)) / h      and      (f(x0) gH- f(x0 - h)) / h

where h is a crisp positive scalar added to both envelope endpoints.  The
limit is discretized on the fixed schedule h_k = 0.125 * (1 + |support
midpoint|) * 0.5^k, k < 40, with two-point Richardson extrapolation per
envelope sample; plain quotients converge only linearly once the min/max
branches of the gH difference get close, so extrapolation is what reaches
tight tolerances in few halvings.  Where the min/max branch assignment
switches between iterations the extrapolation restarts at that level
(extrapolating across a branch switch is invalid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FuzzyNumber, _fresh, _order_normalized, hausdorff_distance
from .errors import ImproperOperand, NotDifferentiable
from .expr import Env, Expr, evaluate

_H0_SCALE = 0.125
_SHRINK = 0.5
_MAX_ITERS = 40
DEFAULT_TOL = 1e-7


@dataclass(frozen=True)
class DerivativeEstimate:
    """Converged two-sided estimate; ``value`` is the forward extrapolant,
    ``left_value`` the backward one."""

    value: FuzzyNumber
    left_value: FuzzyNumber
    h_final: float
    gap: float


def _shift(x: FuzzyNumber, h: float) -> FuzzyNumber:
    return _fresh(x.grid, x.lower + h, x.upper + h)


def _envelope_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest deviation between two stacked [lower, upper] envelope pairs."""
    return float(max(np.max(np.abs(a[0] - b[0])), np.max(np.abs(a[1] - b[1]))))


def mh_derivative(
    f: Expr,
    var: str,
    x0: FuzzyNumber,
    env: Env | None = None,
    tol: float = DEFAULT_TOL,
) -> DerivativeEstimate:
    """Estimate the modified Hukuhara derivative of ``f`` at ``x0``.

    Iterates both one-sided quotients down the fixed schedule until the two
    extrapolants agree within ``tol`` (positive, finite) in Hausdorff distance
    and the forward one has stopped moving by more than ``tol``.  Raises
    NotDifferentiable when the gap never closes within the 40 steps,
    ImproperOperand when the converged quotient is not a fuzzy number.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not x0.proper:
        raise ImproperOperand("expansion point is improper")
    grid = x0.grid
    base = Env(env.bindings if env is not None else {}, grid)

    def f_at(offset: float) -> FuzzyNumber:
        return evaluate(f, base.with_binding(var, _shift(x0, offset)))

    center = f_at(0.0)
    prev_q = prev_pattern = prev_ex = None
    h = _H0_SCALE * (1.0 + abs(x0.support.midpoint))
    gap = np.inf
    for _ in range(_MAX_ITERS):
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
            ex = np.where(pattern == prev_pattern, (q - _SHRINK * prev_q) / (1.0 - _SHRINK), q)

        gap = _envelope_distance(ex[0], ex[1])
        if prev_ex is not None:
            step = _envelope_distance(ex[0], prev_ex[0])
            if gap <= tol and step <= tol:
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
        h *= _SHRINK

    raise NotDifferentiable(
        f"one-sided quotients did not settle within {_MAX_ITERS} iterations"
        f" (last gap {gap:.3g}, tol {tol:.3g})"
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
    base = Env(env.bindings if env is not None else {}, x0.grid)
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
