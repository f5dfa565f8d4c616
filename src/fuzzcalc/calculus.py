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

Both estimators evaluate their shifted points in blocks: the points of a
block are the rows of one (rows, levels) stack, bound to the variable for
one ``evaluate`` call.  A block of ``mh_derivative`` is 12 steps of its
schedule, x0 + h and x0 - h for each, after x0 itself in the first block:
most estimates settle within 12 of the 40 steps.  ``continuity_probe`` has
one block, x0 and all its shifts: a probe reads a shift of every trial
delta it rejects, so its reads usually reach the last rows.  Stacks are
internal to this module; every result is one fuzzy number, bit for bit the
one a point-by-point loop gives.  Errors come in that loop's order: when a
block's evaluation raises, meets a floating-point fault that the caller
does not ignore, or (in the probe) has an improper row, the block is
redone one point at a time through the same steps, so the first error a
point-by-point loop would meet is raised, with its class and message, and
a point past where the loop stops neither raises nor changes a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FuzzyNumber, _fresh, _order_normalized, hausdorff_distance
from .errors import ImproperOperand, InvalidArgument, NotDifferentiable
from .expr import Env, Expr, evaluate

_H0_SCALE = 0.125
_SHRINK = 0.5
_MAX_ITERS = 40
# steps of the schedule evaluated as one stack.  On derive-fine's 192
# estimates (101 levels, 2-core Xeon, sizes timed in turn in one process) a
# pass took 68 ms at 12, 105 at 6, 89 at 20 and 188 as one stack of all 40
# steps; 14 and 16 matched 12.  End to end, derive-fine ran 15.38 tasks/s at
# 12 against 11.61 as one stack (medians of 5 alternating pairs).
_BLOCK = 12
DEFAULT_TOL = 1e-7


@dataclass(frozen=True)
class DerivativeEstimate:
    """Converged two-sided estimate; ``value`` is the forward extrapolant,
    ``left_value`` the backward one."""

    value: FuzzyNumber
    left_value: FuzzyNumber
    h_final: float
    gap: float


def _points(x0: FuzzyNumber, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x0 shifted crisply by each offset, as (rows, levels) envelope stacks."""
    o = offsets[:, None]
    return x0.lower + o, x0.upper + o


def _evaluate_stack(f: Expr, var: str, base: Env, lower: np.ndarray, upper: np.ndarray):
    """f at every row of a point stack in one evaluation: its envelope stacks,
    of the points' shape, and whether every row is proper."""
    v = evaluate(f, base.with_binding(var, _fresh(base.grid, lower, upper)))
    return np.broadcast_to(v.lower, lower.shape), np.broadcast_to(v.upper, lower.shape), v.proper


def _evaluate_row(f: Expr, var: str, base: Env, lower: np.ndarray, upper: np.ndarray, i: int) -> FuzzyNumber:
    """f at row ``i`` of a point stack, evaluated on its own."""
    return evaluate(f, base.with_binding(var, _fresh(base.grid, lower[i], upper[i])))


def _faults_raise() -> np.errstate:
    """Raise on each floating-point fault the caller does not ignore: such a
    fault in a stack may belong to a point the point-by-point loop never
    reaches, and would warn or raise for it.  An ignored one (underflow, by
    numpy's default) changes neither a value nor a warning, so it does not
    send a block to be redone."""
    return np.errstate(**{k: "ignore" if v == "ignore" else "raise" for k, v in np.geterr().items()})


def _envelope_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest deviation between [lower, upper] envelope pairs (axis -2),
    per leading index."""
    m = np.max(np.abs(a - b), axis=-1)
    lo, hi = m[..., 0], m[..., 1]
    return np.where(hi > lo, hi, lo)  # as max(lo, hi): NaN only when lo is


def _tableau(center, lower: np.ndarray, upper: np.ndarray, h: np.ndarray, last):
    """The extrapolation tableau over a run of consecutive steps ``h``.

    Rows 2k and 2k + 1 of ``lower`` and ``upper`` hold f at x0 + h[k] and at
    x0 - h[k]; ``center`` is f(x0)'s (lower, upper), and ``last`` the
    (q, pattern, ex) of the step before the run, or None at the schedule's
    start.  Returns (q, pattern, ex, gap, step) with a leading axis over the
    run; ``step`` is infinite where there is no step before.
    """
    c_lo, c_hi = center
    # axis 1: the forward and the backward side of the limit
    d_lo = np.stack((lower[0::2] - c_lo, c_lo - lower[1::2]), axis=1)
    d_hi = np.stack((upper[0::2] - c_hi, c_hi - upper[1::2]), axis=1)
    # per side, the gH quotient as a [lower, upper] envelope pair, and the
    # branch pattern (True where the lower-envelope delta is the smaller)
    q = np.stack((np.minimum(d_lo, d_hi), np.maximum(d_lo, d_hi)), axis=2) / h[:, None, None, None]
    pattern = (d_lo <= d_hi)[:, :, None]
    # two-point Richardson for a leading O(h) error term against the step
    # before, restarted per level where the branch pattern switched
    if last is None:
        qs, patterns = q, pattern
    else:
        qs, patterns = np.concatenate((last[0], q)), np.concatenate((last[1], pattern))
    ex = np.where(patterns[1:] == patterns[:-1], (qs[1:] - _SHRINK * qs[:-1]) / (1.0 - _SHRINK), qs[1:])
    if last is None:
        # the schedule's first step is its own extrapolant, with no step before
        ex = np.concatenate((q[:1], ex))
        step = np.concatenate(((np.inf,), _envelope_distance(ex[1:, 0], ex[:-1, 0])))
    else:
        step = _envelope_distance(ex[:, 0], np.concatenate((last[2], ex[:-1]))[:, 0])
    return q, pattern, ex, _envelope_distance(ex[:, 0], ex[:, 1]), step


def _runs(f: Expr, var: str, base: Env, x0: FuzzyNumber, schedule: np.ndarray):
    """The tableau down the schedule, run by run: (h, ex, gap, step) as
    :func:`_tableau` gives them.

    A block of ``_BLOCK`` steps is one stacked evaluation and one run.  When
    that raises or meets a floating-point fault, the block is redone one
    step at a time, each point evaluated on its own when the caller asks for
    its step.
    """
    center = last = None
    for start in range(0, len(schedule), _BLOCK):
        h = schedule[start:start + _BLOCK]
        # x0 + h and x0 - h per step, after x0 itself in the first block
        offsets = np.stack((h, -h), axis=1).ravel()
        if center is None:
            offsets = np.concatenate(((0.0,), offsets))
        lower, upper = _points(x0, offsets)
        try:
            with _faults_raise():
                lo, hi, _ = _evaluate_stack(f, var, base, lower, upper)
                c = center
                if c is None:
                    c, lo, hi = (lo[0], hi[0]), lo[1:], hi[1:]
                q, pattern, ex, gap, step = _tableau(c, lo, hi, h, last)
        except Exception:  # any, even a MemoryError: the redo meets a real error again
            pass
        else:
            center, last = c, (q[-1:], pattern[-1:], ex[-1:])
            yield h, ex, gap, step
            continue
        points = (_evaluate_row(f, var, base, lower, upper, i) for i in range(len(offsets)))
        if center is None:
            v = next(points)
            center = (v.lower, v.upper)
        for k in range(len(h)):
            fwd, bwd = next(points), next(points)
            q, pattern, ex, gap, step = _tableau(
                center, np.stack((fwd.lower, bwd.lower)), np.stack((fwd.upper, bwd.upper)), h[k:k + 1], last
            )
            last = (q, pattern, ex)
            yield h[k:k + 1], ex, gap, step


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
    NotDifferentiable when no step of the 40 passes both tests, naming the
    test that failed at the last step; ImproperOperand when the converged
    quotient is not a fuzzy number.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidArgument(f"tol must be positive and finite, got {tol!r}")
    if not x0.proper:
        raise ImproperOperand("expansion point is improper")
    grid = x0.grid
    base = Env(env.bindings if env is not None else {}, grid)
    # one halving after another
    h0 = _H0_SCALE * (1.0 + abs(x0.support.midpoint))
    schedule = np.cumprod(np.concatenate(((h0,), np.full(_MAX_ITERS - 1, _SHRINK))))
    gap = step = np.inf
    for h, ex, gaps, steps in _runs(f, var, base, x0, schedule):
        done = (gaps <= tol) & (steps <= tol)
        if done.any():
            k = int(done.argmax())
            value = _order_normalized(grid, *ex[k, 0])
            if not value.proper:
                raise ImproperOperand("difference quotient stayed improper through convergence")
            return DerivativeEstimate(
                value=value,
                left_value=_order_normalized(grid, *ex[k, 1]),
                h_final=float(h[k]),
                gap=float(gaps[k]),
            )
        gap, step = float(gaps[-1]), float(steps[-1])

    failed = " and the ".join(name for name, v in (("gap", gap), ("step", step)) if not v <= tol)
    raise NotDifferentiable(
        f"one-sided quotients did not settle within {_MAX_ITERS} iterations: the {failed}"
        f" stayed above tol (last gap {gap:.3g}, last step {step:.3g}, tol {tol:.3g})"
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
        raise InvalidArgument("eps must be positive")
    base = Env(env.bindings if env is not None else {}, x0.grid)
    # an improper x0 raises ImproperOperand here, before any evaluation, as
    # binding it for f(x0) does point by point
    at_x0 = base.with_binding(var, x0)
    deltas = sorted(trial_deltas, reverse=True)
    shifts = [sign * frac * delta for delta in deltas for frac in _PROBE_FRACTIONS for sign in (1.0, -1.0)]
    # row 0 is x0 itself, then each shift in the order it is tried.  One
    # stack, no blocks: on derive-fine's probes, which reject every trial
    # delta, the last shift read is shift 48 to 54 of 56
    lower, upper = _points(x0, np.array([0.0, *shifts]))
    lower[0], upper[0] = x0.lower, x0.upper
    try:
        with _faults_raise():
            lo, hi, proper = _evaluate_stack(f, var, base, lower, upper)
            dist = np.max(np.maximum(np.abs(lo[1:] - lo[0]), np.abs(hi[1:] - hi[0])), axis=-1)
    except Exception:  # any, even a MemoryError: the redo meets a real error again
        proper = False
    if proper:
        distance = dist.__getitem__
    else:
        # point by point, each value checked as hausdorff_distance checks it
        f0 = evaluate(f, at_x0)

        def distance(i: int) -> float:
            return hausdorff_distance(_evaluate_row(f, var, base, lower, upper, i + 1), f0)

    n = 2 * len(_PROBE_FRACTIONS)
    for i, delta in enumerate(deltas):
        # the first shift that moves f by eps or more rejects the delta
        if not any(distance(k) >= eps for k in range(i * n, (i + 1) * n)):
            return float(delta)
    return None
