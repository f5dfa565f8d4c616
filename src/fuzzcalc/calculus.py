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
block are the rows of one (rows, levels) stack, bound to the variable
for one ``evaluate`` call, which returns f in the stack's shape, one row
per point, even where f does not read the variable.  One helper,
``_at``, evaluates a block, a single point and f(x0) alike.  A block of
``mh_derivative`` is 12 steps of its schedule, x0 + h and x0 - h for
each, after x0 itself in the first block: 186 of derive-fine's 192
estimates at seed 7 settle within the first 12 of the 40 steps.  The
schedule and each block's offsets are slices of one table of halvings
times h0, and a block's tableau writes its deltas, quotients and
extrapolants into arrays allocated once per block, so that it costs its
arithmetic and not copies.  ``continuity_probe`` evaluates at most two
stacks, which together hold every shift its loop can read: x0 in row 0
and each trial delta's first shift, which rejects most deltas (on
derive-fine every one but at most the last), then, only if some delta is
left open, the other shifts of each open delta.  A probe evaluates 1 + d
rows when the first stack rejects all d deltas, where one stack of every
shift held 1 + 8d, and 8 + 7 = 15 when one of 7 deltas is left open.
Stacks are internal to this module; every result is one fuzzy number,
bit for bit the one a point-by-point loop gives.  Errors come in that
loop's order: when a block's evaluation raises, meets a floating-point
fault that the caller does not ignore, or (in the probe) has an improper
row, the block, or the whole probe, is redone one point at a time
through the same steps, so the first error a point-by-point loop would
meet is raised, with its class and message, and a point past where the
loop stops neither raises nor changes a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _counters
from .core import FuzzyNumber, _fresh, _nested, _require_proper, hausdorff_distance
from .errors import InvalidArgument, NotDifferentiable
from .expr import Env, Expr, evaluate

_H0_SCALE = 0.125
_SHRINK = 0.5
_MAX_ITERS = 40
# steps of the schedule evaluated as one stack.  On derive-fine's 192
# estimates and probes (seed 7, 101 levels, 2-core AMD EPYC, sizes timed in
# turn in one process, medians of 7 warm passes in each of 3 rounds) a pass
# took 30.1-30.6 ms at 12, 30.4-31.2 at 14, 31.2-31.5 at 16, 33.0-33.2 at
# 20, 35.3-35.9 at 6, 36.5-37.8 at 8, 38.2-39.1 at 10 and 41.6-42.0 as one
# stack of all 40 steps: below 12, the estimates that settle at step 11 or
# 12 pay for a second block.
_BLOCK = 12
DEFAULT_TOL = 1e-7
# the schedule's points as offsets from x0 over h0: 0, then +0.5^k and
# -0.5^k for each step k.  Times h0 they are the schedule's halvings
# exactly: a power of two rounds nothing, and h0 >= 0.125 keeps every step
# normal
_OFFSETS = np.concatenate(((0.0,), np.multiply.outer(_SHRINK ** np.arange(_MAX_ITERS), (1.0, -1.0)).ravel()))


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


def _at(f: Expr, var: str, base: Env, lower: np.ndarray, upper: np.ndarray) -> FuzzyNumber:
    """f at one point, or at each row of a (rows, levels) point stack, in
    one evaluation; the value has the points' shape."""
    return evaluate(f, base.with_binding(var, _fresh(base.grid, lower, upper)))


def _redo(f: Expr, var: str, base: Env, lower: np.ndarray, upper: np.ndarray, tally: dict):
    """f at each row of a point stack in turn, each evaluated on its own and
    counted in ``tally`` as it is."""
    for row in zip(lower, upper):
        tally["rows"] += 1
        yield _at(f, var, base, *row)


def _faults_raise() -> np.errstate:
    """Raise on each floating-point fault the caller does not ignore: such a
    fault in a stack may belong to a point the point-by-point loop never
    reaches, and would warn or raise for it.  An ignored one (underflow, by
    numpy's default) changes neither a value nor a warning, so it does not
    send a block to be redone."""
    return np.errstate(**{k: "ignore" if v == "ignore" else "raise" for k, v in np.geterr().items()})


def _tableau(center, lower: np.ndarray, upper: np.ndarray, h: np.ndarray, last):
    """The extrapolation tableau over a run of consecutive steps ``h``.

    Rows 2k and 2k + 1 of ``lower`` and ``upper`` hold f at x0 + h[k] and at
    x0 - h[k]; ``center`` is f(x0)'s (lower, upper), and ``last`` the
    (q, pattern, ex) of the step before the run, or None at the schedule's
    start.  Returns (q, pattern, ex, gap, step) with a leading axis over the
    run: q and ex are laid out (step, side, envelope, level), side 0 the
    forward side of the limit and side 1 the backward one, each as its
    [lower, upper] envelope pair, and pattern (step, side, 1, level);
    ``step`` is infinite where there is no step before.
    """
    c_lo, c_hi = center
    n, levels = len(h), c_lo.shape[-1]
    # the lower- and the upper-envelope delta, (envelope, step, side, level)
    d = np.empty((2, n, 2, levels))
    np.subtract(lower[0::2], c_lo, out=d[0, :, 0])
    np.subtract(c_lo, lower[1::2], out=d[0, :, 1])
    np.subtract(upper[0::2], c_hi, out=d[1, :, 0])
    np.subtract(c_hi, upper[1::2], out=d[1, :, 1])
    # row 0 holds the step before the run, the later rows the run: per side,
    # the gH quotient as a [lower, upper] envelope pair, the branch pattern
    # (True where the lower-envelope delta is the smaller) and the extrapolant
    qs, exs = np.empty((n + 1, 2, 2, levels)), np.empty((n + 1, 2, 2, levels))
    patterns = np.empty((n + 1, 2, 1, levels), dtype=bool)
    q, pattern, ex = qs[1:], patterns[1:], exs[1:]
    np.minimum(d[0], d[1], out=q[:, :, 0])
    np.maximum(d[0], d[1], out=q[:, :, 1])
    q /= h[:, None, None, None]
    np.less_equal(d[0], d[1], out=pattern[:, :, 0])
    if last is None:
        # the schedule's first step is its own extrapolant, with no step
        # before; a zero row before it keeps the step's arithmetic fault-free
        ex[0] = q[0]
        exs[0] = 0.0
        s = 2
    else:
        qs[0], patterns[0], exs[0] = last
        s = 1
    # two-point Richardson for a leading O(h) error term against the step
    # before, restarted per level where the branch pattern switched
    r = exs[s:]
    np.multiply(qs[s - 1:-1], _SHRINK, out=r)
    np.subtract(qs[s:], r, out=r)
    r /= 1.0 - _SHRINK
    switched = np.empty(r.shape, dtype=bool)
    np.not_equal(patterns[s:], patterns[s - 1:-1], out=switched)
    np.putmask(r, switched, qs[s:])
    # the gap between the sides, and the forward side's step from the
    # extrapolant before, each per envelope
    dev = np.empty((2, n, 2, levels))
    np.subtract(ex[:, 0], ex[:, 1], out=dev[0])
    np.subtract(exs[1:, 0], exs[:-1, 0], out=dev[1])
    m = np.maximum.reduce(np.abs(dev, out=dev), axis=-1)
    # as max(lo, hi) per step: NaN only when lo is
    gap, step = np.where(m[..., 1] > m[..., 0], m[..., 1], m[..., 0])
    if last is None:
        step[0] = np.inf
    return q, pattern, ex, gap, step


def _runs(f: Expr, var: str, base: Env, x0: FuzzyNumber, offsets: np.ndarray, tally: dict):
    """The tableau down the schedule, run by run: (h, ex, gap, step) as
    :func:`_tableau` gives them.  ``offsets`` is 0, then +h and -h for each
    step of the schedule in turn.

    A block of ``_BLOCK`` steps is one stacked evaluation and one run.  When
    that raises or meets a floating-point fault, the block is redone one
    step at a time, each point evaluated on its own when the caller asks for
    its step.  ``tally`` counts the blocks, the rows evaluated and the steps
    run through the tableau.
    """
    schedule = offsets[1::2]
    center = last = None
    for start in range(0, len(schedule), _BLOCK):
        h = schedule[start:start + _BLOCK]
        # x0 + h and x0 - h per step, after x0 itself in the first block
        rows = offsets[2 * start + (start > 0):2 * (start + len(h)) + 1]
        lower, upper = _points(x0, rows)
        tally["blocks"] += 1
        tally["rows"] += len(rows)
        try:
            with _faults_raise():
                v = _at(f, var, base, lower, upper)
                lo, hi, c = v.lower, v.upper, center
                if c is None:
                    c, lo, hi = (lo[0], hi[0]), lo[1:], hi[1:]
                q, pattern, ex, gap, step = _tableau(c, lo, hi, h, last)
        except Exception:  # any, even a MemoryError: the redo meets a real error again
            pass
        else:
            tally["tableau_steps"] += len(h)
            center, last = c, (q[-1], pattern[-1], ex[-1])
            yield h, ex, gap, step
            continue
        points = _redo(f, var, base, lower, upper, tally)
        if center is None:
            v = next(points)
            center = (v.lower, v.upper)
        for k in range(len(h)):
            fwd, bwd = next(points), next(points)
            q, pattern, ex, gap, step = _tableau(
                center, np.stack((fwd.lower, bwd.lower)), np.stack((fwd.upper, bwd.upper)), h[k:k + 1], last
            )
            tally["tableau_steps"] += 1
            last = (q[-1], pattern[-1], ex[-1])
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
    _require_proper(x0, what="expansion point")
    grid = x0.grid
    base = Env(env.bindings if env is not None else {}, grid)
    offsets = _H0_SCALE * (1.0 + abs(x0.support.midpoint)) * _OFFSETS
    offsets[0] = 0.0  # x0 + 0.0, also where an infinite x0 makes h0 NaN
    gap = step = np.inf
    tally = {"blocks": 0, "rows": 0, "tableau_steps": 0}
    try:
        for h, ex, gaps, steps in _runs(f, var, base, x0, offsets, tally):
            done = (gaps <= tol) & (steps <= tol)
            if done.any():
                k = int(done.argmax())
                # both sides as [min, max] envelope pairs, nested only if each row is
                lower = np.minimum(ex[k, :, 0], ex[k, :, 1])
                upper = np.maximum(ex[k, :, 0], ex[k, :, 1])
                proper = (True, True) if _nested(lower, upper) else (
                    _nested(lower[0], upper[0]), _nested(lower[1], upper[1]))
                value = _fresh(grid, lower[0], upper[0], proper[0])
                _require_proper(value, what="converged difference quotient")
                return DerivativeEstimate(
                    value=value,
                    left_value=_fresh(grid, lower[1], upper[1], proper[1]),
                    h_final=float(h[k]),
                    gap=float(gaps[k]),
                )
            gap, step = float(gaps[-1]), float(steps[-1])
    finally:
        if _counters.counts is not None:
            _counters.counts.update(tally)

    failed = " and the ".join(name for name, v in (("gap", gap), ("step", step)) if not v <= tol)
    raise NotDifferentiable(
        f"one-sided quotients did not settle within {_MAX_ITERS} iterations: the {failed}"
        f" stayed above tol (last gap {gap:.3g}, last step {step:.3g}, tol {tol:.3g})"
    )


# fractions of a trial delta, each shifted both ways, in the order they are tried
_PROBE_SHIFTS = (0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 0.95, -0.95)


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
    largest accepted delta, or None when every trial fails or none is
    given.  Each trial delta must be positive and finite.  A sampling
    probe, not a proof.
    """
    if not eps > 0:
        raise InvalidArgument("eps must be positive")
    deltas = sorted(trial_deltas, reverse=True)
    if not all(0.0 < d < math.inf for d in deltas):
        raise InvalidArgument(f"trial deltas must be positive and finite, got {deltas!r}")
    # refused before any evaluation, as binding x0 for f(x0) refuses it point by point
    _require_proper(x0, what=f"binding for {var!r}")
    base = Env(env.bindings if env is not None else {}, x0.grid)
    # each delta's shifts in the order they are tried: point by point, a
    # delta's later shifts are read only if its first does not reject it
    shifts = np.multiply.outer(np.array(deltas, dtype=float), _PROBE_SHIFTS)
    tally = {"blocks": 0, "rows": 0}

    def distances(offsets: np.ndarray, center=None) -> tuple[np.ndarray, tuple]:
        """One stack of x0 shifted by each offset: each row's Hausdorff
        distance from f(x0), row 0 being x0 itself when ``center`` (f(x0)'s
        (lower, upper)) is None, and that center."""
        lower, upper = _points(x0, offsets)
        if center is None:
            lower[0], upper[0] = x0.lower, x0.upper
        tally["blocks"] += 1
        tally["rows"] += len(offsets)
        v = _at(f, var, base, lower, upper)
        _require_proper(v)
        lo, hi = v.lower, v.upper
        if center is None:
            center, lo, hi = (lo[0], hi[0]), lo[1:], hi[1:]
        # as hausdorff_distance takes it, the passes in place
        dev, dev_hi = np.subtract(lo, center[0]), np.subtract(hi, center[1])
        dev = np.maximum(np.abs(dev, out=dev), np.abs(dev_hi, out=dev_hi), out=dev)
        return np.maximum.reduce(dev, axis=-1), center

    try:
        try:
            with _faults_raise():
                # x0, then each delta's first shift
                dist, center = distances(np.concatenate(((0.0,), shifts[:, 0])))
                # the first shift that moves f by eps or more rejects its delta
                open_ = np.flatnonzero(~(dist >= eps))
                if len(open_):
                    # the other shifts of each delta left open, against the first stack's f(x0)
                    dist, _ = distances(shifts[open_, 1:].ravel(), center)
                    open_ = open_[~(dist.reshape(len(open_), -1) >= eps).any(axis=1)]
        except Exception:  # any, even a MemoryError: the redo meets a real error again
            pass
        else:
            return float(deltas[open_[0]]) if len(open_) else None
        # point by point, f(x0) first, each value checked as hausdorff_distance checks it
        tally["rows"] += 1
        f0 = _at(f, var, base, x0.lower, x0.upper)
        for delta, row in zip(deltas, shifts):
            lower, upper = _points(x0, row)
            if not any(hausdorff_distance(v, f0) >= eps for v in _redo(f, var, base, lower, upper, tally)):
                return float(delta)
        return None
    finally:
        if _counters.counts is not None:
            _counters.counts.update(tally)
