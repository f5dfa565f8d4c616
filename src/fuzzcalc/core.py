"""Fuzzy numbers as sampled alpha-cut envelopes with interval arithmetic.

A fuzzy number is stored as its lower and upper envelope values on a shared
grid of alpha levels.  Every arithmetic operation works level-wise on the
endpoint pairs, so the machinery is ordinary interval arithmetic applied
once per level:

    add:  [a, b] + [c, d] = [a + c, b + d]
    mul:  [a, b] * [c, d] = [min/max of the four endpoint products]
    div:  [a, b] * [min(1/c, 1/d), max(1/c, 1/d)]   (0 outside [c, d])
    gh-difference: [min(a - c, b - d), max(a - c, b - d)]

Each operation has the one formula above except ``mul``, the only one
that chooses its kernel by sign class (``_sign_class``).  When both
operands are strictly positive or strictly negative at every level, Moore's
case table names the two endpoint products that are the bounds, and only
those are formed; rounding is monotone, so the result equals the
four-product result bit for bit.  Any other pair, such as one holding a zero
of either sign or a NaN, takes the four products.  A value's sign class is
read once, in place, and kept on the value: its envelopes never change.

The gH-difference is the one operation that can break nestedness (alpha-cuts
must shrink as alpha grows); such results carry ``proper=False`` and every
other operation rejects them with :class:`ImproperOperand`.

Operation results wrap the arrays they have just computed without a copy
(``_value``); only :class:`FuzzyNumber` called directly copies and checks,
and only ``make_triangular`` checks a (d, e, f) triple.

Envelopes may also be stacks: (rows, levels) arrays holding one fuzzy
number per row, which the operations broadcast against plain envelopes.
Stacks are internal: only :mod:`fuzzcalc.calculus` builds them, with
``_fresh``, to evaluate many points at once, and every public result is
one fuzzy number.  Each row's result equals the one-row result bit for
bit.  Where an operation decides, it decides per row: ``div`` raises when
some row's divisor support holds zero, naming the first such row;
``_nested`` checks each row at its own scale, and a stack is proper only
if every row is; ``_sign_class`` reads the stack flat, so a stack whose
rows differ in sign takes ``mul``'s four products.

Each operation's arithmetic is one private kernel (``_add``, ``_mul``, ...),
which runs no guard and marks nothing read-only (``_value``).  The public
name runs the guards once, at its boundary, then the kernel, then marks the
result read-only (``_frozen``).  Evaluation plans, ``partial_sum``,
``taylor_series_of`` and ``solve`` check their inputs themselves and run
the kernels, marking read-only only the values they hand out.

A kernel takes a buffer pool or None: a plain list of envelope arrays that
``ivp.solve`` creates and drops within one call.  Given one, a kernel
writes its result and temporaries into arrays popped from it (numpy
allocates when it is empty) and gives its temporaries back; the ufuncs are
the same, so each result is the same bit for bit.  ``_release`` gives back
a dead, writable value that the pool's owner computed and nothing else
holds; a value handed to a caller is never released.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    Crossed,
    DivisorStraddlesZero,
    GridMismatch,
    ImproperOperand,
    InvalidArgument,
    MalformedTriplet,
    NotNested,
)

DEFAULT_RESOLUTION = 101

# The largest power ``pow_int`` and ``PowInt`` take: ``pow_int`` runs one
# ``mul`` per unit of the exponent, so the bound bounds its work.
MAX_EXPONENT = 1024

# The most levels ``AlphaGrid.uniform`` makes: each envelope holds one float64
# per level, so the bound keeps an envelope at 8 MB or less (8 bytes times
# 1,000,001 levels), about a hundred times the 10001 levels of the widest
# grid the tests and the benchmark solve on.
MAX_RESOLUTION = 1_000_001

# Slack for float noise when checking envelope monotonicity; operation
# results are exact up to a few ulps, so this never masks real defects.
_NEST_SLACK = 1e-12


class AlphaGrid:
    """Strictly increasing alpha levels from 0 to 1 inclusive."""

    __slots__ = ("levels",)

    def __init__(self, levels: Sequence[float]):
        arr = np.array(levels, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidArgument("alpha grid needs at least the levels 0 and 1")
        if arr[0] != 0.0 or arr[-1] != 1.0:
            raise InvalidArgument("alpha grid must start at 0 and end at 1")
        if not np.all(np.diff(arr) > 0.0):
            raise InvalidArgument("alpha levels must be strictly increasing")
        arr.flags.writeable = False
        self.levels = arr

    @classmethod
    def uniform(cls, resolution: int = DEFAULT_RESOLUTION) -> "AlphaGrid":
        if not (resolution >= 2 and resolution % 1 == 0):
            raise InvalidArgument(f"grid resolution must be >= 2 and an integer, got {resolution!r}")
        if resolution > MAX_RESOLUTION:
            raise InvalidArgument(f"grid resolution must be at most {MAX_RESOLUTION}, got {resolution!r}")
        return cls(np.linspace(0.0, 1.0, int(resolution)))

    def __len__(self) -> int:
        return int(self.levels.size)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, AlphaGrid):
            return NotImplemented
        return self.levels.shape == other.levels.shape and bool(
            np.array_equal(self.levels, other.levels)
        )

    __hash__ = None  # arrays inside; identity is by level values

    def __reduce__(self):
        # pickles and deep copies are rebuilt by the constructor, so their
        # levels are checked and read-only
        return AlphaGrid, (self.levels,)

    def __repr__(self) -> str:
        return f"AlphaGrid(resolution={len(self)})"


DEFAULT_GRID = AlphaGrid.uniform()


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def midpoint(self) -> float:
        total = self.lo + self.hi
        if math.isfinite(total):
            return 0.5 * total
        # the sum overflows near the float limit; halving first does not, but
        # it would move subnormal midpoints, so it is the fallback only
        return 0.5 * self.lo + 0.5 * self.hi


def _nested(lower: np.ndarray, upper: np.ndarray) -> bool:
    """Whether the cuts shrink as alpha grows, up to ``_NEST_SLACK`` times
    the envelopes' largest magnitude (at least 1).  A stack nests only if
    every row does, each row at its own scale, so that a large row cannot
    hide a small row's defect.  A NaN never nests: its steps compare false."""
    with np.errstate(invalid="ignore"):
        # fmax skips a NaN maximum, keeping the scale of the other envelope
        scale = np.fmax(np.fmax(1.0, np.maximum.reduce(np.abs(lower), axis=-1)),
                        np.maximum.reduce(np.abs(upper), axis=-1))
        tol = _NEST_SLACK * scale
        return bool((np.minimum.reduce(lower[..., 1:] - lower[..., :-1], axis=-1) >= -tol).all()
                    and (np.maximum.reduce(upper[..., 1:] - upper[..., :-1], axis=-1) <= tol).all())


class FuzzyNumber:
    """Sampled alpha-cut envelopes on a shared grid.

    ``lower[i]`` and ``upper[i]`` are the endpoints of the alpha-cut at
    ``grid.levels[i]``; lower never exceeds upper.  ``proper`` is False only
    for gH-difference results whose envelopes lost nestedness; every
    operation other than the gH-difference refuses improper inputs.

    The constructor copies the envelopes and raises ``Crossed`` when lower
    exceeds upper at some level (equality is fine) and ``NotNested`` when
    the cuts do not shrink as alpha grows.  Instances are immutable.
    """

    __slots__ = ("grid", "lower", "upper", "proper", "_sign")

    def __init__(self, grid: AlphaGrid, lower, upper):
        lo = np.array(lower, dtype=float)
        hi = np.array(upper, dtype=float)
        if lo.shape != grid.levels.shape or hi.shape != grid.levels.shape:
            raise InvalidArgument("envelope arrays must match the grid resolution")
        crossed = lo > hi
        if np.any(crossed):
            k = int(np.argmax(crossed))
            raise Crossed(f"lower exceeds upper at alpha={grid.levels[k]:.6g}")
        if not _nested(lo, hi):
            raise NotNested("alpha-cuts must shrink as alpha grows")
        lo.flags.writeable = False
        hi.flags.writeable = False
        self.grid = grid
        self.lower = lo
        self.upper = hi
        self.proper = True
        self._sign = None

    # -- inspection ---------------------------------------------------------

    @property
    def support(self) -> Interval:
        return Interval(float(self.lower[0]), float(self.upper[0]))

    @property
    def core(self) -> Interval:
        return Interval(float(self.lower[-1]), float(self.upper[-1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FuzzyNumber):
            return NotImplemented
        return (
            self.grid == other.grid
            and bool(np.array_equal(self.lower, other.lower))
            and bool(np.array_equal(self.upper, other.upper))
            and self.proper == other.proper
        )

    __hash__ = None

    def __reduce__(self):
        # pickles and copies are rebuilt by _fresh: read-only, with no sign
        # class kept (a shallow copy shares envelopes that are read-only)
        return _fresh, (self.grid, self.lower, self.upper, self.proper)

    def __repr__(self) -> str:
        s, c = self.support, self.core
        flag = "" if self.proper else ", improper"
        return (
            f"FuzzyNumber(support=[{s.lo:.6g}, {s.hi:.6g}],"
            f" core=[{c.lo:.6g}, {c.hi:.6g}]{flag})"
        )


def _value(grid: AlphaGrid, lower: np.ndarray, upper: np.ndarray, proper: bool = True) -> FuzzyNumber:
    """Wrap envelope arrays just computed on ``grid``, or (rows, levels)
    stacks of it, that nothing else holds: no copy, no check, no flag."""
    out = object.__new__(FuzzyNumber)
    out.grid = grid
    out.lower = lower
    out.upper = upper
    out.proper = proper
    out._sign = None
    return out


def _frozen(v: FuzzyNumber) -> FuzzyNumber:
    """``v``, its envelopes marked read-only, as is every value handed out."""
    v.lower.setflags(write=False)
    v.upper.setflags(write=False)
    return v


def _fresh(grid: AlphaGrid, lower: np.ndarray, upper: np.ndarray, proper: bool = True) -> FuzzyNumber:
    """``_value`` marked read-only: for arrays built outside the kernels."""
    return _frozen(_value(grid, lower, upper, proper))


def _order_normalized(grid: AlphaGrid, a: np.ndarray, b: np.ndarray) -> FuzzyNumber:
    """Per-level [min(a, b), max(a, b)]; proper only if the cuts still nest."""
    lower = np.minimum(a, b)
    upper = np.maximum(a, b)
    return _fresh(grid, lower, upper, _nested(lower, upper))


def _sign_class(v: FuzzyNumber) -> int:
    """+1 when every lower and upper value is > 0, -1 when every one is < 0,
    else 0; read once per value and kept in its ``_sign`` slot.

    Read from the whole envelopes, not from the support alone: inner cuts
    may sit a few ulps outside it (``_NEST_SLACK``), and a stack is read
    flat.  A zero of either sign gives 0, and so does a NaN: ``minimum`` and
    ``maximum`` propagate it, and every comparison with it is false.  The
    reductions read the envelopes in place; ``argmin`` and ``argmax`` would
    first copy them, because numpy copies a read-only array before either.
    """
    s = v._sign
    if s is None:
        lo, hi = v.lower, v.upper
        if np.minimum.reduce(lo, axis=None) > 0.0 and np.minimum.reduce(hi, axis=None) > 0.0:
            s = 1
        elif np.maximum.reduce(hi, axis=None) < 0.0 and np.maximum.reduce(lo, axis=None) < 0.0:
            s = -1
        else:
            s = 0
        v._sign = s
    return s


# -- guards ------------------------------------------------------------------


# the guards' messages, raised too by callers of the kernels that check operands
_IMPROPER_OPERAND = "operand is an improper (non-nested) fuzzy number"
_OTHER_GRID = "operands live on different alpha grids; resample first"


def _require_proper(*values: FuzzyNumber) -> None:
    for v in values:
        if not v.proper:
            raise ImproperOperand(_IMPROPER_OPERAND)


def _require_same_grid(a: FuzzyNumber, b: FuzzyNumber) -> None:
    if a.grid != b.grid:
        raise GridMismatch(_OTHER_GRID)


# -- constructors -------------------------------------------------------------


def make_triangular(triple, grid: AlphaGrid = DEFAULT_GRID) -> FuzzyNumber:
    """The triangular number (d, e, f) sampled on ``grid``, exact at every
    level: its alpha-cut is [d + (e - d) * a, f - (f - e) * a].  The one check
    that a triple is finite with d <= e <= f (MalformedTriplet)."""
    d, e, f = triple
    if not (d <= e <= f):
        raise MalformedTriplet(f"need d <= e <= f, got ({d}, {e}, {f})")
    if not (-np.inf < d and f < np.inf):
        raise MalformedTriplet(f"need finite d, e, f, got ({d}, {e}, {f})")
    a = grid.levels
    lower = d + (e - d) * a
    upper = f - (f - e) * a
    # the two affine formulas can disagree at the core by one ulp; pin it
    lower[-1] = e
    upper[-1] = e
    return FuzzyNumber(grid, lower, upper)


def _singleton(value: float, grid: AlphaGrid, pool: list | None) -> FuzzyNumber:
    # one array, shared by both envelopes
    if pool:
        flat = pool.pop()
        flat.fill(float(value))
    else:
        flat = np.full(len(grid), float(value))
    return _value(grid, flat, flat)


def singleton(value: float, grid: AlphaGrid = DEFAULT_GRID) -> FuzzyNumber:
    """Crisp real embedded as a fuzzy number (both envelopes constant)."""
    return _frozen(_singleton(value, grid, None))


def resample(a: FuzzyNumber, grid: AlphaGrid) -> FuzzyNumber:
    """Move ``a`` onto another grid by linear interpolation of its envelopes.

    This is the only sanctioned way to mix grids; arithmetic never
    resamples implicitly.
    """
    _require_proper(a)
    lower = np.interp(grid.levels, a.grid.levels, a.lower)
    upper = np.interp(grid.levels, a.grid.levels, a.upper)
    return FuzzyNumber(grid, lower, upper)


# -- arithmetic ----------------------------------------------------------------


# With a pool, a kernel takes each array it writes with
# ``pool.pop() if pool else None``: an array from the pool, or None, so that
# the ufunc allocates one, when the pool is empty or there is none.  It is
# spelt out at each ufunc, not called: a call per ufunc cost taylor-swell,
# which runs with no pool, about 3% more in-process.


def _release(pool: list, v: FuzzyNumber) -> None:
    """Give the envelopes of a dead, writable value back to ``pool``.  Only
    for a value the pool's owner computed and that nothing else holds; a
    singleton's one array goes back once."""
    pool.append(v.lower)
    if v.upper is not v.lower:
        pool.append(v.upper)


def _add(a: FuzzyNumber, b: FuzzyNumber, pool: list | None) -> FuzzyNumber:
    return _value(a.grid, np.add(a.lower, b.lower, out=pool.pop() if pool else None),
                  np.add(a.upper, b.upper, out=pool.pop() if pool else None))


def add(a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Level-wise endpoint sums."""
    _require_proper(a, b)
    _require_same_grid(a, b)
    return _frozen(_add(a, b, None))


def _scalar_mul(k: float, a: FuzzyNumber, pool: list | None) -> FuzzyNumber:
    x = np.multiply(k, a.lower, out=pool.pop() if pool else None)
    y = np.multiply(k, a.upper, out=pool.pop() if pool else None)
    lower = np.minimum(x, y, out=pool.pop() if pool else None)
    upper = np.maximum(x, y, out=y)
    if pool is not None:
        pool.append(x)
    return _value(a.grid, lower, upper)


def scalar_mul(k: float, a: FuzzyNumber) -> FuzzyNumber:
    """Scale by a crisp real; endpoints are order-normalized so a negative
    factor flips the envelopes instead of producing an inverted interval."""
    _require_proper(a)
    return _frozen(_scalar_mul(k, a, None))


def _mul(a: FuzzyNumber, b: FuzzyNumber, pool: list | None) -> FuzzyNumber:
    sa = _sign_class(a)
    sb = _sign_class(b) if sa else 0
    if sb:
        # a negative factor swaps which endpoint of the other one is extreme
        a_lo, a_hi = (a.lower, a.upper) if sb > 0 else (a.upper, a.lower)
        b_lo, b_hi = (b.lower, b.upper) if sa > 0 else (b.upper, b.lower)
        return _value(a.grid, np.multiply(a_lo, b_lo, out=pool.pop() if pool else None),
                      np.multiply(a_hi, b_hi, out=pool.pop() if pool else None))
    p1 = np.multiply(a.lower, b.lower, out=pool.pop() if pool else None)
    p2 = np.multiply(a.lower, b.upper, out=pool.pop() if pool else None)
    p3 = np.multiply(a.upper, b.lower, out=pool.pop() if pool else None)
    p4 = np.multiply(a.upper, b.upper, out=pool.pop() if pool else None)
    # min(min(p1, p2), min(p3, p4)) and max(max(p1, p2), max(p3, p4)), with
    # upper holding a partial of lower's first and p1 a partial of upper's
    lower = np.minimum(p1, p2, out=pool.pop() if pool else None)
    upper = np.minimum(p3, p4, out=pool.pop() if pool else None)
    np.minimum(lower, upper, out=lower)
    np.maximum(p1, p2, out=upper)
    np.maximum(p3, p4, out=p1)
    np.maximum(upper, p1, out=upper)
    if pool is not None:
        pool.extend((p1, p2, p3, p4))
    return _value(a.grid, lower, upper)


def mul(a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Level-wise interval product (min/max over the four endpoint products).

    The kernel is chosen by sign class: two strictly signed operands need
    only two of the four products (lower times lower and upper times upper
    when both are positive), and the result equals the four-product result
    bit for bit.
    """
    _require_proper(a, b)
    _require_same_grid(a, b)
    return _frozen(_mul(a, b, None))


def _exponent(n) -> int:
    """The one check of a power's exponent, for ``pow_int`` and ``PowInt``:
    an integer from 0 to ``MAX_EXPONENT``, returned as an int."""
    if not (0 <= n <= MAX_EXPONENT and int(n) == n):
        raise InvalidArgument(f"exponent must be an integer from 0 to {MAX_EXPONENT}, got {n!r}")
    return int(n)


def _integer(n, what: str) -> int:
    """``n`` as an int, after its owner checked its range; InvalidArgument
    if it has a fraction."""
    if n % 1 != 0:
        raise InvalidArgument(f"{what} must be an integer, got {n!r}")
    return int(n)


def _pow_int(a: FuzzyNumber, n: int, pool: list | None) -> FuzzyNumber:
    if n == 0:
        return _singleton(1.0, a.grid, pool)
    acc = a
    for _ in range(n - 1):
        partial, acc = acc, _mul(acc, a, pool)
        if pool is not None and partial is not a:
            _release(pool, partial)
    return acc


def pow_int(a: FuzzyNumber, n: int) -> FuzzyNumber:
    """Repeated interval multiplication; n = 0 gives the crisp 1.

    Each product is a ``mul``, whose kernel is chosen by sign class; the
    result equals the four-product result bit for bit, and for positive
    numbers it is the endpoint powers.
    """
    n = _exponent(n)
    _require_proper(a)
    return _frozen(_pow_int(a, n, None))


def _div(a: FuzzyNumber, b: FuzzyNumber, pool: list | None) -> FuzzyNumber:
    if b.lower.ndim == 1:
        lo, hi = b.lower[0], b.upper[0]
    else:
        # a stack is tested per row: the first row whose support holds zero
        # (row 0 when none does)
        k = np.argmax((b.lower[:, 0] <= 0.0) & (0.0 <= b.upper[:, 0]))
        lo, hi = b.lower[k, 0], b.upper[k, 0]
    if lo <= 0.0 <= hi:
        raise DivisorStraddlesZero(f"divisor support [{lo:.6g}, {hi:.6g}] contains zero")
    r1 = np.divide(1.0, b.lower, out=pool.pop() if pool else None)
    r2 = np.divide(1.0, b.upper, out=pool.pop() if pool else None)
    lower = np.minimum(r1, r2, out=pool.pop() if pool else None)
    reciprocal = _value(b.grid, lower, np.maximum(r1, r2, out=r2))
    product = _mul(a, reciprocal, pool)
    if pool is not None:
        pool.append(r1)
        _release(pool, reciprocal)
    return product


def div(a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Interval product of ``a`` with the order-normalized reciprocal of ``b``.

    The divisor's support must exclude zero.
    """
    _require_proper(a, b)
    _require_same_grid(a, b)
    return _frozen(_div(a, b, None))


def _gh_difference(a: FuzzyNumber, b: FuzzyNumber, pool: list | None) -> FuzzyNumber:
    x = np.subtract(a.lower, b.lower, out=pool.pop() if pool else None)
    y = np.subtract(a.upper, b.upper, out=pool.pop() if pool else None)
    lower = np.minimum(x, y, out=pool.pop() if pool else None)
    upper = np.maximum(x, y, out=y)
    if pool is not None:
        pool.append(x)
    return _value(a.grid, lower, upper, _nested(lower, upper))


def gh_difference(a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Generalized Hukuhara difference, defined level-wise as
    [min(a_lo - b_lo, a_hi - b_hi), max(a_lo - b_lo, a_hi - b_hi)].

    Always produces an ordered interval per level, but the family of
    intervals may lose nestedness across levels; the result then carries
    ``proper=False`` and is rejected by every other operation.
    """
    _require_proper(a, b)
    _require_same_grid(a, b)
    return _frozen(_gh_difference(a, b, None))


# -- metric and summaries ------------------------------------------------------


def hausdorff_distance(a: FuzzyNumber, b: FuzzyNumber) -> float:
    """Supremum over the grid of the larger endpoint deviation."""
    _require_proper(a, b)
    _require_same_grid(a, b)
    dev = np.maximum(np.abs(a.lower - b.lower), np.abs(a.upper - b.upper))
    return float(np.max(dev))


def defuzz_triplet(a: FuzzyNumber) -> tuple[float, float, float]:
    """Collapse to the triple (support.lo, core midpoint, support.hi)."""
    _require_proper(a)
    return a.support.lo, a.core.midpoint, a.support.hi
