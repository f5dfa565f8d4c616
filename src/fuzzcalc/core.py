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
other operation rejects them.

Two guards check the two value invariants for the whole package, and no
other code raises their errors: ``_require_proper`` (each value's cuts
nest; else :class:`ImproperOperand`, "<what> is an improper (non-nested)
fuzzy number") and ``_require_same_grid`` (each value lies on the one
grid; else :class:`GridMismatch`, "<what> live on different alpha grids;
resample first").  ``what`` names the refused argument; the defaults,
"operand" and "operands", are the public operations'.

Operation results wrap the arrays they have just computed without a copy
(``_value``); only :class:`FuzzyNumber` called directly copies and checks,
and only ``make_triangular`` checks a (d, e, f) triple.

Envelopes may also be stacks: (rows, levels) arrays holding one fuzzy
number per row, which the operations broadcast against plain envelopes.
Stacks are internal: only :mod:`fuzzcalc.calculus` builds them, with
``_fresh``, to evaluate many points at once, and every public result is
one fuzzy number.  The evaluation tape returns every root in its
bindings' shape: a root that reads no stack is spread to it (``_spread``,
read-only views of its one row).  Each row's result equals the one-row
result bit for bit.  Where an operation decides, it decides per row, and
reads a plain value as one row: ``div`` raises when some row's divisor
support holds zero, naming the first such row; ``_nested`` checks each
row at its own scale, and a stack is proper only if every row is;
``_sign_class`` reads the stack flat, so a stack whose rows differ in
sign takes ``mul``'s four products.

Each operation's arithmetic is one private kernel (``_add``, ``_mul``, ...,
and ``_exp``, ``_sin``, ``_cos``: the ranges over each cut that evaluation
runs), which runs no guard and marks nothing read-only (``_value``).  The
public name runs the guards once, then the kernel, then marks the result
read-only (``_frozen``).  The evaluation tape runs the kernels on inputs
its callers checked, and seals every value it returns, pooled or not.

A kernel takes a buffer pool or None: a plain list of envelope arrays that
``ivp.solve`` creates and drops within one call.  Given one, a kernel
writes its result and temporaries into arrays popped from it (numpy
allocates when it is empty) and gives its temporaries back; the ufuncs are
the same, so each result is the same bit for bit.  No kernel returns an
operand's arrays (``u^1`` is a copy), and every value that may be held
outside the tape (one it returns, a binding, a constant) is sealed, that
is, read-only; so ``_release`` takes back a dead value's arrays unless
sealed, and a pool gets back only values that die inside the tape.  Only
this module takes pool arrays, wraps arrays as values and seals them;
only the tape calls ``_frozen`` and ``_release`` from outside it, and
the other modules route values between the kernels.
"""

from __future__ import annotations

import math
import threading
import weakref
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

_GRIDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # every live grid, by its levels' bytes
_GRIDS_LOCK = threading.Lock()


def _count(n, what: str, lo: int, hi: int | None = None) -> int:
    """``n`` as an int: the one check of every count the package takes, an
    integer from ``lo`` to ``hi`` (with no upper end when ``hi`` is None).
    The range is checked before integrality, so a NaN, an infinity or a
    huge int is refused before ``int`` reads it."""
    if not (lo <= n and (hi is None or n <= hi) and n % 1 == 0):
        span = f"of at least {lo}" if hi is None else f"from {lo} to {hi}"
        raise InvalidArgument(f"{what} must be an integer {span}, got {n!r}")
    return int(n)


class AlphaGrid:
    """Strictly increasing alpha levels from 0 to 1 inclusive, interned under
    a lock: equal levels (``-0.0`` read as 0.0) are one object, so grids
    compare and hash by identity, and no two threads build two equal grids."""

    __slots__ = ("levels", "__weakref__")

    def __new__(cls, levels: Sequence[float]):
        arr = np.asarray(levels, dtype=float) + 0.0  # a fresh array, with no -0.0
        if arr.ndim != 1 or arr.size < 2:
            raise InvalidArgument("alpha grid needs at least the levels 0 and 1")
        if arr[0] != 0.0 or arr[-1] != 1.0:
            raise InvalidArgument("alpha grid must start at 0 and end at 1")
        if not np.all(np.diff(arr) > 0.0):
            raise InvalidArgument("alpha levels must be strictly increasing")
        key = arr.tobytes()
        with _GRIDS_LOCK:
            grid = _GRIDS.get(key)
            if grid is None:
                arr.flags.writeable = False
                grid = _GRIDS[key] = object.__new__(cls)
                grid.levels = arr
        return grid

    @classmethod
    def uniform(cls, resolution: int = DEFAULT_RESOLUTION) -> "AlphaGrid":
        return cls(np.linspace(0.0, 1.0, _count(resolution, "grid resolution", 2, MAX_RESOLUTION)))

    def __len__(self) -> int:
        return int(self.levels.size)

    def __reduce__(self):
        # pickles and deep copies come back through the constructor: checked, and interned
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
            self.grid is other.grid
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


def _spread(v: FuzzyNumber, shape: tuple | None) -> FuzzyNumber:
    """``v`` in ``shape`` (None: its own): itself, or read-only views repeating its one row."""
    if shape is None or v.lower.shape == shape:
        return v
    return _value(v.grid, np.broadcast_to(v.lower, shape), np.broadcast_to(v.upper, shape), v.proper)


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


def _require_proper(*values: FuzzyNumber, what: str = "operand") -> None:
    """The one check that each value is proper (its cuts nest); the first
    that is not is refused, named by ``what``."""
    for v in values:
        if not v.proper:
            raise ImproperOperand(f"{what} is an improper (non-nested) fuzzy number")


def _require_same_grid(grid: AlphaGrid, *values: FuzzyNumber, what: str = "operands") -> None:
    """The one check that each value lies on ``grid``, the same object, since
    grids are interned; the first that does not is refused, ``what`` naming
    the values."""
    for v in values:
        if v.grid is not grid:
            raise GridMismatch(f"{what} live on different alpha grids; resample first")


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
    flat = pool.pop() if pool else np.empty(len(grid))
    flat.fill(float(value))
    return _value(grid, flat, flat)


def singleton(value: float, grid: AlphaGrid = DEFAULT_GRID) -> FuzzyNumber:
    """Crisp real embedded as a fuzzy number (both envelopes constant)."""
    return _frozen(_singleton(value, grid, None))


def resample(a: FuzzyNumber, grid: AlphaGrid) -> FuzzyNumber:
    """Move ``a`` onto another grid by linear interpolation of its envelopes.

    This is the only sanctioned way to mix grids, that is, grids of
    different levels; arithmetic never resamples implicitly.
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
    """Give the envelopes of a dead value back to ``pool`` unless they are
    read-only: a sealed value may be held outside the pool's owner, and a
    writable one is a kernel's result that no other value shares.  A
    singleton's one array goes back once."""
    if v.lower.flags.writeable:
        pool.append(v.lower)
        if v.upper is not v.lower:
            pool.append(v.upper)


def _add(a: FuzzyNumber, b: FuzzyNumber, pool: list | None) -> FuzzyNumber:
    return _value(a.grid, np.add(a.lower, b.lower, out=pool.pop() if pool else None),
                  np.add(a.upper, b.upper, out=pool.pop() if pool else None))


def add(a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Level-wise endpoint sums."""
    _require_proper(a, b)
    _require_same_grid(a.grid, b)
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
    _require_same_grid(a.grid, b)
    return _frozen(_mul(a, b, None))


def _pow_int(a: FuzzyNumber, n: int, pool: list | None) -> FuzzyNumber:
    if n == 0:
        return _singleton(1.0, a.grid, pool)
    if n == 1:  # a copy, bit for bit: no result shares an operand's arrays
        return _value(a.grid, np.positive(a.lower, out=pool.pop() if pool else None),
                      np.positive(a.upper, out=pool.pop() if pool else None))
    acc = _mul(a, a, pool)
    for _ in range(n - 2):
        partial, acc = acc, _mul(acc, a, pool)
        if pool is not None:
            _release(pool, partial)
    return acc


def pow_int(a: FuzzyNumber, n: int) -> FuzzyNumber:
    """Repeated interval multiplication; n = 0 gives the crisp 1.

    Each product is a ``mul``, whose kernel is chosen by sign class; the
    result equals the four-product result bit for bit, and for positive
    numbers it is the endpoint powers.
    """
    n = _count(n, "exponent", 0, MAX_EXPONENT)
    _require_proper(a)
    return _frozen(_pow_int(a, n, None))


def _div(a: FuzzyNumber, b: FuzzyNumber, pool: list | None) -> FuzzyNumber:
    # the first row whose support holds zero (row 0 if none), a plain value being one row
    lo, hi = b.lower[..., 0].reshape(-1), b.upper[..., 0].reshape(-1)
    k = np.argmax((lo <= 0.0) & (0.0 <= hi))
    if lo[k] <= 0.0 <= hi[k]:
        raise DivisorStraddlesZero(f"divisor support [{lo[k]:.6g}, {hi[k]:.6g}] contains zero")
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
    _require_same_grid(a.grid, b)
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
    _require_same_grid(a.grid, b)
    return _frozen(_gh_difference(a, b, None))


# -- function ranges -------------------------------------------------------------

_HALF_PI = 0.5 * math.pi
_TWO_PI = 2.0 * math.pi


def _sin_range(lo: np.ndarray, hi: np.ndarray, pool: list | None) -> tuple[np.ndarray, np.ndarray]:
    """The range of sin over each [lo, hi]: the endpoint hull, widened to -1
    or +1 where a critical point falls inside the interval."""
    # sin attains +1 at pi/2 + 2k*pi and -1 at -pi/2 + 2k*pi; c + 2k*pi lies
    # in [lo, hi] for some integer k when floor((hi - c)/2pi) >= (lo - c)/2pi.
    # An integer is >= b exactly when it is >= ceil(b), for every float b
    # (+-0, +-inf and NaN included), so b is not rounded up first.
    a = np.subtract(hi, _HALF_PI, out=pool.pop() if pool else None)
    b = np.subtract(lo, _HALF_PI, out=pool.pop() if pool else None)
    has_max = np.floor(np.divide(a, _TWO_PI, out=a), out=a) >= np.divide(b, _TWO_PI, out=b)
    np.add(hi, _HALF_PI, out=a)
    np.add(lo, _HALF_PI, out=b)
    has_min = np.floor(np.divide(a, _TWO_PI, out=a), out=a) >= np.divide(b, _TWO_PI, out=b)
    s_lo, s_hi = np.sin(lo, out=a), np.sin(hi, out=b)
    out_hi = np.maximum(s_lo, s_hi, out=pool.pop() if pool else None)
    out_lo = np.minimum(s_lo, s_hi, out=s_lo)
    np.copyto(out_lo, -1.0, where=has_min)
    np.copyto(out_hi, 1.0, where=has_max)
    if pool is not None:
        pool.append(s_hi)
    return out_lo, out_hi


def _exp(x: FuzzyNumber, grid: AlphaGrid, pool: list | None) -> FuzzyNumber:
    return _value(grid, np.exp(x.lower, out=pool.pop() if pool else None),
                  np.exp(x.upper, out=pool.pop() if pool else None))


def _sin(x: FuzzyNumber, grid: AlphaGrid, pool: list | None) -> FuzzyNumber:
    return _value(grid, *_sin_range(x.lower, x.upper, pool))


def _cos(x: FuzzyNumber, grid: AlphaGrid, pool: list | None) -> FuzzyNumber:
    # cos(x) = sin(x + pi/2)
    lo = np.add(x.lower, _HALF_PI, out=pool.pop() if pool else None)
    hi = np.add(x.upper, _HALF_PI, out=pool.pop() if pool else None)
    out = _value(grid, *_sin_range(lo, hi, pool))
    if pool is not None:
        pool.extend((lo, hi))
    return out


# -- metric and summaries ------------------------------------------------------


def hausdorff_distance(a: FuzzyNumber, b: FuzzyNumber) -> float:
    """Supremum over the grid of the larger endpoint deviation."""
    _require_proper(a, b)
    _require_same_grid(a.grid, b)
    dev = np.maximum(np.abs(a.lower - b.lower), np.abs(a.upper - b.upper))
    return float(np.max(dev))


def defuzz_triplet(a: FuzzyNumber) -> tuple[float, float, float]:
    """Collapse to the triple (support.lo, core midpoint, support.hi)."""
    _require_proper(a)
    return a.support.lo, a.core.midpoint, a.support.hi
