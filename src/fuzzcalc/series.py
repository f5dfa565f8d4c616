"""Fuzzy power series: partial sums, convergence radius, ratio test, and
Taylor coefficient generation.

A series is a fuzzy center plus coefficients, either as an explicit list or
as a :class:`CoefficientRule` of the restricted shape

    a_n = (p(n) / q(n)) * (n!)^m * c^(sigma*n + t)

with crisp polynomials p, q, integer m and sigma, and a fuzzy base c.  That
shape is exactly what the symbolic radius mode knows how to cancel: the
shared growing powers collapse (c^n / c^(n-1) = c) while an n-independent
fuzzy factor stays behind as an honest fuzzy division c/c.

Two radius modes coexist because they are not equivalent.  The four-quotient
definition takes min/max over all endpoint pairings of |a_n / a_(n+1)|, and
for rules like n / c^(n-1) its cross pairings run off to 0 and infinity (the
probes then report NoLimit).  The symbolic mode cancels first and recovers
the base c exactly.  Both are exposed; neither is silently preferred.

Both numeric tests share one probe of a_n, a_(n+1) at n = n_probe/2 and
n_probe, which ``_probe`` alone picks from the series unless one is given;
the ratio-test limits L are those of |a_(n+1) / a_n| at alpha = 0, which
the four-quotient radius reports beside its per-level R.  A limit is
declared from its two probes: agreement within 1e-6 relative declares the
probed value, decay by a factor <= 0.75 per doubling declares 0, growth by
>= 1.5 declares infinity, anything else (a probe not finite) raises NoLimit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .core import (
    DEFAULT_GRID,
    MAX_EXPONENT,
    AlphaGrid,
    FuzzyNumber,
    _count,
    _fresh,
    _nested,
    _require_proper,
    _require_same_grid,
    div,
    make_triangular,
    pow_int,
    scalar_mul,
    singleton,
)
from .errors import DivisorStraddlesZero, ExprSyntaxError, InvalidArgument, NoLimit, NotSimplifiable
from .expr import Add, Env, Expr, GhSub, Mul, Scale, Var, _evaluate, _kept, _Parser, _plan, differentiate

_AGREE_RTOL = 1e-6
_DECAY_FACTOR = 0.75
_GROWTH_FACTOR = 1.5
_TINY = 1e-300
# The largest order ``taylor_series_of`` takes: 170! is the largest factorial
# a float holds, so 1 / k! is a float for every coefficient it scales.
MAX_ORDER = 170
# The most terms ``partial_sum`` takes: a sum of n terms runs 2n - 3 products,
# and the plan of its family of 3n - 2 nodes is kept for each n given, so
# the bound bounds both; it is above the 171 coefficients of order MAX_ORDER.
MAX_TERMS = 256
# The largest index ``CoefficientRule.value`` takes: past the float range a_n
# is exact, and n! alone has about n log2(n) bits, so the work grows faster
# than n (a_n of 1/n! on 11 levels, one 2-core Xeon: 0.3 ms at n = 1,000,
# 24 ms at 10,000, 150 ms at 20,000).  It is far above the a_0 to a_255 a
# partial sum reads at ``MAX_TERMS`` and the default probes' a_17.
MAX_INDEX = 10_000


@dataclass(frozen=True)
class CoefficientRule:
    """Closed-form coefficients a_n = (p(n)/q(n)) * (n!)^m * c^(sigma*n + t).

    ``poly_num`` and ``poly_den`` hold crisp polynomial coefficients in n
    (constant term first).  ``base`` is the fuzzy c (None for purely crisp
    rules); its exponent is ``base_coeff * n + base_shift``.
    """

    poly_num: tuple[float, ...] = (1.0,)
    poly_den: tuple[float, ...] = (1.0,)
    factorial_power: int = 0
    base: FuzzyNumber | None = None
    base_coeff: int = 0
    base_shift: int = 0

    def _crisp(self, n: int, number: type) -> float | Fraction:
        """p(n) / q(n) * (n!)^m in ``number`` (float, or Fraction: exact) arithmetic."""
        num = sum(number(c) * n**k for k, c in enumerate(self.poly_num))
        den = sum(number(c) * n**k for k, c in enumerate(self.poly_den))
        if den == 0:
            raise DivisorStraddlesZero(f"rule denominator vanishes at n={n}")
        crisp = num / den
        if self.factorial_power:
            crisp *= number(math.factorial(n)) ** self.factorial_power
        return crisp

    def value(self, n: int, grid: AlphaGrid = DEFAULT_GRID) -> FuzzyNumber:
        """a_n on ``grid``, which must be the base's, for n from 0 to
        ``MAX_INDEX``; past the float range the crisp factor is exact, so a_n
        folds to +-inf or 0, not NaN."""
        n = _count(n, "coefficient index", 0, MAX_INDEX)
        if self.base is not None:
            _require_same_grid(grid, self.base, what="rule base and coefficient")
        try:
            crisp, shift = self._crisp(n, float), 0
        except OverflowError:
            crisp = math.nan
        if not math.isfinite(crisp):
            exact = self._crisp(n, Fraction)
            shift = exact.numerator.bit_length() - exact.denominator.bit_length()
            crisp = float(exact / Fraction(2) ** shift)  # exact = crisp * 2**shift, 0.5 < |crisp| < 2
        if self.base is None:
            a = singleton(crisp, grid)
        else:
            a = scalar_mul(crisp, _int_power(self.base, self.base_coeff * n + self.base_shift))
        with np.errstate(over="ignore", under="ignore"):
            return _fresh(grid, np.ldexp(a.lower, shift), np.ldexp(a.upper, shift))  # shift 0: a's bits


def _int_power(c: FuzzyNumber, e: int) -> FuzzyNumber:
    """c^e for an integer e; a negative power is 1 / c^(-e)."""
    if e >= 0:
        return pow_int(c, e)
    return div(singleton(1.0, c.grid), pow_int(c, -e))


class FuzzyPowerSeries:
    """Center plus coefficients (explicit list or CoefficientRule)."""

    def __init__(self, center: FuzzyNumber, coeffs):
        _require_proper(center, what="series center")
        self.center = center
        if isinstance(coeffs, CoefficientRule):
            if coeffs.base is not None:
                _require_same_grid(center.grid, coeffs.base, what="rule base and series center")
                _require_proper(coeffs.base, what="rule base")
            self.coeffs = coeffs
        else:
            coeffs = tuple(coeffs)
            if not coeffs:
                raise InvalidArgument("explicit coefficient list must be nonempty")
            for c in coeffs:
                _require_same_grid(center.grid, c, what="coefficient and series center")
                _require_proper(c, what="coefficient")
            self.coeffs = coeffs

    def coefficient(self, n: int) -> FuzzyNumber:
        """a_n; a rule's ``value`` checks a rule's n, and an explicit list's
        n is checked here: at least 0, and held by the list."""
        if isinstance(self.coeffs, CoefficientRule):
            return self.coeffs.value(n, self.center.grid)
        n = _count(n, "coefficient index", 0)
        if n >= len(self.coeffs):
            raise InvalidArgument(
                f"no coefficient a_{n}: the series has {len(self.coeffs)} explicit coefficients")
        return self.coeffs[n]


# x gH- center, evaluated on its own so that an improper one has its own message
_OFFSET = GhSub(Var("point"), Var("center"))
_D = Var("d")


def _terms(d: Expr, n_terms: int) -> tuple:
    """The plan of a0 + a1*d + a2*(d*d) + ..., n_terms terms summed left to right."""
    total = Var("a0")
    for k, power in enumerate(accumulate([d] * (n_terms - 1), Mul), start=1):
        # one name object per k for every count's plan, which holds the names
        total = Add(total, Mul(Var(sys.intern(f"a{k}")), power))
    return _plan(total)


def partial_sum(s: FuzzyPowerSeries, x: FuzzyNumber, n_terms: int) -> FuzzyNumber:
    """Sum of the first ``n_terms`` terms a_k * (x gH- center)^k, at most
    ``MAX_TERMS``.  Only ``x`` is checked: the series checked the rest when
    built.  What it keeps is ``_D``'s memo, for the life of the process:
    the plan of each distinct ``n_terms``'s family, whose nodes are freed.
    The counts 1 to n together take about 320 * n^2 bytes at 32, rising to
    370 * n^2 at ``MAX_TERMS`` (321 KB and 24.2 MB on CPython 3.11), which
    is accepted."""
    n_terms = _count(n_terms, "number of terms", 1, MAX_TERMS)
    _require_proper(x)
    _require_same_grid(s.center.grid, x)
    (diff,) = _evaluate(_kept(_plan, _OFFSET), {"point": x, "center": s.center}, x.grid)
    _require_proper(diff, what="x gH- center")
    coeffs = {f"a{k}": s.coefficient(k) for k in range(n_terms)}
    return _evaluate(_kept(_terms, _D, n_terms), {**coeffs, "d": diff}, x.grid)[0]


# -- limit declaration -----------------------------------------------------------


def _declared_limits(q_half: np.ndarray, q_full: np.ndarray) -> np.ndarray:
    """Elementwise limit declaration from probes at n/2 and n."""
    if not (np.isfinite(q_half).all() and np.isfinite(q_full).all()):
        raise NoLimit("quotient probes are not finite")
    scale = np.maximum(np.maximum(np.abs(q_half), np.abs(q_full)), _TINY)
    agree = np.abs(q_full - q_half) <= _AGREE_RTOL * scale
    decay = q_full <= _DECAY_FACTOR * q_half
    growth = q_full >= _GROWTH_FACTOR * q_half
    out = np.where(agree, q_full, np.where(decay, 0.0, np.where(growth, np.inf, np.nan)))
    if np.isnan(out).any():
        raise NoLimit(
            "quotient probes neither agree nor decay/grow decisively; "
            "no limit can be declared"
        )
    return out


@dataclass(frozen=True)
class RadiusResult:
    """Fuzzy radius of convergence plus the ratio-test limit values."""

    R: FuzzyNumber
    mode: str  # "four-quotient" | "symbolic-ratio"
    L_lower: float
    L_upper: float

    @property
    def is_infinite(self) -> bool:
        return bool(np.isinf(self.R.lower).all() and np.isinf(self.R.upper).all())


def _forward_quartet(n: int, a: FuzzyNumber, b: FuzzyNumber) -> np.ndarray:
    """|a_(n+1) / a_n| for the four pairings at the alpha=0 endpoints."""
    a_lo, a_hi = float(a.lower[0]), float(a.upper[0])
    b_lo, b_hi = float(b.lower[0]), float(b.upper[0])
    if min(abs(a_lo), abs(a_hi)) < _TINY:
        raise NoLimit(f"coefficient {n} has a zero support endpoint")
    return np.abs(np.array([b_lo / a_lo, b_lo / a_hi, b_hi / a_lo, b_hi / a_hi]))


def _probe(s: FuzzyPowerSeries, n_probe: int | None):
    """(n, a_n, a_(n+1)) at n_probe // 2 and n_probe, and the declared ratio-test limits.

    The one owner of the default n_probe: 16 for a rule; for m explicit
    coefficients, the largest multiple of 8 up to m - 2, else the largest even
    number, so that n and n/2 fall at one phase of the sin/cos derivative cycle.
    """
    if n_probe is None:
        last = 16 if isinstance(s.coeffs, CoefficientRule) else len(s.coeffs) - 2
        if last < 2:
            raise InvalidArgument(f"too short to probe: the series has {len(s.coeffs)} explicit coefficients")
        n_probe = last // 8 * 8 or last // 2 * 2
    n_probe = _count(n_probe, "n_probe", 2)
    half, full = ((n, s.coefficient(n), s.coefficient(n + 1)) for n in (n_probe // 2, n_probe))
    limits = _declared_limits(_forward_quartet(*half), _forward_quartet(*full))
    return half, full, float(limits.min()), float(limits.max())


def _backward_quartet(n: int, a: FuzzyNumber, b: FuzzyNumber) -> np.ndarray:
    """|a_n / a_(n+1)| for the four endpoint pairings, per level (4 x L)."""
    if np.any(np.abs(b.lower) < _TINY) or np.any(np.abs(b.upper) < _TINY):
        raise NoLimit(f"coefficient {n + 1} has a zero envelope endpoint")
    return np.abs(
        np.stack([a.lower / b.lower, a.lower / b.upper, a.upper / b.lower, a.upper / b.upper])
    )


def radius_four_quotient(s: FuzzyPowerSeries, n_probe: int | None = None) -> RadiusResult:
    """Radius from the four-pairing endpoint quotients.

    The four limits are estimated from probes at n_probe and n_probe/2; per
    level the radius envelope is their min (lower) and max (upper).  If all
    are infinite it is the marker ``singleton(inf)``; if only some are, NoLimit.
    Given no n_probe, the series' own probe index is used (see ``_probe``).
    """
    half, full, L_lo, L_hi = _probe(s, n_probe)
    limits = _declared_limits(_backward_quartet(*half), _backward_quartet(*full))  # 4 x L
    lower = limits.min(axis=0)
    upper = limits.max(axis=0)
    grid = s.center.grid
    if np.isinf(limits).all():
        R = singleton(np.inf, grid)
    elif np.isinf(upper).any():
        raise NoLimit("quotient limits are infinite at some levels or pairings but not all")
    else:
        R = _fresh(grid, lower, upper, _nested(lower, upper))
    return RadiusResult(R=R, mode="four-quotient", L_lower=L_lo, L_upper=L_hi)


def radius_symbolic_ratio(s: FuzzyPowerSeries) -> RadiusResult:
    """Radius by structural cancellation of the coefficient rule.

    The polynomial ratio p(n)q(n+1)/(q(n)p(n+1)) tends to 1; a factorial
    factor drives the ratio to infinity (1/n! rules) or zero; the fuzzy
    base contributes c^(-sigma) with the n-dependent powers cancelled, while
    an n-independent fuzzy factor (sigma = 0) survives as the honest fuzzy
    division c/c.  Reported L values are the alpha=0 endpoints of the
    simplified forward ratio.
    """
    if not isinstance(s.coeffs, CoefficientRule):
        raise NotSimplifiable("explicit coefficient lists carry no structure to cancel")
    rule = s.coeffs
    if not any(c != 0.0 for c in rule.poly_num):
        raise NotSimplifiable("rule numerator is identically zero")
    grid = s.center.grid

    if rule.factorial_power < 0:
        return RadiusResult(singleton(np.inf, grid), "symbolic-ratio", 0.0, 0.0)
    if rule.factorial_power > 0:
        return RadiusResult(singleton(0.0, grid), "symbolic-ratio", np.inf, np.inf)

    sigma = rule.base_coeff
    if rule.base is None:
        R = singleton(1.0, grid)
        fwd = singleton(1.0, grid)
    elif sigma == 0:
        R = div(rule.base, rule.base)
        fwd = R
    else:
        R, fwd = _int_power(rule.base, -sigma), _int_power(rule.base, sigma)
    ends = (abs(fwd.lower[0]), abs(fwd.upper[0]))
    return RadiusResult(R, "symbolic-ratio", min(ends), max(ends))


@dataclass(frozen=True)
class RatioTestResult:
    converges: bool
    L_lower: float
    L_upper: float

    @property
    def radius_is_infinite(self) -> bool:
        return self.L_upper == 0.0


def ratio_test(s: FuzzyPowerSeries, n_probe: int | None = None) -> RatioTestResult:
    """Forward-quotient convergence check at the support endpoints.

    Declares the four limits of |a_(n+1)/a_n| and reports convergence when
    both the min and max stay below 1.  Given no n_probe, the series' own
    probe index is used (see ``_probe``).
    """
    _, _, L_lo, L_hi = _probe(s, n_probe)
    return RatioTestResult(converges=bool(L_lo < 1.0 and L_hi < 1.0), L_lower=L_lo, L_upper=L_hi)


def convergence_interval(
    center: FuzzyNumber, R: FuzzyNumber
) -> tuple[FuzzyNumber, FuzzyNumber]:
    """Fuzzy bounds (B_lo, B_hi) such that the series converges for
    B_lo < x < B_hi level-wise: B_lo = center - R, the interval subtraction
    [c_lo - R_hi, c_hi - R_lo], and B_hi = center -gH (-R), the inner sum,
    per level the min and max of c_hi + R_lo and c_lo + R_hi.  Each is
    improper where its cuts do not nest.  With R = 0 both are the center.
    R's support must be finite and nonnegative (InvalidArgument).
    """
    _require_proper(center, what="series center")
    _require_proper(R, what="radius")
    _require_same_grid(center.grid, R, what="series center and radius")
    if R.lower[0] < 0:
        raise InvalidArgument("radius must be nonnegative")
    if not (math.isfinite(R.lower[0]) and math.isfinite(R.upper[0])):
        raise InvalidArgument("radius must be finite")
    lo_lower, lo_upper = center.lower - R.upper, center.upper - R.lower
    a, b = center.upper + R.lower, center.lower + R.upper
    hi_lower, hi_upper = np.minimum(a, b), np.maximum(a, b)  # both keep b on a tie of 0.0 and -0.0
    return (_fresh(center.grid, lo_lower, lo_upper, _nested(lo_lower, lo_upper)),
            _fresh(center.grid, hi_lower, hi_upper, _nested(hi_lower, hi_upper)))


def taylor_series_of(
    f: Expr,
    var: str,
    x0: FuzzyNumber,
    order: int,
    env: Env | None = None,
) -> FuzzyPowerSeries:
    """Series with coefficients f^(k)(x0) / k! for k = 0..order, centered at
    x0; derivatives are symbolic, evaluation is level-wise.  The scaled
    members f^(k) / k! are one root family, whose plan ``f`` keeps for each
    variable and order, so a repeated call builds and plans nothing; it is
    evaluated in one walk over its nodes, and each member, which may be an
    improper gH-difference, is checked as scaled.  ``order`` is at most
    ``MAX_ORDER``."""
    order = _count(order, "order", 0, MAX_ORDER)
    at_x0 = Env(env.bindings if env is not None else {}, x0.grid).with_binding(var, x0)
    return FuzzyPowerSeries(x0, _evaluate(_kept(_coefficients, f, var, order), at_x0.bindings, at_x0.grid))


def _coefficients(f: Expr, var: str, order: int) -> tuple:
    """The plan of f, f', ..., f^(order) by ``var``, each scaled by 1/k!."""
    tower = [f]
    for _ in range(order):
        tower.append(differentiate(tower[-1], var))
    return _plan(*(Scale(g, 1.0 / math.factorial(k)) for k, g in enumerate(tower)))


# -- coefficient-rule text format ---------------------------------------------------


class _RuleParser(_Parser):
    """Coefficient-rule text on the expression tokenizer, for the grammar

        rule     := factor (('*'|'/') factor)*
        factor   := number ('^' uint)? | 'n' '!' | 'n' ('^' uint)?
                  | 'T(' num ',' num ',' num ')' ('^' exponent)?
        exponent := uint | '(' ['-'] 'n' (('+'|'-') uint)? ')'

    A factor after '/' enters the rule inverted.  At most one triplet (the
    fuzzy base c) may appear; a bare triplet is the constant factor c^1.
    Literals fold into the crisp coefficients through :meth:`_Parser.number`,
    so a literal, power or product that is not finite is a parse error, and
    so is a literal that makes the coefficient below the line zero.  Each
    side's degree in n is a power's exponent, at most ``MAX_EXPONENT``.
    """

    def rule(self) -> CoefficientRule:
        # the crisp coefficient and the degree in n, above (1) and below (-1) the line
        coeff = {1: 1.0, -1: 1.0}
        degree = {1: 0, -1: 0}
        factorial = sigma = shift = 0
        base = None
        side = 1
        while True:
            kind, val, pos = self.peek()
            if kind == "num":
                coeff[side] = self.number(coeff[side], powered=True)
                if side < 0 and coeff[side] == 0.0:
                    raise ExprSyntaxError("zero below the line in rule", pos)
            else:
                self.take()
                if kind == "ident" and val == "n":
                    if self.at_op("!"):
                        self.take()
                        factorial += side
                    else:
                        degree[side] += self.power_suffix()
                elif kind == "ident" and val == "T" and self.at_op("("):
                    spec = self.triplet()
                    if base is not None:
                        raise NotSimplifiable("rule supports a single fuzzy base factor")
                    base = make_triangular(spec, self.grid)
                    sigma, shift = self.base_exponent()
                    sigma, shift = sigma * side, shift * side
                else:
                    raise ExprSyntaxError(f"unexpected token {val!r} in rule", pos)
            if not self.at_op("*", "/"):
                break
            side = 1 if self.take()[1] == "*" else -1
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected trailing input {val!r} in rule", pos)
        return CoefficientRule(
            poly_num=(0.0,) * _count(degree[1], "exponent", 0, MAX_EXPONENT) + (coeff[1],),
            poly_den=(0.0,) * _count(degree[-1], "exponent", 0, MAX_EXPONENT) + (coeff[-1],),
            factorial_power=factorial,
            base=base,
            base_coeff=sigma,
            base_shift=shift,
        )

    def base_exponent(self) -> tuple[int, int]:
        """(sigma, t) of the base power c^(sigma*n + t)."""
        if not self.at_op("^"):
            return 0, 1
        self.take()
        if self.peek()[0] == "num":
            return 0, self.uint()
        self.expect_op("(")
        sign = 1
        if self.at_op("-"):
            self.take()
            sign = -1
        kind, val, pos = self.take()
        if kind != "ident" or val != "n":
            raise ExprSyntaxError("'n' expected in rule exponent", pos)
        shift = 0
        if self.at_op("+", "-"):
            shift = self.uint() if self.take()[1] == "+" else -self.uint()
        self.expect_op(")")
        return sign, shift


def parse_coeff_rule(text: str, grid: AlphaGrid = DEFAULT_GRID) -> CoefficientRule:
    """Parse rule text like ``n / T(4,5,6)^(n-1)`` or ``1/n!`` or ``T(1,2,3)``
    (grammar in :class:`_RuleParser`); the base is sampled on ``grid``."""
    return _RuleParser(text, grid).rule()
