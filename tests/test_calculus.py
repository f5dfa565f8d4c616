"""Numerical mH-derivative against closed forms and the symbolic route."""

import math

import numpy as np
import pytest

import fuzzcalc.calculus
from fuzzcalc.calculus import continuity_probe, mh_derivative
from fuzzcalc._counters import counting
from fuzzcalc.core import (
    AlphaGrid,
    FuzzyNumber,
    _fresh,
    _nested,
    add,
    gh_difference,
    hausdorff_distance,
    make_triangular,
    scalar_mul,
    singleton,
)
from fuzzcalc.errors import DivisorStraddlesZero, ImproperOperand, NotDifferentiable
from fuzzcalc.expr import Env, evaluate, differentiate, parse_expr

GRID = AlphaGrid.uniform()
TOL = 1e-7  # default schedule tolerance


def tri(d, e, f, grid=GRID):
    return make_triangular((d, e, f), grid)


def test_square_matches_closed_form():
    est = mh_derivative(parse_expr("x^2"), "x", tri(1, 2, 3))
    al = GRID.levels
    assert est.gap <= TOL
    assert np.allclose(est.value.lower, 2 * (1 + al), atol=1e-6)
    assert np.allclose(est.value.upper, 2 * (3 - al), atol=1e-6)
    assert hausdorff_distance(est.value, est.left_value) <= est.gap


def test_cubic_monomial_matches_closed_form():
    # derivative of 3*x^3 is 9*x^2: envelopes [9(1+a)^2, 9(3-a)^2]
    est = mh_derivative(parse_expr("3 * x^3"), "x", tri(1, 2, 3))
    al = GRID.levels
    assert np.allclose(est.value.lower, 9 * (1 + al) ** 2, atol=1e-5)
    assert np.allclose(est.value.upper, 9 * (3 - al) ** 2, atol=1e-5)


def test_crisp_constant_has_zero_derivative():
    est = mh_derivative(parse_expr("7"), "x", tri(0, 1, 2))
    assert hausdorff_distance(est.value, singleton(0.0, GRID)) <= TOL


def test_linearity():
    f = parse_expr("2*x^2 + 3*x^3")
    x0 = tri(1, 2, 3)
    combined = mh_derivative(f, "x", x0).value
    d_sq = mh_derivative(parse_expr("x^2"), "x", x0).value
    d_cu = mh_derivative(parse_expr("x^3"), "x", x0).value
    expect = add(scalar_mul(2.0, d_sq), scalar_mul(3.0, d_cu))
    assert hausdorff_distance(combined, expect) <= 10 * TOL


@pytest.mark.parametrize(
    "text,x0,crisp_derivative",
    [
        ("x^2", (1, 2, 3), lambda x: 2 * x),
        ("3*x^3", (1, 2, 3), lambda x: 9 * x**2),
        ("exp(x)", (-1, 0, 1), math.exp),
        ("sin(x)", (0.5, 1.0, 1.5), math.cos),
        ("cos(x)", (0.5, 1.0, 1.5), lambda x: -math.sin(x)),
    ],
)
def test_core_consistency_and_gap(text, x0, crisp_derivative):
    est = mh_derivative(parse_expr(text), "x", tri(*x0))
    assert est.gap <= TOL
    mid = est.value.core.midpoint
    assert mid == pytest.approx(crisp_derivative(x0[1]), abs=10 * TOL)


@pytest.mark.parametrize(
    "text,x0",
    [
        ("x^2", (1, 2, 3)),
        ("3*x^3", (0.5, 1, 2)),
        ("exp(x)", (0.2, 0.5, 1.1)),
        ("sin(x)", (0.4, 0.8, 1.2)),
        ("cos(x)", (0.4, 0.8, 1.2)),
    ],
)
def test_symbolic_agreement(text, x0):
    f = parse_expr(text)
    point = tri(*x0)
    numeric = mh_derivative(f, "x", point).value
    symbolic = evaluate(differentiate(f, "x"), Env({"x": point}))
    assert hausdorff_distance(numeric, symbolic) <= 10 * TOL


def test_not_differentiable_when_budget_too_small():
    # no estimate settles to 1e-300 within the fixed 40-step schedule
    with pytest.raises(NotDifferentiable):
        mh_derivative(parse_expr("exp(x)"), "x", tri(0, 1, 2), tol=1e-300)


def test_tol_must_be_positive_and_finite():
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mh_derivative(parse_expr("x^2"), "x", tri(1, 2, 3), tol=tol)


def test_estimate_uses_env_for_other_bindings():
    est = mh_derivative(
        parse_expr("a * x^2"),
        "x",
        tri(1, 2, 3),
        env=Env({"a": singleton(3.0, GRID)}),
    )
    assert est.value.core.midpoint == pytest.approx(12.0, abs=1e-6)


# -- continuity probe ------------------------------------------------------------


def test_probe_identity_accepts_eps():
    got = continuity_probe(
        parse_expr("x"), "x", tri(0, 1, 2), eps=0.1, trial_deltas=[0.1, 0.05, 0.01]
    )
    assert got == 0.1


def test_probe_square_obeys_lipschitz_scale():
    # |(x+s)^2 - x^2| <= (2*sup|x| + |s|)*|s|; with sup|x| = 3 and eps = 0.1
    # the acceptable shift scale is roughly eps/6
    deltas = [0.1, 0.05, 0.02, 0.017, 0.01, 0.005]
    got = continuity_probe(parse_expr("x^2"), "x", tri(1, 2, 3), eps=0.1,
                           trial_deltas=deltas)
    assert got is not None
    lipschitz = 2 * 3 + 0.02  # slope bound near the support
    assert got <= 0.1 / (2 * 3) * 1.3  # same order as eps / (2 sup|x|)
    assert got * lipschitz * 0.95 < 0.1  # the accepted samples really fit


def test_probe_exponential_finds_some_delta():
    got = continuity_probe(parse_expr("exp(x)"), "x", tri(-1, 0, 1), eps=0.01)
    assert got is not None and got > 0


def test_probe_failure_is_none():
    # every trial sees a jump bigger than eps
    got = continuity_probe(
        parse_expr("1000 * x"), "x", tri(0, 1, 2), eps=1e-6, trial_deltas=[1.0, 0.5]
    )
    assert got is None


# -- blocks: one stacked evaluation, errors in point-by-point order -----------------

# 0*(1/x) adds nothing, but raises once a point's support holds zero
GUARDED = "x + 0*(1/x)"


def test_block_is_one_evaluation(count_calls):
    calls = count_calls(fuzzcalc.calculus, "evaluate")
    f, x0 = parse_expr("sin(x)*exp(x)"), tri(0.6, 0.8, 1.0)
    mh_derivative(f, "x", x0)
    assert calls[0] == 1
    continuity_probe(f, "x", x0)
    assert calls[0] == 2


def test_estimate_converges_before_the_step_whose_points_straddle_zero(count_calls):
    # h0 / 4 shifts x0 - h across zero, but the estimate settles at h0 / 2;
    # the block raises, and the redo evaluates x0 and two steps' points
    calls = count_calls(fuzzcalc.calculus, "evaluate")
    est = mh_derivative(parse_expr(GUARDED), "x", tri(0.02, 0.03, 0.05))
    assert est.h_final == 0.0646875
    assert hausdorff_distance(est.value, singleton(1.0, GRID)) <= 1e-15
    assert calls[0] == 1 + 5


def test_estimate_raises_the_first_point_by_point_error():
    with pytest.raises(DivisorStraddlesZero) as err:
        mh_derivative(parse_expr(GUARDED), "x", tri(0.005, 0.03, 0.2))
    assert str(err.value) == "divisor support [-0.132812, 0.0621875] contains zero"


def test_probe_accepts_before_the_shift_whose_point_straddles_zero():
    got = continuity_probe(parse_expr(GUARDED), "x", tri(0.02, 0.03, 0.05), eps=1.0)
    assert got == 1.0


def test_probe_raises_the_first_point_by_point_error():
    # x0 - 0.75 is the first shift tried whose support holds zero; x0 - 0.95
    # holds it too, later
    with pytest.raises(DivisorStraddlesZero) as err:
        continuity_probe(parse_expr("1/x"), "x", tri(0.6, 0.8, 1.0), eps=10)
    assert str(err.value) == "divisor support [-0.15, 0.25] contains zero"


def test_not_differentiable_reports_the_last_gap():
    with pytest.raises(NotDifferentiable, match="last gap 0.5,"):
        mh_derivative(parse_expr("exp(x)"), "x", tri(6, 7, 8))


def test_not_differentiable_names_the_test_that_failed():
    # the gap closes, but a derivative near 2.9e8 keeps the step above tol
    with pytest.raises(NotDifferentiable) as err:
        mh_derivative(parse_expr("x^40"), "x", singleton(1.5, GRID))
    assert ": the step stayed above tol (last gap 0, last step " in str(err.value)
    with pytest.raises(NotDifferentiable, match="the gap and the step stayed above tol"):
        mh_derivative(parse_expr("exp(x)"), "x", tri(6, 7, 8))


def test_probe_checks_only_the_values_it_reaches():
    # x^2 gH- T(0,1,1.5) loses nestedness at some shifts.  At T(-1.6,-1.5,-1.4)
    # only shifts the probe never tries do, so it answers; at T(0.5,1,1.2) the
    # first shift does, so the probe raises as hausdorff_distance does
    f = parse_expr("x^2 - T(0,1,1.5)")
    assert continuity_probe(f, "x", tri(-1.6, -1.5, -1.4), eps=1.0) == 0.1
    with pytest.raises(ImproperOperand):
        continuity_probe(f, "x", tri(0.5, 1, 1.2), eps=10)


def test_probe_rejects_an_improper_point():
    x0 = gh_difference(tri(0, 1, 1), tri(0, 0.5, 2))
    assert not x0.proper
    for eps in (1e-3, 10):
        with pytest.raises(ImproperOperand, match=r"^binding for 'x' is an improper \(non-nested\) fuzzy number$"):
            continuity_probe(parse_expr("x"), "x", x0, eps=eps)


def test_underflow_leaves_a_block_whole_unless_the_caller_raises_on_it(count_calls):
    # exp underflows to zero on this support: numpy ignores that by default,
    # and so does a block; a caller who raises on it gets the error at f(x0)
    calls = count_calls(fuzzcalc.calculus, "evaluate")
    f, x0 = parse_expr("exp(x)"), tri(-760, -750, -740)
    est = mh_derivative(f, "x", x0)
    assert est.h_final == 46.9375
    assert continuity_probe(f, "x", x0) == 1.0
    assert calls[0] == 2
    with np.errstate(under="raise"):
        for estimate in (mh_derivative, continuity_probe):
            with pytest.raises(FloatingPointError, match="underflow encountered in exp"):
                estimate(f, "x", x0)


# -- the stacked paths against a point-by-point loop --------------------------------


def _shifted(x0, offset):
    return FuzzyNumber(x0.grid, x0.lower + offset, x0.upper + offset)


def _largest_deviation(a, b):
    # per envelope, then the larger of the two: NaN only when the lower one is
    lo, hi = np.max(np.abs(a - b), axis=-1)
    return hi if hi > lo else lo


def _loop_estimate(f, x0, tol):
    """mh_derivative one point and one step at a time: the reference the
    stacked blocks must match bit for bit.  Arrays are (side, envelope,
    level), side 0 the forward quotient and side 1 the backward one."""
    def at(offset):
        v = evaluate(f, Env({"x": _shifted(x0, offset)}, x0.grid))
        return v.lower, v.upper

    c_lo, c_hi = at(0.0)  # x0 + 0.0: a -0.0 in x0 becomes +0.0
    h, before = 0.125 * (1.0 + abs(x0.support.midpoint)), None
    for _ in range(40):
        (f_lo, f_hi), (b_lo, b_hi) = at(h), at(-h)
        d_lo, d_hi = np.stack((f_lo - c_lo, c_lo - b_lo)), np.stack((f_hi - c_hi, c_hi - b_hi))
        q = np.stack((np.minimum(d_lo, d_hi), np.maximum(d_lo, d_hi)), axis=1) / h
        pattern = (d_lo <= d_hi)[:, None]
        if before is None:
            ex, step = q, math.inf
        else:
            q0, pattern0, ex0 = before
            ex = np.where(pattern == pattern0, (q - 0.5 * q0) / 0.5, q)
            step = _largest_deviation(ex[0], ex0[0])
        gap = _largest_deviation(ex[0], ex[1])
        if gap <= tol and step <= tol:
            lower, upper = np.minimum(ex[:, 0], ex[:, 1]), np.maximum(ex[:, 0], ex[:, 1])
            return [_fresh(x0.grid, lo, hi, _nested(lo, hi)) for lo, hi in zip(lower, upper)], h, gap
        before, h = (q, pattern, ex), h * 0.5
    raise NotDifferentiable("did not settle")


def _loop_probe(f, x0, eps=1e-3, trial_deltas=(1.0, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001)):
    f0 = evaluate(f, Env({"x": x0}, x0.grid))
    for delta in sorted(trial_deltas, reverse=True):
        shifts = [sign * frac * delta for frac in (0.25, 0.5, 0.75, 0.95) for sign in (1.0, -1.0)]
        if not any(hausdorff_distance(evaluate(f, Env({"x": _shifted(x0, s)}, x0.grid)), f0) >= eps
                   for s in shifts):
            return float(delta)
    return None


NEGATIVE_ZERO = (-2, -1, -0.0)  # -0.0 atop the support
ESTIMATES = [
    # f does not read x: its one row is broadcast over the stack
    ("T(1,2,3)", (0.6, 0.8, 1.0), TOL),
    ("2", (0.6, 0.8, 1.0), TOL),
    ("x", NEGATIVE_ZERO, TOL),
    ("exp(x)", NEGATIVE_ZERO, TOL),
    # converges with an improper backward extrapolant: the nestedness check
    # of the two sides together fails, and each side is checked on its own
    ("cos(x) - x", (-1.154, -0.424, 0.398), 0.01),
    ("sin(x)*exp(x)", (0.6, 0.8, 1.0), 1e-9),
]


@pytest.mark.parametrize("text, x0, tol", ESTIMATES)
def test_an_estimate_is_the_point_by_point_loop_bit_for_bit(text, x0, tol, same_bytes):
    f, point = parse_expr(text), tri(*x0)
    est = mh_derivative(f, "x", point, tol=tol)
    (value, left_value), h, gap = _loop_estimate(f, point, tol)
    assert same_bytes(est.value, value) and same_bytes(est.left_value, left_value)
    assert (est.h_final, est.gap) == (h, gap)
    assert est.left_value.proper == (text != "cos(x) - x")


PROBES = [
    ("T(1,2,3)", (0.6, 0.8, 1.0), {}, 1.0),
    ("2", (0.6, 0.8, 1.0), {}, 1.0),
    ("exp(x)", NEGATIVE_ZERO, {"eps": 0.5}, 0.1),
    # unsorted and repeated: 1.0 is rejected, then 0.1 is accepted
    ("x", (0, 1, 2), {"eps": 0.1, "trial_deltas": (0.01, 1.0, 0.1, 0.1)}, 0.1),
    # one delta, accepted or not
    ("x", (0, 1, 2), {"eps": 1.0, "trial_deltas": (0.5,)}, 0.5),
    ("x", (0, 1, 2), {"eps": 0.1, "trial_deltas": (0.5,)}, None),
    ("1000 * x", (0, 1, 2), {"eps": 1e-6, "trial_deltas": (1.0, 0.5, 0.5, 2.0)}, None),
    ("x", (0, 1, 2), {"trial_deltas": ()}, None),
    # the larger deltas' shifts by 0.95 take 1/x's divisor across zero, so
    # the stack raises, and point by point each delta's first shift rejects it
    ("1/x", (0.6, 0.8, 1.0), {"eps": 1e-9}, None),
]


@pytest.mark.parametrize("text, x0, kw, delta", PROBES)
def test_a_probe_is_the_point_by_point_loop(text, x0, kw, delta):
    f, point = parse_expr(text), tri(*x0)
    got = continuity_probe(f, "x", point, **kw)
    assert got == _loop_probe(f, point, **kw) == delta
    assert got is None or type(got) is float


def test_an_estimate_that_stays_improper_through_convergence_raises():
    # the mirror of cos(x) - x above: here the converged quotient itself does not nest
    message = r"^converged difference quotient is an improper \(non-nested\) fuzzy number$"
    with pytest.raises(ImproperOperand, match=message):
        mh_derivative(parse_expr("x - cos(x)"), "x", tri(-1.154, -0.424, 0.398))


def test_the_estimators_count_their_blocks_rows_and_steps():
    f, x0 = parse_expr("sin(x)*exp(x)"), tri(0.6, 0.8, 1.0)
    with counting() as counts:
        mh_derivative(f, "x", x0)
    # one block: x0 and 12 steps' two points
    assert {k: counts[k] for k in ("blocks", "rows", "tableau_steps")} == {
        "blocks": 1, "rows": 25, "tableau_steps": 12}
    with counting() as counts:
        continuity_probe(f, "x", x0)
    assert (counts["blocks"], counts["rows"], counts["tableau_steps"]) == (1, 1 + 7 * 8, 0)
    # the block raises and is redone: x0 and two steps, one point at a time
    with counting() as counts:
        mh_derivative(parse_expr(GUARDED), "x", tri(0.02, 0.03, 0.05))
    assert (counts["blocks"], counts["rows"], counts["tableau_steps"]) == (1, 25 + 5, 2)
