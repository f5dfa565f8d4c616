"""Numerical mH-derivative against closed forms and the symbolic route."""

import math

import numpy as np
import pytest

from fuzzcalc.calculus import continuity_probe, mh_derivative
from fuzzcalc.core import (
    AlphaGrid,
    add,
    hausdorff_distance,
    make_triangular,
    scalar_mul,
    singleton,
)
from fuzzcalc.errors import NotDifferentiable
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
