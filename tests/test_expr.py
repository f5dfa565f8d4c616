"""Expression parsing, range evaluation, and symbolic differentiation."""

import math

import numpy as np
import pytest

from fuzzcalc.core import (
    AlphaGrid,
    approx_equal,
    gh_difference,
    hausdorff_distance,
    make_triangular,
    mul,
    scalar_mul,
    singleton,
)
from fuzzcalc.errors import (
    DivisorStraddlesZero,
    ExprSyntaxError,
    GridMismatch,
    ImproperOperand,
    UnboundVariable,
    UnknownFunction,
)
from fuzzcalc.expr import (
    Add,
    Cos,
    CrispConst,
    Div,
    Env,
    Exp,
    FuzzyConst,
    GhSub,
    Mul,
    Neg,
    PowInt,
    Sin,
    Var,
    differentiate,
    evaluate,
    free_variables,
    parse_expr,
    to_text,
)

GRID = AlphaGrid.uniform()


def tri(d, e, f, grid=GRID):
    return make_triangular((d, e, f), grid)


# -- parsing ---------------------------------------------------------------------


def test_parse_sum_of_squares():
    assert parse_expr("x^2 + y^2") == Add(PowInt(Var("x"), 2), PowInt(Var("y"), 2))


def test_parse_function_call():
    assert parse_expr("exp(x)") == Exp(Var("x"))


def test_parse_triplet_times_sin():
    node = parse_expr("T(1,2,3) * sin(x)", GRID)
    assert node == Mul(FuzzyConst(tri(1, 2, 3)), Sin(Var("x")))


def test_parse_precedence_and_associativity():
    assert parse_expr("a + b * c") == Add(Var("a"), Mul(Var("b"), Var("c")))
    assert parse_expr("a - b - c") == GhSub(GhSub(Var("a"), Var("b")), Var("c"))
    assert parse_expr("2 * x^3") == Mul(CrispConst(2.0), PowInt(Var("x"), 3))
    # '^' binds tighter than unary minus
    assert parse_expr("-x^2") == Neg(PowInt(Var("x"), 2))
    assert parse_expr("(-x)^2") == PowInt(Neg(Var("x")), 2)


def test_parse_negative_triplet_components():
    node = parse_expr("T(-1, 0, 1)", GRID)
    assert node == FuzzyConst(tri(-1, 0, 1))


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("x + ")
    assert exc.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse_expr("x @ y")
    with pytest.raises(ExprSyntaxError):
        parse_expr("x ^ 2.5")  # fractional exponent
    with pytest.raises(ExprSyntaxError):
        parse_expr("T(1, 2)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("x) + 1")
    with pytest.raises(UnknownFunction):
        parse_expr("tan(x)")


def test_to_text_round_trips():
    for text in ("x^2 + y^2", "T(1,2,3)*sin(x)", "-x^2", "(x - y)/z", "exp(x)*cos(x)"):
        node = parse_expr(text, GRID)
        assert parse_expr(to_text(node), GRID) == node


def test_free_variables():
    assert free_variables(parse_expr("x^2 + y*z - exp(w)")) == {"x", "y", "z", "w"}


# -- evaluation -------------------------------------------------------------------


def test_eval_square_positive_support():
    out = evaluate(parse_expr("x^2"), Env({"x": tri(1, 2, 3)}))
    al = GRID.levels
    assert np.allclose(out.lower, (1 + al) ** 2, atol=1e-14)
    assert np.allclose(out.upper, (3 - al) ** 2, atol=1e-14)


def test_eval_exp_envelopes_order_correct():
    out = evaluate(parse_expr("exp(x)"), Env({"x": tri(-1, 0, 1)}))
    al = GRID.levels
    assert np.allclose(out.lower, np.exp(al - 1), atol=1e-14)
    assert np.allclose(out.upper, np.exp(1 - al), atol=1e-14)


def sin_range_oracle(lo, hi, n=20001):
    xs = np.linspace(lo, hi, n)
    vals = np.sin(xs)
    return float(vals.min()), float(vals.max())


def test_eval_sin_interior_maximum():
    out = evaluate(parse_expr("sin(x)"), Env({"x": tri(0, math.pi / 2, math.pi)}))
    # support [0, pi] contains the maximizer pi/2
    assert out.support.lo == pytest.approx(0.0, abs=1e-12)
    assert out.support.hi == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lo,hi", [(0, math.pi), (-4, 4), (1, 2), (-10, -9.5), (0, 20)])
def test_sin_cos_range_against_dense_sampling(lo, hi):
    g = AlphaGrid([0.0, 1.0])
    mid = 0.5 * (lo + hi)
    x = make_triangular((lo, mid, hi), g)
    s = evaluate(parse_expr("sin(x)"), Env({"x": x}, grid=g))
    exp_lo, exp_hi = sin_range_oracle(lo, hi)
    assert s.support.lo == pytest.approx(exp_lo, abs=1e-6)
    assert s.support.hi == pytest.approx(exp_hi, abs=1e-6)
    c = evaluate(parse_expr("cos(x)"), Env({"x": x}, grid=g))
    xs = np.linspace(lo, hi, 20001)
    assert c.support.lo == pytest.approx(float(np.cos(xs).min()), abs=1e-6)
    assert c.support.hi == pytest.approx(float(np.cos(xs).max()), abs=1e-6)


def test_eval_errors():
    with pytest.raises(UnboundVariable):
        evaluate(parse_expr("x + y"), Env({"x": tri(0, 1, 2)}))
    with pytest.raises(DivisorStraddlesZero):
        evaluate(parse_expr("x / y"), Env({"x": tri(1, 2, 3), "y": tri(-1, 0, 1)}))
    with pytest.raises(GridMismatch):
        evaluate(
            parse_expr("T(1,2,3) + x", GRID),
            Env({"x": tri(0, 1, 2, AlphaGrid.uniform(11))}),
        )
    # bindings are checked when bound, whether or not the tree reads them
    with pytest.raises(ImproperOperand):
        Env({"x": tri(0, 1, 2), "z": gh_difference(tri(0, 1, 1), tri(0, 0.5, 2))})
    with pytest.raises(GridMismatch):
        Env({"x": tri(0, 1, 2), "z": tri(0, 1, 2, AlphaGrid.uniform(11))})
    with pytest.raises(GridMismatch):
        Env(grid=AlphaGrid.uniform(11)).with_binding("z", tri(0, 1, 2))


def test_eval_crisp_expression_without_bindings():
    out = evaluate(parse_expr("2 * 3 + 1"))
    assert out.core.midpoint == pytest.approx(7.0)
    assert out.support.width == pytest.approx(0.0)


def test_eval_core_matches_crisp_evaluation():
    # at alpha=1 the computation collapses to ordinary real arithmetic
    expr = parse_expr("x^2 + T(1,2,3)*sin(x) - exp(x)", GRID)
    x = tri(0.5, 1.0, 1.8)
    out = evaluate(expr, Env({"x": x}))
    crisp = 1.0**2 + 2.0 * math.sin(1.0) - math.exp(1.0)
    assert out.core.lo == pytest.approx(crisp, abs=1e-12)
    assert out.core.hi == pytest.approx(crisp, abs=1e-12)


def test_eval_improper_at_root_is_returned_not_raised():
    # a gH-difference at the root may legitimately lose nestedness; the
    # caller sees the flag, while feeding it onward raises
    env = Env({"x": tri(0, 1, 1), "y": tri(0, 0.5, 2)})
    out = evaluate(parse_expr("x - y"), env)
    assert not out.proper
    from fuzzcalc.errors import ImproperOperand

    with pytest.raises(ImproperOperand):
        evaluate(parse_expr("(x - y) + x"), env)


def test_eval_monotone_inclusion():
    # wider inputs produce enclosing outputs for gH-free expressions
    expr = parse_expr("x^2 + exp(x)*cos(x)")
    narrow = Env({"x": tri(0.8, 1.0, 1.3)})
    wide = Env({"x": tri(0.5, 1.0, 2.0)})
    a = evaluate(expr, narrow)
    b = evaluate(expr, wide)
    assert np.all(b.lower <= a.lower + 1e-12)
    assert np.all(b.upper >= a.upper - 1e-12)


# -- differentiation ---------------------------------------------------------------


def test_derivative_of_square():
    assert differentiate(parse_expr("x^2"), "x") == Mul(CrispConst(2.0), Var("x"))


def test_derivative_of_monomial_with_fuzzy_coefficient():
    # d/dx (a*x^n) evaluates like n*a*x^(n-1)
    a = tri(2, 3, 4)
    node = differentiate(parse_expr("T(2,3,4) * x^3", GRID), "x")
    x = tri(1, 2, 3)
    got = evaluate(node, Env({"x": x}))
    expect = mul(scalar_mul(3.0, a), mul(x, x))
    assert hausdorff_distance(got, expect) < 1e-9


def test_derivative_of_trig_and_exp():
    assert differentiate(parse_expr("sin(x)"), "x") == Cos(Var("x"))
    assert differentiate(parse_expr("cos(x)"), "x") == Neg(Sin(Var("x")))
    assert differentiate(parse_expr("exp(x)"), "x") == Exp(Var("x"))


def test_derivative_constants_vanish():
    assert differentiate(parse_expr("T(1,2,3)", GRID), "x") == CrispConst(0.0)
    assert differentiate(CrispConst(4.2), "x") == CrispConst(0.0)
    assert differentiate(Var("y"), "x") == CrispConst(0.0)


def test_chain_rule_against_crisp_derivative():
    # exp(x^2) at a crisp point: derivative is 2x*exp(x^2)
    node = differentiate(parse_expr("exp(x^2)"), "x")
    x0 = 0.7
    out = evaluate(node, Env({"x": singleton(x0, GRID)}))
    assert out.core.midpoint == pytest.approx(2 * x0 * math.exp(x0**2), abs=1e-12)


def test_quotient_rule_against_crisp_derivative():
    node = differentiate(parse_expr("x / (x^2 + 1)"), "x")
    x0 = 1.3
    out = evaluate(node, Env({"x": singleton(x0, GRID)}))
    expect = (1 * (x0**2 + 1) - x0 * 2 * x0) / (x0**2 + 1) ** 2
    assert out.core.midpoint == pytest.approx(expect, abs=1e-12)


def test_second_derivative_of_cubic():
    d1 = differentiate(parse_expr("x^3"), "x")
    d2 = differentiate(d1, "x")
    out = evaluate(d2, Env({"x": singleton(2.0, GRID)}))
    assert out.core.midpoint == pytest.approx(12.0)
