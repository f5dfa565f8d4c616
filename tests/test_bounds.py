"""Argument bounds: each is checked once, by the function or constructor
that owns it, and refused with InvalidArgument, a FuzzyError and a
ValueError.  The operand guards (a proper value, one grid, a structure to
cancel) raise their own named errors."""

import pytest

from fuzzcalc.calculus import continuity_probe, mh_derivative
from fuzzcalc.cli import write_alpha_csv
from fuzzcalc.core import (
    MAX_EXPONENT,
    MAX_RESOLUTION,
    AlphaGrid,
    FuzzyNumber,
    gh_difference,
    make_triangular,
    pow_int,
    singleton,
)
from fuzzcalc.errors import FuzzyError, GridMismatch, ImproperOperand, InvalidArgument, NotSimplifiable
from fuzzcalc.expr import PowInt, Var, parse_expr
from fuzzcalc.ivp import MAX_STEPS, IvpProblem, solve
from fuzzcalc.series import (
    MAX_ORDER,
    FuzzyPowerSeries,
    convergence_interval,
    parse_coeff_rule,
    partial_sum,
    radius_four_quotient,
    radius_symbolic_ratio,
    ratio_test,
    taylor_series_of,
)

T = make_triangular((1, 2, 3))
SERIES = FuzzyPowerSeries(singleton(0.0), [T] * 20)


def ivp(**changes):
    fields = dict(rhs=parse_expr("x + y"), x0=T, y0=T, h=make_triangular((0.07, 0.1, 0.12)))
    return IvpProblem(**{**fields, **changes})


# (entry, call with an argument out of its bound, the message it names)
BOUNDS = [
    ("AlphaGrid levels", lambda: AlphaGrid([0.0]), "at least the levels 0 and 1"),
    ("AlphaGrid ends", lambda: AlphaGrid([0.0, 0.5]), "start at 0 and end at 1"),
    ("AlphaGrid order", lambda: AlphaGrid([0.0, 0.5, 0.5, 1.0]), "strictly increasing"),
    ("AlphaGrid.uniform", lambda: AlphaGrid.uniform(1), "resolution must be >= 2"),
    ("AlphaGrid.uniform fraction", lambda: AlphaGrid.uniform(2.5), "an integer, got 2.5"),
    ("AlphaGrid.uniform too fine", lambda: AlphaGrid.uniform(MAX_RESOLUTION + 1),
     f"at most {MAX_RESOLUTION}, got {MAX_RESOLUTION + 1}"),
    ("FuzzyNumber shape", lambda: FuzzyNumber(AlphaGrid.uniform(3), [0, 0], [1, 1]), "match the grid"),
    ("pow_int negative", lambda: pow_int(T, -1), "got -1"),
    ("pow_int fraction", lambda: pow_int(T, 2.5), "got 2.5"),
    ("pow_int too large", lambda: pow_int(T, MAX_EXPONENT + 1), f"from 0 to {MAX_EXPONENT}"),
    ("PowInt", lambda: PowInt(Var("x"), -1), "got -1"),
    ("parse_expr power", lambda: parse_expr("x^99999999"), "got 99999999"),
    ("mh_derivative tol", lambda: mh_derivative(parse_expr("x"), "x", T, tol=0.0), "tol must be"),
    ("continuity_probe eps", lambda: continuity_probe(parse_expr("x"), "x", T, eps=0.0), "eps must be"),
    ("FuzzyPowerSeries", lambda: FuzzyPowerSeries(singleton(0.0), []), "must be nonempty"),
    ("partial_sum", lambda: partial_sum(SERIES, T, 0), "at least one term"),
    ("partial_sum fraction", lambda: partial_sum(SERIES, T, 2.5), "number of terms must be an integer, got 2.5"),
    # an explicit list holds a_0 to a_19; its coefficient read is the one check
    ("coefficient", lambda: SERIES.coefficient(20), "no coefficient a_20: the series has 20"),
    ("coefficient negative", lambda: SERIES.coefficient(-1), "no coefficient a_-1"),
    ("coefficient fraction", lambda: SERIES.coefficient(1.5), "coefficient index must be an integer, got 1.5"),
    ("rule coefficient fraction", lambda: FuzzyPowerSeries(T, parse_coeff_rule("1/n!")).coefficient(1.5),
     "coefficient index must be an integer, got 1.5"),
    # a rule takes no negative index either: n! and c^n are not read there
    ("rule coefficient negative", lambda: FuzzyPowerSeries(T, parse_coeff_rule("1/n!")).coefficient(-1),
     "no coefficient a_-1"),
    ("rule coefficient negative power",
     lambda: FuzzyPowerSeries(T, parse_coeff_rule("n*T(1,2,3)^(n)")).coefficient(-2), "no coefficient a_-2"),
    ("partial_sum past the list", lambda: partial_sum(SERIES, T, 21), "no coefficient a_20"),
    ("ratio_test past the list", lambda: ratio_test(SERIES, 19), "no coefficient a_20"),
    ("radius_four_quotient past the list", lambda: radius_four_quotient(SERIES, 19), "no coefficient a_20"),
    ("parse_coeff_rule degree", lambda: parse_coeff_rule("n^1025"), "got 1025"),
    ("parse_coeff_rule degree below the line", lambda: parse_coeff_rule("1/n^600/n^600"), "got 1200"),
    ("radius_four_quotient", lambda: radius_four_quotient(SERIES, 1), "n_probe must be"),
    ("ratio_test", lambda: ratio_test(SERIES, 1), "n_probe must be"),
    ("ratio_test fraction", lambda: ratio_test(SERIES, 4.5), "n_probe must be an integer, got 4.5"),
    ("radius_four_quotient fraction", lambda: radius_four_quotient(SERIES, 4.5), "n_probe must be an integer, got 4.5"),
    ("convergence_interval", lambda: convergence_interval(T, make_triangular((-1, 0, 1))), "radius"),
    ("taylor_series_of", lambda: taylor_series_of(parse_expr("x"), "x", T, -1), "order must be"),
    ("taylor_series_of order past the float factorials",
     lambda: taylor_series_of(parse_expr("x"), "x", T, MAX_ORDER + 1), f"at most {MAX_ORDER}, .* got 171"),
    ("taylor_series_of fraction", lambda: taylor_series_of(parse_expr("x"), "x", T, 2.5),
     "order must be an integer, got 2.5"),
    ("IvpProblem order", lambda: ivp(order=5), "between 1 and 4"),
    ("IvpProblem order fraction", lambda: ivp(order=2.5), "truncation order must be an integer, got 2.5"),
    ("IvpProblem steps", lambda: ivp(steps=0), "at least one step"),
    ("IvpProblem steps fraction", lambda: ivp(steps=1.5), "number of steps must be an integer, got 1.5"),
    ("IvpProblem steps too many", lambda: ivp(steps=MAX_STEPS + 1),
     f"number of steps must be at most {MAX_STEPS}, got {MAX_STEPS + 1}"),
    ("IvpProblem rhs", lambda: ivp(rhs=parse_expr("x + z")), "only use x and y"),
    ("IvpProblem step", lambda: ivp(h=make_triangular((-0.1, 0, 0.1))), "nonnegative support"),
]


@pytest.mark.parametrize("call, message", [b[1:] for b in BOUNDS], ids=[b[0] for b in BOUNDS])
def test_an_argument_out_of_its_bound_is_an_invalid_argument(call, message):
    with pytest.raises(InvalidArgument, match=message) as exc:
        call()
    assert isinstance(exc.value, ValueError) and isinstance(exc.value, FuzzyError)


def test_the_exponent_bound_is_inclusive():
    one = singleton(1.0)
    assert pow_int(one, MAX_EXPONENT) == one
    assert PowInt(Var("x"), MAX_EXPONENT).exponent == MAX_EXPONENT
    assert len(parse_coeff_rule(f"n^{MAX_EXPONENT}").poly_num) == MAX_EXPONENT + 1


def test_the_order_bound_is_inclusive():
    s = taylor_series_of(parse_expr("x"), "x", T, MAX_ORDER)
    assert len(s.coeffs) == MAX_ORDER + 1
    assert s.coefficient(1) == singleton(1.0) and s.coefficient(MAX_ORDER) == singleton(0.0)


def test_the_resolution_bound_is_inclusive():
    grid = AlphaGrid.uniform(MAX_RESOLUTION)
    assert len(grid) == MAX_RESOLUTION and grid.levels[-1] == 1.0


def test_the_step_bound_is_inclusive():
    # order 1 on two levels, so that the longest solve stays short
    grid = AlphaGrid.uniform(2)
    problem = IvpProblem(rhs=parse_expr("x + y", grid), x0=make_triangular((0, 0.1, 0.2), grid),
                         y0=make_triangular((1, 1.1, 1.2), grid), h=make_triangular((1e-5, 2e-5, 3e-5), grid),
                         order=1, steps=MAX_STEPS)
    solution = solve(problem)
    assert len(solution.trajectory) == MAX_STEPS + 1 and len(solution.truncation_magnitudes) == MAX_STEPS
    assert solution.final[1].proper


def test_a_whole_float_count_is_taken_as_its_int():
    # the integrality check returns the int, so a count's value, not its
    # type, decides
    p = ivp(order=2.0, steps=3.0)
    assert (p.order, p.steps) == (2, 3) and type(p.order) is type(p.steps) is int
    assert partial_sum(SERIES, T, 3.0) == partial_sum(SERIES, T, 3)
    f = parse_expr("x^2")
    assert taylor_series_of(f, "x", T, 2.0).coeffs == taylor_series_of(f, "x", T, 2).coeffs
    assert ratio_test(SERIES, 8.0) == ratio_test(SERIES, 8)
    assert SERIES.coefficient(3.0) is SERIES.coefficient(3)


IMPROPER = gh_difference(make_triangular((0, 1, 2)), make_triangular((0, 0.5, 3)))
OTHER_GRID = make_triangular((1, 2, 3), AlphaGrid.uniform(3))

# (entry, call with an operand its guard refuses, the error it names)
GUARDS = [
    ("write_alpha_csv improper", lambda: write_alpha_csv(IMPROPER, "unwritten.csv"), ImproperOperand),
    ("FuzzyPowerSeries improper center", lambda: FuzzyPowerSeries(IMPROPER, [T]), ImproperOperand),
    ("FuzzyPowerSeries rule base grid",
     lambda: FuzzyPowerSeries(singleton(0.0), parse_coeff_rule("T(1,2,3)^(n)", AlphaGrid.uniform(3))),
     GridMismatch),
    ("FuzzyPowerSeries coefficient grid", lambda: FuzzyPowerSeries(singleton(0.0), [OTHER_GRID]), GridMismatch),
    ("FuzzyPowerSeries improper coefficient", lambda: FuzzyPowerSeries(singleton(0.0), [IMPROPER]), ImproperOperand),
    ("radius_symbolic_ratio zero numerator",
     lambda: radius_symbolic_ratio(FuzzyPowerSeries(singleton(0.0), parse_coeff_rule("0*n"))), NotSimplifiable),
    ("convergence_interval improper", lambda: convergence_interval(IMPROPER, T), ImproperOperand),
    ("convergence_interval grid", lambda: convergence_interval(T, OTHER_GRID), GridMismatch),
    ("IvpProblem improper x0", lambda: ivp(x0=IMPROPER), ImproperOperand),
    ("mh_derivative improper x0", lambda: mh_derivative(parse_expr("x"), "x", IMPROPER), ImproperOperand),
]


@pytest.mark.parametrize("call, error", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_an_operand_its_guard_refuses_raises_a_named_error(call, error, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a table that is written lands here
    with pytest.raises(error):
        call()
    assert not (tmp_path / "unwritten.csv").exists()
