"""Argument bounds: each is checked once, by the function or constructor
that owns it, and refused with InvalidArgument, a FuzzyError and a
ValueError.  The operand guards (a proper value, one grid, a structure to
cancel) raise their own named errors, the first two each with one message
shape that names the refused value."""

import math

import pytest

from fuzzcalc.calculus import continuity_probe, mh_derivative
from fuzzcalc.cli import run, write_alpha_csv
from fuzzcalc.core import (
    MAX_EXPONENT,
    MAX_RESOLUTION,
    AlphaGrid,
    FuzzyNumber,
    add,
    defuzz_triplet,
    div,
    gh_difference,
    hausdorff_distance,
    make_triangular,
    mul,
    pow_int,
    resample,
    scalar_mul,
    singleton,
)
from fuzzcalc.errors import FuzzyError, GridMismatch, ImproperOperand, InvalidArgument, NotSimplifiable
from fuzzcalc.expr import Env, FuzzyConst, PowInt, Var, evaluate, parse_expr
from fuzzcalc.ivp import MAX_ORDER as MAX_IVP_ORDER
from fuzzcalc.ivp import MAX_STEPS, IvpProblem, solve, total_derivatives
from fuzzcalc.series import (
    MAX_INDEX,
    MAX_ORDER,
    MAX_TERMS,
    CoefficientRule,
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
RULE = parse_coeff_rule("1/n!")
RULE_SERIES = FuzzyPowerSeries(singleton(0.0), RULE)


def ivp(**changes):
    fields = dict(rhs=parse_expr("x + y"), x0=T, y0=T, h=make_triangular((0.07, 0.1, 0.12)))
    return IvpProblem(**{**fields, **changes})


# (entry, call with an argument out of its bound, the message it names)
BOUNDS = [
    ("AlphaGrid levels", lambda: AlphaGrid([0.0]), "at least the levels 0 and 1"),
    ("AlphaGrid ends", lambda: AlphaGrid([0.0, 0.5]), "start at 0 and end at 1"),
    ("AlphaGrid order", lambda: AlphaGrid([0.0, 0.5, 0.5, 1.0]), "strictly increasing"),
    ("FuzzyNumber shape", lambda: FuzzyNumber(AlphaGrid.uniform(3), [0, 0], [1, 1]), "match the grid"),
    # text holds only whole exponents, so a text's count can be past the top only
    ("parse_expr power", lambda: parse_expr("x^99999999"),
     f"^exponent must be an integer from 0 to {MAX_EXPONENT}, got 99999999$"),
    ("parse_coeff_rule degree", lambda: parse_coeff_rule("n^1025"),
     f"^exponent must be an integer from 0 to {MAX_EXPONENT}, got 1025$"),
    ("parse_coeff_rule degree below the line", lambda: parse_coeff_rule("1/n^600/n^600"),
     f"^exponent must be an integer from 0 to {MAX_EXPONENT}, got 1200$"),
    ("mh_derivative tol", lambda: mh_derivative(parse_expr("x"), "x", T, tol=0.0), "tol must be"),
    ("continuity_probe eps", lambda: continuity_probe(parse_expr("x"), "x", T, eps=0.0), "eps must be"),
    *((f"continuity_probe trial deltas {deltas}",
       lambda deltas=deltas: continuity_probe(parse_expr("x^2"), "x", T, eps=0.1, trial_deltas=deltas),
       "trial deltas must be positive and finite")
      for deltas in ([math.nan], [1.0, math.nan], [0.0], [-1.0], [math.inf])),
    ("FuzzyPowerSeries", lambda: FuzzyPowerSeries(singleton(0.0), []), "must be nonempty"),
    # an explicit list holds a_0 to a_19; its coefficient read is the one check
    ("coefficient", lambda: SERIES.coefficient(20), "no coefficient a_20: the series has 20"),
    ("partial_sum past the list", lambda: partial_sum(SERIES, T, 21), "no coefficient a_20"),
    ("ratio_test past the list", lambda: ratio_test(SERIES, 19), "no coefficient a_20"),
    ("radius_four_quotient past the list", lambda: radius_four_quotient(SERIES, 19), "no coefficient a_20"),
    # given no index the series picks one, and a list of 3 holds no a_n, a_(n+1) with n >= 2
    *((f"{test.__name__} default on 3 coefficients", lambda test=test: test(FuzzyPowerSeries(T, [T] * 3)),
       "too short to probe: the series has 3 explicit coefficients") for test in (radius_four_quotient, ratio_test)),
    ("convergence_interval", lambda: convergence_interval(T, make_triangular((-1, 0, 1))), "radius"),
    ("convergence_interval infinite radius",
     lambda: convergence_interval(T, singleton(math.inf)), "radius must be finite"),
    ("convergence_interval symbolic radius of 1/n!",
     lambda: convergence_interval(singleton(0.0), radius_symbolic_ratio(RULE_SERIES).R), "radius must be finite"),
    ("IvpProblem rhs", lambda: ivp(rhs=parse_expr("x + z")), "only use x and y"),
    ("IvpProblem step", lambda: ivp(h=make_triangular((-0.1, 0, 0.1))), "nonnegative support"),
]


@pytest.mark.parametrize("call, message", [b[1:] for b in BOUNDS], ids=[b[0] for b in BOUNDS])
def test_an_argument_out_of_its_bound_is_an_invalid_argument(call, message):
    with pytest.raises(InvalidArgument, match=message) as exc:
        call()
    assert isinstance(exc.value, ValueError) and isinstance(exc.value, FuzzyError)


# Every count the package takes, with the call that takes it (returning what
# it made of the count), what the count is, its lowest value and its highest
# (None: no upper end).  One check owns them all, so each is refused with one
# message shape.
COUNTS = [
    ("AlphaGrid.uniform", AlphaGrid.uniform, "grid resolution", 2, MAX_RESOLUTION),
    ("pow_int", lambda n: pow_int(singleton(1.0), n), "exponent", 0, MAX_EXPONENT),
    ("PowInt", lambda n: PowInt(Var("x"), n).exponent, "exponent", 0, MAX_EXPONENT),
    ("taylor_series_of", lambda n: taylor_series_of(parse_expr("x"), "x", T, n).coeffs, "order", 0, MAX_ORDER),
    # a rule holds every a_n, so the count is checked before any is read
    ("partial_sum", lambda n: partial_sum(RULE_SERIES, singleton(0.5), n), "number of terms", 1, MAX_TERMS),
    ("coefficient", SERIES.coefficient, "coefficient index", 0, None),
    # a rule's index is checked by its value: n! and c^n are not read past it
    ("rule coefficient", RULE_SERIES.coefficient, "coefficient index", 0, MAX_INDEX),
    ("CoefficientRule.value", RULE.value, "coefficient index", 0, MAX_INDEX),
    ("ratio_test", lambda n: ratio_test(SERIES, n), "n_probe", 2, None),
    ("radius_four_quotient", lambda n: radius_four_quotient(SERIES, n), "n_probe", 2, None),
    ("IvpProblem order", lambda n: ivp(order=n).order, "truncation order", 1, MAX_IVP_ORDER),
    ("total_derivatives", lambda n: total_derivatives(parse_expr("x + y"), n), "truncation order", 1, MAX_IVP_ORDER),
    ("IvpProblem steps", lambda n: ivp(steps=n).steps, "number of steps", 1, MAX_STEPS),
]


def count_message(what, lo, hi, n) -> str:
    span = f"of at least {lo}" if hi is None else f"from {lo} to {hi}"
    return f"{what} must be an integer {span}, got {n!r}"


@pytest.mark.parametrize("call, what, lo, hi", [c[1:] for c in COUNTS], ids=[c[0] for c in COUNTS])
def test_a_count_out_of_its_range_is_refused_with_one_message(call, what, lo, hi):
    for n in (lo - 1, lo + 0.5, *(() if hi is None else (hi + 1,))):
        with pytest.raises(InvalidArgument) as exc:
            call(n)
        assert str(exc.value) == count_message(what, lo, hi, n)


@pytest.mark.parametrize("call, lo, hi", [(c[1], *c[3:]) for c in COUNTS], ids=[c[0] for c in COUNTS])
def test_a_count_in_its_range_is_taken_and_a_whole_float_as_its_int(call, lo, hi):
    for n in (lo, *(() if hi is None else (hi,))):
        call(n)
    # the check returns the int, so a count's value, not its type, decides
    taken, expected = call(3.0), call(3)
    assert taken == expected and type(taken) is type(expected)


def test_a_count_is_checked_for_its_range_before_int_reads_it():
    for n in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(InvalidArgument, match=f"got {n!r}$"):
            AlphaGrid.uniform(n)
    # with no upper end, the integrality test refuses what has no int
    for n in (math.nan, math.inf):
        with pytest.raises(InvalidArgument, match=f"of at least 0, got {n!r}$"):
            SERIES.coefficient(n)


# (the CLI's count option, an argv taking it, what the count is, lowest, highest)
CLI_COUNTS = [
    ("--alphas", ["eval", "--expr", "x", "--bind", "x=1", "--alphas"], "grid resolution", 2, MAX_RESOLUTION),
    ("series --order", ["series", "--taylor-of", "x", "--var", "x", "--center", "T(-1,0,1)", "--order"],
     "order", 0, MAX_ORDER),
    ("solve-ivp --order", ["solve-ivp", "--rhs", "y", "--x0", "0", "--y0", "1", "--h", "0.1", "--order"],
     "truncation order", 1, MAX_IVP_ORDER),
    # order 1 on two levels, so that the longest solve stays short
    ("--steps", ["solve-ivp", "--rhs", "y", "--x0", "0", "--y0", "1", "--h", "1e-5", "--alphas", "2",
                 "--order", "1", "--steps"], "number of steps", 1, MAX_STEPS),
]


@pytest.mark.parametrize("argv, what, lo, hi", [c[1:] for c in CLI_COUNTS], ids=[c[0] for c in CLI_COUNTS])
def test_a_cli_count_is_checked_by_its_library_owner(argv, what, lo, hi, capsys):
    # argparse reads only whole numbers, so the range alone is left to check
    for n in (lo - 1, hi + 1):
        assert run([*argv, str(n)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"InvalidArgument: {count_message(what, lo, hi, n)}\n")
    for n in (lo, hi):
        run([*argv, str(n)])
        assert "must be an integer" not in capsys.readouterr().err


def test_the_exponent_bound_is_inclusive():
    one = singleton(1.0)
    assert pow_int(one, MAX_EXPONENT) == one
    assert PowInt(Var("x"), MAX_EXPONENT).exponent == MAX_EXPONENT
    assert len(parse_coeff_rule(f"n^{MAX_EXPONENT}").poly_num) == MAX_EXPONENT + 1


def test_the_order_bound_is_inclusive():
    s = taylor_series_of(parse_expr("x"), "x", T, MAX_ORDER)
    assert len(s.coeffs) == MAX_ORDER + 1
    assert s.coefficient(1) == singleton(1.0) and s.coefficient(MAX_ORDER) == singleton(0.0)


def test_the_term_bound_is_inclusive():
    # past n = 170, 1/n! folds to 0, so every sum of 171 terms or more is one value
    s = FuzzyPowerSeries(singleton(0.0), parse_coeff_rule("1/n!"))
    assert partial_sum(s, singleton(0.5), MAX_TERMS) == partial_sum(s, singleton(0.5), 180)


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


IMPROPER = gh_difference(make_triangular((0, 1, 2)), make_triangular((0, 0.5, 3)))
OTHER_GRID = make_triangular((1, 2, 3), AlphaGrid.uniform(3))


# the two guards' message shapes, each naming the refused value
def improper(what):
    return f"{what} is an improper (non-nested) fuzzy number"


def other_grid(what):
    return f"{what} live on different alpha grids; resample first"


# each public operation, given a second operand (scalar_mul, pow_int,
# resample and defuzz_triplet take one fuzzy operand) and whether it takes two
OPERATIONS = {
    "resample": (lambda v: resample(v, AlphaGrid.uniform(11)), False),
    "add": (lambda v: add(T, v), True),
    "scalar_mul": (lambda v: scalar_mul(2.0, v), False),
    "mul": (lambda v: mul(T, v), True),
    "pow_int": (lambda v: pow_int(v, 2), False),
    "div": (lambda v: div(T, v), True),
    "gh_difference": (lambda v: gh_difference(T, v), True),
    "hausdorff_distance": (lambda v: hausdorff_distance(T, v), True),
    "defuzz_triplet": (lambda v: defuzz_triplet(v), False),
}
# x gH- center is improper, though x and the center are proper
GH_IMPROPER_SERIES = FuzzyPowerSeries(make_triangular((0, 0.5, 3)), [T])
ENV_XY = Env({"x": make_triangular((0, 1, 2)), "y": make_triangular((0, 0.5, 3))})
# a rule whose base is improper: its radius was read (infinite with 1/n!) though its coefficients raise
IMPROPER_RULE = CoefficientRule(factorial_power=-1, base=IMPROPER, base_coeff=1)

# (entry, call with an operand its guard refuses, the error it names, its message)
GUARDS = [
    *((f"{name} improper", lambda op=op: op(IMPROPER), ImproperOperand, improper("operand"))
      for name, (op, _) in OPERATIONS.items()),
    *((f"{name} grid", lambda op=op: op(OTHER_GRID), GridMismatch, other_grid("operands"))
      for name, (op, binary) in OPERATIONS.items() if binary),
    ("write_alpha_csv improper", lambda: write_alpha_csv(IMPROPER, "unwritten.csv"), ImproperOperand,
     improper("value to write")),
    ("eval of an improper value", lambda: run(["eval", "--expr", "x - y", "--bind", "x=T(0,1,2)",
                                               "--bind", "y=T(0,0.5,3)"]), ImproperOperand, improper("value")),
    ("Env improper binding", lambda: Env({"x": T, "y": IMPROPER}), ImproperOperand, improper("binding for 'y'")),
    ("Env binding grid", lambda: Env({"x": T, "y": OTHER_GRID}), GridMismatch,
     other_grid("the environment and its binding for 'y'")),
    ("Env binding grid given", lambda: Env(grid=AlphaGrid.uniform(3)).with_binding("x", T), GridMismatch,
     other_grid("the environment and its binding for 'x'")),
    ("FuzzyConst improper", lambda: FuzzyConst(IMPROPER), ImproperOperand, improper("fuzzy constant")),
    ("evaluate constant grid", lambda: evaluate(parse_expr("T(1,2,3) + x", AlphaGrid.uniform(3)), Env({"x": T})),
     GridMismatch, other_grid("the evaluation and a fuzzy constant")),
    ("evaluate improper operand", lambda: evaluate(parse_expr("(x - y)*x"), ENV_XY), ImproperOperand,
     improper("operand")),
    ("evaluate improper argument", lambda: evaluate(parse_expr("exp(x - y)"), ENV_XY), ImproperOperand,
     improper("function argument")),
    ("FuzzyPowerSeries improper center", lambda: FuzzyPowerSeries(IMPROPER, [T]), ImproperOperand,
     improper("series center")),
    ("FuzzyPowerSeries rule base grid",
     lambda: FuzzyPowerSeries(singleton(0.0), parse_coeff_rule("T(1,2,3)^(n)", AlphaGrid.uniform(3))),
     GridMismatch, other_grid("rule base and series center")),
    ("FuzzyPowerSeries improper rule base", lambda: FuzzyPowerSeries(singleton(0.0), IMPROPER_RULE),
     ImproperOperand, improper("rule base")),
    ("radius_symbolic_ratio improper rule base",
     lambda: radius_symbolic_ratio(FuzzyPowerSeries(singleton(0.0), IMPROPER_RULE)), ImproperOperand,
     improper("rule base")),
    ("CoefficientRule value grid", lambda: parse_coeff_rule("T(1,2,3)^(n)", AlphaGrid.uniform(3)).value(2),
     GridMismatch, other_grid("rule base and coefficient")),
    ("FuzzyPowerSeries coefficient grid", lambda: FuzzyPowerSeries(singleton(0.0), [OTHER_GRID]), GridMismatch,
     other_grid("coefficient and series center")),
    ("FuzzyPowerSeries improper coefficient", lambda: FuzzyPowerSeries(singleton(0.0), [IMPROPER]),
     ImproperOperand, improper("coefficient")),
    ("partial_sum improper x", lambda: partial_sum(SERIES, IMPROPER, 2), ImproperOperand, improper("operand")),
    ("partial_sum x grid", lambda: partial_sum(SERIES, OTHER_GRID, 2), GridMismatch, other_grid("operands")),
    ("partial_sum improper offset", lambda: partial_sum(GH_IMPROPER_SERIES, make_triangular((0, 1, 2)), 1),
     ImproperOperand, improper("x gH- center")),
    ("radius_symbolic_ratio zero numerator",
     lambda: radius_symbolic_ratio(FuzzyPowerSeries(singleton(0.0), parse_coeff_rule("0*n"))), NotSimplifiable,
     "rule numerator is identically zero"),
    ("convergence_interval improper", lambda: convergence_interval(IMPROPER, T), ImproperOperand,
     improper("series center")),
    ("convergence_interval improper radius", lambda: convergence_interval(T, IMPROPER), ImproperOperand,
     improper("radius")),
    ("convergence_interval grid", lambda: convergence_interval(T, OTHER_GRID), GridMismatch,
     other_grid("series center and radius")),
    ("IvpProblem improper x0", lambda: ivp(x0=IMPROPER), ImproperOperand, improper("x0")),
    ("IvpProblem improper y0", lambda: ivp(y0=IMPROPER), ImproperOperand, improper("y0")),
    ("IvpProblem improper h", lambda: ivp(h=IMPROPER), ImproperOperand, improper("h")),
    ("IvpProblem grid", lambda: ivp(y0=OTHER_GRID), GridMismatch, other_grid("x0, y0 and h")),
    ("mh_derivative improper x0", lambda: mh_derivative(parse_expr("x"), "x", IMPROPER), ImproperOperand,
     improper("expansion point")),
    ("mh_derivative improper quotient",
     lambda: mh_derivative(parse_expr("x - cos(x)"), "x", make_triangular((-1.154, -0.424, 0.398))),
     ImproperOperand, improper("converged difference quotient")),
    ("continuity_probe improper x0", lambda: continuity_probe(parse_expr("x"), "x", IMPROPER), ImproperOperand,
     improper("binding for 'x'")),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_an_operand_its_guard_refuses_raises_a_named_error(call, error, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a table that is written lands here
    try:
        code = call()
    except FuzzyError as exc:
        got = f"{type(exc).__name__}: {exc}"
    else:  # a command prints its error as its one stderr line, and exits 1
        assert code == 1
        got = capsys.readouterr().err.removesuffix("\n")
    assert got == f"{error.__name__}: {message}"
    assert not (tmp_path / "unwritten.csv").exists()
