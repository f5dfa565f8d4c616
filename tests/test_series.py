"""Power series: partial sums, both radius modes, ratio test, Taylor coefficients."""

import gc
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import fuzzcalc.core
import fuzzcalc.expr
import fuzzcalc.ivp
import fuzzcalc.series
from fuzzcalc._counters import counting
from fuzzcalc.core import (
    AlphaGrid,
    FuzzyNumber,
    add,
    div,
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
    InvalidArgument,
    NoLimit,
    NotSimplifiable,
)
from fuzzcalc.expr import Env, _evaluate, differentiate, evaluate, parse_expr
from fuzzcalc.series import (
    MAX_INDEX,
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

GRID = AlphaGrid.uniform()


def tri(d, e, f, grid=GRID):
    return make_triangular((d, e, f), grid)


def test_defaults_share_one_grid():
    grids = (
        make_triangular((1, 2, 3)).grid,
        singleton(1.0).grid,
        parse_expr("T(1,2,3)").value.grid,
        parse_coeff_rule("n / T(4,5,6)^(n-1)").base.grid,
        evaluate(parse_expr("1 + 2")).grid,
    )
    assert all(g is grids[0] for g in grids)


def constant_series(coefficient, n_max=40):
    return FuzzyPowerSeries(singleton(0.0, coefficient.grid), [coefficient] * n_max)


# -- partial sums -----------------------------------------------------------------


def test_partial_sum_single_term_is_first_coefficient():
    s = constant_series(tri(-2, -1, 1))
    out = partial_sum(s, tri(0, 0.5, 1), 1)
    al = GRID.levels
    # first coefficient's alpha-cut: [a - 2, 1 - 2a]
    assert np.allclose(out.lower, al - 2, atol=1e-15)
    assert np.allclose(out.upper, 1 - 2 * al, atol=1e-15)


def test_partial_sum_at_center_is_first_coefficient():
    x0 = tri(-1, 0, 1)
    s = taylor_series_of(parse_expr("exp(x)"), "x", x0, order=8)
    out = partial_sum(s, x0, 9)
    first = s.coefficient(0)
    assert np.array_equal(out.lower, first.lower)
    assert np.array_equal(out.upper, first.upper)


def test_partial_sum_crisp_slice_matches_crisp_taylor():
    x0 = tri(-1, 0, 1)
    s = taylor_series_of(parse_expr("exp(x)"), "x", x0, order=10)
    x = tri(0, 0.5, 1)
    for n_terms in (3, 6, 11):
        out = partial_sum(s, x, n_terms)
        # core slice: classic sum of 0.5^k / k!
        crisp = sum(0.5**k / math.factorial(k) for k in range(n_terms))
        assert out.core.midpoint == pytest.approx(crisp, abs=1e-12)


def test_partial_sum_monotone_refinement_on_exp():
    x0 = tri(-1, 0, 1)
    s = taylor_series_of(parse_expr("exp(x)"), "x", x0, order=14)
    x = tri(0, 0.5, 1)
    sums = [partial_sum(s, x, n) for n in range(1, 15)]
    gaps = [hausdorff_distance(b, a) for a, b in zip(sums, sums[1:])]
    for prev, nxt in zip(gaps[5:], gaps[6:]):
        assert nxt < prev


def test_partial_sum_rejects_improper_offset():
    # x gH- center loses nestedness for these widths
    s = FuzzyPowerSeries(tri(0, 0.5, 2), [tri(0, 1, 2)] * 3)
    with pytest.raises(ImproperOperand):
        partial_sum(s, tri(0, 1, 1), 3)


def test_a_warm_partial_sum_calls_no_guard(count_calls, same_bytes):
    # partial_sum checks its point once, with the guards' messages, and runs
    # the kernels, which call no guard; a loop of public ops would call the
    # guards per product
    grid = AlphaGrid.uniform(11)
    s = taylor_series_of(parse_expr("1.5*sin(x)*exp(x)", grid), "x", tri(0.1, 0.2, 0.3, grid), 8)
    at = tri(0.05, 0.2, 0.4, grid)
    improper = gh_difference(tri(0, 1, 1, grid), tri(0, 0.5, 2, grid))
    first = partial_sum(s, at, 9)
    proper, same_grid = (count_calls(fuzzcalc.core, name) for name in ("_require_proper", "_require_same_grid"))
    walks = count_calls(fuzzcalc.expr, "_walk")
    again = partial_sum(s, at, 9)
    # the offset's family and the kept family of 9 terms are planned already;
    # the guards run only on x (proper, then its grid) and on x gH- center
    assert walks[0] == 0
    assert (proper[0], same_grid[0]) == (2, 1)
    assert same_bytes(first, again)
    assert not (again.lower.flags.writeable or again.upper.flags.writeable)
    with pytest.raises(ImproperOperand, match=r"^operand is an improper \(non-nested\) fuzzy number$"):
        partial_sum(s, improper, 3)
    with pytest.raises(GridMismatch, match="^operands live on different alpha grids; resample first$"):
        partial_sum(s, tri(0.05, 0.2, 0.4), 3)


# partial_sum's docstring: the counts 1 to n together keep about 380 * n^2
# bytes; "about" is this slack over it (CPython 3.11 measures 397 KB for
# n = 32 from a fresh interpreter, 1.02 times 380 * 32^2)
RETAINED_PER_SQUARED_COUNT, RETAINED_SLACK = 380, 1.05

_RETAINED_PROBE = """
import gc, tracemalloc
from fuzzcalc import AlphaGrid, FuzzyPowerSeries, make_triangular, partial_sum
grid = AlphaGrid.uniform(11)
s = FuzzyPowerSeries(make_triangular((0, 0.1, 0.2), grid), [make_triangular((0.9, 1, 1.1), grid)] * 32)
x = make_triangular((0.05, 0.1, 0.15), grid)
gc.collect()
tracemalloc.start()
for n in range(1, 33):
    partial_sum(s, x, n)
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_partial_sums_of_every_count_to_32_retain_the_documented_memory():
    # what partial_sum keeps is _D's memo: one family per count, each with
    # its plan on its last root; a fresh interpreter, since this session's
    # tests have kept families of their own
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", _RETAINED_PROBE], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    retained = int(proc.stdout)
    assert 0.5 * RETAINED_PER_SQUARED_COUNT * 32**2 < retained
    assert retained <= RETAINED_SLACK * RETAINED_PER_SQUARED_COUNT * 32**2


# -- four-quotient radius -----------------------------------------------------------


def four_quotient_oracle(c):
    """Direct recomputation for a constant coefficient: per level min/max of
    the four endpoint quotients."""
    quots = np.abs(
        np.stack(
            [
                c.lower / c.lower,
                c.lower / c.upper,
                c.upper / c.lower,
                c.upper / c.upper,
            ]
        )
    )
    return quots.min(axis=0), quots.max(axis=0)


def test_radius_constant_positive_coefficients():
    s = constant_series(tri(1, 2, 3))
    out = radius_four_quotient(s, n_probe=16)
    al = GRID.levels
    assert out.mode == "four-quotient"
    assert np.allclose(out.R.lower, (1 + al) / (3 - al), atol=1e-9)
    assert np.allclose(out.R.upper, (3 - al) / (1 + al), atol=1e-9)
    lo, hi = four_quotient_oracle(tri(1, 2, 3))
    assert np.allclose(out.R.lower, lo, atol=1e-12)
    assert np.allclose(out.R.upper, hi, atol=1e-12)
    # ratio-test values: forward quotients settle at the same combinations
    assert out.L_lower == pytest.approx(1 / 3)
    assert out.L_upper == pytest.approx(3.0)


def test_radius_constant_sign_mixed_coefficients():
    # (-2, -1, 1) has a zero upper endpoint at alpha = 0.5; use a grid that
    # misses it (102 levels: k/101 never equals 1/2)
    g = AlphaGrid.uniform(102)
    c = make_triangular((-2, -1, 1), g)
    s = FuzzyPowerSeries(singleton(0.0, g), [c] * 40)
    out = radius_four_quotient(s, n_probe=16)
    lo, hi = four_quotient_oracle(c)
    assert np.allclose(out.R.lower, lo, atol=1e-12)
    assert np.allclose(out.R.upper, hi, atol=1e-12)
    # unit-like radius: crisp 1 at the core, support [0.5, 2]
    assert out.R.core.midpoint == pytest.approx(1.0)
    assert out.R.support.lo == pytest.approx(0.5)
    assert out.R.support.hi == pytest.approx(2.0)
    assert np.all(out.R.lower <= out.R.upper)


def test_radius_four_quotient_no_limit_for_growing_rule():
    # a_n = n / c^(n-1): the cross quotients run to 0 and infinity, and the
    # diagonal ones crawl like n/(n+1); the probes cannot declare a limit.
    rule = parse_coeff_rule("n / T(4,5,6)^(n-1)", GRID)
    s = FuzzyPowerSeries(singleton(0.0, GRID), rule)
    # oracle: the probe quotients really do disagree beyond any tolerance
    a8, a9 = rule.value(8, GRID), rule.value(9, GRID)
    a16, a17 = rule.value(16, GRID), rule.value(17, GRID)
    cross_half = abs(a8.upper[0] / a9.lower[0])
    cross_full = abs(a16.upper[0] / a17.lower[0])
    assert cross_full / cross_half > 10  # explodes between the probes
    with pytest.raises(NoLimit):
        radius_four_quotient(s, n_probe=16)


def test_radius_four_quotient_names_a_series_too_short_for_its_probe():
    # the probe at n reads a_n and a_(n+1); the series' coefficient read names the first it lacks
    s = taylor_series_of(parse_expr("exp(x)"), "x", tri(-1, 0, 1), 10)
    with pytest.raises(InvalidArgument, match="no coefficient a_16: the series has 11 explicit coefficients"):
        radius_four_quotient(s, 16)
    with pytest.raises(InvalidArgument, match="no coefficient a_11: the series has 11 explicit"):
        radius_four_quotient(s, 10)
    assert radius_four_quotient(s, 9).mode == "four-quotient"


@pytest.mark.parametrize("numeric_test", [ratio_test, radius_four_quotient])
def test_a_zero_support_endpoint_at_a_probe_index_names_its_coefficient(numeric_test):
    coeffs = [singleton(1.0, GRID)] * 18
    coeffs[8] = singleton(0.0, GRID)  # a_8 is read by the probe at n = 16 // 2
    s = FuzzyPowerSeries(singleton(0.0, GRID), coeffs)
    with pytest.raises(NoLimit, match="coefficient 8 has a zero support endpoint"):
        numeric_test(s, 16)


def test_radius_four_quotient_infinite_for_factorial_decay():
    rule = parse_coeff_rule("1/n!", GRID)
    s = FuzzyPowerSeries(singleton(0.0, GRID), rule)
    out = radius_four_quotient(s, n_probe=16)
    assert out.is_infinite


def test_radius_four_quotient_refuses_limits_infinite_at_some_levels_only():
    # sin's even coefficients are crisp zeros at the core, so a_n / a_(n+1)
    # runs to infinity at every level but the core, where it runs to 0
    s = taylor_series_of(parse_expr("sin(x)", GRID), "x", tri(-1, 0, 1), 10)
    with pytest.raises(NoLimit, match="infinite at some levels or pairings but not all"):
        radius_four_quotient(s)
    assert ratio_test(s).converges


# -- symbolic-ratio radius -------------------------------------------------------------


def test_symbolic_radius_cancels_base_powers_exactly():
    five = tri(4, 5, 6)
    rule = CoefficientRule(poly_num=(0.0, 1.0), base=five, base_coeff=-1, base_shift=1)
    s = FuzzyPowerSeries(singleton(0.0, GRID), rule)
    out = radius_symbolic_ratio(s)
    assert out.mode == "symbolic-ratio"
    assert np.array_equal(out.R.lower, five.lower)
    assert np.array_equal(out.R.upper, five.upper)
    assert out.L_lower == pytest.approx(1 / 6)
    assert out.L_upper == pytest.approx(1 / 4)


def test_symbolic_radius_constant_fuzzy_factor_stays_a_division():
    # constant coefficients keep c/c as an honest fuzzy division
    rule = parse_coeff_rule("T(1,2,3)", GRID)
    s = FuzzyPowerSeries(singleton(0.0, GRID), rule)
    out = radius_symbolic_ratio(s)
    al = GRID.levels
    assert np.allclose(out.R.lower, (1 + al) / (3 - al), atol=1e-12)
    assert np.allclose(out.R.upper, (3 - al) / (1 + al), atol=1e-12)


def test_symbolic_radius_factorial_rule_is_infinite():
    rule = parse_coeff_rule("1/n!", GRID)
    s = FuzzyPowerSeries(singleton(0.0, GRID), rule)
    out = radius_symbolic_ratio(s)
    assert out.is_infinite
    assert out.L_lower == 0.0 and out.L_upper == 0.0


def test_symbolic_radius_requires_a_rule():
    s = constant_series(tri(1, 2, 3))
    with pytest.raises(NotSimplifiable):
        radius_symbolic_ratio(s)


# -- ratio test --------------------------------------------------------------------------


def test_ratio_test_geometric_half_converges():
    coeffs = [singleton(0.5**n, GRID) for n in range(20)]
    s = FuzzyPowerSeries(singleton(0.0, GRID), coeffs)
    out = ratio_test(s, n_probe=16)
    assert out.converges
    assert out.L_lower == pytest.approx(0.5)
    assert out.L_upper == pytest.approx(0.5)


def test_ratio_test_geometric_two_diverges():
    coeffs = [singleton(2.0**n, GRID) for n in range(20)]
    s = FuzzyPowerSeries(singleton(0.0, GRID), coeffs)
    out = ratio_test(s, n_probe=16)
    assert not out.converges
    assert out.L_upper == pytest.approx(2.0)


def test_ratio_test_factorial_decay_reports_zero_limit():
    rule = parse_coeff_rule("1/n!", GRID)
    s = FuzzyPowerSeries(singleton(0.0, GRID), rule)
    out = ratio_test(s, n_probe=16)
    assert out.converges
    assert out.L_lower == 0.0 and out.L_upper == 0.0
    assert out.radius_is_infinite


# the differential check's series, and a base whose two quotient formulas
# disagree in the last bit (1 / (0.3^8 / 0.3^9) is not 0.3^9 / 0.3^8)
PROBED = {
    "[T(1,2,3)] * 40": lambda: constant_series(tri(1, 2, 3)),
    **{f"rule {text}": lambda text=text: FuzzyPowerSeries(singleton(0.0, GRID), parse_coeff_rule(text, GRID))
       for text in ("n / T(4,5,6)^(n-1)", "1/n!", "T(1,2,3)", "2^3*n!/n^2", "3 * n^2 / 2", "T(0.3,0.3,0.3)^(n)")},
    **{f"taylor of {text}": lambda text=text: taylor_series_of(parse_expr(text, GRID), "x", tri(-1, 0, 1), 10)
       for text in ("exp(x)", "sin(x)", "cos(x)")},
}


def probe_outcome(test, s, n):
    """The ratio-test limits a numeric test reports, bit for bit, or its error."""
    try:
        out = test(s, n)
    except (NoLimit, InvalidArgument) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((out.L_lower, out.L_upper))


@pytest.mark.parametrize("name", PROBED)
def test_both_numeric_tests_report_the_ratio_test_limits_of_one_probe(name):
    s = PROBED[name]()
    for n in (8, 16):
        radius, ratio = (probe_outcome(test, s, n) for test in (radius_four_quotient, ratio_test))
        # the radius's own per-level quotients refuse, or their limits are
        # infinite at some levels only
        if not any(refusal in radius for refusal in ("zero envelope endpoint", "infinite at some levels")):
            assert radius == ratio


def default_outcome(test, s, *n_probe):
    """A numeric test's fields, envelopes as bytes and floats as repr, or its error."""
    try:
        out = test(s, *n_probe)
    except (NoLimit, InvalidArgument) as exc:
        return f"{type(exc).__name__}: {exc}"
    return {k: (v.lower.tobytes(), v.upper.tobytes(), v.proper) if isinstance(v, FuzzyNumber) else repr(v)
            for k, v in vars(out).items()}


# Taylor series and the index the CLI probed them at for their order, before
# the series picked it: m - 2 for m coefficients, to a multiple of 8 or of 2
CLI_PROBED = [("exp(x)", 3, 2), ("exp(x)", 10, 8), ("exp(x)", 20, 16), ("sin(x)", 10, 8), ("cos(x)", 10, 8)]


@pytest.mark.parametrize("numeric_test", [radius_four_quotient, ratio_test])
@pytest.mark.parametrize("text, order, n", CLI_PROBED)
def test_an_explicit_list_is_probed_by_default_where_its_length_allows(numeric_test, text, order, n):
    s = taylor_series_of(parse_expr(text, GRID), "x", tri(-1, 0, 1), order)
    assert default_outcome(numeric_test, s) == default_outcome(numeric_test, s, n)


@pytest.mark.parametrize("numeric_test", [radius_four_quotient, ratio_test])
@pytest.mark.parametrize("name", [name for name in PROBED if name.startswith("rule ")])
def test_a_rule_is_probed_by_default_at_16(numeric_test, name):
    s = PROBED[name]()
    assert default_outcome(numeric_test, s) == default_outcome(numeric_test, s, 16)


def test_the_shared_probe_declares_the_forward_quotient():
    out = radius_four_quotient(PROBED["rule T(0.3,0.3,0.3)^(n)"](), 16)
    assert (out.L_lower, out.L_upper) == (0.3, 0.3)


# -- rule coefficients -------------------------------------------------------------------


def test_rule_coefficient_names_a_vanishing_denominator():
    s = FuzzyPowerSeries(singleton(0.0, GRID), parse_coeff_rule("1/n", GRID))
    with pytest.raises(DivisorStraddlesZero, match="rule denominator vanishes at n=0"):
        partial_sum(s, singleton(0.5, GRID), 3)


def test_rule_coefficient_past_the_float_range_folds_to_infinity():
    power, inverse = (parse_coeff_rule(text, GRID) for text in ("n^400", "1/n^400"))
    assert power.value(16, GRID) == singleton(math.inf, GRID)
    assert inverse.value(16, GRID) == singleton(0.0, GRID)
    # (n!)^2 passes the float range at n = 100, and n! itself at n = 171
    for n in (100, 171):
        assert parse_coeff_rule("n!*n!", GRID).value(n, GRID) == singleton(math.inf, GRID)
        assert parse_coeff_rule("1/n!", GRID).value(n + 100, GRID) == singleton(0.0, GRID)
    total = partial_sum(FuzzyPowerSeries(singleton(0.0, GRID), parse_coeff_rule("n!", GRID)),
                        singleton(0.5, GRID), 200)
    assert total == singleton(math.inf, GRID)
    # parts past the float range are taken exactly, so no inf / inf or 0 * inf makes a NaN
    for n in (11, 50):
        assert parse_coeff_rule("n^300/n^299", GRID).value(n, GRID) == singleton(float(n), GRID)
    assert parse_coeff_rule("n!/n^400", GRID).value(171, GRID) == singleton(0.0, GRID)
    assert parse_coeff_rule("n^200/n!", GRID).value(171, GRID) == singleton(
        float(Fraction(171**200, math.factorial(171))), GRID)
    fuzzy = parse_coeff_rule("n^400*T(0,1,2)^(n)", GRID).value(16, GRID)
    assert fuzzy.lower[0] == 0.0 and np.isinf(fuzzy.lower[1:]).all() and np.isinf(fuzzy.upper).all()
    # the probe's quotients inf / inf are not finite: no limit is declared
    with pytest.raises(NoLimit, match="not finite"):
        ratio_test(FuzzyPowerSeries(singleton(0.0, GRID), power))


def test_a_rule_checks_its_own_index():
    # value is public and does the rule's work, so it takes only the indices
    # 0 to MAX_INDEX: a fraction or a negative n is no a_n, and past the bound
    # n! alone would grow the work without end
    for text in ("1/n!", "n^2", "n / T(4,5,6)^(n-1)"):
        rule = parse_coeff_rule(text, GRID)
        for n in (-1, 2.5, MAX_INDEX + 1):
            with pytest.raises(InvalidArgument, match=f"^coefficient index must be an integer from 0 to "
                                                      f"{MAX_INDEX}, got {n!r}$"):
                rule.value(n, GRID)
    assert parse_coeff_rule("1/n!", GRID).value(MAX_INDEX, GRID) == singleton(0.0, GRID)


def test_finite_rule_coefficients_are_the_closed_form_bits():
    quadratic, factorial = (parse_coeff_rule(text, GRID) for text in ("3 * n^2 / 2", "2^3*n!/n^2"))
    for n in range(1, 40):
        assert quadratic.value(n, GRID) == singleton(3.0 * n**2 / 2.0, GRID)
        assert factorial.value(n, GRID) == singleton(8.0 / n**2 * float(math.factorial(n)), GRID)


# -- convergence interval ------------------------------------------------------------------


def test_convergence_interval_worked_example():
    # series in (x + 2~): center is -(1,2,3), radius (4,5,6)
    center = scalar_mul(-1.0, tri(1, 2, 3))
    b_lo, b_hi = convergence_interval(center, tri(4, 5, 6))
    al = GRID.levels
    assert np.allclose(b_lo.lower, -9 + 2 * al, atol=1e-12)
    assert np.allclose(b_lo.upper, -(5 + 2 * al), atol=1e-12)
    assert np.allclose(b_hi.lower, 3.0, atol=1e-12)
    assert np.allclose(b_hi.upper, 3.0, atol=1e-12)


def test_convergence_interval_zero_radius_degenerates_to_center():
    center = tri(1, 2, 4)
    b_lo, b_hi = convergence_interval(center, singleton(0.0, GRID))
    assert hausdorff_distance(b_lo, center) == 0.0
    assert hausdorff_distance(b_hi, center) == 0.0


def test_convergence_interval_crisp_case():
    b_lo, b_hi = convergence_interval(singleton(0.0, GRID), singleton(1.0, GRID))
    assert hausdorff_distance(b_lo, singleton(-1.0, GRID)) == 0.0
    assert hausdorff_distance(b_hi, singleton(1.0, GRID)) == 0.0


def test_convergence_interval_flags_a_bound_whose_cuts_do_not_nest():
    # a centre that nests within the slack at 1e6 but not at the scale of 1,
    # where B_lo = centre - 1e6 lands
    t = tri(1e6, 1e6, 1e6 + 1)
    lower = t.lower.copy()
    lower[50] += 1e-8
    b_lo, b_hi = convergence_interval(FuzzyNumber(GRID, lower, t.upper), singleton(1e6, GRID))
    assert not b_lo.proper and b_hi.proper


def test_convergence_interval_keeps_the_sign_of_a_tied_zero():
    # at alpha = 0 both candidates of B_hi are zero: c_lo + R_hi = -1 + 1 = 0.0
    # and c_hi + R_lo = -0.0 + -0.0 = -0.0; the bound keeps 0.0
    levels = GRID.levels
    center = FuzzyNumber(GRID, -1.0 + levels, np.full(levels.shape, -0.0))
    R = FuzzyNumber(GRID, np.full(levels.shape, -0.0), 1.0 - 0.5 * levels)
    _, b_hi = convergence_interval(center, R)
    assert b_hi.lower[0] == 0.0 and not np.signbit(b_hi.lower[0]) and not np.signbit(b_hi.upper[0])


# -- Taylor coefficients ----------------------------------------------------------------------


def test_taylor_exp_coefficients():
    x0 = tri(-1, 0, 1)
    s = taylor_series_of(parse_expr("exp(x)"), "x", x0, order=6)
    al = GRID.levels
    for k in range(7):
        c = s.coefficient(k)
        assert np.allclose(c.lower, np.exp(al - 1) / math.factorial(k), atol=1e-12)
        assert np.allclose(c.upper, np.exp(1 - al) / math.factorial(k), atol=1e-12)


def test_taylor_sin_core_slice():
    s = taylor_series_of(parse_expr("sin(x)"), "x", tri(-1, 0, 1), order=7)
    expect = [0, 1, 0, -1 / 6, 0, 1 / 120, 0, -1 / 5040]
    for k, val in enumerate(expect):
        assert s.coefficient(k).core.midpoint == pytest.approx(val, abs=1e-12)


def test_taylor_cos_core_slice():
    s = taylor_series_of(parse_expr("cos(x)"), "x", tri(-1, 0, 1), order=6)
    expect = [1, 0, -1 / 2, 0, 1 / 24, 0, -1 / 720]
    for k, val in enumerate(expect):
        assert s.coefficient(k).core.midpoint == pytest.approx(val, abs=1e-12)


# perfbench's taylor-swell shapes (exp/sin/cos products and compositions),
# at orders where the members of a tower share most of their nodes
SWELL_SHAPES = (
    ("1.37*sin(x)*exp(x)", 8),
    ("1.37*cos(x)*exp(x)", 8),
    ("1.37*exp(x)*sin(x)", 10),
    ("1.37*exp(x)*cos(x)", 10),
    ("1.37*sin(x)^2*exp(x)", 7),
    ("1.37*cos(x)^2*exp(x)", 7),
    ("1.37*sin(x)*cos(x)*exp(x)", 6),
    ("1.37*exp(sin(x))", 7),
    ("1.37*exp(cos(x))", 7),
    ("1.37*sin(exp(x))", 7),
    ("1.37*cos(exp(x))", 7),
)


def _tower(f, order: int) -> list:
    tower = [f]
    for _ in range(order):
        tower.append(differentiate(tower[-1], "x"))
    return tower


def _reference_partial_sum(s: FuzzyPowerSeries, x, n_terms: int):
    # the sum as a hand loop of the public operations, the reference for the
    # sum's root family
    diff = gh_difference(x, s.center)
    total, power = s.coefficient(0), None
    for k in range(1, n_terms):
        power = diff if power is None else mul(power, diff)
        total = add(total, mul(s.coefficient(k), power))
    return total


@pytest.mark.parametrize("text, order", SWELL_SHAPES)
def test_taylor_tower_in_one_walk_matches_the_per_root_loop(text, order, same_bytes):
    # the loop of evaluate over f, f', ..., f^(order), each scaled by 1/k!,
    # is the coefficients' reference; the sum is taken at a point wider than
    # the centre, so that point gH- centre is proper, as taylor-swell does
    grid = AlphaGrid.uniform(101)
    f = parse_expr(text, grid)
    tower = _tower(f, order)
    for centre, point in (((0.1, 0.2, 0.3), (0.12, 0.25, 0.38)), ((-0.9, -0.7, -0.6), (-0.98, -0.72, -0.57))):
        x0 = tri(*centre, grid)
        env = Env({"x": x0})
        loop = [evaluate(g, env) for g in tower]
        family = _evaluate(tuple(tower), env.bindings, env.grid)
        s = taylor_series_of(f, "x", x0, order)
        for k, (g, w, c) in enumerate(zip(tower, loop, s.coeffs)):
            assert same_bytes(family[g], w)
            assert same_bytes(c, scalar_mul(1.0 / math.factorial(k), w))
        at = tri(*point, grid)
        assert same_bytes(partial_sum(s, at, order + 1), _reference_partial_sum(s, at, order + 1))


def test_an_improper_tower_member_raises_the_operand_error(count_calls):
    # f itself is an improper gH-difference at x0; taylor_series_of checks each
    # member before scaling it, with scalar_mul's guard message
    f, x0 = parse_expr("x - T(0,0.5,2)"), tri(0, 1, 1)
    proper, same_grid = (count_calls(fuzzcalc.core, name) for name in ("_require_proper", "_require_same_grid"))
    with pytest.raises(ImproperOperand) as exc:
        taylor_series_of(f, "x", x0, 2)
    assert str(exc.value) == "operand is an improper (non-nested) fuzzy number"
    # x0's binding is checked for its grid and properness, and the tape
    # calls the guard once, to raise
    assert (proper[0], same_grid[0]) == (2, 1)


@pytest.mark.parametrize(
    "text, order, evaluated, differentiated",
    [("sin(x)*exp(x)", 10, 34, 31), ("exp(sin(x))", 7, 74, 55)],
    ids=["sin(x)*exp(x)", "exp(sin(x))"],
)
def test_taylor_tower_runs_each_distinct_node_once(
    text, order, evaluated, differentiated, count_calls, distinct_nodes, monkeypatch
):
    # each node keeps its derivative by x while it lives: building the tower
    # runs each distinct node's rule once, and a series of the same f builds
    # the same tower, so it runs no rule and, once planned, no walk; a loop
    # of evaluate and differentiate per member runs 209 and 175 (sin*exp)
    gc.collect()  # no node of an earlier test's tower is left alive
    grid = AlphaGrid.uniform(11)
    f = parse_expr(text, grid)
    rules = count_calls(fuzzcalc.expr, "_derivative")
    tower = _tower(f, order)
    assert rules[0] == len(distinct_nodes(*tower[:-1])) == differentiated
    walked = []
    real_walk = fuzzcalc.expr._walk

    def walk(*args):
        nodes = real_walk(*args)
        walked.append(len(nodes))
        return nodes

    monkeypatch.setattr(fuzzcalc.expr, "_walk", walk)
    with counting() as counts:
        for centre in ((0.1, 0.2, 0.3), (-0.9, -0.7, -0.6)):
            taylor_series_of(f, "x", tri(*centre, grid), order)
    assert rules[0] == differentiated
    # the first call builds the family of the scaled members, which f keeps,
    # and plans its walk; the second reuses both
    family = fuzzcalc.series._kept(fuzzcalc.series._coefficients, f, "x", order)
    assert len(distinct_nodes(*family)) == evaluated + order + 1
    assert walked == [0] * order + [evaluated + order + 1]
    assert counts["nodes"] == 2 * len(distinct_nodes(*family))


# the kernel each kind of work count names
_KIND_KERNELS = {kind: getattr(fuzzcalc.core, "_" + kind) for kind in (
    "add", "mul", "div", "scalar_mul", "gh_difference", "pow_int", "singleton", "exp", "sin", "cos")}
_RULE_SERIES = FuzzyPowerSeries(tri(-0.1, 0, 0.1), parse_coeff_rule("n / T(4,5,6)^(n-1)", GRID))
_LIST_SERIES = FuzzyPowerSeries(tri(-0.1, 0, 0.1), [tri(k, k + 1, k + 3) for k in range(4)])
_POINT = tri(0.2, 0.3, 0.5)
# each call that runs its work as root families on the tape: the kinds its
# count makes nonzero, and the call
_TAPE_COUNTED = {
    "solve": ({"mul", "div", "scalar_mul", "add", "gh_difference", "pow_int", "singleton"}, lambda: fuzzcalc.ivp.solve(
        fuzzcalc.ivp.IvpProblem(parse_expr("x*y + -y + 1/(2 + y)"), tri(0, 0.1, 0.2), tri(1, 1.1, 1.2),
                                tri(0.01, 0.02, 0.03), order=3, steps=2))),
    "partial_sum, 1 term": ({"gh_difference"}, lambda: partial_sum(_LIST_SERIES, _POINT, 1)),
    "partial_sum, 4 terms of a list": ({"gh_difference", "mul", "add"}, lambda: partial_sum(_LIST_SERIES, _POINT, 4)),
    "partial_sum, 6 terms of a rule": ({"gh_difference", "mul", "add"}, lambda: partial_sum(_RULE_SERIES, _POINT, 6)),
    "taylor_series_of": ({"mul", "scalar_mul", "add", "sin", "cos", "singleton"},
                         lambda: taylor_series_of(parse_expr("-2*x*sin(x)"), "x", _POINT, 5)),
}


@pytest.mark.parametrize("case", sorted(_TAPE_COUNTED))
def test_hand_written_work_counts_are_the_kernel_calls_made(case):
    # each kind's count is the calls the tape made to its kernel, directly or
    # inside another kernel (div's and pow_int's products), on as many cells
    # each as the grid has levels; a coefficient of the rule, which the
    # series' public operations compute, is not the tape's work
    named, call = _TAPE_COUNTED[case]
    kinds = {kernel.__code__: kind for kind, kernel in _KIND_KERNELS.items()}
    made = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in kinds:
            caller = frame.f_back
            while caller.f_code in kinds:
                caller = caller.f_back
            if caller.f_code is fuzzcalc.expr._evaluate.__code__:
                made[kinds[frame.f_code]] += 1

    outer = sys.getprofile()
    with counting() as counts:
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(outer)
    for kind in _KIND_KERNELS:
        assert counts[kind] == made[kind], kind
        assert counts[f"{kind}.cells"] == made[kind] * len(GRID), kind
        assert (made[kind] > 0) == (kind in named), kind
    assert counts["nodes"] > 0


# -- rule text parsing --------------------------------------------------------------------------


def test_parse_rule_geometric_decay_form():
    rule = parse_coeff_rule("n / T(4,5,6)^(n-1)", GRID)
    assert rule.base_coeff == -1 and rule.base_shift == 1
    for text, base, sigma, shift in (("T(-1,2,3)^(-n+2)", (-1, 2, 3), -1, 2),
                                     ("T(1,2,3)^2", (1, 2, 3), 0, 2),
                                     ("1/T(1,2,3)^(n)", (1, 2, 3), -1, 0)):
        parsed = parse_coeff_rule(text, GRID)
        assert parsed.base == tri(*base)
        assert (parsed.base_coeff, parsed.base_shift) == (sigma, shift)
    # a_1 = 1 * c^0 = 1, a_2 = 2 / c
    assert hausdorff_distance(rule.value(1, GRID), singleton(1.0, GRID)) <= 1e-9
    two_over_c = scalar_mul(2.0, div(singleton(1.0, GRID), tri(4, 5, 6)))
    assert hausdorff_distance(rule.value(2, GRID), two_over_c) <= 1e-9


def test_parse_rule_factorial_and_constant():
    rule = parse_coeff_rule("1/n!", GRID)
    assert rule.factorial_power == -1
    assert hausdorff_distance(rule.value(3, GRID), singleton(1 / 6, GRID)) <= 1e-9

    const = parse_coeff_rule("T(1,2,3)", GRID)
    assert hausdorff_distance(const.value(7, GRID), tri(1, 2, 3)) <= 1e-9

    mixed = parse_coeff_rule("2^3*n!/n^2", GRID)
    assert mixed.poly_num == (8.0,) and mixed.poly_den == (0.0, 0.0, 1.0)
    assert mixed.factorial_power == 1 and mixed.base is None
    assert hausdorff_distance(mixed.value(3, GRID), singleton(8.0 * 6 / 9, GRID)) <= 1e-9


def test_parse_rule_monomial_powers():
    rule = parse_coeff_rule("3 * n^2 / 2", GRID)
    assert hausdorff_distance(rule.value(4, GRID), singleton(24.0, GRID)) <= 1e-9


def test_parse_rule_refuses_numbers_that_are_not_finite():
    # a literal, its power, or the product it folds into, at the literal
    nines = "9" * 400
    for text, position in ((nines + " * n", 0), ("n / 99999^999", 4), (nines + "^0", 0),
                           ("1" + "0" * 200 + " * 1" + "0" * 200, 204)):
        with pytest.raises(ExprSyntaxError, match="too large") as exc:
            parse_coeff_rule(text, GRID)
        assert exc.value.position == position, text
    # a folded product that stays finite is read as before
    assert parse_coeff_rule("1" + "0" * 200 + " / 1" + "0" * 200 + " * n").poly_num == (0.0, 1e200)


def test_parse_rule_refuses_a_zero_below_the_line():
    # the rule's denominator would vanish at every n; refused at the literal
    # that zeroes it, be it a zero or a product that underflows
    for text, position in (("n/0", 2), ("n / 2 / 0.0^3", 8), ("1/0.1^400 * n", 2)):
        with pytest.raises(ExprSyntaxError, match="zero below the line") as exc:
            parse_coeff_rule(text, GRID)
        assert exc.value.position == position, text
    # a zero above the line, or a zero power below it, is read as before
    assert parse_coeff_rule("0 * n").poly_num == (0.0, 0.0)
    assert parse_coeff_rule("n / 0^0").poly_den == (1.0,)


def test_parse_rule_rejects_garbage():
    with pytest.raises(ExprSyntaxError):
        parse_coeff_rule("n ? 2", GRID)
    with pytest.raises(ExprSyntaxError):
        parse_coeff_rule("n / T(4,5,6)^(m-1)", GRID)
    for text in ("n^1.5", "nn", "2n", "T(1,2,3)^(n-1"):
        with pytest.raises(ExprSyntaxError):
            parse_coeff_rule(text, GRID)
    with pytest.raises(NotSimplifiable):
        parse_coeff_rule("T(1,2,3)*T(1,2,3)", GRID)


def test_infinite_radius_marker():
    result = radius_symbolic_ratio(FuzzyPowerSeries(singleton(0.0, GRID), parse_coeff_rule("1/n!", GRID)))
    marker = result.R
    assert result.is_infinite and marker.proper
    assert np.isinf(marker.lower).all() and np.isinf(marker.upper).all()
