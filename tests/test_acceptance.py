"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line; run with `-s` (or read
captured output) to see them all.
"""

import math
import time

import numpy as np
import pytest

from fuzzcalc.calculus import mh_derivative
from fuzzcalc.cli import run, write_alpha_csv
from fuzzcalc.core import (
    AlphaGrid,
    FuzzyNumber,
    add,
    gh_difference,
    hausdorff_distance,
    make_triangular,
    mul,
    pow_int,
    scalar_mul,
    singleton,
)
from fuzzcalc.expr import Env, evaluate, parse_expr
from fuzzcalc.ivp import IvpProblem, solve, total_derivatives
from fuzzcalc.series import (
    CoefficientRule,
    FuzzyPowerSeries,
    convergence_interval,
    radius_four_quotient,
    radius_symbolic_ratio,
    ratio_test,
    taylor_series_of,
)

GRID = AlphaGrid.uniform()
AL = GRID.levels


def tri(d, e, f, grid=GRID):
    return make_triangular((d, e, f), grid)


def report(n, description, check):
    try:
        check()
    except BaseException:
        print(f"criterion {n}: FAIL - {description}")
        raise
    print(f"criterion {n}: PASS - {description}")


def worked_problem(**overrides):
    kwargs = dict(
        rhs=parse_expr("x^2 + y^2"),
        x0=tri(0.7, 1, 1.2),
        y0=tri(2.1, 2.3, 2.5),
        h=tri(0.07, 0.1, 0.12),
        order=2,
        steps=1,
    )
    kwargs.update(overrides)
    return IvpProblem(**kwargs)


def test_criterion_1_end_to_end_ivp(capsys):
    def check():
        start = time.perf_counter()
        code = run([
            "solve-ivp", "--rhs", "x^2 + y^2", "--x0", "T(0.7,1,1.2)",
            "--y0", "T(2.1,2.3,2.5)", "--h", "T(0.07,0.1,0.12)",
            "--order", "2", "--steps", "1",
        ])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        assert "y triplet (2dp): (2.49, 3.08, 3.71)" in out

        _, y1 = solve(worked_problem()).final
        got = (y1.support.lo, y1.core.midpoint, y1.support.hi)
        for g, want in zip(got, (2.4968, 3.0837, 3.7169)):
            assert abs(g - want) < 5e-3

    report(1, "solve-ivp reproduces the worked one-step solution in < 1 s", check)


def test_criterion_2_intermediate_terms():
    def check():
        p = worked_problem()
        ydot = evaluate(p.rhs, Env({"x": p.x0, "y": p.y0}))
        first = mul(p.h, ydot)
        for got, want in [
            (first.support.lo, 0.343),
            (first.core.midpoint, 0.629),
            (first.support.hi, 0.9228),
        ]:
            assert abs(got - want) <= 1e-12

        d2 = total_derivatives(p.rhs, 2)[1]
        second = scalar_mul(0.5, mul(pow_int(p.h, 2), evaluate(d2, Env({"x": p.x0, "y": p.y0}))))
        for got, want in [
            (second.support.lo, 0.0539),  # exact value 0.0049 * 10.99 = 0.053851
            (second.core.midpoint, 0.15467),
            (second.support.hi, 0.29412),
        ]:
            assert abs(got - want) <= 2e-4

    report(2, "first- and second-order step terms match the worked values", check)


def test_criterion_3_mh_derivative_examples():
    def check():
        est = mh_derivative(parse_expr("x^2"), "x", tri(1, 2, 3))
        assert np.max(np.abs(est.value.lower - 2 * (1 + AL))) <= 1e-6
        assert np.max(np.abs(est.value.upper - 2 * (3 - AL))) <= 1e-6
        assert est.gap <= 1e-7

        est2 = mh_derivative(parse_expr("3 * x^3"), "x", tri(1, 2, 3))
        assert np.max(np.abs(est2.value.lower - 9 * (1 + AL) ** 2)) <= 1e-5
        assert np.max(np.abs(est2.value.upper - 9 * (3 - AL) ** 2)) <= 1e-5

    report(3, "mH-derivative matches the closed forms for x^2 and 3x^3", check)


def test_criterion_4_four_quotient_radius():
    def check():
        s = FuzzyPowerSeries(singleton(0.0, GRID), [tri(1, 2, 3)] * 40)
        out = radius_four_quotient(s, n_probe=16)
        assert np.max(np.abs(out.R.lower - (1 + AL) / (3 - AL))) <= 1e-9
        assert np.max(np.abs(out.R.upper - (3 - AL) / (1 + AL))) <= 1e-9

    report(4, "constant-coefficient radius equals the four-quotient closed form", check)


def test_criterion_5_symbolic_radius_and_interval():
    def check():
        five = tri(4, 5, 6)
        rule = CoefficientRule(poly_num=(0.0, 1.0), base=five, base_coeff=-1, base_shift=1)
        s = FuzzyPowerSeries(singleton(0.0, GRID), rule)
        out = radius_symbolic_ratio(s)
        assert np.array_equal(out.R.lower, five.lower)
        assert np.array_equal(out.R.upper, five.upper)

        center = scalar_mul(-1.0, tri(1, 2, 3))
        b_lo, b_hi = convergence_interval(center, out.R)
        assert np.max(np.abs(b_lo.lower - (-9 + 2 * AL))) <= 1e-12
        assert np.max(np.abs(b_lo.upper - (-(5 + 2 * AL)))) <= 1e-12
        assert np.max(np.abs(b_hi.lower - 3.0)) <= 1e-12
        assert np.max(np.abs(b_hi.upper - 3.0)) <= 1e-12

    report(5, "symbolic radius returns the base exactly; worked bounds reproduce", check)


def test_criterion_6_taylor_expansions():
    def check():
        x0 = tri(-1, 0, 1)
        crisp = {
            "exp(x)": [1 / math.factorial(k) for k in range(11)],
            "sin(x)": [0, 1, 0, -1 / 6, 0, 1 / 120, 0, -1 / 5040, 0, 1 / 362880, 0],
            "cos(x)": [1, 0, -1 / 2, 0, 1 / 24, 0, -1 / 720, 0, 1 / 40320, 0, -1 / 3628800],
        }
        for text, expect in crisp.items():
            s = taylor_series_of(parse_expr(text), "x", x0, order=10)
            for k in range(11):
                c = s.coefficient(k)
                assert abs(c.core.lo - expect[k]) <= 1e-12
                assert abs(c.core.hi - expect[k]) <= 1e-12
            out = ratio_test(s, n_probe=8)
            assert out.converges
            assert out.radius_is_infinite

    report(6, "exp/sin/cos cores match the crisp series; ratio test converges", check)


def test_criterion_7_randomized_property_suite(tmp_path):
    def check():
        start = time.perf_counter()
        rng = np.random.default_rng(1729)
        csv_path = tmp_path / "roundtrip.csv"
        prev = None
        zero = singleton(0.0, GRID)
        for i in range(1000):
            d1 = rng.uniform(-10, 10)
            a = tri(d1, d1 + rng.uniform(0, 5), d1 + rng.uniform(5, 10))
            d2 = rng.uniform(-10, 10)
            b = tri(d2, d2 + rng.uniform(0, 5), d2 + rng.uniform(5, 10))

            # four-product equality and sampled containment
            prod = mul(a, b)
            quads = np.stack([a.lower * b.lower, a.lower * b.upper,
                              a.upper * b.lower, a.upper * b.upper])
            assert np.array_equal(prod.lower, quads.min(axis=0))
            assert np.array_equal(prod.upper, quads.max(axis=0))
            xs = rng.uniform(a.lower, a.upper, size=(100, len(GRID)))
            ys = rng.uniform(b.lower, b.upper, size=(100, len(GRID)))
            samples = xs * ys
            assert np.all(samples >= prod.lower - 1e-9)
            assert np.all(samples <= prod.upper + 1e-9)

            # nestedness preservation
            for out in (add(a, b), prod, scalar_mul(-1.7, a)):
                assert np.all(np.diff(out.lower) >= -1e-9)
                assert np.all(np.diff(out.upper) <= 1e-9)
                assert np.all(out.lower <= out.upper + 1e-12)

            # gH inversion and self-difference
            assert hausdorff_distance(gh_difference(add(a, b), b), a) <= 1e-9
            assert hausdorff_distance(gh_difference(a, a), zero) <= 1e-9

            # metric axioms
            dab = hausdorff_distance(a, b)
            assert dab >= 0
            assert dab == hausdorff_distance(b, a)
            assert hausdorff_distance(a, a) == 0
            assert hausdorff_distance(add(a, b), add(b, b)) == pytest.approx(
                hausdorff_distance(a, b), abs=1e-9
            )  # translation invariance by b
            k = float(rng.uniform(-3, 3))
            assert hausdorff_distance(scalar_mul(k, a), scalar_mul(k, b)) == pytest.approx(
                abs(k) * dab, abs=1e-9
            )
            if prev is not None:
                c = prev
                assert dab <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12
            prev = a

            # CSV round trip on every 10th pair (I/O dominated otherwise)
            if i % 10 == 0:
                write_alpha_csv(prod, csv_path)
                table = np.loadtxt(csv_path, delimiter=",", skiprows=1, unpack=True)
                back = FuzzyNumber(AlphaGrid(table[0]), table[1], table[2])
                assert hausdorff_distance(prod, back) <= 1e-9

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

    report(7, "1000 randomized pairs pass arithmetic/metric/round-trip properties", check)


def test_criterion_8_order_consistency():
    def check():
        grid = AlphaGrid.uniform(3)  # crisp-slice problem, tiny grid suffices
        for order in (1, 2, 3, 4):
            errors = []
            for h, steps in ((0.1, 10), (0.05, 20)):
                p = IvpProblem(
                    rhs=parse_expr("y"),
                    x0=singleton(0.0, grid),
                    y0=singleton(1.0, grid),
                    h=singleton(h, grid),
                    order=order,
                    steps=steps,
                )
                _, y_final = solve(p).final
                errors.append(abs(y_final.core.midpoint - math.e))
            ratio = errors[0] / errors[1]
            assert abs(ratio - 2.0**order) <= 0.2 * 2.0**order, (
                f"order {order}: ratio {ratio:.3f}"
            )

    report(8, "crisp-slice error ratio halving h tracks 2^order within 20%", check)
