#!/usr/bin/env python3
"""Fuzzy power series and their convergence.

Shows the two radius-of-convergence modes side by side:

  * four-quotient: min/max over all endpoint pairings of |a_n / a_(n+1)|,
    probed numerically.  Faithful to the level-wise definition, but the
    cross pairings blow up for coefficient rules like n / c^(n-1).
  * symbolic-ratio: cancels the shared powers of the rule structure first
    (c^n / c^(n-1) = c), recovering the fuzzy base exactly.

Also expands exp/sin/cos around a fuzzy zero and watches the partial sums
settle.

Run: python demos/power_series_convergence.py
"""

import numpy as np

from fuzzcalc import (
    AlphaGrid,
    FuzzyPowerSeries,
    NoLimit,
    convergence_interval,
    hausdorff_distance,
    make_triangular,
    parse_coeff_rule,
    parse_expr,
    partial_sum,
    radius_four_quotient,
    radius_symbolic_ratio,
    ratio_test,
    scalar_mul,
    singleton,
    taylor_series_of,
)

GRID = AlphaGrid.uniform(101)


def describe(value, label):
    s, c = value.support, value.core
    print(f"  {label}: support [{s.lo:.6g}, {s.hi:.6g}], core [{c.lo:.6g}, {c.hi:.6g}]")


def main():
    print("constant fuzzy coefficients T(1,2,3): both modes agree")
    s = FuzzyPowerSeries(singleton(0.0, GRID), [make_triangular((1, 2, 3), GRID)] * 40)
    fq = radius_four_quotient(s)
    describe(fq.R, "four-quotient radius")
    sym = radius_symbolic_ratio(
        FuzzyPowerSeries(singleton(0.0, GRID), parse_coeff_rule("T(1,2,3)", GRID))
    )
    describe(sym.R, "symbolic radius (c/c)")
    print(f"  distance between the two: {hausdorff_distance(fq.R, sym.R):.2e}")

    print("\nrule a_n = n / T(4,5,6)^(n-1): the modes genuinely differ")
    rule = parse_coeff_rule("n / T(4,5,6)^(n-1)", GRID)
    s = FuzzyPowerSeries(singleton(0.0, GRID), rule)
    out = radius_symbolic_ratio(s)
    describe(out.R, "symbolic radius (base recovered exactly)")
    try:
        radius_four_quotient(s)
        print("  four-quotient: unexpectedly declared a limit")
    except NoLimit as exc:
        print(f"  four-quotient: NoLimit ({exc})")

    print("\ninterval of convergence for that radius around center -T(1,2,3):")
    center = scalar_mul(-1.0, make_triangular((1, 2, 3), GRID))
    b_lo, b_hi = convergence_interval(center, out.R)
    describe(b_lo, "lower bound")
    describe(b_hi, "upper bound")

    print("\nTaylor series about the fuzzy zero T(-1,0,1)")
    x0 = make_triangular((-1, 0, 1), GRID)
    for text in ("exp(x)", "sin(x)", "cos(x)"):
        series = taylor_series_of(parse_expr(text), "x", x0, order=10)
        cores = [series.coefficient(k).core.midpoint for k in range(6)]
        out = ratio_test(series)
        print(f"  {text}: core coefficients {np.round(cores, 6).tolist()}")
        print(f"    ratio test: converges={out.converges}, "
              f"L=[{out.L_lower:.3g}, {out.L_upper:.3g}]"
              f"{' -> infinite radius' if out.radius_is_infinite else ''}")

    print("\npartial sums of exp at x = T(0, 0.5, 1): successive distances shrink")
    series = taylor_series_of(parse_expr("exp(x)"), "x", x0, order=14)
    x = make_triangular((0, 0.5, 1), GRID)
    prev = None
    for n in range(1, 11):
        s_n = partial_sum(series, x, n)
        gap = None if prev is None else hausdorff_distance(s_n, prev)
        tail = "" if gap is None else f"  step distance {gap:.3e}"
        print(f"  n={n:2d}: core {s_n.core.midpoint:.8f}{tail}")
        prev = s_n


if __name__ == "__main__":
    main()
