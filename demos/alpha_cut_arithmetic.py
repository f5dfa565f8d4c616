#!/usr/bin/env python3
"""Tour of alpha-cut fuzzy arithmetic.

Triangular numbers are stored as sampled lower/upper envelopes over a grid
of alpha levels; every operation is interval arithmetic applied per level.
The one deliberately unusual operation is the gH-difference, which can
produce a non-nested ("improper") result that the rest of the library
refuses to touch.

Run: python demos/alpha_cut_arithmetic.py
"""

from fuzzcalc import (
    AlphaGrid,
    add,
    defuzz_triplet,
    div,
    gh_difference,
    hausdorff_distance,
    make_triangular,
    mul,
    pow_int,
    scalar_mul,
    singleton,
)


def show(label, value, levels=(0.0, 0.5, 1.0)):
    flag = "" if value.proper else "  [improper!]"
    print(f"\n{label}{flag}")
    if value.proper:
        d, e, f = defuzz_triplet(value)
        print(f"  triplet ~ ({d:.6g}, {e:.6g}, {f:.6g})")
    idx = [int(round(a * (len(value.grid) - 1))) for a in levels]
    for i in idx:
        a = value.grid.levels[i]
        print(f"  alpha={a:.2f}: [{value.lower[i]:.6g}, {value.upper[i]:.6g}]")


def main():
    grid = AlphaGrid.uniform(101)
    a = make_triangular((2.1, 2.3, 2.5), grid)
    b = make_triangular((0.7, 1.0, 1.2), grid)

    print("two triangular numbers, alpha-cut views")
    show("a = T(2.1, 2.3, 2.5)", a)
    show("b = T(0.7, 1.0, 1.2)", b)

    show("a + b   (endpoint sums)", add(a, b))
    show("a * b   (four-product min/max per level)", mul(a, b))
    show("b^2     (repeated interval product)", pow_int(b, 2))
    show("a / b   (product with the reciprocal interval)", div(a, b))
    show("-2 * a  (order-normalized scaling)", scalar_mul(-2.0, a))

    print("\ngH-difference: (a + b) - b recovers a exactly")
    back = gh_difference(add(a, b), b)
    print(f"  distance to a: {hausdorff_distance(back, a):.3e}")

    print("\n...but unequal spreads can break nestedness:")
    lopsided = gh_difference(make_triangular((0, 1, 1), grid),
                             make_triangular((0, 0.5, 2), grid))
    show("T(0,1,1) gH- T(0,0.5,2)", lopsided)
    print("  downstream operations reject this value (ImproperOperand)")

    print("\nHausdorff metric")
    u = make_triangular((0, 1, 2), grid)
    v = make_triangular((1, 2, 3), grid)
    w = make_triangular((0.5, 0.8, 4.0), grid)
    print(f"  d(u, v)                = {hausdorff_distance(u, v):.6g}")
    print(f"  d(u + w, v + w)        = {hausdorff_distance(add(u, w), add(v, w)):.6g}"
          "   (translation invariant)")
    print(f"  d(3u, 3v) / d(u, v)    = "
          f"{hausdorff_distance(scalar_mul(3, u), scalar_mul(3, v)) / hausdorff_distance(u, v):.6g}")
    print(f"  d(u, u)                = {hausdorff_distance(u, u):.6g}")
    print(f"  d(u, 0)                = {hausdorff_distance(u, singleton(0, grid)):.6g}")


if __name__ == "__main__":
    main()
