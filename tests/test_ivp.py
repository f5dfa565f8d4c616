"""Fully fuzzy Taylor solver: worked single-step case, crisp-slice oracle,
parametric envelope regression."""

import dataclasses
import gc
import math

import numpy as np
import pytest

import fuzzcalc.core
import fuzzcalc.expr
import fuzzcalc.ivp
from fuzzcalc._counters import counting
from fuzzcalc.core import (
    AlphaGrid,
    add,
    gh_difference,
    hausdorff_distance,
    make_triangular,
    mul,
    pow_int,
    scalar_mul,
    singleton,
)
from fuzzcalc.errors import GridMismatch, ImproperOperand, InvalidArgument
from fuzzcalc.expr import CrispConst, Env, Var, _evaluate, _plan, evaluate, parse_expr
from fuzzcalc.ivp import IvpProblem, solve, total_derivatives

GRID = AlphaGrid.uniform()


def tri(d, e, f, grid=GRID):
    return make_triangular((d, e, f), grid)


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


def step_once(p):
    return solve(dataclasses.replace(p, steps=1)).final


# -- total derivatives -------------------------------------------------------------


def test_total_derivative_of_sum_of_squares():
    d1, d2 = total_derivatives(parse_expr("x^2 + y^2"), 2)
    env = Env({"x": tri(0.7, 1, 1.2), "y": tri(2.1, 2.3, 2.5)})
    got = evaluate(d2, env)
    # 2 * (x (+) y (x) (x^2 (+) y^2)) with the worked bindings
    x, y = env.bindings["x"], env.bindings["y"]
    inner = add(x, mul(y, add(pow_int(x, 2), pow_int(y, 2))))
    expect = scalar_mul(2.0, inner)
    assert hausdorff_distance(got, expect) < 1e-12
    # and its support comes out at 2 * [10.99, 20.425]
    assert got.support.lo == pytest.approx(21.98, abs=1e-12)
    assert got.support.hi == pytest.approx(40.85, abs=1e-12)
    assert got.core.midpoint == pytest.approx(30.934, abs=1e-12)


def test_total_derivatives_of_pure_y():
    derivs = total_derivatives(parse_expr("y"), 4)
    assert all(d == Var("y") for d in derivs)


def test_total_derivatives_checks_its_order_with_a_tower_kept():
    # a slice of the kept tower of 4 would answer order -1 with three members
    rhs = parse_expr("x*y + 0.5625")
    assert len(total_derivatives(rhs, 4)) == 4
    for order in (-1, 0, 5):
        with pytest.raises(InvalidArgument, match="from 1 to 4"):
            total_derivatives(rhs, order)
    with pytest.raises(InvalidArgument, match="must be an integer from 1 to 4, got 2.5"):
        total_derivatives(rhs, 2.5)
    assert total_derivatives(rhs, 2.0) == total_derivatives(rhs, 4)[:2]


def test_total_derivatives_of_pure_x():
    d1, d2, d3 = total_derivatives(parse_expr("x"), 3)
    assert d2 == CrispConst(1.0)
    assert d3 == CrispConst(0.0)


# the right-hand sides of perfbench's ivp-wide workload, with fixed coefficients
WIDE_FORMS = (
    "x^2 + y^2",
    "0.4*x*y + 0.3*y",
    "exp(0.5*x)*y",
    "sin(x) + 0.6*y^2",
    "cos(x)*y + 0.3*x",
    "0.7*y^3 + x",
    "x*y^2 + 0.25",
)


def _reference_solve(p: IvpProblem) -> tuple[list, list]:
    # the step as a hand loop of the public operations, the reference for the
    # step's root family: one evaluate per D_k, h^k formed again in each
    # step, and the last term's magnitude
    derivs = total_derivatives(p.rhs, p.order)
    x, y = p.x0, p.y0
    trajectory, magnitudes = [(x, y)], []
    for _ in range(p.steps):
        env = Env({"x": x, "y": y}, x.grid)
        y_next, h_pow = y, None
        for k, dk in enumerate(derivs, start=1):
            h_pow = p.h if k == 1 else mul(h_pow, p.h)
            term = scalar_mul(1.0 / math.factorial(k), mul(h_pow, evaluate(dk, env)))
            y_next = add(y_next, term)
        x, y = add(x, p.h), y_next
        trajectory.append((x, y))
        magnitudes.append(abs(max(float(term.upper.max()), -float(term.lower.min()))))
    return trajectory, magnitudes


@pytest.mark.parametrize("form", WIDE_FORMS)
def test_tower_in_one_walk_matches_the_per_root_loop(form, same_bytes):
    grid = AlphaGrid.uniform(101)
    p = worked_problem(rhs=parse_expr(form, grid), x0=tri(0.7, 1, 1.2, grid), y0=tri(1.5, 1.7, 2.0, grid),
                       h=tri(0.08, 0.1, 0.11, grid), order=4, steps=3)
    env = Env({"x": p.x0, "y": p.y0})
    derivs = total_derivatives(p.rhs, p.order)
    loop = [evaluate(dk, env) for dk in derivs]
    family = _evaluate(_plan(*derivs), env.bindings, env.grid)
    assert len(family) == p.order and all(same_bytes(v, w) for v, w in zip(family, loop))
    got = solve(p)
    expect, magnitudes = _reference_solve(p)
    assert all(same_bytes(a, b) for pair, ref in zip(got.trajectory, expect) for a, b in zip(pair, ref))
    assert got.truncation_magnitudes == tuple(magnitudes)


def test_solve_runs_each_tower_node_once_per_step(distinct_nodes, families):
    # the powers h to h^4 once, then in each step the tower's 32 distinct
    # nodes and the step's 17 around them (h1 to h4, and x + h1 and the four
    # products, scalings and sums); a loop of evaluate per D_k runs 112 node
    # evaluations per step here
    p = worked_problem(order=4, steps=2)
    with counting() as counts:
        solve(p)
    powers, step = families(fuzzcalc.ivp._step, p.rhs, p.order)
    assert len(distinct_nodes(*total_derivatives(p.rhs, p.order))) == 32
    assert counts["nodes"] == len(distinct_nodes(*powers)) + p.steps * len(distinct_nodes(*step)) == 4 + 2 * 49


def test_solve_plans_its_tower_once_and_forms_step_powers_once(monkeypatch, families):
    # a constant no other test uses, so no plan for this step family is cached yet
    p = worked_problem(rhs=parse_expr("x^2 + y^2 + 0.4375"), order=4, steps=3)
    walked, evaluated = [], []
    real_walk, real_evaluate = fuzzcalc.expr._walk, fuzzcalc.ivp._evaluate

    def walk(roots, *rest):
        walked.append(roots)
        return real_walk(roots, *rest)

    def evaluate(plan, *rest):
        evaluated.append(plan)
        return real_evaluate(plan, *rest)

    monkeypatch.setattr(fuzzcalc.expr, "_walk", walk)
    monkeypatch.setattr(fuzzcalc.ivp, "_evaluate", evaluate)
    solve(p)
    # the recorded walks hold the solve's roots, so the roots built again
    # here are those interned nodes
    in_solve = list(walked)
    power_roots, step_roots = families(fuzzcalc.ivp._step, p.rhs, p.order)
    assert in_solve.count(power_roots) == in_solve.count(step_roots) == 1
    # h, h^2, h^3, h^4 in one evaluation, then the step's family once a step
    powers, step = fuzzcalc.ivp._kept(fuzzcalc.ivp._step, p.rhs, p.order)
    assert evaluated == [powers] + [step] * p.steps


def test_second_solve_of_one_rhs_builds_and_plans_nothing(count_calls):
    # the right-hand side keeps its step's plans, which hold no node, so a
    # cycle collection between two solves frees nothing the second reads:
    # it runs no derivative rule and no walk
    p = worked_problem(rhs=parse_expr("x*y^2 + 0.8125"), order=4, steps=2)
    first = solve(p)
    gc.collect()
    rules = count_calls(fuzzcalc.expr, "_derivative")
    walks = count_calls(fuzzcalc.expr, "_walk")
    second = solve(p)
    assert (rules[0], walks[0]) == (0, 0)
    assert second == first


# right-hand sides whose D_k are a binding, a constant's value, a crisp
# constant, repeated roots, operands that ^1 passes through (a binding and
# a product), and sin and cos about pi/2, where cos straddles zero (mul's
# four products)
ALIAS_FORMS = ("x", "y", "T(1,2,3)", "2", "y^1 + x", "(x*y)^1 + x", "sin(x)*cos(x)")


@pytest.mark.parametrize("form", ALIAS_FORMS)
def test_solve_gives_back_no_value_a_caller_holds(form, same_bytes):
    grid = AlphaGrid.uniform(10001)
    rhs = parse_expr(form, grid)
    p = worked_problem(rhs=rhs, x0=tri(1.4, 1.6, 1.8, grid), y0=tri(1.0, 1.2, 1.5, grid),
                       h=tri(0.05, 0.1, 0.12, grid), order=4, steps=3)
    env = Env({"x": p.x0, "y": p.y0})
    consts = [n.value for n in fuzzcalc.expr._walk((rhs,)) if isinstance(n, fuzzcalc.expr.FuzzyConst)]
    held = [p.x0, p.y0, p.h, *consts]
    before = [(v.lower.copy(), v.upper.copy()) for v in held]
    value = evaluate(rhs, env)
    trajectory = solve(p).trajectory
    for v, (lo, hi) in zip(held, before):
        assert (v.lower.tobytes(), v.upper.tobytes()) == (lo.tobytes(), hi.tobytes())
        assert not v.lower.flags.writeable and not v.upper.flags.writeable
    arrays = [a for point in trajectory for v in point for a in (v.lower, v.upper)]
    assert not any(a.flags.writeable for a in arrays)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
    assert same_bytes(evaluate(rhs, env), value)
    # and the pooled solve is the per-root loop's, bit for bit
    expect, _ = _reference_solve(p)
    assert all(same_bytes(a, b) for pair, ref in zip(trajectory, expect) for a, b in zip(pair, ref))


# -- single step --------------------------------------------------------------------


def test_step_reproduces_worked_solution():
    sol = solve(worked_problem())
    assert len(sol.trajectory) == 2
    assert len(sol.truncation_magnitudes) == 1
    assert sol.truncation_magnitudes[0] == pytest.approx(0.29412, abs=1e-6)
    x1, y1 = sol.final
    assert y1.support.lo == pytest.approx(2.496851, abs=1e-9)
    assert y1.core.midpoint == pytest.approx(3.08367, abs=1e-9)
    assert y1.support.hi == pytest.approx(3.71692, abs=1e-9)
    assert x1.support.lo == pytest.approx(0.77, abs=1e-12)
    assert x1.support.hi == pytest.approx(1.32, abs=1e-12)


def _abs_magnitude(term) -> float:
    # the reference: the largest |endpoint| through elementwise abs
    return float(np.max(np.maximum(np.abs(term.lower), np.abs(term.upper))))


TINY = 5e-324  # the smallest subnormal
# (lower, upper) envelopes of y0 on three levels: signed zeros, infinities,
# NaNs of either sign, subnormals and values of one sign
MAGNITUDE_ENVELOPES = [
    ([-0.0] * 3, [-0.0] * 3),
    ([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]),
    ([-np.inf, -1.0, -0.0], [np.inf, 1.0, 0.0]),
    ([-np.inf] * 3, [-np.inf] * 3),
    ([np.inf] * 3, [np.inf] * 3),
    ([np.nan, 1.0, 2.0], [3.0, 2.0, 2.0]),
    ([1.0, 2.0, 2.0], [3.0, np.nan, 2.0]),
    ([1.0, 2.0, 2.0], [3.0, -np.nan, 2.0]),
    ([np.nan, -np.inf, 0.0], [np.inf, np.nan, -0.0]),
    ([-TINY, 0.0, TINY], [TINY, 0.0, TINY]),
    ([-4 * TINY, -2 * TINY, -TINY], [-TINY, -TINY, -TINY]),
    ([-2.2250738585072014e-308, -1e-310, -0.0], [1e-310, 0.0, -0.0]),
    ([-3.0, -2.0, -1.5], [-1.0, -1.25, -1.5]),
    ([1e308, 1.5e308, 1.7e308], [1.7976931348623157e308] * 3),
]


@pytest.mark.parametrize("lower, upper", MAGNITUDE_ENVELOPES)
def test_truncation_magnitude_is_the_abs_formula_bit_for_bit(lower, upper):
    # y' = y with h = 1 at order 1: the last term is 1 * (1 (x) y0), made by
    # the kernels the step runs
    grid = AlphaGrid.uniform(3)
    y0 = fuzzcalc.core._fresh(grid, np.array(lower), np.array(upper))
    h = singleton(1.0, grid)
    p = IvpProblem(rhs=parse_expr("y", grid), x0=singleton(0.0, grid), y0=y0, h=h, order=1)
    with np.errstate(all="ignore"):
        term = fuzzcalc.core._scalar_mul(1.0, fuzzcalc.core._mul(h, y0, None), None)
        (got,) = solve(p).truncation_magnitudes
        want = _abs_magnitude(term)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_step_first_order_term_values():
    # h (x) (x0^2 (+) y0^2) hits the worked value exactly at alpha in {0, 1}
    p = worked_problem()
    ydot = evaluate(total_derivatives(p.rhs, 1)[0], Env({"x": p.x0, "y": p.y0}))
    term = mul(p.h, ydot)
    assert term.support.lo == pytest.approx(0.343, abs=1e-12)
    assert term.core.midpoint == pytest.approx(0.629, abs=1e-12)
    assert term.support.hi == pytest.approx(0.9228, abs=1e-12)


def test_step_second_order_term_values():
    p = worked_problem()
    d2 = total_derivatives(p.rhs, 2)[1]
    ydd = evaluate(d2, Env({"x": p.x0, "y": p.y0}))
    term = scalar_mul(0.5, mul(pow_int(p.h, 2), ydd))
    # 0.0049 * 10.99 = 0.053851 exactly; the displayed 0.0539 rounds it
    assert term.support.lo == pytest.approx(0.053851, abs=2e-4)
    assert term.core.midpoint == pytest.approx(0.15467, abs=2e-4)
    assert term.support.hi == pytest.approx(0.29412, abs=2e-4)


def test_zero_step_is_identity():
    p = worked_problem(h=singleton(0.0, GRID))
    x1, y1 = step_once(p)
    assert hausdorff_distance(x1, p.x0) == 0.0
    assert hausdorff_distance(y1, p.y0) == 0.0


def test_gh_identity_for_step_offset():
    # (x0 (+) h) gH- x0 recovers h exactly, the identity the expansion assumes
    p = worked_problem()
    shifted = add(p.x0, p.h)
    back = gh_difference(shifted, p.x0)
    assert back.proper
    assert hausdorff_distance(back, p.h) <= 1e-12


# -- solve -----------------------------------------------------------------------------


def test_solve_two_steps_advances_fuzzy_x():
    sol = solve(worked_problem(steps=2))
    x1 = sol.trajectory[1][0]
    al = GRID.levels
    assert np.allclose(x1.lower, 0.77 + 0.33 * al, atol=1e-12)
    assert np.allclose(x1.upper, 1.32 - 0.22 * al, atol=1e-12)
    assert len(sol.trajectory) == 3


def crisp_taylor_oracle(order, h, steps):
    # classic Taylor method for y' = y, y(0) = 1: multiply by the truncated
    # exponential each step
    growth = sum(h**k / math.factorial(k) for k in range(order + 1))
    return growth**steps


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_solve_crisp_exponential_matches_oracle(order):
    p = IvpProblem(
        rhs=parse_expr("y"),
        x0=singleton(0.0, GRID),
        y0=singleton(1.0, GRID),
        h=singleton(0.1, GRID),
        order=order,
        steps=10,
    )
    sol = solve(p)
    _, y_final = sol.final
    assert y_final.core.midpoint == pytest.approx(
        crisp_taylor_oracle(order, 0.1, 10), abs=1e-12
    )
    if order == 4:
        assert y_final.core.midpoint == pytest.approx(math.e, abs=1e-4)


def test_support_width_nondecreasing_for_monotone_rhs():
    sol = solve(worked_problem(steps=3))
    widths = [y.support.hi - y.support.lo for _, y in sol.trajectory]
    assert all(b >= a for a, b in zip(widths, widths[1:]))


# -- parametric envelope regression ------------------------------------------------------


def test_first_order_term_envelope_polynomials():
    p = worked_problem()
    ydot = evaluate(p.rhs, Env({"x": p.x0, "y": p.y0}))
    term = mul(p.h, ydot)
    al = GRID.levels
    lower_poly = 3.9e-3 * al**3 + 0.0469 * al**2 + 0.2352 * al + 0.343
    upper_poly = -1.6e-3 * al**3 + 0.0392 * al**2 - 0.3314 * al + 0.9228
    assert np.allclose(term.lower, lower_poly, atol=5e-4)
    assert np.allclose(term.upper, upper_poly, atol=5e-4)


def test_final_envelopes_match_displayed_sum():
    p = worked_problem()
    _, y1 = step_once(p)
    al = GRID.levels
    first_lo = 2.1 + 0.2 * al
    first_hi = 2.5 - 0.2 * al
    second_lo = 3.9e-3 * al**3 + 0.0469 * al**2 + 0.2352 * al + 0.343
    second_hi = -1.6e-3 * al**3 + 0.0392 * al**2 - 0.3314 * al + 0.9228
    h_sq_lo = (0.07 + 0.03 * al) ** 2
    h_sq_hi = (0.12 - 0.02 * al) ** 2
    ydd_lo = 0.026 * al**3 + 0.525 * al**2 + 3.926 * al + 10.99
    # upper cubic rederived by expanding (1.2-0.2a) + (2.5-0.2a)*((1.2-0.2a)^2
    # + (2.5-0.2a)^2): the alpha coefficient is -5.438, consistent with the
    # 20.425 / 15.467 values this polynomial must hit at alpha = 0 and 1
    ydd_hi = -0.016 * al**3 + 0.496 * al**2 - 5.438 * al + 20.425
    expect_lo = first_lo + second_lo + h_sq_lo * ydd_lo
    expect_hi = first_hi + second_hi + h_sq_hi * ydd_hi
    assert np.allclose(y1.lower, expect_lo, atol=5e-4)
    assert np.allclose(y1.upper, expect_hi, atol=5e-4)


# -- validation ---------------------------------------------------------------------------


def test_step_errors_carry_step_index():
    # dividing by y whose support straddles zero fails inside step 1
    p = IvpProblem(
        rhs=parse_expr("x / y"),
        x0=singleton(1.0, GRID),
        y0=tri(-1, 0, 1),
        h=singleton(0.1, GRID),
        order=1,
        steps=3,
    )
    from fuzzcalc.errors import DivisorStraddlesZero

    with pytest.raises(DivisorStraddlesZero, match="step 1:"):
        solve(p)


@pytest.mark.parametrize("order", [1, 2])
def test_an_improper_gh_difference_term_names_its_step(order, count_calls):
    # D_1 = x - y is improper at x0, y0: at order 1 the step's own check of
    # D_1 raises, at order 2 the evaluation of D_2 = 1 + (-1)*(x - y) does
    p = IvpProblem(rhs=parse_expr("x - y"), x0=tri(0, 1, 1), y0=tri(0, 0.5, 2), h=tri(0.05, 0.1, 0.12),
                   order=order)
    proper, same_grid = (count_calls(fuzzcalc.core, name) for name in ("_require_proper", "_require_same_grid"))
    with pytest.raises(ImproperOperand) as exc:
        solve(p)
    assert str(exc.value) == "step 1: operand is an improper (non-nested) fuzzy number"
    # the problem checked its values when built; the guard is called once, to raise
    assert (proper[0], same_grid[0]) == (1, 0)


def test_problem_validation():
    with pytest.raises(ValueError):
        worked_problem(order=5)
    with pytest.raises(ValueError):
        worked_problem(steps=0)
    with pytest.raises(ValueError):
        worked_problem(rhs=parse_expr("x + z"))
    with pytest.raises(ValueError):
        worked_problem(h=tri(-0.1, 0.0, 0.1))
    with pytest.raises(GridMismatch):
        worked_problem(h=tri(0.07, 0.1, 0.12, AlphaGrid.uniform(11)))
