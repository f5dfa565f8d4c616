"""Alpha-cut arithmetic: worked examples plus randomized property checks."""

import copy
import inspect
import math
import pickle
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzcalc.core import (
    _NEST_SLACK,
    DEFAULT_GRID,
    AlphaGrid,
    FuzzyNumber,
    Interval,
    _add,
    _cos,
    _div,
    _exp,
    _fresh,
    _gh_difference,
    _mul,
    _nested,
    _pow_int,
    _release,
    _scalar_mul,
    _sign_class,
    _sin,
    _singleton,
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
from fuzzcalc.errors import (
    Crossed,
    DivisorStraddlesZero,
    GridMismatch,
    ImproperOperand,
    MalformedTriplet,
    NotNested,
)

GRID = AlphaGrid.uniform()
SMALL = AlphaGrid.uniform(21)


def tri(d, e, f, grid=GRID):
    return make_triangular((d, e, f), grid)


# An improper number: gH-difference of triangulars whose envelope slopes
# share a sign, so the core escapes the support.
def improper_example():
    out = gh_difference(tri(0, 1, 1), tri(0, 0.5, 2))
    assert not out.proper
    return out


# -- grids and constructors ----------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        AlphaGrid([0.0, 0.5])  # does not end at 1
    with pytest.raises(ValueError):
        AlphaGrid([0.0, 0.5, 0.4, 1.0])
    g = AlphaGrid.uniform(11)
    assert len(g) == 11 and g.levels[0] == 0.0 and g.levels[-1] == 1.0
    # a grid or a value is never equal to another type, either way round
    assert (g == "grid") is False and (tri(0, 1, 2) == g) is False


def test_equal_levels_are_one_grid():
    assert AlphaGrid.uniform(101) is DEFAULT_GRID
    assert AlphaGrid(list(np.linspace(0, 1, 3))) is AlphaGrid.uniform(3)
    # -0.0 is read as 0.0, so values on the two grids still add
    signed = AlphaGrid([-0.0, 0.5, 1.0])
    assert signed is AlphaGrid.uniform(3) and not np.signbit(signed.levels[0])
    assert add(tri(0, 1, 2, signed), tri(1, 2, 3, AlphaGrid.uniform(3))) == tri(1, 3, 5, signed)
    # grids hash by identity, so they are dict keys
    names = {GRID: "default", SMALL: "small"}
    assert names[AlphaGrid.uniform(21)] == "small" and names[AlphaGrid(GRID.levels)] == "default"
    assert AlphaGrid.uniform(11) is not AlphaGrid.uniform(12)


def test_threads_racing_to_build_one_grid_build_one_object():
    levels = [0.0, 0.125, 0.375, 1.0]  # levels no other test builds
    barrier, built = threading.Barrier(4), []

    def build():
        barrier.wait()
        built.append(AlphaGrid(levels))

    threads = [threading.Thread(target=build) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(built) == 4 and all(g is built[0] for g in built)


def test_triangular_support_and_core():
    a = tri(0.7, 1, 1.2)
    assert a.support.lo == pytest.approx(0.7) and a.support.hi == pytest.approx(1.2)
    assert a.core.lo == pytest.approx(1.0) and a.core.hi == pytest.approx(1.0)


def test_triangular_generic_alpha_cut():
    # (2.1, 2.3, 2.5) has envelopes 2.1 + 0.2a and 2.5 - 0.2a
    a = tri(2.1, 2.3, 2.5)
    al = GRID.levels
    assert np.allclose(a.lower, 2.1 + 0.2 * al, atol=1e-15)
    assert np.allclose(a.upper, 2.5 - 0.2 * al, atol=1e-15)


def test_malformed_triplet():
    with pytest.raises(MalformedTriplet):
        make_triangular((1.0, 0.5, 2.0))
    with pytest.raises(MalformedTriplet):
        make_triangular((3, 2, 1), GRID)
    # inf - inf * alpha would leave a NaN upper envelope
    with pytest.raises(MalformedTriplet):
        make_triangular((1, 2, float("inf")), GRID)
    with pytest.raises(MalformedTriplet, match=r"need finite d, e, f, got \(-inf, 0.0, 1.0\)"):
        make_triangular((-math.inf, 0.0, 1.0))


def test_constructor_refuses_crossed_envelopes():
    with pytest.raises(Crossed):
        FuzzyNumber(AlphaGrid([0.0, 1.0]), [3, 3], [1, 1])


def test_constructor_refuses_envelopes_that_do_not_nest():
    # nothing crosses, but the core [0, 10] is wider than the support [5, 6]
    with pytest.raises(NotNested):
        FuzzyNumber(AlphaGrid([0.0, 0.5, 1.0]), [5, 3, 0], [6, 8, 10])


def test_constructor_two_level():
    g = AlphaGrid([0.0, 1.0])
    a = FuzzyNumber(g, [0.0, 1.0], [2.0, 1.0])
    assert a.core.lo == 1.0 and a.core.hi == 1.0

    with pytest.raises(NotNested):
        FuzzyNumber(g, [1.0, 0.0], [2.0, 3.0])  # decreasing lower envelope


def test_constructor_touching_envelopes_allowed():
    # lower(1) == upper(1) == 2 is a legal (crisp-core) configuration:
    # equality never counts as crossing
    g = AlphaGrid([0.0, 1.0])
    a = FuzzyNumber(g, [0.0, 2.0], [2.0, 2.0])
    assert a.proper
    assert a.core.lo == 2.0 and a.core.hi == 2.0
    # ... but an upper envelope that grows with alpha is still rejected:
    # the core [2, 2] would escape the support [0, 1]
    with pytest.raises(NotNested):
        FuzzyNumber(g, [0.0, 2.0], [1.0, 2.0])


# -- addition ------------------------------------------------------------------


def test_add_triplets_from_worked_ivp():
    total = add(add(tri(2.1, 2.3, 2.5), tri(0.343, 0.629, 0.9228)),
                tri(0.0538, 0.15467, 0.29412))
    expect = tri(2.4968, 3.08367, 3.71692)
    assert hausdorff_distance(total, expect) < 1e-12


def test_add_zero_identity():
    a = tri(1.5, 2.0, 4.0)
    out = add(a, singleton(0.0, GRID))
    assert np.array_equal(out.lower, a.lower) and np.array_equal(out.upper, a.upper)


def test_add_squares():
    out = add(tri(0.49, 1, 1.44), tri(4.41, 5.29, 6.25))
    assert hausdorff_distance(out, tri(4.9, 6.29, 7.69)) < 1e-12


def test_add_grid_mismatch():
    with pytest.raises(GridMismatch):
        add(tri(0, 1, 2), tri(0, 1, 2, AlphaGrid.uniform(11)))


# -- scalar multiplication -----------------------------------------------------


def scalar_mul_oracle(k, a):
    # brute-force endpoint min/max per level
    cands = np.stack([k * a.lower, k * a.upper])
    return cands.min(axis=0), cands.max(axis=0)


def test_scalar_mul_positive():
    out = scalar_mul(2.0, tri(1, 2, 3))
    assert hausdorff_distance(out, tri(2, 4, 6)) == 0.0


def test_scalar_mul_zero():
    out = scalar_mul(0.0, tri(-5, 1, 7))
    assert hausdorff_distance(out, singleton(0.0, GRID)) == 0.0


def test_scalar_mul_negative_matches_oracle():
    a = tri(1, 2, 3)
    lo, hi = scalar_mul_oracle(-1.0, a)
    out = scalar_mul(-1.0, a)
    assert np.array_equal(out.lower, lo) and np.array_equal(out.upper, hi)
    assert hausdorff_distance(out, tri(-3, -2, -1)) == 0.0


# -- multiplication ------------------------------------------------------------


def test_mul_worked_first_order_term():
    out = mul(tri(0.07, 0.1, 0.12), tri(4.9, 6.29, 7.69))
    assert out.support.lo == pytest.approx(0.343, abs=1e-12)
    assert out.support.hi == pytest.approx(0.9228, abs=1e-12)
    assert out.core.midpoint == pytest.approx(0.629, abs=1e-12)


def test_mul_worked_second_order_term():
    out = mul(tri(0.0049, 0.01, 0.0144), tri(10.99, 15.467, 20.425))
    assert out.support.lo == pytest.approx(0.0539, abs=2e-4)
    assert out.core.midpoint == pytest.approx(0.15467, abs=2e-4)
    assert out.support.hi == pytest.approx(0.29412, abs=2e-4)


def test_mul_sign_mixed_square():
    a = tri(-1, 0, 1)
    out = mul(a, a)
    assert out.support.lo == pytest.approx(-1.0)
    assert out.support.hi == pytest.approx(1.0)
    assert out.core.lo == 0.0 and out.core.hi == 0.0
    # brute-force oracle: hull of sampled products per level
    rng = np.random.default_rng(0)
    xs = rng.uniform(a.lower, a.upper, size=(200, len(GRID)))
    ys = rng.uniform(a.lower, a.upper, size=(200, len(GRID)))
    prods = xs * ys
    assert np.all(prods >= out.lower - 1e-12)
    assert np.all(prods <= out.upper + 1e-12)


# -- integer powers --------------------------------------------------------------


def test_pow_squares_positive_support():
    # positive case: endpoints are endpoint powers
    for trip, expect in [((0.7, 1, 1.2), (0.49, 1, 1.44)),
                         ((2.1, 2.3, 2.5), (4.41, 5.29, 6.25))]:
        a = tri(*trip)
        out = pow_int(a, 2)
        assert np.array_equal(out.lower, a.lower * a.lower)
        assert np.array_equal(out.upper, a.upper * a.upper)
        assert out.support.lo == pytest.approx(expect[0], abs=1e-12)
        assert out.core.midpoint == pytest.approx(expect[1], abs=1e-12)
        assert out.support.hi == pytest.approx(expect[2], abs=1e-12)


def test_pow_zero_gives_one():
    out = pow_int(tri(-2, 0, 5), 0)
    assert hausdorff_distance(out, singleton(1.0, GRID)) == 0.0


# -- division ---------------------------------------------------------------------


def test_div_self_ratio():
    a = tri(1, 2, 3)
    out = div(a, a)
    al = GRID.levels
    assert np.allclose(out.lower, (1 + al) / (3 - al), atol=1e-14)
    assert np.allclose(out.upper, (3 - al) / (1 + al), atol=1e-14)
    assert out.support.lo == pytest.approx(1 / 3)
    assert out.support.hi == pytest.approx(3.0)
    assert out.core.midpoint == pytest.approx(1.0)


def test_div_by_one():
    a = tri(-4, 0.5, 2)
    out = div(a, singleton(1.0, GRID))
    assert hausdorff_distance(out, a) == 0.0


def test_div_straddling_zero():
    with pytest.raises(DivisorStraddlesZero):
        div(tri(1, 2, 3), tri(-1, 0, 1))
    with pytest.raises(DivisorStraddlesZero):
        div(tri(1, 2, 3), tri(0, 1, 2))  # touching zero is still undefined


def stack(*numbers: FuzzyNumber) -> FuzzyNumber:
    """The numbers as the rows of one (rows, levels) stack."""
    return _fresh(numbers[0].grid, np.stack([n.lower for n in numbers]), np.stack([n.upper for n in numbers]))


def test_div_by_a_stack_names_its_first_straddling_row():
    rows = stack(tri(1, 2, 3), tri(-1, 0.5, 2), tri(0, 1, 2))
    with pytest.raises(DivisorStraddlesZero, match=r"support \[-1, 2\]"):
        div(tri(1, 2, 3), rows)
    out = div(tri(1, 2, 3), stack(tri(1, 2, 3), tri(-3, -2, -1)))
    assert out.lower.shape == (2, len(GRID))


# -- gH-difference ----------------------------------------------------------------


def test_gh_self_is_zero():
    a = tri(0.3, 1.7, 5.0)
    out = gh_difference(a, a)
    assert out.proper
    assert hausdorff_distance(out, singleton(0.0, GRID)) == 0.0


def test_gh_inverts_addition():
    a, b = tri(1, 2, 3), tri(0.2, 0.5, 0.9)
    out = gh_difference(add(a, b), b)
    assert out.proper
    assert hausdorff_distance(out, a) <= 1e-9


def test_gh_of_constant_intervals():
    # [5, 7] minus [2, 3] per level: [min(3, 4), max(3, 4)] = [3, 4]
    g = AlphaGrid.uniform(5)
    a = FuzzyNumber(g, np.full(5, 5.0), np.full(5, 7.0))
    b = FuzzyNumber(g, np.full(5, 2.0), np.full(5, 3.0))
    out = gh_difference(a, b)
    assert np.all(out.lower == 3.0) and np.all(out.upper == 4.0)


def test_improper_result_flagged_and_rejected():
    bad = improper_example()
    good = tri(0, 1, 2)
    for op in (lambda: add(bad, good),
               lambda: mul(bad, good),
               lambda: scalar_mul(2.0, bad),
               lambda: pow_int(bad, 2),
               lambda: div(good, bad),
               lambda: hausdorff_distance(bad, good),
               lambda: resample(bad, SMALL)):
        with pytest.raises(ImproperOperand):
            op()
    # gh_difference itself still accepts proper inputs and may emit improper
    assert gh_difference(good, good).proper
    assert repr(bad) == "FuzzyNumber(support=[-1, 0], core=[0.5, 0.5], improper)"


# -- metric ------------------------------------------------------------------------


def test_hausdorff_zero_on_equal():
    a = tri(0.1, 0.4, 0.9)
    assert hausdorff_distance(a, a) == 0.0


def test_hausdorff_unit_shift():
    assert hausdorff_distance(tri(0, 1, 2), tri(1, 2, 3)) == pytest.approx(1.0)


def test_hausdorff_scaling():
    a, b = tri(0, 1, 2), tri(0.5, 1.2, 4.0)
    assert hausdorff_distance(scalar_mul(2, a), scalar_mul(2, b)) == pytest.approx(
        2 * hausdorff_distance(a, b)
    )


# -- summaries ----------------------------------------------------------------------


def test_core_submodule_is_not_shadowed():
    import fuzzcalc.core as m

    assert m is sys.modules["fuzzcalc.core"]


def test_support_core_defuzz():
    a = tri(2.1, 2.3, 2.5)
    assert a.support.lo == pytest.approx(2.1) and a.support.hi == pytest.approx(2.5)
    assert a.core.lo == pytest.approx(2.3) and a.core.hi == pytest.approx(2.3)
    t = defuzz_triplet(a)
    assert type(t) is tuple and t == pytest.approx((2.1, 2.3, 2.5))
    assert repr(a) == "FuzzyNumber(support=[2.1, 2.5], core=[2.3, 2.3])"


def test_resample_affine_exact():
    a = tri(1, 2, 4, AlphaGrid.uniform(11))
    b = resample(a, GRID)
    direct = tri(1, 2, 4, GRID)
    assert hausdorff_distance(b, direct) < 1e-12


# -- randomized properties -----------------------------------------------------------

finite = st.floats(min_value=-20, max_value=20, allow_nan=False)
widths = st.floats(min_value=0, max_value=10, allow_nan=False)


@st.composite
def triangulars(draw, grid=SMALL, positive=False):
    d = draw(st.floats(min_value=0.1, max_value=20) if positive else finite)
    e = d + draw(widths)
    f = e + draw(widths)
    return make_triangular((d, e, f), grid)


@settings(max_examples=100, deadline=None)
@given(triangulars(), triangulars())
def test_prop_results_stay_nested(a, b):
    for out in (add(a, b), mul(a, b), scalar_mul(-2.5, a), pow_int(a, 3)):
        assert np.all(out.lower <= out.upper + 1e-12)
        assert np.all(np.diff(out.lower) >= -1e-9)
        assert np.all(np.diff(out.upper) <= 1e-9)


@settings(max_examples=100, deadline=None)
@given(triangulars(), triangulars())
def test_prop_mul_four_product_oracle(a, b):
    out = mul(a, b)
    prods = np.stack([a.lower * b.lower, a.lower * b.upper,
                      a.upper * b.lower, a.upper * b.upper])
    assert np.array_equal(out.lower, prods.min(axis=0))
    assert np.array_equal(out.upper, prods.max(axis=0))
    rng = np.random.default_rng(1234)
    xs = rng.uniform(a.lower, a.upper, size=(100, len(SMALL)))
    ys = rng.uniform(b.lower, b.upper, size=(100, len(SMALL)))
    prods = xs * ys
    assert np.all(prods >= out.lower - 1e-9)
    assert np.all(prods <= out.upper + 1e-9)


# Envelope pairs (lower, upper) on a 5-level grid, ordered at every level,
# for the sign-class kernels: strictly positive, strictly negative, and
# class 0 (zeros of either sign, NaN, straddling, or a support of one sign
# around an inner cut that leaves it).
_TINY = 5e-324
_SIGNED = {
    "pos": ([1.0, 1.5, 2.0, 2.5, 3.0], [5.0, 4.5, 4.0, 3.5, 3.0]),
    "pos-subnormal": ([_TINY, 2 * _TINY, 1e-310, 1e-300, 1e-200], [1e-160, 1e-170, 1e-180, 1e-190, 1e-200]),
    "pos-inf": ([1.0, 1.0, 2.0, 2.0, 3.0], [np.inf, np.inf, 10.0, 5.0, 3.0]),
    "pos-slack": ([1.0, np.nextafter(1.0, 0.0), 1.5, 2.0, 2.0], [3.0, np.nextafter(3.0, 4.0), 2.5, 2.0, 2.0]),
}
_SIGNED.update({
    "neg" + name[3:]: ([-h for h in hi], [-l for l in lo]) for name, (lo, hi) in list(_SIGNED.items())
})
_CLASS_ZERO = {
    "straddle": ([-1.0, -0.5, 0.0, 0.5, 1.0], [2.0, 1.5, 1.2, 1.1, 1.0]),
    "zero-lower": ([0.0, 0.5, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 1.5, 1.0]),
    "negzero-lower": ([-0.0, 0.5, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 1.5, 1.0]),
    "zero-upper": ([-2.0, -2.0, -1.5, -1.0, -1.0], [0.0, -0.5, -1.0, -1.0, -1.0]),
    "negzero-upper": ([-2.0, -2.0, -1.5, -1.0, -1.0], [-0.0, -0.5, -1.0, -1.0, -1.0]),
    "signed-zeros": ([-0.0, -0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0]),
    "pos-support-inner-zeros": ([1.0, -0.0, 1.0, 1.0, 1.0], [3.0, 0.0, 2.0, 2.0, 1.0]),
    "pos-support-inner-subnormal": ([1e-300, -_TINY, 1e-300, 1e-300, 1e-300], [1.0, 1.0, 1.0, 1.0, 1.0]),
    "neg-support-inner-zero": ([-3.0, -2.0, -2.0, -2.0, -1.0], [-1.0, 0.0, -1.0, -1.0, -1.0]),
    "neg-support-inner-straddle": ([-4.0, -3.0, -2.0, -2.0, -2.0], [-1.0, 2.0, -1.0, -1.0, -1.0]),
    "pos-nan-lower": ([1.0, np.nan, 2.0, 2.0, 3.0], [5.0, 4.0, 4.0, 3.0, 3.0]),
    "pos-nan-upper": ([1.0, 1.0, 2.0, 2.0, 3.0], [5.0, np.nan, 4.0, 3.0, 3.0]),
    "neg-nan-lower": ([-5.0, np.nan, -4.0, -3.0, -3.0], [-1.0, -1.0, -2.0, -2.0, -3.0]),
    "neg-nan-upper": ([-5.0, -4.0, -4.0, -3.0, -3.0], [-1.0, np.nan, -2.0, -2.0, -3.0]),
    "real-line": ([-np.inf, -np.inf, -1.0, 0.0, 0.0], [np.inf, np.inf, 1.0, 0.0, 0.0]),
}
_GRID5 = AlphaGrid.uniform(5)
# built through _fresh: several of these do not nest, and the constructor refuses them
_OPERANDS = {name: _fresh(_GRID5, np.array(lo), np.array(hi))
             for name, (lo, hi) in {**_SIGNED, **_CLASS_ZERO}.items()}


def _four_product(a_lo, a_hi, b_lo, b_hi):
    # the general formula, in the order core evaluates it
    p1, p2, p3, p4 = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi
    return (np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
            np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)))


def _same_bytes(out, lower, upper):
    return out.lower.tobytes() == lower.tobytes() and out.upper.tobytes() == upper.tobytes()


@pytest.mark.parametrize("a_name", sorted(_OPERANDS))
def test_sign_class_kernels_match_min_max_formulas_bitwise(a_name):
    a = _OPERANDS[a_name]
    with np.errstate(all="ignore"):
        for b_name, b in _OPERANDS.items():
            assert _same_bytes(mul(a, b), *_four_product(a.lower, a.upper, b.lower, b.upper)), b_name
            if b.lower[0] <= 0.0 <= b.upper[0]:
                with pytest.raises(DivisorStraddlesZero):
                    div(a, b)
                continue
            r1, r2 = 1.0 / b.lower, 1.0 / b.upper
            want = _four_product(a.lower, a.upper, np.minimum(r1, r2), np.maximum(r1, r2))
            assert _same_bytes(div(a, b), *want), b_name
        for k in (2.5, -2.5, 0.0, -0.0, np.inf, -np.inf):
            x, y = k * a.lower, k * a.upper
            assert _same_bytes(scalar_mul(k, a), np.minimum(x, y), np.maximum(x, y)), k


@pytest.mark.parametrize("a_name", sorted(_OPERANDS))
def test_operations_with_a_pool_match_those_without_bitwise(a_name, same_bytes):
    # each kernel, with an empty pool, which allocates, and with one of stale
    # arrays to write into, against its public operation; the operands are
    # left as they were, and the public results are read-only
    a = _OPERANDS[a_name]
    kept = a.lower.tobytes(), a.upper.tobytes()

    def check(op, kernel, *args):
        for pool in ([], [np.full(len(_GRID5), 7.0) for _ in range(12)]):
            try:
                want = op(*args)
            except DivisorStraddlesZero as exc:
                with pytest.raises(DivisorStraddlesZero, match=re.escape(str(exc))):
                    kernel(*args, pool)
                continue
            got = kernel(*args, pool)
            assert same_bytes(got, want), (op.__name__, args)
            assert not (want.lower.flags.writeable or want.upper.flags.writeable)

    with np.errstate(all="ignore"):
        for b in _OPERANDS.values():
            check(add, _add, a, b)
            check(mul, _mul, a, b)
            check(div, _div, a, b)
            check(gh_difference, _gh_difference, a, b)
        for k in (2.5, -2.5, 0.0, -0.0, np.inf, -np.inf):
            check(scalar_mul, _scalar_mul, k, a)
        for n in range(5):
            check(pow_int, _pow_int, a, n)
    check(singleton, _singleton, -0.0, _GRID5)
    assert (a.lower.tobytes(), a.upper.tobytes()) == kept


def test_no_kernel_result_shares_memory_with_an_operand():
    # so that a writable value is one result that nothing else holds, and
    # _release may give it back whole
    pos, neg, straddle = _OPERANDS["pos"], _OPERANDS["neg"], _OPERANDS["straddle"]
    one = _singleton(2.0, _GRID5, None)  # one array for both envelopes
    cases = [(_add, pos, neg), (_mul, pos, neg), (_mul, pos, straddle), (_scalar_mul, -2.0, pos),
             (_div, straddle, neg), (_gh_difference, pos, neg), (_exp, straddle, _GRID5),
             (_sin, straddle, _GRID5), (_cos, straddle, _GRID5), (_singleton, -0.0, _GRID5),
             *((_pow_int, a, n) for a in (pos, straddle, one) for n in range(4))]
    # mul's two-product path (both operands signed) and its four-product path
    assert (_sign_class(pos), _sign_class(neg), _sign_class(straddle)) == (1, -1, 0)
    for pool in (None, [], [np.full(len(_GRID5), 7.0) for _ in range(12)]):
        for kernel, *args in cases:
            operands = [x for x in args if isinstance(x, FuzzyNumber)]
            out = kernel(*args, pool)
            for result in (out.lower, out.upper):
                assert not any(np.shares_memory(result, arr) for x in operands for arr in (x.lower, x.upper)), (
                    kernel.__name__, args)
                assert not any(result is arr for arr in pool or ()), (kernel.__name__, args)


def test_a_first_power_is_a_copy_of_its_operand_bit_for_bit():
    # +-0, +-inf, NaNs of either sign with payloads, subnormals, one level each
    special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -2.2e-308, 1.5])
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF4000000000ABC],
                    dtype=np.uint64).view(np.float64)
    lower = np.concatenate((special, nans))
    grid = AlphaGrid.uniform(lower.size)
    a = _fresh(grid, lower, lower[::-1].copy())
    for pool in (None, [], [np.full(lower.size, 7.0) for _ in range(2)]):
        out = _pow_int(a, 1, pool)
        assert out.lower.tobytes() == a.lower.tobytes() and out.upper.tobytes() == a.upper.tobytes()
        assert out.proper and out.lower.flags.writeable
    assert pow_int(tri(-1, -0.0, 2), 1) == tri(-1, -0.0, 2)


def test_release_gives_back_a_writable_value_once_and_keeps_a_sealed_one_out():
    pos = _OPERANDS["pos"]
    pool = []
    v = _add(pos, pos, None)
    _release(pool, v)
    assert len(pool) == 2 and pool[0] is v.lower and pool[1] is v.upper
    one = _singleton(2.0, _GRID5, None)
    _release(pool, one)
    assert len(pool) == 3 and pool[2] is one.lower is one.upper
    # sealed: a public result, a singleton, a constructed value, a wrapped one
    for sealed in (add(pos, pos), singleton(2.0, _GRID5), tri(1, 2, 3), pos):
        _release(pool, sealed)
    assert len(pool) == 3


def test_public_operations_take_no_pool_and_return_read_only_values():
    a, b = tri(1, 2, 3), tri(-3, -2, -1)
    results = [add(a, b), mul(a, b), div(a, b), scalar_mul(-2.0, a), gh_difference(a, b),
               singleton(2.0), *(pow_int(b, n) for n in range(4))]
    for v in results:
        assert not (v.lower.flags.writeable or v.upper.flags.writeable)
    for op in (add, mul, div, scalar_mul, pow_int, gh_difference, singleton):
        assert "_pool" not in inspect.signature(op).parameters, op.__name__


def _argmin_sign_class(lo, hi):
    # the classification as first written: argmin/argmax on the flat envelopes
    lo, hi = lo.ravel(), hi.ravel()
    if lo[lo.argmin()] > 0.0 and hi[hi.argmin()] > 0.0:
        return 1
    if hi[hi.argmax()] < 0.0 and lo[lo.argmax()] < 0.0:
        return -1
    return 0


def test_sign_class_matches_an_argmin_reference():
    envelopes = [(np.array(lo), np.array(hi)) for lo, hi in {**_SIGNED, **_CLASS_ZERO}.values()]
    # two-row stacks of every ordered pair: rows of one sign, of mixed signs,
    # or holding a zero, a NaN or an infinity
    envelopes += [(np.stack((a_lo, b_lo)), np.stack((a_hi, b_hi)))
                  for a_lo, a_hi in envelopes for b_lo, b_hi in envelopes]
    classes = set()
    for lo, hi in envelopes:
        want = _argmin_sign_class(lo, hi)
        assert _sign_class(_fresh(_GRID5, lo.copy(), hi.copy())) == want, (lo, hi)
        classes.add((lo.ndim, want))
    assert classes == {(ndim, s) for ndim in (1, 2) for s in (-1, 0, 1)}


class _CountedEnvelope(np.ndarray):
    """An envelope that counts how often it is read whole, by a ufunc
    reduction or by ``argmin``/``argmax``."""

    reads = 0

    def _read(self):
        type(self).reads += 1
        return self.view(np.ndarray)

    def argmin(self, *args, **kwargs):
        return self._read().argmin(*args, **kwargs)

    def argmax(self, *args, **kwargs):
        return self._read().argmax(*args, **kwargs)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [v._read() if isinstance(v, _CountedEnvelope) and method == "reduce"
                 else np.asarray(v) for v in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def test_a_value_multiplied_three_times_is_classified_once(monkeypatch):
    monkeypatch.setattr(_CountedEnvelope, "reads", 0)
    a = make_triangular((1, 2, 3), SMALL)
    x = _fresh(SMALL, a.lower.copy().view(_CountedEnvelope), a.upper.copy().view(_CountedEnvelope))
    for y in (make_triangular((0.5, 1, 4), SMALL), scalar_mul(-1.0, a), a):
        assert _same_bytes(mul(x, y), *_four_product(a.lower, a.upper, y.lower, y.upper))
    # a positive value is classified by the minimum of each envelope
    assert _CountedEnvelope.reads == 2


def test_pickled_and_copied_values_are_read_only_and_unclassified():
    # a writable copy that kept the original's sign class would let a write
    # send mul to the wrong kernel
    a = make_triangular((1, 2, 3), SMALL)
    assert _sign_class(a) == 1
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert b == a and b._sign is None
        assert not (b.lower.flags.writeable or b.upper.flags.writeable)
        with pytest.raises(ValueError):
            b.lower[0] = -1.0


def test_pickled_and_copied_grids_are_rebuilt_read_only():
    grid = AlphaGrid([0.0, 0.25, 1.0])
    value = make_triangular((1, 2, 3), grid)
    rebuilt = (pickle.loads(pickle.dumps(grid)), copy.deepcopy(grid),
               pickle.loads(pickle.dumps(value)).grid, copy.deepcopy(value).grid)
    for g in rebuilt:
        assert g is grid and type(g) is AlphaGrid
        assert not g.levels.flags.writeable
        with pytest.raises(ValueError):
            g.levels[1] = 0.9


def _bytes_allocated(fn):
    """``fn()`` and the bytes it allocates, freed or not: tracemalloc's peak
    above the current size, summed over the stretches between profile events
    (calls and returns, of C functions too)."""
    total = 0

    def stretch(frame, event, arg):
        nonlocal total
        current, peak = tracemalloc.get_traced_memory()
        total += peak - current
        tracemalloc.reset_peak()

    previous = sys.getprofile()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sys.setprofile(stretch)
        try:
            out = fn()
        finally:
            sys.setprofile(previous)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, total + peak - start


def test_mul_allocates_only_its_result_envelopes_whatever_the_length():
    def allocated(resolution):
        a = make_triangular((1, 2, 3), AlphaGrid.uniform(resolution))
        x, y = add(a, a), add(a, a)
        out, total = _bytes_allocated(lambda: mul(x, y))
        assert _same_bytes(out, x.lower * y.lower, x.upper * y.upper)
        return total

    allocated(11)  # numpy and the profile hook set up on first use
    grown = allocated(10001) - allocated(11)
    # what numpy's reductions take as workspace does not grow with the
    # length; an envelope read by argmin would, as it is copied first
    assert abs(grown - 2 * (10001 - 11) * 8) < 1024


def test_op_results_are_read_only_and_the_constructor_copies():
    lo = np.linspace(1.0, 2.0, len(SMALL))
    hi = np.full(len(SMALL), 2.0)
    a = FuzzyNumber(SMALL, lo, hi)
    lo[:] = 0.0
    hi[:] = 0.0
    assert a.lower[0] == 1.0 and a.upper[0] == 2.0
    results = (a, add(a, a), mul(a, a), mul(a, scalar_mul(-1.0, a)), scalar_mul(2.5, a),
               scalar_mul(0.0, a), div(a, a), pow_int(a, 3), gh_difference(a, a), singleton(1.0, SMALL))
    for out in results:
        for env in (out.lower, out.upper):
            assert not env.flags.writeable
            with pytest.raises(ValueError):
                env[0] = 0.0


@settings(max_examples=100, deadline=None)
@given(triangulars(positive=True), triangulars(positive=True))
def test_prop_positive_mul_is_endpointwise(a, b):
    out = mul(a, b)
    assert np.array_equal(out.lower, a.lower * b.lower)
    assert np.array_equal(out.upper, a.upper * b.upper)


@settings(max_examples=60, deadline=None)
@given(triangulars(), triangulars(positive=True), st.booleans())
def test_prop_div_contains_sampled_quotients(a, b, flip):
    if flip:
        b = scalar_mul(-1.0, b)
    out = div(a, b)
    rng = np.random.default_rng(7)
    xs = rng.uniform(a.lower, a.upper, size=(60, len(SMALL)))
    ys = rng.uniform(np.minimum(b.lower, b.upper), np.maximum(b.lower, b.upper),
                     size=(60, len(SMALL)))
    quots = xs / ys
    assert np.all(quots >= out.lower - 1e-9 * np.maximum(1, np.abs(out.lower)))
    assert np.all(quots <= out.upper + 1e-9 * np.maximum(1, np.abs(out.upper)))


@settings(max_examples=100, deadline=None)
@given(triangulars(), triangulars())
def test_prop_add_commutes_and_gh_inverts(a, b):
    ab, ba = add(a, b), add(b, a)
    assert hausdorff_distance(ab, ba) == 0.0
    back = gh_difference(ab, b)
    assert hausdorff_distance(back, a) <= 1e-9
    zero = gh_difference(a, a)
    assert hausdorff_distance(zero, singleton(0.0, SMALL)) == 0.0


@settings(max_examples=100, deadline=None)
@given(triangulars(), triangulars(), triangulars())
def test_prop_add_associates_to_rounding(a, b, c):
    left = add(add(a, b), c)
    right = add(a, add(b, c))
    scale = max(1.0, abs(left.support.lo), abs(left.support.hi))
    assert hausdorff_distance(left, right) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(triangulars(), triangulars(), triangulars())
def test_prop_metric_axioms(a, b, c):
    dab = hausdorff_distance(a, b)
    assert dab >= 0.0
    assert dab == hausdorff_distance(b, a)
    assert hausdorff_distance(a, a) == 0.0
    # triangle inequality
    assert dab <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12
    # translation invariance
    assert hausdorff_distance(add(a, c), add(b, c)) == pytest.approx(dab, abs=1e-9)
    # |k|-scaling
    assert hausdorff_distance(scalar_mul(-3, a), scalar_mul(-3, b)) == pytest.approx(
        3 * dab, abs=1e-9, rel=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(triangulars(), triangulars(), triangulars(), triangulars())
def test_prop_metric_subadditivity(u, v, w, e):
    # d(u + v, w + e) <= d(u, w) + d(v, e)
    lhs = hausdorff_distance(add(u, v), add(w, e))
    rhs = hausdorff_distance(u, w) + hausdorff_distance(v, e)
    assert lhs <= rhs + 1e-9


def test_stack_nests_only_if_every_row_does_at_its_own_scale():
    levels = np.linspace(0.0, 1.0, 11)
    big_lo, big_hi = 1e6 - 1.0 + levels, 1e6 + 1.0 - levels
    # a small row whose lower envelope dips by 1e-8: beyond its own slack
    # (1e-12), within the big row's (1e-6)
    small_lo, small_hi = levels.copy(), 2.0 - levels
    small_lo[5] = small_lo[4] - 1e-8
    assert _nested(big_lo, big_hi) and not _nested(small_lo, small_hi)
    assert not _nested(np.stack((big_lo, small_lo)), np.stack((big_hi, small_hi)))
    assert _nested(np.stack((big_lo, levels)), np.stack((big_hi, small_hi)))


def _nested_reference(lower, upper):
    # _nested as first written, with numpy's np.diff, np.all and np.max
    with np.errstate(invalid="ignore"):
        if lower.ndim == 1:
            scale = max(1.0, float(np.max(np.abs(lower))), float(np.max(np.abs(upper))))
        else:
            scale = np.fmax(np.fmax(1.0, np.max(np.abs(lower), axis=-1)),
                            np.max(np.abs(upper), axis=-1))[..., None]
        tol = _NEST_SLACK * scale
        return bool(np.all(np.diff(lower) >= -tol) and np.all(np.diff(upper) <= tol))


@pytest.mark.parametrize("resolution", [11, 101])
def test_nested_matches_the_numpy_wrapper_formula(resolution):
    levels = np.linspace(0.0, 1.0, resolution)
    k = resolution // 2
    cases = []
    for scale in (1.0, 1e-3, 1e6, 1e300):
        lo, hi = scale * levels, scale * (2.0 - levels)
        cases.append((lo, hi))
        tol = _NEST_SLACK * max(1.0, 2.0 * scale)
        # dips just inside, at and just beyond the slack
        for dip in (tol * (1 - 2**-20), tol, tol * (1 + 2**-20), 2 * tol):
            dipped_lo, risen_hi = lo.copy(), hi.copy()
            dipped_lo[k] = dipped_lo[k - 1] - dip
            risen_hi[k] = risen_hi[k - 1] + dip
            cases += [(dipped_lo, hi), (lo, risen_hi)]
    lo, hi = levels, 2.0 - levels
    for where, value in ((0, np.nan), (k, np.nan), (0, -np.inf), (-1, np.inf), (0, np.inf)):
        bad_lo, bad_hi = lo.copy(), hi.copy()
        bad_lo[where] = value
        bad_hi[where] = value
        cases += [(bad_lo, hi), (lo, bad_hi), (bad_lo, bad_hi)]
    cases.append((np.full(resolution, -np.inf), np.full(resolution, np.inf)))
    cases.append((np.where(levels < 0.5, -np.inf, 0.0), np.where(levels < 0.5, np.inf, 0.0)))
    # stacks of two rows, each row checked at its own scale
    stacks = [(np.stack((a_lo, b_lo)), np.stack((a_hi, b_hi))) for a_lo, a_hi in cases for b_lo, b_hi in cases]
    got = []
    for lo, hi in cases + stacks:
        want = _nested_reference(lo, hi)
        assert _nested(lo, hi) is want, (lo, hi)
        got.append((lo.ndim, want))
    assert set(got) == {(1, True), (1, False), (2, True), (2, False)}


def test_midpoint_halves_the_sum_unless_it_overflows():
    assert Interval(1.0, 2.0).midpoint == 1.5
    # halving first would round each subnormal end to zero
    assert Interval(5e-324, 5e-324).midpoint == 5e-324
    assert Interval(1.5e308, 1.7e308).midpoint == 1.6e308
    assert Interval(-1.7e308, -1.5e308).midpoint == -1.6e308
    assert Interval(1.0, np.inf).midpoint == np.inf
    assert math.isnan(Interval(-np.inf, np.inf).midpoint)
