"""Expression parsing, range evaluation, and symbolic differentiation."""

import copy
import gc
import math
import os
import pickle
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzcalc
import fuzzcalc.core
import fuzzcalc.expr
import fuzzcalc.ivp
from fuzzcalc._counters import counting
from fuzzcalc.core import (
    AlphaGrid,
    _fresh,
    add,
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
    FuzzyError,
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
    Expr,
    FuzzyConst,
    GhSub,
    Mul,
    PowInt,
    Scale,
    Sin,
    Var,
    _evaluate,
    _plan,
    differentiate,
    evaluate,
    free_variables,
    parse_expr,
    to_text,
)
from fuzzcalc.ivp import IvpProblem, solve, total_derivatives
from fuzzcalc.series import taylor_series_of

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
    assert parse_expr("-x^2") == Scale(PowInt(Var("x"), 2), -1.0)
    assert parse_expr("(-x)^2") == PowInt(Scale(Var("x"), -1.0), 2)


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


def test_parse_refuses_a_crisp_literal_that_is_not_finite():
    with pytest.raises(ExprSyntaxError, match="too large") as exc:
        parse_expr("x + " + "9" * 400)
    assert exc.value.position == 4
    assert parse_expr("9" * 300) == CrispConst(float("9" * 300))
    # a triplet's components are read by the same reader, at their position
    with pytest.raises(ExprSyntaxError, match="too large") as exc:
        parse_expr("T(1, 2, -" + "9" * 400 + ")")
    assert exc.value.position == 9


def test_a_number_may_carry_an_exponent():
    # read as float reads it, in a literal and in a triplet's components
    assert parse_expr("T(1e-5,2e-5,3e-5)", GRID) == FuzzyConst(tri(float("1e-5"), float("2e-5"), float("3e-5")))
    assert parse_expr("2.5e-3*x") == Mul(CrispConst(float("2.5e-3")), Var("x"))
    assert parse_expr(".5E+2") == CrispConst(50.0)
    with pytest.raises(ExprSyntaxError, match="too large"):
        parse_expr("1e400*x")
    # an 'e' with no digits after it is a name, which no number may touch
    for text in ("2exp(x)", "2e+x"):
        with pytest.raises(ExprSyntaxError, match="^unexpected trailing input"):
            parse_expr(text)
    # the exponent after '^' is all digits
    with pytest.raises(ExprSyntaxError, match="^nonnegative integer expected") as exc:
        parse_expr("x^1e1")
    assert exc.value.position == 2


def test_to_text_round_trips():
    long_sum = " + ".join(f"x{i}" for i in range(600))
    for text in ("x^2 + y^2", "T(1,2,3)*sin(x)", "-x^2", "(x - y)/z", "exp(x)*cos(x)", "x + 2*2.5",
                 long_sum):
        node = parse_expr(text, GRID)
        assert parse_expr(to_text(node), GRID) == node


@pytest.mark.parametrize("value", [1e-7, 1e20, 5e-324, -2.5, 0.1, -2.0])
def test_to_text_renders_a_crisp_constant_that_reads_back_to_its_value(value):
    # no exponent notation, which the grammar lacks, and a minus that binds as
    # unary minus: (-2)^2 is 4, where -2^2 reads back as -4
    for node in (CrispConst(value), PowInt(CrispConst(value), 2)):
        assert evaluate(parse_expr(to_text(node))) == evaluate(node)


def test_free_variables():
    assert free_variables(parse_expr("x^2 + y*z - exp(w)")) == {"x", "y", "z", "w"}


def test_nodes_hash_structurally_with_bit_exact_leaves():
    # nodes are interned, so equal nodes are one object; both are kept alive,
    # since a node's hash is its identity's
    first, second = parse_expr("T(1,2,3)*x", GRID), parse_expr("T(1,2,3)*x", GRID)
    assert hash(first) == hash(second)
    assert first == second
    assert first is second
    long_sum = " + ".join(f"x{i}" for i in range(400))
    first, second = parse_expr(long_sum), parse_expr(long_sum)
    assert first == second
    assert first is second
    # leaves that can evaluate to different bits are different nodes
    assert CrispConst(0.0) != CrispConst(-0.0)
    assert CrispConst(0.0) is not CrispConst(-0.0)
    assert differentiate(parse_expr("cos(x)"), "y") != CrispConst(0.0)  # it is -0.0
    assert parse_expr("T(1,2,3)", GRID) != parse_expr("T(1,2,3)", AlphaGrid.uniform(11))
    improper = gh_difference(tri(0, 1, 1), tri(0, 0.5, 2))
    assert not improper.proper
    with pytest.raises(ImproperOperand, match=r"^fuzzy constant is an improper \(non-nested\) fuzzy number$"):
        FuzzyConst(improper)
    assert Add(Var("x"), Var("y")) != Mul(Var("x"), Var("y"))


def test_a_constant_parsed_on_a_grid_built_apart_holds_that_grid():
    first = parse_expr("T(1,2,3)", AlphaGrid.uniform(7))
    apart = AlphaGrid(np.linspace(0.0, 1.0, 7))
    node = parse_expr("T(1,2,3)", apart)
    assert node is first and node.value.grid is apart


def test_nodes_unpickle_with_another_hash_seed():
    # str hashes are salted per process, so a node pickled elsewhere must
    # still unpickle as the node built here
    src = os.path.dirname(os.path.dirname(fuzzcalc.__file__))
    code = "import pickle, sys; from fuzzcalc.expr import parse_expr; " \
        "sys.stdout.write(pickle.dumps(parse_expr('sin(x)*y + x')).hex())"
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                         timeout=60, check=True, text=True).stdout
    node = pickle.loads(bytes.fromhex(out))
    assert node == parse_expr("sin(x)*y + x")
    assert node is parse_expr("sin(x)*y + x")
    assert hash(node) == hash(parse_expr("sin(x)*y + x"))


def test_deep_nodes_pickle_flat_and_unpickle_as_the_interned_node():
    # children are named by index in one flat record list, so depth costs
    # the pickler no recursion
    long_sum = parse_expr(" + ".join(f"x{i}" for i in range(700)))
    assert pickle.loads(pickle.dumps(long_sum)) is long_sum
    node = parse_expr("sin(x)*exp(x)")
    for _ in range(20):
        node = differentiate(node, "x")
    assert pickle.loads(pickle.dumps(node)) is node
    # every leaf kind, an integer field that is not a child, a shared child
    cube = PowInt(FuzzyConst(tri(1, 2, 3)), 3)
    mixed = Add(Mul(cube, cube), GhSub(CrispConst(-0.0), Scale(Sin(Var("x")), -1.0)))
    assert pickle.loads(pickle.dumps(mixed)) is mixed
    assert pickle.loads(pickle.dumps([cube, mixed])) == [cube, mixed]


def test_the_scale_node_renders_pickles_and_differentiates(families):
    # the node of unary minus, and the one the step and the Taylor
    # coefficients scale their terms with: rendered as a product by its
    # factor, or as unary minus for -1, keyed by the factor's bits
    assert repr(Scale(Var("x"), 0.5)) == "Scale(0.5*x)"
    assert to_text(Add(Var("y"), Scale(Mul(Var("h1"), Var("x")), -0.25))) == "y + -0.25*(h1*x)"
    assert Scale(Var("x"), 0.0) is not Scale(Var("x"), -0.0)
    assert repr(Scale(Var("x"), -1.0)) == "Scale(-x)" and parse_expr("-x") is Scale(Var("x"), -1.0)
    assert differentiate(Scale(Var("x"), 0.5), "x") is CrispConst(0.5)
    # a root of a planned family: the solve's last term, a scaled product
    p = IvpProblem(parse_expr("x*y + 0.6875"), tri(0, 0.1, 0.2), tri(1, 1.1, 1.2), tri(0.01, 0.02, 0.03), order=2)
    _, (_, y_next, last) = families(fuzzcalc.ivp._step, p.rhs, p.order)
    assert repr(last) == "Scale(0.5*(h2*(y + x*(x*y + 0.6875))))"
    assert repr(y_next) == "Add(y + 1*(h1*(x*y + 0.6875)) + 0.5*(h2*(y + x*(x*y + 0.6875))))"
    for root in (last, y_next):
        assert pickle.loads(pickle.dumps(root)) is root
    assert differentiate(last, "h2") is Scale(differentiate(last.operand, "h2"), 0.5)
    assert differentiate(last, "x") is Scale(differentiate(last.operand, "x"), 0.5)


def test_deep_nodes_repr_without_recursion():
    text = " + ".join(["x"] * 2000)
    long_sum = parse_expr(text)
    assert repr(long_sum) == str(long_sum) == f"Add({text})"
    assert repr(PowInt(Var("x"), 3)) == "PowInt(x^3)"


def test_nodes_record_their_leading_child_fields_once():
    # a node's children are its first fields, recorded when it is built;
    # every walk reads that record
    for cls in Expr.__subclasses__():
        is_child = [f.type == "Expr" for f in cls.__dataclass_fields__.values()]
        assert is_child == sorted(is_child, reverse=True), cls
    sum_ = Add(Var("x"), CrispConst(2.0))
    assert PowInt(sum_, 3)._kids == (sum_,)
    assert sum_._kids == (Var("x"), CrispConst(2.0))
    assert Var("x")._kids == () and CrispConst(2.0)._kids == ()


def test_nodes_refuse_a_child_that_is_not_a_node_when_built():
    before = len(fuzzcalc.expr._NODES)
    for build, message in ((lambda: Add(Var("x"), 5), "not an expression node"),
                           (lambda: Scale("x", -1.0), "not an expression node"),
                           (lambda: PowInt(2.0, 3), "not an expression node"),
                           (lambda: Add(Var("x")), "Add takes 2 positional fields")):
        with pytest.raises(TypeError, match=message):
            build()
    assert len(fuzzcalc.expr._NODES) == before
    # a walk checks only the roots it is given, an unhashable one included
    for walk in (evaluate, lambda e: differentiate(e, "x"), free_variables, to_text):
        for root in ([1], 2.0, "x"):
            with pytest.raises(TypeError, match="not an expression node"):
                walk(root)
    # a family's plan names its first root that is not a node
    with pytest.raises(TypeError, match=r"^not an expression node: \[1\]$"):
        _plan(Var("x"), [1], 2.0)
    # and a class outside the twelve cannot be built, so a walk meets none
    class Twice(Scale):
        pass

    with pytest.raises(KeyError):
        Twice(Var("x"), 2.0)
    # leaf fields are values, not children
    assert PowInt(Var("x"), 3).exponent == 3 and CrispConst(5.0).value == 5.0


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
    assert not out.lower.flags.writeable and not out.upper.flags.writeable


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
    for out in (s, c):
        assert not out.lower.flags.writeable and not out.upper.flags.writeable


def _sin_range_with_ceil(lo, hi):
    # the critical-point tests rounded (lo - c)/2pi up with ceil first
    has_max = np.floor((hi - math.pi / 2) / (2 * math.pi)) >= np.ceil((lo - math.pi / 2) / (2 * math.pi))
    has_min = np.floor((hi + math.pi / 2) / (2 * math.pi)) >= np.ceil((lo + math.pi / 2) / (2 * math.pi))
    s_lo, s_hi = np.sin(lo), np.sin(hi)
    return (has_max, has_min, np.where(has_min, -1.0, np.minimum(s_lo, s_hi)),
            np.where(has_max, 1.0, np.maximum(s_lo, s_hi)))


def test_sin_range_without_ceil_matches_the_ceil_formula_bit_for_bit():
    # every pair of edge values as (lo, hi): multiples of pi/2 and their
    # neighbours, +-0, +-inf, NaN, huge values, and pairs wider than 2pi
    halves = [k * math.pi / 2 for k in range(-9, 10)]
    edges = halves + [np.nextafter(v, d) for v in halves for d in (-np.inf, np.inf)]
    edges += [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324, 7.0, -20.0, 40.0]
    lo, hi = (a.ravel() for a in np.meshgrid(np.array(edges), np.array(edges)))
    with np.errstate(invalid="ignore"):
        has_max, has_min, want_lo, want_hi = _sin_range_with_ceil(lo, hi)
        for shift in (-math.pi / 2, math.pi / 2):
            a, b = (hi + shift) / (2 * math.pi), (lo + shift) / (2 * math.pi)
            assert np.array_equal(np.floor(a) >= b, np.floor(a) >= np.ceil(b))
        assert has_max.any() and not has_max.all() and has_min.any() and not has_min.all()
        # with no pool, an empty one, and one holding stale arrays to write into
        for pool in (None, [], [np.full(lo.size, 123.0) for _ in range(3)]):
            got_lo, got_hi = fuzzcalc.core._sin_range(lo, hi, pool)
            assert got_lo.tobytes() == want_lo.tobytes()
            assert got_hi.tobytes() == want_hi.tobytes()


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


def test_eval_refuses_a_function_of_an_improper_value():
    env = Env({"x": tri(0, 1, 1), "y": tri(0, 0.5, 2)})
    with pytest.raises(ImproperOperand, match=r"^function argument is an improper \(non-nested\) fuzzy number$"):
        evaluate(parse_expr("exp(x - y)"), env)


def test_eval_crisp_expression_without_bindings():
    out = evaluate(parse_expr("2 * 3 + 1"))
    assert out.core.midpoint == pytest.approx(7.0)
    assert out.support.hi - out.support.lo == pytest.approx(0.0)


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


def test_eval_evaluates_equal_subtrees_once():
    u = "(sin(x)*exp(x))"
    expr = parse_expr(f"{u}*{u} + {u}*{u}")
    x = tri(0.2, 0.4, 0.5)
    uu = evaluate(parse_expr(f"{u}*{u}"), Env({"x": x}))
    with counting() as counts:
        out = evaluate(expr, Env({"x": x}))
    assert counts["mul"] == 2
    expect = add(uu, uu)
    assert out.lower.tobytes() == expect.lower.tobytes()
    assert out.upper.tobytes() == expect.upper.tobytes()


def test_a_nested_count_reaches_both_counters_and_restores_the_outer():
    env = Env({"x": tri(0.2, 0.4, 0.5)})
    assert fuzzcalc._counters.counts is None
    with counting() as outer:
        evaluate(parse_expr("x*x"), env)
        with counting() as inner:
            evaluate(parse_expr("x + x"), env)
        assert fuzzcalc._counters.counts is outer
        evaluate(parse_expr("exp(x)"), env)
    assert fuzzcalc._counters.counts is None
    assert (inner["nodes"], inner["add"], inner["mul"], inner["exp"]) == (2, 1, 0, 0)
    assert (outer["nodes"], outer["add"], outer["mul"], outer["exp"]) == (6, 1, 1, 1)


def test_family_walks_its_union_once_and_keeps_every_root(distinct_nodes, same_bytes):
    # roots that share subtrees, a root under another root, a repeated root
    # and an improper root; each value is the one evaluate gives it alone
    u = parse_expr("sin(x)*exp(x)")
    family = (u, Mul(u, u), Add(Mul(u, u), Var("x")), GhSub(Mul(u, u), Var("x")), u)
    env = Env({"x": tri(0.2, 0.4, 0.5)})
    loop = [evaluate(root, env) for root in family]
    assert not loop[3].proper
    with counting() as counts:
        values = _evaluate(_plan(*family), env.bindings, env.grid)
    assert counts["nodes"] == len(distinct_nodes(*family))
    assert len(values) == len(family)
    assert all(same_bytes(v, w) for v, w in zip(values, loop))
    # the same root in another family, in another place
    two, again = _evaluate(_plan(CrispConst(2.0), u), env.bindings, env.grid)
    assert same_bytes(two, singleton(2.0, GRID))
    assert same_bytes(again, loop[0])


# the messages of the parent's guards: an operation's, and exp, sin and cos's
_IMPROPER_OPERAND = "operand is an improper (non-nested) fuzzy number"
_IMPROPER_ARGUMENT = "function argument is an improper (non-nested) fuzzy number"


@pytest.mark.parametrize("text, error, message", [
    ("(x - y) + x", ImproperOperand, _IMPROPER_OPERAND),
    ("x + (x - y)", ImproperOperand, _IMPROPER_OPERAND),
    ("(x - y)*x", ImproperOperand, _IMPROPER_OPERAND),
    ("x/(x - y)", ImproperOperand, _IMPROPER_OPERAND),
    # its guard comes before div's check of the divisor's support
    ("(x - y)/x", ImproperOperand, _IMPROPER_OPERAND),
    ("(x - y)^2", ImproperOperand, _IMPROPER_OPERAND),
    ("(x - y)^1", ImproperOperand, _IMPROPER_OPERAND),
    ("(x - y)^0", ImproperOperand, _IMPROPER_OPERAND),
    ("-(x - y)", ImproperOperand, _IMPROPER_OPERAND),
    ("(x - y) - x", ImproperOperand, _IMPROPER_OPERAND),
    ("exp(x - y)", ImproperOperand, _IMPROPER_ARGUMENT),
    ("sin(x - y)", ImproperOperand, _IMPROPER_ARGUMENT),
    ("cos(x - y)", ImproperOperand, _IMPROPER_ARGUMENT),
    # the first error in walk order wins
    ("(x - y)*x + z", ImproperOperand, _IMPROPER_OPERAND),
    ("z + (x - y)*x", UnboundVariable, "variable 'z' is not bound"),
])
def test_an_improper_gh_difference_operand_raises_its_consumers_error(text, error, message, count_calls):
    # the tape checks a GhSub operand itself, and calls the guard only to
    # raise, naming the operand as the operation that reads it would; it
    # runs no operation's guard
    env = Env({"x": tri(0, 1, 1), "y": tri(0, 0.5, 2)})
    assert not evaluate(parse_expr("x - y"), env).proper
    proper, same_grid = (count_calls(fuzzcalc.core, name) for name in ("_require_proper", "_require_same_grid"))
    with pytest.raises(error) as exc:
        evaluate(parse_expr(text), env)
    assert str(exc.value) == message
    assert (proper[0], same_grid[0]) == (int(error is ImproperOperand), 0)


def test_a_warm_evaluation_calls_no_guard(count_calls, same_bytes):
    # every node kind, a GhSub operand among them: the plan's checks stand
    # in for the ops' guards
    text = "exp(x)*sin(x)/(2 + x^2) - cos(-x)*T(1,2,3) + (x - T(0,0.1,0.2))^3"
    env = Env({"x": tri(0.2, 0.4, 0.5)})
    plan = _plan(parse_expr(text), parse_expr("x^0"))
    first = _evaluate(plan, env.bindings, env.grid)
    proper, same_grid = (count_calls(fuzzcalc.core, name) for name in ("_require_proper", "_require_same_grid"))
    again = _evaluate(plan, env.bindings, env.grid)
    assert (proper[0], same_grid[0]) == (0, 0)
    assert len(first) == 2 and all(same_bytes(a, b) for a, b in zip(first, again))


def test_only_the_values_that_leave_are_read_only():
    # a kernel's result is writable; the roots an evaluation returns, a
    # binding among them, are read-only, pooled or not, so a pool's owner
    # never gives them back: only values that die inside the tape go to it
    env = Env({"x": tri(0.2, 0.4, 0.5)})
    assert fuzzcalc.core._add(env.bindings["x"], env.bindings["x"], None).lower.flags.writeable
    roots = (parse_expr("sin(x)*exp(x)"), parse_expr("x"), parse_expr("2"), parse_expr("(x*x)^1"))
    for pool in (None, []):
        values = [*_evaluate(_plan(*roots), env.bindings, env.grid, pool), evaluate(parse_expr("x - 2*x"), env)]
        assert len(values) == 5
        for v in values:
            assert not (v.lower.flags.writeable or v.upper.flags.writeable)
        assert pool is None or pool  # sin(x), exp(x) and x*x died inside


def test_family_raises_the_first_error_of_the_per_root_loop():
    shared = parse_expr("x + 1")
    straddles = Div(shared, Var("x"))
    unbound = Mul(shared, Var("y"))
    env = Env({"x": tri(-1, 0, 1)})
    for family, first in (((straddles, unbound), DivisorStraddlesZero),
                          ((unbound, straddles), UnboundVariable)):
        with pytest.raises(FuzzyError) as loop:
            [evaluate(root, env) for root in family]
        with pytest.raises(FuzzyError) as walk:
            _evaluate(_plan(*family), env.bindings, env.grid)
        assert type(loop.value) is first
        assert type(walk.value) is first
        assert str(walk.value) == str(loop.value)


def test_eval_keeps_signed_zero_leaves_apart():
    # were CrispConst(-0.0) and CrispConst(0.0) one node, the right operand
    # would be evaluated as the left and the sum's upper[0] would be -0.0;
    # the expected bytes are those of the unshared evaluation
    grid = AlphaGrid.uniform(3)
    x = Var("x")
    expr = Add(GhSub(CrispConst(-0.0), x), GhSub(CrispConst(0.0), x))
    out = evaluate(expr, Env({"x": tri(0, 1, 2, grid)}))
    assert out.lower.tobytes() == np.array([-4.0, -3.0, -2.0]).tobytes()
    assert out.upper.tobytes() == np.array([0.0, -1.0, -2.0]).tobytes()


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
    assert differentiate(parse_expr("cos(x)"), "x") == Scale(Sin(Var("x")), -1.0)
    assert differentiate(parse_expr("exp(x)"), "x") == Exp(Var("x"))


def test_derivative_constants_vanish():
    assert differentiate(parse_expr("T(1,2,3)", GRID), "x") == CrispConst(0.0)
    assert differentiate(CrispConst(4.2), "x") == CrispConst(0.0)
    assert differentiate(Var("y"), "x") == CrispConst(0.0)


@pytest.mark.parametrize("text, derivative", [
    ("x - 2*x", "-1"),  # the gH-difference's rule, folding two crisp constants
    ("x/2", "0.5"),  # a quotient of crisp constants folds
    ("x^2/1", "2*x"),  # and a division by 1 drops
    ("x^1", "1"),  # the power rule's u^0 is 1
    ("x^0", "0"),
])
def test_derivatives_fold_crisp_constants(text, derivative):
    assert to_text(differentiate(parse_expr(text), "x")) == derivative


def test_trig_towers_close_and_negations_cancel():
    # d/dx cos(x) is -sin(x) and d/dx -sin(x) is -cos(x), so the fourth
    # derivative is the node itself, not a chain of negations
    for text in ("sin(x)", "cos(x)"):
        node = derivative = parse_expr(text)
        for _ in range(4):
            derivative = differentiate(derivative, "x")
        assert derivative is node, text
    # 2*(-x) times d(-x) = -1: the two negations cancel
    assert differentiate(parse_expr("(-x)^2"), "x") is Mul(CrispConst(2.0), Var("x"))


def _negation_rules(x: Expr, y: Expr) -> list:
    """Each way the folding builders move a negation: the builder, its
    operands, the node they would build unfolded, and the node they build."""
    fscale, fmul, fadd = fuzzcalc.expr._fscale, fuzzcalc.expr._fmul, fuzzcalc.expr._fadd
    minus_x, minus_y, minus_one = Scale(x, -1.0), Scale(y, -1.0), CrispConst(-1.0)
    return [
        (fscale, (-1.0, minus_x), Scale(minus_x, -1.0), x),
        (fscale, (2.5, minus_x), Scale(minus_x, 2.5), Scale(x, -2.5)),
        (fscale, (-1.0, Scale(x, 2.5)), Scale(Scale(x, 2.5), -1.0), Scale(x, -2.5)),
        (fmul, (minus_x, y), Mul(minus_x, y), Scale(Mul(x, y), -1.0)),
        (fmul, (x, minus_y), Mul(x, minus_y), Scale(Mul(x, y), -1.0)),
        (fmul, (minus_x, minus_y), Mul(minus_x, minus_y), Mul(x, y)),
        (fmul, (minus_one, x), Mul(minus_one, x), minus_x),
        (fmul, (x, minus_one), Mul(x, minus_one), minus_x),
        (fadd, (minus_x, minus_y), Add(minus_x, minus_y), Scale(Add(x, y), -1.0)),
    ]


def test_folding_builders_keep_negation_outermost():
    x, y = Var("x"), Var("y")
    for build, operands, _, folded in _negation_rules(x, y):
        assert build(*operands) is folded, (build.__name__, operands)
    # a product of two factors other than -1 is not folded: it would round
    assert fuzzcalc.expr._fscale(0.5, Scale(x, 3.0)) is Scale(Scale(x, 3.0), 0.5)


@st.composite
def _signed_operand(draw, levels: int, rows: int):
    """A proper value on ``levels`` levels, or a (rows, levels) stack when
    ``rows``: each row triangular and positive, negative, straddling zero
    or with an endpoint at zero."""
    grid = AlphaGrid.uniform(levels)
    size = st.floats(min_value=0.01, max_value=50.0)
    values = []
    for _ in range(max(rows, 1)):
        kind = draw(st.sampled_from(("positive", "negative", "straddling", "zero end")))
        a, b, c = draw(size), draw(size), draw(size)
        if kind == "straddling":
            b = draw(st.floats(min_value=-a, max_value=c))
        triple = {"positive": (a, a + b, a + b + c), "negative": (-a - b - c, -a - b, -a),
                  "straddling": (-a, b, c), "zero end": (0.0, b, b + c)}[kind]
        values.append(make_triangular(triple, grid))
    if not rows:
        return values[0]
    return _fresh(grid, np.stack([v.lower for v in values]), np.stack([v.upper for v in values]))


@st.composite
def _operand_pairs(draw):
    levels, rows = draw(st.sampled_from((11, 101))), draw(st.integers(0, 3))
    return draw(_signed_operand(levels, rows)), draw(_signed_operand(levels, rows))


@settings(max_examples=80, deadline=None)
@given(_operand_pairs())
def test_prop_negation_rules_are_exact_on_the_tape(pair):
    # each rule's node has the unfolded node's value: bit for bit where no
    # endpoint is zero, and equal as floats where one is (a zero's sign may
    # flip: -(0*c) is -0.0 where (-0)*c may be 0.0)
    env = Env({"x": pair[0], "y": pair[1]})
    for _, _, unfolded, folded in _negation_rules(Var("x"), Var("y")):
        want, got = evaluate(unfolded, env), evaluate(folded, env)
        for w, g in ((want.lower, got.lower), (want.upper, got.upper)):
            assert w.shape == g.shape and np.array_equal(w, g), to_text(unfolded)
            nonzero = w != 0
            assert w[nonzero].tobytes() == g[nonzero].tobytes(), to_text(unfolded)


def test_a_power_keeps_an_int_exponent_whichever_spelling_is_built_first():
    for name, spellings in (("float_first", (2.0, 2)), ("int_first", (2, 2.0))):
        first, second = (PowInt(Var(name), n) for n in spellings)
        assert first is second
        assert type(first.exponent) is int and to_text(first) == f"{name}^2"


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


def test_repeated_derivative_work_is_bounded_by_distinct_nodes(distinct_nodes):
    # the 20th derivative of sin(x)*exp(x) is about 6.8 million nodes as a
    # tree but 64 distinct ones (negation kept outermost); each distinct
    # product is evaluated once
    grid = AlphaGrid.uniform(11)
    node = parse_expr("sin(x)*exp(x)")
    for _ in range(20):
        node = differentiate(node, "x")
    distinct = distinct_nodes(node)
    assert len(distinct) == 64
    assert free_variables(node) == {"x"}
    with counting() as counts:
        out = evaluate(node, Env({"x": tri(0.1, 0.2, 0.3, grid)}))
    assert counts["mul"] == sum(isinstance(n, Mul) for n in distinct)
    # the alpha = 1 core is the crisp 20th derivative, -2^10 * e^x * sin(x)
    assert out.core.midpoint == pytest.approx(-(2**10) * math.exp(0.2) * math.sin(0.2), rel=1e-9)


def test_dropped_derivative_leaves_the_intern_table_in_one_collection():
    # a derivative that contains its node (exp(x) is its own) makes that node
    # a reference cycle that holds the DAG under it; were nodes interned under
    # keys holding their children, one collection would free only the top
    # layer of the DAG
    gc.collect()
    before = len(fuzzcalc.expr._NODES)
    node = parse_expr("sin(x)*exp(x)")
    for _ in range(80):  # its 244 distinct nodes
        node = differentiate(node, "x")
    evaluate(node, Env({"x": tri(0.1, 0.2, 0.3, AlphaGrid.uniform(11))}))
    assert len(fuzzcalc.expr._NODES) > before + 200
    del node
    gc.collect()
    assert len(fuzzcalc.expr._NODES) == before
    grid = AlphaGrid.uniform(11)
    taylor_series_of(parse_expr("cos(x)*exp(x)"), "x", tri(0.1, 0.2, 0.3, grid), 12)
    problem = IvpProblem(parse_expr("x*y^2 + 0.25", grid), tri(0.7, 1, 1.2, grid),
                         tri(2.1, 2.3, 2.5, grid), tri(0.07, 0.1, 0.12, grid), order=4, steps=2)
    solve(problem)
    del problem
    gc.collect()
    assert len(fuzzcalc.expr._NODES) == before


def test_a_node_keeps_its_derivatives_only_while_it_lives():
    # the tower of a series hangs off f, so dropping f and the series frees
    # it in one collection (exp(u) is its own derivative); CrispConst(0.0),
    # every constant's derivative, is held, so that a constant some other
    # live tree holds cannot keep a new one
    zero = CrispConst(0.0)
    gc.collect()
    before = len(fuzzcalc.expr._NODES)
    f = parse_expr("sin(u)*exp(u) + T(1,2,5)*u^3")
    s = taylor_series_of(f, "u", tri(0.1, 0.2, 0.3), 8)
    # what stays is what the derivatives kept: the 45 new distinct nodes of
    # f, f', ..., f^(8), and d/du u = 1 and d/du cos(u) = -sin(u), which the
    # tower folds away; the scaled coefficients' family is a plan, no node
    assert len(fuzzcalc.expr._NODES) == before + 47
    alive = weakref.ref(f)
    del f, s
    gc.collect()
    assert alive() is None
    assert len(fuzzcalc.expr._NODES) == before


def test_derivatives_are_kept_per_variable():
    f = parse_expr("x*y + exp(x)")
    by_x, by_y = differentiate(f, "x"), differentiate(f, "y")
    assert by_x is Add(Var("y"), Exp(Var("x")))
    assert by_y is Var("x")
    assert differentiate(f, "x") is by_x and differentiate(f, "y") is by_y
    # cos(x) by y is -(sin(x)*0) = -0.0, whichever variable comes first
    for text, first in (("cos(x)", "x"), ("cos(x + 1)", "y")):
        node = parse_expr(text)
        differentiate(node, first)
        assert differentiate(node, "y") is CrispConst(-0.0), text
        assert differentiate(node, "x") is Scale(Sin(node.operand), -1.0), text


def test_kept_derivatives_are_neither_pickled_nor_copied():
    f = parse_expr("sin(x)*exp(y) + T(1,2,5)*x^2")
    before = pickle.dumps(f)
    differentiate(differentiate(f, "x"), "y")
    evaluate(f, Env({"x": tri(1, 2, 3), "y": tri(0, 1, 2)}))
    assert pickle.dumps(f) == before
    assert pickle.loads(before) is f
    assert copy.deepcopy(f) is f and copy.copy(f) is f


def test_an_evaluated_node_dies_with_its_last_reference():
    # its plan is kept in its memo and holds no node, so the node does not
    # hold itself and dies without a collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        e = parse_expr("x*y + 2.0625")
        evaluate(e, Env({"x": tri(1, 2, 3), "y": tri(0, 1, 2)}))
        alive = weakref.ref(e)
        del e
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_a_node_that_keeps_only_plans_dies_at_del():
    # a family's plan holds no node, so with the collector off a right-hand
    # side is freed after solve and after total_derivatives, and an f whose
    # derivatives do not contain it after taylor_series_of; a derivative
    # that is its node (d/dx exp(x + c) is exp(x + c)) keeps it until a
    # collection, the one path left open
    grid = AlphaGrid.uniform(11)
    point, step = tri(0.1, 0.2, 0.3, grid), tri(0.01, 0.02, 0.03, grid)
    uses = {
        "x*y + 0.5390625": lambda rhs: solve(IvpProblem(rhs, point, point, step, order=3, steps=2)),
        "x*y + 0.5546875": lambda rhs: total_derivatives(rhs, 3),
        "x^2*y + 0.5703125": lambda f: taylor_series_of(f, "x", point, 4, Env({"y": point})),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        for text, use in uses.items():
            node = parse_expr(text, grid)
            use(node)
            alive = weakref.ref(node)
            del node
            assert alive() is None, text
        node = parse_expr("exp(x + 0.5859375)")
        assert differentiate(node, "x") is node
        alive = weakref.ref(node)
        del node
        assert alive() is not None
        gc.collect()
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


# -- stacks: envelopes with a leading row axis --------------------------------------

POS, NEG, STRADDLE, WIDE = (0.5, 0.8, 1.2), (-2.0, -1.5, -0.7), (-0.5, 0.2, 1.0), (-4.0, 1.0, 7.0)


def stack_and_rows(text: str, rows):
    """``text`` evaluated once with x bound to a (rows, levels) stack of the
    triangular ``rows``, and once per row: (stacked envelopes broadcast to
    the stack's shape, its properness, the per-row values)."""
    f = parse_expr(text)
    xs = [tri(*r) for r in rows]
    got = evaluate(f, Env({"x": _fresh(GRID, np.stack([x.lower for x in xs]), np.stack([x.upper for x in xs]))}))
    shape = (len(xs), len(GRID))
    envelopes = (np.broadcast_to(got.lower, shape), np.broadcast_to(got.upper, shape))
    return envelopes, got.proper, [evaluate(f, Env({"x": x})) for x in xs]


@pytest.mark.parametrize(
    "text,rows",
    [
        ("2.5", [POS, NEG]),
        ("T(1,2,3)", [POS, NEG]),
        ("x", [POS, NEG, STRADDLE]),
        ("x + T(1,2,3)", [POS, NEG, STRADDLE]),
        ("-x", [POS, NEG, STRADDLE]),
        ("x^3", [POS, NEG, STRADDLE]),
        ("x * x", [POS, NEG, STRADDLE]),
        ("x * T(-1,0.5,2)", [POS, NEG]),
        ("x * T(-3,-2,-1)", [POS, (1, 2, 3)]),  # every row signed: two products
        ("x * T(1,2,3)", [POS, NEG]),  # rows of both signs: four products
        ("x / T(1,2,3)", [POS, NEG, STRADDLE]),
        ("T(1,2,3) / x", [POS, NEG, (0.1, 2.0, 9.0)]),
        ("exp(x)", [POS, NEG, WIDE]),
        ("sin(x)", [POS, NEG, WIDE]),
        ("cos(x)", [POS, NEG, WIDE]),
    ],
)
def test_stack_evaluates_each_row_bit_for_bit(text, rows):
    (lower, upper), proper, want = stack_and_rows(text, rows)
    assert lower.tobytes() == np.stack([w.lower for w in want]).tobytes()
    assert upper.tobytes() == np.stack([w.upper for w in want]).tobytes()
    assert proper and all(w.proper for w in want)


def test_stack_of_gh_differences_is_improper_iff_some_row_is():
    (lower, upper), proper, want = stack_and_rows("x - T(0,0.5,2)", [(0, 1, 1), (0, 1, 3), (-1, 1, 4)])
    assert [w.proper for w in want] == [False, True, True]
    assert lower.tobytes() == np.stack([w.lower for w in want]).tobytes()
    assert upper.tobytes() == np.stack([w.upper for w in want]).tobytes()
    assert not proper
    assert stack_and_rows("x - T(0,0.5,2)", [(0, 1, 3), (-1, 1, 4)])[1]


def stack_of(values) -> fuzzcalc.core.FuzzyNumber:
    return _fresh(GRID, np.stack([v.lower for v in values]), np.stack([v.upper for v in values]))


# derive-fine's texts, three that read no stack, and a division by it
@pytest.mark.parametrize("text", ["x^2", "x^3 + 2*x", "sin(x)*exp(x)", "exp(x)/T(1,2,3)",
                                  "T(1,2,3)", "2", "exp(y)", "1/x"])
def test_every_root_of_a_stacked_evaluation_has_the_stacks_shape(text):
    f, y = parse_expr(text), tri(0.1, 0.2, 0.4)
    xs = [tri(0.5, 0.8, 1.2), tri(0.6, 0.9, 1.1), tri(1.0, 1.3, 1.4)]
    values = _evaluate(_plan(f, Var("y")), {"x": stack_of(xs), "y": y}, GRID)
    assert [(v.lower.shape, v.upper.shape) for v in values] == [((3, len(GRID)),) * 2] * 2
    for i, x in enumerate(xs):
        want = evaluate(f, Env({"x": x, "y": y}))
        assert values[0].lower[i].tobytes() == want.lower.tobytes()
        assert values[0].upper[i].tobytes() == want.upper.tobytes()
    # rows 1 and 2 divide by a support holding zero: row 1 is refused, as alone
    g, bad = Div(f, Var("x")), [tri(-0.5, 0.2, 1.0), tri(-2, 0.1, 3)]
    with pytest.raises(DivisorStraddlesZero) as alone:
        evaluate(g, Env({"x": bad[0], "y": y}))
    with pytest.raises(DivisorStraddlesZero) as stacked:
        _evaluate(_plan(g), {"x": stack_of([xs[0], *bad]), "y": y}, GRID)
    assert str(stacked.value) == str(alone.value) == "divisor support [-0.5, 1] contains zero"
