"""Differential check: run one fixed corpus against two source trees and
name every entry whose output moved.

    python3 tools/diffcheck.py PARENT_TREE CHANGE_TREE [--json PATH]

Each tree is a source checkout; its ``src/`` is imported in a subprocess of
its own, and both subprocesses run the same corpus, taken from this
checkout.  The corpus draws its inputs from the benchmark's builders in
``perfbench/`` (imported read-only) with fixed seeds:

* every taylor-swell shape at two centres: coefficients and partial sum;
  and each shape's series repeated in one process, at a second centre and
  by a second variable between;
* every ivp-wide form at order 4 and 3 steps, on 10001 levels, and the
  workload's own solve of ``a*y^3 + x`` at the seeds where it overflows;
* solves whose tower roots are a binding, a constant's value or an operand
  passed through, and one whose cos straddles zero, on 10001 levels: the
  values a solve's buffer pool must never give back;
* the derive-fine texts at 16 points, through ``mh_derivative`` at three
  tolerances and ``continuity_probe``;
* estimator inputs that stop just before, or raise at, a point whose
  support holds zero or whose value does not nest, one that does not
  converge and one whose values underflow; functions that do not read the
  variable, a point with -0.0 in its envelopes, probes of unsorted,
  repeated, single and no trial deltas, and an estimate whose backward
  extrapolant is improper;
* ``mul``, ``div`` and ``pow_int`` on operands whose sign class picks the
  kernel: zeros of either sign, infinite envelopes, NaN-bearing values and
  stacks whose rows share a sign or do not;
* ``radius_four_quotient``, ``radius_symbolic_ratio``, ``ratio_test`` and
  ``convergence_interval`` on the demo and test coefficient rules, a rule
  whose coefficients pass the float range, and Taylor series probed past
  their last coefficient;
* the cli-oneshot argvs, the error argvs of the failure contract and
  the help texts, each through ``cli.run`` in-process: exit code, stdout,
  stderr and the table it writes;
* each library argument bound, given an argument past it, among them a
  Taylor order past the float factorials, a grid resolution and a step
  count past their bounds, and negative indices of rule series;
* the constructor's refusals and the package's exported names.

Each entry records its result (envelope digests, properness, scalars) or
its error class and message.  Envelopes are compared by a digest of their
bytes, taken afresh in each run; none is committed, because numpy's bits
depend on the CPU's SIMD dispatch, so compare two trees on one host.

The JSON summary (stdout, or ``--json PATH``) names every moved entry, the
fields that moved (its kinds) and both sides' values of those fields.  Exit
status: 0 when no entry moved, 1 when some did.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import traceback
import warnings

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_NINES = "9" * 400
# argvs outside cli-oneshot: the failure contract's error inputs, a table,
# inputs whose report changed in earlier changes, and the help texts
EXTRA_ARGVS = (
    ["solve-ivp", "--rhs", "x^2 + y^2", "--x0", "T(0.7,1,1.2)", "--y0", "T(2.1,2.3,2.5)",
     "--h", "T(0.07,0.1,0.12)", "--order", "4", "--steps", "40"],
    ["eval", "--expr", "exp(x)", "--bind", "x=T(700,800,900)"],
    ["eval", "--expr", _NINES + " + x", "--bind", "x=1"],
    ["eval", "--expr", "T(1,2," + _NINES + ")"],
    ["series", "--coeff-rule", "99999^999 * n", "--radius-mode", "symbolic"],
    ["series", "--coeff-rule", _NINES + " * n", "--radius-mode", "symbolic"],
    ["series", "--coeff-rule", "n/0", "--radius-mode", "symbolic"],
    ["series", "--taylor-of", "exp(x)/" + _NINES[:201], "--var", "x", "--center", "T(-1,0,1)",
     "--order", "4"],
    ["series", "--taylor-of", "x^2*" + _NINES[:201] + "^2", "--var", "x", "--center", "T(-1,0,1)",
     "--order", "4"],
    ["eval", "--expr", "exp(x) - exp(x)", "--bind", "x=T(700,800,900)"],
    ["series", "--taylor-of", "exp(x)", "--var", "x", "--center", "T(-1,0,1)", "--order", "2"],
    ["eval", "--expr", "x - y", "--bind", "x=T(0,1,2)", "--bind", "y=T(0,0.5,3)"],
    ["eval", "--expr", "x^2", "--bind", "x=T(1,2,3)", "--out", "{tmp}/eval.csv"],
    ["eval", "--expr", "x^2", "--bind", "x=inf"],
    ["derive", "--expr", "x^2", "--var", "x", "--bind", "x=T(1,2,3)", "--tol", "-1"],
    # the core's midpoint, exp(709.5), overflows when summed as lo + hi
    ["series", "--taylor-of", "exp(x)", "--var", "x", "--center", "T(709,709.5,709.7)",
     "--order", "5"],
    # finite, but too large to scale by 100 for the 2dp triplet
    ["eval", "--expr", "x", "--bind", "x=1e307"],
    # arguments past a library bound, which the library alone checks
    ["series", "--taylor-of", "exp(x)", "--var", "x", "--center", "T(-1,0,1)", "--order", "-1"],
    ["eval", "--expr", "x", "--bind", "x=1", "--alphas", "1"],
    ["solve-ivp", "--rhs", "y", "--x0", "0", "--y0", "1", "--h", "0.1", "--order", "7"],
    ["eval", "--expr", "x^5000", "--bind", "x=1"],
    ["series", "--coeff-rule", "T(1,2,3)^(n+1100)", "--radius-mode", "symbolic"],
    ["series", "--coeff-rule", "n^1025", "--radius-mode", "symbolic"],
    ["series", "--taylor-of", "x", "--var", "x", "--center", "T(-1,0,1)", "--order", "171"],
    # a resolution past any allocation, and one step past the step bound (a
    # solve with no bound runs it, so it stays short)
    ["eval", "--expr", "x", "--bind", "x=T(1,2,3)", "--alphas", "1000000000000"],
    ["solve-ivp", "--rhs", "x + y", "--x0", "T(0,0.1,0.2)", "--y0", "T(1,1.1,1.2)", "--h", "T(0.001,0.002,0.003)",
     "--order", "2", "--steps", "10001"],
    # both radius modes' ratio-test values, and coefficients past the float range
    ["series", "--coeff-rule", "T(0.3,0.3,0.3)^(n)", "--radius-mode", "four-quotient"],
    ["series", "--coeff-rule", "n^400", "--radius-mode", "symbolic"],
    ["series", "--coeff-rule", "n^400", "--radius-mode", "four-quotient"],
    # the help texts, which name no default the parser leaves to the handlers
    ["--help"],
    *([command, "--help"] for command in ("eval", "derive", "series", "solve-ivp")),
)
# estimator inputs whose stopping point or first error a blocked evaluation
# could move: 0*(1/x) adds nothing but raises once a point's support holds
# zero, so the loop must stop before the points that raise, and the probe
# must check only the values it reaches
ESTIMATOR_INPUTS = (
    ("x + 0*(1/x)", (0.02, 0.03, 0.05), "mh_derivative", {}),
    ("x + 0*(1/x)", (0.005, 0.03, 0.2), "mh_derivative", {}),
    ("x + 0*(1/x)", (0.02, 0.03, 0.05), "continuity_probe", {"eps": 1.0}),
    ("1/x", (0.6, 0.8, 1.0), "continuity_probe", {"eps": 10}),
    ("exp(x)", (6, 7, 8), "mh_derivative", {}),
    # some shifts lose nestedness: ones never tried, then the first tried
    ("x^2 - T(0,1,1.5)", (-1.6, -1.5, -1.4), "continuity_probe", {"eps": 1.0}),
    ("x^2 - T(0,1,1.5)", (0.5, 1, 1.2), "continuity_probe", {"eps": 10}),
    # exp underflows to zero, which numpy ignores by default
    ("exp(x)", (-760, -750, -740), "mh_derivative", {}),
    ("exp(x)", (-760, -750, -740), "continuity_probe", {}),
    # f does not read x: its one row is broadcast over the stack
    ("T(1,2,3)", (0.6, 0.8, 1.0), "mh_derivative", {}),
    ("2", (0.6, 0.8, 1.0), "mh_derivative", {}),
    ("T(1,2,3)", (0.6, 0.8, 1.0), "continuity_probe", {}),
    ("2", (0.6, 0.8, 1.0), "continuity_probe", {}),
    # -0.0 atop the support: the estimate's x0 row is x0 + 0.0, the probe's x0
    ("exp(x)", (-2, -1, -0.0), "mh_derivative", {}),
    ("exp(x)", (-2, -1, -0.0), "continuity_probe", {"eps": 0.5}),
    # trial deltas unsorted and repeated, single, and none; the first tried
    # accepted, a later one, or none
    ("x", (0, 1, 2), "continuity_probe", {"eps": 0.1, "trial_deltas": (0.01, 1.0, 0.1, 0.1)}),
    ("x", (0, 1, 2), "continuity_probe", {"eps": 1.0, "trial_deltas": (0.5,)}),
    ("x", (0, 1, 2), "continuity_probe", {"eps": 0.1, "trial_deltas": (0.5,)}),
    ("1000 * x", (0, 1, 2), "continuity_probe", {"eps": 1e-6, "trial_deltas": (1.0, 0.5, 0.5, 2.0)}),
    ("x", (0, 1, 2), "continuity_probe", {"trial_deltas": ()}),
    # converges with an improper backward extrapolant
    ("cos(x) - x", (-1.154, -0.424, 0.398), "mh_derivative", {"tol": 0.01}),
)
# operands whose sign class picks mul's kernel, and so div's and pow_int's,
# bound as x = T(0,1,2), y = T(700,705,720) and w = T(700,800,900): zeros of
# either sign (-x has -0.0 atop its support), envelopes that exp overflows
# to inf, and values marked proper that hold NaN (0 * inf); where a zero
# meets an infinity only the four products give NaN
KERNEL_BINDINGS = {"x": (0, 1, 2), "y": (700, 705, 720), "w": (700, 800, 900)}
KERNEL_INPUTS = {
    "signed zeros": ("(-x)*T(1,2,3)", "x*(-x)", "(-x)/T(1,2,3)", "(-x)^3", "x^3"),
    "infinite envelopes": ("exp(y)*y", "exp(y)*(-y)", "y/exp(y)", "exp(y)^2", "x*exp(y)", "(-x)*exp(y)"),
    "NaN-bearing values": ("(exp(y)*0)*y", "y/(exp(y)*0)", "(exp(y)*0)^3",
                           "(exp(w)*0)*w", "(exp(w)*0)/w", "(exp(w)*0)^2"),
}
# right-hand sides whose D_k are a binding (x, y), a constant's value
# (T(1,2,3)), a crisp constant, repeated roots (every D_k past the last
# nonzero one is 0), operands that ^1 passes through (a binding and a
# product), and sin and cos about pi/2, where cos straddles zero and mul
# takes its four products
ALIAS_RHS = ("x", "y", "T(1,2,3)", "2", "y^1 + x", "(x*y)^1 + x", "sin(x)*cos(x)")
ALIAS_POINT = {"x0": (1.4, 1.6, 1.8), "y0": (1.0, 1.2, 1.5), "h": (0.05, 0.1, 0.12)}
# ivp-wide seeds whose a*y^3 + x overflows to an infinite envelope in its
# last step
OVERFLOW_SEEDS = (71, 1007)
RULES = ("n / T(4,5,6)^(n-1)", "1/n!", "T(1,2,3)", "2^3*n!/n^2", "3 * n^2 / 2", "n^400")
_ENVELOPE = re.compile(r"\.(lower|upper)$")


def _short(text: str) -> str:
    return re.sub(r"9{20,}", lambda m: f"<{len(m.group())} nines>", text)


def _digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()[:20]


# -- one tree: run the corpus ---------------------------------------------------------


def _library_entries(workloads, fc):
    """(id, thunk) pairs; a thunk returns a dict of named results."""
    import fuzzcalc

    core, series = fc.core, fc.series
    taylor = workloads.LIBRARY["taylor-swell"]
    for seed in (1, 2):
        for task in taylor.build(seed):
            def run(task=task):
                s, total = taylor.run(task)
                return {**{f"a_{k}": s.coefficient(k) for k in range(task["order"] + 1)}, "sum": total}
            yield f"taylor-swell:{seed}:{task['text']} at T{task['centre']}", run

    # one f three times in one process: by x, by y at another centre, then
    # by x at that centre; a derivative kept stale, or kept under the wrong
    # variable, moves an entry
    for task, other in zip(taylor.build(3), taylor.build(4)):
        def repeat(task=task, x1=other["x0"]):
            f, x0, order = task["expr"], task["x0"], task["order"]
            out = {}
            for label, var, centre, env in (("x", "x", x0, None), ("y", "y", x1, fc.expr.Env({"x": x0})),
                                            ("x again", "x", x1, None)):
                s = series.taylor_series_of(f, var, centre, order, env)
                out.update({f"{label}:a_{k}": s.coefficient(k) for k in range(order + 1)})
            return out
        yield f"taylor-swell repeat:3:{task['text']} at T{task['centre']} then T{other['centre']}", repeat

    def solved(problem):
        sol = fc.ivp.solve(problem)
        out = {"truncation": sol.truncation_magnitudes}
        for k, (x, y) in enumerate(sol.trajectory):
            out.update({f"x{k}": x, f"y{k}": y})
        return out

    ivp_wide = workloads.LIBRARY["ivp-wide"]
    for task in ivp_wide.build(1):
        p = task["problem"]
        yield (f"ivp-wide:1:y' = {task['rhs']}",
               lambda p=p: solved(fc.ivp.IvpProblem(rhs=p.rhs, x0=p.x0, y0=p.y0, h=p.h, order=4, steps=3)))
    for seed in OVERFLOW_SEEDS:
        for task in ivp_wide.build(seed):
            if "y^3" in task["rhs"]:
                yield f"ivp-wide:{seed}:y' = {task['rhs']}", lambda p=task["problem"]: solved(p)

    wide = core.AlphaGrid.uniform(ivp_wide.levels)
    point = {name: core.make_triangular(t, wide) for name, t in ALIAS_POINT.items()}
    for text in ALIAS_RHS:
        yield (f"ivp-alias:y' = {text} at {ALIAS_POINT}",
               lambda text=text: solved(fc.ivp.IvpProblem(fc.expr.parse_expr(text, wide), **point,
                                                          order=4, steps=3)))

    def mh(expr, x0, **kw):
        est = fc.calculus.mh_derivative(expr, "x", x0, **kw)
        return {"value": est.value, "left_value": est.left_value, "h_final": est.h_final, "gap": est.gap}

    derive = workloads.LIBRARY["derive-fine"]
    batch = derive.build(1)[0]
    for point, x0 in zip(batch["points"], batch["x0"]):
        for text, expr in zip(derive.texts, batch["exprs"]):
            yield f"derive-fine:1:mh_derivative of {text} at T{point}", lambda expr=expr, x0=x0: mh(expr, x0)
            for tol in (1e-5, 1e-9):
                yield (f"derive-fine:1:mh_derivative tol={tol:g} of {text} at T{point}",
                       lambda expr=expr, x0=x0, tol=tol: mh(expr, x0, tol=tol))
            yield (f"derive-fine:1:continuity_probe of {text} at T{point}",
                   lambda expr=expr, x0=x0: {"delta": fc.calculus.continuity_probe(expr, "x", x0)})

    # where the estimators stop, and which error they raise first
    grid = core.AlphaGrid.uniform(101)
    for text, triplet, how, kw in ESTIMATOR_INPUTS:
        f, x0 = fc.expr.parse_expr(text, grid), core.make_triangular(triplet, grid)
        if how == "mh_derivative":
            run = lambda f=f, x0=x0, kw=kw: mh(f, x0, **kw)
        else:
            run = lambda f=f, x0=x0, kw=kw: {"delta": fc.calculus.continuity_probe(f, "x", x0, **kw)}
        yield f"estimator:{how} of {text} at T{triplet} {kw}", run

    env = fc.expr.Env({v: core.make_triangular(t, grid) for v, t in KERNEL_BINDINGS.items()}, grid)
    for label, texts in KERNEL_INPUTS.items():
        yield (f"kernel:{label}",
               lambda texts=texts: {t: fc.expr.evaluate(fc.expr.parse_expr(t, grid), env) for t in texts})

    # operands only the core builds: stacks, read flat (rows of one sign take
    # two products, mixed rows four), and a NaN in one envelope, which the
    # two products would keep out of the other
    pos, wide = core.make_triangular((1, 2, 3), grid), core.make_triangular((0.5, 1, 4), grid)
    nan_lower = pos.lower.copy()
    nan_lower[50] = np.nan
    operands = {
        "positive stack of T(1,2,3) and T(0.5,1,4)": (np.stack((pos.lower, wide.lower)),
                                                      np.stack((pos.upper, wide.upper))),
        "mixed-sign stack of T(1,2,3) and -T(0.5,1,4)": (np.stack((pos.lower, -wide.upper)),
                                                         np.stack((pos.upper, -wide.lower))),
        "T(1,2,3) with a NaN in its lower envelope": (nan_lower, pos.upper),
    }
    for label, (lower, upper) in operands.items():
        def kernel_ops(lower=lower, upper=upper):
            s = core._fresh(grid, lower.copy(), upper.copy())
            outs = {"s*T": core.mul(s, pos), "T*s": core.mul(pos, s), "s*s": core.mul(s, s),
                    "s/T": core.div(s, pos), "T/s": core.div(pos, s), "s^3": core.pow_int(s, 3)}
            rows = {}
            for name, v in outs.items():  # one result per row of a stack
                for k, (lo, hi) in enumerate(zip(np.atleast_2d(v.lower), np.atleast_2d(v.upper))):
                    rows[f"{name}[{k}]"] = core._fresh(grid, lo, hi, v.proper)
            return rows
        yield f"kernel:{label}", kernel_ops

    zero = core.singleton(0.0, grid)
    tri = [core.make_triangular(t, grid) for t in ((1, 2, 3), (-1, 0, 1))]
    cases = {"[T(1,2,3)] * 40": lambda: series.FuzzyPowerSeries(zero, [tri[0]] * 40)}
    for rule in RULES:
        cases[f"rule {rule}"] = lambda rule=rule: series.FuzzyPowerSeries(
            zero, series.parse_coeff_rule(rule, grid))
    for text in ("exp(x)", "sin(x)", "cos(x)"):
        cases[f"taylor of {text} at T(-1,0,1), order 10"] = lambda text=text: series.taylor_series_of(
            fc.expr.parse_expr(text, grid), "x", tri[1], 10)
    for name, make in cases.items():
        def radius(how, make=make):
            r = how(make())
            return {"R": "infinite" if r.is_infinite else r.R, "mode": r.mode,
                    "L_lower": r.L_lower, "L_upper": r.L_upper}
        for n in (8, 16):
            yield (f"radius:four-quotient n={n}:{name}",
                   lambda n=n, radius=radius: radius(lambda s: series.radius_four_quotient(s, n)))
        yield f"radius:symbolic:{name}", lambda radius=radius: radius(series.radius_symbolic_ratio)
        for n in (8, 16):
            yield f"radius:ratio-test n={n}:{name}", lambda n=n, make=make: vars(series.ratio_test(make(), n))
    yield ("series:partial_sum of 3 terms of rule 1/n", lambda: {"sum": series.partial_sum(
        series.FuzzyPowerSeries(zero, series.parse_coeff_rule("1/n", grid)), core.singleton(0.5, grid), 3)})

    radii = {
        "symbolic radius of n / T(4,5,6)^(n-1)":
            lambda: series.radius_symbolic_ratio(cases["rule n / T(4,5,6)^(n-1)"]()).R,
        "symbolic radius of T(1,2,3)": lambda: series.radius_symbolic_ratio(cases["rule T(1,2,3)"]()).R,
        "four-quotient radius of [T(1,2,3)] * 40":
            lambda: series.radius_four_quotient(cases["[T(1,2,3)] * 40"](), 16).R,
        "0": lambda: zero,
        "1": lambda: core.singleton(1.0, grid),
    }
    centres = {"0": zero, "-T(1,2,3)": core.scalar_mul(-1.0, tri[0]), "T(-1,0,1)": tri[1]}
    for radius_name, radius in radii.items():
        for centre_name, centre in centres.items():
            def interval(radius=radius, centre=centre):
                b_lo, b_hi = series.convergence_interval(centre, radius())
                return {"b_lo": b_lo, "b_hi": b_hi}
            yield f"convergence-interval:{radius_name} about {centre_name}", interval

    # each argument bound, one argument past it: a bare ValueError is a breach
    one, parse, x = core.singleton(1.0, grid), fc.expr.parse_expr, fc.expr.parse_expr("x", grid)
    ivp = dict(rhs=parse("x + y", grid), x0=tri[0], y0=tri[0], h=tri[0])
    bounds = {
        "AlphaGrid([0])": lambda: core.AlphaGrid([0.0]),
        "AlphaGrid([0, 0.5])": lambda: core.AlphaGrid([0.0, 0.5]),
        "AlphaGrid([0, 0.5, 0.5, 1])": lambda: core.AlphaGrid([0.0, 0.5, 0.5, 1.0]),
        "AlphaGrid.uniform(1)": lambda: core.AlphaGrid.uniform(1),
        "AlphaGrid.uniform(2.5)": lambda: core.AlphaGrid.uniform(2.5),
        "AlphaGrid.uniform(1000002)": lambda: core.AlphaGrid.uniform(1_000_002),
        "FuzzyNumber of 2 levels on 3": lambda: core.FuzzyNumber(core.AlphaGrid.uniform(3), [0, 0], [1, 1]),
        "pow_int(T(1,2,3), -1)": lambda: core.pow_int(tri[0], -1),
        "pow_int(1, 2.5)": lambda: core.pow_int(one, 2.5),
        "pow_int(1, 1025)": lambda: core.pow_int(one, 1025),
        "PowInt(x, -1)": lambda: fc.expr.PowInt(fc.expr.Var("x"), -1),
        "parse_expr(x^1025)": lambda: parse("x^1025", grid),
        "mh_derivative tol=0": lambda: fc.calculus.mh_derivative(x, "x", tri[0], tol=0.0),
        "continuity_probe eps=0": lambda: fc.calculus.continuity_probe(x, "x", tri[0], eps=0.0),
        "FuzzyPowerSeries of no coefficients": lambda: series.FuzzyPowerSeries(zero, []),
        "partial_sum of 0 terms": lambda: series.partial_sum(cases["[T(1,2,3)] * 40"](), tri[0], 0),
        "partial_sum of 12 terms of 11 coefficients":
            lambda: series.partial_sum(cases["taylor of exp(x) at T(-1,0,1), order 10"](), tri[0], 12),
        "radius_four_quotient n=1": lambda: series.radius_four_quotient(cases["[T(1,2,3)] * 40"](), 1),
        "ratio_test n=1": lambda: series.ratio_test(cases["[T(1,2,3)] * 40"](), 1),
        "convergence_interval radius T(-1,0,1)": lambda: series.convergence_interval(zero, tri[1]),
        "taylor_series_of order -1": lambda: series.taylor_series_of(x, "x", tri[0], -1),
        "taylor_series_of order 171": lambda: series.taylor_series_of(x, "x", tri[0], 171),
        "rule 1/n! coefficient(-1)":
            lambda: series.FuzzyPowerSeries(tri[0], series.parse_coeff_rule("1/n!", grid)).coefficient(-1),
        "rule n*T(1,2,3)^(n) coefficient(-2)": lambda: series.FuzzyPowerSeries(
            tri[0], series.parse_coeff_rule("n*T(1,2,3)^(n)", grid)).coefficient(-2),
        "IvpProblem order=5": lambda: fc.ivp.IvpProblem(**ivp, order=5),
        "IvpProblem steps=0": lambda: fc.ivp.IvpProblem(**ivp, steps=0),
        "IvpProblem steps=10001": lambda: fc.ivp.IvpProblem(**ivp, steps=10_001),
        "IvpProblem rhs x + z": lambda: fc.ivp.IvpProblem(**{**ivp, "rhs": parse("x + z", grid)}),
        "IvpProblem h T(-1,0,1)": lambda: fc.ivp.IvpProblem(**{**ivp, "h": tri[1]}),
    }
    for name, call in bounds.items():
        yield f"bound:{name}", lambda call=call: {"value": call()}

    g3 = core.AlphaGrid([0.0, 0.5, 1.0])
    yield "core:crossed envelopes", lambda: {"value": core.FuzzyNumber(g3, [3, 3, 3], [1, 1, 1])}
    yield "core:core wider than support", lambda: {"value": core.FuzzyNumber(g3, [5, 3, 0], [6, 8, 10])}
    yield "core:non-finite triplet", lambda: {"value": core.make_triangular((1, 2, float("inf")), grid)}
    yield "api:package exports", lambda: {n: "exported" for n in dir(fuzzcalc) if n[0] != "_"}


def _fields(results: dict, workloads, fuzzy_number: type) -> tuple[dict, str | None]:
    """Comparable fields of one entry's results, and its contract breach."""
    fields, breach = {}, None
    for name, v in results.items():
        if isinstance(v, fuzzy_number):
            fields[f"{name}.lower"] = _digest(v.lower)
            fields[f"{name}.upper"] = _digest(v.upper)
            fields[f"{name}.proper"] = bool(v.proper)
            ends = [float(e) for e in (v.lower[0], v.upper[0], v.lower[-1], v.upper[-1])]
            fields[f"{name}.cuts"] = "support [{!r}, {!r}] core [{!r}, {!r}]".format(*ends)
            # an improper flag is a legitimate result (a gH-difference); a
            # proper flag on envelopes that cross or do not nest is not
            finite = np.isfinite(v.lower).all() and np.isfinite(v.upper).all()
            bad = "non-finite envelope" if not finite else v.proper and workloads.proper_finite(v)
            if bad and breach is None:
                breach = f"{name}: {bad}"
        else:
            fields[name] = repr(v)
    return fields, breach


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _run_cli(cli, errors, argv: list[str]) -> tuple[dict, str | None]:
    """One argv as a fresh ``python -m fuzzcalc`` process would end it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # a fresh process prints each warning once per source line
        warnings.simplefilter("default")
        warnings.showwarning = _show_warning
        try:
            code = cli.run(list(argv))
        except Exception as exc:  # the interpreter prints a traceback and exits 1
            code = 1
            err.write("Traceback (most recent call last):\n  ...\n")
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    fields = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    table = argv[argv.index("--out") + 1] if "--out" in argv else None
    if table and os.path.exists(table):
        with open(table) as fh:
            rows = fh.read().splitlines()
        os.remove(table)
        meta = [re.sub(r"^# generated: .*", "# generated: <time>", r) for r in rows if r.startswith("#")]
        fields["table.meta"] = "\n".join(meta)
        data = "\n".join(r for r in rows if not r.startswith("#"))
        fields["table.rows"] = hashlib.sha256(data.encode()).hexdigest()[:20]
    return fields, _cli_breach(errors, code, fields["stdout"], fields["stderr"])


def _cli_breach(errors, code, out: str, err: str) -> str | None:
    """Why a command broke the exit-code contract, or None."""
    if "Traceback" in err:
        return "traceback"
    if code == 0:
        return None
    if code not in (1, 2):
        return f"exit {code}"
    if code == 2 and err.startswith("usage:"):
        return None  # argparse's own usage error
    lines = err.splitlines()
    cls = getattr(errors, lines[-1].split(":", 1)[0], None) if lines else None
    if not (isinstance(cls, type) and issubclass(cls, errors.FuzzyError)):
        return f"error not named by the package: {lines[-1] if lines else ''!r}"
    if out or len(lines) != 1:
        return "a failing command printed more than its one error line"
    return None


def collect(tmp: str) -> dict:
    """Run the corpus against the imported ``fuzzcalc``: entry id ->
    {"fields": ..., "breach": why it broke the failure contract, or None}.

    ``tmp`` is an empty directory for the problem file and tables."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import cli_workload
        import workloads
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    import fuzzcalc.cli
    import fuzzcalc.core
    import fuzzcalc.errors

    tree = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(fuzzcalc.__file__))))
    records = {}
    for entry_id, thunk in _library_entries(workloads, workloads._fc()):
        try:
            with np.errstate(all="ignore"):
                fields, breach = _fields(thunk(), workloads, fuzzcalc.core.FuzzyNumber)
        except Exception as exc:
            fields = {"error": f"{type(exc).__name__}: {exc}"}
            breach = None if isinstance(exc, fuzzcalc.errors.FuzzyError) else f"raises {type(exc).__name__}"
        records[entry_id] = {"fields": fields, "breach": breach}

    argvs = [task["argv"] for task in cli_workload.build(1, tmp)]
    argvs += [[a.format(tmp=tmp) for a in argv] for argv in EXTRA_ARGVS]
    for argv in argvs:
        entry_id = "cli:" + _short(" ".join(argv)).replace(tmp, "<tmp>")
        fields, breach = _run_cli(fuzzcalc.cli, fuzzcalc.errors, argv)
        for key in ("stdout", "stderr"):
            text = fields[key].replace(tmp, "<tmp>").replace(tree, "<tree>")
            # a warning names its source line, which moves with unrelated edits
            fields[key] = re.sub(r"(<tree>\S*\.py):\d+:", r"\1:<line>:", text)
        records[entry_id] = {"fields": fields, "breach": breach}
    return records


# -- two trees: compare ------------------------------------------------------------


def _collect_in(tree: str) -> dict:
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isfile(os.path.join(src, "fuzzcalc", "__init__.py")):
        raise SystemExit(f"diffcheck: no fuzzcalc sources under {src}")
    tmp = tempfile.mkdtemp(prefix="diffcheck-")
    try:
        out = os.path.join(tmp, "records.json")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, os.path.abspath(__file__), "--collect", src, out],
                       cwd=tmp, env=env, check=True)
        with open(out) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _kind(field: str) -> str:
    return "envelope" if _ENVELOPE.search(field) else field.rsplit(".", 1)[-1]


def _side(record: dict, fields: list[str]) -> dict:
    return {k: record["breach"] if k == "breach" else record["fields"].get(k) for k in fields}


def compare(parent: dict, change: dict) -> dict:
    moved = []
    for entry_id in parent.keys() & change.keys():
        a, b = parent[entry_id], change[entry_id]
        fields = sorted(k for k in a["fields"].keys() | b["fields"].keys()
                        if a["fields"].get(k) != b["fields"].get(k))
        if a["breach"] != b["breach"]:
            fields.append("breach")
        if fields:
            moved.append({"id": entry_id, "kinds": sorted({_kind(f) for f in fields}),
                          "parent": _side(a, fields), "change": _side(b, fields)})
    moved.sort(key=lambda m: m["id"])
    by_kind = {}
    for m in moved:
        for kind in m["kinds"]:
            by_kind[kind] = by_kind.get(kind, 0) + 1
    return {
        "entries": len(parent.keys() & change.keys()),
        "errors": {side: sum("error" in r["fields"] or r["fields"].get("exit", 0) != 0
                             for r in recs.values()) for side, recs in (("parent", parent), ("change", change))},
        "breaches": {side: sorted(k for k, r in recs.items() if r["breach"])
                     for side, recs in (("parent", parent), ("change", change))},
        "only_in_parent": sorted(parent.keys() - change.keys()),
        "only_in_change": sorted(change.keys() - parent.keys()),
        "moved_by_kind": dict(sorted(by_kind.items())),
        "moved": moved,
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--collect"]:
        src, out = argv[1:3]
        import fuzzcalc
        if not os.path.abspath(fuzzcalc.__file__).startswith(src + os.sep):
            raise SystemExit(f"diffcheck: imported {fuzzcalc.__file__}, not the tree under {src}")
        with open(out, "w") as fh:
            json.dump(collect(os.path.dirname(out)), fh)
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="source tree of the parent commit")
    ap.add_argument("change", help="source tree of the change")
    ap.add_argument("--json", help="write the summary here instead of stdout")
    args = ap.parse_args(argv)
    summary = {"parent": args.parent, "change": args.change,
               **compare(_collect_in(args.parent), _collect_in(args.change))}
    text = json.dumps(summary, indent=1)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"diffcheck: {summary['entries']} entries, {len(summary['moved'])} moved "
          f"{summary['moved_by_kind']}", file=sys.stderr)
    return 1 if summary["moved"] or summary["only_in_parent"] or summary["only_in_change"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
