"""The benchmark's library workloads: seeded inputs, the timed call, and the
oracle check of each result.

A workload is a class with

* ``build(seed)``: generate the task list from the seed and build the
  inputs fuzzcalc receives (grid, parsed expressions, fuzzy numbers).  This
  is the set-up that ``setup_s`` times.
* ``reference(task)``: the crisp oracle values for one task, computed
  before the timer starts.
* ``run(task)``: the timed call into fuzzcalc.
* ``check(task, output, ref)``: ``None`` when the output passes, else the
  reason it fails.

The mix of expression shapes and orders is fixed per workload, so that the
work in one pass over the task list is the same for every seed; the seed
draws the numbers (centres, spreads, scale factors, points, steps) and the
order in which tasks run.  fuzzcalc only ever sees the generated inputs.
"""

from __future__ import annotations

import functools
import importlib
import random
from types import SimpleNamespace

import numpy as np

import oracle

# tolerance on alpha = 1 cores against the crisp oracle, relative to
# max(1, |reference|); the estimator's own stopping tolerance is 1e-7, and
# the largest errors seen were 8e-16 (Taylor, IVP) and 1.5e-8 (derivatives)
TAYLOR_RTOL = 1e-9
IVP_RTOL = 1e-9
DERIVATIVE_RTOL = 1e-6
# slack for float noise when checking that envelopes are nested
NEST_RTOL = 1e-9


@functools.cache
def _fc() -> SimpleNamespace:
    # by module, looked up at call time so that the tracer's wrappers apply;
    # the package attribute ``fuzzcalc.core`` is the function core(), not
    # the module
    return SimpleNamespace(**{
        name: importlib.import_module(f"fuzzcalc.{name}")
        for name in ("core", "expr", "calculus", "series", "ivp")
    })


def triangle(rng: random.Random, centre: tuple[float, float], spread: tuple[float, float]):
    e = rng.uniform(*centre)
    return (round(e - rng.uniform(*spread), 6), round(e, 6), round(e + rng.uniform(*spread), 6))


def proper_finite(value) -> str | None:
    """Independent check that a result is a proper fuzzy number with
    finite envelopes."""
    lo = np.asarray(value.lower)
    hi = np.asarray(value.upper)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        return "non-finite envelope"
    if not value.proper:
        return "result flagged improper"
    scale = max(1.0, float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
    tol = NEST_RTOL * scale
    if np.any(lo > hi + tol):
        return "lower envelope exceeds upper"
    if np.any(np.diff(lo) < -tol) or np.any(np.diff(hi) > tol):
        return "alpha-cuts not nested"
    return None


def core_miss(value, ref: float, rtol: float, what: str) -> str | None:
    tol = rtol * max(1.0, abs(ref))
    for got in (float(value.lower[-1]), float(value.upper[-1])):
        if not abs(got - ref) <= tol:
            return f"{what}: core {got!r} vs oracle {ref!r}"
    return None


class TaylorSwell:
    """Taylor coefficients of exp/sin/cos products and compositions, then a
    partial sum near the centre, on an 11-level grid."""

    name = "taylor-swell"
    levels = 11
    # (shape, order): orders that keep the slowest task well under a second;
    # exp(sin(x)) at order 10 takes about 30 s
    shapes = (
        ("{c}*sin(x)*exp(x)", 8),
        ("{c}*cos(x)*exp(x)", 8),
        ("{c}*exp(x)*sin(x)", 10),
        ("{c}*exp(x)*cos(x)", 10),
        ("{c}*sin(x)^2*exp(x)", 7),
        ("{c}*cos(x)^2*exp(x)", 7),
        ("{c}*sin(x)*cos(x)*exp(x)", 6),
        ("{c}*exp(sin(x))", 7),
        ("{c}*exp(cos(x))", 7),
        ("{c}*sin(exp(x))", 7),
        ("{c}*cos(exp(x))", 7),
    )

    def build(self, seed: int) -> list[dict]:
        fc = _fc()
        rng = random.Random(f"{self.name}:{seed}")
        grid = fc.core.AlphaGrid.uniform(self.levels)
        tasks = []
        for shape, order in self.shapes:
            text = shape.format(c=round(rng.uniform(0.5, 2.0), 4))
            centre = triangle(rng, (-1.0, 1.0), (0.02, 0.2))
            # spreads at least the centre's keep (point gH- centre) proper
            shift = rng.uniform(-0.1, 0.1)
            widen = rng.uniform(1.0, 1.5)
            e = centre[1] + shift
            point = (e - (centre[1] - centre[0]) * widen, e, e + (centre[2] - centre[1]) * widen)
            tasks.append({
                "text": text,
                "order": order,
                "centre": centre,
                "point": point,
                "expr": fc.expr.parse_expr(text, grid),
                "x0": fc.core.make_triangular(centre, grid),
                "at": fc.core.make_triangular(point, grid),
            })
        rng.shuffle(tasks)
        return tasks

    def reference(self, task: dict) -> dict:
        coeffs = oracle.taylor_coefficients(task["text"], "x", task["centre"][1], task["order"])
        return {"coeffs": coeffs, "sum": oracle.partial_sum(coeffs, task["centre"][1], task["point"][1])}

    def run(self, task: dict):
        fc = _fc()
        s = fc.series.taylor_series_of(task["expr"], "x", task["x0"], task["order"])
        return s, fc.series.partial_sum(s, task["at"], task["order"] + 1)

    def check(self, task: dict, output, ref: dict) -> str | None:
        s, total = output
        coeffs = [s.coefficient(k) for k in range(task["order"] + 1)]
        for k, (c, r) in enumerate(zip(coeffs, ref["coeffs"])):
            bad = proper_finite(c) or core_miss(c, r, TAYLOR_RTOL, f"a_{k}")
            if bad:
                return f"{task['text']} order {task['order']}: {bad}"
        bad = proper_finite(total) or core_miss(total, ref["sum"], TAYLOR_RTOL, "partial sum")
        return f"{task['text']}: {bad}" if bad else None


class DeriveFine:
    """mH-derivative then continuity probe of small expressions at seeded
    triangular points on the default 101-level grid.  One task is a batch
    of points, each with every text: a single estimate takes a few ms, short
    enough that one scheduling hiccup of the host decides the tail, and the
    host's speed flips within 100 ms batches too, so a batch is 16 points."""

    name = "derive-fine"
    levels = 101
    texts = ("x^2", "x^3 + 2*x", "sin(x)*exp(x)", "exp(x)/T(1,2,3)")
    points = 48
    batch = 16
    trial_deltas = (1.0, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001)

    def build(self, seed: int) -> list[dict]:
        fc = _fc()
        rng = random.Random(f"{self.name}:{seed}")
        grid = fc.core.AlphaGrid.uniform(self.levels)
        exprs = [fc.expr.parse_expr(text, grid) for text in self.texts]
        # supports inside (0, pi/2), where every text is monotone: where a
        # cut holds a critical point of sin, the mH-derivative of the
        # interval extension is not a proper fuzzy number and fuzzcalc
        # rightly raises ImproperOperand.  Centre and spreads are drawn as a
        # Latin hypercube, so every seed covers the range evenly.
        strata = [rng.sample(range(self.points), self.points) for _ in range(3)]

        def draw(axis: int, i: int, lo: float, hi: float) -> float:
            return lo + (hi - lo) * (strata[axis][i] + rng.random()) / self.points

        points = []
        for i in range(self.points):
            e = draw(0, i, 0.5, 1.2)
            points.append((round(e - draw(1, i, 0.05, 0.3), 6), round(e, 6), round(e + draw(2, i, 0.05, 0.3), 6)))
        return [
            {"points": batch, "exprs": exprs, "x0": [fc.core.make_triangular(p, grid) for p in batch]}
            for batch in (points[i:i + self.batch] for i in range(0, self.points, self.batch))
        ]

    def reference(self, task: dict) -> list[float]:
        return [oracle.derivative(text, "x", p[1]) for p in task["points"] for text in self.texts]

    def run(self, task: dict):
        fc = _fc()
        return [
            (fc.calculus.mh_derivative(expr, "x", x0), fc.calculus.continuity_probe(expr, "x", x0))
            for x0 in task["x0"]
            for expr in task["exprs"]
        ]

    def check(self, task: dict, output, ref: list[float]) -> str | None:
        cases = [(p, text) for p in task["points"] for text in self.texts]
        for (p, text), (est, delta), r in zip(cases, output, ref):
            bad = proper_finite(est.value) or core_miss(est.value, r, DERIVATIVE_RTOL, "derivative")
            if bad is None and delta is not None and delta not in self.trial_deltas:
                bad = f"continuity probe returned {delta!r}, not a trial delta"
            if bad:
                return f"{text} at T{p}: {bad}"
        return None


class IvpWide:
    """Order-4 Taylor solve over four steps on a 10001-level grid."""

    name = "ivp-wide"
    levels = 10001
    order = 4
    steps = 4
    forms = (
        "x^2 + y^2",
        "{a}*x*y + {b}*y",
        "exp({a}*x)*y",
        "sin(x) + {a}*y^2",
        "cos(x)*y + {a}*x",
        "{a}*y^3 + x",
        "x*y^2 + {a}",
    )

    def build(self, seed: int) -> list[dict]:
        fc = _fc()
        rng = random.Random(f"{self.name}:{seed}")
        grid = fc.core.AlphaGrid.uniform(self.levels)
        tasks = []
        for form in self.forms:
            rhs = form.format(a=round(rng.uniform(0.2, 0.8), 4), b=round(rng.uniform(0.2, 0.8), 4))
            x0 = triangle(rng, (0.5, 1.5), (0.05, 0.3))
            y0 = triangle(rng, (1.0, 2.5), (0.05, 0.3))
            h = triangle(rng, (0.05, 0.12), (0.005, 0.02))
            problem = fc.ivp.IvpProblem(
                rhs=fc.expr.parse_expr(rhs, grid),
                x0=fc.core.make_triangular(x0, grid),
                y0=fc.core.make_triangular(y0, grid),
                h=fc.core.make_triangular(h, grid),
                order=self.order,
                steps=self.steps,
            )
            tasks.append({"rhs": rhs, "x0": x0, "y0": y0, "h": h, "problem": problem})
        rng.shuffle(tasks)
        return tasks

    def reference(self, task: dict) -> tuple[float, float]:
        return oracle.ivp_taylor(task["rhs"], task["x0"][1], task["y0"][1], task["h"][1],
                                 self.order, self.steps)

    def run(self, task: dict):
        return _fc().ivp.solve(task["problem"])

    def check(self, task: dict, output, ref: tuple[float, float]) -> str | None:
        for k, point in enumerate(output.trajectory):
            for v in point:
                bad = proper_finite(v)
                if bad:
                    return f"y' = {task['rhs']}: step {k}: {bad}"
        x, y = output.final
        bad = core_miss(x, ref[0], IVP_RTOL, "x") or core_miss(y, ref[1], IVP_RTOL, "y")
        return f"y' = {task['rhs']}: {bad}" if bad else None


LIBRARY = {w.name: w for w in (TaylorSwell(), DeriveFine(), IvpWide())}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond
    it: (value, percentile, samples beyond).  Needs at least 11 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1
