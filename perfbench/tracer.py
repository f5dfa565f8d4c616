"""Run-time tracing of fuzzcalc from outside the package.

``Tracer.install`` replaces every public function of the traced modules,
in every fuzzcalc namespace that holds it (``expr._ev`` calls ``expr.add``,
not ``core.add``), plus ``FuzzyNumber.__init__``, with a wrapper that
records a span: name, start, end, parent span and task id.  Spans live in
flat ``array`` columns in memory; ``write`` dumps them at the end and
``layer_metrics`` derives self times and counts from them.  ``uninstall``
puts every original back.

A direct self-call (``differentiate`` recursing into ``differentiate``) is
not a new span: the wrapper passes it straight through, so counts are of
outermost calls.  Work the tracer itself does, such as walking a returned
expression tree, is recorded as a ``trace`` span so that it is not charged
to the caller's layer.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
from array import array
from time import perf_counter

LAYERS = ("core", "expr", "calculus", "series", "ivp", "cli")
CORE_OPS = ("add", "mul", "div", "scalar_mul", "gh_difference", "pow_int")
# envelopes read plus envelopes written by one op itself; the products
# inside div and pow_int are nested mul spans and are counted there
_ENVELOPES = {"add": 6, "mul": 6, "gh_difference": 6, "scalar_mul": 4, "div": 4, "pow_int": 0}

# the targets the per-layer metrics are computed from
REQUIRED = (
    *(f"core.{op}" for op in CORE_OPS),
    "core.FuzzyNumber.__init__",
    "expr.parse_expr",
    "expr.differentiate",
    "expr.evaluate",
    "calculus.mh_derivative",
    "calculus.continuity_probe",
    "series.taylor_series_of",
    "series.partial_sum",
    "ivp.solve",
    "ivp.total_derivatives",
    "cli.run",
)


def tree_stats(roots) -> tuple[int, int]:
    """(nodes, structurally distinct nodes) of expression trees.

    Nodes are counted as a tree, every occurrence once.  Distinct nodes are
    keyed by type and fields, with a fuzzy constant keyed by the identity of
    its FuzzyNumber (which is unhashable).
    """
    size: dict[int, int] = {}
    key_of: dict[int, int] = {}
    interned: dict[tuple, int] = {}
    keep = []

    def visit(node) -> int:
        nid = id(node)
        if nid in key_of:
            return key_of[nid]
        keep.append(node)
        fields = []
        total = 1
        for name in node.__dataclass_fields__:
            v = getattr(node, name)
            if hasattr(v, "__dataclass_fields__"):
                fields.append(("n", visit(v)))
                total += size[id(v)]
            elif type(v).__name__ == "FuzzyNumber":
                fields.append(("f", id(v)))
                keep.append(v)
            else:
                fields.append(("v", v))
        key = (type(node).__name__, tuple(fields))
        key_of[nid] = interned.setdefault(key, len(interned))
        size[nid] = total
        return key_of[nid]

    nodes = 0
    for root in roots:
        visit(root)
        nodes += size[id(root)]
    return nodes, len(interned)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.col_name = array("i")
        self.col_parent = array("i")
        self.col_task = array("i")
        self.col_aux = array("q")
        self.col_start = array("d")
        self.col_end = array("d")
        self.task = -1
        self.tallies: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._fns: list = [None]
        self._patched: list[tuple[object, str, object]] = []
        self._trace_id = self._name_id("trace")

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def tally(self, key: str, n: int) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + n

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, label: str, aux=None, post=None):
        nid = self._name_id(label)
        stack, fns = self._stack, self._fns
        names, parents, tasks = self.col_name, self.col_parent, self.col_task
        auxes, starts, ends = self.col_aux, self.col_start, self.col_end
        trace_id = self._trace_id
        tracer = self

        def wrapper(*args, **kwargs):
            if fns[-1] is fn:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            tasks.append(tracer.task)
            auxes.append(aux(args) if aux is not None else 0)
            ends.append(0.0)
            stack.append(i)
            fns.append(fn)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
                fns.pop()
            if post is not None:
                t0 = perf_counter()
                post(args, kwargs, result)
                names.append(trace_id)
                parents.append(stack[-1])
                tasks.append(tracer.task)
                auxes.append(0)
                starts.append(t0)
                ends.append(perf_counter())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        pkg = importlib.import_module("fuzzcalc")
        mods = {name: importlib.import_module(f"fuzzcalc.{name}") for name in LAYERS}
        namespaces = [pkg, *mods.values()]
        hooks = self._hooks()
        found = set()
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                label = f"{layer}.{name}"
                found.add(label)
                aux, post = hooks.get(label, (None, None))
                wrapped = self._wrap(fn, label, aux, post)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, attr, fn))
                            setattr(ns, attr, wrapped)
        fuzzy = getattr(mods["core"], "FuzzyNumber", None)
        if fuzzy is not None and "__init__" in vars(fuzzy):
            init = vars(fuzzy)["__init__"]
            self._patched.append((fuzzy, "__init__", init))
            fuzzy.__init__ = self._wrap(init, "core.FuzzyNumber.__init__")
            found.add("core.FuzzyNumber.__init__")
        warned = set(self.missing)
        self.missing = [t for t in REQUIRED if t not in found]
        for target in set(self.missing) - warned:
            print(f"warning: trace target {target} not found; its metrics are reported as missing",
                  file=sys.stderr)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _hooks(self) -> dict:
        def grid_size(args):
            for a in args:
                grid = getattr(a, "grid", None)
                if grid is not None:
                    return len(grid.levels)
            return 0

        def after_differentiate(args, kwargs, result):
            nodes, distinct = tree_stats([result])
            self.tally("expr.nodes_built", nodes)
            self.tally("expr.nodes_distinct", distinct)

        def after_evaluate(args, kwargs, result):
            self.tally("expr.nodes_evaluated", tree_stats([args[0]])[0])

        def after_mh_derivative(args, kwargs, result):
            x0 = args[2] if len(args) > 2 else kwargs["x0"]
            sched = args[4] if len(args) > 4 else kwargs.get("sched")
            h0 = getattr(sched, "h0", None)
            shrink = getattr(sched, "shrink", 0.5)
            if h0 is None:
                # the estimator's documented default initial step
                h0 = 0.125 * (1.0 + abs(0.5 * (float(x0.lower[0]) + float(x0.upper[0]))))
            self.tally("calculus.halvings", round(math.log(result.h_final / h0) / math.log(shrink)))

        def after_taylor(args, kwargs, result):
            self.tally("series.coefficients", len(result.coeffs))

        def after_solve(args, kwargs, result):
            self.tally("ivp.steps", len(result.truncation_magnitudes))

        def after_tower(args, kwargs, result):
            nodes, distinct = tree_stats(result)
            self.tally("ivp.tower_nodes", nodes)
            self.tally("ivp.tower_distinct", distinct)

        hooks = {f"core.{op}": (grid_size, None) for op in CORE_OPS}
        hooks.update({
            "expr.differentiate": (None, after_differentiate),
            "expr.evaluate": (None, after_evaluate),
            "calculus.mh_derivative": (None, after_mh_derivative),
            "series.taylor_series_of": (None, after_taylor),
            "ivp.solve": (None, after_solve),
            "ivp.total_derivatives": (None, after_tower),
        })
        return hooks

    # -- analysis -----------------------------------------------------------

    def write(self, path_stem: str) -> None:
        """Dump the span columns (``.bin``, native byte order) and their
        layout and name table (``.json``)."""
        columns = [("name", self.col_name), ("parent", self.col_parent), ("task", self.col_task),
                   ("aux", self.col_aux), ("start", self.col_start), ("end", self.col_end)]
        with open(path_stem + ".bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        meta = {
            "spans": len(self.col_name),
            "columns": [{"name": n, "typecode": c.typecode, "itemsize": c.itemsize} for n, c in columns],
            "byteorder": sys.byteorder,
            "names": self.names,
        }
        with open(path_stem + ".json", "w") as fh:
            json.dump(meta, fh)

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer numbers per pass over the workload's task list; every
        traced pass runs the same tasks, so counts divide evenly."""
        n = len(self.col_name)
        names = [self.names[i] for i in self.col_name]
        parents = self.col_parent
        dur = [self.col_end[i] - self.col_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        layer_self: dict[str, float] = {}
        name_self: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        # a parent span is always recorded before its children
        under_mh = [False] * n
        evaluations_under_mh = 0
        core_bytes = 0
        for i in range(n):
            name, own = names[i], dur[i] - child[i]
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            name_self[name] = name_self.get(name, 0.0) + own
            inclusive[name] = inclusive.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1
            p = parents[i]
            under_mh[i] = p >= 0 and (names[p] == "calculus.mh_derivative" or under_mh[p])
            if name == "expr.evaluate" and under_mh[i]:
                evaluations_under_mh += 1
            if layer == "core" and name[5:] in _ENVELOPES:
                core_bytes += _ENVELOPES[name[5:]] * self.col_aux[i] * 8

        def per_pass(total):
            return total // passes if isinstance(total, int) else total / passes

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        tally = self.tallies.get
        ops = per_pass(sum(calls.get(f"core.{op}", 0) for op in CORE_OPS))
        core_self = per_pass(layer_self.get("core", 0.0))
        estimates = per_pass(calls.get("calculus.mh_derivative", 0))
        m = {
            "core.ops": ops,
            "core.fuzzy_numbers": per_pass(calls.get("core.FuzzyNumber.__init__", 0)),
            "core.self_s": core_self,
            "core.us_per_op": ratio(core_self * 1e6, ops),
            "core.bytes_computed": per_pass(core_bytes),
            "expr.parse_calls": per_pass(calls.get("expr.parse_expr", 0)),
            "expr.parse_s": per_pass(inclusive.get("expr.parse_expr", 0.0)),
            "expr.differentiate_calls": per_pass(calls.get("expr.differentiate", 0)),
            "expr.differentiate_s": per_pass(inclusive.get("expr.differentiate", 0.0)),
            "expr.nodes_built": per_pass(tally("expr.nodes_built", 0)),
            "expr.nodes_distinct": per_pass(tally("expr.nodes_distinct", 0)),
            "expr.distinct_frac": ratio(tally("expr.nodes_distinct", 0), tally("expr.nodes_built", 0)),
            "expr.evaluate_calls": per_pass(calls.get("expr.evaluate", 0)),
            "expr.nodes_evaluated": per_pass(tally("expr.nodes_evaluated", 0)),
            "expr.evaluate_self_s": per_pass(name_self.get("expr.evaluate", 0.0)),
            "calculus.estimates": estimates,
            "calculus.mh_derivative_s": per_pass(inclusive.get("calculus.mh_derivative", 0.0)),
            "calculus.probe_s": per_pass(inclusive.get("calculus.continuity_probe", 0.0)),
            "calculus.iterations": ratio(per_pass(tally("calculus.halvings", 0)), estimates),
            "calculus.evaluations_per_estimate": ratio(per_pass(evaluations_under_mh), estimates),
            "series.taylor_series_of_s": per_pass(inclusive.get("series.taylor_series_of", 0.0)),
            "series.partial_sum_s": per_pass(inclusive.get("series.partial_sum", 0.0)),
            "series.coefficients": per_pass(tally("series.coefficients", 0)),
            "ivp.solve_s": per_pass(inclusive.get("ivp.solve", 0.0)),
            "ivp.steps": per_pass(tally("ivp.steps", 0)),
            "ivp.tower_s": per_pass(inclusive.get("ivp.total_derivatives", 0.0)),
            "ivp.tower_nodes": per_pass(tally("ivp.tower_nodes", 0)),
            "ivp.tower_distinct": per_pass(tally("ivp.tower_distinct", 0)),
        }
        shares = {layer: per_pass(layer_self.get(layer, 0.0)) for layer in (*LAYERS, "trace")}
        return {"metrics": self._blank_missing(m), "self_s": shares}

    def _blank_missing(self, m: dict) -> dict:
        """A metric whose target was not found is missing (None), never 0."""
        missing = set(self.missing)
        return {k: (None if missing.intersection(_needs(k)) else v) for k, v in m.items()}


def _needs(metric: str) -> tuple[str, ...]:
    """The trace targets a per-layer metric is computed from."""
    if metric == "core.fuzzy_numbers":
        return ("core.FuzzyNumber.__init__",)
    if metric.startswith("core."):
        return tuple(f"core.{op}" for op in CORE_OPS)
    if metric.startswith("expr.parse"):
        return ("expr.parse_expr",)
    if metric.startswith(("expr.differentiate", "expr.nodes_built", "expr.nodes_distinct", "expr.distinct")):
        return ("expr.differentiate",)
    if metric.startswith(("expr.evaluate", "expr.nodes_evaluated")):
        return ("expr.evaluate",)
    if metric == "calculus.probe_s":
        return ("calculus.continuity_probe",)
    if metric == "calculus.evaluations_per_estimate":
        return ("calculus.mh_derivative", "expr.evaluate")
    if metric.startswith("calculus."):
        return ("calculus.mh_derivative",)
    if metric == "series.partial_sum_s":
        return ("series.partial_sum",)
    if metric.startswith("series."):
        return ("series.taylor_series_of",)
    if metric.startswith(("ivp.solve", "ivp.steps")):
        return ("ivp.solve",)
    if metric.startswith("ivp.tower"):
        return ("ivp.total_derivatives",)
    return ()
