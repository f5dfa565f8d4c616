"""Source hygiene: every name a module imports, at top level or inside a
function, is read somewhere in that module, in the package and in the
tests, tools and demos; only core handles envelope arrays; only core and
expr seal or release values; only core and expr call the tape's
kernels, so the work counts have one source; each kernel serves one
node class; only core's ``_count`` tests a count for integrality and
names one that is not an integer; only core's two value guards raise
``ImproperOperand`` and ``GridMismatch``; and only ``Expr.__new__`` writes
a node's ``__dict__`` and only ``expr._kept`` stores into a node's memo;
a root family's plan holds no node, so only derivatives keep nodes alive;
and a derivative rule builds arithmetic nodes only through the folding
builders."""

import ast
import gc
import pathlib
import types
from collections import Counter

import pytest

import fuzzcalc
import fuzzcalc.expr
import fuzzcalc.ivp
import fuzzcalc.series

PACKAGE = pathlib.Path(fuzzcalc.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(
    p for folder in ("tests", "tools", "demos") for p in (ROOT / folder).glob("*.py")
)


def source_id(path: pathlib.Path) -> str:
    return path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix()


def unread_imports(source: str) -> list[str]:
    """Names bound by imports that no expression in ``source`` reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=source_id)
def test_every_top_level_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def array_handling(source: str) -> list[str]:
    """Where ``source`` handles envelope arrays itself: takes one from a pool
    (``pool.pop``), marks one read-only or writable (``setflags``, or an
    assignment to ``flags.writeable``), or wraps arrays as a value unchecked
    (a call of the name ``_value``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in ("setflags", "_value") or (
                    name == "pop" and isinstance(f.value, ast.Name) and f.value.id == "pool"):
                found.append(f"line {node.lineno}: {ast.unparse(f)}(")
        elif (isinstance(node, ast.Attribute) and node.attr == "writeable" and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Attribute) and node.value.attr == "flags"):
            found.append(f"line {node.lineno}: {ast.unparse(node)} =")
    return found


def test_the_array_handling_check_matches_names_not_substrings():
    source = "pool.pop()\nv.lower.setflags(write=False)\na.flags.writeable = True\ncore._value(g, a, b)\n"
    assert len(array_handling(source)) == 4
    assert array_handling("_parse_fuzzy_value(t)\nbindings.pop(k)\nok = a.flags.writeable\n") == []


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "core.py"],
                         ids=source_id)
def test_only_core_takes_pools_seals_and_wraps_envelope_arrays(path):
    assert array_handling(path.read_text()) == []


def named(source: str) -> set[str]:
    """Every name ``source`` reads, binds, imports or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in ("core.py", "expr.py")],
                         ids=source_id)
def test_only_core_and_expr_seal_or_release_values(path):
    # the tape seals every value it returns and gives back those that die
    # inside it, so the algorithms around it only route values
    assert sorted(named(path.read_text()) & {"_frozen", "_release"}) == []


def imported_names(source: str) -> set[str]:
    """The names ``source`` takes with ``from ... import``."""
    return {a.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom) for a in node.names}


# the kernels the evaluation tape runs, by name
TAPE_KERNELS = {kernel.__name__ for kernel, *_ in fuzzcalc.expr._TAPE.values()}


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in ("core.py", "expr.py")],
                         ids=source_id)
def test_only_core_and_expr_import_the_tapes_kernels(path):
    # the solver's step, the Taylor coefficients and the partial sums run as
    # root families on the tape, so no module outside it calls a kernel
    assert sorted(imported_names(path.read_text()) & TAPE_KERNELS) == []


def test_only_the_tape_and_the_estimators_count_work():
    # the tape counts every kernel call; the estimators count their blocks
    counters = sorted(p.name for p in PACKAGE.glob("*.py") if "_counters" in imported_names(p.read_text()))
    assert counters == ["calculus.py", "expr.py"]


def test_each_tape_kernel_serves_one_node_class():
    # one node class per operation: unary minus is the scale node by -1, so
    # no second class runs the scale kernel
    served = Counter(kernel for kernel, *_ in fuzzcalc.expr._TAPE.values())
    assert {kernel.__name__: n for kernel, n in served.items() if n != 1} == {}


def integrality_tests(source: str) -> list[str]:
    """Where ``source`` tests a number for a fraction itself: ``x % 1``, or
    ``int(x)`` compared with ``x``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and isinstance(node.right, ast.Constant) and node.right.value == 1):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Compare):
            sides = [ast.dump(side) for side in (node.left, *node.comparators)]
            if any(isinstance(side, ast.Call) and isinstance(side.func, ast.Name) and side.func.id == "int"
                   and len(side.args) == 1 and sides.count(ast.dump(side.args[0]))
                   for side in (node.left, *node.comparators)):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_the_integrality_check_matches_tests_not_names():
    source = "a = n % 1 == 0\nb = int(x) == x\nc = y != int(y)\n"
    assert len(integrality_tests(source)) == 3
    assert integrality_tests("a = n % 10\nb = int(x) == y\nc = n % 1.5\nd = int(n)\n") == []


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "core.py"],
                         ids=source_id)
def test_only_core_tests_a_number_for_a_fraction(path):
    # every count goes through core._count, which tests integrality after its range
    assert integrality_tests(path.read_text()) == []


def innermost_scope(tree: ast.AST):
    """``where(node)``: the dotted name of the innermost function or class
    of ``tree`` holding ``node`` (``Expr.__new__``), None at top level."""
    spans = []

    def visit(parent: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                spans.append((child.lineno, child.end_lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    # spans are listed outside in, so the last one holding a line is the innermost
    return lambda node: ([name for lo, hi, name in spans if lo <= node.lineno <= hi] or [None])[-1]


def integer_messages(source: str) -> list[str | None]:
    """Where ``source`` raises an error saying a value "must be an integer":
    for each such raise, the scope holding it (see :func:`innermost_scope`)."""
    tree = ast.parse(source)
    where = innermost_scope(tree)
    return [where(node) for node in ast.walk(tree) if isinstance(node, ast.Raise)
            and any(isinstance(c, ast.Constant) and isinstance(c.value, str) and "must be an integer" in c.value
                    for c in ast.walk(node))]


def test_the_integer_message_check_names_where_each_text_is():
    source = ('"""n must be an integer"""\nraise V("n must be an integer")\n'
              'def f():\n    def g():\n        raise V(f"{w} must be an integer")\n')
    assert integer_messages(source) == [None, "f.g"]


def test_only_count_says_a_value_must_be_an_integer():
    # one message shape for every count: the one check's
    found = {path.name: integer_messages(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: where for name, where in found.items() if where} == {"core.py": ["_count"]}


# the errors of the two value invariants, each raised by one guard
GUARDED_ERRORS = ("ImproperOperand", "GridMismatch")


def guarded_errors(source: str) -> list[tuple[str, str | None]]:
    """Where ``source`` constructs ``ImproperOperand`` or ``GridMismatch``,
    by name or as an attribute: for each call, the class and the scope
    holding it (see :func:`innermost_scope`)."""
    tree = ast.parse(source)
    where = innermost_scope(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in GUARDED_ERRORS:
                found.append((name, where(node)))
    return found


def test_the_guarded_error_check_names_where_each_call_is():
    source = ('raise ImproperOperand("m")\ndef f():\n    def g():\n        raise errors.GridMismatch(m)\n'
              '    return ImproperOperand, issubclass(e, GridMismatch), ImproperOperands(m)\n')
    assert guarded_errors(source) == [("ImproperOperand", None), ("GridMismatch", "f.g")]


def test_only_the_guards_construct_their_errors():
    # one message shape per value invariant: each error has one raiser, in
    # core, and no other module imports either class
    found = {path.name: guarded_errors(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: where for name, where in found.items() if where} == {
        "core.py": [("ImproperOperand", "_require_proper"), ("GridMismatch", "_require_same_grid")]}
    importers = sorted(p.name for p in PACKAGE.glob("*.py") if imported_names(p.read_text()) & set(GUARDED_ERRORS))
    assert importers == ["core.py"]


# the dict methods that change a dict
MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def node_state_writes(source: str) -> list[tuple[str, str | None]]:
    """Where ``source`` handles a node's state itself: each use of an
    object's ``__dict__``, reads included (a read of a cache is half of its
    write), and each store into a memo (``<x>._kept``, or a name bound to
    one in the same scope) by a subscript assignment or ``del``, or by a
    dict method that changes it.  For each: ``"__dict__"`` or ``"memo"``,
    and the scope holding it (see :func:`innermost_scope`)."""
    tree = ast.parse(source)
    where = innermost_scope(tree)

    def is_memo(node: ast.AST) -> bool:
        return ((isinstance(node, ast.Attribute) and node.attr == "_kept")
                or (isinstance(node, ast.Name) and (where(node), node.id) in aliases))

    aliases = {(where(node), target.id) for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Attribute) and node.value.attr == "_kept"
               for target in node.targets if isinstance(target, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append(("__dict__", where(node)))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)) and is_memo(node.value):
            found.append(("memo", where(node)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS and is_memo(node.func.value)):
            found.append(("memo", where(node)))
    return sorted(found, key=str)


def test_the_node_state_check_names_each_write_and_its_scope():
    source = (
        "class Expr:\n    def __new__(cls):\n        node.__dict__.update(a=1)\n"
        "def _kept(node):\n    memo = node._kept\n    value = memo[key] = build(node)\n"
        "def f(node):\n    node._kept[k] = v\n    node._kept.setdefault(k, v)\n    del node._kept[k]\n"
        "    m = node._kept\n    m.update(x)\n    m[k] += 1\n    cached = node.__dict__.get('_plan')\n"
        "    # reads, and stores into other dicts, are not matched\n"
        "    v, w = node._kept[k], node._kept.get(k)\n    other[k] = memo.pop(k)\n    node.kept[k] = v\n"
        "def g(memo):\n    memo[k] = v\n"
    )
    assert node_state_writes(source) == sorted(
        [("__dict__", "Expr.__new__"), ("memo", "_kept"), ("__dict__", "f")] + [("memo", "f")] * 5, key=str)


def test_only_new_writes_a_nodes_dict_and_only_kept_stores_into_its_memo():
    # a node holds its fields, its children and one memo: Expr.__new__ sets
    # them, and _kept alone keeps what is built from a node (derivatives,
    # plans, root families), so no other place caches on a node
    found = {path.name: node_state_writes(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: where for name, where in found.items() if where} == {
        "expr.py": [("__dict__", "Expr.__new__"), ("memo", "_kept")]}


def test_a_node_holds_its_fields_its_children_and_one_memo():
    # after every kind of work that keeps something on a node: derivatives
    # by two variables, an evaluation, a Taylor series, a solve, a partial sum
    from fuzzcalc import Env, IvpProblem, differentiate, evaluate, make_triangular, parse_expr, partial_sum
    from fuzzcalc import solve, taylor_series_of

    x, y = make_triangular((0.7, 1, 1.2)), make_triangular((2.1, 2.3, 2.5))
    f = parse_expr("sin(x)*exp(y) + T(0,0.1,0.2)*x^2 + -y")
    g = parse_expr("(x - y)*x/(2 + cos(x))")
    differentiate(differentiate(g, "x"), "y")
    evaluate(g, Env({"x": x, "y": y}))
    partial_sum(taylor_series_of(f, "x", x, 4, Env({"y": y})), x, 3)
    solve(IvpProblem(f, x, y, make_triangular((0.07, 0.1, 0.12)), order=2, steps=1))
    nodes = fuzzcalc.expr._walk(tuple(fuzzcalc.expr._NODES.values()))
    assert {type(node) for node in nodes} == set(fuzzcalc.expr._TAPE)
    assert all(set(vars(node)) == {*node.__dataclass_fields__, "_kids", "_kept"} for node in nodes)


# what a holding check does not enter: a function's globals, a class's
# namespace and a module reach every node the package keeps
OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def nodes_held(value) -> list:
    """The expression nodes ``value`` holds at any depth, through every
    object it refers to (containers, instances, arrays) except the
    ``OPAQUE`` ones; a node found is not entered."""
    seen, found, stack = set(), [], [value]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, fuzzcalc.expr.Expr):
            found.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


def test_the_node_holding_check_finds_a_node_at_any_depth():
    x, y = fuzzcalc.expr.Var("x"), fuzzcalc.expr.Var("y")

    class Box:
        def __init__(self, content):
            self.content = content

    assert nodes_held(((1.5, [{"k": Box(frozenset({x}))}]),)) == [x]
    assert nodes_held(({y: 1}, Box(None), "x")) == [y]
    # a module's namespace holds its nodes; its functions, classes and the
    # module itself are not entered
    assert set(nodes_held(vars(fuzzcalc.series))) == {fuzzcalc.series._OFFSET, fuzzcalc.series._D}
    assert nodes_held((fuzzcalc.series.partial_sum, fuzzcalc.expr.Var, fuzzcalc.series)) == []


def test_a_family_plan_holds_no_node():
    # each builder of a root family returns its plan (slots, kernels, names,
    # constants' values), so what a node keeps holds a node only where it
    # is a derivative
    from fuzzcalc import Env, IvpProblem, differentiate, evaluate, make_triangular, parse_expr, partial_sum
    from fuzzcalc import solve, taylor_series_of

    x, y = make_triangular((0.7, 1, 1.2)), make_triangular((2.1, 2.3, 2.5))
    f = parse_expr("sin(x)*exp(y) + T(0,0.1,0.2)*x^2 + -y")
    built = [fuzzcalc.series._coefficients(f, "x", 4), fuzzcalc.series._terms(fuzzcalc.series._D, 5),
             fuzzcalc.ivp._step(f, 3)]
    assert [nodes_held(value) for value in built] == [[]] * 3
    assert nodes_held(fuzzcalc.expr._plan(f, fuzzcalc.expr.Var("x"), f)) == []
    differentiate(f, "y")
    evaluate(f, Env({"x": x, "y": y}))
    partial_sum(taylor_series_of(f, "x", x, 4, Env({"y": y})), x, 3)
    solve(IvpProblem(f, x, y, make_triangular((0.07, 0.1, 0.12)), order=2, steps=1))
    holders = {key[0] for node in list(fuzzcalc.expr._NODES.values())
               for key, value in node._kept.items() if nodes_held(value)}
    assert holders == {fuzzcalc.expr._derivative}


# the node classes a folding builder builds, which a derivative rule must
# not build itself
FOLDED_CLASSES = {"Add", "GhSub", "Mul", "Div", "PowInt", "Scale"}


def rule_calls(source: str) -> list[str]:
    """The names ``expr._derivative`` in ``source`` calls, by name or as an
    attribute, each with its line, in line order: its builders and its
    constructors."""
    tree = ast.parse(source)
    where = innermost_scope(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (where(node) or "").split(".")[0] == "_derivative":
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            found.append((node.lineno, name))
    return [f"{name}:{line}" for line, name in sorted(found, key=lambda call: call[0])]


def direct_builds(source: str) -> list[str]:
    """Where ``expr._derivative`` builds a folded node class itself."""
    return [call for call in rule_calls(source) if call.partition(":")[0] in FOLDED_CLASSES]


def test_the_rule_build_check_names_each_direct_construction():
    source = ("def _derivative(e, var):\n    if e:\n        return _fmul(Cos(e.operand), d[0])\n"
              "    def rule():\n        return expr.Scale(d[0], 2.0)\n    return Mul(e.left, d[1])\n"
              "def other():\n    return Mul(a, b)\n")
    assert direct_builds(source) == ["Scale:5", "Mul:6"]
    assert direct_builds("def _derivative(e, var):\n    return _fadd(_fmul(a, b), Sin(c))\n") == []


def test_every_derivative_rule_builds_through_the_folding_builders():
    # so the builders' folds, negation kept outermost among them, see every
    # node a derivative is made of; the function nodes a chain rule needs
    # (Cos, Sin) and crisp constants are built directly
    source = (PACKAGE / "expr.py").read_text()
    assert direct_builds(source) == []
    assert {call.partition(":")[0] for call in rule_calls(source)} >= {"_fadd", "_fmul", "_fscale"}
