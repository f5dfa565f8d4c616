"""Command-line front end: evaluate expressions, estimate derivatives,
analyze power series, and solve fully fuzzy IVPs, emitting alpha-cut CSV
tables and human-readable summaries.

Each command handler computes its result and returns a report; ``run``
alone writes the table and prints.  Exit codes: 0 success, with the
summary on stdout; 1 domain error, 2 usage or parse error (an argument
out of its bound is one), each with nothing on stdout and one
``Name: message`` line on stderr.

Handlers import what they run when they run, and the options whose
defaults and bounds other modules own (``--alphas``, ``--tol``) default
to None and are checked by those modules, so ``eval`` loads no calculus,
series or IVP code.  An error found in argv or problem-file text alone
loads no numpy: argparse's usage errors, ``--help``, and ``solve-ivp``'s
problem-file and field checks, which run before it imports the solver.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import warnings

from .errors import (
    ExprSyntaxError,
    FuzzyError,
    ImproperOperand,
    InvalidArgument,
    NoLimit,
    ProblemFileError,
)

PROBLEM_KEYS = ("command", "rhs", "x0", "y0", "h", "order", "steps", "alphas", "out")


# -- alpha-cut tables ---------------------------------------------------------------


def _fmt(x: float) -> str:
    # shortest decimal that round-trips the double
    return repr(float(x))


def write_alpha_csv(value, path, metadata: dict | None = None) -> None:
    """Write a fuzzy number's ``alpha,lower,upper`` rows in ascending alpha,
    LF-terminated.

    Metadata (the command and its inputs) goes into leading '#' comment
    lines, which golden comparisons ignore.

    A table is rewritten in place: opened without truncation and cut to the
    length written, so the path keeps its inode (a symlink or a hard link
    still names the table), and a rewrite does not wait, as a truncating
    open can, for the old rows to reach the disk.  A path that is not a
    regular file, such as ``/dev/stdout``, is written as a stream.
    """
    if not value.proper:
        raise ImproperOperand("refusing to serialize an improper fuzzy number")
    lines = []
    for key, val in (metadata or {}).items():
        lines.append(f"# {key}: {val}")
    lines.append("alpha,lower,upper")
    for a, lo, hi in zip(value.grid.levels, value.lower, value.upper):
        lines.append(f"{_fmt(a)},{_fmt(lo)},{_fmt(hi)}")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


# -- shared parsing helpers ------------------------------------------------------------


def _parse_fuzzy_value(text: str, grid):
    """Parse "T(d,e,f)" or a finite crisp number into a fuzzy number on ``grid``."""
    from .core import singleton
    from .expr import FuzzyConst, parse_expr

    text = text.strip()
    if text.startswith("T"):
        node = parse_expr(text, grid)
        if not isinstance(node, FuzzyConst):
            raise ProblemFileError(f"expected a triplet literal, got {text!r}")
        return node.value
    try:
        value = float(text)
    except ValueError:
        raise ProblemFileError(f"expected T(d,e,f) or a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ProblemFileError(f"expected a finite number, got {text!r}")
    return singleton(value, grid)


def _parse_bindings(pairs: list[str], grid):
    from .expr import Env

    bindings = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name.strip():
            raise ProblemFileError(f"binding must look like name=value, got {pair!r}")
        bindings[name.strip()] = _parse_fuzzy_value(value, grid)
    return Env(bindings, grid)


def _grid_from(alphas: int | None):
    """The alpha grid of ``--alphas``; the package default when not given."""
    from .core import DEFAULT_GRID, AlphaGrid

    if alphas is None:
        return DEFAULT_GRID
    return AlphaGrid.uniform(alphas)


def read_problem_file(path) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    out = {}
    try:
        with open(path) as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                key = key.strip()
                if not sep or key not in PROBLEM_KEYS:
                    raise ProblemFileError(f"{path}:{ln}: expected 'key = value' with "
                                           f"key in {PROBLEM_KEYS}, got {raw.strip()!r}")
                out[key] = value.strip()
    except OSError as exc:
        raise ProblemFileError(f"cannot read problem file: {exc}") from None
    return out


def _truncate2(x: float) -> float:
    # absorb float dust (1.2 + 0.12 = 1.3199999...) before chopping to 2dp
    scaled = round(x, 9) * 100.0
    if math.isinf(scaled) and math.isfinite(x):
        return x  # too large to scale, and so already an integer
    return math.trunc(scaled) / 100.0


def _triplet(value, label: str) -> tuple[float, float, float]:
    """A printed value's (support lo, core midpoint, support hi); the one check that it is proper."""
    if not value.proper:
        raise ImproperOperand(f"{label} is an improper fuzzy number (its alpha-cuts do not nest)")
    return value.support.lo, value.core.midpoint, value.support.hi


def _summary(value, label: str = "value") -> list[str]:
    """The lines that print ``value``."""
    full = _triplet(value, label)
    s, c = value.support, value.core
    rounded = tuple(_truncate2(v) for v in full)
    return [
        f"{label} support: [{_fmt(s.lo)}, {_fmt(s.hi)}]",
        f"{label} core: [{_fmt(c.lo)}, {_fmt(c.hi)}]",
        f"{label} triplet: ({', '.join(map(_fmt, full))})",
        f"{label} triplet (2dp): ({rounded[0]:.2f}, {rounded[1]:.2f}, {rounded[2]:.2f})",
    ]


# -- commands ------------------------------------------------------------------------------
#
# Each handler returns its report: (summary lines after the command name, the
# value for the table, the table path or None, the table metadata).


def _cmd_eval(args):
    from .expr import evaluate, parse_expr

    grid = _grid_from(args.alphas)
    env = _parse_bindings(args.bind, grid)
    node = parse_expr(args.expr, grid)
    value = evaluate(node, env)
    lines = [f"expression: {args.expr}", *_summary(value)]
    return lines, value, args.out, {"expression": args.expr}


def _cmd_derive(args):
    from .calculus import DEFAULT_TOL, mh_derivative
    from .expr import parse_expr

    grid = _grid_from(args.alphas)
    env = _parse_bindings(args.bind, grid)
    if args.var not in env.bindings:
        raise ProblemFileError(f"--var {args.var}: no binding given for it")
    x0 = env.bindings[args.var]
    node = parse_expr(args.expr, grid)
    est = mh_derivative(node, args.var, x0, env, DEFAULT_TOL if args.tol is None else args.tol)
    lines = [f"expression: {args.expr}  (d/d{args.var})", *_summary(est.value, "derivative"),
             f"one-sided gap: {_fmt(est.gap)}", f"final step: {_fmt(est.h_final)}"]
    return lines, est.value, args.out, {"expression": args.expr, "var": args.var}


def _taylor_probe(order: int) -> int:
    # probes at n and n/2 behave best when both indices fall at the same
    # phase of the sin/cos derivative cycle, so prefer multiples of 8
    avail = order - 1
    if avail >= 8:
        return (avail // 8) * 8
    return (avail // 2) * 2


def _cmd_series(args):
    from .core import singleton
    from .expr import parse_expr
    from .series import (
        FuzzyPowerSeries,
        parse_coeff_rule,
        radius_four_quotient,
        radius_symbolic_ratio,
        ratio_test,
        taylor_series_of,
    )

    grid = _grid_from(args.alphas)
    if bool(args.taylor_of) == bool(args.coeff_rule):
        raise ProblemFileError("give exactly one of --taylor-of or --coeff-rule")

    lines = []
    if args.taylor_of:
        if not (args.var and args.center and args.order is not None):
            raise ProblemFileError("--taylor-of needs --var, --center, and --order")
        center = _parse_fuzzy_value(args.center, grid)
        node = parse_expr(args.taylor_of, grid)
        s = taylor_series_of(node, args.var, center, args.order)
        lines.append(f"taylor expansion of: {args.taylor_of}  (order {args.order})")
        for k in range(min(args.order, 6) + 1):
            t = _triplet(s.coefficient(k), f"a_{k}")
            lines.append(f"  a_{k} triplet: ({', '.join(map(_fmt, t))})")
        mode = args.radius_mode or "four-quotient"
        n_probe = _taylor_probe(args.order)
        if mode == "four-quotient" and n_probe < 2:
            raise ProblemFileError("order too small to probe coefficient quotients")
    else:
        rule = parse_coeff_rule(args.coeff_rule, grid)
        s = FuzzyPowerSeries(singleton(0.0, grid), rule)
        lines.append(f"coefficient rule: {args.coeff_rule}")
        mode = args.radius_mode or "symbolic"
        n_probe = 16

    if mode == "symbolic":
        result = radius_symbolic_ratio(s)
    else:
        result = radius_four_quotient(s, n_probe)
    lines.append(f"radius mode: {result.mode}")
    if result.is_infinite:
        lines.append("radius: infinite")
    else:
        lines += _summary(result.R, "radius")
    lines.append(f"ratio-test values: L_lower={_fmt(result.L_lower)} L_upper={_fmt(result.L_upper)}")
    try:
        lines.append(f"ratio test converges: {ratio_test(s, n_probe).converges}")
    except NoLimit:
        lines.append("ratio test: no limit declared at the probe indices")
    return lines, result.R, args.out, {"radius_mode": result.mode}


def _cmd_solve_ivp(args):
    settings = read_problem_file(args.file) if args.file else {}
    if settings.get("command", "solve-ivp") != "solve-ivp":
        raise ProblemFileError(f"problem file is for {settings['command']!r}, not solve-ivp")
    for key in ("rhs", "x0", "y0", "h", "order", "steps", "alphas", "out"):
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag if isinstance(flag, str) else str(flag)
    missing = [k for k in ("rhs", "x0", "y0", "h") if k not in settings]
    if missing:
        raise ProblemFileError(f"missing problem fields: {', '.join(missing)}")

    try:
        alphas = int(settings["alphas"]) if "alphas" in settings else None
        counts = {k: int(settings[k]) for k in ("order", "steps") if k in settings}
    except ValueError as exc:
        raise ProblemFileError(f"bad integer field: {exc}") from None
    from .expr import parse_expr
    from .ivp import IvpProblem, solve

    grid = _grid_from(alphas)
    rhs = parse_expr(settings["rhs"], grid)
    x0, y0, h = (_parse_fuzzy_value(settings[k], grid) for k in ("x0", "y0", "h"))
    problem = IvpProblem(rhs=rhs, x0=x0, y0=y0, h=h, **counts)
    solution = solve(problem)
    x_final, y_final = solution.final
    steps = enumerate(solution.truncation_magnitudes, start=1)
    lines = [f"rhs: {settings['rhs']}", f"order: {problem.order}  steps: {problem.steps}",
             *(f"step {i} truncation magnitude: {_fmt(mag)}" for i, mag in steps),
             *_summary(x_final, "x"), *_summary(y_final, "y")]
    return lines, y_final, settings.get("out"), {"rhs": settings["rhs"]}


# -- entry points ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzcalc",
        description="Alpha-cut fuzzy calculus: arithmetic, mH-derivatives, "
        "power series, and fully fuzzy Taylor IVP solving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate an expression over fuzzy bindings")
    pe.add_argument("--expr", required=True, help="expression text")
    pe.add_argument("--bind", action="append", default=[], metavar="NAME=T(d,e,f)|V",
                    help="variable binding (repeatable)")
    pe.add_argument("--alphas", type=int, help="grid resolution")
    pe.add_argument("--out", help="alpha-cut CSV path")

    pd = sub.add_parser("derive", help="numerical mH-derivative at a fuzzy point")
    pd.add_argument("--expr", required=True)
    pd.add_argument("--var", required=True, help="differentiation variable")
    pd.add_argument("--bind", action="append", default=[], metavar="NAME=T(d,e,f)|V")
    pd.add_argument("--tol", type=float, help="limit tolerance")
    pd.add_argument("--alphas", type=int)
    pd.add_argument("--out", help="alpha-cut CSV path")

    ps = sub.add_parser("series", help="Taylor coefficients and convergence radius")
    ps.add_argument("--taylor-of", dest="taylor_of", help="expression to expand")
    ps.add_argument("--var", help="expansion variable")
    ps.add_argument("--center", help="T(d,e,f) or number")
    ps.add_argument("--order", type=int, help="number of derivative terms")
    ps.add_argument("--coeff-rule", dest="coeff_rule",
                    help="closed-form coefficients, e.g. 'n / T(4,5,6)^(n-1)'")
    ps.add_argument("--radius-mode", choices=("four-quotient", "symbolic"))
    ps.add_argument("--alphas", type=int)
    ps.add_argument("--out", help="alpha-cut CSV path for the radius")

    pi = sub.add_parser("solve-ivp", help="Taylor-method fully fuzzy IVP")
    pi.add_argument("--file", help="problem file (key = value lines)")
    pi.add_argument("--rhs", help="right-hand side F(x, y)")
    pi.add_argument("--x0", help="initial point, T(d,e,f) or number")
    pi.add_argument("--y0", help="initial value")
    pi.add_argument("--h", help="fuzzy step")
    pi.add_argument("--order", type=int)
    pi.add_argument("--steps", type=int)
    pi.add_argument("--alphas", type=int)
    pi.add_argument("--out", help="alpha-cut CSV path for the final value")

    return parser


_HANDLERS = {
    "eval": _cmd_eval,
    "derive": _cmd_derive,
    "series": _cmd_series,
    "solve-ivp": _cmd_solve_ivp,
}


def run(argv: list[str]) -> int:
    """Execute one command and return the process exit code; the only code
    that prints or writes a table.  Malformed input never raises.

    numpy's floating-point warnings (RuntimeWarning) are silenced, as they
    would name package source lines ahead of the error; ``_summary`` refuses
    every non-finite value it prints.  The filter loads no numpy.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            lines, value, out, meta = _HANDLERS[args.command](args)
            if out:
                write_alpha_csv(value, out, {"command": args.command, **meta})
                lines.append(f"alpha table written to {out}")
    except (FuzzyError, ValueError, ArithmeticError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ExprSyntaxError, InvalidArgument, ProblemFileError)) else 1
    print("\n".join([f"command: {args.command}", *lines]))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
