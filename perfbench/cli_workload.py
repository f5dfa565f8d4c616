"""The ``cli-oneshot`` workload: ``python -m fuzzcalc`` as a fresh process
per command, over a fixed mix of subcommands with seeded values.

Every argv carries the exit code it must end with (0 success, 1 domain
error, 2 usage error).  Stderr must never hold a traceback, a domain error
must be named by one of the package's own error classes rather than a
Python built-in exception, and the values a successful command prints are
checked against the crisp oracle.
"""

from __future__ import annotations

import builtins
import os
import random
import re
import subprocess
import sys
from time import perf_counter

import oracle
from workloads import DERIVATIVE_RTOL, TAYLOR_RTOL, triangle

NAME = "cli-oneshot"
TIMEOUT_S = 30.0

# The two bounded-time defects the roadmap lists.  While they break the
# exit-code contract they stay out of the timed mix, which must not fail, and
# run as a separate probe, reported on its own line, on every run.
KNOWN_DEFECTS = (
    {"argv": ["solve-ivp", "--rhs", "x^2 + y^2", "--x0", "T(0.7,1,1.2)", "--y0", "T(2.1,2.3,2.5)",
              "--h", "T(0.07,0.1,0.12)", "--order", "4", "--steps", "40"],
     "expect": 1, "kind": "status"},
    {"argv": ["eval", "--expr", "exp(x) - exp(x)", "--bind", "x=T(700,800,900)"],
     "expect": 1, "kind": "status"},
)


def _t(spec) -> str:
    return "T({},{},{})".format(*spec)


def build(seed: int, tmpdir: str) -> list[dict]:
    """The argv mix, with its values drawn from ``seed``."""
    rng = random.Random(f"{NAME}:{seed}")
    x = triangle(rng, (0.5, 1.5), (0.05, 0.3))
    y = triangle(rng, (1.0, 2.5), (0.05, 0.3))
    # derive points as in derive-fine: supports inside (0, pi/2)
    dpt = triangle(rng, (0.5, 1.2), (0.05, 0.3))
    dpt2 = triangle(rng, (0.5, 1.2), (0.05, 0.3))
    centre = triangle(rng, (-1.0, 1.0), (0.05, 0.5))
    base = triangle(rng, (3.0, 6.0), (0.2, 1.0))
    ivp = [triangle(rng, (0.5, 1.5), (0.05, 0.3)), triangle(rng, (1.0, 2.5), (0.05, 0.3)),
           triangle(rng, (0.05, 0.12), (0.005, 0.02))]
    ivp2 = [triangle(rng, (0.5, 1.5), (0.05, 0.3)), triangle(rng, (1.0, 2.5), (0.05, 0.3)),
            triangle(rng, (0.05, 0.12), (0.005, 0.02))]
    a = round(rng.uniform(0.2, 0.8), 4)
    zero = (-round(rng.uniform(0.1, 1.0), 6), 0.0, round(rng.uniform(0.1, 1.0), 6))

    problem = os.path.join(tmpdir, "problem.txt")
    rhs2 = f"sin(x) + {a}*y^2"
    with open(problem, "w") as fh:
        fh.write("command = solve-ivp\n# seeded problem file\n"
                 f"rhs = {rhs2}\nx0 = {_t(ivp2[0])}\ny0 = {_t(ivp2[1])}\nh = {_t(ivp2[2])}\n"
                 "order = 3\nsteps = 2\n")
    table = os.path.join(tmpdir, "solution.csv")

    def ivp_ref(rhs, spec, order, steps):
        return oracle.ivp_taylor(rhs, spec[0][1], spec[1][1], spec[2][1], order, steps)[1]

    tasks = [
        {"argv": ["eval", "--expr", "x^2 + y^2", "--bind", f"x={_t(x)}", "--bind", f"y={_t(y)}"],
         "expect": 0, "kind": "value", "label": "value",
         "ref": oracle.series(oracle.parse("x^2 + y^2"), {"x": [x[1]], "y": [y[1]]}, 1)[0]},
        {"argv": ["eval", "--expr", "sin(x)*exp(y) + x/y", "--bind", f"x={_t(x)}", "--bind", f"y={_t(y)}"],
         "expect": 0, "kind": "value", "label": "value",
         "ref": oracle.series(oracle.parse("sin(x)*exp(y) + x/y"), {"x": [x[1]], "y": [y[1]]}, 1)[0]},
        {"argv": ["derive", "--expr", "x^3 + 2*x", "--var", "x", "--bind", f"x={_t(dpt)}"],
         "expect": 0, "kind": "value", "label": "derivative", "rtol": DERIVATIVE_RTOL,
         "ref": oracle.derivative("x^3 + 2*x", "x", dpt[1])},
        {"argv": ["derive", "--expr", "sin(x)*exp(x)", "--var", "x", "--bind", f"x={_t(dpt2)}"],
         "expect": 0, "kind": "value", "label": "derivative", "rtol": DERIVATIVE_RTOL,
         "ref": oracle.derivative("sin(x)*exp(x)", "x", dpt2[1])},
        {"argv": ["series", "--taylor-of", "exp(x)", "--var", "x", "--center", _t(centre), "--order", "10"],
         "expect": 0, "kind": "taylor",
         "ref": oracle.taylor_coefficients("exp(x)", "x", centre[1], 6)},
        {"argv": ["series", "--coeff-rule", f"n / {_t(base)}^(n-1)", "--radius-mode", "symbolic"],
         "expect": 0, "kind": "value", "label": "radius", "ref": base[1]},
        {"argv": ["solve-ivp", "--rhs", "x^2 + y^2", "--x0", _t(ivp[0]), "--y0", _t(ivp[1]),
                  "--h", _t(ivp[2]), "--order", "2", "--steps", "1"],
         "expect": 0, "kind": "value", "label": "y", "ref": ivp_ref("x^2 + y^2", ivp, 2, 1)},
        {"argv": ["solve-ivp", "--file", problem, "--out", table],
         "expect": 0, "kind": "value", "label": "y", "table": table, "ref": ivp_ref(rhs2, ivp2, 3, 2)},
        {"argv": ["eval", "--expr", "x + * y", "--bind", f"x={_t(x)}", "--bind", f"y={_t(y)}"],
         "expect": 2, "kind": "status"},
        {"argv": ["no-such-command"], "expect": 2, "kind": "status"},
        {"argv": ["solve-ivp", "--rhs", "y"], "expect": 2, "kind": "status"},
        {"argv": ["eval", "--expr", "1/x", "--bind", f"x={_t(zero)}"], "expect": 1, "kind": "status"},
        {"argv": ["eval", "--expr", "x + 1"], "expect": 1, "kind": "status"},
    ]
    rng.shuffle(tasks)
    return tasks


_NUM = r"(-?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan))"


def _core_from(stdout: str, label: str) -> tuple[float, float] | None:
    m = re.search(rf"^{label} core: \[{_NUM}, {_NUM}\]$", stdout, re.M)
    return (float(m.group(1)), float(m.group(2))) if m else None


def _close(got: float, ref: float, rtol: float) -> bool:
    return abs(got - ref) <= rtol * max(1.0, abs(ref))


def check(task: dict, code: int, stdout: str, stderr: str) -> str | None:
    """``None`` when the command kept the exit-code contract and printed
    values the oracle agrees with, else the reason it failed."""
    if "Traceback" in stderr:
        return f"exit {code} with a traceback"
    if code != task["expect"]:
        return f"exit {code}, expected {task['expect']}"
    if code == 1:
        # the error line is the last one; numpy warnings may come before it
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        name = last.split(":", 1)[0]
        if not name.isidentifier() or hasattr(builtins, name):
            return f"domain error not named by the package: {last!r}"
    if task["kind"] == "status":
        return None
    rtol = task.get("rtol", TAYLOR_RTOL)
    if task["kind"] == "taylor":
        for k, ref in enumerate(task["ref"]):
            m = re.search(rf"^  a_{k} triplet: \({_NUM}, {_NUM}, {_NUM}\)$", stdout, re.M)
            if m is None or not _close(float(m.group(2)), ref, rtol):
                return f"a_{k}: {m and m.group(2)} vs oracle {ref!r}"
        return None
    core = _core_from(stdout, task["label"])
    if core is None or not all(_close(c, task["ref"], rtol) for c in core):
        return f"{task['label']} core {core} vs oracle {task['ref']!r}"
    if "table" in task:
        with open(task["table"]) as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
        top = [float(v) for v in rows[-1]] if len(rows) > 1 else None
        if top is None or top[0] != 1.0 or not all(_close(v, task["ref"], rtol) for v in top[1:]):
            return f"table alpha=1 row {top} vs oracle {task['ref']!r}"
    return None


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def invoke(argv: list[str], root: str, env: dict) -> tuple[float, int | None, str, str]:
    """(wall seconds, exit code or None on timeout, stdout, stderr)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "fuzzcalc", *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    return perf_counter() - t0, code, out, err
