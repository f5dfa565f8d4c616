"""Start-up: each entry point loads only the modules it runs.  Every check
starts a fresh interpreter, since this test session has loaded them all."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LAZY = ("fuzzcalc.calculus", "fuzzcalc.series", "fuzzcalc.ivp")


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


# (argv, a problem file's text or None): usage errors found in argv or
# problem-file text alone; "{file}" is that file
TEXT_ERRORS = [
    (["no-such-command"], None),
    (["solve-ivp", "--rhs", "y"], None),
    (["solve-ivp", "--file", "{file}"], None),
    (["solve-ivp", "--file", "{file}"], "rhs = y\nstep = 0.1\n"),
    (["solve-ivp", "--file", "{file}"], "command = eval\nrhs = y\n"),
    (["solve-ivp", "--file", "{file}"], "rhs = y\nx0 = 0\ny0 = 1\nh = 0.1\norder = two\n"),
]


def test_importing_the_package_or_the_cli_and_a_usage_error_load_no_numpy(tmp_path):
    assert "numpy" not in loaded_after("import fuzzcalc")
    assert "numpy" not in loaded_after("import fuzzcalc.cli")
    for i, (argv, problem) in enumerate(TEXT_ERRORS):
        path = tmp_path / f"problem{i}.txt"  # left unwritten: a missing file
        if problem is not None:
            path.write_text(problem)
        argv = [a.replace("{file}", str(path)) for a in argv]
        loaded = loaded_after(f"import fuzzcalc.cli\nassert fuzzcalc.cli.run({argv!r}) == 2")
        assert "numpy" not in loaded, argv
        assert {m for m in loaded if m.startswith("fuzzcalc")} == {"fuzzcalc", "fuzzcalc.cli",
                                                                   "fuzzcalc.errors"}, argv


def test_eval_loads_no_calculus_series_or_ivp():
    code = ("import fuzzcalc.cli\n"
            "assert fuzzcalc.cli.run(['eval', '--expr', 'x^2', '--bind', 'x=T(1,2,3)']) == 0")
    loaded = loaded_after(code)
    assert {"numpy", "fuzzcalc.core", "fuzzcalc.expr"} <= loaded
    assert not loaded & set(LAZY)


def test_exports_resolve_to_their_defining_modules():
    code = """
import importlib
import fuzzcalc
for name in fuzzcalc.__all__:
    value = getattr(fuzzcalc, name)
    # classes and functions name their module; the one constant is core's
    owner = value.__module__ if callable(value) else "fuzzcalc.core"
    assert value is getattr(importlib.import_module(owner), name), name
    assert name not in vars(fuzzcalc), name
assert set(fuzzcalc.__all__) <= set(dir(fuzzcalc))
assert not hasattr(fuzzcalc, "importlib") and not hasattr(fuzzcalc, "no_such_name")
namespace = {}
exec("from fuzzcalc import *", namespace)
assert set(fuzzcalc.__all__) <= set(namespace)
"""
    assert set(LAZY) <= loaded_after(code)
