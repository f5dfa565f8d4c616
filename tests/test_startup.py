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


def test_importing_the_package_or_the_cli_and_a_usage_error_load_no_numpy():
    assert "numpy" not in loaded_after("import fuzzcalc")
    assert "numpy" not in loaded_after("import fuzzcalc.cli")
    code = "import fuzzcalc.cli\nassert fuzzcalc.cli.run(['no-such-command']) == 2"
    loaded = loaded_after(code)
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("fuzzcalc")} == {"fuzzcalc", "fuzzcalc.cli",
                                                               "fuzzcalc.errors"}


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
