"""Each demo prints the same bytes as its golden file under tests/golden/.

The demos are deterministic narratives of the library's results, so any
change in what they print is a change in behaviour.  After an intended
change, regenerate a golden file with
``PYTHONPATH=src python demos/<name>.py > tests/golden/<name>.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=60, check=True
    ).stdout
    assert out == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_bytes()
