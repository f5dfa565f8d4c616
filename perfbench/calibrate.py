"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a shared host whose speed drifts: the same loop of
``evaluate`` calls took from 21 to 49 ms per block within one minute, and
the process's CPU time drifted with the wall time (no steal time was
accounted), so CPU time does not remove it.  The benchmark therefore times
a fixed kernel, independent of fuzzcalc, just before and just after every
task it measures, and divides the task's wall time by the mean of the two
kernel times relative to their reference.  A scaled time reads as the wall
time the task would take on this host at its reference speed; the
unscaled wall times are printed next to it.

The kernel resembles the work fuzzcalc does per operation: Python-level
dispatch, small object construction and numpy ufuncs on envelopes.  The
narrow part runs on 101-level envelopes, where per-call overhead dominates
and the host's core speed sets the time.  The wide part runs on 10001-level
envelopes, where memory traffic does and which a neighbour's memory load
slows while the narrow part is untouched; workloads on wide grids time
both.

Starting an interpreter follows the host's speed only in part: over ten
cli-oneshot runs its time moved with about half the narrow kernel's swing.
Timings dominated by interpreter start and imports (cli-oneshot and
set-up) are therefore scaled by a start-up kernel instead: a fresh
interpreter that imports numpy and exits.

No kernel calls fuzzcalc, so a change to fuzzcalc cannot move them.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

# kernel times at the reference speed: medians on a 2-vCPU
# "Intel(R) Xeon(R) Processor" host (Python 3.11.7, numpy 2.4.6)
NARROW_REFERENCE_S = 2.5e-3
WIDE_REFERENCE_S = 1.0e-3
STARTUP_REFERENCE_S = 0.25
NARROW_REPS = 200
WIDE_REPS = 12


class _Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi


def _mul(a: _Interval, b: _Interval) -> _Interval:
    p, q, r, s = a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi
    return _Interval(np.minimum(np.minimum(p, q), np.minimum(r, s)),
                     np.maximum(np.maximum(p, q), np.maximum(r, s)))


def _add(a: _Interval, b: _Interval) -> _Interval:
    return _Interval(a.lo + b.lo, a.hi + b.hi)


def _envelopes(levels: int) -> _Interval:
    return _Interval(np.linspace(0.5, 0.9, levels), np.linspace(1.3, 0.9, levels))


_NARROW = _envelopes(101)
_WIDE = _envelopes(10001)


def _run(x: _Interval, reps: int) -> float:
    t0 = perf_counter()
    for _ in range(reps):
        y = _add(_mul(x, x), x)
        if not isinstance(y, _Interval):
            raise AssertionError("kernel produced no interval")
    return perf_counter() - t0


def slowness(wide: bool) -> float:
    """Run the kernel once: its wall time over the reference time, 1.0 at
    the reference speed and 2.0 on a host half as fast."""
    if wide:
        return (_run(_NARROW, NARROW_REPS) + _run(_WIDE, WIDE_REPS)) / (NARROW_REFERENCE_S + WIDE_REFERENCE_S)
    return _run(_NARROW, NARROW_REPS) / NARROW_REFERENCE_S


def startup_slowness(env: dict, cwd: str) -> float:
    """Start ``python -c "import numpy"`` once: its wall time over the
    reference time."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env, check=True, timeout=60)
    return (perf_counter() - t0) / STARTUP_REFERENCE_S


def scale(seconds: list[float], samples: list[float]) -> list[float]:
    """Each timing divided by the mean slowness just before and after it;
    ``samples`` holds one kernel run before every timing and one after the
    last."""
    if len(samples) != len(seconds) + 1:
        raise ValueError(f"{len(seconds)} timings need {len(seconds) + 1} kernel samples, got {len(samples)}")
    return [2.0 * t / (samples[i] + samples[i + 1]) for i, t in enumerate(seconds)]
