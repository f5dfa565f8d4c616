"""Work counts the package keeps on itself, off unless asked for.

``counts`` is the switch: None while off, so a place that counts costs one
``is None`` test per call and nothing per operation.  :func:`counting`
turns it on for a ``with`` block.  Each place adds, once per call, the work
it decided to run: ``_evaluate`` its plan's counts, the only count of
kernel calls (``solve``, ``taylor_series_of`` and ``partial_sum`` run
theirs as root families on the tape), ``differentiate`` its rules,
``mh_derivative`` and ``continuity_probe`` their blocks, rows and steps.
The keys: ``nodes`` evaluated; derivative ``rules`` run; each kind of
operation (``add``, ``mul``, ``div``, ``scalar_mul``, ``gh_difference``,
``pow_int``, ``singleton``, ``exp``, ``sin``, ``cos``), counting the
products inside ``div`` and ``pow_int`` as ``mul`` too; each kind's
``.cells``, its calls times the rows times levels they work on (an
evaluation counts every operation at its widest binding's rows); the
estimators' stacked ``blocks`` (the probe's one or two stacks among them),
the ``rows`` they evaluate (a stack's rows, and each point a redo
evaluates on its own), and the schedule's ``tableau_steps`` the
derivative runs.  The switch is one per process: count from one thread
at a time.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

counts: Counter | None = None


@contextmanager
def counting():
    """Count the block's work into the Counter yielded; a block inside
    another adds its counts to the outer one's too."""
    global counts
    outer = counts
    counts = inner = Counter()
    try:
        yield inner
    finally:
        counts = outer
        if outer is not None:
            outer.update(inner)
