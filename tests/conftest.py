"""Fixtures shared by the test modules: call counters, a node count that
does not use the package's own DAG walk, and a bitwise comparison of fuzzy
numbers."""

import dataclasses
import sys

import pytest

from fuzzcalc.expr import Expr


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` replaces ``module.name`` with a wrapper
    that counts its calls, and returns the count as a one-element list.  The
    wrapper replaces the function in every loaded ``fuzzcalc`` module that
    binds it, as the modules import it by name, so a call through any of
    them is counted."""

    def install(module, name: str) -> list[int]:
        calls = [0]
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        for key, loaded in list(sys.modules.items()):
            if key.partition(".")[0] == "fuzzcalc" and vars(loaded).get(name) is real:
                monkeypatch.setattr(loaded, name, counting)
        return calls

    return install


def _distinct_nodes(*roots) -> set:
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            children = (getattr(node, f.name) for f in dataclasses.fields(node))
            stack.extend(c for c in children if isinstance(c, Expr))
    return seen


@pytest.fixture
def distinct_nodes():
    """``distinct_nodes(*roots)``: the set of node objects under the roots."""
    return _distinct_nodes


@pytest.fixture
def families():
    """``families(build, *args)``: the roots of each family ``build(*args)``
    plans, in order.  ``build`` is a builder of a node's memo (``_step``,
    ``_coefficients``, ``_terms``), run here directly, so it plans its
    families whatever the memo holds; its module's ``_plan`` is wrapped for
    the call."""

    def run(build, *args) -> list[tuple]:
        planned = []
        module = sys.modules[build.__module__]
        real = module._plan
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "_plan", lambda *roots: planned.append(roots) or real(*roots))
            build(*args)
        return planned

    return run


@pytest.fixture
def same_bytes():
    """``same_bytes(a, b)``: the two fuzzy numbers agree bit for bit."""

    def same(a, b) -> bool:
        return (a.lower.tobytes(), a.upper.tobytes(), a.proper) == (
            b.lower.tobytes(), b.upper.tobytes(), b.proper)

    return same
