import itertools

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def patch_reports(monkeypatch):
    """``patch_reports(change)`` lets ``change(index, x, report)`` rewrite
    the (x, report) of every phase two, below the tallies of its
    ``LPSequence``; ``index`` counts the solves of one sequence (of one
    standard form)."""
    from sparsecert.engine import simplex

    def patch(change):
        real, counters = simplex._phase_two, {}

        def patched(std, tab, cost, maxiter):
            x, rep, binv = real(std, tab, cost, maxiter)
            i = next(counters.setdefault(std, itertools.count()))
            return (*change(i, x, rep), binv)

        monkeypatch.setattr(simplex, "_phase_two", patched)

    return patch


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: end-to-end acceptance gate (slowest tests)")
