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
    ``LPSequence``: of each ``solve`` and of each LP of a lockstep batch;
    ``index`` counts the solves of one sequence (of one standard form)."""
    from sparsecert.engine import simplex

    def patch(change):
        real, real_many, counters = simplex._phase_two, \
            simplex._certify_many, {}

        def changed(std, x, rep, warm):
            i = next(counters.setdefault(std, itertools.count()))
            return (*change(i, x, rep), warm)

        def patched(std, tab, cost, maxiter):
            return changed(std, *real(std, tab, cost, maxiter))

        def patched_many(std, tabs, runs, c_std):
            return [changed(std, *out)
                    for out in real_many(std, tabs, runs, c_std)]

        monkeypatch.setattr(simplex, "_phase_two", patched)
        monkeypatch.setattr(simplex, "_certify_many", patched_many)

    return patch


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: end-to-end acceptance gate (slowest tests)")
