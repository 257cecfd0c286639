import itertools

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def patch_reports(monkeypatch):
    """``patch_reports(change)`` lets ``change(index, x, report)`` rewrite
    the (x, report) of every certified phase two, below the tallies of its
    ``LPSequence``: of each ``solve`` and of each LP of a lockstep batch;
    ``index`` counts the solves of one sequence (of one standard form)."""
    from sparsecert.engine import simplex

    def patch(change):
        real, counters, nested = simplex._certify, {}, []

        def patched(std, tabs, runs, c_std):
            # a stack certified LP by LP calls ``_certify`` again: change
            # each LP once, in the outermost call
            nested.append(True)
            try:
                out = real(std, tabs, runs, c_std)
            finally:
                nested.pop()
            if nested:
                return out
            return [(*change(next(counters.setdefault(std, itertools.count())),
                             x, rep), warm) for x, rep, warm in out]

        monkeypatch.setattr(simplex, "_certify", patched)

    return patch


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: end-to-end acceptance gate (slowest tests)")
