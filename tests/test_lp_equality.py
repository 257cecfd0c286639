"""The array-built LPs against their row-by-row reference assemblies.

Recovery and the group brute force build their LPs from
``norms.structure_norm_epigraph`` and array blocks.  Here they must equal the
row-by-row references in ``oracles`` bit for bit, row order included, so the
simplex sees the same LP and takes the same pivots.
"""

import numpy as np
import pytest

from sparsecert import structures
from sparsecert.certify.bruteforce import _group_lp
from sparsecert.recovery import RecoveryProblem, _build_recovery_lp

from oracles import group_bruteforce_lp_oracle, recovery_lp_oracle

GROUPS = {
    "l1": ([(0, 1), (2, 3), (4, 5)], "l1"),
    "linf": ([(0, 1), (2, 3), (4, 5)], "linf"),
    "mixed": ([(0, 1, 2), (3, 4), (5,)], ["l1", "linf", "l1"]),
    # coordinate 2 in two l1 blocks, 4 and 5 in an l1 and a linf block
    "overlap": ([(0, 1, 2), (2, 3, 4), (4, 5), (1, 5), (5,)],
                ["l1", "l1", "linf", "linf", "l1"]),
}
STRUCTURES = [("plain", structures.build_plain(6)[0])] + [
    (name, structures.build_group(blocks, block_norm=tags)[0])
    for name, (blocks, tags) in GROUPS.items()]
FITS = [("regular", "l1", 0.0), ("regular", "l1", 0.3),
        ("regular", "linf", 0.0), ("regular", "linf", 0.3),
        ("regular", "l2", 0.0),
        ("penalized", "l1", 0.0), ("penalized", "l1", 0.3),
        ("penalized", "linf", 0.0), ("penalized", "linf", 0.3)]


def _same(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,structure", STRUCTURES)
@pytest.mark.parametrize("mode,phi,eps", FITS)
def test_recovery_lp_matches_row_by_row_reference(name, structure, mode, phi,
                                                  eps):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 6))
    a[1, 2] = 0.0                     # signed zeros must come out alike
    y = rng.standard_normal(4)
    y[3] = 0.0
    problem = RecoveryProblem(a=a, b=None, y=y, phi=phi, epsilon=eps)
    lp, n = _build_recovery_lp(problem, structure, mode, lam=1.7)
    c, g, h, senses, lb = recovery_lp_oracle(problem, structure, mode,
                                             lam=1.7)
    assert n == 6
    for got, want in ((lp.c, c), (lp.G, g), (lp.h, h), (lp.lb, lb)):
        _same(got, want)
    assert tuple(lp.senses) == senses


@pytest.mark.parametrize("name", list(GROUPS))
def test_group_bruteforce_lp_matches_row_by_row_reference(name):
    blocks, tags = GROUPS[name]
    structure, _ = structures.build_group(blocks, block_norm=tags)
    a = np.random.default_rng(11).standard_normal((3, 6))
    a[0, 4] = 0.0
    g, h, senses, lb = _group_lp(a, structure)
    g_ref, h_ref, senses_ref, lb_ref = group_bruteforce_lp_oracle(a, structure)
    for got, want in ((g, g_ref), (h, h_ref), (lb, lb_ref)):
        _same(got, want)
    assert senses == senses_ref
