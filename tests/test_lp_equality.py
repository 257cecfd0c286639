"""The LPs in the one structure-norm encoding against their references.

Recovery and the brute force write the structure norm through
``norms.structure_norm_epigraph``: variables [u+ | u- | t] >= 0 with
u = u+ - u-, and one row u+_i + u-_i <= t per linf block member.  An l1
data fit is one equality row A u - r+ + r- = y per measurement over the
split residual [r+ | r-] >= 0.  The row-by-row references in ``oracles``
keep the older forms (u free, one t and two rows per l1 coordinate, per
linf member and per l1 measurement; ``two_row_epigraph_oracle`` the pair
+-(u+_i - u-_i) <= t over [u+ | u- | t]), so here they must agree in what
they solve to: the same status and objective, and the same maxima of
linear functionals over the brute force's kernel ball.  Row-count guards
pin the one-row forms.  For plain the brute-force LP, and the signed costs
of its maximal supports in enumeration order, equal the hand-written l1
ball LP and cost list of ``oracles.plain_bruteforce_lp_oracle`` exactly;
the group verdicts must match an enumeration of cold LPs over the
reference LP.
"""

import numpy as np
import pytest

from sparsecert import norms, structures
from sparsecert.certify import gamma_s_bruteforce
from sparsecert.certify.bruteforce import _kernel_ball_lp, _SignedSupports
from sparsecert.engine import LinearProgram, Status, solve_lp
from sparsecert.recovery import RecoveryProblem, _build_recovery_lp

from oracles import (group_bruteforce_lp_oracle, group_gamma_lp_oracle,
                     matrix_with_kernel, plain_bruteforce_lp_oracle,
                     recovery_lp_oracle, two_row_epigraph_oracle)

GROUPS = {
    "l1": ([(0, 1), (2, 3), (4, 5)], "l1"),
    "linf": ([(0, 1), (2, 3), (4, 5)], "linf"),
    "mixed": ([(0, 1, 2), (3, 4), (5,)], ["l1", "linf", "l1"]),
    # coordinate 2 in two l1 blocks, 4 and 5 in an l1 and a linf block
    "overlap": ([(0, 1, 2), (2, 3, 4), (4, 5), (1, 5), (5,)],
                ["l1", "l1", "linf", "linf", "l1"]),
}
STRUCTURES = [("plain", structures.build_plain(6))] + [
    (name, structures.build_group(blocks, block_norm=tags))
    for name, (blocks, tags) in GROUPS.items()]
FITS = [("regular", "l1", 0.0), ("regular", "l1", 0.3),
        ("regular", "linf", 0.0), ("regular", "linf", 0.3),
        ("regular", "l2", 0.0),
        ("penalized", "l1", 0.0), ("penalized", "l1", 0.3),
        ("penalized", "linf", 0.0), ("penalized", "linf", 0.3)]


def _same_solution(got, want):
    assert got.status is want.status
    if want.status is Status.OPTIMAL:
        assert got.objective == pytest.approx(want.objective, rel=1e-9,
                                              abs=1e-12)


@pytest.mark.parametrize("name,structure", STRUCTURES)
@pytest.mark.parametrize("mode,phi,eps", FITS)
def test_recovery_lp_matches_row_by_row_reference(name, structure, mode, phi,
                                                  eps):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 6))
    a[1, 2] = 0.0
    y = rng.standard_normal(4)
    y[3] = 0.0
    problem = RecoveryProblem(a=a, b=None, y=y, phi=phi, epsilon=eps)
    lp, n = _build_recovery_lp(problem, structure, None, mode, lam=1.7)
    assert n == 6
    x, got = solve_lp(lp)
    _, want = solve_lp(LinearProgram(*recovery_lp_oracle(problem, structure,
                                                         mode, lam=1.7)))
    _same_solution(got, want)
    if got.status is Status.OPTIMAL:
        # the objective is the structure norm of u = u+ - u- plus the fit
        u = x[:n] - x[n:2 * n]
        assert got.objective >= norms.structure_norm(
            structure, structure.b @ u) - 1e-9


@pytest.mark.parametrize("name,structure", STRUCTURES)
@pytest.mark.parametrize("mode,phi,eps", FITS)
def test_recovery_lp_row_counts(name, structure, mode, phi, eps):
    """Beyond the epigraph rows: an l1 fit is m equality rows, plus the
    budget row when regular with eps > 0; a linf fit keeps its m pairs;
    regular recovery with eps = 0 is A u = y."""
    m, n = 4, 6
    rng = np.random.default_rng(3)
    problem = RecoveryProblem(a=rng.standard_normal((m, n)), b=None,
                              y=rng.standard_normal(m), phi=phi, epsilon=eps)
    lp, _ = _build_recovery_lp(problem, structure, None, mode, lam=1.7)
    cost, g = norms.structure_norm_epigraph(structure, n)
    fit = lp.senses[g.shape[0]:]
    assert lp.senses[:g.shape[0]] == ("le",) * g.shape[0]
    assert np.array_equal(lp.G[:g.shape[0], :cost.size], g)
    if mode == "regular" and eps == 0.0:
        assert fit == ("eq",) * m and lp.c.size == cost.size
    elif phi == "l1":
        budget = ("le",) if mode == "regular" else ()
        assert fit == ("eq",) * m + budget
        assert lp.c.size == cost.size + 2 * m
        assert np.all(lp.c[cost.size:] == (1.7 if mode == "penalized" else 0))
    else:
        assert fit == ("le",) * (2 * m)


@pytest.mark.parametrize("name", list(GROUPS))
def test_linf_epigraph_is_one_row_per_member(name):
    blocks, tags = GROUPS[name]
    structure = structures.build_group(blocks, block_norm=tags)
    cost, g = norms.structure_norm_epigraph(structure, 6)
    linf = [v for v, t in zip(blocks, structure.block_norms) if t == "linf"]
    assert g.shape == (sum(map(len, linf)), 12 + len(linf))
    rows = iter(g)
    for k, v in enumerate(linf):
        for i in v:
            want = np.zeros(g.shape[1])
            want[i] = want[6 + i] = 1.0
            want[12 + k] = -1.0
            assert np.array_equal(next(rows), want)


@pytest.mark.parametrize("name", list(GROUPS))
def test_kernel_ball_maxima_match_the_two_row_epigraph(name):
    """The one-row linf epigraph spans the same kernel ball as the pair
    +-(u+_i - u-_i) <= t: 8 random functionals of z have the same maxima."""
    blocks, tags = GROUPS[name]
    structure = structures.build_group(blocks, block_norm=tags)
    a = np.random.default_rng(21).standard_normal((3, 6))
    lp = _kernel_ball_lp(a, structure)
    cost, g_ball = two_row_epigraph_oracle(structure, 6)
    ref = LinearProgram(
        c=np.zeros(cost.size),
        G=np.vstack([np.hstack([a, -a, np.zeros((3, cost.size - 12))]),
                     g_ball, cost]),
        h=np.concatenate([np.zeros(3 + g_ball.shape[0]), [1.0]]),
        senses=("eq",) * 3 + ("le",) * (g_ball.shape[0] + 1))
    assert ref.G.shape[1] == lp.G.shape[1]
    for d in np.random.default_rng(22).standard_normal((8, 6)):
        c = np.concatenate([d, -d, np.zeros(cost.size - 12)])
        _, got = solve_lp(LinearProgram(c=c, G=lp.G, h=lp.h,
                                        senses=lp.senses))
        _, want = solve_lp(LinearProgram(c=c, G=ref.G, h=ref.h,
                                         senses=ref.senses))
        _same_solution(got, want)


@pytest.mark.parametrize("name", list(GROUPS))
def test_group_bruteforce_lp_matches_row_by_row_reference(name):
    """Both LPs span the same ball of Ker(A): every linear functional of z
    has the same maximum over them."""
    blocks, tags = GROUPS[name]
    structure = structures.build_group(blocks, block_norm=tags)
    a = np.random.default_rng(11).standard_normal((3, 6))
    a[0, 4] = 0.0
    lp = _kernel_ball_lp(a, structure)
    g, h, senses, split = group_bruteforce_lp_oracle(a, structure)
    n_aux = g.shape[1] - 12
    for d in np.random.default_rng(12).standard_normal((8, 6)):
        _, got = solve_lp(LinearProgram(
            c=np.concatenate([d, -d, np.zeros(lp.c.size - 12)]), G=lp.G,
            h=lp.h, senses=lp.senses))
        _, want = solve_lp(LinearProgram(
            c=split(np.concatenate([d, np.zeros(n_aux)])), G=g, h=h,
            senses=senses))
        _same_solution(got, want)


@pytest.mark.parametrize("n,m,s", [(6, 3, 1), (6, 3, 2), (7, 4, 3),
                                   (5, 2, 0.5)])
def test_plain_bruteforce_lp_is_the_hand_written_l1_ball(n, m, s):
    a = np.random.default_rng(n + m).standard_normal((m, n))
    a[0, 1] = 0.0
    st = structures.build_plain(n)
    lp = _kernel_ball_lp(a, st)
    g, h, senses, costs = plain_bruteforce_lp_oracle(a, s)
    ref = LinearProgram(c=np.zeros(2 * n), G=g, h=h, senses=senses)
    for name in ("c", "G", "h"):
        got, want = getattr(lp, name), getattr(ref, name)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
    assert lp.senses == ref.senses
    supports = _SignedSupports(st, n, lp.c.size)
    plans = [supports.plan(chosen)
             for chosen in structures.maximal_block_sets(supports.weights, s)]
    seq = [c for plan in plans for c in supports.costs(plan)]
    assert sum(plan.count for plan in plans) == len(seq) == len(costs)
    for got, want in zip(seq, costs):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", list(GROUPS))
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("m,seed", [(2, 0), (4, 1), (5, 2), (5, None)])
def test_group_bruteforce_verdict_matches_oracle_enumeration(name, s, m,
                                                             seed):
    blocks, tags = GROUPS[name]
    structure = structures.build_group(blocks, block_norm=tags)
    if seed is None:    # kernel near the all-ones vector: mass spread evenly
        v = 1.0 + 0.1 * np.random.default_rng(3).standard_normal(6)
        a = matrix_with_kernel(v)
    else:
        a = np.random.default_rng(seed).standard_normal((m, 6))
    gamma, statuses = group_gamma_lp_oracle(a, structure, s)
    assert all(st is Status.OPTIMAL for st in statuses)
    v = gamma_s_bruteforce(a, structure, s, b=None)
    assert v.gamma_value == pytest.approx(gamma, abs=1e-9)
    assert abs(gamma - 0.5) > 1e-6      # away from the tie, so status is sharp
    assert v.status == ("CertifiedGood" if gamma < 0.5 else "CertifiedBad")
