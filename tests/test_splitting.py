"""Operator-splitting backend, checked against the exact LP path."""

import numpy as np
import pytest

from sparsecert import structures
from sparsecert.engine import SplitProblem, Status, solve_split
from sparsecert.engine.splitting import _u_step_gain
from sparsecert.recovery import RecoveryProblem, recover_regular


def test_identity_noiseless_recovers_input(rng):
    st, rep = structures.build_plain(6)
    x0 = np.array([0.0, 2.0, 0.0, -1.0, 0.0, 0.0])
    sp = SplitProblem(a=np.eye(6), b=rep.matrix, y=x0, structure=st,
                      phi="l2", epsilon=0.0, tol=1e-10)
    u, rep_out = solve_split(sp)
    assert rep_out.status is Status.OPTIMAL
    assert np.allclose(u, x0, atol=1e-6)


def test_constraint_mode_feasibility(rng):
    st, rep = structures.build_plain(8)
    a = rng.standard_normal((5, 8))
    y = rng.standard_normal(5)
    for phi in ("l1", "l2", "linf"):
        sp = SplitProblem(a=a, b=rep.matrix, y=y, structure=st, phi=phi,
                          epsilon=0.3, tol=1e-9)
        u, out = solve_split(sp)
        assert out.status is Status.OPTIMAL
        assert out.residuals["phi_gap"] <= 1e-6


def test_agrees_with_lp_backend(rng):
    """Same instance through both solvers; polyhedral data, so LP is exact."""
    st, rep = structures.build_plain(8)
    for trial in range(5):
        r = np.random.default_rng(trial)
        a = r.standard_normal((4, 8))
        x0 = np.zeros(8)
        x0[r.choice(8, 2, replace=False)] = r.choice([-1.0, 1.0], 2)
        y = a @ x0
        prob = RecoveryProblem(a=a, b=rep, y=y, phi="linf", epsilon=0.1)
        lp_res = recover_regular(prob, st, method="lp")
        sp_res = recover_regular(prob, st, method="split", tol=1e-10)
        obj_lp = lp_res.report.objective
        obj_sp = sp_res.report.objective
        assert abs(obj_lp - obj_sp) <= 1e-5 * (1.0 + abs(obj_lp))


def test_penalty_mode_matches_lp(rng):
    st, rep = structures.build_plain(6)
    a = rng.standard_normal((3, 6))
    y = rng.standard_normal(3)
    from sparsecert.recovery import recover_penalized
    prob = RecoveryProblem(a=a, b=rep, y=y, phi="l1")
    lp_res = recover_penalized(prob, st, lam=2.0, method="lp")
    sp_res = recover_penalized(prob, st, lam=2.0, method="split", tol=1e-10)
    assert abs(lp_res.report.objective - sp_res.report.objective) <= \
        1e-5 * (1.0 + abs(lp_res.report.objective))


def test_nuclear_norm_completion_shrinks_rank(rng):
    """Low-rank recovery from partial entries lands near the planted matrix."""
    p = q = 4
    st, rep = structures.build_lowrank(p, q)
    r = np.random.default_rng(7)
    planted = np.outer(r.standard_normal(p), r.standard_normal(q))
    mask = r.random(p * q) < 0.8
    a = np.eye(p * q)[mask]
    y = a @ planted.ravel()
    sp = SplitProblem(a=a, b=rep.matrix, y=y, structure=st, phi="l2",
                      epsilon=1e-8, tol=1e-9, maxiter=20000)
    u, out = solve_split(sp)
    assert out.status is Status.OPTIMAL
    sv = np.linalg.svd(u.reshape(p, q), compute_uv=False)
    # nuclear-norm minimization keeps the planted rank-1 structure
    assert sv[1] <= 1e-4 * max(sv[0], 1.0)


def test_input_validation():
    st, rep = structures.build_plain(3)
    with pytest.raises(ValueError):
        SplitProblem(a=np.eye(3), b=rep.matrix, y=np.zeros(2), structure=st)
    with pytest.raises(ValueError):
        SplitProblem(a=np.eye(3), b=rep.matrix, y=np.zeros(3), structure=st,
                     mode="dual")
    with pytest.raises(ValueError):
        SplitProblem(a=np.eye(3), b=rep.matrix, y=np.zeros(3), structure=st,
                     mode="penalty", lam=0.0)
    with pytest.raises(ValueError):
        SplitProblem(a=np.eye(3), b=rep.matrix, y=np.zeros(3), structure=st,
                     epsilon=-0.1)


def test_group_structure_split(rng):
    st, rep = structures.build_group([(0, 1, 2), (3, 4)], block_norm="l2")
    a = rng.standard_normal((3, 5))
    x0 = np.array([0.0, 0.0, 0.0, 1.0, -2.0])   # one active block
    y = a @ x0
    sp = SplitProblem(a=a, b=rep.matrix, y=y, structure=st, phi="l2",
                      epsilon=0.0, tol=1e-10, maxiter=30000)
    u, out = solve_split(sp)
    assert out.status is Status.OPTIMAL
    # solution explains the data and its objective does not exceed x0's
    assert np.linalg.norm(a @ u - y) <= 1e-6
    from sparsecert import norms
    assert norms.structure_norm(st, rep.apply(u)) <= \
        norms.structure_norm(st, rep.apply(x0)) + 1e-6


def _two_solve_reference(stack, rhs, regularize):
    """The u-step as two triangular solves per right-hand side."""
    normal = stack.T @ stack
    if regularize:
        normal = normal + 1e-10 * np.eye(normal.shape[0])
    chol = np.linalg.cholesky(normal)
    return np.linalg.solve(chol.T, np.linalg.solve(chol, stack.T @ rhs))


def test_u_step_gain_matches_two_triangular_solves(rng):
    # full column rank: the plain Cholesky factor
    stack = np.vstack([rng.standard_normal((7, 6)), rng.standard_normal((4, 6))])
    gain, warnings = _u_step_gain(stack)
    assert warnings == []
    # B and A both miss coordinate 2, so M'M is singular and regularized
    b = np.diag([1.0, 2.0, 0.0, 0.5, 1.5])
    a = rng.standard_normal((3, 5))
    a[:, 2] = 0.0
    singular = np.vstack([b, a])
    sgain, swarnings = _u_step_gain(singular)
    assert any("regularized by 1e-10*I" in w for w in swarnings)
    for mat, g, reg in ((stack, gain, False), (singular, sgain, True)):
        for _ in range(5):
            rhs = rng.standard_normal(mat.shape[0])
            ref = _two_solve_reference(mat, rhs, reg)
            assert np.linalg.norm(g @ rhs - ref) <= \
                1e-10 * np.linalg.norm(ref)


def test_regularization_warning_reaches_the_report(rng):
    st, rep = structures.build_plain(4)
    a = rng.standard_normal((2, 4))
    b = rep.matrix.copy()
    b[3, 3] = 0.0
    a[:, 3] = 0.0
    sp = SplitProblem(a=a, b=b, y=a @ np.array([1.0, 0.0, 0.0, 0.0]),
                      structure=st, phi="l2", epsilon=0.0, tol=1e-9)
    u, out = solve_split(sp)
    assert out.status is Status.OPTIMAL
    assert out.warnings == ["coupling matrix singular; regularized by 1e-10*I"]


def test_seeded_run_is_pinned():
    """Residual norms as sqrt(x @ x) leave the iteration bitwise unchanged:
    the iteration count and objective are those of the np.linalg.norm
    version on this instance."""
    r = np.random.default_rng(2024)
    st, rep = structures.build_plain(30)
    a = r.standard_normal((15, 30))
    x0 = np.zeros(30)
    x0[[3, 11, 20]] = [1.0, -2.0, 0.5]
    y = a @ x0 + 0.01 * r.standard_normal(15)
    sp = SplitProblem(a=a, b=rep.matrix, y=y, structure=st, phi="l2",
                      epsilon=0.05, tol=1e-8)
    u, out = solve_split(sp)
    assert out.status is Status.OPTIMAL
    assert out.iterations == 3854
    assert out.objective == pytest.approx(3.47842417746389, rel=1e-12)
