"""Operator-splitting backend, checked against the exact LP path."""

import numpy as np
import pytest

from sparsecert import norms, structures
from sparsecert.engine import SplitProblem, Status, solve_split, splitting
from sparsecert.engine.splitting import _penalty_start, _u_step_gain
from sparsecert.recovery import RecoveryProblem, recover_regular

from oracles import plain_admm_oracle


def test_identity_noiseless_recovers_input(rng):
    st = structures.build_plain(6)
    x0 = np.array([0.0, 2.0, 0.0, -1.0, 0.0, 0.0])
    sp = SplitProblem(a=np.eye(6), b=st.b, y=x0, structure=st,
                      phi="l2", epsilon=0.0, tol=1e-10)
    u, rep_out = solve_split(sp)
    assert rep_out.status is Status.OPTIMAL
    assert np.allclose(u, x0, atol=1e-6)


def test_constraint_mode_feasibility(rng):
    st = structures.build_plain(8)
    a = rng.standard_normal((5, 8))
    y = rng.standard_normal(5)
    for phi in ("l1", "l2", "linf"):
        sp = SplitProblem(a=a, b=st.b, y=y, structure=st, phi=phi,
                          epsilon=0.3, tol=1e-9)
        u, out = solve_split(sp)
        assert out.status is Status.OPTIMAL
        assert out.residuals["phi_gap"] <= 1e-6


def test_agrees_with_lp_backend(rng):
    """Same instance through both solvers; polyhedral data, so LP is exact."""
    st = structures.build_plain(8)
    for trial in range(5):
        r = np.random.default_rng(trial)
        a = r.standard_normal((4, 8))
        x0 = np.zeros(8)
        x0[r.choice(8, 2, replace=False)] = r.choice([-1.0, 1.0], 2)
        y = a @ x0
        prob = RecoveryProblem(a=a, b=None, y=y, phi="linf", epsilon=0.1)
        lp_res = recover_regular(prob, st, method="lp")
        sp_res = recover_regular(prob, st, method="split", tol=1e-10)
        obj_lp = lp_res.report.objective
        obj_sp = sp_res.report.objective
        assert abs(obj_lp - obj_sp) <= 1e-5 * (1.0 + abs(obj_lp))


def test_penalty_mode_matches_lp(rng):
    st = structures.build_plain(6)
    a = rng.standard_normal((3, 6))
    y = rng.standard_normal(3)
    from sparsecert.recovery import recover_penalized
    prob = RecoveryProblem(a=a, b=None, y=y, phi="l1")
    lp_res = recover_penalized(prob, st, lam=2.0, method="lp")
    sp_res = recover_penalized(prob, st, lam=2.0, method="split", tol=1e-10)
    assert abs(lp_res.report.objective - sp_res.report.objective) <= \
        1e-5 * (1.0 + abs(lp_res.report.objective))


def test_nuclear_norm_completion_shrinks_rank(rng):
    """Low-rank recovery from partial entries lands near the planted matrix."""
    p = q = 4
    st = structures.build_lowrank(p, q)
    r = np.random.default_rng(7)
    planted = np.outer(r.standard_normal(p), r.standard_normal(q))
    mask = r.random(p * q) < 0.8
    a = np.eye(p * q)[mask]
    y = a @ planted.ravel()
    sp = SplitProblem(a=a, b=st.b, y=y, structure=st, phi="l2",
                      epsilon=1e-8, tol=1e-9, maxiter=20000)
    u, out = solve_split(sp)
    assert out.status is Status.OPTIMAL
    sv = np.linalg.svd(u.reshape(p, q), compute_uv=False)
    # nuclear-norm minimization keeps the planted rank-1 structure
    assert sv[1] <= 1e-4 * max(sv[0], 1.0)


def test_input_validation():
    st = structures.build_plain(3)
    with pytest.raises(ValueError):
        SplitProblem(a=np.eye(3), b=st.b, y=np.zeros(2), structure=st)
    with pytest.raises(ValueError):
        SplitProblem(a=np.eye(3), b=st.b, y=np.zeros(3), structure=st,
                     mode="dual")
    with pytest.raises(ValueError):
        SplitProblem(a=np.eye(3), b=st.b, y=np.zeros(3), structure=st,
                     mode="penalty", lam=0.0)
    with pytest.raises(ValueError):
        SplitProblem(a=np.eye(3), b=st.b, y=np.zeros(3), structure=st,
                     epsilon=-0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_split_problem_refuses_a_non_finite_radius_or_penalty(bad):
    st = structures.build_plain(3)
    kw = dict(a=np.eye(3), b=st.b, y=np.zeros(3), structure=st)
    with pytest.raises(ValueError,
                       match="epsilon must be a finite number >= 0"):
        SplitProblem(**kw, epsilon=bad)
    with pytest.raises(ValueError, match="lam must be a finite number > 0"):
        SplitProblem(**kw, mode="penalty", lam=bad)


def test_split_problem_checks_only_the_parameter_its_mode_reads():
    """Constraint mode never reads lam and penalty mode never reads epsilon,
    so neither refuses the parameter it ignores."""
    st = structures.build_plain(3)
    kw = dict(a=np.eye(3), b=st.b, y=np.zeros(3), structure=st)
    for lam in (0.0, -1.0, np.nan):
        assert SplitProblem(**kw, mode="constraint", lam=lam).mode == \
            "constraint"
    for epsilon in (-1.0, np.nan, np.inf):
        assert SplitProblem(**kw, mode="penalty", epsilon=epsilon).mode == \
            "penalty"


def test_group_structure_split(rng):
    st = structures.build_group([(0, 1, 2), (3, 4)], block_norm="l2")
    a = rng.standard_normal((3, 5))
    x0 = np.array([0.0, 0.0, 0.0, 1.0, -2.0])   # one active block
    y = a @ x0
    sp = SplitProblem(a=a, b=st.b, y=y, structure=st, phi="l2",
                      epsilon=0.0, tol=1e-10, maxiter=30000)
    u, out = solve_split(sp)
    assert out.status is Status.OPTIMAL
    # solution explains the data and its objective does not exceed x0's
    assert np.linalg.norm(a @ u - y) <= 1e-6
    assert norms.structure_norm(st, st.b @ u) <= \
        norms.structure_norm(st, st.b @ x0) + 1e-6


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
    st = structures.build_plain(4)
    a = rng.standard_normal((2, 4))
    b = st.b.copy()
    b[3, 3] = 0.0
    a[:, 3] = 0.0
    sp = SplitProblem(a=a, b=b, y=a @ np.array([1.0, 0.0, 0.0, 0.0]),
                      structure=st, phi="l2", epsilon=0.0, tol=1e-9)
    u, out = solve_split(sp)
    assert out.status is Status.OPTIMAL
    assert out.warnings == ["coupling matrix singular; regularized by 1e-10*I"]


def test_seeded_run_is_pinned():
    """Pins the accelerated iteration: the penalty rule (rho starts at
    sqrt(lmin * lmax) of M'M and is balanced against r_dual / sqrt(lmax)),
    the Anderson memory and its safeguard, the u-step through the projector
    M G and the prox-side point returned for B = I.  The plain loop
    (``oracles.plain_admm_oracle``) takes 1,139 iterations here, to
    objective 3.4784241516392194."""
    r = np.random.default_rng(2024)
    st = structures.build_plain(30)
    a = r.standard_normal((15, 30))
    x0 = np.zeros(30)
    x0[[3, 11, 20]] = [1.0, -2.0, 0.5]
    y = a @ x0 + 0.01 * r.standard_normal(15)
    sp = SplitProblem(a=a, b=st.b, y=y, structure=st, phi="l2",
                      epsilon=0.05, tol=1e-8)
    u, out = solve_split(sp)
    assert out.status is Status.OPTIMAL
    assert out.iterations == 368
    assert out.objective == pytest.approx(3.478424143238484, rel=1e-12)
    _, plain = plain_admm_oracle(sp)
    assert plain.iterations == 1139
    assert plain.objective == pytest.approx(3.4784241516392194, rel=1e-12)


def _benchmark_shape(kind, seed):
    """One draw of a recover-benchmark ADMM shape: unscaled Gaussian A,
    a planted signal and l2 noise strictly inside the eps-ball."""
    r = np.random.default_rng([seed, 12])
    if kind in ("plain-n50", "plain-n30"):
        n, m, k, eps = (50, 25, 3, 0.2) if kind == "plain-n50" else (30, 15, 2, 0.05)
        st = structures.build_plain(n)
        x0 = np.zeros(n)
        support = r.choice(n, k, replace=False)
        x0[support] = r.choice([-1.0, 1.0], k) * r.uniform(0.5, 1.5, k)
    elif kind == "l2-triples":
        st = structures.build_group(
            [tuple(range(3 * i, 3 * i + 3)) for i in range(10)], block_norm="l2")
        m, eps = 15, 0.05
        x0 = np.zeros(30)
        blk = r.integers(10)
        x0[3 * blk:3 * blk + 3] = r.standard_normal(3)
    else:
        st = structures.build_lowrank(4, 3)
        m, eps = 9, 0.05
        x0 = np.outer(r.standard_normal(4), r.standard_normal(3)).ravel()
    a = r.standard_normal((m, x0.size))
    xi = r.standard_normal(m)
    xi *= eps * r.uniform(0.2, 0.9) / np.linalg.norm(xi)
    return dict(a=a, b=st.b, y=a @ x0 + xi, structure=st, phi="l2",
                epsilon=eps)


@pytest.mark.parametrize("kind", ["plain-n50", "plain-n30", "l2-triples",
                                  "lowrank-4x3"])
def test_benchmark_shapes_converge_fast(kind):
    """The spectral start and unit-consistent balancing settle the
    benchmark's ADMM shapes within 1,500 iterations (2.3k-7.2k for the plain
    shapes under rho = 1 with unscaled balancing), at the optimum."""
    for seed in range(2):
        data = _benchmark_shape(kind, seed)
        _, out = solve_split(SplitProblem(**data))
        assert out.status is Status.OPTIMAL
        assert out.iterations <= 1500
        _, ref = solve_split(SplitProblem(tol=1e-11, **data))
        assert ref.status is Status.OPTIMAL
        assert abs(out.objective - ref.objective) <= 1e-6 * abs(ref.objective)


def test_penalty_start_is_spectral_unless_regularized(rng):
    stack = np.vstack([np.eye(5), rng.standard_normal((3, 5))])
    eig = np.linalg.eigvalsh(stack.T @ stack)
    rho, scale = _penalty_start(stack, False)
    assert rho == pytest.approx(np.sqrt(eig[0] * eig[-1]), rel=1e-12)
    assert scale == pytest.approx(np.sqrt(eig[-1]), rel=1e-12)
    # a singular M'M (coordinate 3 in neither B nor A) starts at rho 1
    st = structures.build_plain(4)
    a = rng.standard_normal((2, 4))
    b = st.b.copy()
    b[3, 3] = 0.0
    a[:, 3] = 0.0
    rho, _ = _penalty_start(np.vstack([b, a]), True)
    assert rho == 1.0
    sp = SplitProblem(a=a, b=b, y=a @ np.array([0.0, 1.0, -0.5, 0.0]),
                      structure=st, phi="l2", epsilon=0.01, tol=1e-9)
    _, out = solve_split(sp)
    assert out.status is Status.OPTIMAL
    assert out.warnings == ["coupling matrix singular; regularized by 1e-10*I"]


# (structure, phi, eps, seeds) of plain n=20, m=10 draws and of 10 linf
# pairs, scaled A.  Seed 1 of the plain linf fit ends MAXITER when rho
# starts at 1 and balancing never stops (24k iterations here).  Linf-pairs
# seeds 0 and 3 of the l1 fit and 1 and 3 of the linf fit are left out for
# time: the linf-block prox makes an iteration about 9 times as costly as a
# plain one, and they take 0.7 to 2.2 s each.
_POLYHEDRAL_SWEEP = [("plain", "l1", 0.1, (0, 1, 2, 3)),
                     ("plain", "linf", 0.05, (0, 1, 2, 3)),
                     ("linf", "l1", 0.1, (1, 2)),
                     ("linf", "linf", 0.05, (0, 2))]


def test_forced_split_matches_lp_on_polyhedral_sweep():
    """Polyhedral draws forced through the splitting path reach the exact LP
    objective; none stops at the iteration cap."""
    for kind, phi, eps, seeds in _POLYHEDRAL_SWEEP:
        if kind == "plain":
            st = structures.build_plain(20)
        else:
            st = structures.build_group(
                [(2 * i, 2 * i + 1) for i in range(10)], block_norm=kind)
        for seed in seeds:
            r = np.random.default_rng([seed, 7])
            a = r.standard_normal((10, 20)) / np.sqrt(10)
            x0 = np.zeros(20)
            x0[r.choice(20, 3, replace=False)] = r.choice([-1.0, 1.0], 3)
            y = a @ x0 + 0.01 * r.standard_normal(10)
            prob = RecoveryProblem(a=a, b=None, y=y, phi=phi, epsilon=eps)
            lp = recover_regular(prob, st, method="lp").report
            sp = recover_regular(prob, st, method="split").report
            assert sp.status is Status.OPTIMAL, (kind, phi, seed)
            assert abs(sp.objective - lp.objective) <= \
                1e-5 * (1.0 + abs(lp.objective))


def test_balancing_stops_at_its_second_reversal():
    """rho starts at sqrt(lmin * lmax) = 12.9 here, is halved at iteration
    50, doubled back at 150 (the first reversal) and doubled again at 200.
    At 1,700 the balancing test asks to halve it again.  Balancing on from
    there flips rho between 12.9 and 25.7 every 100 iterations while the
    residuals grow, and stops at the iteration cap; rho kept from the second
    reversal on ends OPTIMAL."""
    r = np.random.default_rng([1, 0, 3, 2])
    st = structures.build_plain(60)
    a = r.standard_normal((30, 60))
    x0 = np.zeros(60)
    support = r.choice(60, 2, replace=False)
    x0[support] = r.standard_normal(2)
    xi = r.standard_normal(30)
    y = a @ x0 + 0.05 * xi / np.linalg.norm(xi)
    sp = SplitProblem(a=a, b=st.b, y=y, structure=st, phi="l2",
                      mode="penalty", lam=1.5)
    assert _penalty_start(np.vstack([st.b, a]), False)[0] == \
        pytest.approx(12.86, abs=0.01)
    _, out = solve_split(sp)
    assert out.status is Status.OPTIMAL
    assert out.iterations <= 5000


def _experiment_shape(kind, seed):
    """One trial of an experiment-workload ADMM shape: unscaled Gaussian A,
    a unit-magnitude planted signal and l1 noise inside the l1 ball."""
    r = np.random.default_rng([seed, 16])
    if kind == "lowrank-3x3":
        st = structures.build_lowrank(3, 3)
        m = 9
        x0 = np.outer(r.choice([-1.0, 1.0], 3), r.choice([-1.0, 1.0], 3)).ravel()
    else:
        st = structures.build_group([(0, 1), (2, 3), (4, 5)],
                                    block_norm="l2")
        m = 6
        x0 = np.zeros(6)
        blk = r.integers(3)
        x0[2 * blk:2 * blk + 2] = r.choice([-1.0, 1.0], 2)
    eps = r.uniform(0.01, 0.1)
    a = r.standard_normal((m, x0.size))
    xi = r.standard_normal(m)
    xi *= eps * r.uniform() / np.abs(xi).sum()
    return dict(a=a, b=st.b, y=a @ x0 + xi, structure=st, phi="l1",
                epsilon=eps)


_SHAPES = [(_benchmark_shape, kind) for kind in
           ("plain-n50", "plain-n30", "l2-triples", "lowrank-4x3")] + \
    [(_experiment_shape, kind) for kind in ("lowrank-3x3", "l2-pairs-3x2")]


@pytest.mark.parametrize("make,kind", _SHAPES)
def test_anderson_matches_plain_admm(make, kind):
    """The accelerated solve reaches the plain ADMM loop's objective to
    1e-8 * (1 + |obj|) in fewer iterations, and its certified delta covers
    the gap to the plain loop run to tol 1e-12."""
    for seed in range(2):
        data = make(kind, seed)
        sp = SplitProblem(**data)
        _, out = solve_split(sp)
        _, ref = plain_admm_oracle(sp)
        assert out.status is Status.OPTIMAL and ref.status is Status.OPTIMAL
        assert abs(out.objective - ref.objective) <= \
            1e-8 * (1.0 + abs(ref.objective))
        assert out.iterations < ref.iterations
        assert out.anderson["accepted"] > 0
        _, tight = solve_split(SplitProblem(tol=1e-12, maxiter=100000, **data))
        assert out.delta >= out.objective - tight.objective - 1e-12


def test_safeguard_rejects_a_bad_extrapolation(monkeypatch):
    """An extrapolated point pushed far off (every tenth one) fails the
    residual test: the solve falls back to the plain step, clears the
    memory, and still ends OPTIMAL at the plain loop's objective."""
    data = _benchmark_shape("l2-triples", 0)
    real = splitting._Anderson.extrapolate
    calls = iter(range(10 ** 6))

    def spoiled(self, g, f):
        x = real(self, g, f)
        if x is not g and next(calls) % 10 == 0:
            x = x + 10.0
        return x

    monkeypatch.setattr(splitting._Anderson, "extrapolate", spoiled)
    sp = SplitProblem(**data)
    _, out = solve_split(sp)
    monkeypatch.undo()
    _, ref = plain_admm_oracle(sp)
    assert out.status is Status.OPTIMAL
    assert out.anderson["rejected"] >= 1
    assert out.anderson["resets"] >= out.anderson["rejected"]
    assert abs(out.objective - ref.objective) <= 1e-8 * (1.0 + abs(ref.objective))


def test_certified_delta_covers_the_lp_gap():
    """On the polyhedral sweep forced through ADMM, the reported delta is a
    duality gap: never below the split objective minus the exact LP one."""
    for kind, phi, eps, seeds in _POLYHEDRAL_SWEEP:
        if kind == "plain":
            st = structures.build_plain(20)
        else:
            st = structures.build_group(
                [(2 * i, 2 * i + 1) for i in range(10)], block_norm=kind)
        for seed in seeds:
            r = np.random.default_rng([seed, 7])
            a = r.standard_normal((10, 20)) / np.sqrt(10)
            x0 = np.zeros(20)
            x0[r.choice(20, 3, replace=False)] = r.choice([-1.0, 1.0], 3)
            y = a @ x0 + 0.01 * r.standard_normal(10)
            prob = RecoveryProblem(a=a, b=None, y=y, phi=phi, epsilon=eps)
            lp = recover_regular(prob, st, method="lp")
            sp = recover_regular(prob, st, method="split")
            assert sp.delta >= sp.report.objective - lp.report.objective - 1e-12
            assert sp.delta <= 1e-5 * (1.0 + lp.report.objective)


def test_penalty_delta_is_a_gap():
    """Penalized splitting: delta covers the gap to the exact LP optimum."""
    from sparsecert.recovery import recover_penalized
    st = structures.build_plain(12)
    r = np.random.default_rng(4)
    a = r.standard_normal((6, 12))
    y = a @ np.eye(12)[3] + 0.02 * r.standard_normal(6)
    prob = RecoveryProblem(a=a, b=None, y=y, phi="l1")
    lp = recover_penalized(prob, st, lam=1.5, method="lp")
    sp = recover_penalized(prob, st, lam=1.5, method="split")
    assert sp.report.status is Status.OPTIMAL
    assert sp.delta >= sp.report.objective - lp.report.objective - 1e-12


def test_l2_block_recovery_has_exact_zero_blocks():
    """Where B is a permutation the prox output is returned, so blocks the
    prox zeroes are exactly zero (the u-iterate leaves noise of 1e-13 to
    5e-10 there)."""
    data = _benchmark_shape("l2-triples", 1)
    st = data["structure"]
    prob = RecoveryProblem(a=data["a"], b=data["b"], y=data["y"], phi="l2",
                           epsilon=data["epsilon"])
    res = recover_regular(prob, st)
    assert res.report.status is Status.OPTIMAL
    block_norms = norms.group_block_norms(st, res.w_hat)
    zero = block_norms == 0.0
    assert zero.sum() >= 5
    assert np.all(block_norms[~zero] > 1e-6)
    # the u-iterate of the same solve has no exact zero
    plain_u, _ = plain_admm_oracle(SplitProblem(**data))
    assert np.count_nonzero(plain_u == 0.0) == 0


def test_dual_bound_never_exceeds_the_optimum():
    """Weak duality of the dual bound behind delta: any multipliers z with
    M'z = 0, of any size, give a value at most the exact LP optimum, in
    both modes and for every phi with an LP form."""
    from sparsecert.recovery import recover_penalized
    r = np.random.default_rng(5)
    for kind in ("plain", "l1", "linf"):
        if kind == "plain":
            st = structures.build_plain(8)
        else:
            st = structures.build_group(
                [(0, 1), (2, 3), (4, 5), (6, 7)], block_norm=kind)
        a = r.standard_normal((4, 8))
        y = a @ np.eye(8)[1] + 0.05 * r.standard_normal(4)
        stack = np.vstack([st.b, a])
        null = np.linalg.svd(stack.T)[2][stack.shape[1]:]   # rows span {M'z = 0}
        for phi in ("l1", "linf"):
            prob = RecoveryProblem(a=a, b=None, y=y, phi=phi, epsilon=0.1)
            for mode, lam in (("constraint", 1.0), ("penalty", 0.7)):
                if mode == "constraint":
                    opt = recover_regular(prob, st, method="lp").report.objective
                else:
                    opt = recover_penalized(prob, st, lam=lam,
                                            method="lp").report.objective
                sp = SplitProblem(a=a, b=st.b, y=y, structure=st, phi=phi,
                                  mode=mode, epsilon=0.1, lam=lam)
                for size in (0.1, 1.0, 30.0):
                    for _ in range(10):
                        z = size * (r.standard_normal(null.shape[0]) @ null)
                        assert splitting._dual_bound(sp, z) <= opt + 1e-9
