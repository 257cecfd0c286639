"""Recovery programs and the closed-form error bounds."""

import numpy as np
import pytest

from sparsecert import structures
from sparsecert.recovery import (ErrorBudget, GammaTooLargeError,
                                 LambdaBelowBetaError, RecoveryProblem,
                                 RecoveryResult, error_bound,
                                 recover_penalized, recover_regular)


def make_plain_problem(a, y, phi="l1", epsilon=0.0):
    st = structures.build_plain(a.shape[1])
    return RecoveryProblem(a=a, b=None, y=y, phi=phi, epsilon=epsilon), st


def test_noiseless_exact_recovery_fixed_instance():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    prob, st = make_plain_problem(a, y=np.array([2.0, 0.0]))
    res = recover_regular(prob, st)
    assert res.feasible_solve
    assert np.allclose(res.x_hat, [2.0, 0.0, 0.0], atol=1e-8)
    assert res.w_hat == pytest.approx(res.x_hat)
    assert res.delta >= 0.0 and res.delta_phi >= 0.0


def test_identity_recovery_is_identity(rng):
    y = rng.standard_normal(5)
    prob, st = make_plain_problem(np.eye(5), y)
    res = recover_regular(prob, st)
    assert np.allclose(res.x_hat, y, atol=1e-8)


def test_huge_epsilon_gives_zero():
    prob, st = make_plain_problem(np.eye(4), np.ones(4), phi="l2",
                                  epsilon=100.0)
    res = recover_regular(prob, st)
    assert np.allclose(res.x_hat, 0.0, atol=1e-7)


def test_objective_never_exceeds_feasible_reference(rng):
    """Optimality sanity: x0 feasible means objective <= ||B x0||."""
    from sparsecert import norms
    for trial in range(10):
        r = np.random.default_rng(trial)
        a = r.standard_normal((5, 9))
        x0 = np.zeros(9)
        x0[r.choice(9, 2, replace=False)] = r.standard_normal(2)
        y = a @ x0
        prob, st = make_plain_problem(a, y, phi="l1", epsilon=0.2)
        res = recover_regular(prob, st)
        assert res.feasible_solve
        assert res.report.objective <= \
            norms.structure_norm(st, x0) + 1e-6


def test_penalized_exact_penalty_threshold():
    """With A = Id and an l1 penalty the per-entry solution is closed form:
    entries survive when lam > 1 and vanish when lam < 1."""
    y = np.array([2.0, -1.0, 0.5, 0.0])
    prob, st = make_plain_problem(np.eye(4), y, phi="l1")
    res_keep = recover_penalized(prob, st, lam=3.0)
    assert np.allclose(res_keep.x_hat, y, atol=1e-8)
    res_kill = recover_penalized(prob, st, lam=0.25)
    assert np.allclose(res_kill.x_hat, 0.0, atol=1e-8)


def test_penalized_matches_entrywise_oracle(rng):
    """A = Id, phi = l1: the objective splits per entry, so each coordinate
    minimizes |u| + lam*|u - y_i| whose minimum sits at 0 or y_i."""
    y = rng.standard_normal(6)
    prob, st = make_plain_problem(np.eye(6), y, phi="l1")
    for lam in (0.5, 2.0):
        res = recover_penalized(prob, st, lam=lam)
        expect = np.array([min((abs(u) + lam * abs(u - yi), u)
                               for u in (0.0, yi))[1] for yi in y])
        assert res.report.objective == pytest.approx(
            sum(min(abs(u) + lam * abs(u - yi) for u in (0.0, yi))
                for yi in y), abs=1e-8)
        assert np.allclose(res.x_hat, expect, atol=1e-8)


def test_penalized_ignores_epsilon():
    prob, st = make_plain_problem(np.eye(3), np.ones(3), phi="l1",
                                  epsilon=50.0)
    res = recover_penalized(prob, st, lam=4.0)
    assert np.allclose(res.x_hat, 1.0, atol=1e-8)   # epsilon played no role


def test_infeasible_constraint_detected():
    # rows demand y1 = 1 and y1 = 2 at epsilon = 0
    a = np.array([[1.0, 0.0], [1.0, 0.0]])
    prob, st = make_plain_problem(a, np.array([1.0, 2.0]), phi="linf")
    res = recover_regular(prob, st)
    assert not res.feasible_solve
    assert res.x_hat is None


def test_error_bound_closed_forms():
    budget = ErrorBudget(epsilon=0.1)
    assert error_bound(0.0, 2.0, budget, "regular") == pytest.approx(0.4)
    assert error_bound(0.5, 2.0, budget, "regular") == pytest.approx(0.8)
    pen = ErrorBudget(delta_x=0.05, lam=3.0, phi_xi=0.1)
    # (2*0.05 + 2*3*0.1) / (1 - 0.5)
    assert error_bound(0.5, 2.0, pen, "penalized") == pytest.approx(1.4)


def test_error_bound_blowup_near_one():
    b = ErrorBudget(epsilon=0.1)
    assert error_bound(0.99, 1.0, b, "regular") == \
        pytest.approx(100.0 * error_bound(0.0, 1.0, b, "regular"))


def test_error_bound_guards():
    b = ErrorBudget(epsilon=0.1)
    with pytest.raises(GammaTooLargeError):
        error_bound(1.0, 1.0, b, "regular")
    with pytest.raises(GammaTooLargeError):
        error_bound(1.7, 1.0, b, "regular")
    with pytest.raises(LambdaBelowBetaError):
        error_bound(0.5, 2.0, ErrorBudget(lam=1.0), "penalized")
    with pytest.raises(ValueError):
        error_bound(0.5, 1.0, b, "exact")
    with pytest.raises(ValueError):
        ErrorBudget(epsilon=-0.1)
    with pytest.raises(ValueError):
        error_bound(np.nan, 1.0, b, "regular")


def test_problem_validation():
    st = structures.build_plain(3)
    with pytest.raises(ValueError):
        RecoveryProblem(a=np.eye(3), b=None, y=np.zeros(2))
    with pytest.raises(ValueError):
        RecoveryProblem(a=np.eye(3), b=None, y=np.zeros(3), phi="l7")
    with pytest.raises(ValueError):
        RecoveryProblem(a=np.eye(3), b=None, y=np.zeros(3), epsilon=-1.0)
    with pytest.raises(ValueError):
        recover_penalized(RecoveryProblem(a=np.eye(3), b=None, y=np.zeros(3)),
                          st, lam=-1.0)


def test_problem_rejects_non_finite_data():
    a, y = np.eye(2), np.ones(2)
    for bad in (np.nan, np.inf):
        a_bad = a.copy()
        a_bad[0, 1] = bad
        with pytest.raises(ValueError):
            RecoveryProblem(a=a_bad, b=None, y=y)
        with pytest.raises(ValueError):
            RecoveryProblem(a=a, b=None, y=np.array([bad, 1.0]))
        with pytest.raises(ValueError):
            RecoveryProblem(a=a, b=None, y=y, epsilon=bad)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
@pytest.mark.parametrize("phi, epsilon", [("l2", 0.1), ("l1", 0.0)])
def test_penalized_refuses_a_non_finite_lambda(lam, phi, epsilon):
    """NaN or an infinite penalty is refused on the ADMM path (l2) and the
    LP path (l1) alike, before any solve."""
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    prob, st = make_plain_problem(a, np.array([1.0, 0.5]), phi=phi,
                                  epsilon=epsilon)
    with pytest.raises(ValueError, match="lam must be a finite number > 0"):
        recover_penalized(prob, st, lam)


def test_recovery_refuses_an_a_of_the_wrong_width():
    """A must have one column per coordinate of the structure."""
    st = structures.build_plain(4)
    for a in (np.ones((2, 3)), np.ones((2, 5))):
        for phi, epsilon in (("l1", 0.0), ("l2", 0.1)):
            prob = RecoveryProblem(a=a, b=None, y=np.ones(2), phi=phi,
                                   epsilon=epsilon)
            with pytest.raises(ValueError, match="A must have 4 columns"):
                recover_regular(prob, st)


def test_lp_stopped_in_phase_one_returns_no_point(monkeypatch):
    """A phase one that hits its cap has no point to map back: the result
    carries the MAXITER report and no x_hat."""
    from sparsecert import recovery
    from sparsecert.engine import SolveReport, Status
    monkeypatch.setattr(recovery, "solve_lp", lambda lp: (
        None, SolveReport(status=Status.MAXITER, iterations=3)))
    prob, st = make_plain_problem(np.eye(3), np.ones(3))
    for res in (recover_regular(prob, st),
                recover_penalized(prob, st, lam=2.0)):
        assert res.report.status is Status.MAXITER
        assert res.x_hat is None and res.delta == np.inf


def test_method_dispatch(rng):
    a = rng.standard_normal((3, 5))
    prob, st = make_plain_problem(a, rng.standard_normal(3), phi="l2",
                                  epsilon=0.1)
    from sparsecert.norms import UnsupportedNormError
    with pytest.raises(UnsupportedNormError):
        recover_regular(prob, st, method="lp")    # l2 ball is not polyhedral
    res = recover_regular(prob, st, method="auto")
    assert res.feasible_solve
    with pytest.raises(ValueError):
        recover_regular(prob, st, method="newton")


@pytest.mark.parametrize("phi,eps", [("l1", 0.0), ("l2", 0.1)])
def test_b_none_is_the_canonical_map(rng, phi, eps):
    """b=None resolves to the structure's representation map on the LP path
    (l1, eps = 0) and the splitting path (l2, eps > 0): the same result as
    passing that map, for plain and for overlapping group blocks."""
    for st in (structures.build_plain(6),
               structures.build_group([(0, 1, 2), (2, 3), (3, 4, 5)],
                                      block_norm="l1")):
        a = rng.standard_normal((4, 6))
        y = a @ np.array([0.0, 1.5, 0.0, 0.0, -2.0, 0.0])
        got = recover_regular(RecoveryProblem(a=a, b=None, y=y, phi=phi,
                                              epsilon=eps), st)
        want = recover_regular(RecoveryProblem(a=a, b=st.b.copy(), y=y,
                                               phi=phi, epsilon=eps), st)
        assert got.feasible_solve
        assert got.report.iterations == want.report.iterations
        assert np.array_equal(got.x_hat, want.x_hat)
        assert np.array_equal(got.w_hat, want.w_hat)
        assert got.report.objective == want.report.objective


def test_lp_path_minimizes_a_non_canonical_b():
    """B = diag(1, 10, 1): x = (1, 0, 1) fits y = (1, 1) with ||Bx||_1 = 2,
    where (0, 1, 0) costs 10; every method finds the former."""
    st = structures.build_plain(3)
    prob = RecoveryProblem(a=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]),
                           b=np.diag([1.0, 10.0, 1.0]), y=np.ones(2),
                           phi="l1", epsilon=0.0)
    for method in ("lp", "auto", "split"):
        res = recover_regular(prob, st, method=method)
        assert np.allclose(res.x_hat, [1.0, 0.0, 1.0], atol=1e-6), method
        assert res.report.objective == pytest.approx(2.0, abs=1e-6), method


def test_lp_path_with_invertible_b_is_a_change_of_variables(rng):
    """min ||B u|| s.t. fit(A u - y) equals min ||w|| s.t. fit(A B^-1 w - y)
    under the canonical B, for each LP fit."""
    for st in (structures.build_plain(6),
               structures.build_group([(0, 1), (2, 3, 4), (5,)],
                                      block_norm=["linf", "l1", "linf"])):
        a = rng.standard_normal((3, 6))
        b = np.eye(6) + 0.5 * rng.standard_normal((6, 6))
        y = rng.standard_normal(3)
        for phi, eps in (("l1", 0.0), ("l1", 0.3), ("linf", 0.2)):
            got = recover_regular(RecoveryProblem(a=a, b=b, y=y, phi=phi,
                                                  epsilon=eps), st, method="lp")
            want = recover_regular(RecoveryProblem(
                a=a @ np.linalg.inv(b), b=np.eye(6), y=y, phi=phi,
                epsilon=eps), st, method="lp")
            assert got.report.objective == pytest.approx(
                want.report.objective, rel=1e-9, abs=1e-12)
        got = recover_penalized(RecoveryProblem(a=a, b=b, y=y, phi="l1"), st,
                                2.0, method="lp")
        want = recover_penalized(RecoveryProblem(a=a @ np.linalg.inv(b),
                                                 b=np.eye(6), y=y, phi="l1"),
                                 st, 2.0, method="lp")
        assert got.report.objective == pytest.approx(want.report.objective,
                                                     rel=1e-9, abs=1e-12)


def test_group_recovery_lp_vs_oracle_objective(rng):
    """Group objective with l1 blocks is a weighted l1; LP must match the
    direct enumeration of the tiny kernel instance."""
    st = structures.build_group([(0, 1), (2,)], block_norm="l1")
    a = np.array([[1.0, 1.0, 1.0]])
    y = np.array([1.0])
    prob = RecoveryProblem(a=a, b=None, y=y, phi="linf", epsilon=0.0)
    res = recover_regular(prob, st)
    # any single-coordinate solution has objective 1
    assert res.report.objective == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(a @ res.x_hat, y, atol=1e-8)
