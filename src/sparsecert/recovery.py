"""The two recovery programs and their closed-form error bounds.

``recover_regular`` minimizes the structure norm of Bu subject to a data-fit
ball phi(Au - y) <= epsilon; ``recover_penalized`` minimizes the structure
norm plus lam * phi(Au - y) and deliberately ignores epsilon (the penalized
program needs no a priori noise level).  Polyhedral instances go through the
exact LP backend, everything else through operator splitting; ``method="auto"``
picks for you.  B is ``problem.b`` when given, else the structure's own
``structure.b``; ``structures.representation`` resolves and validates it.

``error_bound`` evaluates the two closed forms

    regular:    (beta*(2*eps + delta_phi) + delta + 2*delta_x) / (1 - gamma)
    penalized:  (2*delta_x + delta + 2*lam*phi_xi) / (1 - gamma),

valid whenever (gamma, beta) certify the s-sparsity condition for the pair
(A, structure); the penalized form additionally requires lam >= beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import norms, structures
from .engine import LinearProgram, SolveReport, SplitProblem, Status, solve_lp, \
    solve_split
from .norms import UnsupportedNormError


class GammaTooLargeError(ValueError):
    """The contraction factor gamma must be < 1 for the bounds to hold."""


class LambdaBelowBetaError(ValueError):
    """The penalized bound needs penalty weight lam >= beta."""


@dataclass
class RecoveryProblem:
    a: np.ndarray
    b: np.ndarray | None      # a custom B, or None for structure.b
    y: np.ndarray
    phi: str = "l2"
    epsilon: float = 0.0

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.b is not None:
            self.b = np.asarray(self.b, dtype=float)
        if self.a.shape[0] != self.y.size:
            raise ValueError("A row count must match y length")
        if self.phi not in norms.VECTOR_TAGS:
            raise ValueError("phi must be one of l1/l2/linf")
        # B is checked against the structure by structures.representation
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.y))
                and np.isfinite(self.epsilon)):
            raise ValueError("a, y and epsilon must be finite")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


@dataclass
class RecoveryResult:
    x_hat: np.ndarray | None
    w_hat: np.ndarray | None   # always recomputed as B @ x_hat
    delta: float
    delta_phi: float
    report: SolveReport

    @property
    def feasible_solve(self):
        return self.report.status in (Status.OPTIMAL, Status.MAXITER)


@dataclass
class ErrorBudget:
    """Tolerances entering the closed-form bounds; all finite and
    nonnegative (``lam`` positive)."""
    epsilon: float = 0.0
    delta_x: float = 0.0
    delta_phi: float = 0.0
    delta: float = 0.0
    lam: float | None = None   # penalized only
    phi_xi: float = 0.0        # realized phi(noise), penalized only

    def __post_init__(self):
        # comparisons read NaN as out of range
        for name in ("epsilon", "delta_x", "delta_phi", "delta", "phi_xi"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be a finite number >= 0")
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise ValueError("lam must be a finite number > 0")


def error_bound(gamma, beta, budget, mode):
    """Closed-form bound on the structure-norm recovery error ||B(x_hat - x)||."""
    if not np.isfinite(gamma) or gamma < 0:
        raise ValueError("gamma must be a finite nonnegative real")
    if gamma >= 1:
        raise GammaTooLargeError(f"gamma = {gamma} >= 1; no bound available")
    if not np.isfinite(beta) or beta < 0:
        raise ValueError("beta must be a finite nonnegative real")
    if mode == "regular":
        num = beta * (2.0 * budget.epsilon + budget.delta_phi) \
            + budget.delta + 2.0 * budget.delta_x
    elif mode == "penalized":
        if budget.lam is None:
            raise ValueError("penalized bound needs budget.lam")
        if budget.lam < beta:
            raise LambdaBelowBetaError(
                f"lam = {budget.lam} < beta = {beta}")
        num = 2.0 * budget.delta_x + budget.delta \
            + 2.0 * budget.lam * budget.phi_xi
    else:
        raise ValueError("mode must be 'regular' or 'penalized'")
    return float(num / (1.0 - gamma))


# ---------------------------------------------------------------------------
# LP reformulations


def _build_recovery_lp(problem, structure, custom, mode, lam=0.0):
    """Exact LP for polyhedral instances: (lp, n), with u = x[:n] - x[n:2n].

    Variable layout [u+ | u- | t | fit aux], all >= 0: the first three are
    the encoding of ||B u|| by ``norms.structure_norm_epigraph`` (its rows
    come first; ``custom`` is that of ``structures.representation``), then
    the data fit on [A, -A].  That is A u = y for regular recovery with
    epsilon = 0, with no fit aux.  Otherwise an l1 fit has
    the layout [u+ | u- | t | r+ | r-]: the split residual, one equality
    row A u - r+ + r- = y per measurement, so A u - y = r+ - r- and the fit
    is sum(r+ + r-) at an optimum.  Regular recovery closes it with the one
    row sum(r+ + r-) <= epsilon; penalized recovery prices both parts at
    lam.  A linf fit keeps the pair +-(a_j u - y_j) per measurement, bounded
    by one shared fit aux (penalized) or by epsilon (regular): an equality
    split would need a bound row per measurement on top, so it saves no
    rows there.
    """
    a, y = problem.a, problem.y
    m, n = a.shape
    obj_cost, obj_g = norms.structure_norm_epigraph(structure, n, custom)
    a_pm = np.hstack([a, -a])
    senses = ("eq",) * m
    if mode == "regular" and problem.epsilon == 0.0:
        fit_cost, fit_u, fit_aux, fit_h = np.zeros(0), a_pm, np.zeros((m, 0)), y
    elif problem.phi == "l1":
        eye = np.eye(m)
        fit_u, fit_aux, fit_h = a_pm, np.hstack([-eye, eye]), y
        if mode == "penalized":
            fit_cost = np.full(2 * m, lam)
        else:
            fit_cost = np.zeros(2 * m)
            fit_u = np.vstack([fit_u, np.zeros(2 * n)])
            fit_aux = np.vstack([fit_aux, np.ones(2 * m)])
            fit_h = np.append(fit_h, problem.epsilon)
            senses += ("le",)
    elif problem.phi == "linf":
        sign = np.tile([1.0, -1.0], m)
        fit_u = np.repeat(a_pm, 2, axis=0) * sign[:, None]
        fit_h = np.repeat(y, 2) * sign
        senses = ("le",) * (2 * m)
        if mode == "penalized":
            fit_cost, fit_aux = np.array([lam]), -np.ones((2 * m, 1))
        else:
            fit_cost, fit_aux = np.zeros(0), np.zeros((2 * m, 0))
            fit_h = fit_h + problem.epsilon
    else:
        raise UnsupportedNormError("phi=l2 has no exact LP form with epsilon > 0")

    n_obj, r_obj = obj_cost.size, obj_g.shape[0]
    g = np.zeros((r_obj + fit_u.shape[0], n_obj + fit_cost.size))
    g[:r_obj, :n_obj] = obj_g
    g[r_obj:, :2 * n] = fit_u
    g[r_obj:, n_obj:] = fit_aux
    return LinearProgram(c=np.concatenate([obj_cost, fit_cost]), G=g,
                         h=np.concatenate([np.zeros(r_obj), fit_h]),
                         senses=("le",) * r_obj + senses), n


def _finish(problem, structure, bmat, x, report, mode, lam=0.0):
    """The result of a solve; none for a missing point or an infeasible or
    unbounded program.  ``bmat`` is the dense B the solve used."""
    if x is None or report.status in (Status.INFEASIBLE, Status.UNBOUNDED):
        return RecoveryResult(x_hat=None, w_hat=None, delta=np.inf,
                              delta_phi=np.inf, report=report)
    w = bmat @ x
    fit = norms.vector_norm(problem.a @ x - problem.y, problem.phi)
    if mode == "regular":
        delta_phi = max(0.0, fit - problem.epsilon)
    else:
        delta_phi = 0.0  # penalized program has no feasibility constraint
    # both backends report a certified duality gap at x
    delta = float(report.delta) if np.isfinite(report.delta) else np.inf
    report.objective = norms.structure_norm(structure, w) + \
        (lam * fit if mode == "penalized" else 0.0)
    return RecoveryResult(x_hat=x, w_hat=w, delta=delta, delta_phi=delta_phi,
                          report=report)


def _recover(problem, structure, mode, lam, method, tol):
    """The body of both recovery modes; ``lam`` is 0 for regular."""
    if method not in ("auto", "lp", "split"):
        raise ValueError("method must be auto/lp/split")
    structures.sensing_matrix(structure, problem.a)
    bmat, custom = structures.representation(structure, problem.b)
    lp_fit = problem.phi in ("l1", "linf") or (
        mode == "regular" and problem.epsilon == 0.0)
    if method == "lp" or (method == "auto" and lp_fit
                          and norms.has_lp_form(structure)):
        lp, n = _build_recovery_lp(problem, structure, custom, mode, lam)
        x, report = solve_lp(lp)
        return _finish(problem, structure, bmat,
                       None if x is None else x[:n] - x[n:2 * n], report,
                       mode, lam)
    if mode == "regular" and problem.phi == "l2":
        # infeasibility is decidable for the euclidean ball: compare epsilon
        # with the least-squares residual of the data equations
        resid = problem.y - problem.a @ np.linalg.lstsq(
            problem.a, problem.y, rcond=None)[0]
        min_fit = float(np.linalg.norm(resid))
        if min_fit > problem.epsilon + max(1e-9, 1e-9 * np.abs(problem.y).max(initial=0.0)):
            report = SolveReport(status=Status.INFEASIBLE,
                                 residuals={"min_phi": min_fit})
            return _finish(problem, structure, bmat, None, report, mode)
    sp = SplitProblem(a=problem.a, b=bmat, y=problem.y,
                      structure=structure, phi=problem.phi,
                      mode="constraint" if mode == "regular" else "penalty",
                      epsilon=problem.epsilon, lam=max(lam, 1e-12),
                      tol=tol)
    x, report = solve_split(sp)
    return _finish(problem, structure, bmat, x, report, mode, lam)


def recover_regular(problem, structure, method="auto", tol=1e-8):
    """Minimize ||B u|| subject to phi(A u - y) <= epsilon.

    method 'lp' forces the exact polyhedral path (UnsupportedNormError when
    none exists), 'split' the iterative one, 'auto' prefers LP whenever exact.
    Returns a RecoveryResult whose delta/delta_phi are measured, not assumed.
    """
    return _recover(problem, structure, "regular", 0.0, method, tol)


def recover_penalized(problem, structure, lam, method="auto", tol=1e-8):
    """Minimize ||B u|| + lam * phi(A u - y); problem.epsilon plays no role."""
    if not 0 < lam < np.inf:    # NaN fails too
        raise ValueError("lam must be a finite number > 0")
    return _recover(problem, structure, "penalized", lam, method, tol)
