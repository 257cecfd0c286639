"""Operator-splitting solver for the two composite recovery programs.

Both programs share the shape

    min_u  ||B u||_structure + data term on A u - y,

where the data term is either the indicator of {phi(A u - y) <= eps}
(constrained recovery) or lam * phi(A u - y) (penalized recovery).  Stacking
M = [B; A] and splitting v = [w; r] with M u = v gives an ADMM iteration whose
u-step is the fixed linear map u = G (v - mu) with the gain
G = (B'B + A'A)^{-1} M', computed once per solve from a Cholesky factor
(the penalty parameter cancels there, so rescaling rho never changes it) and
applied by one matrix-vector product per iteration; the v-step is a
structure-norm prox plus a ball projection or a phi prox.

rho starts at sqrt(lmin * lmax) for the extreme eigenvalues of M'M, the
rate-optimal penalty of ADMM on quadratic problems (Ghadimi et al., IEEE TAC
60(3), 2015), or at 1 when M'M had to be regularized (lmin is then about 0).
Every 50 iterations it is rescaled by residual balancing (Boyd et al., FnT
ML 2011, section 3.4.1): doubled when the primal residual exceeds 10 times
the dual residual divided by sqrt(lmax), halved in the reverse case, kept
inside [1e-4, 1e4]; the dual residual rho*||M'(v_new - v)|| carries a factor
of up to sqrt(lmax) that the primal residual ||M u - v|| lacks, so the
division puts both in the units of v.  The scaled dual variable is rescaled
with rho.  The test may undo its previous move once; the second time it
asks to, balancing stops and rho is kept.  rho then changes finitely often,
the condition under which varying-penalty ADMM keeps its convergence
guarantee, and a limit cycle of doubling and halving (residuals growing
while rho flips every 100 iterations) cannot last.  Stops when max(primal,
dual) residual <= tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import norms
from .simplex import SolveReport, Status

_RHO_BOUNDS = (1e-4, 1e4)
_RESCALE_EVERY = 50


@dataclass
class SplitProblem:
    """Data for one recovery solve.

    ``mode`` is 'constraint' (phi-ball of radius epsilon around y) or
    'penalty' (adds lam * phi(Au - y)).  ``structure`` supplies the prox of
    the objective norm; ``b`` is the representation matrix (dense).
    """
    a: np.ndarray
    b: np.ndarray
    y: np.ndarray
    structure: object
    phi: str = "l2"
    mode: str = "constraint"
    epsilon: float = 0.0
    lam: float = 1.0
    tol: float = 1e-8
    maxiter: int = 50000

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.atleast_2d(np.asarray(self.b, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.a.shape[0] != self.y.size:
            raise ValueError("A row count must match y length")
        if self.a.shape[1] != self.b.shape[1]:
            raise ValueError("A and B must share the column dimension")
        if self.mode not in ("constraint", "penalty"):
            raise ValueError("mode must be 'constraint' or 'penalty'")
        if self.phi not in norms.VECTOR_TAGS:
            raise ValueError("phi must be one of l1/l2/linf")
        if self.tol <= 0 or self.maxiter < 1:
            raise ValueError("tol must be positive; maxiter >= 1")
        if self.mode == "constraint" and self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.mode == "penalty" and self.lam <= 0:
            raise ValueError("lam must be positive")


def _objective(sp, u):
    fit = sp.a @ u - sp.y
    obj = norms.structure_norm(sp.structure, sp.b @ u)
    if sp.mode == "penalty":
        obj += sp.lam * norms.vector_norm(fit, sp.phi)
    return float(obj)


def _u_step_gain(stack):
    """Gain G = (M'M)^{-1} M' of the u-step for M = ``stack``, and warnings.

    Two triangular solves on the Cholesky factor of M'M, with all of M' as
    right-hand side; no explicit inverse is formed.  A singular M'M is
    regularized by 1e-10*I, which is reported as a warning.
    """
    normal = stack.T @ stack
    warnings = []
    try:
        chol = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError:
        chol = np.linalg.cholesky(normal + 1e-10 * np.eye(normal.shape[0]))
        warnings.append("coupling matrix singular; regularized by 1e-10*I")
    return np.linalg.solve(chol.T, np.linalg.solve(chol, stack.T)), warnings


def _penalty_start(stack, regularized):
    """Starting rho and sqrt(lmax), for lmin, lmax the extreme eigenvalues of
    M'M with M = ``stack``; rho is 1 when M'M was ``regularized``."""
    lmin, lmax = np.linalg.eigvalsh(stack.T @ stack)[[0, -1]]
    scale = math.sqrt(lmax) if lmax > 0.0 else 1.0
    if regularized:
        return 1.0, scale
    rho = min(max(math.sqrt(max(lmin, 0.0) * lmax), _RHO_BOUNDS[0]), _RHO_BOUNDS[1])
    return rho, scale


def solve_split(sp):
    """Run the splitting scheme; returns (u, SolveReport).

    The report's residuals always carry the final primal/dual pair plus the
    measured data-fit violation ``phi_gap`` = max(0, phi(Au-y) - eps) for
    constraint mode.
    """
    m, n = sp.a.shape
    e_dim = sp.b.shape[0]
    stack = np.vstack([sp.b, sp.a])
    gain, warnings = _u_step_gain(stack)
    rho, dual_scale = _penalty_start(stack, bool(warnings))

    u = np.zeros(n)
    v = stack @ u
    mu = np.zeros(e_dim + m)  # scaled dual

    status = Status.MAXITER
    it = 0
    r_primal = r_dual = np.inf
    balancing, reversed_once, last_move = True, False, 0
    for it in range(1, sp.maxiter + 1):
        u = gain @ (v - mu)
        stack_u = stack @ u
        mu_full = stack_u + mu
        w_in, r_in = mu_full[:e_dim], mu_full[e_dim:]
        w = norms.prox_structure_norm(sp.structure, w_in, 1.0 / rho)
        if sp.mode == "constraint":
            r = sp.y + norms.project_ball(r_in - sp.y, sp.phi, sp.epsilon)
        else:
            r = sp.y + norms.prox_vector_norm(r_in - sp.y, sp.phi, sp.lam / rho)
        v_new = np.concatenate([w, r])
        mu = mu_full - v_new
        # sqrt(x @ x) is what np.linalg.norm computes on a vector, without
        # its dispatch overhead
        diff = stack_u - v_new
        r_primal = math.sqrt(diff @ diff)
        v_old, v = v, v_new
        # the dual residual is read only by the stop test once the primal
        # one passes it, by the rescale and by the report: form it only then
        rescale = balancing and it % _RESCALE_EVERY == 0
        if r_primal > sp.tol and not rescale and it < sp.maxiter:
            continue
        diff = stack.T @ (v - v_old)
        r_dual = rho * math.sqrt(diff @ diff)
        if max(r_primal, r_dual) <= sp.tol:
            status = Status.OPTIMAL
            break
        if rescale:
            r_dual_v = r_dual / dual_scale
            move = 0
            if r_primal > 10.0 * r_dual_v and rho < _RHO_BOUNDS[1]:
                move = 1
            elif r_dual_v > 10.0 * r_primal and rho > _RHO_BOUNDS[0]:
                move = -1
            if move and move == -last_move:
                # a reversal: the first is taken, the second stops balancing
                balancing = not reversed_once
                reversed_once = True
            if move and balancing:
                factor = 2.0 if move > 0 else 0.5
                rho = min(max(rho * factor, _RHO_BOUNDS[0]), _RHO_BOUNDS[1])
                mu /= factor
                last_move = move

    fit = sp.a @ u - sp.y
    residuals = {"primal": r_primal, "dual": r_dual}
    if sp.mode == "constraint":
        residuals["phi_gap"] = max(0.0, norms.vector_norm(fit, sp.phi) - sp.epsilon)
    report = SolveReport(status=status, objective=_objective(sp, u),
                         iterations=it, residuals=residuals,
                         warnings=warnings)
    return u, report
