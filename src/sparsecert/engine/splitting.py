"""Operator-splitting solver for the two composite recovery programs.

Both programs share the shape

    min_u  ||B u||_structure + data term on A u - y,

where the data term is either the indicator of {phi(A u - y) <= eps}
(constrained recovery) or lam * phi(A u - y) (penalized recovery).  Stacking
M = [B; A] and splitting v = [w; r] with M u = v gives an ADMM iteration whose
u-step is the fixed linear map u = G (v - mu) with the gain
G = (B'B + A'A)^{-1} M', computed once per solve from a Cholesky factor
(the penalty parameter cancels there, so rescaling rho never changes it).
The loop only reads M u, so it applies the projector P = M G to v - mu, one
matrix-vector product per iteration, and forms u once, at the end.  The
v-step is a structure-norm prox plus a ball projection or a phi prox, both
picked once per solve.

rho starts at sqrt(lmin * lmax) for the extreme eigenvalues of M'M, the
rate-optimal penalty of ADMM on quadratic problems (Ghadimi et al., IEEE TAC
60(3), 2015), or at 1 when M'M had to be regularized (lmin is then about 0).
Every 50 iterations it is rescaled by residual balancing (Boyd et al., FnT
ML 2011, section 3.4.1): doubled when the primal residual exceeds 10 times
the dual residual divided by sqrt(lmax), halved in the reverse case, kept
inside [1e-4, 1e4]; the dual residual rho*||M'(v_new - v)|| carries a factor
of up to sqrt(lmax) that the primal residual ||M u - v_new|| lacks, so the
division puts both in the units of v.  The scaled dual variable is rescaled
with rho.  The test may undo its previous move once; the second time it
asks to, balancing stops and rho is kept.  rho then changes finitely often,
the condition under which varying-penalty ADMM keeps its convergence
guarantee, and a limit cycle of doubling and halving (residuals growing
while rho flips every 100 iterations) cannot last.  Stops when max(primal,
dual) residual <= tol.  Both residuals certify the point they are read at,
whatever produced it: with u = G (v - mu), rho*mu_new is a subgradient of
the v-term at v_new and M'(rho*mu_new) = rho*M'(v - v_new).

Anderson acceleration.  One ADMM iteration is a map x -> g(x) on the state
x = [v; mu], and the solution is its fixed point, where the residual
f = g(x) - x vanishes.  The type-II Anderson step (Walker & Ni, SIAM J.
Numer. Anal. 49, 2011) keeps the last ``_MEMORY`` differences of g and of f
between consecutive evaluations, in ring buffers whose Gram matrix is updated
one row per iteration, finds the mixing weights gamma from the small
normal equations (with a relative ridge on the diagonal) and moves to
g(x) - dG gamma instead of g(x).  Safeguard: when the residual ||f|| at the
extrapolated point exceeds the one at the point it was extrapolated from,
that point is dropped, the plain step g(x) from the earlier point (already
computed) is taken and the memory is cleared.  The memory is also cleared
at every change of rho, which changes the map.  Every map evaluation is one
iteration, rejected ones included, so ``maxiter`` bounds the work.

Convergence: every point the iteration keeps is either the plain ADMM step
from the last kept point or an extrapolation whose residual is no larger
than that point's; with no extrapolation kept the method is plain ADMM.
Zhang, O'Donoghue & Boyd (SIAM J. Optim. 30(4), 2020) prove global
convergence of the accelerated sequence for a stricter safeguard (a
summable decrease of the residual); this one is the cheaper monotone test,
and the residual stop and the iteration cap bound every solve either way.

The result: where B is a permutation (plain structures, groups without
overlap, low rank) the prox output w of the last evaluation is returned as
u = B'w, so blocks the prox sets to zero are exactly zero; otherwise u is
the last u-step.  ``delta`` is a certified duality gap at that point: the
dual (zeta, lambda) = rho*mu is projected onto {M'z = 0} as z - P z, scaled
into the dual-norm ball of the structure norm (and, for the penalty, into
the ball of radius lam of phi's dual norm), and delta = max(0, primal -
dual).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import norms
from .simplex import SolveReport, Status

_RHO_BOUNDS = (1e-4, 1e4)
_RESCALE_EVERY = 50
_MEMORY = 5          # Anderson memory: differences kept
_RIDGE = 1e-10       # relative weight added to the Gram diagonal


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
        if not 0 < self.tol < math.inf or self.maxiter < 1:   # NaN fails too
            raise ValueError("tol must be positive and finite; maxiter >= 1")
        # each mode checks only its own parameter; NaN fails the range test
        if self.mode == "constraint" and not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be a finite number >= 0")
        if self.mode == "penalty" and not 0 < self.lam < math.inf:
            raise ValueError("lam must be a finite number > 0")


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


def _fit_step(sp):
    """The v-step on the data part, picked once: r = y + the ball
    projection of r_in - y (constraint) or its phi prox of weight lam/rho
    (penalty), as a function of (r_in, rho)."""
    y = sp.y
    if sp.mode == "penalty":
        prox, lam = norms.vector_prox(sp.phi), sp.lam
        return lambda r_in, rho: y + prox(r_in - y, lam / rho)
    project = norms.ball_projector(sp.phi, sp.epsilon)
    return lambda r_in, rho: y + project(r_in - y)


def _is_permutation(b):
    return b.shape[0] == b.shape[1] and bool(
        np.all((b == 0.0) | (b == 1.0)) and np.all(b.sum(axis=0) == 1.0)
        and np.all(b.sum(axis=1) == 1.0))


def _dual_bound(sp, z):
    """A lower bound on the optimum from multipliers z of M u = v that
    satisfy M'z = 0: z scaled into the dual-norm ball of the structure norm
    (and for the penalty into the ball of radius lam of phi's dual norm),
    then the dual objective."""
    e_dim = sp.b.shape[0]
    zeta, lam_y = z[:e_dim], z[e_dim:]
    scale = max(1.0, norms.structure_norm(sp.structure, zeta, dual=True))
    fit_dual = norms.vector_norm(lam_y, norms.dual_tag(sp.phi))
    if sp.mode == "penalty":
        scale = max(scale, fit_dual / sp.lam)
        return float(-(lam_y @ sp.y) / scale)
    return float(-(lam_y @ sp.y + sp.epsilon * fit_dual) / scale)


class _Anderson:
    """The last ``_MEMORY`` differences of f and of g, in ring buffers (one
    row per difference), and the Gram matrix of the f differences."""

    __slots__ = ("df", "dg", "gram", "size", "head", "resets")

    def __init__(self, dim):
        self.df = np.empty((_MEMORY, dim))
        self.dg = np.empty((_MEMORY, dim))
        self.gram = np.empty((_MEMORY, _MEMORY))
        self.size = self.head = self.resets = 0

    def clear(self):
        self.size = self.head = 0
        self.resets += 1

    def push(self, f, f_last, g, g_last):
        """Store the differences to the last point; one new Gram row."""
        j = self.head
        np.subtract(f, f_last, out=self.df[j])
        np.subtract(g, g_last, out=self.dg[j])
        self.head = (j + 1) % _MEMORY
        self.size = k = min(self.size + 1, _MEMORY)
        row = self.df[:k] @ self.df[j]
        self.gram[j, :k] = row
        self.gram[:k, j] = row
        self.gram[j, j] *= 1.0 + _RIDGE

    def extrapolate(self, g, f):
        """g - dG gamma for the gamma that best cancels f; g itself when
        the memory is empty or its Gram matrix is singular."""
        k = self.size
        if not k:
            return g
        try:
            gamma = np.linalg.solve(self.gram[:k, :k], self.df[:k] @ f)
        except np.linalg.LinAlgError:
            self.clear()
            return g
        return g - gamma @ self.dg[:k]


def solve_split(sp):
    """Run the splitting scheme; returns (u, SolveReport).

    The report's residuals always carry the final primal/dual pair plus the
    measured data-fit violation ``phi_gap`` = max(0, phi(Au-y) - eps) for
    constraint mode; ``delta`` is the certified duality gap at u, and
    ``anderson`` counts the accepted extrapolations, the safeguard's
    rejections and the memory resets.
    """
    m, n = sp.a.shape
    e_dim = sp.b.shape[0]
    d = e_dim + m
    stack = np.vstack([sp.b, sp.a])
    gain, warnings = _u_step_gain(stack)
    proj = stack @ gain
    rho, dual_scale = _penalty_start(stack, bool(warnings))
    prox = norms.structure_prox(sp.structure)
    fit_step = _fit_step(sp)
    memory = _Anderson(2 * d)

    x = np.zeros(2 * d)  # [v; mu] at u = 0
    f_last = g_last = None   # residual and map value at the last accepted point
    fn_last = np.inf
    trial = False            # x is an extrapolated point not yet checked
    accepted = rejected = 0
    status = Status.MAXITER
    it = 0
    r_primal = r_dual = np.inf
    balancing, reversed_once, last_move = True, False, 0
    for it in range(1, sp.maxiter + 1):
        mu = x[d:]
        t = x[:d] - mu
        mu_full = proj @ t + mu            # M u + mu
        g = np.empty(2 * d)
        g[:e_dim] = prox(mu_full[:e_dim], 1.0 / rho)
        g[e_dim:d] = fit_step(mu_full[e_dim:], rho)
        np.subtract(mu_full, g[:d], out=g[d:])
        f = g - x
        fn = f @ f
        # the mu part of f is M u - v_new, the primal residual
        fm = f[d:]
        r_primal = math.sqrt(fm @ fm)
        # the dual residual is read only by the stop test once the primal
        # one passes it, by the rescale and by the report: form it only then
        rescale = balancing and it % _RESCALE_EVERY == 0
        if r_primal <= sp.tol or rescale or it == sp.maxiter:
            diff = stack.T @ f[:d]
            r_dual = rho * math.sqrt(diff @ diff)
            if max(r_primal, r_dual) <= sp.tol:
                status = Status.OPTIMAL
                break
        if trial and fn > fn_last:
            # safeguard: drop the extrapolated point for the plain step
            # from the last accepted one
            rejected += 1
            memory.clear()
            x = g_last
        else:
            accepted += trial
            if f_last is not None:
                memory.push(f, f_last, g, g_last)
            f_last, g_last, fn_last = f, g, fn
            x = memory.extrapolate(g, f)
        trial = x is not g_last
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
                last_move = move
                # a new map: restart from the plain step, memory cleared
                x = g_last.copy()
                x[d:] /= factor
                memory.clear()
                f_last = g_last = None
                trial = False

    u = sp.b.T @ g[:e_dim] if _is_permutation(sp.b) else gain @ t
    objective = _objective(sp, u)
    z = rho * g[d:]          # multipliers of M u = v
    z -= proj @ z            # onto {M'z = 0}
    residuals = {"primal": r_primal, "dual": r_dual}
    if sp.mode == "constraint":
        fit = norms.vector_norm(sp.a @ u - sp.y, sp.phi)
        residuals["phi_gap"] = max(0.0, fit - sp.epsilon)
    report = SolveReport(status=status, objective=objective,
                         iterations=it, residuals=residuals,
                         delta=max(0.0, objective - _dual_bound(sp, z)),
                         warnings=warnings,
                         anderson={"accepted": accepted,
                                   "rejected": rejected,
                                   "resets": memory.resets})
    return u, report
